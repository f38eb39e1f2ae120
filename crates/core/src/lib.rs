//! # salsa-core — self-adjusting counter arrays
//!
//! This crate implements the data-structure contribution of
//! *SALSA: Self-Adjusting Lean Streaming Analytics* (ICDE 2021): counter rows
//! whose counters start small and merge with their neighbours when they
//! overflow, so a fixed memory budget holds many more counters without
//! limiting the counting range.
//!
//! The pieces:
//!
//! * [`row::SalsaRow`] — the SALSA row (power-of-two merges), generic over
//!   the merge encoding:
//!   * [`bitmap::MergeBitmap`] — the simple encoding, 1 bit per counter;
//!   * [`compact::LayoutCodes`] — the near-optimal encoding,
//!     ≤ 0.594 bits per counter (Appendix A).
//! * [`row::SalsaSignedRow`] — sign-magnitude counters for the Count Sketch.
//! * [`tango::TangoRow`] — Tango, the fine-grained (one-slot-at-a-time)
//!   merging variant used to evaluate how much the power-of-two restriction
//!   costs.
//! * [`fixed::FixedRow`] / [`fixed::FixedSignedRow`] — fixed-width baseline
//!   rows (32-bit baseline, and the saturating 8/16-bit "small counter"
//!   baselines).
//! * [`traits::Row`] / [`traits::SignedRow`] — the interface sketches in
//!   `salsa-sketches` are generic over, so "SALSA-fying" a sketch is just a
//!   matter of plugging in a different row type.
//!
//! ## Example
//!
//! ```
//! use salsa_core::prelude::*;
//!
//! // 64 counters of 8 bits each, max-merging on overflow.
//! let mut row = SimpleSalsaRow::new(64, 8, MergeOp::Max);
//! for _ in 0..1000 {
//!     row.add(6, 1); // overflows 8 bits, then 16 … the row adapts
//! }
//! assert_eq!(row.read(6), 1000);
//! // The row never under-estimates and uses far less memory than 64×64-bit
//! // counters would.
//! assert!(row.size_bytes() < 64 * 8);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bitmap;
pub mod compact;
pub mod encoding;
pub mod fixed;
pub mod merge;
pub mod row;
pub mod storage;
pub mod tango;
pub mod traits;

/// Convenient re-exports of the most commonly used types.
pub mod prelude {
    pub use crate::bitmap::MergeBitmap;
    pub use crate::compact::LayoutCodes;
    pub use crate::encoding::MergeEncoding;
    pub use crate::fixed::{FixedRow, FixedSignedRow};
    pub use crate::merge::RowMerge;
    pub use crate::row::{
        CompactSalsaRow, CompactSalsaSignedRow, Counter, SalsaRow, SalsaSignedRow, SimpleSalsaRow,
        SimpleSalsaSignedRow,
    };
    pub use crate::tango::TangoRow;
    pub use crate::traits::{MergeOp, Row, SignedRow};
}

pub use prelude::*;
