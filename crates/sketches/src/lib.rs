//! # salsa-sketches — counter-based sketches, baseline and SALSA-fied
//!
//! This crate implements every sketch the SALSA paper builds on or extends,
//! all generic over the counter-row types of [`salsa_core`]:
//!
//! | Sketch | Module | Baseline row | SALSA row |
//! |--------|--------|--------------|-----------|
//! | Count-Min Sketch (CMS) | [`cms`] | [`FixedRow`] (32-bit) | [`SalsaRow`] / [`TangoRow`] |
//! | Conservative Update (CUS) | [`cus`] | `FixedRow` | `SalsaRow` (max-merge) |
//! | Count Sketch (CS) | [`cs`] | [`FixedSignedRow`] | [`SalsaSignedRow`] |
//! | UnivMon | [`univmon`] | CS over either row type | CS over SALSA rows |
//! | Cold Filter | [`cold_filter`] | CUS stage 2 | SALSA CUS stage 2 |
//! | AEE estimators | [`aee`] | small fixed counters + sampling | SALSA-AEE hybrid |
//!
//! Supporting pieces: [`heavy_hitters::TopK`] (min-heap tracking of the
//! largest estimates), [`distinct`] (Linear Counting from a sketch's zero
//! counters), and sketch union / difference for change detection.
//!
//! CMS, CUS, CS, UnivMon and [`DistinctCounter`] implement the [`summary`]
//! traits — [`StreamSummary`] (batched ingest, counter-wise merge),
//! [`SnapshotSummary`] (cheap copies and helper-threaded merges) and the
//! query capabilities — once, in their own modules; `salsa-pipeline`
//! shards any type that implements them.
//!
//! ## Quick example
//!
//! ```
//! use salsa_sketches::prelude::*;
//!
//! // A SALSA Count-Min sketch: 4 rows of 4096 8-bit counters (max-merge).
//! let mut sketch = CountMin::salsa(4, 4096, 8, MergeOp::Max, 42);
//! for item in 0u64..1000 {
//!     sketch.update(item % 10, 1);
//! }
//! assert!(sketch.estimate(3) >= 100);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aee;
pub mod cms;
pub mod cold_filter;
pub mod cs;
pub mod cus;
pub mod distinct;
pub mod estimator;
pub mod heavy_hitters;
pub mod helper;
pub mod memory;
pub mod summary;
pub mod univmon;

/// Convenient re-exports of the most commonly used types.
pub mod prelude {
    pub use crate::aee::{AeeCountMin, AeeMode, Downsampling, SalsaAee, SalsaAeeConfig};
    pub use crate::cms::CountMin;
    pub use crate::cold_filter::ColdFilter;
    pub use crate::cs::CountSketch;
    pub use crate::cus::ConservativeUpdate;
    pub use crate::distinct::{distinct_from_rows, linear_counting, DistinctCounter};
    pub use crate::estimator::FrequencyEstimator;
    pub use crate::heavy_hitters::TopK;
    pub use crate::helper::MergeHelper;
    pub use crate::memory::{width_for_budget, width_for_budget_bits};
    pub use crate::summary::{
        DistinctQueries, FrequencyQueries, SnapshotSummary, StreamSummary, Tracked, TrackedQueries,
        UniversalQueries,
    };
    pub use crate::univmon::UnivMon;
    pub use salsa_core::prelude::*;
    pub use salsa_hash::{RowHashers, SignHash};
}

pub use prelude::*;
