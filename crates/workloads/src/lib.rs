//! # salsa-workloads — stream generators for the SALSA evaluation
//!
//! The paper evaluates on four real packet/video traces and synthetic
//! Zipfian traces.  The real traces (CAIDA NY18, CAIDA CH16, the Univ2
//! datacenter trace and a Kaggle YouTube view-count trace) are not
//! redistributable, so this crate generates **synthetic stand-ins with the
//! same first-order statistics the paper reports** (stream length, number of
//! distinct items, skew); see the substitution table in [`trace`].  All
//! sketch algorithms see exactly the same streams, so relative comparisons
//! (who wins, by how much, where crossovers happen) are preserved.
//!
//! Contents:
//!
//! * [`distribution::DiscreteDistribution`] — O(1) alias-method sampling from
//!   arbitrary discrete distributions;
//! * [`zipf::ZipfDistribution`] — bounded Zipf(α) item sampling built on it;
//! * [`trace::TraceSpec`] — named workloads (`Zipf`, `CaidaNy18`, `CaidaCh16`,
//!   `Univ2`, `YouTube`) that generate reproducible item streams;
//! * [`stream`] — update/stream helpers (unit-weight cash-register streams,
//!   change-detection splits, turnstile difference streams).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod distribution;
pub mod stream;
pub mod trace;
pub mod zipf;

pub use distribution::DiscreteDistribution;
pub use stream::{split_halves, Update};
pub use trace::{Trace, TraceSpec};
pub use zipf::ZipfDistribution;
