//! The figures' common surface for frequency-estimating sketches.
//!
//! The evaluation harness runs many different sketches (baseline and SALSA
//! CMS/CUS/CS, Cold Filter, Pyramid, ABC, AEE, …) through identical
//! on-arrival loops behind `dyn FrequencyEstimator`.  Queries come from the
//! supertrait [`FrequencyQueries`], the same capability the pipeline's views
//! are gated on, so every sketch answers `estimate` in one place; this trait
//! adds only what the figures need besides: weighted updates and the memory
//! footprint.  Values are signed so Turnstile sketches (Count Sketch) fit
//! the same interface; Cash-Register sketches simply require non-negative
//! updates.

use crate::summary::FrequencyQueries;

/// A sketch that can ingest weighted item updates and estimate per-item
/// frequencies (through [`FrequencyQueries::estimate`]).
pub trait FrequencyEstimator: FrequencyQueries {
    /// Processes the update `⟨item, value⟩`.
    fn update(&mut self, item: u64, value: i64);

    /// Total memory used by the sketch in bytes, including any encoding
    /// overhead.
    fn size_bytes(&self) -> usize;
}
