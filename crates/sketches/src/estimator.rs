//! A common interface for frequency-estimating sketches.
//!
//! The evaluation harness runs many different sketches (baseline and SALSA
//! CMS/CUS/CS, Pyramid, ABC, AEE, …) through identical on-arrival loops; this
//! trait is the small common surface they all expose.  Values are signed so
//! Turnstile sketches (Count Sketch) fit the same interface; Cash-Register
//! sketches simply require non-negative updates.

/// A sketch that can ingest weighted item updates and estimate per-item
/// frequencies.
pub trait FrequencyEstimator {
    /// Processes the update `⟨item, value⟩`.
    fn update(&mut self, item: u64, value: i64);

    /// Estimates the current frequency of `item`.
    fn estimate(&self, item: u64) -> i64;

    /// Total memory used by the sketch in bytes, including any encoding
    /// overhead.
    fn size_bytes(&self) -> usize;

    /// A short human-readable name used in experiment output.
    ///
    /// The default is the implementing type's base name with any generic
    /// parameters trimmed, so `CountMin<FixedRow>` and `CountMin<SalsaRow>`
    /// both label as `CountMin` — bench/figure labels stay stable across row
    /// backends.  (The generics must be trimmed *before* splitting on `::`:
    /// the monomorphized name `a::CountMin<b::FixedRow>` would otherwise
    /// yield `FixedRow>`.)
    fn name(&self) -> String {
        let full = std::any::type_name::<Self>();
        let base = full.split('<').next().unwrap_or(full);
        base.rsplit("::").next().unwrap_or("sketch").to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Probe<T>(std::marker::PhantomData<T>);

    impl<T> FrequencyEstimator for Probe<T> {
        fn update(&mut self, _item: u64, _value: i64) {}
        fn estimate(&self, _item: u64) -> i64 {
            0
        }
        fn size_bytes(&self) -> usize {
            0
        }
        // `name` left at the default on purpose — it is what this tests.
    }

    #[test]
    fn default_name_trims_generic_parameters() {
        let plain = Probe::<u32>(std::marker::PhantomData);
        assert_eq!(plain.name(), "Probe");
        // A path-qualified parameter used to leak through as `Vec<u8>>`-style
        // suffixes via rsplit("::").
        let nested = Probe::<std::vec::Vec<std::string::String>>(std::marker::PhantomData);
        assert_eq!(nested.name(), "Probe");
    }
}
