//! Seeded hash families for the SALSA sketching library.
//!
//! The paper's reference implementation uses BobHash (Bob Jenkins' lookup3)
//! for all index computations, with one independently seeded hash function
//! per sketch row plus a pairwise-independent sign hash for the Count Sketch.
//! This crate provides:
//!
//! * [`BobHash`] — a lookup3-style seeded hash over byte slices and `u64`
//!   keys,
//! * [`RowHashers`] — a family of `d` independently seeded row hashers
//!   mapping items to `[0, w)` for power-of-two `w`,
//! * [`SignHash`] — a pairwise-independent `{+1, -1}` hash used by the Count
//!   Sketch,
//! * [`FxHashMap`]/[`FxHashSet`] — fast (non-cryptographic) hash maps used
//!   for ground-truth frequency tables in tests, metrics and experiment
//!   harnesses.
//!
//! All hashers are deterministic functions of their seed, which makes every
//! sketch, test and experiment in the workspace reproducible.
//!
//! # Batch hashing and the crate's one `unsafe`
//!
//! [`BobHash::hash_u64_into`] and [`RowHashers::buckets_into`] hash a whole
//! slice of keys.  On x86-64 CPUs that report AVX2 at run time they run
//! lookup3's rounds on eight keys at a time in vector lanes, producing
//! exactly the digests of [`BobHash::hash_u64`]; everywhere else, and for
//! the last fewer-than-eight keys, they run the scalar loop.  The lane
//! kernel is safe code compiled with `#[target_feature(enable = "avx2")]`
//! that takes no raw pointer, but calling such a function needs `unsafe`.
//! That call, right after the run-time AVX2 check, is the only `unsafe`
//! in the crate.  The crate root therefore denies rather than forbids
//! `unsafe_code`, and allows it at exactly that one audited site (with a
//! `// SAFETY:` proof); salsa-lint rule 2 keeps it the only such site in
//! the workspace's library crates.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod bob;
pub mod family;
pub mod fx;
mod lanes;
pub mod sign;

pub use bob::BobHash;
pub use family::RowHashers;
pub use fx::{FxHashMap, FxHashSet, FxHasher64};
pub use sign::SignHash;

/// A deterministic pseudo-random seed expander.
///
/// Sketches need several independent seeds (one per row, one per sign hash,
/// …) derived from a single user-provided seed.  `SeedSequence` produces a
/// stream of well-mixed 64-bit seeds using the SplitMix64 generator, which is
/// the standard way to seed families of hash functions deterministically.
#[derive(Debug, Clone)]
pub struct SeedSequence {
    state: u64,
}

impl SeedSequence {
    /// Creates a new seed sequence from a master seed.
    pub fn new(master_seed: u64) -> Self {
        Self { state: master_seed }
    }

    /// Returns the next derived seed.
    pub fn next_seed(&mut self) -> u64 {
        // SplitMix64 step.
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

impl Iterator for SeedSequence {
    type Item = u64;

    fn next(&mut self) -> Option<u64> {
        Some(self.next_seed())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_sequence_is_deterministic() {
        let a: Vec<u64> = SeedSequence::new(42).take(8).collect();
        let b: Vec<u64> = SeedSequence::new(42).take(8).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn seed_sequence_differs_for_different_masters() {
        let a: Vec<u64> = SeedSequence::new(1).take(8).collect();
        let b: Vec<u64> = SeedSequence::new(2).take(8).collect();
        assert_ne!(a, b);
    }

    #[test]
    fn seed_sequence_produces_distinct_values() {
        let seeds: Vec<u64> = SeedSequence::new(7).take(1000).collect();
        let unique: std::collections::HashSet<_> = seeds.iter().collect();
        assert_eq!(unique.len(), seeds.len());
    }
}
