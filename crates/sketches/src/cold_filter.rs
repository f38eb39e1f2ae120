//! Cold Filter — a two-stage filtering framework for accurate heavy-part
//! measurement.
//!
//! Cold Filter (Zhou et al.) sends every item first through a small,
//! low-resolution stage-1 sketch (conservative update over 4-bit counters);
//! only the portion of an item's count exceeding the stage-1 threshold
//! reaches the accurate stage-2 sketch (a CU sketch, "CM-CU" in the original
//! paper).  Cold items therefore never pollute stage 2.
//!
//! The SALSA evaluation (Fig. 13) replaces the stage-2 CU sketch with a SALSA
//! CUS; this module is generic over the stage-2 row type so both variants
//! share all the filtering logic.

use salsa_core::bitmap::MergeBitmap;
use salsa_core::fixed::FixedRow;
use salsa_core::row::SalsaRow;
use salsa_core::traits::Row;

use crate::cus::ConservativeUpdate;
use crate::estimator::FrequencyEstimator;
use crate::summary::FrequencyQueries;

/// Stage-1 counter width (bits) used by the Cold Filter paper.
pub const STAGE1_BITS: u32 = 4;
/// The stage-1 threshold: the capacity of a [`STAGE1_BITS`]-bit counter.
/// It is a constant, not a setting: stage-1 counters saturate at that
/// capacity, so an item would never reach a larger threshold and never be
/// promoted to stage 2.
pub const STAGE1_THRESHOLD: u64 = 15;

/// The two-stage Cold Filter, generic over the stage-2 row type.
#[derive(Debug, Clone)]
pub struct ColdFilter<R: Row> {
    stage1: ConservativeUpdate<FixedRow>,
    stage2: ConservativeUpdate<R>,
}

impl<R: Row> ColdFilter<R> {
    /// Builds a Cold Filter from an explicit stage-1 configuration and a
    /// pre-built stage-2 sketch.
    pub fn with_stage2(
        stage1_depth: usize,
        stage1_width: usize,
        seed: u64,
        stage2: ConservativeUpdate<R>,
    ) -> Self {
        Self {
            stage1: ConservativeUpdate::baseline(
                stage1_depth,
                stage1_width,
                STAGE1_BITS,
                seed ^ 0xC01D,
            ),
            stage2,
        }
    }

    /// Processes the update `⟨item, value⟩` (Cash Register model).
    pub fn update(&mut self, item: u64, value: u64) {
        let est1 = self.stage1.estimate(item);
        if est1 >= STAGE1_THRESHOLD {
            // Item is already hot: everything goes to stage 2.
            self.stage2.update(item, value);
            return;
        }
        let room = STAGE1_THRESHOLD - est1;
        if value <= room {
            self.stage1.update(item, value);
        } else {
            self.stage1.update(item, room);
            self.stage2.update(item, value - room);
        }
    }

    /// Estimates the frequency of `item`.
    pub fn estimate(&self, item: u64) -> u64 {
        let est1 = self.stage1.estimate(item);
        if est1 < STAGE1_THRESHOLD {
            est1
        } else {
            STAGE1_THRESHOLD + self.stage2.estimate(item)
        }
    }

    /// Total memory used by both stages, in bytes.
    pub fn size_bytes(&self) -> usize {
        self.stage1.size_bytes() + self.stage2.size_bytes()
    }

    /// Immutable access to the stage-2 sketch.
    pub fn stage2(&self) -> &ConservativeUpdate<R> {
        &self.stage2
    }
}

impl ColdFilter<FixedRow> {
    /// The baseline Cold Filter: stage 2 is a CU sketch with fixed-width
    /// (32-bit) counters.
    pub fn baseline(
        stage1_depth: usize,
        stage1_width: usize,
        stage2_depth: usize,
        stage2_width: usize,
        stage2_bits: u32,
        seed: u64,
    ) -> Self {
        let stage2 = ConservativeUpdate::baseline(stage2_depth, stage2_width, stage2_bits, seed);
        Self::with_stage2(stage1_depth, stage1_width, seed, stage2)
    }
}

impl ColdFilter<SalsaRow<MergeBitmap>> {
    /// The SALSA Cold Filter: stage 2 is a SALSA CUS with `base_bits`-bit
    /// counters (max-merge).
    pub fn salsa(
        stage1_depth: usize,
        stage1_width: usize,
        stage2_depth: usize,
        stage2_width: usize,
        base_bits: u32,
        seed: u64,
    ) -> Self {
        let stage2 = ConservativeUpdate::salsa(stage2_depth, stage2_width, base_bits, seed);
        Self::with_stage2(stage1_depth, stage1_width, seed, stage2)
    }
}

impl<R: Row> FrequencyEstimator for ColdFilter<R> {
    fn update(&mut self, item: u64, value: i64) {
        debug_assert!(
            value >= 0,
            "Cold Filter operates in the Cash Register model"
        );
        ColdFilter::update(self, item, value as u64);
    }

    fn size_bytes(&self) -> usize {
        ColdFilter::size_bytes(self)
    }
}

impl<R: Row> FrequencyQueries for ColdFilter<R> {
    fn estimate(&self, item: u64) -> i64 {
        ColdFilter::estimate(self, item).min(i64::MAX as u64) as i64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn zipfish_stream(n: usize, universe: u64, seed: u64) -> Vec<u64> {
        let mut state = seed;
        (0..n)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                let u = ((state >> 11) as f64 / (1u64 << 53) as f64).max(1e-12);
                ((1.0 / u) as u64).min(universe - 1)
            })
            .collect()
    }

    #[test]
    fn cold_items_stay_in_stage_one() {
        let mut cf = ColdFilter::salsa(3, 1 << 12, 3, 1 << 10, 8, 1);
        for item in 0..100u64 {
            for _ in 0..5 {
                cf.update(item, 1);
            }
        }
        for item in 0..100u64 {
            assert_eq!(cf.estimate(item), 5);
        }
        // Nothing crossed the threshold, so stage 2 is untouched.
        assert_eq!(cf.stage2().estimate(42), 0);
    }

    #[test]
    fn hot_items_overflow_to_stage_two() {
        let mut cf = ColdFilter::salsa(3, 1 << 12, 3, 1 << 10, 8, 2);
        for _ in 0..1_000 {
            cf.update(7, 1);
        }
        assert!(cf.estimate(7) >= 1_000);
        assert!(cf.stage2().estimate(7) >= 1_000 - STAGE1_THRESHOLD);
    }

    #[test]
    fn never_underestimates() {
        let stream = zipfish_stream(50_000, 2_000, 5);
        let mut truth: HashMap<u64, u64> = HashMap::new();
        let mut cf = ColdFilter::salsa(3, 1 << 12, 3, 1 << 10, 8, 3);
        for &item in &stream {
            cf.update(item, 1);
            *truth.entry(item).or_insert(0) += 1;
        }
        for (&item, &count) in &truth {
            assert!(cf.estimate(item) >= count, "item {item}");
        }
    }

    #[test]
    fn salsa_stage2_beats_baseline_stage2_at_equal_memory() {
        // The Fig. 13 claim: with the same stage-2 memory, SALSA stage 2 is
        // more accurate (here: no larger total over-estimation).
        let stream = zipfish_stream(100_000, 20_000, 9);
        let mut truth: HashMap<u64, u64> = HashMap::new();
        for &item in &stream {
            *truth.entry(item).or_insert(0) += 1;
        }
        let mut base = ColdFilter::baseline(3, 1 << 12, 3, 256, 32, 11);
        let mut salsa = ColdFilter::salsa(3, 1 << 12, 3, 1024, 8, 11);
        assert!(salsa.size_bytes() <= base.size_bytes() * 9 / 8);
        for &item in &stream {
            base.update(item, 1);
            salsa.update(item, 1);
        }
        let base_err: u64 = truth.iter().map(|(&i, &c)| base.estimate(i) - c).sum();
        let salsa_err: u64 = truth.iter().map(|(&i, &c)| salsa.estimate(i) - c).sum();
        assert!(
            salsa_err <= base_err,
            "SALSA Cold Filter error {salsa_err} should not exceed baseline {base_err}"
        );
    }

    #[test]
    fn weighted_updates_split_across_stages() {
        let mut cf = ColdFilter::salsa(3, 1 << 10, 3, 1 << 10, 8, 4);
        cf.update(1, 10);
        assert_eq!(cf.estimate(1), 10);
        cf.update(1, 10);
        assert!(cf.estimate(1) >= 20);
        assert!(cf.stage2().estimate(1) >= 5);
    }

    #[test]
    fn size_includes_both_stages() {
        let cf = ColdFilter::salsa(3, 1 << 12, 3, 1 << 10, 8, 1);
        let stage1_bytes = 3 * (1 << 12) * STAGE1_BITS as usize / 8;
        assert_eq!(cf.size_bytes(), stage1_bytes + cf.stage2().size_bytes());
    }
}
