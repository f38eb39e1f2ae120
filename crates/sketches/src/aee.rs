//! Additive-Error Estimators (AEE) and the SALSA-AEE hybrid.
//!
//! AEE (Ben Basat et al., INFOCOM'20) keeps small fixed-width counters and a
//! global sampling probability `p`: each update is counted only with
//! probability `p`, and whenever a counter would overflow (MaxAccuracy) or a
//! fixed number of updates has been sampled (MaxSpeed), `p` is halved and all
//! counters are divided by two (probabilistically or deterministically).
//! Estimates are scaled back by `1/p`, trading a bounded additive error for
//! a much larger counting range and fewer hash computations.
//!
//! SALSA-AEE (Section V, "Integrating Estimators into SALSA") combines both
//! overflow strategies: as long as the overflowing counter is not one of the
//! largest, SALSA simply merges; when a largest counter overflows it compares
//! the error increase of downsampling (`Δ_est = √2·ε_est`) against that of
//! merging (`Δ_CMS = δ^{-1/d}·2^ℓ/w`) and picks the smaller.  The speed
//! variant SALSA-AEE`d` unconditionally downsamples on the first `d`
//! overflows to reach a sampling rate of `2^{-d}` quickly, and counters can
//! optionally be *split* back after downsampling (Fig. 17).
//!
//! Both sketches are Count-Min sketches with a sampling update rule: each
//! wraps a [`CountMin`], whose counter array, hashing and
//! minimum-over-rows estimate they use as is (scaled by `1/p`), and whose
//! bucket scratch holds the current item's per-row buckets.

use salsa_core::bitmap::MergeBitmap;
use salsa_core::fixed::FixedRow;
use salsa_core::row::SalsaRow;
use salsa_core::storage::unsigned_capacity;
use salsa_core::traits::{MergeOp, Row};
use salsa_hash::SeedSequence;

use crate::cms::CountMin;
use crate::estimator::FrequencyEstimator;
use crate::summary::FrequencyQueries;

/// How counters are halved when downsampling.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Downsampling {
    /// Replace `c` by a Binomial(`c`, ½) sample (unbiased).
    #[default]
    Probabilistic,
    /// Replace `c` by `⌊c/2⌋` (cheaper, slightly biased).
    Deterministic,
}

/// The AEE operating mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AeeMode {
    /// Downsample only when a counter overflows (the accuracy-optimal
    /// variant).
    MaxAccuracy,
    /// Downsample after every `downsample_every` sampled updates, regardless
    /// of overflows (the speed-optimal variant: counters stay small and most
    /// packets skip the hash computations entirely).
    MaxSpeed {
        /// Number of sampled updates between downsampling events.
        downsample_every: u64,
    },
}

/// Draws a Binomial(`n`, ½) sample using the word-parallel popcount trick.
fn binomial_half(n: u64, rng: &mut SeedSequence) -> u64 {
    let mut remaining = n;
    let mut sample = 0u64;
    while remaining >= 64 {
        sample += rng.next_seed().count_ones() as u64;
        remaining -= 64;
    }
    if remaining > 0 {
        let mask = (1u64 << remaining) - 1;
        sample += (rng.next_seed() & mask).count_ones() as u64;
    }
    sample
}

/// Halves a counter value according to the chosen [`Downsampling`] rule.
fn halve(value: u64, rule: Downsampling, rng: &mut SeedSequence) -> u64 {
    match rule {
        Downsampling::Probabilistic => binomial_half(value, rng),
        Downsampling::Deterministic => value / 2,
    }
}

/// An AEE-style Count-Min sketch: small fixed counters plus geometric
/// sampling.
#[derive(Debug, Clone)]
pub struct AeeCountMin {
    cms: CountMin<FixedRow>,
    /// `p = 2^{-log_inv_p}`.
    log_inv_p: u32,
    rng: SeedSequence,
    mode: AeeMode,
    downsampling: Downsampling,
    sampled_since_downsample: u64,
    processed: u64,
}

impl AeeCountMin {
    /// Creates an AEE sketch with `depth × width` counters of `bits` bits.
    pub fn new(
        depth: usize,
        width: usize,
        bits: u32,
        mode: AeeMode,
        downsampling: Downsampling,
        seed: u64,
    ) -> Self {
        let mut cms = CountMin::baseline(depth, width, bits, seed);
        cms.scratch.resize(depth, 0);
        Self {
            cms,
            log_inv_p: 0,
            rng: SeedSequence::new(seed ^ 0xAEE0_AEE0_AEE0_AEE0),
            mode,
            downsampling,
            sampled_since_downsample: 0,
            processed: 0,
        }
    }

    /// The accuracy-optimal configuration (downsample on overflow).
    pub fn max_accuracy(depth: usize, width: usize, bits: u32, seed: u64) -> Self {
        Self::new(
            depth,
            width,
            bits,
            AeeMode::MaxAccuracy,
            Downsampling::Probabilistic,
            seed,
        )
    }

    /// The speed-optimal configuration (periodic downsampling).
    pub fn max_speed(
        depth: usize,
        width: usize,
        bits: u32,
        downsample_every: u64,
        seed: u64,
    ) -> Self {
        Self::new(
            depth,
            width,
            bits,
            AeeMode::MaxSpeed { downsample_every },
            Downsampling::Probabilistic,
            seed,
        )
    }

    /// Current sampling probability.
    pub fn sampling_probability(&self) -> f64 {
        0.5f64.powi(self.log_inv_p as i32)
    }

    /// Total number of updates offered (sampled or not).
    pub fn processed(&self) -> u64 {
        self.processed
    }

    #[inline]
    fn is_sampled(&mut self) -> bool {
        if self.log_inv_p == 0 {
            return true;
        }
        let mask = (1u64 << self.log_inv_p) - 1;
        self.rng.next_seed() & mask == 0
    }

    fn downsample(&mut self) {
        self.log_inv_p += 1;
        self.sampled_since_downsample = 0;
        let rule = self.downsampling;
        for row in &mut self.cms.rows {
            for idx in 0..row.width() {
                let value = row.read(idx);
                if value > 0 {
                    row.set_slot(idx, halve(value, rule, &mut self.rng));
                }
            }
        }
    }

    /// Processes a unit-weight update (the AEE evaluation uses unit-weight
    /// Cash Register streams; weighted updates are handled by repeated
    /// sampling of the weight).
    pub fn update(&mut self, item: u64, value: u64) {
        self.processed += value;
        let mut increments = 0u64;
        for _ in 0..value {
            if self.is_sampled() {
                increments += 1;
            }
        }
        if increments == 0 {
            return;
        }
        // Hash once per row only when at least one unit survived sampling —
        // this is where AEE gains its speed.
        self.cms.hash_into_scratch(item);
        let cap = self.cms.rows[0].capacity();
        for _ in 0..increments {
            self.sampled_since_downsample += 1;
            // Overflow / periodic downsampling checks.
            let would_overflow = self
                .cms
                .rows
                .iter()
                .zip(self.cms.scratch.iter())
                .any(|(row, &b)| row.read(b) >= cap);
            let periodic = matches!(self.mode, AeeMode::MaxSpeed { downsample_every }
                if self.sampled_since_downsample >= downsample_every);
            if would_overflow || periodic {
                self.downsample();
                // The pending unit survives the halving with probability ½.
                if self.rng.next_seed() & 1 == 1 {
                    continue;
                }
            }
            for (row, &b) in self.cms.rows.iter_mut().zip(self.cms.scratch.iter()) {
                row.add(b, 1);
            }
        }
    }

    /// Estimates the frequency of `item` (minimum counter scaled by `1/p`).
    pub fn estimate(&self, item: u64) -> u64 {
        self.cms.estimate(item) << self.log_inv_p
    }

    /// Total memory used, in bytes.
    pub fn size_bytes(&self) -> usize {
        self.cms.size_bytes()
    }
}

impl FrequencyEstimator for AeeCountMin {
    fn update(&mut self, item: u64, value: i64) {
        debug_assert!(value >= 0);
        AeeCountMin::update(self, item, value as u64);
    }

    fn size_bytes(&self) -> usize {
        AeeCountMin::size_bytes(self)
    }
}

impl FrequencyQueries for AeeCountMin {
    fn estimate(&self, item: u64) -> i64 {
        AeeCountMin::estimate(self, item).min(i64::MAX as u64) as i64
    }
}

/// SALSA-AEE's base counter size in bits (`s`).
const BASE_BITS: u32 = 8;

/// SALSA-AEE's overall failure probability `δ`; the paper uses
/// `δ = 4·δ_est = 0.001`.
const DELTA: f64 = 0.001;

/// Configuration for the SALSA-AEE hybrid.
///
/// The base counter size (8 bits), the failure probability `δ` (0.001)
/// and the halving rule ([`Downsampling::Probabilistic`]) are the paper's
/// and fixed.
#[derive(Debug, Clone, Copy)]
pub struct SalsaAeeConfig {
    /// Number of rows (`d`).
    pub depth: usize,
    /// Base counters per row (`w`).
    pub width: usize,
    /// Downsample unconditionally on the first `d` largest-counter overflows
    /// (the SALSA-AEE`d` speed variant; 0 recovers plain SALSA-AEE).
    pub force_downsample_first: u32,
    /// Split merged counters whose value fits in half the bits after
    /// downsampling (Fig. 17).
    pub split_after_downsample: bool,
}

impl SalsaAeeConfig {
    /// The paper's default configuration for a given `depth × width` sketch.
    pub fn new(depth: usize, width: usize) -> Self {
        Self {
            depth,
            width,
            force_downsample_first: 0,
            split_after_downsample: false,
        }
    }
}

/// The SALSA-AEE hybrid sketch: SALSA merging plus AEE downsampling, choosing
/// per overflow whichever increases the error bound less.
#[derive(Debug, Clone)]
pub struct SalsaAee {
    cms: CountMin<SalsaRow<MergeBitmap>>,
    force_downsample_first: u32,
    split_after_downsample: bool,
    log_inv_p: u32,
    rng: SeedSequence,
    processed: u64,
    downsample_events: u32,
    max_level_seen: u32,
}

impl SalsaAee {
    /// Creates a SALSA-AEE sketch.
    pub fn new(config: SalsaAeeConfig, seed: u64) -> Self {
        let mut cms = CountMin::salsa(config.depth, config.width, BASE_BITS, MergeOp::Max, seed);
        cms.scratch.resize(config.depth, 0);
        Self {
            cms,
            force_downsample_first: config.force_downsample_first,
            split_after_downsample: config.split_after_downsample,
            log_inv_p: 0,
            rng: SeedSequence::new(seed ^ 0x5A15_AAEE_5A15_AAEE),
            processed: 0,
            downsample_events: 0,
            max_level_seen: 0,
        }
    }

    /// Convenience constructor matching the paper's defaults.
    pub fn with_dimensions(depth: usize, width: usize, seed: u64) -> Self {
        Self::new(SalsaAeeConfig::new(depth, width), seed)
    }

    /// The speed variant SALSA-AEE`d`.
    pub fn speed_variant(depth: usize, width: usize, d: u32, seed: u64) -> Self {
        let mut config = SalsaAeeConfig::new(depth, width);
        config.force_downsample_first = d;
        Self::new(config, seed)
    }

    /// Current sampling probability.
    pub fn sampling_probability(&self) -> f64 {
        0.5f64.powi(self.log_inv_p as i32)
    }

    /// Number of downsampling events so far.
    pub fn downsample_events(&self) -> u32 {
        self.downsample_events
    }

    #[inline]
    fn is_sampled(&mut self) -> bool {
        if self.log_inv_p == 0 {
            return true;
        }
        let mask = (1u64 << self.log_inv_p) - 1;
        self.rng.next_seed() & mask == 0
    }

    /// The estimator error increase if we downsample: `Δ_est = √2·ε_est`
    /// with `ε_est = √(2·p⁻¹·ln(2/δ_est))/N` (Section V).
    fn delta_est(&self) -> f64 {
        if self.processed == 0 {
            return f64::INFINITY;
        }
        let delta_est = DELTA / 4.0;
        let inv_p = 2f64.powi(self.log_inv_p as i32);
        let eps_est = (2.0 * inv_p * (2.0 / delta_est).ln()).sqrt() / self.processed as f64;
        std::f64::consts::SQRT_2 * eps_est
    }

    /// The merge error increase: `Δ_CMS = δ^{-1/d}·2^ℓ/w` where `s·2^ℓ` is
    /// the current largest counter size.
    fn delta_cms(&self) -> f64 {
        let d = self.cms.depth() as f64;
        DELTA.powf(-1.0 / d) * 2f64.powi(self.max_level_seen as i32) / self.cms.width() as f64
    }

    fn downsample(&mut self) {
        self.log_inv_p += 1;
        self.downsample_events += 1;
        // Halve every counter; splitting can only shrink levels.
        for row in &mut self.cms.rows {
            row.map_counters(|v| binomial_half(v, &mut self.rng));
            if self.split_after_downsample {
                row.split_all();
            }
        }
        // Re-derive the largest level (splitting may have lowered it).
        self.max_level_seen = self
            .cms
            .rows
            .iter()
            .map(|r| r.current_max_level())
            .max()
            .unwrap_or(0);
    }

    /// Processes a unit-weight (or small-weight) update.
    pub fn update(&mut self, item: u64, value: u64) {
        self.processed += value;
        let mut increments = 0u64;
        for _ in 0..value {
            if self.is_sampled() {
                increments += 1;
            }
        }
        if increments == 0 {
            return;
        }
        self.cms.hash_into_scratch(item);
        for _ in 0..increments {
            // Would this update overflow one of the *largest* counters?
            let rows = &self.cms.rows;
            let absolute_max = rows[0].max_level();
            let largest_overflow = rows.iter().zip(self.cms.scratch.iter()).any(|(row, &b)| {
                let level = row.level_of(b);
                level >= self.max_level_seen && row.read(b) >= unsigned_capacity(BASE_BITS << level)
            });
            if largest_overflow {
                let must_downsample = self.max_level_seen >= absolute_max;
                let forced = self.downsample_events < self.force_downsample_first;
                let prefer_downsample = self.delta_cms() > self.delta_est();
                if must_downsample || forced || prefer_downsample {
                    self.downsample();
                    // The pending unit survives the halving with prob. ½.
                    if self.rng.next_seed() & 1 == 1 {
                        continue;
                    }
                }
            }
            for (row, &b) in self.cms.rows.iter_mut().zip(self.cms.scratch.iter()) {
                row.add(b, 1);
                self.max_level_seen = self.max_level_seen.max(row.level_of(b));
            }
        }
    }

    /// Estimates the frequency of `item` (minimum counter scaled by `1/p`).
    pub fn estimate(&self, item: u64) -> u64 {
        self.cms.estimate(item) << self.log_inv_p
    }

    /// Total memory used, in bytes (including merge-bit overhead).
    pub fn size_bytes(&self) -> usize {
        self.cms.size_bytes()
    }
}

impl FrequencyEstimator for SalsaAee {
    fn update(&mut self, item: u64, value: i64) {
        debug_assert!(value >= 0);
        SalsaAee::update(self, item, value as u64);
    }

    fn size_bytes(&self) -> usize {
        SalsaAee::size_bytes(self)
    }
}

impl FrequencyQueries for SalsaAee {
    fn estimate(&self, item: u64) -> i64 {
        SalsaAee::estimate(self, item).min(i64::MAX as u64) as i64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn binomial_half_is_centered() {
        let mut rng = SeedSequence::new(7);
        let trials = 200;
        let n = 1_000u64;
        let mean: f64 = (0..trials)
            .map(|_| binomial_half(n, &mut rng) as f64)
            .sum::<f64>()
            / trials as f64;
        assert!((mean - 500.0).abs() < 25.0, "binomial mean {mean}");
        assert_eq!(binomial_half(0, &mut rng), 0);
        assert!(binomial_half(1, &mut rng) <= 1);
    }

    #[test]
    fn aee_without_overflow_is_exact() {
        let mut aee = AeeCountMin::max_accuracy(4, 1 << 12, 16, 3);
        for item in 0..100u64 {
            for _ in 0..50 {
                aee.update(item, 1);
            }
        }
        assert_eq!(aee.sampling_probability(), 1.0);
        for item in 0..100u64 {
            assert_eq!(aee.estimate(item), 50);
        }
    }

    #[test]
    fn aee_downsamples_on_overflow_and_keeps_estimates_close() {
        // 8-bit counters: a single heavy item forces repeated downsampling.
        let mut aee = AeeCountMin::max_accuracy(4, 1 << 10, 8, 5);
        let truth = 100_000u64;
        for _ in 0..truth {
            aee.update(42, 1);
        }
        assert!(aee.sampling_probability() < 1.0);
        let est = aee.estimate(42);
        let rel = (est as f64 - truth as f64).abs() / truth as f64;
        assert!(rel < 0.15, "AEE estimate {est} vs {truth} (rel {rel})");
    }

    #[test]
    fn aee_max_speed_downsamples_periodically() {
        let mut aee = AeeCountMin::max_speed(4, 256, 8, 1_000, 9);
        for item in 0..50u64 {
            for _ in 0..200 {
                aee.update(item, 1);
            }
        }
        assert!(aee.sampling_probability() < 1.0);
        // Estimates remain in the right ballpark despite aggressive sampling.
        let est = aee.estimate(7);
        assert!((est as f64 - 200.0).abs() < 150.0, "estimate {est}");
    }

    #[test]
    fn salsa_aee_without_pressure_matches_salsa() {
        let mut hybrid = SalsaAee::with_dimensions(4, 1 << 12, 3);
        for item in 0..200u64 {
            for _ in 0..100 {
                hybrid.update(item, 1);
            }
        }
        // Plenty of room: no downsampling should have happened, estimates
        // are exact (no collisions at this load factor).
        assert_eq!(hybrid.sampling_probability(), 1.0);
        for item in 0..200u64 {
            assert_eq!(hybrid.estimate(item), 100);
        }
    }

    #[test]
    fn salsa_aee_handles_heavy_streams() {
        let stream = zipfish_stream(200_000, 1_000, 7);
        let mut truth = std::collections::HashMap::new();
        let mut hybrid = SalsaAee::with_dimensions(4, 256, 11);
        for &item in &stream {
            hybrid.update(item, 1);
            *truth.entry(item).or_insert(0u64) += 1;
        }
        // The heaviest item must be estimated within 20 %.
        let (&heavy, &count) = truth.iter().max_by_key(|(_, &c)| c).unwrap();
        let est = hybrid.estimate(heavy);
        let rel = (est as f64 - count as f64).abs() / count as f64;
        assert!(rel < 0.2, "estimate {est} vs {count} (rel {rel})");
    }

    #[test]
    fn speed_variant_downsamples_early() {
        let stream = zipfish_stream(50_000, 1_000, 3);
        let mut fast = SalsaAee::speed_variant(4, 1 << 10, 6, 13);
        for &item in &stream {
            fast.update(item, 1);
        }
        assert!(
            fast.downsample_events() >= 6,
            "the speed variant should have downsampled at least d times, got {}",
            fast.downsample_events()
        );
        assert!(fast.sampling_probability() <= 1.0 / 64.0);
    }

    #[test]
    fn split_variant_reduces_counter_levels() {
        let stream = zipfish_stream(100_000, 500, 5);
        let mut config = SalsaAeeConfig::new(4, 256);
        config.split_after_downsample = true;
        config.force_downsample_first = 4;
        let mut split = SalsaAee::new(config, 17);
        let mut config_ns = SalsaAeeConfig::new(4, 256);
        config_ns.force_downsample_first = 4;
        let mut nosplit = SalsaAee::new(config_ns, 17);
        for &item in &stream {
            split.update(item, 1);
            nosplit.update(item, 1);
        }
        // Both variants were forced to downsample.
        assert!(split.downsample_events() >= 4);
        assert!(nosplit.downsample_events() >= 4);
        // Splitting can only shrink counters, so the largest counter level of
        // the split variant never exceeds the non-split one.
        let split_max = split
            .cms
            .rows
            .iter()
            .map(|r| r.current_max_level())
            .max()
            .unwrap();
        let nosplit_max = nosplit
            .cms
            .rows
            .iter()
            .map(|r| r.current_max_level())
            .max()
            .unwrap();
        assert!(
            split_max <= nosplit_max,
            "split {split_max} > nosplit {nosplit_max}"
        );
        // And both still estimate the heavy item sensibly.
        let heavy_est_split = split.estimate(1);
        let heavy_est_nosplit = nosplit.estimate(1);
        assert!(heavy_est_split > 0 && heavy_est_nosplit > 0);
    }
}
