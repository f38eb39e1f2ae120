//! Memory-budgeted sketch builders.
//!
//! Every accuracy-versus-memory figure sweeps the *total allocated memory*
//! (including encoding overhead); these helpers turn a byte budget into the
//! concrete sketch configurations the paper compares, all boxed behind the
//! common [`FrequencyEstimator`] interface so the harness can drive them
//! uniformly.

use salsa_competitors::{AbcSketch, PyramidSketch};
use salsa_core::prelude::*;
use salsa_sketches::prelude::*;

/// The number of rows used by all CMS/CUS experiments (`d = 4`, as in the
/// paper / Caffeine).
pub const CMS_DEPTH: usize = 4;
/// The number of rows used by all CS experiments (`d = 5`, as in the paper).
pub const CS_DEPTH: usize = 5;
/// Baseline counter width (bits).
pub const BASELINE_BITS: u32 = 32;
/// Default SALSA base counter width (bits).
pub const SALSA_BITS: u32 = 8;

/// A seed-parameterised sketch factory, used by the experiment binaries to
/// rebuild a fresh sketch for every trial.
pub type SketchBuilder = Box<dyn Fn(u64) -> Box<dyn FrequencyEstimator>>;

/// Baseline CMS (32-bit counters) sized for `budget_bytes`.
pub fn baseline_cms(budget_bytes: usize, seed: u64) -> Box<dyn FrequencyEstimator> {
    let w = width_for_budget(budget_bytes, CMS_DEPTH, BASELINE_BITS);
    Box::new(CountMin::baseline(CMS_DEPTH, w, BASELINE_BITS, seed))
}

/// CMS with small fixed (saturating) counters of `bits` bits — the
/// "can one simply use small counters?" baseline of Fig. 6 / Figs. 19–20.
pub fn small_counter_cms(budget_bytes: usize, bits: u32, seed: u64) -> Box<dyn FrequencyEstimator> {
    let w = width_for_budget(budget_bytes, CMS_DEPTH, bits);
    Box::new(CountMin::baseline(CMS_DEPTH, w, bits, seed))
}

/// SALSA CMS with `base_bits`-bit counters and the simple encoding.
pub fn salsa_cms(
    budget_bytes: usize,
    base_bits: u32,
    merge_op: MergeOp,
    seed: u64,
) -> Box<dyn FrequencyEstimator> {
    let w = width_for_budget_bits(budget_bytes, CMS_DEPTH, base_bits, 1.0);
    Box::new(CountMin::salsa(CMS_DEPTH, w, base_bits, merge_op, seed))
}

/// SALSA CMS with the near-optimal (compact) encoding.
pub fn salsa_cms_compact(
    budget_bytes: usize,
    base_bits: u32,
    merge_op: MergeOp,
    seed: u64,
) -> Box<dyn FrequencyEstimator> {
    let w = width_for_budget_bits(budget_bytes, CMS_DEPTH, base_bits, 0.594);
    Box::new(CountMin::salsa_compact(
        CMS_DEPTH, w, base_bits, merge_op, seed,
    ))
}

/// Tango CMS with `base_bits`-bit counters.
pub fn tango_cms(
    budget_bytes: usize,
    base_bits: u32,
    merge_op: MergeOp,
    seed: u64,
) -> Box<dyn FrequencyEstimator> {
    let w = width_for_budget_bits(budget_bytes, CMS_DEPTH, base_bits, 1.0);
    Box::new(CountMin::tango(CMS_DEPTH, w, base_bits, merge_op, seed))
}

/// Baseline CUS (32-bit counters).
pub fn baseline_cus(budget_bytes: usize, seed: u64) -> Box<dyn FrequencyEstimator> {
    let w = width_for_budget(budget_bytes, CMS_DEPTH, BASELINE_BITS);
    Box::new(ConservativeUpdate::baseline(
        CMS_DEPTH,
        w,
        BASELINE_BITS,
        seed,
    ))
}

/// SALSA CUS (8-bit base counters, max-merge).
pub fn salsa_cus(budget_bytes: usize, base_bits: u32, seed: u64) -> Box<dyn FrequencyEstimator> {
    let w = width_for_budget_bits(budget_bytes, CMS_DEPTH, base_bits, 1.0);
    Box::new(ConservativeUpdate::salsa(CMS_DEPTH, w, base_bits, seed))
}

/// Baseline Count Sketch (32-bit counters).
pub fn baseline_cs(budget_bytes: usize, seed: u64) -> Box<dyn FrequencyEstimator> {
    let w = width_for_budget(budget_bytes, CS_DEPTH, BASELINE_BITS);
    Box::new(CountSketch::baseline(CS_DEPTH, w, BASELINE_BITS, seed))
}

/// SALSA Count Sketch (`base_bits`-bit sign-magnitude counters).
pub fn salsa_cs(budget_bytes: usize, base_bits: u32, seed: u64) -> Box<dyn FrequencyEstimator> {
    let w = width_for_budget_bits(budget_bytes, CS_DEPTH, base_bits, 1.0);
    Box::new(CountSketch::salsa(CS_DEPTH, w, base_bits, seed))
}

/// Pyramid Sketch sized for the budget.
///
/// Pyramid pre-allocates all of its layers: a pyramid with layer-1 width `w`
/// uses `w·bits·(1 + ½ + ¼ + …) < 2·w·bits` bits in total, so the base layer
/// is sized to the largest power of two whose doubled cost still fits the
/// budget.
pub fn pyramid_cms(budget_bytes: usize, seed: u64) -> Box<dyn FrequencyEstimator> {
    // Total bits of a pyramid with base width w: w·b·(1 + 1/2 + 1/4 + …) < 2·w·b.
    let bits = SALSA_BITS;
    let mut w = 2usize;
    while 2 * (w * 2) * bits as usize <= budget_bytes * 8 {
        w *= 2;
    }
    Box::new(PyramidSketch::new(CMS_DEPTH, w, bits, seed))
}

/// ABC sized for the budget (single array of 8-bit counters addressed by `d`
/// hashes; the 3 combine-marker bits live inside combined counters).
pub fn abc_cms(budget_bytes: usize, seed: u64) -> Box<dyn FrequencyEstimator> {
    let bits = SALSA_BITS;
    let mut w = 2usize;
    while (w * 2) * bits as usize <= budget_bytes * 8 {
        w *= 2;
    }
    Box::new(AbcSketch::new(CMS_DEPTH, w, bits, seed))
}

/// AEE MaxAccuracy (8-bit counters + sampling, downsample on overflow).
pub fn aee_max_accuracy(budget_bytes: usize, seed: u64) -> Box<dyn FrequencyEstimator> {
    let w = width_for_budget(budget_bytes, CMS_DEPTH, SALSA_BITS);
    Box::new(AeeCountMin::max_accuracy(CMS_DEPTH, w, SALSA_BITS, seed))
}

/// AEE MaxSpeed (8-bit counters, periodic downsampling).
pub fn aee_max_speed(budget_bytes: usize, seed: u64) -> Box<dyn FrequencyEstimator> {
    let w = width_for_budget(budget_bytes, CMS_DEPTH, SALSA_BITS);
    // Downsample once the sketch has absorbed roughly a tenth of its counter
    // capacity, which keeps counters far from overflow (the speed-optimal
    // regime).
    let every = (CMS_DEPTH * w) as u64 * 16;
    Box::new(AeeCountMin::max_speed(
        CMS_DEPTH, w, SALSA_BITS, every, seed,
    ))
}

/// SALSA-AEE (hybrid merge / downsample).
pub fn salsa_aee(budget_bytes: usize, seed: u64) -> Box<dyn FrequencyEstimator> {
    let w = width_for_budget_bits(budget_bytes, CMS_DEPTH, SALSA_BITS, 1.0);
    Box::new(SalsaAee::with_dimensions(CMS_DEPTH, w, seed))
}

/// SALSA-AEE`d` (speed variant, `d` forced downsamplings).
pub fn salsa_aee_d(budget_bytes: usize, d: u32, seed: u64) -> Box<dyn FrequencyEstimator> {
    let w = width_for_budget_bits(budget_bytes, CMS_DEPTH, SALSA_BITS, 1.0);
    Box::new(SalsaAee::speed_variant(CMS_DEPTH, w, d, seed))
}

/// The memory sweep (in bytes) used by the "vs memory" figures: 16 KB to
/// 2 MB, doubling — the 10¹–10³ KB range of the paper's log-scale axes.
pub fn memory_sweep() -> Vec<usize> {
    (0..8).map(|i| (16 << i) * 1024).collect()
}

/// A shorter sweep for quick runs.
pub fn memory_sweep_quick() -> Vec<usize> {
    vec![64 * 1024, 512 * 1024]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_respect_budgets() {
        for budget in memory_sweep() {
            let tolerance = budget + budget / 8; // power-of-two rounding slack
            assert!(baseline_cms(budget, 1).size_bytes() <= tolerance);
            assert!(salsa_cms(budget, 8, MergeOp::Max, 1).size_bytes() <= tolerance);
            assert!(salsa_cus(budget, 8, 1).size_bytes() <= tolerance);
            assert!(baseline_cs(budget, 1).size_bytes() <= tolerance);
            assert!(salsa_cs(budget, 8, 1).size_bytes() <= tolerance);
            assert!(pyramid_cms(budget, 1).size_bytes() <= tolerance);
            assert!(abc_cms(budget, 1).size_bytes() <= tolerance);
            assert!(salsa_aee(budget, 1).size_bytes() <= tolerance);
        }
    }

    #[test]
    fn salsa_gets_more_counters_than_baseline() {
        let budget = 1 << 20;
        let baseline = baseline_cms(budget, 1);
        let salsa = salsa_cms(budget, 8, MergeOp::Max, 1);
        // Equal-ish budgets but SALSA has ~3.5× the counters: verify via the
        // size accounting (same order of bytes, different counter widths).
        let b = baseline.size_bytes();
        let s = salsa.size_bytes();
        assert!(
            s <= b,
            "SALSA {s} should fit within the baseline budget {b}"
        );
    }
}
