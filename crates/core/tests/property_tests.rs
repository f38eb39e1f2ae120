#![allow(clippy::needless_range_loop)]
//! Property-based tests of the SALSA counter-row invariants.
//!
//! These check, over arbitrary update sequences, the structural guarantees
//! the accuracy theorems of the paper rest on:
//!
//! * a sum-merge SALSA row always holds, in the counter containing slot `j`,
//!   exactly the total weight that was added to the slots it covers;
//! * a max-merge SALSA row never under-estimates the per-slot totals and
//!   never over-estimates the sum-merge row;
//! * the compact (near-optimal) encoding behaves identically to the simple
//!   one;
//! * Tango reads are bounded between the per-slot ground truth and the SALSA
//!   reads (Tango counters are always contained in SALSA counters);
//! * sign-magnitude signed rows track exact signed sums;
//! * a SALSA row's word-local `add_unit_batch` leaves the row byte-identical
//!   to one `add(b, 1)` per bucket, for every base width, encoding, merge
//!   op and maximum counter size;
//! * a SALSA row's word-parallel `absorb` and `subtract` leave the row
//!   byte-identical to the per-counter loops, over the same shapes.

use proptest::prelude::*;
use salsa_core::prelude::*;

const WIDTH: usize = 32;

/// An arbitrary stream of (slot, weight) updates.
fn updates() -> impl Strategy<Value = Vec<(usize, u64)>> {
    prop::collection::vec((0..WIDTH, 1u64..2_000), 0..400)
}

/// Per-slot ground-truth sums.
fn slot_sums(updates: &[(usize, u64)]) -> Vec<u64> {
    let mut sums = vec![0u64; WIDTH];
    for &(idx, v) in updates {
        sums[idx] += v;
    }
    sums
}

/// Sum of ground truth over the SALSA block that currently contains `idx`.
fn block_sum(sums: &[u64], idx: usize, level: u32) -> u64 {
    let start = (idx >> level) << level;
    sums[start..start + (1 << level)].iter().sum()
}

/// Width of the rows the unit-batch property drives: several storage words
/// at every base width, and a whole number of compact-encoding blocks.
const UNIT_WIDTH: usize = 128;

/// One row shape the unit-batch property covers.
#[derive(Debug, Clone, Copy)]
struct Shape {
    base_bits: u32,
    max_bits: u32,
    op: MergeOp,
}

impl Shape {
    /// Base counters of `2 << base` bits (2 to 64), `extra` more levels
    /// allowed up to 64-bit counters, max-merge if `max`.
    fn new(base: u32, extra: u32, max: bool) -> Self {
        let base_bits = 2 << base;
        Self {
            base_bits,
            max_bits: base_bits << extra.min(5 - base),
            op: if max { MergeOp::Max } else { MergeOp::Sum },
        }
    }
}

/// A row of `shape` after a weighted `prelude`: each `(idx, level,
/// below)` adds to slot `idx` what parks its counter `below` units under
/// the capacity of `level` (at least one unit), so later adds overflow
/// (or saturate) there.
fn parked_row<E: MergeEncoding>(shape: Shape, prelude: &[(usize, u32, u64)]) -> SalsaRow<E> {
    let mut row =
        SalsaRow::<E>::with_max_bits(UNIT_WIDTH, shape.base_bits, shape.op, shape.max_bits);
    for &(idx, level, below) in prelude {
        let level = level.min(row.max_level());
        let capacity = u64::MAX >> (64 - (shape.base_bits << level));
        let headroom = capacity.saturating_sub(row.read(idx).saturating_add(below));
        row.add(idx, headroom.max(1));
    }
    row
}

/// Checks that `add_unit_batch` over `buckets` (in `chunk`-sized batches)
/// leaves a row exactly as one `add(b, 1)` per bucket does — every
/// counter, every slot's level and the merge count — after both rows got
/// the same weighted `prelude` ([`parked_row`]).
fn unit_batch_matches_unit_adds<E: MergeEncoding>(
    shape: Shape,
    prelude: &[(usize, u32, u64)],
    buckets: &[usize],
    chunk: usize,
) -> Result<(), TestCaseError> {
    let mut batched = parked_row::<E>(shape, prelude);
    let mut looped = batched.clone();
    for batch in buckets.chunks(chunk) {
        batched.add_unit_batch(batch);
    }
    for &bucket in buckets {
        looped.add(bucket, 1);
    }
    prop_assert_eq!(
        batched.counters().collect::<Vec<_>>(),
        looped.counters().collect::<Vec<_>>(),
        "{:?}",
        shape
    );
    for idx in 0..UNIT_WIDTH {
        prop_assert_eq!(
            batched.level_of(idx),
            looped.level_of(idx),
            "slot {} {:?}",
            idx,
            shape
        );
    }
    prop_assert_eq!(batched.merge_events(), looped.merge_events(), "{:?}", shape);
    Ok(())
}

/// Asserts that two rows hold the same counters, levels and merge count.
fn assert_rows_identical<E: MergeEncoding>(
    folded: &SalsaRow<E>,
    looped: &SalsaRow<E>,
    what: &str,
    shape: Shape,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(
        folded.counters().collect::<Vec<_>>(),
        looped.counters().collect::<Vec<_>>(),
        "{} {:?}",
        what,
        shape
    );
    for idx in 0..UNIT_WIDTH {
        prop_assert_eq!(
            folded.level_of(idx),
            looped.level_of(idx),
            "{} slot {} {:?}",
            what,
            idx,
            shape
        );
    }
    prop_assert_eq!(
        folded.merge_events(),
        looped.merge_events(),
        "{} {:?}",
        what,
        shape
    );
    Ok(())
}

/// The per-counter union, from public API: for each of `other`'s counters
/// (skipping zero base counters), raise `row`'s counter to its level and
/// add its value.
fn absorb_per_counter<E: MergeEncoding>(row: &mut SalsaRow<E>, other: &SalsaRow<E>) {
    for c in other.counters() {
        if c.value == 0 && c.level == 0 {
            continue;
        }
        row.force_level_at_least(c.start, c.level);
        row.add(c.start, c.value);
    }
}

/// The per-counter difference, from public API: as
/// [`absorb_per_counter`], but subtracting each value, floored at zero.
fn subtract_per_counter<E: MergeEncoding>(row: &mut SalsaRow<E>, other: &SalsaRow<E>) {
    for c in other.counters() {
        if c.value == 0 && c.level == 0 {
            continue;
        }
        row.force_level_at_least(c.start, c.level);
        let cur = row.read(c.start);
        row.set_value(c.start, cur.saturating_sub(c.value));
    }
}

/// Checks that the word-parallel `absorb` and `subtract` leave a row
/// exactly as the per-counter loops do, for two operands `a`, `b` each
/// built from its own weighted prelude ([`parked_row`]) and skewed unit
/// adds: `a + b`, `a − b` and `(a + b) − b`, and `a ± 0b`, where `0b` is
/// `b` with every count subtracted away — merged counters holding zero,
/// which adds alone never leave.
fn word_fold_matches_counter_loop<E: MergeEncoding>(
    shape: Shape,
    preludes: &[Vec<(usize, u32, u64)>],
    buckets: &[Vec<usize>],
) -> Result<(), TestCaseError> {
    let [a, b] = [0, 1].map(|i| {
        let mut row = parked_row::<E>(shape, &preludes[i]);
        row.add_unit_batch(&buckets[i]);
        row
    });
    let mut zeroed = b.clone();
    subtract_per_counter(&mut zeroed, &b);

    let mut union = a.clone();
    union.absorb(&b);
    let mut looped = a.clone();
    absorb_per_counter(&mut looped, &b);
    assert_rows_identical(&union, &looped, "a + b", shape)?;

    let mut folded = a.clone();
    folded.absorb(&zeroed);
    let mut looped = a.clone();
    absorb_per_counter(&mut looped, &zeroed);
    assert_rows_identical(&folded, &looped, "a + 0b", shape)?;

    for (minuend, subtrahend, what) in [
        (&a, &b, "a - b"),
        (&union, &b, "(a + b) - b"),
        (&a, &zeroed, "a - 0b"),
    ] {
        let mut difference = minuend.clone();
        difference.subtract(subtrahend);
        let mut looped = minuend.clone();
        subtract_per_counter(&mut looped, subtrahend);
        assert_rows_identical(&difference, &looped, what, shape)?;
    }
    Ok(())
}

proptest! {
    #[test]
    fn sum_merge_row_equals_block_ground_truth(updates in updates()) {
        let mut row = SimpleSalsaRow::new(WIDTH, 8, MergeOp::Sum);
        for &(idx, v) in &updates {
            row.add(idx, v);
        }
        let sums = slot_sums(&updates);
        for idx in 0..WIDTH {
            let level = row.level_of(idx);
            prop_assert_eq!(row.read(idx), block_sum(&sums, idx, level));
        }
    }

    #[test]
    fn max_merge_never_underestimates_and_is_below_sum_merge(updates in updates()) {
        let mut max_row = SimpleSalsaRow::new(WIDTH, 8, MergeOp::Max);
        let mut sum_row = SimpleSalsaRow::new(WIDTH, 8, MergeOp::Sum);
        for &(idx, v) in &updates {
            max_row.add(idx, v);
            sum_row.add(idx, v);
        }
        let sums = slot_sums(&updates);
        for idx in 0..WIDTH {
            // Never below the true per-slot total (over-estimate guarantee).
            prop_assert!(max_row.read(idx) >= sums[idx]);
            // Never above the sum-merge value for the same slot.
            prop_assert!(max_row.read(idx) <= sum_row.read(idx));
        }
    }

    #[test]
    fn compact_encoding_matches_simple_encoding(updates in updates()) {
        let mut simple = SalsaRow::<MergeBitmap>::new(WIDTH, 8, MergeOp::Sum);
        let mut compact = SalsaRow::<LayoutCodes>::new(WIDTH, 8, MergeOp::Sum);
        for &(idx, v) in &updates {
            simple.add(idx, v);
            compact.add(idx, v);
        }
        for idx in 0..WIDTH {
            prop_assert_eq!(simple.read(idx), compact.read(idx));
            prop_assert_eq!(simple.level_of(idx), compact.level_of(idx));
        }
    }

    #[test]
    fn tango_is_sandwiched_between_truth_and_salsa(updates in updates()) {
        let mut tango = TangoRow::new(WIDTH, 8, MergeOp::Max);
        let mut salsa = SimpleSalsaRow::new(WIDTH, 8, MergeOp::Max);
        for &(idx, v) in &updates {
            tango.add(idx, v);
            salsa.add(idx, v);
        }
        let sums = slot_sums(&updates);
        for idx in 0..WIDTH {
            prop_assert!(tango.read(idx) >= sums[idx]);
            prop_assert!(tango.read(idx) <= salsa.read(idx),
                "slot {}: tango {} > salsa {}", idx, tango.read(idx), salsa.read(idx));
        }
    }

    #[test]
    fn raise_to_dominates_and_never_shrinks(targets in prop::collection::vec((0..WIDTH, 1u64..100_000), 0..200)) {
        let mut row = SimpleSalsaRow::new(WIDTH, 8, MergeOp::Max);
        let mut best = vec![0u64; WIDTH];
        for &(idx, t) in &targets {
            row.raise_to(idx, t);
            best[idx] = best[idx].max(t);
        }
        for idx in 0..WIDTH {
            prop_assert!(row.read(idx) >= best[idx]);
        }
    }

    #[test]
    fn signed_row_tracks_exact_sums_while_in_range(
        updates in prop::collection::vec((0..WIDTH, -500i64..500), 0..300)
    ) {
        let mut row = SimpleSalsaSignedRow::new(WIDTH, 8);
        let mut sums = vec![0i64; WIDTH];
        for &(idx, v) in &updates {
            row.add(idx, v);
            sums[idx] += v;
        }
        // The counter containing idx holds the signed sum over its block.
        for idx in 0..WIDTH {
            let level = row.level_of(idx);
            let start = (idx >> level) << level;
            let expected: i64 = sums[start..start + (1 << level)].iter().sum();
            prop_assert_eq!(row.read(idx), expected);
        }
    }

    #[test]
    fn splitting_preserves_overestimation(updates in updates()) {
        let mut row = SimpleSalsaRow::new(WIDTH, 8, MergeOp::Max);
        for &(idx, v) in &updates {
            row.add(idx, v);
        }
        let sums = slot_sums(&updates);
        // Halve everything (as AEE downsampling would), then split.
        row.map_counters(|v| v / 2);
        row.split_all();
        for idx in 0..WIDTH {
            prop_assert!(row.read(idx) + 1 >= sums[idx] / 2);
        }
    }

    #[test]
    fn salsa_add_unit_batch_is_byte_identical_to_unit_adds(
        shape in (0..6u32, 0..6u32, 0..2u8, 0..2u8),
        prelude in prop::collection::vec((0..UNIT_WIDTH, 0..6u32, 0..4u64), 0..16),
        draws in prop::collection::vec((0..UNIT_WIDTH, 0..4u32), 0..3_000),
        chunk in 1..1_100usize
    ) {
        // Skewed buckets: a draw of heat h lands in the first
        // UNIT_WIDTH / 4^h slots, so low slots take most of the stream and
        // overflow again and again.
        let buckets: Vec<usize> = draws.iter().map(|&(slot, heat)| slot >> (2 * heat)).collect();
        let (base, extra, max, compact) = shape;
        let shape = Shape::new(base, extra, max == 1);
        if compact == 1 {
            unit_batch_matches_unit_adds::<LayoutCodes>(shape, &prelude, &buckets, chunk)?;
        } else {
            unit_batch_matches_unit_adds::<MergeBitmap>(shape, &prelude, &buckets, chunk)?;
        }
    }

    #[test]
    fn fixed_row_saturates_but_never_exceeds_truth_plus_cap(updates in updates()) {
        let mut row = FixedRow::new(WIDTH, 8);
        for &(idx, v) in &updates {
            row.add(idx, v);
        }
        let sums = slot_sums(&updates);
        for idx in 0..WIDTH {
            prop_assert_eq!(row.read(idx), sums[idx].min(255));
        }
    }
}

proptest! {
    // Most words of a case fold on the same-layout path; more cases give
    // the raised and overflowing words thousands of occurrences.
    #![proptest_config(ProptestConfig::with_cases(1_024))]

    #[test]
    fn salsa_word_fold_is_byte_identical_to_counter_loop(
        shape in (0..6u32, 0..6u32, 0..2u8, 0..2u8),
        preludes in prop::collection::vec(
            prop::collection::vec((0..UNIT_WIDTH, 0..6u32, 0..4u64), 0..24),
            2..3,
        ),
        draws in prop::collection::vec(
            prop::collection::vec((0..UNIT_WIDTH, 0..4u32), 0..1_500),
            2..3,
        ),
        mirrored in 0..4usize
    ) {
        // Skewed buckets, as in the unit-batch property: an operand's low
        // slots take most of its stream, or its high ones if mirrored, so
        // the operands merge in the same places or in different ones,
        // while the parked counters overflow the union at every level and
        // saturate at the maximum one.
        let buckets: Vec<Vec<usize>> = draws
            .iter()
            .enumerate()
            .map(|(i, draws)| {
                let mirror = if mirrored >> i & 1 == 1 { UNIT_WIDTH - 1 } else { 0 };
                draws.iter().map(|&(slot, heat)| mirror ^ slot >> (2 * heat)).collect()
            })
            .collect();
        let (base, extra, max, compact) = shape;
        let shape = Shape::new(base, extra, max == 1);
        if compact == 1 {
            word_fold_matches_counter_loop::<LayoutCodes>(shape, &preludes, &buckets)?;
        } else {
            word_fold_matches_counter_loop::<MergeBitmap>(shape, &preludes, &buckets)?;
        }
    }
}
