//! Property-based tests of [`UnivMon`]'s summary-level merge: for *any*
//! split of a stream into consecutive segments, ingesting the segments into
//! independent same-seed sketches and folding them with
//! [`StreamSummary::merge_from`] must preserve the g-sum-class estimates
//! (entropy, distinct, F2) of the single sketch that saw the whole stream.
//!
//! The per-level Count Sketches merge *exactly* (counter-wise sum), but each
//! level's heavy-hitter heap is rebuilt from the union of the operands'
//! heaps re-estimated against the merged sketch — heap membership can differ
//! from the on-arrival run at the margin, so the estimates are compared
//! within tolerance rather than bit-for-bit.  This mirrors
//! `live_properties.rs`, which pins the *exact* counterpart of this property
//! for sum-merge CMS.

use proptest::prelude::*;
use salsa_pipeline::StreamSummary;
use salsa_sketches::prelude::*;

const UNIVERSE: u64 = 400;

fn make_sketch() -> UnivMon<SimpleSalsaSignedRow> {
    UnivMon::salsa(8, 4, 1 << 10, 8, 64, 77)
}

/// `|est - reference|` relative to `max(|reference|, 1)`, so zero-entropy
/// degenerate streams don't divide by zero.
fn rel_err(est: f64, reference: f64) -> f64 {
    (est - reference).abs() / reference.abs().max(1.0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn merge_from_preserves_g_sum_estimates(
        items in prop::collection::vec(0u64..UNIVERSE, 1..2_000),
        cuts in prop::collection::vec(0usize..2_000, 0..4),
    ) {
        let mut single = make_sketch();
        single.ingest(&items);

        // Split at the (sorted, clamped) cut points and fold the segment
        // sketches left to right, as the pipeline's final merge does.
        let mut bounds: Vec<usize> = cuts.iter().map(|&c| c.min(items.len())).collect();
        bounds.push(0);
        bounds.push(items.len());
        bounds.sort_unstable();
        let mut merged: Option<UnivMon<SimpleSalsaSignedRow>> = None;
        for window in bounds.windows(2) {
            let mut part = make_sketch();
            part.ingest(&items[window[0]..window[1]]);
            match merged.as_mut() {
                Some(acc) => StreamSummary::merge_from(acc, &part),
                None => merged = Some(part),
            }
        }
        let merged = merged.expect("at least one segment");

        prop_assert_eq!(merged.total(), single.total(), "totals add exactly");
        prop_assert!(
            // A failed estimate compares as 0.0, on either side.
            rel_err(merged.entropy().unwrap_or(0.0), single.entropy().unwrap_or(0.0)) < 0.15,
            "entropy: merged {:?} vs single {:?}",
            merged.entropy(),
            single.entropy()
        );
        prop_assert!(
            rel_err(merged.distinct(), single.distinct()) < 0.3,
            "distinct: merged {} vs single {}",
            merged.distinct(),
            single.distinct()
        );
        prop_assert!(
            rel_err(merged.fp_moment(2.0), single.fp_moment(2.0)) < 0.2,
            "F2: merged {} vs single {}",
            merged.fp_moment(2.0),
            single.fp_moment(2.0)
        );
    }
}
