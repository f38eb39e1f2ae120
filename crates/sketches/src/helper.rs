//! Reusable scratch space for allocation-free sketch merges.
//!
//! Merging two sketches is the hot primitive of the sharded pipeline: every
//! snapshot folds one sketch per shard into a global view.  Counter-wise row
//! merges are already allocation-free, but composite sketches (UnivMon's
//! per-level heavy-hitter heaps, `Tracked` summaries) need scratch space to
//! rebuild their auxiliary state.  [`MergeHelper`] owns that scratch: create
//! it once per handle, thread it through `merge_with_helper`, and steady-state
//! merges reuse the same buffers instead of allocating per merge.

use crate::heavy_hitters::TopK;

/// Scratch buffers reused across `merge_with_helper` calls.
///
/// The buffers grow to a high-water mark on the first few merges and are
/// reused (cleared, not freed) afterwards, so a warm helper makes every
/// subsequent merge allocation-free.
#[derive(Debug, Default)]
pub struct MergeHelper {
    /// Scratch `(item, estimate)` pairs used when rebuilding heavy-hitter
    /// heaps during a merge.
    pub pairs: Vec<(u64, u64)>,
}

impl MergeHelper {
    /// Creates an empty helper; its buffers grow on first use and are
    /// retained across merges.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a helper whose pair buffer can hold `capacity` entries
    /// without reallocating (e.g. `2 × k` for a top-k merge).
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            pairs: Vec::with_capacity(capacity),
        }
    }

    /// Current capacity of the pair buffer (diagnostics / tests).
    pub fn pair_capacity(&self) -> usize {
        self.pairs.capacity()
    }

    /// Rebuilds the heavy-hitter tracker `mine` after its summary absorbed
    /// the summary `theirs` tracked: the union of both trackers' items
    /// (largest first) is re-estimated against the merged summary through
    /// `estimate`, and every non-zero estimate is re-offered.  This restores
    /// the invariant that each tracked estimate reflects the full merged
    /// stream; the candidates live in the reusable pair buffer.
    pub(crate) fn rebuild_tracker(
        &mut self,
        mine: &mut TopK,
        theirs: &TopK,
        estimate: impl Fn(u64) -> i64,
    ) {
        self.pairs.clear();
        mine.copy_items_into(&mut self.pairs);
        theirs.copy_items_into(&mut self.pairs);
        mine.clear();
        for &(item, _) in &self.pairs {
            let est = estimate(item).max(0) as u64;
            if est > 0 {
                mine.offer(item, est);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn helper_retains_capacity_across_uses() {
        let mut helper = MergeHelper::new();
        helper.pairs.extend((0..100).map(|i| (i, i)));
        let cap = helper.pair_capacity();
        helper.pairs.clear();
        assert_eq!(helper.pair_capacity(), cap);
        helper.pairs.extend((0..100).map(|i| (i, i)));
        assert_eq!(helper.pair_capacity(), cap);
    }

    #[test]
    fn with_capacity_preallocates() {
        let helper = MergeHelper::with_capacity(64);
        assert!(helper.pair_capacity() >= 64);
    }
}
