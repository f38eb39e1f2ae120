//! On-arrival heavy-hitter tracking.
//!
//! In the Cash Register model the heavy hitters can be tracked by keeping a
//! small min-heap of the items with the largest sketch estimates: every
//! arriving item is queried and the heap updated if its estimate exceeds the
//! current minimum (Section III, "Finding Heavy Hitters").  The same
//! structure is used as the per-level heap inside UnivMon (size 100 in the
//! paper's configuration) and for the Top-k experiments (Fig. 15).

use std::collections::BTreeSet;

use salsa_hash::FxHashMap;

/// Tracks the `k` items with the largest reported estimates.
#[derive(Debug, Clone, Default)]
pub struct TopK {
    k: usize,
    estimates: FxHashMap<u64, u64>,
    ordered: BTreeSet<(u64, u64)>,
}

impl TopK {
    /// Approximate bytes copied per tracked entry when the tracker is cloned:
    /// one hash-map entry plus one ordered-set entry, both keyed by
    /// `(u64, u64)` pairs.
    pub const ENTRY_COST_BYTES: usize = 48;

    /// Creates a tracker for the top `k` items.
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "k must be positive");
        Self {
            k,
            estimates: FxHashMap::default(),
            ordered: BTreeSet::new(),
        }
    }

    /// Capacity `k`.
    #[inline]
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of items currently tracked (≤ `k`).
    #[inline]
    pub fn len(&self) -> usize {
        self.estimates.len()
    }

    /// `true` if no items are tracked yet.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.estimates.is_empty()
    }

    /// Reports a fresh estimate for `item`; the tracker keeps it if it is
    /// (still) among the `k` largest.
    pub fn offer(&mut self, item: u64, estimate: u64) {
        if let Some(&old) = self.estimates.get(&item) {
            if estimate > old {
                self.ordered.remove(&(old, item));
                self.ordered.insert((estimate, item));
                self.estimates.insert(item, estimate);
            }
            return;
        }
        if self.estimates.len() < self.k {
            self.estimates.insert(item, estimate);
            self.ordered.insert((estimate, item));
            return;
        }
        // Full: replace the smallest tracked item if the newcomer is larger.
        let &(min_est, min_item) = self.ordered.iter().next().expect("non-empty when full");
        if estimate > min_est {
            self.ordered.remove(&(min_est, min_item));
            self.estimates.remove(&min_item);
            self.estimates.insert(item, estimate);
            self.ordered.insert((estimate, item));
        }
    }

    /// `true` if `item` is currently among the tracked top-k.
    pub fn contains(&self, item: u64) -> bool {
        self.estimates.contains_key(&item)
    }

    /// The tracked estimate of `item`, if present.
    pub fn estimate(&self, item: u64) -> Option<u64> {
        self.estimates.get(&item).copied()
    }

    /// The tracked items and their estimates, largest first.
    pub fn items(&self) -> Vec<(u64, u64)> {
        self.ordered
            .iter()
            .rev()
            .map(|&(est, item)| (item, est))
            .collect()
    }

    /// The smallest tracked estimate (the heap's current threshold).
    pub fn threshold(&self) -> u64 {
        self.ordered.iter().next().map(|&(est, _)| est).unwrap_or(0)
    }

    /// Bytes copied when the tracker is cloned for a point-in-time snapshot.
    pub fn clone_cost_bytes(&self) -> usize {
        self.len() * Self::ENTRY_COST_BYTES
    }

    /// Drops every tracked item while keeping `k` and the allocated
    /// capacity of the backing containers.
    pub fn clear(&mut self) {
        self.estimates.clear();
        self.ordered.clear();
    }

    /// Appends the tracked `(item, estimate)` pairs to `out`, largest first
    /// (the same order as [`TopK::items`]), without allocating a fresh
    /// vector when `out` already has capacity.
    pub fn copy_items_into(&self, out: &mut Vec<(u64, u64)>) {
        out.extend(self.ordered.iter().rev().map(|&(est, item)| (item, est)));
    }

    /// Overwrites this tracker with `src`'s contents, reusing the backing
    /// containers' nodes where the standard library allows (`clone_from` on
    /// the map and set).
    pub fn copy_from(&mut self, src: &Self) {
        self.k = src.k;
        self.estimates.clone_from(&src.estimates);
        self.ordered.clone_from(&src.ordered);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keeps_the_largest_k() {
        let mut topk = TopK::new(3);
        for item in 0u64..100 {
            topk.offer(item, item * 10);
        }
        let items: Vec<u64> = topk.items().iter().map(|&(i, _)| i).collect();
        assert_eq!(items, vec![99, 98, 97]);
        assert_eq!(topk.len(), 3);
    }

    #[test]
    fn updates_existing_items_in_place() {
        let mut topk = TopK::new(2);
        topk.offer(1, 10);
        topk.offer(2, 20);
        topk.offer(1, 50);
        assert_eq!(topk.estimate(1), Some(50));
        assert_eq!(topk.items(), vec![(1, 50), (2, 20)]);
    }

    #[test]
    fn ignores_smaller_estimates_for_existing_items() {
        let mut topk = TopK::new(2);
        topk.offer(1, 100);
        topk.offer(1, 10);
        assert_eq!(topk.estimate(1), Some(100));
    }

    #[test]
    fn does_not_evict_for_smaller_newcomers() {
        let mut topk = TopK::new(2);
        topk.offer(1, 100);
        topk.offer(2, 200);
        topk.offer(3, 50);
        assert!(!topk.contains(3));
        assert_eq!(topk.len(), 2);
    }

    #[test]
    fn on_arrival_workflow_finds_true_heavy_hitters() {
        // Simulate the on-arrival loop: item frequencies 1..=200, track top 10.
        let mut topk = TopK::new(10);
        let mut counts = std::collections::HashMap::new();
        let mut stream = Vec::new();
        for item in 1u64..=200 {
            for _ in 0..item {
                stream.push(item);
            }
        }
        // Deterministic shuffle.
        let mut state = 42u64;
        for i in (1..stream.len()).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            stream.swap(i, (state >> 33) as usize % (i + 1));
        }
        for &item in &stream {
            let c = counts.entry(item).or_insert(0u64);
            *c += 1;
            topk.offer(item, *c); // exact counts stand in for sketch estimates
        }
        let found: std::collections::HashSet<u64> = topk.items().iter().map(|&(i, _)| i).collect();
        for item in 191..=200u64 {
            assert!(found.contains(&item), "missing true heavy hitter {item}");
        }
    }

    #[test]
    fn threshold_tracks_minimum() {
        let mut topk = TopK::new(2);
        assert_eq!(topk.threshold(), 0);
        topk.offer(1, 5);
        topk.offer(2, 9);
        assert_eq!(topk.threshold(), 5);
        topk.offer(3, 7);
        assert_eq!(topk.threshold(), 7);
    }

    #[test]
    #[should_panic(expected = "k must be positive")]
    fn zero_k_panics() {
        let _ = TopK::new(0);
    }
}
