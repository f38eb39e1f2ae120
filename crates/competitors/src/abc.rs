//! ABC (Gong et al., IEEE BigData 2017), re-implemented as a comparison
//! baseline.
//!
//! ABC lets an overflowing 8-bit counter *borrow* bits from its right
//! neighbour: the two counters combine into one larger counter.  Marking the
//! combination costs three bits, so a combined counter counts only up to
//! `2^13 − 1`, and a counter may combine **at most once** — both limitations
//! the SALSA paper calls out (Section II and the "region B" discussion of
//! Fig. 9: ABC's estimates for heavy hitters are capped, producing large
//! errors on the heaviest items).
//!
//! As in the original paper, the sketch is a single counter array addressed
//! by `d` hash functions, and a query returns the minimum over the `d`
//! (possibly combined) counters.

use salsa_core::storage::{unsigned_capacity, BitStorage};
use salsa_hash::RowHashers;
use salsa_sketches::estimator::FrequencyEstimator;
use salsa_sketches::summary::FrequencyQueries;

/// Combination state of a counter slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SlotState {
    /// A plain, uncombined 8-bit counter.
    Single,
    /// The left (primary) half of a combined counter.
    CombinedLeft,
    /// The right (secondary) half of a combined counter; its bits belong to
    /// the primary on its left.
    CombinedRight,
}

/// The ABC sketch with 8-bit base counters.
#[derive(Debug, Clone)]
pub struct AbcSketch {
    storage: BitStorage,
    states: Vec<SlotState>,
    hashers: RowHashers,
    depth: usize,
    width: usize,
    bits: u32,
}

impl AbcSketch {
    /// Bits of bookkeeping a combined counter spends (per the paper).
    pub const COMBINE_OVERHEAD_BITS: u32 = 3;

    /// Creates an ABC sketch with `depth` hash functions into `width`
    /// counters of `bits` bits (8 in the authors' recommended configuration).
    pub fn new(depth: usize, width: usize, bits: u32, seed: u64) -> Self {
        assert!(width.is_power_of_two(), "width must be a power of two");
        assert!(
            matches!(bits, 4 | 8 | 16),
            "ABC base counters are 4, 8 or 16 bits"
        );
        Self {
            storage: BitStorage::new(width * bits as usize),
            states: vec![SlotState::Single; width],
            hashers: RowHashers::new(depth, width, seed),
            depth,
            width,
            bits,
        }
    }

    /// Maximum value of an uncombined counter.
    #[inline]
    pub fn single_capacity(&self) -> u64 {
        unsigned_capacity(self.bits)
    }

    /// Maximum value of a combined counter (`2^(2b − 3) − 1`, i.e. 8191 for
    /// 8-bit base counters).
    #[inline]
    pub fn combined_capacity(&self) -> u64 {
        unsigned_capacity(2 * self.bits - Self::COMBINE_OVERHEAD_BITS)
    }

    /// Resolves the primary slot and combined-ness of the counter containing
    /// `idx`.
    #[inline]
    fn resolve(&self, idx: usize) -> (usize, bool) {
        match self.states[idx] {
            SlotState::Single => (idx, false),
            SlotState::CombinedLeft => (idx, true),
            SlotState::CombinedRight => (idx - 1, true),
        }
    }

    #[inline]
    fn read_single(&self, idx: usize) -> u64 {
        self.storage
            .read_aligned(idx * self.bits as usize, self.bits)
    }

    #[inline]
    fn write_single(&mut self, idx: usize, value: u64) {
        self.storage
            .write_aligned(idx * self.bits as usize, self.bits, value);
    }

    /// Reads a combined counter whose primary half is `idx` (value spans both
    /// slots, unaligned accessor keeps it simple).
    #[inline]
    fn read_combined(&self, primary: usize) -> u64 {
        self.storage.read_unaligned(
            primary * self.bits as usize,
            2 * self.bits - Self::COMBINE_OVERHEAD_BITS,
        )
    }

    #[inline]
    fn write_combined(&mut self, primary: usize, value: u64) {
        self.storage.write_unaligned(
            primary * self.bits as usize,
            2 * self.bits - Self::COMBINE_OVERHEAD_BITS,
            value.min(self.combined_capacity()),
        );
    }

    /// Current value of the counter containing `idx`.
    fn read(&self, idx: usize) -> u64 {
        let (primary, combined) = self.resolve(idx);
        if combined {
            self.read_combined(primary)
        } else {
            self.read_single(primary)
        }
    }

    /// Tries to combine the counter at `idx` with its right neighbour.
    /// Returns the primary slot on success.
    fn try_combine(&mut self, idx: usize) -> Option<usize> {
        if self.states[idx] != SlotState::Single {
            return None;
        }
        let neighbor = idx + 1;
        if neighbor >= self.width || self.states[neighbor] != SlotState::Single {
            return None;
        }
        // The combined counter must not lose counts of either constituent:
        // it starts from their sum (a safe over-estimate for both).
        let combined = self.read_single(idx) + self.read_single(neighbor);
        self.states[idx] = SlotState::CombinedLeft;
        self.states[neighbor] = SlotState::CombinedRight;
        self.write_combined(idx, combined);
        Some(idx)
    }

    /// Adds `value` to the counter containing `idx`, combining once if
    /// possible and saturating otherwise.
    fn add(&mut self, idx: usize, value: u64) {
        let (primary, combined) = self.resolve(idx);
        if combined {
            let new = (self.read_combined(primary) + value).min(self.combined_capacity());
            self.write_combined(primary, new);
            return;
        }
        let cur = self.read_single(primary);
        if cur + value <= self.single_capacity() {
            self.write_single(primary, cur + value);
            return;
        }
        // Overflow: try to borrow from the right neighbour.
        if let Some(p) = self.try_combine(primary) {
            let new = (self.read_combined(p) + value).min(self.combined_capacity());
            self.write_combined(p, new);
        } else {
            // Cannot combine (edge of the row or neighbour already combined):
            // the counter saturates — exactly the limitation SALSA removes.
            self.write_single(primary, self.single_capacity());
        }
    }

    /// Processes the update `⟨item, value⟩` (Cash Register).
    pub fn update(&mut self, item: u64, value: u64) {
        for row in 0..self.depth {
            let bucket = self.hashers.bucket(row, item);
            self.add(bucket, value);
        }
    }

    /// Estimates the frequency of `item` (minimum over the `d` counters).
    pub fn estimate(&self, item: u64) -> u64 {
        (0..self.depth)
            .map(|row| self.read(self.hashers.bucket(row, item)))
            .min()
            .unwrap_or(0)
    }

    /// Memory used by the counter array, in bytes (the 3 combine-marker bits
    /// live inside the combined counters, as in the paper).
    pub fn size_bytes(&self) -> usize {
        (self.width * self.bits as usize).div_ceil(8)
    }

    /// Number of counters that are currently halves of combined counters.
    pub fn combined_slots(&self) -> usize {
        self.states
            .iter()
            .filter(|&&s| s != SlotState::Single)
            .count()
    }
}

impl FrequencyEstimator for AbcSketch {
    fn update(&mut self, item: u64, value: i64) {
        debug_assert!(value >= 0);
        AbcSketch::update(self, item, value as u64);
    }

    fn size_bytes(&self) -> usize {
        AbcSketch::size_bytes(self)
    }
}

impl FrequencyQueries for AbcSketch {
    fn estimate(&self, item: u64) -> i64 {
        AbcSketch::estimate(self, item).min(i64::MAX as u64) as i64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn small_counts_are_exact_without_collisions() {
        let mut abc = AbcSketch::new(4, 1 << 12, 8, 1);
        for item in 0..50u64 {
            for _ in 0..=item {
                abc.update(item, 1);
            }
        }
        for item in 0..50u64 {
            assert_eq!(abc.estimate(item), item + 1);
        }
    }

    #[test]
    fn overflow_combines_once_and_counts_to_8191() {
        let mut abc = AbcSketch::new(1, 64, 8, 3);
        for _ in 0..5_000 {
            abc.update(9, 1);
        }
        let est = abc.estimate(9);
        assert!(
            est >= 5_000,
            "combined counter should reach 5000, got {est}"
        );
        assert_eq!(abc.combined_capacity(), 8_191);
        // Push past the combined capacity: ABC saturates (region B of Fig. 9).
        for _ in 0..10_000 {
            abc.update(9, 1);
        }
        assert_eq!(abc.estimate(9), 8_191, "ABC cannot count past 2^13 - 1");
    }

    #[test]
    fn never_underestimates_below_the_cap() {
        let mut abc = AbcSketch::new(4, 1 << 10, 8, 7);
        let mut truth: HashMap<u64, u64> = HashMap::new();
        let mut state = 3u64;
        for _ in 0..60_000 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let u = ((state >> 11) as f64 / (1u64 << 53) as f64).max(1e-12);
            let item = ((1.0 / u) as u64).min(4_999);
            abc.update(item, 1);
            *truth.entry(item).or_insert(0) += 1;
        }
        for (&item, &count) in &truth {
            // A counter that cannot borrow (its neighbour already combined)
            // saturates at the single-counter capacity, and a combined one at
            // 2^13 − 1 — so the only guaranteed floor is min(truth, 255).
            // This weak guarantee is precisely the heavy-hitter weakness the
            // SALSA paper attributes to ABC.
            let floor = count.min(abc.single_capacity());
            assert!(
                abc.estimate(item) >= floor,
                "item {item}: estimate {} < min(truth, single cap) {floor}",
                abc.estimate(item)
            );
        }
    }

    #[test]
    fn neighbours_cannot_combine_twice() {
        let mut abc = AbcSketch::new(1, 8, 8, 11);
        // Saturate every counter so that all possible combinations happen.
        for item in 0..10_000u64 {
            abc.update(item, 3);
        }
        // States must only ever pair a CombinedLeft with the CombinedRight
        // immediately after it.
        let mut i = 0;
        while i < 8 {
            match abc.states[i] {
                SlotState::CombinedLeft => {
                    assert_eq!(abc.states[i + 1], SlotState::CombinedRight);
                    i += 2;
                }
                SlotState::Single => i += 1,
                SlotState::CombinedRight => panic!("orphan right half at {i}"),
            }
        }
    }

    #[test]
    fn combined_value_covers_both_constituents() {
        let mut abc = AbcSketch::new(1, 16, 8, 2);
        // Two items in adjacent slots; force the left one to overflow.
        let mut left_item = None;
        let mut right_item = None;
        for item in 0..10_000u64 {
            let b = abc.hashers.bucket(0, item);
            if b == 4 && left_item.is_none() {
                left_item = Some(item);
            }
            if b == 5 && right_item.is_none() {
                right_item = Some(item);
            }
            if left_item.is_some() && right_item.is_some() {
                break;
            }
        }
        let (l, r) = (left_item.unwrap(), right_item.unwrap());
        abc.update(r, 100);
        abc.update(l, 300); // overflows 8 bits → combines with slot 5
        assert!(abc.estimate(l) >= 300);
        assert!(
            abc.estimate(r) >= 100,
            "the absorbed neighbour keeps its count"
        );
    }

    #[test]
    fn memory_is_just_the_counter_array() {
        let abc = AbcSketch::new(4, 2048, 8, 1);
        assert_eq!(abc.size_bytes(), 2048);
    }
}
