//! Tango: fine-grained counter merging (Section IV of the paper).
//!
//! Where SALSA doubles a counter's size on every overflow, Tango grows
//! counters by one base slot at a time, so counters can occupy any number of
//! consecutive `s`-bit slots.  Each base slot `j` carries a merge bit meaning
//! "slot `j` is merged with slot `j + 1`"; the counter containing `j` is
//! found by scanning the merge bits left and right until both sides hit a
//! zero.
//!
//! The merge *order* mimics SALSA's alignment: a counter always extends
//! toward filling the smallest power-of-two aligned block that contains it
//! (e.g. counter 9 first merges with 8, then 10, 11, then 12…15, then 7, 6,
//! …), so at any point in time every Tango counter is contained in the
//! counter SALSA would have built — which is why Tango estimates are at
//! least as tight (the property Fig. 7 evaluates).

use crate::bitmap::MergeBitmap;
use crate::encoding::MergeEncoding;
use crate::storage::{unsigned_capacity, BitStorage};
use crate::traits::{MergeOp, Row};

/// A row of Tango counters.
#[derive(Debug, Clone)]
pub struct TangoRow {
    storage: BitStorage,
    /// `merged_right.get(j)` ⇔ slot `j` and slot `j + 1` belong to the same
    /// counter.
    merged_right: MergeBitmap,
    width: usize,
    base_bits: u32,
    /// Maximum number of base slots a counter may span (64 / base_bits).
    max_slots: usize,
    merge_op: MergeOp,
    merge_events: u64,
}

impl TangoRow {
    /// Creates a Tango row of `width` counters of `base_bits` bits each.
    ///
    /// # Panics
    ///
    /// Panics if `width` is not a power of two or `base_bits` is not one of
    /// 2, 4, 8, 16, 32.
    pub fn new(width: usize, base_bits: u32, merge_op: MergeOp) -> Self {
        assert!(width.is_power_of_two(), "row width must be a power of two");
        assert!(
            matches!(base_bits, 2 | 4 | 8 | 16 | 32),
            "Tango base counter size must be one of 2, 4, 8, 16, 32 bits"
        );
        Self {
            storage: BitStorage::new(width * base_bits as usize),
            merged_right: MergeBitmap::new(width),
            width,
            base_bits,
            max_slots: (64 / base_bits) as usize,
            merge_op,
            merge_events: 0,
        }
    }

    /// Base counter size in bits (`s`).
    #[inline]
    pub fn base_bits(&self) -> u32 {
        self.base_bits
    }

    /// Number of merge events so far.
    #[inline]
    pub fn merge_events(&self) -> u64 {
        self.merge_events
    }

    /// The `[first, last]` slot range of the counter containing `idx`.
    #[inline]
    pub fn span_of(&self, idx: usize) -> (usize, usize) {
        let mut left = idx;
        while left > 0 && self.merged_right.get(left - 1) {
            left -= 1;
        }
        let mut right = idx;
        while right + 1 < self.width && self.merged_right.get(right) {
            right += 1;
        }
        (left, right)
    }

    #[inline]
    fn span_bits(&self, left: usize, right: usize) -> u32 {
        ((right - left + 1) as u32) * self.base_bits
    }

    #[inline]
    fn read_span(&self, left: usize, right: usize) -> u64 {
        self.storage
            .read_unaligned(left * self.base_bits as usize, self.span_bits(left, right))
    }

    #[inline]
    fn write_span(&mut self, left: usize, right: usize, value: u64) {
        self.storage.write_unaligned(
            left * self.base_bits as usize,
            self.span_bits(left, right),
            value,
        );
    }

    /// Picks the slot the counter `[left, right]` should absorb next,
    /// following the SALSA-aligned order described in the paper.  Returns
    /// `None` if the counter cannot grow further (it already spans the whole
    /// row).
    fn next_neighbor(&self, left: usize, right: usize) -> Option<usize> {
        if left == 0 && right + 1 == self.width {
            return None;
        }
        // Smallest aligned power-of-two block that contains [left, right]
        // and is not fully covered by it.
        let mut level = 0u32;
        loop {
            let block = 1usize << level;
            let block_start = (left >> level) << level;
            let covers = block_start <= left && block_start + block > right;
            let fully_covered = covers && (right - left + 1) == block;
            if covers && !fully_covered {
                // Prefer extending right inside the block, then left.
                return if right + 1 < block_start + block {
                    Some(right + 1)
                } else {
                    Some(left - 1)
                };
            }
            level += 1;
            if (1usize << level) > self.width {
                // [left, right] covers an entire power-of-two prefix equal to
                // the row; handled by the bail-out above, but guard anyway.
                return None;
            }
        }
    }

    /// Grows the counter `[left, right]` by absorbing its next neighbour
    /// (and the neighbour's whole counter).  Returns the new span.
    fn grow(&mut self, left: usize, right: usize) -> (usize, usize) {
        let neighbor = match self.next_neighbor(left, right) {
            Some(n) => n,
            None => return (left, right),
        };
        let (n_left, n_right) = self.span_of(neighbor);
        let new_left = left.min(n_left);
        let new_right = right.max(n_right);
        if new_right - new_left + 1 > self.max_slots {
            // Growing would exceed the 64-bit cap; caller will saturate.
            return (left, right);
        }
        let own = self.read_span(left, right);
        let other = self.read_span(n_left, n_right);
        let combined = self.merge_op.combine(own, other);
        // Join the spans.
        for j in new_left..new_right {
            self.merged_right.set(j);
        }
        self.storage.clear_range(
            new_left * self.base_bits as usize,
            (new_right - new_left + 1) * self.base_bits as usize,
        );
        self.write_span(new_left, new_right, combined);
        self.merge_events += 1;
        (new_left, new_right)
    }

    /// Iterates over the logical counters as `(first_slot, last_slot, value)`.
    pub fn counters(&self) -> impl Iterator<Item = (usize, usize, u64)> + '_ {
        let mut idx = 0usize;
        std::iter::from_fn(move || {
            if idx >= self.width {
                return None;
            }
            let (left, right) = self.span_of(idx);
            debug_assert_eq!(left, idx);
            let value = self.read_span(left, right);
            idx = right + 1;
            Some((left, right, value))
        })
    }
}

impl Row for TangoRow {
    #[inline]
    fn width(&self) -> usize {
        self.width
    }

    #[inline]
    fn read(&self, idx: usize) -> u64 {
        let (left, right) = self.span_of(idx);
        self.read_span(left, right)
    }

    fn add(&mut self, idx: usize, value: u64) {
        if value == 0 {
            return;
        }
        let (mut left, mut right) = self.span_of(idx);
        loop {
            let cap = unsigned_capacity(self.span_bits(left, right));
            let cur = self.read_span(left, right);
            if value <= cap - cur.min(cap) {
                self.write_span(left, right, cur + value);
                return;
            }
            let (new_left, new_right) = self.grow(left, right);
            if (new_left, new_right) == (left, right) {
                // Could not grow any further: saturate.
                self.write_span(left, right, cap);
                return;
            }
            left = new_left;
            right = new_right;
        }
    }

    fn raise_to(&mut self, idx: usize, target: u64) {
        let (mut left, mut right) = self.span_of(idx);
        loop {
            let cur = self.read_span(left, right);
            if cur >= target {
                return;
            }
            let cap = unsigned_capacity(self.span_bits(left, right));
            if target <= cap {
                self.write_span(left, right, target);
                return;
            }
            let (new_left, new_right) = self.grow(left, right);
            if (new_left, new_right) == (left, right) {
                self.write_span(left, right, cap);
                return;
            }
            left = new_left;
            right = new_right;
        }
    }

    fn size_bytes(&self) -> usize {
        // Counter bits plus one merge bit per base slot.
        (self.width * self.base_bits as usize + self.width).div_ceil(8)
    }

    fn estimated_zero_base_slots(&self) -> f64 {
        let mut unmerged = 0usize;
        let mut unmerged_zero = 0usize;
        let mut merged_hidden_slots = 0usize;
        for (left, right, value) in self.counters() {
            if left == right {
                unmerged += 1;
                if value == 0 {
                    unmerged_zero += 1;
                }
            } else {
                merged_hidden_slots += right - left;
            }
        }
        if unmerged == 0 {
            return 0.0;
        }
        let f = unmerged_zero as f64 / unmerged as f64;
        unmerged_zero as f64 + f * merged_hidden_slots as f64
    }

    fn copy_from(&mut self, src: &Self) {
        assert_eq!(self.width, src.width, "row widths must match");
        assert_eq!(self.base_bits, src.base_bits, "base widths must match");
        assert_eq!(self.merge_op, src.merge_op, "merge ops must match");
        self.storage.copy_from(&src.storage);
        MergeEncoding::copy_from(&mut self.merged_right, &src.merged_right);
        self.merge_events = src.merge_events;
    }

    fn reset(&mut self) {
        self.storage.clear();
        MergeEncoding::reset(&mut self.merged_right);
        self.merge_events = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn behaves_like_plain_counters_before_overflow() {
        let mut row = TangoRow::new(32, 8, MergeOp::Max);
        for i in 0..32 {
            row.add(i, i as u64 * 7 % 250);
        }
        for i in 0..32 {
            assert_eq!(row.read(i), i as u64 * 7 % 250);
        }
        assert_eq!(row.merge_events(), 0);
    }

    #[test]
    fn paper_merge_order_for_counter_nine() {
        // "if counter 9 overflows, it merges with 8 … If it overflows again,
        //  it merges with 10 … and then with 11 … then 12, 13, 14 and 15 …
        //  Then it merges with 7, 6, …"
        let mut row = TangoRow::new(32, 8, MergeOp::Max);
        row.add(9, 200);
        row.add(9, 100); // first overflow
        assert_eq!(row.span_of(9), (8, 9));
        row.raise_to(9, 65_000);
        row.add(9, 1_000); // second overflow → absorb 10
        assert_eq!(row.span_of(9), (8, 10));
        row.raise_to(9, (1 << 24) - 10);
        row.add(9, 100); // third overflow → absorb 11
        assert_eq!(row.span_of(9), (8, 11));
        row.raise_to(9, (1 << 32) - 10);
        row.add(9, 100); // fourth overflow → absorb 12
        assert_eq!(row.span_of(9), (8, 12));
    }

    #[test]
    fn counter_eight_grows_rightward_first() {
        let mut row = TangoRow::new(16, 8, MergeOp::Max);
        row.add(8, 255);
        row.add(8, 1);
        assert_eq!(row.span_of(8), (8, 9));
    }

    #[test]
    fn grows_leftward_when_block_is_full_on_the_right() {
        let mut row = TangoRow::new(16, 8, MergeOp::Max);
        // Fill ⟨8..15⟩ into one counter, then overflow it: must absorb 7.
        row.add(8, 255);
        row.add(8, 1); // ⟨8,9⟩
        row.raise_to(8, u16::MAX as u64);
        row.add(8, 1); // ⟨8,9,10⟩
        row.raise_to(8, (1 << 24) - 1);
        row.add(8, 1); // ⟨8..11⟩
        row.raise_to(8, (1 << 32) - 1);
        row.add(8, 1); // ⟨8..12⟩
        row.raise_to(8, (1 << 40) - 1);
        row.add(8, 1); // ⟨8..13⟩
        row.raise_to(8, (1 << 48) - 1);
        row.add(8, 1); // ⟨8..14⟩
        row.raise_to(8, (1 << 56) - 1);
        row.add(8, 1); // ⟨8..15⟩
        assert_eq!(row.span_of(8), (8, 15));
        // The next overflow would need slot 7, but that would exceed the
        // 64-bit cap (9 slots × 8 bits), so the counter saturates instead.
        row.raise_to(8, u64::MAX - 1);
        row.add(8, 10);
        assert_eq!(row.read(8), u64::MAX);
        assert_eq!(row.span_of(8), (8, 15));
    }

    #[test]
    fn tango_value_tracks_max_merge() {
        let mut row = TangoRow::new(8, 8, MergeOp::Max);
        row.add(2, 100);
        row.add(3, 200);
        row.add(3, 100); // slot 3 overflows; its 2-block is ⟨2,3⟩ → merge left
        assert_eq!(row.span_of(3), (2, 3));
        assert_eq!(row.read(3), 300); // max(100, 200) + 100
    }

    #[test]
    fn tango_value_tracks_sum_merge() {
        let mut row = TangoRow::new(8, 8, MergeOp::Sum);
        row.add(2, 100);
        row.add(3, 200);
        row.add(3, 100);
        assert_eq!(row.read(3), 400); // 100 + 200 + 100
    }

    #[test]
    fn absorbing_a_neighbour_takes_its_whole_counter() {
        let mut row = TangoRow::new(16, 8, MergeOp::Sum);
        // Build a 2-slot counter at ⟨10, 11⟩…
        row.add(11, 255);
        row.add(11, 5);
        assert_eq!(row.span_of(11), (10, 11));
        // …then overflow ⟨8,9⟩ (built from 9) far enough that it absorbs 10's
        // counter, which drags slot 11 along.
        row.add(9, 255);
        row.add(9, 1);
        assert_eq!(row.span_of(9), (8, 9));
        row.raise_to(9, u16::MAX as u64);
        row.add(9, 10);
        // ⟨8,9⟩ absorbs the counter containing 10, i.e. ⟨10,11⟩.
        assert_eq!(row.span_of(9), (8, 11));
        assert_eq!(row.read(9), 65_535 + 260 + 10);
    }

    #[test]
    fn tango_counter_is_contained_in_salsa_counter() {
        use crate::row::SimpleSalsaRow;
        // Feed the same stream to SALSA and Tango; every Tango span must be
        // contained in the corresponding SALSA block, hence estimates are at
        // least as tight (Section IV).
        let mut tango = TangoRow::new(64, 8, MergeOp::Max);
        let mut salsa = SimpleSalsaRow::new(64, 8, MergeOp::Max);
        let mut state = 99u64;
        for _ in 0..20_000 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let idx = (state >> 33) as usize % 64;
            let val = (state >> 20) & 0x3F;
            tango.add(idx, val);
            salsa.add(idx, val);
        }
        for i in 0..64 {
            let (l, r) = tango.span_of(i);
            let level = salsa.level_of(i);
            let block_start = (i >> level) << level;
            let block_end = block_start + (1 << level) - 1;
            assert!(
                l >= block_start && r <= block_end,
                "Tango span [{l},{r}] of slot {i} escapes SALSA block [{block_start},{block_end}]"
            );
            assert!(tango.read(i) <= salsa.read(i));
        }
    }

    #[test]
    fn size_accounts_one_bit_per_slot() {
        let row = TangoRow::new(1024, 8, MergeOp::Max);
        assert_eq!(row.size_bytes(), 1024 + 128);
    }

    #[test]
    fn reset_clears() {
        let mut row = TangoRow::new(16, 8, MergeOp::Max);
        row.add(3, 1000);
        row.reset();
        assert_eq!(row.read(3), 0);
        assert_eq!(row.span_of(3), (3, 3));
    }
}
