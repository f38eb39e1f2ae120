//! Fixed-width counter rows: the baselines SALSA is compared against.
//!
//! * [`FixedRow`] — bit-packed unsigned counters of a fixed width
//!   (2–64 bits).  With 32-bit counters this is the paper's *Baseline*
//!   configuration; with 8/16-bit counters it is the "can one simply use
//!   small counters?" baseline of Fig. 6 / Figs. 19–20, which **saturates**
//!   at its maximum value instead of merging.
//! * [`FixedSignedRow`] — fixed-width signed counters for the baseline Count
//!   Sketch (two's-complement semantics, saturating at the representable
//!   range).

use crate::storage::{unsigned_capacity, BitStorage};
use crate::traits::{Row, SignedRow};

/// A row of fixed-width, saturating, unsigned counters.
#[derive(Debug, Clone)]
pub struct FixedRow {
    storage: BitStorage,
    width: usize,
    bits: u32,
}

impl FixedRow {
    /// Creates a row of `width` counters of `bits` bits each.
    ///
    /// # Panics
    ///
    /// Panics if `width` is not a power of two or `bits` is not one of 2, 4,
    /// 8, 16, 32, 64.
    pub fn new(width: usize, bits: u32) -> Self {
        assert!(width.is_power_of_two(), "row width must be a power of two");
        assert!(
            matches!(bits, 2 | 4 | 8 | 16 | 32 | 64),
            "counter size must be one of 2, 4, 8, 16, 32, 64 bits"
        );
        Self {
            storage: BitStorage::new(width * bits as usize),
            width,
            bits,
        }
    }

    /// Counter width in bits.
    #[inline]
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// Largest representable counter value.
    #[inline]
    pub fn capacity(&self) -> u64 {
        unsigned_capacity(self.bits)
    }

    /// Overwrites counter `idx` with `value` (clamped to the counter's
    /// capacity).  Used when combining or subtracting sketches.
    #[inline]
    pub fn set_slot(&mut self, idx: usize, value: u64) {
        let clamped = value.min(self.capacity());
        self.storage
            .write_aligned(idx * self.bits as usize, self.bits, clamped);
    }
}

impl Row for FixedRow {
    #[inline]
    fn width(&self) -> usize {
        self.width
    }

    #[inline(always)]
    fn read(&self, idx: usize) -> u64 {
        self.storage
            .read_aligned(idx * self.bits as usize, self.bits)
    }

    #[inline(always)]
    fn add(&mut self, idx: usize, value: u64) {
        let cur = self.read(idx);
        let new = cur.saturating_add(value).min(self.capacity());
        self.storage
            .write_aligned(idx * self.bits as usize, self.bits, new);
    }

    #[inline(always)]
    fn raise_to(&mut self, idx: usize, target: u64) {
        let cur = self.read(idx);
        if target > cur {
            let new = target.min(self.capacity());
            self.storage
                .write_aligned(idx * self.bits as usize, self.bits, new);
        }
    }

    #[inline]
    fn add_unit_batch(&mut self, buckets: &[usize]) {
        // Unit increments never need the general saturating-add path: a
        // counter below capacity is bumped by exactly one, a saturated one
        // is rewritten unchanged.  Branch-free: once heavy counters
        // saturate, a branch on `cur < cap` mispredicts.
        let cap = self.capacity();
        for &bucket in buckets {
            let offset = bucket * self.bits as usize;
            let cur = self.storage.read_aligned(offset, self.bits);
            self.storage
                .write_aligned(offset, self.bits, cur + u64::from(cur < cap));
        }
    }

    fn size_bytes(&self) -> usize {
        (self.width * self.bits as usize).div_ceil(8)
    }

    fn estimated_zero_base_slots(&self) -> f64 {
        (0..self.width).filter(|&i| self.read(i) == 0).count() as f64
    }

    fn copy_from(&mut self, src: &Self) {
        assert_eq!(self.width, src.width, "row widths must match");
        assert_eq!(self.bits, src.bits, "counter widths must match");
        self.storage.copy_from(&src.storage);
    }

    fn reset(&mut self) {
        self.storage.clear();
    }
}

/// A row of fixed-width, saturating, signed counters (baseline Count Sketch).
///
/// Counters are stored as `i64` for simplicity; [`SignedRow::size_bytes`]
/// accounts for the *nominal* width so memory comparisons against SALSA use
/// the width the baseline would allocate (32 bits by default in the paper's
/// implementation).
#[derive(Debug, Clone)]
pub struct FixedSignedRow {
    values: Vec<i64>,
    bits: u32,
}

impl FixedSignedRow {
    /// Creates a row of `width` signed counters of nominal width `bits`.
    pub fn new(width: usize, bits: u32) -> Self {
        assert!(width.is_power_of_two(), "row width must be a power of two");
        assert!(
            matches!(bits, 8 | 16 | 32 | 64),
            "counter size must be one of 8, 16, 32, 64 bits"
        );
        Self {
            values: vec![0i64; width],
            bits,
        }
    }

    /// Nominal counter width in bits.
    #[inline]
    pub fn bits(&self) -> u32 {
        self.bits
    }

    #[inline]
    fn max(&self) -> i64 {
        if self.bits == 64 {
            i64::MAX
        } else {
            (1i64 << (self.bits - 1)) - 1
        }
    }

    #[inline]
    fn min(&self) -> i64 {
        if self.bits == 64 {
            i64::MIN
        } else {
            -(1i64 << (self.bits - 1))
        }
    }
}

impl SignedRow for FixedSignedRow {
    #[inline]
    fn width(&self) -> usize {
        self.values.len()
    }

    #[inline(always)]
    fn read(&self, idx: usize) -> i64 {
        self.values[idx]
    }

    #[inline(always)]
    fn add(&mut self, idx: usize, value: i64) {
        let new = self.values[idx].saturating_add(value);
        self.values[idx] = new.clamp(self.min(), self.max());
    }

    fn size_bytes(&self) -> usize {
        (self.values.len() * self.bits as usize).div_ceil(8)
    }

    fn copy_from(&mut self, src: &Self) {
        assert_eq!(self.values.len(), src.values.len(), "row widths must match");
        assert_eq!(self.bits, src.bits, "counter widths must match");
        self.values.copy_from_slice(&src.values);
    }

    fn reset(&mut self) {
        self.values.iter_mut().for_each(|v| *v = 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_row_roundtrip() {
        let mut row = FixedRow::new(128, 32);
        for i in 0..128 {
            row.add(i, i as u64 * 1000);
        }
        for i in 0..128 {
            assert_eq!(row.read(i), i as u64 * 1000);
        }
    }

    #[test]
    fn small_counters_saturate() {
        let mut row = FixedRow::new(16, 8);
        for _ in 0..300 {
            row.add(3, 1);
        }
        assert_eq!(row.read(3), 255, "8-bit baseline counters stop at 255");
        let mut row16 = FixedRow::new(16, 16);
        row16.add(0, 100_000);
        assert_eq!(row16.read(0), 65_535);
    }

    #[test]
    fn add_unit_batch_matches_unit_adds_and_saturates() {
        let mut batched = FixedRow::new(16, 8);
        let mut looped = FixedRow::new(16, 8);
        let buckets: Vec<usize> = (0..600).map(|i| (i * 5) % 16).collect();
        batched.add_unit_batch(&buckets);
        for &bucket in &buckets {
            looped.add(bucket, 1);
        }
        for i in 0..16 {
            assert_eq!(batched.read(i), looped.read(i), "slot {i}");
        }
        // A saturated counter stays at capacity.
        let mut row = FixedRow::new(16, 8);
        row.add(3, 255);
        row.add_unit_batch(&[3, 3, 3]);
        assert_eq!(row.read(3), 255);
    }

    #[test]
    fn raise_to_saturates_too() {
        let mut row = FixedRow::new(16, 8);
        row.raise_to(2, 1000);
        assert_eq!(row.read(2), 255);
        row.raise_to(2, 10);
        assert_eq!(row.read(2), 255);
    }

    #[test]
    fn size_bytes_has_no_overhead() {
        assert_eq!(FixedRow::new(1024, 32).size_bytes(), 4096);
        assert_eq!(FixedRow::new(1024, 8).size_bytes(), 1024);
    }

    #[test]
    fn zero_slots_are_exact() {
        let mut row = FixedRow::new(64, 32);
        for i in 0..10 {
            row.add(i, 5);
        }
        assert_eq!(row.estimated_zero_base_slots(), 54.0);
    }

    #[test]
    fn signed_row_clamps_to_nominal_range() {
        let mut row = FixedSignedRow::new(16, 8);
        for _ in 0..200 {
            row.add(0, 1);
            row.add(1, -1);
        }
        assert_eq!(row.read(0), 127);
        assert_eq!(row.read(1), -128);
    }

    #[test]
    fn signed_row_size_uses_nominal_bits() {
        assert_eq!(FixedSignedRow::new(1024, 32).size_bytes(), 4096);
    }

    #[test]
    fn reset_zeroes() {
        let mut row = FixedRow::new(16, 8);
        row.add(1, 7);
        row.reset();
        assert_eq!(row.read(1), 0);
        let mut srow = FixedSignedRow::new(16, 32);
        srow.add(1, -7);
        srow.reset();
        assert_eq!(srow.read(1), 0);
    }
}
