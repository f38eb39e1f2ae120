//! Counter-wise combination of rows: sketch union and difference.
//!
//! Section V of the paper ("Merging and Subtracting SALSA Sketches"):
//! sketches built with the *same* hash functions can be summed counter-wise
//! to obtain a sketch of the union stream `A ∪ B`, or subtracted to obtain a
//! sketch of the frequency difference `A \ B` (used by change detection).
//! For SALSA rows, every counter of the combined row is at least as large as
//! in either operand, and combining may itself trigger further merges when
//! the summed value overflows.
//!
//! The SALSA union and difference fold **one storage word at a time**.  A
//! counter never exceeds 64 bits and is aligned to its own size, so a word
//! and its merge markers ([`MergeEncoding::word_markers`]) describe every
//! counter in it.  The OR of the two words' markers is the union layout,
//! whose counter at each slot is the larger of the operands' counters.
//! Both words are raised to it in registers, level by level, and then one
//! broadword add (or a subtract floored at zero) combines all lanes at
//! once, with the carry cut at each lane's top bit.  Most words already
//! share a layout and skip the raise.  A union word in which a lane
//! overflows commits nothing and takes the per-counter path instead
//! (`force_level_at_least`, then `add`, per counter of the other row), so
//! the result is byte-identical to the per-counter loop: counters, levels
//! and merge count.  The kernel is the crate-private `SalsaRow::fold`.
//! Signed rows keep the per-counter loop: a sign-magnitude lane needs a
//! sign compare per lane.
//!
//! Both operands must have the same shape — width, base width, maximum
//! counter size and, for unsigned rows, merge op — or the combination
//! panics, as [`crate::traits::Row::copy_from`] does.

use crate::encoding::MergeEncoding;
use crate::fixed::{FixedRow, FixedSignedRow};
use crate::row::{Fold, SalsaRow, SalsaSignedRow};
use crate::traits::{Row, SignedRow};

/// Rows that can be combined counter-wise with another row of the same shape.
///
/// Both operands must have the same width and have been fed through the same
/// hash functions; the sketch types in `salsa-sketches` enforce this.
pub trait RowMerge {
    /// `self := self + other` (stream union).
    fn absorb(&mut self, other: &Self);

    /// `self := self - other` (stream difference).
    ///
    /// For unsigned rows this is only meaningful in the Strict Turnstile
    /// model with `B ⊆ A` (the result saturates at zero); signed rows
    /// support general differences.
    fn subtract(&mut self, other: &Self);
}

impl RowMerge for FixedRow {
    fn absorb(&mut self, other: &Self) {
        assert_eq!(self.width(), other.width(), "row widths must match");
        for idx in 0..self.width() {
            self.add(idx, other.read(idx));
        }
    }

    fn subtract(&mut self, other: &Self) {
        assert_eq!(self.width(), other.width(), "row widths must match");
        for idx in 0..self.width() {
            let new = self.read(idx).saturating_sub(other.read(idx));
            self.set_slot(idx, new);
        }
    }
}

impl RowMerge for FixedSignedRow {
    fn absorb(&mut self, other: &Self) {
        assert_eq!(self.width(), other.width(), "row widths must match");
        for idx in 0..self.width() {
            self.add(idx, other.read(idx));
        }
    }

    fn subtract(&mut self, other: &Self) {
        assert_eq!(self.width(), other.width(), "row widths must match");
        for idx in 0..self.width() {
            self.add(idx, -other.read(idx));
        }
    }
}

impl<E: MergeEncoding> RowMerge for SalsaRow<E> {
    fn absorb(&mut self, other: &Self) {
        self.assert_same_shape(other);
        self.fold(other, Fold::Union);
    }

    fn subtract(&mut self, other: &Self) {
        self.assert_same_shape(other);
        self.fold(other, Fold::Difference);
    }
}

impl<E: MergeEncoding> RowMerge for SalsaSignedRow<E> {
    fn absorb(&mut self, other: &Self) {
        self.assert_same_shape(other);
        for (start, level, value) in other.counters() {
            if value == 0 && level == 0 {
                continue;
            }
            self.force_level_at_least(start, level);
            self.add(start, value);
        }
    }

    fn subtract(&mut self, other: &Self) {
        self.assert_same_shape(other);
        for (start, level, value) in other.counters() {
            if value == 0 && level == 0 {
                continue;
            }
            self.force_level_at_least(start, level);
            self.add(start, -value);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prelude::*;

    #[test]
    fn fixed_rows_absorb_and_subtract() {
        let mut a = FixedRow::new(16, 32);
        let mut b = FixedRow::new(16, 32);
        a.add(1, 10);
        a.add(2, 5);
        b.add(1, 7);
        b.add(3, 2);
        let mut union = a.clone();
        union.absorb(&b);
        assert_eq!(union.read(1), 17);
        assert_eq!(union.read(2), 5);
        assert_eq!(union.read(3), 2);
        let mut diff = union.clone();
        diff.subtract(&b);
        for i in 0..16 {
            assert_eq!(diff.read(i), a.read(i));
        }
    }

    #[test]
    fn salsa_rows_absorb_into_wider_counters() {
        let mut a = SimpleSalsaRow::new(16, 8, MergeOp::Sum);
        let mut b = SimpleSalsaRow::new(16, 8, MergeOp::Sum);
        a.add(4, 200);
        b.add(4, 200);
        b.add(9, 400); // merged in b
        let mut union = a.clone();
        union.absorb(&b);
        assert_eq!(union.read(4), 400); // 200 + 200 → forced a merge
        assert!(union.level_of(4) >= 1);
        assert_eq!(union.read(9), 400);
        assert!(union.level_of(9) >= b.level_of(9));
    }

    #[test]
    fn salsa_subtract_recovers_first_operand_in_strict_turnstile() {
        let mut a = SimpleSalsaRow::new(32, 8, MergeOp::Sum);
        let mut b = SimpleSalsaRow::new(32, 8, MergeOp::Sum);
        for i in 0..32 {
            a.add(i, (i as u64) * 20);
            b.add(i, (i as u64) * 7);
        }
        let mut union = a.clone();
        union.absorb(&b);
        union.subtract(&b);
        for i in 0..32 {
            // The union counter may be wider than a's, so compare per-block
            // totals rather than per-slot values.
            assert!(union.read(i) >= a.read(i) || union.level_of(i) > a.level_of(i));
        }
    }

    #[test]
    fn signed_rows_support_general_differences() {
        let mut a = SimpleSalsaSignedRow::new(16, 8);
        let mut b = SimpleSalsaSignedRow::new(16, 8);
        a.add(3, 120);
        a.add(5, -60);
        b.add(3, 150);
        b.add(7, 10);
        let mut diff = a.clone();
        diff.subtract(&b);
        assert_eq!(diff.read(3), -30);
        assert_eq!(diff.read(5), -60);
        assert_eq!(diff.read(7), -10);
        let mut union = a.clone();
        union.absorb(&b);
        assert_eq!(union.read(3), 270);
    }

    #[test]
    fn fixed_signed_rows_difference() {
        let mut a = FixedSignedRow::new(8, 32);
        let mut b = FixedSignedRow::new(8, 32);
        a.add(0, 5);
        b.add(0, 9);
        a.subtract(&b);
        assert_eq!(a.read(0), -4);
    }

    #[test]
    #[should_panic(expected = "widths must match")]
    fn mismatched_widths_panic() {
        let mut a = FixedRow::new(8, 32);
        let b = FixedRow::new(16, 32);
        a.absorb(&b);
    }

    #[test]
    #[should_panic(expected = "merge ops must match")]
    fn salsa_rows_of_different_merge_ops_do_not_merge() {
        let mut sum = SimpleSalsaRow::new(16, 8, MergeOp::Sum);
        let max = SimpleSalsaRow::new(16, 8, MergeOp::Max);
        sum.absorb(&max);
    }

    #[test]
    #[should_panic(expected = "max levels must match")]
    fn salsa_rows_of_different_max_levels_do_not_merge() {
        let mut capped = SimpleSalsaRow::with_max_bits(16, 8, MergeOp::Sum, 16);
        let wide = SimpleSalsaRow::new(16, 8, MergeOp::Sum);
        capped.subtract(&wide);
    }

    #[test]
    #[should_panic(expected = "max levels must match")]
    fn signed_rows_of_different_max_levels_do_not_merge() {
        let mut capped = SimpleSalsaSignedRow::with_max_bits(16, 8, 16);
        let wide = SimpleSalsaSignedRow::new(16, 8);
        capped.absorb(&wide);
    }
}
