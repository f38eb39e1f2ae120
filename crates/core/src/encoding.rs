//! The merge-layout encoding abstraction.
//!
//! SALSA needs to record, for every base counter slot, how large the merged
//! counter containing it currently is.  The paper gives two encodings:
//!
//! * the **simple encoding** — one merge bit per counter
//!   ([`crate::bitmap::MergeBitmap`]), and
//! * the **near-optimal encoding** — a mixed-radix layout code of ⌈log₂ a₅⌉ =
//!   19 bits per 32 counters, i.e. ≤ 0.594 bits per counter
//!   ([`crate::compact::LayoutCodes`]).
//!
//! [`crate::row::SalsaRow`] is generic over this trait so both encodings
//! share the counter/merge logic and can be compared like-for-like in the
//! `encoding` benchmark.

/// How a SALSA row records which counters have merged.
///
/// Levels are powers of two: a counter at level `ℓ` spans `2^ℓ` base slots
/// and has `s·2^ℓ` bits.
pub trait MergeEncoding: Clone + std::fmt::Debug {
    /// Creates an encoding for a row of `width` base counters.
    fn for_width(width: usize) -> Self;

    /// Level (0-based) of the merged counter containing base index `idx`,
    /// never exceeding `max_level`.
    fn level_of(&self, idx: usize, max_level: u32) -> u32;

    /// The simple encoding's merge-marker bits for base slots
    /// `first .. first + count`: bit `i` is set iff the counter containing
    /// slot `j = first + i` spans at least `2^(t+1)` slots, where `t` is the
    /// number of trailing one bits of `j` (slot `j` is the marker of that
    /// block's merge; see [`crate::bitmap`]).
    ///
    /// `count` is a power of two from 2 to 32 and `first` a multiple of
    /// it.  A SALSA row asks for the `count = 64/s` slots of one storage
    /// word: its counters never exceed 64 bits and are aligned to their own
    /// size, so these bits decode the level — and so the bit field — of
    /// every counter in that word (the word-local unit add of
    /// [`crate::row::SalsaRow`]'s `Row::add_unit_batch`).
    fn word_markers(&self, first: usize, count: usize) -> u64;

    /// Records that the level-`level` block containing `idx` is now a single
    /// merged counter (all of its sub-blocks are merged as well).
    fn mark_merged(&mut self, idx: usize, level: u32);

    /// Splits the level-`level` block containing `idx` back into its two
    /// level-`level − 1` halves (used by counter splitting after estimator
    /// downsampling).  `level ≥ 1`.
    fn unmark_level(&mut self, idx: usize, level: u32);

    /// Encoding overhead, in bits, for a row of `width` base counters.
    fn overhead_bits(width: usize) -> usize;

    /// Overwrites this encoding with `src`'s state **without allocating**
    /// (both must have been created for the same width).  This is the
    /// buffer-reusing counterpart of `Clone`, used by the zero-allocation
    /// snapshot path.
    fn copy_from(&mut self, src: &Self);

    /// Returns every base counter to level 0 in place, **without
    /// allocating** (the state [`MergeEncoding::for_width`] creates).
    fn reset(&mut self);
}

/// Helpers shared by the encodings' unit tests.
#[cfg(test)]
pub(crate) mod test_support {
    use super::MergeEncoding;

    /// A 64-bit LCG step; returns the new state's high bits.
    pub(crate) fn next(state: &mut u64) -> u64 {
        *state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        *state >> 33
    }

    /// Merges a random layout into `enc`: every aligned `2^n`-slot block
    /// of the row, `n ≤ max_level`, becomes one counter with probability
    /// 1/3 unless a block containing it already did.
    pub(crate) fn merge_random_layout<E: MergeEncoding>(
        enc: &mut E,
        width: usize,
        max_level: u32,
        state: &mut u64,
    ) {
        fn lay_out<E: MergeEncoding>(enc: &mut E, start: usize, n: u32, max: u32, s: &mut u64) {
            if n <= max && next(s).is_multiple_of(3) {
                if n > 0 {
                    enc.mark_merged(start, n);
                }
            } else if n > 0 {
                lay_out(enc, start, n - 1, max, s);
                lay_out(enc, start + (1 << (n - 1)), n - 1, max, s);
            }
        }
        let top = max_level.min(width.trailing_zeros());
        for start in (0..width).step_by(1 << top) {
            lay_out(enc, start, top, max_level, state);
        }
    }

    /// The marker bits of slots `first .. first + count`, rebuilt from
    /// per-slot levels: slot `j` is set iff its counter reaches level
    /// `trailing_ones(j) + 1`.
    pub(crate) fn markers_from_levels<E: MergeEncoding>(
        enc: &E,
        first: usize,
        count: usize,
        max_level: u32,
    ) -> u64 {
        (0..count)
            .filter(|&i| {
                let j = first + i;
                enc.level_of(j, max_level) > j.trailing_ones()
            })
            .fold(0, |acc, i| acc | 1 << i)
    }
}
