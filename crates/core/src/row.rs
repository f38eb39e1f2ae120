//! SALSA counter rows: self-adjusting counters that merge on overflow.
//!
//! A [`SalsaRow`] starts with `width` counters of `s` bits each.  When a
//! counter cannot represent its new value it merges with its sibling into a
//! counter of twice the size (Section IV of the paper); merges continue up
//! to a configurable maximum counter size (64 bits by default).  The merged
//! value is either the sum or the maximum of the merged counters
//! ([`MergeOp`]), matching Theorems V.1–V.3.
//!
//! [`SalsaSignedRow`] is the sign-magnitude variant required by the Count
//! Sketch (Section V): keeping the representation sign-symmetric is what
//! makes the overflow event independent of the sign of the noise, so the
//! SALSA Count Sketch stays unbiased (Lemma V.4).

use crate::bitmap::MergeBitmap;
use crate::compact::LayoutCodes;
use crate::encoding::MergeEncoding;
use crate::storage::{signed_magnitude_capacity, unsigned_capacity, BitStorage};
use crate::traits::{MergeOp, Row, SignedRow};

/// `CHAIN_MASKS[k - 1][i]`: the merge markers that must all be set for
/// slot `i` of a storage word to lie in a counter of level `k` or more —
/// the marker of its level-`j` block, at slot `(i & !(2^j − 1)) + 2^(j−1) −
/// 1`, for every `j ≤ k` (see [`crate::bitmap`]).
const CHAIN_MASKS: [[u32; 32]; 5] = {
    let mut masks = [[0u32; 32]; 5];
    let mut slot = 0;
    while slot < 32 {
        let mut needed = 0;
        let mut k = 1;
        while k <= 5 {
            needed |= 1 << ((slot & !((1 << k) - 1)) + (1 << (k - 1)) - 1);
            masks[k - 1][slot] = needed;
            k += 1;
        }
        slot += 1;
    }
    masks
};

/// `SLOT_ALIGN[ℓ]` clears the low `ℓ` bits of a slot index: the first slot
/// of its level-`ℓ` counter.
const SLOT_ALIGN: [usize; 6] = [!0, !1, !3, !7, !15, !31];

/// `ONES[n]`: a field of `2^n` one bits.
const ONES: [u64; 7] = [1, 3, 0xF, 0xFF, 0xFFFF, 0xFFFF_FFFF, u64::MAX];

/// The bits `offset .. offset + len` of every `period`-bit group of a word.
const fn pattern(period: u32, offset: u32, len: u32) -> u64 {
    let mut mask = 0;
    let mut bit = 0;
    while bit < 64 {
        if bit % period >= offset && bit % period < offset + len {
            mask |= 1 << bit;
        }
        bit += 1;
    }
    mask
}

/// Broadword arithmetic on one storage word of `64/S` base slots of `S`
/// bits, for the word-parallel fold ([`SalsaRow::fold`]).
///
/// Counters never exceed 64 bits and are aligned to their own size, so a
/// word holds whole counters only, and its merge markers
/// ([`MergeEncoding::word_markers`]) are its layout: a marker is clear
/// exactly at the last slot of each counter.  Each counter is a *lane* of
/// the word, and the top bit of its last slot is the lane's top bit.
/// Masks indexed by level `k` describe the word's aligned `2^k`-slot
/// blocks.
struct WordLanes<const S: u32>;

impl<const S: u32> WordLanes<S> {
    /// Base slots per storage word.
    const SLOTS: usize = (64 / S) as usize;
    /// Levels a counter can reach inside one word: `log₂(64/S)`.
    const LEVELS: usize = (64 / S).trailing_zeros() as usize;
    /// The lowest bit of every slot.
    const LOW: u64 = pattern(S, 0, 1);
    /// `SPREAD[j]`: where [`Self::spread`]'s marker bits may lie once its
    /// steps down to `j` are done — the first `2^j` bits of every
    /// `S·2^j`-bit group.
    const SPREAD: [u64; 5] = {
        let mut masks = [0; 5];
        let mut j = 0;
        while j < Self::LEVELS {
            masks[j] = pattern(S << j, 0, 1 << j);
            j += 1;
        }
        masks
    };
    /// `MID[k]`: the lowest bit of every level-`k` block's marker slot,
    /// the last slot of its lower half.  In a valid layout the block is
    /// one counter, or inside one, iff that marker is set.
    const MID: [u64; 6] = Self::per_level(0);
    /// `LOWER[k]`: the lower half of every level-`k` block.
    const LOWER: [u64; 6] = Self::per_level(1);
    /// `GUARD[k]`: the bit just above the lower half of every level-`k`
    /// block.
    const GUARD: [u64; 6] = Self::per_level(2);

    /// One mask per level `k ≥ 1`, over every level-`k` block, whose
    /// halves have `h = S·2^(k−1)` bits: `MID` (`which` 0), `LOWER` (1)
    /// or `GUARD` (2).
    const fn per_level(which: u8) -> [u64; 6] {
        let mut masks = [0; 6];
        let mut k = 1;
        while k <= Self::LEVELS {
            let h = S << (k - 1);
            let (offset, len) = match which {
                0 => (h - S, 1),
                1 => (0, h),
                _ => (h, 1),
            };
            masks[k] = pattern(S << k, offset, len);
            k += 1;
        }
        masks
    }

    /// Moves marker bit `i` to bit `i·S`, the lowest bit of slot `i`: one
    /// shift-or-mask step per level, coarsest first.
    #[inline(always)]
    fn spread(markers: u64) -> u64 {
        let mut bits = markers;
        let mut j = Self::LEVELS;
        while j > 0 {
            j -= 1;
            bits = (bits | bits << ((S - 1) << j)) & Self::SPREAD[j];
        }
        bits
    }

    /// The top bit of every lane of the layout whose markers spread to
    /// `layout`: the top bit of each slot whose marker is clear.
    #[inline(always)]
    fn tops(layout: u64) -> u64 {
        (!layout & Self::LOW) << (S - 1)
    }

    /// The lowest bit of every level-`k` block that the layout `union`
    /// merges and the finer layout `own` does not (both spread markers).
    #[inline(always)]
    fn merged_blocks(own: u64, union: u64, k: usize) -> u64 {
        (union & !own & Self::MID[k]) >> ((S << (k - 1)) - S)
    }

    /// Raises word `z`, whose layout spreads to `own`, to the coarser
    /// layout `union`: level by level, every block that `union` merges and
    /// `own` does not becomes one lane holding its halves' sum, or their
    /// maximum if `max` — the value `merge_up` gives it.  Both halves are
    /// already lanes of the level below, and the result fits the block.
    #[inline(always)]
    fn raise(mut z: u64, own: u64, union: u64, max: bool) -> u64 {
        for k in 1..=Self::LEVELS {
            let half = S << (k - 1);
            let starts = Self::merged_blocks(own, union, k);
            let lo = z & Self::LOWER[k];
            let hi = z >> half & Self::LOWER[k];
            let lane = if max {
                // lo ≥ hi iff the guard bit above lo survives lo − hi.
                let ge = ((lo | Self::GUARD[k]) - hi) & Self::GUARD[k];
                let pick_lo = ge - (ge >> half);
                (lo & pick_lo) | (hi & !pick_lo)
            } else {
                lo + hi
            };
            let block = starts.wrapping_mul(u64::MAX >> (64 - 2 * half));
            z = (z & !block) | (lane & block);
        }
        z
    }

    /// Adds `y`'s lanes to `x`'s, where `tops` holds every lane's top bit.
    /// Returns the sum and the top bit of every lane that overflowed.
    #[inline(always)]
    fn add(x: u64, y: u64, tops: u64) -> (u64, u64) {
        let low = (x & !tops) + (y & !tops);
        let sum = low ^ ((x ^ y) & tops);
        (sum, ((x & y) | ((x | y) & !sum)) & tops)
    }

    /// `x − y` in every lane of `layout` (spread markers; `tops` its lanes'
    /// top bits), floored at zero.
    #[inline(always)]
    fn sub_saturating(x: u64, y: u64, layout: u64, tops: u64) -> u64 {
        let diff = ((x | tops) - (y & !tops)) ^ ((x ^ !y) & tops);
        let borrow = ((!x & y) | ((!x | y) & diff)) & tops;
        // Widen each borrowing lane's top bit to its whole field: over its
        // slot, then into the lower half of each block the layout merges.
        let mut floor = borrow | (borrow - (borrow >> (S - 1)));
        for k in 1..=Self::LEVELS {
            let half = S << (k - 1);
            let lower = Self::merged_blocks(0, layout, k).wrapping_mul((1 << half) - 1);
            floor |= floor >> half & lower;
        }
        diff & !floor
    }
}

/// How [`SalsaRow::fold`] combines two rows counter-wise.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Fold {
    /// `self + other`: each union counter takes the sum.
    Union,
    /// `self − other`, floored at zero per counter.
    Difference,
}

/// A logical counter inside a SALSA row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Counter {
    /// First base slot covered by the counter.
    pub start: usize,
    /// Level of the counter (it spans `2^level` base slots).
    pub level: u32,
    /// Current value.
    pub value: u64,
}

/// A SALSA row with the simple 1-bit-per-counter merge encoding.
pub type SimpleSalsaRow = SalsaRow<MergeBitmap>;

/// A SALSA row with the near-optimal (≤0.594 bits/counter) encoding.
pub type CompactSalsaRow = SalsaRow<LayoutCodes>;

/// A row of self-adjusting unsigned counters.
///
/// Generic over the merge encoding `E` (simple merge bits or the compact
/// layout code).  All counter widths are powers of two multiples of the base
/// width, and counters never exceed `max_bits` (64 by default), matching the
/// paper's implementation.
#[derive(Debug, Clone)]
pub struct SalsaRow<E: MergeEncoding = MergeBitmap> {
    storage: BitStorage,
    encoding: E,
    width: usize,
    base_bits: u32,
    max_level: u32,
    merge_op: MergeOp,
    merge_events: u64,
}

impl<E: MergeEncoding> SalsaRow<E> {
    /// Creates a row of `width` counters of `base_bits` bits each, merging
    /// with `merge_op`, with counters allowed to grow up to 64 bits.
    ///
    /// # Panics
    ///
    /// Panics if `width` is not a power of two, or `base_bits` is not one of
    /// 2, 4, 8, 16, 32, 64.
    pub fn new(width: usize, base_bits: u32, merge_op: MergeOp) -> Self {
        Self::with_max_bits(width, base_bits, merge_op, 64)
    }

    /// Like [`SalsaRow::new`] but with an explicit maximum counter size in
    /// bits (a power of two ≥ `base_bits`, at most 64).
    pub fn with_max_bits(width: usize, base_bits: u32, merge_op: MergeOp, max_bits: u32) -> Self {
        assert!(width.is_power_of_two(), "row width must be a power of two");
        assert!(
            matches!(base_bits, 2 | 4 | 8 | 16 | 32 | 64),
            "base counter size must be one of 2, 4, 8, 16, 32, 64 bits"
        );
        assert!(
            max_bits.is_power_of_two() && max_bits >= base_bits && max_bits <= 64,
            "max counter size must be a power of two in [base_bits, 64]"
        );
        let max_level = (max_bits / base_bits).trailing_zeros();
        assert!(
            (1usize << max_level) <= width,
            "row too narrow to ever reach the maximum counter size"
        );
        Self {
            storage: BitStorage::new(width * base_bits as usize),
            encoding: E::for_width(width),
            width,
            base_bits,
            max_level,
            merge_op,
            merge_events: 0,
        }
    }

    /// The merge operation used on overflow.
    #[inline]
    pub fn merge_op(&self) -> MergeOp {
        self.merge_op
    }

    /// Base counter size in bits (`s`).
    #[inline]
    pub fn base_bits(&self) -> u32 {
        self.base_bits
    }

    /// Largest level a counter may reach.
    #[inline]
    pub fn max_level(&self) -> u32 {
        self.max_level
    }

    /// Number of merge events that have occurred so far.
    #[inline]
    pub fn merge_events(&self) -> u64 {
        self.merge_events
    }

    /// Level of the counter containing base slot `idx`.
    #[inline(always)]
    pub fn level_of(&self, idx: usize) -> u32 {
        self.encoding.level_of(idx, self.max_level)
    }

    /// Largest level currently present in the row.
    pub fn current_max_level(&self) -> u32 {
        let mut level = 0;
        let mut idx = 0;
        while idx < self.width {
            let l = self.level_of(idx);
            level = level.max(l);
            idx += 1 << l;
        }
        level
    }

    #[inline(always)]
    fn counter_bits(&self, level: u32) -> u32 {
        self.base_bits << level
    }

    #[inline(always)]
    fn counter_offset(&self, idx: usize, level: u32) -> usize {
        ((idx >> level) << level) * self.base_bits as usize
    }

    #[inline(always)]
    fn read_at_level(&self, idx: usize, level: u32) -> u64 {
        self.storage
            .read_aligned(self.counter_offset(idx, level), self.counter_bits(level))
    }

    #[inline(always)]
    fn write_at_level(&mut self, idx: usize, level: u32, value: u64) {
        self.storage.write_aligned(
            self.counter_offset(idx, level),
            self.counter_bits(level),
            value,
        );
    }

    /// Merges the counter containing `idx` with its sibling, producing a
    /// counter one level larger whose value combines every sub-counter in
    /// the enlarged block under the row's [`MergeOp`].
    fn merge_up(&mut self, idx: usize, level: u32) {
        let new_level = level + 1;
        debug_assert!(new_level <= self.max_level);
        let block_start = (idx >> new_level) << new_level;
        let block_len = 1usize << new_level;

        // Combine the values of every (possibly differently sized) counter
        // currently inside the enlarged block.
        let mut combined: Option<u64> = None;
        let mut i = block_start;
        while i < block_start + block_len {
            let l = self.level_of(i);
            let v = self.read_at_level(i, l);
            combined = Some(match combined {
                None => v,
                Some(acc) => self.merge_op.combine(acc, v),
            });
            i += 1usize << l;
        }
        let combined = combined.unwrap_or(0);

        self.encoding.mark_merged(idx, new_level);
        self.storage.clear_range(
            block_start * self.base_bits as usize,
            block_len * self.base_bits as usize,
        );
        self.write_at_level(idx, new_level, combined);
        self.merge_events += 1;
    }

    /// Iterates over the logical counters of the row.
    pub fn counters(&self) -> impl Iterator<Item = Counter> + '_ {
        let mut idx = 0usize;
        std::iter::from_fn(move || {
            if idx >= self.width {
                return None;
            }
            let level = self.level_of(idx);
            let value = self.read_at_level(idx, level);
            let c = Counter {
                start: idx,
                level,
                value,
            };
            idx += 1usize << level;
            Some(c)
        })
    }

    /// Applies `f` to the value of every logical counter (used by estimator
    /// downsampling, which halves counters probabilistically or
    /// deterministically).
    pub fn map_counters(&mut self, mut f: impl FnMut(u64) -> u64) {
        let mut idx = 0usize;
        while idx < self.width {
            let level = self.level_of(idx);
            let v = self.read_at_level(idx, level);
            let new = f(v);
            debug_assert!(new <= unsigned_capacity(self.counter_bits(level)));
            self.write_at_level(idx, level, new);
            idx += 1usize << level;
        }
    }

    /// Ensures the counter containing `idx` has at least the given level,
    /// merging as needed (used when combining two SALSA sketches that share
    /// hash functions: the union counter must be at least as large as it is
    /// in either operand).
    pub fn force_level_at_least(&mut self, idx: usize, level: u32) {
        let level = level.min(self.max_level);
        while self.level_of(idx) < level {
            let current = self.level_of(idx);
            self.merge_up(idx, current);
        }
    }

    /// Overwrites the counter containing `idx` with `value`, merging first if
    /// the value does not fit the counter's current width.
    pub fn set_value(&mut self, idx: usize, value: u64) {
        loop {
            let level = self.level_of(idx);
            let cap = unsigned_capacity(self.counter_bits(level));
            if value <= cap {
                self.write_at_level(idx, level, value);
                return;
            }
            if level == self.max_level {
                self.write_at_level(idx, level, cap);
                return;
            }
            self.merge_up(idx, level);
        }
    }

    /// Tries to split the counter containing `idx` into its two halves
    /// (Section V, "Should We Split Counters?").
    ///
    /// Splitting is only possible for merged counters whose current value
    /// fits into half the bits, and is only *correct* for max-merge rows
    /// (both halves receive the full value, preserving the over-estimate
    /// guarantee).  Returns `true` if a split happened.
    pub fn try_split(&mut self, idx: usize) -> bool {
        let level = self.level_of(idx);
        if level == 0 || self.merge_op != MergeOp::Max {
            return false;
        }
        let value = self.read_at_level(idx, level);
        let half_bits = self.counter_bits(level - 1);
        if value > unsigned_capacity(half_bits) {
            return false;
        }
        let block_start = (idx >> level) << level;
        let half_len = 1usize << (level - 1);
        self.encoding.unmark_level(idx, level);
        // Both halves keep the (max-merge) value.
        self.write_at_level(block_start, level - 1, value);
        self.write_at_level(block_start + half_len, level - 1, value);
        true
    }

    /// Splits every counter that can be split (see [`SalsaRow::try_split`]).
    /// Returns the number of splits performed.
    pub fn split_all(&mut self) -> usize {
        let mut splits = 0;
        let mut idx = 0usize;
        while idx < self.width {
            let level = self.level_of(idx);
            if self.try_split(idx) {
                splits += 1;
                // Re-examine the same block: it may split further.
                continue;
            }
            idx += 1usize << level;
        }
        splits
    }

    /// The word-local unit adds behind [`Row::add_unit_batch`], for base
    /// counters of `S` bits: `64/S` slots and at most `log₂(64/S)` levels
    /// per storage word, since counters never exceed 64 bits and are
    /// aligned to their own size.
    ///
    /// For each bucket, in stream order: read the merge markers of the
    /// bucket's storage word, take the counter's level from them
    /// branch-free (the AND-chain "the level-`k` marker of the slot is set
    /// for every `k ≤ ℓ`", tested as one mask per level from
    /// [`CHAIN_MASKS`], capped at `max_level`), and bump the counter's bit
    /// field in place unless it is all ones.  A full counter at the
    /// maximum level stays saturated, as [`Row::add`] leaves it.  Stops at
    /// the first full counter below it and returns its bucket's position:
    /// the caller merges it up, as `add` would, and retries the unit.
    /// Storage and encoding are borrowed once per such run of fast adds,
    /// not re-read through `self` per item.
    fn add_units<const S: u32>(&mut self, buckets: &[usize]) -> Option<usize> {
        let slots = (64 / S) as usize;
        let word_levels = slots.trailing_zeros();
        let words = self.storage.words_mut();
        let encoding = &self.encoding;
        for (at, &idx) in buckets.iter().enumerate() {
            let local = idx % slots;
            // 64-bit base counters never merge: no markers to read.
            let markers = if word_levels == 0 {
                0
            } else {
                encoding.word_markers(idx - local, slots)
            };
            let mut level = 0;
            for chain in &CHAIN_MASKS[..word_levels as usize] {
                let needed = u64::from(chain[local]);
                level += u32::from(markers & needed == needed);
            }
            let level = level.min(self.max_level);
            // Tables, not variable shifts: those cost several micro-ops
            // each on x86-64, and this loop is bound by micro-ops.
            let shift = (local & SLOT_ALIGN[level as usize]) as u32 * S;
            let field = ONES[(S.trailing_zeros() + level) as usize] << shift;
            let word = &mut words[idx / slots];
            if *word & field != field {
                // The field's lowest bit: one unit of the counter.
                *word += field & field.wrapping_neg();
            } else if level < self.max_level {
                return Some(at);
            }
        }
        None
    }

    /// Panics unless `other` has this row's shape — width, base width,
    /// maximum level and merge op — as every counter-wise combination and
    /// [`Row::copy_from`] require.
    pub(crate) fn assert_same_shape(&self, other: &Self) {
        assert_eq!(self.width, other.width, "row widths must match");
        assert_eq!(self.base_bits, other.base_bits, "base widths must match");
        assert_eq!(self.max_level, other.max_level, "max levels must match");
        assert_eq!(self.merge_op, other.merge_op, "merge ops must match");
    }

    /// Combines `other` into this row counter-wise, one storage word at a
    /// time: the word-parallel body of `RowMerge::{absorb, subtract}`.
    /// The row ends exactly as the per-counter loop leaves it: for each of
    /// `other`'s counters `c` (skipping zero base counters),
    /// `force_level_at_least(c.start, c.level)`, then `add(c.start,
    /// c.value)` for a union, or `set_value` to the current value minus
    /// `c.value`, floored at zero, for a difference.  Both rows must have
    /// the same shape ([`SalsaRow::assert_same_shape`]).
    ///
    /// Per storage word, with `x`, `y` the two rows' words:
    ///
    /// * **Empty.** A `y` with no merged counter and no count adds nothing.
    /// * **Raise.** The union layout `M` — the OR of both words' markers —
    ///   gives every slot the larger of the two counters holding it.  Each
    ///   operand is raised to `M` in registers, level by level: a block
    ///   that `M` merges and the operand does not becomes one lane holding
    ///   its halves combined — under the row's [`MergeOp`] for `x`, as
    ///   `merge_up` combines, and summed for `y`, whose sub-counters the
    ///   loop adds one by one.  Equal layouts (most words) skip this.
    /// * **Combine.** One broadword add on `M`'s lanes, with the carry cut
    ///   at each lane's top bit, or a lane-wise subtract floored at zero.
    /// * **Commit.** Store the word, mark this row's newly merged counters
    ///   and count the merges: one `merge_up` per level between this row's
    ///   level at a union counter's first slot and the counter's level, as
    ///   `force_level_at_least` makes them.  A union in which some lane
    ///   overflows commits nothing and runs the per-counter loop over that
    ///   word instead: its overflow merges may reach beyond `M`.  A
    ///   difference never overflows.
    pub(crate) fn fold(&mut self, other: &Self, fold: Fold) {
        match self.base_bits {
            2 => self.fold_words::<2>(other, fold),
            4 => self.fold_words::<4>(other, fold),
            8 => self.fold_words::<8>(other, fold),
            16 => self.fold_words::<16>(other, fold),
            32 => self.fold_words::<32>(other, fold),
            _ => self.fold_words::<64>(other, fold),
        }
    }

    /// [`SalsaRow::fold`] for base counters of `S` bits.
    fn fold_words<const S: u32>(&mut self, other: &Self, fold: Fold) {
        let max = self.merge_op == MergeOp::Max;
        for w in 0..self.storage.words().len() {
            let first = w * WordLanes::<S>::SLOTS;
            let y = other.storage.words()[w];
            let my = other.word_layout::<S>(first);
            if y == 0 && my == 0 {
                continue;
            }
            let x = self.storage.words()[w];
            let mx = self.word_layout::<S>(first);
            let own = WordLanes::<S>::spread(mx);
            let (mut xs, mut ys, mut union) = (x, y, own);
            if mx != my {
                let theirs = WordLanes::<S>::spread(my);
                union = own | theirs;
                xs = WordLanes::<S>::raise(x, own, union, max);
                ys = WordLanes::<S>::raise(y, theirs, union, false);
            }
            let tops = WordLanes::<S>::tops(union);
            let word = match fold {
                Fold::Union => {
                    let (sum, overflow) = WordLanes::<S>::add(xs, ys, tops);
                    if overflow != 0 {
                        let end = (first + WordLanes::<S>::SLOTS).min(self.width);
                        self.absorb_counters(other, first, end);
                        continue;
                    }
                    sum
                }
                Fold::Difference => WordLanes::<S>::sub_saturating(xs, ys, union, tops),
            };
            self.storage.words_mut()[w] = word;
            if mx != my {
                self.commit_merges::<S>(first, own, union, tops);
            }
        }
    }

    /// The merge markers of the storage word holding slots `first ..
    /// first + 64/S` (none for 64-bit base counters, which never merge).
    #[inline(always)]
    fn word_layout<const S: u32>(&self, first: usize) -> u64 {
        if WordLanes::<S>::LEVELS == 0 {
            0
        } else {
            self.encoding.word_markers(first, WordLanes::<S>::SLOTS)
        }
    }

    /// Records the merges of a committed word fold at slot `first`, which
    /// raised this row's layout `own` to `union`, whose lanes' top bits
    /// are `tops` (see [`WordLanes`]).  Counts one merge per level per
    /// union counter, at the blocks starting where it starts, and marks
    /// each newly merged counter once, at its own level: the largest
    /// merged block holding it.
    fn commit_merges<const S: u32>(&mut self, first: usize, own: u64, union: u64, tops: u64) {
        // The lowest bit of every union counter: just above each top.
        let starts = tops << 1 | 1;
        let mut covered = 0;
        for k in (1..=WordLanes::<S>::LEVELS).rev() {
            let merged = WordLanes::<S>::merged_blocks(own, union, k);
            self.merge_events += u64::from((merged & starts).count_ones());
            let mut counters = merged & !covered;
            covered |= merged.wrapping_mul(u64::MAX >> (64 - (S << k)));
            while counters != 0 {
                let slot = (counters.trailing_zeros() / S) as usize;
                self.encoding.mark_merged(first + slot, k as u32);
                counters &= counters - 1;
            }
        }
    }

    /// The per-counter union of `other`'s counters in slots `first .. end`
    /// into this row: the fallback of a word whose union overflows.
    fn absorb_counters(&mut self, other: &Self, first: usize, end: usize) {
        let mut idx = first;
        while idx < end {
            let level = other.level_of(idx);
            let value = other.read_at_level(idx, level);
            if value != 0 || level != 0 {
                // The union counter is at least as large as in either
                // operand.
                self.force_level_at_least(idx, level);
                self.add(idx, value);
            }
            idx += 1 << level;
        }
    }
}

impl<E: MergeEncoding> Row for SalsaRow<E> {
    #[inline]
    fn width(&self) -> usize {
        self.width
    }

    #[inline(always)]
    fn read(&self, idx: usize) -> u64 {
        let level = self.level_of(idx);
        self.read_at_level(idx, level)
    }

    // Weighted per-item updates (`CountMin::update`) and the word fold's
    // overflow fallback call this; batched unit ingest (`update_batch`)
    // takes `add_unit_batch` and never reaches it.
    #[inline]
    fn add(&mut self, idx: usize, value: u64) {
        if value == 0 {
            return;
        }
        loop {
            let level = self.level_of(idx);
            let bits = self.counter_bits(level);
            let cur = self.read_at_level(idx, level);
            let cap = unsigned_capacity(bits);
            if value <= cap - cur.min(cap) {
                self.write_at_level(idx, level, cur + value);
                return;
            }
            if level == self.max_level {
                // The counting range is exhausted; saturate (with 64-bit
                // counters this never happens in practice).
                self.write_at_level(idx, level, cap);
                return;
            }
            self.merge_up(idx, level);
        }
    }

    fn raise_to(&mut self, idx: usize, target: u64) {
        loop {
            let level = self.level_of(idx);
            let bits = self.counter_bits(level);
            let cur = self.read_at_level(idx, level);
            if cur >= target {
                return;
            }
            let cap = unsigned_capacity(bits);
            if target <= cap {
                self.write_at_level(idx, level, target);
                return;
            }
            if level == self.max_level {
                self.write_at_level(idx, level, cap);
                return;
            }
            self.merge_up(idx, level);
        }
    }

    /// Word-local unit adds (`SalsaRow::add_units`).  A counter that
    /// overflows takes `add`'s own overflow step, `merge_up`, and the unit
    /// is retried on the merged counter, which has room for it: the row
    /// ends exactly as after `add(b, 1)` per bucket.  The retry re-enters
    /// the word-local loop, so a unit never runs `add`'s general path.
    /// The base width is matched once per run of fast adds, not per item.
    fn add_unit_batch(&mut self, buckets: &[usize]) {
        let mut rest = buckets;
        loop {
            let overflow = match self.base_bits {
                2 => self.add_units::<2>(rest),
                4 => self.add_units::<4>(rest),
                8 => self.add_units::<8>(rest),
                16 => self.add_units::<16>(rest),
                32 => self.add_units::<32>(rest),
                _ => self.add_units::<64>(rest),
            };
            let Some(at) = overflow else {
                return;
            };
            let idx = rest[at];
            self.merge_up(idx, self.level_of(idx));
            rest = &rest[at..];
        }
    }

    fn size_bytes(&self) -> usize {
        (self.width * self.base_bits as usize + E::overhead_bits(self.width)).div_ceil(8)
    }

    fn estimated_zero_base_slots(&self) -> f64 {
        // Paper heuristic: let f be the fraction of *unmerged* base counters
        // that are zero; each merged counter spanning 2^ℓ slots contributes
        // f · (2^ℓ − 1) presumed-zero sub-slots.
        let mut unmerged = 0usize;
        let mut unmerged_zero = 0usize;
        let mut merged_hidden_slots = 0usize;
        for c in self.counters() {
            if c.level == 0 {
                unmerged += 1;
                if c.value == 0 {
                    unmerged_zero += 1;
                }
            } else {
                merged_hidden_slots += (1usize << c.level) - 1;
            }
        }
        if unmerged == 0 {
            return 0.0;
        }
        let f = unmerged_zero as f64 / unmerged as f64;
        unmerged_zero as f64 + f * merged_hidden_slots as f64
    }

    fn copy_from(&mut self, src: &Self) {
        self.assert_same_shape(src);
        self.storage.copy_from(&src.storage);
        self.encoding.copy_from(&src.encoding);
        self.merge_events = src.merge_events;
    }

    fn reset(&mut self) {
        self.storage.clear();
        self.encoding.reset();
        self.merge_events = 0;
    }
}

/// A row of self-adjusting **signed** counters in sign-magnitude
/// representation, for the SALSA Count Sketch.
///
/// A counter of `b` bits stores a sign bit and a `b − 1`-bit magnitude, so it
/// overflows when its absolute value would exceed `2^(b−1) − 1`; the overflow
/// event is therefore symmetric in the sign of the value, which is what keeps
/// the SALSA Count Sketch unbiased (Lemma V.4).  Merging always sums the
/// signed values (max-merge is not meaningful for signed noise).
#[derive(Debug, Clone)]
pub struct SalsaSignedRow<E: MergeEncoding = MergeBitmap> {
    storage: BitStorage,
    encoding: E,
    width: usize,
    base_bits: u32,
    max_level: u32,
    merge_events: u64,
}

/// Sign-magnitude SALSA row with the simple encoding.
pub type SimpleSalsaSignedRow = SalsaSignedRow<MergeBitmap>;

/// Sign-magnitude SALSA row with the compact encoding.
pub type CompactSalsaSignedRow = SalsaSignedRow<LayoutCodes>;

#[inline(always)]
fn encode_sign_magnitude(value: i64, bits: u32) -> u64 {
    let magnitude = value.unsigned_abs();
    debug_assert!(magnitude <= signed_magnitude_capacity(bits));
    let sign = u64::from(value < 0) << (bits - 1);
    sign | magnitude
}

#[inline(always)]
fn decode_sign_magnitude(raw: u64, bits: u32) -> i64 {
    let magnitude = (raw & signed_magnitude_capacity(bits)) as i64;
    if raw >> (bits - 1) & 1 == 1 {
        -magnitude
    } else {
        magnitude
    }
}

impl<E: MergeEncoding> SalsaSignedRow<E> {
    /// Creates a signed row of `width` counters of `base_bits` bits each,
    /// growing up to 64 bits.
    pub fn new(width: usize, base_bits: u32) -> Self {
        Self::with_max_bits(width, base_bits, 64)
    }

    /// Like [`SalsaSignedRow::new`] with an explicit maximum counter width.
    pub fn with_max_bits(width: usize, base_bits: u32, max_bits: u32) -> Self {
        assert!(width.is_power_of_two(), "row width must be a power of two");
        assert!(
            matches!(base_bits, 2 | 4 | 8 | 16 | 32 | 64),
            "base counter size must be one of 2, 4, 8, 16, 32, 64 bits"
        );
        assert!(
            max_bits.is_power_of_two() && max_bits >= base_bits && max_bits <= 64,
            "max counter size must be a power of two in [base_bits, 64]"
        );
        let max_level = (max_bits / base_bits).trailing_zeros();
        assert!((1usize << max_level) <= width);
        Self {
            storage: BitStorage::new(width * base_bits as usize),
            encoding: E::for_width(width),
            width,
            base_bits,
            max_level,
            merge_events: 0,
        }
    }

    /// Base counter size in bits (`s`).
    #[inline]
    pub fn base_bits(&self) -> u32 {
        self.base_bits
    }

    /// Number of merge events that have occurred so far.
    #[inline]
    pub fn merge_events(&self) -> u64 {
        self.merge_events
    }

    /// Level of the counter containing base slot `idx`.
    #[inline(always)]
    pub fn level_of(&self, idx: usize) -> u32 {
        self.encoding.level_of(idx, self.max_level)
    }

    #[inline(always)]
    fn counter_bits(&self, level: u32) -> u32 {
        self.base_bits << level
    }

    #[inline(always)]
    fn counter_offset(&self, idx: usize, level: u32) -> usize {
        ((idx >> level) << level) * self.base_bits as usize
    }

    #[inline(always)]
    fn read_at_level(&self, idx: usize, level: u32) -> i64 {
        let bits = self.counter_bits(level);
        decode_sign_magnitude(
            self.storage
                .read_aligned(self.counter_offset(idx, level), bits),
            bits,
        )
    }

    #[inline(always)]
    fn write_at_level(&mut self, idx: usize, level: u32, value: i64) {
        let bits = self.counter_bits(level);
        self.storage.write_aligned(
            self.counter_offset(idx, level),
            bits,
            encode_sign_magnitude(value, bits),
        );
    }

    fn merge_up(&mut self, idx: usize, level: u32) {
        let new_level = level + 1;
        debug_assert!(new_level <= self.max_level);
        let block_start = (idx >> new_level) << new_level;
        let block_len = 1usize << new_level;
        let mut sum: i64 = 0;
        let mut i = block_start;
        while i < block_start + block_len {
            let l = self.level_of(i);
            sum = sum.saturating_add(self.read_at_level(i, l));
            i += 1usize << l;
        }
        self.encoding.mark_merged(idx, new_level);
        self.storage.clear_range(
            block_start * self.base_bits as usize,
            block_len * self.base_bits as usize,
        );
        self.write_at_level(idx, new_level, sum);
        self.merge_events += 1;
    }

    /// Ensures the counter containing `idx` has at least the given level,
    /// merging as needed.
    pub fn force_level_at_least(&mut self, idx: usize, level: u32) {
        let level = level.min(self.max_level);
        while self.level_of(idx) < level {
            let current = self.level_of(idx);
            self.merge_up(idx, current);
        }
    }

    /// Panics unless `other` has this row's shape — width, base width and
    /// maximum level — as every counter-wise combination and
    /// [`SignedRow::copy_from`] require.
    pub(crate) fn assert_same_shape(&self, other: &Self) {
        assert_eq!(self.width, other.width, "row widths must match");
        assert_eq!(self.base_bits, other.base_bits, "base widths must match");
        assert_eq!(self.max_level, other.max_level, "max levels must match");
    }

    /// Overwrites the counter containing `idx` with `value`, merging first if
    /// the magnitude does not fit the counter's current width.
    pub fn set_value(&mut self, idx: usize, value: i64) {
        loop {
            let level = self.level_of(idx);
            let cap = signed_magnitude_capacity(self.counter_bits(level)) as i64;
            if value.unsigned_abs() <= cap as u64 {
                self.write_at_level(idx, level, value);
                return;
            }
            if level == self.max_level {
                self.write_at_level(idx, level, if value < 0 { -cap } else { cap });
                return;
            }
            self.merge_up(idx, level);
        }
    }

    /// Iterates over the logical counters of the row as `(start, level,
    /// signed value)` triples.
    pub fn counters(&self) -> impl Iterator<Item = (usize, u32, i64)> + '_ {
        let mut idx = 0usize;
        std::iter::from_fn(move || {
            if idx >= self.width {
                return None;
            }
            let level = self.level_of(idx);
            let value = self.read_at_level(idx, level);
            let out = (idx, level, value);
            idx += 1usize << level;
            Some(out)
        })
    }
}

impl<E: MergeEncoding> SignedRow for SalsaSignedRow<E> {
    #[inline]
    fn width(&self) -> usize {
        self.width
    }

    #[inline(always)]
    fn read(&self, idx: usize) -> i64 {
        let level = self.level_of(idx);
        self.read_at_level(idx, level)
    }

    fn add(&mut self, idx: usize, value: i64) {
        if value == 0 {
            return;
        }
        loop {
            let level = self.level_of(idx);
            let bits = self.counter_bits(level);
            let cur = self.read_at_level(idx, level);
            let new = cur.saturating_add(value);
            let cap = signed_magnitude_capacity(bits) as i64;
            if new.unsigned_abs() <= cap as u64 {
                self.write_at_level(idx, level, new);
                return;
            }
            if level == self.max_level {
                self.write_at_level(idx, level, if new < 0 { -cap } else { cap });
                return;
            }
            self.merge_up(idx, level);
        }
    }

    fn size_bytes(&self) -> usize {
        (self.width * self.base_bits as usize + E::overhead_bits(self.width)).div_ceil(8)
    }

    fn copy_from(&mut self, src: &Self) {
        self.assert_same_shape(src);
        self.storage.copy_from(&src.storage);
        self.encoding.copy_from(&src.encoding);
        self.merge_events = src.merge_events;
    }

    fn reset(&mut self) {
        self.storage.clear();
        self.encoding.reset();
        self.merge_events = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn simple(width: usize, bits: u32, op: MergeOp) -> SimpleSalsaRow {
        SalsaRow::<MergeBitmap>::new(width, bits, op)
    }

    #[test]
    fn small_values_behave_like_plain_counters() {
        let mut row = simple(64, 8, MergeOp::Sum);
        for i in 0..64 {
            row.add(i, (i as u64) % 200);
        }
        for i in 0..64 {
            assert_eq!(row.read(i), (i as u64) % 200);
        }
        assert_eq!(row.merge_events(), 0);
    }

    #[test]
    fn overflow_triggers_sum_merge() {
        let mut row = simple(8, 8, MergeOp::Sum);
        row.add(6, 200);
        row.add(7, 100);
        // Counter 6 overflows (200 + 100 > 255) and right-merges with 7.
        row.add(6, 100);
        assert_eq!(row.level_of(6), 1);
        assert_eq!(row.level_of(7), 1);
        // Sum merge: 200 + 100 (from 7) + the new 100.
        assert_eq!(row.read(6), 400);
        assert_eq!(row.read(7), 400);
        assert_eq!(row.merge_events(), 1);
    }

    #[test]
    fn overflow_triggers_max_merge() {
        let mut row = simple(8, 8, MergeOp::Max);
        row.add(6, 200);
        row.add(7, 100);
        row.add(6, 100);
        // Max merge keeps max(200, 100) = 200, then adds the pending 100.
        assert_eq!(row.read(6), 300);
        assert_eq!(row.read(7), 300);
    }

    #[test]
    fn paper_figure_2a_sum_merge_example() {
        // Fig. 2a: values [0,255,3,0,65533(16b at 4..5),95,11], update ⟨y,5⟩
        // at slot 5 overflows ⟨4,5⟩ into ⟨4..7⟩ with sum 65533+95+11+5=65644?
        // The figure shows 65664 after adding 5 to the merged 65533+95+11 —
        // the exact printed constant in the figure includes the update and
        // its neighbors; we verify the mechanism rather than the figure's
        // arithmetic: after the merge all of ⟨4..7⟩ is one counter whose
        // value is the sum of the previous counters plus the update.
        let mut row = simple(8, 8, MergeOp::Sum);
        row.add(1, 255);
        row.add(2, 3);
        // Make ⟨4,5⟩ a 16-bit counter holding 65533.
        row.add(4, 255);
        row.add(4, 255); // overflow → merge ⟨4,5⟩
        assert_eq!(row.level_of(4), 1);
        row.raise_to(4, 65533);
        row.add(6, 95);
        row.add(7, 11);
        // ⟨x,3⟩ at slot 1: 255 + 3 overflows → ⟨0,1⟩ merges (sum 0 + 255 + 3).
        row.add(1, 3);
        assert_eq!(row.level_of(0), 1);
        assert_eq!(row.read(1), 258);
        // ⟨y,5⟩ at slot 5: 65533 + 5 overflows the 16-bit counter → ⟨4..7⟩.
        row.add(5, 5);
        assert_eq!(row.level_of(5), 2);
        assert_eq!(row.read(5), 65533 + 95 + 11 + 5);
        assert_eq!(row.read(4), row.read(7));
    }

    #[test]
    fn paper_figure_2b_max_merge_example() {
        let mut row = simple(8, 8, MergeOp::Max);
        row.add(4, 255);
        row.add(4, 255);
        row.raise_to(4, 65533);
        row.add(6, 95);
        row.add(7, 11);
        row.add(5, 5);
        // Max merge: max(65533, 95, 11) + 5 = 65538 (as in Fig. 2b).
        assert_eq!(row.read(5), 65538);
        assert_eq!(row.level_of(5), 2);
    }

    #[test]
    fn counters_grow_to_sixty_four_bits() {
        let mut row = simple(8, 8, MergeOp::Sum);
        // Push one counter past every threshold.
        row.add(0, u32::MAX as u64);
        assert!(row.level_of(0) >= 2);
        row.add(0, u32::MAX as u64);
        row.add(0, u64::MAX / 4);
        assert_eq!(row.level_of(0), 3);
        assert!(row.read(0) > u64::MAX / 4);
    }

    #[test]
    fn saturates_at_max_level() {
        let mut row = SalsaRow::<MergeBitmap>::with_max_bits(8, 8, MergeOp::Sum, 16);
        row.add(0, 60_000);
        row.add(0, 10_000);
        // 16-bit cap: saturate rather than merge beyond max_bits.
        assert_eq!(row.read(0), u16::MAX as u64);
        assert_eq!(row.level_of(0), 1);
    }

    #[test]
    fn raise_to_only_increases() {
        let mut row = simple(16, 8, MergeOp::Max);
        row.raise_to(3, 100);
        assert_eq!(row.read(3), 100);
        row.raise_to(3, 50);
        assert_eq!(row.read(3), 100);
        row.raise_to(3, 300);
        assert_eq!(row.read(3), 300);
        assert_eq!(row.level_of(3), 1);
    }

    #[test]
    fn read_of_any_slot_in_merged_block_agrees() {
        let mut row = simple(16, 8, MergeOp::Sum);
        row.add(9, 300); // merges ⟨8,9⟩
        for i in 8..10 {
            assert_eq!(row.read(i), 300);
        }
        row.add(9, 70_000); // merges ⟨8..11⟩
        for i in 8..12 {
            assert_eq!(row.read(i), 70_300);
        }
    }

    #[test]
    fn size_accounting_includes_overhead() {
        let row = simple(1024, 8, MergeOp::Max);
        // 1024 counters × 8 bits + 1024 merge bits = 1024 + 128 bytes.
        assert_eq!(row.size_bytes(), 1024 + 128);
        let compact = SalsaRow::<LayoutCodes>::new(1024, 8, MergeOp::Max);
        assert_eq!(
            compact.size_bytes(),
            1024 + (1024usize / 32 * 19).div_ceil(8)
        );
        assert!(compact.size_bytes() < row.size_bytes());
    }

    #[test]
    fn compact_and_simple_rows_agree() {
        let mut simple_row = SalsaRow::<MergeBitmap>::new(64, 8, MergeOp::Sum);
        let mut compact_row = SalsaRow::<LayoutCodes>::new(64, 8, MergeOp::Sum);
        // A deterministic pseudo-random update sequence with many overflows.
        let mut state = 0x12345678u64;
        for _ in 0..5_000 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let idx = (state >> 33) as usize % 64;
            let val = (state >> 17) & 0xFF;
            simple_row.add(idx, val);
            compact_row.add(idx, val);
        }
        for i in 0..64 {
            assert_eq!(simple_row.read(i), compact_row.read(i), "slot {i}");
            assert_eq!(simple_row.level_of(i), compact_row.level_of(i), "slot {i}");
        }
    }

    #[test]
    fn map_counters_halves_values() {
        let mut row = simple(16, 8, MergeOp::Max);
        row.add(0, 200);
        row.add(5, 77);
        row.add(9, 1000);
        row.map_counters(|v| v / 2);
        assert_eq!(row.read(0), 100);
        assert_eq!(row.read(5), 38);
        assert_eq!(row.read(9), 500);
    }

    #[test]
    fn split_restores_small_counters() {
        let mut row = simple(16, 8, MergeOp::Max);
        row.add(4, 300); // merged to 16 bits
        assert_eq!(row.level_of(4), 1);
        // Value too large to split back into 8 bits.
        assert!(!row.try_split(4));
        row.map_counters(|v| v / 4); // now 75, fits in 8 bits
        assert!(row.try_split(4));
        assert_eq!(row.level_of(4), 0);
        assert_eq!(row.read(4), 75);
        assert_eq!(row.read(5), 75);
    }

    #[test]
    fn split_is_rejected_for_sum_merge() {
        let mut row = simple(16, 8, MergeOp::Sum);
        row.add(4, 300);
        row.map_counters(|v| v / 4);
        assert!(
            !row.try_split(4),
            "splitting is only sound for max-merge rows"
        );
    }

    #[test]
    fn zero_slot_estimate_exact_when_unmerged() {
        let mut row = simple(64, 8, MergeOp::Max);
        for i in 0..32 {
            row.add(i, 1);
        }
        assert!((row.estimated_zero_base_slots() - 32.0).abs() < 1e-9);
    }

    #[test]
    fn zero_slot_estimate_uses_heuristic_for_merged() {
        let mut row = simple(64, 8, MergeOp::Max);
        // Merge one pair; leave half of the unmerged slots zero.
        row.add(0, 300); // ⟨0,1⟩ merged
        for i in 2..33 {
            row.add(i, 1);
        }
        // 62 unmerged slots, 31 zero → f = 0.5; one merged counter hides 1
        // sub-slot → estimate 31 + 0.5.
        assert!((row.estimated_zero_base_slots() - 31.5).abs() < 1e-9);
    }

    #[test]
    fn reset_clears_everything() {
        let mut row = simple(32, 8, MergeOp::Sum);
        row.add(3, 1_000_000);
        row.reset();
        for i in 0..32 {
            assert_eq!(row.read(i), 0);
            assert_eq!(row.level_of(i), 0);
        }
        assert_eq!(row.merge_events(), 0);
    }

    // ---- signed rows -------------------------------------------------

    #[test]
    fn signed_row_basic_roundtrip() {
        let mut row = SimpleSalsaSignedRow::new(16, 8);
        row.add(0, 100);
        row.add(1, -100);
        assert_eq!(row.read(0), 100);
        assert_eq!(row.read(1), -100);
    }

    #[test]
    fn signed_overflow_is_symmetric() {
        let mut pos = SimpleSalsaSignedRow::new(8, 8);
        let mut neg = SimpleSalsaSignedRow::new(8, 8);
        pos.add(2, 100);
        pos.add(2, 100); // |200| > 127 → merge
        neg.add(2, -100);
        neg.add(2, -100);
        assert_eq!(pos.level_of(2), neg.level_of(2));
        assert_eq!(pos.read(2), 200);
        assert_eq!(neg.read(2), -200);
    }

    #[test]
    fn signed_merge_sums_mixed_signs() {
        let mut row = SimpleSalsaSignedRow::new(8, 8);
        row.add(2, 120);
        row.add(3, -50);
        row.add(2, 50); // overflow of slot 2 → merge ⟨2,3⟩ sums 170 - 50
        assert_eq!(row.level_of(2), 1);
        assert_eq!(row.read(2), 120 + 50 - 50);
        assert_eq!(row.read(3), row.read(2));
    }

    #[test]
    fn signed_row_counts_down_to_negative() {
        let mut row = SimpleSalsaSignedRow::new(8, 8);
        for _ in 0..300 {
            row.add(5, -1);
        }
        assert_eq!(row.read(5), -300);
        assert!(row.level_of(5) >= 1);
    }

    #[test]
    fn sign_magnitude_encoding_roundtrip() {
        for bits in [8u32, 16, 32, 64] {
            let cap = signed_magnitude_capacity(bits) as i64;
            for v in [0i64, 1, -1, 17, -17, cap, -cap] {
                assert_eq!(
                    decode_sign_magnitude(encode_sign_magnitude(v, bits), bits),
                    v
                );
            }
        }
    }

    #[test]
    fn signed_size_accounting() {
        let row = SimpleSalsaSignedRow::new(512, 8);
        assert_eq!(row.size_bytes(), 512 + 64);
    }
}
