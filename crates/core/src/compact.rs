//! The near-optimal SALSA layout encoding (Appendix A of the paper).
//!
//! For a block of `2^n` base counters the number of possible merge layouts is
//! `a_n`, where `a_0 = 1` and `a_n = a_{n−1}² + 1` (either the whole block is
//! one merged counter, or each half lays out independently).  Encoding the
//! layout of a 32-counter block as a number `X₅ < a₅ = 458 330` takes
//! `⌈log₂ a₅⌉ = 19` bits — at most `19/32 < 0.594` bits per counter, compared
//! to 1 bit per counter for the simple encoding and a `log₂ 1.5 ≈ 0.585`
//! lower bound.
//!
//! The number is a mixed-radix code: `X_n = a_n − 1` means "the whole `2^n`
//! block is one counter"; otherwise `X_{n−1} = ⌊X_n / a_{n−1}⌋` encodes the
//! layout of the first half and `X'_{n−1} = X_n mod a_{n−1}` the second half.
//! Decoding the level of one counter walks down this recursion (Fig. 18 of
//! the paper); re-encoding after a merge touches a single block.

use crate::encoding::MergeEncoding;

/// Block size exponent: blocks of `2^5 = 32` base counters.
pub const BLOCK_EXP: u32 = 5;
/// Base counters per layout block.
pub const BLOCK: usize = 1 << BLOCK_EXP;
/// Bits needed per block code (`⌈log₂ a₅⌉`).
pub const CODE_BITS: usize = 19;

/// `a_n` for `n = 0..=5`: the number of merge layouts of a `2^n`-counter
/// block.
pub const LAYOUT_COUNTS: [u64; 6] = [1, 2, 5, 26, 677, 458_330];

/// Where each block size's entries start in [`MARKER_TABLE`]: the entry of
/// layout code `x` of a `2^n`-slot block is `MARKER_TABLE[MARKER_OFFSETS[n] + x]`.
const MARKER_OFFSETS: [usize; 5] = [0, 1, 3, 8, 34];

/// The simple encoding's marker bits (see [`MergeEncoding::word_markers`])
/// of every layout code of a `2^n`-slot block, for `n = 0..=4`: 1 + 2 + 5 +
/// 26 + 677 entries.  A 32-slot block is looked up as its two halves.
const MARKER_TABLE: [u16; 711] = marker_table();

/// Marker bits of one merged `2^n`-slot counter: every slot but its last.
const fn merged_markers(n: u32) -> u64 {
    (1u64 << ((1u32 << n) - 1)) - 1
}

const fn marker_table() -> [u16; 711] {
    let mut table = [0u16; 711];
    let mut n = 1;
    while n < BLOCK_EXP as usize {
        let radix = LAYOUT_COUNTS[n - 1];
        let mut code = 0;
        while code < LAYOUT_COUNTS[n] {
            table[MARKER_OFFSETS[n] + code as usize] = if code == LAYOUT_COUNTS[n] - 1 {
                merged_markers(n as u32) as u16
            } else {
                let first = table[MARKER_OFFSETS[n - 1] + (code / radix) as usize];
                let second = table[MARKER_OFFSETS[n - 1] + (code % radix) as usize];
                first | second << (1 << (n - 1))
            };
            code += 1;
        }
        n += 1;
    }
    table
}

/// The per-block layout codes of a row (the near-optimal encoding).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LayoutCodes {
    codes: Vec<u32>,
}

impl LayoutCodes {
    /// Decodes the layout code of one block into a per-slot level array
    /// (`levels[i]` = level of the merged counter containing local slot `i`).
    pub fn decode_block(code: u32) -> [u8; BLOCK] {
        let mut levels = [0u8; BLOCK];
        Self::decode_rec(code as u64, BLOCK_EXP, 0, &mut levels);
        levels
    }

    fn decode_rec(code: u64, n: u32, start: usize, levels: &mut [u8; BLOCK]) {
        debug_assert!(code < LAYOUT_COUNTS[n as usize]);
        if n == 0 {
            levels[start] = 0;
            return;
        }
        if code == LAYOUT_COUNTS[n as usize] - 1 {
            for slot in levels.iter_mut().skip(start).take(1 << n) {
                *slot = n as u8;
            }
            return;
        }
        let radix = LAYOUT_COUNTS[(n - 1) as usize];
        Self::decode_rec(code / radix, n - 1, start, levels);
        Self::decode_rec(code % radix, n - 1, start + (1 << (n - 1)), levels);
    }

    /// Encodes a per-slot level array back into a layout code.
    ///
    /// The array must be *consistent*: every level-`ℓ` counter covers a full
    /// aligned `2^ℓ` block whose slots all carry level `ℓ`.
    pub fn encode_block(levels: &[u8; BLOCK]) -> u32 {
        Self::encode_rec(levels, BLOCK_EXP, 0) as u32
    }

    fn encode_rec(levels: &[u8; BLOCK], n: u32, start: usize) -> u64 {
        if n == 0 {
            return 0;
        }
        if levels[start] as u32 >= n {
            debug_assert!(
                (start..start + (1 << n)).all(|i| levels[i] as u32 >= n),
                "inconsistent level array"
            );
            return LAYOUT_COUNTS[n as usize] - 1;
        }
        let radix = LAYOUT_COUNTS[(n - 1) as usize];
        Self::encode_rec(levels, n - 1, start) * radix
            + Self::encode_rec(levels, n - 1, start + (1 << (n - 1)))
    }

    /// [`MergeEncoding::word_markers`] for the `2^K` slots from `first`:
    /// walks the block code down to the code of the `2^K`-slot sub-block
    /// (one div/mod per level, by constants) and looks its markers up.
    #[inline(always)]
    fn sub_block_markers<const K: u32>(&self, first: usize) -> u64 {
        let mut code = self.codes[first / BLOCK];
        if K == BLOCK_EXP {
            if code as u64 == LAYOUT_COUNTS[5] - 1 {
                return merged_markers(BLOCK_EXP);
            }
            let radix = LAYOUT_COUNTS[4] as u32;
            let half = |code: u32| MARKER_TABLE[MARKER_OFFSETS[4] + code as usize] as u64;
            return half(code / radix) | half(code % radix) << (BLOCK / 2);
        }
        let local = first % BLOCK;
        let mut n = BLOCK_EXP;
        while n > K {
            if code as u64 == LAYOUT_COUNTS[n as usize] - 1 {
                // The slots lie inside one merged 2^n-slot counter: all of
                // them are markers except that counter's last slot.
                let slots = 1usize << K;
                let all = (1u64 << slots) - 1;
                let holds_last = (local + slots).is_multiple_of(1 << n);
                return all >> u32::from(holds_last);
            }
            let radix = LAYOUT_COUNTS[(n - 1) as usize] as u32;
            // Which half holds the slots depends on the item: a branch
            // here would mispredict half the time.
            let second_half = local & (1 << (n - 1)) != 0;
            code = std::hint::select_unpredictable(second_half, code % radix, code / radix);
            n -= 1;
        }
        MARKER_TABLE[MARKER_OFFSETS[K as usize] + code as usize] as u64
    }
}

impl MergeEncoding for LayoutCodes {
    fn for_width(width: usize) -> Self {
        assert!(
            width.is_multiple_of(BLOCK),
            "compact encoding requires the row width to be a multiple of {BLOCK}, got {width}"
        );
        Self {
            // ALLOC-OK: the constructor sizes the codes once; `reset` and
            // `copy_from` reuse them.
            codes: vec![0u32; width / BLOCK],
        }
    }

    fn level_of(&self, idx: usize, max_level: u32) -> u32 {
        let mut code = self.codes[idx / BLOCK] as u64;
        let local = idx % BLOCK;
        let mut n = BLOCK_EXP;
        let mut start = 0usize;
        loop {
            if code == LAYOUT_COUNTS[n as usize] - 1 {
                return n.min(max_level);
            }
            if n == 0 {
                return 0;
            }
            let radix = LAYOUT_COUNTS[(n - 1) as usize];
            let half = 1usize << (n - 1);
            if local - start < half {
                code /= radix;
            } else {
                code %= radix;
                start += half;
            }
            n -= 1;
        }
    }

    /// Decodes the slots' block code once: walks it down to the sub-code
    /// of their `count`-slot sub-block — for `s = 8`, `X₅` to `X₃ < 26`
    /// by two div/mods — then reads a table.
    #[inline(always)]
    fn word_markers(&self, first: usize, count: usize) -> u64 {
        debug_assert!(count.is_power_of_two() && (2..=BLOCK).contains(&count));
        debug_assert!(first.is_multiple_of(count));
        match count.trailing_zeros() {
            1 => self.sub_block_markers::<1>(first),
            2 => self.sub_block_markers::<2>(first),
            3 => self.sub_block_markers::<3>(first),
            4 => self.sub_block_markers::<4>(first),
            _ => self.sub_block_markers::<5>(first),
        }
    }

    fn mark_merged(&mut self, idx: usize, level: u32) {
        debug_assert!(level <= BLOCK_EXP);
        let block = idx / BLOCK;
        let local = idx % BLOCK;
        let mut levels = Self::decode_block(self.codes[block]);
        let start = (local >> level) << level;
        for slot in levels.iter_mut().skip(start).take(1 << level) {
            *slot = level as u8;
        }
        self.codes[block] = Self::encode_block(&levels);
    }

    fn unmark_level(&mut self, idx: usize, level: u32) {
        debug_assert!((1..=BLOCK_EXP).contains(&level));
        let block = idx / BLOCK;
        let local = idx % BLOCK;
        let mut levels = Self::decode_block(self.codes[block]);
        let start = (local >> level) << level;
        for slot in levels.iter_mut().skip(start).take(1 << level) {
            *slot = (level - 1) as u8;
        }
        self.codes[block] = Self::encode_block(&levels);
    }

    fn overhead_bits(width: usize) -> usize {
        width.div_ceil(BLOCK) * CODE_BITS
    }

    fn copy_from(&mut self, src: &Self) {
        assert_eq!(
            self.codes.len(),
            src.codes.len(),
            "layout code counts must match"
        );
        self.codes.copy_from_slice(&src.codes);
    }

    fn reset(&mut self) {
        self.codes.fill(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_counts_follow_the_recurrence() {
        for n in 1..=5 {
            assert_eq!(
                LAYOUT_COUNTS[n],
                LAYOUT_COUNTS[n - 1] * LAYOUT_COUNTS[n - 1] + 1
            );
        }
        // The paper: z5 = ⌈log2 a5⌉ = 19 bits for 32 counters.
        assert!(LAYOUT_COUNTS[5] <= 1 << CODE_BITS);
        assert!(LAYOUT_COUNTS[5] > 1 << (CODE_BITS - 1));
    }

    #[test]
    fn overhead_is_below_0_594_bits_per_counter() {
        let per_counter = LayoutCodes::overhead_bits(1 << 20) as f64 / (1 << 20) as f64;
        assert!(per_counter < 0.594, "overhead {per_counter} bits/counter");
    }

    #[test]
    fn encode_decode_roundtrip_exhaustively_small() {
        // Every valid code for a 32-counter block must round-trip.
        // Exhaustive over all a5 = 458330 codes is fast enough in release but
        // slow in debug; sample a stride instead.
        for code in (0..LAYOUT_COUNTS[5] as u32).step_by(97) {
            let levels = LayoutCodes::decode_block(code);
            assert_eq!(LayoutCodes::encode_block(&levels), code);
        }
        // And the two extremes.
        let all_zero = LayoutCodes::decode_block(0);
        assert!(all_zero.iter().all(|&l| l == 0));
        let all_merged = LayoutCodes::decode_block((LAYOUT_COUNTS[5] - 1) as u32);
        assert!(all_merged.iter().all(|&l| l == 5));
    }

    #[test]
    fn matches_simple_encoding_semantics() {
        use crate::bitmap::MergeBitmap;
        let mut compact = LayoutCodes::for_width(64);
        let mut simple = MergeBitmap::for_width(64);
        let ops = [
            (6usize, 1u32),
            (6, 2),
            (40, 1),
            (40, 2),
            (40, 3),
            (0, 1),
            (6, 3),
        ];
        for &(idx, level) in &ops {
            compact.mark_merged(idx, level);
            simple.mark_merged(idx, level);
            for i in 0..64 {
                assert_eq!(
                    compact.level_of(i, 3),
                    simple.level_of(i, 3),
                    "divergence at index {i} after merging idx {idx} to level {level}"
                );
            }
        }
    }

    #[test]
    fn unmark_splits_blocks() {
        let mut enc = LayoutCodes::for_width(32);
        enc.mark_merged(8, 2);
        assert_eq!(enc.level_of(9, 5), 2);
        enc.unmark_level(8, 2);
        assert_eq!(enc.level_of(8, 5), 1);
        assert_eq!(enc.level_of(10, 5), 1);
    }

    #[test]
    fn paper_figure_18_example() {
        // Fig. 18: X5 = 449527 encodes a layout where counter 9 is merged
        // with 8 (a 2-slot counter) and counters 0–15 are not all merged.
        let levels = LayoutCodes::decode_block(449_527);
        assert_eq!(
            levels[9], 1,
            "counter 9 should be in a level-1 (2-slot) counter"
        );
        assert_eq!(levels[8], 1);
        // The walk in the figure: X4 = 663, X'3 = 13, X2 = 2, X1 = 1 = a1 - 1.
        assert_eq!(449_527 / LAYOUT_COUNTS[4], 663);
        assert_eq!(663 % LAYOUT_COUNTS[3], 13);
        assert_eq!(13 / LAYOUT_COUNTS[2], 2);
        assert_eq!(2 / LAYOUT_COUNTS[1], 1);
    }

    #[test]
    fn marker_table_matches_the_decoded_levels() {
        for n in 0..BLOCK_EXP {
            for code in 0..LAYOUT_COUNTS[n as usize] as u32 {
                // Pad the 2^n-slot code to a 32-slot block code whose first
                // 2^n slots carry it: every enclosing first half.
                let block_code =
                    (n..BLOCK_EXP).fold(code, |c, m| c * LAYOUT_COUNTS[m as usize] as u32);
                let levels = LayoutCodes::decode_block(block_code);
                let expected = (0..1usize << n)
                    .filter(|&i| u32::from(levels[i]) > i.trailing_ones())
                    .fold(0u16, |acc, i| acc | 1 << i);
                assert_eq!(
                    MARKER_TABLE[MARKER_OFFSETS[n as usize] + code as usize],
                    expected
                );
            }
        }
    }

    #[test]
    fn word_markers_match_markers_rebuilt_from_levels() {
        use crate::encoding::test_support::{markers_from_levels, merge_random_layout, next};
        let mut state = 0xC0DE;
        for trial in 0..400 {
            let mut enc = LayoutCodes::for_width(128);
            if trial % 2 == 0 {
                // Uniformly random layouts: any code below a₅ per block.
                for code in &mut enc.codes {
                    *code = (next(&mut state) % LAYOUT_COUNTS[5]) as u32;
                }
            } else {
                merge_random_layout(&mut enc, 128, trial % 6, &mut state);
            }
            for count in [2, 4, 8, 16, 32] {
                for first in (0..128).step_by(count) {
                    assert_eq!(
                        enc.word_markers(first, count),
                        markers_from_levels(&enc, first, count, BLOCK_EXP),
                        "slots {first}..{} of codes {:?}",
                        first + count,
                        enc.codes
                    );
                }
            }
        }
    }

    #[test]
    fn reset_clears_in_place() {
        let mut enc = LayoutCodes::for_width(64);
        enc.mark_merged(40, 3);
        enc.reset();
        assert_eq!(enc, LayoutCodes::for_width(64));
    }

    #[test]
    #[should_panic(expected = "multiple of 32")]
    fn width_must_be_block_aligned() {
        let _ = LayoutCodes::for_width(48);
    }
}
