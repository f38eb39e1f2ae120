//! Bit-packed counter storage.
//!
//! SALSA counters are bit fields inside flat `u64` words.  Counters of width
//! `s·2^ℓ` bits are always aligned to their own size (SALSA merges respect
//! power-of-two alignment), so for widths up to 64 bits an aligned field never
//! crosses a word boundary.  Tango counters, in contrast, may span an
//! arbitrary number of base slots, so the unaligned accessors of
//! [`BitStorage`] also support fields that straddle two words.

/// A flat bit-addressable array of `u64` words.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitStorage {
    words: Vec<u64>,
    bits: usize,
}

impl BitStorage {
    /// Creates zeroed storage holding `bits` bits.
    pub fn new(bits: usize) -> Self {
        Self {
            words: vec![0u64; bits.div_ceil(64)],
            bits,
        }
    }

    /// Total number of addressable bits.
    #[inline]
    pub fn bits(&self) -> usize {
        self.bits
    }

    /// Number of bytes of backing storage.
    #[inline]
    pub fn backing_bytes(&self) -> usize {
        self.words.len() * 8
    }

    /// The backing word slice.
    #[inline]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// The backing word slice, mutably.
    #[inline]
    pub fn words_mut(&mut self) -> &mut [u64] {
        &mut self.words
    }

    /// Overwrites this storage with `src`'s contents **without allocating**.
    ///
    /// Both storages must have the same bit capacity (they do whenever two
    /// rows were built with the same shape, which is what every merge/clone
    /// path guarantees).
    ///
    /// # Panics
    ///
    /// Panics if the capacities differ.
    #[inline]
    pub fn copy_from(&mut self, src: &Self) {
        assert_eq!(self.bits, src.bits, "storage capacities must match");
        self.words.copy_from_slice(&src.words);
    }

    /// Reads an **aligned** field: `offset` must be a multiple of `width`,
    /// and `width` must divide 64 (or equal 64).  This is the hot path used
    /// by SALSA rows.
    #[inline(always)]
    pub fn read_aligned(&self, offset: usize, width: u32) -> u64 {
        debug_assert!(width == 64 || 64 % width == 0);
        debug_assert_eq!(offset % width as usize, 0);
        let word = self.words[offset / 64];
        if width == 64 {
            word
        } else {
            let shift = (offset % 64) as u32;
            (word >> shift) & field_mask(width)
        }
    }

    /// Writes an **aligned** field (see [`Self::read_aligned`]).
    #[inline(always)]
    pub fn write_aligned(&mut self, offset: usize, width: u32, value: u64) {
        debug_assert!(width == 64 || 64 % width == 0);
        debug_assert_eq!(offset % width as usize, 0);
        debug_assert!(width == 64 || value <= field_mask(width));
        let word = &mut self.words[offset / 64];
        if width == 64 {
            *word = value;
        } else {
            let shift = (offset % 64) as u32;
            let mask = field_mask(width) << shift;
            *word = (*word & !mask) | (value << shift);
        }
    }

    /// Reads an arbitrary field of up to 64 bits that may straddle a word
    /// boundary (used by Tango).
    #[inline]
    pub fn read_unaligned(&self, offset: usize, width: u32) -> u64 {
        debug_assert!((1..=64).contains(&width));
        let word_idx = offset / 64;
        let shift = (offset % 64) as u32;
        let lo = self.words[word_idx] >> shift;
        let in_first = 64 - shift;
        let value = if width <= in_first {
            lo
        } else {
            lo | (self.words[word_idx + 1] << in_first)
        };
        if width == 64 {
            value
        } else {
            value & field_mask(width)
        }
    }

    /// Writes an arbitrary field of up to 64 bits that may straddle a word
    /// boundary (used by Tango).
    #[inline]
    pub fn write_unaligned(&mut self, offset: usize, width: u32, value: u64) {
        debug_assert!((1..=64).contains(&width));
        debug_assert!(width == 64 || value <= field_mask(width));
        let word_idx = offset / 64;
        let shift = (offset % 64) as u32;
        let in_first = (64 - shift).min(width);
        // First word.
        let mask_lo = if in_first == 64 {
            u64::MAX
        } else {
            field_mask(in_first) << shift
        };
        let words = &mut self.words;
        words[word_idx] = (words[word_idx] & !mask_lo) | ((value << shift) & mask_lo);
        // Second word, if the field straddles.
        if width > in_first {
            let rem = width - in_first;
            let mask_hi = field_mask(rem);
            words[word_idx + 1] =
                (words[word_idx + 1] & !mask_hi) | ((value >> in_first) & mask_hi);
        }
    }

    /// Zeroes every bit in `[offset, offset + width)`.
    pub fn clear_range(&mut self, offset: usize, width: usize) {
        let mut pos = offset;
        let end = offset + width;
        while pos < end {
            let chunk = (end - pos).min(64 - pos % 64).min(64);
            self.write_unaligned(pos, chunk as u32, 0);
            pos += chunk;
        }
    }

    /// Zeroes all storage.
    pub fn clear(&mut self) {
        self.words.iter_mut().for_each(|w| *w = 0);
    }
}

/// Mask with the low `width` bits set (`width` in `1..=64`).
#[inline(always)]
pub fn field_mask(width: u32) -> u64 {
    debug_assert!((1..=64).contains(&width));
    if width == 64 {
        u64::MAX
    } else {
        (1u64 << width) - 1
    }
}

/// Maximum value representable by an unsigned counter of `width` bits.
#[inline(always)]
pub fn unsigned_capacity(width: u32) -> u64 {
    field_mask(width)
}

/// Maximum magnitude representable by a sign-magnitude counter of `width`
/// bits (one bit is the sign).
#[inline(always)]
pub fn signed_magnitude_capacity(width: u32) -> u64 {
    debug_assert!(width >= 2);
    field_mask(width - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aligned_roundtrip_all_widths() {
        for width in [2u32, 4, 8, 16, 32, 64] {
            let slots = 256 / width as usize * 4;
            let mut s = BitStorage::new(slots * width as usize);
            for i in 0..slots {
                let v = (i as u64 * 2654435761) & unsigned_capacity(width);
                s.write_aligned(i * width as usize, width, v);
            }
            for i in 0..slots {
                let v = (i as u64 * 2654435761) & unsigned_capacity(width);
                assert_eq!(s.read_aligned(i * width as usize, width), v);
            }
        }
    }

    #[test]
    fn aligned_write_does_not_clobber_neighbours() {
        let mut s = BitStorage::new(256);
        for i in 0..32 {
            s.write_aligned(i * 8, 8, i as u64);
        }
        s.write_aligned(8 * 8, 8, 0xAA);
        for i in 0..32 {
            let expect = if i == 8 { 0xAA } else { i as u64 };
            assert_eq!(s.read_aligned(i * 8, 8), expect);
        }
    }

    #[test]
    fn unaligned_roundtrip_straddling_words() {
        let mut s = BitStorage::new(256);
        // 24-bit field starting at bit 56 straddles words 0 and 1.
        s.write_unaligned(56, 24, 0xABCDEF);
        assert_eq!(s.read_unaligned(56, 24), 0xABCDEF);
        // Neighbouring bits untouched.
        assert_eq!(s.read_unaligned(0, 56), 0);
        assert_eq!(s.read_unaligned(80, 64), 0);
    }

    #[test]
    fn unaligned_full_word_at_odd_offset() {
        let mut s = BitStorage::new(192);
        s.write_unaligned(30, 64, u64::MAX);
        assert_eq!(s.read_unaligned(30, 64), u64::MAX);
        s.write_unaligned(30, 64, 0x0123_4567_89AB_CDEF);
        assert_eq!(s.read_unaligned(30, 64), 0x0123_4567_89AB_CDEF);
        assert_eq!(s.read_unaligned(0, 30), 0);
    }

    #[test]
    fn clear_range_zeroes_exactly_the_range() {
        let mut s = BitStorage::new(256);
        for i in 0..4 {
            s.write_aligned(i * 64, 64, u64::MAX);
        }
        s.clear_range(64, 96);
        assert_eq!(s.read_aligned(0, 64), u64::MAX);
        assert_eq!(s.read_unaligned(64, 64), 0);
        assert_eq!(s.read_unaligned(128, 32), 0);
        assert_eq!(s.read_unaligned(160, 64), u64::MAX);
    }

    #[test]
    fn copy_from_reuses_the_backing_words() {
        let mut dst = BitStorage::new(256);
        let mut src = BitStorage::new(256);
        src.write_aligned(64, 64, 0xDEAD_BEEF);
        dst.write_aligned(0, 64, 7);
        dst.copy_from(&src);
        assert_eq!(dst, src);
        assert_eq!(dst.read_aligned(0, 64), 0);
        assert_eq!(dst.read_aligned(64, 64), 0xDEAD_BEEF);
    }

    #[test]
    #[should_panic(expected = "capacities must match")]
    fn copy_from_rejects_mismatched_capacity() {
        let mut dst = BitStorage::new(128);
        dst.copy_from(&BitStorage::new(256));
    }

    #[test]
    fn backing_bytes_round_up_to_whole_words() {
        assert_eq!(BitStorage::new(0).backing_bytes(), 0);
        assert_eq!(BitStorage::new(1).backing_bytes(), 8);
        assert_eq!(BitStorage::new(64).backing_bytes(), 8);
        assert_eq!(BitStorage::new(65).backing_bytes(), 16);
    }

    #[test]
    fn capacities() {
        assert_eq!(unsigned_capacity(8), 255);
        assert_eq!(unsigned_capacity(16), 65535);
        assert_eq!(unsigned_capacity(64), u64::MAX);
        assert_eq!(signed_magnitude_capacity(8), 127);
        assert_eq!(signed_magnitude_capacity(32), (1 << 31) - 1);
    }
}
