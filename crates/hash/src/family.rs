//! Families of independently seeded row hashers.

use crate::{lanes, BobHash, SeedSequence};

/// A family of `d` independently seeded hash functions mapping items to
/// buckets `[0, w)` — one function per sketch row.
///
/// Row widths are required to be powers of two (as in the paper's
/// implementation) so that bucket selection is a mask rather than a modulo.
///
/// # Examples
///
/// ```
/// use salsa_hash::RowHashers;
///
/// let hashers = RowHashers::new(4, 1 << 10, 42);
/// assert_eq!(hashers.depth(), 4);
/// assert_eq!(hashers.width(), 1024);
/// let buckets: Vec<usize> = (0..hashers.depth()).map(|i| hashers.bucket(i, 777)).collect();
/// assert!(buckets.iter().all(|&b| b < 1024));
/// ```
#[derive(Debug, Clone)]
pub struct RowHashers {
    hashers: Vec<BobHash>,
    width: usize,
}

impl RowHashers {
    /// Creates `depth` independent row hashers over `[0, width)`.
    ///
    /// # Panics
    ///
    /// Panics if `depth == 0` or `width` is not a power of two.
    pub fn new(depth: usize, width: usize, seed: u64) -> Self {
        assert!(depth > 0, "a sketch needs at least one row");
        assert!(
            width.is_power_of_two(),
            "row width must be a power of two, got {width}"
        );
        let mut seeds = SeedSequence::new(seed);
        let hashers = (0..depth)
            .map(|_| BobHash::new(seeds.next_seed()))
            .collect();
        Self { hashers, width }
    }

    /// Number of rows (independent hash functions).
    #[inline]
    pub fn depth(&self) -> usize {
        self.hashers.len()
    }

    /// Number of buckets per row.
    #[inline]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Bucket of `key` in row `row`.
    #[inline(always)]
    pub fn bucket(&self, row: usize, key: u64) -> usize {
        self.hashers[row].bucket(key, self.width)
    }

    /// Buckets of every key of `keys` in row `row`, written into the
    /// matching slots of `out`: `out[i] == self.bucket(row, keys[i])`.
    ///
    /// This is the batch form of [`RowHashers::bucket`], hashing eight keys
    /// per step in AVX2 lanes where the CPU has them (see
    /// [`BobHash::hash_u64_into`]).  Sketches call it once per row over a
    /// whole batch.
    ///
    /// # Panics
    ///
    /// Panics if `row >= self.depth()` or `keys` and `out` differ in
    /// length.
    ///
    /// # Examples
    ///
    /// ```
    /// use salsa_hash::RowHashers;
    ///
    /// let hashers = RowHashers::new(4, 1 << 10, 42);
    /// let keys: Vec<u64> = (100..120).collect();
    /// let mut buckets = vec![0usize; keys.len()];
    /// hashers.buckets_into(2, &keys, &mut buckets);
    /// assert!(keys.iter().zip(&buckets).all(|(&k, &b)| b == hashers.bucket(2, k)));
    /// ```
    #[inline]
    pub fn buckets_into(&self, row: usize, keys: &[u64], out: &mut [usize]) {
        lanes::hash_masked(self.hashers[row], (self.width - 1) as u64, keys, out);
    }

    /// Raw 64-bit hash of `key` in row `row` (used by UnivMon level
    /// selection and the sign hash derivation).
    #[inline(always)]
    pub fn raw(&self, row: usize, key: u64) -> u64 {
        self.hashers[row].hash_u64(key)
    }

    /// Returns a copy of this family with the same seeds but a different
    /// (power-of-two) width.
    ///
    /// Sketch merging requires the two operands to share hash functions; the
    /// experiment harness uses this to build such pairs.
    pub fn with_width(&self, width: usize) -> Self {
        assert!(width.is_power_of_two());
        Self {
            hashers: self.hashers.clone(),
            width,
        }
    }

    /// The underlying per-row hashers.
    pub fn hashers(&self) -> &[BobHash] {
        &self.hashers
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_are_independent() {
        let f = RowHashers::new(4, 1 << 12, 9);
        // The probability that two independent hashers agree on the bucket of
        // a given key is 1/w; over 1000 keys we expect ~0.25 agreements.
        let mut agreements = 0;
        for key in 0..1000u64 {
            if f.bucket(0, key) == f.bucket(1, key) {
                agreements += 1;
            }
        }
        assert!(
            agreements < 10,
            "rows look correlated: {agreements} agreements"
        );
    }

    #[test]
    fn same_seed_same_family() {
        let a = RowHashers::new(3, 256, 5);
        let b = RowHashers::new(3, 256, 5);
        for key in 0..100u64 {
            for row in 0..3 {
                assert_eq!(a.bucket(row, key), b.bucket(row, key));
            }
        }
    }

    #[test]
    fn with_width_preserves_seeds() {
        let a = RowHashers::new(2, 1 << 8, 77);
        let b = a.with_width(1 << 4);
        // The narrow family's bucket must be derivable from the same hash.
        for key in 0..200u64 {
            assert_eq!(b.bucket(0, key), (a.raw(0, key) as usize) & 0xF);
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_width_panics() {
        let _ = RowHashers::new(2, 100, 1);
    }

    #[test]
    #[should_panic(expected = "at least one row")]
    fn zero_depth_panics() {
        let _ = RowHashers::new(0, 128, 1);
    }
}
