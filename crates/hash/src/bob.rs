//! A lookup3-style ("BobHash") seeded hash function.
//!
//! The SALSA reference code and most sketching papers use Bob Jenkins'
//! lookup3 hash for index computations.  We implement the same mixing
//! structure (the `mix`/`final` rounds of lookup3) over 32-bit lanes, with a
//! fast path for 64-bit keys — the common case when items are flow
//! identifiers or already-hashed 5-tuples, and a batch form that hashes
//! eight keys at a time in AVX2 lanes where the CPU has them.

use crate::lanes;

/// A seeded lookup3-style hash function.
///
/// The hasher is cheap to construct and copy; sketches typically keep one
/// `BobHash` per row.
///
/// # Examples
///
/// ```
/// use salsa_hash::BobHash;
///
/// let h = BobHash::new(7);
/// let a = h.hash_u64(1234);
/// let b = h.hash_u64(1234);
/// assert_eq!(a, b);
/// assert_ne!(h.hash_u64(1234), BobHash::new(8).hash_u64(1234));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BobHash {
    seed: u64,
}

#[inline(always)]
fn rot(x: u32, k: u32) -> u32 {
    x.rotate_left(k)
}

/// The lookup3 `mix` round.
#[inline(always)]
fn mix(mut a: u32, mut b: u32, mut c: u32) -> (u32, u32, u32) {
    a = a.wrapping_sub(c);
    a ^= rot(c, 4);
    c = c.wrapping_add(b);
    b = b.wrapping_sub(a);
    b ^= rot(a, 6);
    a = a.wrapping_add(c);
    c = c.wrapping_sub(b);
    c ^= rot(b, 8);
    b = b.wrapping_add(a);
    a = a.wrapping_sub(c);
    a ^= rot(c, 16);
    c = c.wrapping_add(b);
    b = b.wrapping_sub(a);
    b ^= rot(a, 19);
    a = a.wrapping_add(c);
    c = c.wrapping_sub(b);
    c ^= rot(b, 4);
    b = b.wrapping_add(a);
    (a, b, c)
}

/// The lookup3 `final` round.
#[inline(always)]
fn final_mix(mut a: u32, mut b: u32, mut c: u32) -> (u32, u32, u32) {
    c ^= b;
    c = c.wrapping_sub(rot(b, 14));
    a ^= c;
    a = a.wrapping_sub(rot(c, 11));
    b ^= a;
    b = b.wrapping_sub(rot(a, 25));
    c ^= b;
    c = c.wrapping_sub(rot(b, 16));
    a ^= c;
    a = a.wrapping_sub(rot(c, 4));
    b ^= a;
    b = b.wrapping_sub(rot(a, 14));
    c ^= b;
    c = c.wrapping_sub(rot(b, 24));
    (a, b, c)
}

impl BobHash {
    /// Creates a hasher with the given seed.
    #[inline]
    pub fn new(seed: u64) -> Self {
        Self { seed }
    }

    /// Returns the seed this hasher was constructed with.
    #[inline]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Hashes a 64-bit key to a 64-bit digest.
    ///
    /// This is the hot path used by every sketch update, so it avoids any
    /// heap traffic and consists of two lookup3 rounds over the key halves.
    #[inline(always)]
    pub fn hash_u64(&self, key: u64) -> u64 {
        let init = 0xdead_beefu32
            .wrapping_add(8)
            .wrapping_add(self.seed as u32);
        let a = init.wrapping_add(key as u32);
        let b = init.wrapping_add((key >> 32) as u32);
        let c = init.wrapping_add((self.seed >> 32) as u32);
        let (a, b, c) = mix(a, b, c);
        let (_, b, c) = final_mix(a, b, c);
        ((c as u64) << 32) | (b as u64)
    }

    /// Hashes every key of `keys` into the matching slot of `out`:
    /// `out[i] == self.hash_u64(keys[i])`, bit for bit.
    ///
    /// This is the batch form of [`BobHash::hash_u64`].  On x86-64 CPUs
    /// with AVX2 (detected at run time) it hashes eight keys per step in
    /// vector lanes and the last fewer-than-eight keys with the scalar
    /// loop; elsewhere it is the scalar loop.
    ///
    /// # Panics
    ///
    /// Panics if `keys` and `out` differ in length.
    ///
    /// # Examples
    ///
    /// ```
    /// use salsa_hash::BobHash;
    ///
    /// let h = BobHash::new(7);
    /// let keys: Vec<u64> = (0..20).collect();
    /// let mut digests = [0u64; 20];
    /// h.hash_u64_into(&keys, &mut digests);
    /// assert!(keys.iter().zip(&digests).all(|(&k, &d)| d == h.hash_u64(k)));
    /// ```
    #[inline]
    pub fn hash_u64_into(&self, keys: &[u64], out: &mut [u64]) {
        lanes::hash_masked(*self, u64::MAX, keys, out);
    }

    /// Hashes a byte slice to a 64-bit digest.
    ///
    /// Used when items are raw packet 5-tuples or strings rather than
    /// pre-hashed identifiers.
    pub fn hash_bytes(&self, data: &[u8]) -> u64 {
        let mut a = 0xdead_beefu32
            .wrapping_add(data.len() as u32)
            .wrapping_add(self.seed as u32);
        let mut b = a;
        let mut c = a.wrapping_add((self.seed >> 32) as u32);

        let mut chunks = data.chunks_exact(12);
        for chunk in &mut chunks {
            a = a.wrapping_add(u32::from_le_bytes(chunk[0..4].try_into().unwrap()));
            b = b.wrapping_add(u32::from_le_bytes(chunk[4..8].try_into().unwrap()));
            c = c.wrapping_add(u32::from_le_bytes(chunk[8..12].try_into().unwrap()));
            let m = mix(a, b, c);
            a = m.0;
            b = m.1;
            c = m.2;
        }

        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut tail = [0u8; 12];
            tail[..rest.len()].copy_from_slice(rest);
            a = a.wrapping_add(u32::from_le_bytes(tail[0..4].try_into().unwrap()));
            b = b.wrapping_add(u32::from_le_bytes(tail[4..8].try_into().unwrap()));
            c = c.wrapping_add(u32::from_le_bytes(tail[8..12].try_into().unwrap()));
        }
        let (_, b, c) = final_mix(a, b, c);
        ((c as u64) << 32) | (b as u64)
    }

    /// Maps a 64-bit key to a bucket in `[0, width)` where `width` is a
    /// power of two.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `width` is not a power of two.
    #[inline(always)]
    pub fn bucket(&self, key: u64, width: usize) -> usize {
        debug_assert!(width.is_power_of_two(), "row width must be a power of two");
        (self.hash_u64(key) as usize) & (width - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn hash_is_deterministic() {
        let h = BobHash::new(123);
        for key in [0u64, 1, 42, u64::MAX, 0x0123_4567_89AB_CDEF] {
            assert_eq!(h.hash_u64(key), h.hash_u64(key));
        }
    }

    #[test]
    fn different_seeds_give_different_hashes() {
        let h1 = BobHash::new(1);
        let h2 = BobHash::new(2);
        let mut differing = 0;
        for key in 0..1000u64 {
            if h1.hash_u64(key) != h2.hash_u64(key) {
                differing += 1;
            }
        }
        assert!(differing > 990, "seeds should decorrelate hashes");
    }

    #[test]
    fn hash_u64_has_few_collisions() {
        let h = BobHash::new(99);
        let mut seen = HashSet::new();
        for key in 0..100_000u64 {
            seen.insert(h.hash_u64(key));
        }
        // 100k 64-bit hashes should essentially never collide.
        assert_eq!(seen.len(), 100_000);
    }

    #[test]
    fn bucket_is_uniform_enough() {
        let h = BobHash::new(7);
        let width = 1 << 10;
        let mut counts = vec![0usize; width];
        let n = 200_000u64;
        for key in 0..n {
            counts[h.bucket(key, width)] += 1;
        }
        let expected = n as f64 / width as f64;
        let max = *counts.iter().max().unwrap() as f64;
        let min = *counts.iter().min().unwrap() as f64;
        assert!(
            max < expected * 1.5,
            "bucket too heavy: {max} vs {expected}"
        );
        assert!(
            min > expected * 0.5,
            "bucket too light: {min} vs {expected}"
        );
    }

    #[test]
    fn bytes_and_u64_agree_on_determinism() {
        let h = BobHash::new(5);
        let key = 0xfeed_face_cafe_beefu64;
        assert_eq!(
            h.hash_bytes(&key.to_le_bytes()),
            h.hash_bytes(&key.to_le_bytes())
        );
    }

    #[test]
    fn hash_bytes_handles_all_lengths() {
        let h = BobHash::new(11);
        let data: Vec<u8> = (0..64u8).collect();
        let mut seen = HashSet::new();
        for len in 0..=64 {
            seen.insert(h.hash_bytes(&data[..len]));
        }
        assert_eq!(seen.len(), 65, "each prefix length should hash differently");
    }

    #[test]
    fn bucket_respects_width() {
        let h = BobHash::new(3);
        for key in 0..10_000u64 {
            assert!(h.bucket(key, 64) < 64);
            assert!(h.bucket(key, 1) == 0);
        }
    }
}
