//! Eight keys at a time: lookup3's `mix`/`final` rounds in AVX2 lanes.
//!
//! [`BobHash::hash_u64`] works on 32-bit words with add, sub, xor and
//! rotate only, so the same two rounds run unchanged on eight keys held
//! side by side in 256-bit registers.  Every lane computes exactly the
//! scalar digest: a sketch's counters do not depend on the path taken.
//!
//! [`hash_masked`] picks the path on every call.  On x86-64 CPUs that
//! report AVX2 at run time (`is_x86_feature_detected!`) the kernel hashes
//! each whole group of eight keys; the scalar `hash_u64` loop hashes the
//! remaining fewer-than-eight keys, and the whole slice everywhere else.
//! There is no other path and no option.  The public entry points are
//! [`BobHash::hash_u64_into`] (full digests) and
//! [`RowHashers::buckets_into`](crate::RowHashers::buckets_into) (masked
//! buckets).
//!
//! # The audited `unsafe`
//!
//! The kernel is a safe `#[target_feature(enable = "avx2")]` function:
//! keys enter through `_mm256_set_epi32` and digests leave through lane
//! extracts, so it touches memory only through bounds-checked slices and
//! takes no raw pointer.  Calling it from code compiled without AVX2 is
//! the crate's one `unsafe` operation, and its one obligation is that the
//! executing CPU supports AVX2, which [`hash_lanes`] checks at run time
//! right before the call.

use crate::BobHash;

/// Keys per AVX2 step: eight 32-bit lanes of a 256-bit register.
#[cfg(target_arch = "x86_64")]
const LANES: usize = 8;

/// What a hash lane writes: full digests (`u64`) or masked buckets
/// (`usize`).
pub(crate) trait Lane: Copy {
    /// The output value of a digest the caller's mask has already cut.
    fn from_digest(digest: u64) -> Self;
}

impl Lane for u64 {
    #[inline(always)]
    fn from_digest(digest: u64) -> u64 {
        digest
    }
}

impl Lane for usize {
    #[inline(always)]
    fn from_digest(digest: u64) -> usize {
        digest as usize
    }
}

/// Writes `hasher.hash_u64(key) & mask` for every key into `out`: whole
/// groups of eight in AVX2 lanes where the CPU has them, the rest with
/// the scalar loop.
///
/// # Panics
///
/// Panics if `keys` and `out` differ in length.
#[inline]
pub(crate) fn hash_masked<L: Lane>(hasher: BobHash, mask: u64, keys: &[u64], out: &mut [L]) {
    assert_eq!(keys.len(), out.len(), "one output slot per key");
    let done = hash_lanes(hasher, mask, keys, out);
    hash_scalar(hasher, mask, &keys[done..], &mut out[done..]);
}

/// The scalar path: one [`BobHash::hash_u64`] per key.
pub(crate) fn hash_scalar<L: Lane>(hasher: BobHash, mask: u64, keys: &[u64], out: &mut [L]) {
    for (slot, &key) in out.iter_mut().zip(keys) {
        *slot = L::from_digest(hasher.hash_u64(key) & mask);
    }
}

/// The lane path: hashes the longest prefix of whole eight-key groups in
/// AVX2 lanes and returns its length.  Returns 0, writing nothing, when
/// the CPU lacks AVX2.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
#[inline]
pub(crate) fn hash_lanes<L: Lane>(
    hasher: BobHash,
    mask: u64,
    keys: &[u64],
    out: &mut [L],
) -> usize {
    if !std::is_x86_feature_detected!("avx2") {
        return 0;
    }
    // SAFETY: `avx2::hash_groups` is safe code compiled for AVX2 that takes
    // no raw pointer; calling it needs only a CPU with AVX2, which
    // `is_x86_feature_detected!` has just confirmed at run time.
    unsafe { avx2::hash_groups(hasher.seed(), mask, keys, out) }
}

/// The lane path off x86-64: there are no lanes, so nothing is hashed.
#[cfg(not(target_arch = "x86_64"))]
#[inline]
pub(crate) fn hash_lanes<L: Lane>(_: BobHash, _: u64, _: &[u64], _: &mut [L]) -> usize {
    0
}

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::{Lane, LANES};
    use std::arch::x86_64::*;

    /// `x.rotate_left(k)` in every 32-bit lane.
    macro_rules! rot {
        ($x:ident, $k:literal) => {
            _mm256_or_si256(
                _mm256_slli_epi32::<$k>($x),
                _mm256_srli_epi32::<{ 32 - $k }>($x),
            )
        };
    }

    /// The lookup3 `mix` round in every lane (see `bob.rs`).
    #[target_feature(enable = "avx2")]
    #[inline]
    fn mix(mut a: __m256i, mut b: __m256i, mut c: __m256i) -> (__m256i, __m256i, __m256i) {
        a = _mm256_xor_si256(_mm256_sub_epi32(a, c), rot!(c, 4));
        c = _mm256_add_epi32(c, b);
        b = _mm256_xor_si256(_mm256_sub_epi32(b, a), rot!(a, 6));
        a = _mm256_add_epi32(a, c);
        c = _mm256_xor_si256(_mm256_sub_epi32(c, b), rot!(b, 8));
        b = _mm256_add_epi32(b, a);
        a = _mm256_xor_si256(_mm256_sub_epi32(a, c), rot!(c, 16));
        c = _mm256_add_epi32(c, b);
        b = _mm256_xor_si256(_mm256_sub_epi32(b, a), rot!(a, 19));
        a = _mm256_add_epi32(a, c);
        c = _mm256_xor_si256(_mm256_sub_epi32(c, b), rot!(b, 4));
        b = _mm256_add_epi32(b, a);
        (a, b, c)
    }

    /// The lookup3 `final` round in every lane, returning the `b` and `c`
    /// words the digest is made of.
    #[target_feature(enable = "avx2")]
    #[inline]
    fn final_mix(mut a: __m256i, mut b: __m256i, mut c: __m256i) -> (__m256i, __m256i) {
        c = _mm256_sub_epi32(_mm256_xor_si256(c, b), rot!(b, 14));
        a = _mm256_sub_epi32(_mm256_xor_si256(a, c), rot!(c, 11));
        b = _mm256_sub_epi32(_mm256_xor_si256(b, a), rot!(a, 25));
        c = _mm256_sub_epi32(_mm256_xor_si256(c, b), rot!(b, 16));
        a = _mm256_sub_epi32(_mm256_xor_si256(a, c), rot!(c, 4));
        b = _mm256_sub_epi32(_mm256_xor_si256(b, a), rot!(a, 14));
        c = _mm256_sub_epi32(_mm256_xor_si256(c, b), rot!(b, 24));
        (b, c)
    }

    /// Writes `BobHash::new(seed).hash_u64(key) & mask` for every key of
    /// the longest prefix of whole eight-key groups and returns its length.
    #[target_feature(enable = "avx2")]
    pub(super) fn hash_groups<L: Lane>(seed: u64, mask: u64, keys: &[u64], out: &mut [L]) -> usize {
        // The scalar initial state: `a` and `b` add the key's halves to
        // `init`, and `c` adds the seed's high half.
        let init = 0xdead_beefu32.wrapping_add(8).wrapping_add(seed as u32);
        let init_v = _mm256_set1_epi32(init as i32);
        let c0 = _mm256_set1_epi32(init.wrapping_add((seed >> 32) as u32) as i32);
        let mask_v = _mm256_set1_epi64x(mask as i64);
        let groups = keys.chunks_exact(LANES).zip(out.chunks_exact_mut(LANES));
        let done = groups.len() * LANES;
        for (k, o) in groups {
            let lo = |i: usize| k[i] as i32;
            let hi = |i: usize| (k[i] >> 32) as i32;
            let a = _mm256_set_epi32(lo(7), lo(6), lo(5), lo(4), lo(3), lo(2), lo(1), lo(0));
            let b = _mm256_set_epi32(hi(7), hi(6), hi(5), hi(4), hi(3), hi(2), hi(1), hi(0));
            let (a, b, c) = mix(_mm256_add_epi32(init_v, a), _mm256_add_epi32(init_v, b), c0);
            let (b, c) = final_mix(a, b, c);
            // Interleaving `b` (low word) with `c` (high word) within each
            // 128-bit half yields the 64-bit digests of keys 0, 1, 4, 5
            // (low) and 2, 3, 6, 7 (high).
            let low = _mm256_and_si256(_mm256_unpacklo_epi32(b, c), mask_v);
            let high = _mm256_and_si256(_mm256_unpackhi_epi32(b, c), mask_v);
            o[0] = L::from_digest(_mm256_extract_epi64::<0>(low) as u64);
            o[1] = L::from_digest(_mm256_extract_epi64::<1>(low) as u64);
            o[2] = L::from_digest(_mm256_extract_epi64::<0>(high) as u64);
            o[3] = L::from_digest(_mm256_extract_epi64::<1>(high) as u64);
            o[4] = L::from_digest(_mm256_extract_epi64::<2>(low) as u64);
            o[5] = L::from_digest(_mm256_extract_epi64::<3>(low) as u64);
            o[6] = L::from_digest(_mm256_extract_epi64::<2>(high) as u64);
            o[7] = L::from_digest(_mm256_extract_epi64::<3>(high) as u64);
        }
        done
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RowHashers;
    use proptest::prelude::*;

    /// Whether [`hash_lanes`] has lanes to run on this CPU.
    fn lanes_available() -> bool {
        #[cfg(target_arch = "x86_64")]
        {
            std::is_x86_feature_detected!("avx2")
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            false
        }
    }

    /// Keys the lane path must hash: `len` rounded down to whole groups
    /// where the CPU has lanes, none elsewhere.
    fn lane_prefix(len: usize) -> usize {
        if lanes_available() {
            len - len % 8
        } else {
            0
        }
    }

    /// Runs both paths explicitly over `keys` and returns
    /// (scalar, lane-prefix + scalar-tail, public dispatcher) outputs.
    fn both_paths<L: Lane + Default>(hasher: BobHash, mask: u64, keys: &[u64]) -> [Vec<L>; 3] {
        let mut scalar = vec![L::default(); keys.len()];
        hash_scalar(hasher, mask, keys, &mut scalar);
        let mut lanes = vec![L::default(); keys.len()];
        let done = hash_lanes(hasher, mask, keys, &mut lanes);
        assert_eq!(
            done,
            lane_prefix(keys.len()),
            "lane prefix of {} keys",
            keys.len()
        );
        hash_scalar(hasher, mask, &keys[done..], &mut lanes[done..]);
        let mut dispatched = vec![L::default(); keys.len()];
        hash_masked(hasher, mask, keys, &mut dispatched);
        [scalar, lanes, dispatched]
    }

    // Golden values, computed with the scalar `hash_u64` and `bucket` of
    // the release before the lane kernel existed.  The lane-vs-scalar
    // property below cannot see both paths drift together; these can.
    const GOLDEN_KEYS: [u64; 9] = [
        0,
        1,
        42,
        0xFFFF_FFFF,
        0x1_0000_0000,
        0x0123_4567_89AB_CDEF,
        0x8000_0000_0000_0000,
        0xDEAD_BEEF_CAFE_F00D,
        u64::MAX,
    ];

    /// `(seed, BobHash::new(seed).hash_u64(key) for every GOLDEN_KEYS key)`.
    const GOLDEN_DIGESTS: [(u64, [u64; 9]); 5] = [
        (
            0,
            [
                0x69061b6b56d80af3,
                0x7e0585294a28ef8d,
                0x8eb8cbf03454b37c,
                0x6d78adb2f55d59c1,
                0xcf2456e82526732a,
                0xb7eff93d416262d9,
                0x619fe6c5b10e44a3,
                0x7f64ab4bbd43acb4,
                0xcfe4b521ae69ecd2,
            ],
        ),
        (
            7,
            [
                0x854c7230d413728a,
                0xaa59e73664b59704,
                0x40d5fb761cc8fa55,
                0x6fd2a334b711c5d9,
                0x3506e8aeb6e1b424,
                0x94df3f4255f99756,
                0xac7342f263f0e5e8,
                0x7e4b0bc3f63865b7,
                0x9ad87d60768d5e7a,
            ],
        ),
        (
            0xFFFF_FFFF_0000_0001,
            [
                0xf780f25cd4e2d2c9,
                0x14873d5c983d0301,
                0x2707af9e701a7e2a,
                0xcf2456e82526732a,
                0x2649e11171771c23,
                0xeb250a482a650dd7,
                0x009a09c8336bb4e6,
                0xf84ec96197342b9f,
                0x69061b6b56d80af3,
            ],
        ),
        (
            0x9E37_79B9_7F4A_7C15,
            [
                0x24bd89632f6ba023,
                0x481352311ba3d816,
                0x8a04601937c2a9af,
                0x1078afe521df148b,
                0x4b41b2de64609079,
                0xe2270875e10a46c7,
                0x25281aecd08fc14a,
                0xb2a7c69b31de8bde,
                0xb2a4dd87e51c91eb,
            ],
        ),
        (
            u64::MAX,
            [
                0xce78c5582ddc86ad,
                0x30504b20c194bab4,
                0x9864fc6324038887,
                0x860836d93921dcad,
                0x1e3b7ec335e1b365,
                0xcbeb257f4dbcd8e5,
                0x32690d0b9e716448,
                0x024fdb1a4220cf1c,
                0x90f477523efb6305,
            ],
        ),
    ];

    /// Master seed of the golden row family (depth 2).
    const GOLDEN_ROW_SEED: u64 = 42;

    /// `(width, [row][key] = RowHashers::new(2, width, 42).bucket(row, key))`.
    /// Width 1 masks every digest to 0.
    const GOLDEN_BUCKETS: [(usize, [[usize; 9]; 2]); 4] = [
        (1, [[0; 9]; 2]),
        (
            1 << 7,
            [
                [77, 66, 1, 72, 17, 77, 77, 51, 123],
                [91, 54, 4, 37, 14, 24, 97, 17, 25],
            ],
        ),
        (
            1 << 20,
            [
                [
                    500813, 59458, 458625, 205512, 41105, 932685, 774605, 851507, 927099,
                ],
                [
                    133467, 296886, 36484, 29093, 844814, 1031192, 455905, 409233, 975257,
                ],
            ],
        ),
        (
            1 << 31,
            [
                [
                    481797197, 549513282, 1733754753, 933438152, 444637329, 309214029, 1979437517,
                    855440947, 852370811,
                ],
                [
                    1450314075, 1599375286, 414224004, 2019586469, 1231873038, 1666169880,
                    1730606305, 328613521, 487514521,
                ],
            ],
        ),
    ];

    #[test]
    fn digests_match_the_golden_table_on_both_paths() {
        for (seed, expected) in GOLDEN_DIGESTS {
            let hasher = BobHash::new(seed);
            let single: Vec<u64> = GOLDEN_KEYS.iter().map(|&k| hasher.hash_u64(k)).collect();
            assert_eq!(single, expected, "hash_u64, seed {seed:#x}");
            for (path, out) in ["scalar", "lanes", "dispatched"]
                .iter()
                .zip(both_paths::<u64>(hasher, u64::MAX, &GOLDEN_KEYS))
            {
                assert_eq!(out, expected, "{path} path, seed {seed:#x}");
            }
            let mut public = [0u64; 9];
            hasher.hash_u64_into(&GOLDEN_KEYS, &mut public);
            assert_eq!(public, expected, "hash_u64_into, seed {seed:#x}");
        }
    }

    #[test]
    fn buckets_match_the_golden_table_on_both_paths() {
        for (width, expected) in GOLDEN_BUCKETS {
            let family = RowHashers::new(2, width, GOLDEN_ROW_SEED);
            for (row, expected) in expected.iter().enumerate() {
                let single: Vec<usize> =
                    GOLDEN_KEYS.iter().map(|&k| family.bucket(row, k)).collect();
                assert_eq!(&single, expected, "bucket, width {width}, row {row}");
                let mask = (width - 1) as u64;
                for (path, out) in
                    ["scalar", "lanes", "dispatched"]
                        .iter()
                        .zip(both_paths::<usize>(
                            family.hashers()[row],
                            mask,
                            &GOLDEN_KEYS,
                        ))
                {
                    assert_eq!(&out, expected, "{path} path, width {width}, row {row}");
                }
                let mut public = [0usize; 9];
                family.buckets_into(row, &GOLDEN_KEYS, &mut public);
                assert_eq!(&public, expected, "buckets_into, width {width}, row {row}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "one output slot per key")]
    fn mismatched_output_length_panics() {
        BobHash::new(1).hash_u64_into(&[1, 2, 3], &mut [0; 2]);
    }

    /// Arbitrary keys, biased toward the edges of both 32-bit halves.
    fn key((raw, shape): (u64, u32)) -> u64 {
        match shape {
            0 => raw >> 32,
            1 => raw << 32,
            2 => u64::MAX - (raw & 0xFF),
            _ => raw,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Lane digests and buckets equal the scalar ones bit for bit, for
        /// arbitrary keys and seeds, widths 2^0..=2^20 and lengths 0..=67.
        #[test]
        fn lanes_equal_scalar(
            raw in prop::collection::vec((0..u64::MAX, 0u32..6), 0..68),
            seed in 0..u64::MAX,
            width_log2 in 0u32..21,
            row in 0usize..3,
        ) {
            let keys: Vec<u64> = raw.into_iter().map(key).collect();
            let hasher = BobHash::new(seed);
            let reference: Vec<u64> = keys.iter().map(|&k| hasher.hash_u64(k)).collect();
            for out in both_paths::<u64>(hasher, u64::MAX, &keys) {
                prop_assert_eq!(&out, &reference);
            }

            let family = RowHashers::new(3, 1 << width_log2, seed);
            let reference: Vec<usize> = keys.iter().map(|&k| family.bucket(row, k)).collect();
            let mask = (family.width() - 1) as u64;
            for out in both_paths::<usize>(family.hashers()[row], mask, &keys) {
                prop_assert_eq!(&out, &reference);
            }
            let mut public = vec![0usize; keys.len()];
            family.buckets_into(row, &keys, &mut public);
            prop_assert_eq!(&public, &reference);
        }
    }
}
