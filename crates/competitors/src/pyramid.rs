//! Pyramid Sketch (Yang et al., VLDB 2017), re-implemented as a comparison
//! baseline.
//!
//! Pyramid pre-allocates a pyramid of counter layers: layer 1 has `w` pure
//! counters of `b` bits and each higher layer has half as many counters.  A
//! layer-`i ≥ 2` counter is shared by two layer-`i−1` counters and spends two
//! *flag* bits (one per child) with the remaining `b − 2` bits counting
//! carries.  When a counter overflows it increments its parent and sets its
//! flag there; a query reconstructs the value by walking up the flagged
//! ancestors and concatenating the count fields.
//!
//! The important behavioural consequences (which the SALSA paper's Fig. 8/9
//! evaluate) fall out of this structure:
//!
//! * layers are pre-allocated whether or not they are ever used, so memory
//!   utilisation is worse than SALSA's;
//! * the parent counters are *shared* by two children, so once two heavy
//!   items land in sibling counters they share most-significant bits and the
//!   error variance explodes (region "A" in Fig. 9);
//! * queries may touch several non-adjacent memory locations.

use salsa_core::storage::{unsigned_capacity, BitStorage};
use salsa_hash::RowHashers;
use salsa_sketches::estimator::FrequencyEstimator;
use salsa_sketches::summary::FrequencyQueries;

/// Number of layers sufficient for any practical stream: with 8-bit layer-1
/// counters and 6-bit carry fields, four carry layers already count beyond
/// 2^32.
const DEFAULT_LAYERS: usize = 8;

/// A Pyramid Sketch (the "PCM" variant: Count-Min as the underlying sketch).
#[derive(Debug, Clone)]
pub struct PyramidSketch {
    /// Layer 1: pure counters, `width` fields of `bits` bits.
    base: BitStorage,
    /// Layers 2…: each counter holds 2 flag bits + (bits − 2) carry bits.
    upper: Vec<BitStorage>,
    hashers: RowHashers,
    depth: usize,
    width: usize,
    bits: u32,
    layers: usize,
}

impl PyramidSketch {
    /// Creates a Pyramid Sketch with `depth` hash functions into a layer-1
    /// array of `width` counters of `bits` bits (the authors' recommended
    /// configuration uses small layer-1 counters; the SALSA comparison uses
    /// 8 bits).
    pub fn new(depth: usize, width: usize, bits: u32, seed: u64) -> Self {
        Self::with_layers(depth, width, bits, DEFAULT_LAYERS, seed)
    }

    /// Like [`PyramidSketch::new`] with an explicit number of layers.
    pub fn with_layers(depth: usize, width: usize, bits: u32, layers: usize, seed: u64) -> Self {
        assert!(
            width.is_power_of_two(),
            "layer-1 width must be a power of two"
        );
        assert!(
            (4..=32).contains(&bits),
            "layer-1 counters must have 4..=32 bits"
        );
        assert!(layers >= 2, "Pyramid needs at least two layers");
        let upper = (1..layers)
            .map(|layer| BitStorage::new((width >> layer).max(1) * bits as usize))
            .collect();
        Self {
            base: BitStorage::new(width * bits as usize),
            upper,
            hashers: RowHashers::new(depth, width, seed),
            depth,
            width,
            bits,
            layers,
        }
    }

    #[inline]
    fn base_capacity(&self) -> u64 {
        unsigned_capacity(self.bits)
    }

    /// Carry-field capacity of upper-layer counters (2 bits are flags).
    #[inline]
    fn carry_capacity(&self) -> u64 {
        unsigned_capacity(self.bits - 2)
    }

    #[inline]
    fn upper_read(&self, layer: usize, idx: usize) -> (bool, bool, u64) {
        let raw = self.upper[layer - 1].read_aligned(idx * self.bits as usize, self.bits);
        let left_flag = raw >> (self.bits - 1) & 1 == 1;
        let right_flag = raw >> (self.bits - 2) & 1 == 1;
        let count = raw & self.carry_capacity();
        (left_flag, right_flag, count)
    }

    #[inline]
    fn upper_write(&mut self, layer: usize, idx: usize, left: bool, right: bool, count: u64) {
        let raw = (u64::from(left) << (self.bits - 1))
            | (u64::from(right) << (self.bits - 2))
            | count.min(self.carry_capacity());
        self.upper[layer - 1].write_aligned(idx * self.bits as usize, self.bits, raw);
    }

    /// Carries one unit into the parent of `idx` at `layer` (0 = base).
    fn carry(&mut self, layer: usize, idx: usize) {
        if layer + 1 >= self.layers {
            return; // top of the pyramid: drop the carry (saturate)
        }
        let parent_layer = layer + 1;
        let parent_idx = (idx / 2).min(self.upper_len(parent_layer) - 1);
        let (mut left, mut right, count) = self.upper_read(parent_layer, parent_idx);
        if idx.is_multiple_of(2) {
            left = true;
        } else {
            right = true;
        }
        if count >= self.carry_capacity() {
            // Parent carry field overflows: reset it and carry further up.
            self.upper_write(parent_layer, parent_idx, left, right, 0);
            self.carry(parent_layer, parent_idx);
        } else {
            self.upper_write(parent_layer, parent_idx, left, right, count + 1);
        }
    }

    #[inline]
    fn upper_len(&self, layer: usize) -> usize {
        (self.width >> layer).max(1)
    }

    /// Adds one unit to layer-1 counter `idx`, carrying on overflow.
    fn increment_base(&mut self, idx: usize) {
        let cur = self.base.read_aligned(idx * self.bits as usize, self.bits);
        if cur >= self.base_capacity() {
            self.base
                .write_aligned(idx * self.bits as usize, self.bits, 0);
            self.carry(0, idx);
        } else {
            self.base
                .write_aligned(idx * self.bits as usize, self.bits, cur + 1);
        }
    }

    /// Reconstructs the value of layer-1 counter `idx` by walking the flagged
    /// ancestors.
    fn reconstruct(&self, idx: usize) -> u64 {
        let mut value = self.base.read_aligned(idx * self.bits as usize, self.bits);
        let mut shift = self.bits;
        let mut child = idx;
        for layer in 1..self.layers {
            let parent_idx = (child / 2).min(self.upper_len(layer) - 1);
            let (left, right, count) = self.upper_read(layer, parent_idx);
            let flagged = if child.is_multiple_of(2) { left } else { right };
            if !flagged {
                break;
            }
            value += count << shift;
            shift += self.bits - 2;
            child = parent_idx;
        }
        value
    }

    /// Processes the update `⟨item, value⟩` (Cash Register).
    pub fn update(&mut self, item: u64, value: u64) {
        for row in 0..self.depth {
            let bucket = self.hashers.bucket(row, item);
            for _ in 0..value {
                self.increment_base(bucket);
            }
        }
    }

    /// Estimates the frequency of `item` (minimum over the `depth` buckets).
    pub fn estimate(&self, item: u64) -> u64 {
        (0..self.depth)
            .map(|row| self.reconstruct(self.hashers.bucket(row, item)))
            .min()
            .unwrap_or(0)
    }

    /// Total pre-allocated memory of all layers, in bytes.
    pub fn size_bytes(&self) -> usize {
        let base_bits = self.width * self.bits as usize;
        let upper_bits: usize = (1..self.layers)
            .map(|layer| self.upper_len(layer) * self.bits as usize)
            .sum();
        (base_bits + upper_bits).div_ceil(8)
    }

    /// Layer-1 width.
    pub fn width(&self) -> usize {
        self.width
    }
}

impl FrequencyEstimator for PyramidSketch {
    fn update(&mut self, item: u64, value: i64) {
        debug_assert!(value >= 0);
        PyramidSketch::update(self, item, value as u64);
    }

    fn size_bytes(&self) -> usize {
        PyramidSketch::size_bytes(self)
    }
}

impl FrequencyQueries for PyramidSketch {
    fn estimate(&self, item: u64) -> i64 {
        PyramidSketch::estimate(self, item).min(i64::MAX as u64) as i64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn small_counts_are_exact_without_collisions() {
        let mut p = PyramidSketch::new(4, 1 << 12, 8, 1);
        for item in 0..50u64 {
            for _ in 0..=item {
                p.update(item, 1);
            }
        }
        for item in 0..50u64 {
            assert_eq!(p.estimate(item), item + 1);
        }
    }

    #[test]
    fn heavy_item_carries_into_upper_layers() {
        let mut p = PyramidSketch::new(4, 1 << 10, 8, 2);
        let truth = 1_000_000u64;
        p.update(7, truth);
        let est = p.estimate(7);
        assert!(
            est >= truth,
            "Pyramid never under-estimates: {est} < {truth}"
        );
        assert!(est < truth + truth / 4, "estimate {est} is wildly off");
    }

    #[test]
    fn never_underestimates_on_skewed_streams() {
        let mut p = PyramidSketch::new(4, 1 << 10, 8, 3);
        let mut truth: HashMap<u64, u64> = HashMap::new();
        let mut state = 11u64;
        for _ in 0..100_000 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let u = ((state >> 11) as f64 / (1u64 << 53) as f64).max(1e-12);
            let item = ((1.0 / u) as u64).min(999);
            p.update(item, 1);
            *truth.entry(item).or_insert(0) += 1;
        }
        for (&item, &count) in &truth {
            assert!(p.estimate(item) >= count, "item {item}");
        }
    }

    #[test]
    fn siblings_share_upper_bits() {
        // Two heavy items forced into sibling layer-1 counters: both see
        // carries in the shared parent, so at least one is over-estimated by
        // roughly the other's carried weight — the variance effect in Fig. 9.
        let mut p = PyramidSketch::with_layers(1, 8, 8, 6, 5);
        // Find two items hashing to sibling buckets (2k, 2k+1).
        let mut by_bucket: HashMap<usize, u64> = HashMap::new();
        let mut pair = None;
        for item in 0..10_000u64 {
            let b = p.hashers.bucket(0, item);
            if let Some(&other) = by_bucket.get(&(b ^ 1)) {
                pair = Some((other, item));
                break;
            }
            by_bucket.entry(b).or_insert(item);
        }
        let (a, b) = pair.expect("found sibling pair");
        p.update(a, 10_000);
        p.update(b, 10_000);
        let ea = p.estimate(a);
        let eb = p.estimate(b);
        assert!(ea >= 10_000 && eb >= 10_000);
        assert!(
            ea + eb > 25_000,
            "shared parent bits should inflate at least one sibling: {ea} + {eb}"
        );
    }

    #[test]
    fn memory_accounts_all_layers() {
        let p = PyramidSketch::with_layers(4, 1024, 8, 4, 1);
        // 1024 + 512 + 256 + 128 counters of one byte each.
        assert_eq!(p.size_bytes(), 1024 + 512 + 256 + 128);
    }

    #[test]
    fn weighted_updates_accumulate() {
        let mut p = PyramidSketch::new(4, 512, 8, 9);
        p.update(5, 300);
        p.update(5, 300);
        assert!(p.estimate(5) >= 600);
    }
}
