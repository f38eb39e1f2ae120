//! Golden estimates: what CUS, Cold Filter, the AEE sketches, the Count
//! Sketch and UnivMon answer on one seeded stream, pinned value for value.
//!
//! The stream has 160,000 zipf-like items over 2,000 keys.  Key 1 alone
//! takes about half of it, so every 8-bit counter below overflows: SALSA
//! rows merge (signed ones up to 32-bit counters), and the AEE sketches
//! downsample.  A change to a sketch's
//! hashing, its update rule or the order of its random draws moves these
//! numbers.  They were recorded from the implementation, not derived from
//! the paper, so a deliberate change of behaviour records them anew.

use salsa_sketches::prelude::*;

const SEED: u64 = 2021;

/// Heavy keys, tail keys and one key the stream never contains.
const KEYS: [u64; 12] = [0, 1, 2, 3, 4, 5, 7, 10, 31, 250, 1_999, 1 << 40];

fn stream() -> Vec<u64> {
    let mut state = SEED;
    (0..160_000)
        .map(|_| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let u = ((state >> 11) as f64 / (1u64 << 53) as f64).max(1e-12);
            ((1.0 / u) as u64).min(1_999)
        })
        .collect()
}

/// Feeds the stream to `sketch` one unit update at a time and returns its
/// estimates of [`KEYS`].
fn observe<S>(
    sketch: &mut S,
    update: impl Fn(&mut S, u64),
    estimate: impl Fn(&S, u64) -> u64,
) -> Vec<u64> {
    for item in stream() {
        update(sketch, item);
    }
    KEYS.iter().map(|&key| estimate(sketch, key)).collect()
}

#[test]
fn cus_baseline() {
    let mut cus = ConservativeUpdate::baseline(4, 64, 32, SEED);
    let estimates = observe(&mut cus, |s, i| s.update(i, 1), |s, k| s.estimate(k));
    assert_eq!(
        estimates,
        [11, 80036, 26685, 13198, 8082, 5406, 2845, 1503, 154, 35, 98, 19]
    );
    assert_eq!(cus.size_bytes(), 1024);
}

#[test]
fn cus_salsa() {
    let mut cus = ConservativeUpdate::salsa(4, 256, 8, SEED);
    let estimates = observe(&mut cus, |s, i| s.update(i, 1), |s, k| s.estimate(k));
    assert_eq!(
        estimates,
        [0, 80036, 26685, 13198, 8082, 5406, 2845, 1503, 154, 5, 91, 2]
    );
    assert_eq!(cus.size_bytes(), 1152);
}

#[test]
fn cold_filter_baseline() {
    let mut cf = ColdFilter::baseline(2, 256, 2, 64, 32, SEED);
    let estimates = observe(&mut cf, |s, i| s.update(i, 1), |s, k| s.estimate(k));
    assert_eq!(
        estimates,
        [2, 80036, 26685, 13198, 8082, 5406, 2845, 1503, 159, 10, 132, 5]
    );
    assert_eq!(cf.size_bytes(), 768);
}

#[test]
fn cold_filter_salsa() {
    let mut cf = ColdFilter::salsa(2, 256, 2, 256, 8, SEED);
    let estimates = observe(&mut cf, |s, i| s.update(i, 1), |s, k| s.estimate(k));
    assert_eq!(
        estimates,
        [2, 80036, 26685, 13198, 8082, 5406, 2845, 1503, 154, 10, 105, 5]
    );
    assert_eq!(cf.size_bytes(), 832);
}

#[test]
fn aee_max_accuracy() {
    let mut aee = AeeCountMin::max_accuracy(4, 64, 8, SEED);
    let estimates = observe(&mut aee, |s, i| s.update(i, 1), |s, k| s.estimate(k));
    assert_eq!(
        estimates,
        [0, 78336, 27648, 9728, 7168, 3072, 512, 1024, 0, 0, 0, 0]
    );
    assert_eq!(aee.size_bytes(), 256);
    assert_eq!(aee.sampling_probability(), 1.0 / 512.0);
}

#[test]
fn aee_max_speed() {
    let mut aee = AeeCountMin::max_speed(4, 64, 8, 500, SEED);
    let estimates = observe(&mut aee, |s, i| s.update(i, 1), |s, k| s.estimate(k));
    assert_eq!(
        estimates,
        [0, 70144, 27648, 13312, 5120, 4608, 1024, 512, 0, 0, 0, 0]
    );
    assert_eq!(aee.size_bytes(), 256);
    assert_eq!(aee.sampling_probability(), 1.0 / 512.0);
}

#[test]
fn salsa_aee_plain() {
    let mut aee = SalsaAee::with_dimensions(4, 1024, SEED);
    let estimates = observe(&mut aee, |s, i| s.update(i, 1), |s, k| s.estimate(k));
    assert_eq!(
        estimates,
        [0, 79412, 26588, 13132, 8012, 5400, 2760, 1484, 168, 2, 80, 0]
    );
    assert_eq!(aee.size_bytes(), 4608);
    assert_eq!(aee.sampling_probability(), 0.5);
    assert_eq!(aee.downsample_events(), 1);
}

#[test]
fn salsa_aee_speed_variant() {
    let mut aee = SalsaAee::speed_variant(4, 1024, 10, SEED);
    let estimates = observe(&mut aee, |s, i| s.update(i, 1), |s, k| s.estimate(k));
    assert_eq!(
        estimates,
        [0, 72704, 21504, 11776, 6656, 3072, 2048, 1024, 512, 0, 0, 0]
    );
    assert_eq!(aee.size_bytes(), 4608);
    assert_eq!(aee.sampling_probability(), 1.0 / 512.0);
    assert_eq!(aee.downsample_events(), 9);
}

#[test]
fn salsa_aee_split() {
    let mut config = SalsaAeeConfig::new(4, 1024);
    config.force_downsample_first = 2;
    config.split_after_downsample = true;
    let mut aee = SalsaAee::new(config, SEED);
    let estimates = observe(&mut aee, |s, i| s.update(i, 1), |s, k| s.estimate(k));
    assert_eq!(
        estimates,
        [0, 79780, 26660, 13468, 7968, 5520, 2864, 1484, 148, 8, 96, 0]
    );
    assert_eq!(aee.size_bytes(), 4608);
    assert_eq!(aee.sampling_probability(), 0.25);
    assert_eq!(aee.downsample_events(), 2);
}

/// The Count Sketch's history on the stream: `sketch` ingests the first
/// half, takes a pass of negative updates over every fifth item of it,
/// merges a second sketch over the second half and subtracts a third over
/// the middle 60,000 items.  Returns the estimates of [`KEYS`].
fn count_sketch_history<R>(make: impl Fn() -> CountSketch<R>) -> (CountSketch<R>, Vec<i64>)
where
    R: SignedRow + RowMerge + Send + 'static,
{
    let stream = stream();
    let mut sketch = make();
    sketch.ingest(&stream[..80_000]);
    for &item in stream[..80_000].iter().step_by(5) {
        sketch.update(item, -2);
    }
    let mut second = make();
    second.ingest(&stream[80_000..]);
    sketch.merge_from(&second);
    let mut third = make();
    third.ingest(&stream[40_000..100_000]);
    sketch.subtract(&third);
    let estimates = KEYS.iter().map(|&key| sketch.estimate(key)).collect();
    (sketch, estimates)
}

/// The layout of each row of a SALSA Count Sketch: its number of counters
/// and its largest counter level.
fn layouts<E: MergeEncoding>(sketch: &CountSketch<SalsaSignedRow<E>>) -> Vec<(usize, u32)> {
    sketch
        .rows()
        .iter()
        .map(|row| {
            let levels = row.counters().map(|(_, level, _)| level);
            levels.fold((0, 0), |(count, max), level| (count + 1, max.max(level)))
        })
        .collect()
}

#[test]
fn count_sketch_baseline() {
    let (cs, estimates) = count_sketch_history(|| CountSketch::baseline(4, 64, 32, SEED));
    assert_eq!(
        estimates,
        [5, 33919, 11444, 5573, 3416, 2225, 1104, 636, 122, 37, 3, -4]
    );
    assert_eq!(cs.size_bytes(), 1024);
}

#[test]
fn count_sketch_salsa() {
    let (cs, estimates) = count_sketch_history(|| CountSketch::salsa(4, 256, 8, SEED));
    assert_eq!(
        estimates,
        [0, 33854, 11431, 5601, 3417, 2313, 1117, 680, 83, -16, 29, 1]
    );
    assert_eq!(cs.size_bytes(), 1152);
    assert_eq!(layouts(&cs), [(229, 2), (227, 2), (229, 2), (227, 2)]);
}

#[test]
fn count_sketch_salsa_compact() {
    let (cs, estimates) = count_sketch_history(|| CountSketch::salsa_compact(4, 256, 8, SEED));
    assert_eq!(
        estimates,
        [0, 33854, 11431, 5601, 3417, 2313, 1117, 680, 83, -16, 29, 1]
    );
    assert_eq!(cs.size_bytes(), 1100);
    assert_eq!(layouts(&cs), [(229, 2), (227, 2), (229, 2), (227, 2)]);
}

/// Compared as bit patterns: a refactor of the signed rows must not move
/// the recursive estimator's floating-point sums by even one ulp.
#[test]
fn univmon_salsa() {
    let stream = stream();
    let mut um = UnivMon::salsa(6, 4, 1024, 8, 64, SEED);
    um.ingest(&stream[..80_000]);
    let mut second = UnivMon::salsa(6, 4, 1024, 8, 64, SEED);
    second.ingest(&stream[80_000..]);
    um.merge_from(&second);
    assert_eq!(um.entropy().to_bits(), 2.935621057391174f64.to_bits());
    assert_eq!(um.fp_moment(2.0).to_bits(), 7425035910.0f64.to_bits());
    assert_eq!(um.distinct().to_bits(), 552.0f64.to_bits());
    assert_eq!(um.size_bytes(), 27648);
}
