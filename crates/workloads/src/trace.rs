//! Named workloads: synthetic stand-ins for the paper's evaluation traces.
//!
//! The four real traces used in the paper are not redistributable, so each
//! [`TraceSpec`] generates a synthetic stream matching the statistics the
//! paper reports for the corresponding trace, as the substitution table
//! below lists:
//!
//! | Spec | Stands in for | Universe | Skew |
//! |------|---------------|----------|------|
//! | `CaidaNy18` | CAIDA Equinix-NewYork 2018 backbone trace | 6.5 M flows | α ≈ 1.0 |
//! | `CaidaCh16` | CAIDA Equinix-Chicago 2016 backbone trace | 2.5 M flows | α ≈ 1.05 |
//! | `Univ2` | University datacenter trace (low skew) | 1 M flows | α ≈ 0.7 |
//! | `YouTube` | Kaggle trending-videos view counts (i.i.d. by popularity) | 40 K videos | α ≈ 0.9 |
//! | `Zipf { .. }` | the paper's synthetic Zipf traces | configurable | configurable |
//!
//! Item identifiers are scrambled (multiplied by a large odd constant) so
//! that rank order does not correlate with the item id bit patterns handed
//! to the sketches' hash functions.

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::zipf::ZipfDistribution;

/// A named workload specification.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TraceSpec {
    /// A synthetic Zipf trace with an explicit universe size and skew.
    Zipf {
        /// Number of distinct items.
        universe: usize,
        /// Zipf exponent (α).
        skew: f64,
    },
    /// Stand-in for the CAIDA Equinix-NewYork 2018 backbone trace.
    CaidaNy18,
    /// Stand-in for the CAIDA Equinix-Chicago 2016 backbone trace.
    CaidaCh16,
    /// Stand-in for the Univ2 datacenter trace (low skew).
    Univ2,
    /// Stand-in for the Kaggle YouTube trending-videos trace (items sampled
    /// i.i.d. by view count).
    YouTube,
}

impl TraceSpec {
    /// The universe size (number of distinct items the generator draws from).
    pub fn universe(&self) -> usize {
        match self {
            TraceSpec::Zipf { universe, .. } => *universe,
            TraceSpec::CaidaNy18 => 6_500_000,
            TraceSpec::CaidaCh16 => 2_500_000,
            TraceSpec::Univ2 => 1_000_000,
            TraceSpec::YouTube => 40_000,
        }
    }

    /// The Zipf exponent used by the stand-in generator.
    pub fn skew(&self) -> f64 {
        match self {
            TraceSpec::Zipf { skew, .. } => *skew,
            TraceSpec::CaidaNy18 => 1.0,
            TraceSpec::CaidaCh16 => 1.05,
            TraceSpec::Univ2 => 0.7,
            TraceSpec::YouTube => 0.9,
        }
    }

    /// A short name used in experiment output.
    pub fn name(&self) -> String {
        match self {
            TraceSpec::Zipf { skew, .. } => format!("Zipf({skew:.2})"),
            TraceSpec::CaidaNy18 => "NY18".to_string(),
            TraceSpec::CaidaCh16 => "CH16".to_string(),
            TraceSpec::Univ2 => "Univ2".to_string(),
            TraceSpec::YouTube => "YouTube".to_string(),
        }
    }

    /// The four stand-ins for the paper's real traces, in the order the
    /// figures present them.
    pub fn real_trace_standins() -> [TraceSpec; 4] {
        [
            TraceSpec::CaidaNy18,
            TraceSpec::CaidaCh16,
            TraceSpec::Univ2,
            TraceSpec::YouTube,
        ]
    }

    /// Generates a trace of `len` unit-weight updates with the given seed.
    pub fn generate(&self, len: usize, seed: u64) -> Trace {
        // Cap the effective universe so that small test traces do not pay a
        // multi-million-entry alias-table setup for items they will never
        // draw anyway: a stream of `len` samples effectively touches at most
        // a few times `len` distinct ranks.
        let universe = self.universe().min((len.max(1)).saturating_mul(4)).max(2);
        let zipf = ZipfDistribution::new(universe, self.skew());
        let mut rng = StdRng::seed_from_u64(seed ^ 0x7ACE_5EED);
        let mut items = Vec::with_capacity(len);
        for _ in 0..len {
            let rank = zipf.sample(&mut rng);
            items.push(scramble(rank));
        }
        Trace { spec: *self, items }
    }
}

/// Maps a popularity rank to a scrambled, stable item identifier.
#[inline]
fn scramble(rank: u64) -> u64 {
    // A fixed odd multiplier: a bijection on u64 that decorrelates rank order
    // from identifier bit patterns.
    rank.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x0123_4567_89AB_CDEF
}

/// A generated trace: a sequence of item identifiers (unit-weight updates).
#[derive(Debug, Clone)]
pub struct Trace {
    spec: TraceSpec,
    items: Vec<u64>,
}

impl Trace {
    /// The specification this trace was generated from.
    pub fn spec(&self) -> TraceSpec {
        self.spec
    }

    /// The item identifiers, in arrival order.
    pub fn items(&self) -> &[u64] {
        &self.items
    }

    /// Number of updates.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// `true` if the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn generation_is_deterministic() {
        let spec = TraceSpec::Zipf {
            universe: 1000,
            skew: 1.0,
        };
        let a = spec.generate(5_000, 3);
        let b = spec.generate(5_000, 3);
        assert_eq!(a.items(), b.items());
        let c = spec.generate(5_000, 4);
        assert_ne!(a.items(), c.items());
    }

    #[test]
    fn standins_have_expected_relative_skew() {
        // Univ2 (low skew) should have many more distinct items than NY18 at
        // the same stream length — the property behind "SALSA's gains are
        // smaller on Univ2".
        let len = 100_000;
        let distinct = |t: &Trace| {
            let mut m: HashMap<u64, u64> = HashMap::new();
            for &i in t.items() {
                *m.entry(i).or_insert(0) += 1;
            }
            m.len()
        };
        let ny = distinct(&TraceSpec::CaidaNy18.generate(len, 1));
        let univ = distinct(&TraceSpec::Univ2.generate(len, 1));
        assert!(univ as f64 > ny as f64 * 1.3, "Univ2 {univ} vs NY18 {ny}");
    }

    #[test]
    fn youtube_universe_is_small() {
        let t = TraceSpec::YouTube.generate(50_000, 9);
        let distinct: std::collections::HashSet<_> = t.items().iter().collect();
        assert!(distinct.len() <= 40_000);
    }

    #[test]
    fn heavy_hitters_exist_in_skewed_traces() {
        let t = TraceSpec::CaidaNy18.generate(200_000, 5);
        let mut m: HashMap<u64, u64> = HashMap::new();
        for &i in t.items() {
            *m.entry(i).or_insert(0) += 1;
        }
        let max = *m.values().max().unwrap();
        // The heaviest flow should hold a visible fraction of the stream.
        assert!(max > 200_000 / 100, "max flow only {max}");
    }

    #[test]
    fn scrambled_ids_are_stable_across_traces() {
        // The same rank maps to the same identifier in different runs, so
        // ground truth can be compared across trials.
        let a = TraceSpec::CaidaCh16.generate(10_000, 1);
        let b = TraceSpec::CaidaCh16.generate(10_000, 2);
        let set_a: std::collections::HashSet<_> = a.items().iter().collect();
        let set_b: std::collections::HashSet<_> = b.items().iter().collect();
        assert!(set_a.intersection(&set_b).count() > 0);
    }

    #[test]
    fn names_and_parameters() {
        assert_eq!(TraceSpec::CaidaNy18.name(), "NY18");
        assert_eq!(
            TraceSpec::Zipf {
                universe: 10,
                skew: 0.75
            }
            .name(),
            "Zipf(0.75)"
        );
        assert_eq!(TraceSpec::CaidaNy18.universe(), 6_500_000);
        assert!(TraceSpec::Univ2.skew() < TraceSpec::CaidaCh16.skew());
    }

    #[test]
    fn empty_trace_is_supported() {
        let t = TraceSpec::YouTube.generate(0, 1);
        assert!(t.is_empty());
        assert_eq!(t.len(), 0);
    }
}
