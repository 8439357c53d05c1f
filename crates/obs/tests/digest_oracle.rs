//! Differential test of [`Digest`] against the fixed 320-bucket digest
//! it replaced.
//!
//! `Digest` keeps counts only for the span of buckets it occupies. The
//! oracle below is the plain layout — one counter per bucket, always all
//! of them — with the same bucketing functions, so every observable
//! answer must agree exactly: counts, sums, quantiles, occupied buckets
//! and equality. Random sample sets are split into shards and merged back
//! in a random tree, checking agreement after every merge.

use fbf_obs::digest::{Digest, BUCKETS};
use proptest::prelude::*;

/// The fixed-size digest: a counter for every one of the [`BUCKETS`].
#[derive(Debug, Clone, PartialEq, Eq)]
struct Fixed {
    counts: Vec<u64>,
    total: u64,
    sum_ns: u128,
}

impl Fixed {
    fn new() -> Self {
        Fixed {
            counts: vec![0; BUCKETS],
            total: 0,
            sum_ns: 0,
        }
    }

    fn record_ns(&mut self, ns: u64) {
        self.counts[Digest::bucket_of_ns(ns)] += 1;
        self.total += 1;
        self.sum_ns += ns as u128;
    }

    fn quantile_ns(&self, q: f64) -> Option<u64> {
        if self.total == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((self.total as f64 * q).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(Digest::bucket_upper_ns(i));
            }
        }
        Some(Digest::bucket_upper_ns(BUCKETS - 1))
    }

    fn merge(&mut self, other: &Fixed) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
        self.sum_ns += other.sum_ns;
    }

    fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        self.counts
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c > 0)
            .map(|(i, &c)| (Digest::bucket_upper_ns(i), c))
            .collect()
    }
}

/// A digest and its oracle, fed the same samples.
#[derive(Debug, Clone)]
struct Pair {
    digest: Digest,
    oracle: Fixed,
}

impl Pair {
    fn new() -> Self {
        Pair {
            digest: Digest::new(),
            oracle: Fixed::new(),
        }
    }

    fn record_ns(&mut self, ns: u64) {
        self.digest.record_ns(ns);
        self.oracle.record_ns(ns);
    }

    fn merge(&mut self, other: &Pair) {
        self.digest.merge(&other.digest);
        self.oracle.merge(&other.oracle);
    }

    /// Every observable answer agrees with the oracle's.
    fn check(&self, extra_q: f64) {
        let (d, o) = (&self.digest, &self.oracle);
        assert_eq!(d.count(), o.total);
        assert_eq!(d.sum_ns(), o.sum_ns);
        assert_eq!(d.is_empty(), o.total == 0);
        assert_eq!(d.nonzero_buckets().collect::<Vec<_>>(), o.nonzero_buckets());
        for q in [0.0, 1e-9, 0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0, extra_q] {
            assert_eq!(d.quantile_ns(q), o.quantile_ns(q), "q = {q}");
        }
    }
}

/// A sample around decade `base`, spread over `spread + 1` decades, with
/// the occasional 0 and `u64::MAX` (both ends of the bucket range).
fn sample((base, spread): (u8, u8), (exp, raw): (u8, u64)) -> u64 {
    match raw % 97 {
        0 => 0,
        1 => u64::MAX,
        _ => {
            let exp = (base + exp % (spread + 1)).min(63);
            (1u64 << exp) | (raw & ((1u64 << exp) - 1))
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn merge_trees_agree_with_the_fixed_oracle(
        shape in (0u8..48, 0u8..12),
        samples in proptest::collection::vec((0u8..16, 0u64..u64::MAX, 0usize..6), 0..160),
        picks in proptest::collection::vec(0usize..1024, 12..13),
        extra in (1u64..10_000, 0u64..u64::MAX),
    ) {
        let extra_q = extra.0 as f64 / 10_000.0;
        let values: Vec<(u64, usize)> = samples
            .iter()
            .map(|&(exp, raw, shard)| (sample(shape, (exp, raw)), shard))
            .collect();

        // One pair per shard (some stay empty), each recorded in order.
        let mut live: Vec<Pair> = vec![Pair::new(); 6];
        for &(v, shard) in &values {
            live[shard].record_ns(v);
        }
        for leaf in &live {
            leaf.check(extra_q);
        }
        // Equality means the same samples, on both sides.
        for a in &live {
            for b in &live {
                prop_assert_eq!(a.digest == b.digest, a.oracle == b.oracle);
            }
        }

        // Merge the shards back in a random tree.
        let mut picks = picks.iter().cycle();
        while live.len() > 1 {
            let from = live.swap_remove(picks.next().unwrap() % live.len());
            let into = picks.next().unwrap() % live.len();
            live[into].merge(&from);
            live[into].check(extra_q);
        }
        let merged = live.pop().unwrap();

        // The tree equals one serial recording in reverse order, and
        // differs from it once one more sample is added.
        let mut serial = Pair::new();
        for &(v, _) in values.iter().rev() {
            serial.record_ns(v);
        }
        prop_assert_eq!(&merged.digest, &serial.digest);
        prop_assert_eq!(&merged.oracle, &serial.oracle);
        serial.record_ns(extra.1);
        prop_assert_ne!(&merged.digest, &serial.digest);
        serial.check(extra_q);
    }
}
