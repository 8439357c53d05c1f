//! Log-bucketed latency histograms.
//!
//! Mean response time (the paper's Fig. 10 metric) hides tail behaviour —
//! and recovery workloads have heavy tails: a chunk read behind a deep
//! disk queue waits many service times. [`Histogram`] records every
//! response in logarithmic buckets (~9% relative width) so the engine can
//! report p50/p90/p95/p99/p999 alongside the mean at negligible cost.
//!
//! The bucketing itself lives in [`fbf_obs::digest::Digest`] — the
//! mergeable `fbf-metrics` digest — and this type is a [`SimTime`]-typed
//! wrapper over it. Same math, same buckets, same quantile estimates as
//! before the extraction (the `bucket_edges_pinned` test pins that), plus
//! the digest's guarantees: deterministic associative merge and exact
//! count conservation, so per-worker histograms recorded independently
//! combine at sweep gather time into exactly the serial-run histogram.

use crate::time::SimTime;
use fbf_obs::digest::Digest;

/// A fixed-size logarithmic histogram of time spans.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Histogram {
    digest: Digest,
}

impl Histogram {
    /// Empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    #[cfg(test)]
    fn bucket_of(t: SimTime) -> usize {
        Digest::bucket_of_ns(t.as_nanos())
    }

    #[cfg(test)]
    fn bucket_value(bucket: usize) -> SimTime {
        SimTime::from_nanos(Digest::bucket_upper_ns(bucket))
    }

    /// Record one span.
    pub fn record(&mut self, t: SimTime) {
        self.digest.record_ns(t.as_nanos());
    }

    /// Number of recorded spans.
    pub fn count(&self) -> u64 {
        self.digest.count()
    }

    /// The `q`-quantile (0 < q <= 1) as a bucket-resolution estimate;
    /// `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<SimTime> {
        self.digest.quantile_ns(q).map(SimTime::from_nanos)
    }

    /// Median.
    pub fn p50(&self) -> Option<SimTime> {
        self.quantile(0.50)
    }

    /// 90th percentile.
    pub fn p90(&self) -> Option<SimTime> {
        self.quantile(0.90)
    }

    /// 95th percentile.
    pub fn p95(&self) -> Option<SimTime> {
        self.quantile(0.95)
    }

    /// 99th percentile.
    pub fn p99(&self) -> Option<SimTime> {
        self.quantile(0.99)
    }

    /// 99.9th percentile — the deep tail the paper's mean metric hides.
    pub fn p999(&self) -> Option<SimTime> {
        self.quantile(0.999)
    }

    /// Merge another histogram in (associative and commutative; counts
    /// are conserved exactly).
    pub fn merge(&mut self, other: &Histogram) {
        self.digest.merge(&other.digest);
    }

    /// The underlying mergeable digest (SLO evaluation, Prometheus
    /// exposition).
    pub fn digest(&self) -> &Digest {
        &self.digest
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fbf_obs::digest::{BUCKETS, SUB_BUCKETS};

    #[test]
    fn empty_has_no_quantiles() {
        let h = Histogram::new();
        assert_eq!(h.p50(), None);
        assert_eq!(h.count(), 0);
    }

    #[test]
    fn single_value_quantiles() {
        let mut h = Histogram::new();
        h.record(SimTime::from_millis(10));
        let p50 = h.p50().unwrap();
        // Bucket resolution ~9%.
        let err = (p50.as_millis_f64() - 10.0).abs() / 10.0;
        assert!(err < 0.15, "p50 {} vs 10ms", p50);
        assert_eq!(h.p50(), h.p99());
    }

    #[test]
    fn quantiles_order() {
        let mut h = Histogram::new();
        for i in 1..=1000u64 {
            h.record(SimTime::from_micros(i * 10));
        }
        let (p50, p95, p99) = (h.p50().unwrap(), h.p95().unwrap(), h.p99().unwrap());
        assert!(p50 <= p95 && p95 <= p99);
        assert!(h.p90().unwrap() <= p95);
        assert!(p99 <= h.p999().unwrap());
        // p50 ≈ 5 ms, p99 ≈ 9.9 ms.
        assert!((p50.as_millis_f64() - 5.0).abs() < 1.0, "p50 {}", p50);
        assert!((p99.as_millis_f64() - 9.9).abs() < 1.5, "p99 {}", p99);
    }

    #[test]
    fn heavy_tail_visible() {
        let mut h = Histogram::new();
        for _ in 0..99 {
            h.record(SimTime::from_millis(1));
        }
        h.record(SimTime::from_secs(1));
        assert!(h.p50().unwrap() < SimTime::from_millis(2));
        assert!(h.p99().unwrap() < SimTime::from_secs(2));
        assert!(h.quantile(1.0).unwrap() >= SimTime::from_millis(900));
    }

    #[test]
    fn merge_adds_counts() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record(SimTime::from_millis(1));
        b.record(SimTime::from_millis(100));
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert!(a.quantile(1.0).unwrap() > SimTime::from_millis(50));
    }

    #[test]
    fn bucket_edges_pinned() {
        let b = |ns: u64| Histogram::bucket_of(SimTime::from_nanos(ns));
        // Decade lz=0 (1 ns): no sub-resolution possible.
        assert_eq!(b(0), 0, "0 clamps to 1 ns");
        assert_eq!(b(1), 0);
        // Decade lz=1 (2..4 ns): 2 values over 8 sub-buckets.
        assert_eq!(b(2), 8);
        assert_eq!(b(3), 12);
        // Decade lz=2 (4..8 ns): 4 values, every other sub-bucket.
        assert_eq!(b(4), 16);
        assert_eq!(b(5), 18);
        assert_eq!(b(6), 20);
        assert_eq!(b(7), 22);
        // From 8 ns up, full 8-way sub-resolution.
        assert_eq!(b(8), 24);
        assert_eq!(b(9), 25);
        assert_eq!(b(15), 31);
        assert_eq!(b(16), 32);
        // Every power of two starts its decade.
        for lz in 0..40usize {
            assert_eq!(b(1u64 << lz), lz * SUB_BUCKETS, "2^{lz}");
        }
    }

    #[test]
    fn bucket_of_is_monotonic() {
        let mut prev = 0usize;
        for ns in 1..=65_536u64 {
            let bucket = Histogram::bucket_of(SimTime::from_nanos(ns));
            assert!(
                bucket >= prev,
                "bucket_of({ns}) = {bucket} < bucket_of({}) = {prev}",
                ns - 1
            );
            prev = bucket;
        }
    }

    #[test]
    fn bucket_value_is_an_upper_edge() {
        // Each recorded value must not exceed its bucket's representative
        // upper edge — quantile estimates then never under-report.
        for ns in 1..=4_096u64 {
            let bucket = Histogram::bucket_of(SimTime::from_nanos(ns));
            let edge = Histogram::bucket_value(bucket).as_nanos();
            assert!(edge >= ns, "bucket_value({bucket}) = {edge} < {ns}");
        }
    }

    #[test]
    fn sub_nanosecond_decades_resolve() {
        // The old math collapsed everything under 8 ns into its decade's
        // first sub-bucket; 3, 6, and 7 ns must now resolve distinctly.
        let b = |ns: u64| Histogram::bucket_of(SimTime::from_nanos(ns));
        assert_ne!(b(2), b(3));
        assert_ne!(b(4), b(6));
        assert_ne!(b(6), b(7));
    }

    #[test]
    fn tiny_and_huge_values_clamp() {
        let mut h = Histogram::new();
        h.record(SimTime::from_nanos(0));
        h.record(SimTime::from_secs(1 << 20));
        assert_eq!(h.count(), 2);
        assert!(h.p50().is_some());
        let _ = BUCKETS; // dimension re-exported from the digest
    }

    #[test]
    fn wrapper_exposes_the_digest() {
        let mut h = Histogram::new();
        h.record(SimTime::from_millis(3));
        assert_eq!(h.digest().count(), 1);
        assert_eq!(h.digest().sum_ns(), 3_000_000);
    }

    #[test]
    fn u64_max_is_a_real_upper_edge() {
        // Regression: the overflow bucket used to report its decade's
        // arithmetic edge (~2^40), silently under-reporting any clamped
        // sample. Its edge is now u64::MAX.
        let mut h = Histogram::new();
        h.record(SimTime::from_nanos(u64::MAX));
        assert_eq!(h.quantile(1.0), Some(SimTime::from_nanos(u64::MAX)));
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        /// Nanosecond samples biased toward the edges the bucketing math
        /// has to get right: tiny decades, decade boundaries, the top
        /// (overflow) bucket, and u64::MAX itself.
        fn edge_ns() -> impl Strategy<Value = u64> {
            prop_oneof![
                0u64..=16,
                0u64..=u64::MAX,
                (0u32..64).prop_map(|s| 1u64 << s),
                (0u32..64).prop_map(|s| (1u64 << s).wrapping_sub(1)),
                Just(u64::MAX),
                Just(u64::MAX - 1),
            ]
        }

        proptest! {
            #[test]
            fn quantiles_never_under_report(samples in proptest::collection::vec(edge_ns(), 1..64)) {
                let mut h = Histogram::new();
                for &ns in &samples {
                    h.record(SimTime::from_nanos(ns));
                }
                let max = samples.iter().copied().max().unwrap().max(1);
                // Every recorded value is <= its bucket's upper edge, so
                // the top quantile dominates the true max (values below
                // 1 ns clamp up to 1).
                prop_assert!(h.quantile(1.0).unwrap().as_nanos() >= max);
                prop_assert_eq!(h.count(), samples.len() as u64);
            }

            #[test]
            fn merge_is_lossless_and_order_free(
                xs in proptest::collection::vec(edge_ns(), 0..48),
                ys in proptest::collection::vec(edge_ns(), 0..48),
            ) {
                let mut together = Histogram::new();
                let mut a = Histogram::new();
                let mut b = Histogram::new();
                for &ns in &xs {
                    together.record(SimTime::from_nanos(ns));
                    a.record(SimTime::from_nanos(ns));
                }
                for &ns in &ys {
                    together.record(SimTime::from_nanos(ns));
                    b.record(SimTime::from_nanos(ns));
                }
                // Either merge direction — including when a side is
                // empty — must reproduce the serial recording exactly.
                let mut ab = a.clone();
                ab.merge(&b);
                let mut ba = b.clone();
                ba.merge(&a);
                prop_assert_eq!(&ab, &together);
                prop_assert_eq!(&ba, &together);
            }

            #[test]
            fn bucket_of_is_monotonic_at_random_points(a in 0u64..=u64::MAX, b in 0u64..=u64::MAX) {
                let (lo, hi) = (a.min(b), a.max(b));
                prop_assert!(
                    Histogram::bucket_of(SimTime::from_nanos(lo))
                        <= Histogram::bucket_of(SimTime::from_nanos(hi))
                );
            }

            #[test]
            fn bucket_value_dominates_its_members(ns in edge_ns()) {
                let bucket = Histogram::bucket_of(SimTime::from_nanos(ns));
                let edge = Histogram::bucket_value(bucket).as_nanos();
                prop_assert!(edge >= ns.max(1), "bucket_value({bucket}) = {edge} < {ns}");
            }
        }
    }
}
