//! Mergeable log-linear latency digests and the request-class taxonomy —
//! the `fbf-metrics` layer.
//!
//! The paper's headline claims are *tail* claims: FBF wins by cutting
//! recovery read cost, which shows up at p99/p999 under mixed traffic. A
//! mean hides that; a sorted vector of every sample does not scale to
//! sweep campaigns. [`Digest`] is the middle ground: HDR-histogram-style
//! fixed log-linear bucketing (8 sub-buckets per power of two, covering
//! 1 ns .. 2^40 ns) with *deterministic, associative, commutative* merge —
//! per-worker digests recorded independently combine at sweep gather time
//! into exactly the digest a serial run would have produced.
//!
//! Invariants the property tests pin:
//!
//! * **Exact counts** — `count()` equals the number of `record_ns` calls,
//!   conserved by `merge` (element-wise addition can neither lose nor
//!   invent samples).
//! * **Deterministic merge** — merge is associative and commutative up to
//!   equality of the whole digest, not just its quantiles.
//! * **Bounded error** — every quantile estimate is the *upper edge* of
//!   the sample's bucket: never an under-report, and within one bucket
//!   (~9% relative width) of the sorted-vector oracle.
//!
//! The bucketing math here is the single source of truth: the simulator's
//! run report keeps its per-class read latencies as `Digest`s of
//! nanoseconds, so engine quantiles, sweep CSVs and Prometheus exposition
//! all agree bit-for-bit.

use std::collections::VecDeque;

/// Sub-buckets per power of two — 2^(1/8) spacing ≈ 9% relative resolution.
const SUB_BUCKETS: usize = 8;
/// Covers 1 ns .. ~2^40 ns (≈ 18 minutes) of latency.
pub const BUCKETS: usize = 40 * SUB_BUCKETS;

/// Who issued a request, on the virtual clock. Every engine completion is
/// tagged with its worker script's class so latency digests attribute
/// tail behaviour to the traffic that caused it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum RequestClass {
    /// Foreground application I/O (including degraded reads it triggers).
    App,
    /// Planned reconstruction reads of the original repair campaign.
    #[default]
    Recovery,
    /// Escalation rounds: reads issued by re-planned repairs after hard
    /// failures.
    Replan,
}

impl RequestClass {
    /// Number of classes (array dimension for per-class state).
    pub const COUNT: usize = 3;

    /// Every class, in index order.
    pub const ALL: [RequestClass; Self::COUNT] = [
        RequestClass::App,
        RequestClass::Recovery,
        RequestClass::Replan,
    ];

    /// Dense index for per-class arrays.
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// Lower-case label (stable: used as a Prometheus label value).
    pub fn name(self) -> &'static str {
        match self {
            RequestClass::App => "app",
            RequestClass::Recovery => "recovery",
            RequestClass::Replan => "replan",
        }
    }
}

impl std::fmt::Display for RequestClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A mergeable log-linear histogram of nanosecond values.
///
/// Counts are kept only for the *span* from the lowest to the highest
/// occupied bucket, so a digest costs what it holds: an empty one
/// allocates nothing, and a run whose reads all land within a few decades
/// keeps a few dozen counters, not [`BUCKETS`]. The span is canonical —
/// both its end buckets are occupied, and an empty digest has no span —
/// so the derived equality still means "the same samples".
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Digest {
    /// Bucket index of `counts[0]` (0 while empty).
    lo: usize,
    /// Counts of buckets `lo .. lo + counts.len()`. A deque, so a new
    /// lowest bucket grows the span at the front without shifting it.
    counts: VecDeque<u64>,
    total: u64,
    /// Exact sum of recorded values (Prometheus `_sum`); u128 so a digest
    /// can absorb 2^64 samples of 2^40 ns without overflow.
    sum_ns: u128,
}

impl Digest {
    /// Empty digest.
    pub fn new() -> Self {
        Self::default()
    }

    /// The bucket a nanosecond value lands in.
    ///
    /// `log2(ns) * SUB_BUCKETS`, computed in integer arithmetic: the
    /// exponent picks the power-of-two decade, the 3 bits below the
    /// leading bit pick the sub-bucket. Values below 8 ns have fewer than
    /// 3 bits after the leading one, so the fraction is scaled *up*
    /// instead — `(ns - base) * 8 / base` — which keeps the mapping
    /// monotonic instead of collapsing 1..8 ns into the bottom sub-bucket
    /// of each decade.
    #[inline]
    pub fn bucket_of_ns(ns: u64) -> usize {
        let ns = ns.max(1);
        let lz = 63 - ns.leading_zeros() as usize; // floor(log2)
        let base = 1u64 << lz;
        let sub = if lz >= 3 {
            ((ns >> (lz - 3)) - 8) as usize
        } else {
            (((ns - base) << 3) >> lz) as usize
        };
        let sub = sub.min(SUB_BUCKETS - 1);
        (lz * SUB_BUCKETS + sub).min(BUCKETS - 1)
    }

    /// Representative (upper-edge) value of a bucket, in nanoseconds.
    /// Quantile estimates never under-report because every recorded value
    /// is at most its bucket's upper edge. The last bucket is the
    /// overflow bucket — `bucket_of_ns` clamps everything past the top
    /// decade (up to `u64::MAX`) into it, so its upper edge is
    /// `u64::MAX`, not the top decade's arithmetic edge: reporting ~2^40
    /// for a sample that may be 2^63 would under-report the tail.
    #[inline]
    pub fn bucket_upper_ns(bucket: usize) -> u64 {
        if bucket >= BUCKETS - 1 {
            return u64::MAX;
        }
        let exp = bucket / SUB_BUCKETS;
        let sub = bucket % SUB_BUCKETS;
        let base = 1u64 << exp.min(62);
        // base * (1 + (sub+1)/8), in u128 so small decades don't round
        // the fractional step to zero.
        let edge = base as u128 + (base as u128 * (sub as u128 + 1)) / SUB_BUCKETS as u128;
        edge.min(u64::MAX as u128) as u64
    }

    /// Record one nanosecond value.
    #[inline]
    pub fn record_ns(&mut self, ns: u64) {
        let bucket = Self::bucket_of_ns(ns);
        let at = match bucket.checked_sub(self.lo) {
            Some(at) if at < self.counts.len() => at,
            _ => self.widen(bucket, bucket),
        };
        self.counts[at] += 1;
        self.total += 1;
        self.sum_ns += ns as u128;
    }

    /// Grow the span to cover buckets `lo ..= hi` with zero counts, and
    /// return the offset of `lo` in it.
    fn widen(&mut self, lo: usize, hi: usize) -> usize {
        if self.counts.is_empty() {
            self.lo = lo;
        }
        if lo < self.lo {
            self.counts.reserve(self.lo - lo);
            for _ in lo..self.lo {
                self.counts.push_front(0);
            }
            self.lo = lo;
        }
        let len = hi + 1 - self.lo;
        if self.counts.len() < len {
            self.counts.resize(len, 0);
        }
        lo - self.lo
    }

    /// Number of recorded values.
    #[inline]
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Exact sum of recorded values, nanoseconds.
    pub fn sum_ns(&self) -> u128 {
        self.sum_ns
    }

    /// No values recorded?
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// The `q`-quantile (0 < q <= 1) as a bucket-upper-edge estimate in
    /// nanoseconds; `None` when empty.
    pub fn quantile_ns(&self, q: f64) -> Option<u64> {
        if self.total == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((self.total as f64 * q).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (&c, bucket) in self.counts.iter().zip(self.lo..) {
            seen += c;
            if seen >= rank {
                return Some(Self::bucket_upper_ns(bucket));
            }
        }
        Some(Self::bucket_upper_ns(BUCKETS - 1))
    }

    /// Merge another digest in. Element-wise addition over the union of
    /// the two spans: associative, commutative, conserves `count()` and
    /// `sum_ns()` exactly.
    pub fn merge(&mut self, other: &Digest) {
        if other.counts.is_empty() {
            return;
        }
        let at = self.widen(other.lo, other.lo + other.counts.len() - 1);
        for (a, b) in self.counts.iter_mut().skip(at).zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
        self.sum_ns += other.sum_ns;
    }

    /// Occupied buckets in ascending order: `(upper_edge_ns, count)`.
    /// `fbf_core::prom` turns these into cumulative `le` buckets.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.counts
            .iter()
            .zip(self.lo..)
            .filter(|&(&c, _)| c > 0)
            .map(|(&c, bucket)| (Self::bucket_upper_ns(bucket), c))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_digest() {
        let d = Digest::new();
        assert_eq!(d.count(), 0);
        assert!(d.is_empty());
        assert_eq!(d.quantile_ns(0.5), None);
        assert_eq!(d.sum_ns(), 0);
    }

    #[test]
    fn count_and_sum_are_exact() {
        let mut d = Digest::new();
        for ns in [1u64, 7, 100, 1_000_000, 1 << 39] {
            d.record_ns(ns);
        }
        assert_eq!(d.count(), 5);
        assert_eq!(d.sum_ns(), 1 + 7 + 100 + 1_000_000 + (1u128 << 39));
    }

    #[test]
    fn merge_conserves_count_and_sum() {
        let mut a = Digest::new();
        let mut b = Digest::new();
        for i in 1..=100u64 {
            a.record_ns(i * 13);
            b.record_ns(i * 977);
        }
        let (ca, cb) = (a.count(), b.count());
        let (sa, sb) = (a.sum_ns(), b.sum_ns());
        a.merge(&b);
        assert_eq!(a.count(), ca + cb);
        assert_eq!(a.sum_ns(), sa + sb);
    }

    #[test]
    fn merge_equals_recording_together() {
        let xs: Vec<u64> = (1..=500).map(|i| i * 31 % 7919 + 1).collect();
        let mut together = Digest::new();
        let mut left = Digest::new();
        let mut right = Digest::new();
        for (i, &x) in xs.iter().enumerate() {
            together.record_ns(x);
            if i % 2 == 0 { &mut left } else { &mut right }.record_ns(x);
        }
        left.merge(&right);
        assert_eq!(left, together, "merge must equal serial recording");
    }

    #[test]
    fn quantile_never_under_reports() {
        let mut d = Digest::new();
        for ns in 1..=4096u64 {
            d.record_ns(ns);
        }
        // The max quantile's estimate must be >= the true max.
        assert!(d.quantile_ns(1.0).unwrap() >= 4096);
    }

    #[test]
    fn nonzero_buckets_cover_total() {
        let mut d = Digest::new();
        for ns in [5u64, 5, 70, 900, 1 << 20] {
            d.record_ns(ns);
        }
        let total: u64 = d.nonzero_buckets().map(|(_, c)| c).sum();
        assert_eq!(total, d.count());
        // Ascending edges.
        let edges: Vec<u64> = d.nonzero_buckets().map(|(e, _)| e).collect();
        assert!(edges.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn u64_max_samples_never_under_report() {
        // bucket_of_ns clamps everything past the top decade into the
        // overflow bucket; its upper edge must dominate any sample that
        // can land there (regression: it used to report ~2^40).
        let mut d = Digest::new();
        d.record_ns(u64::MAX);
        d.record_ns(u64::MAX - 1);
        d.record_ns(1u64 << 50);
        assert_eq!(d.quantile_ns(1.0), Some(u64::MAX));
        assert_eq!(d.quantile_ns(0.5), Some(u64::MAX));
        // All three share the overflow bucket, whose edge is u64::MAX.
        assert_eq!(d.nonzero_buckets().collect::<Vec<_>>(), [(u64::MAX, 3)]);
    }

    #[test]
    fn overflow_bucket_edge_is_max_and_edges_stay_monotonic() {
        assert_eq!(Digest::bucket_upper_ns(BUCKETS - 1), u64::MAX);
        // Tiny decades can share an integer edge; edges never *decrease*,
        // and from 8 ns up (3 sub-bucket bits available) they are strict.
        for b in 1..BUCKETS {
            assert!(
                Digest::bucket_upper_ns(b - 1) <= Digest::bucket_upper_ns(b),
                "edges must be non-decreasing at bucket {b}"
            );
        }
        for b in (3 * SUB_BUCKETS + 1)..BUCKETS {
            assert!(
                Digest::bucket_upper_ns(b - 1) < Digest::bucket_upper_ns(b),
                "edges must be strictly increasing at bucket {b}"
            );
        }
    }

    #[test]
    fn empty_merge_is_identity_both_ways() {
        let mut populated = Digest::new();
        for ns in [3u64, 999, 1 << 35, u64::MAX] {
            populated.record_ns(ns);
        }
        let snapshot = populated.clone();
        populated.merge(&Digest::new());
        assert_eq!(
            populated, snapshot,
            "merging an empty digest must be a no-op"
        );
        let mut empty = Digest::new();
        empty.merge(&snapshot);
        assert_eq!(empty, snapshot, "merging into an empty digest must copy");
    }

    #[test]
    fn bucket_edges_pinned() {
        let b = Digest::bucket_of_ns;
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
    fn sub_nanosecond_decades_resolve() {
        // The old math collapsed everything under 8 ns into its decade's
        // first sub-bucket; 3, 6, and 7 ns must now resolve distinctly.
        let b = Digest::bucket_of_ns;
        assert_ne!(b(2), b(3));
        assert_ne!(b(4), b(6));
        assert_ne!(b(6), b(7));
    }

    #[test]
    fn bucket_value_is_an_upper_edge() {
        // Exhaustively over the small decades: each value is at most its
        // bucket's upper edge — quantile estimates then never under-report
        // — and the bucket index never decreases as the value grows.
        let mut prev = 0usize;
        for ns in 1..=65_536u64 {
            let bucket = Digest::bucket_of_ns(ns);
            let edge = Digest::bucket_upper_ns(bucket);
            assert!(edge >= ns, "bucket_upper_ns({bucket}) = {edge} < {ns}");
            assert!(bucket >= prev, "bucket_of_ns({ns}) = {bucket} < {prev}");
            prev = bucket;
        }
    }

    #[test]
    fn the_span_covers_exactly_the_occupied_buckets() {
        let mut d = Digest::new();
        assert_eq!(d.counts.capacity(), 0, "an empty digest allocates nothing");
        let b = Digest::bucket_of_ns;
        d.record_ns(1_000);
        assert_eq!((d.lo, d.counts.len()), (b(1_000), 1));
        // A new lowest bucket grows the span downward, a new highest one
        // upward; the occupied ends stay the span's ends.
        d.record_ns(9);
        d.record_ns(1 << 20);
        d.record_ns(5_000);
        assert_eq!(d.lo, b(9));
        assert_eq!(d.counts.len(), b(1 << 20) - b(9) + 1);
        assert_eq!((d.counts.front(), d.counts.back()), (Some(&1), Some(&1)));
        // Merging a digest below and above widens to the union.
        let mut other = Digest::new();
        other.record_ns(2);
        other.record_ns(1 << 30);
        d.merge(&other);
        assert_eq!(d.lo, b(2));
        assert_eq!(d.counts.len(), b(1 << 30) - b(2) + 1);
        assert_eq!(d.nonzero_buckets().map(|(_, c)| c).sum::<u64>(), 6);
    }

    #[test]
    fn class_taxonomy_is_dense_and_stable() {
        for (i, c) in RequestClass::ALL.into_iter().enumerate() {
            assert_eq!(c.index(), i);
        }
        assert_eq!(RequestClass::default(), RequestClass::Recovery);
        assert_eq!(RequestClass::App.name(), "app");
        assert_eq!(RequestClass::Replan.to_string(), "replan");
        assert_eq!(RequestClass::COUNT, 3);
    }
}
