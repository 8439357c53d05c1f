//! Trace-driven load generation for the repair daemon.
//!
//! `fbf client load` replays an error campaign against a running `fbfd`
//! from several concurrent connections. This module holds the pure parts
//! — sharding a campaign across connections and aggregating per-class
//! round-trip latencies — so they stay testable without a live socket.
//!
//! Latencies land in the mergeable [`Digest`] histograms the
//! observability layer already exposes, which means a load run's report
//! composes the same way sweep metrics do: each connection records into
//! its own [`LoadReport`], the driver merges them, and the quantile
//! estimates stay within one bucket width of exact.

use fbf_obs::Digest;
use fbf_recovery::ErrorGroup;
use std::collections::BTreeMap;

/// Split a campaign into `shards` disjoint sub-campaigns, round-robin by
/// error index. Round-robin (rather than contiguous chunks) keeps each
/// shard's stripe spread representative of the whole campaign, so every
/// connection exercises a similar mix of light and heavy stripes.
///
/// The union of the shards is exactly the input, relative order within a
/// shard is preserved, and no shard is emitted empty: with fewer errors
/// than `shards`, only `group.len()` shards come back. `shards == 0` is
/// treated as 1.
pub fn shard_campaign(group: &ErrorGroup, shards: usize) -> Vec<ErrorGroup> {
    let shards = shards.max(1).min(group.len().max(1));
    let mut out: Vec<ErrorGroup> = (0..shards).map(|_| ErrorGroup::new()).collect();
    for (i, e) in group.errors.iter().enumerate() {
        out[i % shards].push(*e);
    }
    out.retain(|g| !g.errors.is_empty());
    out
}

/// Mint one trace id per load connection.
///
/// The daemon adopts a request-supplied `trace_id` (falling back to its
/// own allocator), so a load run that stamps its requests can later pick
/// each connection's spans out of the daemon's trace stream. Ids carry
/// `salt` (typically the client pid) in the high bits and the connection
/// index in the low bits: disjoint from the daemon's small sequential
/// ids and from other load clients running against the same daemon. All
/// ids stay below 2^53 so they survive a round-trip through JSON
/// numbers.
pub fn client_trace_ids(salt: u64, connections: usize) -> Vec<u64> {
    let salt = (salt & 0x1fff_ffff).max(1); // 29 bits; 29 + 24 = 53
    (0..connections)
        .map(|i| (salt << 24) | (i as u64 + 1))
        .collect()
}

/// Latency/outcome aggregation for one load run (or one connection's
/// slice of it — reports [`merge`](LoadReport::merge) associatively).
///
/// Classes are free-form labels, one digest per request kind the driver
/// issues (`repair`, `status`, `read`, …).
#[derive(Debug, Default)]
pub struct LoadReport {
    classes: BTreeMap<String, Digest>,
    failures: BTreeMap<String, u64>,
}

impl LoadReport {
    /// Empty report.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one successful request's round-trip time.
    pub fn record(&mut self, class: &str, latency_ns: u64) {
        self.classes
            .entry(class.to_string())
            .or_default()
            .record_ns(latency_ns);
    }

    /// Record one failed request (error reply, transport error, timeout).
    pub fn record_failure(&mut self, class: &str) {
        *self.failures.entry(class.to_string()).or_insert(0) += 1;
    }

    /// Fold another report in (order-independent).
    pub fn merge(&mut self, other: &LoadReport) {
        for (class, digest) in &other.classes {
            self.classes.entry(class.clone()).or_default().merge(digest);
        }
        for (class, n) in &other.failures {
            *self.failures.entry(class.clone()).or_insert(0) += n;
        }
    }

    /// Successful requests of one class (0 for unseen classes).
    pub fn count(&self, class: &str) -> u64 {
        self.classes.get(class).map_or(0, Digest::count)
    }

    /// Failures of one class.
    pub fn failure_count(&self, class: &str) -> u64 {
        self.failures.get(class).copied().unwrap_or(0)
    }

    /// Successful requests across every class.
    pub fn total(&self) -> u64 {
        self.classes.values().map(Digest::count).sum()
    }

    /// Failures across every class.
    pub fn total_failures(&self) -> u64 {
        self.failures.values().sum()
    }

    /// The class's latency digest, when it saw traffic.
    pub fn digest(&self, class: &str) -> Option<&Digest> {
        self.classes.get(class)
    }

    /// Human-readable summary table: one row per class with count, mean,
    /// and tail quantiles, in host milliseconds (`host_` columns).
    pub fn render(&self) -> String {
        let mut out = format!(
            "{:<10} {:>8} {:>6} {:>12} {:>12} {:>12} {:>12}\n",
            "class", "count", "fail", "host_mean_ms", "host_p50_ms", "host_p99_ms", "host_p999_ms"
        );
        let ms = |ns: u64| ns as f64 / 1e6;
        let mut rows: BTreeMap<&str, ()> = BTreeMap::new();
        for class in self.classes.keys() {
            rows.insert(class, ());
        }
        for class in self.failures.keys() {
            rows.insert(class, ());
        }
        for (class, ()) in rows {
            let (count, mean, p50, p99, p999) = match self.classes.get(class) {
                Some(d) if !d.is_empty() => (
                    d.count(),
                    (d.sum_ns() / d.count() as u128) as u64,
                    d.quantile_ns(0.50).unwrap_or(0),
                    d.quantile_ns(0.99).unwrap_or(0),
                    d.quantile_ns(0.999).unwrap_or(0),
                ),
                _ => (0, 0, 0, 0, 0),
            };
            out.push_str(&format!(
                "{:<10} {:>8} {:>6} {:>12.3} {:>12.3} {:>12.3} {:>12.3}\n",
                class,
                count,
                self.failure_count(class),
                ms(mean),
                ms(p50),
                ms(p99),
                ms(p999),
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::errors::{generate_errors, ErrorGenConfig};
    use fbf_codes::{CodeSpec, StripeCode};

    fn campaign(n: usize) -> ErrorGroup {
        let code = StripeCode::build(CodeSpec::Tip, 7).unwrap();
        generate_errors(&code, &ErrorGenConfig::paper_default(4096, n, 21))
    }

    #[test]
    fn shards_partition_the_campaign() {
        let group = campaign(100);
        let shards = shard_campaign(&group, 7);
        assert_eq!(shards.len(), 7);
        let total: usize = shards.iter().map(|s| s.errors.len()).sum();
        assert_eq!(total, group.errors.len());
        // Round-robin: shard sizes differ by at most one.
        let sizes: Vec<usize> = shards.iter().map(|s| s.errors.len()).collect();
        let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
        assert!(max - min <= 1, "{sizes:?}");
        // Reassembling round-robin reproduces the original order.
        let mut rebuilt = Vec::new();
        for i in 0..group.errors.len() {
            rebuilt.push(shards[i % 7].errors[i / 7]);
        }
        assert_eq!(rebuilt, group.errors);
    }

    #[test]
    fn degenerate_shard_counts() {
        let group = campaign(5);
        assert_eq!(shard_campaign(&group, 0).len(), 1);
        assert_eq!(shard_campaign(&group, 1)[0], group);
        // More shards than errors: one error each, no empties.
        let many = shard_campaign(&group, 64);
        assert_eq!(many.len(), group.errors.len());
        assert!(many.iter().all(|s| s.errors.len() == 1));
        // Empty campaign shards to nothing.
        assert!(shard_campaign(&ErrorGroup::new(), 4).is_empty());
    }

    #[test]
    fn client_trace_ids_are_distinct_and_json_safe() {
        let a = client_trace_ids(12345, 8);
        assert_eq!(a.len(), 8);
        let mut uniq = a.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), 8);
        assert!(a.iter().all(|&id| id != 0 && id < (1u64 << 53)), "{a:?}");
        // Different salts (two clients) never collide; salt 0 still mints.
        let b = client_trace_ids(54321, 8);
        assert!(a.iter().all(|id| !b.contains(id)));
        assert!(client_trace_ids(0, 1)[0] != 0);
        // Exactly round-trippable through an f64 JSON number.
        for &id in &a {
            assert_eq!(id as f64 as u64, id);
        }
    }

    #[test]
    fn report_merges_like_a_single_recorder() {
        let mut a = LoadReport::new();
        let mut b = LoadReport::new();
        let mut whole = LoadReport::new();
        for i in 0..100u64 {
            let ns = (i + 1) * 1_000_000; // 1..=100 ms
            let part = if i % 2 == 0 { &mut a } else { &mut b };
            part.record("repair", ns);
            whole.record("repair", ns);
        }
        b.record_failure("status");
        let mut merged = LoadReport::new();
        merged.merge(&a);
        merged.merge(&b);
        assert_eq!(merged.count("repair"), whole.count("repair"));
        assert_eq!(
            merged.digest("repair").unwrap().quantile_ns(0.99),
            whole.digest("repair").unwrap().quantile_ns(0.99)
        );
        assert_eq!(merged.failure_count("status"), 1);
        assert_eq!(merged.total(), 100);
        assert_eq!(merged.total_failures(), 1);
    }

    #[test]
    fn render_lists_every_class_including_failure_only_ones() {
        let mut r = LoadReport::new();
        r.record("repair", 2_000_000);
        r.record_failure("read");
        let table = r.render();
        assert!(table.contains("repair"), "{table}");
        assert!(table.contains("read"), "{table}");
        assert!(table.lines().count() >= 3, "{table}");
    }
}
