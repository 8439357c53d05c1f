//! Prometheus text-exposition snapshot writer.
//!
//! The counterpart of [`TraceWriter`](crate::trace::TraceWriter) for
//! *state* instead of *events*: where the JSONL trace records what
//! happened when, a Prometheus snapshot records the totals a scrape would
//! see — counters, gauges, and latency histograms rendered from
//! [`Digest`]s. The output follows the text exposition format version
//! 0.0.4 (`# HELP` / `# TYPE` headers, `_bucket{le=...}` cumulative
//! histogram series with `+Inf`, `_sum` / `_count`), so it loads into any
//! Prometheus-compatible stack — and `scripts/check_trace.py --prom`
//! validates the same invariants in CI: legal metric-name charset and
//! monotone cumulative buckets.
//!
//! Values format through Rust's shortest-round-trip `f64` Display, so
//! snapshots are deterministic.

use crate::digest::Digest;

/// Is `name` a legal Prometheus metric (or label) name:
/// `[a-zA-Z_:][a-zA-Z0-9_:]*` (labels additionally must not use `:`, which
/// none of ours do).
pub fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

/// Accumulates one exposition snapshot. Metrics append in call order;
/// [`into_string`](Self::into_string) yields the final text.
#[derive(Debug, Default)]
pub struct PromWriter {
    out: String,
}

impl PromWriter {
    /// Empty snapshot.
    pub fn new() -> Self {
        Self::default()
    }

    fn header(&mut self, name: &str, help: &str, kind: &str) {
        assert!(valid_metric_name(name), "illegal metric name {name:?}");
        debug_assert!(
            !help.contains('\n'),
            "HELP text must be single-line: {help:?}"
        );
        self.out.push_str("# HELP ");
        self.out.push_str(name);
        self.out.push(' ');
        self.out.push_str(help);
        self.out.push_str("\n# TYPE ");
        self.out.push_str(name);
        self.out.push(' ');
        self.out.push_str(kind);
        self.out.push('\n');
    }

    fn sample(&mut self, name: &str, labels: &str, value: f64) {
        self.out.push_str(name);
        self.out.push_str(labels);
        self.out.push(' ');
        // Shortest round-trip Display; integral values print bare.
        self.out.push_str(&format!("{value}"));
        self.out.push('\n');
    }

    /// A monotone counter (`_total` naming is the caller's business).
    pub fn counter(&mut self, name: &str, help: &str, value: f64) {
        self.header(name, help, "counter");
        self.sample(name, "", value);
    }

    /// A point-in-time gauge.
    pub fn gauge(&mut self, name: &str, help: &str, value: f64) {
        self.header(name, help, "gauge");
        self.sample(name, "", value);
    }

    /// A gauge with one label dimension: one `# TYPE` header, one sample
    /// per `(label_value, value)` pair.
    pub fn gauge_per(&mut self, name: &str, help: &str, label: &str, samples: &[(&str, f64)]) {
        assert!(valid_metric_name(label), "illegal label name {label:?}");
        self.header(name, help, "gauge");
        for &(value_label, value) in samples {
            self.sample(name, &format!("{{{label}=\"{value_label}\"}}"), value);
        }
    }

    /// Latency histograms from [`Digest`]s, one series per label value.
    /// Digests record nanoseconds; exposition follows the Prometheus
    /// convention of seconds. Only occupied buckets are emitted (plus the
    /// mandatory `+Inf`); cumulative counts are monotone by construction.
    pub fn histogram(&mut self, name: &str, help: &str, label: &str, series: &[(&str, &Digest)]) {
        assert!(valid_metric_name(label), "illegal label name {label:?}");
        self.header(name, help, "histogram");
        for &(value_label, digest) in series {
            let mut cumulative = 0u64;
            for (edge_ns, count) in digest.nonzero_buckets() {
                cumulative += count;
                let le = edge_ns as f64 / 1e9;
                self.sample(
                    &format!("{name}_bucket"),
                    &format!("{{{label}=\"{value_label}\",le=\"{le}\"}}"),
                    cumulative as f64,
                );
            }
            self.sample(
                &format!("{name}_bucket"),
                &format!("{{{label}=\"{value_label}\",le=\"+Inf\"}}"),
                digest.count() as f64,
            );
            self.sample(
                &format!("{name}_sum"),
                &format!("{{{label}=\"{value_label}\"}}"),
                digest.sum_ns() as f64 / 1e9,
            );
            self.sample(
                &format!("{name}_count"),
                &format!("{{{label}=\"{value_label}\"}}"),
                digest.count() as f64,
            );
        }
    }

    /// The finished exposition text.
    pub fn into_string(self) -> String {
        self.out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_name_charset() {
        assert!(valid_metric_name("fbf_disk_reads_total"));
        assert!(valid_metric_name("_private"));
        assert!(valid_metric_name("ns:subsystem_metric"));
        assert!(!valid_metric_name(""));
        assert!(!valid_metric_name("9lives"));
        assert!(!valid_metric_name("has-dash"));
        assert!(!valid_metric_name("has space"));
    }

    #[test]
    fn counter_and_gauge_shape() {
        let mut w = PromWriter::new();
        w.counter("fbf_reads_total", "reads", 42.0);
        w.gauge("fbf_hit_ratio", "hit ratio", 0.75);
        let s = w.into_string();
        assert!(s.contains("# HELP fbf_reads_total reads\n"));
        assert!(s.contains("# TYPE fbf_reads_total counter\n"));
        assert!(s.contains("\nfbf_reads_total 42\n"));
        assert!(s.contains("fbf_hit_ratio 0.75\n"));
    }

    #[test]
    fn labeled_gauges() {
        let mut w = PromWriter::new();
        w.gauge_per(
            "fbf_class_p99_ms",
            "per-class p99",
            "class",
            &[("app", 1.5), ("recovery", 12.0)],
        );
        let s = w.into_string();
        assert!(s.contains("fbf_class_p99_ms{class=\"app\"} 1.5\n"));
        assert!(s.contains("fbf_class_p99_ms{class=\"recovery\"} 12\n"));
        assert_eq!(s.matches("# TYPE").count(), 1);
    }

    #[test]
    fn histogram_buckets_are_cumulative_and_monotone() {
        let mut d = Digest::new();
        for ns in [1_000u64, 1_000, 50_000, 2_000_000] {
            d.record_ns(ns);
        }
        let mut w = PromWriter::new();
        w.histogram("fbf_lat_seconds", "latency", "class", &[("recovery", &d)]);
        let s = w.into_string();
        assert!(s.contains("# TYPE fbf_lat_seconds histogram"));
        assert!(s.contains("le=\"+Inf\"}} 4\n".replace("}}", "}").as_str()));
        assert!(s.contains("fbf_lat_seconds_count{class=\"recovery\"} 4"));
        // Cumulative bucket values never decrease.
        let mut last = 0.0f64;
        for line in s.lines().filter(|l| l.contains("_bucket{")) {
            let v: f64 = line.rsplit(' ').next().unwrap().parse().unwrap();
            assert!(v >= last, "bucket counts must be monotone: {line}");
            last = v;
        }
    }

    #[test]
    #[should_panic(expected = "illegal metric name")]
    fn bad_metric_name_panics() {
        PromWriter::new().counter("has-dash", "x", 1.0);
    }
}
