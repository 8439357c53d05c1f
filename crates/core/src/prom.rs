//! Prometheus text exposition: the one module that knows what a scrape
//! shows — every metric family's name, help text, type and aggregation,
//! and the text format (0.0.4) itself.
//!
//! [`prometheus_snapshot`] renders the [`Metrics`] of a set of runs — a
//! sweep's points, or the daemon's finished jobs, borrowed where they
//! live — and, for the daemon, its [`Live`] job table as one document.
//! DESIGN.md §11 "Prometheus exposition" lists every family with its type
//! and aggregation; CI's `scripts/metric_table.sh` fails when a family
//! named here has no row there, and `scripts/check_trace.py --prom`
//! validates the snapshots CI writes.

use crate::metrics::Metrics;
use fbf_disksim::{Digest, RequestClass};
use std::fmt::Write;

/// A run counter: its name, its help text, and what one point adds to the
/// sum.
type Counter = (&'static str, &'static str, fn(&Metrics) -> u64);

/// The run counters, in exposition order.
const COUNTERS: [Counter; 8] = [
    (
        "fbf_disk_reads_total",
        "chunk reads issued to disks across all points",
        |m| m.disk_reads,
    ),
    (
        "fbf_disk_writes_total",
        "spare-area chunk writes across all points",
        |m| m.disk_writes,
    ),
    (
        "fbf_cache_hits_total",
        "buffer-cache hits across all points",
        |m| m.cache.hits,
    ),
    (
        "fbf_cache_misses_total",
        "buffer-cache misses across all points",
        |m| m.cache.misses,
    ),
    (
        "fbf_cache_map_ops_total",
        "replacement-policy key-map lookups, inserts and removals across all points",
        |m| m.cache.map_ops,
    ),
    (
        "fbf_replans_total",
        "stripe re-plans issued by failure escalation",
        |m| m.replans,
    ),
    (
        "fbf_stripes_lost_total",
        "stripes whose damage exceeded the code's fault tolerance",
        |m| m.stripes_lost as u64,
    ),
    (
        "fbf_stripes_unresolved_total",
        "stripes left neither repaired nor typed lost when escalation rounds ran out",
        |m| m.stripes_unresolved as u64,
    ),
];

/// The daemon's job table at one instant, filled under its jobs lock:
/// what a scrape's live gauges and `stat`'s header report.
#[derive(Debug, Clone, Copy)]
pub struct Live {
    /// Jobs per lifecycle state: the state's wire name and its count.
    pub jobs: [(&'static str, u64); 4],
    /// Jobs a worker is executing right now.
    pub running: u64,
    /// Worker threads executing a job, at most the pool's size.
    pub busy: u64,
    /// Completed jobs whose data-plane backend is resident.
    pub retained: u64,
}

/// One sample line: a name suffix (`_bucket`, `_sum`, `_count` or none),
/// a label set (`{..}` or none) and the value.
type Sample = (&'static str, String, f64);

/// The document being written, one metric family at a time.
#[derive(Default)]
struct Exposition(String);

impl Exposition {
    /// `# HELP`, `# TYPE`, then one line per sample, its value in
    /// shortest round-trip form (integral values print bare).
    fn family(
        &mut self,
        kind: &str,
        name: &str,
        help: &str,
        samples: impl IntoIterator<Item = Sample>,
    ) {
        let _ = writeln!(self.0, "# HELP {name} {help}\n# TYPE {name} {kind}");
        for (suffix, labels, value) in samples {
            let _ = writeln!(self.0, "{name}{suffix}{labels} {value}");
        }
    }

    /// An unlabelled gauge.
    fn gauge(&mut self, name: &str, help: &str, value: f64) {
        self.family("gauge", name, help, [("", String::new(), value)]);
    }
}

/// One sample per request class, labelled `class`.
fn per_class(value: impl Fn(RequestClass) -> f64) -> impl Iterator<Item = Sample> {
    RequestClass::ALL
        .into_iter()
        .map(move |c| ("", format!("{{class=\"{}\"}}", c.name()), value(c)))
}

/// One class's latency histogram, in seconds: a cumulative `_bucket` per
/// occupied bucket of its digest, then `+Inf`, `_sum` and `_count`.
fn histogram(class: RequestClass, digest: &Digest) -> impl Iterator<Item = Sample> + '_ {
    let labels = format!("{{class=\"{}\"}}", class.name());
    let bucket = format!("{{class=\"{}\",le=", class.name());
    let mut cumulative = 0;
    let edges = digest.nonzero_buckets().map(move |(edge_ns, count)| {
        cumulative += count;
        ((edge_ns as f64 / 1e9).to_string(), cumulative)
    });
    edges
        .chain([("+Inf".to_string(), digest.count())])
        .map(move |(le, count)| ("_bucket", format!("{bucket}\"{le}\"}}"), count as f64))
        .chain([
            ("_sum", labels.clone(), digest.sum_ns() as f64 / 1e9),
            ("_count", labels, digest.count() as f64),
        ])
}

/// Render the metrics of `points`, and the daemon's `live` job table if
/// given, as one Prometheus text-exposition snapshot.
///
/// Counters sum across points; queue-depth high-water and read balance
/// take the max; per-class digests merge element-wise (associative and
/// commutative, so the result is independent of point order — pinned by a
/// test below). The live gauges come last, and only with a `live` table.
pub fn prometheus_snapshot<'a>(
    points: impl IntoIterator<Item = &'a Metrics>,
    live: Option<&Live>,
) -> String {
    let points: Vec<&Metrics> = points.into_iter().collect();
    let mut w = Exposition::default();
    w.gauge(
        "fbf_sweep_points",
        "experiment points aggregated into this snapshot",
        points.len() as f64,
    );
    for (name, help, read) in COUNTERS {
        let total: u64 = points.iter().map(|m| read(m)).sum();
        w.family("counter", name, help, [("", String::new(), total as f64)]);
    }
    w.gauge(
        "fbf_queue_depth_max",
        "deepest disk queue observed (high-water, max-merged)",
        points.iter().map(|m| m.queue_depth_max).max().unwrap_or(0) as f64,
    );
    if let Some(worst) = points.iter().map(|m| m.read_balance).max_by(f64::total_cmp) {
        w.gauge(
            "fbf_read_balance_worst",
            "worst per-point declustering uniformity (busiest disk / mean; 1.0 = even)",
            worst,
        );
    }
    let mut class: [Digest; RequestClass::COUNT] = Default::default();
    for m in &points {
        for (merged, d) in class.iter_mut().zip(&m.class_digests) {
            merged.merge(d);
        }
    }
    w.family(
        "histogram",
        "fbf_read_latency_seconds",
        "chunk read latency by request class (merged across all points)",
        RequestClass::ALL
            .into_iter()
            .flat_map(|c| histogram(c, &class[c.index()])),
    );
    w.family(
        "gauge",
        "fbf_read_latency_p99_seconds",
        "per-class p99 read latency over the merged digest",
        per_class(|c| class[c.index()].quantile_ns(0.99).unwrap_or(0) as f64 / 1e9),
    );
    if let Some(live) = live {
        w.gauge(
            "fbf_jobs_running",
            "Repair jobs a worker is executing right now.",
            live.running as f64,
        );
        w.family(
            "gauge",
            "fbf_jobs_total",
            "Jobs the daemon has accepted, by lifecycle state.",
            live.jobs
                .map(|(state, n)| ("", format!("{{state=\"{state}\"}}"), n as f64)),
        );
        w.gauge(
            "fbf_workers_busy",
            "Worker threads executing a job, out of the pool.",
            live.busy as f64,
        );
        w.gauge(
            "fbf_backends_retained",
            "Completed jobs whose data-plane backend is resident (bounded by the retention cap).",
            live.retained as f64,
        );
    }
    w.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ExperimentConfig;
    use crate::runner::run_experiment;

    fn points() -> Vec<Metrics> {
        [2usize, 16]
            .into_iter()
            .map(|mb| {
                let config = ExperimentConfig::builder()
                    .cache_mb(mb)
                    .stripes(128)
                    .error_count(32)
                    .workers(4)
                    .gen_threads(1)
                    .build()
                    .unwrap();
                run_experiment(&config).unwrap()
            })
            .collect()
    }

    /// A snapshot with every optional family: the live job gauges.
    fn everything() -> String {
        let live = Live {
            jobs: [("queued", 2), ("running", 1), ("done", 5), ("failed", 1)],
            running: 1,
            busy: 1,
            retained: 3,
        };
        prometheus_snapshot(&points(), Some(&live))
    }

    /// Is `name` a legal Prometheus metric (or label) name:
    /// `[a-zA-Z_:][a-zA-Z0-9_:]*`.
    fn valid_metric_name(name: &str) -> bool {
        let mut chars = name.chars();
        match chars.next() {
            Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
            _ => return false,
        }
        chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
    }

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
    fn every_metric_name_is_legal() {
        // Every family, sample and label name the module can emit, in a
        // snapshot with every optional family and in the empty one.
        for s in [everything(), prometheus_snapshot(&[], None)] {
            for line in s.lines() {
                let (name, labels) = match line.strip_prefix("# ") {
                    Some(header) => (header.split(' ').nth(1).unwrap(), ""),
                    None => {
                        let end = line.find([' ', '{']).unwrap();
                        let labels = line[end..].split(' ').next().unwrap();
                        (&line[..end], labels)
                    }
                };
                assert!(valid_metric_name(name), "{line}");
                let labels = labels.trim_start_matches('{').trim_end_matches('}');
                for label in labels.split(',').filter(|l| !l.is_empty()) {
                    let (label, value) = label.split_once('=').unwrap();
                    assert!(valid_metric_name(label), "{line}");
                    assert!(value.starts_with('"') && value.ends_with('"'), "{line}");
                }
            }
        }
    }

    #[test]
    fn each_family_is_declared_once() {
        let s = everything();
        let types: Vec<&str> = s
            .lines()
            .filter_map(|l| l.strip_prefix("# TYPE "))
            .map(|l| l.split(' ').next().unwrap())
            .collect();
        let mut unique = types.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), types.len(), "{types:?}");
        // Every sample belongs to the family declared last.
        let mut current = "";
        for line in s.lines() {
            if let Some(t) = line.strip_prefix("# TYPE ") {
                current = t.split(' ').next().unwrap();
            } else if !line.starts_with('#') {
                assert!(line.starts_with(current), "{line} outside {current}");
            }
        }
    }

    #[test]
    fn counter_and_gauge_shape() {
        let mut w = Exposition::default();
        w.family(
            "counter",
            "fbf_reads_total",
            "reads",
            [("", String::new(), 42.0)],
        );
        w.gauge("fbf_hit_ratio", "hit ratio", 0.75);
        assert_eq!(
            w.0,
            "# HELP fbf_reads_total reads\n# TYPE fbf_reads_total counter\nfbf_reads_total 42\n\
             # HELP fbf_hit_ratio hit ratio\n# TYPE fbf_hit_ratio gauge\nfbf_hit_ratio 0.75\n"
        );
    }

    #[test]
    fn labeled_gauges() {
        let mut w = Exposition::default();
        let p99 = |c: RequestClass| match c {
            RequestClass::App => 1.5,
            _ => 12.0,
        };
        w.family("gauge", "fbf_class_p99_ms", "per-class p99", per_class(p99));
        let s = w.0;
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
        let mut w = Exposition::default();
        let samples = histogram(RequestClass::Recovery, &d);
        w.family("histogram", "fbf_lat_seconds", "latency", samples);
        let s = w.0;
        assert!(s.contains("# TYPE fbf_lat_seconds histogram"));
        assert!(s.contains("fbf_lat_seconds_bucket{class=\"recovery\",le=\"+Inf\"} 4\n"));
        assert!(s.contains("fbf_lat_seconds_count{class=\"recovery\"} 4"));
        // Cumulative bucket values never decrease, and `+Inf` ends them.
        let buckets: Vec<&str> = s.lines().filter(|l| l.contains("_bucket{")).collect();
        assert!(buckets.last().unwrap().contains("le=\"+Inf\""));
        let mut last = 0.0f64;
        for line in buckets {
            let v: f64 = line.rsplit(' ').next().unwrap().parse().unwrap();
            assert!(v >= last, "bucket counts must be monotone: {line}");
            last = v;
        }
    }

    #[test]
    fn snapshot_totals_match_points() {
        let pts = points();
        let s = prometheus_snapshot(&pts, None);
        let reads: u64 = pts.iter().map(|p| p.disk_reads).sum();
        assert!(s.contains(&format!("\nfbf_disk_reads_total {reads}\n")));
        // The merged recovery digest covers every read-latency sample.
        let count: u64 = pts
            .iter()
            .map(|p| p.class_latency(RequestClass::Recovery).count)
            .sum();
        assert!(
            s.contains(&format!(
                "fbf_read_latency_seconds_count{{class=\"recovery\"}} {count}"
            )),
            "{s}"
        );
        // No live table → no job gauges.
        assert!(!s.contains("fbf_jobs_"));
    }

    #[test]
    fn snapshot_is_order_independent() {
        let pts = points();
        let forward = prometheus_snapshot(&pts, None);
        let reversed: Vec<Metrics> = pts.into_iter().rev().collect();
        assert_eq!(
            forward,
            prometheus_snapshot(&reversed, None),
            "digest merge must be commutative across points"
        );
    }
}
