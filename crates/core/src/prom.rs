//! Prometheus snapshot assembly for sweep results.
//!
//! [`prometheus_snapshot`] renders the [`Metrics`] of a set of runs — a
//! sweep's points, or the daemon's finished jobs, borrowed where they
//! live — into one text-exposition document (format 0.0.4, via
//! [`fbf_obs::PromWriter`]): campaign counters, per-class latency
//! histograms merged **associatively** across all points — the digest's
//! mergeability claim doing real work — plus queue-depth high-water
//! (merged via max, never sum), read-balance, and the SLO verdict.
//!
//! The CLI (`fbf --metrics <path>`) and the figure binaries write these
//! snapshots next to their CSVs; `scripts/check_trace.py --prom` validates
//! the output in CI.

use crate::metrics::Metrics;
use fbf_disksim::{Digest, RequestClass};
use fbf_obs::PromWriter;

/// Render the metrics of `points` as one Prometheus text-exposition
/// snapshot.
///
/// Counters sum across points; queue-depth high-water and read balance
/// take the max; per-class digests merge element-wise (associative and
/// commutative, so the result is independent of point order — pinned by a
/// test below). SLO gauges report 1/0 for pass/fail and appear only when
/// at least one point evaluated an active spec.
pub fn prometheus_snapshot<'a>(points: impl IntoIterator<Item = &'a Metrics>) -> String {
    let mut count = 0usize;
    let mut disk_reads = 0u64;
    let mut disk_writes = 0u64;
    let mut hits = 0u64;
    let mut misses = 0u64;
    let mut queue_depth_max = 0u64;
    let mut replans = 0u64;
    let mut stripes_lost = 0u64;
    let mut stripes_unresolved = 0u64;
    let mut class: [Digest; RequestClass::COUNT] = Default::default();
    let mut slo_evaluated = false;
    let mut slo_pass = true;
    let mut class_pass = [true; RequestClass::COUNT];
    let mut worst_balance: Option<f64> = None;
    for m in points {
        count += 1;
        disk_reads += m.disk_reads;
        disk_writes += m.disk_writes;
        hits += m.cache.hits;
        misses += m.cache.misses;
        queue_depth_max = queue_depth_max.max(m.queue_depth_max);
        worst_balance = Some(match worst_balance {
            Some(worst) if worst.total_cmp(&m.read_balance).is_gt() => worst,
            _ => m.read_balance,
        });
        replans += m.replans;
        stripes_lost += m.stripes_lost as u64;
        stripes_unresolved += m.stripes_unresolved as u64;
        for c in RequestClass::ALL {
            class[c.index()].merge(&m.class_digests[c.index()]);
        }
        if m.slo.evaluated {
            slo_evaluated = true;
            slo_pass &= m.slo.pass;
            for c in RequestClass::ALL {
                let v = &m.slo.classes[c.index()];
                if v.active {
                    class_pass[c.index()] &= v.pass;
                }
            }
        }
    }

    let mut w = PromWriter::new();
    w.gauge(
        "fbf_sweep_points",
        "experiment points aggregated into this snapshot",
        count as f64,
    );
    w.counter(
        "fbf_disk_reads_total",
        "chunk reads issued to disks across all points",
        disk_reads as f64,
    );
    w.counter(
        "fbf_disk_writes_total",
        "spare-area chunk writes across all points",
        disk_writes as f64,
    );
    w.counter(
        "fbf_cache_hits_total",
        "buffer-cache hits across all points",
        hits as f64,
    );
    w.counter(
        "fbf_cache_misses_total",
        "buffer-cache misses across all points",
        misses as f64,
    );
    w.counter(
        "fbf_replans_total",
        "stripe re-plans issued by failure escalation",
        replans as f64,
    );
    w.counter(
        "fbf_stripes_lost_total",
        "stripes whose damage exceeded the code's fault tolerance",
        stripes_lost as f64,
    );
    w.counter(
        "fbf_stripes_unresolved_total",
        "stripes left neither repaired nor typed lost when escalation rounds ran out",
        stripes_unresolved as f64,
    );
    w.gauge(
        "fbf_queue_depth_max",
        "deepest disk queue observed (high-water, max-merged)",
        queue_depth_max as f64,
    );
    if let Some(worst) = worst_balance {
        w.gauge(
            "fbf_read_balance_worst",
            "worst per-point declustering uniformity (busiest disk / mean; 1.0 = even)",
            worst,
        );
    }

    let series: Vec<(&str, &Digest)> = RequestClass::ALL
        .iter()
        .map(|c| (c.name(), &class[c.index()]))
        .collect();
    w.histogram(
        "fbf_read_latency_seconds",
        "chunk read latency by request class (merged across all points)",
        "class",
        &series,
    );
    let quantile_gauges: Vec<(&str, f64)> = RequestClass::ALL
        .iter()
        .map(|c| {
            let d = &class[c.index()];
            (c.name(), d.quantile_ns(0.99).unwrap_or(0) as f64 / 1e9)
        })
        .collect();
    w.gauge_per(
        "fbf_read_latency_p99_seconds",
        "per-class p99 read latency over the merged digest",
        "class",
        &quantile_gauges,
    );

    if slo_evaluated {
        w.gauge(
            "fbf_slo_pass",
            "1 when every point met every active latency objective",
            if slo_pass { 1.0 } else { 0.0 },
        );
        let verdicts: Vec<(&str, f64)> = RequestClass::ALL
            .iter()
            .map(|c| (c.name(), if class_pass[c.index()] { 1.0 } else { 0.0 }))
            .collect();
        w.gauge_per(
            "fbf_slo_class_pass",
            "per-class SLO verdict across all points (1 = pass)",
            "class",
            &verdicts,
        );
    }
    w.into_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ExperimentConfig, SloSpec};
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

    #[test]
    fn snapshot_totals_match_points() {
        let pts = points();
        let s = prometheus_snapshot(&pts);
        let reads: u64 = pts.iter().map(|p| p.disk_reads).sum();
        assert!(s.contains(&format!("\nfbf_disk_reads_total {reads}\n")));
        // The merged recovery digest covers every read-latency sample.
        let count: u64 = pts
            .iter()
            .map(|p| p.class_latency[RequestClass::Recovery.index()].count)
            .sum();
        assert!(
            s.contains(&format!(
                "fbf_read_latency_seconds_count{{class=\"recovery\"}} {count}"
            )),
            "{s}"
        );
        // No SLO configured → no verdict gauges.
        assert!(!s.contains("fbf_slo_pass"));
    }

    #[test]
    fn snapshot_is_order_independent() {
        let pts = points();
        let forward = prometheus_snapshot(&pts);
        let reversed: Vec<Metrics> = pts.into_iter().rev().collect();
        assert_eq!(
            forward,
            prometheus_snapshot(&reversed),
            "digest merge must be commutative across points"
        );
    }

    #[test]
    fn slo_gauges_appear_when_evaluated() {
        let mut pts = points();
        for p in &mut pts {
            p.evaluate_slo(&SloSpec::none().class(RequestClass::Recovery, 1e6, 0.0));
        }
        let s = prometheus_snapshot(&pts);
        assert!(s.contains("\nfbf_slo_pass 1\n"), "{s}");
        assert!(s.contains("fbf_slo_class_pass{class=\"recovery\"} 1"));
    }

    #[test]
    fn every_metric_name_is_legal() {
        // PromWriter asserts on emission; an empty-input snapshot must
        // also render without panicking.
        let s = prometheus_snapshot(&[]);
        for line in s.lines().filter(|l| !l.starts_with('#') && !l.is_empty()) {
            let name: String = line
                .chars()
                .take_while(|c| *c != '{' && *c != ' ')
                .collect();
            assert!(fbf_obs::prom::valid_metric_name(&name), "{line}");
        }
    }
}
