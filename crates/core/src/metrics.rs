//! The four evaluation metrics of §IV-A, plus FBF's overhead (Table IV)
//! and — when a fault plan is active — the fault/escalation counters.

use crate::faulted::FaultedOutcome;
use crate::plan::PlanSource;
use fbf_cache::CacheStats;
use fbf_disksim::{Digest, FaultCounters, RequestClass, SimTime};
use fbf_obs::{HostTime, Json};
use fbf_recovery::DataLoss;

/// Schema revision of every metrics JSON document this workspace emits
/// ([`Metrics::to_json`], daemon replies). Bump when a key is renamed,
/// removed, or changes meaning, so consumers can reject documents whose
/// version they do not understand instead of misreading them.
pub const METRICS_SCHEMA_VERSION: u64 = 2;

/// Tail summary of one request class's read latency.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ClassLatency {
    /// Reads attributed to the class.
    pub count: u64,
    /// Median, ms (0 when the class saw no reads).
    pub p50_ms: f64,
    /// 90th percentile, ms.
    pub p90_ms: f64,
    /// 99th percentile, ms.
    pub p99_ms: f64,
    /// 99.9th percentile, ms.
    pub p999_ms: f64,
}

/// The `q`-quantile of a nanosecond latency digest, ms (0 when empty).
fn quantile_ms(digest: &Digest, q: f64) -> f64 {
    digest
        .quantile_ns(q)
        .map_or(0.0, |ns| SimTime::from_nanos(ns).as_millis_f64())
}

impl ClassLatency {
    /// Tail summary of a latency digest (the daemon's `stat` command
    /// renders digests merged across jobs through this too).
    pub fn from_digest(digest: &Digest) -> Self {
        ClassLatency {
            count: digest.count(),
            p50_ms: quantile_ms(digest, 0.50),
            p90_ms: quantile_ms(digest, 0.90),
            p99_ms: quantile_ms(digest, 0.99),
            p999_ms: quantile_ms(digest, 0.999),
        }
    }

    /// The summary as a JSON object (`count` plus the four quantiles).
    pub fn to_json_value(&self) -> Json {
        Json::obj([
            ("count", Json::Num(self.count as f64)),
            ("p50_ms", Json::Num(self.p50_ms)),
            ("p90_ms", Json::Num(self.p90_ms)),
            ("p99_ms", Json::Num(self.p99_ms)),
            ("p999_ms", Json::Num(self.p999_ms)),
        ])
    }
}

/// Everything measured over one experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct Metrics {
    /// Metric 1 — buffer-cache hit ratio during reconstruction.
    pub hit_ratio: f64,
    /// Metric 2 — total disk reads issued during recovery.
    pub disk_reads: u64,
    /// Metric 3 — mean response time of chunk read requests, ms.
    pub avg_response_ms: f64,
    /// Median read latency, ms.
    pub p50_response_ms: f64,
    /// 95th-percentile read latency, ms.
    pub p95_response_ms: f64,
    /// 99th-percentile read latency, ms — the tail the mean hides.
    pub p99_response_ms: f64,
    /// Metric 4 — total (virtual) reconstruction time, seconds.
    pub reconstruction_s: f64,
    /// Repair progress: time by which half of the lost chunks were
    /// rewritten (window-of-vulnerability midpoint), seconds.
    pub repair_p50_s: f64,
    /// Time by which 90% of the lost chunks were rewritten, seconds.
    pub repair_p90_s: f64,
    /// Table IV — host time spent generating the campaign's schemes and
    /// priorities (see [`overhead_per_stripe_ms`](Self::overhead_per_stripe_ms)).
    pub generation: HostTime,
    /// Spare-area writes (sanity: equals lost chunks).
    pub disk_writes: u64,
    /// Raw cache counters.
    pub cache: CacheStats,
    /// Stripes repaired.
    pub stripes_repaired: usize,
    /// Chunks recovered.
    pub chunks_recovered: usize,
    /// Whether this run generated its plan (`Cold`) or reused a shared one
    /// (`Warm`). `generation` is always the *cold* generation cost; this
    /// field records its provenance.
    pub plan_source: PlanSource,
    /// Fault-path counters (all zero when the fault plan is inactive).
    pub faults: FaultCounters,
    /// Stripe re-plans issued by failure escalation.
    pub replans: u64,
    /// Escalation rounds executed (0 = no hard failures).
    pub replan_rounds: u64,
    /// Stripes whose damage exceeded the code's fault tolerance.
    pub stripes_lost: usize,
    /// Stripes left neither repaired nor typed lost: the escalation round
    /// cap hit ([`FaultedOutcome::rounds_exhausted`]). Non-zero means the
    /// campaign did NOT converge.
    pub stripes_unresolved: usize,
    /// Per-stripe data-loss verdicts (empty unless faults destroyed data).
    pub data_loss: Vec<DataLoss>,
    /// Per-class nanosecond read-latency digests, indexed by
    /// [`RequestClass::index`] (mergeable; summaries and Prometheus
    /// exposition read these). Counts partition the run's reads exactly.
    pub class_digests: [Digest; RequestClass::COUNT],
    /// Deepest any disk queue got during the run (high-water, merged via
    /// max across rounds and workers).
    pub queue_depth_max: u64,
    /// Declustering uniformity: busiest disk's reads over the per-disk
    /// mean (1.0 = perfectly balanced; 0 = no reads).
    pub read_balance: f64,
}

impl Metrics {
    /// Tail summary of `class`'s read latency.
    pub fn class_latency(&self, class: RequestClass) -> ClassLatency {
        ClassLatency::from_digest(&self.class_digests[class.index()])
    }

    /// Table IV — generation host time per repaired stripe, ms (0 when
    /// none was).
    pub fn overhead_per_stripe_ms(&self) -> f64 {
        match self.stripes_repaired {
            0 => 0.0,
            n => self.generation.ms() / n as f64,
        }
    }

    /// Table IV — generation host time as a percentage of the (virtual)
    /// reconstruction time (0 when the reconstruction took none).
    pub fn overhead_pct(&self) -> f64 {
        if self.reconstruction_s == 0.0 {
            0.0
        } else {
            100.0 * self.generation.secs() / self.reconstruction_s
        }
    }

    /// Assemble from a simulated campaign: the merged report's figures
    /// plus the escalation verdicts.
    pub fn from_faulted(
        outcome: &FaultedOutcome,
        generation: HostTime,
        plan_source: PlanSource,
    ) -> Self {
        let report = &outcome.report;
        let reads = report.read_latency();
        Metrics {
            hit_ratio: report.cache.hit_ratio(),
            disk_reads: report.disk_reads,
            avg_response_ms: report.read_response.avg_millis(),
            p50_response_ms: quantile_ms(&reads, 0.50),
            p95_response_ms: quantile_ms(&reads, 0.95),
            p99_response_ms: quantile_ms(&reads, 0.99),
            reconstruction_s: report.makespan.as_secs_f64(),
            repair_p50_s: completion_quantile(&report.write_completions, 0.50),
            repair_p90_s: completion_quantile(&report.write_completions, 0.90),
            generation,
            disk_writes: report.disk_writes,
            cache: report.cache,
            stripes_repaired: outcome.stripes_repaired,
            chunks_recovered: outcome.chunks_recovered,
            plan_source,
            faults: report.faults,
            replans: outcome.replans,
            replan_rounds: outcome.rounds,
            stripes_lost: outcome.data_loss.len(),
            stripes_unresolved: outcome.unresolved.len(),
            data_loss: outcome.data_loss.clone(),
            class_digests: report.class_latency.clone(),
            queue_depth_max: report.queue_depth_max(),
            read_balance: report.read_balance(),
        }
    }

    /// The scalar metrics as a JSON object; data-loss stripes as an
    /// array, per-class latency keyed by class name. The
    /// daemon and CLI embed this value in their replies directly.
    pub fn to_json_value(&self) -> Json {
        let n = |v: u64| Json::Num(v as f64);
        let loss = self.data_loss.iter().map(|d| {
            Json::obj([
                ("stripe", n(u64::from(d.stripe))),
                ("columns", n(d.columns as u64)),
            ])
        });
        let classes = RequestClass::ALL.map(|c| (c.name(), self.class_latency(c).to_json_value()));
        Json::obj([
            ("schema_version", n(METRICS_SCHEMA_VERSION)),
            ("hit_ratio", Json::Num(self.hit_ratio)),
            ("disk_reads", n(self.disk_reads)),
            ("disk_writes", n(self.disk_writes)),
            ("avg_response_ms", Json::Num(self.avg_response_ms)),
            ("p99_response_ms", Json::Num(self.p99_response_ms)),
            ("reconstruction_s", Json::Num(self.reconstruction_s)),
            ("stripes_repaired", n(self.stripes_repaired as u64)),
            ("chunks_recovered", n(self.chunks_recovered as u64)),
            ("media_errors", n(self.faults.media_errors)),
            ("transient_faults", n(self.faults.transient_faults)),
            ("retries", n(self.faults.retries)),
            ("retries_exhausted", n(self.faults.retries_exhausted)),
            ("dead_disk_reads", n(self.faults.dead_disk_reads)),
            ("skipped_ops", n(self.faults.skipped_ops)),
            ("replans", n(self.replans)),
            ("replan_rounds", n(self.replan_rounds)),
            ("stripes_lost", n(self.stripes_lost as u64)),
            ("stripes_unresolved", n(self.stripes_unresolved as u64)),
            ("data_loss", Json::Arr(loss.collect())),
            ("queue_depth_max", n(self.queue_depth_max)),
            ("read_balance", Json::Num(self.read_balance)),
            ("classes", Json::obj(classes)),
        ])
    }

    /// [`to_json_value`](Self::to_json_value), rendered: keys sorted,
    /// floats in shortest round-trip form.
    pub fn to_json(&self) -> String {
        self.to_json_value().render()
    }
}

/// The completion instant (seconds) by which fraction `q` of the writes
/// had landed; 0 when no writes were recorded. Completion order is already
/// sorted by construction (events fire in time order).
fn completion_quantile(completions: &[SimTime], q: f64) -> f64 {
    if completions.is_empty() {
        return 0.0;
    }
    let rank = ((completions.len() as f64 * q).ceil() as usize).clamp(1, completions.len());
    completions[rank - 1].as_secs_f64()
}

impl std::fmt::Display for Metrics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "hit={:.4} reads={} resp={:.3}ms recon={:.3}s \
             host_overhead_ms_per_stripe={:.4} host_overhead_pct={:.2}",
            self.hit_ratio,
            self.disk_reads,
            self.avg_response_ms,
            self.reconstruction_s,
            self.overhead_per_stripe_ms(),
            self.overhead_pct()
        )?;
        if !self.faults.is_empty() || self.stripes_lost > 0 {
            write!(
                f,
                " faults[hard={} retries={} replans={} rounds={} lost={}]",
                self.faults.hard_failures(),
                self.faults.retries,
                self.replans,
                self.replan_rounds,
                self.stripes_lost
            )?;
        }
        if self.stripes_unresolved > 0 {
            write!(f, " UNRESOLVED[stripes={}]", self.stripes_unresolved)?;
        }
        for class in RequestClass::ALL {
            let l = self.class_latency(class);
            if l.count > 0 {
                write!(f, " {}[n={} p99={:.2}ms]", class.name(), l.count, l.p99_ms)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fbf_disksim::{ResponseStats, RunReport};

    fn report() -> RunReport {
        let cache = CacheStats {
            hits: 30,
            misses: 70,
            ..Default::default()
        };
        let mut read_response = ResponseStats::default();
        for _ in 0..10 {
            read_response.merge(&ResponseStats {
                count: 1,
                total: SimTime::from_millis(5),
                max: SimTime::from_millis(5),
            });
        }
        RunReport {
            makespan: SimTime::from_secs(2),
            cache,
            disk_reads: 70,
            disk_writes: 12,
            read_response,
            ..Default::default()
        }
    }

    /// Metrics of one pass that repaired `stripes_repaired` stripes and
    /// `chunks_recovered` chunks, with no escalation.
    fn from_run(
        report: &RunReport,
        generation: HostTime,
        stripes_repaired: usize,
        chunks_recovered: usize,
        plan_source: PlanSource,
    ) -> Metrics {
        let outcome = FaultedOutcome {
            report: report.clone(),
            replans: 0,
            rounds: 0,
            data_loss: Vec::new(),
            replanned: Default::default(),
            stripes_repaired,
            chunks_recovered,
            rounds_exhausted: false,
            unresolved: Vec::new(),
        };
        Metrics::from_faulted(&outcome, generation, plan_source)
    }

    #[test]
    fn from_run_maps_fields() {
        let m = from_run(
            &report(),
            HostTime::from_nanos(20_000_000),
            10,
            12,
            PlanSource::Cold,
        );
        assert!((m.hit_ratio - 0.3).abs() < 1e-12);
        assert_eq!(m.disk_reads, 70);
        assert!((m.avg_response_ms - 5.0).abs() < 1e-9);
        assert!((m.reconstruction_s - 2.0).abs() < 1e-12);
        assert!((m.overhead_per_stripe_ms() - 2.0).abs() < 1e-9);
        assert!((m.overhead_pct() - 1.0).abs() < 1e-9);
        assert_eq!(m.disk_writes, 12);
    }

    #[test]
    fn zero_denominators_are_safe() {
        let r = RunReport::default();
        let m = from_run(&r, HostTime::ZERO, 0, 0, PlanSource::Cold);
        assert_eq!(m.overhead_per_stripe_ms(), 0.0);
        assert_eq!(m.overhead_pct(), 0.0);
        assert_eq!(m.hit_ratio, 0.0);
    }

    #[test]
    fn repair_progress_quantiles() {
        let mut r = report();
        r.write_completions = (1..=10).map(SimTime::from_secs).collect();
        let m = from_run(&r, HostTime::ZERO, 10, 10, PlanSource::Cold);
        assert!((m.repair_p50_s - 5.0).abs() < 1e-9);
        assert!((m.repair_p90_s - 9.0).abs() < 1e-9);
    }

    #[test]
    fn repair_progress_empty_is_zero() {
        let m = from_run(
            &RunReport::default(),
            HostTime::ZERO,
            0,
            0,
            PlanSource::Cold,
        );
        assert_eq!(m.repair_p50_s, 0.0);
        assert_eq!(m.repair_p90_s, 0.0);
    }

    #[test]
    fn class_summaries_and_balance_map_from_report() {
        use fbf_disksim::DiskStats;
        let mut r = report();
        for _ in 0..90 {
            r.record_read(RequestClass::App, SimTime::from_millis(2));
        }
        for _ in 0..10 {
            r.record_read(RequestClass::Recovery, SimTime::from_millis(40));
        }
        r.per_disk = vec![
            DiskStats {
                reads: 30,
                max_queue: 4,
                ..Default::default()
            },
            DiskStats {
                reads: 10,
                max_queue: 9,
                ..Default::default()
            },
        ];
        let m = from_run(&r, HostTime::ZERO, 1, 1, PlanSource::Cold);
        assert_eq!(m.class_latency(RequestClass::App).count, 90);
        assert_eq!(m.class_latency(RequestClass::Recovery).count, 10);
        assert!(m.class_latency(RequestClass::App).p99_ms < 3.0);
        assert!(m.class_latency(RequestClass::Recovery).p99_ms > 30.0);
        assert_eq!(m.queue_depth_max, 9, "high-water is a max over disks");
        // 30 reads on the busiest of two disks, mean 20 → balance 1.5.
        assert!((m.read_balance - 1.5).abs() < 1e-12);
    }

    #[test]
    fn json_text_parses_back_to_the_value_it_was_rendered_from() {
        let mut r = report();
        r.record_read(RequestClass::App, SimTime::from_millis(2));
        r.faults.media_errors = 3;
        let mut m = from_run(&r, HostTime::ZERO, 1, 1, PlanSource::Cold);
        m.stripes_lost = 1;
        m.data_loss = vec![DataLoss {
            stripe: 9,
            columns: 4,
            cells: Vec::new(),
        }];
        let v = m.to_json_value();
        assert_eq!(Json::parse(&m.to_json()).unwrap(), v);
        assert_eq!(v.get("schema_version").and_then(Json::as_u64), Some(2));
        assert_eq!(v.get("media_errors").and_then(Json::as_u64), Some(3));
        assert_eq!(v.get("hit_ratio").and_then(Json::as_f64), Some(m.hit_ratio));
        let loss = &v.get("data_loss").and_then(Json::as_arr).unwrap()[0];
        assert_eq!(loss.get("stripe").and_then(Json::as_u64), Some(9));
        assert_eq!(loss.get("columns").and_then(Json::as_u64), Some(4));
        let app = v.get("classes").and_then(|c| c.get("app")).unwrap();
        assert_eq!(app.get("count").and_then(Json::as_u64), Some(1));
        let Some(Json::Obj(classes)) = v.get("classes") else {
            panic!("classes is an object");
        };
        let names: Vec<&str> = classes.keys().map(String::as_str).collect();
        assert_eq!(names, ["app", "recovery", "replan"]);
        assert!(v.get("slo").is_none());
    }

    #[test]
    fn display_mentions_busy_classes_and_verdict() {
        let mut r = report();
        r.record_read(RequestClass::Recovery, SimTime::from_millis(5));
        let mut m = from_run(&r, HostTime::ZERO, 1, 1, PlanSource::Cold);
        m.stripes_lost = 2;
        let s = m.to_string();
        assert!(s.contains("recovery[n=1"), "{s}");
        assert!(s.contains("lost=2]"), "the data-loss verdict is shown: {s}");
        assert!(!s.contains("replan["), "idle classes stay out of the line");
    }

    #[test]
    fn display_is_compact() {
        let m = from_run(
            &report(),
            HostTime::from_nanos(20_000_000),
            10,
            12,
            PlanSource::Cold,
        );
        let s = m.to_string();
        assert!(s.contains("hit=0.3000"));
        assert!(s.contains("reads=70"));
    }
}
