//! The names everything later said about this repo's speed is said in:
//! workloads, end-to-end metrics and per-layer metrics, with unit,
//! direction and (end to end) regression bound.
//!
//! `BENCHMARK.json` at the repository root carries the same tables for the
//! driver; `tests/contract.rs` keeps the two in step.

use std::collections::BTreeMap;
use Better::{Higher, Lower};

/// Which direction is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// Spelling used in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One workload and the reason it exists.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadSpec {
    /// Normative name.
    pub name: &'static str,
    /// One line: the layer that does most of the work, and where it does little.
    pub why: &'static str,
}

/// The six workloads, in the order a full run interleaves them.
pub const WORKLOADS: [WorkloadSpec; 6] = [
    WorkloadSpec {
        name: "sweep_warm",
        why: "Fig. 8/9 sweep over warm plans: engine and cache-policy hot loop, planning ~0, cache from far below the working set to everything fits",
    },
    WorkloadSpec {
        name: "plan_cold",
        why: "Table IV cold planning is the op (a third of every plan+simulate), so a planner gain is visible; the engine only runs in the untimed output check",
    },
    WorkloadSpec {
        name: "dataplane_file",
        why: "Byte-moving repair on flushed FileBackend arrays: file I/O, fsync, xor_many and executor bookkeeping; no virtual clock, no planning",
    },
    WorkloadSpec {
        name: "faulted_sim",
        why: "Same engine as sweep_warm under injected faults: multi-round escalation and mid-run re-planning, so a fast path bought at the fault path's expense shows",
    },
    WorkloadSpec {
        name: "rebuild_decl",
        why: "Array-wide declustered rebuild: the fourth driver with scheduler, D3 layout and plan_custom; ~60 short engine waves per op, so per-wave costs count as much as the engine loop",
    },
    WorkloadSpec {
        name: "daemon_small",
        why: "Small engine jobs through fbfd on one unix-socket connection: wire, job table and status polling are the op, engine work is the minority",
    },
];

/// An end-to-end metric: every workload reports every one of these.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit (host or virtual time is part of the README's definition).
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// Share of the parent's median it may worsen by.
    pub bound: f64,
    /// Simulated statistic: identical pass to pass and run to run at a
    /// fixed seed, whatever the host does.
    pub exact: bool,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    exact: bool,
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
        exact,
    }
}

/// The end-to-end metrics.
///
/// Host-time bounds are sized to this sandbox, not to taste: its memory
/// system is shared with noisy neighbours (a 4 MiB pointer chase swings 5×
/// within a minute), so ten runs of one commit spread by up to a quarter
/// even on best-of-passes times. A 5–10 % change is judged by alternating
/// pairs (README.md), never by one run against these bounds.
///
/// The `sim_*` values repeat exactly at one seed — `repeat-check` holds
/// them to equality, and that is the exact gate. Their bounds here only
/// have to cover what the driver also measures, the quartile spread over
/// ten *different* seeds, and are the tightest that does: over 60 seeds the
/// widest ten-seed spread on the worst workload (`dataplane_file`, 4 × 32
/// errors) was 20.3 % / 4.2 % / 6.4 % / 12.0 %, rounded up with a little
/// headroom.
pub const END_TO_END: [EndToEnd; 8] = [
    e2e("op_p50_ms", "ms", Lower, 0.25, false),
    e2e("chunks_per_s", "1/s", Higher, 0.25, false),
    e2e("setup_s", "s", Lower, 0.25, false),
    e2e("peak_rss_mb", "MiB", Lower, 0.10, false),
    e2e("sim_hit_ratio", "ratio", Higher, 0.22, true),
    e2e("sim_reads_per_chunk", "reads/chunk", Lower, 0.05, true),
    e2e("sim_avg_response_ms", "ms", Lower, 0.08, true),
    e2e("sim_reconstruction_s", "s", Lower, 0.15, true),
];

/// A per-layer metric, measured by the traced run of the workloads listed.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    /// `<layer>.<what>` — the layer is a crate of the workspace.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// A count or simulated value that repeats exactly at a fixed seed.
    pub exact: bool,
    /// Workloads whose traced run measures it; elsewhere it reads 0.
    pub workloads: &'static [&'static str],
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    exact: bool,
    workloads: &'static [&'static str],
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        exact,
        workloads,
    }
}

const SW: &str = "sweep_warm";
const PC: &str = "plan_cold";
const DF: &str = "dataplane_file";
const FS: &str = "faulted_sim";
const RD: &str = "rebuild_decl";
const DS: &str = "daemon_small";
const ALL: &[&str] = &[SW, PC, DF, FS, RD, DS];
const ENGINE: &[&str] = &[SW, FS, RD];
/// Workloads whose ops run cache slices and disks, simulated or real.
const CACHED: &[&str] = &[SW, DF, FS, RD];
const PLANS: &[&str] = &[SW, PC];

/// The per-layer metrics (README.md has the "should move" column).
pub const PER_LAYER: [PerLayer; 64] = [
    // The latency tail, demoted from the end-to-end table: on this machine
    // it is interference, not the program, and no bound ≤ 25 % holds it.
    layer("op_p95_ms", "ms", Lower, false, ALL),
    // Planning, decomposed from outside.
    layer("workload.generate_ms", "ms", Lower, false, &[PC]),
    layer("codes.build_ms", "ms", Lower, false, &[PC]),
    layer("recovery.plan_ms", "ms", Lower, false, &[PC]),
    layer("recovery.scripts_ms", "ms", Lower, false, &[PC]),
    layer(
        "recovery.reads_planned_per_chunk",
        "reads/chunk",
        Lower,
        true,
        PLANS,
    ),
    layer("recovery.prio3_share", "ratio", Higher, true, PLANS),
    layer("recovery.prio2_share", "ratio", Higher, true, PLANS),
    layer("core.plan_cold_ms", "ms", Lower, false, &[PC]),
    layer("core.plan_self_ms", "ms", Lower, false, &[PC]),
    layer("core.plan_warm_us", "us", Lower, false, &[SW, DS]),
    layer("core.planstore_hit_ratio", "ratio", Higher, true, &[SW, DS]),
    // Engine and cache.
    layer("core.simulate_ms", "ms", Lower, false, &[SW]),
    layer("disksim.ns_per_script_op", "ns", Lower, false, &[SW]),
    layer("cache.ns_per_access", "ns", Lower, false, &[SW]),
    layer("disksim.engine_self_ms", "ms", Lower, false, &[SW]),
    layer("cache.hits", "count", Higher, true, CACHED),
    layer("cache.evictions", "count", Lower, true, CACHED),
    layer("cache.demotions", "count", Lower, true, CACHED),
    layer("cache.prio_inserts_1", "count", Lower, true, CACHED),
    layer("cache.prio_inserts_2", "count", Lower, true, CACHED),
    layer("cache.prio_inserts_3", "count", Lower, true, CACHED),
    layer("disksim.disk_reads", "count", Lower, true, CACHED),
    layer("disksim.disk_writes", "count", Lower, true, CACHED),
    layer("disksim.queue_depth_max", "count", Lower, true, ENGINE),
    layer("disksim.read_balance", "ratio", Lower, true, ENGINE),
    // Data plane.
    layer("disksim.backend_read_ms", "ms", Lower, false, &[DF]),
    layer("disksim.backend_write_ms", "ms", Lower, false, &[DF]),
    layer("disksim.backend_flush_ms", "ms", Lower, false, &[DF]),
    layer(
        "disksim.backend_read_mb_per_s",
        "MiB/s",
        Higher,
        false,
        &[DF],
    ),
    layer("disksim.backend_bytes", "bytes", Lower, true, &[DF]),
    layer("codes.xor_ms", "ms", Lower, false, &[DF]),
    layer("codes.xor_bytes", "bytes", Lower, true, &[DF]),
    layer("core.dataplane_ms", "ms", Lower, false, &[DF]),
    layer("core.dataplane_self_ms", "ms", Lower, false, &[DF]),
    layer("disksim.backend_format_s", "s", Lower, false, &[DF]),
    layer("codes.encode_ms_per_stripe", "ms", Lower, false, &[DF]),
    layer(
        "disksim.simbackend_materialize_ms",
        "ms",
        Lower,
        false,
        &[DF],
    ),
    // Fault path.
    layer("core.faulted_ms", "ms", Lower, false, &[FS]),
    layer("recovery.replans", "count", Lower, true, &[FS]),
    layer("recovery.replan_rounds", "count", Lower, true, &[FS]),
    layer("disksim.fault_retries", "count", Lower, true, &[FS]),
    layer("sim_stripes_lost", "count", Lower, true, &[FS]),
    // Rebuild.
    layer("core.rebuild_ms", "ms", Lower, false, &[RD]),
    layer("recovery.sched_admit_ms", "ms", Lower, false, &[RD]),
    layer("recovery.sched_waves", "count", Lower, true, &[RD]),
    layer("disksim.rebuild_skew", "ratio", Lower, true, &[RD]),
    layer("sim_app_p99_ms", "ms", Lower, true, &[RD]),
    // Daemon.
    layer("daemon.connect_ms", "ms", Lower, false, &[DS]),
    layer("daemon.ping_us", "us", Lower, false, &[DS]),
    layer("daemon.submit_us", "us", Lower, false, &[DS]),
    layer("daemon.status_us", "us", Lower, false, &[DS]),
    layer("daemon.polls_per_job", "count", Lower, false, &[DS]),
    layer("daemon.detect_us", "us", Lower, false, &[DS]),
    layer("daemon.direct_ms", "ms", Lower, false, &[DS]),
    layer("daemon.overhead_ms", "ms", Lower, false, &[DS]),
    layer("core.json_parse_us", "us", Lower, false, &[DS]),
    layer("core.json_render_us", "us", Lower, false, &[DS]),
    layer("core.metrics_to_json_us", "us", Lower, false, &[DS]),
    layer("daemon.rss_kb_per_job", "KiB", Lower, false, &[DS]),
    // Observability and the benchmark's own cost.
    layer("obs.enabled_overhead_pct", "%", Lower, false, &[SW]),
    layer("obs.trace_overhead_pct", "%", Lower, false, ALL),
    layer("obs.reconcile_error_pct", "%", Lower, false, ALL),
    layer("obs.traced_ops", "count", Higher, true, ALL),
];

/// Is `name` a known workload?
pub fn workload_named(name: &str) -> Option<&'static WorkloadSpec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Named values measured by one run, in a stable order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Values(pub BTreeMap<&'static str, f64>);

impl Values {
    /// Record `value` under `name`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }

    /// The value recorded under `name`, if any.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

/// What one benchmark process measured.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// Operations timed.
    pub attempted: u64,
    /// Operations (or output checks) that failed.
    pub failed: u64,
    /// The end-to-end values (untraced run) or the per-layer values this
    /// workload measures (traced run).
    pub values: Values,
}

/// Unit of `name` in either table.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .find(|m| m.name == name)
        .map(|m| m.unit)
        .or_else(|| PER_LAYER.iter().find(|m| m.name == name).map(|m| m.unit))
}

impl Outcome {
    /// The contract's result line: `correct`, `attempted`, `failed`,
    /// `metrics`. A traced run lists every per-layer name; the ones this
    /// workload does not exercise read 0.
    pub fn result_line(&self, traced: bool) -> String {
        let names: Vec<&'static str> = if traced {
            PER_LAYER.iter().map(|m| m.name).collect()
        } else {
            END_TO_END.iter().map(|m| m.name).collect()
        };
        let metrics: Vec<String> = names
            .iter()
            .map(|name| {
                let value = self.values.get(name).unwrap_or(0.0);
                let unit = unit_of(name).expect("name comes from the tables");
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_the_contract_charset() {
        let mut seen = std::collections::BTreeSet::new();
        let names = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name));
        for name in names {
            assert!(seen.insert(name), "{name} used twice");
            assert!(name.len() <= 64);
            assert!(name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for layer in &PER_LAYER {
            assert!(!layer.workloads.is_empty());
            assert!(layer.workloads.iter().all(|w| workload_named(w).is_some()));
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
    }

    #[test]
    fn result_line_lists_every_name_of_its_mode() {
        let mut values = Values::default();
        values.set("op_p50_ms", 1.25);
        let outcome = Outcome {
            attempted: 3,
            failed: 0,
            values,
        };
        let line = outcome.result_line(false);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0"));
        assert!(line.contains("\"op_p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}"));
        assert!(line.contains("\"setup_s\": {\"value\": 0, \"unit\": \"s\"}"));
        assert!(!line.contains("cache.hits"));
        assert!(outcome.result_line(true).contains("\"cache.hits\""));
    }
}
