//! The shape every workload shares: set up and run one warm-up pass
//! (together `setup_s`, repeated), then a fixed number of whole passes of a
//! fixed seed-derived op list; closed loop, one client thread.
//!
//! Nothing a run does follows the clock. Op counts per pass are fixed, so
//! every simulated counter is a per-pass value that must repeat exactly
//! from pass to pass; the pass count is [`Workload::PASSES`] scaled by
//! `--seconds`, so host times are taken over the same number of samples
//! however fast the code under test is.

pub mod daemon_small;
pub mod dataplane_file;
pub mod faulted_sim;
pub mod plan_cold;
pub mod rebuild_decl;
pub mod sweep_warm;

use crate::env;
use crate::metrics::{Outcome, Values, PER_LAYER};
use crate::span::{Tracer, BREAKDOWN_HEADER};
use crate::stats::{median, p50_and_tail};
use fbf::cache::CacheStats;
use fbf::core::PlannedCampaign;
use fbf::disksim::Op;
use fbf::{Metrics, RunReport};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Set-ups per run: at least `MIN_SETUPS`, and up to `MAX_SETUPS` while
/// they have cost less than `CHEAP_SETUPS_S` together — a sub-second set-up
/// is the noisiest number here and the cheapest to repeat. `setup_s` is
/// their median.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 7;
const CHEAP_SETUPS_S: f64 = 2.0;
/// `--seconds` at which a run makes exactly [`Workload::PASSES`] passes
/// (`run_seconds` in `BENCHMARK.json`).
const NOMINAL_SECONDS: f64 = 10.0;
/// Untraced passes a traced run times first (more until 200 ops are
/// pooled, up to the untraced run's count): the baseline the traced pass
/// and the obs-enabled pass are compared against, and the sample
/// `op_p95_ms` is read from.
const TRACE_BASELINE_PASSES: usize = 3;
/// Pooled ops that back a 95th percentile (ten samples beyond it).
const P95_SAMPLE: usize = 200;
/// Children plus self exceeding a traced layer's wall time by more than
/// this share draws a warning.
const RECONCILE_TOLERANCE: f64 = 0.05;

/// What one benchmark process was asked to do.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// Workload name (also names the scratch directory and trace files).
    pub workload: &'static str,
    /// The run seed every input is derived from.
    pub seed: u64,
    /// Measurement length.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// 1/20-scale inputs, for tests and a seconds-long sanity run.
    pub smoke: bool,
    /// Output directory (`benchmark/out` from the repository root).
    pub out: PathBuf,
}

impl Ctx {
    /// `full` at full scale, a twentieth (at least `floor`) under `--smoke`.
    pub fn scaled(&self, full: usize, floor: usize) -> usize {
        if self.smoke {
            (full / 20).max(floor)
        } else {
            full
        }
    }

    /// The `index`-th seed of a named stream of this run.
    pub fn derive(&self, stream: &str, index: usize) -> u64 {
        crate::seed::derive(self.seed, stream, index as u64)
    }

    /// This process's scratch directory (arrays, sockets); removed by
    /// [`drive`] when the run ends.
    pub fn work_dir(&self) -> PathBuf {
        self.out
            .join("work")
            .join(format!("{}-{}", self.workload, std::process::id()))
    }
}

/// The simulated statistics of one pass: pure counts and virtual time,
/// so two passes — and two runs at one seed — must compare equal.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Sim {
    /// Ops folded in.
    pub ops: u64,
    /// Cache counters, summed.
    pub cache: CacheStats,
    /// Disk reads, summed.
    pub disk_reads: u64,
    /// Spare writes, summed.
    pub disk_writes: u64,
    /// Lost chunks recovered, summed.
    pub chunks: u64,
    /// Per-op mean read response (virtual ms), summed.
    pub response_ms: f64,
    /// Reconstruction time (virtual s), summed.
    pub reconstruction_s: f64,
    /// Deepest disk queue of any op.
    pub queue_depth_max: u64,
    /// Per-op read balance, summed.
    pub read_balance: f64,
    /// Escalation re-plans, summed.
    pub replans: u64,
    /// Escalation rounds, summed.
    pub replan_rounds: u64,
    /// Transient-fault retries, summed.
    pub fault_retries: u64,
    /// Stripes past fault tolerance, summed.
    pub stripes_lost: u64,
    /// Rebuild waves, summed.
    pub waves: u64,
    /// Per-op rebuild-read skew, summed.
    pub rebuild_skew: f64,
    /// Per-op foreground p99 (virtual ms), summed.
    pub app_p99_ms: f64,
}

impl Sim {
    /// Fold one engine report in, crediting `chunks` recovered chunks.
    pub fn add_report(&mut self, report: &RunReport, chunks: u64) {
        self.ops += 1;
        self.cache.merge(&report.cache);
        self.disk_reads += report.disk_reads;
        self.disk_writes += report.disk_writes;
        self.chunks += chunks;
        self.response_ms += report.read_response.avg_millis();
        self.reconstruction_s += report.makespan.as_secs_f64();
        self.queue_depth_max = self.queue_depth_max.max(report.queue_depth_max());
        self.read_balance += report.read_balance();
        self.fault_retries += report.faults.retries;
    }

    /// Fold one experiment's metrics in.
    pub fn add_metrics(&mut self, m: &Metrics) {
        self.ops += 1;
        self.cache.merge(&m.cache);
        self.disk_reads += m.disk_reads;
        self.disk_writes += m.disk_writes;
        self.chunks += m.chunks_recovered as u64;
        self.response_ms += m.avg_response_ms;
        self.reconstruction_s += m.reconstruction_s;
        self.queue_depth_max = self.queue_depth_max.max(m.queue_depth_max);
        self.read_balance += m.read_balance;
        self.replans += m.replans;
        self.replan_rounds += m.replan_rounds;
        self.fault_retries += m.faults.retries;
        self.stripes_lost += m.stripes_lost as u64;
    }

    fn per_op(&self, sum: f64) -> f64 {
        sum / self.ops.max(1) as f64
    }

    /// The four simulated end-to-end metrics (Fig. 8–11).
    fn end_to_end(&self, out: &mut Values) {
        out.set("sim_hit_ratio", self.cache.hit_ratio());
        out.set(
            "sim_reads_per_chunk",
            self.disk_reads as f64 / self.chunks.max(1) as f64,
        );
        out.set("sim_avg_response_ms", self.per_op(self.response_ms));
        out.set("sim_reconstruction_s", self.reconstruction_s);
    }

    /// Every exact per-layer counter; [`drive`] keeps the ones the
    /// workload is listed for.
    fn layers(&self, out: &mut Values) {
        out.set("cache.hits", self.cache.hits as f64);
        out.set("cache.evictions", self.cache.evictions as f64);
        out.set("cache.demotions", self.cache.demotions as f64);
        out.set("cache.prio_inserts_1", self.cache.prio_inserts[0] as f64);
        out.set("cache.prio_inserts_2", self.cache.prio_inserts[1] as f64);
        out.set("cache.prio_inserts_3", self.cache.prio_inserts[2] as f64);
        out.set("disksim.disk_reads", self.disk_reads as f64);
        out.set("disksim.disk_writes", self.disk_writes as f64);
        out.set("disksim.queue_depth_max", self.queue_depth_max as f64);
        out.set("disksim.read_balance", self.per_op(self.read_balance));
        out.set("recovery.replans", self.replans as f64);
        out.set("recovery.replan_rounds", self.replan_rounds as f64);
        out.set("disksim.fault_retries", self.fault_retries as f64);
        out.set("sim_stripes_lost", self.stripes_lost as f64);
        out.set("recovery.sched_waves", self.waves as f64);
        out.set("disksim.rebuild_skew", self.per_op(self.rebuild_skew));
        out.set("sim_app_p99_ms", self.per_op(self.app_p99_ms));
    }
}

/// Recorder for one pass over a workload's op list.
#[derive(Debug, Default)]
pub struct Pass {
    /// The untimed warm-up pass: a workload may run its one-off reference
    /// computations here.
    pub warmup: bool,
    /// Host latency of each op, ms.
    pub latencies_ms: Vec<f64>,
    /// Lost chunks repaired (or planned) by the pass.
    pub chunks: u64,
    /// Ops whose output check failed.
    pub failed: u64,
    /// The pass's simulated statistics.
    pub sim: Sim,
}

impl Pass {
    /// Time one op.
    pub fn time<T>(&mut self, op: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = op();
        self.record(t.elapsed());
        out
    }

    /// Record an op timed by the caller.
    pub fn record(&mut self, latency: Duration) {
        self.latencies_ms.push(latency.as_secs_f64() * 1e3);
    }

    /// Outcome of the op just timed: the chunks it repaired and whether
    /// its output checks held. A failed check is reported once on stderr.
    pub fn check(&mut self, chunks: u64, verdict: Result<(), String>) {
        self.chunks += chunks;
        if let Err(why) = verdict {
            if self.failed == 0 {
                eprintln!("output check failed: {why}");
            }
            self.failed += 1;
        }
    }

    fn busy_s(&self) -> f64 {
        self.latencies_ms.iter().sum::<f64>() / 1e3
    }
}

/// `Ok(())` when `cond` holds, else the lazily built message.
pub fn ensure(cond: bool, msg: impl FnOnce() -> String) -> Result<(), String> {
    if cond {
        Ok(())
    } else {
        Err(msg())
    }
}

/// Plan-quality counters walked from plans' worker scripts: planned reads
/// per lost chunk, and the share of read references FBF ranks priority 3
/// and 2 (chunks shared by three / two parity chains).
#[derive(Debug, Default)]
pub struct PlanShape {
    chunks: u64,
    reads: u64,
    by_priority: [u64; 3],
}

impl PlanShape {
    /// Fold one plan in.
    pub fn add(&mut self, plan: &PlannedCampaign) {
        self.chunks += plan.chunks_lost as u64;
        for op in plan.scripts.iter().flat_map(|s| &s.ops) {
            if let Op::Read { priority, .. } = op {
                self.reads += 1;
                self.by_priority[usize::from(priority.clamp(&1, &3) - 1)] += 1;
            }
        }
    }

    /// Record the three `recovery.*` plan-shape metrics.
    pub fn record(&self, layers: &mut Values) {
        let share = |n: u64| n as f64 / self.reads.max(1) as f64;
        layers.set(
            "recovery.reads_planned_per_chunk",
            self.reads as f64 / self.chunks.max(1) as f64,
        );
        layers.set("recovery.prio3_share", share(self.by_priority[2]));
        layers.set("recovery.prio2_share", share(self.by_priority[1]));
    }
}

/// What the untraced passes of a traced run measured, for overhead figures.
#[derive(Debug, Clone, Copy)]
pub struct Baseline {
    /// Median over passes of the summed op time, s.
    pub pass_busy_s: f64,
    /// Pooled op median, ms.
    pub op_p50_ms: f64,
}

/// One of the six workloads.
pub trait Workload: Sized {
    /// Timed passes of a run at the nominal `--seconds 10`: sized so they
    /// take about that long on the machine the benchmark was defined on.
    /// Other `--seconds` scale the count in proportion, so results are
    /// comparable between runs of equal `--seconds` only.
    const PASSES: usize;

    /// Generate every input from `ctx`'s seed and bring the system to the
    /// state ops start from. Timed as `setup_s`.
    fn setup(ctx: &Ctx) -> Result<Self, String>;

    /// Run the whole op list once. `Err` is an infrastructure failure
    /// that aborts the run; a wrong output goes through [`Pass::check`].
    fn pass(&mut self, pass: &mut Pass) -> Result<(), String>;

    /// Output checks that run once, after the last pass. Returns
    /// (checks made, checks failed).
    fn verify(&mut self) -> Result<(u64, u64), String> {
        Ok((0, 0))
    }

    /// Peak RSS of the process under test when it is not this one.
    fn peak_rss_kb(&self) -> Option<u64> {
        None
    }

    /// The traced pass: the same ops, each call into a layer wrapped in a
    /// span, plus the replays that attribute time inside those calls.
    fn trace(
        &mut self,
        ctx: &Ctx,
        tracer: &mut Tracer,
        baseline: &Baseline,
        layers: &mut Values,
    ) -> Result<(), String>;
}

/// Run one workload as the contract describes and return what it measured.
pub fn drive<W: Workload>(ctx: &Ctx) -> Result<Outcome, String> {
    let result = drive_inner::<W>(ctx);
    // Scratch arrays and sockets never outlive the run, pass or fail.
    let _ = std::fs::remove_dir_all(ctx.work_dir());
    result
}

fn drive_inner<W: Workload>(ctx: &Ctx) -> Result<Outcome, String> {
    // Set-up is everything before the first timed op: generating inputs,
    // bringing the system up, and the untimed warm-up pass that fills
    // caches and computes the reference results later passes are checked
    // against. Done several times; the last one is kept.
    let mut setups: Vec<f64> = Vec::with_capacity(MAX_SETUPS);
    let mut kept = None;
    while setups.len() < MIN_SETUPS
        || (setups.len() < MAX_SETUPS && setups.iter().sum::<f64>() < CHEAP_SETUPS_S)
    {
        drop(kept.take()); // one array set, one daemon at a time
        let t = Instant::now();
        let mut state = W::setup(ctx)?;
        let mut warmup = Pass {
            warmup: true,
            ..Pass::default()
        };
        state.pass(&mut warmup)?;
        setups.push(t.elapsed().as_secs_f64());
        kept = Some((state, warmup));
    }
    let (mut state, warmup) = kept.expect("MIN_SETUPS > 0");
    let mut failed = warmup.failed;

    // Timed passes. Every pass runs the same op list, so op `i` of every
    // pass is the same work: its best time over the passes is what the op
    // costs when nothing else on the machine is in its way. Interference
    // here only ever adds time, in bursts of seconds, so the per-op best
    // repeats run to run where medians over passes do not. A minimum
    // falls as its sample grows, so the sample is a fixed number of
    // passes, never however many fit in a time box.
    let ops = warmup.latencies_ms.len();
    let untraced = ((W::PASSES as f64 * ctx.seconds / NOMINAL_SECONDS).ceil() as usize).max(2);
    let passes = if ctx.trace {
        // The traced run's untraced baseline: enough for a p95.
        untraced.min(TRACE_BASELINE_PASSES.max(P95_SAMPLE.div_ceil(ops.max(1))))
    } else {
        untraced
    };
    let mut best_ms = vec![f64::INFINITY; ops];
    let mut pooled_ms = Vec::with_capacity(passes * ops);
    let mut busy_s = Vec::with_capacity(passes);
    for _ in 0..passes {
        let mut pass = Pass::default();
        state.pass(&mut pass)?;
        if pass.sim != warmup.sim || pass.latencies_ms.len() != ops || pass.chunks != warmup.chunks
        {
            eprintln!(
                "simulated statistics changed between passes:\n  {:?}\n  {:?}",
                warmup.sim, pass.sim
            );
            failed += 1;
        }
        failed += pass.failed;
        busy_s.push(pass.busy_s());
        for (best, &ms) in best_ms.iter_mut().zip(&pass.latencies_ms) {
            *best = best.min(ms);
        }
        pooled_ms.append(&mut pass.latencies_ms);
    }
    let (checks, checks_failed) = state.verify()?;
    failed += checks_failed;
    let mut attempted = pooled_ms.len() as u64 + checks;

    let mut values = Values::default();
    if ctx.trace {
        let (p50, tail) = p50_and_tail(&pooled_ms);
        let baseline = Baseline {
            pass_busy_s: median(&busy_s),
            op_p50_ms: p50,
        };
        let mut tracer = Tracer::new();
        let mut layers = Values::default();
        warmup.sim.layers(&mut layers);
        layers.set("op_p95_ms", tail);
        state.trace(ctx, &mut tracer, &baseline, &mut layers)?;

        let traced_ops = tracer.spans().iter().filter(|s| s.parent.is_none()).count();
        attempted += traced_ops as u64;
        layers.set("obs.traced_ops", traced_ops as f64);
        layers.set(
            "obs.trace_overhead_pct",
            100.0 * (tracer.ops_wall().as_secs_f64() / baseline.pass_busy_s.max(1e-9) - 1.0),
        );
        let reconcile = tracer.reconcile();
        let worst = reconcile.values().copied().fold(0.0, f64::max);
        layers.set("obs.reconcile_error_pct", 100.0 * worst);
        if worst > RECONCILE_TOLERANCE {
            // A measurement-quality verdict on the benchmark itself, decided
            // by host timing: reported, never counted as a failed output.
            eprintln!("warning: layers do not reconcile to wall time: {reconcile:?}");
        }
        write_trace(ctx, &tracer)?;
        for spec in PER_LAYER
            .iter()
            .filter(|m| m.workloads.contains(&ctx.workload))
        {
            let value = layers
                .get(spec.name)
                .ok_or_else(|| format!("{} did not measure {}", ctx.workload, spec.name))?;
            values.set(spec.name, value);
        }
    } else {
        values.set("op_p50_ms", median(&best_ms));
        values.set(
            "chunks_per_s",
            warmup.chunks as f64 / (best_ms.iter().sum::<f64>() / 1e3).max(1e-9),
        );
        values.set("setup_s", median(&setups));
        let rss_kb = state
            .peak_rss_kb()
            .or_else(|| env::peak_rss_kb(std::process::id()))
            .ok_or("cannot read VmHWM from /proc")?;
        values.set("peak_rss_mb", rss_kb as f64 / 1024.0);
        warmup.sim.end_to_end(&mut values);
    }
    Ok(Outcome {
        attempted,
        failed,
        values,
    })
}

/// Write this workload's spans and layer table under `ctx.out`.
fn write_trace(ctx: &Ctx, tracer: &Tracer) -> Result<(), String> {
    let write = |name: String, body: String| {
        let path = ctx.out.join(name);
        std::fs::write(&path, body).map_err(|e| format!("write {}: {e}", path.display()))
    };
    write(
        format!("trace.{}.jsonl", ctx.workload),
        tracer.jsonl(ctx.workload),
    )?;
    write(
        format!("layer_breakdown.{}.csv", ctx.workload),
        format!("{BREAKDOWN_HEADER}\n{}", tracer.breakdown_csv(ctx.workload)),
    )
}

/// Run the workload called `ctx.workload`.
pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    match ctx.workload {
        "sweep_warm" => drive::<sweep_warm::SweepWarm>(ctx),
        "plan_cold" => drive::<plan_cold::PlanCold>(ctx),
        "dataplane_file" => drive::<dataplane_file::DataplaneFile>(ctx),
        "faulted_sim" => drive::<faulted_sim::FaultedSim>(ctx),
        "rebuild_decl" => drive::<rebuild_decl::RebuildDecl>(ctx),
        "daemon_small" => drive::<daemon_small::DaemonSmall>(ctx),
        other => Err(format!("unknown workload `{other}`")),
    }
}
