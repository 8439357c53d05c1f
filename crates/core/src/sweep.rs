//! Parameter sweeps: run many experiment configurations in parallel and
//! collect labelled results.
//!
//! Each figure binary builds its grid of [`ExperimentConfig`]s and calls
//! [`sweep`]. Two things make grids cheap:
//!
//! * **Shared planning.** All points plan through one
//!   [`PlanStore`] — scheme generation runs once per distinct
//!   [`PlanKey`](crate::plan::PlanKey) (campaign shape), not once per
//!   point. A Fig. 8 grid replans ~45× less.
//! * **Work stealing.** Workers claim points one at a time off a shared
//!   atomic cursor (`work_steal`, the loop the rebuild driver's waves
//!   run on too), so an expensive point (big prime, huge campaign) never
//!   strands a statically-assigned chunk behind it. Results are keyed by
//!   index, and every experiment is deterministic given its config, so the
//!   output is identical to a serial run.
//!
//! Failures are *values*, not aborts: a failing point (bad prime,
//! unschedulable damage, even a worker panic) cancels the remaining queue
//! cooperatively and surfaces as `Err` from [`sweep`] — sibling points
//! already running complete normally and the process stays alive.

use crate::config::ExperimentConfig;
use crate::metrics::Metrics;
use crate::plan::{PlanSource, PlanStore};
use crate::report::Table;
use crate::runner::{run_planned_with_scratch, RunError};
use fbf_disksim::EngineScratch;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One labelled point of a sweep.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// The configuration that produced it.
    pub config: ExperimentConfig,
    /// Its metrics.
    pub metrics: Metrics,
}

/// A progress report for one completed sweep point.
#[derive(Debug, Clone, Copy)]
pub struct SweepProgress<'a> {
    /// Index of the completed point in the input slice.
    pub index: usize,
    /// Points completed so far (including this one).
    pub completed: usize,
    /// Total points in the sweep.
    pub total: usize,
    /// The completed point's configuration.
    pub config: &'a ExperimentConfig,
    /// Whether the point planned cold or reused a shared campaign.
    pub plan: PlanSource,
}

/// Cache sizes (MiB) swept by the figures, matching the paper's x-axes.
pub const CACHE_MB: [usize; 8] = [2, 8, 32, 64, 128, 256, 512, 2048];

/// A swept [`policy_grid`]: one point per (row, column) pair.
#[derive(Debug, Clone)]
pub struct Grid<R> {
    /// The grid's rows, in sweep order.
    pub rows: Vec<R>,
    /// Every point, row-major: a row's points are contiguous, in column
    /// order.
    pub points: Vec<SweepPoint>,
}

/// Sweep the paper's grid — `rows` × `cols`, each point built by
/// `config(row, col)`, in one [`sweep`]. The figures' rows are cache
/// sizes and their columns policies; the ablations and extensions put
/// any experiment axis on either side, and a column list of one `()`
/// gives a point per row.
pub fn policy_grid<R: Clone, C>(
    rows: &[R],
    cols: &[C],
    config: impl Fn(&R, &C) -> ExperimentConfig,
) -> Result<Grid<R>, RunError> {
    let config = &config;
    let configs: Vec<ExperimentConfig> = rows
        .iter()
        .flat_map(|r| cols.iter().map(move |c| config(r, c)))
        .collect();
    Ok(Grid {
        rows: rows.to_vec(),
        points: sweep(&configs, 0)?,
    })
}

impl<R> Grid<R> {
    /// Tabulate the grid: a table row per grid row, `label(row)` followed
    /// by `cells(point)` for each of its points.
    pub fn table(
        &self,
        title: impl Into<String>,
        headers: &[&str],
        label: impl Fn(&R) -> Vec<String>,
        cells: impl Fn(&SweepPoint) -> Vec<String>,
    ) -> Table {
        let mut table = Table::new(title, headers);
        let width = (self.points.len() / self.rows.len().max(1)).max(1);
        for (row, points) in self.rows.iter().zip(self.points.chunks(width)) {
            let mut line = label(row);
            line.extend(points.iter().flat_map(&cells));
            table.push_row(line);
        }
        table
    }
}

/// Run every configuration, preserving order. `threads = 0` uses all
/// cores. Plans are shared through an internal [`PlanStore`].
pub fn sweep(configs: &[ExperimentConfig], threads: usize) -> Result<Vec<SweepPoint>, RunError> {
    sweep_with_progress(configs, threads, &PlanStore::new(), |_| {})
}

/// The full sweep driver: a caller-owned [`PlanStore`], so campaigns
/// persist across sweeps (and hit/miss counts are observable),
/// work-stealing execution, and a per-point progress callback (invoked
/// from worker threads, in completion order).
pub fn sweep_with_progress(
    configs: &[ExperimentConfig],
    threads: usize,
    store: &PlanStore,
    progress: impl Fn(SweepProgress<'_>) + Sync,
) -> Result<Vec<SweepPoint>, RunError> {
    let n = configs.len();
    if n == 0 {
        return Ok(Vec::new());
    }
    let threads = if threads == 0 {
        host_threads()
    } else {
        threads
    }
    .min(n);

    // Sweep-level observability: emitted only when a subscriber is
    // installed AND at least one point opted in — a sweep of plain
    // configs stays silent even under an installed subscriber.
    let obs = fbf_obs::enabled() && configs.iter().any(|c| c.obs);
    let sweep_span = if obs {
        Some(fbf_obs::span("sweep", "run"))
    } else {
        None
    };
    let sweep_t0 = Instant::now();
    // Phase totals across all workers, nanoseconds (plan vs simulate
    // split per point; busy = both plus per-point bookkeeping).
    let plan_ns = AtomicU64::new(0);
    let sim_ns = AtomicU64::new(0);
    let busy_ns = AtomicU64::new(0);

    let completed = AtomicUsize::new(0);
    let results: Vec<Mutex<Option<Result<Metrics, RunError>>>> =
        (0..n).map(|_| Mutex::new(None)).collect();

    // One worker's life: steal the next index, run it, repeat. On any
    // failure, cancel the cursor so idle workers stop claiming; in-flight
    // siblings finish their current point untouched.
    let work = |worker: usize, cursor: &Cursor, scratch: &mut EngineScratch| {
        let mut worker_points = 0u64;
        let worker_t0 = Instant::now();
        let mut worker_busy_ns = 0u64;
        while let Some(i) = cursor.claim() {
            let cfg = &configs[i];
            let point_obs = obs && cfg.obs;
            // Each point is one externally-attributable unit of work: mint
            // it a trace so every span/counter it emits (plan, simulate,
            // engine run, decode batches) carries the point's ids and
            // check_trace.py --flows reassembles one tree per point. The
            // point span below is the tree's root.
            let trace_guard = point_obs.then(|| fbf_obs::with_trace(fbf_obs::next_trace_id()));
            let point_span = if point_obs {
                Some(fbf_obs::span("sweep", "point"))
            } else {
                None
            };
            let point_t0 = Instant::now();
            let mut point_plan_ns = 0u64;
            let mut point_sim_ns = 0u64;
            let outcome = catch_unwind(AssertUnwindSafe(|| -> Result<_, RunError> {
                cfg.validate()?;
                let t = Instant::now();
                let (plan, source) = store.plan(cfg)?;
                point_plan_ns = t.elapsed().as_nanos() as u64;
                let t = Instant::now();
                let metrics = run_planned_with_scratch(cfg, &plan, source, scratch);
                point_sim_ns = t.elapsed().as_nanos() as u64;
                Ok((metrics, source))
            }));
            let point_ns = point_t0.elapsed().as_nanos() as u64;
            worker_points += 1;
            worker_busy_ns += point_ns;
            if obs {
                plan_ns.fetch_add(point_plan_ns, Ordering::Relaxed);
                sim_ns.fetch_add(point_sim_ns, Ordering::Relaxed);
                busy_ns.fetch_add(point_ns, Ordering::Relaxed);
            }
            if let Some(span) = point_span {
                let source = match &outcome {
                    Ok(Ok((_, source))) => source.name(),
                    Ok(Err(_)) => "error",
                    Err(_) => "panic",
                };
                span.end_with(&[
                    ("index", fbf_obs::Value::U64(i as u64)),
                    ("policy", fbf_obs::Value::Str(cfg.policy.name())),
                    ("cache_mb", fbf_obs::Value::U64(cfg.cache_mb as u64)),
                    ("plan", fbf_obs::Value::Str(source)),
                    ("plan_ms", fbf_obs::Value::F64(point_plan_ns as f64 / 1e6)),
                    ("sim_ms", fbf_obs::Value::F64(point_sim_ns as f64 / 1e6)),
                ]);
            }
            drop(trace_guard);
            let result = match outcome {
                Ok(Ok((metrics, plan))) => {
                    let done = completed.fetch_add(1, Ordering::Relaxed) + 1;
                    progress(SweepProgress {
                        index: i,
                        completed: done,
                        total: n,
                        config: cfg,
                        plan,
                    });
                    Ok(metrics)
                }
                Ok(Err(e)) => {
                    cursor.cancel();
                    Err(e)
                }
                Err(panic) => {
                    cursor.cancel();
                    Err(RunError::Worker(panic_message(&*panic)))
                }
            };
            *results[i].lock().unwrap_or_else(|p| p.into_inner()) = Some(result);
        }
        if obs && worker_points > 0 {
            fbf_obs::instant(
                "sweep",
                "worker",
                &[
                    ("worker", fbf_obs::Value::U64(worker as u64)),
                    ("points", fbf_obs::Value::U64(worker_points)),
                    ("busy_ms", fbf_obs::Value::F64(worker_busy_ns as f64 / 1e6)),
                    (
                        "alive_ms",
                        fbf_obs::Value::F64(worker_t0.elapsed().as_secs_f64() * 1e3),
                    ),
                ],
            );
        }
    };

    work_steal(n, threads, &mut EngineScratch::new(), work);

    // Assemble in input order (the gather phase). With cancellation some
    // points may never have run; the first recorded error (by index) is
    // the sweep's error.
    let gather_t0 = Instant::now();
    let mut out = Vec::with_capacity(n);
    let mut first_error = None;
    for (result, cfg) in results.into_iter().zip(configs) {
        match result.into_inner().unwrap_or_else(|p| p.into_inner()) {
            Some(Ok(metrics)) => out.push(SweepPoint {
                config: *cfg,
                metrics,
            }),
            Some(Err(e)) => {
                first_error.get_or_insert(e);
            }
            None => {}
        }
    }
    if obs {
        let wall_ms = sweep_t0.elapsed().as_secs_f64() * 1e3;
        let busy_ms = busy_ns.load(Ordering::Relaxed) as f64 / 1e6;
        // Utilization: fraction of the workers' combined wall-clock
        // budget spent running points.
        let util = if wall_ms > 0.0 {
            (busy_ms / (wall_ms * threads as f64)).min(1.0) * 100.0
        } else {
            0.0
        };
        let store_stats = store.stats();
        fbf_obs::counter(
            "sweep",
            "summary",
            &[
                ("points", fbf_obs::Value::U64(out.len() as u64)),
                ("threads", fbf_obs::Value::U64(threads as u64)),
                ("wall_ms", fbf_obs::Value::F64(wall_ms)),
                (
                    "plan_ms",
                    fbf_obs::Value::F64(plan_ns.load(Ordering::Relaxed) as f64 / 1e6),
                ),
                (
                    "sim_ms",
                    fbf_obs::Value::F64(sim_ns.load(Ordering::Relaxed) as f64 / 1e6),
                ),
                (
                    "gather_ms",
                    fbf_obs::Value::F64(gather_t0.elapsed().as_secs_f64() * 1e3),
                ),
                ("busy_ms", fbf_obs::Value::F64(busy_ms)),
                ("util_pct", fbf_obs::Value::F64(util)),
                ("plan_cold", fbf_obs::Value::U64(store_stats.misses)),
                ("plan_warm", fbf_obs::Value::U64(store_stats.hits)),
                // High-water across the sweep: a max over points, computed
                // here because CountingSubscriber *sums* across events —
                // per-point emission would corrupt the high-water on merge.
                (
                    "queue_depth_max",
                    fbf_obs::Value::U64(
                        out.iter()
                            .map(|p| p.metrics.queue_depth_max)
                            .max()
                            .unwrap_or(0),
                    ),
                ),
            ],
        );
        // Fault/escalation totals across the sweep, only when any point
        // actually injected faults — the common faultless sweep stays
        // counter-for-counter identical to before.
        let mut fault_totals = fbf_disksim::FaultCounters::default();
        let (mut replans, mut lost) = (0u64, 0u64);
        for p in &out {
            fault_totals.merge(&p.metrics.faults);
            replans += p.metrics.replans;
            lost += p.metrics.stripes_lost as u64;
        }
        if !fault_totals.is_empty() || lost > 0 {
            fbf_obs::counter(
                "sweep",
                "faults",
                &[
                    ("media", fbf_obs::Value::U64(fault_totals.media_errors)),
                    (
                        "transient",
                        fbf_obs::Value::U64(fault_totals.transient_faults),
                    ),
                    ("retries", fbf_obs::Value::U64(fault_totals.retries)),
                    (
                        "exhausted",
                        fbf_obs::Value::U64(fault_totals.retries_exhausted),
                    ),
                    (
                        "dead_disk",
                        fbf_obs::Value::U64(fault_totals.dead_disk_reads),
                    ),
                    ("replans", fbf_obs::Value::U64(replans)),
                    ("stripes_lost", fbf_obs::Value::U64(lost)),
                ],
            );
        }
        if let Some(span) = sweep_span {
            span.end_with(&[
                ("points", fbf_obs::Value::U64(out.len() as u64)),
                ("threads", fbf_obs::Value::U64(threads as u64)),
            ]);
        }
    }
    match first_error {
        Some(e) => Err(e),
        None => Ok(out),
    }
}

/// The host's cores as this process may use them (affinity-aware), at
/// least 1.
pub(crate) fn host_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

/// The indices `0..n` of a [`work_steal`] loop, claimed one at a time.
pub(crate) struct Cursor {
    next: AtomicUsize,
    n: usize,
    cancelled: AtomicBool,
}

impl Cursor {
    /// The next unclaimed index; `None` once every index is claimed or
    /// the loop was cancelled.
    pub(crate) fn claim(&self) -> Option<usize> {
        if self.cancelled.load(Ordering::Relaxed) {
            return None;
        }
        let i = self.next.fetch_add(1, Ordering::Relaxed);
        (i < self.n).then_some(i)
    }

    /// Stop handing out indices; the ones already claimed run on.
    pub(crate) fn cancel(&self) {
        self.cancelled.store(true, Ordering::Relaxed);
    }
}

/// The one work-stealing loop — sweep points and rebuild waves both run
/// on it. `worker(w, cursor, scratch)` runs on min(`threads`, `n`)
/// threads and claims indices off the shared `cursor` until it runs dry.
/// The calling thread is worker 0 and brings `scratch`; each helper owns
/// a fresh [`EngineScratch`] for its whole life, so the engine's event
/// queue and per-worker vectors are allocated once per thread, not once
/// per index, and runs under the caller's trace context. A helper's panic
/// resumes on the calling thread once every worker has stopped. Helpers
/// are joined before this returns, so their thread-exit work
/// (flight-recorder ring retirement) is done.
pub(crate) fn work_steal(
    n: usize,
    threads: usize,
    scratch: &mut EngineScratch,
    worker: impl Fn(usize, &Cursor, &mut EngineScratch) + Sync,
) {
    let cursor = Cursor {
        next: AtomicUsize::new(0),
        n,
        cancelled: AtomicBool::new(false),
    };
    let trace = fbf_obs::trace_scope();
    std::thread::scope(|scope| {
        let helpers: Vec<_> = (1..threads.min(n))
            .map(|w| {
                let (cursor, worker) = (&cursor, &worker);
                scope.spawn(move || {
                    let _trace = trace.enter();
                    worker(w, cursor, &mut EngineScratch::new());
                })
            })
            .collect();
        worker(0, &cursor, scratch);
        for helper in helpers {
            if let Err(panic) = helper.join() {
                std::panic::resume_unwind(panic);
            }
        }
    });
}

/// The message a caught panic carried — what sweeps and the daemon say
/// of a worker that died.
pub(crate) fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "unknown panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::PlanStoreStats;
    use fbf_cache::PolicyKind;

    fn tiny(policy: PolicyKind, cache_mb: usize) -> ExperimentConfig {
        ExperimentConfig::builder()
            .policy(policy)
            .cache_mb(cache_mb)
            .stripes(128)
            .error_count(32)
            .workers(4)
            .gen_threads(1)
            .build()
            .unwrap()
    }

    #[test]
    fn sweep_preserves_order_and_runs_all() {
        let configs: Vec<ExperimentConfig> = [1, 4, 16]
            .into_iter()
            .map(|mb| tiny(PolicyKind::Lru, mb))
            .collect();
        let points = sweep(&configs, 2).unwrap();
        assert_eq!(points.len(), 3);
        for (p, c) in points.iter().zip(&configs) {
            assert_eq!(p.config.cache_mb, c.cache_mb);
        }
        // Hit ratio is monotone in cache size for this workload.
        assert!(points[0].metrics.hit_ratio <= points[2].metrics.hit_ratio);
    }

    #[test]
    fn parallel_equals_serial() {
        let configs: Vec<ExperimentConfig> =
            PolicyKind::ALL.into_iter().map(|p| tiny(p, 4)).collect();
        let serial = sweep(&configs, 1).unwrap();
        let parallel = sweep(&configs, 4).unwrap();
        for (a, b) in serial.iter().zip(&parallel) {
            assert_eq!(a.metrics.hit_ratio, b.metrics.hit_ratio);
            assert_eq!(a.metrics.disk_reads, b.metrics.disk_reads);
        }
    }

    #[test]
    fn empty_sweep() {
        assert!(sweep(&[], 4).unwrap().is_empty());
    }

    #[test]
    fn shared_store_plans_once_per_campaign() {
        // 5 policies × 3 cache sizes over one campaign shape = 15 points,
        // 1 plan.
        let configs: Vec<ExperimentConfig> = PolicyKind::ALL
            .into_iter()
            .flat_map(|p| [2, 4, 8].map(|mb| tiny(p, mb)))
            .collect();
        let store = PlanStore::new();
        let points = sweep_with_progress(&configs, 4, &store, |_| {}).unwrap();
        assert_eq!(points.len(), 15);
        let stats = store.stats();
        assert_eq!(stats.misses, 1, "one campaign shape, one cold plan");
        assert_eq!(stats.hits, 14);
        // Exactly one point carries the cold provenance.
        let cold = points
            .iter()
            .filter(|p| p.metrics.plan_source == PlanSource::Cold)
            .count();
        assert_eq!(cold, 1);
    }

    #[test]
    fn failing_point_is_err_without_poisoning_siblings() {
        let mut bad = tiny(PolicyKind::Lru, 4);
        bad.p = 8; // not prime: must surface as Err, not a process abort
        let configs = vec![tiny(PolicyKind::Lru, 2), bad, tiny(PolicyKind::Fbf, 2)];
        let err = sweep(&configs, 2).unwrap_err();
        assert!(
            matches!(err, RunError::Config(_)),
            "expected config error, got: {err}"
        );
        // The good configs still run fine on their own afterwards.
        assert!(sweep(&[configs[0], configs[2]], 2).is_ok());
    }

    #[test]
    fn progress_reports_every_point() {
        let configs: Vec<ExperimentConfig> = [1, 2, 4, 8]
            .into_iter()
            .map(|mb| tiny(PolicyKind::Fbf, mb))
            .collect();
        let store = PlanStore::new();
        let seen = Mutex::new(Vec::new());
        let points = sweep_with_progress(&configs, 2, &store, |p| {
            assert_eq!(p.total, 4);
            seen.lock().unwrap().push(p.index);
        })
        .unwrap();
        assert_eq!(points.len(), 4);
        let mut seen = seen.into_inner().unwrap();
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1, 2, 3]);
    }

    #[test]
    fn store_reuse_across_sweeps_is_all_hits() {
        let configs: Vec<ExperimentConfig> = [2, 8]
            .into_iter()
            .map(|mb| tiny(PolicyKind::Lru, mb))
            .collect();
        let store = PlanStore::new();
        sweep_with_progress(&configs, 2, &store, |_| {}).unwrap();
        sweep_with_progress(&configs, 2, &store, |_| {}).unwrap();
        assert_eq!(store.stats(), PlanStoreStats { hits: 3, misses: 1 });
    }
}
