//! Observability integration: the run trace is an accurate ledger.
//!
//! Three contracts, each exercised through the public facade the way a
//! user would hit them:
//!
//! 1. **Reconciliation** — counters carried by `engine/cache` events sum
//!    to exactly the totals the sweep reports through [`Metrics`], on a
//!    fixed-seed campaign, twice in a row (replay determinism).
//! 2. **Well-formedness** — `--trace`-style JSONL output is one JSON
//!    object per line, chrome://tracing-shaped, and internally complete.
//! 3. **Swap safety** — replacing the subscriber mid-sweep (work-stealing
//!    threads emitting concurrently) loses no events: the two counting
//!    subscribers together still reconcile with the reported metrics.
//!
//! The subscriber slot is process-global, so every test here serialises
//! on one mutex.

use fbf::obs::{CountingSubscriber, TraceWriter};
use fbf::PolicyKind;
use fbf::{sweep, ExperimentConfig};
use std::io::Write;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::time::Duration;

/// Serialise tests that install a global subscriber.
fn lock() -> MutexGuard<'static, ()> {
    static GATE: OnceLock<Mutex<()>> = OnceLock::new();
    GATE.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|p| p.into_inner())
}

/// A small fixed-seed campaign grid: two cache sizes across three
/// policies, obs turned on so every emission site fires.
fn grid() -> Vec<ExperimentConfig> {
    [2usize, 8]
        .into_iter()
        .flat_map(|mb| {
            [PolicyKind::Fbf, PolicyKind::Lru, PolicyKind::Arc]
                .into_iter()
                .map(move |policy| {
                    ExperimentConfig::builder()
                        .policy(policy)
                        .cache_mb(mb)
                        .stripes(192)
                        .error_count(48)
                        .workers(8)
                        .gen_threads(1)
                        .obs(true)
                        .build()
                        .expect("test grid is valid")
                })
        })
        .collect()
}

/// The `engine/cache` arg names whose event totals must equal the summed
/// [`fbf::cache::CacheStats`] fields of the reported metrics.
const CACHE_KEYS: [&str; 8] = [
    "hits",
    "misses",
    "evictions",
    "inserts",
    "demotions",
    "prio1",
    "prio2",
    "prio3",
];

fn summed_cache_field(points: &[fbf::SweepPoint], key: &str) -> u64 {
    points
        .iter()
        .map(|pt| {
            let c = &pt.metrics.cache;
            match key {
                "hits" => c.hits,
                "misses" => c.misses,
                "evictions" => c.evictions,
                "inserts" => c.inserts,
                "demotions" => c.demotions,
                "prio1" => c.prio_inserts[0],
                "prio2" => c.prio_inserts[1],
                "prio3" => c.prio_inserts[2],
                other => unreachable!("unknown key {other}"),
            }
        })
        .sum()
}

#[test]
fn counters_reconcile_with_metrics_and_replay_deterministically() {
    let _gate = lock();
    let configs = grid();

    let mut per_run_totals = Vec::new();
    for _ in 0..2 {
        let counting = Arc::new(CountingSubscriber::default());
        fbf::obs::install(counting.clone());
        let points = sweep(&configs, 2).expect("sweep runs");
        fbf::obs::uninstall();

        for key in CACHE_KEYS {
            assert_eq!(
                counting.total(&format!("engine/cache/{key}")),
                summed_cache_field(&points, key),
                "trace total for `{key}` must equal the reported metrics"
            );
        }
        // Fetched-chunk priority distribution partitions the inserts.
        assert_eq!(
            counting.total("engine/cache/prio1")
                + counting.total("engine/cache/prio2")
                + counting.total("engine/cache/prio3"),
            counting.total("engine/cache/inserts"),
        );
        // Per-disk read counters roll up to the reported read total.
        assert_eq!(
            counting.total("engine/disk/reads"),
            points.iter().map(|pt| pt.metrics.disk_reads).sum::<u64>(),
        );
        // FBF points demote; the queue snapshot fired for them.
        assert!(counting.total("engine/cache/demotions") > 0);
        assert!(counting.total("engine/queues/q1") + counting.total("engine/queues/q2") > 0);
        // Sweep bookkeeping: every point and the plan-store split showed up.
        assert_eq!(counting.total("sweep/summary/points"), configs.len() as u64);
        assert_eq!(
            counting.total("sweep/summary/plan_cold") + counting.total("sweep/summary/plan_warm"),
            configs.len() as u64,
        );

        per_run_totals.push(
            CACHE_KEYS
                .iter()
                .map(|k| counting.total(&format!("engine/cache/{k}")))
                .collect::<Vec<_>>(),
        );
    }
    assert_eq!(
        per_run_totals[0], per_run_totals[1],
        "fixed-seed campaign must trace identically on replay"
    );
}

/// A file repair's trace says where its time went: the engine's run, one
/// `flush` span, and a `decode` counter carrying the payload slab's
/// high-water mark and how many files the flush waited for — and no
/// batch spans, because nothing decodes in batches.
#[test]
fn data_plane_trace_shows_the_flush() {
    let _gate = lock();
    let cfg = ExperimentConfig::builder()
        .chunk_kb(1)
        .cache_mb(1)
        .stripes(64)
        .error_count(16)
        .workers(4)
        .gen_threads(1)
        .obs(true)
        .build()
        .unwrap();
    let plan = fbf::core::PlannedCampaign::cold(&cfg).unwrap();
    let dir = std::env::temp_dir().join(format!("fbf-obs-flush-{}", std::process::id()));
    let mut backend = fbf::file_backend_for(&cfg, &plan, &dir).unwrap();

    let run = |backend: &mut fbf::FileBackend| {
        let counting = Arc::new(CountingSubscriber::default());
        fbf::obs::install(counting.clone());
        fbf::run_planned_on(&cfg, &plan, fbf::PlanSource::Cold, backend).unwrap();
        fbf::obs::uninstall();
        counting
    };
    // First repair: the format's writes are still unflushed, so the flush
    // waits for every file.
    let first = run(&mut backend);
    let disks = plan.cols as u64;
    assert_eq!(first.total("data_plane/decode/files_synced"), disks);
    // The slab's ceiling: the cache.
    let slots = first.total("data_plane/decode/payload_slots");
    assert!(slots > 0 && slots <= cfg.cache_chunks() as u64);
    let data_plane: Vec<String> = first
        .totals()
        .into_keys()
        .filter(|k| k.starts_with("data_plane/"))
        .collect();
    assert_eq!(
        data_plane,
        [
            "data_plane/decode/files_synced",
            "data_plane/decode/payload_slots"
        ],
        "the decode counter is the data plane's only counted event"
    );
    assert!(first.total("engine/cache/misses") > 0, "the engine ran it");
    // Second repair: only the files its spare writes touch.
    let mapping = fbf::StorageBackend::mapping(&backend);
    let written: std::collections::BTreeSet<usize> = plan
        .errors
        .damage_by_stripe()
        .iter()
        .flat_map(|d| d.cells.iter().map(|&c| fbf::ChunkId::new(d.stripe, c)))
        .map(|chunk| mapping.disk_of(chunk))
        .collect();
    let second = run(&mut backend);
    assert_eq!(
        second.total("data_plane/decode/files_synced"),
        written.len() as u64
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn class_digests_partition_read_totals() {
    let _gate = lock();
    let configs = grid();
    let points = sweep(&configs, 2).expect("sweep runs");

    for pt in &points {
        let m = &pt.metrics;
        // Every chunk read completion was attributed to exactly one class:
        // digest counts partition the read total (hits + disk reads).
        let by_digest: u64 = m.class_digests.iter().map(|h| h.count()).sum();
        let by_summary: u64 = RequestClass::ALL
            .iter()
            .map(|&c| m.class_latency(c).count)
            .sum();
        assert_eq!(by_digest, by_summary, "summaries mirror the digests");
        assert_eq!(
            by_digest,
            m.cache.hits + m.disk_reads,
            "class digests must cover every read exactly once"
        );
        // This grid runs a pure reconstruction campaign: all traffic is
        // Recovery-classed, the other classes stay empty.
        use fbf::RequestClass;
        assert_eq!(
            m.class_digests[RequestClass::Recovery.index()].count(),
            by_digest
        );
        for class in [RequestClass::App, RequestClass::Replan] {
            assert_eq!(m.class_digests[class.index()].count(), 0, "{class} is idle");
        }
        // The high-water and balance gauges are live on a real campaign.
        assert!(m.queue_depth_max > 0);
        assert!(m.read_balance >= 1.0, "busiest disk is at least the mean");
    }

    // Replay determinism: the per-class tails are part of the fixed-seed
    // contract, not just the scalar counters.
    let replay = sweep(&configs, 2).expect("sweep replays");
    for (a, b) in points.iter().zip(&replay) {
        assert_eq!(
            a.metrics.class_digests, b.metrics.class_digests,
            "class digests must replay bit-identically"
        );
    }
}

/// `Write` sink whose bytes stay inspectable after the writer is consumed
/// by [`TraceWriter::from_writer`].
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[test]
fn jsonl_trace_is_well_formed() {
    let _gate = lock();
    let buf = SharedBuf::default();
    fbf::obs::install(Arc::new(TraceWriter::from_writer(Box::new(buf.clone()))));
    let points = sweep(&grid(), 2).expect("sweep runs");
    fbf::obs::uninstall();

    let bytes = buf.0.lock().unwrap().clone();
    let text = String::from_utf8(bytes).expect("trace is UTF-8");
    assert!(text.ends_with('\n'), "trace ends with a newline");

    let mut phases = std::collections::BTreeSet::new();
    let mut cache_events = 0usize;
    for line in text.lines() {
        assert!(
            line.starts_with('{') && line.ends_with('}'),
            "each line is one JSON object: {line}"
        );
        // Balanced structure (no string in the trace contains braces, so
        // plain counting is a faithful check here).
        let open = line.matches('{').count();
        let close = line.matches('}').count();
        assert_eq!(open, close, "balanced braces: {line}");
        assert_eq!(line.matches('"').count() % 2, 0, "paired quotes: {line}");
        for field in [
            "\"name\":",
            "\"cat\":",
            "\"ph\":",
            "\"pid\":1",
            "\"args\":{",
        ] {
            assert!(line.contains(field), "missing {field}: {line}");
        }
        let ph = line
            .split("\"ph\":\"")
            .nth(1)
            .and_then(|rest| rest.chars().next())
            .expect("ph present");
        assert!("XiCMst".contains(ph), "known phase {ph}: {line}");
        phases.insert(ph);
        if ph == 'X' {
            assert!(line.contains("\"dur\":"), "complete events carry dur");
        }
        if ph == 's' || ph == 't' {
            assert!(line.contains("\"id\":"), "flow events carry an id");
            assert!(
                line.contains("\"trace_id\":"),
                "flow events name their trace"
            );
        }
        if line.contains("\"cat\":\"engine\"") && line.contains("\"name\":\"cache\"") {
            cache_events += 1;
            for key in CACHE_KEYS {
                assert!(
                    line.contains(&format!("\"{key}\":")),
                    "cache event carries {key}"
                );
            }
        }
    }
    assert!(phases.contains(&'X') && phases.contains(&'C') && phases.contains(&'M'));
    // Sweep points mint a trace each, so causal flow records appear too.
    assert!(phases.contains(&'s'), "traced spans open flow records");
    assert_eq!(
        cache_events,
        points.len(),
        "one engine/cache snapshot per sweep point"
    );
}

/// A campaign hot enough that escalation declares stripes lost: heavy
/// media-error rate plus a dead disk. Seeded, so the loss (and the
/// events leading up to it) replays identically.
fn lossy_config() -> ExperimentConfig {
    use fbf::disksim::{DiskKill, SimTime};
    let mut cfg = ExperimentConfig::builder()
        .stripes(128)
        .error_count(48)
        .workers(8)
        .gen_threads(1)
        .obs(true)
        .build()
        .expect("lossy config is valid");
    cfg.faults = fbf::FaultPlan {
        seed: 99,
        media_per_mille: 120,
        disk_kill: Some(DiskKill {
            disk: 3,
            at: SimTime::from_millis(10),
        }),
        ..fbf::FaultPlan::none()
    };
    cfg
}

#[test]
fn data_loss_triggers_a_reproducible_flight_dump() {
    let _gate = lock();
    let cfg = lossy_config();
    let counting = Arc::new(CountingSubscriber::default());
    fbf::obs::install(counting.clone());

    // Two seeded runs, each against a fresh recorder: the data-loss
    // verdict must snapshot the ring, and the normalized dumps must be
    // byte-identical (the post-mortem artefact is diffable).
    let mut dumps = Vec::new();
    let mut metrics = Vec::new();
    for _ in 0..2 {
        fbf::obs::ring::install(Arc::new(fbf::obs::ring::FlightRecorder::with_capacity(
            4096,
        )));
        let m = fbf::run_experiment(&cfg).expect("lossy campaign still completes");
        assert!(m.stripes_lost > 0, "campaign must actually lose stripes");
        dumps.push(fbf::obs::ring::last_dump().expect("data loss dumped the flight recorder"));
        fbf::obs::ring::uninstall();
        metrics.push(m);
    }
    fbf::obs::uninstall();

    let (reason, lines) = &dumps[0];
    assert_eq!(reason, "data-loss");
    assert_eq!(
        dumps[0], dumps[1],
        "normalized dumps replay byte-identically"
    );

    // The dump is well-formed JSONL: a metadata header, then events whose
    // final entry is the data-loss instant naming the lost-stripe count.
    assert!(lines.len() > 1, "dump carries events, not just the header");
    assert!(lines[0].contains("fbf-flight"), "{}", lines[0]);
    for line in lines {
        assert!(line.ends_with('\n'), "each dump entry is one JSONL line");
        let line = line.trim_end();
        assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
    }
    let last = lines.last().unwrap();
    assert!(last.contains("\"name\":\"data-loss\""), "{last}");
    assert!(
        last.contains(&format!("\"stripes\":{}", metrics[0].stripes_lost)),
        "dump's verdict counts the same lost stripes as the metrics: {last}"
    );

    // Counter reconciliation: the live event stream agrees with the
    // merged metrics — the loss verdict, per-round escalation counters,
    // and the cross-round disk-read total (halved: two identical runs).
    assert_eq!(
        counting.total("faulted/data-loss/stripes"),
        2 * metrics[0].stripes_lost as u64
    );
    assert_eq!(
        counting.total("engine/disk/reads"),
        2 * metrics[0].disk_reads
    );
    assert_eq!(
        counting.total("faulted/round/round"),
        2 * (1..=metrics[0].replan_rounds).sum::<u64>(),
        "one round instant per escalation round, numbered 1..=rounds"
    );
}

/// What the flight recorder holds after `work` runs against a fresh one,
/// as a normalized dump: `ts`, `dur` and every `host_*` arg zeroed, ids
/// renumbered by first appearance.
fn normalized_trace(work: impl FnOnce()) -> Vec<String> {
    let rec = Arc::new(fbf::obs::ring::FlightRecorder::with_capacity(1 << 16));
    fbf::obs::ring::install(Arc::clone(&rec));
    work();
    fbf::obs::ring::uninstall();
    assert_eq!(rec.dropped(), 0, "the recorder kept the whole trace");
    rec.dump_lines(true)
}

/// Normalizing zeroes host time and nothing else: the engine's simulated
/// `makespan_ms` survives, so two cache sizes dump differently, while one
/// seed run twice dumps byte-identically.
#[test]
fn normalized_flight_dumps_keep_simulated_time() {
    let _gate = lock();
    let dump = |cache_mb: usize| {
        let cfg = ExperimentConfig::builder()
            .cache_mb(cache_mb)
            .stripes(192)
            .error_count(48)
            .workers(8)
            .gen_threads(1)
            .obs(true)
            .build()
            .expect("config is valid");
        normalized_trace(|| {
            fbf::run_experiment(&cfg).expect("runs");
        })
    };
    let makespans = |lines: &[String]| -> Vec<String> {
        let at = |line: &String| line.find("\"makespan_ms\":").map(|i| line[i..].to_string());
        lines.iter().filter_map(at).collect()
    };
    // Per-worker partitions: at 1 MiB each worker's cache is too small
    // for its reads, at 8 MiB every shared chunk fits.
    let (small, again, large) = (dump(1), dump(1), dump(8));
    assert_eq!(small, again, "one seed, one normalized dump");
    assert!(
        !makespans(&small).is_empty(),
        "the run span carries makespan_ms"
    );
    assert_ne!(
        makespans(&small),
        makespans(&large),
        "simulated time is not masked"
    );
}

/// The `host_` rule is complete: a traced sweep plus a faulted repair,
/// run twice at one seed, leave equal traces once `ts`, `dur` and
/// `host_*` are zeroed and ids renumbered. A host-time value under any
/// other name would tell the two runs apart.
#[test]
fn traces_of_one_seed_differ_only_in_host_time() {
    let _gate = lock();
    let trace = || {
        normalized_trace(|| {
            sweep(&grid(), 1).expect("sweep runs");
            let m = fbf::run_experiment(&lossy_config()).expect("faulted repair runs");
            assert!(m.faults.hard_failures() > 0, "the repair met faults");
        })
    };
    let (first, second) = (trace(), trace());
    for name in [
        "\"host_plan_ms\":0",
        "\"host_util_pct\":0",
        "\"host_generation_ms\":0",
    ] {
        assert!(first.iter().any(|l| l.contains(name)), "{name} was masked");
    }
    assert_eq!(first, second);
}

/// One captured event: its name, thread, phase and causal ids.
#[derive(Clone)]
struct Seen {
    name: String,
    tid: u64,
    span: bool,
    ctx: Option<fbf::obs::TraceCtx>,
}

/// Captures every event as a [`Seen`]. With `hold` set, the thread that
/// ends the first `run` span waits (ten seconds at most) until a `run`
/// span ends on another thread: while it waits, a second worker must
/// claim a pass of its own, however the host schedules threads.
#[derive(Default)]
struct CtxCapture {
    captured: Mutex<Captured>,
    run_elsewhere: Condvar,
    hold: bool,
}

#[derive(Default)]
struct Captured {
    seen: Vec<Seen>,
    /// The thread that ended the first `run` span.
    first_run: Option<u64>,
    /// A `run` span has since ended on another thread.
    run_elsewhere: bool,
}

impl fbf::obs::Subscriber for CtxCapture {
    fn event(&self, event: &fbf::obs::Event<'_>) {
        let span = matches!(event.kind, fbf::obs::EventKind::Complete { .. });
        let mut captured = self.captured.lock().unwrap();
        captured.seen.push(Seen {
            name: event.name.to_string(),
            tid: event.tid,
            span,
            ctx: event.ctx,
        });
        if !(span && event.name == "run") {
            return;
        }
        match captured.first_run {
            None if self.hold => {
                captured.first_run = Some(event.tid);
                let _released = self
                    .run_elsewhere
                    .wait_timeout_while(captured, Duration::from_secs(10), |c| !c.run_elsewhere)
                    .unwrap();
            }
            None => captured.first_run = Some(event.tid),
            Some(first) if first != event.tid => {
                captured.run_elsewhere = true;
                self.run_elsewhere.notify_all();
            }
            Some(_) => {}
        }
    }
}

/// A rebuild's waves run on helper threads too; their spans must join the
/// caller's trace under its enclosing span, not open extra roots.
#[test]
fn a_traced_rebuild_is_one_tree_across_its_threads() {
    let _gate = lock();
    let base = ExperimentConfig::builder()
        .stripes(192)
        .error_count(0)
        .workers(8)
        .gen_threads(1)
        .obs(true)
        .build()
        .unwrap();
    let mut spec = fbf::RebuildSpec::new(base, 48);
    spec.per_disk_cap = 16;
    // Hold the first wave's engine span until another thread ends one,
    // so that a helper thread must claim a wave; a 1-core host has no
    // helper to wait for.
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let sub = Arc::new(CtxCapture {
        hold: cores > 1,
        ..CtxCapture::default()
    });
    fbf::obs::install(sub.clone());
    let trace = fbf::obs::next_trace_id();
    let outcome = {
        let _trace = fbf::obs::with_trace(trace);
        let root = fbf::obs::span("test", "rebuild");
        let outcome = fbf::core::execute_rebuild(
            &spec,
            &fbf::PlanStore::new(),
            &mut fbf::disksim::EngineScratch::new(),
        )
        .unwrap();
        root.end_with(&[]);
        outcome
    };
    fbf::obs::uninstall();
    assert!(outcome.waves >= 2, "{} waves", outcome.waves);

    let events = sub.captured.lock().unwrap().seen.clone();
    let ctx = |e: &Seen| {
        e.ctx
            .unwrap_or_else(|| panic!("{} carries no trace", e.name))
    };
    let spans: Vec<&Seen> = events.iter().filter(|e| e.span).collect();
    assert!(spans.iter().all(|e| ctx(e).trace == trace));
    let ids: std::collections::BTreeSet<u64> = spans.iter().map(|e| ctx(e).span).collect();
    assert_eq!(ids.len(), spans.len(), "span ids are unique");
    let roots: Vec<&str> = spans
        .iter()
        .filter(|e| ctx(e).parent == 0)
        .map(|e| e.name.as_str())
        .collect();
    assert_eq!(roots, ["rebuild"], "one root");
    for e in &events {
        let parent = ctx(e).parent;
        assert!(
            parent == 0 && e.span || ids.contains(&parent),
            "{} has a parent outside the trace",
            e.name
        );
    }
    let runs: Vec<&&Seen> = spans.iter().filter(|e| e.name == "run").collect();
    assert_eq!(runs.len(), outcome.waves, "one engine span per wave");
    // The waves ran on more than one thread wherever the host has the
    // cores for it.
    let threads: std::collections::BTreeSet<u64> = runs.iter().map(|e| e.tid).collect();
    assert_eq!(threads.len() > 1, cores > 1, "{threads:?} on {cores} cores");
}

#[test]
fn subscriber_swap_mid_sweep_loses_no_events() {
    let _gate = lock();
    let configs = grid();
    let a = Arc::new(CountingSubscriber::default());
    let b = Arc::new(CountingSubscriber::default());

    fbf::obs::install(a.clone());
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let swapper = {
        let (a, b, stop) = (a.clone(), b.clone(), stop.clone());
        std::thread::spawn(move || {
            let mut flip = false;
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                let next: Arc<dyn fbf::obs::Subscriber> = if flip { a.clone() } else { b.clone() };
                fbf::obs::install(next);
                flip = !flip;
                std::thread::yield_now();
            }
        })
    };
    let points = sweep(&configs, 4).expect("sweep runs under subscriber churn");
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    swapper.join().expect("swapper thread exits");
    fbf::obs::uninstall();

    // Whichever subscriber each event landed in, none may be lost: the
    // two ledgers together still reconcile exactly.
    for key in CACHE_KEYS {
        let k = format!("engine/cache/{key}");
        assert_eq!(
            a.total(&k) + b.total(&k),
            summed_cache_field(&points, key),
            "split ledger must still reconcile for `{key}`"
        );
    }
    assert!(a.events() + b.events() > 0);
}
