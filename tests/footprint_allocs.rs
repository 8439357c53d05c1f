//! What a finished job and a retained event cost, counted exactly.
//!
//! The daemon keeps every finished job's `Metrics` and records every
//! event into its flight recorder, so these two footprints are what
//! `fbf serve` grows by per request. A latency digest allocates only the
//! span of buckets it occupies, and the recorder packs each event into
//! one record of its byte log: a full recorder records without
//! allocating, and holds its window in a few dozen bytes an event.

mod common;

use common::counted;
use fbf::obs::{Digest, Event, EventKind, FlightRecorder, TraceCtx, Value};
use fbf::{run_experiment, ExperimentConfig};

#[test]
fn an_empty_digest_allocates_nothing() {
    let (_, calls) = counted(Digest::new);
    assert_eq!(calls.total(), 0, "{calls:?}");
    let (_, calls) = counted(<[Digest; 4]>::default);
    assert_eq!(calls.total(), 0, "{calls:?}");
}

/// The job `daemon_small` submits: 512 stripes, 64 errors, 16 workers,
/// a 16 MiB cache. Its reads are all recovery reads, so one of the four
/// class digests is occupied, over a few decades of latency.
#[test]
fn a_small_jobs_metrics_cost_at_most_a_kib() {
    for seed in [1, 2, 3] {
        let cfg = ExperimentConfig::builder()
            .stripes(512)
            .error_count(64)
            .workers(16)
            .cache_mb(16)
            .seed(seed)
            .gen_threads(1)
            .build()
            .unwrap();
        let metrics = run_experiment(&cfg).unwrap();
        let occupied = metrics
            .class_digests
            .iter()
            .filter(|d| !d.is_empty())
            .count();
        assert_eq!(occupied, 1, "seed {seed}: only recovery reads");
        let (copy, calls) = counted(|| metrics.clone());
        println!("seed {seed}: a Metrics clone costs {calls:?}");
        assert_eq!(copy, metrics);
        assert_eq!(calls.total(), 1, "seed {seed}: {calls:?}");
        assert!(calls.bytes <= 1024, "seed {seed}: {calls:?}");
    }
}

/// Recording the engine's per-disk counter (7 arguments) and its fault
/// counter (8) into a full recorder allocates nothing: the oldest record
/// leaves the log's byte buffer as the new one enters it.
#[test]
fn recording_into_a_full_recorder_allocates_nothing() {
    let disk: &[(&'static str, Value<'_>)] = &[
        ("run", Value::U64(9)),
        ("disk", Value::U64(3)),
        ("reads", Value::U64(1_200)),
        ("writes", Value::U64(40)),
        ("max_queue", Value::U64(7)),
        ("busy_ms", Value::F64(12.5)),
        ("queued_ms", Value::F64(3.25)),
    ];
    let faults: &[(&'static str, Value<'_>)] = &[
        ("run", Value::U64(9)),
        ("media", Value::U64(2)),
        ("transient", Value::U64(1)),
        ("retries", Value::U64(3)),
        ("exhausted", Value::U64(0)),
        ("dead_disk", Value::U64(0)),
        ("skipped_ops", Value::U64(0)),
        ("failed_reads", Value::U64(2)),
    ];
    for (name, args) in [("disk", disk), ("faults", faults)] {
        let event = Event {
            cat: "engine",
            name,
            kind: EventKind::Counter,
            ts_us: 1.0,
            tid: 0,
            ctx: None,
            args,
        };
        let rec = FlightRecorder::with_capacity(4);
        for _ in 0..rec.capacity() {
            rec.record(&event);
        }
        let (_, calls) = counted(|| rec.record(&event));
        assert_eq!(calls.total(), 0, "engine/{name}: {calls:?}");
    }
    // A full default recorder, fed the daemon's job mix.
    let rec = FlightRecorder::new();
    for job in 0..300 {
        record_small_job(&rec, job);
    }
    let (_, calls) = counted(|| (300..400).for_each(|job| record_small_job(&rec, job)));
    assert_eq!(calls.total(), 0, "100 jobs into a full recorder: {calls:?}");
}

/// A default recorder holding a full window of the daemon's job mix —
/// 4096 events of `daemon_small`'s 408 jobs — keeps at most 320 KiB live,
/// record index and growth slack included.
#[test]
fn a_daemon_small_window_is_at_most_320_kib_live() {
    let (rec, calls) = counted(|| {
        let rec = FlightRecorder::new();
        for job in 0..408 {
            record_small_job(&rec, job);
        }
        rec
    });
    assert_eq!(rec.len(), rec.capacity());
    let live = calls.live();
    println!(
        "{} events: {live} bytes live, {:.1} bytes an event",
        rec.len(),
        live as f64 / rec.len() as f64
    );
    assert!(live <= 320 * 1024, "{live} bytes live: {calls:?}");
}

/// The 16 events one `daemon_small` job records, in order: the daemon's
/// `job-start`, a warm plan, the engine's `cache`, `queues` and eight
/// per-disk counters, the `engine/run` and `runner/simulate` spans, then
/// `job-end` and the `daemon/repair` root. Ids grow with `job` as the
/// daemon's do; timestamps and wall-clock args are arbitrary floats.
fn record_small_job(rec: &FlightRecorder, job: u64) {
    let (trace, root) = (job + 1, 3 * job + 1);
    let (simulate, run) = (root + 1, root + 2);
    let ts = 1.0e6 + job as f64 * 731.137;
    let at = |i: u32| ts + f64::from(i) * 1.713;
    let point = |parent| {
        Some(TraceCtx {
            trace,
            span: 0,
            parent,
        })
    };
    let span = |span, parent| {
        Some(TraceCtx {
            trace,
            span,
            parent,
        })
    };
    let emit = |cat, name, kind, i, ctx, args: &[(&'static str, Value<'_>)]| {
        rec.record(&Event {
            cat,
            name,
            kind,
            ts_us: at(i),
            tid: 1,
            ctx,
            args,
        });
    };
    let took = |i: u32| EventKind::Complete {
        dur_us: 17.0 + f64::from(i) * 3.3,
    };
    let job_arg = ("job", Value::U64(job + 1));
    let run_arg = ("run", Value::U64(job + 1));
    emit(
        "daemon",
        "job-start",
        EventKind::Instant,
        0,
        point(root),
        &[job_arg, ("backend", Value::Str("engine"))],
    );
    emit(
        "plan",
        "warm",
        EventKind::Instant,
        1,
        point(simulate),
        &[("code", Value::Str("TIP")), ("p", Value::U64(7))],
    );
    emit(
        "engine",
        "cache",
        EventKind::Counter,
        2,
        point(run),
        &[
            run_arg,
            ("policy", Value::Str("FBF")),
            ("hits", Value::U64(151)),
            ("misses", Value::U64(909)),
            ("evictions", Value::U64(403)),
            ("inserts", Value::U64(909)),
            ("demotions", Value::U64(151)),
            ("prio1", Value::U64(769)),
            ("prio2", Value::U64(129)),
            ("prio3", Value::U64(11)),
        ],
    );
    emit(
        "engine",
        "queues",
        EventKind::Counter,
        3,
        point(run),
        &[
            run_arg,
            ("q1", Value::U64(506)),
            ("q2", Value::U64(0)),
            ("q3", Value::U64(0)),
        ],
    );
    for disk in 0..8 {
        emit(
            "engine",
            "disk",
            EventKind::Counter,
            4 + disk as u32,
            point(run),
            &[
                run_arg,
                ("disk", Value::U64(disk)),
                ("reads", Value::U64(120 + 3 * disk)),
                ("writes", Value::U64(20 + disk)),
                ("max_queue", Value::U64(6)),
                ("busy_ms", Value::F64(41.0 / (disk + 3) as f64)),
                ("queued_ms", Value::F64(9.0 / (disk + 7) as f64)),
            ],
        );
    }
    emit(
        "engine",
        "run",
        took(12),
        12,
        span(run, simulate),
        &[
            run_arg,
            ("policy", Value::Str("FBF")),
            ("workers", Value::U64(16)),
            ("makespan_ms", Value::F64(137.0 / 3.0)),
        ],
    );
    emit(
        "runner",
        "simulate",
        took(13),
        13,
        span(simulate, root),
        &[
            ("policy", Value::Str("FBF")),
            ("cache_mb", Value::U64(16)),
            ("plan", Value::Str("warm")),
        ],
    );
    emit(
        "daemon",
        "job-end",
        EventKind::Instant,
        14,
        point(root),
        &[job_arg],
    );
    emit(
        "daemon",
        "repair",
        took(15),
        15,
        span(root, 0),
        &[job_arg, ("failed", Value::U64(0))],
    );
}
