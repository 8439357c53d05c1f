//! What a finished job and a retained event cost, counted exactly.
//!
//! The daemon keeps every finished job's `Metrics` and records every
//! event into its flight recorder, so these two footprints are what
//! `fbf serve` grows by per request. A latency digest allocates only the
//! span of buckets it occupies, and a recorded event owns one boxed
//! argument slice — its category, name and keys stay `'static` pointers.

mod common;

use common::counted;
use fbf::obs::{Digest, Event, EventKind, FlightRecorder, Value};
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
/// counter (8) into a full recorder: one allocation each, 32 bytes an
/// argument.
#[test]
fn a_recorded_event_is_one_allocation() {
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
        // Fill the log first: from then on a record replaces the oldest
        // event in place and the log itself never grows.
        for _ in 0..rec.capacity() {
            rec.record(&event);
        }
        let (_, calls) = counted(|| rec.record(&event));
        assert_eq!(calls.total(), 1, "engine/{name}: {calls:?}");
        assert_eq!(calls.bytes, 32 * args.len() as u64, "engine/{name}");
        assert!(calls.bytes <= 256, "engine/{name}: {calls:?}");
    }
}
