//! `Engine::run` vs `run_with_scratch` determinism.
//!
//! PR 3 threads a caller-owned [`EngineScratch`] through the engine so the
//! event heap and per-worker vectors are allocated once per sweep thread
//! instead of once per point. That is only sound if a *reused* (dirty)
//! scratch is indistinguishable from a fresh one — these tests pin that
//! down by comparing full [`RunReport`]s (via their `Debug` rendering,
//! which covers every field including the latency histogram) across fresh
//! runs, scratch runs, and scratch runs deliberately polluted by earlier
//! runs with different shapes.

mod common;

use common::HeapQueue;
use fbf_cache::PolicyKind;
use fbf_codes::{Cell, ChunkId};
use fbf_disksim::{
    ArrayMapping, CacheSharing, DiskModel, DiskSched, Engine, EngineConfig, EngineScratch,
    FaultPlan, Op, SimTime, WorkerScript,
};

fn chunk(stripe: u32, r: usize, c: usize) -> ChunkId {
    ChunkId::new(stripe, Cell::new(r, c))
}

/// A deterministic, moderately irregular workload: `workers` scripts of
/// interleaved reads, computes, writes and gathers over a 5×5 array.
fn scripts(workers: usize, ops_per_worker: usize, salt: u64) -> Vec<WorkerScript> {
    let mut state = salt.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    (0..workers)
        .map(|_| {
            let mut s = WorkerScript::default();
            for _ in 0..ops_per_worker {
                let r = next();
                let (stripe, row, col) = (
                    (r >> 8) as u32 % 6,
                    (r >> 16) as usize % 5,
                    (r >> 24) as usize % 5,
                );
                match r % 5 {
                    0 | 1 => s.ops.push(Op::Read {
                        chunk: chunk(stripe, row, col),
                        priority: 1 + (r % 3) as u8,
                    }),
                    2 => s.ops.push(Op::Compute {
                        duration: SimTime::from_micros(50 + r % 400),
                    }),
                    3 => s.ops.push(Op::Write {
                        chunk: chunk(stripe, row, col),
                    }),
                    _ => {
                        let fan = 2 + (r % 4) as usize;
                        let chunks = (0..fan)
                            .map(|i| {
                                let q = next();
                                (
                                    chunk((q >> 4) as u32 % 6, (q >> 12) as usize % 5, i % 5),
                                    1 + (q % 3) as u8,
                                )
                            })
                            .collect();
                        s.push_gather(chunks);
                    }
                }
            }
            s
        })
        .collect()
}

fn config(policy: PolicyKind, cache: usize, sharing: CacheSharing) -> EngineConfig {
    EngineConfig {
        sharing,
        sched: DiskSched::Fcfs,
        disk_model: DiskModel::paper_default(),
        ..EngineConfig::paper(policy, cache, ArrayMapping::new(5, 5, false), 64)
    }
}

/// A fresh run and a scratch-threaded run produce identical reports, for
/// every policy and both sharing modes.
#[test]
fn scratch_run_matches_fresh_run() {
    for policy in PolicyKind::ALL {
        for sharing in [CacheSharing::Partitioned, CacheSharing::Shared] {
            let ws = scripts(4, 60, 7);
            let fresh = Engine::new(config(policy, 12, sharing)).run(&ws);
            let mut scratch = EngineScratch::new();
            let scratched =
                Engine::new(config(policy, 12, sharing)).run_with_scratch(&ws, &mut scratch);
            assert_eq!(
                format!("{fresh:?}"),
                format!("{scratched:?}"),
                "{policy:?}/{sharing:?} diverged with scratch"
            );
        }
    }
}

/// A scratch polluted by earlier runs of *different* shapes (more workers,
/// longer scripts, different policy) must not leak into later results.
#[test]
fn dirty_scratch_is_equivalent_to_fresh_scratch() {
    let mut scratch = EngineScratch::new();
    // Pollute: bigger worker count, different salt and policy.
    Engine::new(config(PolicyKind::Fbf, 32, CacheSharing::Shared))
        .run_with_scratch(&scripts(9, 120, 99), &mut scratch);
    Engine::new(config(PolicyKind::Lfu, 2, CacheSharing::Partitioned))
        .run_with_scratch(&scripts(2, 15, 3), &mut scratch);

    let ws = scripts(5, 50, 42);
    let baseline = Engine::new(config(PolicyKind::Lru, 8, CacheSharing::Partitioned)).run(&ws);
    let reused = Engine::new(config(PolicyKind::Lru, 8, CacheSharing::Partitioned))
        .run_with_scratch(&ws, &mut scratch);
    assert_eq!(format!("{baseline:?}"), format!("{reused:?}"));

    // And repeated reuse stays stable run-over-run.
    let again = Engine::new(config(PolicyKind::Lru, 8, CacheSharing::Partitioned))
        .run_with_scratch(&ws, &mut scratch);
    assert_eq!(format!("{baseline:?}"), format!("{again:?}"));
}

/// The calendar event queue and the retained `BinaryHeap` oracle drive
/// the engine to identical reports — every policy, both sharing modes.
/// This is the whole-system form of the lockstep pop-order property in
/// `equeue_diff.rs`, and the guarantee the fig8/fig9 CSV bit-identity
/// criterion rests on.
#[test]
fn calendar_queue_matches_heap_queue() {
    for policy in PolicyKind::ALL {
        for sharing in [CacheSharing::Partitioned, CacheSharing::Shared] {
            let ws = scripts(5, 70, 21);
            let mut cal_scratch = EngineScratch::new();
            let cal =
                Engine::new(config(policy, 10, sharing)).run_with_scratch(&ws, &mut cal_scratch);
            let mut heap_scratch = EngineScratch::<HeapQueue>::default();
            let heap =
                Engine::new(config(policy, 10, sharing)).run_with_scratch(&ws, &mut heap_scratch);
            assert_eq!(
                format!("{cal:?}"),
                format!("{heap:?}"),
                "{policy:?}/{sharing:?} diverged across event queues"
            );
        }
    }
}

/// Queue equivalence must also hold under fault injection, where retry
/// timers push events far from the monotone stream the wheel is tuned
/// for (backoff schedules, detection delays, straggler inflation).
#[test]
fn calendar_queue_matches_heap_queue_under_faults() {
    let faults = FaultPlan {
        seed: 42,
        media_per_mille: 5,
        transient_per_mille: 40,
        ..FaultPlan::none()
    };
    for salt in [3u64, 77, 901] {
        let ws = scripts(6, 80, salt);
        let cfg = || EngineConfig {
            faults,
            ..config(PolicyKind::Fbf, 12, CacheSharing::Partitioned)
        };
        let mut cal_scratch = EngineScratch::new();
        let cal = Engine::new(cfg()).run_with_scratch(&ws, &mut cal_scratch);
        let mut heap_scratch = EngineScratch::<HeapQueue>::default();
        let heap = Engine::new(cfg()).run_with_scratch(&ws, &mut heap_scratch);
        assert_eq!(
            format!("{cal:?}"),
            format!("{heap:?}"),
            "salt {salt} diverged across event queues under faults"
        );
    }
}

/// `Engine::run` itself is deterministic (same scripts, same report) —
/// the property the CSV bit-identity acceptance criterion rests on.
#[test]
fn run_is_deterministic_for_fixed_scripts() {
    let ws = scripts(6, 80, 1234);
    let a = Engine::new(config(PolicyKind::Fbf, 16, CacheSharing::Partitioned)).run(&ws);
    let b = Engine::new(config(PolicyKind::Fbf, 16, CacheSharing::Partitioned)).run(&ws);
    assert_eq!(format!("{a:?}"), format!("{b:?}"));
    assert!(a.makespan.as_nanos() > 0);
    assert!(a.disk_reads > 0);
}
