//! The engine against the reference engine (`tests/reference/`).
//!
//! The engine is fast where the reference is obvious: FCFS disks name a
//! request's completion the moment it arrives, so their requests cost no
//! queue event, and the depth of an FCFS queue is counted from the
//! completions known at issue. The reference serves every discipline
//! through disk events and counts depth from its pending lists. Generated
//! scripts must give both the same [`RunReport`], field for field.

mod reference;

use fbf_cache::PolicyKind;
use fbf_codes::{Cell, ChunkId};
use fbf_disksim::{
    ArrayMapping, CacheSharing, DiskKill, DiskModel, DiskSched, Engine, EngineConfig,
    EngineScratch, FaultPlan, Op, RequestClass, RetryPolicy, SimTime, SlowDisk, WorkerScript,
};

/// Decode one generated tuple into an op of worker `worker % workers`'s
/// script over a 5×5 array. Gathers draw their chunks from two adjacent
/// columns of one stripe, so several chunks of one fan-out land on the
/// same disk.
fn push_op(scripts: &mut [WorkerScript], (worker, kind, stripe, row, col, extra): OpSpec) {
    let chunk = |r: usize, c: usize| ChunkId::new(stripe, Cell::new(r % 5, c % 5));
    let workers = scripts.len();
    let s = &mut scripts[worker % workers];
    match kind {
        0 | 1 => s.ops.push(Op::Read {
            chunk: chunk(row, col),
            priority: 1 + (extra % 3) as u8,
        }),
        // Zero-length computes re-run the worker at the same instant.
        2 => s.ops.push(Op::Compute {
            duration: SimTime::from_micros(extra * 700),
        }),
        3 => s.ops.push(Op::Write {
            chunk: chunk(row, col),
        }),
        _ => s.push_gather(
            (0..2 + extra as usize)
                .map(|i| (chunk(row + i / 2, col + i % 2), 1 + (i % 3) as u8))
                .collect(),
        ),
    }
}

/// `(worker, kind, stripe, row, col, extra)`.
type OpSpec = (usize, u8, u32, usize, usize, u64);

proptest::proptest! {
    #![proptest_config(proptest::prelude::ProptestConfig::with_cases(400))]

    /// Every policy, both cache sharings, the three disciplines and disk
    /// models, zero cache-hit time, both straggler knobs, media errors,
    /// transient stalls that survive or exhaust their retries under two
    /// retry policies, and a disk that dies mid-run: the engine's report
    /// is the reference's.
    #[test]
    fn engine_matches_the_reference(
        ops in proptest::collection::vec(
            (0usize..16, 0u8..6, 0u32..4, 0usize..5, 0usize..5, 0u64..4), 1..200),
        workers in 1usize..17,
        policy in 0usize..10,
        disks in (0u8..3, 0u8..3, 0u8..2, 0u8..3),
        cache in (0usize..14, 0u8..2, 0u8..2),
        faults in (0u16..2, 0u16..2, 0u64..120, 0u64..1_000, 0u8..2),
    ) {
        let (sched, model, rotated, straggler) = disks;
        let (cache_chunks, shared, zero_hit_time) = cache;
        let (media, transient, kill_at_ms, seed, tight_retry) = faults;
        let mut scripts: Vec<WorkerScript> = (0..workers)
            .map(|w| WorkerScript {
                class: RequestClass::ALL[w % RequestClass::COUNT],
                ..Default::default()
            })
            .collect();
        ops.into_iter().for_each(|op| push_op(&mut scripts, op));
        let mut cfg = EngineConfig::paper(
            PolicyKind::EXTENDED[policy],
            cache_chunks,
            ArrayMapping::new(5, 5, rotated == 1),
            4,
        );
        cfg.sched = DiskSched::ALL[sched as usize];
        cfg.disk_model = match model {
            0 => DiskModel::paper_default(),
            1 => DiskModel::Fixed { access: SimTime::ZERO },
            _ => DiskModel::detailed_default(),
        };
        if shared == 1 {
            cfg.sharing = CacheSharing::Shared;
        }
        if zero_hit_time == 1 {
            cfg.cache_hit_time = SimTime::ZERO;
        }
        if straggler == 1 {
            cfg.straggler = Some((1, 2.5));
        }
        cfg.faults = FaultPlan {
            seed,
            media_per_mille: media * 60,
            // Stalls up to 5 against 3 (or 2) retries: some reads survive
            // with a delay, some exhaust their retries.
            transient_per_mille: transient * 300,
            transient_failures_max: 5,
            straggler: (straggler == 2).then_some(SlowDisk {
                disk: 2,
                scale_milli: 3300,
            }),
            // The upper third of the range leaves the disk alive.
            disk_kill: (kill_at_ms < 80).then_some(DiskKill {
                disk: 3,
                at: SimTime::from_millis(kill_at_ms),
            }),
            ..FaultPlan::none()
        };
        if tight_retry == 1 {
            // Two retries whose backoff meets its cap at the second.
            cfg.faults.retry = RetryPolicy {
                max_retries: 2,
                timeout: SimTime::from_millis(3),
                backoff: SimTime::from_millis(4),
                backoff_cap: SimTime::from_millis(6),
                detect: SimTime::from_millis(1),
            };
        }
        let engine = Engine::new(cfg.clone()).run_with_scratch(&scripts, &mut EngineScratch::new());
        let reference = reference::run(&cfg, &scripts);
        assert_eq!(format!("{engine:?}"), format!("{reference:?}"));
    }
}
