//! Property tests for the simulator: clock sanity, conservation laws,
//! scheduling equivalences.

use fbf_cache::PolicyKind;
use fbf_codes::{Cell, ChunkId, CodeSpec, Stripe, StripeCode};
use fbf_disksim::{
    ArrayMapping, BackendError, CacheSharing, DiskModel, DiskSched, Engine, EngineConfig, Op,
    SimBackend, SimTime, StorageBackend, WorkerScript,
};
use proptest::prelude::*;

fn chunk(stripe: u32, r: usize, c: usize) -> ChunkId {
    ChunkId::new(stripe, Cell::new(r, c))
}

/// Random scripts over a 4-disk, 4-row array.
fn scripts_strategy() -> impl Strategy<Value = Vec<WorkerScript>> {
    proptest::collection::vec(
        proptest::collection::vec((0u32..4, 0usize..4, 0usize..4, 0u8..3), 1..40),
        1..6,
    )
    .prop_map(|workers| {
        workers
            .into_iter()
            .map(|ops| WorkerScript {
                ops: ops
                    .into_iter()
                    .map(|(s, r, c, kind)| match kind {
                        0 => Op::Read {
                            chunk: chunk(s, r, c),
                            priority: 1 + (r % 3) as u8,
                        },
                        1 => Op::Compute {
                            duration: SimTime::from_micros(100 * (r as u64 + 1)),
                        },
                        _ => Op::Write {
                            chunk: chunk(s, r, c),
                        },
                    })
                    .collect(),
                ..Default::default()
            })
            .collect()
    })
}

fn config(policy: PolicyKind, cache: usize, sched: DiskSched, model: DiskModel) -> EngineConfig {
    EngineConfig {
        sharing: CacheSharing::Shared,
        sched,
        disk_model: model,
        ..EngineConfig::paper(policy, cache, ArrayMapping::new(4, 4, false), 64)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Conservation: every read is either a hit or a disk read; every
    /// write reaches a disk; per-disk ops sum to the totals.
    #[test]
    fn conservation_laws(scripts in scripts_strategy(), cache in 0usize..16, kind_idx in 0usize..5) {
        let policy = PolicyKind::ALL[kind_idx];
        let cfg = config(policy, cache, DiskSched::Fcfs, DiskModel::paper_default());
        let report = Engine::new(cfg).run(&scripts);

        let total_reads: usize = scripts.iter().map(|s| s.reads()).sum();
        let total_writes: usize = scripts
            .iter()
            .map(|s| s.ops.iter().filter(|o| matches!(o, Op::Write { .. })).count())
            .sum();
        prop_assert_eq!(report.cache.accesses() as usize, total_reads);
        prop_assert_eq!((report.cache.hits + report.disk_reads) as usize, total_reads);
        prop_assert_eq!(report.disk_writes as usize, total_writes);
        let per_disk_reads: u64 = report.per_disk.iter().map(|d| d.reads).sum();
        let per_disk_writes: u64 = report.per_disk.iter().map(|d| d.writes).sum();
        prop_assert_eq!(per_disk_reads, report.disk_reads);
        prop_assert_eq!(per_disk_writes, report.disk_writes);
    }

    /// The makespan is never smaller than any single worker's serial
    /// lower bound under the fixed model (its own ops, ignoring queueing)
    /// and never larger than the all-serial upper bound.
    #[test]
    fn makespan_bounds(scripts in scripts_strategy()) {
        let cfg = config(PolicyKind::Lru, 0, DiskSched::Fcfs, DiskModel::paper_default());
        let report = Engine::new(cfg).run(&scripts);
        let access = SimTime::from_millis(10);
        let per_worker_min: u64 = scripts
            .iter()
            .map(|s| {
                s.ops
                    .iter()
                    .map(|o| match o {
                        Op::Read { .. } | Op::Write { .. } => access.as_nanos(),
                        Op::Compute { duration } => duration.as_nanos(),
                        Op::Gather { .. } => 0,
                    })
                    .sum::<u64>()
            })
            .max()
            .unwrap_or(0);
        let serial_total: u64 = scripts
            .iter()
            .map(|s| {
                s.ops
                    .iter()
                    .map(|o| match o {
                        Op::Read { .. } | Op::Write { .. } => access.as_nanos(),
                        Op::Compute { duration } => duration.as_nanos(),
                        Op::Gather { .. } => 0,
                    })
                    .sum::<u64>()
            })
            .sum();
        prop_assert!(report.makespan.as_nanos() >= per_worker_min);
        prop_assert!(report.makespan.as_nanos() <= serial_total);
    }

    /// Under the fixed service-time model *without a cache*, scheduling
    /// discipline does not change totals (every order costs the same) —
    /// reads, writes, and total busy time are identical across
    /// FCFS/SSTF/C-LOOK. (With a cache the interleaving changes which
    /// accesses hit, so totals legitimately differ.)
    #[test]
    fn fixed_model_discipline_invariant(scripts in scripts_strategy()) {
        let reports: Vec<_> = DiskSched::ALL
            .iter()
            .map(|&sched| {
                let cfg = config(PolicyKind::Lru, 0, sched, DiskModel::paper_default());
                Engine::new(cfg).run(&scripts)
            })
            .collect();
        for r in &reports[1..] {
            prop_assert_eq!(r.disk_reads, reports[0].disk_reads);
            prop_assert_eq!(r.disk_writes, reports[0].disk_writes);
            let busy: Vec<SimTime> = r.per_disk.iter().map(|d| d.busy).collect();
            let busy0: Vec<SimTime> = reports[0].per_disk.iter().map(|d| d.busy).collect();
            prop_assert_eq!(busy, busy0);
        }
    }

    /// Determinism across runs, including under the detailed model and
    /// non-FCFS scheduling.
    #[test]
    fn engine_is_deterministic(scripts in scripts_strategy(), sched_idx in 0usize..3) {
        let sched = DiskSched::ALL[sched_idx];
        let cfg = config(PolicyKind::Arc, 8, sched, DiskModel::detailed_default());
        let a = Engine::new(cfg.clone()).run(&scripts);
        let b = Engine::new(cfg).run(&scripts);
        prop_assert_eq!(a.makespan, b.makespan);
        prop_assert_eq!(a.disk_reads, b.disk_reads);
        prop_assert_eq!(a.cache, b.cache);
    }

    /// A `SimBackend`'s `read_stripe` (fills, an encode, the spare copies
    /// laid over) is what `read_chunk` of each cell returns, on every
    /// shipped code at every prime up to 13 it accepts: random damage,
    /// some of it repaired, spare copies of undamaged cells too, and
    /// refusals (a damaged cell with no copy, a stripe past the array)
    /// with the same error. A read that succeeds counts the same reads.
    #[test]
    fn sim_read_stripe_equals_per_chunk_reads(
        stripe in 0u32..5,
        cells in proptest::collection::vec((0usize..1 << 16, 0u8..3), 0..8),
    ) {
        const CHUNK: usize = 64;
        for spec in CodeSpec::EXTENDED {
            for code in [3, 5, 7, 11, 13]
                .into_iter()
                .filter_map(|p| StripeCode::build(spec, p).ok())
            {
                let layout = code.layout();
                let chunk_at = |i: usize| {
                    let i = i % layout.len();
                    ChunkId::new(stripe, Cell::new(i / code.cols(), i % code.cols()))
                };
                // `how`: 0 damaged with no copy, 1 damaged and repaired,
                // 2 a copy of an undamaged cell. Four stripes: stripe 4
                // is past the array.
                let backend = || {
                    let damaged = (cells.iter())
                        .filter(|&&(_, how)| how < 2)
                        .map(|&(i, _)| chunk_at(i));
                    let mut b = SimBackend::new(code.clone(), CHUNK, 4, damaged);
                    for &(i, how) in cells.iter().filter(|&&(_, how)| how > 0) {
                        let _ = b.write_spare(chunk_at(i), &[i as u8 ^ how; CHUNK]);
                    }
                    b
                };
                let (mut whole, mut per_chunk) = (backend(), backend());
                let mut out = Stripe::zeroed(layout, CHUNK);
                let got = whole.read_stripe(stripe, &mut out);
                let want: Result<Vec<_>, _> = (layout.cells())
                    .map(|cell| {
                        let mut buf = vec![0u8; CHUNK];
                        (per_chunk.read_chunk(ChunkId::new(stripe, cell), &mut buf)).map(|()| buf)
                    })
                    .collect();
                match (got, want) {
                    (Ok(()), Ok(want)) => {
                        for (cell, buf) in layout.cells().zip(&want) {
                            prop_assert_eq!(out.get(layout, cell).as_ref(), &buf[..], "{:?} {}", spec, cell);
                        }
                        prop_assert_eq!(whole.disk_stats(), per_chunk.disk_stats());
                    }
                    (Err(BackendError::DamagedRead(a)), Err(BackendError::DamagedRead(b)))
                    | (Err(BackendError::OutOfArray(a)), Err(BackendError::OutOfArray(b))) => {
                        prop_assert_eq!(a, b)
                    }
                    (got, want) => panic!("{spec:?} p={}: {got:?} against {want:?}", code.p()),
                }
            }
        }
    }
}
