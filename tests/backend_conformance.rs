//! Differential conformance suite for [`StorageBackend`] implementations.
//!
//! The backend contract (DESIGN.md §12) promises that a repair campaign
//! is backend-agnostic: the engine's cache decisions drive the same
//! chunk reads and writes whether the bytes live in the in-memory
//! simulator or in real per-disk files. These tests pin that promise
//! end to end through the public facade:
//!
//! * identical `Metrics` from the engine, `SimBackend`, and
//!   `FileBackend` for the same planned campaign, and
//! * byte-identical repaired payloads — every damaged chunk reads back
//!   the same bytes from both backends, equal to a freshly re-encoded
//!   pristine stripe.

use fbf::core::PlannedCampaign;
use fbf::disksim::{DiskKill, Engine};
use fbf::{
    file_backend_for, run_experiment, run_planned_on, sim_backend_for, ArrayMapping, ChunkId,
    ExperimentConfig, FaultPlan, PlanSource, PolicyKind, SimTime, StorageBackend, StripeCode,
};
use std::path::PathBuf;
use std::sync::Arc;

fn small(policy: PolicyKind) -> ExperimentConfig {
    ExperimentConfig::builder()
        .policy(policy)
        .cache_mb(1)
        .chunk_kb(1)
        .stripes(128)
        .error_count(48)
        .workers(8)
        .gen_threads(1)
        .build()
        .unwrap()
}

/// A unique scratch directory under the system temp dir; removed by
/// `Drop` so a failing assertion still cleans up.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Self {
        let dir =
            std::env::temp_dir().join(format!("fbf-conformance-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        Scratch(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[test]
fn sim_and_file_backends_agree_with_the_engine() {
    for policy in [PolicyKind::Fbf, PolicyKind::Lru] {
        let cfg = small(policy);
        let engine = run_experiment(&cfg).unwrap();
        let plan = PlannedCampaign::cold(&cfg).unwrap();

        let mut sim = sim_backend_for(&cfg, &plan).unwrap();
        let sim_metrics = run_planned_on(&cfg, &plan, PlanSource::Cold, &mut sim).unwrap();

        let scratch = Scratch::new(&format!("agree-{policy:?}"));
        let mut file = file_backend_for(&cfg, &plan, &scratch.0).unwrap();
        let file_metrics = run_planned_on(&cfg, &plan, PlanSource::Cold, &mut file).unwrap();

        for (label, m) in [("sim", &sim_metrics), ("file", &file_metrics)] {
            assert_eq!(m.disk_reads, engine.disk_reads, "{policy:?}/{label}");
            assert_eq!(m.disk_writes, engine.disk_writes, "{policy:?}/{label}");
            assert_eq!(m.hit_ratio, engine.hit_ratio, "{policy:?}/{label}");
            assert_eq!(
                m.stripes_repaired, engine.stripes_repaired,
                "{policy:?}/{label}"
            );
            assert_eq!(
                m.chunks_recovered, engine.chunks_recovered,
                "{policy:?}/{label}"
            );
        }
    }
}

/// The batch size is a pure throughput knob: every `decode_batch`
/// setting must produce the same `Metrics` as the engine, because the
/// per-cache-slice access order is unchanged — batches span *distinct*
/// partitioned slices and rounds preserve intra-scheme repair order.
#[test]
fn decode_batch_sizes_all_match_the_engine() {
    for policy in [PolicyKind::Fbf, PolicyKind::Lru] {
        let engine = run_experiment(&small(policy)).unwrap();
        for batch in [1usize, 3, 8, 64] {
            let cfg = ExperimentConfig {
                decode_batch: batch,
                ..small(policy)
            };
            let plan = PlannedCampaign::cold(&cfg).unwrap();
            let mut sim = sim_backend_for(&cfg, &plan).unwrap();
            let m = run_planned_on(&cfg, &plan, PlanSource::Cold, &mut sim).unwrap();
            assert_eq!(m.disk_reads, engine.disk_reads, "{policy:?}/batch={batch}");
            assert_eq!(
                m.disk_writes, engine.disk_writes,
                "{policy:?}/batch={batch}"
            );
            assert_eq!(m.hit_ratio, engine.hit_ratio, "{policy:?}/batch={batch}");
            assert_eq!(
                m.stripes_repaired, engine.stripes_repaired,
                "{policy:?}/batch={batch}"
            );
            assert_eq!(
                m.chunks_recovered, engine.chunks_recovered,
                "{policy:?}/batch={batch}"
            );
        }
    }
}

/// Batch-size invariance must survive fault injection: abandoned
/// schemes, retry accounting, and skipped-op counts are tracked
/// per-scheme inside a round-based loop and must not shift with the
/// batch size. The oracle here is the batch-of-1 *backend* run, not the
/// engine — under faults the data plane deliberately stays single-pass
/// (a hard failure abandons the stripe) while the engine re-plans on its
/// virtual clock, so their read counts legitimately differ (see the
/// `backend_run` module docs).
#[test]
fn decode_batch_sizes_agree_under_faults() {
    let faulted = |batch: usize| ExperimentConfig {
        decode_batch: batch,
        faults: FaultPlan {
            seed: 7,
            media_per_mille: 12,
            transient_per_mille: 60,
            ..FaultPlan::none()
        },
        ..small(PolicyKind::Fbf)
    };
    let run = |batch: usize| {
        let cfg = faulted(batch);
        let plan = PlannedCampaign::cold(&cfg).unwrap();
        let mut sim = sim_backend_for(&cfg, &plan).unwrap();
        run_planned_on(&cfg, &plan, PlanSource::Cold, &mut sim).unwrap()
    };
    let oracle = run(1);
    assert!(
        oracle.faults.media_errors + oracle.faults.transient_faults > 0,
        "fault plan injected nothing; the test is vacuous"
    );
    assert!(
        oracle.faults.skipped_ops > 0,
        "no stripe was abandoned; the abandonment accounting is untested"
    );
    for batch in [3usize, 8, 64] {
        let m = run(batch);
        assert_eq!(m.disk_reads, oracle.disk_reads, "batch={batch}");
        assert_eq!(m.disk_writes, oracle.disk_writes, "batch={batch}");
        assert_eq!(m.hit_ratio, oracle.hit_ratio, "batch={batch}");
        assert_eq!(m.stripes_repaired, oracle.stripes_repaired, "batch={batch}");
        assert_eq!(m.chunks_recovered, oracle.chunks_recovered, "batch={batch}");
        assert_eq!(
            m.faults.skipped_ops, oracle.faults.skipped_ops,
            "batch={batch}"
        );
        assert_eq!(
            m.faults.media_errors, oracle.faults.media_errors,
            "batch={batch}"
        );
        assert_eq!(m.faults.retries, oracle.faults.retries, "batch={batch}");
    }
}

/// Fault accounting is the engine's: both resolve every read through
/// `fbf::disksim::resolve_read`, so one engine pass over the plan's
/// scripts and a data-plane run count the same faults — survivable and
/// exhausted transients, media errors, dead-disk reads, and the ops an
/// abandoned repair skips.
#[test]
fn fault_counters_match_one_engine_pass() {
    let kill_at_zero = DiskKill {
        disk: 2,
        at: SimTime::ZERO,
    };
    for disk_kill in [None, Some(kill_at_zero)] {
        let cfg = ExperimentConfig {
            faults: FaultPlan {
                seed: 7,
                media_per_mille: 12,
                transient_per_mille: 80,
                transient_failures_max: 6,
                disk_kill,
                ..FaultPlan::none()
            },
            ..small(PolicyKind::Fbf)
        };
        let plan = PlannedCampaign::cold(&cfg).unwrap();
        let mapping = ArrayMapping::new(plan.cols, plan.rows, cfg.code.rotated_placement());
        let engine =
            Engine::new(cfg.engine_config(mapping, Arc::clone(&plan.victim_map), cfg.faults))
                .run(&plan.scripts);
        let mut sim = sim_backend_for(&cfg, &plan).unwrap();
        let data = run_planned_on(&cfg, &plan, PlanSource::Cold, &mut sim).unwrap();

        let f = engine.faults;
        assert!(
            f.media_errors > 0
                && f.retries_exhausted > 0
                && f.transient_faults > f.retries_exhausted,
            "fault plan too tame to tell the accounting rules apart: {f:?}"
        );
        assert_eq!(f.dead_disk_reads > 0, disk_kill.is_some());
        assert_eq!(data.faults, f, "kill: {disk_kill:?}");
        assert_eq!(data.disk_reads, engine.disk_reads, "kill: {disk_kill:?}");
    }
}

#[test]
fn repaired_payloads_are_byte_identical_across_backends() {
    let cfg = small(PolicyKind::Fbf);
    let plan = PlannedCampaign::cold(&cfg).unwrap();

    let mut sim = sim_backend_for(&cfg, &plan).unwrap();
    run_planned_on(&cfg, &plan, PlanSource::Cold, &mut sim).unwrap();

    let scratch = Scratch::new("bytes");
    let mut file = file_backend_for(&cfg, &plan, &scratch.0).unwrap();
    run_planned_on(&cfg, &plan, PlanSource::Cold, &mut file).unwrap();

    let code = StripeCode::build(cfg.code, cfg.p).unwrap();
    let chunk_bytes = cfg.chunk_bytes() as usize;
    let (mut from_sim, mut from_file) = (vec![0u8; chunk_bytes], vec![0u8; chunk_bytes]);
    let mut checked = 0usize;
    for damage in plan.errors.damage_by_stripe() {
        // The ground truth is the deterministic pre-damage content: each
        // stripe's payload is seeded by its index, then encoded.
        let mut pristine =
            fbf::Stripe::patterned_seeded(code.layout(), chunk_bytes, damage.stripe as u64);
        fbf::codes::encode::encode(&code, &mut pristine).unwrap();
        for &cell in &damage.cells {
            let chunk = ChunkId::new(damage.stripe, cell);
            assert!(sim.is_repaired(chunk), "sim left {chunk:?} unrepaired");
            assert!(file.is_repaired(chunk), "file left {chunk:?} unrepaired");
            sim.read_chunk(chunk, &mut from_sim).unwrap();
            file.read_chunk(chunk, &mut from_file).unwrap();
            let expect = &pristine.get(code.layout(), cell)[..];
            assert_eq!(&from_sim[..], expect, "sim bytes, stripe {}", damage.stripe);
            assert_eq!(
                &from_file[..],
                expect,
                "file bytes, stripe {}",
                damage.stripe
            );
            checked += 1;
        }
    }
    assert!(
        checked >= cfg.error_count,
        "campaign produced too few damaged chunks to be a meaningful check ({checked})"
    );
}

#[test]
fn file_backend_survives_reopen_with_repaired_data() {
    let cfg = small(PolicyKind::Fbf);
    let plan = PlannedCampaign::cold(&cfg).unwrap();
    let scratch = Scratch::new("reopen");
    {
        let mut file = file_backend_for(&cfg, &plan, &scratch.0).unwrap();
        run_planned_on(&cfg, &plan, PlanSource::Cold, &mut file).unwrap();
    } // dropped: everything must be on disk now

    let code = StripeCode::build(cfg.code, cfg.p).unwrap();
    let chunk_bytes = cfg.chunk_bytes() as usize;
    // After a repair, the authoritative copy of every damaged chunk
    // lives in the spare area; reopening hands `open` that set.
    let repaired: Vec<ChunkId> = plan
        .errors
        .damage_by_stripe()
        .iter()
        .flat_map(|d| d.cells.iter().map(|&cell| ChunkId::new(d.stripe, cell)))
        .collect();
    let mut reopened = fbf::FileBackend::open(
        &scratch.0,
        &code,
        chunk_bytes,
        cfg.stripes as u64,
        &repaired,
    )
    .expect("repaired array reopens");
    let mut buf = vec![0u8; chunk_bytes];
    let damage = &plan.errors.damage_by_stripe()[0];
    let mut pristine =
        fbf::Stripe::patterned_seeded(code.layout(), chunk_bytes, damage.stripe as u64);
    fbf::codes::encode::encode(&code, &mut pristine).unwrap();
    let cell = damage.cells[0];
    reopened
        .read_chunk(ChunkId::new(damage.stripe, cell), &mut buf)
        .unwrap();
    assert_eq!(&buf[..], &pristine.get(code.layout(), cell)[..]);
}
