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
    file_backend_for, run_experiment, run_planned_on, sim_backend_for, ArrayMapping, CacheSharing,
    ChunkId, ExperimentConfig, FaultPlan, Metrics, PlanSource, PolicyKind, SimTime, StorageBackend,
    StripeCode,
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

/// A shape whose repairs are wider than a cache slice: TIP p = 13 chains
/// read up to 12 chunks, and 1 MiB of 1 KiB chunks over 128 workers is 8
/// chunks a slice — so a slot is evicted inside the gather that read it,
/// and reusing it before the decode would corrupt the repair.
fn wide(policy: PolicyKind) -> ExperimentConfig {
    ExperimentConfig::builder()
        .policy(policy)
        .p(13)
        .cache_mb(1)
        .chunk_kb(1)
        .stripes(128)
        .error_count(48)
        .workers(128)
        .gen_threads(1)
        .build()
        .unwrap()
}

/// Every damaged chunk of `plan` reads back from `backend` equal to the
/// deterministic pre-damage content: each stripe's payload is seeded by
/// its index, then encoded. Returns how many chunks were compared.
fn assert_repaired_bytes(
    cfg: &ExperimentConfig,
    plan: &PlannedCampaign,
    backend: &mut dyn StorageBackend,
    label: &str,
) -> usize {
    let code = StripeCode::build(cfg.code, cfg.p).unwrap();
    let chunk_bytes = cfg.chunk_bytes() as usize;
    let mut buf = vec![0u8; chunk_bytes];
    let mut checked = 0usize;
    for damage in plan.errors.damage_by_stripe() {
        let mut pristine =
            fbf::Stripe::patterned_seeded(code.layout(), chunk_bytes, damage.stripe as u64);
        fbf::codes::encode::encode(&code, &mut pristine).unwrap();
        for &cell in &damage.cells {
            let chunk = ChunkId::new(damage.stripe, cell);
            assert!(
                backend.is_repaired(chunk),
                "{label} left {chunk:?} unrepaired"
            );
            backend.read_chunk(chunk, &mut buf).unwrap();
            assert_eq!(
                &buf[..],
                &pristine.get(code.layout(), cell)[..],
                "{label} bytes, stripe {}",
                damage.stripe
            );
            checked += 1;
        }
    }
    checked
}

/// Every read the data plane answered — hit, miss or hard failure — was
/// recorded once (`RunReport::record_read`) into exactly one class
/// digest: the class counts sum to the report's `read_response.count`,
/// which on the data plane is one per cache access.
fn assert_reads_recorded_once(m: &Metrics, label: &str) {
    let by_class: u64 = m.class_digests.iter().map(|d| d.count()).sum();
    assert_eq!(by_class, m.cache.hits + m.cache.misses, "{label}");
}

/// Every policy and both sharings, on [`small`] and [`wide`]. The payload
/// slab leans on the policy contract (at most one eviction per insert,
/// none on access) for all ten policies, so all ten run here — against
/// `SimBackend`; `FileBackend` stays on two to keep the suite fast. Under
/// a shared cache the engine interleaves workers on virtual time while
/// the data plane runs them in turn, so hit counts may differ (see
/// `backend_run`'s module docs): there the bytes and the recovered-chunk
/// count are what must agree.
#[test]
fn sim_and_file_backends_agree_with_the_engine() {
    let counts_agree = |m: &Metrics, engine: &Metrics, label: &str| {
        assert_eq!(m.disk_reads, engine.disk_reads, "{label}");
        assert_eq!(m.disk_writes, engine.disk_writes, "{label}");
        assert_eq!(m.hit_ratio, engine.hit_ratio, "{label}");
        assert_eq!(m.stripes_repaired, engine.stripes_repaired, "{label}");
    };
    for policy in PolicyKind::EXTENDED {
        for (shape, base) in [("small", small(policy)), ("wide", wide(policy))] {
            for sharing in [CacheSharing::Partitioned, CacheSharing::Shared] {
                let cfg = ExperimentConfig { sharing, ..base };
                let engine = run_experiment(&cfg).unwrap();
                let plan = PlannedCampaign::cold(&cfg).unwrap();
                let label = format!("{policy:?}/{shape}/{sharing:?}");

                let mut sim = sim_backend_for(&cfg, &plan).unwrap();
                let m = run_planned_on(&cfg, &plan, PlanSource::Cold, &mut sim).unwrap();
                assert_eq!(m.chunks_recovered, engine.chunks_recovered, "{label}/sim");
                assert_reads_recorded_once(&m, &format!("{label}/sim"));
                if sharing == CacheSharing::Partitioned {
                    counts_agree(&m, &engine, &format!("{label}/sim"));
                }
                assert_repaired_bytes(&cfg, &plan, &mut sim, &format!("{label}/sim"));

                if !matches!(policy, PolicyKind::Fbf | PolicyKind::Lru)
                    || sharing == CacheSharing::Shared
                {
                    continue;
                }
                let scratch = Scratch::new(&format!("agree-{policy:?}-{shape}"));
                let mut file = file_backend_for(&cfg, &plan, &scratch.0).unwrap();
                let m = run_planned_on(&cfg, &plan, PlanSource::Cold, &mut file).unwrap();
                assert_eq!(m.chunks_recovered, engine.chunks_recovered, "{label}/file");
                assert_reads_recorded_once(&m, &format!("{label}/file"));
                counts_agree(&m, &engine, &format!("{label}/file"));
                assert_repaired_bytes(&cfg, &plan, &mut file, &format!("{label}/file"));
            }
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

/// A stripe the single-pass data plane abandons is reported: every
/// planned stripe is either repaired or unresolved.
#[test]
fn abandoned_stripes_are_reported_unresolved() {
    let cfg = ExperimentConfig {
        faults: FaultPlan {
            seed: 7,
            media_per_mille: 30,
            ..FaultPlan::none()
        },
        ..small(PolicyKind::Fbf)
    };
    let plan = PlannedCampaign::cold(&cfg).unwrap();
    let mut sim = sim_backend_for(&cfg, &plan).unwrap();
    let m = run_planned_on(&cfg, &plan, PlanSource::Cold, &mut sim).unwrap();
    assert!(m.stripes_unresolved > 0, "no stripe was abandoned: {m}");
    assert_eq!(
        m.stripes_repaired + m.stripes_unresolved,
        plan.schemes.len()
    );
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
        assert_reads_recorded_once(&data, &format!("kill: {disk_kill:?}"));
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

    let checked = assert_repaired_bytes(&cfg, &plan, &mut sim, "sim");
    assert_eq!(
        assert_repaired_bytes(&cfg, &plan, &mut file, "file"),
        checked
    );
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
