//! Conformance suite for the data plane: one executor, two payloads.
//!
//! A repair on a [`StorageBackend`] is the engine's own run with a byte
//! hook attached (see `backend_run`'s module docs): the same passes, the
//! same escalation, the same virtual clock. These tests pin that end to
//! end through the public facade:
//!
//! * the `Metrics` JSON of a `SimBackend` or `FileBackend` repair is byte
//!   for byte the engine's for the same planned campaign, fault-free and
//!   faulted, under all ten policies and both cache sharings, and
//! * every chunk of every repaired stripe reads back as its pristine
//!   encode, escalated damage and joint re-plans included.

use fbf::core::PlannedCampaign;
use fbf::disksim::{DiskKill, Engine, EngineScratch};
use fbf::recovery::StripePlan;
use fbf::{
    file_backend_for, run_planned, run_planned_on, sim_backend_for, ArrayMapping, CacheSharing,
    Cell, ChunkId, CodeSpec, ExperimentConfig, FaultPlan, PlanSource, PolicyKind, SimTime,
    StorageBackend, StripeCode,
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

/// Media errors, transient stalls (some exhausting their retries) and a
/// disk that dies mid-run, on STAR: its adjuster chains stall chain-by-
/// chain repair of some escalated damage, so some re-plans are joint.
fn faulted(cfg: ExperimentConfig) -> ExperimentConfig {
    ExperimentConfig {
        code: CodeSpec::Star,
        faults: FaultPlan {
            seed: 7,
            media_per_mille: 10,
            transient_per_mille: 40,
            transient_failures_max: 6,
            disk_kill: Some(DiskKill {
                disk: 3,
                at: SimTime::from_millis(40),
            }),
            ..FaultPlan::none()
        },
        ..cfg
    }
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

/// Every chunk of every stripe the campaign repaired reads back from
/// `backend` equal to the deterministic pre-damage content (each stripe
/// seeded by its index, then encoded), and each of its lost chunks —
/// escalated damage included — comes from the spare area. Returns how
/// many lost chunks were checked and how many stripes a joint re-plan
/// repaired.
fn assert_repaired_stripes(
    cfg: &ExperimentConfig,
    plan: &PlannedCampaign,
    backend: &mut dyn StorageBackend,
    label: &str,
) -> (usize, usize) {
    let outcome = fbf::core::execute_faulted(cfg, plan, &mut EngineScratch::new(), None);
    let code = StripeCode::build(cfg.code, cfg.p).unwrap();
    let layout = code.layout();
    let chunk_bytes = cfg.chunk_bytes() as usize;
    let mut buf = vec![0u8; chunk_bytes];
    let (mut checked, mut joint) = (0usize, 0usize);
    for damage in plan.errors.damage_by_stripe() {
        if outcome.data_loss.iter().any(|d| d.stripe == damage.stripe) {
            continue;
        }
        let lost = match outcome.replanned.get(&damage.stripe) {
            Some((escalated, replan)) => {
                joint += usize::from(matches!(replan, StripePlan::Joint(_)));
                &escalated.cells
            }
            None => &damage.cells,
        };
        let mut pristine = fbf::Stripe::patterned_seeded(layout, chunk_bytes, damage.stripe as u64);
        fbf::codes::encode::encode(&code, &mut pristine).unwrap();
        for r in 0..code.rows() {
            for c in 0..code.cols() {
                let cell = Cell::new(r, c);
                let chunk = ChunkId::new(damage.stripe, cell);
                backend.read_chunk(chunk, &mut buf).unwrap();
                assert_eq!(
                    &buf[..],
                    &pristine.get(layout, cell)[..],
                    "{label}: stripe {} cell {cell}",
                    damage.stripe
                );
            }
        }
        for &cell in lost {
            let chunk = ChunkId::new(damage.stripe, cell);
            assert!(backend.is_repaired(chunk), "{label} left {chunk:?}");
            checked += 1;
        }
    }
    (checked, joint)
}

/// All ten policies × both sharings × fault-free and faulted, on
/// `SimBackend`; `FileBackend` on two policies to keep the suite fast.
/// The data plane's `Metrics` JSON must equal the engine's byte for byte —
/// hits, reads, virtual latencies, fault counters, re-plans — and every
/// repaired stripe must verify. The faulted runs must escalate, abandon
/// repairs mid-stripe and re-plan jointly at least once, or the byte
/// hook's abandon and joint paths go untested.
#[test]
fn sim_and_file_backends_agree_with_the_engine() {
    let (mut joint, mut skipped) = (0usize, 0u64);
    for policy in PolicyKind::EXTENDED {
        for sharing in [CacheSharing::Partitioned, CacheSharing::Shared] {
            let clean = ExperimentConfig {
                sharing,
                ..small(policy)
            };
            for cfg in [clean, faulted(clean)] {
                let plan = PlannedCampaign::cold(&cfg).unwrap();
                let engine = run_planned(&cfg, &plan, PlanSource::Cold);
                let label = format!("{policy:?}/{sharing:?}/{:?}", cfg.code);
                if cfg.faults.is_active() {
                    assert!(engine.replans > 0, "{label}: nothing escalated");
                    skipped += engine.faults.skipped_ops;
                }

                let mut sim = sim_backend_for(&cfg, &plan).unwrap();
                let m = run_planned_on(&cfg, &plan, PlanSource::Cold, &mut sim).unwrap();
                assert_eq!(m.to_json(), engine.to_json(), "{label}/sim");
                let (_, joints) =
                    assert_repaired_stripes(&cfg, &plan, &mut sim, &format!("{label}/sim"));
                joint += joints;

                if !matches!(policy, PolicyKind::Fbf | PolicyKind::Lru) {
                    continue;
                }
                let scratch = Scratch::new(&format!("agree-{policy:?}-{sharing:?}"));
                let mut file = file_backend_for(&cfg, &plan, &scratch.0).unwrap();
                let m = run_planned_on(&cfg, &plan, PlanSource::Cold, &mut file).unwrap();
                assert_eq!(m.to_json(), engine.to_json(), "{label}/file");
                assert_repaired_stripes(&cfg, &plan, &mut file, &format!("{label}/file"));
            }
        }
    }
    assert!(skipped > 0, "no repair was abandoned mid-stripe");
    assert!(joint > 0, "no stripe was re-planned jointly");
}

/// Fault accounting is the engine's: a data-plane repair resolves every
/// read through the engine's own passes, so its counters — survivable and
/// exhausted transients, media errors, dead-disk reads, the ops an
/// abandoned repair skips — equal an engine repair's. That repair opens
/// with one engine pass over the plan's scripts, so no counter of that
/// pass may exceed the repair's; escalation rounds only add to them.
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
        let label = format!("kill: {disk_kill:?}");
        let plan = PlannedCampaign::cold(&cfg).unwrap();
        let mapping = ArrayMapping::new(plan.cols, plan.rows, cfg.code.rotated_placement());
        let pass =
            Engine::new(cfg.engine_config(mapping, Arc::clone(&plan.victim_map), cfg.faults))
                .run(&plan.scripts)
                .faults;
        let engine = run_planned(&cfg, &plan, PlanSource::Cold);
        let mut sim = sim_backend_for(&cfg, &plan).unwrap();
        let data = run_planned_on(&cfg, &plan, PlanSource::Cold, &mut sim).unwrap();

        assert!(
            pass.media_errors > 0
                && pass.retries_exhausted > 0
                && pass.transient_faults > pass.retries_exhausted,
            "fault plan too tame to tell the accounting rules apart: {pass:?}"
        );
        assert_eq!(pass.dead_disk_reads > 0, disk_kill.is_some(), "{label}");
        let f = data.faults;
        for (name, first, all) in [
            ("media_errors", pass.media_errors, f.media_errors),
            (
                "transient_faults",
                pass.transient_faults,
                f.transient_faults,
            ),
            ("retries", pass.retries, f.retries),
            (
                "retries_exhausted",
                pass.retries_exhausted,
                f.retries_exhausted,
            ),
            ("dead_disk_reads", pass.dead_disk_reads, f.dead_disk_reads),
            ("skipped_ops", pass.skipped_ops, f.skipped_ops),
        ] {
            assert!(first <= all, "{label}: {name} {first} > {all}");
        }
        assert_eq!(f, engine.faults, "{label}");
        assert_eq!(data.disk_reads, engine.disk_reads, "{label}");
        // Every cache lookup is recorded once in a class digest, unless
        // its disk read failed hard: no data arrived, so no latency.
        let by_class: u64 = data.class_digests.iter().map(|d| d.count()).sum();
        let lookups = data.cache.hits + data.cache.misses;
        assert!(
            lookups - f.hard_failures() <= by_class && by_class <= lookups,
            "{label}: {by_class} recorded reads of {lookups} lookups, {} hard failures",
            f.hard_failures()
        );
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

    let (checked, _) = assert_repaired_stripes(&cfg, &plan, &mut sim, "sim");
    assert_eq!(
        assert_repaired_stripes(&cfg, &plan, &mut file, "file").0,
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
