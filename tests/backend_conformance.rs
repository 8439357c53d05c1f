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
//!   encode, escalated damage and joint re-plans included
//!   ([`verify_backend`]), and that check fails on a flipped byte or a
//!   dropped spare write.

use fbf::core::PlannedCampaign;
use fbf::disksim::{DiskKill, Engine, EngineScratch};
use fbf::recovery::StripePlan;
use fbf::{
    file_backend_for, run_planned, run_planned_on, sim_backend_for, verify_backend,
    verify_campaign, ArrayMapping, BackendDiskStats, BackendError, CacheSharing, ChunkId, CodeSpec,
    ExperimentConfig, FaultPlan, Metrics, PlanSource, PolicyKind, RunError, SimTime,
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

/// [`verify_backend`] on what the run that reported `metrics` left on
/// `backend`, panicking with `label` on a failed check.
fn assert_verifies(
    cfg: &ExperimentConfig,
    plan: &PlannedCampaign,
    metrics: &Metrics,
    backend: &mut dyn StorageBackend,
    label: &str,
) -> fbf::VerifyReport {
    verify_backend(cfg, plan, metrics, backend).unwrap_or_else(|e| panic!("{label}: {e}"))
}

/// Stripes of `cfg`'s campaign that a joint re-plan repaired.
fn joint_replans(cfg: &ExperimentConfig, plan: &PlannedCampaign) -> usize {
    let outcome = fbf::core::execute_faulted(cfg, plan, &mut EngineScratch::new(), None);
    (outcome.replanned.values())
        .filter(|(_, replan)| matches!(replan, StripePlan::Joint(_)))
        .count()
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
                assert_verifies(&cfg, &plan, &m, &mut sim, &format!("{label}/sim"));
                if cfg.faults.is_active() && joint == 0 {
                    joint = joint_replans(&cfg, &plan);
                }

                if !matches!(policy, PolicyKind::Fbf | PolicyKind::Lru) {
                    continue;
                }
                let scratch = Scratch::new(&format!("agree-{policy:?}-{sharing:?}"));
                let mut file = file_backend_for(&cfg, &plan, &scratch.0).unwrap();
                let m = run_planned_on(&cfg, &plan, PlanSource::Cold, &mut file).unwrap();
                assert_eq!(m.to_json(), engine.to_json(), "{label}/file");
                assert_verifies(&cfg, &plan, &m, &mut file, &format!("{label}/file"));
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
    let m = run_planned_on(&cfg, &plan, PlanSource::Cold, &mut sim).unwrap();

    let scratch = Scratch::new("bytes");
    let mut file = file_backend_for(&cfg, &plan, &scratch.0).unwrap();
    run_planned_on(&cfg, &plan, PlanSource::Cold, &mut file).unwrap();

    let report = assert_verifies(&cfg, &plan, &m, &mut sim, "sim");
    assert_eq!(assert_verifies(&cfg, &plan, &m, &mut file, "file"), report);
    assert!(
        report.chunks >= cfg.error_count,
        "campaign produced too few damaged chunks to be a meaningful check ({})",
        report.chunks
    );
}

/// A repair's backends, fresh for each call: `SimBackend`, or a
/// `FileBackend` under `scratch`.
fn fresh_backend(
    cfg: &ExperimentConfig,
    plan: &PlannedCampaign,
    file: Option<&Scratch>,
) -> Box<dyn StorageBackend> {
    match file {
        None => Box::new(sim_backend_for(cfg, plan).unwrap()),
        Some(scratch) => {
            let _ = std::fs::remove_dir_all(&scratch.0);
            Box::new(file_backend_for(cfg, plan, &scratch.0).unwrap())
        }
    }
}

/// One spare chunk overwritten with a single flipped byte fails the
/// read-back, on both backends.
#[test]
fn a_flipped_spare_byte_fails_verification() {
    let cfg = small(PolicyKind::Fbf);
    let plan = PlannedCampaign::cold(&cfg).unwrap();
    let scratch = Scratch::new("flip");
    for file in [None, Some(&scratch)] {
        let mut backend = fresh_backend(&cfg, &plan, file);
        let m = run_planned_on(&cfg, &plan, PlanSource::Cold, &mut *backend).unwrap();
        let damage = &plan.errors.damage_by_stripe()[0];
        let chunk = ChunkId::new(damage.stripe, damage.cells[0]);
        let mut buf = vec![0u8; backend.chunk_bytes()];
        backend.read_chunk(chunk, &mut buf).unwrap();
        let mid = buf.len() / 2;
        buf[mid] ^= 0x10;
        backend.write_spare(chunk, &buf).unwrap();
        let kind = backend.kind();
        assert!(
            matches!(
                verify_backend(&cfg, &plan, &m, &mut *backend),
                Err(RunError::Verify(_))
            ),
            "{kind}: a flipped byte in {chunk:?} verified"
        );
    }
}

/// Forwards to `inner`, except that the `drop`-th spare write (1-based)
/// is acknowledged and discarded. `written` logs every spare write.
struct DropWrite {
    inner: Box<dyn StorageBackend>,
    drop: usize,
    written: Vec<ChunkId>,
}

impl StorageBackend for DropWrite {
    fn kind(&self) -> &'static str {
        self.inner.kind()
    }
    fn mapping(&self) -> ArrayMapping {
        self.inner.mapping()
    }
    fn chunk_bytes(&self) -> usize {
        self.inner.chunk_bytes()
    }
    fn data_stripes(&self) -> u64 {
        self.inner.data_stripes()
    }
    fn fault_plan(&self) -> &FaultPlan {
        self.inner.fault_plan()
    }
    fn is_repaired(&self, chunk: ChunkId) -> bool {
        self.inner.is_repaired(chunk)
    }
    fn read_chunk(&mut self, chunk: ChunkId, buf: &mut [u8]) -> Result<(), BackendError> {
        self.inner.read_chunk(chunk, buf)
    }
    fn write_spare(&mut self, chunk: ChunkId, data: &[u8]) -> Result<(), BackendError> {
        self.written.push(chunk);
        match self.written.len() == self.drop {
            true => Ok(()),
            false => self.inner.write_spare(chunk, data),
        }
    }
    fn disk_stats(&self) -> &[BackendDiskStats] {
        self.inner.disk_stats()
    }
    fn flush(&mut self) -> Result<(), BackendError> {
        self.inner.flush()
    }
}

/// A backend that loses a spare write fails the read-back: the stripe's
/// lost chunk is not repaired, so the verified counts fall short of the
/// run's. The write dropped is the last one that counts — its chunk is
/// written once, in a stripe the run repairs — and that no later read
/// needs (the run completes). On the faulted STAR campaign it may be
/// escalated damage, which only the chunk count covers.
#[test]
fn a_dropped_spare_write_fails_verification() {
    for cfg in [small(PolicyKind::Fbf), faulted(small(PolicyKind::Fbf))] {
        let plan = PlannedCampaign::cold(&cfg).unwrap();
        let scratch = Scratch::new("drop");
        for file in [None, Some(&scratch)] {
            let lossy = |drop| DropWrite {
                inner: fresh_backend(&cfg, &plan, file),
                drop,
                written: Vec::new(),
            };
            let mut all = lossy(0);
            let m = run_planned_on(&cfg, &plan, PlanSource::Cold, &mut all).unwrap();
            assert_verifies(&cfg, &plan, &m, &mut all, "all writes kept");
            let counts = |chunk: &ChunkId| {
                all.written.iter().filter(|&c| c == chunk).count() == 1
                    && !m.data_loss.iter().any(|l| l.stripe == chunk.stripe)
            };
            let (mut backend, m) = (all.written.iter().enumerate().rev())
                .filter(|(_, chunk)| counts(chunk))
                .find_map(|(i, _)| {
                    let mut backend = lossy(i + 1);
                    let m = run_planned_on(&cfg, &plan, PlanSource::Cold, &mut backend).ok()?;
                    Some((backend, m))
                })
                .expect("some dropped write is read by no later repair");
            assert!(
                matches!(
                    verify_backend(&cfg, &plan, &m, &mut backend),
                    Err(RunError::Verify(_))
                ),
                "{}/{:?}: dropping spare write {} ({:?}) verified",
                backend.kind(),
                cfg.code,
                backend.drop,
                all.written[backend.drop - 1]
            );
        }
    }
}

/// `verify_campaign` certifies the faulted STAR campaign, whose
/// escalation re-plans some stripes jointly.
#[test]
fn verify_campaign_certifies_a_joint_replanned_campaign() {
    let cfg = faulted(small(PolicyKind::Fbf));
    let plan = PlannedCampaign::cold(&cfg).unwrap();
    assert!(
        joint_replans(&cfg, &plan) > 0,
        "no joint re-plan to certify"
    );
    let report = verify_campaign(&cfg).unwrap();
    let engine = run_planned(&cfg, &plan, PlanSource::Cold);
    assert_eq!(report.stripes, engine.stripes_repaired);
    assert_eq!(report.chunks, engine.chunks_recovered);
    assert_eq!(report.lost, engine.stripes_lost);
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
