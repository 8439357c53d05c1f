//! A planned campaign run against a [`StorageBackend`]: the data plane.
//!
//! There is one executor, the engine. [`run_planned_on`] runs the passes
//! [`run_planned`](crate::runner::run_planned) runs — escalation,
//! re-planning, shared caches, workers interleaved on the virtual clock —
//! with a `DataPlane` attached as the engine's [`ByteHook`], then
//! flushes the backend. A `sim` or `file` repair so reports exactly the
//! [`Metrics`] an `engine` repair of the same config reports.
//!
//! **The byte hook.** The engine tells it, op by op in event order, which
//! chunk each worker was served and from where, which spare chunk it
//! writes, and which repair a failed read voided. The payloads of the
//! cache slices' residents live in one slab ([`PayloadCache`]): a hit
//! reads the resident slot, a miss reads the backend into a free slot. A
//! chained repair XORs each source into its worker's one accumulator as
//! it is served, and its `Op::Write` writes the accumulator. A joint
//! re-plan (escalation only) copies the gathered cells into the worker's
//! [`Stripe`]; the gather's first `Op::Write` solves it
//! ([`StripePlan::restore`]) and each write takes its own cell. No slot
//! outlives the access, so the slab never holds more slots than the
//! slices hold chunks. The first [`BackendError`] ends the run.
//!
//! **One clock.** Every time the data plane reports is the engine's
//! virtual time. On a wall clock the order of events — and with it cache
//! hits, which reads a disk kill fails, and the bytes each worker is
//! served — would depend on host timing, and it would be a second mode to
//! test. Host time is measured where it is the point: the `engine/run`
//! and `data_plane/flush` spans.

use crate::config::ExperimentConfig;
use crate::faulted::PassBytes;
use crate::metrics::Metrics;
use crate::plan::{PlanSource, PlannedCampaign};
use crate::progress::Progress;
use crate::runner::{simulate, RunError};
use fbf_cache::{FxHashMap, InsertOutcome};
use fbf_codes::{ChunkId, Stripe, StripeCode};
use fbf_disksim::{
    BackendError, ByteHook, EngineScratch, FileBackend, PayloadCache, SimBackend, StorageBackend,
};
use fbf_recovery::StripePlan;
use std::path::Path;

/// Execute an already-planned campaign on `backend`: the engine's run,
/// moving the bytes.
///
/// The backend must match the plan's geometry and the config's chunk
/// size; mismatches are reported as [`RunError::Backend`], never
/// silently truncated.
pub fn run_planned_on(
    cfg: &ExperimentConfig,
    plan: &PlannedCampaign,
    source: PlanSource,
    backend: &mut dyn StorageBackend,
) -> Result<Metrics, RunError> {
    run_observed_on(cfg, plan, source, &mut EngineScratch::new(), None, backend)
}

/// [`run_planned_on`] against caller-owned [`EngineScratch`], publishing
/// live escalation counters into `progress` — a daemon `sim`/`file` job.
pub(crate) fn run_observed_on(
    cfg: &ExperimentConfig,
    plan: &PlannedCampaign,
    source: PlanSource,
    scratch: &mut EngineScratch,
    progress: Option<&Progress>,
    backend: &mut dyn StorageBackend,
) -> Result<Metrics, RunError> {
    let mapping = backend.mapping();
    if (mapping.disks, mapping.rows) != (plan.cols, plan.rows) {
        return Err(RunError::Backend(BackendError::Geometry {
            expected: (plan.cols, plan.rows),
            got: (mapping.disks, mapping.rows),
        }));
    }
    let chunk_bytes = cfg.chunk_bytes() as usize;
    if backend.chunk_bytes() != chunk_bytes {
        return Err(RunError::Backend(BackendError::SizeMismatch {
            expected: chunk_bytes,
            got: backend.chunk_bytes(),
        }));
    }
    let mut bytes = DataPlane {
        slots: PayloadCache::new(cfg.workers, chunk_bytes),
        lanes: (0..cfg.workers).map(|_| Lane::default()).collect(),
        code: None,
        joint: FxHashMap::default(),
        backend,
    };
    let metrics =
        simulate(cfg, plan, source, scratch, progress, &mut bytes).map_err(RunError::Backend)?;
    let slots = bytes.slots.slots();

    let obs = cfg.obs && fbf_obs::enabled();
    let syncs = |b: &dyn StorageBackend| b.disk_stats().iter().map(|d| d.syncs).sum::<u64>();
    let synced_before = syncs(backend);
    let span = obs.then(|| fbf_obs::span("data_plane", "flush"));
    backend.flush().map_err(RunError::Backend)?;
    drop(span);
    if obs {
        fbf_obs::counter(
            "data_plane",
            "decode",
            &[
                ("payload_slots", fbf_obs::Value::U64(slots as u64)),
                (
                    "files_synced",
                    fbf_obs::Value::U64(syncs(backend) - synced_before),
                ),
            ],
        );
    }
    Ok(metrics)
}

/// The [`ByteHook`] that moves a run's payloads through a backend.
pub(crate) struct DataPlane<'b> {
    backend: &'b mut dyn StorageBackend,
    slots: PayloadCache,
    lanes: Vec<Lane>,
    /// Set by a re-plan: the code, and the pass's joint plans by stripe.
    code: Option<StripeCode>,
    joint: FxHashMap<u32, StripePlan>,
}

/// One worker's repair in progress: the XOR of the `sources` chunks a
/// chained repair was served so far, or the stripe a joint gather fills
/// (its id, cells, and whether it is solved).
#[derive(Default)]
struct Lane {
    acc: Vec<u8>,
    sources: usize,
    joint: Option<(u32, Stripe, bool)>,
}

impl Lane {
    /// `chunk`'s `bytes` were served to the repair.
    fn serve(&mut self, chunk: ChunkId, bytes: &[u8], gathered: bool, code: Option<&StripeCode>) {
        if gathered {
            let layout = code.expect("a gather runs in a re-planned pass").layout();
            let (_, cells, _) = match &mut self.joint {
                Some(joint) if joint.0 == chunk.stripe && !joint.2 => joint,
                joint => joint.insert((chunk.stripe, Stripe::zeroed(layout, bytes.len()), false)),
            };
            cells.set(layout, chunk.cell, bytes.into());
        } else if self.sources == 0 {
            self.acc.clear();
            self.acc.extend_from_slice(bytes);
            self.sources = 1;
        } else {
            fbf_codes::xor::xor_into(&mut self.acc, bytes);
            self.sources += 1;
        }
    }

    /// Nothing served so far counts.
    fn clear(&mut self) {
        self.sources = 0;
        self.joint = None;
    }
}

impl ByteHook for DataPlane<'_> {
    type Error = BackendError;

    fn served(
        &mut self,
        worker: usize,
        slice: usize,
        chunk: ChunkId,
        fetched: Option<InsertOutcome>,
        gathered: bool,
    ) -> Result<(), BackendError> {
        let backend = &mut *self.backend;
        let bytes = match fetched {
            None => self.slots.hit(slice, chunk),
            Some(outcome) => self
                .slots
                .miss(slice, chunk, outcome, |buf| backend.read_chunk(chunk, buf))?,
        };
        self.lanes[worker].serve(chunk, bytes, gathered, self.code.as_ref());
        Ok(())
    }

    fn write(&mut self, worker: usize, chunk: ChunkId) -> Result<(), BackendError> {
        let lane = &mut self.lanes[worker];
        let data: &[u8] = match &mut lane.joint {
            Some((stripe, cells, solved)) if *stripe == chunk.stripe => {
                let code = self
                    .code
                    .as_ref()
                    .expect("a gather runs in a re-planned pass");
                if !*solved {
                    self.joint[stripe]
                        .restore(code, cells)
                        .expect("a joint plan solves the damage it was planned for");
                    *solved = true;
                }
                cells.get(code.layout(), chunk.cell)
            }
            _ => {
                lane.sources = 0;
                &lane.acc
            }
        };
        self.backend.write_spare(chunk, data)
    }

    fn abandon(&mut self, worker: usize) {
        self.lanes[worker].clear();
    }
}

impl PassBytes for DataPlane<'_> {
    fn fresh(&mut self) -> &mut Self {
        self.slots.reset();
        self.lanes.iter_mut().for_each(Lane::clear);
        self
    }

    fn replan(&mut self, code: &StripeCode, plans: &[StripePlan]) {
        self.code.get_or_insert_with(|| code.clone());
        self.joint = plans
            .iter()
            .filter(|plan| matches!(plan, StripePlan::Joint(_)))
            .map(|plan| (plan.stripe(), plan.clone()))
            .collect();
    }
}

/// A [`SimBackend`] matching `cfg`'s geometry with `plan`'s damage set —
/// the in-memory data plane every campaign can run against with no
/// setup cost.
pub fn sim_backend_for(
    cfg: &ExperimentConfig,
    plan: &PlannedCampaign,
) -> Result<SimBackend, RunError> {
    let code = fbf_codes::StripeCode::build(cfg.code, cfg.p)?;
    Ok(SimBackend::new(
        code,
        cfg.chunk_bytes() as usize,
        cfg.stripes as u64,
        damaged_chunks(plan),
    ))
}

/// A freshly formatted [`FileBackend`] under `dir` holding exactly the
/// stripes `plan` touches (the rest of the per-disk files stay sparse),
/// with `plan`'s damaged cells left unwritten.
pub fn file_backend_for(
    cfg: &ExperimentConfig,
    plan: &PlannedCampaign,
    dir: &Path,
) -> Result<FileBackend, RunError> {
    let code = fbf_codes::StripeCode::build(cfg.code, cfg.p)?;
    let stripes: Vec<u32> = plan
        .errors
        .damage_by_stripe()
        .iter()
        .map(|d| d.stripe)
        .collect();
    let damaged: Vec<ChunkId> = damaged_chunks(plan);
    FileBackend::format(
        dir,
        &code,
        cfg.chunk_bytes() as usize,
        cfg.stripes as u64,
        &stripes,
        &damaged,
    )
    .map_err(RunError::Backend)
}

/// Every lost chunk of the campaign, as chunk ids.
fn damaged_chunks(plan: &PlannedCampaign) -> Vec<ChunkId> {
    plan.errors
        .damage_by_stripe()
        .iter()
        .flat_map(|d| d.cells.iter().map(|&c| ChunkId::new(d.stripe, c)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::run_experiment;
    use fbf_cache::PolicyKind;

    fn small(policy: PolicyKind) -> ExperimentConfig {
        ExperimentConfig::builder()
            .policy(policy)
            .cache_mb(1)
            .chunk_kb(1)
            .stripes(128)
            .error_count(32)
            .workers(8)
            .gen_threads(1)
            .build()
            .unwrap()
    }

    #[test]
    fn sim_backend_reproduces_engine_disk_reads() {
        for policy in [PolicyKind::Fbf, PolicyKind::Lru, PolicyKind::Arc] {
            let cfg = small(policy);
            let engine = run_experiment(&cfg).unwrap();
            let plan = PlannedCampaign::cold(&cfg).unwrap();
            let mut backend = sim_backend_for(&cfg, &plan).unwrap();
            let data = run_planned_on(&cfg, &plan, PlanSource::Cold, &mut backend).unwrap();
            assert_eq!(
                data.disk_reads, engine.disk_reads,
                "{policy:?}: data plane must replay the engine's misses"
            );
            assert_eq!(data.disk_writes, engine.disk_writes);
            assert_eq!(data.hit_ratio, engine.hit_ratio);
            assert_eq!(data.stripes_repaired, engine.stripes_repaired);
            assert_eq!(data.chunks_recovered, engine.chunks_recovered);
        }
    }

    #[test]
    fn repaired_bytes_verify_against_pristine_payloads() {
        let cfg = small(PolicyKind::Fbf);
        let plan = PlannedCampaign::cold(&cfg).unwrap();
        let mut backend = sim_backend_for(&cfg, &plan).unwrap();
        let metrics = run_planned_on(&cfg, &plan, PlanSource::Cold, &mut backend).unwrap();
        let report = crate::verify_backend(&cfg, &plan, &metrics, &mut backend).unwrap();
        assert_eq!(report.stripes, cfg.error_count);
        assert_eq!(report.chunks, plan.chunks_lost);
    }

    #[test]
    fn geometry_mismatch_is_reported() {
        let cfg = small(PolicyKind::Lru);
        let plan = PlannedCampaign::cold(&cfg).unwrap();
        let other = ExperimentConfig {
            p: 11,
            ..small(PolicyKind::Lru)
        };
        let mut backend = {
            let code = fbf_codes::StripeCode::build(other.code, other.p).unwrap();
            SimBackend::new(code, other.chunk_bytes() as usize, other.stripes as u64, [])
        };
        assert!(matches!(
            run_planned_on(&cfg, &plan, PlanSource::Cold, &mut backend),
            Err(RunError::Backend(BackendError::Geometry { .. }))
        ));
    }
}
