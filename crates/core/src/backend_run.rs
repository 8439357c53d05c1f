//! Execute a planned campaign against a [`StorageBackend`] data plane.
//!
//! Where [`run_planned`](crate::runner::run_planned) moves chunk
//! *identities* on the simulator's virtual clock, [`run_planned_on`]
//! moves actual payload bytes: every repair reads its source chunks
//! through the same per-worker buffer-cache slices the engine would
//! build ([`fbf_disksim::build_caches`]), XORs them, and writes the
//! recovered chunk to the backend's spare area.
//!
//! # What matches the simulator, and what cannot
//!
//! Under [`CacheSharing::Partitioned`] (the default) each worker's cache
//! slice sees exactly that worker's accesses in script order, so hit /
//! miss accounting — and therefore `disk_reads` — reproduces the engine
//! *by construction*: same caches, same access sequence. Batched decode
//! (`decode_batch` consecutive schemes gathered per round, one XOR
//! kernel pass per stripe) preserves that property because a batch never
//! holds two schemes of the same slice; the backend conformance suite
//! pins conformance across batch sizes. Under [`CacheSharing::Shared`]
//! the engine interleaves workers on virtual time while this executor
//! runs them sequentially, so shared-cache hit counts may legitimately
//! differ — batching is disabled there (batch of 1).
//!
//! Latency figures are **host wall-clock** (recorded as [`SimTime`]
//! nanoseconds), not simulated disk time; they describe the backend's
//! real I/O, not the paper's disk model. Reads are resolved and counted
//! by the engine's own [`resolve_read`] (so the fault counters equal an
//! engine pass's), but escalation stays single-pass: a
//! hard failure abandons the stripe (its skipped reads and write counted
//! in [`FaultCounters::skipped_ops`], the stripe in `stripes_unresolved`)
//! instead of entering the simulator's multi-round re-planning, which
//! needs a virtual clock to be meaningful.

use crate::config::ExperimentConfig;
use crate::metrics::Metrics;
use crate::plan::{PlanKey, PlanSource, PlannedCampaign};
use crate::runner::RunError;
use fbf_codes::ChunkId;
use fbf_disksim::{
    build_caches, resolve_read, BackendError, CacheSharing, DiskStats, FailedRead, FileBackend,
    PayloadCache, ReadOutcome, RunReport, SimBackend, SimTime, Slot, StorageBackend,
};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Execute an already-planned campaign's data plane on `backend`.
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
    debug_assert_eq!(plan.key, PlanKey::of(cfg), "plan/config key mismatch");
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

    let workers = plan.scripts.len();
    let ecfg = cfg.engine_config(mapping.clone(), Arc::clone(&plan.victim_map), cfg.faults);
    // The engine's cache slices, holding the resident payloads as well.
    // A slot evicted while a gathered repair still names it stays intact
    // until the round's decode is done (`release_retired`).
    let mut cache = PayloadCache::new(build_caches(&ecfg, workers), chunk_bytes);

    let mut report = RunReport {
        per_disk: vec![DiskStats::default(); mapping.disks],
        per_disk_class_reads: vec![[0; fbf_obs::RequestClass::COUNT]; mapping.disks],
        ..Default::default()
    };
    let mut stripes_repaired = 0usize;
    let mut chunks_recovered = 0usize;
    let started = Instant::now();

    // Batched decode: a batch is up to `decode_batch` *consecutive*
    // schemes. Consecutive schemes land on consecutive workers (scheme i
    // runs on worker i % workers, the same round-robin `build_scripts`
    // lowered the scripts with), so a batch capped at `workers` touches
    // each cache slice at most once — per-slice access order, and with it
    // hit/miss accounting, is exactly the sequential executor's, which is
    // what keeps the engine-conformance pins green at any batch size.
    // A shared cache serializes everything through slice 0, so batching
    // would reorder its accesses: force a batch of 1 there.
    let batch_size = match cfg.sharing {
        CacheSharing::Shared => 1,
        CacheSharing::Partitioned => cfg.decode_batch.clamp(1, workers),
    };
    let obs = cfg.obs && fbf_obs::enabled();
    let mut batches = 0u64;
    let mut accs: Vec<Vec<u8>> = vec![vec![0u8; chunk_bytes]; batch_size];
    let mut sources: Vec<Vec<Slot>> = vec![Vec::new(); batch_size];
    // Per-scheme batch state: (abandoned, repairs completed).
    let mut states: Vec<(bool, usize)> = vec![(false, 0); batch_size];

    for (base, batch) in plan.schemes.chunks(batch_size).enumerate() {
        let span = if obs {
            Some(fbf_obs::span("data_plane", "decode_batch"))
        } else {
            None
        };
        batches += 1;
        for st in states.iter_mut() {
            *st = (false, 0);
        }
        let rounds = batch.iter().map(|s| s.repairs.len()).max().unwrap_or(0);
        // Round r handles repair #r of every scheme in the batch: gather
        // every source chunk (cache hit or backend read), then one XOR
        // kernel pass per stripe, then the spare writes. Chained repairs
        // stay correct because a repair only ever reads chunks recovered
        // by *earlier* rounds of its own scheme — written to the spare
        // area before this round's gathers run — never by a batch peer
        // (peers are different stripes).
        for round in 0..rounds {
            // Gather.
            for (j, scheme) in batch.iter().enumerate() {
                let worker = (base * batch_size + j) % workers;
                let slice = match cfg.sharing {
                    CacheSharing::Shared => 0,
                    CacheSharing::Partitioned => worker,
                };
                let class = plan.scripts[worker].class;
                let Some(repair) = scheme.repairs.get(round) else {
                    continue;
                };
                let (abandoned, done) = &mut states[j];
                if *abandoned {
                    // Mirror the engine: the reads and the write of a
                    // failed stripe's remaining repairs are skipped (a
                    // compute step touches no chunk and just runs).
                    report.faults.skipped_ops += repair.option.reads.len() as u64 + 1;
                    continue;
                }
                sources[j].clear();
                let mut read_idx = 0usize;
                for &cell in &repair.option.reads {
                    let chunk = ChunkId::new(scheme.stripe, cell);
                    let t0 = Instant::now();
                    let served = match cache.access(slice, chunk) {
                        Some(slot) => {
                            sources[j].push(slot);
                            true
                        }
                        None => {
                            // No virtual clock: a survivable transient's
                            // delay and a failure's wasted retries cost
                            // nothing here, only the counters move.
                            let retry = &backend.fault_plan().retry;
                            let outcome = resolve_read(
                                backend.disk_dead(mapping.disk_of(chunk)),
                                backend.classify_read(chunk),
                                retry,
                            );
                            report.faults.record(outcome, retry);
                            match outcome {
                                ReadOutcome::Failed { kind, .. } => {
                                    report.failed_reads.push(FailedRead {
                                        chunk,
                                        worker: worker as u32,
                                        kind,
                                    });
                                    false
                                }
                                ReadOutcome::Ok { .. } => {
                                    let priority = scheme.priority(cell);
                                    let slot = cache
                                        .fill(slice, chunk, priority, |buf| {
                                            backend.read_chunk(chunk, buf)
                                        })
                                        .map_err(RunError::Backend)?;
                                    report.disk_reads += 1;
                                    report.per_disk_class_reads[mapping.disk_of(chunk)]
                                        [class.index()] += 1;
                                    sources[j].push(slot);
                                    true
                                }
                            }
                        }
                    };
                    let elapsed = SimTime::from_nanos(t0.elapsed().as_nanos() as u64);
                    report.record_read(class, elapsed);
                    read_idx += 1;
                    if !served {
                        // Hard failure: abandon the stripe. Remaining ops
                        // of this repair (unread sources + write) are
                        // skipped, like the engine's failed-stripe fast
                        // path. Repairs that *did* finish still count as
                        // recovered chunks (their spare writes landed).
                        report.faults.skipped_ops +=
                            (repair.option.reads.len() - read_idx) as u64 + 1;
                        *abandoned = true;
                        chunks_recovered += *done;
                        sources[j].clear();
                        break;
                    }
                }
            }
            // Decode: one multi-source kernel pass per gathered stripe.
            for (j, scheme) in batch.iter().enumerate() {
                if states[j].0 || scheme.repairs.get(round).is_none() {
                    continue;
                }
                let refs: Vec<&[u8]> = sources[j].iter().map(|&s| cache.bytes(s)).collect();
                fbf_codes::xor::xor_many(&mut accs[j], &refs);
            }
            cache.release_retired();
            // Write the recovered chunks to the spare area.
            for (j, scheme) in batch.iter().enumerate() {
                let Some(repair) = scheme.repairs.get(round) else {
                    continue;
                };
                if states[j].0 {
                    continue;
                }
                let t0 = Instant::now();
                backend
                    .write_spare(ChunkId::new(scheme.stripe, repair.target), &accs[j])
                    .map_err(RunError::Backend)?;
                let elapsed = SimTime::from_nanos(t0.elapsed().as_nanos() as u64);
                report.disk_writes += 1;
                report.write_response.record(elapsed);
                report
                    .write_completions
                    .push(SimTime::from_nanos(started.elapsed().as_nanos() as u64));
                states[j].1 += 1;
            }
        }
        for (j, scheme) in batch.iter().enumerate() {
            if !states[j].0 {
                stripes_repaired += 1;
                chunks_recovered += scheme.repairs.len();
            }
        }
        if let Some(span) = span {
            span.end_with(&[
                ("stripes", fbf_obs::Value::U64(batch.len() as u64)),
                ("rounds", fbf_obs::Value::U64(rounds as u64)),
            ]);
        }
    }
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
                ("batches", fbf_obs::Value::U64(batches)),
                ("batch_size", fbf_obs::Value::U64(batch_size as u64)),
                ("payload_slots", fbf_obs::Value::U64(cache.slots() as u64)),
                (
                    "files_synced",
                    fbf_obs::Value::U64(syncs(backend) - synced_before),
                ),
            ],
        );
    }
    report.makespan = SimTime::from_nanos(started.elapsed().as_nanos() as u64);
    for slice in cache.slices() {
        report.cache.merge(&slice.stats());
    }
    for (disk, stats) in backend.disk_stats().iter().enumerate() {
        if let Some(d) = report.per_disk.get_mut(disk) {
            d.reads += stats.reads;
            d.writes += stats.writes;
        }
    }

    let mut metrics = Metrics::from_run(
        &report,
        plan.generation,
        stripes_repaired,
        chunks_recovered,
        source,
    );
    // Single pass: an abandoned stripe is neither repaired nor typed lost.
    metrics.stripes_unresolved = plan.schemes.len() - stripes_repaired;
    metrics.evaluate_slo(&cfg.slo);
    Ok(metrics)
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
        cfg.faults,
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
        cfg.faults,
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
        run_planned_on(&cfg, &plan, PlanSource::Cold, &mut backend).unwrap();
        let code = fbf_codes::StripeCode::build(cfg.code, cfg.p).unwrap();
        let mut buf = vec![0u8; cfg.chunk_bytes() as usize];
        for damage in plan.errors.damage_by_stripe() {
            let mut pristine = fbf_codes::Stripe::patterned_seeded(
                code.layout(),
                cfg.chunk_bytes() as usize,
                damage.stripe as u64,
            );
            fbf_codes::encode::encode(&code, &mut pristine).unwrap();
            for &cell in &damage.cells {
                let chunk = ChunkId::new(damage.stripe, cell);
                assert!(backend.is_repaired(chunk));
                backend.read_chunk(chunk, &mut buf).unwrap();
                assert_eq!(
                    &buf[..],
                    &pristine.get(code.layout(), cell)[..],
                    "stripe {} cell ({},{})",
                    damage.stripe,
                    cell.r(),
                    cell.c()
                );
            }
        }
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
            SimBackend::new(
                code,
                other.chunk_bytes() as usize,
                other.stripes as u64,
                [],
                other.faults,
            )
        };
        assert!(matches!(
            run_planned_on(&cfg, &plan, PlanSource::Cold, &mut backend),
            Err(RunError::Backend(BackendError::Geometry { .. }))
        ));
    }
}
