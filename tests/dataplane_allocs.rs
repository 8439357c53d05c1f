//! Allocation discipline on the data plane, counted exactly.
//!
//! `run_planned_on` keeps chunk payloads in a slab
//! ([`PayloadCache`](fbf::disksim::PayloadCache)) that recycles its slots
//! and holds a chunk only while a later read of its pass needs it, and
//! gives each worker one accumulator: how many chunk-sized buffers a run
//! allocates is bounded by the config — well under the cache, plus the
//! workers — not by how many chunks it reads. `FileBackend::format` keeps one
//! stripe across its per-stripe loop: its chunk-sized allocations do not
//! grow with the stripes it writes. `encode::verify`, which `verify_backend`
//! and `scrub` run per stripe, keeps one accumulator for all its chains.

mod common;

use common::{counted, LARGE};
use fbf::codes::encode::{encode, verify};
use fbf::core::PlannedCampaign;
use fbf::{
    run_planned_on, ArrayMapping, BackendDiskStats, BackendError, ChunkId, CodeSpec,
    ExperimentConfig, FaultPlan, FileBackend, PlanSource, StorageBackend, Stripe, StripeCode,
};

/// A backend that moves no bytes and allocates nothing per call, so every
/// counted allocation is the executor's own.
struct Inert {
    mapping: ArrayMapping,
    chunk_bytes: usize,
    data_stripes: u64,
    faults: FaultPlan,
    stats: Vec<BackendDiskStats>,
}

impl StorageBackend for Inert {
    fn kind(&self) -> &'static str {
        "inert"
    }
    fn mapping(&self) -> ArrayMapping {
        self.mapping.clone()
    }
    fn chunk_bytes(&self) -> usize {
        self.chunk_bytes
    }
    fn data_stripes(&self) -> u64 {
        self.data_stripes
    }
    fn fault_plan(&self) -> &FaultPlan {
        &self.faults
    }
    fn is_repaired(&self, _chunk: ChunkId) -> bool {
        false
    }
    fn read_chunk(&mut self, chunk: ChunkId, buf: &mut [u8]) -> Result<(), BackendError> {
        buf.fill(chunk.stripe as u8);
        self.stats[self.mapping.disk_of(chunk)].reads += 1;
        Ok(())
    }
    fn write_spare(&mut self, chunk: ChunkId, _data: &[u8]) -> Result<(), BackendError> {
        self.stats[self.mapping.disk_of(chunk)].writes += 1;
        Ok(())
    }
    fn disk_stats(&self) -> &[BackendDiskStats] {
        &self.stats
    }
}

fn config(errors: usize) -> ExperimentConfig {
    ExperimentConfig::builder()
        .p(7)
        .stripes(512)
        .error_count(errors)
        .workers(8)
        .chunk_kb(16)
        .cache_mb(1)
        .gen_threads(1)
        .build()
        .unwrap()
}

/// Chunk-sized allocations of one run, its disk reads, and the config's
/// ceiling on the former: slots for half the cache, plus one accumulator
/// per worker. A slab that held every cached chunk would need them all
/// (64 slots); one that holds only chunks with a read to come needs 17 at
/// 64 errors and 29 at 256.
fn run(errors: usize) -> (u64, u64, u64) {
    let cfg = config(errors);
    assert_eq!(cfg.chunk_bytes() as usize, LARGE);
    let plan = PlannedCampaign::cold(&cfg).unwrap();
    let code = StripeCode::build(cfg.code, cfg.p).unwrap();
    let mapping = ArrayMapping::new(code.cols(), code.rows(), cfg.code.rotated_placement());
    let mut backend = Inert {
        stats: vec![BackendDiskStats::default(); mapping.disks],
        mapping,
        chunk_bytes: LARGE,
        data_stripes: u64::from(cfg.stripes),
        faults: FaultPlan::none(),
    };
    let (metrics, calls) =
        counted(|| run_planned_on(&cfg, &plan, PlanSource::Cold, &mut backend).unwrap());
    let ceiling = cfg.cache_chunks() / 2 + cfg.workers;
    println!(
        "{errors} errors: {} chunk-sized allocations for {} disk reads (ceiling {ceiling})",
        calls.large, metrics.disk_reads
    );
    (calls.large, metrics.disk_reads, ceiling as u64)
}

#[test]
fn chunk_buffers_are_a_function_of_the_config_not_of_the_reads() {
    let (few, few_reads, ceiling) = run(64);
    let (many, many_reads, same_ceiling) = run(256);
    assert_eq!(ceiling, same_ceiling, "the ceiling depends on the campaign");
    // The campaigns are big enough to tell a buffer per read from a slab:
    // both read more chunks than the ceiling allows buffers.
    assert!(
        few_reads > ceiling && many_reads > 3 * few_reads,
        "{few_reads} and {many_reads} reads against a ceiling of {ceiling}"
    );
    assert!(
        few <= ceiling,
        "{few} chunk-sized allocations, over {ceiling}"
    );
    assert!(
        many <= ceiling,
        "{many} chunk-sized allocations, over {ceiling}"
    );
}

/// Chunk-sized allocations of formatting the first `stripes` stripes of a
/// 64-stripe TIP p = 5 array.
fn format(stripes: u32) -> u64 {
    let code = StripeCode::build(CodeSpec::Tip, 5).unwrap();
    let dir = std::env::temp_dir().join(format!("fbf-format-allocs-{}", std::process::id()));
    let ids: Vec<u32> = (0..stripes).collect();
    let (backend, calls) =
        counted(|| FileBackend::format(&dir, &code, LARGE, 64, &ids, &[]).unwrap());
    drop(backend);
    std::fs::remove_dir_all(&dir).unwrap();
    println!(
        "format of {stripes} stripes: {} chunk-sized allocations",
        calls.large
    );
    calls.large
}

#[test]
fn format_allocates_one_stripe_whatever_it_writes() {
    let cells = StripeCode::build(CodeSpec::Tip, 5).unwrap().layout().len() as u64;
    let (few, many) = (format(8), format(64));
    assert_eq!(
        few, many,
        "chunk-sized allocations grow with the stripes formatted"
    );
    // One buffer per cell, plus the zero chunk the empty stripe shares.
    assert_eq!(few, cells + 1);
}

#[test]
fn verify_allocates_one_accumulator_for_every_chain() {
    let code = StripeCode::build(CodeSpec::Tip, 7).unwrap();
    let mut stripe = Stripe::patterned_seeded(code.layout(), 32 << 10, 1);
    encode(&code, &mut stripe).unwrap();
    let (bad, calls) = counted(|| verify(&code, &stripe));
    assert!(bad.is_empty(), "chains {bad:?} violated after encode");
    println!(
        "verify of {} chains: {} chunk-sized allocations",
        code.chains().len(),
        calls.large
    );
    assert!(
        calls.large <= 1,
        "{} chunk-sized allocations for one stripe",
        calls.large
    );
}
