//! The discrete-event engine: SOR workers contending for disks and cache.
//!
//! Reconstruction in the paper runs Stripe-Oriented Reconstruction (SOR,
//! §III-B): multiple processes, each responsible for a set of stripes, each
//! holding a slice of the buffer cache. The engine models every worker as a
//! *script* of operations — chunk reads (through the buffer cache), XOR
//! computations and spare-chunk writes — and interleaves the workers in
//! virtual-time order with a priority queue. Disk contention emerges
//! naturally: each disk serves FCFS, so a worker whose read lands on a busy
//! disk waits.
//!
//! A blocking op costs one queue event under FCFS: nothing that arrives
//! later can change when the request is served, so the disk names the
//! completion instant at issue and the worker's resume is pushed directly.
//! SSTF and C-LOOK choose among whatever is pending when the disk falls
//! idle, so their requests complete through a second, disk-side event.
//!
//! The engine is policy-agnostic; FBF priorities ride along on each read op
//! and reach the policy through [`BufferCache::insert`].
//!
//! A run moves chunk *identities*. What happens to their bytes is a
//! [`ByteHook`]'s business: the engine tells it which chunk each worker
//! was served and from where, which spare chunk it writes, and which
//! repair it abandoned. Timing runs pass [`NoBytes`], which compiles to
//! nothing; the data plane passes a hook that reads, XORs and writes a
//! storage backend's payloads in exactly the order the event loop serves
//! them.

use crate::array::ArrayMapping;
use crate::buffer::{BufferCache, Lookup};
use crate::disk::{DiskModel, DiskStats};
use crate::equeue::{CalendarQueue, EventQueue};
use crate::fault::{resolve_read, FailedRead, FaultCounters, FaultPlan, ReadFailure, ReadOutcome};
use crate::sched::{DiskRequest, DiskSched, QueuedDisk};
use crate::time::SimTime;
use fbf_cache::{
    CacheStats, FbfConfig, FbfPolicy, FxHashMap, FxHashSet, InsertOutcome, PolicyKind, VdfPolicy,
};
use fbf_codes::ChunkId;
use fbf_obs::{Digest, RequestClass};

/// One operation of a worker's script.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Read a chunk through the buffer cache. `priority` is the FBF
    /// priority from the recovery scheme (1..=3); other policies ignore it.
    Read { chunk: ChunkId, priority: u8 },
    /// Pure computation (XOR, checksum) occupying the worker, no I/O.
    Compute { duration: SimTime },
    /// Parallel fan-out read; indexes into [`WorkerScript::gathers`].
    Gather { index: u32 },
    /// Write a recovered chunk to its disk's spare area (not cached).
    Write { chunk: ChunkId },
}

/// A parallel fan-out read: all chunks are requested at once (degraded
/// reads fan out to a whole parity chain; parallel repair reads do too).
/// The worker resumes when the slowest chunk arrives. Kept separate from
/// [`Op`] so scripts stay `Copy`-friendly in the common case.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GatherOp {
    /// Chunks to fetch concurrently, with their FBF priorities.
    pub chunks: Vec<(ChunkId, u8)>,
}

/// The full operation sequence of one reconstruction worker.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WorkerScript {
    /// Operations executed strictly in order; each starts when the
    /// previous completes.
    pub ops: Vec<Op>,
    /// Fan-out read groups referenced by [`Op::Gather`].
    pub gathers: Vec<GatherOp>,
    /// Traffic class every completion of this script is attributed to
    /// (defaults to [`RequestClass::Recovery`] — the planned repair
    /// campaign). The engine records each read's response into the
    /// matching per-class digest of [`RunReport::class_latency`].
    pub class: RequestClass,
}

impl WorkerScript {
    /// Number of read operations in the script (counting each gathered
    /// chunk individually).
    pub fn reads(&self) -> usize {
        self.ops
            .iter()
            .map(|o| match o {
                Op::Read { .. } => 1,
                Op::Gather { index } => self.gathers[*index as usize].chunks.len(),
                _ => 0,
            })
            .sum()
    }

    /// Append a fan-out read of `chunks` to the script.
    pub fn push_gather(&mut self, chunks: Vec<(ChunkId, u8)>) {
        let index = u32::try_from(self.gathers.len()).expect("gather count fits u32");
        self.gathers.push(GatherOp { chunks });
        self.ops.push(Op::Gather { index });
    }
}

/// What a run does with the bytes of the chunks it moves, told op by op
/// in the order the event loop runs them. Every method defaults to doing
/// nothing, which is all [`NoBytes`] does.
///
/// `worker` is the script's index and `slice` the cache slice it reads
/// through. The first `Err` ends the run.
pub trait ByteHook {
    /// What ends a run early.
    type Error;

    /// `worker` was served `chunk` through `slice`: the resident bytes on
    /// a hit (`fetched` is `None`), or after a miss the chunk read from
    /// its disk, inserted with outcome `fetched`. `gathered` says it came
    /// in through an [`Op::Gather`] rather than an [`Op::Read`].
    fn served(
        &mut self,
        _worker: usize,
        _slice: usize,
        _chunk: ChunkId,
        _fetched: Option<InsertOutcome>,
        _gathered: bool,
    ) -> Result<(), Self::Error> {
        Ok(())
    }

    /// `worker` writes the chunk it recovered to `chunk`'s spare location.
    fn write(&mut self, _worker: usize, _chunk: ChunkId) -> Result<(), Self::Error> {
        Ok(())
    }

    /// A read of `worker`'s failed hard: what its repair was served is
    /// void, and the rest of the stripe's ops are skipped.
    fn abandon(&mut self, _worker: usize) {}
}

/// The [`ByteHook`] of a run that only tracks chunk ids.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoBytes;

impl ByteHook for NoBytes {
    type Error = std::convert::Infallible;
}

/// How the buffer cache is divided among workers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CacheSharing {
    /// Each worker owns `capacity / workers` chunks (the paper's SOR setup:
    /// "each process is allocated with a small part of cache").
    #[default]
    Partitioned,
    /// One cache shared by all workers (ablation).
    Shared,
}

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Replacement policy under test.
    pub policy: PolicyKind,
    /// FBF-specific tunables; ignored unless `policy == PolicyKind::Fbf`.
    pub fbf: FbfConfig,
    /// Stripes currently under repair (stripe → damaged column) — the
    /// victim map consulted by `PolicyKind::Vdf`; other policies ignore
    /// it. `None` builds VDF with no victims (plain LRU). Fast-hashed:
    /// VDF looks the stripe up on every insert.
    pub victim_map: Option<std::sync::Arc<FxHashMap<u32, u16>>>,
    /// Total buffer-cache capacity, in chunks.
    pub cache_chunks: usize,
    /// Cache partitioning across workers.
    pub sharing: CacheSharing,
    /// Disk service model.
    pub disk_model: DiskModel,
    /// Head-scheduling discipline of each disk's request queue.
    pub sched: DiskSched,
    /// Failure injection: (disk index, service-time multiplier) for one
    /// degraded/aged disk. `None` = all disks healthy. Composes with
    /// [`FaultPlan::straggler`] (multipliers stack) for back-compat.
    pub straggler: Option<(usize, f64)>,
    /// Deterministic fault injection. [`FaultPlan::none()`] (the default)
    /// keeps the event loop bit-identical to a fault-free build: the only
    /// added cost is one well-predicted branch per operation.
    pub faults: FaultPlan,
    /// Buffer-cache access time (the paper: 0.5 ms).
    pub cache_hit_time: SimTime,
    /// Chunk payload size in bytes (the paper: 32 KB).
    pub chunk_bytes: u64,
    /// Chunk→disk/LBA mapping.
    pub mapping: ArrayMapping,
    /// Stripes in the data zone (spare area begins after it).
    pub data_stripes: u64,
    /// Emit fbf-obs run events (span + cache/queue/disk counters) at run
    /// boundaries. Off by default: nothing is emitted from the per-access
    /// hot loop either way, so enabling this does not perturb results.
    pub obs: bool,
}

impl EngineConfig {
    /// The paper's simulator constants for a given policy/cache/mapping.
    pub fn paper(
        policy: PolicyKind,
        cache_chunks: usize,
        mapping: ArrayMapping,
        data_stripes: u64,
    ) -> Self {
        EngineConfig {
            policy,
            fbf: FbfConfig::default(),
            victim_map: None,
            cache_chunks,
            sharing: CacheSharing::Partitioned,
            disk_model: DiskModel::paper_default(),
            sched: DiskSched::Fcfs,
            straggler: None,
            faults: FaultPlan::none(),
            cache_hit_time: SimTime::from_micros(500),
            chunk_bytes: 32 << 10,
            mapping,
            data_stripes,
            obs: false,
        }
    }
}

/// Latency distribution summary for one request class.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResponseStats {
    /// Requests measured.
    pub count: u64,
    /// Sum of response times.
    pub total: SimTime,
    /// Worst response time.
    pub max: SimTime,
}

impl ResponseStats {
    /// Record one completed request's response time.
    pub fn record(&mut self, t: SimTime) {
        self.count += 1;
        self.total += t;
        self.max = self.max.max(t);
    }

    /// Mean response time in milliseconds (0 when nothing was measured).
    pub fn avg_millis(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total.as_millis_f64() / self.count as f64
        }
    }

    /// Merge another summary into this one.
    pub fn merge(&mut self, other: &ResponseStats) {
        self.count += other.count;
        self.total += other.total;
        self.max = self.max.max(other.max);
    }
}

/// Everything measured over one engine run.
#[derive(Debug, Clone, Default)]
pub struct RunReport {
    /// Virtual time from start until the last worker finished — the
    /// paper's "reconstruction time".
    pub makespan: SimTime,
    /// Aggregated cache statistics (all workers).
    pub cache: CacheStats,
    /// Total chunk reads that reached the disks (the paper's "number of
    /// read operations during recovery").
    pub disk_reads: u64,
    /// Total spare-area writes.
    pub disk_writes: u64,
    /// Response-time summary of chunk *read* requests (hit or miss).
    pub read_response: ResponseStats,
    /// Read-latency digests (nanoseconds) split by [`RequestClass`],
    /// indexed by [`RequestClass::index`]. Their counts partition
    /// `read_response.count` exactly: every read completion (hit or miss)
    /// lands in precisely one class digest. [`RunReport::read_latency`]
    /// is their merge.
    pub class_latency: [Digest; RequestClass::COUNT],
    /// Response-time summary of spare writes.
    pub write_response: ResponseStats,
    /// Completion instant of every spare write, in completion order — the
    /// repair-progress curve (each write closes one lost chunk's window of
    /// vulnerability).
    pub write_completions: Vec<SimTime>,
    /// Per-disk counters.
    pub per_disk: Vec<DiskStats>,
    /// Disk reads split by disk *and* [`RequestClass`], indexed
    /// `[disk][class.index()]`. Sums over classes match
    /// `per_disk[d].reads`; the Recovery/Replan columns are the
    /// declustering rebuild-read balance input.
    pub per_disk_class_reads: Vec<[u64; RequestClass::COUNT]>,
    /// Fault-path counters; all zero when faults are disabled.
    pub faults: FaultCounters,
    /// Hard read failures, in the deterministic order they were hit.
    /// Each is an additional erasure the controller must re-plan around.
    pub failed_reads: Vec<FailedRead>,
}

impl RunReport {
    /// Account one read of a `class` script answered after `response`,
    /// from the cache or a disk — the one place a read latency is
    /// recorded.
    pub fn record_read(&mut self, class: RequestClass, response: SimTime) {
        self.read_response.record(response);
        self.class_latency[class.index()].record_ns(response.as_nanos());
    }

    /// The latency distribution of every read, whatever its class: the
    /// merge of [`RunReport::class_latency`].
    pub fn read_latency(&self) -> Digest {
        let mut all = Digest::new();
        for class in &self.class_latency {
            all.merge(class);
        }
        all
    }

    /// Account one disk request of a `class` script finishing at `done`.
    fn record_completion(&mut self, class: RequestClass, req: &DiskRequest, done: SimTime) {
        let response = done - req.issued;
        if req.write {
            self.write_response.record(response);
            self.write_completions.push(done);
        } else {
            self.record_read(class, response);
        }
    }

    /// Deepest any disk's queue ever got — the run's queue-depth
    /// high-water mark. A *max* over per-disk high-waters (and across
    /// merged rounds), never a sum.
    pub fn queue_depth_max(&self) -> u64 {
        self.per_disk.iter().map(|d| d.max_queue).max().unwrap_or(0)
    }

    /// Per-disk read-balance: the busiest disk's read count over the
    /// per-disk mean — the declustering uniformity metric (1.0 is a
    /// perfectly even spread; 0.0 when no reads reached the disks).
    pub fn read_balance(&self) -> f64 {
        let total: u64 = self.per_disk.iter().map(|d| d.reads).sum();
        if total == 0 || self.per_disk.is_empty() {
            return 0.0;
        }
        let max = self.per_disk.iter().map(|d| d.reads).max().unwrap_or(0);
        let mean = total as f64 / self.per_disk.len() as f64;
        max as f64 / mean
    }

    /// Reads served by each disk on behalf of `class`, from
    /// [`RunReport::per_disk_class_reads`].
    pub fn class_reads_per_disk(&self, class: RequestClass) -> Vec<u64> {
        let i = class.index();
        self.per_disk_class_reads.iter().map(|c| c[i]).collect()
    }

    /// Rebuild (non-App) reads absorbed by each disk — the one definition
    /// behind [`rebuild_read_skew`](Self::rebuild_read_skew) and the
    /// rebuild driver's per-disk report.
    pub fn rebuild_reads_per_disk(&self) -> Vec<u64> {
        let app = RequestClass::App.index();
        self.per_disk_class_reads
            .iter()
            .map(|c| c.iter().sum::<u64>() - c[app])
            .collect()
    }

    /// Rebuild-read skew: busiest disk's non-App reads over the all-disk
    /// mean (same max/mean shape as [`RunReport::read_balance`], but
    /// restricted to recovery traffic — the clustered-vs-declustered
    /// comparison metric). 0.0 when no rebuild reads reached the disks.
    pub fn rebuild_read_skew(&self) -> f64 {
        let per = self.rebuild_reads_per_disk();
        let total: u64 = per.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let max = per.iter().copied().max().unwrap_or(0);
        let mean = total as f64 / per.len() as f64;
        max as f64 / mean
    }
}

/// Build the per-worker cache slice vector for `workers` scripts exactly
/// as [`Engine::run_with_scratch`] does: one cache of the full capacity
/// under [`CacheSharing::Shared`], or equal shares (remainder spread over
/// the first workers) under [`CacheSharing::Partitioned`].
pub fn build_caches(cfg: &EngineConfig, workers: usize) -> Vec<BufferCache> {
    match cfg.sharing {
        CacheSharing::Shared => vec![build_cache(cfg, cfg.cache_chunks)],
        CacheSharing::Partitioned => {
            // Equal shares, remainder spread over the first workers —
            // so a cache smaller than the worker count still caches
            // *somewhere* instead of rounding every share to zero.
            let w = workers.max(1);
            let (share, extra) = (cfg.cache_chunks / w, cfg.cache_chunks % w);
            (0..w)
                .map(|i| build_cache(cfg, share + usize::from(i < extra)))
                .collect()
        }
    }
}

/// Build one cache slice honouring FBF-specific configuration.
fn build_cache(cfg: &EngineConfig, capacity: usize) -> BufferCache {
    match cfg.policy {
        PolicyKind::Fbf => {
            BufferCache::from_policy(Box::new(FbfPolicy::with_config(capacity, cfg.fbf)))
        }
        PolicyKind::Vdf => BufferCache::from_policy(Box::new(match &cfg.victim_map {
            Some(map) => VdfPolicy::with_victim_map(capacity, map.clone()),
            None => VdfPolicy::new(capacity),
        })),
        _ => BufferCache::new(cfg.policy, capacity),
    }
}

/// Reusable per-run working memory of [`Engine::run`].
///
/// One run needs an event queue plus four per-worker vectors; at sweep
/// scale (thousands of points) re-allocating them for every point is pure
/// overhead. Keep one `EngineScratch` per sweep worker thread and pass it
/// to [`Engine::run_with_scratch`] — each run resets lengths and reuses
/// the backing storage. A scratch carries no state between runs (every
/// field is fully re-initialised), so reuse cannot change results; the
/// determinism tests in `tests/engine_equivalence.rs` pin this.
///
/// The queue defaults to [`CalendarQueue`]; the differential suites
/// instantiate with their `HeapQueue` (`tests/common`), the original
/// `BinaryHeap`. Both pop in identical
/// `(time, kind, id)` order, so the choice cannot change reports — the
/// engine-level differential suite pins that, including under faults.
#[derive(Default)]
pub struct EngineScratch<Q: EventQueue = CalendarQueue> {
    queue: Q,
    next_op: Vec<usize>,
    /// Per worker, under a reordering discipline: how many requests of its
    /// current op are still queued, and the floor under its resume.
    gather_left: Vec<usize>,
    gather_floor: Vec<SimTime>,
    /// Backing store of [`Step::queued_on`].
    queued_on: Vec<usize>,
}

impl EngineScratch {
    /// Fresh scratch with the default calendar queue. Differential suites
    /// wanting the heap oracle name the queue type explicitly:
    /// `EngineScratch::<HeapQueue>::default()`.
    pub fn new() -> Self {
        Self::default()
    }
}

impl<Q: EventQueue> EngineScratch<Q> {
    /// Reset for a run over `workers` scripts, keeping allocations.
    fn reset(&mut self, workers: usize) {
        self.queue.clear();
        self.next_op.clear();
        self.next_op.resize(workers, 0);
        self.gather_left.clear();
        self.gather_left.resize(workers, 0);
        self.gather_floor.clear();
        self.gather_floor.resize(workers, SimTime::ZERO);
        self.queued_on.clear();
    }
}

/// One worker step: who issues, when, and what the op leaves the worker
/// blocked on.
struct Step<'a> {
    worker: usize,
    class: RequestClass,
    /// The cache slice the worker reads through.
    slice: usize,
    now: SimTime,
    /// Ordinal of the engine event (see [`QueuedDisk::submit`]).
    event: u64,
    chunk_bytes: u64,
    /// Earliest instant the worker may resume: `now`, raised by cache-hit
    /// and compute time and by every disk completion known at issue.
    until: SimTime,
    /// Disk of each request whose completion a disk event will deliver.
    queued_on: &'a mut Vec<usize>,
}

impl Step<'_> {
    /// Hand one chunk request to its disk — the one place the engine
    /// issues disk I/O. An FCFS disk names the completion at once: the
    /// response is recorded here and the worker blocked until then. A
    /// reordering disk queues the request; the caller starts the disk once
    /// the op's whole fan-out is queued, and the disk's completion event
    /// records the response.
    fn issue(
        &mut self,
        disks: &mut [QueuedDisk],
        report: &mut RunReport,
        disk: usize,
        lba: u64,
        write: bool,
        delay: SimTime,
    ) {
        let req = DiskRequest {
            tag: self.worker,
            lba,
            bytes: self.chunk_bytes,
            write,
            issued: self.now,
            delay,
        };
        match disks[disk].submit(req, self.event) {
            Some(done) => {
                report.record_completion(self.class, &req, done);
                self.until = self.until.max(done);
            }
            None => self.queued_on.push(disk),
        }
    }
}

/// The simulation engine. Build once per run.
pub struct Engine {
    config: EngineConfig,
    /// Test seam: FCFS disks queue their requests and complete them through
    /// disk events, as the reordering disciplines do — the oracle the
    /// at-issue dispatch is compared against.
    #[cfg(test)]
    fcfs_by_events: bool,
}

impl Engine {
    /// Create an engine with the given configuration.
    pub fn new(config: EngineConfig) -> Self {
        Engine {
            config,
            #[cfg(test)]
            fcfs_by_events: false,
        }
    }

    /// Execute all worker scripts to completion and report, allocating
    /// fresh working memory. Sweeps should prefer
    /// [`run_with_scratch`](Engine::run_with_scratch).
    pub fn run(&self, scripts: &[WorkerScript]) -> RunReport {
        self.run_with_scratch(scripts, &mut EngineScratch::<CalendarQueue>::default())
    }

    /// [`run`](Engine::run) against caller-owned scratch memory, so the
    /// event queue and per-worker vectors are reused across runs instead of
    /// re-allocated per point. Generic over the queue so differential
    /// suites can run the calendar queue against the heap oracle.
    pub fn run_with_scratch<Q: EventQueue>(
        &self,
        scripts: &[WorkerScript],
        scratch: &mut EngineScratch<Q>,
    ) -> RunReport {
        let Ok(report) = self.run_with_bytes(scripts, scratch, &mut NoBytes);
        report
    }

    /// [`run_with_scratch`](Engine::run_with_scratch) with `bytes` told of
    /// every chunk the run moves; its first error ends the run.
    pub fn run_with_bytes<Q: EventQueue, B: ByteHook>(
        &self,
        scripts: &[WorkerScript],
        scratch: &mut EngineScratch<Q>,
        bytes: &mut B,
    ) -> Result<RunReport, B::Error> {
        let span = (self.config.obs && fbf_obs::enabled()).then(|| fbf_obs::span("engine", "run"));
        scratch.reset(scripts.len());
        let EngineScratch {
            queue,
            next_op,
            gather_left,
            gather_floor,
            queued_on,
        } = scratch;
        let mut run = Run::new(self, scripts, queue, gather_left, gather_floor, bytes);
        // Ordinal of the event being handled (see `QueuedDisk::submit`).
        let mut event = 0u64;
        while let Some((now, kind, id)) = run.queue.pop() {
            event += 1;
            run.report.makespan = run.report.makespan.max(now);
            if kind == EV_DISK_DONE {
                run.disk_done(id, now);
                continue;
            }
            let Some(&op) = scripts[id].ops.get(next_op[id]) else {
                continue; // final wake-up after the last op
            };
            next_op[id] += 1;
            queued_on.clear();
            let mut step = run.step(id, now, event, queued_on);
            match op {
                Op::Read { chunk, priority } => run.read(&mut step, chunk, priority)?,
                Op::Compute { duration } => step.until = now + duration,
                Op::Gather { index } => run.gather(&mut step, index)?,
                Op::Write { chunk } => run.write(&mut step, chunk)?,
            }
            run.block(step);
        }
        Ok(run.finish(span))
    }
}

// Two event kinds, ordered by (time, kind, id): disk completions before
// worker steps at the same instant (a completion is what unblocks its
// worker), ids breaking the remaining ties so runs replay exactly. Only
// reordering disks schedule completions.
const EV_DISK_DONE: u8 = 0;
const EV_WORKER: u8 = 1;

/// What one [`Engine::run_with_scratch`] call carries from event to event,
/// with one method per op; the call itself is the event loop.
struct Run<'a, Q, B> {
    cfg: &'a EngineConfig,
    scripts: &'a [WorkerScript],
    /// `cfg.faults.is_active()`, hoisted out of every op.
    faulting: bool,
    queue: &'a mut Q,
    /// Per worker, under a reordering discipline: how many requests of its
    /// current op are still queued, and the floor under its resume.
    gather_left: &'a mut [usize],
    gather_floor: &'a mut [SimTime],
    disks: Vec<QueuedDisk>,
    caches: Vec<BufferCache>,
    /// Stripes with a hard read failure this run: their remaining script
    /// ops are abandoned (the controller re-plans them).
    failed_stripes: FxHashSet<u32>,
    /// Chunks already rewritten to the spare area this run; their data
    /// has left the (possibly faulty) original location.
    repaired: FxHashSet<ChunkId>,
    report: RunReport,
    bytes: &'a mut B,
}

impl<'a, Q: EventQueue, B: ByteHook> Run<'a, Q, B> {
    /// Build the disks and cache slices and queue every worker with work.
    fn new(
        engine: &'a Engine,
        scripts: &'a [WorkerScript],
        queue: &'a mut Q,
        gather_left: &'a mut [usize],
        gather_floor: &'a mut [SimTime],
        bytes: &'a mut B,
    ) -> Self {
        let cfg = &engine.config;
        let disks = (0..cfg.mapping.disks)
            .map(|i| {
                let mut scale_milli: u64 = match cfg.straggler {
                    Some((d, scale)) if d == i => (scale * 1000.0).round() as u64,
                    _ => 1000,
                };
                if let Some(s) = cfg.faults.straggler {
                    if s.disk as usize == i {
                        scale_milli = scale_milli * u64::from(s.scale_milli) / 1000;
                    }
                }
                let disk = QueuedDisk::with_scale_milli(cfg.disk_model, cfg.sched, scale_milli);
                #[cfg(test)]
                let disk = if engine.fcfs_by_events {
                    disk.dispatch_by_events()
                } else {
                    disk
                };
                disk
            })
            .collect();
        for w in (0..scripts.len()).filter(|&w| !scripts[w].ops.is_empty()) {
            queue.push((SimTime::ZERO, EV_WORKER, w));
        }
        Run {
            cfg,
            scripts,
            faulting: cfg.faults.is_active(),
            queue,
            gather_left,
            gather_floor,
            disks,
            caches: build_caches(cfg, scripts.len()),
            failed_stripes: FxHashSet::default(),
            repaired: FxHashSet::default(),
            report: RunReport {
                per_disk_class_reads: vec![[0u64; RequestClass::COUNT]; cfg.mapping.disks],
                ..Default::default()
            },
            bytes,
        }
    }

    /// Worker `worker` takes its next op at `now`, the loop's `event`-th.
    fn step<'s>(
        &self,
        worker: usize,
        now: SimTime,
        event: u64,
        queued_on: &'s mut Vec<usize>,
    ) -> Step<'s> {
        Step {
            worker,
            class: self.scripts[worker].class,
            slice: match self.cfg.sharing {
                CacheSharing::Shared => 0,
                CacheSharing::Partitioned => worker,
            },
            now,
            event,
            chunk_bytes: self.cfg.chunk_bytes,
            until: now,
            queued_on,
        }
    }

    /// `Op::Read`. Its fault is resolved only on a miss: a cached chunk
    /// survives a dead disk.
    fn read(&mut self, step: &mut Step, chunk: ChunkId, priority: u8) -> Result<(), B::Error> {
        let cfg = self.cfg;
        if self.faulting && self.failed_stripes.contains(&chunk.stripe) {
            // The stripe already failed hard this run: abandon the repair,
            // let re-planning handle it.
            self.report.faults.skipped_ops += 1;
            return Ok(());
        }
        if self.caches[step.slice].access(chunk) == Lookup::Hit {
            self.report.record_read(step.class, cfg.cache_hit_time);
            step.until = step.now + cfg.cache_hit_time;
            return self
                .bytes
                .served(step.worker, step.slice, chunk, None, false);
        }
        let disk = cfg.mapping.disk_of(chunk);
        let mut delay = SimTime::ZERO;
        if self.faulting && !self.repaired.contains(&chunk) {
            let faults = &cfg.faults;
            let outcome = resolve_read(
                faults.disk_dead(disk, step.now),
                faults.draw(chunk),
                &faults.retry,
            );
            self.report.faults.record(outcome, &faults.retry);
            match outcome {
                ReadOutcome::Ok { delay: d, .. } => delay = d,
                ReadOutcome::Failed { kind, wasted } => {
                    // No frame is reserved: no data will arrive.
                    self.fail(step.worker, chunk, kind);
                    step.until = step.now + wasted + faults.retry.detect;
                    return Ok(());
                }
            }
        }
        self.miss(step, chunk, priority, disk, delay, false)
    }

    /// `Op::Gather`. Under faults the whole fan-out is classified before
    /// any chunk touches the cache: classification is pure, so scanning
    /// first changes nothing, and a doomed gather issues no I/O at all.
    fn gather(&mut self, step: &mut Step, index: u32) -> Result<(), B::Error> {
        let (cfg, scripts) = (self.cfg, self.scripts);
        let faults = &cfg.faults;
        let group = &scripts[step.worker].gathers[index as usize];
        if self.faulting {
            let mut stale = false;
            let mut new_failure = false;
            let mut wasted = SimTime::ZERO;
            for &(chunk, _) in &group.chunks {
                if self.failed_stripes.contains(&chunk.stripe) {
                    stale = true;
                    continue;
                }
                if self.repaired.contains(&chunk) {
                    continue;
                }
                let disk = cfg.mapping.disk_of(chunk);
                let outcome = resolve_read(
                    faults.disk_dead(disk, step.now),
                    faults.draw(chunk),
                    &faults.retry,
                );
                if let ReadOutcome::Failed {
                    kind,
                    wasted: spent,
                } = outcome
                {
                    self.report.faults.record(outcome, &faults.retry);
                    wasted = wasted.max(spent);
                    self.fail(step.worker, chunk, kind);
                    new_failure = true;
                }
            }
            if new_failure || stale {
                self.report.faults.skipped_ops += 1;
                if new_failure {
                    step.until = step.now + wasted + faults.retry.detect;
                }
                return Ok(());
            }
        }
        for &(chunk, priority) in &group.chunks {
            if self.caches[step.slice].access(chunk) == Lookup::Hit {
                self.report.record_read(step.class, cfg.cache_hit_time);
                step.until = step.until.max(step.now + cfg.cache_hit_time);
                self.bytes
                    .served(step.worker, step.slice, chunk, None, true)?;
                continue;
            }
            let mut delay = SimTime::ZERO;
            if self.faulting && !self.repaired.contains(&chunk) {
                // Only survivable transients remain after the pre-scan.
                let outcome = resolve_read(false, faults.draw(chunk), &faults.retry);
                self.report.faults.record(outcome, &faults.retry);
                if let ReadOutcome::Ok { delay: d, .. } = outcome {
                    delay = d;
                }
            }
            let disk = cfg.mapping.disk_of(chunk);
            self.miss(step, chunk, priority, disk, delay, true)?;
        }
        Ok(())
    }

    /// `Op::Write`: the recovered chunk goes to its disk's spare area.
    fn write(&mut self, step: &mut Step, chunk: ChunkId) -> Result<(), B::Error> {
        let cfg = self.cfg;
        if self.faulting {
            if self.failed_stripes.contains(&chunk.stripe) {
                // Never write a spare chunk whose repair inputs could not
                // be read.
                self.report.faults.skipped_ops += 1;
                return Ok(());
            }
            // The chunk's data now lives in the spare area (redirected to a
            // hot spare if the home disk is gone): later reads of it —
            // chained schemes deliberately re-read repaired cells — are no
            // longer subject to the *original* location's fault draws.
            // Recorded at issue: the reader that follows in program order
            // observes the write that precedes it.
            self.repaired.insert(chunk);
        }
        self.report.disk_writes += 1;
        let disk = cfg.mapping.disk_of(chunk);
        let lba = cfg.mapping.spare_lba_of(chunk, cfg.data_stripes);
        step.issue(
            &mut self.disks,
            &mut self.report,
            disk,
            lba,
            true,
            SimTime::ZERO,
        );
        self.bytes.write(step.worker, chunk)
    }

    /// The one cache-miss path of `read` and `gather`: reserve the frame
    /// at issue time (the usual anti-thundering-herd design), count the
    /// read against its disk and class, and issue it; the worker blocks
    /// until the data arrives.
    fn miss(
        &mut self,
        step: &mut Step,
        chunk: ChunkId,
        priority: u8,
        disk: usize,
        delay: SimTime,
        gathered: bool,
    ) -> Result<(), B::Error> {
        let outcome = self.caches[step.slice].insert(chunk, priority);
        self.report.disk_reads += 1;
        self.report.per_disk_class_reads[disk][step.class.index()] += 1;
        let lba = self.cfg.mapping.lba_of(chunk);
        step.issue(&mut self.disks, &mut self.report, disk, lba, false, delay);
        self.bytes
            .served(step.worker, step.slice, chunk, Some(outcome), gathered)
    }

    /// The one hard-failure record: the chunk becomes an extra erasure the
    /// controller must re-plan around, and its stripe's remaining ops are
    /// abandoned.
    fn fail(&mut self, worker: usize, chunk: ChunkId, kind: ReadFailure) {
        self.report.failed_reads.push(FailedRead {
            chunk,
            worker: worker as u32,
            kind,
        });
        self.failed_stripes.insert(chunk.stripe);
        self.bytes.abandon(worker);
    }

    /// A reordering disk finished its request at `now`.
    fn disk_done(&mut self, disk: usize, now: SimTime) {
        let req = self.disks[disk].complete();
        let worker = req.tag;
        self.report
            .record_completion(self.scripts[worker].class, &req, now);
        // The worker resumes when the last request its op queued arrives.
        self.gather_left[worker] -= 1;
        if self.gather_left[worker] == 0 {
            let resume = now.max(self.gather_floor[worker]);
            self.queue.push((resume, EV_WORKER, worker));
        }
        // Keep the disk busy if more work is pending.
        if let Some((_, done)) = self.disks[disk].start_next() {
            self.queue.push((done, EV_DISK_DONE, disk));
        }
    }

    /// Schedule the worker's next step: at `until`, or — when its op queued
    /// requests — when the last of them completes (not before `until`).
    fn block(&mut self, step: Step) {
        let w = step.worker;
        if step.queued_on.is_empty() {
            self.queue.push((step.until, EV_WORKER, w));
            return;
        }
        self.gather_left[w] = step.queued_on.len();
        self.gather_floor[w] = step.until;
        step.queued_on.sort_unstable();
        step.queued_on.dedup();
        for &disk in step.queued_on.iter() {
            if let Some((_, done)) = self.disks[disk].start_next() {
                self.queue.push((done, EV_DISK_DONE, disk));
            }
        }
    }

    /// The report: cache and disk totals folded in, and — under an obs
    /// `span` — the run's events published.
    fn finish(mut self, span: Option<fbf_obs::Span>) -> RunReport {
        // Completions known at issue were pushed in issue order.
        self.report.write_completions.sort_unstable();
        for cache in &self.caches {
            self.report.cache.merge(&cache.stats());
        }
        self.report.per_disk = self.disks.iter().map(QueuedDisk::stats).collect();
        if let Some(span) = span {
            let run_id = fbf_obs::next_run_id();
            emit_run_events(self.cfg, &self.caches, &self.report, run_id);
            span.end_with(&[
                ("run", fbf_obs::Value::U64(run_id)),
                ("policy", fbf_obs::Value::Str(self.cfg.policy.name())),
                ("workers", fbf_obs::Value::U64(self.scripts.len() as u64)),
                (
                    "makespan_ms",
                    fbf_obs::Value::F64(self.report.makespan.as_millis_f64()),
                ),
            ]);
        }
        self.report
    }
}

/// Publish one run's counters as obs events: the aggregated cache totals,
/// FBF's final queue occupancy, and per-disk I/O counters. Called once per
/// run — never from the event loop — so observability cost is independent
/// of simulated work.
fn emit_run_events(cfg: &EngineConfig, caches: &[BufferCache], report: &RunReport, run_id: u64) {
    use fbf_obs::Value;
    let c = &report.cache;
    fbf_obs::counter(
        "engine",
        "cache",
        &[
            ("run", Value::U64(run_id)),
            ("policy", Value::Str(cfg.policy.name())),
            ("hits", Value::U64(c.hits)),
            ("misses", Value::U64(c.misses)),
            ("evictions", Value::U64(c.evictions)),
            ("inserts", Value::U64(c.inserts)),
            ("demotions", Value::U64(c.demotions)),
            ("prio1", Value::U64(c.prio_inserts[0])),
            ("prio2", Value::U64(c.prio_inserts[1])),
            ("prio3", Value::U64(c.prio_inserts[2])),
        ],
    );
    let mut queues = [0u64; 3];
    let mut have_queues = false;
    for cache in caches {
        if let Some(occ) = cache.queue_occupancy() {
            have_queues = true;
            for (total, q) in queues.iter_mut().zip(occ) {
                *total += q as u64;
            }
        }
    }
    if have_queues {
        fbf_obs::counter(
            "engine",
            "queues",
            &[
                ("run", Value::U64(run_id)),
                ("q1", Value::U64(queues[0])),
                ("q2", Value::U64(queues[1])),
                ("q3", Value::U64(queues[2])),
            ],
        );
    }
    if !report.faults.is_empty() {
        let f = &report.faults;
        fbf_obs::counter(
            "engine",
            "faults",
            &[
                ("run", Value::U64(run_id)),
                ("media", Value::U64(f.media_errors)),
                ("transient", Value::U64(f.transient_faults)),
                ("retries", Value::U64(f.retries)),
                ("exhausted", Value::U64(f.retries_exhausted)),
                ("dead_disk", Value::U64(f.dead_disk_reads)),
                ("skipped_ops", Value::U64(f.skipped_ops)),
                ("failed_reads", Value::U64(report.failed_reads.len() as u64)),
            ],
        );
    }
    for (idx, d) in report.per_disk.iter().enumerate() {
        fbf_obs::counter(
            "engine",
            "disk",
            &[
                ("run", Value::U64(run_id)),
                ("disk", Value::U64(idx as u64)),
                ("reads", Value::U64(d.reads)),
                ("writes", Value::U64(d.writes)),
                ("max_queue", Value::U64(d.max_queue)),
                ("busy_ms", Value::F64(d.busy.as_millis_f64())),
                ("queued_ms", Value::F64(d.queued.as_millis_f64())),
            ],
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::ReadFailure;
    use fbf_codes::Cell;

    fn chunk(stripe: u32, r: usize, c: usize) -> ChunkId {
        ChunkId::new(stripe, Cell::new(r, c))
    }

    fn config(policy: PolicyKind, cache_chunks: usize, sharing: CacheSharing) -> EngineConfig {
        EngineConfig {
            sharing,
            ..EngineConfig::paper(policy, cache_chunks, ArrayMapping::new(4, 4, false), 100)
        }
    }

    fn read(stripe: u32, r: usize, c: usize) -> Op {
        Op::Read {
            chunk: chunk(stripe, r, c),
            priority: 1,
        }
    }

    #[test]
    fn single_worker_sequential_reads() {
        let cfg = config(PolicyKind::Lru, 8, CacheSharing::Shared);
        let script = WorkerScript {
            ops: vec![read(0, 0, 0), read(0, 1, 0), read(0, 0, 0)],
            ..Default::default()
        };
        let report = Engine::new(cfg).run(&[script]);
        // Two misses (10 ms each) + one hit (0.5 ms).
        assert_eq!(report.disk_reads, 2);
        assert_eq!(report.cache.hits, 1);
        assert_eq!(report.makespan, SimTime::from_micros(20_500));
    }

    #[test]
    fn workers_contend_on_one_disk() {
        let cfg = config(PolicyKind::Lru, 0, CacheSharing::Shared);
        // Two workers each read a different chunk from disk 0.
        let s1 = WorkerScript {
            ops: vec![read(0, 0, 0)],
            ..Default::default()
        };
        let s2 = WorkerScript {
            ops: vec![read(0, 1, 0)],
            ..Default::default()
        };
        let report = Engine::new(cfg).run(&[s1, s2]);
        // Second read queues behind the first: makespan 20 ms, not 10.
        assert_eq!(report.makespan, SimTime::from_millis(20));
        assert_eq!(report.per_disk[0].reads, 2);
    }

    #[test]
    fn workers_parallel_on_distinct_disks() {
        let cfg = config(PolicyKind::Lru, 0, CacheSharing::Shared);
        let s1 = WorkerScript {
            ops: vec![read(0, 0, 0)],
            ..Default::default()
        };
        let s2 = WorkerScript {
            ops: vec![read(0, 0, 1)],
            ..Default::default()
        };
        let report = Engine::new(cfg).run(&[s1, s2]);
        assert_eq!(report.makespan, SimTime::from_millis(10));
    }

    #[test]
    fn compute_and_write_advance_time() {
        let cfg = config(PolicyKind::Lru, 4, CacheSharing::Shared);
        let script = WorkerScript {
            ops: vec![
                read(0, 0, 0),
                Op::Compute {
                    duration: SimTime::from_millis(1),
                },
                Op::Write {
                    chunk: chunk(0, 0, 0),
                },
            ],
            ..Default::default()
        };
        let report = Engine::new(cfg).run(&[script]);
        assert_eq!(report.disk_writes, 1);
        // 10 ms read + 1 ms compute + 10 ms write.
        assert_eq!(report.makespan, SimTime::from_millis(21));
    }

    #[test]
    fn partitioned_cache_isolates_workers() {
        let cfg = config(PolicyKind::Lru, 2, CacheSharing::Partitioned);
        // Worker 0 warms chunk A; worker 1 then reads A — in partitioned
        // mode that is still a miss (separate cache slices).
        let s0 = WorkerScript {
            ops: vec![read(0, 0, 0)],
            ..Default::default()
        };
        let s1 = WorkerScript {
            ops: vec![
                Op::Compute {
                    duration: SimTime::from_millis(50),
                },
                read(0, 0, 0),
            ],
            ..Default::default()
        };
        let report = Engine::new(cfg).run(&[s0, s1]);
        assert_eq!(report.cache.hits, 0);
        assert_eq!(report.disk_reads, 2);
    }

    #[test]
    fn shared_cache_crosses_workers() {
        let cfg = config(PolicyKind::Lru, 2, CacheSharing::Shared);
        let s0 = WorkerScript {
            ops: vec![read(0, 0, 0)],
            ..Default::default()
        };
        let s1 = WorkerScript {
            ops: vec![
                Op::Compute {
                    duration: SimTime::from_millis(50),
                },
                read(0, 0, 0),
            ],
            ..Default::default()
        };
        let report = Engine::new(cfg).run(&[s0, s1]);
        assert_eq!(report.cache.hits, 1);
        assert_eq!(report.disk_reads, 1);
    }

    #[test]
    fn determinism() {
        let cfg = config(PolicyKind::Arc, 16, CacheSharing::Partitioned);
        let scripts: Vec<WorkerScript> = (0..4)
            .map(|w| WorkerScript {
                ops: (0..20)
                    .map(|i| read(i as u32 % 3, (i + w) % 4, i % 4))
                    .collect(),
                ..Default::default()
            })
            .collect();
        let r1 = Engine::new(cfg.clone()).run(&scripts);
        let r2 = Engine::new(cfg).run(&scripts);
        assert_eq!(r1.makespan, r2.makespan);
        assert_eq!(r1.cache, r2.cache);
        assert_eq!(r1.disk_reads, r2.disk_reads);
    }

    #[test]
    fn empty_scripts_produce_empty_report() {
        let cfg = config(PolicyKind::Fifo, 4, CacheSharing::Shared);
        let report = Engine::new(cfg).run(&[WorkerScript::default()]);
        assert_eq!(report.makespan, SimTime::ZERO);
        assert_eq!(report.disk_reads, 0);
    }

    #[test]
    fn response_time_separates_hits_and_misses() {
        let cfg = config(PolicyKind::Lru, 4, CacheSharing::Shared);
        let script = WorkerScript {
            ops: vec![read(0, 0, 0), read(0, 0, 0)],
            ..Default::default()
        };
        let report = Engine::new(cfg).run(&[script]);
        // One 10 ms miss + one 0.5 ms hit → mean 5.25 ms.
        assert!((report.read_response.avg_millis() - 5.25).abs() < 1e-9);
        assert_eq!(report.read_response.max, SimTime::from_millis(10));
    }

    #[test]
    fn gather_fans_out_in_parallel() {
        // Three chunks on three distinct disks gathered at once: the
        // worker resumes after ONE disk service, not three.
        let cfg = config(PolicyKind::Lru, 0, CacheSharing::Shared);
        let mut script = WorkerScript::default();
        script.push_gather(vec![
            (chunk(0, 0, 0), 1),
            (chunk(0, 0, 1), 1),
            (chunk(0, 0, 2), 1),
        ]);
        let report = Engine::new(cfg).run(&[script]);
        assert_eq!(report.disk_reads, 3);
        assert_eq!(report.makespan, SimTime::from_millis(10));
    }

    #[test]
    fn gather_on_one_disk_serialises() {
        let cfg = config(PolicyKind::Lru, 0, CacheSharing::Shared);
        let mut script = WorkerScript::default();
        script.push_gather(vec![(chunk(0, 0, 0), 1), (chunk(0, 1, 0), 1)]);
        let report = Engine::new(cfg).run(&[script]);
        // Same disk: the two reads queue behind each other.
        assert_eq!(report.makespan, SimTime::from_millis(20));
    }

    #[test]
    fn gather_all_hits_costs_cache_time() {
        let cfg = config(PolicyKind::Lru, 8, CacheSharing::Shared);
        let mut script = WorkerScript {
            ops: vec![read(0, 0, 0), read(0, 0, 1)],
            ..Default::default()
        };
        script.push_gather(vec![(chunk(0, 0, 0), 1), (chunk(0, 0, 1), 1)]);
        let report = Engine::new(cfg).run(&[script]);
        // Two sequential misses (20 ms) then a fully-cached gather (0.5 ms).
        assert_eq!(report.makespan, SimTime::from_micros(20_500));
        assert_eq!(report.cache.hits, 2);
    }

    #[test]
    fn gather_after_ops_continues_script() {
        let cfg = config(PolicyKind::Lru, 8, CacheSharing::Shared);
        let mut script = WorkerScript::default();
        script.push_gather(vec![(chunk(0, 0, 0), 1)]);
        script.ops.push(Op::Compute {
            duration: SimTime::from_millis(5),
        });
        let report = Engine::new(cfg).run(&[script]);
        assert_eq!(report.makespan, SimTime::from_millis(15));
    }

    #[test]
    fn obs_run_events_reconcile_with_report() {
        // The only test in this binary touching the global subscriber, so
        // no serialisation gate is needed.
        let sub = std::sync::Arc::new(fbf_obs::CountingSubscriber::default());
        fbf_obs::install(sub.clone());
        let mut cfg = config(PolicyKind::Fbf, 4, CacheSharing::Shared);
        cfg.obs = true;
        let script = WorkerScript {
            ops: vec![
                Op::Read {
                    chunk: chunk(0, 0, 0),
                    priority: 3,
                },
                Op::Read {
                    chunk: chunk(0, 0, 0),
                    priority: 3,
                },
                read(0, 1, 0),
            ],
            ..Default::default()
        };
        let report = Engine::new(cfg).run(&[script]);
        fbf_obs::uninstall();
        assert_eq!(sub.total("engine/cache/hits"), report.cache.hits);
        assert_eq!(sub.total("engine/cache/misses"), report.cache.misses);
        assert_eq!(sub.total("engine/cache/demotions"), report.cache.demotions);
        assert_eq!(report.cache.demotions, 1, "the repeat read demotes Q3→Q2");
        let disk_reads: u64 = sub.total("engine/disk/reads");
        assert_eq!(disk_reads, report.disk_reads);
        assert!(
            sub.total("engine/queues/q2") > 0,
            "demoted chunk sits in Q2"
        );
    }

    #[test]
    fn obs_disabled_config_emits_nothing_even_with_subscriber() {
        let sub = std::sync::Arc::new(fbf_obs::CountingSubscriber::default());
        let cfg = config(PolicyKind::Fbf, 4, CacheSharing::Shared);
        assert!(!cfg.obs, "paper config defaults to obs off");
        // No install: enabled() is false, and cfg.obs is false too.
        let script = WorkerScript {
            ops: vec![read(0, 0, 0)],
            ..Default::default()
        };
        Engine::new(cfg).run(&[script]);
        assert_eq!(sub.events(), 0);
    }

    fn fault_config(plan: FaultPlan) -> EngineConfig {
        EngineConfig {
            faults: plan,
            ..config(PolicyKind::Lru, 8, CacheSharing::Shared)
        }
    }

    #[test]
    fn media_error_abandons_the_stripe() {
        let plan = FaultPlan {
            media_per_mille: 1000, // every read is unreadable
            ..FaultPlan::none()
        };
        let script = WorkerScript {
            ops: vec![
                read(0, 0, 0),
                Op::Compute {
                    duration: SimTime::from_millis(1),
                },
                read(0, 1, 0),
                Op::Write {
                    chunk: chunk(0, 2, 0),
                },
            ],
            ..Default::default()
        };
        let report = Engine::new(fault_config(plan)).run(&[script]);
        assert_eq!(report.faults.media_errors, 1, "first read fails hard");
        assert_eq!(report.failed_reads.len(), 1);
        assert_eq!(report.failed_reads[0].kind, ReadFailure::Media);
        assert_eq!(report.disk_reads, 0, "no I/O issued for the doomed read");
        assert_eq!(
            report.disk_writes, 0,
            "spare write of a failed stripe skipped"
        );
        assert_eq!(
            report.faults.skipped_ops, 2,
            "second read and the write are abandoned"
        );
        // Detection (2 ms) + compute (1 ms); skipped ops are free.
        assert_eq!(report.makespan, SimTime::from_millis(3));
    }

    #[test]
    fn transient_faults_delay_but_recover() {
        let plan = FaultPlan {
            transient_per_mille: 1000,
            transient_failures_max: 1, // always exactly one stall
            ..FaultPlan::none()
        };
        let read = WorkerScript {
            ops: vec![read(0, 0, 0)],
            ..Default::default()
        };
        // A gather pre-scans its fan-out, then draws again at issue: the
        // transient is still booked once.
        let mut gather = WorkerScript::default();
        gather.push_gather(vec![(chunk(0, 0, 0), 1)]);
        for script in [read, gather] {
            let report = Engine::new(fault_config(plan)).run(&[script]);
            assert_eq!(report.faults.transient_faults, 1);
            assert_eq!(report.faults.retries, 1);
            assert!(report.failed_reads.is_empty(), "the retry succeeded");
            assert_eq!(report.disk_reads, 1);
            // 10 ms service + one stall (10 ms timeout + 5 ms backoff).
            assert_eq!(report.makespan, SimTime::from_millis(25));
        }
    }

    #[test]
    fn dead_disk_fails_only_its_own_reads() {
        let plan = FaultPlan {
            disk_kill: Some(crate::fault::DiskKill {
                disk: 0,
                at: SimTime::ZERO,
            }),
            ..FaultPlan::none()
        };
        // Stripe 0 reads disk 0 (dead); stripe 1's read lands on disk 1.
        let s0 = WorkerScript {
            ops: vec![read(0, 0, 0)],
            ..Default::default()
        };
        let s1 = WorkerScript {
            ops: vec![read(1, 0, 1)],
            ..Default::default()
        };
        let report = Engine::new(fault_config(plan)).run(&[s0, s1]);
        assert_eq!(report.faults.dead_disk_reads, 1);
        assert_eq!(report.failed_reads.len(), 1);
        assert_eq!(report.failed_reads[0].kind, ReadFailure::DeadDisk);
        assert_eq!(report.failed_reads[0].chunk.stripe, 0);
        assert_eq!(report.disk_reads, 1, "the healthy disk still serves");
    }

    #[test]
    fn cached_chunks_survive_a_disk_kill() {
        let plan = FaultPlan {
            disk_kill: Some(crate::fault::DiskKill {
                disk: 0,
                at: SimTime::from_millis(5),
            }),
            ..FaultPlan::none()
        };
        // First read issues before the kill; the repeat is a cache hit
        // even though the disk is gone by then.
        let script = WorkerScript {
            ops: vec![read(0, 0, 0), read(0, 0, 0)],
            ..Default::default()
        };
        let report = Engine::new(fault_config(plan)).run(&[script]);
        assert!(report.failed_reads.is_empty());
        assert_eq!(report.cache.hits, 1);
    }

    #[test]
    fn gather_with_a_dead_chunk_issues_nothing() {
        let plan = FaultPlan {
            disk_kill: Some(crate::fault::DiskKill {
                disk: 0,
                at: SimTime::ZERO,
            }),
            ..FaultPlan::none()
        };
        let mut script = WorkerScript::default();
        script.push_gather(vec![(chunk(0, 0, 0), 1), (chunk(0, 0, 1), 1)]);
        let report = Engine::new(fault_config(plan)).run(&[script]);
        assert_eq!(report.disk_reads, 0, "doomed gather aborts before any I/O");
        assert_eq!(report.failed_reads.len(), 1);
        assert_eq!(report.faults.skipped_ops, 1);
    }

    #[test]
    fn fault_straggler_scales_service() {
        let plan = FaultPlan {
            straggler: Some(crate::fault::SlowDisk {
                disk: 0,
                scale_milli: 2000,
            }),
            ..FaultPlan::none()
        };
        let script = WorkerScript {
            ops: vec![read(0, 0, 0)],
            ..Default::default()
        };
        let report = Engine::new(fault_config(plan)).run(&[script]);
        assert_eq!(report.makespan, SimTime::from_millis(20));
        assert!(report.failed_reads.is_empty());
    }

    #[test]
    fn faulted_runs_replay_exactly() {
        let plan = FaultPlan {
            seed: 7,
            media_per_mille: 60,
            transient_per_mille: 250,
            transient_failures_max: 5,
            disk_kill: Some(crate::fault::DiskKill {
                disk: 2,
                at: SimTime::from_millis(15),
            }),
            ..FaultPlan::none()
        };
        let scripts: Vec<WorkerScript> = (0..4)
            .map(|w| WorkerScript {
                ops: (0..20)
                    .map(|i| read((i % 6) as u32, (i + w) % 4, i % 4))
                    .collect(),
                ..Default::default()
            })
            .collect();
        let cfg = fault_config(plan);
        let r1 = Engine::new(cfg.clone()).run(&scripts);
        let r2 = Engine::new(cfg).run(&scripts);
        assert_eq!(r1.makespan, r2.makespan);
        assert_eq!(r1.faults, r2.faults);
        assert_eq!(r1.failed_reads, r2.failed_reads);
        assert_eq!(r1.disk_reads, r2.disk_reads);
        assert!(r1.faults.media_errors + r1.faults.transient_faults > 0);
    }

    #[test]
    fn inactive_plan_changes_nothing() {
        let scripts: Vec<WorkerScript> = (0..3)
            .map(|w| WorkerScript {
                ops: (0..12)
                    .map(|i| read(i as u32 % 3, (i + w) % 4, i % 4))
                    .collect(),
                ..Default::default()
            })
            .collect();
        let base = Engine::new(config(PolicyKind::Lru, 8, CacheSharing::Shared)).run(&scripts);
        let faulted = Engine::new(fault_config(FaultPlan::none())).run(&scripts);
        assert_eq!(base.makespan, faulted.makespan);
        assert_eq!(base.disk_reads, faulted.disk_reads);
        assert_eq!(base.cache, faulted.cache);
        assert!(faulted.faults.is_empty());
    }

    /// Decode one generated tuple into a script op over a 5×5 array.
    /// Gathers draw their chunks from two adjacent columns, so several
    /// chunks of one fan-out land on the same disk.
    fn push_op(
        s: &mut WorkerScript,
        (kind, stripe, row, col, extra): (u8, u32, usize, usize, u64),
    ) {
        match kind {
            0 | 1 => s.ops.push(Op::Read {
                chunk: chunk(stripe, row, col),
                priority: 1 + (extra % 3) as u8,
            }),
            2 => s.ops.push(Op::Compute {
                // Zero-length computes re-run the worker at the same instant.
                duration: SimTime::from_micros(extra * 700),
            }),
            3 => s.ops.push(Op::Write {
                chunk: chunk(stripe, row, col),
            }),
            _ => s.push_gather(
                (0..2 + extra as usize)
                    .map(|i| (chunk(stripe, (row + i / 2) % 5, (col + i % 2) % 5), 1))
                    .collect(),
            ),
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(192))]

        /// Standing invariant of the at-issue fast path: an FCFS disk that
        /// names completions at submit and one that queues requests and
        /// completes them through disk events (the dispatch SSTF/C-LOOK
        /// use) yield the same report, field for field.
        #[test]
        fn fcfs_at_issue_matches_event_driven_dispatch(
            ops in proptest::collection::vec(
                proptest::collection::vec((0u8..6, 0u32..4, 0usize..5, 0usize..5, 0u64..4), 1..40),
                1..6,
            ),
            model in 0u8..3,
            shared in 0u8..2,
            cache_chunks in 0usize..14,
            zero_hit_time in 0u8..2,
            straggler in 0u8..3,
            transient_per_mille in 0u16..2,
            kill_at_ms in 0u64..120,
            seed in 0u64..1_000,
        ) {
            let scripts: Vec<WorkerScript> = ops
                .into_iter()
                .map(|worker_ops| {
                    let mut s = WorkerScript::default();
                    worker_ops.into_iter().for_each(|op| push_op(&mut s, op));
                    s
                })
                .collect();
            let mut cfg = EngineConfig::paper(
                PolicyKind::Lru,
                cache_chunks,
                ArrayMapping::new(5, 5, false),
                4,
            );
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
                // Stalls up to 5 against 3 retries: some reads survive
                // with a delay, some exhaust their retries.
                transient_per_mille: transient_per_mille * 300,
                transient_failures_max: 5,
                straggler: (straggler == 2).then_some(crate::fault::SlowDisk {
                    disk: 2,
                    scale_milli: 3300,
                }),
                // The upper third of the range leaves the disk alive.
                disk_kill: (kill_at_ms < 80).then_some(crate::fault::DiskKill {
                    disk: 3,
                    at: SimTime::from_millis(kill_at_ms),
                }),
                ..FaultPlan::none()
            };
            let at_issue = Engine::new(cfg.clone()).run(&scripts);
            let mut oracle = Engine::new(cfg);
            oracle.fcfs_by_events = true;
            let by_events = oracle.run(&scripts);
            assert_eq!(format!("{at_issue:?}"), format!("{by_events:?}"));
        }
    }

    #[test]
    fn script_read_count() {
        let s = WorkerScript {
            ops: vec![
                read(0, 0, 0),
                Op::Compute {
                    duration: SimTime::ZERO,
                },
                read(0, 1, 1),
            ],
            ..Default::default()
        };
        assert_eq!(s.reads(), 2);
    }
}
