//! A slow, obvious second engine: what `fbf_disksim::engine` computes,
//! written as plainly as possible so the two can be compared report for
//! report (`tests/reference_engine.rs`).
//!
//! It shares no code with the engine beyond the public service model
//! ([`Disk::access`]), the real [`BufferCache`] and the fault plan's
//! per-chunk draw ([`FaultPlan::draw`]). Everything else is worked out
//! here again:
//!
//! * one agenda, a `Vec` of `(time, kind, id)` events kept sorted, popped
//!   from the front: at one instant disk completions come before worker
//!   steps, and lower ids first;
//! * each worker a program counter over its script;
//! * each disk a pending list it serves FCFS, SSTF or C-LOOK one request
//!   at a time, completing each through an agenda event, with its own
//!   count of how deep the list got. No completion is known at issue:
//!   every discipline waits for its events;
//! * retries, backoff and the fault counters from `RetryPolicy`'s fields.
//!
//! It supports the engine configurations the tests build: FBF with its
//! default tunables and no VDF victim map.

use fbf_codes::ChunkId;
use fbf_disksim::{
    disk::Disk, BufferCache, CacheSharing, DiskSched, EngineConfig, FailedRead, FaultDraw,
    FaultPlan, Lookup, Op, ReadFailure, RunReport, SimTime, WorkerScript,
};
use std::collections::HashSet;

const DISK_DONE: u8 = 0;
const WORKER: u8 = 1;

/// One request waiting for or held by a disk.
#[derive(Clone, Copy)]
struct Request {
    worker: usize,
    lba: u64,
    write: bool,
    issued: SimTime,
    delay: SimTime,
}

/// A disk: the service model, the requests it has not started, in
/// arrival order, the one it is serving, and the deepest it got.
struct RefDisk {
    disk: Disk,
    pending: Vec<Request>,
    serving: Option<Request>,
    deepest: u64,
}

impl RefDisk {
    fn arrive(&mut self, req: Request) {
        self.pending.push(req);
        let depth = self.pending.len() + usize::from(self.serving.is_some());
        self.deepest = self.deepest.max(depth as u64);
    }

    /// If idle, start the request `sched` picks (the earliest arrival
    /// among equals); returns its completion instant.
    fn start(&mut self, sched: DiskSched, bytes: u64) -> Option<SimTime> {
        if self.serving.is_some() || self.pending.is_empty() {
            return None;
        }
        let head = self.disk.head_lba();
        let key = |r: &Request| match sched {
            DiskSched::Fcfs => (false, 0),
            DiskSched::Sstf => (false, r.lba.abs_diff(head)),
            DiskSched::CLook => (r.lba < head, r.lba),
        };
        let mut pick = 0;
        for i in 1..self.pending.len() {
            if key(&self.pending[i]) < key(&self.pending[pick]) {
                pick = i;
            }
        }
        let req = self.pending.remove(pick);
        self.serving = Some(req);
        Some(
            self.disk
                .access(req.issued, req.lba, bytes, req.write, req.delay),
        )
    }
}

/// What a read comes to under the fault plan: the data, `delay` late
/// after `stalls` stalled attempts, or a hard failure after `wasted`
/// time spent retrying.
type Fate = Result<(SimTime, u8), (ReadFailure, SimTime)>;

/// The reference engine's state over one run.
struct Reference<'a> {
    cfg: &'a EngineConfig,
    scripts: &'a [WorkerScript],
    agenda: Vec<(SimTime, u8, usize)>,
    pc: Vec<usize>,
    /// Per worker: requests of its current op still to complete, and the
    /// earliest instant it may resume whatever they do.
    waiting: Vec<usize>,
    floor: Vec<SimTime>,
    disks: Vec<RefDisk>,
    caches: Vec<BufferCache>,
    failed: HashSet<u32>,
    repaired: HashSet<ChunkId>,
    report: RunReport,
}

/// Run `scripts` under `cfg` and report what the engine would.
pub fn run(cfg: &EngineConfig, scripts: &[WorkerScript]) -> RunReport {
    let workers = scripts.len().max(1);
    let caches = match cfg.sharing {
        CacheSharing::Shared => vec![BufferCache::new(cfg.policy, cfg.cache_chunks)],
        CacheSharing::Partitioned => (0..workers)
            .map(|w| {
                let share =
                    cfg.cache_chunks / workers + usize::from(w < cfg.cache_chunks % workers);
                BufferCache::new(cfg.policy, share)
            })
            .collect(),
    };
    let disks = (0..cfg.mapping.disks)
        .map(|d| {
            let mut milli = 1000;
            if let Some((disk, scale)) = cfg.straggler {
                if disk == d {
                    milli = (scale * 1000.0).round() as u64;
                }
            }
            if let Some(slow) = cfg.faults.straggler {
                if slow.disk as usize == d {
                    milli = milli * u64::from(slow.scale_milli) / 1000;
                }
            }
            RefDisk {
                disk: Disk::with_scale_milli(cfg.disk_model, milli),
                pending: Vec::new(),
                serving: None,
                deepest: 0,
            }
        })
        .collect();
    let mut r = Reference {
        cfg,
        scripts,
        agenda: Vec::new(),
        pc: vec![0; scripts.len()],
        waiting: vec![0; scripts.len()],
        floor: vec![SimTime::ZERO; scripts.len()],
        disks,
        caches,
        failed: HashSet::new(),
        repaired: HashSet::new(),
        report: RunReport {
            per_disk_class_reads: vec![Default::default(); cfg.mapping.disks],
            ..Default::default()
        },
    };
    for (w, script) in scripts.iter().enumerate() {
        if !script.ops.is_empty() {
            r.schedule(SimTime::ZERO, WORKER, w);
        }
    }
    while !r.agenda.is_empty() {
        let (now, kind, id) = r.agenda.remove(0);
        r.report.makespan = r.report.makespan.max(now);
        if kind == DISK_DONE {
            r.disk_done(id, now);
        } else {
            r.step(id, now);
        }
    }
    for cache in &r.caches {
        r.report.cache.merge(&cache.stats());
    }
    r.report.per_disk = (r.disks.iter())
        .map(|d| {
            let mut stats = d.disk.stats;
            stats.max_queue = d.deepest;
            stats
        })
        .collect();
    r.report
}

/// Total stall time of `stalls` failed attempts: each waits out the
/// timeout plus a backoff that starts at `backoff`, doubles per attempt
/// and never exceeds `backoff_cap`.
fn stall_time(plan: &FaultPlan, stalls: u8) -> SimTime {
    let retry = &plan.retry;
    let mut total = 0u64;
    let mut backoff = retry.backoff.as_nanos();
    for _ in 0..stalls {
        total += retry.timeout.as_nanos() + backoff.min(retry.backoff_cap.as_nanos());
        backoff = backoff.saturating_mul(2);
    }
    SimTime::from_nanos(total)
}

impl Reference<'_> {
    fn schedule(&mut self, at: SimTime, kind: u8, id: usize) {
        self.agenda.push((at, kind, id));
        self.agenda.sort();
    }

    /// The fault plan's verdict on a read of `chunk` at `now`. A chunk
    /// already rewritten to the spare area reads clean; a dead disk fails
    /// a read before any draw.
    fn fate(&self, chunk: ChunkId, now: SimTime) -> Fate {
        let plan = &self.cfg.faults;
        let disk = self.cfg.mapping.disk_of(chunk);
        if self.repaired.contains(&chunk) {
            return Ok((SimTime::ZERO, 0));
        }
        if (plan.disk_kill).is_some_and(|k| k.disk as usize == disk && now >= k.at) {
            return Err((ReadFailure::DeadDisk, SimTime::ZERO));
        }
        let retries = plan.retry.max_retries;
        match plan.draw(chunk) {
            FaultDraw::Ok => Ok((SimTime::ZERO, 0)),
            FaultDraw::Media => Err((ReadFailure::Media, SimTime::ZERO)),
            FaultDraw::Transient { stalls } if stalls > retries => {
                Err((ReadFailure::RetriesExhausted, stall_time(plan, retries)))
            }
            FaultDraw::Transient { stalls } => Ok((stall_time(plan, stalls), stalls)),
        }
    }

    /// Add one read's fate to the fault counters.
    fn count(&mut self, fate: Fate) {
        let max_retries = u64::from(self.cfg.faults.retry.max_retries);
        let f = &mut self.report.faults;
        match fate {
            Ok((_, 0)) => {}
            Ok((_, stalls)) => {
                f.transient_faults += 1;
                f.retries += u64::from(stalls);
            }
            Err((ReadFailure::Media, _)) => f.media_errors += 1,
            Err((ReadFailure::DeadDisk, _)) => f.dead_disk_reads += 1,
            Err((ReadFailure::RetriesExhausted, _)) => {
                f.transient_faults += 1;
                f.retries += max_retries;
                f.retries_exhausted += 1;
            }
        }
    }

    /// Worker `w`'s failed read of `chunk`: recorded, and its stripe's
    /// remaining ops abandoned.
    fn fail(&mut self, w: usize, chunk: ChunkId, kind: ReadFailure) {
        self.report.failed_reads.push(FailedRead {
            chunk,
            worker: w as u32,
            kind,
        });
        self.failed.insert(chunk.stripe);
    }

    /// Worker `w` sends a request to `disk`.
    fn send(&mut self, w: usize, disk: usize, lba: u64, write: bool, now: SimTime, delay: SimTime) {
        self.disks[disk].arrive(Request {
            worker: w,
            lba,
            write,
            issued: now,
            delay,
        });
        self.waiting[w] += 1;
    }

    /// A cache miss of worker `w`: the chunk takes its frame and its read
    /// goes to the disk.
    fn miss(&mut self, w: usize, chunk: ChunkId, priority: u8, now: SimTime, delay: SimTime) {
        let class = self.scripts[w].class.index();
        self.caches[self.cfg.sharing.slice_of(w)].insert(chunk, priority);
        let disk = self.cfg.mapping.disk_of(chunk);
        self.report.disk_reads += 1;
        self.report.per_disk_class_reads[disk][class] += 1;
        self.send(w, disk, self.cfg.mapping.lba_of(chunk), false, now, delay);
    }

    /// Worker `w` runs its next op at `now`, if it has one.
    fn step(&mut self, w: usize, now: SimTime) {
        let scripts = self.scripts;
        let script = &scripts[w];
        let Some(&op) = script.ops.get(self.pc[w]) else {
            return;
        };
        self.pc[w] += 1;
        let slice = self.cfg.sharing.slice_of(w);
        let (hit_time, detect) = (self.cfg.cache_hit_time, self.cfg.faults.retry.detect);
        let mut until = now;
        match op {
            Op::Compute { duration } => until = now + duration,
            Op::Read { chunk, .. } | Op::Write { chunk } if self.failed.contains(&chunk.stripe) => {
                self.report.faults.skipped_ops += 1;
            }
            Op::Read { chunk, priority } => {
                if self.caches[slice].access(chunk) == Lookup::Hit {
                    self.report.record_read(script.class, hit_time);
                    until = now + hit_time;
                } else {
                    let fate = self.fate(chunk, now);
                    self.count(fate);
                    match fate {
                        Ok((delay, _)) => self.miss(w, chunk, priority, now, delay),
                        Err((kind, wasted)) => {
                            self.fail(w, chunk, kind);
                            until = now + wasted + detect;
                        }
                    }
                }
            }
            Op::Gather { index } => {
                // The whole fan-out is judged before any of it is read: a
                // chunk of a stripe that failed (before or within this
                // scan) makes it stale, a read that fails dooms it.
                let chunks = &script.gathers[index as usize].chunks;
                let (mut stale, mut doomed, mut wasted) = (false, false, SimTime::ZERO);
                for &(chunk, _) in chunks {
                    if self.failed.contains(&chunk.stripe) {
                        stale = true;
                    } else if let Err((kind, spent)) = self.fate(chunk, now) {
                        self.count(Err((kind, spent)));
                        wasted = wasted.max(spent);
                        self.fail(w, chunk, kind);
                        doomed = true;
                    }
                }
                if stale || doomed {
                    self.report.faults.skipped_ops += 1;
                    if doomed {
                        until = now + wasted + detect;
                    }
                } else {
                    for &(chunk, priority) in chunks {
                        if self.caches[slice].access(chunk) == Lookup::Hit {
                            self.report.record_read(script.class, hit_time);
                            until = until.max(now + hit_time);
                            continue;
                        }
                        let fate = self.fate(chunk, now);
                        self.count(fate);
                        let (delay, _) = fate.expect("the scan found no failing read");
                        self.miss(w, chunk, priority, now, delay);
                    }
                }
            }
            Op::Write { chunk } => {
                self.repaired.insert(chunk);
                self.report.disk_writes += 1;
                let disk = self.cfg.mapping.disk_of(chunk);
                let lba = self.cfg.mapping.spare_lba_of(chunk, self.cfg.data_stripes);
                self.send(w, disk, lba, true, now, SimTime::ZERO);
            }
        }
        if self.waiting[w] == 0 {
            self.schedule(until, WORKER, w);
            return;
        }
        self.floor[w] = until;
        for d in 0..self.disks.len() {
            self.start(d);
        }
    }

    /// Start disk `d` on its next request if it is idle.
    fn start(&mut self, d: usize) {
        if let Some(done) = self.disks[d].start(self.cfg.sched, self.cfg.chunk_bytes) {
            self.schedule(done, DISK_DONE, d);
        }
    }

    /// Disk `d` finishes its request at `now`.
    fn disk_done(&mut self, d: usize, now: SimTime) {
        let req = self.disks[d].serving.take().expect("an event, a request");
        let response = now - req.issued;
        if req.write {
            self.report.write_response.record(response);
            self.report.write_completions.push(now);
        } else {
            let class = self.scripts[req.worker].class;
            self.report.record_read(class, response);
        }
        self.waiting[req.worker] -= 1;
        if self.waiting[req.worker] == 0 {
            let resume = now.max(self.floor[req.worker]);
            self.schedule(resume, WORKER, req.worker);
        }
        self.start(d);
    }
}
