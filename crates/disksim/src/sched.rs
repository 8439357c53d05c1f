//! Queued disks with pluggable head-scheduling disciplines.
//!
//! DiskSim's disks hold a request queue and reorder it to cut seek time;
//! [`QueuedDisk`] reproduces that: requests arrive with [`QueuedDisk::
//! enqueue`], and whenever the disk is idle the engine asks it to
//! [`QueuedDisk::start_next`], which picks a pending request according to
//! the configured [`DiskSched`] discipline:
//!
//! * [`DiskSched::Fcfs`] — arrival order (what the paper's fixed-latency
//!   configuration effectively measures);
//! * [`DiskSched::Sstf`] — shortest seek time first (greedy head-distance);
//! * [`DiskSched::CLook`] — circular LOOK: serve ascending LBAs, wrap to
//!   the lowest pending when the sweep passes the end.
//!
//! Disciplines only matter under the [`DiskModel::Detailed`] mechanical
//! model — under fixed service time every order costs the same total, so
//! FCFS is also the fairness-optimal choice there (the scheduling
//! ablation bench verifies both statements).

use crate::disk::{DiskModel, DiskStats};
use crate::time::SimTime;

/// Head-scheduling discipline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DiskSched {
    /// First come, first served.
    #[default]
    Fcfs,
    /// Shortest seek time first.
    Sstf,
    /// Circular LOOK elevator.
    CLook,
}

impl DiskSched {
    /// All disciplines, for sweeps.
    pub const ALL: [DiskSched; 3] = [DiskSched::Fcfs, DiskSched::Sstf, DiskSched::CLook];

    /// Name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            DiskSched::Fcfs => "FCFS",
            DiskSched::Sstf => "SSTF",
            DiskSched::CLook => "C-LOOK",
        }
    }
}

/// One pending disk request. `tag` identifies the requesting worker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DiskRequest {
    /// Requesting worker (opaque to the disk).
    pub tag: usize,
    /// Target block address (chunk-granular).
    pub lba: u64,
    /// Payload bytes.
    pub bytes: u64,
    /// Write (spare update) vs read.
    pub write: bool,
    /// When the request reached the disk.
    pub issued: SimTime,
    /// Arrival sequence, for FCFS and deterministic tie-breaks.
    pub seq: u64,
    /// Extra service latency injected on top of the model time (transient
    /// fault stalls + retry backoff). Zero for healthy requests.
    pub delay: SimTime,
}

/// A disk with a pending queue and a scheduling discipline.
#[derive(Debug)]
pub struct QueuedDisk {
    model: DiskModel,
    sched: DiskSched,
    /// Service-time multiplier (>1 = degraded/aged disk, failure
    /// injection for straggler experiments).
    scale_milli: u64,
    head_lba: u64,
    pending: Vec<DiskRequest>,
    /// The in-flight request, if the disk is busy.
    current: Option<DiskRequest>,
    next_seq: u64,
    /// Counters.
    pub stats: DiskStats,
}

impl QueuedDisk {
    /// An idle disk.
    pub fn new(model: DiskModel, sched: DiskSched) -> Self {
        Self::with_scale(model, sched, 1.0)
    }

    /// An idle disk whose every service takes `scale`× the model time
    /// (straggler injection; `scale` is stored with milli precision so
    /// the simulation stays integer-deterministic).
    pub fn with_scale(model: DiskModel, sched: DiskSched, scale: f64) -> Self {
        assert!(scale > 0.0 && scale.is_finite(), "scale must be positive");
        Self::with_scale_milli(model, sched, (scale * 1000.0).round() as u64)
    }

    /// [`with_scale`](QueuedDisk::with_scale) with the multiplier already
    /// in milli-units (fault plans carry integers for replay-exactness).
    pub fn with_scale_milli(model: DiskModel, sched: DiskSched, scale_milli: u64) -> Self {
        assert!(scale_milli > 0, "scale must be positive");
        QueuedDisk {
            model,
            sched,
            scale_milli,
            head_lba: 0,
            pending: Vec::new(),
            current: None,
            next_seq: 0,
            stats: DiskStats::default(),
        }
    }

    /// Is the disk currently servicing a request?
    pub fn busy(&self) -> bool {
        self.current.is_some()
    }

    /// Pending queue depth (not counting the in-flight request).
    pub fn queue_depth(&self) -> usize {
        self.pending.len()
    }

    /// Add a request to the pending queue.
    pub fn enqueue(&mut self, tag: usize, lba: u64, bytes: u64, write: bool, now: SimTime) {
        self.enqueue_after(tag, lba, bytes, write, now, SimTime::ZERO);
    }

    /// [`enqueue`](QueuedDisk::enqueue) with an injected extra service
    /// delay (fault stalls + retry backoff). The disk stays busy for the
    /// delay: a stalling drive blocks everything queued behind it, which
    /// is exactly the amplification transient faults cause in practice.
    pub fn enqueue_after(
        &mut self,
        tag: usize,
        lba: u64,
        bytes: u64,
        write: bool,
        now: SimTime,
        delay: SimTime,
    ) {
        self.pending.push(DiskRequest {
            tag,
            lba,
            bytes,
            write,
            issued: now,
            seq: self.next_seq,
            delay,
        });
        self.next_seq += 1;
        let depth = self.pending.len() as u64 + u64::from(self.current.is_some());
        self.stats.max_queue = self.stats.max_queue.max(depth);
    }

    /// If idle and work is pending, pick the next request per the
    /// discipline and start servicing it. Returns the request and its
    /// completion time.
    pub fn start_next(&mut self, now: SimTime) -> Option<(DiskRequest, SimTime)> {
        if self.current.is_some() || self.pending.is_empty() {
            return None;
        }
        let idx = match self.sched {
            DiskSched::Fcfs => self
                .pending
                .iter()
                .enumerate()
                .min_by_key(|(_, r)| r.seq)
                .map(|(i, _)| i)
                .expect("non-empty"),
            DiskSched::Sstf => self
                .pending
                .iter()
                .enumerate()
                .min_by_key(|(_, r)| (r.lba.abs_diff(self.head_lba), r.seq))
                .map(|(i, _)| i)
                .expect("non-empty"),
            DiskSched::CLook => {
                // Smallest LBA >= head; else wrap to the smallest overall.
                let ahead = self
                    .pending
                    .iter()
                    .enumerate()
                    .filter(|(_, r)| r.lba >= self.head_lba)
                    .min_by_key(|(_, r)| (r.lba, r.seq))
                    .map(|(i, _)| i);
                ahead.unwrap_or_else(|| {
                    self.pending
                        .iter()
                        .enumerate()
                        .min_by_key(|(_, r)| (r.lba, r.seq))
                        .map(|(i, _)| i)
                        .expect("non-empty")
                })
            }
        };
        let req = self.pending.swap_remove(idx);
        let base = self.model.service_time(self.head_lba, req.lba, req.bytes);
        let service =
            crate::time::SimTime::from_nanos(base.as_nanos() * self.scale_milli / 1000) + req.delay;
        let done = now + service;
        self.head_lba = req.lba;
        self.stats.busy += service;
        self.stats.queued += now - req.issued;
        if req.write {
            self.stats.writes += 1;
        } else {
            self.stats.reads += 1;
        }
        self.current = Some(req);
        Some((req, done))
    }

    /// The engine calls this when the in-flight request's completion event
    /// fires; returns the finished request.
    pub fn complete(&mut self) -> DiskRequest {
        self.current
            .take()
            .expect("complete() without in-flight request")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn disk(sched: DiskSched) -> QueuedDisk {
        QueuedDisk::new(DiskModel::detailed_default(), sched)
    }

    #[test]
    fn fcfs_serves_in_arrival_order() {
        let mut d = disk(DiskSched::Fcfs);
        d.enqueue(0, 1000, 4096, false, SimTime::ZERO);
        d.enqueue(1, 10, 4096, false, SimTime::ZERO);
        let (first, t1) = d.start_next(SimTime::ZERO).unwrap();
        assert_eq!(first.tag, 0);
        d.complete();
        let (second, _) = d.start_next(t1).unwrap();
        assert_eq!(second.tag, 1);
    }

    #[test]
    fn sstf_picks_nearest() {
        let mut d = disk(DiskSched::Sstf);
        d.enqueue(0, 1_000_000, 4096, false, SimTime::ZERO);
        d.enqueue(1, 10, 4096, false, SimTime::ZERO);
        // Head starts at 0 → nearest is LBA 10.
        let (first, _) = d.start_next(SimTime::ZERO).unwrap();
        assert_eq!(first.tag, 1);
    }

    #[test]
    fn clook_sweeps_upward_then_wraps() {
        let mut d = disk(DiskSched::CLook);
        d.enqueue(0, 500, 4096, false, SimTime::ZERO);
        d.enqueue(1, 100, 4096, false, SimTime::ZERO);
        d.enqueue(2, 900, 4096, false, SimTime::ZERO);
        // Head 0: ascending sweep → 100, 500, 900.
        let order: Vec<usize> = (0..3)
            .map(|_| {
                let (r, t) = d.start_next(SimTime::ZERO).unwrap();
                let _ = t;
                d.complete();
                r.tag
            })
            .collect();
        assert_eq!(order, vec![1, 0, 2]);
    }

    #[test]
    fn clook_wraps_to_lowest() {
        let mut d = disk(DiskSched::CLook);
        // Move head to 800 first.
        d.enqueue(9, 800, 4096, false, SimTime::ZERO);
        d.start_next(SimTime::ZERO).unwrap();
        d.complete();
        d.enqueue(0, 100, 4096, false, SimTime::ZERO);
        d.enqueue(1, 900, 4096, false, SimTime::ZERO);
        // Ahead of 800: 900 first; then wrap to 100.
        let (first, _) = d.start_next(SimTime::ZERO).unwrap();
        assert_eq!(first.tag, 1);
        d.complete();
        let (second, _) = d.start_next(SimTime::ZERO).unwrap();
        assert_eq!(second.tag, 0);
    }

    #[test]
    fn busy_disk_does_not_double_start() {
        let mut d = disk(DiskSched::Fcfs);
        d.enqueue(0, 1, 4096, false, SimTime::ZERO);
        d.enqueue(1, 2, 4096, false, SimTime::ZERO);
        assert!(d.start_next(SimTime::ZERO).is_some());
        assert!(
            d.start_next(SimTime::ZERO).is_none(),
            "busy disk must not start another"
        );
        d.complete();
        assert!(d.start_next(SimTime::ZERO).is_some());
    }

    #[test]
    fn straggler_scale_slows_service() {
        let mut d = QueuedDisk::with_scale(DiskModel::paper_default(), DiskSched::Fcfs, 3.0);
        d.enqueue(0, 0, 1, false, SimTime::ZERO);
        let (_, done) = d.start_next(SimTime::ZERO).unwrap();
        assert_eq!(done, SimTime::from_millis(30));
    }

    #[test]
    #[should_panic(expected = "scale must be positive")]
    fn zero_scale_rejected() {
        QueuedDisk::with_scale(DiskModel::paper_default(), DiskSched::Fcfs, 0.0);
    }

    #[test]
    fn injected_delay_extends_service() {
        let mut d = QueuedDisk::new(DiskModel::paper_default(), DiskSched::Fcfs);
        d.enqueue_after(0, 0, 1, false, SimTime::ZERO, SimTime::from_millis(25));
        let (_, done) = d.start_next(SimTime::ZERO).unwrap();
        // 10 ms model service + 25 ms injected stall.
        assert_eq!(done, SimTime::from_millis(35));
        d.complete();
        // The delay occupies the disk: busy time includes it.
        assert_eq!(d.stats.busy, SimTime::from_millis(35));
    }

    #[test]
    fn integer_scale_matches_float_scale() {
        let mut a = QueuedDisk::with_scale(DiskModel::paper_default(), DiskSched::Fcfs, 2.5);
        let mut b = QueuedDisk::with_scale_milli(DiskModel::paper_default(), DiskSched::Fcfs, 2500);
        a.enqueue(0, 0, 1, false, SimTime::ZERO);
        b.enqueue(0, 0, 1, false, SimTime::ZERO);
        assert_eq!(
            a.start_next(SimTime::ZERO).unwrap().1,
            b.start_next(SimTime::ZERO).unwrap().1
        );
    }

    #[test]
    fn queue_time_accounted() {
        let mut d = QueuedDisk::new(DiskModel::paper_default(), DiskSched::Fcfs);
        d.enqueue(0, 0, 1, false, SimTime::ZERO);
        let (_, t1) = d.start_next(SimTime::ZERO).unwrap();
        d.enqueue(1, 0, 1, false, SimTime::ZERO); // waits 10 ms
        d.complete();
        d.start_next(t1).unwrap();
        assert_eq!(d.stats.queued, SimTime::from_millis(10));
    }

    #[test]
    fn max_queue_is_a_high_water_mark() {
        let mut d = disk(DiskSched::Fcfs);
        d.enqueue(0, 1, 4096, false, SimTime::ZERO);
        d.enqueue(1, 2, 4096, false, SimTime::ZERO);
        d.enqueue(2, 3, 4096, false, SimTime::ZERO);
        assert_eq!(d.stats.max_queue, 3);
        d.start_next(SimTime::ZERO).unwrap();
        d.complete();
        d.start_next(SimTime::ZERO).unwrap();
        d.complete();
        // Draining never lowers the high-water mark; a fresh arrival on
        // top of one in-flight request counts both.
        d.start_next(SimTime::ZERO).unwrap();
        d.enqueue(3, 4, 4096, false, SimTime::ZERO);
        assert_eq!(d.stats.max_queue, 3);
    }

    #[test]
    fn sstf_starves_far_requests_under_load() {
        // Classic SSTF behaviour: a far request keeps losing to near ones.
        let mut d = disk(DiskSched::Sstf);
        d.enqueue(99, 1 << 24, 4096, false, SimTime::ZERO); // far away
        let mut t = SimTime::ZERO;
        for i in 0..5 {
            d.enqueue(i, (i as u64 + 1) * 10, 4096, false, t);
            let (r, done) = d.start_next(t).unwrap();
            assert_ne!(r.tag, 99, "far request served too early");
            d.complete();
            t = done;
        }
    }
}
