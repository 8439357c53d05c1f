//! Queued disks with pluggable head-scheduling disciplines.
//!
//! DiskSim's disks hold a request queue and reorder it to cut seek time;
//! [`QueuedDisk`] reproduces that. A request arrives with
//! [`QueuedDisk::submit`] and is served according to the configured
//! [`DiskSched`] discipline:
//!
//! * [`DiskSched::Fcfs`] — arrival order (what the paper's fixed-latency
//!   configuration effectively measures). Nothing that arrives later can
//!   change when an FCFS request is served, so `submit` answers with the
//!   completion instant at once and the request never waits in a queue
//!   the engine has to drain;
//! * [`DiskSched::Sstf`] — shortest seek time first (greedy head-distance);
//! * [`DiskSched::CLook`] — circular LOOK: serve ascending LBAs, wrap to
//!   the lowest pending when the sweep passes the end.
//!
//! The two reordering disciplines choose among whatever is pending when
//! the disk falls idle — later arrivals can overtake — so their requests
//! wait in the queue: the engine calls [`QueuedDisk::start_next`] whenever
//! the disk is idle and [`QueuedDisk::complete`] when the completion event
//! it scheduled fires.
//!
//! Disciplines only matter under the [`DiskModel::Detailed`] mechanical
//! model — under fixed service time every order costs the same total, so
//! FCFS is also the fairness-optimal choice there (the scheduling
//! ablation bench verifies both statements).

use crate::disk::{Disk, DiskModel, DiskStats};
use crate::time::SimTime;
use std::collections::VecDeque;

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

/// One disk request. `tag` identifies the requesting worker.
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
    /// Extra service latency injected on top of the model time (transient
    /// fault stalls + retry backoff). Zero for healthy requests.
    pub delay: SimTime,
}

/// A disk with a pending queue and a scheduling discipline.
#[derive(Debug)]
pub struct QueuedDisk {
    disk: Disk,
    sched: DiskSched,
    /// Requests complete at submit (FCFS) instead of waiting in `pending`.
    at_issue: bool,
    /// At-issue only: completion instants of the requests the disk has not
    /// finished yet, oldest first — what `max_queue` counts.
    unfinished: VecDeque<SimTime>,
    /// Engine event that last retired finished requests from `unfinished`.
    retired_by: u64,
    /// Requests waiting to be picked, in arrival order.
    pending: Vec<DiskRequest>,
    /// The in-flight request, if the disk is busy.
    current: Option<DiskRequest>,
}

impl QueuedDisk {
    /// An idle disk.
    pub fn new(model: DiskModel, sched: DiskSched) -> Self {
        Self::with_scale(model, sched, 1.0)
    }

    /// An idle disk whose every service takes `scale`× the model time
    /// (straggler injection; `scale` is stored with milli precision so
    /// the simulation stays integer-deterministic).
    fn with_scale(model: DiskModel, sched: DiskSched, scale: f64) -> Self {
        assert!(scale > 0.0 && scale.is_finite(), "scale must be positive");
        Self::with_scale_milli(model, sched, (scale * 1000.0).round() as u64)
    }

    /// [`with_scale`](QueuedDisk::with_scale) with the multiplier already
    /// in milli-units (fault plans carry integers for replay-exactness).
    pub fn with_scale_milli(model: DiskModel, sched: DiskSched, scale_milli: u64) -> Self {
        QueuedDisk {
            disk: Disk::with_scale_milli(model, scale_milli),
            sched,
            at_issue: sched == DiskSched::Fcfs,
            unfinished: VecDeque::new(),
            retired_by: u64::MAX,
            pending: Vec::new(),
            current: None,
        }
    }

    /// Test seam: make an FCFS disk queue its requests and complete them
    /// through `start_next`/`complete` like the reordering disciplines do —
    /// the event-driven oracle the at-issue path is checked against.
    #[cfg(test)]
    pub(crate) fn dispatch_by_events(mut self) -> Self {
        self.at_issue = false;
        self
    }

    /// Counters.
    pub fn stats(&self) -> DiskStats {
        self.disk.stats
    }

    /// Is the disk currently servicing a queued request?
    pub fn busy(&self) -> bool {
        self.current.is_some()
    }

    /// Pending queue depth (not counting the in-flight request).
    pub fn queue_depth(&self) -> usize {
        self.pending.len()
    }

    /// Hand the disk a request at `req.issued`.
    ///
    /// An FCFS disk returns the completion instant: the request starts
    /// when everything accepted before it is done. A reordering disk
    /// returns `None` and holds the request until
    /// [`start_next`](QueuedDisk::start_next) picks it.
    ///
    /// `event` names the engine event issuing the request. The requests of
    /// one event (a fan-out read) all arrive before the disk serves any of
    /// them, so finished requests are retired from the depth count once
    /// per event, ahead of its first arrival — which keeps `max_queue`
    /// equal to the queued dispatch's even for zero-length services.
    pub fn submit(&mut self, req: DiskRequest, event: u64) -> Option<SimTime> {
        let done = if self.at_issue {
            if self.retired_by != event {
                self.retired_by = event;
                while self.unfinished.front().is_some_and(|&t| t <= req.issued) {
                    self.unfinished.pop_front();
                }
            }
            let done = self.serve(&req);
            self.unfinished.push_back(done);
            Some(done)
        } else {
            self.pending.push(req);
            None
        };
        let depth =
            (self.unfinished.len() + self.pending.len()) as u64 + u64::from(self.current.is_some());
        self.disk.stats.max_queue = self.disk.stats.max_queue.max(depth);
        done
    }

    /// Service starts when the disk is idle and the request has arrived:
    /// at the previous completion, or at arrival if nothing preceded it.
    fn serve(&mut self, req: &DiskRequest) -> SimTime {
        self.disk
            .access(req.issued, req.lba, req.bytes, req.write, req.delay)
    }

    /// If idle and work is pending, pick the next request per the
    /// discipline and start servicing it. Returns the request and its
    /// completion time.
    pub fn start_next(&mut self) -> Option<(DiskRequest, SimTime)> {
        if self.current.is_some() {
            return None;
        }
        let head = self.disk.head_lba();
        // One scan; the smallest key wins and, `pending` being in arrival
        // order, the earliest arrival among equals.
        let idx = (0..self.pending.len()).min_by_key(|&i| {
            let lba = self.pending[i].lba;
            match self.sched {
                // Only `dispatch_by_events` queues FCFS requests.
                DiskSched::Fcfs => (false, 0),
                DiskSched::Sstf => (false, lba.abs_diff(head)),
                // Smallest LBA >= head; else wrap to the smallest overall.
                DiskSched::CLook => (lba < head, lba),
            }
        })?;
        let req = self.pending.remove(idx);
        let done = self.serve(&req);
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

    fn req(tag: usize, lba: u64, bytes: u64, issued: SimTime) -> DiskRequest {
        DiskRequest {
            tag,
            lba,
            bytes,
            write: false,
            issued,
            delay: SimTime::ZERO,
        }
    }

    /// Submit requests that each arrive as their own engine event.
    fn submit_each(d: &mut QueuedDisk, reqs: &[DiskRequest]) -> Vec<Option<SimTime>> {
        reqs.iter()
            .enumerate()
            .map(|(event, &r)| d.submit(r, event as u64))
            .collect()
    }

    #[test]
    fn fcfs_serves_in_arrival_order() {
        let mut d = disk(DiskSched::Fcfs);
        let done = submit_each(
            &mut d,
            &[
                req(0, 1000, 4096, SimTime::ZERO),
                req(1, 10, 4096, SimTime::ZERO),
            ],
        );
        // The far request arrived first, so the near one waits behind it.
        assert!(done[0].unwrap() < done[1].unwrap());
        assert_eq!(d.queue_depth(), 0, "FCFS requests never wait in pending");
        // The event-driven dispatch of the same arrivals agrees.
        let mut o = disk(DiskSched::Fcfs).dispatch_by_events();
        o.submit(req(0, 1000, 4096, SimTime::ZERO), 0);
        o.submit(req(1, 10, 4096, SimTime::ZERO), 1);
        let (first, t1) = o.start_next().unwrap();
        assert_eq!((first.tag, Some(t1)), (0, done[0]));
        o.complete();
        let (second, t2) = o.start_next().unwrap();
        assert_eq!((second.tag, Some(t2)), (1, done[1]));
        assert_eq!(o.stats(), d.stats());
    }

    #[test]
    fn sstf_picks_nearest() {
        let mut d = disk(DiskSched::Sstf);
        submit_each(
            &mut d,
            &[
                req(0, 1_000_000, 4096, SimTime::ZERO),
                req(1, 10, 4096, SimTime::ZERO),
            ],
        );
        // Head starts at 0 → nearest is LBA 10.
        let (first, _) = d.start_next().unwrap();
        assert_eq!(first.tag, 1);
    }

    #[test]
    fn clook_sweeps_upward_then_wraps() {
        let mut d = disk(DiskSched::CLook);
        submit_each(
            &mut d,
            &[
                req(0, 500, 4096, SimTime::ZERO),
                req(1, 100, 4096, SimTime::ZERO),
                req(2, 900, 4096, SimTime::ZERO),
            ],
        );
        // Head 0: ascending sweep → 100, 500, 900.
        let order: Vec<usize> = (0..3)
            .map(|_| {
                let (r, _) = d.start_next().unwrap();
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
        d.submit(req(9, 800, 4096, SimTime::ZERO), 0);
        d.start_next().unwrap();
        d.complete();
        d.submit(req(0, 100, 4096, SimTime::ZERO), 1);
        d.submit(req(1, 900, 4096, SimTime::ZERO), 2);
        // Ahead of 800: 900 first; then wrap to 100.
        let (first, _) = d.start_next().unwrap();
        assert_eq!(first.tag, 1);
        d.complete();
        let (second, _) = d.start_next().unwrap();
        assert_eq!(second.tag, 0);
    }

    #[test]
    fn busy_disk_does_not_double_start() {
        let mut d = disk(DiskSched::Sstf);
        d.submit(req(0, 1, 4096, SimTime::ZERO), 0);
        d.submit(req(1, 2, 4096, SimTime::ZERO), 1);
        assert!(d.start_next().is_some());
        assert!(d.busy());
        assert!(d.start_next().is_none(), "busy disk must not start another");
        d.complete();
        assert!(d.start_next().is_some());
    }

    #[test]
    fn straggler_scale_slows_service() {
        let mut d = QueuedDisk::with_scale(DiskModel::paper_default(), DiskSched::Fcfs, 3.0);
        let done = d.submit(req(0, 0, 1, SimTime::ZERO), 0);
        assert_eq!(done, Some(SimTime::from_millis(30)));
    }

    #[test]
    #[should_panic(expected = "scale must be positive")]
    fn zero_scale_rejected() {
        QueuedDisk::with_scale(DiskModel::paper_default(), DiskSched::Fcfs, 0.0);
    }

    #[test]
    fn injected_delay_extends_service() {
        let mut d = QueuedDisk::new(DiskModel::paper_default(), DiskSched::Fcfs);
        let stalled = DiskRequest {
            delay: SimTime::from_millis(25),
            ..req(0, 0, 1, SimTime::ZERO)
        };
        // 10 ms model service + 25 ms injected stall.
        assert_eq!(d.submit(stalled, 0), Some(SimTime::from_millis(35)));
        // The delay occupies the disk: busy time includes it.
        assert_eq!(d.stats().busy, SimTime::from_millis(35));
    }

    #[test]
    fn integer_scale_matches_float_scale() {
        let mut a = QueuedDisk::with_scale(DiskModel::paper_default(), DiskSched::Fcfs, 2.5);
        let mut b = QueuedDisk::with_scale_milli(DiskModel::paper_default(), DiskSched::Fcfs, 2500);
        assert_eq!(
            a.submit(req(0, 0, 1, SimTime::ZERO), 0),
            b.submit(req(0, 0, 1, SimTime::ZERO), 0)
        );
    }

    #[test]
    fn queue_time_accounted() {
        let mut d = QueuedDisk::new(DiskModel::paper_default(), DiskSched::Fcfs);
        d.submit(req(0, 0, 1, SimTime::ZERO), 0);
        d.submit(req(1, 0, 1, SimTime::ZERO), 1); // waits 10 ms
        assert_eq!(d.stats().queued, SimTime::from_millis(10));
    }

    #[test]
    fn max_queue_is_a_high_water_mark() {
        let mut d = disk(DiskSched::Sstf);
        d.submit(req(0, 1, 4096, SimTime::ZERO), 0);
        d.submit(req(1, 2, 4096, SimTime::ZERO), 1);
        d.submit(req(2, 3, 4096, SimTime::ZERO), 2);
        assert_eq!(d.stats().max_queue, 3);
        d.start_next().unwrap();
        d.complete();
        d.start_next().unwrap();
        d.complete();
        // Draining never lowers the high-water mark; a fresh arrival on
        // top of one in-flight request counts both.
        d.start_next().unwrap();
        d.submit(req(3, 4, 4096, SimTime::ZERO), 3);
        assert_eq!(d.stats().max_queue, 3);
    }

    #[test]
    fn fcfs_depth_counts_only_unfinished_requests() {
        let ms = SimTime::from_millis;
        let mut d = QueuedDisk::new(DiskModel::paper_default(), DiskSched::Fcfs);
        // Three arrivals at t=0 finish at 10, 20, 30 ms: depth 3.
        for event in 0..3 {
            d.submit(req(0, 0, 1, SimTime::ZERO), event);
        }
        assert_eq!(d.stats().max_queue, 3);
        // At t=20 ms two are done (a completion at `now` counts as done:
        // completions order before worker steps); one left + the arrival.
        d.submit(req(0, 0, 1, ms(20)), 3);
        assert_eq!(d.stats().max_queue, 3);
        d.submit(req(0, 0, 1, ms(20)), 4);
        d.submit(req(0, 0, 1, ms(20)), 5);
        assert_eq!(d.stats().max_queue, 4);
    }

    #[test]
    fn fcfs_fanout_of_one_event_all_counts_even_at_zero_service() {
        let mut d = QueuedDisk::new(
            DiskModel::Fixed {
                access: SimTime::ZERO,
            },
            DiskSched::Fcfs,
        );
        // One event's fan-out arrives whole before any of it is served.
        d.submit(req(0, 0, 1, SimTime::ZERO), 0);
        d.submit(req(0, 1, 1, SimTime::ZERO), 0);
        assert_eq!(d.stats().max_queue, 2);
        // A later event at the same instant finds them finished.
        d.submit(req(0, 2, 1, SimTime::ZERO), 1);
        assert_eq!(d.stats().max_queue, 2);
    }

    #[test]
    fn sstf_starves_far_requests_under_load() {
        // Classic SSTF behaviour: a far request keeps losing to near ones.
        let mut d = disk(DiskSched::Sstf);
        d.submit(req(99, 1 << 24, 4096, SimTime::ZERO), 0); // far away
        let mut t = SimTime::ZERO;
        for i in 0..5 {
            d.submit(req(i, (i as u64 + 1) * 10, 4096, t), 1 + i as u64);
            let (r, done) = d.start_next().unwrap();
            assert_ne!(r.tag, 99, "far request served too early");
            d.complete();
            t = done;
        }
    }
}
