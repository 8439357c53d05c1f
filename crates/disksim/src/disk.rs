//! Per-disk service model and statistics.
//!
//! Two models are provided:
//!
//! * [`DiskModel::Fixed`] — every disk access costs a constant service
//!   time. This matches the paper's stated configuration ("the data access
//!   time of buffer cache and data disk are set to 0.5ms and 10ms") and is
//!   the default for figure reproduction.
//! * [`DiskModel::Detailed`] — seek (distance-dependent, linearised seek
//!   curve) + rotational latency (half a revolution on average, derived
//!   deterministically from the target LBA so runs replay exactly) +
//!   transfer time. Used by the ablation benches to check that FBF's
//!   ranking is robust to a realistic mechanical model.
//!
//! [`Disk`] is the drive itself: it serves one request at a time, each
//! right behind whatever it is already committed to. Under FCFS that makes
//! a request's completion instant known the moment it arrives — which is
//! how reconstruction workers contend; the reordering disciplines hold
//! requests back in [`QueuedDisk`](crate::sched::QueuedDisk) and hand them
//! over one at a time.

use crate::time::SimTime;

/// Parameters of the detailed mechanical model. Defaults approximate a
/// 7200 RPM nearline SATA drive of the paper's era.
#[derive(Debug, Clone, Copy)]
pub struct DiskParams {
    /// Minimum (track-to-track) seek.
    pub seek_min: SimTime,
    /// Maximum (full-stroke) seek.
    pub seek_max: SimTime,
    /// Spindle speed, revolutions per minute.
    pub rpm: u32,
    /// Sustained transfer rate, bytes per second.
    pub transfer_rate: u64,
    /// Number of addressable chunk-sized blocks (for seek distance scaling).
    pub blocks: u64,
}

impl Default for DiskParams {
    fn default() -> Self {
        DiskParams {
            seek_min: SimTime::from_micros(500),
            seek_max: SimTime::from_millis(14),
            rpm: 7200,
            transfer_rate: 120 * 1024 * 1024,
            blocks: 1 << 25, // 1 TB of 32 KB chunks
        }
    }
}

impl DiskParams {
    /// One full revolution.
    pub fn revolution(&self) -> SimTime {
        SimTime::from_nanos(60_000_000_000 / self.rpm as u64)
    }
}

/// How a disk turns a request into service time.
#[derive(Debug, Clone, Copy)]
pub enum DiskModel {
    /// Constant service time per access (the paper's configuration).
    Fixed {
        /// Service time of one chunk access.
        access: SimTime,
    },
    /// Seek + rotation + transfer.
    Detailed(DiskParams),
}

impl DiskModel {
    /// The paper's configuration: 10 ms per disk access.
    pub fn paper_default() -> Self {
        DiskModel::Fixed {
            access: SimTime::from_millis(10),
        }
    }

    /// A realistic mechanical model.
    pub fn detailed_default() -> Self {
        DiskModel::Detailed(DiskParams::default())
    }

    /// Service time for accessing `lba` when the head sits at `head_lba`,
    /// transferring `bytes`.
    pub fn service_time(&self, head_lba: u64, lba: u64, bytes: u64) -> SimTime {
        match *self {
            DiskModel::Fixed { access } => access,
            DiskModel::Detailed(p) => {
                let dist = head_lba.abs_diff(lba);
                let seek = if dist == 0 {
                    SimTime::ZERO
                } else {
                    // Linearised seek curve between min and max stroke.
                    let frac = dist as f64 / p.blocks.max(1) as f64;
                    let span = p.seek_max.as_nanos() - p.seek_min.as_nanos();
                    SimTime::from_nanos(p.seek_min.as_nanos() + (span as f64 * frac) as u64)
                };
                // Deterministic pseudo-rotational latency in [0, revolution):
                // derived from the LBA so the same access always costs the
                // same, keeping runs replayable.
                let rev = p.revolution().as_nanos();
                let rot =
                    SimTime::from_nanos((lba.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) % rev);
                let transfer =
                    SimTime::from_nanos(bytes.saturating_mul(1_000_000_000) / p.transfer_rate);
                seek + rot + transfer
            }
        }
    }
}

/// Per-disk counters collected by the engine.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DiskStats {
    /// Chunk reads served.
    pub reads: u64,
    /// Chunk writes served.
    pub writes: u64,
    /// Total time the disk spent servicing requests.
    pub busy: SimTime,
    /// Total time requests waited in the disk queue before service.
    pub queued: SimTime,
    /// Deepest the disk's queue ever got (pending + in-flight).
    pub max_queue: u64,
}

impl DiskStats {
    /// Total operations.
    pub fn ops(&self) -> u64 {
        self.reads + self.writes
    }

    /// Fold another snapshot of the *same* disk in (escalation rounds,
    /// per-worker shards). Flows and times add; `max_queue` is a
    /// high-water mark and must merge via `max` — summing two snapshots'
    /// deepest queues would report a depth the disk never reached.
    pub fn merge(&mut self, other: &DiskStats) {
        self.reads += other.reads;
        self.writes += other.writes;
        self.busy += other.busy;
        self.queued += other.queued;
        self.max_queue = self.max_queue.max(other.max_queue);
    }
}

/// One simulated drive: the service model, the head, and the instant the
/// drive is committed until.
#[derive(Debug, Clone)]
pub struct Disk {
    model: DiskModel,
    /// Service-time multiplier in milli-units (>1000 = degraded/aged disk,
    /// failure injection for straggler experiments).
    scale_milli: u64,
    /// When the disk finishes everything it has accepted so far.
    next_free: SimTime,
    /// Head position after the last access (detailed model).
    head_lba: u64,
    /// Counters.
    pub stats: DiskStats,
}

impl Disk {
    /// A fresh idle disk.
    pub fn new(model: DiskModel) -> Self {
        Self::with_scale_milli(model, 1000)
    }

    /// A fresh idle disk whose every service takes `scale_milli`/1000 × the
    /// model time (integer so the simulation stays replay-exact).
    pub fn with_scale_milli(model: DiskModel, scale_milli: u64) -> Self {
        assert!(scale_milli > 0, "scale must be positive");
        Disk {
            model,
            scale_milli,
            next_free: SimTime::ZERO,
            head_lba: 0,
            stats: DiskStats::default(),
        }
    }

    /// Serve a chunk access that reached the disk at `issued`, right behind
    /// whatever the disk is already committed to. `delay` is extra service
    /// latency on top of the model time (fault stalls + retry backoff); the
    /// disk stays busy for it. Returns the completion instant.
    pub fn access(
        &mut self,
        issued: SimTime,
        lba: u64,
        bytes: u64,
        write: bool,
        delay: SimTime,
    ) -> SimTime {
        let start = issued.max(self.next_free);
        let base = self.model.service_time(self.head_lba, lba, bytes);
        let service = SimTime::from_nanos(base.as_nanos() * self.scale_milli / 1000) + delay;
        let done = start + service;
        self.next_free = done;
        self.head_lba = lba;
        self.stats.busy += service;
        self.stats.queued += start - issued;
        if write {
            self.stats.writes += 1;
        } else {
            self.stats.reads += 1;
        }
        done
    }

    /// Head position after the last access.
    pub fn head_lba(&self) -> u64 {
        self.head_lba
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_model_constant_service() {
        let m = DiskModel::paper_default();
        assert_eq!(m.service_time(0, 100, 32 << 10), SimTime::from_millis(10));
        assert_eq!(m.service_time(5, 5, 1), SimTime::from_millis(10));
    }

    #[test]
    fn detailed_model_scales_with_distance() {
        let m = DiskModel::detailed_default();
        let near = m.service_time(0, 1, 32 << 10);
        let far = m.service_time(0, 1 << 24, 32 << 10);
        assert!(far > near, "long seeks cost more: {far} vs {near}");
    }

    #[test]
    fn detailed_model_is_deterministic() {
        let m = DiskModel::detailed_default();
        assert_eq!(m.service_time(7, 1234, 4096), m.service_time(7, 1234, 4096));
    }

    #[test]
    fn fcfs_queueing() {
        let mut d = Disk::new(DiskModel::paper_default());
        let t0 = SimTime::ZERO;
        let c1 = d.access(t0, 0, 1, false, SimTime::ZERO);
        assert_eq!(c1, SimTime::from_millis(10));
        // Issued while busy → queues behind.
        let c2 = d.access(SimTime::from_millis(1), 0, 1, false, SimTime::ZERO);
        assert_eq!(c2, SimTime::from_millis(20));
        assert_eq!(d.stats.queued, SimTime::from_millis(9));
        // Issued after idle → no queueing.
        let c3 = d.access(SimTime::from_millis(30), 0, 1, false, SimTime::ZERO);
        assert_eq!(c3, SimTime::from_millis(40));
        assert_eq!(d.stats.reads, 3);
    }

    #[test]
    fn write_counted_separately() {
        let mut d = Disk::new(DiskModel::paper_default());
        d.access(SimTime::ZERO, 0, 1, true, SimTime::ZERO);
        assert_eq!(d.stats.writes, 1);
        assert_eq!(d.stats.reads, 0);
    }

    #[test]
    fn busy_time_accumulates() {
        let mut d = Disk::new(DiskModel::paper_default());
        d.access(SimTime::ZERO, 0, 1, false, SimTime::ZERO);
        d.access(SimTime::ZERO, 1, 1, false, SimTime::ZERO);
        assert_eq!(d.stats.busy, SimTime::from_millis(20));
    }

    #[test]
    fn merge_sums_flows_but_maxes_high_water() {
        // Two worker snapshots of the same disk: one saw a deep queue,
        // the other a shallow one. The merged high-water is the deepest
        // either saw, not their sum (regression: max_queue must survive
        // digest merge).
        let mut a = DiskStats {
            reads: 10,
            writes: 2,
            busy: SimTime::from_millis(120),
            queued: SimTime::from_millis(30),
            max_queue: 7,
        };
        let b = DiskStats {
            reads: 4,
            writes: 1,
            busy: SimTime::from_millis(50),
            queued: SimTime::from_millis(5),
            max_queue: 3,
        };
        a.merge(&b);
        assert_eq!(a.reads, 14);
        assert_eq!(a.writes, 3);
        assert_eq!(a.busy, SimTime::from_millis(170));
        assert_eq!(a.queued, SimTime::from_millis(35));
        assert_eq!(a.max_queue, 7, "high-water marks merge via max, not sum");
    }

    #[test]
    fn revolution_time() {
        let p = DiskParams::default();
        assert_eq!(p.revolution(), SimTime::from_nanos(8_333_333));
    }
}
