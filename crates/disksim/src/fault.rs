//! Deterministic fault injection for recovery reads.
//!
//! Real arrays fail *while* repairing (latent sector errors surface the
//! moment a rebuild finally touches a cold sector; a second drive dies
//! mid-rebuild). A [`FaultPlan`] makes the simulator model that: each
//! recovery read is classified — purely, from a seed and the chunk's
//! identity — as succeeding, stalling transiently (drive-internal retry),
//! or failing hard (unreadable media). A plan can additionally slow one
//! disk (straggler) or kill one outright at a chosen virtual instant.
//!
//! Classification is a pure function of `(seed, chunk)`: it does not
//! depend on execution order, worker interleaving, or wall time, so a
//! faulted run is exactly as replayable as an unfaulted one. With
//! [`FaultPlan::none()`] the engine's hot loop sees a single
//! well-predicted branch and produces bit-identical results to a build
//! without this module.

use crate::time::SimTime;
use fbf_codes::ChunkId;

/// How the executor responds to transient faults: bounded retries with
/// exponential, capped backoff — all in simulated time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RetryPolicy {
    /// Retries before a transient fault escalates to a hard failure.
    pub max_retries: u8,
    /// Simulated cost of one stalled attempt (the drive's internal
    /// retry/recovery window) before the executor retries.
    pub timeout: SimTime,
    /// Base backoff added before the first retry; doubles per retry.
    pub backoff: SimTime,
    /// Ceiling on the per-retry backoff term.
    pub backoff_cap: SimTime,
    /// Time for a worker to detect and report a hard failure before it
    /// moves on (error propagation is not free).
    pub detect: SimTime,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 3,
            timeout: SimTime::from_millis(10),
            backoff: SimTime::from_millis(5),
            backoff_cap: SimTime::from_millis(40),
            detect: SimTime::from_millis(2),
        }
    }
}

impl RetryPolicy {
    /// Total simulated delay of `stalls` failed attempts: each costs the
    /// stall `timeout` plus an exponentially growing (capped) backoff.
    fn delay_for(&self, stalls: u8) -> SimTime {
        let mut total = SimTime::ZERO;
        let mut backoff = self.backoff;
        for _ in 0..stalls {
            total += self.timeout + backoff.min(self.backoff_cap);
            backoff = SimTime::from_nanos(backoff.as_nanos().saturating_mul(2));
        }
        total
    }
}

/// Straggler injection: one disk whose every service is scaled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SlowDisk {
    /// Index of the degraded disk.
    pub disk: u32,
    /// Service-time multiplier in milli-units (2500 = 2.5×). Integer so
    /// the simulation stays replay-exact.
    pub scale_milli: u32,
}

/// Whole-disk failure at a virtual instant: reads issued to the disk at
/// or after `at` fail hard. Spare writes still succeed (the write is
/// redirected to a hot spare; modelling the spare's geometry identically
/// keeps timing unchanged).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DiskKill {
    /// Index of the dying disk.
    pub disk: u32,
    /// Virtual time of death.
    pub at: SimTime,
}

/// A seeded, deterministic fault-injection plan for one campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FaultPlan {
    /// Seed for the per-chunk fault draws.
    pub seed: u64,
    /// Per-mille probability that a chunk read is an unreadable sector
    /// (hard media error). 0 disables.
    pub media_per_mille: u16,
    /// Per-mille probability that a chunk read stalls transiently.
    /// 0 disables. Media draws take precedence.
    pub transient_per_mille: u16,
    /// Upper bound on consecutive stalls of one transient read (the draw
    /// picks 1..=max). A draw above [`RetryPolicy::max_retries`] means
    /// the read never succeeds and escalates.
    pub transient_failures_max: u8,
    /// Optional straggler disk.
    pub straggler: Option<SlowDisk>,
    /// Optional mid-campaign whole-disk death.
    pub disk_kill: Option<DiskKill>,
    /// Retry/backoff/detection parameters.
    pub retry: RetryPolicy,
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self::none()
    }
}

/// Outcome of the deterministic per-chunk fault draw.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultDraw {
    /// The read succeeds normally.
    Ok,
    /// The read stalls `stalls` times before (possibly) succeeding.
    Transient {
        /// Consecutive stalled attempts drawn for this chunk.
        stalls: u8,
    },
    /// The sector is unreadable: hard media error.
    Media,
}

/// Why a recovery read failed hard.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReadFailure {
    /// Unreadable sector (latent sector error).
    Media,
    /// Transient stalls exceeded [`RetryPolicy::max_retries`].
    RetriesExhausted,
    /// The chunk's disk was killed before the read was issued.
    DeadDisk,
}

impl ReadFailure {
    /// Short name for reports and traces.
    pub fn name(&self) -> &'static str {
        match self {
            ReadFailure::Media => "media",
            ReadFailure::RetriesExhausted => "retries-exhausted",
            ReadFailure::DeadDisk => "dead-disk",
        }
    }
}

/// One hard read failure surfaced by the engine: the chunk is now an
/// additional erasure the controller must re-plan around.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FailedRead {
    /// The chunk that could not be read.
    pub chunk: ChunkId,
    /// Worker whose script hit the failure.
    pub worker: u32,
    /// Failure class.
    pub kind: ReadFailure,
}

/// Fault-path counters measured over one engine run (or merged across
/// escalation rounds).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounters {
    /// Hard media errors hit.
    pub media_errors: u64,
    /// Reads that stalled transiently at least once.
    pub transient_faults: u64,
    /// Total retry attempts spent on transient faults.
    pub retries: u64,
    /// Transient reads that exhausted their retry budget (escalated).
    pub retries_exhausted: u64,
    /// Reads issued to a dead disk.
    pub dead_disk_reads: u64,
    /// Script operations skipped because their stripe had already failed
    /// this run (the worker abandons a repair it cannot finish).
    pub skipped_ops: u64,
}

/// What a read under a fault plan comes to, after retries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadOutcome {
    /// The data arrives, `delay` later than the disk alone would take.
    Ok {
        /// Time lost to `retries` stalled attempts.
        delay: SimTime,
        /// Stalled attempts the read survived (0 = no fault drawn).
        retries: u8,
    },
    /// Hard failure: the chunk is an additional erasure.
    Failed {
        /// Failure class.
        kind: ReadFailure,
        /// Time spent on retries before giving up (the caller adds
        /// [`RetryPolicy::detect`]).
        wasted: SimTime,
    },
}

/// Resolve one read of a chunk that is not in the cache and has not been
/// rewritten to the spare area: a dead disk swallows the read before any
/// media/transient draw, and a transient fault fails only once its stalls
/// outrun the retry budget. The engine feeds it
/// [`FaultPlan::disk_dead`]/[`FaultPlan::draw`].
pub fn resolve_read(dead: bool, draw: FaultDraw, retry: &RetryPolicy) -> ReadOutcome {
    let failed = |kind, wasted| ReadOutcome::Failed { kind, wasted };
    if dead {
        return failed(ReadFailure::DeadDisk, SimTime::ZERO);
    }
    match draw {
        FaultDraw::Ok => ReadOutcome::Ok {
            delay: SimTime::ZERO,
            retries: 0,
        },
        FaultDraw::Media => failed(ReadFailure::Media, SimTime::ZERO),
        FaultDraw::Transient { stalls } if stalls <= retry.max_retries => ReadOutcome::Ok {
            delay: retry.delay_for(stalls),
            retries: stalls,
        },
        FaultDraw::Transient { .. } => failed(
            ReadFailure::RetriesExhausted,
            retry.delay_for(retry.max_retries),
        ),
    }
}

impl FaultCounters {
    /// Count one resolved read.
    pub fn record(&mut self, outcome: ReadOutcome, retry: &RetryPolicy) {
        match outcome {
            ReadOutcome::Ok { retries: 0, .. } => {}
            ReadOutcome::Ok { retries, .. } => {
                self.transient_faults += 1;
                self.retries += u64::from(retries);
            }
            ReadOutcome::Failed { kind, .. } => match kind {
                ReadFailure::Media => self.media_errors += 1,
                ReadFailure::DeadDisk => self.dead_disk_reads += 1,
                ReadFailure::RetriesExhausted => {
                    self.transient_faults += 1;
                    self.retries += u64::from(retry.max_retries);
                    self.retries_exhausted += 1;
                }
            },
        }
    }

    /// Total hard failures (each one becomes an additional erasure).
    pub fn hard_failures(&self) -> u64 {
        self.media_errors + self.retries_exhausted + self.dead_disk_reads
    }

    /// True when nothing fault-related happened.
    pub fn is_empty(&self) -> bool {
        *self == FaultCounters::default()
    }

    /// Accumulate another run's counters (escalation rounds).
    pub fn merge(&mut self, other: &FaultCounters) {
        self.media_errors += other.media_errors;
        self.transient_faults += other.transient_faults;
        self.retries += other.retries;
        self.retries_exhausted += other.retries_exhausted;
        self.dead_disk_reads += other.dead_disk_reads;
        self.skipped_ops += other.skipped_ops;
    }
}

/// One SplitMix64 step (Sebastiano Vigna): advance `seed` by the golden
/// gamma and mix. The workspace's one hash-a-seed primitive — fault
/// draws, declustered placement and the workload generator's seeding all
/// call it, so each is stable across platforms.
#[inline]
pub fn splitmix64(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl FaultPlan {
    /// The no-fault plan: every draw is `Ok`, no straggler, no kill.
    pub const fn none() -> Self {
        FaultPlan {
            seed: 0,
            media_per_mille: 0,
            transient_per_mille: 0,
            transient_failures_max: 1,
            straggler: None,
            disk_kill: None,
            retry: RetryPolicy {
                max_retries: 3,
                timeout: SimTime::from_millis(10),
                backoff: SimTime::from_millis(5),
                backoff_cap: SimTime::from_millis(40),
                detect: SimTime::from_millis(2),
            },
        }
    }

    /// Does this plan inject anything at all? The engine gates every
    /// fault check behind this, keeping the disabled hot path one branch.
    pub fn is_active(&self) -> bool {
        self.media_per_mille > 0
            || self.transient_per_mille > 0
            || self.straggler.is_some()
            || self.disk_kill.is_some()
    }

    /// Deterministic per-chunk fault draw. Pure in `(self.seed, chunk)`:
    /// the same chunk always draws the same outcome within a plan,
    /// regardless of when or by which worker it is read.
    pub fn draw(&self, chunk: ChunkId) -> FaultDraw {
        if self.media_per_mille == 0 && self.transient_per_mille == 0 {
            return FaultDraw::Ok;
        }
        let bits = (u64::from(chunk.stripe) << 32)
            | ((chunk.cell.r() as u64) << 16)
            | chunk.cell.c() as u64;
        let h = splitmix64(self.seed ^ bits);
        if u64::from(self.media_per_mille) > 0 && h % 1000 < u64::from(self.media_per_mille) {
            return FaultDraw::Media;
        }
        if u64::from(self.transient_per_mille) > 0
            && (h >> 10) % 1000 < u64::from(self.transient_per_mille)
        {
            let span = u64::from(self.transient_failures_max.max(1));
            let stalls = 1 + ((h >> 32) % span) as u8;
            return FaultDraw::Transient { stalls };
        }
        FaultDraw::Ok
    }

    /// Is `disk` dead for reads issued at `now`?
    pub fn disk_dead(&self, disk: usize, now: SimTime) -> bool {
        matches!(self.disk_kill, Some(k) if k.disk as usize == disk && now >= k.at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fbf_codes::Cell;

    fn chunk(stripe: u32, r: usize, c: usize) -> ChunkId {
        ChunkId::new(stripe, Cell::new(r, c))
    }

    fn plan(media: u16, transient: u16) -> FaultPlan {
        FaultPlan {
            seed: 42,
            media_per_mille: media,
            transient_per_mille: transient,
            transient_failures_max: 4,
            ..FaultPlan::none()
        }
    }

    #[test]
    fn none_is_inactive_and_never_faults() {
        let p = FaultPlan::none();
        assert!(!p.is_active());
        for s in 0..100 {
            assert_eq!(p.draw(chunk(s, 0, 0)), FaultDraw::Ok);
        }
    }

    #[test]
    fn draws_are_deterministic() {
        let p = plan(100, 200);
        for s in 0..50u32 {
            for r in 0..4 {
                let c = chunk(s, r, 3);
                assert_eq!(p.draw(c), p.draw(c));
            }
        }
    }

    #[test]
    fn different_seeds_differ_somewhere() {
        let a = plan(100, 200);
        let b = FaultPlan { seed: 43, ..a };
        let diverges = (0..200u32).any(|s| a.draw(chunk(s, 0, 0)) != b.draw(chunk(s, 0, 0)));
        assert!(diverges, "seed must matter");
    }

    #[test]
    fn media_rate_is_roughly_calibrated() {
        let p = plan(100, 0); // 10 %
        let media = (0..2000u32)
            .filter(|&s| p.draw(chunk(s, 1, 2)) == FaultDraw::Media)
            .count();
        assert!(
            (100..400).contains(&media),
            "10% of 2000 ≈ 200, got {media}"
        );
    }

    #[test]
    fn transient_stalls_bounded_by_max() {
        let p = plan(0, 500);
        for s in 0..2000u32 {
            if let FaultDraw::Transient { stalls } = p.draw(chunk(s, 0, 1)) {
                assert!((1..=4).contains(&stalls));
            }
        }
    }

    #[test]
    fn media_takes_precedence_over_transient() {
        // With both rates at 1000 every draw is a fault and it is always
        // classified media first.
        let p = plan(1000, 1000);
        for s in 0..50u32 {
            assert_eq!(p.draw(chunk(s, 2, 2)), FaultDraw::Media);
        }
    }

    #[test]
    fn retry_delay_grows_and_caps() {
        let r = RetryPolicy::default();
        assert_eq!(r.delay_for(0), SimTime::ZERO);
        // 1 stall: timeout + backoff = 10 + 5 ms.
        assert_eq!(r.delay_for(1), SimTime::from_millis(15));
        // 2 stalls: + (10 + 10) ms.
        assert_eq!(r.delay_for(2), SimTime::from_millis(35));
        // Far past the cap: each extra stall adds timeout + cap = 50 ms.
        let d8 = r.delay_for(8);
        let d9 = r.delay_for(9);
        assert_eq!(d9 - d8, SimTime::from_millis(50));
    }

    #[test]
    fn resolver_puts_dead_before_media_before_the_retry_budget() {
        let retry = RetryPolicy::default(); // 3 retries
        let kind = |dead, draw| match resolve_read(dead, draw, &retry) {
            ReadOutcome::Failed { kind, .. } => Some(kind),
            ReadOutcome::Ok { .. } => None,
        };
        assert_eq!(kind(true, FaultDraw::Media), Some(ReadFailure::DeadDisk));
        assert_eq!(kind(false, FaultDraw::Media), Some(ReadFailure::Media));
        let stalled = |stalls| FaultDraw::Transient { stalls };
        assert_eq!(kind(false, stalled(4)), Some(ReadFailure::RetriesExhausted));
        let (delay, retries) = (retry.delay_for(3), 3);
        assert_eq!(
            resolve_read(false, stalled(3), &retry),
            ReadOutcome::Ok { delay, retries }
        );
    }

    #[test]
    fn disk_kill_respects_time_and_index() {
        let p = FaultPlan {
            disk_kill: Some(DiskKill {
                disk: 2,
                at: SimTime::from_millis(5),
            }),
            ..FaultPlan::none()
        };
        assert!(p.is_active());
        assert!(!p.disk_dead(2, SimTime::from_millis(4)));
        assert!(p.disk_dead(2, SimTime::from_millis(5)));
        assert!(!p.disk_dead(1, SimTime::from_millis(9)));
    }

    #[test]
    fn counters_merge_and_sum() {
        let mut a = FaultCounters {
            media_errors: 1,
            retries: 3,
            ..Default::default()
        };
        let b = FaultCounters {
            dead_disk_reads: 2,
            retries_exhausted: 1,
            transient_faults: 4,
            skipped_ops: 7,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.hard_failures(), 4);
        assert_eq!(a.retries, 3);
        assert_eq!(a.skipped_ops, 7);
        assert!(!a.is_empty());
        assert!(FaultCounters::default().is_empty());
    }
}
