//! Array-wide rebuild admission: per-stripe repair campaigns scheduled
//! against per-disk bandwidth caps.
//!
//! A whole-disk failure in a declustered array leaves thousands of
//! stripes partially damaged, each with its own repair plan. Letting
//! every stripe's reads hit the array at once starves foreground I/O; a
//! rebuild scheduler instead admits stripes in *waves*, bounding how many
//! rebuild reads any single disk absorbs per wave (the "bandwidth cap" of
//! declustered-RAID schedulers) and arbitrating between concurrent repair
//! campaigns with a fairness policy.
//!
//! [`RebuildScheduler`] is deliberately pure: it knows nothing about the
//! simulator or the plan store. Callers enqueue [`RebuildItem`]s — a
//! stripe plus its *projected* per-disk read footprint (derived from the
//! repair scheme and the array's
//! [`ArrayMapping`](fbf_disksim::ArrayMapping)) — and drain waves. Determinism
//! follows from determinism of the inputs: same items in the same order,
//! same waves out.
//!
//! Two fairness policies:
//!
//! * [`Fairness::RoundRobin`] — campaigns take turns admitting one stripe
//!   at a time, skipping campaigns whose next stripe no longer fits the
//!   wave. Equal stripes-per-wave shares regardless of stripe cost.
//! * [`Fairness::DeficitWeighted`] — deficit round robin (Shreedhar &
//!   Varghese): each backlogged campaign accrues one quantum of credit per
//!   wave and admits stripes while its credit covers their read cost, so
//!   shares are equal in *read volume*, not stripe count. The quantum is
//!   the largest read cost pushed so far — their rule that it be at least
//!   the largest packet, so every campaign can send each wave.
//!
//! Both guarantee progress: a stripe whose footprint alone exceeds the
//! per-disk cap is admitted as a singleton wave rather than starving.
//!
//! The module also holds the whole-disk campaign itself. The paper defers
//! that case to prior work — Xiang et al.'s optimal single-failure
//! recovery (reference \[22\]) showed that *mixing* chain directions cuts
//! the reads of a full-column RDP rebuild to ~75% of the all-horizontal
//! baseline, and Zhu et al. \[13\] parallelised it (DOR/SOR). The scheme
//! generators are exactly that machinery, so a whole-disk rebuild is a
//! full-column [`PartialStripeError`](crate::PartialStripeError) per
//! stripe ([`rebuild_campaign`]) planned like any other campaign — every
//! stripe has the same format, so the
//! [`RecoveryController`](crate::RecoveryController) memo generates once
//! — and [`rebuild_read_ratio`] reproduces the \[22\] result.

use crate::error::ErrorGroup;
use crate::scheme::{generate, SchemeError, SchemeKind};
use fbf_codes::StripeCode;
use std::collections::VecDeque;

/// A full-column error for every stripe in `0..stripes`.
pub fn rebuild_campaign(
    code: &StripeCode,
    failed_col: usize,
    stripes: u32,
) -> Result<ErrorGroup, String> {
    ErrorGroup::full_columns(code, (0..stripes).map(|stripe| (stripe, failed_col)))
}

/// Distinct chunks a scheme kind fetches to rebuild one full column,
/// relative to the horizontal-only baseline. Xiang et al. \[22\] prove the
/// optimum for RDP is `~0.75`; the greedy generator should approach it.
/// Panics if `failed_col` is not a column of `code`.
pub fn rebuild_read_ratio(
    code: &StripeCode,
    failed_col: usize,
    kind: SchemeKind,
) -> Result<f64, SchemeError> {
    let error = crate::PartialStripeError::new(code, 0, failed_col, 0, code.rows())
        .expect("the failed column is a column of the code");
    let baseline = generate(code, &error, SchemeKind::Typical)?;
    let scheme = generate(code, &error, kind)?;
    Ok(scheme.unique_reads() as f64 / baseline.unique_reads() as f64)
}

/// Arbitration between concurrent repair campaigns.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Fairness {
    /// One stripe per campaign per turn.
    #[default]
    RoundRobin,
    /// Deficit round robin: equal read-volume shares per campaign.
    DeficitWeighted,
}

impl Fairness {
    /// Stable label (CLI parsing, reports).
    pub fn name(self) -> &'static str {
        match self {
            Fairness::RoundRobin => "round-robin",
            Fairness::DeficitWeighted => "deficit-weighted",
        }
    }

    /// Parse a CLI spelling.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "rr" | "round-robin" | "round_robin" => Some(Fairness::RoundRobin),
            "drr" | "deficit" | "deficit-weighted" | "deficit_weighted" => {
                Some(Fairness::DeficitWeighted)
            }
            _ => None,
        }
    }
}

/// One stripe's repair, as the scheduler sees it: who wants it and what
/// it will read from each disk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RebuildItem {
    /// Owning campaign (index into the scheduler's queues).
    pub campaign: usize,
    /// Stripe to repair.
    pub stripe: u32,
    /// Projected rebuild reads per physical disk: `(disk, reads)`,
    /// deduplicated, in ascending disk order.
    pub disk_reads: Vec<(u32, u32)>,
}

impl RebuildItem {
    /// One stripe's repair from its scheme's per-column read histogram
    /// ([`FormatPlan::column_reads`](crate::FormatPlan::column_reads)
    /// — a property of the damage format, so every stripe that lost the
    /// same column shares one) projected through the stripe's placement:
    /// `disks` yields the disk of column 0, 1, … in order. Placements are
    /// injective per stripe, so sorting by disk also deduplicates.
    pub fn project(
        campaign: usize,
        stripe: u32,
        column_reads: &[u32],
        disks: impl IntoIterator<Item = usize>,
    ) -> Self {
        let mut disk_reads: Vec<(u32, u32)> = disks
            .into_iter()
            .zip(column_reads)
            .filter(|&(_, &reads)| reads > 0)
            .map(|(disk, &reads)| (disk as u32, reads))
            .collect();
        disk_reads.sort_unstable();
        debug_assert!(
            disk_reads.windows(2).all(|w| w[0].0 < w[1].0),
            "stripe {stripe}: placement puts two columns on one disk"
        );
        RebuildItem {
            campaign,
            stripe,
            disk_reads,
        }
    }

    /// Total projected reads (the DRR cost).
    pub fn cost(&self) -> u64 {
        self.disk_reads.iter().map(|&(_, n)| n as u64).sum()
    }
}

/// Admits per-stripe repairs against per-disk read caps with a fairness
/// policy. See the module docs for the model.
#[derive(Debug)]
pub struct RebuildScheduler {
    queues: Vec<VecDeque<RebuildItem>>,
    deficits: Vec<u64>,
    /// DRR credit per backlogged campaign per wave: the largest read cost
    /// pushed so far.
    quantum: u64,
    cursor: usize,
    fairness: Fairness,
    per_disk_cap: u32,
    /// Scratch: per-disk load of the wave being assembled.
    wave_load: Vec<u32>,
}

impl RebuildScheduler {
    /// Scheduler over `disks` physical disks admitting at most
    /// `per_disk_cap` rebuild reads per disk per wave.
    pub fn new(disks: usize, per_disk_cap: u32, fairness: Fairness) -> Self {
        assert!(per_disk_cap > 0, "a zero cap admits nothing, ever");
        RebuildScheduler {
            queues: Vec::new(),
            deficits: Vec::new(),
            quantum: 0,
            cursor: 0,
            fairness,
            per_disk_cap,
            wave_load: vec![0; disks],
        }
    }

    /// Enqueue one stripe repair on its campaign's queue.
    pub fn push(&mut self, item: RebuildItem) {
        for &(disk, _) in &item.disk_reads {
            assert!(
                (disk as usize) < self.wave_load.len(),
                "item reads disk {disk} outside the {}-disk array",
                self.wave_load.len()
            );
        }
        while self.queues.len() <= item.campaign {
            self.queues.push(VecDeque::new());
            self.deficits.push(0);
        }
        self.quantum = self.quantum.max(item.cost());
        self.queues[item.campaign].push_back(item);
    }

    /// Stripes still queued across all campaigns.
    pub fn pending(&self) -> usize {
        self.queues.iter().map(|q| q.len()).sum()
    }

    /// Nothing left to admit?
    pub fn is_empty(&self) -> bool {
        self.queues.iter().all(|q| q.is_empty())
    }

    /// Does `item` fit the wave under the per-disk cap, given current
    /// per-disk load?
    fn fits(&self, item: &RebuildItem) -> bool {
        item.disk_reads
            .iter()
            .all(|&(disk, n)| self.wave_load[disk as usize].saturating_add(n) <= self.per_disk_cap)
    }

    fn charge(&mut self, item: &RebuildItem) {
        for &(disk, n) in &item.disk_reads {
            self.wave_load[disk as usize] += n;
        }
    }

    /// Assemble the next wave: the set of stripes that may repair
    /// concurrently without any disk exceeding the cap. Returns an empty
    /// vec only when no work is queued.
    ///
    /// Progress guarantee: if the wave is still empty after a full
    /// arbitration pass (every queue head individually busts the cap or
    /// its campaign's deficit), the first pending stripe in cursor order
    /// is admitted alone — an over-cap stripe becomes a singleton wave
    /// instead of wedging the rebuild.
    pub fn next_wave(&mut self) -> Vec<RebuildItem> {
        let n = self.queues.len();
        let mut wave = Vec::new();
        if n == 0 {
            return wave;
        }
        for load in &mut self.wave_load {
            *load = 0;
        }
        if self.fairness == Fairness::DeficitWeighted {
            // One quantum per wave for every backlogged campaign; idle
            // campaigns hold no credit (classic DRR resets them).
            for c in 0..n {
                if self.queues[c].is_empty() {
                    self.deficits[c] = 0;
                } else {
                    self.deficits[c] = self.deficits[c].saturating_add(self.quantum);
                }
            }
        }
        // Arbitrate until a full cycle over the campaigns admits nothing.
        loop {
            let mut admitted = false;
            for step in 0..n {
                let c = (self.cursor + step) % n;
                let Some(head) = self.queues[c].front() else {
                    continue;
                };
                if !self.fits(head) {
                    continue;
                }
                match self.fairness {
                    Fairness::RoundRobin => {}
                    Fairness::DeficitWeighted => {
                        if self.deficits[c] < head.cost() {
                            continue;
                        }
                    }
                }
                let item = self.queues[c].pop_front().expect("head exists");
                if self.fairness == Fairness::DeficitWeighted {
                    self.deficits[c] -= item.cost();
                }
                self.charge(&item);
                wave.push(item);
                admitted = true;
            }
            if !admitted {
                break;
            }
            if self.fairness == Fairness::RoundRobin {
                // Rotate so the next cycle (and the next wave) starts at
                // a different campaign — round robin across waves too.
                self.cursor = (self.cursor + 1) % n;
            }
        }
        if wave.is_empty() {
            // Nothing fit. Either all queues are empty (done) or the
            // cursor-first pending head is over-cap/short-of-credit:
            // admit it alone.
            for step in 0..n {
                let c = (self.cursor + step) % n;
                if let Some(item) = self.queues[c].pop_front() {
                    if self.fairness == Fairness::DeficitWeighted {
                        self.deficits[c] = self.deficits[c].saturating_sub(item.cost());
                    }
                    self.cursor = (c + 1) % n;
                    wave.push(item);
                    break;
                }
            }
        }
        wave
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::apply_scheme;
    use crate::RecoveryController;
    use fbf_codes::encode::encode;
    use fbf_codes::{Cell, CodeSpec, Stripe};

    #[test]
    fn campaign_covers_every_stripe() {
        let code = StripeCode::build(CodeSpec::Tip, 7).unwrap();
        let g = rebuild_campaign(&code, 0, 50).unwrap();
        assert_eq!(g.len(), 50);
        let damage = g.damage_by_stripe();
        assert_eq!(damage.len(), 50);
        assert!(damage.iter().all(|d| d.cells.len() == 6));
        assert!(rebuild_campaign(&code, code.cols(), 1).is_err());
    }

    #[test]
    fn rdp_hybrid_rebuild_approaches_the_known_optimum() {
        // Xiang et al. [22]: optimal single-failure RDP recovery reads
        // ~3/4 of what the all-horizontal scheme reads.
        let code = StripeCode::build(CodeSpec::Rdp, 11).unwrap();
        let greedy = rebuild_read_ratio(&code, 0, SchemeKind::Greedy).unwrap();
        assert!(
            greedy < 0.90,
            "greedy rebuild must beat horizontal-only, got ratio {greedy:.3}"
        );
        assert!(
            greedy >= 0.70,
            "cannot beat the theoretical optimum, got {greedy:.3}"
        );
    }

    #[test]
    fn hybrid_helps_every_3dft_code_too() {
        for spec in CodeSpec::ALL {
            let code = StripeCode::build(spec, 7).unwrap();
            let ratio = rebuild_read_ratio(&code, 0, SchemeKind::Greedy).unwrap();
            assert!(ratio <= 1.0, "{spec:?}: {ratio}");
        }
    }

    #[test]
    fn rebuild_schemes_restamp_stripes() {
        let code = StripeCode::build(CodeSpec::Tip, 5).unwrap();
        let mut controller = RecoveryController::new(&code, SchemeKind::FbfCycling);
        let campaign = rebuild_campaign(&code, 2, 10).unwrap();
        let (schemes, _) = controller.plan_campaign(&campaign).unwrap();
        assert_eq!(schemes.len(), 10);
        for (i, s) in schemes.iter().enumerate() {
            assert_eq!(s.stripe, i as u32);
            assert_eq!(s.repairs.len(), code.rows());
        }
        // One format: generated once, restamped nine times.
        assert_eq!(schemes[0].repairs, schemes[9].repairs);
        assert_eq!(controller.memo_stats(), (9, 1));
    }

    #[test]
    fn rebuild_recovers_exact_bytes() {
        for spec in CodeSpec::ALL {
            let code = StripeCode::build(spec, 5).unwrap();
            let mut pristine = Stripe::patterned(code.layout(), 32);
            encode(&code, &mut pristine).unwrap();
            for col in 0..code.cols() {
                let (schemes, _) = RecoveryController::new(&code, SchemeKind::Greedy)
                    .plan_campaign(&rebuild_campaign(&code, col, 1).unwrap())
                    .unwrap_or_else(|e| panic!("{spec:?} col {col}: {e}"));
                let mut damaged = pristine.clone();
                for r in 0..code.rows() {
                    damaged.erase(code.layout(), Cell::new(r, col));
                }
                apply_scheme(&code, &mut damaged, &schemes[0]).unwrap();
                for r in 0..code.rows() {
                    let cell = Cell::new(r, col);
                    assert_eq!(
                        damaged.get(code.layout(), cell),
                        pristine.get(code.layout(), cell),
                        "{spec:?} col {col} row {r}"
                    );
                }
            }
        }
    }

    fn item(campaign: usize, stripe: u32, reads: &[(u32, u32)]) -> RebuildItem {
        RebuildItem {
            campaign,
            stripe,
            disk_reads: reads.to_vec(),
        }
    }

    /// Drain the scheduler, returning every wave.
    fn drain(s: &mut RebuildScheduler) -> Vec<Vec<RebuildItem>> {
        let mut waves = Vec::new();
        while !s.is_empty() {
            let w = s.next_wave();
            assert!(!w.is_empty(), "pending work must always make progress");
            waves.push(w);
        }
        waves
    }

    #[test]
    fn caps_bound_every_wave() {
        let mut s = RebuildScheduler::new(4, 3, Fairness::RoundRobin);
        for stripe in 0..12u32 {
            s.push(item(0, stripe, &[(stripe % 4, 2)]));
        }
        for wave in drain(&mut s) {
            let mut per_disk = [0u32; 4];
            for it in &wave {
                for &(d, n) in &it.disk_reads {
                    per_disk[d as usize] += n;
                }
            }
            assert!(per_disk.iter().all(|&l| l <= 3), "{per_disk:?}");
        }
    }

    #[test]
    fn drain_is_complete_and_exact() {
        let mut s = RebuildScheduler::new(8, 4, Fairness::RoundRobin);
        for stripe in 0..40u32 {
            s.push(item((stripe % 3) as usize, stripe, &[(stripe % 8, 1)]));
        }
        let waves = drain(&mut s);
        let mut seen: Vec<u32> = waves.iter().flatten().map(|i| i.stripe).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..40).collect::<Vec<_>>());
        assert!(s.is_empty());
        assert!(s.next_wave().is_empty(), "drained scheduler yields nothing");
    }

    #[test]
    fn round_robin_interleaves_campaigns() {
        // Two campaigns on disjoint disks; cap admits one stripe of each
        // per wave. Every wave must carry one stripe from *each*.
        let mut s = RebuildScheduler::new(2, 1, Fairness::RoundRobin);
        for stripe in 0..6u32 {
            s.push(item(0, stripe, &[(0, 1)]));
            s.push(item(1, 100 + stripe, &[(1, 1)]));
        }
        for wave in drain(&mut s) {
            let campaigns: Vec<usize> = wave.iter().map(|i| i.campaign).collect();
            assert!(
                campaigns.contains(&0) && campaigns.contains(&1),
                "{campaigns:?}"
            );
        }
    }

    #[test]
    fn drr_admits_one_stripe_of_every_campaign_per_wave() {
        // Four campaigns of equal 20-read stripes under a roomy cap. The
        // quantum covers one stripe, so each wave takes one of each.
        let mut s = RebuildScheduler::new(8, u32::MAX, Fairness::DeficitWeighted);
        for stripe in 0..12u32 {
            let reads: Vec<(u32, u32)> = (0..4).map(|d| ((stripe + d) % 8, 5)).collect();
            s.push(item((stripe % 4) as usize, stripe, &reads));
        }
        let waves = drain(&mut s);
        assert_eq!(waves.len(), 3);
        for wave in &waves {
            let campaigns: Vec<usize> = wave.iter().map(|i| i.campaign).collect();
            assert_eq!(campaigns, [0, 1, 2, 3]);
        }
    }

    #[test]
    fn oversized_item_becomes_a_singleton_wave() {
        // Campaign queues are strict FIFO: an over-cap stripe at the head
        // does not wedge the rebuild and is not bypassed — it goes out
        // alone, then normal admission resumes behind it.
        let mut s = RebuildScheduler::new(2, 2, Fairness::RoundRobin);
        s.push(item(0, 7, &[(0, 10)])); // over cap on its own
        s.push(item(0, 8, &[(1, 1)]));
        let w1 = s.next_wave();
        assert_eq!(w1.iter().map(|i| i.stripe).collect::<Vec<_>>(), vec![7]);
        let w2 = s.next_wave();
        assert_eq!(w2.iter().map(|i| i.stripe).collect::<Vec<_>>(), vec![8]);
        assert!(s.is_empty());
    }

    #[test]
    fn waves_are_deterministic() {
        let build = || {
            let mut s = RebuildScheduler::new(16, 5, Fairness::DeficitWeighted);
            for stripe in 0..64u32 {
                s.push(item(
                    (stripe % 2) as usize,
                    stripe,
                    &[(stripe % 16, 1 + stripe % 3), ((stripe * 7 + 3) % 16, 1)],
                ));
            }
            s
        };
        let (mut a, mut b) = (build(), build());
        while !a.is_empty() || !b.is_empty() {
            assert_eq!(a.next_wave(), b.next_wave());
        }
    }

    #[test]
    fn parse_fairness_spellings() {
        assert_eq!(Fairness::parse("rr"), Some(Fairness::RoundRobin));
        assert_eq!(Fairness::parse("drr"), Some(Fairness::DeficitWeighted));
        assert_eq!(
            Fairness::parse("deficit-weighted"),
            Some(Fairness::DeficitWeighted)
        );
        assert_eq!(Fairness::parse("nope"), None);
        assert_eq!(Fairness::RoundRobin.name(), "round-robin");
    }
}
