//! The Recovery Method Generator of the paper's Fig. 4, as a service.
//!
//! The RAID controller receives partial-stripe error notifications and
//! must produce, per stripe: a recovery scheme, its chunks' priorities,
//! and the worker script. §III-A-1 points out that the expensive
//! part — scheme generation — only depends on the error's *format* (which
//! column, which rows), not on the stripe number: "these priorities can
//! be enumerated once a same format of partial stripe error is detected
//! again, and no more calculation is required".
//!
//! [`RecoveryController`] implements exactly that: everything a format
//! decides — repairs, priority table, per-column read histogram, lowered
//! length — is one [`FormatPlan`](crate::scheme::FormatPlan) memoised by
//! damage format. A recurring format (most recur heavily in a campaign —
//! there are only `O(cols · rows²)` of them) costs a hash lookup and a
//! stamp: one reference-count bump, nothing copied. The
//! `table4_overhead` bench measures the effect.
//!
//! [`RecoveryController::plan_for`] is the one place the chained-or-joint
//! choice is made; the [`StripePlan`] it returns carries the stripe's
//! priorities and restores its bytes.

use crate::error::{merge_run, stripe_runs, ErrorGroup, PartialStripeError, StripeDamage};
use crate::exec::apply_scheme;
use crate::joint::JointRepair;
use crate::priority::PriorityDictionary;
use crate::scheme::{FormatPlan, RecoveryScheme, SchemeError, SchemeKind};
use fbf_codes::decode::decode;
use fbf_codes::hash::FxHashMap;
use fbf_codes::{Cell, CodeError, Stripe, StripeCode};
use std::borrow::Borrow;
use std::sync::Arc;

/// One stripe's repair plan: chain-by-chain (the normal case) or a joint
/// decode (fallback when no chain ordering exists — see [`crate::joint`]).
/// It is the one place the stripe's priorities live.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StripePlan {
    /// Ordered single-chain repairs.
    Chained(RecoveryScheme),
    /// Fetch-everything-and-solve fallback.
    Joint(JointRepair),
}

impl StripePlan {
    /// The stripe this plan repairs.
    pub fn stripe(&self) -> u32 {
        match self {
            StripePlan::Chained(s) => s.stripe,
            StripePlan::Joint(j) => j.stripe,
        }
    }

    /// The cells this plan rebuilds: the stripe's lost cells.
    pub fn lost(&self) -> impl Iterator<Item = Cell> + '_ {
        let (repairs, joint) = match self {
            StripePlan::Chained(s) => (&s.repairs[..], &[][..]),
            StripePlan::Joint(j) => (&[][..], &j.lost[..]),
        };
        repairs
            .iter()
            .map(|r| r.target)
            .chain(joint.iter().copied())
    }

    /// FBF priority of reading `cell` (Table II). A joint read set carries
    /// no chain-share structure, so every joint read is priority 1.
    pub(crate) fn priority(&self, cell: Cell) -> u8 {
        match self {
            StripePlan::Chained(s) => s.priority(cell),
            StripePlan::Joint(_) => 1,
        }
    }

    /// Execute against real payloads: rebuild the lost cells of `stripe`
    /// in place. The caller has erased (or corrupted) them.
    pub fn restore(&self, code: &StripeCode, stripe: &mut Stripe) -> Result<(), CodeError> {
        match self {
            StripePlan::Chained(scheme) => apply_scheme(code, stripe, scheme),
            // The decoder reads exactly from the chains whose cells the
            // joint plan fetches, so its read set is sufficient.
            StripePlan::Joint(joint) => decode(code, stripe, &joint.lost).map(|_| ()),
        }
    }
}

/// Damage format: the stripe-independent shape of a lost-cell set.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct Format(Vec<Cell>);

/// Lets the memo be probed with a borrowed cell slice, so the hit path —
/// the common case in a campaign — allocates nothing. Sound because
/// `Vec<Cell>` hashes and compares exactly as its slice does.
impl Borrow<[Cell]> for Format {
    fn borrow(&self) -> &[Cell] {
        &self.0
    }
}

/// Scheme generator with format memoisation.
pub struct RecoveryController<'a> {
    code: &'a StripeCode,
    kind: SchemeKind,
    /// What each format planned so far decides, stamped onto its stripes.
    memo: FxHashMap<Format, Arc<FormatPlan>>,
    /// Per-chain still-lost counts of the generation under way, kept so
    /// no generation allocates them.
    counts: Vec<u16>,
    hits: usize,
    misses: usize,
}

impl<'a> RecoveryController<'a> {
    /// A controller for `code` using the `kind` scheme generator.
    pub fn new(code: &'a StripeCode, kind: SchemeKind) -> Self {
        RecoveryController {
            code,
            kind,
            memo: FxHashMap::default(),
            counts: Vec::new(),
            hits: 0,
            misses: 0,
        }
    }

    /// Scheme for one stripe's damage, memoised by format.
    pub fn scheme_for(&mut self, damage: &StripeDamage) -> Result<RecoveryScheme, SchemeError> {
        self.scheme_for_cells(damage.stripe, &damage.cells)
    }

    /// [`scheme_for`](Self::scheme_for) on `stripe`'s lost cells, which
    /// must be distinct.
    fn scheme_for_cells(
        &mut self,
        stripe: u32,
        cells: &[Cell],
    ) -> Result<RecoveryScheme, SchemeError> {
        if let Some(format) = self.memo.get(cells) {
            self.hits += 1;
            return Ok(RecoveryScheme::stamp(format, stripe));
        }
        self.misses += 1;
        let format = FormatPlan::generate(self.code, cells, self.kind, &mut self.counts)?;
        let format = Arc::new(format);
        let scheme = RecoveryScheme::stamp(&format, stripe);
        self.memo.insert(Format(cells.to_vec()), format);
        Ok(scheme)
    }

    /// Plan for one stripe's damage: its chained scheme, or — when no
    /// chain ordering exists (possible for multi-column damage on STAR) —
    /// a joint decode, so one unorderable stripe never fails a campaign.
    pub fn plan_for(&mut self, damage: &StripeDamage) -> StripePlan {
        match self.scheme_for(damage) {
            Ok(scheme) => StripePlan::Chained(scheme),
            Err(SchemeError::Unschedulable(_)) => {
                StripePlan::Joint(JointRepair::new(self.code, damage.stripe, &damage.cells))
            }
        }
    }

    /// Plan a whole campaign: schemes (stripe order) plus the priority
    /// dictionary over them, in which stripes of one format share one
    /// table.
    pub fn plan_campaign(
        &mut self,
        group: &ErrorGroup,
    ) -> Result<(Vec<RecoveryScheme>, PriorityDictionary), SchemeError> {
        let errors = group.by_stripe();
        let runs = stripe_runs(&errors);
        let schemes = self.plan_runs(&runs)?;
        let dictionary = PriorityDictionary::from_schemes(&schemes);
        Ok((schemes, dictionary))
    }

    /// The schemes of damaged stripes given as their runs of errors (see
    /// [`ErrorGroup::by_stripe`]), one entry per run. The runs are merged
    /// through one reused cell buffer, not a list per stripe.
    pub(crate) fn plan_runs(
        &mut self,
        runs: &[&[&PartialStripeError]],
    ) -> Result<Vec<RecoveryScheme>, SchemeError> {
        let mut schemes = Vec::with_capacity(runs.len());
        let mut cells = Vec::with_capacity(self.code.rows());
        for run in runs {
            merge_run(run, &mut cells);
            schemes.push(self.scheme_for_cells(run[0].stripe, &cells)?);
        }
        Ok(schemes)
    }

    /// (memo hits, memo misses) — misses are the only full generations.
    pub fn memo_stats(&self) -> (usize, usize) {
        (self.hits, self.misses)
    }

    /// Distinct formats planned so far.
    pub fn formats(&self) -> usize {
        self.memo.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::PartialStripeError;
    use fbf_codes::CodeSpec;

    fn code() -> StripeCode {
        StripeCode::build(CodeSpec::Tip, 7).unwrap()
    }

    #[test]
    fn identical_formats_hit_the_memo() {
        let code = code();
        let mut ctl = RecoveryController::new(&code, SchemeKind::FbfCycling);
        let mut group = ErrorGroup::new();
        for stripe in 0..20 {
            group.push(PartialStripeError::new(&code, stripe, 0, 1, 3).unwrap());
        }
        let (schemes, _) = ctl.plan_campaign(&group).unwrap();
        assert_eq!(schemes.len(), 20);
        let (hits, misses) = ctl.memo_stats();
        assert_eq!(misses, 1, "one format, one generation");
        assert_eq!(hits, 19);
        // Restamping is correct.
        for (i, s) in schemes.iter().enumerate() {
            assert_eq!(s.stripe, i as u32);
        }
        assert_eq!(schemes[0].repairs, schemes[19].repairs);
    }

    #[test]
    fn memoised_schemes_equal_direct_generation() {
        let code = code();
        let mut ctl = RecoveryController::new(&code, SchemeKind::Greedy);
        let mut group = ErrorGroup::new();
        for stripe in 0..10 {
            let col = (stripe as usize) % code.cols();
            group.push(PartialStripeError::new(&code, stripe, col, 0, 4).unwrap());
        }
        let (schemes, dict) = ctl.plan_campaign(&group).unwrap();
        let direct =
            crate::parallel::generate_schemes_parallel(&code, &group, SchemeKind::Greedy, 1)
                .unwrap();
        assert_eq!(schemes, direct);
        let direct_dict = PriorityDictionary::from_schemes(&direct);
        assert_eq!(dict, direct_dict);
    }

    #[test]
    fn distinct_formats_generate_separately() {
        let code = code();
        let mut ctl = RecoveryController::new(&code, SchemeKind::FbfCycling);
        let mut group = ErrorGroup::new();
        group.push(PartialStripeError::new(&code, 0, 0, 0, 2).unwrap());
        group.push(PartialStripeError::new(&code, 1, 0, 0, 3).unwrap());
        group.push(PartialStripeError::new(&code, 2, 1, 0, 2).unwrap());
        ctl.plan_campaign(&group).unwrap();
        assert_eq!(ctl.formats(), 3);
    }
}
