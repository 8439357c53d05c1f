//! Joint-decode repair: the fallback when chain-by-chain repair stalls.
//!
//! Sequential single-chain repair (what the paper's scheme generator
//! produces) is strictly weaker than the code's erasure capability: some
//! multi-column damage patterns — notably on STAR, whose adjuster chains
//! span many columns — admit no ordering in which every repair's chain is
//! fully available, even though the joint GF(2) system is solvable. A real
//! controller then reads every surviving cell the relevant equations touch
//! and solves them *simultaneously*.
//!
//! [`JointRepair`] models exactly that: the read set is the union of the
//! surviving cells of all chains covering any lost cell, the computation is
//! one decoder invocation, and each lost chunk gets a spare write.

use fbf_codes::{Cell, StripeCode};
use std::collections::BTreeSet;

/// A joint-decode plan for one stripe's damage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JointRepair {
    /// The stripe under repair.
    pub stripe: u32,
    /// The lost cells, sorted.
    pub lost: Vec<Cell>,
    /// Surviving cells that must be fetched: every cell of every chain
    /// that covers a lost cell, minus the lost cells themselves. Sorted.
    pub reads: Vec<Cell>,
}

impl JointRepair {
    /// Build the plan for `lost` cells of `stripe`.
    pub fn new(code: &StripeCode, stripe: u32, lost: &[Cell]) -> Self {
        let lost_set: BTreeSet<Cell> = lost.iter().copied().collect();
        let mut reads: BTreeSet<Cell> = BTreeSet::new();
        for &cell in &lost_set {
            for &chain_id in code.chains_of(cell) {
                for c in code.chain(chain_id).all_cells() {
                    if !lost_set.contains(&c) {
                        reads.insert(c);
                    }
                }
            }
        }
        JointRepair {
            stripe,
            lost: lost_set.into_iter().collect(),
            reads: reads.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{RecoveryController, SchemeKind, StripeDamage, StripePlan};
    use fbf_codes::encode::encode;
    use fbf_codes::{CodeSpec, Stripe};

    #[test]
    fn joint_plan_covers_the_stalling_star_pattern() {
        // STAR p=7, columns {0, 3}, rows 0..4 — chain-by-chain repair is
        // unorderable (see recovery prop tests), joint decode is not.
        let code = StripeCode::build(CodeSpec::Star, 7).unwrap();
        let lost: Vec<Cell> = [0usize, 3]
            .iter()
            .flat_map(|&c| (0..4).map(move |r| Cell::new(r, c)))
            .collect();
        let damage = StripeDamage {
            stripe: 0,
            cells: lost.clone(),
        };
        let plan = RecoveryController::new(&code, SchemeKind::FbfCycling).plan_for(&damage);
        let StripePlan::Joint(joint) = &plan else {
            panic!("precondition: this pattern must actually stall chain repair");
        };
        assert_eq!(joint, &JointRepair::new(&code, 0, &lost));
        assert!(!joint.reads.is_empty());
        for cell in &joint.reads {
            assert!(!joint.lost.contains(cell));
            assert_eq!(plan.priority(*cell), 1, "joint reads share no chain");
        }

        let mut pristine = Stripe::patterned(code.layout(), 32);
        encode(&code, &mut pristine).unwrap();
        let mut damaged = pristine.clone();
        for &c in &lost {
            damaged.erase(code.layout(), c);
        }
        plan.restore(&code, &mut damaged).unwrap();
        for &c in &lost {
            assert_eq!(
                damaged.get(code.layout(), c),
                pristine.get(code.layout(), c)
            );
        }
    }

    #[test]
    fn read_set_is_union_of_covering_chains() {
        let code = StripeCode::build(CodeSpec::Tip, 5).unwrap();
        let lost = vec![Cell::new(0, 0)];
        let plan = JointRepair::new(&code, 0, &lost);
        let mut expect: BTreeSet<Cell> = BTreeSet::new();
        for &id in code.chains_of(Cell::new(0, 0)) {
            expect.extend(code.chain(id).all_cells());
        }
        expect.remove(&Cell::new(0, 0));
        assert_eq!(plan.reads, expect.into_iter().collect::<Vec<_>>());
    }
}
