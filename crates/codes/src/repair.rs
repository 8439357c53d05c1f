//! Repair options: which chains can rebuild a chunk and at what read cost.
//!
//! Partial-stripe recovery rebuilds each lost chunk through *one* chain.
//! [`repair_options`] enumerates, per lost cell, every chain that covers it
//! together with the exact read set (the other cells of the chain's
//! equation). The FBF scheme generator in `fbf-recovery` picks among these
//! options to maximise read-set overlap.

use crate::chain::{ChainId, Direction};
use crate::codes::StripeCode;
use crate::layout::Cell;

/// One way of rebuilding `target`: read every cell in `reads`, XOR them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RepairOption {
    /// The lost cell this option rebuilds.
    pub target: Cell,
    /// The chain used.
    pub chain: ChainId,
    /// The chain's direction (cached for convenience).
    pub direction: Direction,
    /// Cells that must be fetched: all other members of the chain's
    /// equation, parity included.
    pub reads: Vec<Cell>,
}

impl RepairOption {
    /// Read cost of this option in chunks.
    #[inline]
    pub fn cost(&self) -> usize {
        self.reads.len()
    }
}

/// All repair options for `target`, cheapest first; ties broken by
/// direction order (H, D, A) for determinism.
///
/// Options whose read set includes another *lost* cell are unusable for
/// single-pass repair; pass the full lost set to [`usable_repair_options`]
/// to filter them out.
pub fn repair_options(code: &StripeCode, target: Cell) -> Vec<RepairOption> {
    let mut opts: Vec<RepairOption> = code
        .chains_of(target)
        .iter()
        .map(|&id| option_through(code, target, id))
        .collect();
    opts.sort_by_key(|o| (o.cost(), o.direction));
    opts
}

/// Repair options for `target` that do not depend on any other cell of
/// `lost` (so the repairs of a partial-stripe error can run independently).
pub fn usable_repair_options(code: &StripeCode, target: Cell, lost: &[Cell]) -> Vec<RepairOption> {
    repair_options(code, target)
        .into_iter()
        .filter(|o| !o.reads.iter().any(|c| lost.contains(c) && *c != o.target))
        .collect()
}

/// The option that rebuilds `target` through chain `id` (which must cover
/// it), read set materialised.
pub fn option_through(code: &StripeCode, target: Cell, id: ChainId) -> RepairOption {
    let chain = code.chain(id);
    RepairOption {
        target,
        chain: id,
        direction: chain.direction,
        reads: chain.repair_reads(target),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codes::CodeSpec;

    #[test]
    fn every_data_cell_has_options() {
        for spec in CodeSpec::ALL {
            let code = StripeCode::build(spec, 7).unwrap();
            for cell in code.data_cells() {
                let opts = repair_options(&code, cell);
                assert!(!opts.is_empty(), "{spec} {cell}");
                // Sorted by cost.
                for w in opts.windows(2) {
                    assert!(w[0].cost() <= w[1].cost());
                }
            }
        }
    }

    #[test]
    fn reads_never_include_target() {
        let code = StripeCode::build(CodeSpec::Tip, 7).unwrap();
        for cell in code.data_cells() {
            for opt in repair_options(&code, cell) {
                assert!(!opt.reads.contains(&cell));
            }
        }
    }

    #[test]
    fn usable_options_avoid_lost_cells() {
        let code = StripeCode::build(CodeSpec::Tip, 7).unwrap();
        // Lose the whole top of column 0 — options reading other lost cells
        // must be filtered.
        let lost: Vec<Cell> = (0..4).map(|r| Cell::new(r, 0)).collect();
        for &target in &lost {
            for opt in usable_repair_options(&code, target, &lost) {
                for r in &opt.reads {
                    assert!(!lost.contains(r), "{target} option reads lost cell {r}");
                }
            }
        }
    }

    #[test]
    fn horizontal_always_usable_for_single_column_errors() {
        // Horizontal chains touch each column once, so a one-column error
        // never blocks them.
        for spec in CodeSpec::ALL {
            let code = StripeCode::build(spec, 7).unwrap();
            let lost: Vec<Cell> = (0..code.rows() - 1).map(|r| Cell::new(r, 0)).collect();
            for &target in &lost {
                let usable = usable_repair_options(&code, target, &lost);
                assert!(
                    usable.iter().any(|o| o.direction == Direction::Horizontal),
                    "{spec} {target} lacks horizontal repair"
                );
            }
        }
    }

    #[test]
    fn star_diagonal_repair_includes_adjuster_line() {
        let code = StripeCode::build(CodeSpec::Star, 5).unwrap();
        // A data cell not on the adjuster line.
        let target = Cell::new(0, 0); // (r+j)%5 == 0 != 4
        let opts = repair_options(&code, target);
        let diag = opts
            .iter()
            .find(|o| o.direction == Direction::Diagonal)
            .expect("diagonal option exists");
        // Adjuster line cells: (r+j)%5==4 → (0,4),(1,3),(2,2),(3,1)
        for a in [
            Cell::new(0, 4),
            Cell::new(1, 3),
            Cell::new(2, 2),
            Cell::new(3, 1),
        ] {
            assert!(diag.reads.contains(&a), "missing adjuster cell {a}");
        }
    }
}
