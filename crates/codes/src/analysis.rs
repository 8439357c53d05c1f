//! Code-structure analysis: the metrics erasure-code papers compare on.
//!
//! The codes the FBF paper evaluates were each published on the strength
//! of structural metrics — storage efficiency (TIP: optimal for `p+1`),
//! update complexity (TIP: optimal; Triple-STAR: optimal encoding
//! complexity), chain lengths (reconstruction cost). This module computes
//! them from the chain set, so the `code_comparison` bench can reproduce
//! that style of table and the tests can pin the expected values.

use crate::codes::StripeCode;
use crate::layout::Cell;

/// Structural metrics of one code instance.
#[derive(Debug, Clone, PartialEq)]
pub struct CodeMetrics {
    /// Fraction of cells storing data (`k / n` in coding terms).
    pub storage_efficiency: f64,
    /// Mean number of parity cells that must be updated when one data
    /// cell is written (chain memberships of a data cell). 3 is optimal
    /// for a 3DFT MDS code; STAR's adjusters push it higher.
    pub avg_update_complexity: f64,
    /// Worst-case update complexity over all data cells.
    pub max_update_complexity: usize,
    /// Mean chain length (members per parity equation) — proportional to
    /// encoding cost per parity cell.
    pub avg_chain_length: f64,
    /// Mean single-chunk repair cost: the cheapest repair option's read
    /// count, averaged over data cells.
    pub avg_repair_reads: f64,
}

/// Compute [`CodeMetrics`] for a built code.
pub fn analyze(code: &StripeCode) -> CodeMetrics {
    let layout = code.layout();
    let data_cells: Vec<Cell> = layout.data_cells().collect();
    let storage_efficiency = data_cells.len() as f64 / layout.len() as f64;

    // Update complexity: writing data cell d requires updating every
    // parity whose equation contains d (chain membership count).
    let (mut sum_upd, mut max_upd) = (0usize, 0usize);
    for &cell in &data_cells {
        let upd = code.chains_of(cell).len();
        sum_upd += upd;
        max_upd = max_upd.max(upd);
    }

    let avg_chain_length =
        code.chains().iter().map(|c| c.len() as f64).sum::<f64>() / code.chains().len() as f64;

    let avg_repair_reads = data_cells
        .iter()
        .map(|&cell| {
            crate::repair::repair_options(code, cell)
                .first()
                .map_or(0, |o| o.cost()) as f64
        })
        .sum::<f64>()
        / data_cells.len() as f64;

    CodeMetrics {
        storage_efficiency,
        avg_update_complexity: sum_upd as f64 / data_cells.len() as f64,
        max_update_complexity: max_upd,
        avg_chain_length,
        avg_repair_reads,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codes::CodeSpec;

    fn metrics(spec: CodeSpec, p: usize) -> CodeMetrics {
        analyze(&StripeCode::build(spec, p).unwrap())
    }

    #[test]
    fn storage_efficiency_exact_values() {
        // All codes keep exactly 3 (or 2 for RAID-6) columns of parity, so
        // efficiency is d / (d + parity_cols) and *rises* with width:
        // STAR (p+3) > Triple-STAR (p+2) > TIP (p+1) at equal p. (Each
        // published code's claim is optimality *at its own disk count*.)
        let tip = metrics(CodeSpec::Tip, 11).storage_efficiency;
        let ts = metrics(CodeSpec::TripleStar, 11).storage_efficiency;
        let star = metrics(CodeSpec::Star, 11).storage_efficiency;
        assert!(star > ts && ts > tip, "{star} {ts} {tip}");
        // Exact values: data = (p-1)*d of (p-1)*(d+3) cells.
        assert!((tip - 9.0 / 12.0).abs() < 1e-12);
        assert!((ts - 10.0 / 13.0).abs() < 1e-12);
        assert!((star - 11.0 / 14.0).abs() < 1e-12);
    }

    #[test]
    fn adjuster_free_codes_have_near_optimal_update_complexity() {
        // Most data cells sit on 3 chains; cells on the two unprotected
        // residue lines sit on 2. Average must be < 3 and ≥ 2.
        for spec in [CodeSpec::Tip, CodeSpec::Hdd1, CodeSpec::TripleStar] {
            let m = metrics(spec, 11);
            assert!(
                m.avg_update_complexity > 2.0 && m.avg_update_complexity <= 3.0,
                "{spec:?}: {m:?}"
            );
            assert_eq!(m.max_update_complexity, 3, "{spec:?}");
        }
    }

    #[test]
    fn star_adjusters_inflate_update_complexity() {
        // STAR adjuster-line cells appear in every diagonal equation:
        // updating one requires touching ~p parities.
        let m = metrics(CodeSpec::Star, 7);
        assert!(m.max_update_complexity > 3, "{m:?}");
        assert!(m.avg_update_complexity > 3.0, "{m:?}");
    }

    #[test]
    fn raid6_updates_at_most_two_parities() {
        let m = metrics(CodeSpec::Rdp, 7);
        assert!(m.max_update_complexity <= 2);
    }

    #[test]
    fn repair_reads_scale_with_p() {
        let small = metrics(CodeSpec::Tip, 5).avg_repair_reads;
        let large = metrics(CodeSpec::Tip, 13).avg_repair_reads;
        assert!(large > small);
    }
}
