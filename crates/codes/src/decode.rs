//! Erasure decoding: peeling first, GF(2) elimination as fallback.
//!
//! The decoder works on an *erasure set* — a list of cells whose payloads
//! are unknown — and restores them in place:
//!
//! 1. **Peeling.** Repeatedly find a chain whose equation contains exactly
//!    one erased cell; that cell is the XOR of the chain's other cells.
//!    Peeling is what real reconstruction does and is all the partial-stripe
//!    scenarios of the FBF paper need (errors confined to a single column).
//! 2. **Gaussian elimination over GF(2).** If peeling stalls (some whole-
//!    column erasure combinations need it), set up the linear system of all
//!    chain equations restricted to the remaining unknowns and solve it.
//!    Each unknown is a bit-position in `u64` words, so elimination is
//!    word-parallel.
//!
//! Returns [`CodeError::Unrecoverable`] when the system is singular, i.e.
//! the pattern exceeds the code's correction capability.

use crate::codes::StripeCode;
use crate::hash::{FxHashMap, FxHashSet};
use crate::layout::Cell;
use crate::stripe::Stripe;
use crate::xor::xor_into;
use crate::{CodeError, Result};

/// Outcome details of a successful decode, for diagnostics and tests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeReport {
    /// Cells recovered by the peeling phase, in recovery order.
    pub peeled: Vec<Cell>,
    /// Cells recovered by Gaussian elimination.
    pub eliminated: Vec<Cell>,
}

impl DecodeReport {
    /// Total recovered cells.
    pub fn total(&self) -> usize {
        self.peeled.len() + self.eliminated.len()
    }
}

/// Restore the `erased` cells of `stripe` in place.
///
/// The caller must have zeroed or otherwise invalidated the erased cells'
/// payloads is *not* required — they are recomputed from scratch and
/// overwritten.
pub fn decode(code: &StripeCode, stripe: &mut Stripe, erased: &[Cell]) -> Result<DecodeReport> {
    for &c in erased {
        if !code.layout().contains(c) {
            return Err(CodeError::OutOfBounds(c));
        }
    }
    let mut unknown: FxHashSet<Cell> = erased.iter().copied().collect();
    let mut report = DecodeReport {
        peeled: Vec::new(),
        eliminated: Vec::new(),
    };

    // Phase 1: peeling.
    let mut progress = true;
    while progress && !unknown.is_empty() {
        progress = false;
        for chain in code.chains() {
            let mut missing: Option<Cell> = None;
            let mut count = 0;
            for cell in chain.all_cells() {
                if unknown.contains(&cell) {
                    count += 1;
                    missing = Some(cell);
                    if count > 1 {
                        break;
                    }
                }
            }
            if count == 1 {
                let target = missing.expect("count==1 implies a cell");
                let mut acc = vec![0u8; stripe.chunk_size()];
                for cell in chain.all_cells() {
                    if cell != target {
                        xor_into(&mut acc, stripe.get(code.layout(), cell));
                    }
                }
                stripe.set(code.layout(), target, acc.into());
                unknown.remove(&target);
                report.peeled.push(target);
                progress = true;
            }
        }
    }

    if unknown.is_empty() {
        return Ok(report);
    }

    // Phase 2: GF(2) elimination over the remaining unknowns.
    let recovered = eliminate(code, stripe, &unknown)?;
    for (cell, buf) in recovered {
        stripe.set(code.layout(), cell, buf);
        report.eliminated.push(cell);
    }
    Ok(report)
}

/// Solve for all cells in `unknown` simultaneously via GF(2) elimination.
#[allow(clippy::needless_range_loop)] // indices address several arrays at once
fn eliminate(
    code: &StripeCode,
    stripe: &Stripe,
    unknown: &FxHashSet<Cell>,
) -> Result<Vec<(Cell, crate::ChunkBuf)>> {
    let unknowns: Vec<Cell> = {
        let mut v: Vec<Cell> = unknown.iter().copied().collect();
        v.sort_unstable();
        v
    };
    let col_of: FxHashMap<Cell, usize> =
        unknowns.iter().enumerate().map(|(i, &c)| (c, i)).collect();
    let nvars = unknowns.len();
    let words = nvars.div_ceil(64);

    // Each equation: coefficient bitset over unknowns + RHS payload
    // (XOR of the chain's known cells).
    struct Row {
        coeffs: Vec<u64>,
        rhs: Vec<u8>,
    }
    let mut rows: Vec<Row> = Vec::new();
    for chain in code.chains() {
        let mut coeffs = vec![0u64; words];
        let mut rhs = vec![0u8; stripe.chunk_size()];
        let mut touches = false;
        for cell in chain.all_cells() {
            if let Some(&i) = col_of.get(&cell) {
                coeffs[i / 64] ^= 1u64 << (i % 64);
                touches = true;
            } else {
                xor_into(&mut rhs, stripe.get(code.layout(), cell));
            }
        }
        if touches {
            rows.push(Row { coeffs, rhs });
        }
    }

    // Forward elimination with partial pivoting by leading variable.
    let mut pivot_rows: Vec<Option<usize>> = vec![None; nvars];
    let mut used = vec![false; rows.len()];
    for var in 0..nvars {
        let bit = |r: &Row| (r.coeffs[var / 64] >> (var % 64)) & 1 == 1;
        let Some(pivot) = (0..rows.len()).find(|&i| !used[i] && bit(&rows[i])) else {
            continue;
        };
        used[pivot] = true;
        pivot_rows[var] = Some(pivot);
        // Clear this variable from every other row.
        let (pc, pr) = (rows[pivot].coeffs.clone(), rows[pivot].rhs.clone());
        for i in 0..rows.len() {
            if i != pivot && bit(&rows[i]) {
                for (a, b) in rows[i].coeffs.iter_mut().zip(&pc) {
                    *a ^= b;
                }
                xor_into(&mut rows[i].rhs, &pr);
            }
        }
    }

    let unresolved = pivot_rows.iter().filter(|p| p.is_none()).count();
    if unresolved > 0 {
        return Err(CodeError::Unrecoverable { unresolved });
    }

    // Back-substitution: after full elimination each pivot row has exactly
    // its own variable left (we cleared it from all other rows), so the RHS
    // *is* the solution once every other variable in the row is removed.
    // Because we eliminated var-by-var across all rows, each pivot row may
    // still contain later variables; resolve from the last variable down.
    let mut solution: Vec<Option<crate::ChunkBuf>> = vec![None; nvars];
    for var in (0..nvars).rev() {
        let row = &rows[pivot_rows[var].expect("checked above")];
        let mut val = row.rhs.clone();
        for v2 in var + 1..nvars {
            if (row.coeffs[v2 / 64] >> (v2 % 64)) & 1 == 1 {
                let s = solution[v2].as_ref().expect("resolved in reverse order");
                xor_into(&mut val, s);
            }
        }
        solution[var] = Some(val.into());
    }

    Ok(unknowns
        .into_iter()
        .zip(solution.into_iter().map(|s| s.expect("all solved")))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codes::CodeSpec;
    use crate::encode::encode;

    fn encoded(spec: CodeSpec, p: usize) -> (StripeCode, Stripe) {
        let code = StripeCode::build(spec, p).unwrap();
        let mut stripe = Stripe::patterned(code.layout(), 32);
        encode(&code, &mut stripe).unwrap();
        (code, stripe)
    }

    #[test]
    fn single_cell_erasures_peel() {
        for spec in CodeSpec::ALL {
            let (code, stripe) = encoded(spec, 7);
            for cell in code.layout().cells().collect::<Vec<_>>() {
                let mut s = stripe.clone();
                let orig = s.get(code.layout(), cell).clone();
                s.erase(code.layout(), cell);
                let rep = decode(&code, &mut s, &[cell]).unwrap();
                assert_eq!(rep.peeled, vec![cell], "{spec} {cell}");
                assert_eq!(s.get(code.layout(), cell), &orig, "{spec} {cell}");
            }
        }
    }

    #[test]
    fn partial_column_erasures_recover() {
        // The paper's scenario: 1..p-1 consecutive chunks lost on one disk.
        for spec in CodeSpec::ALL {
            let (code, stripe) = encoded(spec, 7);
            for col in 0..code.cols() {
                for len in 1..code.rows() {
                    let erased: Vec<Cell> = (0..len).map(|r| Cell::new(r, col)).collect();
                    let mut s = stripe.clone();
                    let originals: Vec<_> = erased
                        .iter()
                        .map(|&c| s.get(code.layout(), c).clone())
                        .collect();
                    for &c in &erased {
                        s.erase(code.layout(), c);
                    }
                    decode(&code, &mut s, &erased)
                        .unwrap_or_else(|e| panic!("{spec} col={col} len={len}: {e}"));
                    for (c, orig) in erased.iter().zip(&originals) {
                        assert_eq!(s.get(code.layout(), *c), orig, "{spec} col={col} len={len}");
                    }
                }
            }
        }
    }

    #[test]
    fn full_single_column_erasure_recovers() {
        for spec in CodeSpec::ALL {
            let (code, stripe) = encoded(spec, 5);
            for col in 0..code.cols() {
                let erased: Vec<Cell> = (0..code.rows()).map(|r| Cell::new(r, col)).collect();
                let mut s = stripe.clone();
                for &c in &erased {
                    s.erase(code.layout(), c);
                }
                decode(&code, &mut s, &erased).unwrap_or_else(|e| panic!("{spec} col={col}: {e}"));
                for &c in &erased {
                    assert_eq!(s.get(code.layout(), c), stripe.get(code.layout(), c));
                }
            }
        }
    }

    #[test]
    fn double_column_erasure_recovers() {
        for spec in CodeSpec::ALL {
            let (code, stripe) = encoded(spec, 5);
            for c1 in 0..code.cols() {
                for c2 in c1 + 1..code.cols() {
                    let erased: Vec<Cell> = (0..code.rows())
                        .flat_map(|r| [Cell::new(r, c1), Cell::new(r, c2)])
                        .collect();
                    let mut s = stripe.clone();
                    for &c in &erased {
                        s.erase(code.layout(), c);
                    }
                    decode(&code, &mut s, &erased)
                        .unwrap_or_else(|e| panic!("{spec} cols=({c1},{c2}): {e}"));
                    for &c in &erased {
                        assert_eq!(s.get(code.layout(), c), stripe.get(code.layout(), c));
                    }
                }
            }
        }
    }

    #[test]
    fn out_of_bounds_erasure_rejected() {
        let (code, mut stripe) = encoded(CodeSpec::Tip, 5);
        let bad = Cell::new(99, 0);
        assert!(matches!(
            decode(&code, &mut stripe, &[bad]),
            Err(CodeError::OutOfBounds(_))
        ));
    }

    #[test]
    fn decode_of_nothing_is_noop() {
        let (code, mut stripe) = encoded(CodeSpec::Star, 5);
        let rep = decode(&code, &mut stripe, &[]).unwrap();
        assert_eq!(rep.total(), 0);
    }
}
