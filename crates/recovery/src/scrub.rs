//! Background scrubbing: detecting and locating *silent* corruption.
//!
//! §II-C of the paper motivates partial-stripe repair with software errors
//! that no disk-level CRC catches — misdirected/torn writes, data-path
//! corruption, parity pollution ("8.5% of SATA disks would develop silent
//! corruptions, and 13% of them are even missed by background
//! verification"). A partial stripe error can only be repaired once it is
//! *found*, and a scrubber is how arrays find them.
//!
//! The scrubber works from chain *syndromes*: for every parity chain, the
//! XOR of all its cells (members ⊕ parity) must be zero. A corrupted cell
//! flips exactly the chains that cover it, so the *violation pattern* is a
//! fingerprint:
//!
//! * compute the violated chain set;
//! * a candidate corruption set is any small set of cells whose combined
//!   (symmetric-difference) coverage equals the violated set;
//! * if the location is unambiguous, repair = erase the located cells and
//!   run the ordinary erasure decoder.
//!
//! Location is exact for single corrupted cells whose coverage fingerprint
//! is unique (the common case) and enumerates candidates for pairs.

use fbf_codes::decode::decode;
use fbf_codes::{Cell, ChainId, Stripe, StripeCode};
use std::collections::BTreeSet;

/// Result of a scrub pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScrubOutcome {
    /// Every chain syndrome was zero.
    Clean,
    /// Corruption detected, located unambiguously, repaired and
    /// re-verified.
    Repaired(Vec<Cell>),
    /// Corruption detected but the violation pattern matches several
    /// candidate cell sets — repair refused, candidates reported.
    Ambiguous(Vec<Vec<Cell>>),
    /// Corruption detected and no candidate within the search bound
    /// explains the pattern (more cells corrupted than the scrubber
    /// searches for).
    Unlocatable,
}

/// Chains whose XOR equation does not hold for this stripe.
pub fn violated_chains(code: &StripeCode, stripe: &Stripe) -> BTreeSet<ChainId> {
    fbf_codes::encode::verify(code, stripe)
        .into_iter()
        .collect()
}

/// Candidate corruption sets of size ≤ `max_cells` whose combined coverage
/// equals `violated`. Sorted smallest-first, so single-cell explanations
/// precede pair explanations.
pub fn locate(code: &StripeCode, violated: &BTreeSet<ChainId>, max_cells: usize) -> Vec<Vec<Cell>> {
    if violated.is_empty() {
        return Vec::new();
    }
    let mut candidates = Vec::new();
    let cells: Vec<Cell> = code.layout().cells().collect();

    // Size 1: coverage must equal the violated set exactly.
    for &cell in &cells {
        let cover: BTreeSet<ChainId> = code.chains_of(cell).iter().copied().collect();
        if !cover.is_empty() && cover == *violated {
            candidates.push(vec![cell]);
        }
    }
    if max_cells >= 2 && candidates.is_empty() {
        // Size 2: symmetric difference of the two coverages (a chain
        // covering both cells sees both corruptions cancel only if the
        // corrupting XOR deltas are equal — generically they are not, so
        // we use the union for shared chains; to stay conservative we
        // accept both the symmetric-difference and union interpretations).
        for i in 0..cells.len() {
            let ca: BTreeSet<ChainId> = code.chains_of(cells[i]).iter().copied().collect();
            if ca.is_empty() {
                continue;
            }
            for j in i + 1..cells.len() {
                let cb: BTreeSet<ChainId> = code.chains_of(cells[j]).iter().copied().collect();
                if cb.is_empty() {
                    continue;
                }
                let union: BTreeSet<ChainId> = ca.union(&cb).copied().collect();
                let symdiff: BTreeSet<ChainId> = ca.symmetric_difference(&cb).copied().collect();
                if union == *violated || symdiff == *violated {
                    candidates.push(vec![cells[i], cells[j]]);
                }
            }
        }
    }
    candidates
}

/// One full scrub pass: verify, locate, repair, re-verify.
///
/// `max_cells` bounds the located corruption size (2 covers the spatially
/// correlated double-corruption case the LSE studies describe).
pub fn scrub(code: &StripeCode, stripe: &mut Stripe, max_cells: usize) -> ScrubOutcome {
    let violated = violated_chains(code, stripe);
    if violated.is_empty() {
        return ScrubOutcome::Clean;
    }
    let candidates = locate(code, &violated, max_cells);
    match candidates.len() {
        0 => ScrubOutcome::Unlocatable,
        1 => {
            let cells = candidates.into_iter().next().expect("len checked");
            // Treat the located cells as erasures and decode.
            if decode(code, stripe, &cells).is_err() {
                return ScrubOutcome::Unlocatable;
            }
            if violated_chains(code, stripe).is_empty() {
                ScrubOutcome::Repaired(cells)
            } else {
                ScrubOutcome::Unlocatable
            }
        }
        _ => ScrubOutcome::Ambiguous(candidates),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fbf_codes::encode::encode;
    use fbf_codes::CodeSpec;

    fn encoded(spec: CodeSpec, p: usize) -> (StripeCode, Stripe) {
        let code = StripeCode::build(spec, p).unwrap();
        let mut stripe = Stripe::patterned(code.layout(), 32);
        encode(&code, &mut stripe).unwrap();
        (code, stripe)
    }

    fn corrupt(code: &StripeCode, stripe: &mut Stripe, cell: Cell) {
        let mut buf = stripe.get(code.layout(), cell).to_vec();
        buf[0] ^= 0x5A;
        buf[7] ^= 0xFF;
        stripe.set(code.layout(), cell, buf.into());
    }

    #[test]
    fn clean_stripe_is_clean() {
        let (code, mut stripe) = encoded(CodeSpec::Tip, 7);
        assert_eq!(scrub(&code, &mut stripe, 2), ScrubOutcome::Clean);
    }

    #[test]
    fn single_corruption_located_and_repaired() {
        for spec in CodeSpec::ALL {
            let (code, pristine) = encoded(spec, 7);
            let mut repaired = 0;
            for cell in code.layout().cells().collect::<Vec<_>>() {
                let mut s = pristine.clone();
                corrupt(&code, &mut s, cell);
                match scrub(&code, &mut s, 1) {
                    ScrubOutcome::Repaired(located) => {
                        assert_eq!(located, vec![cell], "{spec:?} {cell}");
                        assert_eq!(
                            s.get(code.layout(), cell),
                            pristine.get(code.layout(), cell)
                        );
                        repaired += 1;
                    }
                    ScrubOutcome::Ambiguous(_) => {
                        // Some cells share a coverage fingerprint (possible
                        // for parity-only cells); ambiguity is honest.
                    }
                    other => panic!("{spec:?} {cell}: unexpected {other:?}"),
                }
            }
            assert!(
                repaired * 10 >= code.layout().len() * 8,
                "{spec:?}: at least 80% of cells must have unique fingerprints, got {repaired}/{}",
                code.layout().len()
            );
        }
    }

    #[test]
    fn violated_chains_match_coverage() {
        let (code, mut stripe) = encoded(CodeSpec::TripleStar, 7);
        let cell = Cell::new(2, 3);
        corrupt(&code, &mut stripe, cell);
        let violated = violated_chains(&code, &stripe);
        let cover: BTreeSet<ChainId> = code.chains_of(cell).iter().copied().collect();
        assert_eq!(violated, cover);
    }

    #[test]
    fn unlocatable_when_too_many_corruptions() {
        let (code, mut stripe) = encoded(CodeSpec::Tip, 7);
        // Corrupt four cells: beyond the max_cells=1 search bound; the
        // combined pattern should not be explainable by a single cell.
        for cell in [
            Cell::new(0, 1),
            Cell::new(2, 3),
            Cell::new(4, 2),
            Cell::new(5, 4),
        ] {
            corrupt(&code, &mut stripe, cell);
        }
        match scrub(&code, &mut stripe, 1) {
            ScrubOutcome::Unlocatable | ScrubOutcome::Ambiguous(_) => {}
            other => panic!("expected failure to locate, got {other:?}"),
        }
    }

    #[test]
    fn repair_then_clean() {
        let (code, mut stripe) = encoded(CodeSpec::Star, 5);
        corrupt(&code, &mut stripe, Cell::new(1, 2));
        match scrub(&code, &mut stripe, 1) {
            ScrubOutcome::Repaired(_) => {}
            other => panic!("{other:?}"),
        }
        assert_eq!(scrub(&code, &mut stripe, 1), ScrubOutcome::Clean);
    }
}
