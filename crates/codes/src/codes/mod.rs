//! The four 3DFT codes of the paper, represented uniformly.
//!
//! A [`StripeCode`] bundles a stripe [`Layout`] with the full list of parity
//! [`ParityChain`]s (XOR equations) and a per-cell membership index. All four
//! codes are built through two generators:
//!
//! * [`family`] — an adjuster-free "RDP/RTP-style" construction used for
//!   TIP-code, HDD1 and Triple-STAR (see each module's docs for the fidelity
//!   notes; the FBF paper relies only on the chain *geometry*, which these
//!   constructions preserve: `n = p+1 / p+1 / p+2` disks, `p-1` rows, three
//!   chain directions per data cell);
//! * [`star`] — the faithful STAR construction (Huang & Xu 2008): EVENODD
//!   plus an anti-diagonal parity column, with the adjuster lines folded
//!   into each diagonal/anti-diagonal equation.

pub mod family;
pub mod hdd1;
pub mod raid6;
pub mod star;
pub mod tip;
pub mod triple_star;

use crate::chain::{ChainId, Direction, Membership, ParityChain};
use crate::layout::{Cell, CellKind, Layout};
use crate::{CodeError, Result};

/// Which of the paper's four codes to build.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CodeSpec {
    /// TIP-code (Zhang et al., DSN'15) — `n = p + 1` disks.
    Tip,
    /// HDD1 (Tau & Wang 2003) — `n = p + 1` disks, rotated parity placement.
    Hdd1,
    /// Triple-STAR (Wang et al. 2012) — `n = p + 2` disks.
    TripleStar,
    /// STAR (Huang & Xu 2008) — `n = p + 3` disks, EVENODD-style adjusters.
    Star,
    /// RDP (RAID-6, 2-fault-tolerant) — `n = p + 1`; exercises FBF's
    /// any-XOR-code generality with only two chain directions.
    Rdp,
    /// EVENODD (RAID-6, 2-fault-tolerant) — `n = p + 2`.
    Evenodd,
}

impl CodeSpec {
    /// The paper's four 3DFT codes, in the order its figures list them.
    pub const ALL: [CodeSpec; 4] = [
        CodeSpec::Tip,
        CodeSpec::Hdd1,
        CodeSpec::TripleStar,
        CodeSpec::Star,
    ];

    /// Every shipped code, including the RAID-6 generality demonstrations.
    pub const EXTENDED: [CodeSpec; 6] = [
        CodeSpec::Tip,
        CodeSpec::Hdd1,
        CodeSpec::TripleStar,
        CodeSpec::Star,
        CodeSpec::Rdp,
        CodeSpec::Evenodd,
    ];

    /// Concurrent disk failures the code tolerates.
    pub fn fault_tolerance(&self) -> usize {
        match self {
            CodeSpec::Rdp | CodeSpec::Evenodd => 2,
            _ => 3,
        }
    }

    /// Human-readable name used in reports.
    pub fn name(&self) -> &'static str {
        match self {
            CodeSpec::Tip => "TIP",
            CodeSpec::Hdd1 => "HDD1",
            CodeSpec::TripleStar => "TripleSTAR",
            CodeSpec::Star => "STAR",
            CodeSpec::Rdp => "RDP",
            CodeSpec::Evenodd => "EVENODD",
        }
    }

    /// Number of disks for a given prime (`p+1`, `p+1`, `p+2`, `p+3`).
    pub fn disks(&self, p: usize) -> usize {
        match self {
            CodeSpec::Tip | CodeSpec::Hdd1 | CodeSpec::Rdp => p + 1,
            CodeSpec::TripleStar | CodeSpec::Evenodd => p + 2,
            CodeSpec::Star => p + 3,
        }
    }

    /// Does this code rotate parity placement across stripes? (HDD1's
    /// contribution was parity *placement*; rotation spreads parity I/O over
    /// all disks, RAID-5 style.)
    pub fn rotated_placement(&self) -> bool {
        matches!(self, CodeSpec::Hdd1)
    }

    /// Smallest prime this code supports.
    pub fn min_prime(&self) -> usize {
        match self {
            // slope-2 second diagonal needs p >= 5 to stay distinct from
            // the slope-1 diagonal family.
            CodeSpec::Hdd1 => 5,
            _ => 3,
        }
    }
}

impl std::fmt::Display for CodeSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A fully-built stripe code: layout + chains + membership index.
#[derive(Debug, Clone)]
pub struct StripeCode {
    spec: CodeSpec,
    p: usize,
    layout: Layout,
    chains: Vec<ParityChain>,
    membership: Membership,
}

impl StripeCode {
    /// Build the code `spec` over prime `p`.
    pub fn build(spec: CodeSpec, p: usize) -> Result<Self> {
        if !crate::prime::is_prime(p) {
            return Err(CodeError::NotPrime(p));
        }
        if p < spec.min_prime() {
            return Err(CodeError::PrimeTooSmall {
                p,
                min: spec.min_prime(),
            });
        }
        let (layout, chains) = match spec {
            CodeSpec::Tip => tip::generate(p),
            CodeSpec::Hdd1 => hdd1::generate(p),
            CodeSpec::TripleStar => triple_star::generate(p),
            CodeSpec::Star => star::generate(p),
            CodeSpec::Rdp => raid6::generate_rdp(p),
            CodeSpec::Evenodd => raid6::generate_evenodd(p),
        };
        let membership = Membership::build(layout.rows(), layout.cols(), &chains);
        let code = StripeCode {
            spec,
            p,
            layout,
            chains,
            membership,
        };
        code.debug_validate();
        Ok(code)
    }

    /// In debug builds, check structural invariants every constructor must
    /// uphold: parity cells referenced by members only from strictly later
    /// directions (so encoding in direction order is well-defined), all
    /// cells in-bounds, one chain per (direction, line).
    fn debug_validate(&self) {
        if cfg!(debug_assertions) {
            let mut seen = std::collections::HashSet::new();
            for chain in &self.chains {
                assert!(
                    seen.insert((chain.direction, chain.line)),
                    "duplicate chain {:?}/{}",
                    chain.direction,
                    chain.line
                );
                assert!(self.layout.contains(chain.parity));
                assert_eq!(
                    self.layout.kind(chain.parity),
                    CellKind::Parity(chain.direction.index() as u8),
                    "chain parity cell has wrong kind"
                );
                for &m in &chain.members {
                    assert!(self.layout.contains(m));
                    if let CellKind::Parity(d) = self.layout.kind(m) {
                        assert!(
                            (d as usize) < chain.direction.index(),
                            "{} chain {} references parity of direction {d} as member",
                            chain.direction,
                            chain.line
                        );
                    }
                }
            }
        }
    }

    /// Which code this is.
    #[inline]
    pub fn spec(&self) -> CodeSpec {
        self.spec
    }

    /// The prime parameter.
    #[inline]
    pub fn p(&self) -> usize {
        self.p
    }

    /// Rows per stripe (`p - 1`).
    #[inline]
    pub fn rows(&self) -> usize {
        self.layout.rows()
    }

    /// Columns, i.e. disks (`n`).
    #[inline]
    pub fn cols(&self) -> usize {
        self.layout.cols()
    }

    /// The stripe layout.
    #[inline]
    pub fn layout(&self) -> &Layout {
        &self.layout
    }

    /// All parity chains of one stripe.
    #[inline]
    pub fn chains(&self) -> &[ParityChain] {
        &self.chains
    }

    /// Look a chain up by id.
    #[inline]
    pub fn chain(&self, id: ChainId) -> &ParityChain {
        &self.chains[id.index()]
    }

    /// Chains covering `cell` (as member or parity).
    #[inline]
    pub fn chains_of(&self, cell: Cell) -> &[ChainId] {
        self.membership.chains_of(cell)
    }

    /// Chains of a given direction covering `cell`.
    pub fn chains_of_direction(&self, cell: Cell, dir: Direction) -> Vec<ChainId> {
        self.chains_of(cell)
            .iter()
            .copied()
            .filter(|&id| self.chain(id).direction == dir)
            .collect()
    }

    /// Data cells of the stripe, row-major.
    pub fn data_cells(&self) -> Vec<Cell> {
        self.layout.data_cells().collect()
    }

    /// Short description, e.g. `TIP(p=7, n=8)`.
    pub fn describe(&self) -> String {
        format!("{}(p={}, n={})", self.spec.name(), self.p, self.cols())
    }
}

/// Helper shared by constructors: allocate sequential [`ChainId`]s.
pub(crate) struct ChainBuilder {
    chains: Vec<ParityChain>,
}

impl ChainBuilder {
    pub(crate) fn new() -> Self {
        ChainBuilder { chains: Vec::new() }
    }

    pub(crate) fn push(
        &mut self,
        direction: Direction,
        line: usize,
        members: Vec<Cell>,
        parity: Cell,
    ) {
        let id = ChainId(u16::try_from(self.chains.len()).expect("chain count fits u16"));
        self.chains.push(ParityChain::new(
            id,
            direction,
            line as u16,
            members,
            parity,
        ));
    }

    pub(crate) fn finish(self) -> Vec<ParityChain> {
        self.chains
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prime::PAPER_PRIMES;

    #[test]
    fn disk_counts_match_paper() {
        assert_eq!(CodeSpec::Tip.disks(5), 6);
        assert_eq!(CodeSpec::Hdd1.disks(7), 8);
        assert_eq!(CodeSpec::TripleStar.disks(7), 9);
        assert_eq!(CodeSpec::Star.disks(7), 10);
    }

    #[test]
    fn build_rejects_non_prime() {
        assert!(matches!(
            StripeCode::build(CodeSpec::Tip, 6),
            Err(CodeError::NotPrime(6))
        ));
        assert!(matches!(
            StripeCode::build(CodeSpec::Star, 9),
            Err(CodeError::NotPrime(9))
        ));
    }

    #[test]
    fn build_rejects_small_prime_for_hdd1() {
        assert!(matches!(
            StripeCode::build(CodeSpec::Hdd1, 3),
            Err(CodeError::PrimeTooSmall { p: 3, min: 5 })
        ));
    }

    #[test]
    fn all_codes_build_for_paper_primes() {
        for spec in CodeSpec::ALL {
            for p in PAPER_PRIMES {
                let code = StripeCode::build(spec, p).unwrap();
                assert_eq!(code.rows(), p - 1, "{spec} p={p}");
                assert_eq!(code.cols(), spec.disks(p), "{spec} p={p}");
                assert!(!code.chains().is_empty());
            }
        }
    }

    #[test]
    fn every_data_cell_has_a_horizontal_chain() {
        for spec in CodeSpec::ALL {
            let code = StripeCode::build(spec, 7).unwrap();
            for cell in code.data_cells() {
                let h = code.chains_of_direction(cell, Direction::Horizontal);
                assert_eq!(h.len(), 1, "{spec} cell {cell} horizontal chains");
            }
        }
    }

    #[test]
    fn chain_lookup_by_id_is_consistent() {
        let code = StripeCode::build(CodeSpec::TripleStar, 7).unwrap();
        for chain in code.chains() {
            assert_eq!(code.chain(chain.id).id, chain.id);
        }
    }

    #[test]
    fn describe_formats() {
        let code = StripeCode::build(CodeSpec::Tip, 7).unwrap();
        assert_eq!(code.describe(), "TIP(p=7, n=8)");
    }
}
