//! Parity chains: the XOR equations that tie a stripe together.
//!
//! Every 3DFT code in this crate is defined by a set of *parity chains*. A
//! chain is one XOR equation: the XOR of all its member cells and its parity
//! cell is zero. Chains come in three *directions* — horizontal, diagonal
//! and anti-diagonal (for HDD1 the third direction is a second diagonal of
//! slope 2, but it plays the same structural role).
//!
//! The FBF scheme is built entirely on chain-membership structure: a lost
//! chunk can be repaired through any one of the chains it belongs to, and a
//! surviving chunk that sits on several *chosen* chains is a "favorable
//! block" worth keeping in cache.

use crate::layout::Cell;

/// The three chain directions of a 3DFT code.
///
/// The numeric discriminants match the `CellKind::Parity(d)` direction index
/// in [`crate::layout`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Direction {
    /// Row-aligned chains (RAID-4/5 style parity).
    Horizontal = 0,
    /// Slope `+1` diagonal chains.
    Diagonal = 1,
    /// Slope `-1` chains for TIP / Triple-STAR / STAR; slope `+2` for HDD1.
    AntiDiagonal = 2,
}

impl Direction {
    /// All directions, in the order FBF's scheme generator cycles them
    /// (§III-A-1: "simply looping parity chains of three directions").
    pub const ALL: [Direction; 3] = [
        Direction::Horizontal,
        Direction::Diagonal,
        Direction::AntiDiagonal,
    ];

    /// Direction index, `0..3`.
    #[inline]
    pub fn index(&self) -> usize {
        *self as usize
    }

    /// Direction from index, panicking on `>= 3`.
    pub fn from_index(i: usize) -> Direction {
        match i {
            0 => Direction::Horizontal,
            1 => Direction::Diagonal,
            2 => Direction::AntiDiagonal,
            _ => panic!("direction index {i} out of range"),
        }
    }
}

impl std::fmt::Display for Direction {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Direction::Horizontal => "horizontal",
            Direction::Diagonal => "diagonal",
            Direction::AntiDiagonal => "anti-diagonal",
        };
        f.write_str(s)
    }
}

/// Identifier of a chain within one stripe's chain set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ChainId(pub u16);

impl ChainId {
    /// Index into the code's chain list.
    #[inline]
    pub fn index(&self) -> usize {
        self.0 as usize
    }
}

/// One parity chain: `XOR(members) == parity`.
///
/// `members` never contains `parity`; for STAR the adjuster-line data cells
/// are folded into `members` of every diagonal (resp. anti-diagonal) chain,
/// so this single equation form covers all four shipped codes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParityChain {
    /// Identifier within the stripe's chain set.
    pub id: ChainId,
    /// Chain family.
    pub direction: Direction,
    /// Line index within the family (row number / diagonal residue).
    pub line: u16,
    /// Cells XOR-ed together to produce the parity. Sorted, deduplicated.
    pub members: Vec<Cell>,
    /// The cell storing the XOR of `members`.
    pub parity: Cell,
}

impl ParityChain {
    /// Build a chain, normalising member order and rejecting degenerate
    /// shapes in debug builds.
    pub fn new(
        id: ChainId,
        direction: Direction,
        line: u16,
        mut members: Vec<Cell>,
        parity: Cell,
    ) -> Self {
        members.sort_unstable();
        members.dedup();
        debug_assert!(!members.is_empty(), "chain {id:?} has no members");
        debug_assert!(
            !members.contains(&parity),
            "chain {id:?} parity cell listed as member"
        );
        ParityChain {
            id,
            direction,
            line,
            members,
            parity,
        }
    }

    /// Number of member cells (excluding the parity cell).
    #[inline]
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Chains always have at least one member.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Does the chain touch this cell, either as member or parity?
    #[inline]
    pub fn covers(&self, cell: Cell) -> bool {
        self.parity == cell || self.members.binary_search(&cell).is_ok()
    }

    /// All cells of the chain: members plus parity.
    pub fn all_cells(&self) -> impl Iterator<Item = Cell> + '_ {
        self.members
            .iter()
            .copied()
            .chain(std::iter::once(self.parity))
    }

    /// The cells that must be read to rebuild `target` through this chain —
    /// every other cell of the equation.
    ///
    /// Panics if the chain does not cover `target` (callers look chains up
    /// through membership tables, so this indicates a logic error).
    pub fn repair_reads(&self, target: Cell) -> Vec<Cell> {
        assert!(
            self.covers(target),
            "chain {:?} does not cover {target}",
            self.id
        );
        // `filter` hints a lower bound of 0; the equation minus its target
        // is exactly `len()` cells.
        let mut reads = Vec::with_capacity(self.len());
        reads.extend(self.all_cells().filter(|&c| c != target));
        reads
    }
}

/// Per-cell chain membership table for one stripe.
///
/// Maps each cell (by its row-major layout index) to the chains whose
/// equation includes it. Built once per [`crate::StripeCode`]; lookups are
/// `O(1)` plus the (≤ 3, or ≤ `p+2` for STAR adjuster cells) membership list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Membership {
    per_cell: Vec<Vec<ChainId>>,
    cols: usize,
}

impl Membership {
    /// Build the table from a chain list over a `rows × cols` layout.
    pub fn build(rows: usize, cols: usize, chains: &[ParityChain]) -> Self {
        let mut per_cell = vec![Vec::new(); rows * cols];
        for chain in chains {
            for cell in chain.all_cells() {
                per_cell[cell.r() * cols + cell.c()].push(chain.id);
            }
        }
        for list in &mut per_cell {
            list.sort_unstable();
            list.dedup();
        }
        Membership { per_cell, cols }
    }

    /// Chains covering `cell` (as member or parity).
    #[inline]
    pub fn chains_of(&self, cell: Cell) -> &[ChainId] {
        &self.per_cell[cell.r() * self.cols + cell.c()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain(
        id: u16,
        dir: Direction,
        members: &[(usize, usize)],
        parity: (usize, usize),
    ) -> ParityChain {
        ParityChain::new(
            ChainId(id),
            dir,
            id,
            members.iter().map(|&(r, c)| Cell::new(r, c)).collect(),
            Cell::new(parity.0, parity.1),
        )
    }

    #[test]
    fn members_sorted_and_deduped() {
        let c = chain(0, Direction::Horizontal, &[(0, 2), (0, 1), (0, 2)], (0, 3));
        assert_eq!(c.members, vec![Cell::new(0, 1), Cell::new(0, 2)]);
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn covers_members_and_parity() {
        let c = chain(1, Direction::Diagonal, &[(0, 0), (1, 1)], (2, 2));
        assert!(c.covers(Cell::new(0, 0)));
        assert!(c.covers(Cell::new(2, 2)));
        assert!(!c.covers(Cell::new(3, 3)));
    }

    #[test]
    fn repair_reads_excludes_target() {
        let c = chain(2, Direction::Horizontal, &[(0, 0), (0, 1), (0, 2)], (0, 3));
        let reads = c.repair_reads(Cell::new(0, 1));
        assert_eq!(reads.len(), 3);
        assert!(!reads.contains(&Cell::new(0, 1)));
        assert!(reads.contains(&Cell::new(0, 3)), "parity is read too");
    }

    #[test]
    fn repair_reads_of_parity_cell_reads_all_members() {
        let c = chain(3, Direction::Horizontal, &[(0, 0), (0, 1)], (0, 2));
        let reads = c.repair_reads(Cell::new(0, 2));
        assert_eq!(reads, vec![Cell::new(0, 0), Cell::new(0, 1)]);
    }

    #[test]
    #[should_panic(expected = "does not cover")]
    fn repair_reads_panics_off_chain() {
        let c = chain(4, Direction::Horizontal, &[(0, 0)], (0, 1));
        c.repair_reads(Cell::new(5, 5));
    }

    #[test]
    fn membership_table() {
        let chains = vec![
            chain(0, Direction::Horizontal, &[(0, 0), (0, 1)], (0, 2)),
            chain(1, Direction::Diagonal, &[(0, 0), (1, 1)], (1, 2)),
        ];
        let m = Membership::build(2, 3, &chains);
        assert_eq!(m.chains_of(Cell::new(0, 0)), &[ChainId(0), ChainId(1)]);
        assert_eq!(m.chains_of(Cell::new(0, 1)), &[ChainId(0)]);
        assert_eq!(m.chains_of(Cell::new(1, 0)), &[] as &[ChainId]);
    }

    #[test]
    fn direction_roundtrip() {
        for d in Direction::ALL {
            assert_eq!(Direction::from_index(d.index()), d);
        }
    }
}
