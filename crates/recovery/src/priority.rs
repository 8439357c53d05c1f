//! The priority dictionary (§III-A-1, Table II).
//!
//! After the recovery scheme is fixed, every chunk it will fetch gets a
//! priority equal to the number of chosen parity chains referencing it,
//! saturated at 3:
//!
//! | Priority | Shared by | Reduced I/Os |
//! |---------:|-----------|--------------|
//! | 3        | ≥ 3 chains | ≤ 2          |
//! | 2        | 2 chains   | ≤ 1          |
//! | 1        | 1 chain    | 0            |
//!
//! The dictionary is consulted by the RAID controller when a fetched chunk
//! is inserted into the FBF cache. Chunks outside any scheme (e.g.
//! application reads during recovery) default to priority 1.
//!
//! Priorities belong to the damage *format*, not to the chunk: every
//! stripe with the same lost cells gets the same scheme, hence the same
//! cell → priority table, which the scheme itself carries
//! ([`FormatPlan::priority`](crate::FormatPlan::priority)) and lowering
//! reads. The dictionary is the campaign-wide view of those tables,
//! `stripe → shared table`: Table III's listing, and the oracle lowering
//! is checked against. Sharing cannot change a priority: a [`ChunkId`]
//! carries its stripe, so the only entries that ever merge are two
//! schemes for *one* stripe, and those max-merge cell by cell.

use crate::scheme::{ChunkRepair, RecoveryScheme};
use fbf_codes::hash::FxHashMap;
use fbf_codes::{Cell, ChunkId};
use std::collections::hash_map::Entry;
use std::sync::Arc;

/// One stripe's priorities as a dense row-major `cell → priority` table;
/// 0 marks a cell no repair reads.
///
/// The geometry is the `rows × cols` of the code the scheme was planned
/// on and carries no meaning: cells outside it are unread, and `==`
/// compares priorities, not shape.
///
/// The grid is shared: cloning a table bumps a reference count.
#[derive(Debug, Clone)]
pub(crate) struct PriorityTable {
    cols: usize,
    prio: Arc<[u8]>,
    /// Cells with a non-zero entry.
    known: usize,
}

impl PriorityTable {
    /// The table of the `repairs`' reads over a `rows × cols` grid, which
    /// must contain every read cell.
    pub(crate) fn new(repairs: &[ChunkRepair], rows: usize, cols: usize) -> Self {
        // Share counts first (saturating far above Table II's top bucket),
        // then mapped in place.
        let mut prio: Arc<[u8]> = std::iter::repeat_n(0, rows * cols).collect();
        let grid = Arc::get_mut(&mut prio).expect("a fresh grid has one owner");
        for repair in repairs {
            for cell in &repair.option.reads {
                let slot = &mut grid[cell.r() * cols + cell.c()];
                *slot = slot.saturating_add(1);
            }
        }
        for slot in grid.iter_mut().filter(|s| **s > 0) {
            *slot = priority_for_count(usize::from(*slot));
        }
        Self::from_grid(cols, prio)
    }

    fn from_grid(cols: usize, prio: Arc<[u8]>) -> Self {
        let known = prio.iter().filter(|&&p| p > 0).count();
        PriorityTable { cols, prio, known }
    }

    fn rows(&self) -> usize {
        self.prio.len().checked_div(self.cols).unwrap_or(0)
    }

    /// The stored entry: 0 when no repair reads `cell`.
    fn entry(&self, cell: Cell) -> u8 {
        if cell.c() < self.cols {
            self.prio
                .get(cell.r() * self.cols + cell.c())
                .copied()
                .unwrap_or(0)
        } else {
            0
        }
    }

    /// Priority of `cell`; 1 when no repair reads it.
    #[inline]
    pub(crate) fn priority(&self, cell: Cell) -> u8 {
        self.entry(cell).max(1)
    }

    /// The read cells with their priorities, in `(row, col)` order.
    pub(crate) fn cells(&self) -> impl Iterator<Item = (Cell, u8)> + '_ {
        let cols = self.cols;
        self.prio
            .iter()
            .enumerate()
            .filter(|&(_, &p)| p > 0)
            .map(move |(i, &p)| (Cell::new(i / cols, i % cols), p))
    }

    /// Cell-wise maximum of two tables — what a stripe given two schemes
    /// ends up with: a chunk keeps its highest priority.
    fn max_merged(&self, other: &PriorityTable) -> PriorityTable {
        let rows = self.rows().max(other.rows());
        let cols = self.cols.max(other.cols);
        let mut prio = vec![0u8; rows * cols];
        for (cell, p) in self.cells().chain(other.cells()) {
            let slot = &mut prio[cell.r() * cols + cell.c()];
            *slot = (*slot).max(p);
        }
        Self::from_grid(cols, prio.into())
    }
}

/// Same priority for every cell, whatever the two geometries.
impl PartialEq for PriorityTable {
    fn eq(&self, other: &Self) -> bool {
        self.known == other.known && self.cells().all(|(cell, p)| other.entry(cell) == p)
    }
}

impl Eq for PriorityTable {}

/// Priorities for every chunk the schemes will touch.
///
/// `==` means "the same chunks are known, each at the same priority".
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PriorityDictionary {
    /// Only non-empty tables are stored, so two dictionaries that know
    /// the same chunks hold the same stripes.
    tables: FxHashMap<u32, PriorityTable>,
}

impl PriorityDictionary {
    /// Build from a whole campaign of schemes, every stripe taking the
    /// table of its own scheme. A chunk that two schemes for one stripe
    /// read keeps its highest priority.
    pub fn from_schemes<'a>(schemes: impl IntoIterator<Item = &'a RecoveryScheme>) -> Self {
        let mut tables: FxHashMap<u32, PriorityTable> = FxHashMap::default();
        for scheme in schemes {
            let table = &scheme.table;
            if table.known == 0 {
                continue;
            }
            match tables.entry(scheme.stripe) {
                Entry::Vacant(slot) => {
                    slot.insert(table.clone());
                }
                Entry::Occupied(mut slot) => {
                    let merged = slot.get().max_merged(table);
                    slot.insert(merged);
                }
            }
        }
        PriorityDictionary { tables }
    }

    /// The table of one stripe, if any scheme reads from it — fetch it
    /// once to look up many chunks of the stripe without re-hashing.
    pub(crate) fn table(&self, stripe: u32) -> Option<&PriorityTable> {
        self.tables.get(&stripe)
    }

    /// Priority of a chunk; 1 when unknown.
    pub fn priority_of(&self, chunk: &ChunkId) -> u8 {
        self.table(chunk.stripe)
            .map_or(1, |t| t.priority(chunk.cell))
    }

    /// Number of known chunks.
    pub fn len(&self) -> usize {
        self.tables.values().map(|t| t.known).sum()
    }

    /// Is the dictionary empty?
    pub fn is_empty(&self) -> bool {
        self.tables.is_empty()
    }
}

/// Table II's mapping from share count to priority.
pub fn priority_for_count(count: usize) -> u8 {
    match count {
        0 | 1 => 1,
        2 => 2,
        _ => 3,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::PartialStripeError;
    use crate::scheme::{generate, SchemeKind};
    use fbf_codes::{CodeSpec, StripeCode};

    #[test]
    fn table2_mapping() {
        assert_eq!(priority_for_count(0), 1);
        assert_eq!(priority_for_count(1), 1);
        assert_eq!(priority_for_count(2), 2);
        assert_eq!(priority_for_count(3), 3);
        assert_eq!(priority_for_count(7), 3);
    }

    #[test]
    fn dictionary_matches_brute_force_counts() {
        let code = StripeCode::build(CodeSpec::Tip, 7).unwrap();
        let e = PartialStripeError::new(&code, 0, 0, 0, 5).unwrap();
        let s = generate(&code, &e, SchemeKind::FbfCycling).unwrap();
        let d = PriorityDictionary::from_schemes([&s]);
        for (cell, count) in s.share_count_list() {
            let chunk = ChunkId::new(0, cell);
            assert_eq!(d.priority_of(&chunk), priority_for_count(count), "{cell}");
        }
    }

    #[test]
    fn stripes_of_one_format_share_one_table() {
        let code = StripeCode::build(CodeSpec::Tip, 7).unwrap();
        let mut group = crate::ErrorGroup::new();
        group.push(PartialStripeError::new(&code, 4, 0, 1, 3).unwrap());
        group.push(PartialStripeError::new(&code, 9, 0, 1, 3).unwrap());
        group.push(PartialStripeError::new(&code, 2, 1, 1, 3).unwrap());
        let (_, d) = crate::RecoveryController::new(&code, SchemeKind::FbfCycling)
            .plan_campaign(&group)
            .unwrap();
        assert!(
            Arc::ptr_eq(&d.tables[&4].prio, &d.tables[&9].prio),
            "one format"
        );
        assert!(
            !Arc::ptr_eq(&d.tables[&4].prio, &d.tables[&2].prio),
            "another column"
        );
        // Sharing a table does not share chunks: the stripe is in the key.
        assert_eq!(d.len(), 2 * d.tables[&4].known + d.tables[&2].known);
    }

    #[test]
    fn unknown_chunks_default_to_one() {
        let d = PriorityDictionary::default();
        assert_eq!(d.priority_of(&ChunkId::new(9, Cell::new(0, 0))), 1);
    }

    #[test]
    fn cross_scheme_chunks_keep_highest_priority() {
        let code = StripeCode::build(CodeSpec::Tip, 7).unwrap();
        let e = PartialStripeError::new(&code, 0, 0, 0, 5).unwrap();
        let s = generate(&code, &e, SchemeKind::FbfCycling).unwrap();
        let once = PriorityDictionary::from_schemes([&s]);
        let before: Vec<(ChunkId, u8)> = s
            .share_count_list()
            .into_iter()
            .map(|(c, _)| {
                let id = ChunkId::new(0, c);
                (id, once.priority_of(&id))
            })
            .collect();
        // Adding the same scheme again must not lower any priority.
        let d = PriorityDictionary::from_schemes([&s, &s]);
        for (id, p) in before {
            assert!(d.priority_of(&id) >= p);
        }
    }

    #[test]
    fn fbf_scheme_produces_multilevel_priorities() {
        // The Fig. 3 scenario shape: a 5-chunk error on disk 0 of TIP(p=7)
        // yields chunks at more than one priority level.
        let code = StripeCode::build(CodeSpec::Tip, 7).unwrap();
        let e = PartialStripeError::new(&code, 0, 0, 0, 5).unwrap();
        let s = generate(&code, &e, SchemeKind::FbfCycling).unwrap();
        let p1 = s.cells_with(1).len();
        let p2plus = s.cells_with(2).len() + s.cells_with(3).len();
        assert!(p1 > 0, "some single-reference chunks");
        assert!(p2plus > 0, "some shared chunks (Table III shape)");
    }

    #[test]
    fn typical_scheme_is_all_priority_one() {
        let code = StripeCode::build(CodeSpec::Tip, 7).unwrap();
        let e = PartialStripeError::new(&code, 0, 0, 0, 5).unwrap();
        let s = generate(&code, &e, SchemeKind::Typical).unwrap();
        let d = PriorityDictionary::from_schemes([&s]);
        assert!(s.cells_with(2).is_empty());
        assert!(s.cells_with(3).is_empty());
        assert_eq!(s.cells_with(1).len(), d.len());
    }
}
