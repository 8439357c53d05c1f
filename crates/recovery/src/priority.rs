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

use crate::scheme::RecoveryScheme;
use fbf_codes::hash::FxHashMap;
use fbf_codes::{Cell, ChunkId};

/// Priorities for every chunk the schemes will touch.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PriorityDictionary {
    map: FxHashMap<ChunkId, u8>,
}

impl PriorityDictionary {
    /// Empty dictionary (everything priority 1).
    pub fn new() -> Self {
        Self::default()
    }

    /// Build from one scheme.
    pub fn from_scheme(scheme: &RecoveryScheme) -> Self {
        let mut d = Self::new();
        d.add_scheme(scheme);
        d
    }

    /// Build from a whole campaign of schemes.
    pub fn from_schemes<'a>(schemes: impl IntoIterator<Item = &'a RecoveryScheme>) -> Self {
        let mut d = Self::new();
        for s in schemes {
            d.add_scheme(s);
        }
        d
    }

    /// Merge one scheme's share counts in.
    pub fn add_scheme(&mut self, scheme: &RecoveryScheme) {
        for (cell, count) in scheme.share_count_list() {
            let chunk = ChunkId::new(scheme.stripe, cell);
            let prio = priority_for_count(count);
            // A chunk shared across schemes keeps its highest priority.
            let entry = self.map.entry(chunk).or_insert(1);
            *entry = (*entry).max(prio);
        }
    }

    /// Priority of a chunk; 1 when unknown.
    pub fn priority_of(&self, chunk: &ChunkId) -> u8 {
        self.map.get(chunk).copied().unwrap_or(1)
    }

    /// Chunks holding a given priority, unordered. Used by reports and the
    /// Table III reproduction example.
    pub fn chunks_with_priority(&self, prio: u8) -> Vec<ChunkId> {
        self.map
            .iter()
            .filter(|&(_, &p)| p == prio)
            .map(|(&k, _)| k)
            .collect()
    }

    /// Cells (within `stripe`) holding a given priority, sorted — matches
    /// the paper's Table III presentation.
    pub fn cells_with_priority(&self, stripe: u32, prio: u8) -> Vec<Cell> {
        let mut v: Vec<Cell> = self
            .map
            .iter()
            .filter(|&(k, &p)| k.stripe == stripe && p == prio)
            .map(|(k, _)| k.cell)
            .collect();
        v.sort_unstable();
        v
    }

    /// Number of known chunks.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Is the dictionary empty?
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
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
        let d = PriorityDictionary::from_scheme(&s);
        for (cell, count) in s.share_counts() {
            let chunk = ChunkId::new(0, cell);
            assert_eq!(d.priority_of(&chunk), priority_for_count(count), "{cell}");
        }
    }

    #[test]
    fn unknown_chunks_default_to_one() {
        let d = PriorityDictionary::new();
        assert_eq!(d.priority_of(&ChunkId::new(9, Cell::new(0, 0))), 1);
    }

    #[test]
    fn cross_scheme_chunks_keep_highest_priority() {
        let code = StripeCode::build(CodeSpec::Tip, 7).unwrap();
        let e = PartialStripeError::new(&code, 0, 0, 0, 5).unwrap();
        let s = generate(&code, &e, SchemeKind::FbfCycling).unwrap();
        let mut d = PriorityDictionary::from_scheme(&s);
        let before: Vec<(ChunkId, u8)> = s
            .share_counts()
            .keys()
            .map(|&c| {
                let id = ChunkId::new(0, c);
                (id, d.priority_of(&id))
            })
            .collect();
        // Adding the same scheme again must not lower any priority.
        d.add_scheme(&s);
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
        let d = PriorityDictionary::from_scheme(&s);
        let p1 = d.cells_with_priority(0, 1).len();
        let p2plus = d.cells_with_priority(0, 2).len() + d.cells_with_priority(0, 3).len();
        assert!(p1 > 0, "some single-reference chunks");
        assert!(p2plus > 0, "some shared chunks (Table III shape)");
    }

    #[test]
    fn typical_scheme_is_all_priority_one() {
        let code = StripeCode::build(CodeSpec::Tip, 7).unwrap();
        let e = PartialStripeError::new(&code, 0, 0, 0, 5).unwrap();
        let s = generate(&code, &e, SchemeKind::Typical).unwrap();
        let d = PriorityDictionary::from_scheme(&s);
        assert!(d.cells_with_priority(0, 2).is_empty());
        assert!(d.cells_with_priority(0, 3).is_empty());
        assert_eq!(d.cells_with_priority(0, 1).len(), d.len());
    }
}
