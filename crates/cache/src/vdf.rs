//! VDF — Victim Disk(s) First (Wan et al., USENIX ATC'11 — the paper's
//! reference \[23\]).
//!
//! VDF is the closest prior art to FBF: an asymmetric cache that, while an
//! array is degraded, prefers to keep blocks whose miss penalty is high —
//! blocks on (or needed by) the *victim* disks under reconstruction —
//! and sacrifices blocks of healthy disks first. We model it as a
//! two-class LRU: chunks whose column is in the victim set are protected;
//! eviction drains the non-victim class first and only then the victim
//! class, LRU within each.
//!
//! Unlike FBF it knows nothing about parity-chain sharing, which is
//! exactly the gap the paper's scheme fills — the comparison bench
//! (`extended_policies`) quantifies it.

use crate::policy::{InsertOutcome, Key, PolicyKind, ReplacementPolicy};
use crate::queue::{Entry, OrderedQueue};
use crate::{FxHashMap, FxHashSet};
use std::sync::Arc;

/// The VDF policy.
#[derive(Debug)]
pub struct VdfPolicy {
    capacity: usize,
    victim_cols: FxHashSet<u16>,
    /// Per-stripe victim column (stripe currently under repair → its
    /// damaged column). More precise than the global set: a column is only
    /// "victim" in the stripes where it is actually broken.
    victim_map: Option<Arc<FxHashMap<u32, u16>>>,
    /// List [`NORMAL`], chunks of healthy (non-victim) disks, evicted
    /// first; list [`PROTECTED`], chunks of victim disks.
    lists: OrderedQueue<2>,
}

/// Chunks of healthy disks.
const NORMAL: usize = 0;
/// Chunks of victim disks.
const PROTECTED: usize = 1;

impl VdfPolicy {
    /// VDF with an empty victim set (degenerates to LRU). Use
    /// [`VdfPolicy::with_victims`] for the degraded-mode behaviour.
    pub fn new(capacity: usize) -> Self {
        Self::with_victims(capacity, FxHashSet::default())
    }

    /// VDF protecting chunks whose stripe-column is in `victim_cols`
    /// (the columns currently under repair).
    fn with_victims(capacity: usize, victim_cols: FxHashSet<u16>) -> Self {
        VdfPolicy {
            capacity,
            victim_cols,
            victim_map: None,
            lists: OrderedQueue::new(),
        }
    }

    /// VDF protecting, per stripe, the chunks adjacent to that stripe's
    /// damaged column (`stripe → victim column`). In a reconstruction
    /// campaign this is the faithful reading of "victim disk first": a
    /// disk is only a victim where it is actually broken.
    pub fn with_victim_map(capacity: usize, map: Arc<FxHashMap<u32, u16>>) -> Self {
        VdfPolicy {
            capacity,
            victim_cols: FxHashSet::default(),
            victim_map: Some(map),
            lists: OrderedQueue::new(),
        }
    }

    fn is_victim(&self, key: &Key) -> bool {
        if let Some(map) = &self.victim_map {
            // Protect the victim stripe's chunks wholesale: they are the
            // ones reconstruction will keep coming back for.
            map.contains_key(&key.stripe)
        } else {
            self.victim_cols.contains(&key.cell.col)
        }
    }
}

impl ReplacementPolicy for VdfPolicy {
    fn kind(&self) -> PolicyKind {
        PolicyKind::Vdf
    }

    fn capacity(&self) -> usize {
        self.capacity
    }

    fn len(&self) -> usize {
        self.lists.len()
    }

    fn contains(&self, key: &Key) -> bool {
        self.lists.contains(key)
    }

    fn on_access(&mut self, key: Key) -> bool {
        self.lists.touch(key)
    }

    fn admit(&mut self, key: Key, _priority: u8) -> InsertOutcome {
        let full = self.lists.len() >= self.capacity;
        let slot = match self.lists.entry(key) {
            Entry::Vacant(slot) => slot,
            Entry::Occupied(slot) => {
                self.lists.move_back(slot, self.lists.list_of(slot));
                return InsertOutcome::AlreadyResident;
            }
        };
        let evicted = full.then(|| {
            (self.lists.pop_front(NORMAL))
                .or_else(|| self.lists.pop_front(PROTECTED))
                .expect("full cache has a victim")
        });
        let list = if self.is_victim(&key) {
            PROTECTED
        } else {
            NORMAL
        };
        self.lists.move_back(slot, list);
        InsertOutcome::Inserted { evicted }
    }

    fn clear(&mut self) {
        self.lists.clear();
    }

    fn map_ops(&self) -> u64 {
        self.lists.map_ops()
    }

    fn reserve(&mut self, accesses: usize) {
        self.lists.reserve(accesses.min(self.capacity + 1));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key;

    fn victims(cols: &[u16]) -> FxHashSet<u16> {
        cols.iter().copied().collect()
    }

    #[test]
    fn empty_victim_set_is_lru() {
        let mut c = VdfPolicy::new(2);
        c.on_insert(key(0, 0, 0), 1);
        c.on_insert(key(0, 0, 1), 1);
        c.on_access(key(0, 0, 0));
        assert_eq!(c.on_insert(key(0, 0, 2), 1).evicted(), Some(key(0, 0, 1)));
    }

    #[test]
    fn victim_chunks_survive_healthy_ones() {
        let mut c = VdfPolicy::with_victims(3, victims(&[0]));
        c.on_insert(key(0, 0, 0), 1); // victim col 0 → protected
        c.on_insert(key(0, 0, 1), 1); // healthy
        c.on_insert(key(0, 0, 2), 1); // healthy
                                      // Despite being the oldest, the protected chunk survives.
        assert_eq!(c.on_insert(key(0, 0, 3), 1).evicted(), Some(key(0, 0, 1)));
        assert!(c.contains(&key(0, 0, 0)));
    }

    #[test]
    fn protected_class_evicts_when_normal_empty() {
        let mut c = VdfPolicy::with_victims(2, victims(&[0]));
        c.on_insert(key(0, 0, 0), 1);
        c.on_insert(key(1, 1, 0), 1);
        assert_eq!(c.on_insert(key(2, 2, 0), 1).evicted(), Some(key(0, 0, 0)));
    }

    #[test]
    fn capacity_respected() {
        let mut c = VdfPolicy::with_victims(4, victims(&[0, 1]));
        for i in 0..30 {
            let k = key(i as u32, 0, i % 6);
            if !c.on_access(k) {
                c.on_insert(k, 1);
            }
            assert!(c.len() <= 4);
        }
    }
}
