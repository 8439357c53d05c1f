//! LFU replacement: evict the least frequently used chunk.

use crate::key_map::KeyMap;
use crate::policy::{InsertOutcome, Key, PolicyKind, ReplacementPolicy};
use std::collections::BTreeSet;

/// Least-frequently-used cache (Aho, Denning & Ullman 1971 — the paper's
/// reference \[26\]). Ties on frequency break toward the least recently used
/// chunk, the common in-cache LFU variant. Frequency history does not
/// persist after eviction ("in-cache LFU"), matching what storage systems
/// deploy and what the paper's plateau behaviour implies.
#[derive(Debug)]
pub struct LfuPolicy {
    capacity: usize,
    /// (frequency, last-access tick, key) ordered ascending: the first
    /// element is the eviction victim.
    order: BTreeSet<(u64, u64, Key)>,
    info: KeyMap<(u64, u64)>,
    tick: u64,
}

impl LfuPolicy {
    /// LFU cache holding at most `capacity` chunks.
    pub fn new(capacity: usize) -> Self {
        LfuPolicy {
            capacity,
            order: BTreeSet::new(),
            info: KeyMap::default(),
            tick: 0,
        }
    }

    fn bump(&mut self, key: Key) {
        let (freq, last) = self.info[&key];
        self.order.remove(&(freq, last, key));
        self.tick += 1;
        let entry = (freq + 1, self.tick, key);
        self.order.insert(entry);
        self.info.insert(key, (freq + 1, self.tick));
    }
}

impl ReplacementPolicy for LfuPolicy {
    fn kind(&self) -> PolicyKind {
        PolicyKind::Lfu
    }

    fn capacity(&self) -> usize {
        self.capacity
    }

    fn len(&self) -> usize {
        self.info.len()
    }

    fn contains(&self, key: &Key) -> bool {
        self.info.contains_key(key)
    }

    fn on_access(&mut self, key: Key) -> bool {
        if self.info.contains_key(&key) {
            self.bump(key);
            true
        } else {
            false
        }
    }

    fn admit(&mut self, key: Key, _priority: u8) -> InsertOutcome {
        if self.info.contains_key(&key) {
            self.bump(key);
            return InsertOutcome::AlreadyResident;
        }
        let evicted = if self.info.len() >= self.capacity {
            let &(f, t, victim) = self.order.iter().next().expect("full cache has a victim");
            self.order.remove(&(f, t, victim));
            self.info.remove(&victim);
            Some(victim)
        } else {
            None
        };
        self.tick += 1;
        self.order.insert((1, self.tick, key));
        self.info.insert(key, (1, self.tick));
        InsertOutcome::Inserted { evicted }
    }

    fn clear(&mut self) {
        self.order.clear();
        self.info.clear();
        self.tick = 0;
    }

    fn map_ops(&self) -> u64 {
        self.info.ops()
    }

    fn reserve(&mut self, accesses: usize) {
        self.info.reserve(accesses.min(self.capacity));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key;

    #[test]
    fn evicts_lowest_frequency() {
        let mut l = LfuPolicy::new(2);
        l.on_insert(key(0, 0, 0), 1);
        l.on_insert(key(0, 0, 1), 1);
        // Access key 0 twice: freq 3 vs 1.
        l.on_access(key(0, 0, 0));
        l.on_access(key(0, 0, 0));
        assert_eq!(l.on_insert(key(0, 0, 2), 1).evicted(), Some(key(0, 0, 1)));
    }

    #[test]
    fn frequency_ties_break_by_recency() {
        let mut l = LfuPolicy::new(2);
        l.on_insert(key(0, 0, 0), 1);
        l.on_insert(key(0, 0, 1), 1);
        // Both freq 1; key 0 is older → evicted.
        assert_eq!(l.on_insert(key(0, 0, 2), 1).evicted(), Some(key(0, 0, 0)));
    }

    #[test]
    fn history_does_not_survive_eviction() {
        let mut l = LfuPolicy::new(1);
        l.on_insert(key(0, 0, 0), 1);
        for _ in 0..10 {
            l.on_access(key(0, 0, 0));
        }
        l.on_insert(key(0, 0, 1), 1); // evicts 0 despite its high frequency
        assert!(!l.contains(&key(0, 0, 0)));
        // Re-inserting 0 starts from frequency 1 again: with capacity 1 the
        // new arrival always evicts the single resident.
        l.on_insert(key(0, 0, 0), 1);
        assert!(l.contains(&key(0, 0, 0)));
        assert!(!l.contains(&key(0, 0, 1)));
    }

    #[test]
    fn high_frequency_chunk_is_sticky() {
        let mut l = LfuPolicy::new(3);
        l.on_insert(key(0, 0, 0), 1);
        for _ in 0..5 {
            l.on_access(key(0, 0, 0));
        }
        // Stream many single-use chunks through; key 0 must survive.
        for i in 1..20 {
            l.on_access(key(0, 0, i));
            l.on_insert(key(0, 0, i), 1);
        }
        assert!(l.contains(&key(0, 0, 0)));
    }
}
