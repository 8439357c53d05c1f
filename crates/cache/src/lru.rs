//! LRU replacement: evict the least recently used chunk.

use crate::policy::{InsertOutcome, Key, PolicyKind, ReplacementPolicy};
use crate::queue::{Entry, OrderedQueue};

/// Least-recently-used cache (Mattson et al. 1970 — the paper's
/// reference \[25\]). Hits refresh recency; eviction takes the stalest chunk.
#[derive(Debug)]
pub struct LruPolicy {
    capacity: usize,
    queue: OrderedQueue,
}

impl LruPolicy {
    /// LRU cache holding at most `capacity` chunks.
    pub fn new(capacity: usize) -> Self {
        LruPolicy {
            capacity,
            queue: OrderedQueue::new(),
        }
    }
}

impl ReplacementPolicy for LruPolicy {
    fn kind(&self) -> PolicyKind {
        PolicyKind::Lru
    }

    fn capacity(&self) -> usize {
        self.capacity
    }

    fn len(&self) -> usize {
        self.queue.len()
    }

    fn contains(&self, key: &Key) -> bool {
        self.queue.contains(key)
    }

    fn on_access(&mut self, key: Key) -> bool {
        self.queue.touch(key)
    }

    fn admit(&mut self, key: Key, _priority: u8) -> InsertOutcome {
        let full = self.queue.len() >= self.capacity;
        let slot = match self.queue.entry(key) {
            Entry::Vacant(slot) => slot,
            Entry::Occupied(slot) => {
                self.queue.move_back(slot, 0);
                return InsertOutcome::AlreadyResident;
            }
        };
        let evicted = full.then(|| self.queue.pop_front(0).expect("full cache has a victim"));
        self.queue.move_back(slot, 0);
        InsertOutcome::Inserted { evicted }
    }

    fn clear(&mut self) {
        self.queue.clear();
    }

    fn map_ops(&self) -> u64 {
        self.queue.map_ops()
    }

    fn reserve(&mut self, accesses: usize) {
        self.queue.reserve(accesses.min(self.capacity + 1));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key;

    #[test]
    fn hit_refreshes_recency() {
        let mut l = LruPolicy::new(2);
        l.on_insert(key(0, 0, 0), 1);
        l.on_insert(key(0, 0, 1), 1);
        assert!(l.on_access(key(0, 0, 0)));
        // key 1 is now the LRU.
        assert_eq!(l.on_insert(key(0, 0, 2), 1).evicted(), Some(key(0, 0, 1)));
        assert!(l.contains(&key(0, 0, 0)));
    }

    #[test]
    fn sequential_scan_evicts_in_order() {
        let mut l = LruPolicy::new(3);
        for i in 0..3 {
            l.on_insert(key(0, 0, i), 1);
        }
        for i in 3..6 {
            assert_eq!(
                l.on_insert(key(0, 0, i), 1).evicted(),
                Some(key(0, 0, i - 3))
            );
        }
    }

    #[test]
    fn miss_does_not_modify_state() {
        let mut l = LruPolicy::new(2);
        l.on_insert(key(0, 0, 0), 1);
        assert!(!l.on_access(key(0, 0, 9)));
        assert_eq!(l.len(), 1);
        assert!(l.contains(&key(0, 0, 0)));
    }
}
