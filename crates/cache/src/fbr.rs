//! FBR — frequency-based replacement (Robinson & Devarakonda, SIGMETRICS'90
//! — the paper's reference \[27\]).
//!
//! FBR keeps an LRU stack split into *new*, *middle* and *old* sections.
//! Reference counts are incremented only when the page is hit **outside
//! the new section** — re-references to just-fetched pages are treated as
//! correlated and earn no frequency credit. The eviction victim is the
//! least-frequently-used page of the *old* section (ties to the LRU end),
//! combining frequency with aging.
//!
//! Section sizing follows the original paper's recommendation:
//! new ≈ 25%, old ≈ 50% of capacity.

use crate::key_map::KeyMap;
use crate::policy::{InsertOutcome, Key, PolicyKind, ReplacementPolicy};
use crate::queue::{Entry, OrderedQueue, Slot};

/// The FBR policy.
#[derive(Debug)]
pub struct FbrPolicy {
    capacity: usize,
    new_size: usize,
    old_size: usize,
    /// LRU stack: front = LRU (old end), back = MRU (new end).
    stack: OrderedQueue,
    counts: KeyMap<u64>,
}

impl FbrPolicy {
    /// FBR with 25% new / 50% old sections.
    pub fn new(capacity: usize) -> Self {
        FbrPolicy {
            capacity,
            new_size: (capacity / 4).max(1),
            old_size: (capacity / 2).max(1),
            stack: OrderedQueue::new(),
            counts: KeyMap::default(),
        }
    }

    /// Is `key` currently within the new (MRU-most) section?
    fn in_new_section(&self, key: &Key) -> bool {
        self.stack
            .iter(0)
            .rev()
            .take(self.new_size)
            .any(|k| k == key)
    }

    /// Victim: minimum count within the old (LRU-most) section, ties to
    /// the LRU end.
    fn victim(&self) -> Key {
        let old: Vec<Key> = self.stack.iter(0).take(self.old_size).copied().collect();
        *old.iter()
            .enumerate()
            .min_by_key(|(pos, k)| (self.counts[k], *pos))
            .map(|(_, k)| k)
            .expect("victim() on non-empty cache")
    }
}

impl FbrPolicy {
    /// A hit on a resident's slot: frequency credit only outside the new
    /// section (factors out correlated re-references), then MRU.
    fn hit(&mut self, slot: Slot) {
        let key = self.stack.key_of(slot);
        if !self.in_new_section(&key) {
            *self.counts.get_mut(&key).expect("resident has a count") += 1;
        }
        self.stack.move_back(slot, 0);
    }
}

impl ReplacementPolicy for FbrPolicy {
    fn kind(&self) -> PolicyKind {
        PolicyKind::Fbr
    }

    fn capacity(&self) -> usize {
        self.capacity
    }

    fn len(&self) -> usize {
        self.stack.len()
    }

    fn contains(&self, key: &Key) -> bool {
        self.stack.contains(key)
    }

    fn on_access(&mut self, key: Key) -> bool {
        let Some(slot) = self.stack.find(&key) else {
            return false;
        };
        self.hit(slot);
        true
    }

    fn admit(&mut self, key: Key, _priority: u8) -> InsertOutcome {
        let full = self.stack.len() >= self.capacity;
        let slot = match self.stack.entry(key) {
            Entry::Vacant(slot) => slot,
            Entry::Occupied(slot) => {
                self.hit(slot);
                return InsertOutcome::AlreadyResident;
            }
        };
        let evicted = full.then(|| {
            let v = self.victim();
            self.stack.remove(&v);
            self.counts.remove(&v);
            v
        });
        self.stack.move_back(slot, 0);
        self.counts.insert(key, 1);
        InsertOutcome::Inserted { evicted }
    }

    fn clear(&mut self) {
        self.stack.clear();
        self.counts.clear();
    }

    fn map_ops(&self) -> u64 {
        self.stack.map_ops() + self.counts.ops()
    }

    fn reserve(&mut self, accesses: usize) {
        let keys = accesses.min(self.capacity + 1);
        self.stack.reserve(keys);
        self.counts.reserve(keys);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key;

    #[test]
    fn new_section_hits_earn_no_credit() {
        let mut c = FbrPolicy::new(8); // new section = 2
        c.on_insert(key(0, 0, 0), 1);
        assert!(c.on_access(key(0, 0, 0))); // in new section (MRU)
        assert_eq!(c.counts[&key(0, 0, 0)], 1, "correlated hit earns nothing");
    }

    #[test]
    fn old_section_hits_earn_credit() {
        let mut c = FbrPolicy::new(4); // new section = 1
        c.on_insert(key(0, 0, 0), 1);
        c.on_insert(key(0, 0, 1), 1);
        // key0 is now outside the 1-slot new section.
        assert!(c.on_access(key(0, 0, 0)));
        assert_eq!(c.counts[&key(0, 0, 0)], 2);
    }

    #[test]
    fn evicts_least_frequent_in_old_section() {
        let mut c = FbrPolicy::new(4); // old section = 2
        c.on_insert(key(0, 0, 0), 1);
        c.on_insert(key(0, 0, 1), 1);
        c.on_insert(key(0, 0, 2), 1);
        c.on_insert(key(0, 0, 3), 1);
        // Credit key0 (the LRU), leaving key1 as the low-count old page.
        c.on_access(key(0, 0, 0));
        // But the access moved key0 to MRU; old section is now {1, 2}.
        let evicted = c.on_insert(key(0, 0, 4), 1).evicted();
        assert_eq!(evicted, Some(key(0, 0, 1)));
    }

    #[test]
    fn capacity_respected() {
        let mut c = FbrPolicy::new(3);
        for i in 0..40 {
            let k = key(0, 0, i % 9);
            if !c.on_access(k) {
                c.on_insert(k, 1);
            }
            assert!(c.len() <= 3);
        }
    }

    #[test]
    fn frequent_old_page_survives() {
        let mut c = FbrPolicy::new(4);
        let hot = key(0, 0, 0);
        c.on_insert(hot, 1);
        // Build frequency while hot cycles through the old section.
        for i in 1..20 {
            let k = key(0, 1, i);
            if !c.on_access(k) {
                c.on_insert(k, 1);
            }
            c.on_access(hot);
        }
        assert!(c.contains(&hot));
        assert!(c.counts[&hot] > 5);
    }
}
