//! 2Q replacement (Johnson & Shasha, VLDB'94 — the paper's
//! reference \[29\]).
//!
//! The full (non-simplified) 2Q: newly fetched pages enter a small FIFO
//! `A1in`; pages evicted from `A1in` leave their identity in a ghost FIFO
//! `A1out`; a page re-referenced while in `A1out` has proven reuse beyond
//! correlated accesses and is promoted into the main LRU `Am`. One-shot
//! scans wash through `A1in` without ever touching `Am`.
//!
//! Tuning follows the paper's recommendation: `Kin = capacity / 4`,
//! `Kout = capacity / 2` (minimum 1 each).

use crate::policy::{InsertOutcome, Key, PolicyKind, ReplacementPolicy};
use crate::queue::{Entry, OrderedQueue};

/// Resident, fetched once: FIFO.
const A1IN: usize = 0;
/// Resident with proven reuse: LRU.
const AM: usize = 1;
/// Ghost of a page paged out of A1in: identities only, FIFO.
const A1OUT: usize = 2;

/// The 2Q policy.
#[derive(Debug)]
pub struct TwoQPolicy {
    capacity: usize,
    kin: usize,
    kout: usize,
    /// A1in, Am and A1out as lists of one structure.
    lists: OrderedQueue<3>,
}

impl TwoQPolicy {
    /// 2Q with the paper-recommended 25% / 50% tuning.
    pub fn new(capacity: usize) -> Self {
        TwoQPolicy {
            capacity,
            kin: (capacity / 4).max(1),
            kout: (capacity / 2).max(1),
            lists: OrderedQueue::new(),
        }
    }

    /// Make room for one page; returns the evicted resident, if any, and
    /// whether trimming A1out dropped `ghost`.
    /// (The `reclaimfor` procedure of the original paper.)
    fn reclaim(&mut self, ghost: Option<Key>) -> (Option<Key>, bool) {
        if self.len() < self.capacity {
            return (None, false);
        }
        if self.lists.list_len(A1IN) > self.kin {
            // Page out the A1in FIFO head, remember it in A1out.
            let victim = self.lists.front(A1IN).expect("a1in non-empty");
            let mut dropped = false;
            while self.lists.list_len(A1OUT) >= self.kout {
                dropped |= self.lists.pop_front(A1OUT) == ghost;
            }
            self.lists.move_back(victim, A1OUT);
            (Some(self.lists.key_of(victim)), dropped)
        } else if let Some(victim) = self.lists.pop_front(AM) {
            // Am evictions are NOT remembered in A1out (original design).
            (Some(victim), false)
        } else {
            (self.lists.pop_front(A1IN), false)
        }
    }
}

impl ReplacementPolicy for TwoQPolicy {
    fn kind(&self) -> PolicyKind {
        PolicyKind::TwoQ
    }

    fn capacity(&self) -> usize {
        self.capacity
    }

    fn len(&self) -> usize {
        self.lists.list_len(A1IN) + self.lists.list_len(AM)
    }

    fn contains(&self, key: &Key) -> bool {
        (self.lists.find(key)).is_some_and(|slot| self.lists.list_of(slot) != A1OUT)
    }

    fn on_access(&mut self, key: Key) -> bool {
        match self
            .lists
            .find(&key)
            .map(|slot| (slot, self.lists.list_of(slot)))
        {
            Some((slot, AM)) => {
                self.lists.move_back(slot, AM);
                true
            }
            // A1in hit: correlated reference, page stays put.
            Some((_, list)) => list == A1IN,
            None => false,
        }
    }

    fn admit(&mut self, key: Key, _priority: u8) -> InsertOutcome {
        let slot = match self.lists.entry(key) {
            Entry::Vacant(slot) => {
                let (evicted, _) = self.reclaim(None);
                self.lists.move_back(slot, A1IN);
                return InsertOutcome::Inserted { evicted };
            }
            Entry::Occupied(slot) => slot,
        };
        match self.lists.list_of(slot) {
            AM => self.lists.move_back(slot, AM),
            A1IN => {}
            _ => {
                // Proven reuse: straight into Am — unless making room
                // trimmed the ghost itself out of A1out, when it is new.
                let (evicted, dropped) = self.reclaim(Some(key));
                if dropped {
                    self.lists.push_back(A1IN, key);
                } else {
                    self.lists.move_back(slot, AM);
                }
                return InsertOutcome::Inserted { evicted };
            }
        }
        InsertOutcome::AlreadyResident
    }

    fn clear(&mut self) {
        self.lists.clear();
    }

    fn map_ops(&self) -> u64 {
        self.lists.map_ops()
    }

    fn reserve(&mut self, accesses: usize) {
        self.lists
            .reserve(accesses.min(self.capacity + self.kout + 1));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key;

    /// Is `k` in `list`?
    fn holds(c: &TwoQPolicy, list: usize, k: Key) -> bool {
        (c.lists.find(&k)).is_some_and(|slot| c.lists.list_of(slot) == list)
    }

    #[test]
    fn new_pages_enter_a1in() {
        let mut c = TwoQPolicy::new(8);
        c.on_insert(key(0, 0, 0), 1);
        assert!(holds(&c, A1IN, key(0, 0, 0)));
        assert!(!holds(&c, AM, key(0, 0, 0)));
    }

    #[test]
    fn ghost_hit_promotes_to_am() {
        let mut c = TwoQPolicy::new(4); // kin = 1
        c.on_insert(key(0, 0, 0), 1);
        c.on_insert(key(0, 0, 1), 1);
        c.on_insert(key(0, 0, 2), 1);
        c.on_insert(key(0, 0, 3), 1);
        // Overflow: A1in > kin → key0 pushed to A1out ghost.
        c.on_insert(key(0, 0, 4), 1);
        assert!(holds(&c, A1OUT, key(0, 0, 0)));
        // Re-fetch key0 → promoted to Am.
        assert!(!c.on_access(key(0, 0, 0)));
        c.on_insert(key(0, 0, 0), 1);
        assert!(holds(&c, AM, key(0, 0, 0)));
    }

    #[test]
    fn a1in_hit_does_not_promote() {
        let mut c = TwoQPolicy::new(8);
        c.on_insert(key(0, 0, 0), 1);
        assert!(c.on_access(key(0, 0, 0)));
        assert!(
            holds(&c, A1IN, key(0, 0, 0)),
            "correlated hit stays in A1in"
        );
    }

    #[test]
    fn scan_does_not_flush_am() {
        let mut c = TwoQPolicy::new(4);
        // Promote one page to Am via the ghost path.
        c.on_insert(key(0, 0, 0), 1);
        for i in 1..5 {
            c.on_insert(key(0, 0, i), 1);
        }
        c.on_insert(key(0, 0, 0), 1); // ghost hit → Am
        assert!(holds(&c, AM, key(0, 0, 0)));
        // Long scan of fresh pages.
        for i in 100..140 {
            let k = key(0, 1, i);
            if !c.on_access(k) {
                c.on_insert(k, 1);
            }
        }
        assert!(c.contains(&key(0, 0, 0)), "Am page flushed by scan");
    }

    #[test]
    fn capacity_respected() {
        let mut c = TwoQPolicy::new(4);
        for i in 0..50 {
            let k = key(0, 0, i);
            if !c.on_access(k) {
                c.on_insert(k, 1);
            }
            assert!(c.len() <= 4);
        }
    }
}
