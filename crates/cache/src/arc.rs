//! ARC — Adaptive Replacement Cache (Megiddo & Modha, FAST'03).
//!
//! The strongest classic baseline in the paper's comparison. ARC keeps two
//! resident lists — `T1` (seen once recently) and `T2` (seen at least
//! twice) — plus two *ghost* lists `B1`/`B2` remembering recently evicted
//! keys. A hit in a ghost list adapts the target size `p` of `T1`: B1 hits
//! grow it (recency is winning), B2 hits shrink it (frequency is winning).
//!
//! This is the full algorithm from Fig. 4 of the ARC paper, mapped onto the
//! two-call protocol of [`ReplacementPolicy`]: `on_access` serves resident
//! hits (cases I); `on_insert` handles ghost hits and cold misses
//! (cases II–IV), because that is the point where the cache actually
//! fetches and places the chunk.

use crate::policy::{InsertOutcome, Key, PolicyKind, ReplacementPolicy};
use crate::queue::OrderedQueue;

/// Adaptive Replacement Cache.
#[derive(Debug)]
pub struct ArcPolicy {
    capacity: usize,
    /// Target size for T1 (the "recency" side), `0..=capacity`.
    p: usize,
    t1: OrderedQueue,
    t2: OrderedQueue,
    b1: OrderedQueue,
    b2: OrderedQueue,
}

impl ArcPolicy {
    /// ARC cache holding at most `capacity` chunks (ghost lists hold up to
    /// another `capacity` keys of metadata, per the original algorithm).
    pub fn new(capacity: usize) -> Self {
        ArcPolicy {
            capacity,
            p: 0,
            t1: OrderedQueue::new(),
            t2: OrderedQueue::new(),
            b1: OrderedQueue::new(),
            b2: OrderedQueue::new(),
        }
    }

    /// REPLACE(x, p) from the paper: demote one resident page to its ghost
    /// list and return it.
    fn replace(&mut self, requested_in_b2: bool) -> Option<Key> {
        let t1_len = self.t1.len();
        if t1_len >= 1 && (t1_len > self.p || (requested_in_b2 && t1_len == self.p)) {
            let victim = self.t1.pop_front().expect("t1 non-empty");
            self.b1.push_back(victim);
            Some(victim)
        } else if let Some(victim) = self.t2.pop_front() {
            self.b2.push_back(victim);
            Some(victim)
        } else {
            None
        }
    }
}

impl ReplacementPolicy for ArcPolicy {
    fn kind(&self) -> PolicyKind {
        PolicyKind::Arc
    }

    fn capacity(&self) -> usize {
        self.capacity
    }

    fn len(&self) -> usize {
        self.t1.len() + self.t2.len()
    }

    fn contains(&self, key: &Key) -> bool {
        self.t1.contains(key) || self.t2.contains(key)
    }

    fn on_access(&mut self, key: Key) -> bool {
        // Case I: hit in T1 or T2 → move to MRU of T2.
        if self.t1.remove(&key) {
            self.t2.push_back(key);
            true
        } else {
            self.t2.touch(key)
        }
    }

    fn admit(&mut self, key: Key, _priority: u8) -> InsertOutcome {
        let c = self.capacity;
        if self.contains(&key) {
            // Case I after all: treat as the resident hit it is.
            self.on_access(key);
            return InsertOutcome::AlreadyResident;
        }

        // Case II: ghost hit in B1 → favour recency.
        if self.b1.contains(&key) {
            let delta = (self.b2.len() / self.b1.len().max(1)).max(1);
            self.p = (self.p + delta).min(c);
            let evicted = self.replace(false);
            self.b1.remove(&key);
            self.t2.push_back(key);
            return InsertOutcome::Inserted { evicted };
        }

        // Case III: ghost hit in B2 → favour frequency.
        if self.b2.contains(&key) {
            let delta = (self.b1.len() / self.b2.len().max(1)).max(1);
            self.p = self.p.saturating_sub(delta);
            let evicted = self.replace(true);
            self.b2.remove(&key);
            self.t2.push_back(key);
            return InsertOutcome::Inserted { evicted };
        }

        // Case IV: brand-new key.
        let l1 = self.t1.len() + self.b1.len();
        let total = l1 + self.t2.len() + self.b2.len();
        let evicted = if l1 == c {
            if self.t1.len() < c {
                self.b1.pop_front();
                self.replace(false)
            } else {
                // B1 empty, T1 full: evict T1's LRU outright (no ghost).
                self.t1.pop_front()
            }
        } else if l1 < c && total >= c {
            if total == 2 * c {
                self.b2.pop_front();
            }
            self.replace(false)
        } else {
            None
        };
        self.t1.push_back(key);
        InsertOutcome::Inserted { evicted }
    }

    fn clear(&mut self) {
        self.t1.clear();
        self.t2.clear();
        self.b1.clear();
        self.b2.clear();
        self.p = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key;

    /// Drive the miss path: access (miss) then insert.
    fn miss(arc: &mut ArcPolicy, k: Key) -> Option<Key> {
        assert!(!arc.on_access(k));
        arc.on_insert(k, 1).evicted()
    }

    #[test]
    fn resident_hit_promotes_to_t2() {
        let mut arc = ArcPolicy::new(4);
        miss(&mut arc, key(0, 0, 0));
        assert_eq!(arc.t1.len(), 1);
        assert!(arc.on_access(key(0, 0, 0)));
        assert_eq!(arc.t1.len(), 0);
        assert_eq!(arc.t2.len(), 1);
    }

    #[test]
    fn capacity_is_never_exceeded() {
        let mut arc = ArcPolicy::new(4);
        for i in 0..50 {
            let k = key(0, 0, i);
            if !arc.on_access(k) {
                arc.on_insert(k, 1);
            }
            assert!(
                arc.len() <= 4,
                "resident {} > capacity after {i}",
                arc.len()
            );
            assert!(arc.b1.len() + arc.b2.len() <= 4 + 1, "ghosts overgrown");
        }
    }

    #[test]
    fn t1_overflow_without_ghosts_evicts_outright() {
        // Case IV with |L1| = c and B1 empty: the T1 LRU leaves the cache
        // without entering a ghost list (ARC paper, case IV(a) else-branch).
        let mut arc = ArcPolicy::new(2);
        miss(&mut arc, key(0, 0, 0));
        miss(&mut arc, key(0, 0, 1));
        let evicted = miss(&mut arc, key(0, 0, 2));
        assert_eq!(evicted, Some(key(0, 0, 0)));
        assert!(
            !arc.b1.contains(&key(0, 0, 0)),
            "no ghost when B1 path not taken"
        );
    }

    #[test]
    fn ghost_hit_in_b1_grows_p() {
        let mut arc = ArcPolicy::new(2);
        // Put key 0 in T2, so the next overflow demotes from T1 into B1.
        miss(&mut arc, key(0, 0, 0));
        arc.on_access(key(0, 0, 0)); // T2 = [0]
        miss(&mut arc, key(0, 0, 1)); // T1 = [1]
        miss(&mut arc, key(0, 0, 2)); // REPLACE: T1 LRU (1) → B1
        assert!(arc.b1.contains(&key(0, 0, 1)));
        let p_before = arc.p;
        miss(&mut arc, key(0, 0, 1)); // ghost hit in B1
        assert!(arc.p > p_before);
        // Ghost-hit key is resident again, in T2.
        assert!(arc.t2.contains(&key(0, 0, 1)));
    }

    #[test]
    fn ghost_hit_in_b2_shrinks_p() {
        let mut arc = ArcPolicy::new(2);
        // Fill T2 entirely, then overflow: REPLACE takes the T2 LRU → B2.
        miss(&mut arc, key(0, 0, 0));
        arc.on_access(key(0, 0, 0)); // T2 = [0]
        miss(&mut arc, key(0, 0, 1));
        arc.on_access(key(0, 0, 1)); // T2 = [0, 1]
        miss(&mut arc, key(0, 0, 2)); // T1 empty → T2 LRU (0) → B2
        assert!(
            arc.b2.contains(&key(0, 0, 0)),
            "b2={:?}",
            arc.b2.iter().collect::<Vec<_>>()
        );
        // Grow p first so there is something to shrink.
        arc.p = 2;
        miss(&mut arc, key(0, 0, 0));
        assert!(arc.p < 2);
        assert!(arc.t2.contains(&key(0, 0, 0)));
    }

    #[test]
    fn scan_resistance() {
        // ARC's signature: a one-pass scan must not flush the frequently
        // used working set out of T2.
        let mut arc = ArcPolicy::new(4);
        let hot: Vec<Key> = (0..2).map(|i| key(0, 0, i)).collect();
        for &h in &hot {
            miss(&mut arc, h);
            arc.on_access(h); // promote to T2
        }
        // Long cold scan.
        for i in 100..130 {
            let k = key(0, 1, i);
            if !arc.on_access(k) {
                arc.on_insert(k, 1);
            }
        }
        for &h in &hot {
            assert!(arc.contains(&h), "hot key {h} flushed by scan");
        }
    }

    #[test]
    fn total_directory_bounded_by_two_c() {
        let mut arc = ArcPolicy::new(3);
        for i in 0..100 {
            let k = key(0, 0, i);
            if !arc.on_access(k) {
                arc.on_insert(k, 1);
            }
            let total = arc.t1.len() + arc.t2.len() + arc.b1.len() + arc.b2.len();
            assert!(total <= 2 * 3, "directory {total} exceeds 2c");
        }
    }
}
