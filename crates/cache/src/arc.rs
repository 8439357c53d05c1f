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
use crate::queue::{Entry, OrderedQueue};

/// Resident, seen once recently.
const T1: usize = 0;
/// Resident, seen at least twice.
const T2: usize = 1;
/// Ghost of a key evicted from T1.
const B1: usize = 2;
/// Ghost of a key evicted from T2.
const B2: usize = 3;

/// Adaptive Replacement Cache.
#[derive(Debug)]
pub struct ArcPolicy {
    capacity: usize,
    /// Target size for T1 (the "recency" side), `0..=capacity`.
    p: usize,
    /// The directory: T1, T2, B1 and B2 as lists of one structure, so a
    /// key's list says whether it is resident or a ghost.
    lists: OrderedQueue<4>,
}

impl ArcPolicy {
    /// ARC cache holding at most `capacity` chunks (ghost lists hold up to
    /// another `capacity` keys of metadata, per the original algorithm).
    pub fn new(capacity: usize) -> Self {
        ArcPolicy {
            capacity,
            p: 0,
            lists: OrderedQueue::new(),
        }
    }

    /// REPLACE(x, p) from the paper: demote one resident page to its ghost
    /// list (a splice: it stays in the directory) and return it.
    fn replace(&mut self, requested_in_b2: bool) -> Option<Key> {
        let t1_len = self.lists.list_len(T1);
        let (from, to) =
            if t1_len >= 1 && (t1_len > self.p || (requested_in_b2 && t1_len == self.p)) {
                (T1, B1)
            } else {
                (T2, B2)
            };
        let victim = self.lists.front(from)?;
        self.lists.move_back(victim, to);
        Some(self.lists.key_of(victim))
    }

    fn is_resident(list: usize) -> bool {
        list == T1 || list == T2
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
        self.lists.list_len(T1) + self.lists.list_len(T2)
    }

    fn contains(&self, key: &Key) -> bool {
        (self.lists.find(key)).is_some_and(|slot| Self::is_resident(self.lists.list_of(slot)))
    }

    fn on_access(&mut self, key: Key) -> bool {
        // Case I: hit in T1 or T2 → move to MRU of T2. A ghost is a miss.
        match self.lists.find(&key) {
            Some(slot) if Self::is_resident(self.lists.list_of(slot)) => {
                self.lists.move_back(slot, T2);
                true
            }
            _ => false,
        }
    }

    fn admit(&mut self, key: Key, _priority: u8) -> InsertOutcome {
        let c = self.capacity;
        let slot = match self.lists.entry(key) {
            Entry::Occupied(slot) => slot,
            Entry::Vacant(slot) => {
                // Case IV: brand-new key, in no list while room is made.
                let l1 = self.lists.list_len(T1) + self.lists.list_len(B1);
                let total = l1 + self.lists.list_len(T2) + self.lists.list_len(B2);
                let evicted = if l1 == c {
                    if self.lists.list_len(T1) < c {
                        self.lists.pop_front(B1);
                        self.replace(false)
                    } else {
                        // B1 empty, T1 full: evict T1's LRU outright (no ghost).
                        self.lists.pop_front(T1)
                    }
                } else if l1 < c && total >= c {
                    if total == 2 * c {
                        self.lists.pop_front(B2);
                    }
                    self.replace(false)
                } else {
                    None
                };
                self.lists.move_back(slot, T1);
                return InsertOutcome::Inserted { evicted };
            }
        };
        let in_b2 = match self.lists.list_of(slot) {
            // Case I after all: treat as the resident hit it is.
            T1 | T2 => {
                self.lists.move_back(slot, T2);
                return InsertOutcome::AlreadyResident;
            }
            list => list == B2,
        };
        let (b1, b2) = (self.lists.list_len(B1), self.lists.list_len(B2));
        if in_b2 {
            // Case III: ghost hit in B2 → favour frequency.
            self.p = self.p.saturating_sub((b1 / b2.max(1)).max(1));
        } else {
            // Case II: ghost hit in B1 → favour recency.
            self.p = (self.p + (b2 / b1.max(1)).max(1)).min(c);
        }
        let evicted = self.replace(in_b2);
        self.lists.move_back(slot, T2);
        InsertOutcome::Inserted { evicted }
    }

    fn clear(&mut self) {
        self.lists.clear();
        self.p = 0;
    }

    fn map_ops(&self) -> u64 {
        self.lists.map_ops()
    }

    fn reserve(&mut self, accesses: usize) {
        self.lists.reserve(accesses.min(2 * self.capacity + 1));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key;

    /// Is `k` in `list`?
    fn holds(arc: &ArcPolicy, list: usize, k: Key) -> bool {
        (arc.lists.find(&k)).is_some_and(|slot| arc.lists.list_of(slot) == list)
    }

    /// Drive the miss path: access (miss) then insert.
    fn miss(arc: &mut ArcPolicy, k: Key) -> Option<Key> {
        assert!(!arc.on_access(k));
        arc.on_insert(k, 1).evicted()
    }

    #[test]
    fn resident_hit_promotes_to_t2() {
        let mut arc = ArcPolicy::new(4);
        miss(&mut arc, key(0, 0, 0));
        assert_eq!(arc.lists.list_len(T1), 1);
        assert!(arc.on_access(key(0, 0, 0)));
        assert_eq!(arc.lists.list_len(T1), 0);
        assert_eq!(arc.lists.list_len(T2), 1);
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
            assert!(
                arc.lists.list_len(B1) + arc.lists.list_len(B2) <= 4 + 1,
                "ghosts overgrown"
            );
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
            !holds(&arc, B1, key(0, 0, 0)),
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
        assert!(holds(&arc, B1, key(0, 0, 1)));
        let p_before = arc.p;
        miss(&mut arc, key(0, 0, 1)); // ghost hit in B1
        assert!(arc.p > p_before);
        // Ghost-hit key is resident again, in T2.
        assert!(holds(&arc, T2, key(0, 0, 1)));
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
            holds(&arc, B2, key(0, 0, 0)),
            "b2={:?}",
            arc.lists.iter(B2).collect::<Vec<_>>()
        );
        // Grow p first so there is something to shrink.
        arc.p = 2;
        miss(&mut arc, key(0, 0, 0));
        assert!(arc.p < 2);
        assert!(holds(&arc, T2, key(0, 0, 0)));
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
            let total = arc.lists.len();
            assert!(total <= 2 * 3, "directory {total} exceeds 2c");
        }
    }
}
