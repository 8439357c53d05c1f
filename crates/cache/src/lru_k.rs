//! LRU-K replacement (O'Neil, O'Neil & Weikum, SIGMOD'93 — the paper's
//! reference \[28\]).
//!
//! LRU-K evicts the page whose K-th most recent reference is oldest,
//! distinguishing pages with genuine medium-term reuse from one-shot
//! scans. Pages referenced fewer than K times have backward K-distance
//! `∞` and are evicted first (in LRU order among themselves). Reference
//! history is retained for a bounded number of recently evicted pages
//! (the paper's *Retained Information Period*), so a page re-fetched soon
//! after eviction keeps its credit.

use crate::key_map::KeyMap;
use crate::policy::{InsertOutcome, Key, PolicyKind, ReplacementPolicy};
use std::collections::VecDeque;

/// Reference history of one page: the last up-to-K access ticks, most
/// recent first.
#[derive(Debug, Clone, Default)]
struct History {
    ticks: VecDeque<u64>,
}

impl History {
    fn record(&mut self, tick: u64, k: usize) {
        self.ticks.push_front(tick);
        self.ticks.truncate(k);
    }

    /// The K-th most recent reference, or `None` (= infinitely old) if the
    /// page has fewer than K references.
    fn kth(&self, k: usize) -> Option<u64> {
        self.ticks.get(k - 1).copied()
    }

    fn last(&self) -> u64 {
        self.ticks.front().copied().unwrap_or(0)
    }
}

/// The LRU-K policy (default K = 2).
#[derive(Debug)]
pub struct LruKPolicy {
    capacity: usize,
    k: usize,
    tick: u64,
    /// Histories of resident pages.
    resident: KeyMap<History>,
    /// Histories retained for evicted pages, bounded FIFO.
    retained: KeyMap<History>,
    retained_order: VecDeque<Key>,
}

impl LruKPolicy {
    /// LRU-2, the classic configuration.
    pub fn new(capacity: usize) -> Self {
        Self::with_k(capacity, 2)
    }

    /// LRU-K for arbitrary K ≥ 1 (K = 1 degenerates to plain LRU).
    fn with_k(capacity: usize, k: usize) -> Self {
        assert!(k >= 1, "K must be at least 1");
        LruKPolicy {
            capacity,
            k,
            tick: 0,
            resident: KeyMap::default(),
            retained: KeyMap::default(),
            retained_order: VecDeque::new(),
        }
    }

    /// The eviction victim: smallest K-th reference tick; pages without K
    /// references count as tick `-∞` and lose ties by older last
    /// reference.
    fn victim(&self) -> Key {
        *self
            .resident
            .iter()
            .min_by_key(|(_, h)| (h.kth(self.k).map_or(0, |t| t + 1), h.last()))
            .map(|(k, _)| k)
            .expect("victim() called on a non-empty cache")
    }

    fn retain(&mut self, key: Key, hist: History) {
        // Bounded retained-information store: as large as the cache.
        if self.capacity == 0 {
            return;
        }
        while self.retained_order.len() >= self.capacity {
            if let Some(old) = self.retained_order.pop_front() {
                self.retained.remove(&old);
            }
        }
        self.retained_order.push_back(key);
        self.retained.insert(key, hist);
    }
}

impl ReplacementPolicy for LruKPolicy {
    fn kind(&self) -> PolicyKind {
        PolicyKind::LruK
    }

    fn capacity(&self) -> usize {
        self.capacity
    }

    fn len(&self) -> usize {
        self.resident.len()
    }

    fn contains(&self, key: &Key) -> bool {
        self.resident.contains_key(key)
    }

    fn on_access(&mut self, key: Key) -> bool {
        self.tick += 1;
        if let Some(h) = self.resident.get_mut(&key) {
            h.record(self.tick, self.k);
            true
        } else {
            false
        }
    }

    fn admit(&mut self, key: Key, _priority: u8) -> InsertOutcome {
        if self.resident.contains_key(&key) {
            self.on_access(key);
            return InsertOutcome::AlreadyResident;
        }
        let evicted = if self.resident.len() >= self.capacity {
            let v = self.victim();
            let hist = self.resident.remove(&v).expect("victim resident");
            self.retain(v, hist);
            Some(v)
        } else {
            None
        };
        self.tick += 1;
        // Resume a retained history if the page came back quickly.
        let mut hist = if let Some(h) = self.retained.remove(&key) {
            self.retained_order.retain(|k| k != &key);
            h
        } else {
            History::default()
        };
        hist.record(self.tick, self.k);
        self.resident.insert(key, hist);
        InsertOutcome::Inserted { evicted }
    }

    fn clear(&mut self) {
        self.resident.clear();
        self.retained.clear();
        self.retained_order.clear();
        self.tick = 0;
    }

    fn map_ops(&self) -> u64 {
        self.resident.ops() + self.retained.ops()
    }

    fn reserve(&mut self, accesses: usize) {
        let keys = accesses.min(self.capacity);
        self.resident.reserve(keys);
        self.retained.reserve(keys);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key;

    #[test]
    fn single_reference_pages_evicted_before_multi() {
        let mut c = LruKPolicy::new(3);
        c.on_insert(key(0, 0, 0), 1);
        c.on_access(key(0, 0, 0)); // two refs → finite K-distance
        c.on_insert(key(0, 0, 1), 1); // one ref
        c.on_insert(key(0, 0, 2), 1); // one ref
                                      // key 1 is the older single-reference page → victim.
        assert_eq!(c.on_insert(key(0, 0, 3), 1).evicted(), Some(key(0, 0, 1)));
        assert!(c.contains(&key(0, 0, 0)));
    }

    #[test]
    fn k1_behaves_like_lru() {
        let mut c = LruKPolicy::with_k(2, 1);
        c.on_insert(key(0, 0, 0), 1);
        c.on_insert(key(0, 0, 1), 1);
        c.on_access(key(0, 0, 0));
        assert_eq!(c.on_insert(key(0, 0, 2), 1).evicted(), Some(key(0, 0, 1)));
    }

    #[test]
    fn scan_resistance() {
        // A hot page referenced twice survives a long one-shot scan.
        let mut c = LruKPolicy::new(4);
        let hot = key(0, 0, 0);
        c.on_insert(hot, 1);
        c.on_access(hot);
        for i in 1..40 {
            let k = key(0, 1, i);
            if !c.on_access(k) {
                c.on_insert(k, 1);
            }
        }
        assert!(c.contains(&hot), "hot page flushed by scan");
    }

    #[test]
    fn retained_history_restores_credit() {
        let mut c = LruKPolicy::new(2);
        let a = key(0, 0, 0);
        c.on_insert(a, 1);
        c.on_access(a); // 2 refs
        c.on_insert(key(0, 0, 1), 1);
        // Evict a's companion then force a out too.
        c.on_insert(key(0, 0, 2), 1); // evicts key1 (single ref)
        c.on_insert(key(0, 0, 3), 1); // evicts key2 or a...
                                      // Re-insert a: history restored → has >= 2 refs immediately.
        if !c.contains(&a) {
            c.on_insert(a, 1);
            let h = &c.resident[&a];
            assert!(h.ticks.len() >= 2, "retained history must be resumed");
        }
    }

    #[test]
    #[should_panic(expected = "K must be at least 1")]
    fn k0_rejected() {
        LruKPolicy::with_k(4, 0);
    }
}
