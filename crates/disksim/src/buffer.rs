//! The RAID controller's buffer cache.
//!
//! Wraps a [`ReplacementPolicy`] with hit/miss accounting and the paper's
//! access-time constants. The cache stores chunk *identities*; the policy
//! decides residency, and the engine charges 0.5 ms for a hit or a full
//! disk round-trip (plus insert/evict bookkeeping) for a miss.

use fbf_cache::{CacheStats, InsertOutcome, Key, PolicyKind, ReplacementPolicy};

/// Result of a cache lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lookup {
    /// Chunk resident; served at buffer-cache speed.
    Hit,
    /// Chunk absent; must be fetched from disk then inserted.
    Miss,
}

/// A buffer cache: replacement policy + statistics.
pub struct BufferCache {
    policy: Box<dyn ReplacementPolicy>,
    stats: CacheStats,
}

impl BufferCache {
    /// Build a cache of `capacity` chunks using `kind`'s policy.
    pub fn new(kind: PolicyKind, capacity: usize) -> Self {
        BufferCache {
            policy: kind.build(capacity),
            stats: CacheStats::default(),
        }
    }

    /// Build around an existing policy instance (used for configured FBF
    /// variants in ablations).
    pub fn from_policy(policy: Box<dyn ReplacementPolicy>) -> Self {
        BufferCache {
            policy,
            stats: CacheStats::default(),
        }
    }

    /// Look `key` up, updating policy state and stats.
    pub fn access(&mut self, key: Key) -> Lookup {
        if self.policy.on_access(key) {
            self.stats.record_hit();
            Lookup::Hit
        } else {
            self.stats.record_miss();
            Lookup::Miss
        }
    }

    /// Insert `key` after a miss, with its FBF priority (ignored by other
    /// policies). Returns the evicted chunk, if any. Duplicate inserts and
    /// zero-capacity rejections ([`InsertOutcome`]) evict nothing and are
    /// not counted as inserts.
    pub fn insert(&mut self, key: Key, priority: u8) -> Option<Key> {
        match self.policy.on_insert(key, priority) {
            InsertOutcome::Inserted { evicted } => {
                self.stats.record_insert_prio(priority, evicted.is_some());
                evicted
            }
            InsertOutcome::AlreadyResident | InsertOutcome::Rejected => None,
        }
    }

    /// Residency check without side effects.
    pub fn contains(&self, key: &Key) -> bool {
        self.policy.contains(key)
    }

    /// Accumulated statistics. Demotions live inside the policy (the
    /// hot-path `on_access` signature stays counter-free); they are folded
    /// into the snapshot here so callers see one uniform struct.
    pub fn stats(&self) -> CacheStats {
        let mut stats = self.stats;
        stats.demotions = self.policy.demotions();
        stats
    }

    /// Current `[Queue1, Queue2, Queue3]` occupancy for priority-queue
    /// policies (FBF); `None` otherwise.
    pub fn queue_occupancy(&self) -> Option<[usize; 3]> {
        self.policy.queue_occupancy()
    }

    /// Number of resident chunks.
    pub fn len(&self) -> usize {
        self.policy.len()
    }

    /// Is the cache empty?
    pub fn is_empty(&self) -> bool {
        self.policy.is_empty()
    }

    /// Capacity in chunks.
    pub fn capacity(&self) -> usize {
        self.policy.capacity()
    }

    /// Which replacement policy this cache runs. Display goes through
    /// [`PolicyKind`]'s `Display`/`name()` — the one place names live.
    pub fn policy_kind(&self) -> PolicyKind {
        self.policy.kind()
    }

    /// Drop residents and stats (fresh campaign).
    pub fn reset(&mut self) {
        self.policy.clear();
        self.stats = CacheStats::default();
    }
}

impl std::fmt::Debug for BufferCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BufferCache")
            .field("policy", &self.policy.kind())
            .field("capacity", &self.policy.capacity())
            .field("len", &self.policy.len())
            .field("stats", &self.stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fbf_cache::key;

    #[test]
    fn access_miss_then_hit() {
        let mut c = BufferCache::new(PolicyKind::Lru, 4);
        let k = key(0, 0, 0);
        assert_eq!(c.access(k), Lookup::Miss);
        c.insert(k, 1);
        assert_eq!(c.access(k), Lookup::Hit);
        let s = c.stats();
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 1);
    }

    #[test]
    fn eviction_recorded() {
        let mut c = BufferCache::new(PolicyKind::Fifo, 1);
        c.access(key(0, 0, 0));
        c.insert(key(0, 0, 0), 1);
        c.access(key(0, 0, 1));
        let evicted = c.insert(key(0, 0, 1), 1);
        assert_eq!(evicted, Some(key(0, 0, 0)));
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn reset_clears_state_and_stats() {
        let mut c = BufferCache::new(PolicyKind::Fbf, 4);
        c.access(key(0, 0, 0));
        c.insert(key(0, 0, 0), 3);
        c.reset();
        assert_eq!(c.len(), 0);
        assert_eq!(c.stats(), CacheStats::default());
        assert_eq!(c.access(key(0, 0, 0)), Lookup::Miss);
    }

    #[test]
    fn demotions_and_priority_split_surface_in_stats() {
        let mut c = BufferCache::new(PolicyKind::Fbf, 8);
        let k = key(0, 0, 0);
        c.access(k);
        c.insert(k, 3);
        c.access(k); // Q3 → Q2 demotion
        c.access(k); // Q2 → Q1 demotion
        c.access(key(0, 0, 1));
        c.insert(key(0, 0, 1), 1);
        let s = c.stats();
        assert_eq!(s.demotions, 2);
        assert_eq!(s.prio_inserts, [1, 0, 1]);
        assert_eq!(s.prio_inserts.iter().sum::<u64>(), s.inserts);
        assert_eq!(c.queue_occupancy(), Some([2, 0, 0]));
        c.reset();
        assert_eq!(c.stats(), CacheStats::default());
    }

    #[test]
    fn policy_kind_propagates() {
        let c = BufferCache::new(PolicyKind::Arc, 2);
        assert_eq!(c.policy_kind(), PolicyKind::Arc);
        assert_eq!(c.policy_kind().name(), "ARC");
    }
}
