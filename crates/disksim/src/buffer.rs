//! The RAID controller's buffer cache.
//!
//! Wraps a [`ReplacementPolicy`] with hit/miss accounting and the paper's
//! access-time constants. The cache stores chunk *identities*; the policy
//! decides residency, and the engine charges 0.5 ms for a hit or a full
//! disk round-trip (plus insert/evict bookkeeping) for a miss.
//!
//! [`PayloadCache`] holds the bytes of what those caches hold when a run
//! moves payloads: one slab of chunk-sized slots kept in lockstep with the
//! policies' residency.

use fbf_cache::{CacheStats, FxHashMap, InsertOutcome, Key, PolicyKind, ReplacementPolicy};

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
    /// policies), and say what became of it. Duplicate inserts and
    /// zero-capacity rejections evict nothing and are not counted as
    /// inserts.
    pub fn insert(&mut self, key: Key, priority: u8) -> InsertOutcome {
        let outcome = self.policy.on_insert(key, priority);
        if let InsertOutcome::Inserted { evicted } = outcome {
            self.stats.record_insert_prio(priority, evicted.is_some());
        }
        outcome
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

/// The payload bytes of the chunks resident in a run's cache slices.
///
/// The slices themselves ([`BufferCache`]) decide residency; this is one
/// slab of `chunk_bytes` slots kept in lockstep with them through the
/// outcome of every insert — the [`ReplacementPolicy`] contract is at
/// most one eviction per insert and none on access. A hit reads the
/// resident slot ([`hit`](Self::hit)); a miss reads into a free slot
/// ([`miss`](Self::miss)) that stays resident if the slice admitted the
/// chunk and is free again at once if not. No slot outlives the access
/// that named it, so the slab never holds more slots than the slices
/// hold chunks, plus one for a miss no slice admits.
pub struct PayloadCache {
    /// Slab index of every resident chunk, per slice.
    resident: Vec<FxHashMap<Key, u32>>,
    chunk_bytes: usize,
    slab: Vec<Box<[u8]>>,
    free: Vec<u32>,
}

impl PayloadCache {
    /// Payload store for up to `slices` cache slices of chunks of
    /// `chunk_bytes`. The slab starts empty.
    pub fn new(slices: usize, chunk_bytes: usize) -> Self {
        PayloadCache {
            resident: vec![FxHashMap::default(); slices],
            chunk_bytes,
            slab: Vec::new(),
            free: Vec::new(),
        }
    }

    /// Every slot free again, for fresh cache slices.
    pub fn reset(&mut self) {
        for slots in &mut self.resident {
            self.free.extend(slots.drain().map(|(_, slot)| slot));
        }
    }

    /// The bytes of `key`, which `slice` just reported a hit for.
    pub fn hit(&self, slice: usize, key: Key) -> &[u8] {
        let slot = self.resident[slice]
            .get(&key)
            .expect("cache hit without a resident payload slot");
        &self.slab[*slot as usize]
    }

    /// After `slice` missed `key` and inserted it with `outcome`: let
    /// `read` fill a free slot in place and return its bytes, which are
    /// `key`'s resident payload if the slice admitted it. A failed `read`
    /// frees the slot.
    pub fn miss<E>(
        &mut self,
        slice: usize,
        key: Key,
        outcome: InsertOutcome,
        read: impl FnOnce(&mut [u8]) -> Result<(), E>,
    ) -> Result<&[u8], E> {
        if let Some(evicted) = outcome.evicted() {
            let old = self.resident[slice]
                .remove(&evicted)
                .expect("evicted chunk had no payload slot");
            self.free.push(old);
        }
        let slot = self.free.pop().unwrap_or_else(|| {
            self.slab
                .push(vec![0u8; self.chunk_bytes].into_boxed_slice());
            self.slab.len() as u32 - 1
        });
        if let Err(e) = read(&mut self.slab[slot as usize]) {
            self.free.push(slot);
            return Err(e);
        }
        if matches!(outcome, InsertOutcome::Inserted { .. }) {
            self.resident[slice].insert(key, slot);
        } else {
            self.free.push(slot);
        }
        Ok(&self.slab[slot as usize])
    }

    /// Slots allocated so far — the slab's high-water mark, since it
    /// never shrinks.
    pub fn slots(&self) -> usize {
        self.slab.len()
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
        let evicted = c.insert(key(0, 0, 1), 1).evicted();
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

    fn slices(kind: PolicyKind, capacities: &[usize]) -> Vec<BufferCache> {
        capacities
            .iter()
            .map(|&c| BufferCache::new(kind, c))
            .collect()
    }

    /// One access as a run makes it: the slice decides, the payload
    /// follows. Returns the bytes served.
    fn access(
        caches: &mut [BufferCache],
        c: &mut PayloadCache,
        slice: usize,
        k: Key,
        prio: u8,
        stamp: u64,
    ) -> [u8; 8] {
        let bytes = match caches[slice].access(k) {
            Lookup::Hit => c.hit(slice, k),
            Lookup::Miss => {
                let outcome = caches[slice].insert(k, prio);
                c.miss(slice, k, outcome, |buf| {
                    buf.copy_from_slice(&stamp.to_le_bytes());
                    Ok::<(), ()>(())
                })
                .unwrap()
            }
        };
        bytes.try_into().unwrap()
    }

    #[test]
    fn vacated_slot_is_free_at_once() {
        let mut caches = slices(PolicyKind::Fifo, &[1]);
        let mut c = PayloadCache::new(1, 8);
        let (a, b) = (key(0, 0, 0), key(0, 0, 1));
        assert_eq!(
            access(&mut caches, &mut c, 0, a, 1, 0xA),
            0xAu64.to_le_bytes()
        );
        // `b` evicts `a`: its slot takes `b`'s bytes, and the slab stays
        // one slot.
        assert_eq!(
            access(&mut caches, &mut c, 0, b, 1, 0xB),
            0xBu64.to_le_bytes()
        );
        assert_eq!((c.slots(), c.free.len()), (1, 0));
        assert_eq!(
            access(&mut caches, &mut c, 0, b, 1, 0),
            0xBu64.to_le_bytes()
        );
        c.reset();
        assert_eq!((c.slots(), c.free.len()), (1, 1));
    }

    #[test]
    fn failed_read_inserts_nothing_and_frees_the_slot() {
        let mut caches = slices(PolicyKind::Lru, &[2]);
        let mut c = PayloadCache::new(1, 8);
        let k = key(1, 0, 0);
        assert_eq!(caches[0].access(k), Lookup::Miss);
        let outcome = caches[0].insert(k, 1);
        assert_eq!(c.miss(0, k, outcome, |_| Err("medium")), Err("medium"));
        assert!(c.resident[0].is_empty());
        assert_eq!((c.slots(), c.free.len()), (1, 1));
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(64))]

        /// Slab and policies stay in lockstep under every policy: a hit
        /// serves what its chunk's miss stored, every slot is free or
        /// resident, and the slab never outgrows the slices.
        #[test]
        fn payload_slots_follow_the_policy(
            kind_idx in 0usize..10,
            capacities in proptest::collection::vec(0usize..6, 1..4),
            ops in proptest::collection::vec(
                (0usize..3, 0u32..3, 0usize..8, 1u8..4), 1..300),
        ) {
            let kind = PolicyKind::EXTENDED[kind_idx];
            let mut caches = slices(kind, &capacities);
            let mut c = PayloadCache::new(capacities.len(), 8);
            let mut stored: Vec<FxHashMap<Key, u64>> = vec![FxHashMap::default(); capacities.len()];
            for (stamp, (slice, stripe, col, prio)) in (1u64..).zip(ops) {
                let slice = slice % capacities.len();
                let k = key(stripe, 0, col);
                let expect = *stored[slice].entry(k).or_insert(stamp);
                let served = access(&mut caches, &mut c, slice, k, prio, stamp);
                stored[slice].retain(|k, _| caches[slice].contains(k));
                proptest::prop_assert_eq!(served, expect.to_le_bytes(), "{}", kind);
                let mut resident = 0;
                for (cache, slots) in caches.iter().zip(&c.resident) {
                    proptest::prop_assert_eq!(slots.len(), cache.len(), "{}", kind);
                    proptest::prop_assert!(slots.keys().all(|k| cache.contains(k)), "{}", kind);
                    resident += slots.len();
                }
                proptest::prop_assert_eq!(c.free.len() + resident, c.slots(), "{}", kind);
                proptest::prop_assert!(
                    c.slots() <= capacities.iter().sum::<usize>() + 1, "{}", kind);
            }
        }
    }

    #[test]
    fn policy_kind_propagates() {
        let c = BufferCache::new(PolicyKind::Arc, 2);
        assert_eq!(c.policy.kind(), PolicyKind::Arc);
        assert_eq!(c.policy.kind().name(), "ARC");
    }
}
