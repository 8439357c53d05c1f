//! The RAID controller's buffer cache.
//!
//! Wraps a [`ReplacementPolicy`] with hit/miss accounting and the paper's
//! access-time constants. The cache stores chunk *identities*; the policy
//! decides residency, and the engine charges 0.5 ms for a hit or a full
//! disk round-trip (plus insert/evict bookkeeping) for a miss.
//!
//! [`PayloadCache`] is the same cache holding real bytes: the slices a
//! data-plane executor runs, plus one slab of chunk-sized slots kept in
//! lockstep with the policies' residency.

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

/// Handle to one chunk-sized buffer of a [`PayloadCache`]'s slab.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Slot(u32);

/// Buffer-cache slices that hold their residents' payload bytes.
///
/// Every slice is a [`BufferCache`] (identities, hit/miss accounting);
/// the bytes live in one slab of `chunk_bytes` slots shared by all
/// slices. A miss takes a free slot and has it filled *in place*
/// ([`fill`](Self::fill)), a hit names the resident slot
/// ([`access`](Self::access)). Residency follows the policy through
/// `insert`'s evicted key — the [`ReplacementPolicy`] contract is at
/// most one eviction per insert and none on access.
///
/// A slot handed out by `access` or `fill` may be named by a repair that
/// has gathered its sources but not decoded them yet, so when such a
/// slot leaves residency it is not reused at once: it is parked on a
/// retired list until the caller says no handed-out slot is outstanding
/// ([`release_retired`](Self::release_retired)). An evicted slot nobody
/// was handed since the last release goes straight back to the free
/// list. The slab grows only when the free list is empty, so it never
/// holds more than `Σ slice capacity` slots plus the slots handed out
/// between two releases.
pub struct PayloadCache {
    slices: Vec<BufferCache>,
    /// Slot of every resident chunk, per slice.
    resident: Vec<FxHashMap<Key, Slot>>,
    chunk_bytes: usize,
    slab: Vec<Box<[u8]>>,
    /// Per slot: the epoch it was last handed out in.
    handed: Vec<u32>,
    /// Bumped by every `release_retired`; starts above every `handed`.
    epoch: u32,
    free: Vec<Slot>,
    retired: Vec<Slot>,
}

impl PayloadCache {
    /// Payload store over `slices` (as [`build_caches`](crate::build_caches)
    /// returns them) for chunks of `chunk_bytes`. The slab starts empty.
    pub fn new(slices: Vec<BufferCache>, chunk_bytes: usize) -> Self {
        PayloadCache {
            resident: vec![FxHashMap::default(); slices.len()],
            slices,
            chunk_bytes,
            slab: Vec::new(),
            handed: Vec::new(),
            epoch: 1,
            free: Vec::new(),
            retired: Vec::new(),
        }
    }

    /// Look `key` up in `slice`, updating policy state and stats. A hit
    /// returns the slot holding its bytes.
    pub fn access(&mut self, slice: usize, key: Key) -> Option<Slot> {
        match self.slices[slice].access(key) {
            Lookup::Hit => {
                let slot = *self.resident[slice]
                    .get(&key)
                    .expect("cache hit without a resident payload slot");
                self.handed[slot.0 as usize] = self.epoch;
                Some(slot)
            }
            Lookup::Miss => None,
        }
    }

    /// After a miss: let `read` fill a free slot in place, then insert
    /// `key` into `slice` with its FBF priority. The returned slot holds
    /// the bytes until the next [`release_retired`](Self::release_retired)
    /// at least, whether or not the policy kept the chunk. A failed
    /// `read` inserts nothing and frees the slot.
    pub fn fill<E>(
        &mut self,
        slice: usize,
        key: Key,
        priority: u8,
        read: impl FnOnce(&mut [u8]) -> Result<(), E>,
    ) -> Result<Slot, E> {
        let slot = self.free.pop().unwrap_or_else(|| {
            self.slab
                .push(vec![0u8; self.chunk_bytes].into_boxed_slice());
            self.handed.push(0);
            Slot(self.slab.len() as u32 - 1)
        });
        if let Err(e) = read(&mut self.slab[slot.0 as usize]) {
            self.free.push(slot);
            return Err(e);
        }
        self.handed[slot.0 as usize] = self.epoch;
        if let Some(evicted) = self.slices[slice].insert(key, priority) {
            let old = self.resident[slice]
                .remove(&evicted)
                .expect("evicted chunk had no payload slot");
            self.vacate(old);
        }
        if self.slices[slice].contains(&key) {
            self.resident[slice].insert(key, slot);
        } else {
            // Not admitted (zero-capacity slice).
            self.vacate(slot);
        }
        Ok(slot)
    }

    /// `slot` left residency: reusable now, or once the repair that may
    /// still name it has decoded.
    fn vacate(&mut self, slot: Slot) {
        if self.handed[slot.0 as usize] == self.epoch {
            self.retired.push(slot);
        } else {
            self.free.push(slot);
        }
    }

    /// The bytes `slot` holds.
    pub fn bytes(&self, slot: Slot) -> &[u8] {
        &self.slab[slot.0 as usize]
    }

    /// Every slot handed out before this call and no longer resident may
    /// be reused: the caller holds no gathered slot it has yet to read.
    pub fn release_retired(&mut self) {
        self.epoch += 1;
        self.free.append(&mut self.retired);
    }

    /// The cache slices, for their statistics.
    pub fn slices(&self) -> &[BufferCache] {
        &self.slices
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

    fn payload_cache(kind: PolicyKind, capacities: &[usize]) -> PayloadCache {
        let slices = capacities
            .iter()
            .map(|&c| BufferCache::new(kind, c))
            .collect();
        PayloadCache::new(slices, 8)
    }

    fn fill_with(c: &mut PayloadCache, slice: usize, k: Key, prio: u8, stamp: u64) -> Slot {
        c.fill(slice, k, prio, |buf| {
            buf.copy_from_slice(&stamp.to_le_bytes());
            Ok::<(), ()>(())
        })
        .unwrap()
    }

    #[test]
    fn evicted_slot_survives_until_release_when_handed_out() {
        let mut c = payload_cache(PolicyKind::Fifo, &[1]);
        let (a, b, d) = (key(0, 0, 0), key(0, 0, 1), key(0, 0, 2));
        assert_eq!(c.access(0, a), None);
        let sa = fill_with(&mut c, 0, a, 1, 0xA);
        // `b` evicts `a` while the gather that read `a` is still open.
        assert_eq!(c.access(0, b), None);
        let sb = fill_with(&mut c, 0, b, 1, 0xB);
        assert_ne!(sa, sb, "a gathered slot was reused before its decode");
        assert_eq!(c.bytes(sa), 0xAu64.to_le_bytes());
        assert_eq!(c.bytes(sb), 0xBu64.to_le_bytes());
        assert_eq!((c.slots(), c.free.len(), c.retired.len()), (2, 0, 1));
        c.release_retired();
        assert_eq!((c.free.len(), c.retired.len()), (1, 0));
        // Nobody was handed `b` since the release: its slot is free at
        // once, and the slab stops growing.
        assert_eq!(c.access(0, d), None);
        fill_with(&mut c, 0, d, 1, 0xD);
        assert_eq!((c.slots(), c.free.len(), c.retired.len()), (2, 1, 0));
    }

    #[test]
    fn failed_read_inserts_nothing_and_frees_the_slot() {
        let mut c = payload_cache(PolicyKind::Lru, &[2]);
        let k = key(1, 0, 0);
        assert_eq!(c.access(0, k), None);
        assert_eq!(c.fill(0, k, 1, |_| Err("medium")), Err("medium"));
        assert!(!c.slices()[0].contains(&k));
        assert_eq!((c.slots(), c.free.len()), (1, 1));
        assert_eq!(c.access(0, k), None);
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(64))]

        /// Slab and policies stay in lockstep under every policy, and a
        /// slot's bytes are what its miss stored for as long as the slot
        /// may be named: while resident, and until the next release once
        /// handed out.
        #[test]
        fn payload_slots_follow_the_policy(
            kind_idx in 0usize..10,
            capacities in proptest::collection::vec(0usize..6, 1..4),
            ops in proptest::collection::vec(
                (0usize..3, 0u32..3, 0usize..8, 1u8..4, 0u8..5), 1..300),
        ) {
            let kind = PolicyKind::EXTENDED[kind_idx];
            let mut c = payload_cache(kind, &capacities);
            let mut stored: Vec<FxHashMap<Key, u64>> = vec![FxHashMap::default(); capacities.len()];
            let mut handed: Vec<(Slot, u64)> = Vec::new();
            let (mut stamp, mut widest) = (0u64, 0usize);
            for (slice, stripe, col, prio, release) in ops {
                let slice = slice % capacities.len();
                let k = key(stripe, 0, col);
                match c.access(slice, k) {
                    Some(slot) => handed.push((slot, stored[slice][&k])),
                    None => {
                        stamp += 1;
                        let slot = fill_with(&mut c, slice, k, prio, stamp);
                        stored[slice].insert(k, stamp);
                        handed.push((slot, stamp));
                    }
                }
                for &(slot, expect) in &handed {
                    proptest::prop_assert_eq!(c.bytes(slot), expect.to_le_bytes(), "{}", kind);
                }
                widest = widest.max(handed.len());
                if release == 0 {
                    c.release_retired();
                    handed.clear();
                }
                let mut resident = 0;
                for (cache, slots) in c.slices.iter().zip(&c.resident) {
                    proptest::prop_assert_eq!(slots.len(), cache.len(), "{}", kind);
                    proptest::prop_assert!(slots.keys().all(|k| cache.contains(k)), "{}", kind);
                    resident += slots.len();
                }
                proptest::prop_assert_eq!(
                    c.free.len() + resident + c.retired.len(), c.slots(), "{}", kind);
                proptest::prop_assert!(
                    c.slots() <= capacities.iter().sum::<usize>() + widest, "{}", kind);
            }
        }
    }

    #[test]
    fn policy_kind_propagates() {
        let c = BufferCache::new(PolicyKind::Arc, 2);
        assert_eq!(c.policy_kind(), PolicyKind::Arc);
        assert_eq!(c.policy_kind().name(), "ARC");
    }
}
