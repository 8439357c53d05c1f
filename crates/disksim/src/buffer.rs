//! The RAID controller's buffer cache.
//!
//! Wraps a [`ReplacementPolicy`] with hit/miss accounting and the paper's
//! access-time constants. The cache stores chunk *identities*; the policy
//! decides residency, and the engine charges 0.5 ms for a hit or a full
//! disk round-trip (plus insert/evict bookkeeping) for a miss.
//!
//! [`PayloadCache`] holds the bytes of what those caches hold when a run
//! moves payloads, and only while a later read of the pass needs them:
//! one slab of chunk-sized slots, freed by the policies' evictions and by
//! each chunk's last planned read.

use fbf_cache::{CacheStats, FxHashMap, InsertOutcome, Key, PolicyKind, ReplacementPolicy};
use std::collections::hash_map::{Entry, OccupiedEntry};

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

    /// Accumulated statistics. Demotions and key-map operations live
    /// inside the policy (the hot-path `on_access` signature stays
    /// counter-free); they are folded into the snapshot here so callers
    /// see one uniform struct.
    pub fn stats(&self) -> CacheStats {
        let mut stats = self.stats;
        stats.demotions = self.policy.demotions();
        stats.map_ops = self.policy.map_ops();
        stats
    }

    /// Size the policy once for a run that makes at most `accesses`
    /// accesses through this cache ([`ReplacementPolicy::reserve`]).
    pub fn reserve(&mut self, accesses: usize) {
        self.policy.reserve(accesses);
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

/// The payload bytes a run's cache slices hold for a read still to come.
///
/// The slices ([`BufferCache`]) decide residency; this is one slab of
/// `chunk_bytes` slots beside them. A pass's scripts fix every read it
/// makes, so [`reset`](Self::reset) counts the reads of each chunk per
/// slice, and every access served here, or [`skip`](Self::skip)ped,
/// takes one off. A chunk keeps a slot only while its slice holds it and
/// a read of it is still to come: a hit ([`hit`](Self::hit)) reads the
/// resident slot and frees it after the chunk's last read; a miss
/// ([`miss`](Self::miss)) reads into a free slot that stays only if the
/// slice admitted the chunk and another read of it follows. The [`ReplacementPolicy`] contract — at most one
/// eviction per insert and none on access — keeps the rest in step: an
/// insert's evicted chunk frees its slot, or does nothing if its last
/// read already did. So the slab holds exactly the residents with a
/// pending read, plus one slot for the miss being read, and a hit never
/// names a chunk without a slot: its pending read kept the slot.
pub struct PayloadCache {
    /// Per slice, every chunk the pass has yet to read through it.
    pending: Vec<FxHashMap<Key, Pending>>,
    chunk_bytes: usize,
    slab: Vec<Box<[u8]>>,
    free: Vec<u32>,
}

/// A chunk's reads still to come in the pass, and the slot holding its
/// bytes while its slice holds it.
#[derive(Debug, Clone, Copy)]
struct Pending {
    reads: u32,
    slot: Option<u32>,
}

impl PayloadCache {
    /// Payload store for up to `slices` cache slices of chunks of
    /// `chunk_bytes`. The slab starts empty.
    pub fn new(slices: usize, chunk_bytes: usize) -> Self {
        PayloadCache {
            pending: vec![FxHashMap::default(); slices],
            chunk_bytes,
            slab: Vec::new(),
            free: Vec::new(),
        }
    }

    /// Every slot free again, for fresh cache slices, and the reads of
    /// the pass ahead counted: one per `(slice, key)` in `reads`.
    pub fn reset(&mut self, reads: impl IntoIterator<Item = (usize, Key)>) {
        for chunks in &mut self.pending {
            self.free.extend(chunks.drain().filter_map(|(_, p)| p.slot));
        }
        for (slice, key) in reads {
            let pending = self.pending[slice].entry(key).or_insert(Pending {
                reads: 0,
                slot: None,
            });
            pending.reads += 1;
        }
    }

    /// The bytes of `key`, which `slice` just reported a hit for. Its slot
    /// is free again if this was the chunk's last read.
    pub fn hit(&mut self, slice: usize, key: Key) -> &[u8] {
        let chunk = counted(&mut self.pending[slice], key);
        let slot = chunk
            .get()
            .slot
            .expect("cache hit without a resident payload slot");
        take_read(&mut self.free, chunk);
        &self.slab[slot as usize]
    }

    /// After `slice` missed `key` and inserted it with `outcome`: let
    /// `read` fill a free slot in place and return its bytes, which stay
    /// `key`'s resident payload if the slice admitted it and another read
    /// of it follows. A failed `read` frees the slot.
    pub fn miss<E>(
        &mut self,
        slice: usize,
        key: Key,
        outcome: InsertOutcome,
        read: impl FnOnce(&mut [u8]) -> Result<(), E>,
    ) -> Result<&[u8], E> {
        if let Some(evicted) = outcome.evicted() {
            let held = self.pending[slice].get_mut(&evicted);
            self.free.extend(held.and_then(|p| p.slot.take()));
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
        let mut chunk = counted(&mut self.pending[slice], key);
        if matches!(outcome, InsertOutcome::Inserted { .. }) && chunk.get().reads > 1 {
            chunk.get_mut().slot = Some(slot);
        } else {
            self.free.push(slot);
        }
        take_read(&mut self.free, chunk);
        Ok(&self.slab[slot as usize])
    }

    /// A read of `key` through `slice` the pass will not make after all:
    /// its count comes off as a served read's does.
    pub fn skip(&mut self, slice: usize, key: Key) {
        take_read(&mut self.free, counted(&mut self.pending[slice], key));
    }

    /// Slots allocated so far — the slab's high-water mark, since it
    /// never shrinks.
    pub fn slots(&self) -> usize {
        self.slab.len()
    }
}

/// `key`'s entry among a slice's `chunks`, which the access being served
/// must have.
fn counted(chunks: &mut FxHashMap<Key, Pending>, key: Key) -> OccupiedEntry<'_, Key, Pending> {
    match chunks.entry(key) {
        Entry::Occupied(chunk) => chunk,
        Entry::Vacant(_) => panic!("{key:?}: a read the pass did not count"),
    }
}

/// One read of `chunk` served: after its last, forget it and free its
/// slot.
fn take_read(free: &mut Vec<u32>, mut chunk: OccupiedEntry<'_, Key, Pending>) {
    chunk.get_mut().reads -= 1;
    if chunk.get().reads == 0 {
        free.extend(chunk.remove().slot);
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

    /// What each read costs FBF in key-map operations, on the paper's
    /// Fig. 5–7 sequence: a hit — demoting or not — is one lookup; a miss
    /// is the lookup plus one entry insert, and one removal more when it
    /// evicts.
    #[test]
    fn map_ops_per_read_on_the_fig5_to_7_sequence() {
        let mut c = BufferCache::new(PolicyKind::Fbf, 5);
        let cell = |r, col| key(0, r, col);
        let mut read = |k: Key, prio: u8| {
            let before = c.stats().map_ops;
            if c.access(k) == Lookup::Miss {
                c.insert(k, prio);
            }
            c.stats().map_ops - before
        };
        // Fig. 5: five cold misses fill the cache without evicting.
        for (k, prio) in [
            (cell(1, 1), 3),
            (cell(2, 2), 1),
            (cell(4, 4), 2),
            (cell(5, 5), 1),
            (cell(0, 6), 1),
        ] {
            assert_eq!(read(k, prio), 2, "cold miss {k}");
        }
        // Fig. 6: two hits demote C(1,1) Queue3 → Queue2 → Queue1.
        assert_eq!(read(cell(1, 1), 3), 1);
        assert_eq!(read(cell(1, 1), 3), 1);
        // Fig. 7: a full cache; each miss evicts a Queue1 chunk.
        assert_eq!(read(cell(1, 6), 1), 3);
        assert_eq!(read(cell(1, 7), 1), 3);
        // A Queue1 hit is an LRU touch: one lookup.
        assert_eq!(read(cell(1, 1), 3), 1);
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.evictions, s.demotions), (3, 7, 2, 2));
        assert_eq!(s.map_ops, 19);
        c.reset();
        assert_eq!(c.stats().map_ops, 0);
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

    /// Slots held, per slice: the chunks with a slot.
    fn held(c: &PayloadCache, slice: usize) -> Vec<Key> {
        let mut keys: Vec<Key> = (c.pending[slice].iter())
            .filter(|(_, p)| p.slot.is_some())
            .map(|(&k, _)| k)
            .collect();
        keys.sort_unstable();
        keys
    }

    #[test]
    fn vacated_slot_is_free_at_once() {
        let mut caches = slices(PolicyKind::Fifo, &[1]);
        let mut c = PayloadCache::new(1, 8);
        let (a, b) = (key(0, 0, 0), key(0, 0, 1));
        c.reset([(0, a), (0, a), (0, b), (0, b), (0, a)]);
        assert_eq!(
            access(&mut caches, &mut c, 0, a, 1, 0xA),
            0xAu64.to_le_bytes()
        );
        assert_eq!(held(&c, 0), [a], "a second read of `a` is pending");
        // `b` evicts `a`: its slot takes `b`'s bytes, and the slab stays
        // one slot.
        assert_eq!(
            access(&mut caches, &mut c, 0, b, 1, 0xB),
            0xBu64.to_le_bytes()
        );
        assert_eq!((c.slots(), c.free.len()), (1, 0));
        assert_eq!(held(&c, 0), [b]);
        assert_eq!(
            access(&mut caches, &mut c, 0, b, 1, 0),
            0xBu64.to_le_bytes()
        );
        c.reset([]);
        assert_eq!((c.slots(), c.free.len()), (1, 1));
    }

    #[test]
    fn last_read_frees_the_slot_and_its_eviction_is_a_no_op() {
        let mut caches = slices(PolicyKind::Lru, &[2]);
        let mut c = PayloadCache::new(1, 8);
        let (a, b, d) = (key(0, 0, 0), key(0, 0, 1), key(0, 0, 2));
        c.reset([(0, a), (0, a), (0, b), (0, b), (0, d)]);
        access(&mut caches, &mut c, 0, a, 1, 0xA);
        access(&mut caches, &mut c, 0, b, 1, 0xB);
        assert_eq!(held(&c, 0), [a, b]);
        // `a`'s last read is a hit: the slice still lists `a`, the slab
        // holds it no longer.
        assert_eq!(
            access(&mut caches, &mut c, 0, a, 1, 0),
            0xAu64.to_le_bytes()
        );
        assert!(caches[0].contains(&a));
        assert_eq!(held(&c, 0), [b]);
        // `b`'s last read frees the second slot. `d`, read once, evicts
        // the released `a` (nothing to free) and is not held.
        access(&mut caches, &mut c, 0, b, 1, 0);
        access(&mut caches, &mut c, 0, d, 1, 0xD);
        assert!(caches[0].contains(&d) && !caches[0].contains(&a));
        assert!(held(&c, 0).is_empty() && c.pending[0].is_empty());
        assert_eq!((c.slots(), c.free.len()), (2, 2));
    }

    #[test]
    fn failed_read_inserts_nothing_and_frees_the_slot() {
        let mut caches = slices(PolicyKind::Lru, &[2]);
        let mut c = PayloadCache::new(1, 8);
        let k = key(1, 0, 0);
        c.reset([(0, k), (0, k)]);
        assert_eq!(caches[0].access(k), Lookup::Miss);
        let outcome = caches[0].insert(k, 1);
        assert_eq!(c.miss(0, k, outcome, |_| Err("medium")), Err("medium"));
        assert!(held(&c, 0).is_empty());
        assert_eq!((c.slots(), c.free.len()), (1, 1));
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(64))]

        /// Slab and policies stay in step under every policy, checked
        /// after every access and every skipped read (priority 0 here):
        /// the slots held are exactly the slices' residents with a read
        /// still to come, every slot is free or held, the slab is never
        /// more than the most slots held at once plus one, and a hit
        /// serves what its chunk's miss stored.
        #[test]
        fn payload_slots_follow_the_policy(
            kind_idx in 0usize..10,
            capacities in proptest::collection::vec(0usize..6, 1..4),
            ops in proptest::collection::vec(
                (0usize..3, 0u32..3, 0usize..8, 0u8..4), 1..300),
        ) {
            let kind = PolicyKind::EXTENDED[kind_idx];
            let n = capacities.len();
            let ops: Vec<(usize, Key, u8)> = ops
                .into_iter()
                .map(|(slice, stripe, col, prio)| (slice % n, key(stripe, 0, col), prio))
                .collect();
            let mut caches = slices(kind, &capacities);
            let mut c = PayloadCache::new(n, 8);
            c.reset(ops.iter().map(|&(slice, k, _)| (slice, k)));
            let mut to_come: FxHashMap<(usize, Key), u32> = FxHashMap::default();
            for &(slice, k, _) in &ops {
                *to_come.entry((slice, k)).or_default() += 1;
            }
            let mut stored: Vec<FxHashMap<Key, u64>> = vec![FxHashMap::default(); n];
            let mut most_held = 0;
            for (stamp, &(slice, k, prio)) in (1u64..).zip(&ops) {
                if prio == 0 {
                    c.skip(slice, k);
                } else {
                    let expect = *stored[slice].entry(k).or_insert(stamp);
                    let served = access(&mut caches, &mut c, slice, k, prio, stamp);
                    stored[slice].retain(|k, _| caches[slice].contains(k));
                    proptest::prop_assert_eq!(served, expect.to_le_bytes(), "{}", kind);
                }
                *to_come.get_mut(&(slice, k)).unwrap() -= 1;
                let mut held_total = 0;
                for (slice, cache) in caches.iter().enumerate() {
                    let mut want: Vec<Key> = (to_come.iter())
                        .filter(|&(&(s, k), &left)| s == slice && left > 0 && cache.contains(&k))
                        .map(|(&(_, k), _)| k)
                        .collect();
                    want.sort_unstable();
                    let held = held(&c, slice);
                    proptest::prop_assert_eq!(&held, &want, "{}", kind);
                    held_total += held.len();
                }
                proptest::prop_assert_eq!(c.free.len() + held_total, c.slots(), "{}", kind);
                // The slab grows only when every slot is held: to the most
                // held before this access plus the miss being read.
                proptest::prop_assert!(c.slots() <= most_held + 1, "{}", kind);
                proptest::prop_assert!(
                    c.slots() <= capacities.iter().sum::<usize>() + 1, "{}", kind);
                most_held = most_held.max(held_total);
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
