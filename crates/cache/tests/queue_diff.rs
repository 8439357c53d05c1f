//! Differential property tests for the one-slab [`OrderedQueue`] and the
//! policies built on it.
//!
//! Two levels, one oracle:
//!
//! * **Queue.** `OrderedQueue<3>` must be observationally identical to
//!   three map-backed queues ([`oracle::MapQueue`], the implementation the
//!   slab replaced: a BTreeMap sequence index plus a std HashMap) under
//!   arbitrary multi-list operation sequences, and its slab must never
//!   hold more slots than it ever held keys at once (freed slots are
//!   reused).
//! * **Policies.** FBF, ARC, 2Q and VDF as they were written before their
//!   lists shared one slab and one key map — one `MapQueue` per list, FBF
//!   with its separate `level_of` map — are restated in [`reference`] as
//!   obviously-correct reference policies. A property test drives each
//!   reference and the real policy through random access/insert sequences
//!   and compares every return value and every observable after each step.
//!
//! Any divergence is a bug in the slab, its free list, or a ported policy
//! — not a test flake.

use fbf_cache::queue::OrderedQueue;
use fbf_cache::{
    key, ArcPolicy, DemotePosition, FbfConfig, FbfPolicy, FxHashMap, Key, ReplacementPolicy,
    TwoQPolicy, VdfPolicy,
};
use oracle::MapQueue;
use proptest::prelude::*;
use std::sync::Arc;

mod oracle {
    //! The original map-backed queue, retained verbatim in behaviour.

    use fbf_cache::Key;
    use std::collections::{BTreeMap, HashMap};

    /// An ordered queue of unique keys with O(log n) operations, backed by
    /// a `BTreeMap` keyed by a monotonic sequence number plus a SipHash
    /// reverse index.
    #[derive(Debug, Default, Clone)]
    pub struct MapQueue {
        by_seq: BTreeMap<i64, Key>,
        seq_of: HashMap<Key, i64>,
        /// Next sequence for push_back (grows), and previous for
        /// push_front (shrinks); i64 gives unbounded headroom either way.
        back: i64,
        front: i64,
    }

    impl MapQueue {
        /// Empty queue.
        pub fn new() -> Self {
            Self::default()
        }

        /// Number of keys in the queue.
        pub fn len(&self) -> usize {
            self.by_seq.len()
        }

        /// Is the key present?
        pub fn contains(&self, key: &Key) -> bool {
            self.seq_of.contains_key(key)
        }

        /// Append at the back. Panics on duplicates.
        pub fn push_back(&mut self, key: Key) {
            assert!(!self.contains(&key), "duplicate push of {key}");
            self.by_seq.insert(self.back, key);
            self.seq_of.insert(key, self.back);
            self.back += 1;
        }

        /// Insert at the front. Panics on duplicates.
        pub fn push_front(&mut self, key: Key) {
            assert!(!self.contains(&key), "duplicate push of {key}");
            self.front -= 1;
            self.by_seq.insert(self.front, key);
            self.seq_of.insert(key, self.front);
        }

        /// Remove and return the front (oldest) key.
        pub fn pop_front(&mut self) -> Option<Key> {
            let (&seq, &key) = self.by_seq.iter().next()?;
            self.by_seq.remove(&seq);
            self.seq_of.remove(&key);
            Some(key)
        }

        /// Peek at the front (oldest) key.
        pub fn front(&self) -> Option<&Key> {
            self.by_seq.values().next()
        }

        /// Peek at the back (newest) key.
        pub fn back(&self) -> Option<&Key> {
            self.by_seq.values().next_back()
        }

        /// Remove a key from anywhere. Returns whether it was present.
        pub fn remove(&mut self, key: &Key) -> bool {
            match self.seq_of.remove(key) {
                Some(seq) => {
                    self.by_seq.remove(&seq);
                    true
                }
                None => false,
            }
        }

        /// Move an existing key to the back. Returns whether present.
        pub fn touch(&mut self, key: Key) -> bool {
            if self.remove(&key) {
                self.push_back(key);
                true
            } else {
                false
            }
        }

        /// Iterate front-to-back.
        pub fn iter(&self) -> impl DoubleEndedIterator<Item = &Key> {
            self.by_seq.values()
        }

        /// Drop everything.
        pub fn clear(&mut self) {
            *self = Self::default();
        }
    }
}

mod reference {
    //! FBF, ARC, 2Q and VDF as they stood before their lists shared one
    //! slab: one [`MapQueue`] per list, plus FBF's `level_of` map. The
    //! bodies are the old ones; only the queue type differs.

    use super::MapQueue;
    use fbf_cache::{
        DemotePosition, FbfConfig, FxHashMap, InsertOutcome, Key, PolicyKind, ReplacementPolicy,
    };
    use std::collections::HashMap;
    use std::sync::Arc;

    /// FBF: three LRU queues and a level map.
    pub struct Fbf {
        capacity: usize,
        config: FbfConfig,
        queues: [MapQueue; 3],
        level_of: HashMap<Key, u8>,
        demotions: u64,
    }

    impl Fbf {
        pub fn new(capacity: usize, config: FbfConfig) -> Self {
            Fbf {
                capacity,
                config,
                queues: Default::default(),
                level_of: HashMap::new(),
                demotions: 0,
            }
        }

        fn demote(&mut self, key: Key, from: u8) {
            self.demotions += 1;
            let to = from - 1;
            self.queues[from as usize].remove(&key);
            match self.config.demote_to {
                DemotePosition::Back => self.queues[to as usize].push_back(key),
                DemotePosition::Front => self.queues[to as usize].push_front(key),
            }
            self.level_of.insert(key, to);
        }
    }

    impl ReplacementPolicy for Fbf {
        fn kind(&self) -> PolicyKind {
            PolicyKind::Fbf
        }
        fn capacity(&self) -> usize {
            self.capacity
        }
        fn len(&self) -> usize {
            self.level_of.len()
        }
        fn contains(&self, key: &Key) -> bool {
            self.level_of.contains_key(key)
        }
        fn on_access(&mut self, key: Key) -> bool {
            let Some(&level) = self.level_of.get(&key) else {
                return false;
            };
            if self.config.disable_demotion || level == 0 {
                self.queues[level as usize].touch(key);
            } else {
                self.demote(key, level);
            }
            true
        }
        fn admit(&mut self, key: Key, priority: u8) -> InsertOutcome {
            if self.contains(&key) {
                self.on_access(key);
                return InsertOutcome::AlreadyResident;
            }
            let evicted = if self.len() >= self.capacity {
                let victim = (self.queues.iter_mut())
                    .find_map(|q| q.pop_front())
                    .expect("full cache has a victim");
                self.level_of.remove(&victim);
                Some(victim)
            } else {
                None
            };
            let level = priority.clamp(1, 3) - 1;
            self.queues[level as usize].push_back(key);
            self.level_of.insert(key, level);
            InsertOutcome::Inserted { evicted }
        }
        fn clear(&mut self) {
            *self = Fbf::new(self.capacity, self.config);
        }
        fn demotions(&self) -> u64 {
            self.demotions
        }
        fn queue_occupancy(&self) -> Option<[usize; 3]> {
            Some([0, 1, 2].map(|l| self.queues[l].len()))
        }
        fn map_ops(&self) -> u64 {
            0
        }
        fn reserve(&mut self, _accesses: usize) {}
    }

    /// ARC: T1, T2 and the ghosts B1, B2 as four queues.
    pub struct ArcCache {
        capacity: usize,
        p: usize,
        t1: MapQueue,
        t2: MapQueue,
        b1: MapQueue,
        b2: MapQueue,
    }

    impl ArcCache {
        pub fn new(capacity: usize) -> Self {
            ArcCache {
                capacity,
                p: 0,
                t1: MapQueue::new(),
                t2: MapQueue::new(),
                b1: MapQueue::new(),
                b2: MapQueue::new(),
            }
        }

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

    impl ReplacementPolicy for ArcCache {
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
                self.on_access(key);
                return InsertOutcome::AlreadyResident;
            }
            if self.b1.contains(&key) {
                let delta = (self.b2.len() / self.b1.len().max(1)).max(1);
                self.p = (self.p + delta).min(c);
                let evicted = self.replace(false);
                self.b1.remove(&key);
                self.t2.push_back(key);
                return InsertOutcome::Inserted { evicted };
            }
            if self.b2.contains(&key) {
                let delta = (self.b1.len() / self.b2.len().max(1)).max(1);
                self.p = self.p.saturating_sub(delta);
                let evicted = self.replace(true);
                self.b2.remove(&key);
                self.t2.push_back(key);
                return InsertOutcome::Inserted { evicted };
            }
            let l1 = self.t1.len() + self.b1.len();
            let total = l1 + self.t2.len() + self.b2.len();
            let evicted = if l1 == c {
                if self.t1.len() < c {
                    self.b1.pop_front();
                    self.replace(false)
                } else {
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
            *self = ArcCache::new(self.capacity);
        }
        fn map_ops(&self) -> u64 {
            0
        }
        fn reserve(&mut self, _accesses: usize) {}
    }

    /// 2Q: A1in, A1out (ghost) and Am as three queues.
    pub struct TwoQ {
        capacity: usize,
        kin: usize,
        kout: usize,
        a1in: MapQueue,
        a1out: MapQueue,
        am: MapQueue,
    }

    impl TwoQ {
        pub fn new(capacity: usize) -> Self {
            TwoQ {
                capacity,
                kin: (capacity / 4).max(1),
                kout: (capacity / 2).max(1),
                a1in: MapQueue::new(),
                a1out: MapQueue::new(),
                am: MapQueue::new(),
            }
        }

        fn reclaim(&mut self) -> Option<Key> {
            if self.len() < self.capacity {
                return None;
            }
            if self.a1in.len() > self.kin {
                let victim = self.a1in.pop_front().expect("a1in non-empty");
                while self.a1out.len() >= self.kout {
                    self.a1out.pop_front();
                }
                self.a1out.push_back(victim);
                Some(victim)
            } else if let Some(victim) = self.am.pop_front() {
                Some(victim)
            } else {
                self.a1in.pop_front()
            }
        }
    }

    impl ReplacementPolicy for TwoQ {
        fn kind(&self) -> PolicyKind {
            PolicyKind::TwoQ
        }
        fn capacity(&self) -> usize {
            self.capacity
        }
        fn len(&self) -> usize {
            self.a1in.len() + self.am.len()
        }
        fn contains(&self, key: &Key) -> bool {
            self.a1in.contains(key) || self.am.contains(key)
        }
        fn on_access(&mut self, key: Key) -> bool {
            if self.am.touch(key) {
                true
            } else {
                self.a1in.contains(&key)
            }
        }
        fn admit(&mut self, key: Key, _priority: u8) -> InsertOutcome {
            if self.contains(&key) {
                self.on_access(key);
                return InsertOutcome::AlreadyResident;
            }
            let evicted = self.reclaim();
            if self.a1out.remove(&key) {
                self.am.push_back(key);
            } else {
                self.a1in.push_back(key);
            }
            InsertOutcome::Inserted { evicted }
        }
        fn clear(&mut self) {
            *self = TwoQ::new(self.capacity);
        }
        fn map_ops(&self) -> u64 {
            0
        }
        fn reserve(&mut self, _accesses: usize) {}
    }

    /// VDF: a normal and a protected LRU queue.
    pub struct Vdf {
        capacity: usize,
        victim_map: Option<Arc<FxHashMap<u32, u16>>>,
        normal: MapQueue,
        protected: MapQueue,
    }

    impl Vdf {
        pub fn new(capacity: usize, victim_map: Option<Arc<FxHashMap<u32, u16>>>) -> Self {
            Vdf {
                capacity,
                victim_map,
                normal: MapQueue::new(),
                protected: MapQueue::new(),
            }
        }
    }

    impl ReplacementPolicy for Vdf {
        fn kind(&self) -> PolicyKind {
            PolicyKind::Vdf
        }
        fn capacity(&self) -> usize {
            self.capacity
        }
        fn len(&self) -> usize {
            self.normal.len() + self.protected.len()
        }
        fn contains(&self, key: &Key) -> bool {
            self.normal.contains(key) || self.protected.contains(key)
        }
        fn on_access(&mut self, key: Key) -> bool {
            self.normal.touch(key) || self.protected.touch(key)
        }
        fn admit(&mut self, key: Key, _priority: u8) -> InsertOutcome {
            if self.contains(&key) {
                self.on_access(key);
                return InsertOutcome::AlreadyResident;
            }
            let evicted = if self.len() >= self.capacity {
                self.normal
                    .pop_front()
                    .or_else(|| self.protected.pop_front())
            } else {
                None
            };
            let victim = (self.victim_map.as_ref()).is_some_and(|m| m.contains_key(&key.stripe));
            if victim {
                self.protected.push_back(key);
            } else {
                self.normal.push_back(key);
            }
            InsertOutcome::Inserted { evicted }
        }
        fn clear(&mut self) {
            self.normal.clear();
            self.protected.clear();
        }
        fn map_ops(&self) -> u64 {
            0
        }
        fn reserve(&mut self, _accesses: usize) {}
    }
}

// ---------------------------------------------------------------------
// Queue level: OrderedQueue<3> against three MapQueues.
// ---------------------------------------------------------------------

/// Lists the multi-list tests use.
const LISTS: usize = 3;

/// One queue operation; keys are drawn from a small universe so that
/// duplicates, removals of absent keys, and touch-of-front/back all occur
/// with high probability. Pushes are listed twice to bias the mix toward
/// them (the vendored `prop_oneof!` picks arms uniformly).
#[derive(Debug, Clone, Copy)]
enum Op {
    PushBack(usize, u8),
    PushFront(usize, u8),
    PopFront(usize),
    Remove(u8),
    Touch(u8),
    MoveBack(u8, usize),
    MoveFront(u8, usize),
    Clear,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..LISTS, 0u8..24).prop_map(|(l, id)| Op::PushBack(l, id)),
        (0..LISTS, 0u8..24).prop_map(|(l, id)| Op::PushBack(l, id)),
        (0..LISTS, 0u8..24).prop_map(|(l, id)| Op::PushFront(l, id)),
        (0..LISTS).prop_map(Op::PopFront),
        (0u8..24).prop_map(Op::Remove),
        (0u8..24).prop_map(Op::Touch),
        (0u8..24, 0..LISTS).prop_map(|(id, l)| Op::MoveBack(id, l)),
        (0u8..24, 0..LISTS).prop_map(|(id, l)| Op::MoveFront(id, l)),
        Just(Op::Clear),
    ]
}

fn k(id: u8) -> Key {
    key(id as u32, 0, id as usize)
}

/// The oracle: one map-backed queue per list, plus the most keys held at
/// once since the last clear (what the slab may have allocated).
#[derive(Default)]
struct Lists {
    lists: [MapQueue; LISTS],
    most_held: usize,
}

impl Lists {
    fn list_of(&self, key: &Key) -> Option<usize> {
        self.lists.iter().position(|q| q.contains(key))
    }

    fn len(&self) -> usize {
        self.lists.iter().map(MapQueue::len).sum()
    }
}

/// Apply one op to both, asserting every return value matches.
fn step(slab: &mut OrderedQueue<LISTS>, map: &mut Lists, op: Op) {
    match op {
        Op::PushBack(l, id) => {
            let absent = map.list_of(&k(id)).is_none();
            assert_eq!(slab.push_back(l, k(id)), absent);
            if absent {
                map.lists[l].push_back(k(id));
            }
        }
        Op::PushFront(l, id) => {
            let absent = map.list_of(&k(id)).is_none();
            assert_eq!(slab.push_front(l, k(id)), absent);
            if absent {
                map.lists[l].push_front(k(id));
            }
        }
        Op::PopFront(l) => assert_eq!(slab.pop_front(l), map.lists[l].pop_front()),
        Op::Remove(id) => {
            let held = map
                .list_of(&k(id))
                .is_some_and(|l| map.lists[l].remove(&k(id)));
            assert_eq!(slab.remove(&k(id)), held);
        }
        Op::Touch(id) => {
            let held = map
                .list_of(&k(id))
                .is_some_and(|l| map.lists[l].touch(k(id)));
            assert_eq!(slab.touch(k(id)), held);
        }
        Op::MoveBack(id, to) | Op::MoveFront(id, to) => {
            let slot = slab.find(&k(id));
            assert_eq!(slot.map(|s| slab.list_of(s)), map.list_of(&k(id)));
            if let (Some(slot), Some(from)) = (slot, map.list_of(&k(id))) {
                map.lists[from].remove(&k(id));
                if matches!(op, Op::MoveBack(..)) {
                    slab.move_back(slot, to);
                    map.lists[to].push_back(k(id));
                } else {
                    slab.move_front(slot, to);
                    map.lists[to].push_front(k(id));
                }
            }
        }
        Op::Clear => {
            slab.clear();
            *map = Lists::default();
        }
    }
    map.most_held = map.most_held.max(map.len());
}

/// Full observable state must agree after every single operation, and
/// the slab holds no slot it did not need.
fn check_equal(slab: &OrderedQueue<LISTS>, map: &Lists) {
    assert_eq!(slab.len(), map.len());
    assert_eq!(slab.is_empty(), map.len() == 0);
    for (l, q) in map.lists.iter().enumerate() {
        assert_eq!(slab.list_len(l), q.len(), "list {l} length");
        assert_eq!(slab.front(l).map(|s| slab.key_of(s)).as_ref(), q.front());
        assert_eq!(slab.back(l).map(|s| slab.key_of(s)).as_ref(), q.back());
        let forward: (Vec<&Key>, Vec<&Key>) = (slab.iter(l).collect(), q.iter().collect());
        assert_eq!(forward.0, forward.1, "list {l}: forward iteration diverged");
        let reverse: (Vec<&Key>, Vec<&Key>) =
            (slab.iter(l).rev().collect(), q.iter().rev().collect());
        assert_eq!(reverse.0, reverse.1, "list {l}: reverse iteration diverged");
    }
    for id in 0..24 {
        let slot = slab.find(&k(id));
        assert_eq!(slot.map(|s| slab.list_of(s)), map.list_of(&k(id)));
        assert_eq!(slab.contains(&k(id)), slot.is_some());
    }
    assert!(
        slab.slots() <= map.most_held,
        "slab has {} slots but never held more than {} keys",
        slab.slots(),
        map.most_held
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Slab and map-backed lists agree op-for-op on arbitrary sequences.
    #[test]
    fn slab_matches_map_oracle(ops in proptest::collection::vec(op_strategy(), 1..400)) {
        let mut slab = OrderedQueue::new();
        let mut map = Lists::default();
        for op in ops {
            step(&mut slab, &mut map, op);
            check_equal(&slab, &map);
        }
    }

    /// Same property, but with a clear mid-sequence to force the slab's
    /// free list through full drain-and-reuse before the second half runs.
    #[test]
    fn slab_matches_after_clear_and_reuse(
        first in proptest::collection::vec(op_strategy(), 1..150),
        second in proptest::collection::vec(op_strategy(), 1..150),
    ) {
        let mut slab = OrderedQueue::new();
        let mut map = Lists::default();
        for op in first {
            step(&mut slab, &mut map, op);
        }
        step(&mut slab, &mut map, Op::Clear);
        for op in second {
            step(&mut slab, &mut map, op);
            check_equal(&slab, &map);
        }
    }
}

#[test]
fn oracle_matches_on_a_scripted_sequence() {
    let mut slab = OrderedQueue::new();
    let mut map = Lists::default();
    let script = [
        Op::PushBack(0, 0),
        Op::PushFront(0, 1),
        Op::PushBack(2, 2),
        Op::PushFront(1, 3),
        Op::PushBack(0, 4),
        Op::Touch(1),
        Op::MoveBack(2, 0),
        Op::MoveFront(0, 2),
        Op::Remove(4),
        Op::PopFront(0),
        Op::PushBack(1, 5),
    ];
    // Same script twice: the second round runs on reused slots.
    for _ in 0..2 {
        for op in script {
            step(&mut slab, &mut map, op);
            check_equal(&slab, &map);
        }
        step(&mut slab, &mut map, Op::Clear);
    }
}

// ---------------------------------------------------------------------
// Policy level: each ported policy against its reference.
// ---------------------------------------------------------------------

/// The policies whose lists moved onto one slab.
#[derive(Debug, Clone, Copy)]
enum Ported {
    Fbf(DemotePosition, bool),
    Arc,
    TwoQ,
    Vdf(bool),
}

/// Stripes 0 and 2 are under repair in the victim-map VDF.
fn victim_map() -> Arc<FxHashMap<u32, u16>> {
    Arc::new([(0, 0), (2, 1)].into_iter().collect())
}

/// The real policy and its reference, both at `capacity`.
fn build(
    ported: Ported,
    capacity: usize,
) -> (Box<dyn ReplacementPolicy>, Box<dyn ReplacementPolicy>) {
    match ported {
        Ported::Fbf(demote_to, disable_demotion) => {
            let config = FbfConfig {
                demote_to,
                disable_demotion,
            };
            (
                Box::new(FbfPolicy::with_config(capacity, config)),
                Box::new(reference::Fbf::new(capacity, config)),
            )
        }
        Ported::Arc => (
            Box::new(ArcPolicy::new(capacity)),
            Box::new(reference::ArcCache::new(capacity)),
        ),
        Ported::TwoQ => (
            Box::new(TwoQPolicy::new(capacity)),
            Box::new(reference::TwoQ::new(capacity)),
        ),
        Ported::Vdf(false) => (
            Box::new(VdfPolicy::new(capacity)),
            Box::new(reference::Vdf::new(capacity, None)),
        ),
        Ported::Vdf(true) => (
            Box::new(VdfPolicy::with_victim_map(capacity, victim_map())),
            Box::new(reference::Vdf::new(capacity, Some(victim_map()))),
        ),
    }
}

fn ported_strategy() -> impl Strategy<Value = Ported> {
    let demote = |front: u8| {
        if front == 1 {
            DemotePosition::Front
        } else {
            DemotePosition::Back
        }
    };
    prop_oneof![
        (0u8..2, 0u8..2).prop_map(move |(front, off)| Ported::Fbf(demote(front), off == 1)),
        Just(Ported::Arc),
        Just(Ported::TwoQ),
        (0u8..2).prop_map(|victims| Ported::Vdf(victims == 1)),
    ]
}

/// Keys 0..16: four stripes × four columns, so the victim-map VDF sees
/// both classes.
fn pk(id: u8) -> Key {
    key(u32::from(id / 4), 0, usize::from(id % 4))
}

/// Every observable of the two policies agrees.
fn same_state(real: &dyn ReplacementPolicy, refr: &dyn ReplacementPolicy, at: &str) {
    assert_eq!(real.len(), refr.len(), "{at}: len");
    assert_eq!(real.is_empty(), refr.is_empty(), "{at}: is_empty");
    assert_eq!(real.demotions(), refr.demotions(), "{at}: demotions");
    assert_eq!(
        real.queue_occupancy(),
        refr.queue_occupancy(),
        "{at}: occupancy"
    );
    for id in 0..16 {
        assert_eq!(
            real.contains(&pk(id)),
            refr.contains(&pk(id)),
            "{at}: contains {id}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Real and reference policy return the same thing for every access
    /// and insert — duplicates, ghost hits and out-of-range priorities
    /// included — and agree on every observable after each step and
    /// after a clear.
    #[test]
    fn ported_policies_match_their_references(
        ported in ported_strategy(),
        capacity in 0usize..9,
        ops in proptest::collection::vec((0u8..3, 0u8..16, 0u8..8), 1..300),
    ) {
        let (mut real, mut refr) = build(ported, capacity);
        for (i, &(kind, id, priority)) in ops.iter().enumerate() {
            let at = format!("{ported:?} capacity {capacity} op {i}");
            let key = pk(id);
            match kind {
                0 => prop_assert_eq!(real.on_access(key), refr.on_access(key), "{}: access", at),
                1 => prop_assert_eq!(
                    real.on_insert(key, priority),
                    refr.on_insert(key, priority),
                    "{}: insert", at
                ),
                // The buffer cache's protocol: insert only after a miss.
                _ => {
                    let hit = real.on_access(key);
                    prop_assert_eq!(hit, refr.on_access(key), "{}: access", at);
                    if !hit {
                        prop_assert_eq!(
                            real.on_insert(key, priority),
                            refr.on_insert(key, priority),
                            "{}: insert after miss", at
                        );
                    }
                }
            }
            same_state(real.as_ref(), refr.as_ref(), &at);
            if i == ops.len() / 2 && id == 0 {
                real.clear();
                refr.clear();
                same_state(real.as_ref(), refr.as_ref(), &at);
            }
        }
    }
}
