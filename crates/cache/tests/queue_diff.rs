//! Differential property test: the slab-backed [`OrderedQueue`] must be
//! observationally identical to the retained map-backed implementation
//! ([`oracle::MapQueue`]) under arbitrary operation sequences.
//!
//! This is the equivalence proof for the PR-3 queue rewrite: the oracle is
//! the exact pre-rewrite code (BTreeMap sequence index + std HashMap), so
//! any divergence in results, order, or return values is a bug in the slab
//! implementation — not a test flake. Clear/free-list reuse is exercised
//! explicitly because slot recycling is the slab's only stateful machinery
//! the oracle doesn't have.

use fbf_cache::queue::OrderedQueue;
use fbf_cache::{key, Key};
use oracle::MapQueue;
use proptest::prelude::*;

mod oracle {
    //! The original map-backed queue, retained verbatim in behaviour.
    //!
    //! The differential property test drives it and the slab queue
    //! through identical random op sequences and asserts every observable
    //! agrees.

    use fbf_cache::Key;
    use std::collections::{BTreeMap, HashMap};

    /// An ordered queue of unique keys with O(log n) operations, backed by
    /// a `BTreeMap` keyed by a monotonic sequence number plus a SipHash
    /// reverse index. Same public surface as
    /// [`OrderedQueue`](fbf_cache::queue::OrderedQueue).
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
            MapQueue {
                by_seq: BTreeMap::new(),
                seq_of: HashMap::new(),
                back: 0,
                front: 0,
            }
        }

        /// Number of keys in the queue.
        pub fn len(&self) -> usize {
            self.by_seq.len()
        }

        /// Is the queue empty?
        pub fn is_empty(&self) -> bool {
            self.by_seq.is_empty()
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
            self.by_seq.clear();
            self.seq_of.clear();
            self.back = 0;
            self.front = 0;
        }
    }
}

/// One queue operation; keys are drawn from a small universe so that
/// duplicates, removals of absent keys, and touch-of-front/back all occur
/// with high probability. Pushes and touches are listed twice to bias the
/// mix toward them (the vendored `prop_oneof!` picks arms uniformly).
#[derive(Debug, Clone, Copy)]
enum Op {
    PushBack(u8),
    PushFront(u8),
    PopFront,
    Remove(u8),
    Touch(u8),
    Clear,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u8..24).prop_map(Op::PushBack),
        (0u8..24).prop_map(Op::PushBack),
        (0u8..24).prop_map(Op::PushFront),
        Just(Op::PopFront),
        (0u8..24).prop_map(Op::Remove),
        (0u8..24).prop_map(Op::Touch),
        (0u8..24).prop_map(Op::Touch),
        Just(Op::Clear),
    ]
}

fn k(id: u8) -> Key {
    key(id as u32, 0, id as usize)
}

/// Apply one op to both queues, asserting every return value matches.
/// Push is only forwarded when the key is absent (push of a resident key
/// is a documented panic in both implementations).
fn step(slab: &mut OrderedQueue, map: &mut MapQueue, op: Op) {
    match op {
        Op::PushBack(id) => {
            assert_eq!(slab.contains(&k(id)), map.contains(&k(id)));
            if !slab.contains(&k(id)) {
                slab.push_back(k(id));
                map.push_back(k(id));
            }
        }
        Op::PushFront(id) => {
            if !slab.contains(&k(id)) {
                slab.push_front(k(id));
                map.push_front(k(id));
            }
        }
        Op::PopFront => assert_eq!(slab.pop_front(), map.pop_front()),
        Op::Remove(id) => assert_eq!(slab.remove(&k(id)), map.remove(&k(id))),
        Op::Touch(id) => assert_eq!(slab.touch(k(id)), map.touch(k(id))),
        Op::Clear => {
            slab.clear();
            map.clear();
        }
    }
}

/// Full observable state must agree after every single operation.
fn check_equal(slab: &OrderedQueue, map: &MapQueue) {
    assert_eq!(slab.len(), map.len());
    assert_eq!(slab.is_empty(), map.is_empty());
    assert_eq!(slab.front(), map.front());
    assert_eq!(slab.back(), map.back());
    let forward: (Vec<&Key>, Vec<&Key>) = (slab.iter().collect(), map.iter().collect());
    assert_eq!(forward.0, forward.1, "forward iteration diverged");
    let reverse: (Vec<&Key>, Vec<&Key>) = (slab.iter().rev().collect(), map.iter().rev().collect());
    assert_eq!(reverse.0, reverse.1, "reverse iteration diverged");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Slab and map-backed queues agree op-for-op on arbitrary sequences.
    #[test]
    fn slab_matches_map_oracle(ops in proptest::collection::vec(op_strategy(), 1..400)) {
        let mut slab = OrderedQueue::new();
        let mut map = MapQueue::new();
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
        let mut map = MapQueue::new();
        for op in first {
            step(&mut slab, &mut map, op);
        }
        slab.clear();
        map.clear();
        for op in second {
            step(&mut slab, &mut map, op);
            check_equal(&slab, &map);
        }
    }
}

#[test]
fn oracle_matches_on_a_scripted_sequence() {
    let mut slab = OrderedQueue::new();
    let mut map = MapQueue::new();
    let ks: Vec<Key> = (0..6).map(|i| key(0, 0, i)).collect();
    for q in 0..2 {
        // Same script twice (second round exercises post-clear reuse).
        let _ = q;
        for (i, &k) in ks.iter().enumerate() {
            if i % 2 == 0 {
                slab.push_back(k);
                map.push_back(k);
            } else {
                slab.push_front(k);
                map.push_front(k);
            }
        }
        assert_eq!(slab.touch(ks[2]), map.touch(ks[2]));
        assert_eq!(slab.remove(&ks[4]), map.remove(&ks[4]));
        assert_eq!(slab.pop_front(), map.pop_front());
        let a: Vec<Key> = slab.iter().copied().collect();
        let b: Vec<Key> = map.iter().copied().collect();
        assert_eq!(a, b);
        slab.clear();
        map.clear();
    }
}
