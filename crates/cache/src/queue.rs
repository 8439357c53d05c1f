//! [`OrderedQueue`] — an indexed FIFO/LRU building block.
//!
//! Every policy in this crate needs the same primitive: a queue of keys
//! supporting *push-back* (MRU insert), *push-front* (paper-faithful FBF
//! demotion inserts "to the start point" of the lower queue), *pop-front*
//! (LRU-end eviction) and *removal by key* (hit promotion). These run on
//! every simulated I/O, so they are the hottest code in the workspace.
//!
//! The implementation is a slab-backed intrusive doubly-linked list:
//! nodes live contiguously in a `Vec` (freed slots are chained into an
//! intrusive free list and reused), and a [`FxHashMap`] maps each key to
//! its slot. Every operation is a true O(1) pointer splice plus at most
//! one hash-map touch — `touch` does not even re-hash, since moving a node
//! never changes its slot. The previous `BTreeMap`-by-sequence-number
//! implementation lives on in `tests/queue_diff.rs` as the
//! differential-testing oracle.

use crate::policy::Key;
use crate::FxHashMap;

/// Sentinel slot index meaning "no node".
const NIL: u32 = u32::MAX;

#[derive(Debug, Clone)]
struct Node {
    key: Key,
    prev: u32,
    next: u32,
}

/// An ordered queue of unique keys with O(1) operations.
#[derive(Debug, Default, Clone)]
pub struct OrderedQueue {
    /// Node slab; freed slots are chained through `next` starting at
    /// `free_head` and reused before the slab grows.
    nodes: Vec<Node>,
    slot_of: FxHashMap<Key, u32>,
    head: u32,
    tail: u32,
    free_head: u32,
}

impl OrderedQueue {
    /// Empty queue.
    pub fn new() -> Self {
        OrderedQueue {
            nodes: Vec::new(),
            slot_of: FxHashMap::default(),
            head: NIL,
            tail: NIL,
            free_head: NIL,
        }
    }

    /// Number of keys in the queue.
    #[inline]
    pub fn len(&self) -> usize {
        self.slot_of.len()
    }

    /// Is the queue empty?
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.slot_of.is_empty()
    }

    /// Is the key present?
    #[inline]
    pub fn contains(&self, key: &Key) -> bool {
        self.slot_of.contains_key(key)
    }

    /// Take a slot off the free list, or grow the slab.
    #[inline]
    fn alloc(&mut self, key: Key) -> u32 {
        if self.free_head != NIL {
            let slot = self.free_head;
            self.free_head = self.nodes[slot as usize].next;
            self.nodes[slot as usize] = Node {
                key,
                prev: NIL,
                next: NIL,
            };
            slot
        } else {
            let slot = u32::try_from(self.nodes.len()).expect("queue slots fit u32");
            assert!(slot != NIL, "queue capacity exhausted");
            self.nodes.push(Node {
                key,
                prev: NIL,
                next: NIL,
            });
            slot
        }
    }

    /// Return a slot to the free list.
    #[inline]
    fn release(&mut self, slot: u32) {
        self.nodes[slot as usize].next = self.free_head;
        self.free_head = slot;
    }

    /// Splice a detached node in at the tail (MRU end).
    #[inline]
    fn link_back(&mut self, slot: u32) {
        let old_tail = self.tail;
        {
            let n = &mut self.nodes[slot as usize];
            n.prev = old_tail;
            n.next = NIL;
        }
        if old_tail == NIL {
            self.head = slot;
        } else {
            self.nodes[old_tail as usize].next = slot;
        }
        self.tail = slot;
    }

    /// Splice a detached node in at the head (next-to-evict end).
    #[inline]
    fn link_front(&mut self, slot: u32) {
        let old_head = self.head;
        {
            let n = &mut self.nodes[slot as usize];
            n.prev = NIL;
            n.next = old_head;
        }
        if old_head == NIL {
            self.tail = slot;
        } else {
            self.nodes[old_head as usize].prev = slot;
        }
        self.head = slot;
    }

    /// Detach a node from the list without freeing its slot.
    #[inline]
    fn unlink(&mut self, slot: u32) {
        let Node { prev, next, .. } = self.nodes[slot as usize];
        if prev == NIL {
            self.head = next;
        } else {
            self.nodes[prev as usize].next = next;
        }
        if next == NIL {
            self.tail = prev;
        } else {
            self.nodes[next as usize].prev = prev;
        }
    }

    /// Append at the back (most-recent end). Panics if the key is already
    /// present — callers must [`remove`](OrderedQueue::remove) first.
    pub fn push_back(&mut self, key: Key) {
        assert!(!self.contains(&key), "duplicate push of {key}");
        let slot = self.alloc(key);
        self.link_back(slot);
        self.slot_of.insert(key, slot);
    }

    /// Insert at the front (next-to-evict end). Panics on duplicates.
    pub fn push_front(&mut self, key: Key) {
        assert!(!self.contains(&key), "duplicate push of {key}");
        let slot = self.alloc(key);
        self.link_front(slot);
        self.slot_of.insert(key, slot);
    }

    /// Remove and return the front (oldest) key — one splice, one map
    /// removal.
    pub fn pop_front(&mut self) -> Option<Key> {
        let slot = self.head;
        if slot == NIL {
            return None;
        }
        let key = self.nodes[slot as usize].key;
        self.unlink(slot);
        self.release(slot);
        self.slot_of.remove(&key);
        Some(key)
    }

    /// Peek at the front (oldest) key.
    pub fn front(&self) -> Option<&Key> {
        (self.head != NIL).then(|| &self.nodes[self.head as usize].key)
    }

    /// Peek at the back (newest) key.
    pub fn back(&self) -> Option<&Key> {
        (self.tail != NIL).then(|| &self.nodes[self.tail as usize].key)
    }

    /// Remove a key from anywhere in the queue. Returns whether it was
    /// present.
    pub fn remove(&mut self, key: &Key) -> bool {
        match self.slot_of.remove(key) {
            Some(slot) => {
                self.unlink(slot);
                self.release(slot);
                true
            }
            None => false,
        }
    }

    /// Move an existing key to the back (MRU refresh). Returns whether it
    /// was present. The node keeps its slot, so no hashing beyond the one
    /// lookup happens.
    pub fn touch(&mut self, key: Key) -> bool {
        match self.slot_of.get(&key) {
            Some(&slot) => {
                if self.tail != slot {
                    self.unlink(slot);
                    self.link_back(slot);
                }
                true
            }
            None => false,
        }
    }

    /// Iterate front-to-back (eviction order); reversible for MRU-side
    /// section scans (FBR's new-section test).
    pub fn iter(&self) -> impl DoubleEndedIterator<Item = &Key> {
        Iter {
            nodes: &self.nodes,
            front: self.head,
            back: self.tail,
            remaining: self.len(),
        }
    }

    /// Drop everything. Slab storage is kept for reuse; slots allocated
    /// after a clear start fresh (the free list is reset, not leaked).
    pub fn clear(&mut self) {
        self.nodes.clear();
        self.slot_of.clear();
        self.head = NIL;
        self.tail = NIL;
        self.free_head = NIL;
    }
}

/// Linked-list walker for [`OrderedQueue::iter`].
struct Iter<'a> {
    nodes: &'a [Node],
    front: u32,
    back: u32,
    remaining: usize,
}

impl<'a> Iterator for Iter<'a> {
    type Item = &'a Key;

    fn next(&mut self) -> Option<&'a Key> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let node = &self.nodes[self.front as usize];
        self.front = node.next;
        Some(&node.key)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl<'a> DoubleEndedIterator for Iter<'a> {
    fn next_back(&mut self) -> Option<&'a Key> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let node = &self.nodes[self.back as usize];
        self.back = node.prev;
        Some(&node.key)
    }
}

impl ExactSizeIterator for Iter<'_> {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key;

    #[test]
    fn fifo_order() {
        let mut q = OrderedQueue::new();
        q.push_back(key(0, 0, 0));
        q.push_back(key(0, 0, 1));
        q.push_back(key(0, 0, 2));
        assert_eq!(q.pop_front(), Some(key(0, 0, 0)));
        assert_eq!(q.pop_front(), Some(key(0, 0, 1)));
        assert_eq!(q.pop_front(), Some(key(0, 0, 2)));
        assert_eq!(q.pop_front(), None);
    }

    #[test]
    fn push_front_jumps_queue() {
        let mut q = OrderedQueue::new();
        q.push_back(key(0, 0, 0));
        q.push_front(key(0, 0, 1));
        assert_eq!(q.front(), Some(&key(0, 0, 1)));
        assert_eq!(q.back(), Some(&key(0, 0, 0)));
    }

    #[test]
    fn touch_moves_to_back() {
        let mut q = OrderedQueue::new();
        q.push_back(key(0, 0, 0));
        q.push_back(key(0, 0, 1));
        assert!(q.touch(key(0, 0, 0)));
        assert_eq!(q.pop_front(), Some(key(0, 0, 1)));
        assert_eq!(q.pop_front(), Some(key(0, 0, 0)));
    }

    #[test]
    fn touch_missing_returns_false() {
        let mut q = OrderedQueue::new();
        assert!(!q.touch(key(0, 0, 0)));
    }

    #[test]
    fn touch_of_tail_is_a_noop() {
        let mut q = OrderedQueue::new();
        q.push_back(key(0, 0, 0));
        q.push_back(key(0, 0, 1));
        assert!(q.touch(key(0, 0, 1)));
        let order: Vec<Key> = q.iter().copied().collect();
        assert_eq!(order, vec![key(0, 0, 0), key(0, 0, 1)]);
    }

    #[test]
    fn remove_middle() {
        let mut q = OrderedQueue::new();
        for i in 0..5 {
            q.push_back(key(0, 0, i));
        }
        assert!(q.remove(&key(0, 0, 2)));
        assert!(!q.contains(&key(0, 0, 2)));
        assert_eq!(q.len(), 4);
        let order: Vec<Key> = q.iter().copied().collect();
        assert_eq!(
            order,
            vec![key(0, 0, 0), key(0, 0, 1), key(0, 0, 3), key(0, 0, 4)]
        );
    }

    #[test]
    #[should_panic(expected = "duplicate push")]
    fn duplicate_push_panics() {
        let mut q = OrderedQueue::new();
        q.push_back(key(0, 0, 0));
        q.push_back(key(0, 0, 0));
    }

    #[test]
    fn clear_resets() {
        let mut q = OrderedQueue::new();
        q.push_back(key(0, 0, 0));
        q.clear();
        assert!(q.is_empty());
        q.push_back(key(0, 0, 0)); // no duplicate panic after clear
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn interleaved_front_back() {
        let mut q = OrderedQueue::new();
        q.push_back(key(0, 0, 0));
        q.push_front(key(0, 0, 1));
        q.push_back(key(0, 0, 2));
        q.push_front(key(0, 0, 3));
        let order: Vec<Key> = q.iter().copied().collect();
        assert_eq!(
            order,
            vec![key(0, 0, 3), key(0, 0, 1), key(0, 0, 0), key(0, 0, 2)]
        );
    }

    #[test]
    fn iter_reverses() {
        let mut q = OrderedQueue::new();
        for i in 0..4 {
            q.push_back(key(0, 0, i));
        }
        let rev: Vec<Key> = q.iter().rev().copied().collect();
        assert_eq!(
            rev,
            vec![key(0, 0, 3), key(0, 0, 2), key(0, 0, 1), key(0, 0, 0)]
        );
        assert_eq!(q.iter().count(), 4);
    }

    /// Regression for the slab rewrite: interleaved push_front/push_back/
    /// pop_front/remove must preserve order across a clear and through
    /// free-list slot reuse.
    #[test]
    fn order_survives_clear_and_slot_reuse() {
        let mut q = OrderedQueue::new();
        // Round 1: populate, punch holes (freeing interior slots), clear.
        for i in 0..8 {
            q.push_back(key(0, 0, i));
        }
        assert!(q.remove(&key(0, 0, 3)));
        assert!(q.remove(&key(0, 0, 0)));
        assert_eq!(q.pop_front(), Some(key(0, 0, 1)));
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.front(), None);
        assert_eq!(q.back(), None);

        // Round 2: slots freed above get reused; ordering must be exactly
        // what the op sequence dictates, independent of slot numbers.
        q.push_front(key(1, 0, 0)); // [a]
        q.push_back(key(1, 0, 1)); // [a b]
        q.push_front(key(1, 0, 2)); // [c a b]
        q.push_back(key(1, 0, 3)); // [c a b d]
        assert!(q.remove(&key(1, 0, 0))); // [c b d]
        q.push_front(key(1, 0, 4)); // [e c b d]  (reuses a's slot)
        assert_eq!(q.pop_front(), Some(key(1, 0, 4))); // [c b d]
        q.push_back(key(1, 0, 5)); // [c b d f]
        assert!(q.touch(key(1, 0, 2))); // [b d f c]
        let order: Vec<Key> = q.iter().copied().collect();
        assert_eq!(
            order,
            vec![key(1, 0, 1), key(1, 0, 3), key(1, 0, 5), key(1, 0, 2)]
        );
        let rev: Vec<Key> = q.iter().rev().copied().collect();
        assert_eq!(
            rev,
            vec![key(1, 0, 2), key(1, 0, 5), key(1, 0, 3), key(1, 0, 1)]
        );
        // Drain fully; the list and index agree to the end.
        assert_eq!(q.pop_front(), Some(key(1, 0, 1)));
        assert_eq!(q.pop_front(), Some(key(1, 0, 3)));
        assert_eq!(q.pop_front(), Some(key(1, 0, 5)));
        assert_eq!(q.pop_front(), Some(key(1, 0, 2)));
        assert_eq!(q.pop_front(), None);
        assert_eq!(q.len(), 0);
    }
}
