//! [`OrderedQueue`] — `N` LRU/FIFO lists of keys over one node slab and
//! one key map.
//!
//! Every queue-shaped policy in this crate is a few ordered lists of keys
//! that a key moves between: LRU and FIFO have one, VDF two (normal,
//! protected), FBF and 2Q three (Queue1–3; A1in, Am, A1out), ARC four
//! (T1, T2 and the ghosts B1, B2). They run on every simulated chunk
//! access, so they are the hottest code in the workspace, and what an
//! access costs is mostly the key-map operations it makes.
//!
//! So all of a policy's lists share one structure: a slab of nodes in a
//! `Vec` (freed slots are chained into an intrusive free list and reused),
//! each node linked into one list and tagged with it, and one counted
//! [`KeyMap`] from key to slot. Finding a key is one lookup and tells its
//! list too; moving it to another list, or within its own, is an O(1)
//! splice that keeps its slot and touches no map. [`entry`](OrderedQueue::entry)
//! looks a key up and, if it is absent, admits it in the same map
//! operation, so no path probes before it inserts. An LRU hit is one
//! lookup, an FBF demotion one lookup and a splice, and an evicting miss
//! three map operations: the access's lookup, the entry insert and the
//! victim's removal.
//!
//! A slot from [`entry`](OrderedQueue::entry) or [`find`](OrderedQueue::find)
//! names its key until that key is removed. The map-backed queue this
//! replaced lives on in `tests/queue_diff.rs` as the differential oracle,
//! with the policies as they stood on it.

use crate::key_map::KeyMap;
use crate::policy::Key;
use std::collections::hash_map::Entry as MapEntry;

/// Sentinel slot index meaning "no node".
const NIL: u32 = u32::MAX;

/// List tag of a node that [`OrderedQueue::entry`] admitted and no list
/// holds yet.
const DETACHED: u8 = u8::MAX;

#[derive(Debug, Clone)]
struct Node {
    key: Key,
    prev: u32,
    next: u32,
    list: u8,
}

/// One list's ends and length.
#[derive(Debug, Clone, Copy)]
struct Ends {
    head: u32,
    tail: u32,
    len: usize,
}

impl Ends {
    const EMPTY: Ends = Ends {
        head: NIL,
        tail: NIL,
        len: 0,
    };
}

/// A key's node: valid until the key is removed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Slot(u32);

/// What [`OrderedQueue::entry`] found.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Entry {
    /// The key was present, at this slot, in the list it was in.
    Occupied(Slot),
    /// The key was absent and now holds this slot, in no list yet:
    /// [`move_back`](OrderedQueue::move_back) or
    /// [`move_front`](OrderedQueue::move_front) places it.
    Vacant(Slot),
}

/// `N` ordered lists of unique keys — each key in exactly one — with O(1)
/// operations.
#[derive(Debug, Clone)]
pub struct OrderedQueue<const N: usize = 1> {
    /// Node slab; freed slots are chained through `next` starting at
    /// `free_head` and reused before the slab grows.
    nodes: Vec<Node>,
    slot_of: KeyMap<u32>,
    lists: [Ends; N],
    free_head: u32,
}

impl<const N: usize> Default for OrderedQueue<N> {
    fn default() -> Self {
        Self::new()
    }
}

impl<const N: usize> OrderedQueue<N> {
    /// `N` empty lists.
    pub fn new() -> Self {
        const { assert!(N >= 1 && N < DETACHED as usize, "list tags fit u8") };
        OrderedQueue {
            nodes: Vec::new(),
            slot_of: KeyMap::default(),
            lists: [Ends::EMPTY; N],
            free_head: NIL,
        }
    }

    /// Number of keys, over all lists.
    #[inline]
    pub fn len(&self) -> usize {
        self.slot_of.len()
    }

    /// No keys in any list?
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.slot_of.is_empty()
    }

    /// Number of keys in `list`.
    #[inline]
    pub fn list_len(&self, list: usize) -> usize {
        self.lists[list].len
    }

    /// Is the key present, in any list? One lookup.
    #[inline]
    pub fn contains(&self, key: &Key) -> bool {
        self.slot_of.contains_key(key)
    }

    /// The key's slot, if present. One lookup.
    #[inline]
    pub fn find(&self, key: &Key) -> Option<Slot> {
        self.slot_of.get(key).map(|&slot| Slot(slot))
    }

    /// The key's slot, admitting it detached if absent — one map
    /// operation either way.
    #[inline]
    pub fn entry(&mut self, key: Key) -> Entry {
        match self.slot_of.entry(key) {
            MapEntry::Occupied(o) => Entry::Occupied(Slot(*o.get())),
            MapEntry::Vacant(v) => {
                let slot = alloc(&mut self.nodes, &mut self.free_head, key);
                v.insert(slot);
                Entry::Vacant(Slot(slot))
            }
        }
    }

    /// The key at `slot`.
    #[inline]
    pub fn key_of(&self, slot: Slot) -> Key {
        self.nodes[slot.0 as usize].key
    }

    /// The list `slot` is in.
    #[inline]
    pub fn list_of(&self, slot: Slot) -> usize {
        let list = self.nodes[slot.0 as usize].list;
        debug_assert!(list != DETACHED, "a detached slot is in no list");
        list as usize
    }

    /// Move `slot` to the back (most recent end) of `list`, from whatever
    /// list holds it, or none. Already there, it stays.
    #[inline]
    pub fn move_back(&mut self, slot: Slot, list: usize) {
        let at = slot.0;
        if self.nodes[at as usize].list as usize == list && self.lists[list].tail == at {
            return;
        }
        self.unlink(at);
        let ends = &mut self.lists[list];
        let old_tail = ends.tail;
        ends.tail = at;
        ends.len += 1;
        if old_tail == NIL {
            ends.head = at;
        } else {
            self.nodes[old_tail as usize].next = at;
        }
        let n = &mut self.nodes[at as usize];
        (n.prev, n.next, n.list) = (old_tail, NIL, list as u8);
    }

    /// Move `slot` to the front (next-to-go end) of `list`, from whatever
    /// list holds it, or none.
    #[inline]
    pub fn move_front(&mut self, slot: Slot, list: usize) {
        let at = slot.0;
        self.unlink(at);
        let ends = &mut self.lists[list];
        let old_head = ends.head;
        ends.head = at;
        ends.len += 1;
        if old_head == NIL {
            ends.tail = at;
        } else {
            self.nodes[old_head as usize].prev = at;
        }
        let n = &mut self.nodes[at as usize];
        (n.prev, n.next, n.list) = (NIL, old_head, list as u8);
    }

    /// Append `key` at the back of `list` if it is absent anywhere;
    /// returns whether it was. One map operation.
    pub fn push_back(&mut self, list: usize, key: Key) -> bool {
        match self.entry(key) {
            Entry::Vacant(slot) => {
                self.move_back(slot, list);
                true
            }
            Entry::Occupied(_) => false,
        }
    }

    /// Insert `key` at the front of `list` if it is absent anywhere;
    /// returns whether it was. One map operation.
    pub fn push_front(&mut self, list: usize, key: Key) -> bool {
        match self.entry(key) {
            Entry::Vacant(slot) => {
                self.move_front(slot, list);
                true
            }
            Entry::Occupied(_) => false,
        }
    }

    /// The slot at the front (oldest end) of `list`.
    #[inline]
    pub fn front(&self, list: usize) -> Option<Slot> {
        let head = self.lists[list].head;
        (head != NIL).then_some(Slot(head))
    }

    /// The slot at the back (newest end) of `list`.
    #[inline]
    pub fn back(&self, list: usize) -> Option<Slot> {
        let tail = self.lists[list].tail;
        (tail != NIL).then_some(Slot(tail))
    }

    /// Remove and return the front key of `list` — one splice, one map
    /// removal.
    pub fn pop_front(&mut self, list: usize) -> Option<Key> {
        let slot = self.front(list)?;
        let key = self.key_of(slot);
        self.slot_of.remove(&key);
        self.unlink(slot.0);
        self.release(slot.0);
        Some(key)
    }

    /// Remove a key from whichever list holds it. Returns whether it was
    /// present. One map removal.
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

    /// Move a present key to the back of its own list (an LRU refresh).
    /// Returns whether it was present. One lookup.
    pub fn touch(&mut self, key: Key) -> bool {
        match self.find(&key) {
            Some(slot) => {
                self.move_back(slot, self.list_of(slot));
                true
            }
            None => false,
        }
    }

    /// Iterate `list` front to back (eviction order); reversible for
    /// MRU-side scans (FBR's new-section test).
    pub fn iter(&self, list: usize) -> impl DoubleEndedIterator<Item = &Key> {
        let ends = self.lists[list];
        Iter {
            nodes: &self.nodes,
            front: ends.head,
            back: ends.tail,
            remaining: ends.len,
        }
    }

    /// Size the slab and the key map for `keys` keys at once, so that
    /// neither grows while there are no more.
    pub fn reserve(&mut self, keys: usize) {
        self.nodes
            .reserve_exact(keys.saturating_sub(self.nodes.len()));
        self.slot_of
            .reserve(keys.saturating_sub(self.slot_of.len()));
    }

    /// Key-map operations made since creation or the last clear.
    pub fn map_ops(&self) -> u64 {
        self.slot_of.ops()
    }

    /// Slots the slab has allocated: the most keys it held at once, since
    /// freed slots are reused.
    pub fn slots(&self) -> usize {
        self.nodes.len()
    }

    /// Drop everything and zero the map-operation count. Slab storage is
    /// kept for reuse; slots allocated after a clear start fresh.
    pub fn clear(&mut self) {
        self.nodes.clear();
        self.slot_of.clear();
        self.lists = [Ends::EMPTY; N];
        self.free_head = NIL;
    }

    /// Take a node out of its list, if it is in one. Its slot stays
    /// allocated.
    #[inline]
    fn unlink(&mut self, slot: u32) {
        let Node {
            prev, next, list, ..
        } = self.nodes[slot as usize];
        if list == DETACHED {
            return;
        }
        let ends = &mut self.lists[list as usize];
        ends.len -= 1;
        if prev == NIL {
            ends.head = next;
        } else {
            self.nodes[prev as usize].next = next;
        }
        if next == NIL {
            ends.tail = prev;
        } else {
            self.nodes[next as usize].prev = prev;
        }
    }

    /// Return an unlinked node's slot to the free list.
    #[inline]
    fn release(&mut self, slot: u32) {
        self.nodes[slot as usize].next = self.free_head;
        self.free_head = slot;
    }
}

/// Take a slot off the free list, or grow the slab, for a detached `key`.
#[inline]
fn alloc(nodes: &mut Vec<Node>, free_head: &mut u32, key: Key) -> u32 {
    let node = Node {
        key,
        prev: NIL,
        next: NIL,
        list: DETACHED,
    };
    if *free_head != NIL {
        let slot = *free_head;
        *free_head = nodes[slot as usize].next;
        nodes[slot as usize] = node;
        slot
    } else {
        let slot = u32::try_from(nodes.len()).expect("queue slots fit u32");
        assert!(slot != NIL, "queue capacity exhausted");
        nodes.push(node);
        slot
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

    fn order<const N: usize>(q: &OrderedQueue<N>, list: usize) -> Vec<Key> {
        q.iter(list).copied().collect()
    }

    fn front_key<const N: usize>(q: &OrderedQueue<N>, list: usize) -> Option<Key> {
        q.front(list).map(|s| q.key_of(s))
    }

    fn back_key<const N: usize>(q: &OrderedQueue<N>, list: usize) -> Option<Key> {
        q.back(list).map(|s| q.key_of(s))
    }

    #[test]
    fn fifo_order() {
        let mut q: OrderedQueue = OrderedQueue::new();
        q.push_back(0, key(0, 0, 0));
        q.push_back(0, key(0, 0, 1));
        q.push_back(0, key(0, 0, 2));
        assert_eq!(q.pop_front(0), Some(key(0, 0, 0)));
        assert_eq!(q.pop_front(0), Some(key(0, 0, 1)));
        assert_eq!(q.pop_front(0), Some(key(0, 0, 2)));
        assert_eq!(q.pop_front(0), None);
    }

    #[test]
    fn push_front_jumps_queue() {
        let mut q: OrderedQueue = OrderedQueue::new();
        q.push_back(0, key(0, 0, 0));
        q.push_front(0, key(0, 0, 1));
        assert_eq!(front_key(&q, 0), Some(key(0, 0, 1)));
        assert_eq!(back_key(&q, 0), Some(key(0, 0, 0)));
    }

    #[test]
    fn touch_moves_to_back() {
        let mut q: OrderedQueue = OrderedQueue::new();
        q.push_back(0, key(0, 0, 0));
        q.push_back(0, key(0, 0, 1));
        assert!(q.touch(key(0, 0, 0)));
        assert_eq!(q.pop_front(0), Some(key(0, 0, 1)));
        assert_eq!(q.pop_front(0), Some(key(0, 0, 0)));
    }

    #[test]
    fn touch_missing_returns_false() {
        let mut q: OrderedQueue = OrderedQueue::new();
        assert!(!q.touch(key(0, 0, 0)));
    }

    #[test]
    fn touch_of_tail_is_a_noop() {
        let mut q: OrderedQueue = OrderedQueue::new();
        q.push_back(0, key(0, 0, 0));
        q.push_back(0, key(0, 0, 1));
        assert!(q.touch(key(0, 0, 1)));
        assert_eq!(order(&q, 0), vec![key(0, 0, 0), key(0, 0, 1)]);
    }

    #[test]
    fn remove_middle() {
        let mut q: OrderedQueue = OrderedQueue::new();
        for i in 0..5 {
            q.push_back(0, key(0, 0, i));
        }
        assert!(q.remove(&key(0, 0, 2)));
        assert!(!q.contains(&key(0, 0, 2)));
        assert_eq!(q.len(), 4);
        assert_eq!(
            order(&q, 0),
            vec![key(0, 0, 0), key(0, 0, 1), key(0, 0, 3), key(0, 0, 4)]
        );
    }

    #[test]
    fn duplicate_push_is_refused() {
        let mut q: OrderedQueue<2> = OrderedQueue::new();
        assert!(q.push_back(0, key(0, 0, 0)));
        assert!(!q.push_back(0, key(0, 0, 0)));
        assert!(!q.push_front(1, key(0, 0, 0)), "present in another list");
        assert_eq!((q.len(), q.list_len(0), q.list_len(1)), (1, 1, 0));
        assert_eq!(q.map_ops(), 3, "each push is one map operation");
    }

    #[test]
    fn clear_resets() {
        let mut q: OrderedQueue = OrderedQueue::new();
        q.push_back(0, key(0, 0, 0));
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.map_ops(), 0);
        assert!(q.push_back(0, key(0, 0, 0)), "absent after clear");
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn interleaved_front_back() {
        let mut q: OrderedQueue = OrderedQueue::new();
        q.push_back(0, key(0, 0, 0));
        q.push_front(0, key(0, 0, 1));
        q.push_back(0, key(0, 0, 2));
        q.push_front(0, key(0, 0, 3));
        assert_eq!(
            order(&q, 0),
            vec![key(0, 0, 3), key(0, 0, 1), key(0, 0, 0), key(0, 0, 2)]
        );
    }

    #[test]
    fn iter_reverses() {
        let mut q: OrderedQueue = OrderedQueue::new();
        for i in 0..4 {
            q.push_back(0, key(0, 0, i));
        }
        let rev: Vec<Key> = q.iter(0).rev().copied().collect();
        assert_eq!(
            rev,
            vec![key(0, 0, 3), key(0, 0, 2), key(0, 0, 1), key(0, 0, 0)]
        );
        assert_eq!(q.iter(0).count(), 4);
    }

    /// A key moves between lists by splice: its slot and the map are
    /// untouched, and every list keeps its order and length.
    #[test]
    fn moves_between_lists_keep_the_slot() {
        let mut q: OrderedQueue<3> = OrderedQueue::new();
        for i in 0..3 {
            q.push_back(2, key(0, 0, i));
        }
        q.push_back(0, key(0, 1, 0));
        let before = q.map_ops();
        let slot = q.front(2).unwrap();
        q.move_back(slot, 1);
        q.move_front(slot, 0);
        assert_eq!(q.map_ops(), before, "a splice touches no map");
        assert_eq!((q.list_of(slot), q.key_of(slot)), (0, key(0, 0, 0)));
        assert_eq!(order(&q, 0), vec![key(0, 0, 0), key(0, 1, 0)]);
        assert_eq!(order(&q, 1), vec![]);
        assert_eq!(order(&q, 2), vec![key(0, 0, 1), key(0, 0, 2)]);
        assert_eq!([0, 1, 2].map(|l| q.list_len(l)), [2, 0, 2]);
        assert_eq!(q.find(&key(0, 0, 0)), Some(slot));
        assert!(q.touch(key(0, 0, 0)), "touch stays in the key's own list");
        assert_eq!(order(&q, 0), vec![key(0, 1, 0), key(0, 0, 0)]);
    }

    /// A vacant entry holds its key in no list: lists and their lengths
    /// ignore it until it is placed.
    #[test]
    fn vacant_entry_is_detached_until_placed() {
        let mut q: OrderedQueue<2> = OrderedQueue::new();
        q.push_back(0, key(0, 0, 0));
        let Entry::Vacant(slot) = q.entry(key(0, 0, 1)) else {
            panic!("absent key");
        };
        assert_eq!((q.len(), q.list_len(0), q.list_len(1)), (2, 1, 0));
        assert_eq!(q.pop_front(0), Some(key(0, 0, 0)));
        assert_eq!(q.front(0), None);
        q.move_back(slot, 1);
        assert_eq!(q.entry(key(0, 0, 1)), Entry::Occupied(slot));
        assert_eq!(order(&q, 1), vec![key(0, 0, 1)]);
        assert_eq!(q.slots(), 2, "the detached key took a slot of its own");
    }

    /// Regression for the slab: interleaved push_front/push_back/
    /// pop_front/remove must preserve order across a clear and through
    /// free-list slot reuse.
    #[test]
    fn order_survives_clear_and_slot_reuse() {
        let mut q: OrderedQueue = OrderedQueue::new();
        // Round 1: populate, punch holes (freeing interior slots), clear.
        for i in 0..8 {
            q.push_back(0, key(0, 0, i));
        }
        assert!(q.remove(&key(0, 0, 3)));
        assert!(q.remove(&key(0, 0, 0)));
        assert_eq!(q.pop_front(0), Some(key(0, 0, 1)));
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.front(0), None);
        assert_eq!(q.back(0), None);

        // Round 2: slots freed above get reused; ordering must be exactly
        // what the op sequence dictates, independent of slot numbers.
        q.push_front(0, key(1, 0, 0)); // [a]
        q.push_back(0, key(1, 0, 1)); // [a b]
        q.push_front(0, key(1, 0, 2)); // [c a b]
        q.push_back(0, key(1, 0, 3)); // [c a b d]
        assert!(q.remove(&key(1, 0, 0))); // [c b d]
        q.push_front(0, key(1, 0, 4)); // [e c b d]  (reuses a's slot)
        assert_eq!(q.slots(), 4);
        assert_eq!(q.pop_front(0), Some(key(1, 0, 4))); // [c b d]
        q.push_back(0, key(1, 0, 5)); // [c b d f]
        assert!(q.touch(key(1, 0, 2))); // [b d f c]
        assert_eq!(
            order(&q, 0),
            vec![key(1, 0, 1), key(1, 0, 3), key(1, 0, 5), key(1, 0, 2)]
        );
        let rev: Vec<Key> = q.iter(0).rev().copied().collect();
        assert_eq!(
            rev,
            vec![key(1, 0, 2), key(1, 0, 5), key(1, 0, 3), key(1, 0, 1)]
        );
        // Drain fully; the list and index agree to the end.
        assert_eq!(q.pop_front(0), Some(key(1, 0, 1)));
        assert_eq!(q.pop_front(0), Some(key(1, 0, 3)));
        assert_eq!(q.pop_front(0), Some(key(1, 0, 5)));
        assert_eq!(q.pop_front(0), Some(key(1, 0, 2)));
        assert_eq!(q.pop_front(0), None);
        assert_eq!(q.len(), 0);
    }
}
