//! [`KeyMap`] — the chunk-keyed map every policy indexes with, counted.
//!
//! What a policy costs per access is mostly the key-map operations it
//! makes: lookups, inserts and removals of a [`Key`] in a hash map. Every
//! chunk-keyed map in this crate is a `KeyMap`, which counts each such
//! operation; [`ReplacementPolicy::map_ops`](crate::ReplacementPolicy::map_ops)
//! sums a policy's maps and the buffer cache reports the total as
//! [`CacheStats::map_ops`](crate::CacheStats::map_ops). Walking the map
//! (LRFU's and LRU-K's victim scans) is not counted: it touches no key's
//! bucket by hash.

use crate::policy::Key;
use crate::FxHashMap;
use std::cell::Cell;
use std::collections::hash_map::Entry;

/// An [`FxHashMap`] keyed by chunk that counts its key operations.
#[derive(Debug, Clone)]
pub struct KeyMap<V> {
    map: FxHashMap<Key, V>,
    /// Lookups, inserts and removals since creation or the last clear. A
    /// `Cell`, so a `&self` lookup counts too.
    ops: Cell<u64>,
}

impl<V> Default for KeyMap<V> {
    fn default() -> Self {
        KeyMap {
            map: FxHashMap::default(),
            ops: Cell::new(0),
        }
    }
}

impl<V> KeyMap<V> {
    #[inline]
    fn count(&self) {
        self.ops.set(self.ops.get() + 1);
    }

    /// Key operations made since creation or the last [`clear`](Self::clear).
    pub fn ops(&self) -> u64 {
        self.ops.get()
    }

    /// Number of keys.
    #[inline]
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// No keys?
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Is `key` present? One lookup.
    #[inline]
    pub fn contains_key(&self, key: &Key) -> bool {
        self.count();
        self.map.contains_key(key)
    }

    /// `key`'s value. One lookup.
    #[inline]
    pub fn get(&self, key: &Key) -> Option<&V> {
        self.count();
        self.map.get(key)
    }

    /// `key`'s value, mutably. One lookup.
    #[inline]
    pub fn get_mut(&mut self, key: &Key) -> Option<&mut V> {
        self.count();
        self.map.get_mut(key)
    }

    /// `key`'s entry, to read or fill in place. One operation, whichever
    /// way it is then used.
    #[inline]
    pub fn entry(&mut self, key: Key) -> Entry<'_, Key, V> {
        self.count();
        self.map.entry(key)
    }

    /// Insert or replace `key`'s value. One insert.
    #[inline]
    pub fn insert(&mut self, key: Key, value: V) -> Option<V> {
        self.count();
        self.map.insert(key, value)
    }

    /// Remove `key`. One removal.
    #[inline]
    pub fn remove(&mut self, key: &Key) -> Option<V> {
        self.count();
        self.map.remove(key)
    }

    /// Every key and value, in no particular order. Not counted.
    pub fn iter(&self) -> impl Iterator<Item = (&Key, &V)> {
        self.map.iter()
    }

    /// Room for `additional` more keys without rehashing.
    pub fn reserve(&mut self, additional: usize) {
        self.map.reserve(additional);
    }

    /// Drop every key and zero the count.
    pub fn clear(&mut self) {
        self.map.clear();
        self.ops.set(0);
    }
}

/// `map[&key]`: one lookup; panics if `key` is absent.
impl<V> std::ops::Index<&Key> for KeyMap<V> {
    type Output = V;

    fn index(&self, key: &Key) -> &V {
        self.count();
        &self.map[key]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key;

    #[test]
    fn every_key_operation_counts_once() {
        let mut m: KeyMap<u8> = KeyMap::default();
        let (a, b) = (key(0, 0, 0), key(0, 0, 1));
        m.insert(a, 1);
        assert!(m.contains_key(&a));
        assert_eq!(m.get(&b), None);
        *m.get_mut(&a).unwrap() += 1;
        m.entry(b).or_insert(7);
        assert_eq!(m[&a], 2);
        assert_eq!(m.remove(&a), Some(2));
        assert_eq!(m.ops(), 7);
        // Length, emptiness, walks and sizing are not key operations.
        assert_eq!((m.len(), m.is_empty()), (1, false));
        assert_eq!(m.iter().count(), 1);
        m.reserve(16);
        assert_eq!(m.ops(), 7);
        m.clear();
        assert_eq!((m.ops(), m.len()), (0, 0));
    }
}
