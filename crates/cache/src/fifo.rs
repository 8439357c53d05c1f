//! FIFO replacement: evict in arrival order, ignore re-references.

use crate::policy::{InsertOutcome, Key, PolicyKind, ReplacementPolicy};
use crate::queue::{Entry, OrderedQueue};

/// First-in first-out cache. The simplest baseline in the paper's figures:
/// hits do not refresh position, so long-lived shared chunks age out exactly
/// as fast as single-use ones.
#[derive(Debug)]
pub struct FifoPolicy {
    capacity: usize,
    queue: OrderedQueue,
}

impl FifoPolicy {
    /// FIFO cache holding at most `capacity` chunks.
    pub fn new(capacity: usize) -> Self {
        FifoPolicy {
            capacity,
            queue: OrderedQueue::new(),
        }
    }
}

impl ReplacementPolicy for FifoPolicy {
    fn kind(&self) -> PolicyKind {
        PolicyKind::Fifo
    }

    fn capacity(&self) -> usize {
        self.capacity
    }

    fn len(&self) -> usize {
        self.queue.len()
    }

    fn contains(&self, key: &Key) -> bool {
        self.queue.contains(key)
    }

    fn on_access(&mut self, key: Key) -> bool {
        // A hit does not change FIFO order.
        self.queue.contains(&key)
    }

    fn admit(&mut self, key: Key, _priority: u8) -> InsertOutcome {
        let full = self.queue.len() >= self.capacity;
        let Entry::Vacant(slot) = self.queue.entry(key) else {
            // FIFO order is insertion order: a re-insert changes nothing.
            return InsertOutcome::AlreadyResident;
        };
        let evicted = full.then(|| self.queue.pop_front(0).expect("full cache has a victim"));
        self.queue.move_back(slot, 0);
        InsertOutcome::Inserted { evicted }
    }

    fn clear(&mut self) {
        self.queue.clear();
    }

    fn map_ops(&self) -> u64 {
        self.queue.map_ops()
    }

    fn reserve(&mut self, accesses: usize) {
        self.queue.reserve(accesses.min(self.capacity + 1));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key;

    #[test]
    fn evicts_in_arrival_order_despite_hits() {
        let mut f = FifoPolicy::new(2);
        f.on_insert(key(0, 0, 0), 1);
        f.on_insert(key(0, 0, 1), 1);
        // Hit the oldest — FIFO must still evict it first.
        assert!(f.on_access(key(0, 0, 0)));
        let evicted = f.on_insert(key(0, 0, 2), 1).evicted();
        assert_eq!(evicted, Some(key(0, 0, 0)));
    }

    #[test]
    fn fills_before_evicting() {
        let mut f = FifoPolicy::new(3);
        assert_eq!(f.on_insert(key(0, 0, 0), 1).evicted(), None);
        assert_eq!(f.on_insert(key(0, 0, 1), 1).evicted(), None);
        assert_eq!(f.on_insert(key(0, 0, 2), 1).evicted(), None);
        assert_eq!(f.len(), 3);
        assert_eq!(f.on_insert(key(0, 0, 3), 1).evicted(), Some(key(0, 0, 0)));
    }
}
