//! FBF — Favorable Block First (the paper's contribution, §III).
//!
//! FBF keeps three queues. A chunk fetched during partial-stripe recovery
//! enters the queue matching its *priority* — the number of chosen parity
//! chains that will reference it (Table II: ≥3 chains → priority 3,
//! 2 chains → 2, 1 chain → 1). Each queue is LRU-ordered internally.
//!
//! * **Hit** (Algorithm 1, cache-hit branch): a chunk in `Queue3` has one
//!   fewer future reference left, so it is *demoted* into `Queue2`;
//!   likewise `Queue2 → Queue1`. A `Queue1` hit just refreshes its LRU
//!   position.
//! * **Eviction** (replacement policy, Fig. 7): victims come from `Queue1`
//!   first, then `Queue2`, then `Queue3` — chunks still awaited by several
//!   chains are held even if they have not been touched for a while.
//!
//! The paper says a demoted chunk is "inserted to the start point" of the
//! lower queue, while its queue figures attach "the latest accessed data
//! ... to the end of each queue". Both readings are implemented
//! ([`DemotePosition`]); the default is `Back` (MRU end, consistent with
//! the figures), and the ablation bench measures the difference.

use crate::policy::{InsertOutcome, Key, PolicyKind, ReplacementPolicy};
use crate::queue::OrderedQueue;
use crate::FxHashMap;

/// Where a demoted chunk lands in the lower queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DemotePosition {
    /// Append at the MRU end (consistent with Fig. 5/6's "latest accessed
    /// data are attached to the end").
    #[default]
    Back,
    /// Insert at the LRU end ("the start point of Queue2", §III-A-2 text).
    Front,
}

/// Tunables for the FBF policy.
#[derive(Debug, Clone, Copy, Default)]
pub struct FbfConfig {
    /// Demotion landing position; see [`DemotePosition`].
    pub demote_to: DemotePosition,
    /// If `true`, hits do **not** demote (ablation: isolates how much of
    /// FBF's win comes from the demotion mechanism vs. priority insertion).
    pub disable_demotion: bool,
}

/// The FBF priority-queue cache.
#[derive(Debug)]
pub struct FbfPolicy {
    capacity: usize,
    config: FbfConfig,
    /// queues\[0\] = Queue1 (lowest), queues\[2\] = Queue3 (highest).
    queues: [OrderedQueue; 3],
    /// Which queue each resident key currently sits in (0..3).
    level_of: FxHashMap<Key, u8>,
    /// Lifetime count of queue demotions (Algorithm 1's hit branch).
    demotions: u64,
}

impl FbfPolicy {
    /// FBF cache holding at most `capacity` chunks, default configuration.
    pub fn new(capacity: usize) -> Self {
        Self::with_config(capacity, FbfConfig::default())
    }

    /// FBF cache with explicit [`FbfConfig`].
    pub fn with_config(capacity: usize, config: FbfConfig) -> Self {
        FbfPolicy {
            capacity,
            config,
            queues: [
                OrderedQueue::new(),
                OrderedQueue::new(),
                OrderedQueue::new(),
            ],
            level_of: FxHashMap::default(),
            demotions: 0,
        }
    }

    /// The queue level (1..=3) a resident key sits in.
    pub fn level(&self, key: &Key) -> Option<u8> {
        self.level_of.get(key).map(|&l| l + 1)
    }

    fn demote(&mut self, key: Key, from: u8) {
        debug_assert!(from > 0);
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

impl ReplacementPolicy for FbfPolicy {
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
            // Queue1 hit (or ablated demotion): LRU touch within the queue.
            self.queues[level as usize].touch(key);
        } else {
            // Queue3 → Queue2, Queue2 → Queue1.
            self.demote(key, level);
        }
        true
    }

    fn admit(&mut self, key: Key, priority: u8) -> InsertOutcome {
        if self.contains(&key) {
            // Treat as the hit it is: Algorithm 1's demote-on-hit applies.
            self.on_access(key);
            return InsertOutcome::AlreadyResident;
        }
        let evicted = if self.len() >= self.capacity {
            // Replacement policy: drain Queue1, then Queue2, then Queue3.
            let victim = self
                .queues
                .iter_mut()
                .find_map(|q| q.pop_front())
                .expect("full cache has a victim");
            self.level_of.remove(&victim);
            Some(victim)
        } else {
            None
        };
        // Table II: priority ≥ 3 → Queue3; clamp 0 to 1 defensively.
        let level = priority.clamp(1, 3) - 1;
        self.queues[level as usize].push_back(key);
        self.level_of.insert(key, level);
        InsertOutcome::Inserted { evicted }
    }

    fn clear(&mut self) {
        for q in &mut self.queues {
            q.clear();
        }
        self.level_of.clear();
        self.demotions = 0;
    }

    fn demotions(&self) -> u64 {
        self.demotions
    }

    fn queue_occupancy(&self) -> Option<[usize; 3]> {
        Some([
            self.queues[0].len(),
            self.queues[1].len(),
            self.queues[2].len(),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key;

    /// The paper's Table III priorities for the Fig. 3 example, used by the
    /// warm-up and demotion replays below.
    fn c(r: usize, col: usize) -> Key {
        key(0, r, col)
    }

    /// Front-to-back contents of `Queue{n}`; front is the next victim.
    fn queue_contents(fbf: &FbfPolicy, n: usize) -> Vec<Key> {
        fbf.queues[n - 1].iter().copied().collect()
    }

    #[test]
    fn fig5_warm_up_lands_chunks_in_priority_queues() {
        // Fig. 5: requests C(1,1), C(2,2), C(4,4), C(5,5), C(0,6) arrive;
        // priorities from Table III: C(1,1)→3, C(4,4)→2, rest→1.
        let mut fbf = FbfPolicy::new(16);
        let reqs = [
            (c(1, 1), 3u8),
            (c(2, 2), 1),
            (c(4, 4), 2),
            (c(5, 5), 1),
            (c(0, 6), 1),
        ];
        for (k, prio) in reqs {
            assert!(!fbf.on_access(k));
            fbf.on_insert(k, prio);
        }
        assert_eq!(queue_contents(&fbf, 3), vec![c(1, 1)]);
        assert_eq!(queue_contents(&fbf, 2), vec![c(4, 4)]);
        assert_eq!(queue_contents(&fbf, 1), vec![c(2, 2), c(5, 5), c(0, 6)]);
    }

    #[test]
    fn fig6_two_hits_demote_c11_to_queue1() {
        // Fig. 6: two further requests for C(1,1) demote it Queue3 →
        // Queue2 → Queue1.
        let mut fbf = FbfPolicy::new(16);
        fbf.on_insert(c(1, 1), 3);
        assert_eq!(fbf.level(&c(1, 1)), Some(3));
        assert!(fbf.on_access(c(1, 1)));
        assert_eq!(fbf.level(&c(1, 1)), Some(2));
        assert!(fbf.on_access(c(1, 1)));
        assert_eq!(fbf.level(&c(1, 1)), Some(1));
        // Further hits stay in Queue1.
        assert!(fbf.on_access(c(1, 1)));
        assert_eq!(fbf.level(&c(1, 1)), Some(1));
    }

    #[test]
    fn fig7_eviction_drains_queue1_before_queue2() {
        // Fig. 7: with the cache full, incoming priority-1 chunks C(1,6),
        // C(1,7) evict Queue1 chunks; C(1,1) (Queue2) survives even though
        // it is older.
        let mut fbf = FbfPolicy::new(4);
        fbf.on_insert(c(1, 1), 2); // Queue2, oldest resident
        fbf.on_insert(c(2, 2), 1);
        fbf.on_insert(c(5, 5), 1);
        fbf.on_insert(c(0, 6), 1);
        let e1 = fbf.on_insert(c(1, 6), 1).evicted();
        assert_eq!(e1, Some(c(2, 2)), "Queue1 LRU evicted first");
        let e2 = fbf.on_insert(c(1, 7), 1).evicted();
        assert_eq!(e2, Some(c(5, 5)));
        assert!(fbf.contains(&c(1, 1)), "higher-priority chunk survives");
    }

    #[test]
    fn eviction_falls_back_to_queue2_then_queue3() {
        let mut fbf = FbfPolicy::new(2);
        fbf.on_insert(c(0, 0), 3);
        fbf.on_insert(c(0, 1), 2);
        // Queue1 empty → Queue2 victim.
        assert_eq!(fbf.on_insert(c(0, 2), 1).evicted(), Some(c(0, 1)));
        // Now Queue1 holds c(0,2); evicted before the Queue3 resident.
        assert_eq!(fbf.on_insert(c(0, 3), 2).evicted(), Some(c(0, 2)));
        // Queue1 empty, Queue2 holds c(0,3) → evicted before Queue3.
        assert_eq!(fbf.on_insert(c(0, 4), 3).evicted(), Some(c(0, 3)));
        // Only Queue3 residents remain → Queue3 LRU is the victim.
        assert_eq!(fbf.on_insert(c(0, 5), 3).evicted(), Some(c(0, 0)));
    }

    #[test]
    fn priority_clamped_to_valid_queues() {
        let mut fbf = FbfPolicy::new(4);
        fbf.on_insert(c(0, 0), 0); // clamped up to Queue1
        fbf.on_insert(c(0, 1), 7); // clamped down to Queue3
        assert_eq!(fbf.level(&c(0, 0)), Some(1));
        assert_eq!(fbf.level(&c(0, 1)), Some(3));
    }

    #[test]
    fn demote_to_front_variant() {
        let cfg = FbfConfig {
            demote_to: DemotePosition::Front,
            ..Default::default()
        };
        let mut fbf = FbfPolicy::with_config(4, cfg);
        fbf.on_insert(c(0, 0), 1);
        fbf.on_insert(c(0, 1), 2);
        fbf.on_access(c(0, 1)); // demoted to front of Queue1
        assert_eq!(queue_contents(&fbf, 1), vec![c(0, 1), c(0, 0)]);
    }

    #[test]
    fn disable_demotion_keeps_level() {
        let cfg = FbfConfig {
            disable_demotion: true,
            ..Default::default()
        };
        let mut fbf = FbfPolicy::with_config(4, cfg);
        fbf.on_insert(c(0, 0), 3);
        fbf.on_access(c(0, 0));
        fbf.on_access(c(0, 0));
        assert_eq!(fbf.level(&c(0, 0)), Some(3));
    }

    #[test]
    fn demotions_counted_and_reset_by_clear() {
        let mut fbf = FbfPolicy::new(16);
        fbf.on_insert(c(1, 1), 3);
        assert_eq!(fbf.demotions(), 0);
        fbf.on_access(c(1, 1)); // Q3 → Q2
        fbf.on_access(c(1, 1)); // Q2 → Q1
        fbf.on_access(c(1, 1)); // Q1 hit: no demotion
        assert_eq!(fbf.demotions(), 2);
        // Re-insert of a resident is a hit and demotes too.
        fbf.on_insert(c(0, 0), 3);
        fbf.on_insert(c(0, 0), 3);
        assert_eq!(fbf.demotions(), 3);
        fbf.clear();
        assert_eq!(fbf.demotions(), 0);
    }

    #[test]
    fn queue_occupancy_counts_each_queue() {
        let mut fbf = FbfPolicy::new(10);
        fbf.on_insert(c(0, 0), 1);
        fbf.on_insert(c(0, 1), 3);
        fbf.on_insert(c(0, 2), 3);
        assert_eq!(fbf.queue_occupancy(), Some([1, 0, 2]));
    }

    #[test]
    fn disabled_demotion_counts_nothing() {
        let cfg = FbfConfig {
            disable_demotion: true,
            ..Default::default()
        };
        let mut fbf = FbfPolicy::with_config(4, cfg);
        fbf.on_insert(c(0, 0), 3);
        fbf.on_access(c(0, 0));
        assert_eq!(fbf.demotions(), 0);
    }

    #[test]
    fn len_spans_all_queues() {
        let mut fbf = FbfPolicy::new(10);
        fbf.on_insert(c(0, 0), 1);
        fbf.on_insert(c(0, 1), 2);
        fbf.on_insert(c(0, 2), 3);
        assert_eq!(fbf.len(), 3);
        assert_eq!(fbf.queue_occupancy(), Some([1, 1, 1]));
    }
}
