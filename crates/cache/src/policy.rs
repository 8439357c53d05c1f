//! The [`ReplacementPolicy`] trait and the [`PolicyKind`] selector.

/// Cache key: the global chunk identity.
pub type Key = fbf_codes::ChunkId;

/// What [`ReplacementPolicy::on_insert`] did with the offered key.
///
/// Every policy follows the same contract, so callers never have to guess
/// whether a duplicate insert panicked, was ignored, or aliased an access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InsertOutcome {
    /// The key was admitted. `evicted` names the resident that was
    /// displaced to make room, if the cache was full.
    Inserted {
        /// The displaced resident, if any.
        evicted: Option<Key>,
    },
    /// The key was already resident; the policy treated the call as an
    /// access (recency/frequency updated, nothing evicted).
    AlreadyResident,
    /// The cache admits nothing (zero capacity); the key was not stored.
    Rejected,
}

impl InsertOutcome {
    /// The displaced resident, if this insert evicted one.
    pub fn evicted(self) -> Option<Key> {
        match self {
            InsertOutcome::Inserted { evicted } => evicted,
            _ => None,
        }
    }

    /// Is the key resident after the call?
    pub fn resident(self) -> bool {
        !matches!(self, InsertOutcome::Rejected)
    }
}

/// A cache replacement policy over unit-size chunks.
///
/// The protocol mirrors Algorithm 1 of the paper: the buffer cache first
/// calls [`on_access`](ReplacementPolicy::on_access); on a miss it fetches
/// the chunk from disk and calls [`on_insert`](ReplacementPolicy::on_insert),
/// which makes room (at most one eviction, since chunks are unit-size) and
/// records the new resident.
///
/// Policies are purely bookkeeping — they never see payloads, so they are
/// cheap to drive at simulation speed.
pub trait ReplacementPolicy: Send {
    /// Which policy this is. Display lives in one place —
    /// [`PolicyKind::name`] / [`PolicyKind`]'s `Display` impl.
    fn kind(&self) -> PolicyKind;

    /// Maximum number of resident chunks.
    fn capacity(&self) -> usize;

    /// Current number of resident chunks.
    fn len(&self) -> usize;

    /// `len() == 0`.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Is the key resident? No side effects.
    fn contains(&self, key: &Key) -> bool;

    /// Record an access. Returns `true` on a hit (and updates the policy's
    /// internal ordering — recency, frequency, FBF demotion, ...).
    /// Returns `false` on a miss; ghost-list bookkeeping (ARC) is deferred
    /// to [`on_insert`](ReplacementPolicy::on_insert).
    fn on_access(&mut self, key: Key) -> bool;

    /// Insert a key that just missed. `priority` is the FBF priority
    /// (1..=3) from the recovery scheme's priority dictionary; every other
    /// policy ignores it.
    ///
    /// The outcome is fully defined — see [`InsertOutcome`]:
    /// * zero-capacity caches return [`InsertOutcome::Rejected`] (enforced
    ///   here, once, for every policy);
    /// * inserting an already-resident key is treated as an access and
    ///   returns [`InsertOutcome::AlreadyResident`] (never an eviction);
    /// * otherwise the key is admitted and
    ///   [`InsertOutcome::Inserted`]`{ evicted }` reports the displaced
    ///   resident, if the cache was full.
    fn on_insert(&mut self, key: Key, priority: u8) -> InsertOutcome {
        if self.capacity() == 0 {
            return InsertOutcome::Rejected;
        }
        self.admit(key, priority)
    }

    /// [`on_insert`](ReplacementPolicy::on_insert) behind the shared
    /// zero-capacity guard. Implementations may assume `capacity() > 0`
    /// but still own the `AlreadyResident`/eviction contract. Callers go
    /// through `on_insert`; this hook exists so the guard lives in exactly
    /// one place instead of being copy-pasted into every policy.
    fn admit(&mut self, key: Key, priority: u8) -> InsertOutcome;

    /// Drop all residents and internal history.
    fn clear(&mut self);

    /// Lifetime count of queue demotions. Only multi-queue policies with a
    /// demotion mechanism (FBF) report non-zero; the default is 0 so the
    /// hot-path `on_access` signature stays untouched.
    fn demotions(&self) -> u64 {
        0
    }

    /// Current occupancy of the policy's priority queues as
    /// `[Queue1, Queue2, Queue3]`, for policies that have them (FBF).
    /// `None` for single-queue policies.
    fn queue_occupancy(&self) -> Option<[usize; 3]> {
        None
    }

    /// Key-map lookups, inserts and removals made since the policy was
    /// built or last cleared, over all its chunk-keyed maps
    /// ([`KeyMap`](crate::key_map::KeyMap) counts them).
    fn map_ops(&self) -> u64;

    /// Size the policy's storage once, for a run that makes at most
    /// `accesses` accesses through it: to the most keys it can index at
    /// once (residents, ghosts, and the key an insert admits before its
    /// victim leaves), or to `accesses` if that is fewer — a run cannot
    /// bring in more keys than it makes accesses. Nothing then grows or
    /// rehashes during the run.
    fn reserve(&mut self, accesses: usize);
}

/// Selector for building policies from experiment configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum PolicyKind {
    /// First-in first-out.
    Fifo,
    /// Least recently used.
    Lru,
    /// Least frequently used (recency tie-break).
    Lfu,
    /// Adaptive Replacement Cache (Megiddo & Modha, FAST'03).
    Arc,
    /// Favorable Block First (this paper).
    Fbf,
    /// LRU-K (K = 2) — cited in §II-B \[28\].
    LruK,
    /// 2Q — cited in §II-B \[29\].
    TwoQ,
    /// LRFU — cited in §II-B \[30\].
    Lrfu,
    /// Frequency-based replacement — cited in §II-B \[27\].
    Fbr,
    /// Victim Disk First — the closest prior art, §II-B \[23\]. Built with
    /// an empty victim set here (plain LRU); the engine wires the real
    /// victim columns when it knows the error campaign.
    Vdf,
}

impl PolicyKind {
    /// The five policies the paper's figures compare.
    pub const ALL: [PolicyKind; 5] = [
        PolicyKind::Fifo,
        PolicyKind::Lru,
        PolicyKind::Lfu,
        PolicyKind::Arc,
        PolicyKind::Fbf,
    ];

    /// Every shipped policy, including the §II-B citations beyond the
    /// paper's figure set (used by the `extended_policies` bench).
    pub const EXTENDED: [PolicyKind; 10] = [
        PolicyKind::Fifo,
        PolicyKind::Lru,
        PolicyKind::Lfu,
        PolicyKind::Arc,
        PolicyKind::LruK,
        PolicyKind::TwoQ,
        PolicyKind::Lrfu,
        PolicyKind::Fbr,
        PolicyKind::Vdf,
        PolicyKind::Fbf,
    ];

    /// The four baselines (everything except FBF).
    pub const BASELINES: [PolicyKind; 4] = [
        PolicyKind::Fifo,
        PolicyKind::Lru,
        PolicyKind::Lfu,
        PolicyKind::Arc,
    ];

    /// Display name matching the paper.
    pub fn name(&self) -> &'static str {
        match self {
            PolicyKind::Fifo => "FIFO",
            PolicyKind::Lru => "LRU",
            PolicyKind::Lfu => "LFU",
            PolicyKind::Arc => "ARC",
            PolicyKind::Fbf => "FBF",
            PolicyKind::LruK => "LRU-K",
            PolicyKind::TwoQ => "2Q",
            PolicyKind::Lrfu => "LRFU",
            PolicyKind::Fbr => "FBR",
            PolicyKind::Vdf => "VDF",
        }
    }

    /// Build a boxed policy with the given capacity (in chunks).
    pub fn build(&self, capacity: usize) -> Box<dyn ReplacementPolicy> {
        match self {
            PolicyKind::Fifo => Box::new(crate::fifo::FifoPolicy::new(capacity)),
            PolicyKind::Lru => Box::new(crate::lru::LruPolicy::new(capacity)),
            PolicyKind::Lfu => Box::new(crate::lfu::LfuPolicy::new(capacity)),
            PolicyKind::Arc => Box::new(crate::arc::ArcPolicy::new(capacity)),
            PolicyKind::Fbf => Box::new(crate::fbf::FbfPolicy::new(capacity)),
            PolicyKind::LruK => Box::new(crate::lru_k::LruKPolicy::new(capacity)),
            PolicyKind::TwoQ => Box::new(crate::two_q::TwoQPolicy::new(capacity)),
            PolicyKind::Lrfu => Box::new(crate::lrfu::LrfuPolicy::new(capacity)),
            PolicyKind::Fbr => Box::new(crate::fbr::FbrPolicy::new(capacity)),
            PolicyKind::Vdf => Box::new(crate::vdf::VdfPolicy::new(capacity)),
        }
    }
}

impl std::fmt::Display for PolicyKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key;

    #[test]
    fn build_all_kinds() {
        for kind in PolicyKind::EXTENDED {
            let p = kind.build(4);
            assert_eq!(p.capacity(), 4);
            assert_eq!(p.len(), 0);
            assert!(p.is_empty());
            assert_eq!(p.kind(), kind);
        }
    }

    #[test]
    fn display_matches_paper_names() {
        let names: Vec<&str> = PolicyKind::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(names, vec!["FIFO", "LRU", "LFU", "ARC", "FBF"]);
    }

    #[test]
    fn basic_protocol_for_all_policies() {
        for kind in PolicyKind::EXTENDED {
            let mut p = kind.build(2);
            let (a, b, c) = (key(0, 0, 0), key(0, 0, 1), key(0, 0, 2));
            assert!(!p.on_access(a), "{kind}: cold access must miss");
            assert_eq!(p.on_insert(a, 1), InsertOutcome::Inserted { evicted: None });
            assert!(p.contains(&a), "{kind}");
            assert!(p.on_access(a), "{kind}: second access must hit");
            assert_eq!(p.on_insert(b, 1), InsertOutcome::Inserted { evicted: None });
            assert_eq!(p.len(), 2, "{kind}");
            p.on_access(c);
            let outcome = p.on_insert(c, 1);
            assert!(outcome.evicted().is_some(), "{kind}: full cache must evict");
            assert_eq!(p.len(), 2, "{kind}: len stays at capacity");
            assert!(p.contains(&c), "{kind}: new key resident");
        }
    }

    #[test]
    fn zero_capacity_caches_nothing() {
        for kind in PolicyKind::EXTENDED {
            let mut p = kind.build(0);
            let a = key(0, 0, 0);
            assert!(!p.on_access(a));
            assert_eq!(p.on_insert(a, 3), InsertOutcome::Rejected, "{kind}");
            assert!(
                !p.contains(&a),
                "{kind}: zero-capacity cache stores nothing"
            );
            assert_eq!(p.len(), 0);
        }
    }

    #[test]
    fn duplicate_insert_is_an_access_for_every_policy() {
        // The conformance contract: re-inserting a resident key never
        // evicts, never grows the cache, and reports `AlreadyResident`.
        for kind in PolicyKind::EXTENDED {
            let mut p = kind.build(2);
            let (a, b) = (key(0, 0, 0), key(0, 0, 1));
            assert_eq!(p.on_insert(a, 2), InsertOutcome::Inserted { evicted: None });
            assert_eq!(p.on_insert(b, 1), InsertOutcome::Inserted { evicted: None });
            assert_eq!(p.on_insert(a, 2), InsertOutcome::AlreadyResident, "{kind}");
            assert_eq!(
                p.len(),
                2,
                "{kind}: duplicate insert must not grow the cache"
            );
            assert!(p.contains(&a), "{kind}");
            assert!(p.contains(&b), "{kind}: duplicate insert must not evict");
            // And with the cache full to the brim, still no eviction.
            assert_eq!(p.on_insert(b, 1), InsertOutcome::AlreadyResident, "{kind}");
            assert_eq!(p.len(), 2, "{kind}");
        }
    }

    #[test]
    fn demotion_hooks_default_to_inert_except_fbf() {
        for kind in PolicyKind::EXTENDED {
            let mut p = kind.build(4);
            let a = key(0, 0, 0);
            p.on_insert(a, 3);
            p.on_access(a);
            if kind == PolicyKind::Fbf {
                assert_eq!(p.demotions(), 1, "{kind}");
                assert!(p.queue_occupancy().is_some(), "{kind}");
            } else {
                assert_eq!(p.demotions(), 0, "{kind}");
                assert_eq!(p.queue_occupancy(), None, "{kind}");
            }
        }
    }

    #[test]
    fn clear_empties_everything() {
        for kind in PolicyKind::EXTENDED {
            let mut p = kind.build(4);
            for i in 0..4 {
                p.on_access(key(0, 0, i));
                p.on_insert(key(0, 0, i), 1);
            }
            p.clear();
            assert_eq!(p.len(), 0, "{kind}");
            assert!(!p.on_access(key(0, 0, 0)), "{kind}: cleared key must miss");
        }
    }
}
