//! Property tests for the replacement policies.

use fbf_cache::{key, FbfPolicy, Key, PolicyKind, ReplacementPolicy};
use proptest::prelude::*;

/// A random access trace: (stripe, row, col, priority) tuples.
fn trace_strategy(len: usize) -> impl Strategy<Value = Vec<(u32, usize, usize, u8)>> {
    proptest::collection::vec((0u32..6, 0usize..6, 0usize..8, 1u8..4), 1..len)
}

/// How many chunks each of FBF's three queues holds.
fn occupancy(fbf: &FbfPolicy) -> [usize; 3] {
    fbf.queue_occupancy().expect("FBF has queues")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Universal policy invariants under arbitrary traces.
    #[test]
    fn policy_invariants(
        kind_idx in 0usize..10,
        capacity in 0usize..32,
        ops in trace_strategy(300),
    ) {
        let kind = PolicyKind::EXTENDED[kind_idx];
        let mut policy = kind.build(capacity);
        let mut resident: std::collections::HashSet<Key> = std::collections::HashSet::new();
        for (s, r, c, prio) in ops {
            let k = key(s, r, c);
            let hit = policy.on_access(k);
            prop_assert_eq!(hit, resident.contains(&k), "{}: shadow set diverged", kind);
            if !hit {
                if let Some(victim) = policy.on_insert(k, prio).evicted() {
                    prop_assert!(resident.remove(&victim), "{}: evicted non-resident", kind);
                    prop_assert!(!policy.contains(&victim));
                }
                if capacity > 0 {
                    resident.insert(k);
                    prop_assert!(policy.contains(&k));
                }
            }
            prop_assert_eq!(policy.len(), resident.len(), "{}", kind);
            prop_assert!(policy.len() <= capacity);
        }
    }

    /// Capacity-0 adversarial sequence: every policy must survive any
    /// interleaving of access/insert/contains/clear without panicking,
    /// miss on every access, reject every insert, and stay empty.
    #[test]
    fn zero_capacity_never_panics_never_admits(
        kind_idx in 0usize..10,
        ops in proptest::collection::vec((0u8..4, 0u32..8, 0usize..8, 0usize..8, 0u8..4), 1..400),
    ) {
        let kind = PolicyKind::EXTENDED[kind_idx];
        let mut policy = kind.build(0);
        for (op, s, r, c, prio) in ops {
            let k = key(s, r, c);
            match op {
                0 => prop_assert!(!policy.on_access(k), "{}: hit in empty cache", kind),
                1 => {
                    let out = policy.on_insert(k, prio.max(1));
                    prop_assert_eq!(out, fbf_cache::InsertOutcome::Rejected, "{}", kind);
                }
                2 => prop_assert!(!policy.contains(&k), "{}", kind),
                _ => policy.clear(),
            }
            prop_assert_eq!(policy.len(), 0, "{}: residency crept in", kind);
            prop_assert!(policy.is_empty());
        }
    }

    /// FBF-specific invariant: no chunk in Queue2/Queue3 is ever evicted
    /// while Queue1 is non-empty.
    #[test]
    fn fbf_eviction_order(capacity in 1usize..16, ops in trace_strategy(300)) {
        let mut fbf = FbfPolicy::new(capacity);
        for (s, r, c, prio) in ops {
            let k = key(s, r, c);
            if !fbf.on_access(k) {
                let q1_before = occupancy(&fbf)[0];
                if let Some(victim) = fbf.on_insert(k, prio).evicted() {
                    if q1_before > 0 {
                        // The victim must have come from Queue1: Queue1
                        // shrank (or the victim itself was its only entry
                        // and the new key refilled it).
                        prop_assert!(
                            fbf.level(&victim).is_none(),
                            "victim still resident"
                        );
                    }
                }
            }
            // Level bookkeeping is consistent with queue contents.
            let total: usize = occupancy(&fbf).iter().sum();
            prop_assert_eq!(total, fbf.len());
        }
    }

    /// FBF demotion: a resident chunk's level never *increases* on access.
    #[test]
    fn fbf_demotion_is_monotone(ops in trace_strategy(200)) {
        let mut fbf = FbfPolicy::new(64);
        for (s, r, c, prio) in ops {
            let k = key(s, r, c);
            let before = fbf.level(&k);
            if !fbf.on_access(k) {
                fbf.on_insert(k, prio);
            } else if let (Some(b), Some(a)) = (before, fbf.level(&k)) {
                prop_assert!(a <= b, "level rose from {b} to {a} on a hit");
            }
        }
    }

    /// Determinism: identical traces produce identical resident sets for
    /// every policy.
    #[test]
    fn policies_deterministic(kind_idx in 0usize..10, ops in trace_strategy(200)) {
        let kind = PolicyKind::EXTENDED[kind_idx];
        let run = |ops: &[(u32, usize, usize, u8)]| -> Vec<Key> {
            let mut p = kind.build(8);
            let mut evictions = Vec::new();
            for &(s, r, c, prio) in ops {
                let k = key(s, r, c);
                if !p.on_access(k) {
                    if let Some(v) = p.on_insert(k, prio).evicted() {
                        evictions.push(v);
                    }
                }
            }
            evictions
        };
        prop_assert_eq!(run(&ops), run(&ops), "{}", kind);
    }
}
