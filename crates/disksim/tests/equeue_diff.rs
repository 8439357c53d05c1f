//! Differential tests: [`CalendarQueue`] vs the retained
//! [`HeapQueue`] oracle.
//!
//! The engine swapped its `BinaryHeap` for a calendar wheel; the fig8/fig9
//! CSVs stay bit-identical only if both queues pop *exactly* the same
//! sequence for every push/pop interleaving — including full-tuple
//! tie-breaking on `(SimTime, kind, id)`. These properties drive random
//! and engine-shaped streams through both queues in lockstep.

mod common;

use common::HeapQueue;
use fbf_disksim::{CalendarQueue, Event, EventQueue, SimTime};
use proptest::prelude::*;

/// Drain both queues after `ops` interleaved push/pops and assert every
/// popped event matched along the way.
fn lockstep(stream: impl Iterator<Item = Option<Event>>) {
    let mut cal = CalendarQueue::default();
    let mut heap = HeapQueue::default();
    for op in stream {
        match op {
            Some(ev) => {
                cal.push(ev);
                heap.push(ev);
            }
            None => {
                assert_eq!(cal.pop(), heap.pop(), "pop order diverged");
            }
        }
        assert_eq!(cal.len(), heap.len());
    }
    while let Some(expect) = heap.pop() {
        assert_eq!(cal.pop(), Some(expect), "drain order diverged");
    }
    assert!(cal.pop().is_none() && cal.is_empty());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Fully random streams: arbitrary times (clustered small so ties are
    /// common), kinds, ids, with interleaved pops (tag 0 of 4 = pop).
    #[test]
    fn random_streams_pop_identically(
        ops in proptest::collection::vec((0u8..4, 0u64..2_000, 0u8..3, 0usize..64), 0..600),
    ) {
        lockstep(ops.into_iter().map(|(tag, t, kind, id)| {
            (tag != 0).then_some((SimTime::from_nanos(t), kind, id))
        }));
    }

    /// Engine-shaped streams: near-monotone hold-and-advance (each pushed
    /// time is "now" plus a small delta), plus occasional large jumps and
    /// exact duplicates to force tie-breaks and bucket-rotation edges.
    #[test]
    fn near_monotone_streams_pop_identically(
        deltas in proptest::collection::vec((0u64..30_000, 0u8..3, 0usize..128, 0u8..8), 1..600),
    ) {
        let mut now = 0u64;
        let mut last: Option<Event> = None;
        let stream: Vec<Option<Event>> = deltas
            .into_iter()
            .flat_map(|(delta, kind, id, shape)| {
                let ev = match shape {
                    // Exact duplicate of the previous event: full tie.
                    0 => last.unwrap_or((SimTime::ZERO, kind, id)),
                    // Large jump: rotates past the wheel horizon.
                    1 => (SimTime::from_nanos(now + delta * 1_000), kind, id),
                    // Same time, different kind/id: partial tie.
                    2 => (SimTime::from_nanos(now), kind, id),
                    _ => (SimTime::from_nanos(now + delta), kind, id),
                };
                now = now.max(ev.0.as_nanos());
                last = Some(ev);
                // Push, then pop roughly every other event (hold-and-advance).
                if shape % 2 == 0 {
                    vec![Some(ev), None]
                } else {
                    vec![Some(ev)]
                }
            })
            .collect();
        lockstep(stream.into_iter());
    }

    /// Pathological spacing: events separated by huge gaps (up to 2^40 ns)
    /// force the wheel's recalibration path; order must still match.
    #[test]
    fn sparse_streams_pop_identically(
        shifts in proptest::collection::vec((0u32..40, 0u64..1_000, 0usize..16), 1..80),
    ) {
        lockstep(shifts.into_iter().flat_map(|(shift, fine, id)| {
            let t = (1u64 << shift).wrapping_add(fine);
            [Some((SimTime::from_nanos(t), (id % 3) as u8, id)), None].into_iter()
        }));
    }
}

/// The engine runs identically on either queue type — the whole-system
/// version of the lockstep property, pinned at a fixed seed.
#[test]
fn clear_then_reuse_matches_fresh() {
    let mut cal = CalendarQueue::default();
    // Dirty it with a sparse stream, then clear.
    for i in 0..50u64 {
        cal.push((SimTime::from_nanos(i << 30), 1, i as usize));
    }
    for _ in 0..20 {
        cal.pop();
    }
    cal.clear();
    assert!(cal.is_empty());

    // A reused queue must behave like a fresh one.
    let mut heap = HeapQueue::default();
    for i in (0..200u64).rev() {
        cal.push((SimTime::from_nanos(i * 7), (i % 3) as u8, i as usize));
        heap.push((SimTime::from_nanos(i * 7), (i % 3) as u8, i as usize));
    }
    while let Some(expect) = heap.pop() {
        assert_eq!(cal.pop(), Some(expect));
    }
    assert!(cal.is_empty());
}
