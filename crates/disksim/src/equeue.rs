//! Event queues for the simulation engine.
//!
//! The engine's event stream is near-monotone: every handler pops the
//! earliest event and pushes successors at `now + duration`, with durations
//! spanning roughly cache-hit time (sub-µs) to disk service time (ms). A
//! [`CalendarQueue`] (Brown 1988) exploits that shape for O(1) amortized
//! push/pop; the original `BinaryHeap` queue lives on in `tests/common` as
//! the differential twin (see `tests/equeue_diff.rs` and the engine-level
//! suite in `tests/engine_equivalence.rs`), substituted through the
//! [`EventQueue`] trait.
//!
//! Ordering contract: events are `(SimTime, u8, usize)` tuples popped in
//! ascending *tuple* order — completions (`kind 0`) before worker steps
//! (`kind 1`) at the same instant, ids breaking remaining ties. Both queues
//! honour the full tuple, which is what keeps fig8/fig9 CSVs bit-identical
//! across the queue swap.

use crate::time::SimTime;

/// An engine event: `(time, kind, id)`, popped in ascending tuple order.
pub type Event = (SimTime, u8, usize);

/// Minimal priority-queue surface the engine needs. Implementations must
/// pop events in ascending `(SimTime, u8, usize)` order; equal tuples are
/// interchangeable duplicates.
pub trait EventQueue: Default {
    /// Remove all events, keeping allocations for reuse.
    fn clear(&mut self);
    /// Insert an event.
    fn push(&mut self, ev: Event);
    /// Remove and return the smallest event.
    fn pop(&mut self) -> Option<Event>;
    /// Number of queued events.
    fn len(&self) -> usize;
    /// True when no events are queued.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Initial bucket-width exponent: 2^13 ns = 8.192 µs per bucket, on the
/// order of one XOR pass — the engine's most common inter-event gap.
const INIT_SHIFT: u32 = 13;
/// Initial wheel size (power of two). 256 × 8 µs ≈ 2 ms horizon, which
/// covers one disk service time.
const INIT_BUCKETS: usize = 256;
/// Grow the wheel when average occupancy exceeds this many events/bucket.
const GROW_AT: usize = 4;
/// Wheel size cap; beyond this, deeper buckets beat a wider wheel.
const MAX_BUCKETS: usize = 1 << 16;
/// A popped bucket holding more events than this is "crowded": the bucket
/// width is too coarse for the live event spacing, so pops degrade toward
/// a linear scan. Crowding arms a recalibration.
const CROWD_AT: usize = 8;
/// Minimum pops between crowding-triggered recalibrations. Recalibration
/// is O(len); rate-limiting it keeps the amortized cost per pop at
/// `len / RECAL_INTERVAL` even for event distributions whose span defeats
/// the width heuristic (e.g. one far-future outlier above a dense cluster).
const RECAL_INTERVAL: usize = 64;

/// Bucketed calendar queue tuned for the engine's near-monotone stream.
///
/// The wheel has a power-of-two number of buckets of 2^shift ns each; an
/// event at time `t` lives in bucket `(t >> shift) & mask`. `pop` scans the
/// current "day" (absolute bucket index `t >> shift`) for its minimum by
/// full tuple compare, advancing day by day; a full fruitless rotation
/// triggers [`recalibrate`](Self::recalibrate), which re-keys the wheel to
/// the live event span. Pushing before the current day rewinds it, so
/// arbitrary insert orders stay correct — only performance assumes
/// near-monotonicity. All sizing decisions depend solely on queue content,
/// so identical push/pop sequences always produce identical pop orders
/// (and the differential suite pins them against the heap oracle).
pub struct CalendarQueue {
    buckets: Vec<Vec<Event>>,
    /// log2 of the bucket width in nanoseconds.
    shift: u32,
    /// Absolute day (`time >> shift`) the next pop starts scanning from.
    cur_day: u64,
    len: usize,
    /// Pops since the last recalibration; gates the crowding trigger.
    pops_since_recal: usize,
    /// Scratch for rebuilds, kept to avoid re-allocating.
    spill: Vec<Event>,
}

impl Default for CalendarQueue {
    fn default() -> Self {
        CalendarQueue {
            buckets: (0..INIT_BUCKETS).map(|_| Vec::new()).collect(),
            shift: INIT_SHIFT,
            cur_day: 0,
            len: 0,
            pops_since_recal: RECAL_INTERVAL,
            spill: Vec::new(),
        }
    }
}

impl CalendarQueue {
    /// Fresh queue; equivalent to `Default::default()`.
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    fn day_of(&self, t: SimTime) -> u64 {
        t.as_nanos() >> self.shift
    }

    #[inline]
    fn bucket_of(&self, day: u64) -> usize {
        (day as usize) & (self.buckets.len() - 1)
    }

    /// Insert without any resize bookkeeping (used by rebuilds).
    #[inline]
    fn raw_push(&mut self, ev: Event) {
        let day = self.day_of(ev.0);
        if self.len == 0 || day < self.cur_day {
            self.cur_day = day;
        }
        let b = self.bucket_of(day);
        self.buckets[b].push(ev);
        self.len += 1;
    }

    /// Re-key the wheel so the live events span about half of it: width
    /// grows (or shrinks) to `span / (buckets / 2)` rounded up to a power
    /// of two. Called when the wheel outgrows its occupancy target or when
    /// a pop rotates the whole wheel without finding the current day —
    /// both conditions, and the new geometry, depend only on queue content,
    /// keeping pop order deterministic.
    fn recalibrate(&mut self, nbuckets: usize) {
        self.spill.clear();
        for b in &mut self.buckets {
            self.spill.append(b);
        }
        if self.buckets.len() != nbuckets {
            self.buckets.resize_with(nbuckets, Vec::new);
        }
        let (mut lo, mut hi) = (u64::MAX, 0u64);
        for ev in &self.spill {
            lo = lo.min(ev.0.as_nanos());
            hi = hi.max(ev.0.as_nanos());
        }
        if lo <= hi {
            let span = hi - lo + 1;
            let target = (nbuckets as u64 / 2).max(1);
            let mut shift = 0u32;
            while shift < 63 && (span >> shift) > target {
                shift += 1;
            }
            self.shift = shift;
        }
        self.len = 0;
        self.pops_since_recal = 0;
        let mut spill = std::mem::take(&mut self.spill);
        for ev in spill.drain(..) {
            self.raw_push(ev);
        }
        self.spill = spill;
    }
}

impl EventQueue for CalendarQueue {
    fn clear(&mut self) {
        for b in &mut self.buckets {
            b.clear();
        }
        self.cur_day = 0;
        self.len = 0;
        self.pops_since_recal = RECAL_INTERVAL;
    }

    fn push(&mut self, ev: Event) {
        self.raw_push(ev);
        if self.len > self.buckets.len() * GROW_AT && self.buckets.len() < MAX_BUCKETS {
            let grown = self.buckets.len() * 2;
            self.recalibrate(grown);
        }
    }

    fn pop(&mut self) -> Option<Event> {
        if self.len == 0 {
            return None;
        }
        loop {
            // Scan at most one full rotation from the current day.
            for _ in 0..self.buckets.len() {
                let b = self.bucket_of(self.cur_day);
                let shift = self.shift;
                let cur_day = self.cur_day;
                let bucket = &mut self.buckets[b];
                let mut min_idx = usize::MAX;
                let mut min_ev = (SimTime(u64::MAX), u8::MAX, usize::MAX);
                for (i, &ev) in bucket.iter().enumerate() {
                    if ev.0.as_nanos() >> shift == cur_day && (min_idx == usize::MAX || ev < min_ev)
                    {
                        min_idx = i;
                        min_ev = ev;
                    }
                }
                if min_idx != usize::MAX {
                    let crowded = bucket.len() > CROWD_AT;
                    bucket.swap_remove(min_idx);
                    self.len -= 1;
                    self.pops_since_recal += 1;
                    if crowded && self.pops_since_recal >= RECAL_INTERVAL {
                        // The popped bucket held far more than its share of
                        // events: the width is too coarse for the live
                        // spacing (a shape the grow and fruitless-rotation
                        // triggers never see). Re-key, rate-limited by
                        // RECAL_INTERVAL.
                        let n = self.buckets.len();
                        self.recalibrate(n);
                    }
                    return Some(min_ev);
                }
                self.cur_day += 1;
            }
            // Full rotation without a hit: bucket width is far off the
            // event spacing. Re-key to the live span and retry — the first
            // live day is then guaranteed to be hit within one rotation.
            let n = self.buckets.len();
            self.recalibrate(n);
        }
    }

    fn len(&self) -> usize {
        self.len
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain<Q: EventQueue>(q: &mut Q) -> Vec<Event> {
        let mut out = Vec::new();
        while let Some(ev) = q.pop() {
            out.push(ev);
        }
        out
    }

    #[test]
    fn pops_in_tuple_order_with_ties() {
        let evs: Vec<Event> = vec![
            (SimTime::from_nanos(50), 1, 2),
            (SimTime::from_nanos(50), 0, 9),
            (SimTime::from_nanos(10), 1, 0),
            (SimTime::from_nanos(50), 1, 1),
            (SimTime::from_nanos(10), 1, 0),
        ];
        let mut cal = CalendarQueue::new();
        for &ev in &evs {
            cal.push(ev);
        }
        let mut sorted = evs;
        sorted.sort_unstable();
        assert_eq!(drain(&mut cal), sorted);
    }

    #[test]
    fn rewinds_on_insert_before_window() {
        let mut q = CalendarQueue::new();
        q.push((SimTime::from_nanos(1_000_000), 1, 0));
        assert_eq!(q.pop(), Some((SimTime::from_nanos(1_000_000), 1, 0)));
        // The window is now at 1 ms; an earlier insert must still pop first.
        q.push((SimTime::from_nanos(2_000_000), 1, 1));
        q.push((SimTime::from_nanos(5), 0, 7));
        assert_eq!(q.pop(), Some((SimTime::from_nanos(5), 0, 7)));
        assert_eq!(q.pop(), Some((SimTime::from_nanos(2_000_000), 1, 1)));
        assert!(q.is_empty());
    }

    #[test]
    fn survives_pathological_spacing() {
        // Events many wheel-horizons apart force the rotation fallback and
        // a recalibration; order must still be exact.
        let mut q = CalendarQueue::new();
        let times = [0u64, 1, 1 << 20, 1 << 30, (1 << 30) + 1, 1 << 40];
        for (i, &t) in times.iter().enumerate() {
            q.push((SimTime::from_nanos(t), 1, i));
        }
        let got: Vec<u64> = drain(&mut q).iter().map(|ev| ev.0.as_nanos()).collect();
        let mut want = times.to_vec();
        want.sort_unstable();
        assert_eq!(got, want);
    }

    #[test]
    fn grow_preserves_content() {
        let mut q = CalendarQueue::new();
        let n = INIT_BUCKETS * GROW_AT * 3;
        for i in 0..n {
            q.push((SimTime::from_nanos((i * 37 % 9973) as u64), 1, i));
        }
        assert_eq!(q.len(), n);
        let got = drain(&mut q);
        assert_eq!(got.len(), n);
        assert!(got.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn clear_keeps_queue_usable() {
        let mut q = CalendarQueue::new();
        q.push((SimTime::from_nanos(123), 1, 4));
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
        q.push((SimTime::from_nanos(7), 0, 1));
        assert_eq!(q.pop(), Some((SimTime::from_nanos(7), 0, 1)));
    }
}
