//! Always-on flight recorder: per-thread ring buffers of the last N
//! events, dumped on demand or on a fault trigger.
//!
//! The recorder sits *beside* the subscriber slot, not in it: `emit`
//! delivers every event to the recorder first, then to whatever
//! subscriber is installed. Installing the recorder alone is enough to
//! light up the emission sites (`fbf_obs::enabled()` goes true), so a
//! faulted campaign leaves a post-mortem trail even when no tracing was
//! requested — the point of a flight recorder.
//!
//! ## Cost model
//!
//! Each thread records into its own ring; the per-event lock is owned by
//! the recording thread and only ever contended by a dump (rare), so the
//! emission path never blocks on another emitter. With the recorder
//! absent the cost is the usual single relaxed load.
//!
//! ## Memory bound and drop semantics
//!
//! Every ring holds at most `capacity` owned events (default
//! [`DEFAULT_CAPACITY`], override via [`FlightRecorder::with_capacity`]
//! or `FBF_RING_CAP`). When full, the oldest event is dropped and the
//! ring's `dropped` counter grows — a dump therefore always holds the
//! *most recent* window, and reports how much history it lost.
//!
//! A thread's ring lives as long as the thread. At thread exit its
//! events fold into the recorder's one *retired* ring, bounded by the
//! same capacity, so short-lived helper threads leave their newest
//! history behind but no ring: a recorder holds one ring per live
//! emitting thread, plus the retired one.
//!
//! ## Dumps
//!
//! [`FlightRecorder::dump_lines`] renders the retained events as
//! chrome-trace JSONL (the exact lines `TraceWriter` files hold, flow
//! records included), the retired ring first and then the live rings in
//! registration order.
//! `normalize: true` rewrites the wall-clock and process-global fields —
//! timestamps become per-dump ordinals, durations zero, and thread /
//! trace / span / run ids are renumbered in first-appearance order — so
//! two seeded runs of the same faulted campaign dump byte-identical
//! files. Triggers ([`trigger_dump`]) snapshot the rings, remember the
//! last dump for inspection, and append to `$FBF_FLIGHT_DIR` when set.

use crate::subscriber::{Event, EventKind, TraceCtx, Value};
use crate::trace::render_chrome_line;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock, Weak};

/// Default per-thread ring capacity, in events.
pub const DEFAULT_CAPACITY: usize = 4096;

/// An event the ring owns outright (the emission-site `Event` borrows
/// its strings and args from the caller's stack).
#[derive(Debug, Clone)]
struct OwnedEvent {
    cat: String,
    name: String,
    kind: EventKind,
    ts_us: f64,
    tid: u64,
    ctx: Option<TraceCtx>,
    args: Vec<(String, OwnedValue)>,
}

#[derive(Debug, Clone)]
enum OwnedValue {
    U64(u64),
    I64(i64),
    F64(f64),
    Str(String),
}

impl OwnedValue {
    fn borrow(&self) -> Value<'_> {
        match self {
            OwnedValue::U64(v) => Value::U64(*v),
            OwnedValue::I64(v) => Value::I64(*v),
            OwnedValue::F64(v) => Value::F64(*v),
            OwnedValue::Str(v) => Value::Str(v),
        }
    }
}

/// One thread's ring. Only its owner thread pushes; dumps briefly lock
/// it to clone the contents.
#[derive(Debug, Default)]
struct ThreadRing {
    events: Mutex<VecDeque<OwnedEvent>>,
    dropped: AtomicU64,
}

impl ThreadRing {
    /// Append `event`, dropping the oldest one past `capacity`.
    fn push(&self, events: &mut VecDeque<OwnedEvent>, event: OwnedEvent, capacity: usize) {
        if events.len() == capacity {
            events.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        events.push_back(event);
    }
}

/// A thread's ring in one recorder. Dropped when the thread exits (or
/// starts recording into another recorder), it retires the ring.
struct Registration {
    /// Also names the recorder: while this lives, the recorder's
    /// allocation — and so its address — cannot be reused by another.
    recorder: Weak<FlightRecorder>,
    ring: Arc<ThreadRing>,
}

impl Drop for Registration {
    fn drop(&mut self) {
        if let Some(recorder) = self.recorder.upgrade() {
            recorder.retire(&self.ring);
        }
    }
}

/// The process flight recorder: a registry of per-thread rings.
pub struct FlightRecorder {
    capacity: usize,
    /// The retired ring first, then one ring per live emitting thread in
    /// registration order.
    rings: Mutex<Vec<Arc<ThreadRing>>>,
}

impl FlightRecorder {
    /// A recorder with the default per-thread capacity (or `FBF_RING_CAP`
    /// when set to a positive integer).
    pub fn new() -> Self {
        let capacity = std::env::var("FBF_RING_CAP")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or(DEFAULT_CAPACITY);
        Self::with_capacity(capacity)
    }

    /// A recorder holding at most `capacity` events per thread.
    pub fn with_capacity(capacity: usize) -> Self {
        FlightRecorder {
            capacity: capacity.max(1),
            rings: Mutex::new(vec![Arc::default()]),
        }
    }

    /// Per-thread ring capacity, in events.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Rings held: one per live thread that has recorded, plus the
    /// retired ring.
    pub fn rings(&self) -> usize {
        self.rings.lock().unwrap_or_else(|p| p.into_inner()).len()
    }

    /// The calling thread's ring, registered on first use.
    fn ring_for_this_thread(self: &Arc<Self>) -> Arc<ThreadRing> {
        thread_local! {
            // Re-resolved if the recorder changed.
            static RING: std::cell::RefCell<Option<Registration>> =
                const { std::cell::RefCell::new(None) };
        }
        RING.with(|slot| {
            let mut slot = slot.borrow_mut();
            if let Some(reg) = slot.as_ref() {
                if std::ptr::eq(reg.recorder.as_ptr(), Arc::as_ptr(self)) {
                    return Arc::clone(&reg.ring);
                }
            }
            let ring = Arc::new(ThreadRing::default());
            self.rings
                .lock()
                .unwrap_or_else(|p| p.into_inner())
                .push(Arc::clone(&ring));
            // Replacing a registration with another recorder retires the
            // old ring there.
            *slot = Some(Registration {
                recorder: Arc::downgrade(self),
                ring: Arc::clone(&ring),
            });
            ring
        })
    }

    /// Fold an exiting thread's ring into the retired ring (oldest events
    /// dropped past capacity) and forget it.
    fn retire(&self, ring: &Arc<ThreadRing>) {
        let mut rings = self.rings.lock().unwrap_or_else(|p| p.into_inner());
        let Some(at) = rings.iter().position(|r| Arc::ptr_eq(r, ring)) else {
            return;
        };
        rings.remove(at);
        let retired = &rings[0];
        let mut into = retired.events.lock().unwrap_or_else(|p| p.into_inner());
        let mut from = ring.events.lock().unwrap_or_else(|p| p.into_inner());
        for event in from.drain(..) {
            retired.push(&mut into, event, self.capacity);
        }
        retired
            .dropped
            .fetch_add(ring.dropped.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    /// Record one event into the calling thread's ring.
    pub fn record(self: &Arc<Self>, event: &Event<'_>) {
        let owned = OwnedEvent {
            cat: event.cat.to_string(),
            name: event.name.to_string(),
            kind: event.kind,
            ts_us: event.ts_us,
            tid: event.tid,
            ctx: event.ctx,
            args: event
                .args
                .iter()
                .map(|(k, v)| {
                    let v = match v {
                        Value::U64(v) => OwnedValue::U64(*v),
                        Value::I64(v) => OwnedValue::I64(*v),
                        Value::F64(v) => OwnedValue::F64(*v),
                        Value::Str(v) => OwnedValue::Str((*v).to_string()),
                    };
                    ((*k).to_string(), v)
                })
                .collect(),
        };
        let ring = self.ring_for_this_thread();
        let mut events = ring.events.lock().unwrap_or_else(|p| p.into_inner());
        ring.push(&mut events, owned, self.capacity);
    }

    /// Events dropped across every ring since installation.
    pub fn dropped(&self) -> u64 {
        self.rings
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .iter()
            .map(|r| r.dropped.load(Ordering::Relaxed))
            .sum()
    }

    /// Events currently retained across every ring.
    pub fn len(&self) -> usize {
        self.rings
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .iter()
            .map(|r| r.events.lock().unwrap_or_else(|p| p.into_inner()).len())
            .sum()
    }

    /// No events retained?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop every retained event (capacity and registration survive).
    pub fn clear(&self) {
        for ring in self.rings.lock().unwrap_or_else(|p| p.into_inner()).iter() {
            ring.events
                .lock()
                .unwrap_or_else(|p| p.into_inner())
                .clear();
            ring.dropped.store(0, Ordering::Relaxed);
        }
    }

    /// Render the retained events as chrome-trace JSONL lines (newline
    /// terminated), the retired ring first and then the live rings in
    /// registration order, preceded by the standard process-metadata line.
    ///
    /// `normalize` rewrites every nondeterministic field for byte-exact
    /// reproducibility: `ts` becomes the event's dump ordinal, `dur` 0,
    /// and tids plus trace/span/parent/`run` ids are renumbered in
    /// first-appearance order.
    pub fn dump_lines(&self, normalize: bool) -> Vec<String> {
        let snapshots: Vec<Vec<OwnedEvent>> = self
            .rings
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .iter()
            .map(|r| {
                r.events
                    .lock()
                    .unwrap_or_else(|p| p.into_inner())
                    .iter()
                    .cloned()
                    .collect()
            })
            .collect();
        let mut lines = Vec::new();
        lines.push(
            concat!(
                r#"{"name":"process_name","cat":"__metadata","ph":"M","ts":0,"#,
                r#""pid":1,"tid":0,"args":{"name":"fbf-flight"}}"#,
                "\n"
            )
            .to_string(),
        );
        let mut norm = Normalizer::default();
        let mut ordinal = 0u64;
        for ring in snapshots {
            for mut ev in ring {
                if normalize {
                    norm.apply(&mut ev, ordinal);
                }
                ordinal += 1;
                let args: Vec<(&str, Value<'_>)> = ev
                    .args
                    .iter()
                    .map(|(k, v)| (k.as_str(), v.borrow()))
                    .collect();
                lines.push(render_chrome_line(&Event {
                    cat: &ev.cat,
                    name: &ev.name,
                    kind: ev.kind,
                    ts_us: ev.ts_us,
                    tid: ev.tid,
                    ctx: ev.ctx,
                    args: &args,
                }));
            }
        }
        lines
    }
}

impl Default for FlightRecorder {
    fn default() -> Self {
        Self::new()
    }
}

/// First-appearance renumbering of the process-global id spaces, so two
/// seeded runs (whose absolute ids differ by whatever ran before them)
/// normalize to the same bytes.
#[derive(Default)]
struct Normalizer {
    tids: Vec<u64>,
    traces: Vec<u64>,
    spans: Vec<u64>,
    runs: Vec<u64>,
}

impl Normalizer {
    fn map(table: &mut Vec<u64>, id: u64) -> u64 {
        if id == 0 {
            return 0;
        }
        match table.iter().position(|&x| x == id) {
            Some(i) => i as u64 + 1,
            None => {
                table.push(id);
                table.len() as u64
            }
        }
    }

    fn apply(&mut self, ev: &mut OwnedEvent, ordinal: u64) {
        ev.ts_us = ordinal as f64;
        if let EventKind::Complete { dur_us } = &mut ev.kind {
            *dur_us = 0.0;
        }
        ev.tid = Self::map(&mut self.tids, ev.tid + 1) - 1;
        if let Some(ctx) = ev.ctx.as_mut() {
            ctx.trace = Self::map(&mut self.traces, ctx.trace);
            ctx.span = Self::map(&mut self.spans, ctx.span);
            ctx.parent = Self::map(&mut self.spans, ctx.parent);
        }
        for (key, value) in ev.args.iter_mut() {
            if key == "run" {
                if let OwnedValue::U64(v) = value {
                    *v = Self::map(&mut self.runs, *v);
                }
            }
            // Wall-clock measurement args (`*_ms` floats, e.g. the plan
            // span's `generation_ms`) vary run to run like `dur` does;
            // zero them so normalized dumps stay byte-diffable.
            if key.ends_with("_ms") {
                if let OwnedValue::F64(v) = value {
                    *v = 0.0;
                }
            }
        }
    }
}

/// The installed recorder (swapped under the lock like the subscriber).
static RECORDER: RwLock<Option<Arc<FlightRecorder>>> = RwLock::new(None);
/// Fast-path mirror of `RECORDER.is_some()`: the per-event tap loads
/// this relaxed flag instead of taking the lock, so a subscriber-only
/// process pays one load — not a lock round-trip — per event.
static RECORDER_ON: AtomicBool = AtomicBool::new(false);
/// Rendered lines of the most recent triggered dump, for inspection.
static LAST_DUMP: Mutex<Option<(String, Vec<String>)>> = Mutex::new(None);
/// Per-process dump counter (distinct trigger file names).
static DUMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// The installed flight recorder, if any.
pub fn recorder() -> Option<Arc<FlightRecorder>> {
    RECORDER.read().unwrap_or_else(|p| p.into_inner()).clone()
}

/// Install `rec` as the process flight recorder (replacing any previous
/// one) and light up the emission sites.
pub fn install(rec: Arc<FlightRecorder>) {
    RECORDER
        .write()
        .unwrap_or_else(|p| p.into_inner())
        .replace(rec);
    RECORDER_ON.store(true, Ordering::SeqCst);
    crate::refresh_enabled();
}

/// Install a default-capacity recorder unless one is already installed;
/// returns the active recorder either way.
pub fn install_default() -> Arc<FlightRecorder> {
    if let Some(rec) = recorder() {
        return rec;
    }
    let rec = Arc::new(FlightRecorder::new());
    install(Arc::clone(&rec));
    rec
}

/// Remove and return the flight recorder. Emission sites go quiet again
/// unless a subscriber is still installed.
pub fn uninstall() -> Option<Arc<FlightRecorder>> {
    let prev = RECORDER.write().unwrap_or_else(|p| p.into_inner()).take();
    RECORDER_ON.store(false, Ordering::SeqCst);
    crate::refresh_enabled();
    prev
}

/// Record `event` into the installed recorder, if any. Called by the
/// emission path for every event.
pub(crate) fn record(event: &Event<'_>) {
    if !RECORDER_ON.load(Ordering::Relaxed) {
        return;
    }
    if let Some(rec) = recorder() {
        rec.record(event);
    }
}

/// Snapshot the rings because something went wrong (`reason` is a short
/// slug: `data-loss`, `slo-breach`, `client-dump`). The normalized dump
/// is remembered for [`last_dump`] and, when `$FBF_FLIGHT_DIR` names a
/// directory, written to `flight-<reason>-<seq>.jsonl` inside it.
/// Returns the dump's line count (0 when no recorder is installed).
pub fn trigger_dump(reason: &str) -> usize {
    let Some(rec) = recorder() else {
        return 0;
    };
    let lines = rec.dump_lines(true);
    let n = lines.len();
    if let Ok(dir) = std::env::var("FBF_FLIGHT_DIR") {
        if !dir.is_empty() {
            let seq = DUMP_SEQ.fetch_add(1, Ordering::Relaxed);
            let path = std::path::Path::new(&dir).join(format!("flight-{reason}-{seq}.jsonl"));
            let _ = std::fs::create_dir_all(&dir);
            let _ = std::fs::write(&path, lines.concat());
        }
    }
    *LAST_DUMP.lock().unwrap_or_else(|p| p.into_inner()) = Some((reason.to_string(), lines));
    n
}

/// The most recent triggered dump, as `(reason, rendered lines)`.
pub fn last_dump() -> Option<(String, Vec<String>)> {
    LAST_DUMP.lock().unwrap_or_else(|p| p.into_inner()).clone()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev<'a>(name: &'a str, args: &'a [(&'a str, Value<'a>)]) -> Event<'a> {
        Event {
            cat: "t",
            name,
            kind: EventKind::Counter,
            ts_us: 12.5,
            tid: 7,
            ctx: None,
            args,
        }
    }

    #[test]
    fn ring_keeps_the_most_recent_window() {
        let rec = Arc::new(FlightRecorder::with_capacity(3));
        for i in 0..5u64 {
            rec.record(&ev("n", &[("i", Value::U64(i))]));
        }
        assert_eq!(rec.len(), 3);
        assert_eq!(rec.dropped(), 2);
        let lines = rec.dump_lines(false);
        // metadata + the last three events (2, 3, 4).
        assert_eq!(lines.len(), 4);
        assert!(lines[1].contains("\"i\":2"), "{}", lines[1]);
        assert!(lines[3].contains("\"i\":4"), "{}", lines[3]);
    }

    #[test]
    fn exited_threads_leave_their_newest_events_but_no_ring() {
        let rec = Arc::new(FlightRecorder::with_capacity(8));
        // Three threads alive at once: three rings plus the retired one.
        let barrier = std::sync::Barrier::new(4);
        std::thread::scope(|s| {
            let live: Vec<_> = (0..3)
                .map(|_| {
                    s.spawn(|| {
                        rec.record(&ev("live", &[]));
                        barrier.wait();
                        barrier.wait();
                    })
                })
                .collect();
            barrier.wait();
            assert_eq!(rec.rings(), 4);
            barrier.wait();
            for thread in live {
                thread.join().unwrap();
            }
        });
        assert_eq!(rec.rings(), 1);
        // Many short-lived threads, one after another.
        for t in 0..50u64 {
            let thread_rec = Arc::clone(&rec);
            std::thread::spawn(move || {
                for i in 0..10 {
                    thread_rec.record(&ev("n", &[("i", Value::U64(t * 10 + i))]));
                }
            })
            .join()
            .unwrap();
            assert_eq!(rec.rings(), 1, "thread {t} left its ring behind");
        }
        assert_eq!(rec.len(), 8);
        assert_eq!(rec.dropped(), 3 + 500 - 8);
        let lines = rec.dump_lines(false);
        for (line, i) in lines[1..].iter().zip(492..) {
            assert!(line.contains(&format!("\"i\":{i}")), "{line}");
        }
    }

    #[test]
    fn normalized_dumps_are_reproducible_across_id_shifts() {
        let dump = |tid_base: u64, run_base: u64, trace_base: u64| {
            let rec = Arc::new(FlightRecorder::with_capacity(16));
            for i in 0..3u64 {
                rec.record(&Event {
                    cat: "engine",
                    name: "cache",
                    kind: EventKind::Complete {
                        dur_us: 5.0 + i as f64,
                    },
                    ts_us: 100.0 * i as f64,
                    tid: tid_base,
                    ctx: Some(TraceCtx {
                        trace: trace_base + i,
                        span: trace_base + 10 + i,
                        parent: if i == 0 { 0 } else { trace_base + 9 + i },
                    }),
                    args: &[("run", Value::U64(run_base + i)), ("hits", Value::U64(40))],
                });
            }
            rec.dump_lines(true).concat()
        };
        // Different absolute ids (as if other work ran first), same shape.
        assert_eq!(dump(3, 100, 50), dump(9, 777, 4000));
        // Content differences still show.
        assert_ne!(dump(3, 100, 50), {
            let rec = Arc::new(FlightRecorder::with_capacity(16));
            rec.record(&ev("other", &[]));
            rec.dump_lines(true).concat()
        });
    }

    #[test]
    fn trigger_records_a_last_dump() {
        // Serialise against other tests touching the global recorder.
        let prev = uninstall();
        let rec = Arc::new(FlightRecorder::with_capacity(8));
        install(Arc::clone(&rec));
        assert!(crate::enabled(), "recorder alone lights the gate");
        rec.record(&ev("boom", &[]));
        let n = trigger_dump("test-reason");
        assert_eq!(n, 2, "metadata + one event");
        let (reason, lines) = last_dump().expect("dump recorded");
        assert_eq!(reason, "test-reason");
        assert_eq!(lines.len(), 2);
        uninstall();
        assert!(recorder().is_none());
        if let Some(prev) = prev {
            install(prev);
        }
    }
}
