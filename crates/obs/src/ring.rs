//! Always-on flight recorder: one bounded, process-wide log of the last
//! N events in record order, dumped on demand or on a fault trigger and
//! followed live by the daemon's `subscribe` streams.
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
//! Every emitting thread appends to the one log under one mutex, held for
//! a `VecDeque` push (the event's owned copy is made before the lock).
//! Emission sites fire per run, per wave or per request — never from the
//! engine's per-access loop — so the lock is rarely contended. With the
//! recorder absent the cost is the usual single relaxed load.
//!
//! ## Memory bound and drop semantics
//!
//! The log holds at most `capacity` owned events (default
//! [`DEFAULT_CAPACITY`], override via [`FlightRecorder::with_capacity`]),
//! whichever threads recorded them. When full, the oldest event is
//! dropped and the `dropped` counter grows — a dump therefore always
//! holds the *most recent* window, and reports how much history it lost.
//!
//! ## Followers
//!
//! [`FlightRecorder::follow`] attaches a live consumer: every later event
//! arrives on its channel as one rendered chrome-trace line, in record
//! order. A follower that has gone away is pruned by the next event's
//! failed send, and nothing is rendered while no one follows.
//!
//! ## Dumps
//!
//! [`FlightRecorder::dump_lines`] renders the retained events in record
//! order as chrome-trace JSONL: the event lines `TraceWriter` files hold,
//! without their flow records.
//! `normalize: true` rewrites the wall-clock and process-global fields —
//! timestamps become per-dump ordinals, durations zero, and thread /
//! trace / span / run ids are renumbered in first-appearance order — so
//! two seeded runs of the same faulted campaign dump byte-identical
//! files. Triggers ([`trigger_dump`]) snapshot the log's owned events and
//! remember the snapshot for inspection; it is rendered only when read
//! ([`last_dump`]) or when `$FBF_FLIGHT_DIR` asks for a file.
//!
//! ## What an event costs
//!
//! Category, name and argument keys are `&'static str` pointers, so a
//! retained event is one fixed-size slot in the log plus one boxed
//! argument slice of 32 bytes per argument — a second buffer only when
//! an argument is a string.

use crate::subscriber::{Event, EventKind, TraceCtx, Value};
use crate::trace::render_chrome_line;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{Arc, Mutex, MutexGuard, RwLock};

/// Default recorder capacity, in events.
pub const DEFAULT_CAPACITY: usize = 4096;

/// An event the recorder owns outright. The emission-site `Event`
/// borrows its args from the caller's stack; category, name and keys are
/// `'static` there already, so owning the event copies only the values:
/// one boxed argument slice, plus one text buffer when an argument is a
/// string.
#[derive(Debug, Clone)]
struct OwnedEvent {
    cat: &'static str,
    name: &'static str,
    kind: EventKind,
    ts_us: f64,
    tid: u64,
    ctx: Option<TraceCtx>,
    args: Box<[(&'static str, OwnedValue)]>,
    /// Every string argument, concatenated (empty, so unallocated, when
    /// there is none).
    text: Box<str>,
}

/// An owned argument value: 16 bytes, so an argument is 32.
#[derive(Debug, Clone, Copy)]
enum OwnedValue {
    U64(u64),
    I64(i64),
    F64(f64),
    /// A string argument: its byte range in the event's `text`.
    Str(u32, u32),
}

impl OwnedEvent {
    fn new(event: &Event<'_>) -> Self {
        let mut text = String::with_capacity(
            event
                .args
                .iter()
                .map(|(_, v)| match v {
                    Value::Str(v) => v.len(),
                    _ => 0,
                })
                .sum(),
        );
        let args = event
            .args
            .iter()
            .map(|&(key, value)| {
                let value = match value {
                    Value::U64(v) => OwnedValue::U64(v),
                    Value::I64(v) => OwnedValue::I64(v),
                    Value::F64(v) => OwnedValue::F64(v),
                    Value::Str(v) => {
                        let at = |len: usize| u32::try_from(len).expect("labels under 4 GiB");
                        let start = at(text.len());
                        text.push_str(v);
                        OwnedValue::Str(start, at(text.len()))
                    }
                };
                (key, value)
            })
            .collect();
        OwnedEvent {
            cat: event.cat,
            name: event.name,
            kind: event.kind,
            ts_us: event.ts_us,
            tid: event.tid,
            ctx: event.ctx,
            args,
            text: text.into_boxed_str(),
        }
    }

    /// The event as a chrome-trace line; `norm` rewrites its
    /// nondeterministic fields first (see [`Normalizer`]).
    fn render(&self, norm: Option<(&mut Normalizer, u64)>) -> String {
        let mut args: Vec<(&'static str, Value<'_>)> = self
            .args
            .iter()
            .map(|&(key, value)| {
                let value = match value {
                    OwnedValue::U64(v) => Value::U64(v),
                    OwnedValue::I64(v) => Value::I64(v),
                    OwnedValue::F64(v) => Value::F64(v),
                    OwnedValue::Str(start, end) => {
                        Value::Str(&self.text[start as usize..end as usize])
                    }
                };
                (key, value)
            })
            .collect();
        let mut event = Event {
            cat: self.cat,
            name: self.name,
            kind: self.kind,
            ts_us: self.ts_us,
            tid: self.tid,
            ctx: self.ctx,
            args: &[],
        };
        if let Some((norm, ordinal)) = norm {
            norm.apply(&mut event, &mut args, ordinal);
        }
        event.args = &args;
        render_chrome_line(&event)
    }
}

/// What the recorder holds behind its one lock.
#[derive(Default)]
struct Log {
    /// Retained events, oldest first, in record order.
    events: VecDeque<OwnedEvent>,
    /// Events pushed out past capacity.
    dropped: u64,
    /// Live consumers of rendered lines.
    followers: Vec<Sender<String>>,
}

/// The process flight recorder: one bounded log of owned events.
pub struct FlightRecorder {
    capacity: usize,
    log: Mutex<Log>,
}

impl FlightRecorder {
    /// A recorder with the default capacity.
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_CAPACITY)
    }

    /// A recorder holding at most `capacity` events (at least one).
    pub fn with_capacity(capacity: usize) -> Self {
        FlightRecorder {
            capacity: capacity.max(1),
            log: Mutex::default(),
        }
    }

    /// Capacity, in events.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    fn log(&self) -> MutexGuard<'_, Log> {
        self.log.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Record one event, dropping the oldest past capacity, and send its
    /// rendered line to every follower.
    pub fn record(&self, event: &Event<'_>) {
        let owned = OwnedEvent::new(event);
        let mut log = self.log();
        if !log.followers.is_empty() {
            let line = render_chrome_line(event);
            log.followers.retain(|tx| tx.send(line.clone()).is_ok());
        }
        if log.events.len() == self.capacity {
            log.events.pop_front();
            log.dropped += 1;
        }
        log.events.push_back(owned);
    }

    /// Follow the recorder: every later event arrives on the receiver as
    /// one rendered chrome-trace line (trailing newline included).
    pub fn follow(&self) -> Receiver<String> {
        let (tx, rx) = std::sync::mpsc::channel();
        self.log().followers.push(tx);
        rx
    }

    /// Events dropped past capacity since installation (or [`clear`]).
    ///
    /// [`clear`]: FlightRecorder::clear
    pub fn dropped(&self) -> u64 {
        self.log().dropped
    }

    /// Events currently retained.
    pub fn len(&self) -> usize {
        self.log().events.len()
    }

    /// No events retained?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop every retained event and reset `dropped` (capacity and
    /// followers survive).
    pub fn clear(&self) {
        let mut log = self.log();
        log.events.clear();
        log.dropped = 0;
    }

    /// Render the retained events as chrome-trace JSONL lines (newline
    /// terminated) in record order, preceded by the standard
    /// process-metadata line.
    ///
    /// `normalize` rewrites every nondeterministic field for byte-exact
    /// reproducibility: `ts` becomes the event's dump ordinal, `dur` 0,
    /// and tids plus trace/span/parent/`run` ids are renumbered in
    /// first-appearance order.
    pub fn dump_lines(&self, normalize: bool) -> Vec<String> {
        render_dump(&self.snapshot(), normalize)
    }

    /// The retained events, oldest first.
    fn snapshot(&self) -> Vec<OwnedEvent> {
        self.log().events.iter().cloned().collect()
    }
}

/// Render `events` as a dump: the process-metadata line, then one line
/// per event in order (see [`FlightRecorder::dump_lines`]).
fn render_dump(events: &[OwnedEvent], normalize: bool) -> Vec<String> {
    let mut lines = Vec::with_capacity(events.len() + 1);
    lines.push(
        concat!(
            r#"{"name":"process_name","cat":"__metadata","ph":"M","ts":0,"#,
            r#""pid":1,"tid":0,"args":{"name":"fbf-flight"}}"#,
            "\n"
        )
        .to_string(),
    );
    let mut norm = Normalizer::default();
    for (ordinal, event) in events.iter().enumerate() {
        lines.push(event.render(normalize.then_some((&mut norm, ordinal as u64))));
    }
    lines
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

    fn apply(&mut self, ev: &mut Event<'_>, args: &mut [(&'static str, Value<'_>)], ordinal: u64) {
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
        for (key, value) in args.iter_mut() {
            if *key == "run" {
                if let Value::U64(v) = value {
                    *v = Self::map(&mut self.runs, *v);
                }
            }
            // Wall-clock measurement args (`*_ms` floats, e.g. the plan
            // span's `generation_ms`) vary run to run like `dur` does;
            // zero them so normalized dumps stay byte-diffable.
            if key.ends_with("_ms") {
                if let Value::F64(v) = value {
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
/// A triggered dump: its reason and the events it snapshot.
type Dump = (String, Vec<OwnedEvent>);
/// The most recent triggered dump, rendered only when [`last_dump`] asks.
static LAST_DUMP: Mutex<Option<Arc<Dump>>> = Mutex::new(None);
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

/// Snapshot the log because something went wrong (`reason` is a short
/// slug: `data-loss`, `client-dump`). The snapshot is
/// remembered for [`last_dump`] and, when `$FBF_FLIGHT_DIR` names a
/// directory, its normalized dump is written to
/// `flight-<reason>-<seq>.jsonl` inside it; otherwise nothing is rendered
/// on the caller's thread. Returns the dump's line count (0 when no
/// recorder is installed).
pub fn trigger_dump(reason: &str) -> usize {
    let Some(rec) = recorder() else {
        return 0;
    };
    let events = rec.snapshot();
    let n = events.len() + 1;
    if let Ok(dir) = std::env::var("FBF_FLIGHT_DIR") {
        if !dir.is_empty() {
            let seq = DUMP_SEQ.fetch_add(1, Ordering::Relaxed);
            let path = std::path::Path::new(&dir).join(format!("flight-{reason}-{seq}.jsonl"));
            let _ = std::fs::create_dir_all(&dir);
            let _ = std::fs::write(&path, render_dump(&events, true).concat());
        }
    }
    let last = Arc::new((reason.to_string(), events));
    *LAST_DUMP.lock().unwrap_or_else(|p| p.into_inner()) = Some(last);
    n
}

/// The most recent triggered dump, as `(reason, normalized lines)`.
pub fn last_dump() -> Option<(String, Vec<String>)> {
    let last = LAST_DUMP
        .lock()
        .unwrap_or_else(|p| p.into_inner())
        .clone()?;
    let (reason, events) = &*last;
    Some((reason.clone(), render_dump(events, true)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev<'a>(name: &'static str, args: &'a [(&'static str, Value<'a>)]) -> Event<'a> {
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

    /// The `"key":<u64>` arg of a rendered line.
    fn arg(line: &str, key: &str) -> u64 {
        let at = line.find(&format!("\"{key}\":")).expect(key) + key.len() + 3;
        let digits: String = line[at..]
            .chars()
            .take_while(char::is_ascii_digit)
            .collect();
        digits.parse().unwrap()
    }

    #[test]
    fn ring_keeps_the_most_recent_window() {
        let rec = FlightRecorder::with_capacity(3);
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
    fn threads_share_one_bounded_log_in_record_order() {
        const CAP: usize = 16;
        const THREADS: u64 = 4;
        let rec = FlightRecorder::with_capacity(CAP);
        // Recording under `turn` makes the global sequence number the
        // record order, so the dump's order can be checked exactly.
        let turn = Mutex::new(0u64);
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let (rec, turn) = (&rec, &turn);
                s.spawn(move || {
                    for _ in 0..2 * CAP {
                        let mut seq = turn.lock().unwrap();
                        rec.record(&ev("n", &[("t", Value::U64(t)), ("seq", Value::U64(*seq))]));
                        *seq += 1;
                    }
                });
            }
        });
        let total = THREADS * 2 * CAP as u64;
        assert_eq!(rec.len(), CAP, "one capacity bounds every thread together");
        assert_eq!(rec.dropped(), total - CAP as u64);
        let lines = rec.dump_lines(true);
        assert_eq!(lines.len(), CAP + 1);
        for (ordinal, line) in lines[1..].iter().enumerate() {
            assert_eq!(
                arg(line, "seq"),
                total - CAP as u64 + ordinal as u64,
                "{line}"
            );
            assert!(line.contains(&format!("\"ts\":{ordinal}.000,")), "{line}");
        }
    }

    #[test]
    fn owned_events_render_like_the_borrowed_ones() {
        assert_eq!(std::mem::size_of::<OwnedValue>(), 16);
        let args = [
            ("run", Value::U64(3)),
            ("policy", Value::Str("fbf")),
            ("delta", Value::I64(-2)),
            ("plan", Value::Str("warm \"q\"")),
            ("busy_ms", Value::F64(1.5)),
            ("empty", Value::Str("")),
        ];
        let event = ev("mixed", &args);
        let owned = OwnedEvent::new(&event);
        assert_eq!(&*owned.text, "fbfwarm \"q\"");
        assert_eq!(owned.render(None), render_chrome_line(&event));
        let plain = OwnedEvent::new(&ev("plain", &args[..1]));
        assert!(plain.text.is_empty());
    }

    #[test]
    fn followers_get_each_event_rendered_once() {
        let rec = FlightRecorder::with_capacity(4);
        let a = rec.follow();
        let b = rec.follow();
        rec.record(&ev("job", &[("i", Value::U64(1))]));
        let la = a.try_recv().unwrap();
        assert_eq!(la, b.try_recv().unwrap());
        assert_eq!(la, rec.dump_lines(false)[1], "the line a dump holds");
        assert!(la.ends_with('\n'));
        assert!(a.try_recv().is_err(), "one line per event");
    }

    #[test]
    fn gone_followers_are_pruned() {
        let rec = FlightRecorder::with_capacity(4);
        let keep = rec.follow();
        drop(rec.follow());
        rec.record(&ev("job", &[]));
        assert_eq!(rec.log().followers.len(), 1);
        assert!(keep.try_recv().is_ok());
        drop(keep);
        rec.record(&ev("job", &[]));
        assert!(rec.log().followers.is_empty());
        assert_eq!(rec.len(), 2, "recording goes on without followers");
    }

    #[test]
    fn normalized_dumps_are_reproducible_across_id_shifts() {
        let dump = |tid_base: u64, run_base: u64, trace_base: u64| {
            let rec = FlightRecorder::with_capacity(16);
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
            let rec = FlightRecorder::with_capacity(16);
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
        let at_trigger = rec.dump_lines(true);
        rec.record(&ev("after", &[]));
        let (reason, lines) = last_dump().expect("dump recorded");
        assert_eq!(reason, "test-reason");
        assert_eq!(lines, at_trigger, "the dump renders what the trigger saw");
        uninstall();
        assert!(recorder().is_none());
        if let Some(prev) = prev {
            install(prev);
        }
    }
}
