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
//! Every emitting thread appends to the one log under one mutex, held
//! while the event is encoded (a few dozen bytes) and copied onto the
//! log's tail. Emission sites fire per run, per wave or per request —
//! never from the engine's per-access loop — so the lock is rarely
//! contended. With the recorder absent the cost is the usual single
//! relaxed load. Once the log is full and its byte buffer has grown to
//! the window it holds, recording allocates nothing: the oldest record
//! is dropped from the front and the new one written behind the last.
//!
//! ## Memory bound and drop semantics
//!
//! The log holds at most `capacity` events (default
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
//! without their flow records. Each record decodes back to the `Event`
//! it was encoded from and renders through [`render_chrome_line`], so a
//! dump line is the line a follower got for the same event.
//! `normalize: true` rewrites the wall-clock and process-global fields —
//! timestamps become per-dump ordinals, durations zero, and thread /
//! trace / span / run ids are renumbered in first-appearance order — so
//! two seeded runs of the same faulted campaign dump byte-identical
//! files. Triggers ([`trigger_dump`]) copy the log's records and
//! remember the copy for inspection; it is rendered only when read
//! ([`last_dump`]) or when `$FBF_FLIGHT_DIR` asks for a file.
//!
//! ## What an event costs
//!
//! One variable-length record in a packed byte log, plus a 4-byte entry
//! in the record index (each retained record's length, oldest first):
//!
//! - a head byte: the kind (bits 0–1), whether a [`TraceCtx`] follows
//!   (bit 2) and the argument count (bits 3–7; 31 means the count
//!   follows as a varint);
//! - category and name as varint ids into the log's name table (they are
//!   `&'static str` from a bounded set of emission sites; the table only
//!   grows, so an id stays valid in every snapshot);
//! - `ts`, then `dur` for a span, as the 8 bytes of their `f64` bits;
//! - `tid`, then trace, span and parent ids when a ctx is present, as
//!   varints;
//! - per argument, one varint holding the key's id and the value's tag
//!   (`id << 2 | tag`), then the value: a `u64` as a varint, an `i64`
//!   zigzagged to a varint, an `f64` as its 8 bytes, a string as its
//!   varint length and its bytes.
//!
//! A `daemon_small` job's 16 events average ≈ 40 bytes a record, so a
//! full 4096-event window is ≈ 160 KiB of records and ≈ 208 KiB live
//! with the index and the byte buffer's growth slack
//! (`tests/footprint_allocs.rs` bounds it at 320 KiB).

use crate::subscriber::{Event, EventKind, TraceCtx, Value};
use crate::trace::render_chrome_line;
use std::collections::{HashMap, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{Arc, Mutex, MutexGuard, RwLock};

/// Default recorder capacity, in events.
const DEFAULT_CAPACITY: usize = 4096;

/// Head-byte flag: a [`TraceCtx`] follows the tid.
const HAS_CTX: u8 = 1 << 2;
/// Head-byte argument count meaning "the count follows as a varint".
const MANY_ARGS: u8 = 31;
/// Value tags, the low two bits of an argument's key word.
const TAG_U64: u64 = 0;
const TAG_I64: u64 = 1;
const TAG_F64: u64 = 2;
const TAG_STR: u64 = 3;

/// The names a log's records refer to by id: every category, event name
/// and argument key recorded so far, in first-use order. It only grows,
/// and only by what emission sites name, so it stays small.
#[derive(Default)]
struct Names {
    /// Ids by the name's address and length, so a lookup never reads
    /// the text. Names are literals, so this holds one entry per literal
    /// (a text two sites spell out may hold two ids, both decoding to it).
    ids: HashMap<(usize, usize), u64, BuildHasherDefault<AddrHash>>,
    names: Vec<&'static str>,
}

impl Names {
    fn id(&mut self, name: &'static str) -> u64 {
        let key = (name.as_ptr() as usize, name.len());
        let next = self.names.len() as u64;
        let id = *self.ids.entry(key).or_insert(next);
        if id == next {
            self.names.push(name);
        }
        id
    }
}

/// A multiply-rotate hash of the two words of a name's key.
#[derive(Default)]
struct AddrHash(u64);

impl Hasher for AddrHash {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        bytes.iter().for_each(|&b| self.write_usize(usize::from(b)));
    }

    fn write_usize(&mut self, word: usize) {
        self.0 = (self.0.rotate_left(5) ^ word as u64).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_bits().to_le_bytes());
}

/// Append `event`'s record to `out` (see "What an event costs").
fn encode(event: &Event<'_>, names: &mut Names, out: &mut Vec<u8>) {
    let (kind, dur) = match event.kind {
        EventKind::Complete { dur_us } => (0, Some(dur_us)),
        EventKind::Instant => (1, None),
        EventKind::Counter => (2, None),
    };
    let ctx = if event.ctx.is_some() { HAS_CTX } else { 0 };
    let count = event.args.len().min(usize::from(MANY_ARGS)) as u8;
    out.push(kind | ctx | count << 3);
    if count == MANY_ARGS {
        put_varint(out, event.args.len() as u64);
    }
    put_varint(out, names.id(event.cat));
    put_varint(out, names.id(event.name));
    put_f64(out, event.ts_us);
    if let Some(dur) = dur {
        put_f64(out, dur);
    }
    put_varint(out, event.tid);
    if let Some(ctx) = event.ctx {
        put_varint(out, ctx.trace);
        put_varint(out, ctx.span);
        put_varint(out, ctx.parent);
    }
    for &(key, value) in event.args {
        let key = names.id(key) << 2;
        match value {
            Value::U64(v) => {
                put_varint(out, key | TAG_U64);
                put_varint(out, v);
            }
            Value::I64(v) => {
                put_varint(out, key | TAG_I64);
                put_varint(out, ((v << 1) ^ (v >> 63)) as u64);
            }
            Value::F64(v) => {
                put_varint(out, key | TAG_F64);
                put_f64(out, v);
            }
            Value::Str(v) => {
                put_varint(out, key | TAG_STR);
                put_varint(out, v.len() as u64);
                out.extend_from_slice(v.as_bytes());
            }
        }
    }
}

/// Reads records back in the order [`encode`] wrote them.
struct Reader<'a> {
    bytes: &'a [u8],
    names: &'a [&'static str],
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> &'a [u8] {
        let (head, rest) = self.bytes.split_at(n);
        self.bytes = rest;
        head
    }

    fn byte(&mut self) -> u8 {
        self.take(1)[0]
    }

    fn varint(&mut self) -> u64 {
        let mut v = 0;
        for shift in (0..64).step_by(7) {
            let b = self.byte();
            v |= u64::from(b & 0x7f) << shift;
            if b < 0x80 {
                break;
            }
        }
        v
    }

    fn f64(&mut self) -> f64 {
        let bits = self.take(8).try_into().expect("8 bytes");
        f64::from_bits(u64::from_le_bytes(bits))
    }

    fn name(&mut self) -> &'static str {
        self.names[self.varint() as usize]
    }

    /// Decode the next record into the event it was encoded from: its
    /// arguments replace `args`' contents, the returned event has none.
    fn event(&mut self, args: &mut Vec<(&'static str, Value<'a>)>) -> Event<'a> {
        let head = self.byte();
        let count = match head >> 3 {
            MANY_ARGS => self.varint() as usize,
            count => usize::from(count),
        };
        let (cat, name, ts_us) = (self.name(), self.name(), self.f64());
        let kind = match head & 3 {
            0 => EventKind::Complete { dur_us: self.f64() },
            1 => EventKind::Instant,
            _ => EventKind::Counter,
        };
        let tid = self.varint();
        let ctx = (head & HAS_CTX != 0).then(|| TraceCtx {
            trace: self.varint(),
            span: self.varint(),
            parent: self.varint(),
        });
        args.clear();
        for _ in 0..count {
            let word = self.varint();
            let key = self.names[(word >> 2) as usize];
            let value = match word & 3 {
                TAG_U64 => Value::U64(self.varint()),
                TAG_I64 => {
                    let v = self.varint();
                    Value::I64((v >> 1) as i64 ^ -((v & 1) as i64))
                }
                TAG_F64 => Value::F64(self.f64()),
                _ => {
                    let len = self.varint() as usize;
                    Value::Str(std::str::from_utf8(self.take(len)).expect("recorded as a str"))
                }
            };
            args.push((key, value));
        }
        Event {
            cat,
            name,
            kind,
            ts_us,
            tid,
            ctx,
            args: &[],
        }
    }
}

/// What the recorder holds behind its one lock.
#[derive(Default)]
struct Log {
    /// Retained events' records, oldest first, back to back.
    bytes: VecDeque<u8>,
    /// The record index: each retained record's length, oldest first.
    index: VecDeque<u32>,
    /// What the records' name ids index.
    names: Names,
    /// The record being encoded, kept for its buffer.
    scratch: Vec<u8>,
    /// Events pushed out past capacity.
    dropped: u64,
    /// Live consumers of rendered lines.
    followers: Vec<Sender<String>>,
}

/// Retained events copied out of a log: their records back to back and
/// the names the records' ids index.
struct Snapshot {
    records: Vec<u8>,
    names: Vec<&'static str>,
    events: usize,
}

/// The process flight recorder: one bounded log of packed events.
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
        let mut guard = self.log();
        let log = &mut *guard;
        if !log.followers.is_empty() {
            let line = render_chrome_line(event);
            log.followers.retain(|tx| tx.send(line.clone()).is_ok());
        }
        if log.index.len() == self.capacity {
            let oldest = log.index.pop_front().expect("a full log") as usize;
            log.bytes.drain(..oldest);
            log.dropped += 1;
        }
        log.scratch.clear();
        encode(event, &mut log.names, &mut log.scratch);
        let len = log.scratch.len();
        // Grow by a quarter, not the doubling `extend` would pick: the
        // buffer settles near the window's size.
        if log.bytes.capacity() - log.bytes.len() < len {
            log.bytes.reserve_exact(len.max(log.bytes.len() / 4));
        }
        log.bytes.extend(&log.scratch);
        log.index
            .push_back(u32::try_from(len).expect("records under 4 GiB"));
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
        self.log().index.len()
    }

    /// No events retained?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop every retained event and reset `dropped` (capacity and
    /// followers survive).
    pub fn clear(&self) {
        let mut log = self.log();
        log.bytes.clear();
        log.index.clear();
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
    fn snapshot(&self) -> Snapshot {
        let log = self.log();
        let (front, back) = log.bytes.as_slices();
        Snapshot {
            records: [front, back].concat(),
            names: log.names.names.clone(),
            events: log.index.len(),
        }
    }
}

/// Render `snapshot` as a dump: the process-metadata line, then one line
/// per event in order (see [`FlightRecorder::dump_lines`]).
fn render_dump(snapshot: &Snapshot, normalize: bool) -> Vec<String> {
    let mut lines = Vec::with_capacity(snapshot.events + 1);
    lines.push(
        concat!(
            r#"{"name":"process_name","cat":"__metadata","ph":"M","ts":0,"#,
            r#""pid":1,"tid":0,"args":{"name":"fbf-flight"}}"#,
            "\n"
        )
        .to_string(),
    );
    let mut reader = Reader {
        bytes: &snapshot.records,
        names: &snapshot.names,
    };
    let mut norm = Normalizer::default();
    let mut args = Vec::new();
    for ordinal in 0..snapshot.events as u64 {
        let mut event = reader.event(&mut args);
        if normalize {
            norm.apply(&mut event, &mut args, ordinal);
        }
        lines.push(render_chrome_line(&Event {
            args: &args,
            ..event
        }));
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
    tids: HashMap<u64, u64>,
    traces: HashMap<u64, u64>,
    spans: HashMap<u64, u64>,
    runs: HashMap<u64, u64>,
}

impl Normalizer {
    fn map(table: &mut HashMap<u64, u64>, id: u64) -> u64 {
        if id == 0 {
            return 0;
        }
        let next = table.len() as u64 + 1;
        *table.entry(id).or_insert(next)
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
/// A triggered dump: its reason and the events it copied.
type Dump = (String, Snapshot);
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
    let snapshot = rec.snapshot();
    let n = snapshot.events + 1;
    if let Ok(dir) = std::env::var("FBF_FLIGHT_DIR") {
        if !dir.is_empty() {
            let seq = DUMP_SEQ.fetch_add(1, Ordering::Relaxed);
            let path = std::path::Path::new(&dir).join(format!("flight-{reason}-{seq}.jsonl"));
            let _ = std::fs::create_dir_all(&dir);
            let _ = std::fs::write(&path, render_dump(&snapshot, true).concat());
        }
    }
    let last = Arc::new((reason.to_string(), snapshot));
    *LAST_DUMP.lock().unwrap_or_else(|p| p.into_inner()) = Some(last);
    n
}

/// The most recent triggered dump, as `(reason, normalized lines)`.
pub fn last_dump() -> Option<(String, Vec<String>)> {
    let last = LAST_DUMP
        .lock()
        .unwrap_or_else(|p| p.into_inner())
        .clone()?;
    let (reason, snapshot) = &*last;
    Some((reason.clone(), render_dump(snapshot, true)))
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
    fn packed_events_render_like_the_borrowed_ones() {
        let args = [
            ("run", Value::U64(3)),
            ("policy", Value::Str("fbf")),
            ("delta", Value::I64(-2)),
            ("plan", Value::Str("warm \"q\"")),
            ("busy_ms", Value::F64(1.5)),
            ("empty", Value::Str("")),
        ];
        let event = ev("mixed", &args);
        let rec = FlightRecorder::with_capacity(4);
        rec.record(&event);
        rec.record(&event);
        assert_eq!(rec.dump_lines(false)[2], render_chrome_line(&event));
        let log = rec.log();
        // Head, cat, name, ts and tid are 12 bytes; the arguments 2 + 5 +
        // 2 + 10 + 9 + 2.
        assert_eq!(log.index, [42, 42]);
        assert_eq!(log.bytes.len(), 84);
        assert_eq!(log.names.names.len(), 8, "each name is kept once");
        drop(log);
        // Past 30 arguments the count leaves the head byte for a varint.
        let many: Vec<_> = (0..40).map(|i| ("run", Value::U64(i))).collect();
        rec.record(&ev("many", &many));
        assert_eq!(
            rec.dump_lines(false)[3],
            render_chrome_line(&ev("many", &many))
        );
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
    fn ids_are_renumbered_in_first_appearance_order() {
        let rec = FlightRecorder::with_capacity(8);
        for (tid, trace, span, parent, run) in [
            (9, 500, 70, 0, 42),
            (4, 300, 0, 70, 7),
            (9, 500, 71, 70, 42),
        ] {
            rec.record(&Event {
                ctx: Some(TraceCtx {
                    trace,
                    span,
                    parent,
                }),
                tid,
                ..ev("n", &[("run", Value::U64(run))])
            });
        }
        let lines = rec.dump_lines(true);
        let ids = |line: &str| {
            let id = |key| arg(line, key);
            (id("tid"), id("trace_id"), id("parent_id"), id("run"))
        };
        assert_eq!(ids(&lines[1]), (0, 1, 0, 1));
        assert!(lines[1].contains("\"span_id\":1,"), "{}", lines[1]);
        assert_eq!(ids(&lines[2]), (1, 2, 1, 2));
        assert_eq!(ids(&lines[3]), (0, 1, 1, 1));
        assert!(lines[3].contains("\"span_id\":2,"), "{}", lines[3]);
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

    /// Names a drawn event uses: escapes, control characters and
    /// multibyte text included.
    const NAMES: [&str; 7] = [
        "engine",
        "run",
        "busy_ms",
        "q\"uote",
        "back\\slash",
        "ctl\u{1}\n\t",
        "é→𝄞",
    ];
    const U64S: [u64; 6] = [0, 1, 127, 128, 1 << 35, u64::MAX];
    const I64S: [i64; 6] = [i64::MIN, -300, -1, 0, 1, i64::MAX];
    const F64S: [f64; 10] = [
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        -0.0,
        0.0,
        5e-324,
        f64::MIN_POSITIVE / 3.0,
        1.5,
        1_234_567.891,
        -2.5e300,
    ];

    /// One drawn event (its args leaked: events borrow them).
    fn drawn(draws: &mut impl Iterator<Item = u64>) -> Event<'static> {
        let mut pick = |n: usize| (draws.next().unwrap() % n as u64) as usize;
        let kind = match pick(3) {
            0 => EventKind::Complete {
                dur_us: F64S[pick(10)],
            },
            1 => EventKind::Instant,
            _ => EventKind::Counter,
        };
        let ctx = (pick(2) == 1).then(|| TraceCtx {
            trace: U64S[pick(6)],
            span: U64S[pick(6)],
            parent: U64S[pick(6)],
        });
        let args: Vec<_> = (0..pick(13))
            .map(|_| {
                let value = match pick(4) {
                    0 => Value::U64(U64S[pick(6)]),
                    1 => Value::I64(I64S[pick(6)]),
                    2 => Value::F64(F64S[pick(10)]),
                    _ => Value::Str([NAMES[pick(7)], ""][pick(2)]),
                };
                (NAMES[pick(7)], value)
            })
            .collect();
        Event {
            cat: NAMES[pick(7)],
            name: NAMES[pick(7)],
            kind,
            ts_us: F64S[pick(10)],
            // Normalizing maps `tid + 1`: a tid is a thread count.
            tid: U64S[pick(6)] >> (1 + pick(63)),
            ctx,
            args: Vec::leak(args),
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(256))]

        #[test]
        fn dumps_render_the_recorded_events(
            draws in proptest::collection::vec(0u64..u64::MAX, 64..65),
        ) {
            let mut draws = draws.into_iter().cycle();
            let events: Vec<_> = (0..1 + draws.next().unwrap() % 6)
                .map(|_| drawn(&mut draws))
                .collect();
            let rec = FlightRecorder::with_capacity(4);
            for event in &events {
                rec.record(event);
            }
            let kept = &events[events.len().saturating_sub(4)..];
            let raw: Vec<_> = kept.iter().map(render_chrome_line).collect();
            proptest::prop_assert_eq!(&rec.dump_lines(false)[1..], &raw[..]);
            let mut norm = Normalizer::default();
            let normalized: Vec<_> = kept
                .iter()
                .enumerate()
                .map(|(ordinal, event)| {
                    let (mut event, mut args) = (*event, event.args.to_vec());
                    norm.apply(&mut event, &mut args, ordinal as u64);
                    render_chrome_line(&Event { args: &args, ..event })
                })
                .collect();
            proptest::prop_assert_eq!(&rec.dump_lines(true)[1..], &normalized[..]);
        }
    }
}
