//! The [`Subscriber`] trait and the stock implementations: no-op, stderr
//! pretty-printer, counting (for tests/reconciliation), and fan-out.

use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// A typed event argument value.
///
/// Borrowed — events are built on the stack at the emission site and
/// handed to the subscriber by reference; nothing allocates unless the
/// subscriber itself chooses to (e.g. [`CountingSubscriber`] keys).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value<'a> {
    /// Unsigned counter-ish value.
    U64(u64),
    /// Signed value.
    I64(i64),
    /// Floating-point value (durations, ratios).
    F64(f64),
    /// Short label (policy name, plan source, …).
    Str(&'a str),
}

impl Value<'_> {
    /// The value as `u64` if it is numerically representable as one.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Value::U64(v) => Some(v),
            Value::I64(v) => u64::try_from(v).ok(),
            Value::F64(v) if v >= 0.0 && v.fract() == 0.0 && v <= u64::MAX as f64 => Some(v as u64),
            _ => None,
        }
    }
}

/// Causal context stamped on events emitted inside an active trace.
///
/// A trace is minted per unit of externally-attributable work — one
/// daemon `repair` request, one sweep point — via
/// [`with_trace`](crate::with_trace). Within it, every span allocates a
/// process-unique `span` id and records the enclosing span as `parent`
/// (0 = root of the trace); instants and counters carry `span: 0` and
/// the enclosing span as `parent`. [`render_chrome_line`] serialises the
/// ids as `trace_id`/`span_id`/`parent_id` args, and `check_trace.py
/// --flows` reassembles them into one rooted tree per trace.
///
/// Kept out of [`Event::args`] on purpose: [`CountingSubscriber`] sums
/// every `U64` arg, and ids summing into reconciliation ledgers would
/// break the exact counter↔metrics contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceCtx {
    /// Trace id (never 0 in an emitted ctx).
    pub trace: u64,
    /// This span's own id (0 for instants and counters).
    pub span: u64,
    /// The enclosing span's id (0 = root of the trace).
    pub parent: u64,
}

/// What kind of chrome-trace record an event maps to.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EventKind {
    /// A completed span (`ph: "X"`): `ts_us` is the start, `dur_us` the
    /// wall-clock length.
    Complete {
        /// Span duration in microseconds.
        dur_us: f64,
    },
    /// A point-in-time marker (`ph: "i"`).
    Instant,
    /// A counter sample (`ph: "C"`): each arg is one series value.
    Counter,
}

/// One observability event, borrowed from the emission site.
///
/// Category, name and argument keys are `'static`: every emission site
/// names its event with literals, so a sink that keeps the event (the
/// flight recorder) keeps them as pointers, never as copies.
#[derive(Debug, Clone, Copy)]
pub struct Event<'a> {
    /// Category (`engine`, `plan`, `sweep`, …) — groups related events.
    pub cat: &'static str,
    /// Event name within the category.
    pub name: &'static str,
    /// Span / instant / counter.
    pub kind: EventKind,
    /// Microseconds since the process obs epoch (span start for spans).
    pub ts_us: f64,
    /// Small stable id of the emitting thread.
    pub tid: u64,
    /// Causal ids when the event fired inside an active trace.
    pub ctx: Option<TraceCtx>,
    /// Typed key→value payload.
    pub args: &'a [(&'static str, Value<'a>)],
}

/// Receives every event emitted while installed. Implementations must be
/// cheap and non-blocking-ish: they run inline at the emission site,
/// possibly from many sweep workers at once.
pub trait Subscriber: Send + Sync {
    /// Handle one event.
    fn event(&self, event: &Event<'_>);
    /// Flush any buffered output; called on uninstall/replace.
    fn flush(&self) {}
}

/// Discards everything. Useful to measure dispatch overhead in isolation.
#[derive(Debug, Default)]
pub struct NoopSubscriber;

impl Subscriber for NoopSubscriber {
    fn event(&self, _event: &Event<'_>) {}
}

/// Pretty-prints each event to stderr, one line per event — the `--obs`
/// CLI flag. Lines are built in full and written under a lock so
/// concurrent sweep workers never interleave mid-line.
#[derive(Debug, Default)]
pub struct StderrSubscriber {
    gate: Mutex<()>,
}

impl Subscriber for StderrSubscriber {
    fn event(&self, event: &Event<'_>) {
        let mut line = String::with_capacity(96);
        let ts_ms = event.ts_us / 1_000.0;
        match event.kind {
            EventKind::Complete { dur_us } => {
                line.push_str(&format!(
                    "[obs {ts_ms:>10.3}ms t{}] {}/{} took {:.3}ms",
                    event.tid,
                    event.cat,
                    event.name,
                    dur_us / 1_000.0
                ));
            }
            EventKind::Instant => {
                line.push_str(&format!(
                    "[obs {ts_ms:>10.3}ms t{}] {}/{}",
                    event.tid, event.cat, event.name
                ));
            }
            EventKind::Counter => {
                line.push_str(&format!(
                    "[obs {ts_ms:>10.3}ms t{}] {}/{} =",
                    event.tid, event.cat, event.name
                ));
            }
        }
        for (key, value) in event.args {
            match value {
                Value::U64(v) => line.push_str(&format!(" {key}={v}")),
                Value::I64(v) => line.push_str(&format!(" {key}={v}")),
                Value::F64(v) => line.push_str(&format!(" {key}={v:.3}")),
                Value::Str(v) => line.push_str(&format!(" {key}={v}")),
            }
        }
        line.push('\n');
        let _g = self.gate.lock().unwrap_or_else(|p| p.into_inner());
        let _ = std::io::stderr().write_all(line.as_bytes());
    }
}

/// Counts events and sums every `U64` argument under the key
/// `"{cat}/{name}/{arg}"`. The reconciliation workhorse: tests compare
/// these sums against `Metrics`/`CacheStats` totals without parsing JSON.
#[derive(Debug, Default)]
pub struct CountingSubscriber {
    events: AtomicU64,
    flushes: AtomicU64,
    last_dur_us: Mutex<f64>,
    totals: Mutex<BTreeMap<String, u64>>,
}

impl CountingSubscriber {
    /// Total events received.
    pub fn events(&self) -> u64 {
        self.events.load(Ordering::SeqCst)
    }

    /// Times `flush` was called.
    pub fn flushes(&self) -> u64 {
        self.flushes.load(Ordering::SeqCst)
    }

    /// Duration of the most recent span event, in microseconds.
    pub fn last_dur_us(&self) -> f64 {
        *self.last_dur_us.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Sum of the `U64` values recorded under `"{cat}/{name}/{arg}"`.
    pub fn total(&self, key: &str) -> u64 {
        self.totals
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .get(key)
            .copied()
            .unwrap_or(0)
    }

    /// Snapshot of every summed key.
    pub fn totals(&self) -> BTreeMap<String, u64> {
        self.totals
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .clone()
    }
}

impl Subscriber for CountingSubscriber {
    fn event(&self, event: &Event<'_>) {
        self.events.fetch_add(1, Ordering::SeqCst);
        if let EventKind::Complete { dur_us } = event.kind {
            *self.last_dur_us.lock().unwrap_or_else(|p| p.into_inner()) = dur_us;
        }
        if event.args.is_empty() {
            return;
        }
        let mut totals = self.totals.lock().unwrap_or_else(|p| p.into_inner());
        for (key, value) in event.args {
            if let Some(v) = value.as_u64() {
                *totals
                    .entry(format!("{}/{}/{}", event.cat, event.name, key))
                    .or_insert(0) += v;
            }
        }
    }

    fn flush(&self) {
        self.flushes.fetch_add(1, Ordering::SeqCst);
    }
}

/// Delivers every event to each inner subscriber in order — lets the CLI
/// combine `--trace` (file) with `--obs` (stderr).
pub struct FanoutSubscriber {
    inner: Vec<std::sync::Arc<dyn Subscriber>>,
}

impl FanoutSubscriber {
    /// Fan out to `inner`, in order.
    pub fn new(inner: Vec<std::sync::Arc<dyn Subscriber>>) -> Self {
        FanoutSubscriber { inner }
    }
}

impl Subscriber for FanoutSubscriber {
    fn event(&self, event: &Event<'_>) {
        for sub in &self.inner {
            sub.event(event);
        }
    }

    fn flush(&self) {
        for sub in &self.inner {
            sub.flush();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn value_as_u64_conversions() {
        assert_eq!(Value::U64(7).as_u64(), Some(7));
        assert_eq!(Value::I64(7).as_u64(), Some(7));
        assert_eq!(Value::I64(-1).as_u64(), None);
        assert_eq!(Value::F64(3.0).as_u64(), Some(3));
        assert_eq!(Value::F64(3.5).as_u64(), None);
        assert_eq!(Value::Str("x").as_u64(), None);
    }

    #[test]
    fn counting_sums_by_cat_name_arg() {
        let sub = CountingSubscriber::default();
        fn ev<'a>(args: &'a [(&'static str, Value<'a>)]) -> Event<'a> {
            Event {
                cat: "engine",
                name: "cache",
                kind: EventKind::Counter,
                ts_us: 0.0,
                tid: 0,
                ctx: None,
                args,
            }
        }
        sub.event(&ev(&[("hits", Value::U64(10)), ("misses", Value::U64(2))]));
        sub.event(&ev(&[
            ("hits", Value::U64(5)),
            ("policy", Value::Str("fbf")),
        ]));
        assert_eq!(sub.events(), 2);
        assert_eq!(sub.total("engine/cache/hits"), 15);
        assert_eq!(sub.total("engine/cache/misses"), 2);
        assert_eq!(
            sub.total("engine/cache/policy"),
            0,
            "strings are not summed"
        );
    }

    #[test]
    fn fanout_delivers_to_all() {
        let a = Arc::new(CountingSubscriber::default());
        let b = Arc::new(CountingSubscriber::default());
        let fan = FanoutSubscriber::new(vec![a.clone(), b.clone()]);
        fan.event(&Event {
            cat: "t",
            name: "x",
            kind: EventKind::Instant,
            ts_us: 0.0,
            tid: 0,
            ctx: None,
            args: &[],
        });
        fan.flush();
        assert_eq!(a.events(), 1);
        assert_eq!(b.events(), 1);
        assert_eq!(a.flushes(), 1);
        assert_eq!(b.flushes(), 1);
    }
}
