//! # fbf-obs — structured tracing and event counters for the FBF stack
//!
//! The simulator, cache, and sweep engine explain themselves through this
//! crate: phase spans (plan / simulate / gather) and per-run cache and
//! disk counter events. The design follows the `tracing` crate in spirit — a global pluggable [`Subscriber`] that
//! every layer emits into — vendored-stub style like the rest of the
//! workspace (no external dependencies, the API subset we actually use).
//!
//! ## Zero cost when disabled
//!
//! No subscriber installed (the default) means every emission site reduces
//! to one relaxed atomic load and a branch; spans skip even the clock
//! read. Nothing in the simulator's per-access hot loop emits at all —
//! hot-path counters ride on the stats structs the engine already owns
//! (`CacheStats`, `DiskStats`) and are published *once per run* at run
//! boundaries, so enabling observability does not perturb the measurements
//! it reports. The benchmark measures both claims
//! (`obs.enabled_overhead_pct`, `obs.trace_overhead_pct`).
//!
//! ## Event taxonomy
//!
//! Events are chrome-trace shaped (see [`TraceWriter`]): a category, a
//! name, a phase (complete span / instant / counter), microsecond
//! timestamps, a per-thread track id, and typed key→value args.
//!
//! The catalogue of every `cat/name` the workspace emits, with its
//! kind, trigger and args, is DESIGN.md §9 ("Event taxonomy"), the one
//! table; CI's `scripts/event_table.sh` fails when an emission site names
//! an event the table lacks.
//!
//! ## Latency digests
//!
//! Beyond events, [`digest`] holds mergeable log-linear quantile digests
//! and the [`RequestClass`] taxonomy that attributes every engine
//! completion to app / recovery / replan traffic (DESIGN.md §11).
//!
//! ```
//! use std::sync::Arc;
//! let sub = Arc::new(fbf_obs::CountingSubscriber::default());
//! fbf_obs::install(sub.clone());
//! {
//!     let span = fbf_obs::span("demo", "work");
//!     fbf_obs::counter("demo", "cache", &[("hits", fbf_obs::Value::U64(3))]);
//!     span.end_with(&[("ok", fbf_obs::Value::U64(1))]);
//! }
//! fbf_obs::uninstall();
//! assert_eq!(sub.events(), 2);
//! assert_eq!(sub.total("demo/cache/hits"), 3);
//! ```

pub mod digest;
pub mod flags;
pub mod host;
pub mod json;
pub mod ring;
pub mod subscriber;
pub mod trace;

pub use digest::{Digest, RequestClass};
pub use flags::ObsFlags;
pub use host::HostTime;
pub use json::{Json, JsonError};
pub use ring::FlightRecorder;
pub use subscriber::{
    CountingSubscriber, Event, EventKind, FanoutSubscriber, NoopSubscriber, StderrSubscriber,
    Subscriber, TraceCtx, Value,
};
pub use trace::{render_chrome_line, TraceWriter};

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock};
use std::time::Instant;

/// Fast-path gate: `true` while any sink — a subscriber or the flight
/// recorder — is installed.
static ENABLED: AtomicBool = AtomicBool::new(false);
/// The installed subscriber. Swapped atomically under the lock; emitters
/// clone the `Arc` under a read lock and dispatch outside it, so a swap
/// never blocks on (or races with) an in-flight event.
static SUBSCRIBER: RwLock<Option<Arc<dyn Subscriber>>> = RwLock::new(None);
/// Process epoch for event timestamps.
static EPOCH: OnceLock<Instant> = OnceLock::new();
/// Monotonic run-id source, correlating the events of one engine run.
static RUN_ID: AtomicU64 = AtomicU64::new(1);

/// Is any sink installed? One relaxed load — the cost of every emission
/// site when observability is off.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Recompute the fast-path gate after a sink change: emission stays live
/// while either the subscriber slot or the flight recorder holds a sink.
pub(crate) fn refresh_enabled() {
    let has_sub = SUBSCRIBER
        .read()
        .unwrap_or_else(|p| p.into_inner())
        .is_some();
    ENABLED.store(has_sub || ring::recorder().is_some(), Ordering::SeqCst);
}

/// Install `sub` as the global subscriber, replacing any previous one.
/// Safe to call while other threads emit: each in-flight event is
/// delivered to exactly one of the old or the new subscriber.
pub fn install(sub: Arc<dyn Subscriber>) {
    let prev = {
        let mut slot = SUBSCRIBER.write().unwrap_or_else(|p| p.into_inner());
        slot.replace(sub)
    };
    ENABLED.store(true, Ordering::SeqCst);
    if let Some(prev) = prev {
        prev.flush();
    }
}

/// Remove and return the global subscriber (flushing it). Emission sites
/// go quiet again unless the flight recorder is still installed.
pub fn uninstall() -> Option<Arc<dyn Subscriber>> {
    let prev = {
        let mut slot = SUBSCRIBER.write().unwrap_or_else(|p| p.into_inner());
        slot.take()
    };
    refresh_enabled();
    if let Some(prev) = &prev {
        prev.flush();
    }
    prev
}

/// Microseconds since the process's first observability action.
fn now_us() -> f64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_secs_f64() * 1e6
}

/// A fresh run id, for correlating the counter events of one engine run.
pub fn next_run_id() -> u64 {
    RUN_ID.fetch_add(1, Ordering::Relaxed)
}

/// Stable small integer identifying the calling thread (chrome-trace
/// `tid`), assigned in first-use order.
fn thread_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    thread_local! {
        static TID: u64 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    TID.with(|t| *t)
}

/// Monotonic trace-id source (one per daemon request / sweep point).
static NEXT_TRACE: AtomicU64 = AtomicU64::new(1);
/// Monotonic span-id source, shared by every trace in the process.
static NEXT_SPAN: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// The calling thread's active `(trace id, enclosing span id)`.
    /// `(0, _)` means no trace is active — spans then emit without ctx,
    /// exactly as before causal tracing existed.
    static CTX: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

/// A fresh process-unique trace id.
pub fn next_trace_id() -> u64 {
    NEXT_TRACE.fetch_add(1, Ordering::Relaxed)
}

/// Scope guard restoring the previous trace context on drop.
#[must_use = "the trace is active only while the guard lives"]
pub struct TraceGuard {
    prev: (u64, u64),
}

impl Drop for TraceGuard {
    fn drop(&mut self) {
        CTX.with(|c| c.set(self.prev));
    }
}

/// Activate `trace` on the calling thread until the guard drops: spans
/// created in between allocate span ids and parent-link to each other,
/// and every event they emit carries the ids (see [`TraceCtx`]).
///
/// The guard starts at the trace root (parent span 0) — open one
/// enclosing span right after minting so the trace has exactly one root.
/// Nesting is supported (the previous context is restored on drop); the
/// context is thread-local, so work handed to another thread carries a
/// [`TraceScope`] there instead of the bare id.
pub fn with_trace(trace: u64) -> TraceGuard {
    let prev = CTX.with(|c| c.replace((trace, 0)));
    TraceGuard { prev }
}

/// A thread's trace context — its active trace and enclosing span —
/// captured by [`trace_scope`] to carry work into another thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceScope {
    trace: u64,
    span: u64,
}

/// The calling thread's trace context, for [`TraceScope::enter`] on a
/// helper thread.
pub fn trace_scope() -> TraceScope {
    let (trace, span) = CTX.with(|c| c.get());
    TraceScope { trace, span }
}

impl TraceScope {
    /// Re-activate the captured context on the calling thread until the
    /// guard drops: spans opened under it are children of the captured
    /// enclosing span, where [`with_trace`] would make them extra roots.
    pub fn enter(self) -> TraceGuard {
        let prev = CTX.with(|c| c.replace((self.trace, self.span)));
        TraceGuard { prev }
    }
}

/// The ctx instants/counters carry: inside a trace they point at the
/// enclosing span; outside they carry nothing.
fn point_ctx() -> Option<TraceCtx> {
    let (trace, parent) = CTX.with(|c| c.get());
    (trace != 0).then_some(TraceCtx {
        trace,
        span: 0,
        parent,
    })
}

/// Deliver `event` to the flight recorder and the installed subscriber.
fn emit(event: &Event<'_>) {
    ring::record(event);
    let sub = {
        let slot = SUBSCRIBER.read().unwrap_or_else(|p| p.into_inner());
        slot.clone()
    };
    if let Some(sub) = sub {
        sub.event(event);
    }
}

/// Emit a counter event (chrome phase `C`): a named set of series values
/// at one instant.
pub fn counter(cat: &'static str, name: &'static str, args: &[(&'static str, Value<'_>)]) {
    if !enabled() {
        return;
    }
    emit(&Event {
        cat,
        name,
        kind: EventKind::Counter,
        ts_us: now_us(),
        tid: thread_id(),
        ctx: point_ctx(),
        args,
    });
}

/// Emit an instant event (chrome phase `i`).
pub fn instant(cat: &'static str, name: &'static str, args: &[(&'static str, Value<'_>)]) {
    if !enabled() {
        return;
    }
    emit(&Event {
        cat,
        name,
        kind: EventKind::Instant,
        ts_us: now_us(),
        tid: thread_id(),
        ctx: point_ctx(),
        args,
    });
}

/// A timed span. Create with [`span`]; emits one complete event (chrome
/// phase `X`) when ended or dropped. When observability is disabled at
/// creation the guard is inert — no clock read, nothing on drop.
#[must_use = "a span measures the scope it lives in"]
pub struct Span {
    cat: &'static str,
    name: &'static str,
    start_us: f64,
    tid: u64,
    /// `trace == 0` means the span was created outside any trace.
    ctx: TraceCtx,
    live: bool,
}

/// Start a span named `cat`/`name`. Inside an active trace (see
/// [`with_trace`]) the span allocates a process-unique id, records the
/// enclosing span as its parent, and becomes the enclosing span for the
/// scope it lives in — restoring its parent when it ends.
pub fn span(cat: &'static str, name: &'static str) -> Span {
    if !enabled() {
        return Span {
            cat,
            name,
            start_us: 0.0,
            tid: 0,
            ctx: TraceCtx {
                trace: 0,
                span: 0,
                parent: 0,
            },
            live: false,
        };
    }
    let (trace, parent) = CTX.with(|c| c.get());
    let span_id = if trace != 0 {
        let id = NEXT_SPAN.fetch_add(1, Ordering::Relaxed);
        CTX.with(|c| c.set((trace, id)));
        id
    } else {
        0
    };
    Span {
        cat,
        name,
        start_us: now_us(),
        tid: thread_id(),
        ctx: TraceCtx {
            trace,
            span: span_id,
            parent,
        },
        live: true,
    }
}

impl Span {
    /// End the span, attaching `args` to the emitted event.
    pub fn end_with(mut self, args: &[(&'static str, Value<'_>)]) {
        self.finish(args);
    }

    /// End the span with no args (equivalent to dropping it).
    pub fn end(self) {}

    /// The span's causal ids, when it was created inside a trace.
    pub fn ctx(&self) -> Option<TraceCtx> {
        (self.ctx.trace != 0).then_some(self.ctx)
    }

    fn finish(&mut self, args: &[(&'static str, Value<'_>)]) {
        if !self.live {
            return;
        }
        self.live = false;
        if self.ctx.trace != 0 {
            // Spans are scoped guards, so LIFO restore is exact: hand the
            // enclosing-span slot back to this span's parent.
            CTX.with(|c| c.set((self.ctx.trace, self.ctx.parent)));
        }
        let end = now_us();
        emit(&Event {
            cat: self.cat,
            name: self.name,
            kind: EventKind::Complete {
                dur_us: (end - self.start_us).max(0.0),
            },
            ts_us: self.start_us,
            tid: self.tid,
            ctx: (self.ctx.trace != 0).then_some(self.ctx),
            args,
        });
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        self.finish(&[]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serialises tests that install the global subscriber.
    fn lock() -> std::sync::MutexGuard<'static, ()> {
        static GATE: std::sync::Mutex<()> = std::sync::Mutex::new(());
        GATE.lock().unwrap_or_else(|p| p.into_inner())
    }

    #[test]
    fn disabled_by_default_and_emits_nothing() {
        let _g = lock();
        uninstall();
        assert!(!enabled());
        // None of these may panic or emit.
        counter("t", "c", &[("v", Value::U64(1))]);
        instant("t", "i", &[]);
        let s = span("t", "s");
        drop(s);
    }

    #[test]
    fn install_enables_and_uninstall_flushes() {
        let _g = lock();
        let sub = Arc::new(CountingSubscriber::default());
        install(sub.clone());
        assert!(enabled());
        counter("t", "c", &[("v", Value::U64(41)), ("w", Value::U64(1))]);
        let s = span("t", "s");
        s.end_with(&[("n", Value::U64(1))]);
        uninstall();
        assert!(!enabled());
        assert_eq!(sub.events(), 2);
        assert_eq!(sub.total("t/c/v"), 41);
        assert_eq!(sub.total("t/s/n"), 1);
        assert_eq!(sub.flushes(), 1);
    }

    #[test]
    fn span_measures_non_negative_duration() {
        let _g = lock();
        let sub = Arc::new(CountingSubscriber::default());
        install(sub.clone());
        let s = span("t", "timed");
        std::thread::sleep(std::time::Duration::from_millis(2));
        drop(s);
        uninstall();
        assert_eq!(sub.events(), 1);
        assert!(sub.last_dur_us() >= 1_000.0, "dur {}", sub.last_dur_us());
    }

    #[test]
    fn run_ids_are_unique_and_monotonic() {
        let a = next_run_id();
        let b = next_run_id();
        assert!(b > a);
    }

    #[test]
    fn thread_ids_are_stable_per_thread() {
        let here = thread_id();
        assert_eq!(here, thread_id());
        let other = std::thread::spawn(thread_id).join().unwrap();
        assert_ne!(here, other);
    }

    #[test]
    fn trace_ctx_threads_through_nested_spans() {
        let _g = lock();

        /// Captures each event's `(name, ctx)` for shape assertions.
        #[derive(Default)]
        struct CtxCapture(std::sync::Mutex<Vec<(String, Option<TraceCtx>)>>);
        impl Subscriber for CtxCapture {
            fn event(&self, event: &Event<'_>) {
                self.0
                    .lock()
                    .unwrap()
                    .push((event.name.to_string(), event.ctx));
            }
        }

        let sub = Arc::new(CtxCapture::default());
        install(sub.clone());
        // Outside any trace: no ctx, no span-id allocation.
        span("t", "untraced").end_with(&[]);
        let trace = next_trace_id();
        {
            let _t = with_trace(trace);
            assert_eq!(CTX.with(|c| c.get().0), trace);
            let root = span("t", "root");
            let root_id = root.ctx().unwrap().span;
            assert_ne!(root_id, 0);
            {
                let child = span("t", "child");
                counter("t", "inner", &[("v", Value::U64(1))]);
                child.end_with(&[]);
            }
            // Parent restored after the child finished (LIFO).
            counter("t", "after", &[]);
            root.end_with(&[]);
        }
        assert_eq!(
            CTX.with(|c| c.get().0),
            0,
            "guard drop restores the outer ctx"
        );
        span("t", "outside").end_with(&[]);
        uninstall();

        let events = sub.0.lock().unwrap().clone();
        let by_name = |n: &str| {
            events
                .iter()
                .find(|(name, _)| name == n)
                .unwrap_or_else(|| panic!("missing event {n}"))
                .1
        };
        assert_eq!(by_name("untraced"), None);
        assert_eq!(by_name("outside"), None);
        let root = by_name("root").expect("root has ctx");
        assert_eq!((root.trace, root.parent), (trace, 0));
        let child = by_name("child").expect("child has ctx");
        assert_eq!((child.trace, child.parent), (trace, root.span));
        assert_ne!(child.span, root.span);
        let inner = by_name("inner").expect("counter has ctx");
        assert_eq!(
            (inner.trace, inner.span, inner.parent),
            (trace, 0, child.span)
        );
        let after = by_name("after").expect("counter has ctx");
        assert_eq!(after.parent, root.span, "parent restored after child");
    }

    #[test]
    fn a_trace_scope_carries_the_enclosing_span_across_threads() {
        let _g = lock();
        let sub = Arc::new(CountingSubscriber::default());
        install(sub.clone());
        let trace = next_trace_id();
        let _t = with_trace(trace);
        let root = span("t", "root");
        let root_id = root.ctx().unwrap().span;
        let scope = trace_scope();
        let child = std::thread::spawn(move || {
            let _t = scope.enter();
            span("t", "child").ctx().unwrap()
        })
        .join()
        .unwrap();
        root.end_with(&[]);
        uninstall();
        assert_eq!((child.trace, child.parent), (trace, root_id));
        assert_ne!(child.span, root_id);
    }

    #[test]
    fn end_with_suppresses_drop_emission() {
        let _g = lock();
        let sub = Arc::new(CountingSubscriber::default());
        install(sub.clone());
        let s = span("t", "once");
        s.end_with(&[]);
        uninstall();
        assert_eq!(sub.events(), 1, "end_with + drop must emit exactly once");
    }
}
