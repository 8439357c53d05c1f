//! The benchmark's own tracer: spans around calls into each layer's
//! public functions, kept in memory and written out when the run ends.
//!
//! The program under test is not instrumented by this PR, so a layer that
//! runs *inside* a traced call is measured one of two ways, both recorded
//! as children of that call's span:
//!
//! * **replayed** — the same public function is called again, alone, on
//!   the same inputs (`StripeCode::build`, a cache replay of the worker
//!   scripts, `xor_many` on same-size buffers…). Its interval lies outside
//!   the parent's, only its duration is attributed.
//! * **aggregated** — a decorator the benchmark passes in (the `Timed`
//!   storage backend) sums the time of many short calls; one span carries
//!   the call count and the total.
//!
//! A span's self time is its duration minus its children's. For one span
//! with replayed children that difference is noisy and may dip below zero,
//! so it is kept signed per span and floored only once a layer's spans are
//! summed. When a layer's children still outweigh it, children plus self
//! exceed the wall time; [`Tracer::reconcile`] reports by how much
//! (`obs.reconcile_error_pct`; above 5 % a run warns).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Index of a span inside its [`Tracer`].
pub type SpanId = usize;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name (`core.simulate`, `cache.replay`, …).
    pub name: &'static str,
    /// Start, ns since the tracer was created.
    pub start_ns: u64,
    /// End, ns since the tracer was created.
    pub end_ns: u64,
    /// The span that caused this one (`None` for a traced op's root).
    pub parent: Option<SpanId>,
    /// Index of the traced operation the span belongs to.
    pub op: u32,
    /// Calls the span stands for (1 unless aggregated).
    pub calls: u64,
    /// Measured outside its parent's interval (replayed or aggregated).
    pub attributed: bool,
}

impl Span {
    /// Duration in ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// One row of `layer_breakdown.csv`.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerRow {
    /// Span name.
    pub layer: &'static str,
    /// Calls (aggregated spans count their inner calls).
    pub calls: u64,
    /// Summed duration, ms.
    pub total_ms: f64,
    /// Summed self time, ms.
    pub self_ms: f64,
    /// Self time as a share of the traced ops' wall time.
    pub share: f64,
}

/// In-memory span recorder for one traced pass.
#[derive(Debug)]
pub struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
    stack: Vec<SpanId>,
    op: u32,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            t0: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
        }
    }
}

impl Tracer {
    /// An empty tracer; its clock starts now.
    pub fn new() -> Self {
        Self::default()
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    fn push(&mut self, name: &'static str, parent: Option<SpanId>, attributed: bool) -> SpanId {
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            op: self.op,
            calls: 1,
            attributed,
        });
        self.spans.len() - 1
    }

    /// Open the root span of the next traced operation.
    pub fn open_op(&mut self) -> SpanId {
        debug_assert!(self.stack.is_empty(), "ops do not nest");
        self.op += 1;
        let id = self.push("op", None, false);
        self.stack.push(id);
        id
    }

    /// Open a span nested in the innermost open one.
    pub fn open(&mut self, name: &'static str) -> SpanId {
        let id = self.push(name, self.stack.last().copied(), false);
        self.stack.push(id);
        id
    }

    /// Open a replayed span: timed now, attributed to `parent`.
    pub fn open_replay(&mut self, parent: SpanId, name: &'static str) -> SpanId {
        let id = self.push(name, Some(parent), true);
        self.spans[id].op = self.spans[parent].op;
        id
    }

    /// Close `id` (the innermost open span, or a replayed one).
    pub fn close(&mut self, id: SpanId) -> Duration {
        self.spans[id].end_ns = self.now_ns();
        if self.stack.last() == Some(&id) {
            self.stack.pop();
        }
        Duration::from_nanos(self.spans[id].dur_ns())
    }

    /// Attribute `calls` short calls totalling `total` to `parent` — what
    /// a timing decorator summed while `parent` ran.
    pub fn aggregate(&mut self, parent: SpanId, name: &'static str, calls: u64, total: Duration) {
        let id = self.push(name, Some(parent), true);
        let op = self.spans[parent].op;
        let span = &mut self.spans[id];
        span.op = op;
        span.calls = calls;
        span.end_ns = span.start_ns + total.as_nanos() as u64;
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Summed duration of each span's direct children.
    fn children_ns(&self) -> Vec<u64> {
        let mut children = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                children[p] += span.dur_ns();
            }
        }
        children
    }

    /// Self time of every span, ns: duration minus direct children.
    /// Signed: a replayed child may outlast the call it re-enacts.
    pub fn self_ns(&self) -> Vec<i64> {
        self.children_ns()
            .iter()
            .zip(&self.spans)
            .map(|(&c, s)| s.dur_ns() as i64 - c as i64)
            .collect()
    }

    /// Summed wall time of the traced operations (their root spans).
    pub fn ops_wall(&self) -> Duration {
        Duration::from_nanos(
            self.spans
                .iter()
                .filter(|s| s.parent.is_none())
                .map(Span::dur_ns)
                .sum(),
        )
    }

    /// Durations of every span called `name`, ms, in recording order.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e6)
            .collect()
    }

    /// Per-op self time of spans called `name`, ms (one value per span).
    pub fn self_ms(&self, name: &str) -> Vec<f64> {
        self.self_ns()
            .iter()
            .zip(&self.spans)
            .filter(|(_, s)| s.name == name)
            .map(|(&ns, _)| ns as f64 / 1e6)
            .collect()
    }

    /// For each span name that has children: the share by which the
    /// children's summed time exceeds the parents' summed wall time — what
    /// children plus (floored) self overshoot the wall by. Zero whenever
    /// the children fit.
    pub fn reconcile(&self) -> BTreeMap<&'static str, f64> {
        let mut sums: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        for (span, &children) in self.spans.iter().zip(&self.children_ns()) {
            if children > 0 {
                let (wall, parts) = sums.entry(span.name).or_default();
                *wall += span.dur_ns();
                *parts += children;
            }
        }
        sums.into_iter()
            .map(|(name, (wall, parts))| {
                (name, parts.saturating_sub(wall) as f64 / wall.max(1) as f64)
            })
            .collect()
    }

    /// The layer table: one row per span name, in first-seen order.
    pub fn breakdown(&self) -> Vec<LayerRow> {
        let selfs = self.self_ns();
        let wall = self.ops_wall().as_nanos().max(1) as f64;
        let mut rows: Vec<LayerRow> = Vec::new();
        for (span, &self_ns) in self.spans.iter().zip(&selfs) {
            let row = match rows.iter_mut().find(|r| r.layer == span.name) {
                Some(row) => row,
                None => {
                    rows.push(LayerRow {
                        layer: span.name,
                        calls: 0,
                        total_ms: 0.0,
                        self_ms: 0.0,
                        share: 0.0,
                    });
                    rows.last_mut().expect("just pushed")
                }
            };
            row.calls += span.calls;
            row.total_ms += span.dur_ns() as f64 / 1e6;
            row.self_ms += self_ns as f64 / 1e6;
        }
        for row in &mut rows {
            row.self_ms = row.self_ms.max(0.0);
            row.share = row.self_ms * 1e6 / wall;
        }
        rows
    }

    /// `layer_breakdown.csv` rows for `workload` (no header).
    pub fn breakdown_csv(&self, workload: &str) -> String {
        let mut out = String::new();
        for r in self.breakdown() {
            let _ = writeln!(
                out,
                "{workload},{},{},{:.6},{:.6},{:.6}",
                r.layer, r.calls, r.total_ms, r.self_ms, r.share
            );
        }
        out
    }

    /// One JSON object per span, one per line.
    pub fn jsonl(&self, workload: &str) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"workload\":\"{workload}\",\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\
                 \"end_ns\":{},\"parent\":{parent},\"op\":{},\"calls\":{},\"attributed\":{}}}",
                s.name, s.start_ns, s.end_ns, s.op, s.calls, s.attributed
            );
        }
        out
    }
}

/// Header line of `layer_breakdown.csv`.
pub const BREAKDOWN_HEADER: &str = "workload,layer,calls,total_ms,self_ms,share";

#[cfg(test)]
mod tests {
    use super::*;

    /// A tracer with hand-set intervals: op [0,100] ⊃ a [10,70] ⊃ b [20,40];
    /// plus 25 ns replayed under `a` and 3 aggregated calls of 5 ns total.
    fn sample() -> Tracer {
        let mut t = Tracer::new();
        let op = t.open_op();
        let a = t.open("a");
        let b = t.open("b");
        t.close(b);
        t.close(a);
        t.close(op);
        let r = t.open_replay(a, "r");
        t.close(r);
        t.aggregate(a, "g", 3, Duration::from_nanos(5));
        for (id, (s, e)) in [(0, 100), (10, 70), (20, 40), (200, 225)]
            .into_iter()
            .enumerate()
        {
            t.spans[id].start_ns = s;
            t.spans[id].end_ns = e;
        }
        t.spans[4].start_ns = 300;
        t.spans[4].end_ns = 305;
        t
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let t = sample();
        // op: 100 − a(60) = 40; a: 60 − b(20) − r(25) − g(5) = 10; leaves keep all.
        assert_eq!(t.self_ns(), vec![40, 10, 20, 25, 5]);
        assert_eq!(t.ops_wall(), Duration::from_nanos(100));
        let rows = t.breakdown();
        let names: Vec<_> = rows.iter().map(|r| r.layer).collect();
        assert_eq!(names, ["op", "a", "b", "r", "g"]);
        assert_eq!(rows[4].calls, 3);
        let share: f64 = rows.iter().map(|r| r.share).sum();
        assert!((share - 1.0).abs() < 1e-12, "self times partition the wall");
        assert!(t.reconcile().values().all(|&e| e == 0.0));
    }

    #[test]
    fn overshooting_replays_go_negative_per_span_and_show_in_reconcile() {
        let mut t = sample();
        t.spans[3].end_ns = 200 + 80; // replay longer than its parent allows
        assert_eq!(t.self_ns()[1], 60 - 105);
        let err = t.reconcile()["a"];
        // children 20 + 80 + 5 = 105 against a wall of 60.
        assert!((err - (105.0 / 60.0 - 1.0)).abs() < 1e-12);
        // The layer row floors the summed self time, never a single span's.
        let a = &t.breakdown()[1];
        assert_eq!((a.layer, a.self_ms, a.share), ("a", 0.0, 0.0));
    }

    #[test]
    fn spans_carry_their_op_and_parent() {
        let mut t = Tracer::new();
        let op1 = t.open_op();
        let x = t.open("x");
        t.close(x);
        t.close(op1);
        let op2 = t.open_op();
        t.close(op2);
        let r = t.open_replay(x, "r");
        t.close(r);
        let ops: Vec<u32> = t.spans().iter().map(|s| s.op).collect();
        assert_eq!(ops, [1, 1, 2, 1]);
        assert_eq!(t.spans()[1].parent, Some(op1));
        assert_eq!(t.spans()[3].parent, Some(x));
        assert_eq!(t.jsonl("w").lines().count(), 4);
        assert!(t.breakdown_csv("w").starts_with("w,op,2,"));
    }
}
