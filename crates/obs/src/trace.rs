//! Chrome-trace JSONL export.
//!
//! [`TraceWriter`] serialises each event as one JSON object per line in
//! the [chrome trace event format]. chrome://tracing and Perfetto load a
//! JSON *array*; `scripts/check_trace.py --chrome out.json` wraps the
//! JSONL into `{"traceEvents": [...]}` for that (JSONL itself is easier
//! to validate, stream, and grep). Lines are pushed straight into a
//! `String` (this is on the observability overhead budget), through the
//! one string escaper in [`crate::json`].
//!
//! [chrome trace event format]: https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU

use crate::json;
use crate::subscriber::{Event, EventKind, Subscriber, Value};
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::Mutex;

/// A [`Subscriber`] writing chrome-trace events as JSONL.
///
/// Thread-safe: lines are rendered outside the lock and written whole, so
/// events from concurrent sweep workers never interleave. Buffered output
/// is flushed on `flush` (called by `fbf_obs::uninstall`) and on drop.
pub struct TraceWriter {
    out: Mutex<BufWriter<Box<dyn Write + Send>>>,
}

impl TraceWriter {
    /// Create (truncate) `path` and write the process-metadata line.
    pub fn create(path: &Path) -> std::io::Result<Self> {
        let file = File::create(path)?;
        Ok(Self::from_writer(Box::new(file)))
    }

    /// Wrap an arbitrary writer (tests use `Vec<u8>` via a shared buffer).
    pub fn from_writer(writer: Box<dyn Write + Send>) -> Self {
        let writer = TraceWriter {
            out: Mutex::new(BufWriter::new(writer)),
        };
        // Metadata record naming the process track, per the trace format.
        let mut line = String::with_capacity(96);
        line.push_str(r#"{"name":"process_name","cat":"__metadata","ph":"M","ts":0,"pid":1,"tid":0,"args":{"name":"fbf"}}"#);
        line.push('\n');
        writer.write_line(&line);
        writer
    }

    fn write_line(&self, line: &str) {
        let mut out = self.out.lock().unwrap_or_else(|p| p.into_inner());
        let _ = out.write_all(line.as_bytes());
    }

    fn render(event: &Event<'_>) -> String {
        render_chrome_line(event)
    }
}

/// Render one event as a chrome-trace JSON object plus trailing newline —
/// the exact line [`TraceWriter`] files end up holding. Public so other
/// sinks (the flight recorder's followers) stream the same format over the
/// wire that the JSONL files contain on disk.
pub fn render_chrome_line(event: &Event<'_>) -> String {
    {
        let mut line = String::with_capacity(160);
        line.push_str("{\"name\":");
        json::push_str(&mut line, event.name);
        line.push_str(",\"cat\":");
        json::push_str(&mut line, event.cat);
        match event.kind {
            EventKind::Complete { dur_us } => {
                line.push_str(",\"ph\":\"X\"");
                line.push_str(",\"ts\":");
                push_json_f64(&mut line, event.ts_us);
                line.push_str(",\"dur\":");
                push_json_f64(&mut line, dur_us);
            }
            EventKind::Instant => {
                line.push_str(",\"ph\":\"i\",\"s\":\"t\"");
                line.push_str(",\"ts\":");
                push_json_f64(&mut line, event.ts_us);
            }
            EventKind::Counter => {
                line.push_str(",\"ph\":\"C\"");
                line.push_str(",\"ts\":");
                push_json_f64(&mut line, event.ts_us);
            }
        }
        line.push_str(",\"pid\":1,\"tid\":");
        line.push_str(&event.tid.to_string());
        line.push_str(",\"args\":{");
        let mut first = true;
        // Causal ids first, under reserved names the emission sites never
        // use as counter args (check_trace.py --flows keys off these).
        if let Some(ctx) = event.ctx {
            line.push_str("\"trace_id\":");
            line.push_str(&ctx.trace.to_string());
            if ctx.span != 0 {
                line.push_str(",\"span_id\":");
                line.push_str(&ctx.span.to_string());
            }
            line.push_str(",\"parent_id\":");
            line.push_str(&ctx.parent.to_string());
            first = false;
        }
        for (key, value) in event.args.iter() {
            if !first {
                line.push(',');
            }
            first = false;
            json::push_str(&mut line, key);
            line.push(':');
            match value {
                Value::U64(v) => line.push_str(&v.to_string()),
                Value::I64(v) => line.push_str(&v.to_string()),
                Value::F64(v) => push_json_f64(&mut line, *v),
                Value::Str(v) => json::push_str(&mut line, v),
            }
        }
        line.push_str("}}\n");
        line
    }
}

/// Render the chrome-trace *flow* records that make the causal arrows
/// visible in chrome://tracing: every traced span opens a flow under its
/// own span id (`ph:"s"`), and every traced child span steps its parent's
/// flow (`ph:"t"`), binding the arrow parent→child. All flow records
/// share one name/cat (the format matches flows by name+cat+id) and carry
/// the trace id as an arg so `check_trace.py --flows` can bucket them.
/// Returns the rendered lines (possibly empty) for `event`.
fn render_flow_lines(event: &Event<'_>) -> String {
    let (Some(ctx), EventKind::Complete { .. }) = (event.ctx, event.kind) else {
        return String::new();
    };
    if ctx.span == 0 {
        return String::new();
    }
    let mut lines = String::with_capacity(192);
    let mut flow = |ph: char, id: u64| {
        lines.push_str("{\"name\":\"causal\",\"cat\":\"flow\",\"ph\":\"");
        lines.push(ph);
        lines.push_str("\",\"ts\":");
        push_json_f64(&mut lines, event.ts_us);
        lines.push_str(",\"pid\":1,\"tid\":");
        lines.push_str(&event.tid.to_string());
        lines.push_str(",\"id\":");
        lines.push_str(&id.to_string());
        lines.push_str(",\"args\":{\"trace_id\":");
        lines.push_str(&ctx.trace.to_string());
        lines.push_str("}}\n");
    };
    flow('s', ctx.span);
    if ctx.parent != 0 {
        flow('t', ctx.parent);
    }
    lines
}

impl Subscriber for TraceWriter {
    fn event(&self, event: &Event<'_>) {
        let mut line = Self::render(event);
        // Traced spans additionally emit flow records so the causal tree
        // renders as arrows; appended to the same write so a span and its
        // flows land adjacent even under concurrent workers.
        line.push_str(&render_flow_lines(event));
        self.write_line(&line);
    }

    fn flush(&self) {
        let mut out = self.out.lock().unwrap_or_else(|p| p.into_inner());
        let _ = out.flush();
    }
}

impl Drop for TraceWriter {
    fn drop(&mut self) {
        self.flush();
    }
}

/// Append a finite JSON number; non-finite values (invalid JSON) become 0.
fn push_json_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        out.push_str(&format!("{v:.3}"));
    } else {
        out.push('0');
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    /// A `Write` target tests can read back after the writer is dropped.
    #[derive(Clone, Default)]
    struct SharedBuf(Arc<Mutex<Vec<u8>>>);

    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    fn capture(f: impl FnOnce(&TraceWriter)) -> String {
        let buf = SharedBuf::default();
        let writer = TraceWriter::from_writer(Box::new(buf.clone()));
        f(&writer);
        drop(writer);
        let bytes = buf.0.lock().unwrap().clone();
        String::from_utf8(bytes).unwrap()
    }

    #[test]
    fn emits_metadata_then_one_line_per_event() {
        let out = capture(|w| {
            w.event(&Event {
                cat: "engine",
                name: "cache",
                kind: EventKind::Counter,
                ts_us: 12.5,
                tid: 3,
                ctx: None,
                args: &[
                    ("hits", Value::U64(10)),
                    ("ratio", Value::F64(0.25)),
                    ("policy", Value::Str("fbf")),
                ],
            });
            w.event(&Event {
                cat: "sweep",
                name: "point",
                kind: EventKind::Complete { dur_us: 42.0 },
                ts_us: 1.0,
                tid: 0,
                ctx: None,
                args: &[],
            });
        });
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains(r#""ph":"M""#));
        assert!(lines[1].contains(r#""name":"cache""#));
        assert!(lines[1].contains(r#""ph":"C""#));
        assert!(lines[1].contains(r#""hits":10"#));
        assert!(lines[1].contains(r#""ratio":0.250"#));
        assert!(lines[1].contains(r#""policy":"fbf""#));
        assert!(lines[2].contains(r#""ph":"X""#));
        assert!(lines[2].contains(r#""dur":42.000"#));
        // Every line is a single JSON object: balanced braces, no inner
        // newlines (lines() already guarantees the latter).
        for line in &lines {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
            let opens = line.matches('{').count();
            let closes = line.matches('}').count();
            assert_eq!(opens, closes, "{line}");
        }
    }

    #[test]
    fn instant_carries_scope() {
        let out = capture(|w| {
            w.event(&Event {
                cat: "plan",
                name: "warm",
                kind: EventKind::Instant,
                ts_us: 5.0,
                tid: 1,
                ctx: None,
                args: &[],
            });
        });
        assert!(out.lines().nth(1).unwrap().contains(r#""ph":"i","s":"t""#));
    }

    #[test]
    fn traced_span_renders_ctx_args_and_flow_records() {
        use crate::subscriber::TraceCtx;
        let out = capture(|w| {
            w.event(&Event {
                cat: "plan",
                name: "cold",
                kind: EventKind::Complete { dur_us: 9.0 },
                ts_us: 2.0,
                tid: 1,
                ctx: Some(TraceCtx {
                    trace: 41,
                    span: 7,
                    parent: 3,
                }),
                args: &[("stripes", Value::U64(4))],
            });
        });
        let lines: Vec<&str> = out.lines().collect();
        // metadata + span + flow-start + flow-step
        assert_eq!(lines.len(), 4, "{out}");
        assert!(lines[1].contains(r#""trace_id":41,"span_id":7,"parent_id":3"#));
        assert!(lines[1].contains(r#""stripes":4"#));
        assert!(lines[2].contains(r#""ph":"s""#) && lines[2].contains(r#""id":7"#));
        assert!(lines[3].contains(r#""ph":"t""#) && lines[3].contains(r#""id":3"#));
        for flow in &lines[2..] {
            assert!(flow.contains(r#""cat":"flow""#));
            assert!(flow.contains(r#""trace_id":41"#));
        }
    }

    #[test]
    fn root_span_and_point_events_emit_minimal_ctx() {
        use crate::subscriber::TraceCtx;
        // A root span (parent 0) opens its flow but steps nothing.
        let root = render_flow_lines(&Event {
            cat: "daemon",
            name: "repair",
            kind: EventKind::Complete { dur_us: 1.0 },
            ts_us: 0.0,
            tid: 0,
            ctx: Some(TraceCtx {
                trace: 5,
                span: 9,
                parent: 0,
            }),
            args: &[],
        });
        assert_eq!(root.lines().count(), 1);
        assert!(root.contains(r#""ph":"s""#));
        // Counters/instants (span 0) carry ids in args but no flows.
        let point = Event {
            cat: "engine",
            name: "cache",
            kind: EventKind::Counter,
            ts_us: 0.0,
            tid: 0,
            ctx: Some(TraceCtx {
                trace: 5,
                span: 0,
                parent: 9,
            }),
            args: &[],
        };
        let line = render_chrome_line(&point);
        assert!(line.contains(r#""trace_id":5,"parent_id":9"#));
        assert!(!line.contains("span_id"));
        assert!(render_flow_lines(&point).is_empty());
    }

    #[test]
    fn non_finite_numbers_stay_valid_json() {
        let out = capture(|w| {
            w.event(&Event {
                cat: "t",
                name: "n",
                kind: EventKind::Counter,
                ts_us: 0.0,
                tid: 0,
                ctx: None,
                args: &[("bad", Value::F64(f64::NAN))],
            });
        });
        assert!(out.lines().nth(1).unwrap().contains(r#""bad":0"#));
    }
}
