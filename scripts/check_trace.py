#!/usr/bin/env python3
"""Validate fbf observability artefacts: JSONL run traces and Prometheus snapshots.

Usage:
    scripts/check_trace.py TRACE.jsonl [--chrome OUT.json] [--flows]
    scripts/check_trace.py --prom METRICS.prom [TRACE.jsonl]

Trace mode checks every line is a standalone JSON object shaped like a
chrome trace event: `name`/`cat` strings, known phase `ph`, non-negative
microsecond timestamp, `pid`/`tid` integers, `args` object; complete
events ("X") additionally carry a non-negative `dur`, and flow events
("s"/"t"/"f") an integer `id`. Exits non-zero (printing the offending
line number) on the first malformed line, so CI can gate on it.

With `--flows` the causal structure is validated too: spans carrying a
`trace_id` are reassembled into one tree per trace — every non-zero
`parent_id` must resolve to a `span_id` within the same trace and each
completed trace has exactly one root span (`parent_id` 0). Traces whose
root span is still open (a flight-recorder dump taken mid-request) are
classified in-flight and held only to internal consistency. Flow
records must agree (every flow id opens with exactly one "s"; every
"t"/"f" refers to an opened id). Prints a tree/span summary.

With `--chrome OUT.json` the validated events are re-wrapped as
`{"traceEvents": [...]}` — the JSON-array form chrome://tracing and
https://ui.perfetto.dev load directly.

With `--prom METRICS.prom` (the file written by `fbf ... --metrics` or a
figure binary) the snapshot is checked against text-exposition format
0.0.4: legal metric names, every sample preceded by `# HELP`/`# TYPE`,
counters non-negative, histogram `_bucket` series cumulative/monotone and
ending in `+Inf`, with `_count` equal to the `+Inf` bucket. Every family
must also have a row of that type in the family table under DESIGN.md's
"### Prometheus exposition" heading (the catalogue `scripts/metric_table.sh`
checks against the code). Prints a one-line digest summary per request
class.
"""

import argparse
import json
import os
import re
import sys

KNOWN_PHASES = {"X", "i", "C", "M", "s", "t", "f"}
FLOW_PHASES = {"s", "t", "f"}

METRIC_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r" (?P<value>[^ ]+)$"
)


def fail(lineno, msg, line=""):
    print(f"check_trace: line {lineno}: {msg}", file=sys.stderr)
    if line:
        print(f"  {line.rstrip()}", file=sys.stderr)
    sys.exit(1)


def check_event(lineno, line, ev):
    if not isinstance(ev, dict):
        fail(lineno, "event is not a JSON object", line)
    for key in ("name", "cat"):
        if not isinstance(ev.get(key), str) or not ev[key]:
            fail(lineno, f"`{key}` must be a non-empty string", line)
    ph = ev.get("ph")
    if ph not in KNOWN_PHASES:
        fail(lineno, f"unknown phase {ph!r} (expected one of {sorted(KNOWN_PHASES)})", line)
    ts = ev.get("ts")
    if not isinstance(ts, (int, float)) or ts < 0:
        fail(lineno, "`ts` must be a non-negative number (microseconds)", line)
    for key in ("pid", "tid"):
        if not isinstance(ev.get(key), int):
            fail(lineno, f"`{key}` must be an integer", line)
    if not isinstance(ev.get("args"), dict):
        fail(lineno, "`args` must be an object", line)
    if ph == "X":
        dur = ev.get("dur")
        if not isinstance(dur, (int, float)) or dur < 0:
            fail(lineno, "complete event needs a non-negative `dur`", line)
    if ph == "i" and ev.get("s") not in ("t", "p", "g"):
        fail(lineno, "instant event needs scope `s` in {t,p,g}", line)
    if ph in FLOW_PHASES and not isinstance(ev.get("id"), int):
        fail(lineno, "flow event needs an integer `id`", line)


def check_flows(events):
    """Reassemble causal trees: one rooted span tree per trace_id, plus
    flow-record consistency. Events arrive already shape-checked.

    Spans close leaf-first, so a *complete* trace (its root span present)
    must resolve every parent and have exactly one root. A trace whose
    root is still open — a flight-recorder dump taken mid-request is the
    normal case — has no root span yet and its closed spans may point at
    open ancestors; those traces are classified in-flight and only
    checked for internal consistency (unique span ids, at most one
    root)."""
    # trace_id -> {span_id: parent_id} for Complete spans carrying ctx.
    spans = {}
    for ev in events:
        if ev["ph"] != "X":
            continue
        args = ev["args"]
        trace = args.get("trace_id")
        span = args.get("span_id")
        if trace is None or span is None:
            continue
        parent = args.get("parent_id", 0)
        if span in spans.setdefault(trace, {}):
            fail(0, f"trace {trace}: span_id {span} appears on two spans")
        spans[trace][span] = parent

    if not spans:
        fail(0, "--flows: no spans carry a trace_id (tracing not enabled?)")

    complete, open_traces = 0, 0
    for trace, tree in sorted(spans.items()):
        roots = [s for s, p in tree.items() if p == 0]
        if len(roots) > 1:
            fail(0, f"trace {trace}: expected at most one root span, got {len(roots)}")
        if not roots:
            open_traces += 1
            continue
        complete += 1
        for span, parent in tree.items():
            if parent != 0 and parent not in tree:
                fail(0, f"trace {trace}: span {span} has unresolvable parent {parent}")

    # Point events (instants/counters) of complete traces must name a
    # parent span inside their trace.
    orphan_points = 0
    for ev in events:
        if ev["ph"] not in ("i", "C"):
            continue
        args = ev["args"]
        trace, parent = args.get("trace_id"), args.get("parent_id", 0)
        if trace is None or parent == 0:
            continue
        tree = spans.get(trace, {})
        if not any(p == 0 for p in tree.values()):
            continue  # in-flight trace: the parent may still be open
        if parent not in tree:
            orphan_points += 1
    if orphan_points:
        fail(0, f"--flows: {orphan_points} point events name a parent span outside their trace")

    # Flow records: every id opens with exactly one "s"; "t"/"f" only
    # refer to opened ids.
    opened = {}
    for ev in events:
        if ev["ph"] == "s":
            opened[ev["id"]] = opened.get(ev["id"], 0) + 1
    for fid, n in opened.items():
        if n != 1:
            fail(0, f"--flows: flow id {fid} opened {n} times (expected one `s`)")
    for ev in events:
        if ev["ph"] in ("t", "f") and ev["id"] not in opened:
            fail(0, f"--flows: flow phase {ev['ph']!r} id {ev['id']} never opened with `s`")

    total = sum(len(tree) for tree in spans.values())
    print(
        f"check_trace: flows OK — {complete} complete trees, {open_traces} in-flight, "
        f"{total} spans, {len(opened)} flow ids"
    )


def prom_fail(lineno, msg, line=""):
    print(f"check_trace: prom line {lineno}: {msg}", file=sys.stderr)
    if line:
        print(f"  {line.rstrip()}", file=sys.stderr)
    sys.exit(1)


DESIGN_MD = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "DESIGN.md")
CATALOGUE_ROW_RE = re.compile(r"^\| `(fbf_[a-z0-9_]+)` \| (\w+)")


def family_catalogue():
    """Family name -> type, from the table under DESIGN.md's
    "### Prometheus exposition" heading (the rows metric_table.sh reads)."""
    catalogue = {}
    section = False
    with open(DESIGN_MD, encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("### Prometheus exposition"):
                section = True
            elif line.startswith("#"):
                section = False
            elif section and (m := CATALOGUE_ROW_RE.match(line)):
                catalogue[m.group(1)] = m.group(2)
    if not catalogue:
        prom_fail(0, f"no metric family table in {DESIGN_MD}")
    return catalogue


def check_prom(path):
    """Validate a Prometheus text-exposition snapshot; return parsed samples."""
    catalogue = family_catalogue()
    declared_type = {}  # base metric name -> type from `# TYPE`
    samples = []  # (lineno, name, labels-dict, value)
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            if line.startswith("# HELP ") or line.startswith("# TYPE "):
                parts = line.split(" ", 3)
                if len(parts) < 4 or not METRIC_NAME_RE.match(parts[2]):
                    prom_fail(lineno, "malformed HELP/TYPE line", line)
                if parts[1] == "TYPE":
                    if parts[3] not in ("counter", "gauge", "histogram"):
                        prom_fail(lineno, f"unknown metric type {parts[3]!r}", line)
                    listed = catalogue.get(parts[2])
                    if listed is None:
                        prom_fail(lineno, f"family {parts[2]} is not in DESIGN.md's table", line)
                    if listed != parts[3]:
                        prom_fail(lineno, f"family {parts[2]} is a {listed} in DESIGN.md", line)
                    declared_type[parts[2]] = parts[3]
                continue
            if line.startswith("#"):
                continue
            m = SAMPLE_RE.match(line)
            if not m:
                prom_fail(lineno, "unparseable sample line", line)
            labels = {}
            for item in filter(None, (m.group("labels") or "").split(",")):
                key, _, raw = item.partition("=")
                if not raw.startswith('"') or not raw.endswith('"'):
                    prom_fail(lineno, f"unquoted label value in {item!r}", line)
                labels[key] = raw[1:-1]
            try:
                value = float(m.group("value"))
            except ValueError:
                prom_fail(lineno, f"non-numeric sample value {m.group('value')!r}", line)
            samples.append((lineno, m.group("name"), labels, value))

    if not samples:
        prom_fail(0, "snapshot has no samples")

    histogram_buckets = {}  # (base, frozenset(non-le labels)) -> [(le, value)]
    counts = {}
    for lineno, name, labels, value in samples:
        base = name
        for suffix in ("_bucket", "_sum", "_count"):
            if name.endswith(suffix) and name[: -len(suffix)] in declared_type:
                base = name[: -len(suffix)]
                break
        mtype = declared_type.get(base)
        if mtype is None:
            prom_fail(lineno, f"sample {name!r} has no preceding # TYPE")
        if mtype == "counter" and value < 0:
            prom_fail(lineno, f"counter {name} is negative ({value})")
        if name.endswith("_bucket"):
            le = labels.get("le")
            if le is None:
                prom_fail(lineno, f"{name} bucket without `le` label")
            key = (base, frozenset((k, v) for k, v in labels.items() if k != "le"))
            histogram_buckets.setdefault(key, []).append(
                (float("inf") if le == "+Inf" else float(le), value)
            )
        if name.endswith("_count"):
            key = (base, frozenset(labels.items()))
            counts[key] = (lineno, value)

    for (base, labelset), buckets in histogram_buckets.items():
        les = [le for le, _ in buckets]
        if les != sorted(les):
            prom_fail(0, f"{base}{dict(labelset)}: bucket `le` bounds not ascending")
        values = [v for _, v in buckets]
        if values != sorted(values):
            prom_fail(0, f"{base}{dict(labelset)}: cumulative buckets not monotone")
        if les[-1] != float("inf"):
            prom_fail(0, f"{base}{dict(labelset)}: missing +Inf bucket")
        lineno_count = counts.get((base, labelset))
        if lineno_count is None:
            prom_fail(0, f"{base}{dict(labelset)}: histogram without _count")
        if lineno_count[1] != values[-1]:
            prom_fail(
                lineno_count[0],
                f"{base}{dict(labelset)}: _count {lineno_count[1]} != +Inf bucket {values[-1]}",
            )

    by_class = {}
    for _, name, labels, value in samples:
        if name == "fbf_read_latency_seconds_count":
            by_class.setdefault(labels.get("class", "?"), {})["count"] = value
        if name == "fbf_read_latency_p99_seconds":
            by_class.setdefault(labels.get("class", "?"), {})["p99"] = value
    for cls in sorted(by_class):
        d = by_class[cls]
        print(
            f"check_trace: prom class {cls}: n={int(d.get('count', 0))}"
            f" p99={d.get('p99', 0.0) * 1e3:.3f}ms"
        )
    print(
        f"check_trace: prom OK — {len(samples)} samples, "
        f"{len(declared_type)} metrics, {len(histogram_buckets)} histogram series"
    )


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("trace", nargs="?", help="JSONL trace emitted via --trace")
    ap.add_argument("--chrome", metavar="OUT", help="write a chrome://tracing JSON array file")
    ap.add_argument("--prom", metavar="METRICS", help="validate a Prometheus snapshot too")
    ap.add_argument(
        "--flows",
        action="store_true",
        help="validate causal trees: one root per trace_id, resolvable parents, flow records",
    )
    opts = ap.parse_args()

    if opts.prom:
        check_prom(opts.prom)
    if not opts.trace:
        if not opts.prom:
            ap.error("need a trace file, --prom, or both")
        return

    events = []
    counts = {}
    with open(opts.trace, encoding="utf-8") as fh:
        lineno = 0
        for lineno, line in enumerate(fh, start=1):
            if not line.endswith("\n"):
                fail(lineno, "unterminated final line (trace not flushed?)", line)
            try:
                ev = json.loads(line)
            except json.JSONDecodeError as e:
                fail(lineno, f"not valid JSON: {e}", line)
            check_event(lineno, line, ev)
            events.append(ev)
            counts[ev["ph"]] = counts.get(ev["ph"], 0) + 1
    if not events:
        fail(0, "trace is empty")
    if counts.get("M", 0) == 0:
        fail(1, "missing process_name metadata event")

    summary = ", ".join(f"{n} {ph}" for ph, n in sorted(counts.items()))
    print(f"check_trace: OK — {len(events)} events ({summary})")

    if opts.flows:
        check_flows(events)

    if opts.chrome:
        with open(opts.chrome, "w", encoding="utf-8") as out:
            json.dump({"traceEvents": events}, out)
            out.write("\n")
        print(f"check_trace: chrome://tracing file written to {opts.chrome}")


if __name__ == "__main__":
    main()
