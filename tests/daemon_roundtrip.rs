//! In-process round trip through the repair daemon's wire protocol.
//!
//! Serves on a throwaway unix socket, drives it with [`DaemonClient`]
//! exactly like `fbf client` does, and checks that a repair job's
//! metrics match a local run of the same configuration — the daemon is
//! a transport, not a different executor. Also pins the lifecycle
//! details a deployment depends on: protocol/schema versions in every
//! reply, job state transitions, chunk reads with digests, Prometheus
//! exposition, and a clean shutdown that removes the socket file.

use fbf::disksim::DiskKill;
use fbf::{
    run_experiment, DaemonClient, DaemonOptions, ExperimentConfig, FaultPlan, Json, ServerAddr,
    SimTime, METRICS_SCHEMA_VERSION,
};
use std::io::Write;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

fn sock_addr(tag: &str) -> ServerAddr {
    ServerAddr::Unix(
        std::env::temp_dir().join(format!("fbf-test-{tag}-{}.sock", std::process::id())),
    )
}

fn small_config_json() -> Json {
    Json::obj([
        ("chunk_kb", Json::Num(1.0)),
        ("cache_mb", Json::Num(1.0)),
        ("stripes", Json::Num(128.0)),
        ("errors", Json::Num(32.0)),
        ("workers", Json::Num(8.0)),
        ("gen_threads", Json::Num(1.0)),
    ])
}

fn small_config() -> ExperimentConfig {
    ExperimentConfig::builder()
        .chunk_kb(1)
        .cache_mb(1)
        .stripes(128)
        .error_count(32)
        .workers(8)
        .gen_threads(1)
        .obs(true)
        .build()
        .unwrap()
}

/// Poll `status` until the job settles, with a wall-clock guard so a
/// daemon bug fails the test instead of hanging it.
fn wait_done(client: &mut DaemonClient, job: u64) -> Json {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let status = client
            .call(&Json::obj([
                ("cmd", Json::Str("status".into())),
                ("job", Json::Num(job as f64)),
            ]))
            .expect("status call");
        match status.get("state").and_then(Json::as_str) {
            Some("done") | Some("failed") => return status,
            Some(_) if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(20)),
            other => panic!("job {job} stuck or malformed: {other:?}"),
        }
    }
}

#[test]
fn repair_over_the_wire_matches_a_local_run() {
    let addr = sock_addr("roundtrip");
    let handle = fbf::serve(
        &addr,
        DaemonOptions {
            workers: 2,
            ..Default::default()
        },
    )
    .expect("serve");
    let mut client = DaemonClient::connect(&addr).expect("connect");

    // Ping: protocol + schema versions are in every reply.
    let pong = client
        .call(&Json::obj([("cmd", Json::Str("ping".into()))]))
        .expect("ping");
    assert_eq!(pong.get("ok").and_then(Json::as_bool), Some(true));
    assert_eq!(
        pong.get("schema_version").and_then(Json::as_u64),
        Some(METRICS_SCHEMA_VERSION)
    );

    // Submit a sim-backend repair and wait for it.
    let reply = client
        .call(&Json::obj([
            ("cmd", Json::Str("repair".into())),
            ("backend", Json::Str("sim".into())),
            ("config", small_config_json()),
        ]))
        .expect("repair");
    assert_eq!(
        reply.get("ok").and_then(Json::as_bool),
        Some(true),
        "{}",
        reply.render()
    );
    let job = reply.get("job").and_then(Json::as_u64).expect("job id");
    let status = wait_done(&mut client, job);
    assert_eq!(
        status.get("state").and_then(Json::as_str),
        Some("done"),
        "{}",
        status.render()
    );

    // The daemon is a transport: same config locally gives the same
    // deterministic counters.
    let local = run_experiment(&small_config()).expect("local run");
    let metrics = status.get("metrics").expect("done status carries metrics");
    assert_eq!(
        metrics.get("disk_reads").and_then(Json::as_u64),
        Some(local.disk_reads)
    );
    assert_eq!(
        metrics.get("chunks_recovered").and_then(Json::as_u64),
        Some(local.chunks_recovered as u64)
    );
    assert_eq!(
        metrics.get("schema_version").and_then(Json::as_u64),
        Some(METRICS_SCHEMA_VERSION)
    );

    // The sim job retains its backend: chunk reads come back with a
    // digest and a consistent length.
    let read = client
        .call(&Json::obj([
            ("cmd", Json::Str("read".into())),
            ("job", Json::Num(job as f64)),
            ("stripe", Json::Num(0.0)),
            ("row", Json::Num(0.0)),
            ("col", Json::Num(0.0)),
        ]))
        .expect("read");
    assert_eq!(
        read.get("ok").and_then(Json::as_bool),
        Some(true),
        "{}",
        read.render()
    );
    assert_eq!(read.get("len").and_then(Json::as_u64), Some(1024));
    let digest = read.get("fnv1a").and_then(Json::as_str).expect("digest");
    assert_eq!(digest.len(), 16, "fixed-width hex digest, got {digest}");

    // Jobs listing knows about it; metrics exposition parses as text.
    let jobs = client
        .call(&Json::obj([("cmd", Json::Str("jobs".into()))]))
        .expect("jobs");
    assert_eq!(
        jobs.get("jobs").and_then(Json::as_arr).map(<[Json]>::len),
        Some(1)
    );
    let prom = client
        .call(&Json::obj([("cmd", Json::Str("metrics".into()))]))
        .expect("metrics");
    let text = prom
        .get("prometheus")
        .and_then(Json::as_str)
        .expect("prom text");
    assert!(text.contains("fbf_disk_reads_total"), "{text}");

    // Unknown config keys are rejected, not silently defaulted.
    let bad = client
        .call(&Json::obj([
            ("cmd", Json::Str("repair".into())),
            ("backend", Json::Str("sim".into())),
            ("config", Json::obj([("cache_gb", Json::Num(1.0))])),
        ]))
        .expect("bad repair transport");
    assert_eq!(bad.get("ok").and_then(Json::as_bool), Some(false));

    // Shutdown: daemon acks, the accept loop drains, the socket file
    // disappears with it.
    let ack = client
        .call(&Json::obj([("cmd", Json::Str("shutdown".into()))]))
        .expect("shutdown");
    assert_eq!(ack.get("ok").and_then(Json::as_bool), Some(true));
    handle.wait();
    if let ServerAddr::Unix(path) = &addr {
        assert!(!path.exists(), "socket file must be cleaned up");
    }
}

/// `Write` sink whose bytes stay inspectable after the writer is
/// consumed by [`fbf::obs::TraceWriter::from_writer`].
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

#[test]
fn repair_spans_reassemble_into_one_rooted_trace_tree() {
    // Capture the process-wide event stream before serving: the daemon
    // sees a subscriber already installed and skips its own bridge, so
    // every span of the repair lands in this buffer.
    let buf = SharedBuf::default();
    fbf::obs::install(Arc::new(fbf::obs::TraceWriter::from_writer(Box::new(
        buf.clone(),
    ))));
    let addr = sock_addr("tracetree");
    let handle = fbf::serve(
        &addr,
        DaemonOptions {
            workers: 1,
            ..Default::default()
        },
    )
    .expect("serve");
    let mut client = DaemonClient::connect(&addr).expect("connect");

    // Stamp the request with a client-minted trace id; the daemon must
    // adopt it (and echo it) rather than minting its own.
    let trace_id = 424_242u64;
    let reply = client
        .call(&Json::obj([
            ("cmd", Json::Str("repair".into())),
            ("config", small_config_json()),
            ("trace_id", Json::Num(trace_id as f64)),
        ]))
        .expect("repair");
    assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(true));
    assert_eq!(
        reply.get("trace").and_then(Json::as_u64),
        Some(trace_id),
        "daemon adopts the request's trace id: {}",
        reply.render()
    );
    let job = reply.get("job").and_then(Json::as_u64).expect("job id");
    let status = wait_done(&mut client, job);
    assert_eq!(status.get("state").and_then(Json::as_str), Some("done"));

    let _ = client.call(&Json::obj([("cmd", Json::Str("shutdown".into()))]));
    handle.wait();
    fbf::obs::uninstall();

    // Reassemble the request's causal tree from the JSONL stream.
    let text = String::from_utf8(buf.0.lock().unwrap().clone()).expect("trace is UTF-8");
    let arg = |ev: &Json, key: &str| {
        ev.get("args")
            .and_then(|a| a.get(key))
            .and_then(Json::as_u64)
    };
    let mut spans = std::collections::BTreeMap::new(); // span_id -> (name, parent_id)
    let mut points = Vec::new(); // (name, parent_id) of instants/counters
    let mut flow_opens = std::collections::BTreeMap::new(); // flow id -> count of `s`
    let mut flow_steps = 0usize;
    for line in text.lines() {
        let ev = Json::parse(line).unwrap_or_else(|e| panic!("bad trace line: {e}: {line}"));
        let ph = ev.get("ph").and_then(Json::as_str).unwrap_or("");
        if ph == "s" || ph == "t" {
            if arg(&ev, "trace_id") == Some(trace_id) {
                let id = ev.get("id").and_then(Json::as_u64).expect("flow id");
                if ph == "s" {
                    *flow_opens.entry(id).or_insert(0u32) += 1;
                } else {
                    flow_steps += 1;
                }
            }
            continue;
        }
        if arg(&ev, "trace_id") != Some(trace_id) {
            continue;
        }
        let name = ev
            .get("name")
            .and_then(Json::as_str)
            .unwrap_or("")
            .to_string();
        let parent = arg(&ev, "parent_id").unwrap_or(0);
        match ph {
            "X" => {
                let span = arg(&ev, "span_id").expect("spans carry span_id");
                assert!(
                    spans.insert(span, (name, parent)).is_none(),
                    "span ids are unique within a trace"
                );
            }
            "i" | "C" => points.push((name, parent)),
            other => panic!("unexpected phase {other:?} inside a trace: {line}"),
        }
    }

    // Exactly one root — the daemon's request span — and every other
    // span (and every point event) hangs off a resolvable parent.
    let roots: Vec<_> = spans
        .iter()
        .filter(|(_, (_, parent))| *parent == 0)
        .collect();
    assert_eq!(roots.len(), 1, "one root per request, got {roots:?}");
    assert_eq!(roots[0].1 .0, "repair", "the root is the daemon span");
    assert!(
        spans.len() >= 3,
        "plan and simulate spans nest under the root: {spans:?}"
    );
    for (span, (name, parent)) in &spans {
        if *parent != 0 {
            assert!(
                spans.contains_key(parent),
                "span {span} ({name}) has unresolvable parent {parent}"
            );
        }
    }
    for (name, parent) in &points {
        assert!(
            *parent != 0 && spans.contains_key(parent),
            "point event {name} must attach to a span of its trace"
        );
    }
    // Flow records agree with the tree: every span opened its flow
    // exactly once, and each non-root span stepped its parent's flow.
    for span in spans.keys() {
        assert_eq!(flow_opens.get(span), Some(&1), "span {span} opens one flow");
    }
    assert_eq!(
        flow_steps,
        spans.len() - 1,
        "one parent step per child span"
    );
}

#[test]
fn daemon_rejects_malformed_and_oversized_requests_gracefully() {
    let addr = sock_addr("reject");
    let handle = fbf::serve(
        &addr,
        DaemonOptions {
            workers: 1,
            ..Default::default()
        },
    )
    .expect("serve");
    let mut client = DaemonClient::connect(&addr).expect("connect");

    // Unknown command: structured error, connection stays usable.
    let err = client
        .call(&Json::obj([("cmd", Json::Str("frobnicate".into()))]))
        .expect("unknown cmd transport");
    assert_eq!(err.get("ok").and_then(Json::as_bool), Some(false));
    assert!(err.get("error").and_then(Json::as_str).is_some());
    let pong = client
        .call(&Json::obj([("cmd", Json::Str("ping".into()))]))
        .expect("connection survives an error reply");
    assert_eq!(pong.get("ok").and_then(Json::as_bool), Some(true));

    // status for a job that never existed.
    let missing = client
        .call(&Json::obj([
            ("cmd", Json::Str("status".into())),
            ("job", Json::Num(999.0)),
        ]))
        .expect("missing job transport");
    assert_eq!(missing.get("ok").and_then(Json::as_bool), Some(false));

    // Numbers that do not fit their field are typed errors, never a
    // truncation onto some other experiment (4294967301 used to become
    // 5 stripes; a 2^54 MiB cache used to overflow inside validate()).
    let num = Json::Num;
    let out_of_range = [
        (
            "repair",
            "config",
            Json::obj([("stripes", num(4294967301.0))]),
        ),
        (
            "repair",
            "config",
            Json::obj([("cache_mb", num(2f64.powi(54)))]),
        ),
        (
            "repair",
            "config",
            Json::obj([("kill", "3@18446744073709551615".into())]),
        ),
        ("repair", "config", Json::obj([("workers", num(1.5))])),
        ("rebuild", "disks", num(24.5)),
        ("rebuild", "disks", "4x".into()),
        // Fits a usize, but per-disk vectors of 2^53 entries used to abort
        // the process in the scheduler's allocation.
        ("rebuild", "disks", num(9007199254740992.0)),
        ("rebuild", "failed_disk", num(-1.0)),
        ("rebuild", "cap", num(4294967296.0)),
        ("rebuild", "campaigns", num(0.5)),
        ("rebuild", "app_reads", num(1e300)),
        ("rebuild", "placement_seed", num(-3.0)),
        ("read", "stripe", num(4294967296.0)),
    ];
    for (cmd, field, value) in out_of_range {
        let mut fields = vec![("cmd", Json::from(cmd)), (field, value)];
        if cmd == "read" {
            fields.extend([("job", num(1.0)), ("row", num(0.0)), ("col", num(0.0))]);
        }
        let request = Json::obj(fields);
        let reply = client.call(&request).expect("out-of-range transport");
        assert_eq!(
            reply.get("ok").and_then(Json::as_bool),
            Some(false),
            "{} -> {}",
            request.render(),
            reply.render()
        );
    }

    // A frame nested past the parser's cap: an error reply, where it
    // used to overflow the connection thread's stack and abort the
    // process. Sent raw — a `Json` value that deep cannot be built.
    let ServerAddr::Unix(path) = &addr else {
        unreachable!("sock_addr is a unix socket");
    };
    let stop = std::sync::atomic::AtomicBool::new(false);
    let mut raw = std::os::unix::net::UnixStream::connect(path).expect("raw connect");
    fbf::core::daemon::write_frame(&mut raw, &"[".repeat(200_000)).expect("deep frame");
    let reply = fbf::core::daemon::read_frame(&mut raw, &stop)
        .expect("reply to the deep frame")
        .expect("a frame, not a hang-up");
    let reply = Json::parse(&reply).expect("reply parses");
    assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(false));
    let error = reply.get("error").and_then(Json::as_str).unwrap_or("");
    assert!(error.contains("nesting"), "{error}");
    drop(raw);
    let pong = DaemonClient::connect(&addr)
        .expect("fresh connection after the deep frame")
        .call(&Json::obj([("cmd", Json::Str("ping".into()))]))
        .expect("the daemon is still alive");
    assert_eq!(pong.get("ok").and_then(Json::as_bool), Some(true));

    let _ = client.call(&Json::obj([("cmd", Json::Str("shutdown".into()))]));
    handle.wait();
}

/// Fault keys go through the same `set` as every other key, so a faulted
/// repair over the wire is the faulted run a local caller gets.
#[test]
fn faulted_repair_over_the_wire_matches_a_local_run() {
    let addr = sock_addr("faulted");
    let handle = fbf::serve(&addr, DaemonOptions::default()).expect("serve");
    let mut client = DaemonClient::connect(&addr).expect("connect");

    let Json::Obj(mut config) = small_config_json() else {
        unreachable!("small_config_json is an object");
    };
    config.insert("media".into(), Json::Num(15.0));
    config.insert("transient".into(), Json::Num(40.0));
    config.insert("fault_seed".into(), Json::Num(7.0));
    config.insert("kill".into(), "3@40".into());
    let reply = client
        .call(&Json::obj([
            ("cmd", Json::Str("repair".into())),
            ("config", Json::Obj(config)),
        ]))
        .expect("repair");
    let job = reply
        .get("job")
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("no job: {}", reply.render()));
    let status = wait_done(&mut client, job);
    assert_eq!(
        status.get("state").and_then(Json::as_str),
        Some("done"),
        "{}",
        status.render()
    );

    let mut local_cfg = small_config();
    local_cfg.faults = FaultPlan {
        seed: 7,
        media_per_mille: 15,
        transient_per_mille: 40,
        disk_kill: Some(DiskKill {
            disk: 3,
            at: SimTime::from_millis(40),
        }),
        ..FaultPlan::none()
    };
    let local = run_experiment(&local_cfg).expect("local run");
    assert!(local.faults.media_errors > 0 && local.replans > 0);
    assert_eq!(status.get("metrics"), Some(&local.to_json_value()));

    let _ = client.call(&Json::obj([("cmd", Json::Str("shutdown".into()))]));
    handle.wait();
}

#[test]
fn retention_cap_evicts_the_oldest_resident_backend() {
    let addr = sock_addr("retain");
    let handle = fbf::serve(
        &addr,
        DaemonOptions {
            workers: 1,
            retain: 1,
        },
    )
    .expect("serve");
    let mut client = DaemonClient::connect(&addr).expect("connect");

    // Two sim-backend repairs: both retain a backend on completion, but
    // with `retain: 1` the first job's backend must be evicted when the
    // second finishes.
    let mut jobs = Vec::new();
    for seed in [1u64, 2] {
        let cfg = Json::obj([
            ("chunk_kb", Json::Num(1.0)),
            ("cache_mb", Json::Num(1.0)),
            ("stripes", Json::Num(128.0)),
            ("errors", Json::Num(32.0)),
            ("workers", Json::Num(8.0)),
            ("gen_threads", Json::Num(1.0)),
            ("seed", Json::Num(seed as f64)),
        ]);
        let reply = client
            .call(&Json::obj([
                ("cmd", Json::Str("repair".into())),
                ("backend", Json::Str("sim".into())),
                ("config", cfg),
            ]))
            .expect("repair");
        assert_eq!(
            reply.get("ok").and_then(Json::as_bool),
            Some(true),
            "{}",
            reply.render()
        );
        jobs.push(reply.get("job").and_then(Json::as_u64).expect("job id"));
    }
    for &job in &jobs {
        let status = wait_done(&mut client, job);
        assert_eq!(status.get("state").and_then(Json::as_str), Some("done"));
    }

    let read = |client: &mut DaemonClient, job: u64| {
        client
            .call(&Json::obj([
                ("cmd", Json::Str("read".into())),
                ("job", Json::Num(job as f64)),
                ("stripe", Json::Num(0.0)),
                ("row", Json::Num(0.0)),
                ("col", Json::Num(0.0)),
            ]))
            .expect("read")
    };
    // Oldest job: backend gone, and the error says why (eviction, not a
    // missing job or a never-retained backend).
    let evicted = read(&mut client, jobs[0]);
    assert_eq!(
        evicted.get("ok").and_then(Json::as_bool),
        Some(false),
        "{}",
        evicted.render()
    );
    let msg = evicted.get("error").and_then(Json::as_str).unwrap_or("");
    assert!(msg.contains("evicted"), "error names the eviction: {msg}");
    // Newest job: still resident and readable.
    let live = read(&mut client, jobs[1]);
    assert_eq!(
        live.get("ok").and_then(Json::as_bool),
        Some(true),
        "{}",
        live.render()
    );

    // The leak-check gauge agrees: exactly one backend is resident.
    let prom = client
        .call(&Json::obj([("cmd", Json::Str("metrics".into()))]))
        .expect("metrics");
    let text = prom
        .get("prometheus")
        .and_then(Json::as_str)
        .expect("prom text");
    assert!(
        text.lines().any(|l| l.trim() == "fbf_backends_retained 1"),
        "gauge must report one resident backend:\n{text}"
    );

    let _ = client.call(&Json::obj([("cmd", Json::Str("shutdown".into()))]));
    handle.wait();
}

#[test]
#[cfg_attr(
    not(debug_assertions),
    ignore = "the daemon's `panic` backend seam exists only in debug builds"
)]
fn panicking_job_fails_cleanly_without_killing_the_worker() {
    let addr = sock_addr("panic");
    let handle = fbf::serve(
        &addr,
        DaemonOptions {
            workers: 1,
            ..Default::default()
        },
    )
    .expect("serve");
    let mut client = DaemonClient::connect(&addr).expect("connect");

    // The debug-only `panic` backend makes the worker thread panic
    // mid-job. The daemon must convert that into a `failed` job instead
    // of silently leaking a `running` entry (gauge drift) and a dead
    // worker.
    let reply = client
        .call(&Json::obj([
            ("cmd", Json::Str("repair".into())),
            ("backend", Json::Str("panic".into())),
            ("config", small_config_json()),
        ]))
        .expect("repair");
    assert_eq!(
        reply.get("ok").and_then(Json::as_bool),
        Some(true),
        "{}",
        reply.render()
    );
    let job = reply.get("job").and_then(Json::as_u64).expect("job id");
    let status = wait_done(&mut client, job);
    assert_eq!(
        status.get("state").and_then(Json::as_str),
        Some("failed"),
        "{}",
        status.render()
    );
    let msg = status.get("error").and_then(Json::as_str).unwrap_or("");
    assert!(msg.contains("panicked"), "error names the panic: {msg}");

    // The single worker survived: a normal job still completes.
    let reply = client
        .call(&Json::obj([
            ("cmd", Json::Str("repair".into())),
            ("backend", Json::Str("sim".into())),
            ("config", small_config_json()),
        ]))
        .expect("repair after panic");
    let job = reply.get("job").and_then(Json::as_u64).expect("job id");
    let status = wait_done(&mut client, job);
    assert_eq!(status.get("state").and_then(Json::as_str), Some("done"));

    // No gauge drift: the panicked job counts as failed, not running.
    let prom = client
        .call(&Json::obj([("cmd", Json::Str("metrics".into()))]))
        .expect("metrics");
    let text = prom
        .get("prometheus")
        .and_then(Json::as_str)
        .expect("prom text");
    for line in [
        "fbf_jobs_total{state=\"failed\"} 1",
        "fbf_jobs_total{state=\"running\"} 0",
    ] {
        assert!(
            text.lines().any(|l| l.trim() == line),
            "expected `{line}` in:\n{text}"
        );
    }

    let _ = client.call(&Json::obj([("cmd", Json::Str("shutdown".into()))]));
    handle.wait();
}

#[test]
fn rebuild_job_over_the_wire_reports_the_campaign() {
    let addr = sock_addr("rebuild");
    let handle = fbf::serve(
        &addr,
        DaemonOptions {
            workers: 1,
            ..Default::default()
        },
    )
    .expect("serve");
    let mut client = DaemonClient::connect(&addr).expect("connect");

    let reply = client
        .call(&Json::obj([
            ("cmd", Json::Str("rebuild".into())),
            ("config", small_config_json()),
            ("disks", Json::Num(24.0)),
            ("fairness", Json::Str("drr".into())),
        ]))
        .expect("rebuild");
    assert_eq!(
        reply.get("ok").and_then(Json::as_bool),
        Some(true),
        "{}",
        reply.render()
    );
    let job = reply.get("job").and_then(Json::as_u64).expect("job id");
    let status = wait_done(&mut client, job);
    assert_eq!(
        status.get("state").and_then(Json::as_str),
        Some("done"),
        "{}",
        status.render()
    );
    let rebuild = status
        .get("rebuild")
        .expect("done rebuild status carries the outcome");
    assert_eq!(
        rebuild.get("placement").and_then(Json::as_str),
        Some("declustered")
    );
    assert_eq!(
        rebuild.get("fairness").and_then(Json::as_str),
        Some("deficit-weighted")
    );
    assert!(rebuild.get("waves").and_then(Json::as_u64).unwrap_or(0) >= 1);
    assert!(rebuild.get("rebuild_skew").is_some(), "{}", status.render());
    let affected = rebuild
        .get("stripes_affected")
        .and_then(Json::as_u64)
        .expect("affected count");
    assert_eq!(
        rebuild.get("stripes_rebuilt").and_then(Json::as_u64),
        Some(affected),
        "no faults: every affected stripe is rebuilt"
    );

    // Bad placement names are rejected up front, not queued.
    let bad = client
        .call(&Json::obj([
            ("cmd", Json::Str("rebuild".into())),
            ("config", small_config_json()),
            ("placement", Json::Str("striped".into())),
        ]))
        .expect("bad rebuild transport");
    assert_eq!(bad.get("ok").and_then(Json::as_bool), Some(false));

    let _ = client.call(&Json::obj([("cmd", Json::Str("shutdown".into()))]));
    handle.wait();
}
