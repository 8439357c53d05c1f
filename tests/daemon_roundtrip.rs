//! In-process round trip through the repair daemon's wire protocol.
//!
//! Serves on a throwaway unix socket, drives it with [`DaemonClient`]
//! exactly like `fbf client` does, and checks that a repair job's
//! metrics match a local run of the same configuration — the daemon is
//! a transport, not a different executor. Also pins the lifecycle
//! details a deployment depends on: protocol/schema versions in every
//! reply, job state transitions, chunk reads with digests, Prometheus
//! exposition, and a clean shutdown that removes the socket file.

use fbf::disksim::{DiskKill, EngineScratch};
use fbf::{
    run_experiment, DaemonClient, DaemonError, DaemonOptions, ExperimentConfig, FaultPlan, Json,
    Outcome, PlanStore, ServerAddr, SimTime, Work, METRICS_SCHEMA_VERSION,
};
use std::io::Write;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// A daemon on a throwaway unix socket, and a client connected to it.
fn start(tag: &str, opts: DaemonOptions) -> (ServerAddr, fbf::DaemonHandle, DaemonClient) {
    let name = format!("fbf-test-{tag}-{}.sock", std::process::id());
    let addr = ServerAddr::Unix(std::env::temp_dir().join(name));
    let handle = fbf::serve(&addr, opts).expect("serve");
    let client = DaemonClient::connect(&addr).expect("connect");
    (addr, handle, client)
}

/// One repair worker (the default is two), everything else default.
fn one_worker() -> DaemonOptions {
    DaemonOptions {
        workers: 1,
        ..Default::default()
    }
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

fn cmd(name: &str) -> Json {
    Json::obj([("cmd", name.into())])
}

/// [`DaemonClient::wait`] with a wall-clock guard so a daemon bug fails
/// the test instead of hanging it.
fn wait_done(client: &mut DaemonClient, job: u64) -> Result<Json, DaemonError> {
    let deadline = Instant::now() + Duration::from_secs(60);
    client.wait(job, Duration::from_millis(20), |_| {
        assert!(Instant::now() < deadline, "job {job} stuck");
    })
}

/// The reply of a request the daemon must refuse.
fn refused<T: std::fmt::Debug>(result: Result<T, DaemonError>) -> Json {
    match result {
        Err(DaemonError::Refused(reply)) => reply,
        other => panic!("expected an `ok: false` reply, got {other:?}"),
    }
}

fn read_chunk(client: &mut DaemonClient, job: u64) -> Result<Json, DaemonError> {
    client.request(&Json::obj([
        ("cmd", "read".into()),
        ("job", job.into()),
        ("stripe", 0u64.into()),
        ("row", 0u64.into()),
        ("col", 0u64.into()),
    ]))
}

fn prometheus(client: &mut DaemonClient) -> String {
    let reply = client.request(&cmd("metrics")).expect("metrics");
    let text = reply.get("prometheus").and_then(Json::as_str);
    text.expect("prom text").to_string()
}

fn shut_down(mut client: DaemonClient, handle: fbf::DaemonHandle) {
    client.request(&cmd("shutdown")).expect("shutdown ack");
    handle.wait();
}

#[test]
fn repair_over_the_wire_matches_a_local_run() {
    let (addr, handle, mut client) = start("roundtrip", DaemonOptions::default());

    // Ping: protocol + schema versions are in every reply.
    let pong = client.request(&cmd("ping")).expect("ping");
    assert_eq!(
        pong.get("schema_version").and_then(Json::as_u64),
        Some(METRICS_SCHEMA_VERSION)
    );

    // Submit a sim-backend repair and wait for it.
    let (job, _) = client
        .submit([
            ("cmd", "repair".into()),
            ("backend", "sim".into()),
            ("config", small_config_json()),
        ])
        .expect("repair");
    let status = wait_done(&mut client, job).expect("done");

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
    let read = read_chunk(&mut client, job).expect("read");
    assert_eq!(read.get("len").and_then(Json::as_u64), Some(1024));
    let digest = read.get("fnv1a").and_then(Json::as_str).expect("digest");
    assert_eq!(digest.len(), 16, "fixed-width hex digest, got {digest}");

    // Jobs listing knows about it; metrics exposition parses as text.
    let jobs = client.request(&cmd("jobs")).expect("jobs");
    assert_eq!(
        jobs.get("jobs").and_then(Json::as_arr).map(<[Json]>::len),
        Some(1)
    );
    let text = prometheus(&mut client);
    assert!(text.contains("fbf_disk_reads_total"), "{text}");

    // Unknown config keys are rejected, not silently defaulted.
    let bad = refused(client.submit([
        ("cmd", "repair".into()),
        ("backend", "sim".into()),
        ("config", Json::obj([("cache_gb", Json::Num(1.0))])),
    ]));
    assert!(bad.get("error").and_then(Json::as_str).is_some());

    // Shutdown: daemon acks, the accept loop drains, the socket file
    // disappears with it.
    shut_down(client, handle);
    if let ServerAddr::Unix(path) = &addr {
        assert!(!path.exists(), "socket file must be cleaned up");
    }
}

/// Serialises the tests that install the process-wide subscriber.
fn subscriber_gate() -> std::sync::MutexGuard<'static, ()> {
    static GATE: Mutex<()> = Mutex::new(());
    GATE.lock().unwrap_or_else(|p| p.into_inner())
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
    let _gate = subscriber_gate();
    // Capture the process-wide event stream: the daemon installs no
    // subscriber of its own, so every span of the repair lands in this
    // buffer.
    let buf = SharedBuf::default();
    fbf::obs::install(Arc::new(fbf::obs::TraceWriter::from_writer(Box::new(
        buf.clone(),
    ))));
    let (_, handle, mut client) = start("tracetree", one_worker());

    // Stamp the request with a client-minted trace id; the daemon must
    // adopt it (and echo it) rather than minting its own.
    let trace_id = 424_242u64;
    let (job, reply) = client
        .submit([
            ("cmd", "repair".into()),
            ("config", small_config_json()),
            ("trace_id", trace_id.into()),
        ])
        .expect("repair");
    assert_eq!(
        reply.get("trace").and_then(Json::as_u64),
        Some(trace_id),
        "daemon adopts the request's trace id: {}",
        reply.render()
    );
    wait_done(&mut client, job).expect("done");

    shut_down(client, handle);
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
fn subscribe_streams_a_repair_under_an_installed_trace_writer() {
    let _gate = subscriber_gate();
    // `subscribe` follows the flight recorder, so a subscriber installed
    // before serving (`fbf serve --trace`) does not silence the stream.
    fbf::obs::install(Arc::new(fbf::obs::TraceWriter::from_writer(Box::new(
        SharedBuf::default(),
    ))));
    let (addr, handle, mut client) = start("watch", one_worker());
    let mut watcher = DaemonClient::connect(&addr).expect("connect");
    let ack = watcher.request(&cmd("subscribe")).expect("subscribed");
    assert_eq!(ack.get("subscribed").and_then(Json::as_bool), Some(true));
    // Read on a thread, so a silent stream fails the deadline below
    // instead of hanging the test.
    let (lines, stream) = std::sync::mpsc::channel();
    let reader = std::thread::spawn(move || {
        while let Ok(Some(frame)) = watcher.recv() {
            let line = frame
                .get("event")
                .and_then(Json::as_str)
                .map(str::to_string);
            if lines.send(line.expect("event frames")).is_err() {
                return;
            }
        }
    });

    let trace_id = 515_151u64;
    let (job, _) = client
        .submit([
            ("cmd", "repair".into()),
            ("config", small_config_json()),
            ("trace_id", trace_id.into()),
        ])
        .expect("repair");
    wait_done(&mut client, job).expect("done");

    // Other tests' daemons record into the same process-wide recorder:
    // keep this request's events, in arrival order, through its end.
    let ours = format!("\"trace_id\":{trace_id},");
    let deadline = Instant::now() + Duration::from_secs(60);
    let mut names = Vec::new();
    while names.last().map(String::as_str) != Some("daemon/job-end") {
        let left = deadline.saturating_duration_since(Instant::now());
        let line = stream
            .recv_timeout(left)
            .unwrap_or_else(|e| panic!("stream stalled after {names:?}: {e}"));
        if !line.contains(&ours) {
            continue;
        }
        let ev = Json::parse(&line).expect("each event is one chrome line");
        let field = |key: &str| ev.get(key).and_then(Json::as_str).unwrap_or("").to_string();
        names.push(format!("{}/{}", field("cat"), field("name")));
    }
    shut_down(client, handle);
    fbf::obs::uninstall();
    reader
        .join()
        .expect("the stream ends when the daemon stops");

    assert_eq!(names[0], "daemon/job-start", "{names:?}");
    for event in ["plan/cold", "engine/run", "engine/cache", "runner/simulate"] {
        assert!(names.iter().any(|n| n == event), "{event} in {names:?}");
    }
}

#[test]
fn daemon_rejects_malformed_and_oversized_requests_gracefully() {
    let (addr, handle, mut client) = start("reject", one_worker());

    // Unknown command: structured error, connection stays usable.
    let err = refused(client.request(&cmd("frobnicate")));
    assert!(err.get("error").and_then(Json::as_str).is_some());
    client
        .request(&cmd("ping"))
        .expect("connection survives an error reply");

    // A job that never existed: a typed refusal from `status`, and from
    // `wait` too — it must not poll an id the daemon does not know.
    let status = Json::obj([("cmd", "status".into()), ("job", 999u64.into())]);
    refused(client.request(&status));
    let missing = refused(wait_done(&mut client, 999));
    assert_eq!(
        missing.get("error").and_then(Json::as_str),
        Some("no such job 999")
    );

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
        // More errors than stripes to put them on used to be accepted and
        // then panic the job inside the generator.
        (
            "repair",
            "config",
            Json::obj([("stripes", num(4.0)), ("errors", num(9.0))]),
        ),
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
        match client.request(&request) {
            Err(DaemonError::Refused(_)) => {}
            other => panic!("{} -> {other:?}", request.render()),
        }
    }
    // Every one was refused at submit: none became a job.
    let jobs = client.request(&cmd("jobs")).expect("jobs");
    let jobs = jobs.get("jobs").and_then(Json::as_arr).expect("a job list");
    assert!(jobs.is_empty(), "{jobs:?}");

    // A frame nested past the parser's cap: an error reply, where it
    // used to overflow the connection thread's stack and abort the
    // process. Sent raw — a `Json` value that deep cannot be built.
    let ServerAddr::Unix(path) = &addr else {
        unreachable!("`start` serves on a unix socket");
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
    DaemonClient::connect(&addr)
        .expect("fresh connection after the deep frame")
        .request(&cmd("ping"))
        .expect("the daemon is still alive");

    shut_down(client, handle);
}

/// Fault keys go through the same `set` as every other key, so a faulted
/// repair over the wire is the faulted run a local caller gets.
#[test]
fn faulted_repair_over_the_wire_matches_a_local_run() {
    let (_, handle, mut client) = start("faulted", DaemonOptions::default());

    let Json::Obj(mut config) = small_config_json() else {
        unreachable!("small_config_json is an object");
    };
    config.insert("media".into(), Json::Num(15.0));
    config.insert("transient".into(), Json::Num(40.0));
    config.insert("fault_seed".into(), Json::Num(7.0));
    config.insert("kill".into(), "3@40".into());
    let (job, _) = client
        .submit([("cmd", "repair".into()), ("config", Json::Obj(config))])
        .expect("repair");
    let status = wait_done(&mut client, job).expect("done");

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

    shut_down(client, handle);
}

/// `stat`'s row of a finished repair reports what its metrics say, on
/// every backend: the data plane publishes no live progress.
#[test]
fn stat_rows_of_finished_faulted_jobs_read_their_metrics() {
    let (_, handle, mut client) = start("stat-faults", one_worker());
    let mut jobs = Vec::new();
    for backend in ["engine", "sim"] {
        let Json::Obj(mut config) = small_config_json() else {
            unreachable!("small_config_json is an object");
        };
        config.insert("media".into(), Json::Num(30.0));
        config.insert("seed".into(), Json::Num(4.0));
        let submit = [
            ("cmd", "repair".into()),
            ("backend", backend.into()),
            ("config", Json::Obj(config)),
        ];
        let (job, _) = client.submit(submit).expect("repair");
        jobs.push((job, wait_done(&mut client, job).expect("done")));
    }
    let stat = client.request(&cmd("stat")).expect("stat");
    let Some(Json::Arr(rows)) = stat.get("jobs") else {
        panic!("stat has no job list: {stat:?}");
    };
    for (job, status) in jobs {
        let row = rows
            .iter()
            .find(|r| r.get("job").and_then(Json::as_u64) == Some(job));
        let row = row.expect("every job has a row");
        let m = status.get("metrics").expect("metrics");
        let u = |v: &Json, key| v.get(key).and_then(Json::as_u64).unwrap();
        let faults = u(m, "media_errors") + u(m, "retries_exhausted") + u(m, "dead_disk_reads");
        assert!(faults > 0, "job {job} met no fault");
        assert_eq!(u(row, "faults"), faults, "job {job}");
        assert_eq!(u(row, "rounds"), u(m, "replan_rounds"), "job {job}");
        assert_eq!(u(row, "replans"), u(m, "replans"), "job {job}");
        assert_eq!(u(row, "stripes_lost"), u(m, "stripes_lost"), "job {job}");
    }
    shut_down(client, handle);
}

#[test]
fn retention_cap_evicts_the_oldest_resident_backend() {
    let opts = DaemonOptions {
        retain: 1,
        ..one_worker()
    };
    let (_, handle, mut client) = start("retain", opts);

    // Two sim-backend repairs: both retain a backend on completion, but
    // with `retain: 1` the first job's backend must be evicted when the
    // second finishes.
    let mut jobs = Vec::new();
    for seed in [1u64, 2] {
        let Json::Obj(mut cfg) = small_config_json() else {
            unreachable!("small_config_json is an object");
        };
        cfg.insert("seed".into(), seed.into());
        let submit = [
            ("cmd", "repair".into()),
            ("backend", "sim".into()),
            ("config", Json::Obj(cfg)),
        ];
        jobs.push(client.submit(submit).expect("repair").0);
    }
    for &job in &jobs {
        wait_done(&mut client, job).expect("done");
    }

    // Oldest job: backend gone, and the error says why (eviction, not a
    // missing job or a never-retained backend).
    let evicted = refused(read_chunk(&mut client, jobs[0]));
    let msg = evicted.get("error").and_then(Json::as_str).unwrap_or("");
    assert!(msg.contains("evicted"), "error names the eviction: {msg}");
    // Newest job: still resident and readable.
    read_chunk(&mut client, jobs[1]).expect("live backend reads");

    // The leak-check gauge agrees: exactly one backend is resident.
    let text = prometheus(&mut client);
    assert!(
        text.lines().any(|l| l.trim() == "fbf_backends_retained 1"),
        "gauge must report one resident backend:\n{text}"
    );

    shut_down(client, handle);
}

#[test]
#[cfg_attr(
    not(debug_assertions),
    ignore = "the daemon's `panic` backend seam exists only in debug builds"
)]
fn panicking_job_fails_cleanly_without_killing_the_worker() {
    let (_, handle, mut client) = start("panic", one_worker());

    // The debug-only `panic` backend makes the worker thread panic
    // mid-job. The daemon must convert that into a `failed` job instead
    // of silently leaking a `running` entry (gauge drift) and a dead
    // worker.
    let repair = |backend: &str| {
        [
            ("cmd", "repair".into()),
            ("backend", backend.into()),
            ("config", small_config_json()),
        ]
    };
    let (job, _) = client.submit(repair("panic")).expect("repair");
    let status = match wait_done(&mut client, job) {
        Err(DaemonError::JobFailed(status)) => status,
        other => panic!("expected a failed job, got {other:?}"),
    };
    let msg = status.get("error").and_then(Json::as_str).unwrap_or("");
    assert!(msg.contains("panicked"), "error names the panic: {msg}");

    // The single worker survived: a normal job still completes.
    let (job, _) = client.submit(repair("sim")).expect("repair after panic");
    wait_done(&mut client, job).expect("done");

    // No gauge drift: the panicked job counts as failed, not running.
    let text = prometheus(&mut client);
    for line in [
        "fbf_jobs_total{state=\"failed\"} 1",
        "fbf_jobs_total{state=\"running\"} 0",
    ] {
        assert!(
            text.lines().any(|l| l.trim() == line),
            "expected `{line}` in:\n{text}"
        );
    }

    shut_down(client, handle);
}

#[test]
fn rebuild_job_over_the_wire_reports_the_campaign() {
    let (_, handle, mut client) = start("rebuild", one_worker());

    let (job, _) = client
        .submit([
            ("cmd", "rebuild".into()),
            ("config", small_config_json()),
            ("disks", 24u64.into()),
            ("fairness", "drr".into()),
        ])
        .expect("rebuild");
    let status = wait_done(&mut client, job).expect("done");
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
    refused(client.submit([
        ("cmd", "rebuild".into()),
        ("config", small_config_json()),
        ("placement", "striped".into()),
    ]));

    shut_down(client, handle);
}

/// A job that fails while running (here: a `file` backend whose directory
/// cannot exist) comes back from `wait` as [`DaemonError::JobFailed`]
/// carrying the final status — in release builds too, where the `panic`
/// seam above is compiled out.
#[test]
fn wait_reports_a_failed_job_as_a_typed_error() {
    let (_, handle, mut client) = start("waitfail", DaemonOptions::default());

    let (job, _) = client
        .submit([
            ("cmd", "repair".into()),
            ("backend", "file".into()),
            ("dir", "/dev/null/not-a-directory".into()),
            ("config", small_config_json()),
        ])
        .expect("the request itself is well-formed");
    let err = wait_done(&mut client, job).expect_err("the job cannot succeed");
    let DaemonError::JobFailed(status) = &err else {
        panic!("expected a failed job, got {err:?}");
    };
    assert_eq!(status.get("state").and_then(Json::as_str), Some("failed"));
    assert_eq!(status.get("job").and_then(Json::as_u64), Some(job));
    assert!(err.to_string().starts_with(&format!("job {job} failed: ")));
    assert_eq!(err.reply(), Some(status));

    shut_down(client, handle);
}

/// One job, two doors: a request executed in this process — what `fbf run`
/// / `replay` / `rebuild` do — and the same request queued on a daemon
/// yield the same result, for each kind of work.
#[test]
fn a_request_yields_the_same_result_in_process_and_through_the_daemon() {
    let (_, handle, mut client) = start("doors", one_worker());

    let trace = fbf::render_trace(&fbf::generate_errors(
        &fbf::StripeCode::build(fbf::CodeSpec::Tip, 7).unwrap(),
        &fbf::ErrorGenConfig::paper_default(128, 16, 9),
    ));
    let requests = [
        vec![("cmd", "repair".into()), ("config", small_config_json())],
        vec![
            ("cmd", "repair".into()),
            ("config", small_config_json()),
            ("trace", trace.into()),
        ],
        vec![
            ("cmd", "rebuild".into()),
            ("config", small_config_json()),
            ("disks", 24u64.into()),
            ("placement", "rotated".into()),
        ],
    ];
    // Neither document carries host time (no `host_` key), so the two
    // doors must agree key for key.
    for fields in requests {
        let request = Json::obj(fields.clone());
        let work = Work::from_request(&request).expect("a well-formed request");
        let outcome = work
            .execute(&PlanStore::new(), &mut EngineScratch::new(), None)
            .expect("runs in process");
        let (key, local) = match outcome {
            Outcome::Repair { metrics, .. } => ("metrics", metrics.to_json_value()),
            Outcome::Rebuild(outcome) => ("rebuild", outcome.to_json_value()),
        };

        let (job, _) = client.submit(fields).expect("the daemon takes it too");
        let status = wait_done(&mut client, job).expect("done");
        let remote = status
            .get(key)
            .unwrap_or_else(|| panic!("{}", status.render()));
        assert!(!local.render().contains("\"host_"), "{}", local.render());
        assert_eq!(remote, &local, "{}", request.render());
    }

    shut_down(client, handle);
}

/// Two `file` repairs that name no `dir` used to format the same
/// directory: the second rewrote the files under the first job's retained
/// backend. Each job now gets a directory of its own.
#[test]
fn file_jobs_without_a_dir_do_not_share_one() {
    let (_, handle, mut client) = start("filedirs", one_worker());

    let config = |seed: u64| {
        Json::obj([
            ("chunk_kb", 1u64.into()),
            ("cache_mb", 1u64.into()),
            ("stripes", 64u64.into()),
            ("errors", 8u64.into()),
            ("workers", 8u64.into()),
            ("seed", seed.into()),
        ])
    };
    let repair = |seed: u64| {
        [
            ("cmd", "repair".into()),
            ("backend", "file".into()),
            ("config", config(seed)),
        ]
    };
    // The chunks job 1 repairs: its campaign, planned here.
    let Work::Repair { cfg, .. } = Work::from_request(&Json::obj(repair(1))).unwrap() else {
        unreachable!("a repair request");
    };
    let plan = fbf::core::PlannedCampaign::cold(&cfg).expect("plan");
    let repaired: Vec<(u64, u64, u64)> = plan
        .errors
        .damage_by_stripe()
        .iter()
        .flat_map(|d| {
            let cell = |c: &fbf::Cell| (u64::from(d.stripe), c.r() as u64, c.c() as u64);
            d.cells.iter().map(cell).collect::<Vec<_>>()
        })
        .collect();
    assert!(!repaired.is_empty());

    let (first, _) = client.submit(repair(1)).expect("repair");
    wait_done(&mut client, first).expect("done");
    let digests = |client: &mut DaemonClient| -> Vec<String> {
        repaired
            .iter()
            .map(|&(stripe, row, col)| {
                let read = client
                    .request(&Json::obj([
                        ("cmd", "read".into()),
                        ("job", first.into()),
                        ("stripe", stripe.into()),
                        ("row", row.into()),
                        ("col", col.into()),
                    ]))
                    .expect("read");
                assert_eq!(read.get("repaired").and_then(Json::as_bool), Some(true));
                read.get("fnv1a")
                    .and_then(Json::as_str)
                    .unwrap()
                    .to_string()
            })
            .collect()
    };
    let before = digests(&mut client);

    let (second, _) = client.submit(repair(2)).expect("repair");
    wait_done(&mut client, second).expect("done");
    assert_eq!(digests(&mut client), before, "job 2 rewrote job 1's array");

    shut_down(client, handle);
}
