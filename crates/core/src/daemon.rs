//! `fbfd` — recovery as a long-running service.
//!
//! The daemon accepts repair / status / read requests over a unix or TCP
//! socket, executes campaigns on a small worker pool (each worker reuses
//! one [`EngineScratch`] and a shared [`PlanStore`], like a sweep
//! thread), and streams progress events to subscribed clients through
//! the [`fbf_obs`] bridge. Everything is hand-rolled on `std` — a poll
//! loop with short read timeouts is all this protocol needs.
//!
//! # Wire protocol
//!
//! Length-prefixed JSON frames in both directions: a 4-byte big-endian
//! payload length, then that many bytes of UTF-8 JSON (one object per
//! frame, 64 MiB cap). Requests carry `{"cmd": ...}`; replies carry
//! `{"ok": true, ...}` or `{"ok": false, "error": "..."}` and always
//! include `"schema_version"`. Commands:
//!
//! | cmd         | request fields                               | reply |
//! |-------------|----------------------------------------------|-------|
//! | `ping`      | —                                            | `pong`, version info |
//! | `repair`    | `backend` (`engine`/`sim`/`file`), `config` overrides (every key of [`crate::config::KEYS`], fault keys included), optional `dir`, optional inline `trace` | `job` id |
//! | `status`    | `job`                                        | `state`, `metrics` when done |
//! | `jobs`      | —                                            | array of `{job, state}` |
//! | `read`      | `job`, `stripe`, `row`, `col`                | chunk length + FNV-1a digest |
//! | `metrics`   | —                                            | Prometheus text: finished jobs + live `fbf_jobs_*` gauges |
//! | `stat`      | —                                            | live introspection: job states, per-job progress, merged class latency |
//! | `dump`      | —                                            | snapshot the flight recorder, reply with its JSONL |
//! | `subscribe` | —                                            | stream of `{"event": <chrome line>}` frames |
//! | `shutdown`  | —                                            | ack, then the daemon exits |
//!
//! Integer fields are accepted as JSON numbers or as their decimal text
//! (what `fbf client` forwards); either way a value that does not fit
//! its field is an error reply, never a truncation.
//!
//! # Causal tracing and the flight recorder
//!
//! Every `repair` request is minted a trace id (or adopts the client's
//! `trace_id` field), echoed in the reply as `trace`. The worker
//! activates it for the whole execution under a `daemon/repair` root
//! span, so every event the job emits — plan, engine run, decode
//! batches, escalation rounds — carries the request's ids and
//! `check_trace.py --flows` reassembles one tree per request. `serve`
//! also installs an always-on flight recorder
//! ([`fbf_obs::FlightRecorder`]); `dump` (or a `DataLoss`/SLO-breach
//! trigger) snapshots it for post-mortems.
//!
//! The `read` command serves from the job's retained [`StorageBackend`]
//! (repaired chunks come from the spare area), so a client can verify
//! recovered content end to end without shipping chunk payloads through
//! JSON — it gets a digest instead.

use crate::backend_run::{file_backend_for, run_planned_on, sim_backend_for};
use crate::config::ExperimentConfig;
use crate::metrics::{ClassLatency, Metrics, METRICS_SCHEMA_VERSION};
use crate::plan::{PlanSource, PlanStore, PlannedCampaign};
use crate::progress::Progress;
use crate::runner::run_planned_observed;
use crate::sweep::SweepPoint;
use fbf_codes::{Cell, ChunkId, StripeCode};
use fbf_disksim::{EngineScratch, Histogram, RequestClass, StorageBackend};
use fbf_obs::{BridgeSubscriber, Json};
use std::collections::HashMap;
use std::io::{self, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Protocol revision spoken by this daemon (bumped on breaking changes).
pub const PROTOCOL_VERSION: u64 = 1;

/// Hard cap on one frame's payload (a config + inline trace fits in a
/// fraction of this; anything bigger is a corrupt length prefix).
pub const MAX_FRAME: usize = 64 << 20;

const ACCEPT_POLL: Duration = Duration::from_millis(50);
const READ_POLL: Duration = Duration::from_millis(200);

/// Where the daemon listens.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServerAddr {
    /// Unix-domain socket at this path (created, removed on shutdown).
    Unix(PathBuf),
    /// TCP socket (use port 0 to let the OS pick; see
    /// [`DaemonHandle::addr`] for the bound address).
    Tcp(SocketAddr),
}

/// Daemon tuning.
#[derive(Debug, Clone, Copy)]
pub struct DaemonOptions {
    /// Repair worker threads (each owns an [`EngineScratch`]).
    pub workers: usize,
    /// Completed jobs whose data-plane backend stays resident for `read`.
    /// When a job finishes past this cap, the *oldest* retained backend is
    /// evicted (its metrics stay; `read` on it returns a typed error).
    /// Without a cap every `sim`/`file` job's full array lives until
    /// shutdown — an unbounded leak under a steady job stream.
    pub retain: usize,
}

impl Default for DaemonOptions {
    fn default() -> Self {
        DaemonOptions {
            workers: 2,
            retain: 8,
        }
    }
}

/// Write one length-prefixed frame.
pub fn write_frame(w: &mut impl Write, body: &str) -> io::Result<()> {
    let bytes = body.as_bytes();
    if bytes.len() > MAX_FRAME {
        return Err(io::Error::new(ErrorKind::InvalidInput, "frame too large"));
    }
    w.write_all(&(bytes.len() as u32).to_be_bytes())?;
    w.write_all(bytes)?;
    w.flush()
}

/// Read one length-prefixed frame. `Ok(None)` means the peer closed the
/// connection cleanly before a frame started. Read timeouts are retried
/// internally until `stop` flips (then `Ok(None)`), so callers never see
/// a frame torn across a timeout boundary.
pub fn read_frame(r: &mut impl Read, stop: &AtomicBool) -> io::Result<Option<String>> {
    let mut len_buf = [0u8; 4];
    if !read_exact_stoppable(r, &mut len_buf, stop, true)? {
        return Ok(None);
    }
    let len = u32::from_be_bytes(len_buf) as usize;
    if len > MAX_FRAME {
        return Err(io::Error::new(
            ErrorKind::InvalidData,
            "frame length exceeds cap",
        ));
    }
    let mut body = vec![0u8; len];
    if !read_exact_stoppable(r, &mut body, stop, false)? {
        return Err(io::Error::new(
            ErrorKind::UnexpectedEof,
            "connection closed mid-frame",
        ));
    }
    String::from_utf8(body)
        .map(Some)
        .map_err(|_| io::Error::new(ErrorKind::InvalidData, "frame is not UTF-8"))
}

/// `read_exact` that treats timeouts as "check `stop`, keep going" and a
/// clean EOF *before any byte* as `Ok(false)` when `eof_ok`.
fn read_exact_stoppable(
    r: &mut impl Read,
    buf: &mut [u8],
    stop: &AtomicBool,
    eof_ok: bool,
) -> io::Result<bool> {
    let mut filled = 0usize;
    while filled < buf.len() {
        if stop.load(Ordering::Relaxed) {
            return Ok(false);
        }
        match r.read(&mut buf[filled..]) {
            Ok(0) => {
                return if filled == 0 && eof_ok {
                    Ok(false)
                } else {
                    Err(io::Error::new(ErrorKind::UnexpectedEof, "peer closed"))
                };
            }
            Ok(n) => filled += n,
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => continue,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    Ok(true)
}

/// One job's lifecycle state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobState {
    /// Accepted, waiting for a worker.
    Queued,
    /// A worker is executing it.
    Running,
    /// Finished successfully (metrics available).
    Done,
    /// Failed; the payload is the error message.
    Failed(String),
}

impl JobState {
    /// Wire spelling of the state.
    pub fn name(&self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed(_) => "failed",
        }
    }
}

struct Job {
    cfg: ExperimentConfig,
    backend_kind: String,
    dir: Option<PathBuf>,
    errors: Option<fbf_recovery::ErrorGroup>,
    /// `Some` makes this an array-wide rebuild job instead of a repair.
    rebuild: Option<crate::rebuild::RebuildSpec>,
    state: JobState,
    metrics: Option<Metrics>,
    /// The [`RebuildOutcome`](crate::rebuild::RebuildOutcome) of a
    /// finished rebuild job, as the `status` reply carries it.
    rebuild_outcome: Option<Json>,
    /// Retained after completion so `read` can serve repaired chunks.
    backend: Option<Box<dyn StorageBackend>>,
    /// The backend was dropped by the retention cap (distinguishes "never
    /// had one" from "had one, evicted" in `read` errors).
    backend_evicted: bool,
    /// The request's trace id (minted or client-supplied); every event
    /// the job emits carries it.
    trace: u64,
    /// Live escalation counters the worker publishes mid-job (`stat`).
    progress: Arc<Progress>,
}

impl Job {
    fn new(cfg: ExperimentConfig, backend_kind: String, trace: u64) -> Self {
        Job {
            cfg,
            backend_kind,
            dir: None,
            errors: None,
            rebuild: None,
            state: JobState::Queued,
            metrics: None,
            rebuild_outcome: None,
            backend: None,
            backend_evicted: false,
            trace,
            progress: Arc::new(Progress::new()),
        }
    }
}

struct Ctx {
    shutdown: Arc<AtomicBool>,
    jobs: Mutex<HashMap<u64, Job>>,
    queue: mpsc::Sender<u64>,
    next_id: AtomicU64,
    bridge: Arc<BridgeSubscriber>,
    /// Worker-pool size (`stat` reports busy/total).
    workers: usize,
    /// Backend retention cap ([`DaemonOptions::retain`]).
    retain: usize,
    /// Jobs whose backend is resident, oldest completion first.
    retained: Mutex<std::collections::VecDeque<u64>>,
    /// When `serve` started (`stat` reports uptime).
    started: Instant,
}

/// A running daemon: join it via [`DaemonHandle::shutdown`].
pub struct DaemonHandle {
    addr: ServerAddr,
    shutdown_flag: Arc<AtomicBool>,
    accept: Option<std::thread::JoinHandle<()>>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl DaemonHandle {
    /// The bound address (TCP port resolved when the OS picked one).
    pub fn addr(&self) -> &ServerAddr {
        &self.addr
    }

    /// Has a `shutdown` command (or an explicit stop) been issued?
    pub fn is_shutting_down(&self) -> bool {
        self.shutdown_flag.load(Ordering::Relaxed)
    }

    /// Stop accepting, drain the worker pool, and clean up the socket.
    pub fn shutdown(mut self) {
        self.stop();
    }

    /// Block until the daemon stops on its own (a client's `shutdown`
    /// command), then clean up. Used by the `fbfd` binary's foreground
    /// mode.
    pub fn wait(mut self) {
        while !self.shutdown_flag.load(Ordering::Relaxed) {
            std::thread::sleep(ACCEPT_POLL);
        }
        self.stop();
    }

    fn stop(&mut self) {
        self.shutdown_flag.store(true, Ordering::Relaxed);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
        if let ServerAddr::Unix(path) = &self.addr {
            let _ = std::fs::remove_file(path);
        }
    }
}

impl Drop for DaemonHandle {
    fn drop(&mut self) {
        self.stop();
    }
}

enum Listener {
    Unix(UnixListener),
    Tcp(TcpListener),
}

impl Listener {
    fn accept(&self) -> io::Result<ClientStream> {
        match self {
            Listener::Unix(l) => l.accept().map(|(s, _)| ClientStream::Unix(s)),
            Listener::Tcp(l) => l.accept().map(|(s, _)| ClientStream::Tcp(s)),
        }
    }
    fn set_nonblocking(&self, nb: bool) -> io::Result<()> {
        match self {
            Listener::Unix(l) => l.set_nonblocking(nb),
            Listener::Tcp(l) => l.set_nonblocking(nb),
        }
    }
}

/// A connected protocol stream (either transport), used by both the
/// daemon's connection handlers and [`DaemonClient`].
pub enum ClientStream {
    /// Unix-domain transport.
    Unix(UnixStream),
    /// TCP transport.
    Tcp(TcpStream),
}

impl ClientStream {
    fn set_read_timeout(&self, t: Option<Duration>) -> io::Result<()> {
        match self {
            ClientStream::Unix(s) => s.set_read_timeout(t),
            ClientStream::Tcp(s) => s.set_read_timeout(t),
        }
    }
    fn set_nonblocking(&self, nb: bool) -> io::Result<()> {
        match self {
            ClientStream::Unix(s) => s.set_nonblocking(nb),
            ClientStream::Tcp(s) => s.set_nonblocking(nb),
        }
    }
}

impl Read for ClientStream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            ClientStream::Unix(s) => s.read(buf),
            ClientStream::Tcp(s) => s.read(buf),
        }
    }
}

impl Write for ClientStream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            ClientStream::Unix(s) => s.write(buf),
            ClientStream::Tcp(s) => s.write(buf),
        }
    }
    fn flush(&mut self) -> io::Result<()> {
        match self {
            ClientStream::Unix(s) => s.flush(),
            ClientStream::Tcp(s) => s.flush(),
        }
    }
}

/// Start serving on `addr`. Installs a [`BridgeSubscriber`] as the
/// process-wide observability sink (unless one is already installed) so
/// repair progress streams to `subscribe`d clients.
pub fn serve(addr: &ServerAddr, opts: DaemonOptions) -> io::Result<DaemonHandle> {
    let (listener, bound) = match addr {
        ServerAddr::Unix(path) => {
            // A stale socket file from a crashed daemon blocks bind.
            let _ = std::fs::remove_file(path);
            (
                Listener::Unix(UnixListener::bind(path)?),
                ServerAddr::Unix(path.clone()),
            )
        }
        ServerAddr::Tcp(sock) => {
            let l = TcpListener::bind(sock)?;
            let actual = l.local_addr()?;
            (Listener::Tcp(l), ServerAddr::Tcp(actual))
        }
    };
    listener.set_nonblocking(true)?;

    let bridge = Arc::new(BridgeSubscriber::new());
    if !fbf_obs::has_subscriber() {
        fbf_obs::install(bridge.clone());
    }
    // Always-on flight recorder: post-mortems of faulted jobs need no
    // pre-enabled tracing. Kept if one is already installed (tests), and
    // deliberately never uninstalled on shutdown — rings are per-process
    // and a later daemon in the same process reuses them.
    fbf_obs::ring::install_default();

    let shutdown = Arc::new(AtomicBool::new(false));
    let (queue_tx, queue_rx) = mpsc::channel::<u64>();
    let ctx = Arc::new(Ctx {
        shutdown: shutdown.clone(),
        jobs: Mutex::new(HashMap::new()),
        queue: queue_tx,
        next_id: AtomicU64::new(1),
        bridge,
        workers: opts.workers.max(1),
        retain: opts.retain,
        retained: Mutex::new(std::collections::VecDeque::new()),
        started: Instant::now(),
    });

    let queue_rx = Arc::new(Mutex::new(queue_rx));
    let store = Arc::new(PlanStore::new());
    let workers: Vec<_> = (0..opts.workers.max(1))
        .map(|_| {
            let rx = Arc::clone(&queue_rx);
            let ctx = Arc::clone(&ctx);
            let store = Arc::clone(&store);
            std::thread::spawn(move || worker_loop(&rx, &ctx, &store))
        })
        .collect();

    let accept_ctx = Arc::clone(&ctx);
    let accept = std::thread::spawn(move || {
        while !accept_ctx.shutdown.load(Ordering::Relaxed) {
            match listener.accept() {
                Ok(stream) => {
                    let conn_ctx = Arc::clone(&accept_ctx);
                    std::thread::spawn(move || handle_conn(stream, &conn_ctx));
                }
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    std::thread::sleep(ACCEPT_POLL);
                }
                Err(_) => std::thread::sleep(ACCEPT_POLL),
            }
        }
    });

    Ok(DaemonHandle {
        addr: bound,
        shutdown_flag: shutdown,
        accept: Some(accept),
        workers,
    })
}

fn worker_loop(rx: &Mutex<mpsc::Receiver<u64>>, ctx: &Ctx, store: &PlanStore) {
    let mut scratch = EngineScratch::new();
    loop {
        if ctx.shutdown.load(Ordering::Relaxed) {
            return;
        }
        let job_id = {
            let guard = rx.lock().unwrap_or_else(|p| p.into_inner());
            match guard.recv_timeout(READ_POLL) {
                Ok(id) => id,
                Err(mpsc::RecvTimeoutError::Timeout) => continue,
                Err(mpsc::RecvTimeoutError::Disconnected) => return,
            }
        };
        let Some((cfg, backend_kind, dir, errors, rebuild, trace, progress)) = ({
            let mut jobs = ctx.jobs.lock().unwrap_or_else(|p| p.into_inner());
            jobs.get_mut(&job_id).map(|job| {
                job.state = JobState::Running;
                (
                    job.cfg,
                    job.backend_kind.clone(),
                    job.dir.clone(),
                    job.errors.take(),
                    job.rebuild.clone(),
                    job.trace,
                    Arc::clone(&job.progress),
                )
            })
        }) else {
            continue;
        };
        // Activate the request's trace for everything this job emits; the
        // daemon/repair span is the request tree's single root.
        let trace_guard = fbf_obs::with_trace(trace);
        let root = fbf_obs::span("daemon", "repair");
        fbf_obs::instant(
            "daemon",
            "job-start",
            &[
                ("job", fbf_obs::Value::U64(job_id)),
                ("backend", fbf_obs::Value::Str(&backend_kind)),
            ],
        );
        // A panicking job must become `Failed`, not a dead worker thread:
        // before this guard, a panic left the job `Running` forever, so
        // the `fbf_jobs_total{state}` gauges drifted (a phantom running
        // job, one fewer live worker) for the rest of the daemon's life.
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            if let Some(spec) = &rebuild {
                crate::rebuild::execute_rebuild(spec, store, &mut scratch)
                    .map(|o| JobSuccess::Rebuild(o.to_json_value()))
                    .map_err(|e| e.to_string())
            } else {
                execute_job(
                    &cfg,
                    &backend_kind,
                    dir,
                    errors,
                    store,
                    &mut scratch,
                    &progress,
                )
                .map(|(metrics, backend)| JobSuccess::Repair(Box::new(metrics), backend))
            }
        }))
        .unwrap_or_else(|panic| {
            // The scratch may hold a torn event heap; start fresh.
            scratch = EngineScratch::new();
            let msg = panic
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| panic.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "job panicked".to_string());
            Err(format!("job panicked: {msg}"))
        });
        let failed = outcome.is_err();
        let mut jobs = ctx.jobs.lock().unwrap_or_else(|p| p.into_inner());
        if let Some(job) = jobs.get_mut(&job_id) {
            match outcome {
                Ok(JobSuccess::Repair(metrics, backend)) => {
                    job.metrics = Some(*metrics);
                    job.backend = backend;
                    job.state = JobState::Done;
                }
                Ok(JobSuccess::Rebuild(json)) => {
                    job.rebuild_outcome = Some(json);
                    job.state = JobState::Done;
                }
                Err(msg) => job.state = JobState::Failed(msg),
            }
            if job.backend.is_some() {
                // Retention cap: register this backend, evict the oldest
                // beyond the cap (metrics stay — only the array goes).
                let mut retained = ctx.retained.lock().unwrap_or_else(|p| p.into_inner());
                retained.push_back(job_id);
                while retained.len() > ctx.retain {
                    if let Some(old) = retained.pop_front() {
                        if let Some(j) = jobs.get_mut(&old) {
                            j.backend = None;
                            j.backend_evicted = true;
                        }
                    }
                }
            }
        }
        drop(jobs);
        fbf_obs::instant("daemon", "job-end", &[("job", fbf_obs::Value::U64(job_id))]);
        root.end_with(&[
            ("job", fbf_obs::Value::U64(job_id)),
            ("failed", fbf_obs::Value::U64(u64::from(failed))),
        ]);
        drop(trace_guard);
    }
}

type JobOutcome = Result<(Metrics, Option<Box<dyn StorageBackend>>), String>;

/// What a worker produced for a finished job, by job kind.
enum JobSuccess {
    /// A repair: metrics, plus the retained backend for `sim`/`file`.
    Repair(Box<Metrics>, Option<Box<dyn StorageBackend>>),
    /// An array-wide rebuild: the outcome as `status` replies carry it.
    Rebuild(Json),
}

#[allow(clippy::too_many_arguments)]
fn execute_job(
    cfg: &ExperimentConfig,
    backend_kind: &str,
    dir: Option<PathBuf>,
    errors: Option<fbf_recovery::ErrorGroup>,
    store: &PlanStore,
    scratch: &mut EngineScratch,
    progress: &Progress,
) -> JobOutcome {
    cfg.validate().map_err(|e| e.to_string())?;
    // Trace-supplied campaigns bypass the plan store (their errors are
    // not derivable from the PlanKey); synthetic ones share it.
    let (plan, source) = match errors {
        Some(errors) => (
            Arc::new(PlannedCampaign::cold_with_errors(cfg, errors).map_err(|e| e.to_string())?),
            PlanSource::Cold,
        ),
        None => store.plan(cfg).map_err(|e| e.to_string())?,
    };
    match backend_kind {
        "engine" => Ok((
            run_planned_observed(cfg, &plan, source, scratch, Some(progress)),
            None,
        )),
        "sim" => {
            let mut backend = sim_backend_for(cfg, &plan).map_err(|e| e.to_string())?;
            let metrics =
                run_planned_on(cfg, &plan, source, &mut backend).map_err(|e| e.to_string())?;
            Ok((metrics, Some(Box::new(backend))))
        }
        "file" => {
            let dir = dir.unwrap_or_else(|| {
                std::env::temp_dir().join(format!("fbfd-{}", std::process::id()))
            });
            let mut backend = file_backend_for(cfg, &plan, &dir).map_err(|e| e.to_string())?;
            let metrics =
                run_planned_on(cfg, &plan, source, &mut backend).map_err(|e| e.to_string())?;
            Ok((metrics, Some(Box::new(backend))))
        }
        "panic" if cfg!(debug_assertions) => {
            panic!("deliberate panic backend (worker-crash regression test)")
        }
        other => Err(format!(
            "unknown backend `{other}` (expected engine, sim, or file)"
        )),
    }
}

fn handle_conn(mut stream: ClientStream, ctx: &Ctx) {
    let _ = stream.set_read_timeout(Some(READ_POLL));
    loop {
        let frame = match read_frame(&mut stream, &ctx.shutdown) {
            Ok(Some(f)) => f,
            Ok(None) => return, // clean EOF or shutdown
            Err(_) => return,
        };
        let reply = match Json::parse(&frame) {
            Ok(req) => {
                let cmd = req.get("cmd").and_then(Json::as_str).unwrap_or("");
                match cmd {
                    "subscribe" => {
                        // Acknowledge, then turn this connection into an
                        // event stream until the client goes away.
                        let ack = ok_reply([("subscribed", Json::Bool(true))]);
                        if write_frame(&mut stream, &ack.render()).is_err() {
                            return;
                        }
                        stream_events(&mut stream, ctx);
                        return;
                    }
                    "shutdown" => {
                        let ack = ok_reply([("stopping", Json::Bool(true))]);
                        let _ = write_frame(&mut stream, &ack.render());
                        ctx.shutdown.store(true, Ordering::Relaxed);
                        return;
                    }
                    _ => dispatch(cmd, &req, ctx),
                }
            }
            Err(e) => err_reply(&format!("bad request: {e}")),
        };
        if write_frame(&mut stream, &reply.render()).is_err() {
            return;
        }
    }
}

fn stream_events(stream: &mut ClientStream, ctx: &Ctx) {
    let rx = ctx.bridge.subscribe();
    loop {
        if ctx.shutdown.load(Ordering::Relaxed) {
            return;
        }
        match rx.recv_timeout(READ_POLL) {
            Ok(line) => {
                let frame = Json::obj([("event", Json::Str(line.trim_end().to_string()))]);
                if write_frame(stream, &frame.render()).is_err() {
                    return;
                }
            }
            Err(mpsc::RecvTimeoutError::Timeout) => continue,
            Err(mpsc::RecvTimeoutError::Disconnected) => return,
        }
    }
}

fn ok_reply(fields: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
    let mut pairs = vec![
        ("ok", Json::Bool(true)),
        ("schema_version", Json::Num(METRICS_SCHEMA_VERSION as f64)),
    ];
    pairs.extend(fields);
    Json::obj(pairs)
}

fn err_reply(msg: &str) -> Json {
    Json::obj([
        ("ok", Json::Bool(false)),
        ("schema_version", Json::Num(METRICS_SCHEMA_VERSION as f64)),
        ("error", Json::Str(msg.to_string())),
    ])
}

fn dispatch(cmd: &str, req: &Json, ctx: &Ctx) -> Json {
    match cmd {
        "ping" => ok_reply([
            ("pong", Json::Bool(true)),
            ("protocol", Json::Num(PROTOCOL_VERSION as f64)),
        ]),
        "repair" => cmd_repair(req, ctx),
        "rebuild" => cmd_rebuild(req, ctx),
        "status" => cmd_status(req, ctx),
        "jobs" => cmd_jobs(ctx),
        "read" => cmd_read(req, ctx),
        "metrics" => cmd_metrics(ctx),
        "stat" => cmd_stat(ctx),
        "dump" => cmd_dump(),
        "" => err_reply("missing cmd field"),
        other => err_reply(&format!("unknown cmd `{other}`")),
    }
}

/// Apply the request's `config` object onto the paper-default
/// [`ExperimentConfig`] through [`ExperimentConfigBuilder::set`]
/// (numbers as their integer text, strings as they are). Unknown keys
/// are an error (a typo'd override silently running the default
/// experiment would be worse).
///
/// [`ExperimentConfigBuilder::set`]: crate::config::ExperimentConfigBuilder::set
fn builder_from_request(req: &Json) -> Result<crate::config::ExperimentConfigBuilder, String> {
    let mut builder = ExperimentConfig::builder().obs(true);
    if let Some(Json::Obj(map)) = req.get("config") {
        for (key, value) in map {
            let text = match value {
                Json::Str(s) => s.clone(),
                Json::Num(_) => value.render(),
                _ => return Err(format!("config.{key} must be a number or a string")),
            };
            builder = builder.set(key, &text).map_err(|e| e.to_string())?;
        }
    }
    Ok(builder)
}

/// The validated experiment a `repair` request describes. One that brings
/// its campaign as an inline `trace` draws no errors of its own.
pub fn config_from_request(req: &Json) -> Result<ExperimentConfig, String> {
    let mut builder = builder_from_request(req)?;
    if req.get("trace").and_then(Json::as_str).is_some() {
        builder = builder.error_count(0);
    }
    builder.build().map_err(|e| e.to_string())
}

/// An optional request field that must be a non-negative integer fitting
/// `T`, as a JSON number or its decimal text (what `fbf client` forwards):
/// absent is `None`, anything else out of shape or range is an error,
/// never a truncation onto some other experiment.
fn int_field<T: TryFrom<u64> + std::str::FromStr>(
    req: &Json,
    key: &str,
) -> Result<Option<T>, String> {
    let Some(value) = req.get(key) else {
        return Ok(None);
    };
    match value {
        Json::Str(text) => text.parse().ok(),
        _ => value.as_u64().and_then(|n| T::try_from(n).ok()),
    }
    .map(Some)
    .ok_or_else(|| format!("bad value for `{key}`: {}", value.render()))
}

fn cmd_repair(req: &Json, ctx: &Ctx) -> Json {
    let cfg = match config_from_request(req) {
        Ok(c) => c,
        Err(e) => return err_reply(&e),
    };
    let backend_kind = req
        .get("backend")
        .and_then(Json::as_str)
        .unwrap_or("engine")
        .to_string();
    // `panic` is a debug-build-only seam for the worker-crash regression
    // test (a panicking job must become `Failed`, not a dead worker).
    let test_seam = cfg!(debug_assertions) && backend_kind == "panic";
    if !matches!(backend_kind.as_str(), "engine" | "sim" | "file") && !test_seam {
        return err_reply(&format!("unknown backend `{backend_kind}`"));
    }
    let dir = req.get("dir").and_then(Json::as_str).map(PathBuf::from);
    let errors = match req.get("trace").and_then(Json::as_str) {
        Some(text) => {
            let group = match fbf_workload::parse_trace(text) {
                Ok(g) => g,
                Err(e) => return err_reply(&format!("bad trace: {e}")),
            };
            let code = match StripeCode::build(cfg.code, cfg.p) {
                Ok(c) => c,
                Err(e) => return err_reply(&format!("cannot build code: {e}")),
            };
            if let Err(e) = fbf_workload::validate_against(&group, &code, cfg.stripes as usize) {
                return err_reply(&format!("trace does not fit geometry: {e}"));
            }
            Some(group)
        }
        None => None,
    };

    // Adopt the client's trace id when it sent one (load generators stamp
    // their own so client-side and daemon-side events correlate); mint
    // otherwise. Either way the reply echoes it.
    let trace = match req.get("trace_id").and_then(Json::as_u64) {
        Some(t) if t != 0 => t,
        _ => fbf_obs::next_trace_id(),
    };
    let id = ctx.next_id.fetch_add(1, Ordering::Relaxed);
    let mut job = Job::new(cfg, backend_kind, trace);
    job.dir = dir;
    job.errors = errors;
    ctx.jobs
        .lock()
        .unwrap_or_else(|p| p.into_inner())
        .insert(id, job);
    if ctx.queue.send(id).is_err() {
        return err_reply("daemon is shutting down");
    }
    ok_reply([
        ("job", Json::Num(id as f64)),
        ("trace", Json::Num(trace as f64)),
    ])
}

/// The [`RebuildSpec`](crate::rebuild::RebuildSpec) a `rebuild` request
/// describes: its `config` overrides plus the spec fields, each checked.
/// `fbf rebuild` reads its flags through here too.
pub fn rebuild_spec_from_request(req: &Json) -> Result<crate::rebuild::RebuildSpec, String> {
    use fbf_disksim::Placement;
    // The failed disk decides the campaign: no errors are drawn.
    let base = builder_from_request(req)?
        .error_count(0)
        .build()
        .map_err(|e| e.to_string())?;
    let code =
        StripeCode::build(base.code, base.p).map_err(|e| format!("cannot build code: {e}"))?;
    let disks: usize = int_field(req, "disks")?.unwrap_or(100);
    // Per-disk state is allocated for every disk asked for; more disks than
    // stripe columns exist are disks no chunk can ever land on.
    let columns = u64::from(base.stripes).saturating_mul(code.cols() as u64);
    if disks as u64 > columns {
        return Err(format!(
            "{disks} disks exceed the {columns} stripe columns of {} stripes",
            base.stripes
        ));
    }
    let mut spec = crate::rebuild::RebuildSpec::new(base, disks);
    let placement_seed = int_field(req, "placement_seed")?;
    spec.placement = match req.get("placement").and_then(Json::as_str) {
        Some("declustered") | None => Placement::Declustered {
            seed: placement_seed.unwrap_or(spec.base.seed),
        },
        Some("clustered" | "fixed") => Placement::Fixed,
        Some("rotated") => Placement::Rotated,
        Some(other) => {
            return Err(format!(
                "unknown placement `{other}` (clustered, rotated, declustered)"
            ))
        }
    };
    if placement_seed.is_some() && !matches!(spec.placement, Placement::Declustered { .. }) {
        return Err("placement_seed only applies to declustered placement".to_string());
    }
    if let Some(d) = int_field(req, "failed_disk")? {
        spec.failed_disk = d;
    }
    if let Some(cap) = int_field(req, "cap")? {
        spec.per_disk_cap = cap;
    }
    if let Some(f) = req.get("fairness").and_then(Json::as_str) {
        spec.fairness = fbf_recovery::Fairness::parse(f)
            .ok_or_else(|| format!("unknown fairness `{f}` (rr or drr)"))?;
    }
    if let Some(c) = int_field(req, "campaigns")? {
        spec.campaigns = c;
    }
    if let Some(a) = int_field(req, "app_reads")? {
        spec.app_reads_per_wave = a;
    }
    // Array shape, failed disk, cap and campaign count: the driver's rule.
    spec.validate(&code).map_err(|e| e.to_string())?;
    Ok(spec)
}

/// `rebuild`: queue an array-wide declustered rebuild
/// ([`crate::rebuild::execute_rebuild`]) as a job. Accepts the same
/// `config` overrides as `repair` plus `disks`, `placement`
/// (`clustered`/`rotated`/`declustered`), `placement_seed`, `failed_disk`,
/// `cap`, `fairness` (`rr`/`drr`), `campaigns`, and `app_reads`.
fn cmd_rebuild(req: &Json, ctx: &Ctx) -> Json {
    let spec = match rebuild_spec_from_request(req) {
        Ok(s) => s,
        Err(e) => return err_reply(&e),
    };

    let trace = match req.get("trace_id").and_then(Json::as_u64) {
        Some(t) if t != 0 => t,
        _ => fbf_obs::next_trace_id(),
    };
    let id = ctx.next_id.fetch_add(1, Ordering::Relaxed);
    let mut job = Job::new(spec.base, "rebuild".to_string(), trace);
    job.rebuild = Some(spec);
    ctx.jobs
        .lock()
        .unwrap_or_else(|p| p.into_inner())
        .insert(id, job);
    if ctx.queue.send(id).is_err() {
        return err_reply("daemon is shutting down");
    }
    ok_reply([
        ("job", Json::Num(id as f64)),
        ("trace", Json::Num(trace as f64)),
    ])
}

fn cmd_status(req: &Json, ctx: &Ctx) -> Json {
    let Some(id) = req.get("job").and_then(Json::as_u64) else {
        return err_reply("status needs a numeric `job`");
    };
    let jobs = ctx.jobs.lock().unwrap_or_else(|p| p.into_inner());
    let Some(job) = jobs.get(&id) else {
        return err_reply(&format!("no such job {id}"));
    };
    let mut fields = vec![
        ("job", Json::Num(id as f64)),
        ("state", Json::Str(job.state.name().to_string())),
        ("backend", Json::Str(job.backend_kind.clone())),
    ];
    if let JobState::Failed(msg) = &job.state {
        fields.push(("error", Json::Str(msg.clone())));
    }
    if let Some(metrics) = &job.metrics {
        fields.push(("metrics", metrics.to_json_value()));
    }
    if let Some(outcome) = &job.rebuild_outcome {
        fields.push(("rebuild", outcome.clone()));
    }
    ok_reply(fields)
}

fn cmd_jobs(ctx: &Ctx) -> Json {
    let jobs = ctx.jobs.lock().unwrap_or_else(|p| p.into_inner());
    let mut ids: Vec<u64> = jobs.keys().copied().collect();
    ids.sort_unstable();
    let list: Vec<Json> = ids
        .iter()
        .map(|id| {
            let job = &jobs[id];
            Json::obj([
                ("job", Json::Num(*id as f64)),
                ("state", Json::Str(job.state.name().to_string())),
                ("backend", Json::Str(job.backend_kind.clone())),
            ])
        })
        .collect();
    ok_reply([("jobs", Json::Arr(list))])
}

fn cmd_read(req: &Json, ctx: &Ctx) -> Json {
    let (Ok(Some(id)), Ok(Some(stripe)), Ok(Some(row)), Ok(Some(col))) = (
        int_field::<u64>(req, "job"),
        int_field::<u32>(req, "stripe"),
        int_field::<usize>(req, "row"),
        int_field::<usize>(req, "col"),
    ) else {
        return err_reply("read needs numeric `job`, `stripe`, `row`, `col`");
    };
    let mut jobs = ctx.jobs.lock().unwrap_or_else(|p| p.into_inner());
    let Some(job) = jobs.get_mut(&id) else {
        return err_reply(&format!("no such job {id}"));
    };
    let Some(backend) = job.backend.as_mut() else {
        return if job.backend_evicted {
            err_reply("job's backend was evicted by the retention cap (rerun or raise --retain)")
        } else {
            err_reply("job has no data-plane backend (engine jobs move identities only)")
        };
    };
    let chunk = ChunkId::new(stripe, Cell::new(row, col));
    let mut buf = vec![0u8; backend.chunk_bytes()];
    match backend.read_chunk(chunk, &mut buf) {
        Ok(()) => ok_reply([
            ("len", Json::Num(buf.len() as f64)),
            ("fnv1a", Json::Str(format!("{:016x}", fnv1a(&buf)))),
            ("repaired", Json::Bool(backend.is_repaired(chunk))),
        ]),
        Err(e) => err_reply(&format!("read failed: {e}")),
    }
}

/// Per-state job counts at one instant: `[queued, running, done, failed]`.
fn job_state_counts(jobs: &HashMap<u64, Job>) -> [u64; 4] {
    let mut counts = [0u64; 4];
    for job in jobs.values() {
        let i = match job.state {
            JobState::Queued => 0,
            JobState::Running => 1,
            JobState::Done => 2,
            JobState::Failed(_) => 3,
        };
        counts[i] += 1;
    }
    counts
}

/// Render the live-state gauges (`fbf_jobs_running`, `fbf_jobs_total`,
/// `fbf_workers_busy`, `fbf_backends_retained`) as Prometheus text,
/// appended to the finished-job snapshot by `cmd_metrics`.
fn jobs_gauges(counts: [u64; 4], workers: usize, retained: u64) -> String {
    let [queued, running, done, failed] = counts;
    let mut out = String::with_capacity(512);
    out.push_str("# HELP fbf_jobs_running Repair jobs a worker is executing right now.\n");
    out.push_str("# TYPE fbf_jobs_running gauge\n");
    out.push_str(&format!("fbf_jobs_running {running}\n"));
    out.push_str("# HELP fbf_jobs_total Jobs the daemon has accepted, by lifecycle state.\n");
    out.push_str("# TYPE fbf_jobs_total gauge\n");
    for (state, n) in [
        ("queued", queued),
        ("running", running),
        ("done", done),
        ("failed", failed),
    ] {
        out.push_str(&format!("fbf_jobs_total{{state=\"{state}\"}} {n}\n"));
    }
    out.push_str("# HELP fbf_workers_busy Worker threads executing a job, out of the pool.\n");
    out.push_str("# TYPE fbf_workers_busy gauge\n");
    out.push_str(&format!(
        "fbf_workers_busy {}\n",
        running.min(workers as u64)
    ));
    out.push_str(
        "# HELP fbf_backends_retained Completed jobs whose data-plane backend is resident \
         (bounded by the retention cap).\n",
    );
    out.push_str("# TYPE fbf_backends_retained gauge\n");
    out.push_str(&format!("fbf_backends_retained {retained}\n"));
    out
}

fn cmd_metrics(ctx: &Ctx) -> Json {
    let jobs = ctx.jobs.lock().unwrap_or_else(|p| p.into_inner());
    let points: Vec<SweepPoint> = jobs
        .values()
        .filter_map(|job| {
            job.metrics.as_ref().map(|m| SweepPoint {
                config: job.cfg,
                metrics: m.clone(),
            })
        })
        .collect();
    let counts = job_state_counts(&jobs);
    let retained = jobs.values().filter(|j| j.backend.is_some()).count() as u64;
    drop(jobs);
    // The histogram/counter snapshot only covers *finished* jobs (their
    // metrics are immutable); the appended fbf_jobs_*/fbf_workers_busy
    // gauges cover live state, so a mid-job scrape still moves.
    let mut text = crate::prom::prometheus_snapshot(&points);
    text.push_str(&jobs_gauges(counts, ctx.workers, retained));
    ok_reply([
        ("completed", Json::Num(points.len() as f64)),
        ("running", Json::Num(counts[1] as f64)),
        ("queued", Json::Num(counts[0] as f64)),
        (
            "coverage",
            Json::Str(
                "histograms cover finished jobs only; fbf_jobs_* gauges cover live state"
                    .to_string(),
            ),
        ),
        ("prometheus", Json::Str(text)),
    ])
}

/// Live introspection: job-state gauges, per-job progress (trace id,
/// escalation rounds/replans/faults so far), and per-class latency
/// summaries merged across every finished job's digests.
fn cmd_stat(ctx: &Ctx) -> Json {
    let jobs = ctx.jobs.lock().unwrap_or_else(|p| p.into_inner());
    let counts = job_state_counts(&jobs);
    let mut ids: Vec<u64> = jobs.keys().copied().collect();
    ids.sort_unstable();
    let mut merged: [Histogram; RequestClass::COUNT] = Default::default();
    let job_list: Vec<Json> = ids
        .iter()
        .map(|id| {
            let job = &jobs[id];
            let p = job.progress.snapshot();
            let mut fields = vec![
                ("job", Json::Num(*id as f64)),
                ("state", Json::Str(job.state.name().to_string())),
                ("backend", Json::Str(job.backend_kind.clone())),
                ("trace", Json::Num(job.trace as f64)),
                ("rounds", Json::Num(p.rounds as f64)),
                ("replans", Json::Num(p.replans as f64)),
                ("faults", Json::Num(p.faults as f64)),
                ("stripes_lost", Json::Num(p.stripes_lost as f64)),
            ];
            if let Some(m) = &job.metrics {
                for (t, d) in merged.iter_mut().zip(&m.class_digests) {
                    t.merge(d);
                }
                fields.push(("hit_ratio", Json::Num(m.hit_ratio)));
                fields.push(("disk_reads", Json::Num(m.disk_reads as f64)));
            }
            Json::obj(fields)
        })
        .collect();
    drop(jobs);
    let classes: Vec<(&'static str, Json)> = RequestClass::ALL
        .iter()
        .map(|c| {
            let l = ClassLatency::from_histogram(&merged[c.index()]);
            (c.name(), l.to_json_value())
        })
        .collect();
    let [queued, running, done, failed] = counts;
    ok_reply([
        ("uptime_s", Json::Num(ctx.started.elapsed().as_secs_f64())),
        ("workers", Json::Num(ctx.workers as f64)),
        (
            "workers_busy",
            Json::Num(running.min(ctx.workers as u64) as f64),
        ),
        ("queue_depth", Json::Num(queued as f64)),
        ("jobs_running", Json::Num(running as f64)),
        ("jobs_done", Json::Num(done as f64)),
        ("jobs_failed", Json::Num(failed as f64)),
        ("jobs", Json::Arr(job_list)),
        ("class_latency", Json::obj(classes)),
    ])
}

/// Snapshot the flight recorder and return its normalized JSONL inline
/// (the ring is bounded, so the dump always fits a frame).
fn cmd_dump() -> Json {
    if fbf_obs::ring::recorder().is_none() {
        return err_reply("no flight recorder installed");
    }
    let events = fbf_obs::ring::trigger_dump("client-dump");
    let Some((reason, lines)) = fbf_obs::ring::last_dump() else {
        return err_reply("flight recorder produced no dump");
    };
    ok_reply([
        ("reason", Json::Str(reason)),
        ("events", Json::Num(events as f64)),
        ("jsonl", Json::Str(lines.concat())),
    ])
}

/// FNV-1a over a chunk payload — the digest `read` replies carry.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// Why a [`DaemonClient`] exchange did not produce what was asked for.
/// The three protocol variants carry the daemon's own reply, so a caller
/// can still show it verbatim ([`DaemonError::reply`]).
#[derive(Debug)]
pub enum DaemonError {
    /// The transport failed: connect, frame I/O, or a reply that is not
    /// JSON.
    Io(io::Error),
    /// The daemon answered `ok: false`; its `error` field says why.
    Refused(Json),
    /// The job ran and failed; this is its final `status` reply.
    JobFailed(Json),
    /// An `ok: true` reply without a field the protocol promises.
    Malformed(Json),
}

impl DaemonError {
    /// The daemon's reply behind a protocol-level error.
    pub fn reply(&self) -> Option<&Json> {
        match self {
            DaemonError::Io(_) => None,
            DaemonError::Refused(r) | DaemonError::JobFailed(r) | DaemonError::Malformed(r) => {
                Some(r)
            }
        }
    }
}

impl std::fmt::Display for DaemonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let error = |reply: &Json| {
            let text = reply.get("error").and_then(Json::as_str);
            text.unwrap_or("unknown error").to_string()
        };
        match self {
            DaemonError::Io(e) => write!(f, "request failed: {e}"),
            DaemonError::Refused(r) => write!(f, "daemon error: {}", error(r)),
            DaemonError::JobFailed(r) => {
                let job = r.get("job").and_then(Json::as_u64).unwrap_or(0);
                write!(f, "job {job} failed: {}", error(r))
            }
            DaemonError::Malformed(r) => write!(f, "unexpected reply: {}", r.render()),
        }
    }
}

impl std::error::Error for DaemonError {}

impl From<io::Error> for DaemonError {
    fn from(e: io::Error) -> Self {
        DaemonError::Io(e)
    }
}

/// Blocking protocol client for `fbfd` (used by `fbf client` and tests).
pub struct DaemonClient {
    stream: ClientStream,
    stop: AtomicBool,
}

impl DaemonClient {
    /// Connect to a daemon at `addr`.
    pub fn connect(addr: &ServerAddr) -> io::Result<Self> {
        let stream = match addr {
            ServerAddr::Unix(path) => ClientStream::Unix(UnixStream::connect(path)?),
            ServerAddr::Tcp(sock) => ClientStream::Tcp(TcpStream::connect(sock)?),
        };
        stream.set_nonblocking(false)?;
        Ok(DaemonClient {
            stream,
            stop: AtomicBool::new(false),
        })
    }

    /// One exchange whose reply must say `ok: true`; anything else is a
    /// typed error.
    pub fn request(&mut self, req: &Json) -> Result<Json, DaemonError> {
        let reply = self.call(req)?;
        if reply.get("ok").and_then(Json::as_bool) == Some(true) {
            Ok(reply)
        } else {
            Err(DaemonError::Refused(reply))
        }
    }

    /// Submit a job request (`repair` / `rebuild`): the job id the daemon
    /// queued it under, and the whole reply (it also carries `trace`).
    pub fn submit(
        &mut self,
        fields: impl IntoIterator<Item = (&'static str, Json)>,
    ) -> Result<(u64, Json), DaemonError> {
        let reply = self.request(&Json::obj(fields))?;
        match reply.get("job").and_then(Json::as_u64) {
            Some(job) => Ok((job, reply)),
            None => Err(DaemonError::Malformed(reply)),
        }
    }

    /// Poll `status` every `interval` until `job` settles: its final
    /// status when done, [`DaemonError::JobFailed`] when it failed,
    /// [`DaemonError::Refused`] for an id the daemon does not know.
    /// `on_poll` sees each poll's round-trip time — the one completion
    /// loop every client shares.
    pub fn wait(
        &mut self,
        job: u64,
        interval: Duration,
        mut on_poll: impl FnMut(Duration),
    ) -> Result<Json, DaemonError> {
        let status = Json::obj([("cmd", "status".into()), ("job", job.into())]);
        loop {
            let sent = Instant::now();
            let reply = self.request(&status)?;
            on_poll(sent.elapsed());
            match reply.get("state").and_then(Json::as_str) {
                Some("done") => return Ok(reply),
                Some("failed") => return Err(DaemonError::JobFailed(reply)),
                Some(_) => std::thread::sleep(interval),
                None => return Err(DaemonError::Malformed(reply)),
            }
        }
    }

    /// Send one request and wait for its reply, whatever it says — the
    /// raw frame exchange under [`request`](Self::request).
    pub fn call(&mut self, req: &Json) -> io::Result<Json> {
        write_frame(&mut self.stream, &req.render())?;
        self.recv()?
            .ok_or_else(|| io::Error::new(ErrorKind::UnexpectedEof, "daemon closed connection"))
    }

    /// Receive the next frame (used after `subscribe`). `Ok(None)` on a
    /// clean close.
    pub fn recv(&mut self) -> io::Result<Option<Json>> {
        match read_frame(&mut self.stream, &self.stop)? {
            Some(body) => Json::parse(&body)
                .map(Some)
                .map_err(|e| io::Error::new(ErrorKind::InvalidData, e.to_string())),
            None => Ok(None),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip() {
        let mut buf: Vec<u8> = Vec::new();
        write_frame(&mut buf, r#"{"cmd":"ping"}"#).unwrap();
        assert_eq!(&buf[..4], &[0, 0, 0, 14]);
        let stop = AtomicBool::new(false);
        let mut cursor = io::Cursor::new(buf);
        let frame = read_frame(&mut cursor, &stop).unwrap().unwrap();
        assert_eq!(frame, r#"{"cmd":"ping"}"#);
        assert!(read_frame(&mut cursor, &stop).unwrap().is_none());
    }

    #[test]
    fn oversized_frames_are_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(MAX_FRAME as u32 + 1).to_be_bytes());
        let stop = AtomicBool::new(false);
        assert!(read_frame(&mut io::Cursor::new(buf), &stop).is_err());
    }

    #[test]
    fn truncated_frame_is_an_error_not_a_hang() {
        let mut buf = Vec::new();
        write_frame(&mut buf, "hello").unwrap();
        buf.truncate(6); // length says 5, only 2 payload bytes present
        let stop = AtomicBool::new(false);
        let err = read_frame(&mut io::Cursor::new(buf), &stop).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::UnexpectedEof);
    }

    #[test]
    fn fnv1a_matches_reference_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn config_overrides_apply_and_unknown_keys_fail() {
        let req = Json::parse(
            r#"{"cmd":"repair","config":{"policy":"lru","stripes":128,"errors":16,"chunk_kb":1}}"#,
        )
        .unwrap();
        let cfg = config_from_request(&req).unwrap();
        assert_eq!(cfg.stripes, 128);
        assert_eq!(cfg.error_count, 16);
        assert_eq!(cfg.chunk_kb, 1);
        let bad = Json::parse(r#"{"config":{"striipes":128}}"#).unwrap();
        assert!(config_from_request(&bad).is_err());
    }
}
