//! `fbfd` — recovery as a long-running service.
//!
//! The daemon accepts repair / status / read requests over a unix or TCP
//! socket, executes campaigns on a small worker pool (each worker reuses
//! one [`EngineScratch`] and a shared [`PlanStore`], like a sweep
//! thread), and streams progress events to subscribed clients from its
//! flight recorder. Everything is hand-rolled on `std` — a poll loop with
//! short read timeouts is all this protocol needs.
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
//! | `repair`, `rebuild` | what [`Work::from_request`] reads: `config` overrides plus `backend` / `dir` / inline `trace`, or the rebuild spec's fields | `job` id, `trace` id |
//! | `status`    | `job`                                        | `state`, then `metrics` / `rebuild` when done, `error` when failed |
//! | `jobs`      | —                                            | array of `{job, state}` |
//! | `read`      | `job`, `stripe`, `row`, `col`                | chunk length + FNV-1a digest |
//! | `metrics`   | —                                            | Prometheus text: finished jobs + live `fbf_jobs_*` gauges |
//! | `stat`      | —                                            | live introspection: job states, per-job progress, merged class latency |
//! | `dump`      | —                                            | snapshot the flight recorder, reply with its JSONL |
//! | `subscribe` | —                                            | stream of `{"event": <chrome line>}` frames, followed from the flight recorder |
//! | `shutdown`  | —                                            | ack, then the daemon exits |
//!
//! This module is the transport and the job table. What a job *is* — the
//! request's fields, every refusal before it is queued, how it runs —
//! lives in [`crate::job`], shared with the `fbf` CLI.
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
//! ([`fbf_obs::FlightRecorder`]), the daemon's one event tap: `dump` (or
//! a `DataLoss` trigger) snapshots it for post-mortems, and
//! `subscribe` follows it live, whatever subscriber is installed.
//!
//! The `read` command serves from the job's retained
//! [`StorageBackend`](fbf_disksim::StorageBackend)
//! (repaired chunks come from the spare area), so a client can verify
//! recovered content end to end without shipping chunk payloads through
//! JSON — it gets a digest instead.

use crate::job::{int_field, scratch_root, BackendKind, Outcome, Work};
use crate::metrics::{ClassLatency, Metrics, METRICS_SCHEMA_VERSION};
use crate::plan::PlanStore;
use crate::progress::{Progress, ProgressSnapshot};
use crate::prom::{prometheus_snapshot, Live};
use crate::sweep::panic_message;
use fbf_codes::{Cell, ChunkId};
use fbf_disksim::{Digest, EngineScratch, RequestClass};
use fbf_obs::{FlightRecorder, HostTime, Json};
use std::collections::{HashMap, VecDeque};
use std::io::{self, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Protocol revision spoken by this daemon (bumped on breaking changes).
const PROTOCOL_VERSION: u64 = 1;

/// Hard cap on one frame's payload (a config + inline trace fits in a
/// fraction of this; anything bigger is a corrupt length prefix).
pub const MAX_FRAME: usize = 64 << 20;

/// A frame body's first allocation; see [`read_frame`].
const FRAME_STEP: usize = 8 << 10;

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
    /// Repair worker threads (each owns an [`EngineScratch`]); 0 is read
    /// as 1.
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
/// a frame torn across a timeout boundary. The body is allocated as it
/// arrives, each step no larger than what came before it (the first is
/// 8 KiB), so a length prefix the peer does not back with bytes cannot
/// make the reader allocate the length it claims.
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
    let mut body = Vec::new();
    while body.len() < len {
        let filled = body.len();
        body.resize(len.min(filled + filled.max(FRAME_STEP)), 0);
        if !read_exact_stoppable(r, &mut body[filled..], stop, false)? {
            return Err(io::Error::new(
                ErrorKind::UnexpectedEof,
                "connection closed mid-frame",
            ));
        }
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

/// One job's lifecycle; each state holds what it needs and no more, so a
/// finished job keeps its outcome and not its request. Payloads are boxed:
/// the job table's empty slots cost a `JobState`'s size too.
enum JobState {
    /// Accepted, waiting for a worker: what was asked for.
    Queued(Box<Work>),
    /// A worker is executing it and publishing its live escalation
    /// counters (`stat`).
    Running(Arc<Progress>),
    /// Finished: the outcome `status` reports and `read` serves from.
    Done(Box<Outcome>),
    /// Failed: the error message and the escalation counters at the end.
    Failed(Box<(String, ProgressSnapshot)>),
}

impl JobState {
    /// Wire spellings, indexed by [`JobState::index`].
    const NAMES: [&'static str; 4] = ["queued", "running", "done", "failed"];

    fn index(&self) -> usize {
        match self {
            JobState::Queued(_) => 0,
            JobState::Running(_) => 1,
            JobState::Done(_) => 2,
            JobState::Failed(_) => 3,
        }
    }
}

struct Job {
    /// The backend the request named ([`Work::backend_name`]).
    backend: &'static str,
    state: JobState,
    /// The request's trace id (minted or client-supplied); every event
    /// the job emits carries it.
    trace: u64,
}

impl Job {
    /// What `status`, `jobs` and `stat` all say of a job.
    fn header(&self, id: u64) -> Vec<(&'static str, Json)> {
        vec![
            ("job", id.into()),
            ("state", JobState::NAMES[self.state.index()].into()),
            ("backend", self.backend.into()),
        ]
    }

    /// The metrics of a finished repair.
    fn metrics(&self) -> Option<&Metrics> {
        match &self.state {
            JobState::Done(outcome) => match &**outcome {
                Outcome::Repair { metrics, .. } => Some(metrics),
                Outcome::Rebuild(_) => None,
            },
            _ => None,
        }
    }

    /// What `stat` says of the job's escalation: a finished repair's
    /// metrics, whatever backend ran it, else the progress it published
    /// (none before it runs, and none for a rebuild).
    fn escalation(&self) -> ProgressSnapshot {
        if let Some(m) = self.metrics() {
            return ProgressSnapshot {
                rounds: m.replan_rounds,
                replans: m.replans,
                faults: m.faults.hard_failures(),
                stripes_lost: m.stripes_lost as u64,
            };
        }
        match &self.state {
            JobState::Running(progress) => progress.snapshot(),
            JobState::Failed(failure) => failure.1,
            _ => ProgressSnapshot::default(),
        }
    }
}

struct Ctx {
    shutdown: AtomicBool,
    jobs: Mutex<HashMap<u64, Job>>,
    queue: mpsc::Sender<u64>,
    next_id: AtomicU64,
    /// The flight recorder `subscribe` follows.
    recorder: Arc<FlightRecorder>,
    /// Worker-pool size (`stat` reports busy/total).
    workers: usize,
    /// Backend retention cap ([`DaemonOptions::retain`]).
    retain: usize,
    /// Jobs whose backend is resident, oldest completion first.
    retained: Mutex<VecDeque<u64>>,
    /// Root of the directories this daemon chooses for `file` jobs that
    /// named none: `job-<id>` under it, one per job.
    scratch: PathBuf,
    /// When `serve` started (`stat` reports uptime).
    started: Instant,
}

/// A running daemon: join it via [`DaemonHandle::shutdown`].
pub struct DaemonHandle {
    addr: ServerAddr,
    ctx: Arc<Ctx>,
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
        self.ctx.shutdown.load(Ordering::Relaxed)
    }

    /// Stop accepting, drain the worker pool, and clean up the socket.
    pub fn shutdown(mut self) {
        self.stop();
    }

    /// Block until the daemon stops on its own (a client's `shutdown`
    /// command), then clean up. Used by the `fbfd` binary's foreground
    /// mode.
    pub fn wait(mut self) {
        while !self.ctx.shutdown.load(Ordering::Relaxed) {
            std::thread::sleep(ACCEPT_POLL);
        }
        self.stop();
    }

    fn stop(&mut self) {
        self.ctx.shutdown.store(true, Ordering::Relaxed);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
        if let ServerAddr::Unix(path) = &self.addr {
            let _ = std::fs::remove_file(path);
        }
        let _ = std::fs::remove_dir_all(&self.ctx.scratch);
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
enum ClientStream {
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

/// Start serving on `addr`. Installs the process flight recorder (unless
/// one is already installed), which `subscribe`d clients follow and
/// `dump` snapshots.
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

    // Always-on flight recorder: post-mortems of faulted jobs need no
    // pre-enabled tracing. Kept if one is already installed (`fbf serve
    // --ring-cap`, tests), and deliberately never uninstalled on shutdown
    // — the recorder is per-process and a later daemon reuses it.
    let recorder = fbf_obs::ring::install_default();

    // Job ids restart at 1 in every daemon, so a second daemon in one
    // process (tests) gets a scratch root of its own.
    static SERVED: AtomicU64 = AtomicU64::new(0);
    let scratch = match SERVED.fetch_add(1, Ordering::Relaxed) {
        0 => scratch_root(),
        n => scratch_root().with_extension(n.to_string()),
    };
    let (queue_tx, queue_rx) = mpsc::channel::<u64>();
    let workers = opts.workers.max(1);
    let ctx = Arc::new(Ctx {
        shutdown: AtomicBool::new(false),
        jobs: Mutex::new(HashMap::new()),
        queue: queue_tx,
        next_id: AtomicU64::new(1),
        recorder,
        workers,
        retain: opts.retain,
        retained: Mutex::new(VecDeque::new()),
        scratch,
        started: Instant::now(),
    });

    let queue_rx = Arc::new(Mutex::new(queue_rx));
    let store = Arc::new(PlanStore::new());
    let workers: Vec<_> = (0..workers)
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
        ctx,
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
        run_job(ctx, store, &mut scratch, job_id);
    }
}

/// Run queued job `job_id` to its end: the worker takes the request out
/// of the table, and [`Ctx::finish`] puts the outcome back.
fn run_job(ctx: &Ctx, store: &PlanStore, scratch: &mut EngineScratch, job_id: u64) {
    let Some((work, trace, progress)) = ({
        let mut jobs = ctx.jobs.lock().unwrap_or_else(|p| p.into_inner());
        jobs.get_mut(&job_id).map(|job| {
            let progress = Arc::new(Progress::new());
            let running = JobState::Running(Arc::clone(&progress));
            let JobState::Queued(work) = std::mem::replace(&mut job.state, running) else {
                unreachable!("only a queued job is sent to the workers");
            };
            (work, job.trace, progress)
        })
    }) else {
        return;
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
            ("backend", fbf_obs::Value::Str(work.backend_name())),
        ],
    );
    // A panicking job must become `Failed`, not a dead worker thread:
    // before this guard, a panic left the job `Running` forever, so
    // the `fbf_jobs_total{state}` gauges drifted (a phantom running
    // job, one fewer live worker) for the rest of the daemon's life.
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        work.execute(store, scratch, Some(&progress))
            .map_err(|e| e.to_string())
    }))
    .unwrap_or_else(|panic| {
        // The scratch may hold a torn event heap; start fresh.
        *scratch = EngineScratch::new();
        Err(format!("job panicked: {}", panic_message(&*panic)))
    });
    drop(work);
    let failed = outcome.is_err();
    ctx.finish(job_id, outcome);
    fbf_obs::instant("daemon", "job-end", &[("job", fbf_obs::Value::U64(job_id))]);
    root.end_with(&[
        ("job", fbf_obs::Value::U64(job_id)),
        ("failed", fbf_obs::Value::U64(u64::from(failed))),
    ]);
    drop(trace_guard);
}

impl Ctx {
    /// The directory this daemon chose for job `id`'s files, if it chose.
    fn job_dir(&self, id: u64) -> PathBuf {
        self.scratch.join(format!("job-{id}"))
    }

    /// Record what a worker produced. A backend that stays resident joins
    /// the retention queue and evicts the oldest beyond the cap — the
    /// array and the directory the daemon chose for it go, the metrics
    /// stay.
    fn finish(&self, id: u64, outcome: Result<Outcome, String>) {
        let mut evicted = Vec::new();
        let mut jobs = self.jobs.lock().unwrap_or_else(|p| p.into_inner());
        let Some(job) = jobs.get_mut(&id) else {
            return;
        };
        let resident = matches!(
            outcome,
            Ok(Outcome::Repair {
                backend: Some(_),
                ..
            })
        );
        let escalation = job.escalation();
        job.state = match outcome {
            Ok(outcome) => JobState::Done(Box::new(outcome)),
            Err(message) => JobState::Failed(Box::new((message, escalation))),
        };
        if resident {
            let mut retained = self.retained.lock().unwrap_or_else(|p| p.into_inner());
            retained.push_back(id);
            while retained.len() > self.retain {
                evicted.extend(retained.pop_front());
            }
        }
        for old in &evicted {
            if let Some(JobState::Done(outcome)) = jobs.get_mut(old).map(|job| &mut job.state) {
                if let Outcome::Repair { backend, .. } = &mut **outcome {
                    *backend = None;
                }
            }
        }
        drop(jobs);
        for old in evicted {
            let _ = std::fs::remove_dir_all(self.job_dir(old));
        }
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
    let rx = ctx.recorder.follow();
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

/// Every reply opens with `ok` and the schema version.
fn reply(ok: bool, fields: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
    let head = [
        ("ok", Json::Bool(ok)),
        ("schema_version", METRICS_SCHEMA_VERSION.into()),
    ];
    Json::obj(head.into_iter().chain(fields))
}

fn ok_reply(fields: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
    reply(true, fields)
}

fn err_reply(msg: &str) -> Json {
    reply(false, [("error", msg.into())])
}

fn dispatch(cmd: &str, req: &Json, ctx: &Ctx) -> Json {
    match cmd {
        "ping" => ok_reply([
            ("pong", Json::Bool(true)),
            ("protocol", Json::Num(PROTOCOL_VERSION as f64)),
        ]),
        "repair" | "rebuild" => submit(req, ctx),
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

/// `repair` / `rebuild`: check the request whole ([`Work::from_request`]
/// owns every refusal), then queue it as a job. The reply carries the job
/// id and the trace id every event of the job will carry.
fn submit(req: &Json, ctx: &Ctx) -> Json {
    let mut work = match Work::from_request(req) {
        Ok(work) => work,
        Err(e) => return err_reply(&e.to_string()),
    };
    // Adopt the client's trace id when it sent one (load generators stamp
    // their own so client-side and daemon-side events correlate); mint
    // otherwise. Either way the reply echoes it.
    let trace = match req.get("trace_id").and_then(Json::as_u64) {
        Some(t) if t != 0 => t,
        _ => fbf_obs::next_trace_id(),
    };
    let id = ctx.next_id.fetch_add(1, Ordering::Relaxed);
    // Every `file` job that named no directory gets one of its own: a
    // shared one would be reformatted under an earlier job's retained array.
    if let Work::Repair {
        backend: BackendKind::File(dir @ None),
        ..
    } = &mut work
    {
        *dir = Some(ctx.job_dir(id));
    }
    let job = Job {
        backend: work.backend_name(),
        state: JobState::Queued(Box::new(work)),
        trace,
    };
    let mut jobs = ctx.jobs.lock().unwrap_or_else(|p| p.into_inner());
    jobs.insert(id, job);
    if ctx.queue.send(id).is_err() {
        // The workers are gone: nothing would ever run it.
        jobs.remove(&id);
        return err_reply("daemon is shutting down");
    }
    ok_reply([("job", id.into()), ("trace", trace.into())])
}

fn cmd_status(req: &Json, ctx: &Ctx) -> Json {
    let Some(id) = req.get("job").and_then(Json::as_u64) else {
        return err_reply("status needs a numeric `job`");
    };
    let jobs = ctx.jobs.lock().unwrap_or_else(|p| p.into_inner());
    let Some(job) = jobs.get(&id) else {
        return err_reply(&format!("no such job {id}"));
    };
    let mut fields = job.header(id);
    fields.extend(match &job.state {
        JobState::Queued(_) | JobState::Running(_) => None,
        JobState::Failed(failure) => Some(("error", failure.0.as_str().into())),
        JobState::Done(outcome) => match &**outcome {
            Outcome::Repair { metrics, .. } => Some(("metrics", metrics.to_json_value())),
            Outcome::Rebuild(outcome) => Some(("rebuild", outcome.to_json_value())),
        },
    });
    ok_reply(fields)
}

/// The job table in id order.
fn by_id(jobs: &HashMap<u64, Job>) -> Vec<(u64, &Job)> {
    let mut list: Vec<_> = jobs.iter().map(|(&id, job)| (id, job)).collect();
    list.sort_unstable_by_key(|&(id, _)| id);
    list
}

fn cmd_jobs(ctx: &Ctx) -> Json {
    let jobs = ctx.jobs.lock().unwrap_or_else(|p| p.into_inner());
    let list = by_id(&jobs).into_iter();
    let list = list.map(|(id, job)| Json::obj(job.header(id))).collect();
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
    let (repair, backend) = match &mut job.state {
        JobState::Done(outcome) => match &mut **outcome {
            Outcome::Repair { backend, .. } => (true, backend.as_mut()),
            Outcome::Rebuild(_) => (false, None),
        },
        _ => (false, None),
    };
    let Some(backend) = backend else {
        // A finished repair off the engine had an array: the cap took it.
        let evicted = repair && job.backend != "engine";
        return err_reply(match evicted {
            true => "job's backend was evicted by the retention cap (rerun or raise --retain)",
            false => "job has no data-plane backend (engine jobs move identities only)",
        });
    };
    let mapping = backend.mapping();
    if row >= mapping.rows || col >= mapping.cols {
        return err_reply(&format!(
            "read failed: cell ({row},{col}) is outside the {}x{} stripe",
            mapping.rows, mapping.cols
        ));
    }
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

/// The job table at one instant, read under the jobs lock: what the live
/// gauges of `metrics` and the header of `stat` report.
fn live(ctx: &Ctx, jobs: &HashMap<u64, Job>) -> Live {
    let mut counts = [0u64; 4];
    for job in jobs.values() {
        counts[job.state.index()] += 1;
    }
    let [_, running, ..] = counts;
    Live {
        jobs: std::array::from_fn(|i| (JobState::NAMES[i], counts[i])),
        running,
        busy: running.min(ctx.workers as u64),
        retained: ctx.retained.lock().unwrap_or_else(|p| p.into_inner()).len() as u64,
    }
}

fn cmd_metrics(ctx: &Ctx) -> Json {
    let jobs = ctx.jobs.lock().unwrap_or_else(|p| p.into_inner());
    // Rendered from the finished jobs' metrics where they live: a scrape
    // copies no job. The histograms and counters cover *finished* jobs
    // (their metrics are immutable); the live gauges after them cover the
    // table, so a mid-job scrape still moves.
    let finished = || jobs.values().filter_map(Job::metrics);
    let completed = finished().count();
    let live = live(ctx, &jobs);
    let text = prometheus_snapshot(finished(), Some(&live));
    drop(jobs);
    let [(_, queued), ..] = live.jobs;
    ok_reply([
        ("completed", Json::Num(completed as f64)),
        ("running", live.running.into()),
        ("queued", queued.into()),
        (
            "coverage",
            "histograms cover finished jobs only; fbf_jobs_* gauges cover live state".into(),
        ),
        ("prometheus", Json::Str(text)),
    ])
}

/// Live introspection: job-state gauges, per-job escalation counters
/// (trace id, rounds/replans/faults — live while the job runs, from its
/// metrics once it is done), and per-class latency summaries merged
/// across every finished job's digests.
fn cmd_stat(ctx: &Ctx) -> Json {
    let jobs = ctx.jobs.lock().unwrap_or_else(|p| p.into_inner());
    let live = live(ctx, &jobs);
    let mut merged: [Digest; RequestClass::COUNT] = Default::default();
    let job_list: Vec<Json> = by_id(&jobs)
        .into_iter()
        .map(|(id, job)| {
            let p = job.escalation();
            let mut fields = job.header(id);
            fields.extend([
                ("trace", job.trace.into()),
                ("rounds", p.rounds.into()),
                ("replans", p.replans.into()),
                ("faults", p.faults.into()),
                ("stripes_lost", p.stripes_lost.into()),
            ]);
            if let Some(m) = job.metrics() {
                for (t, d) in merged.iter_mut().zip(&m.class_digests) {
                    t.merge(d);
                }
                fields.push(("hit_ratio", Json::Num(m.hit_ratio)));
                fields.push(("disk_reads", m.disk_reads.into()));
            }
            Json::obj(fields)
        })
        .collect();
    drop(jobs);
    let classes: Vec<(&'static str, Json)> = RequestClass::ALL
        .iter()
        .map(|c| {
            let l = ClassLatency::from_digest(&merged[c.index()]);
            (c.name(), l.to_json_value())
        })
        .collect();
    let [(_, queued), _, (_, done), (_, failed)] = live.jobs;
    ok_reply([
        ("host_uptime_s", HostTime::since(ctx.started).secs().into()),
        ("workers", Json::Num(ctx.workers as f64)),
        ("workers_busy", live.busy.into()),
        ("queue_depth", queued.into()),
        ("jobs_running", live.running.into()),
        ("jobs_done", done.into()),
        ("jobs_failed", failed.into()),
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
}

impl DaemonClient {
    /// Connect to a daemon at `addr`.
    pub fn connect(addr: &ServerAddr) -> io::Result<Self> {
        let stream = match addr {
            ServerAddr::Unix(path) => ClientStream::Unix(UnixStream::connect(path)?),
            ServerAddr::Tcp(sock) => ClientStream::Tcp(TcpStream::connect(sock)?),
        };
        Ok(DaemonClient { stream })
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
        // The client sets no read timeout, so nothing ever needs to stop it.
        match read_frame(&mut self.stream, &AtomicBool::new(false))? {
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

    /// A daemon's context with no listener and no workers: a test submits
    /// jobs and runs them on its own thread.
    fn bare_ctx() -> (Ctx, mpsc::Receiver<u64>) {
        let (queue, rx) = mpsc::channel();
        let ctx = Ctx {
            shutdown: AtomicBool::new(false),
            jobs: Mutex::default(),
            queue,
            next_id: AtomicU64::new(1),
            recorder: Arc::new(FlightRecorder::with_capacity(1)),
            workers: 1,
            retain: 0,
            retained: Mutex::default(),
            scratch: scratch_root().with_extension("unit"),
            started: Instant::now(),
        };
        (ctx, rx)
    }

    #[test]
    fn a_finished_job_holds_no_work() {
        let (ctx, queue) = bare_ctx();
        // A trace replay: the request carries its campaign inline.
        let code = fbf_codes::StripeCode::build(fbf_codes::CodeSpec::Tip, 7).unwrap();
        let errors = fbf_workload::generate_errors(
            &code,
            &fbf_workload::ErrorGenConfig::paper_default(64, 16, 9),
        );
        let req = Json::obj([
            ("cmd", "repair".into()),
            ("trace", fbf_workload::render_trace(&errors).into()),
            ("config", Json::obj([("stripes", Json::Num(64.0))])),
        ]);
        let id = submit(&req, &ctx).get("job").and_then(Json::as_u64);
        let id = id.expect("the repair is queued");
        let queued = |ctx: &Ctx| matches!(ctx.jobs.lock().unwrap()[&id].state, JobState::Queued(_));
        assert!(queued(&ctx), "the request waits in the table");
        run_job(
            &ctx,
            &PlanStore::new(),
            &mut EngineScratch::new(),
            queue.recv().unwrap(),
        );
        let jobs = ctx.jobs.lock().unwrap();
        let job = &jobs[&id];
        assert!(matches!(job.state, JobState::Done(_)), "the repair ran");
        assert_eq!(job.backend, "engine");
        assert!(job.metrics().is_some_and(|m| m.disk_reads > 0));
        // The entry is the backend's name, the trace id and one boxed
        // outcome: no request, no progress block.
        assert_eq!(std::mem::size_of::<Job>(), 40);
    }

    #[test]
    fn fnv1a_matches_reference_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }
}
