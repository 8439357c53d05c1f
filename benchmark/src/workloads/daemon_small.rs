//! `daemon_small` — small engine jobs through `fbfd`: service overhead is
//! the op. One op submits a `repair` on one unix-socket connection and
//! polls `status` until `done`.
//!
//! Poll discipline (part of the workload's definition): `yield_now`
//! between polls, never a sleep — a 100 µs sleep more than doubles the
//! median and multiplies the tail. The daemon is this binary re-executed
//! in `serve` mode with one worker, restarted every pass because its job
//! table grows without bound.

use super::{ensure, Baseline, Ctx, Pass, Workload};
use crate::env::proc_status_kb;
use crate::metrics::Values;
use crate::span::Tracer;
use crate::stats::median;
use fbf::core::runner::run_planned_with_scratch;
use fbf::disksim::EngineScratch;
use fbf::{DaemonClient, ExperimentConfig, Json, Metrics, PlanStore, ServerAddr};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

const PLANS: usize = 8;
const STARTUP_TIMEOUT: Duration = Duration::from_secs(20);
const JOB_TIMEOUT: Duration = Duration::from_secs(20);
/// Calls timed for each of the small per-call probes of the traced run.
const PROBE_CALLS: usize = 200;

/// One `fbfd` child and the connection to it.
struct Daemon {
    child: Child,
    client: DaemonClient,
}

impl Daemon {
    fn start(socket: &Path) -> Result<Self, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let mut child = Command::new(exe)
            .arg("serve")
            .arg("--socket")
            .arg(socket)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawn daemon: {e}"))?;
        let addr = ServerAddr::Unix(socket.to_path_buf());
        let deadline = Instant::now() + STARTUP_TIMEOUT;
        loop {
            match DaemonClient::connect(&addr) {
                Ok(client) => return Ok(Daemon { child, client }),
                Err(e) => {
                    let exited = child.try_wait().ok().flatten();
                    if exited.is_some() || Instant::now() > deadline {
                        let _ = child.kill();
                        let _ = child.wait();
                        return Err(format!("daemon did not come up ({e}; exit {exited:?})"));
                    }
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
        }
    }

    fn call(&mut self, req: &Json) -> Result<Json, String> {
        let reply = self
            .client
            .call(req)
            .map_err(|e| format!("daemon call: {e}"))?;
        ensure(
            reply.get("ok").and_then(Json::as_bool) == Some(true),
            || format!("daemon refused {}: {}", req.render(), reply.render()),
        )?;
        Ok(reply)
    }

    fn status_kb(&self, key: &str) -> Result<u64, String> {
        proc_status_kb(self.child.id(), key).ok_or_else(|| format!("no {key} for the daemon"))
    }

    /// Ask for a clean shutdown and wait for the child to exit.
    fn stop(mut self) -> Result<(), String> {
        self.call(&Json::obj([("cmd", Json::Str("shutdown".into()))]))?;
        let status = self.child.wait().map_err(|e| format!("wait daemon: {e}"))?;
        ensure(status.success(), || format!("daemon exited with {status}"))
    }
}

impl Drop for Daemon {
    /// No daemon outlives its owner, whatever path dropped it.
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// A job as the client sees it: the request, and what a direct in-process
/// run of the same config says the reply must carry.
struct Job {
    cfg: ExperimentConfig,
    request: Json,
    direct: Metrics,
    /// `direct` as the daemon renders metrics, for field-by-field equality.
    expected: Json,
}

/// State of the `daemon_small` workload.
pub struct DaemonSmall {
    socket: PathBuf,
    jobs: Vec<Job>,
    jobs_per_pass: usize,
    daemon: Option<Daemon>,
    /// Jobs submitted to the running daemon beyond the plan warm-up.
    served: usize,
    peak_rss_kb: Vec<f64>,
}

fn state_of(reply: &Json) -> &str {
    reply.get("state").and_then(Json::as_str).unwrap_or("")
}

fn status_request(submit_reply: &Json) -> Result<Json, String> {
    let id = submit_reply
        .get("job")
        .and_then(Json::as_u64)
        .ok_or("repair reply without a job id")?;
    Ok(Json::obj([
        ("cmd", Json::Str("status".into())),
        ("job", Json::Num(id as f64)),
    ]))
}

/// The `done` reply must carry the direct run's metrics, field for field —
/// every count and every virtual time the daemon reports. That equality is
/// what lets a pass fold `job.direct` into its simulated statistics.
fn check(job: &Job, reply: &Json) -> Result<(), String> {
    let metrics = reply.get("metrics").ok_or("done reply without metrics")?;
    let Json::Obj(expected) = &job.expected else {
        return Err("direct run's metrics are not an object".into());
    };
    for (key, want) in expected {
        ensure(metrics.get(key) == Some(want), || {
            format!("{key}: daemon {:?}, direct run {want:?}", metrics.get(key))
        })?;
    }
    ensure(
        metrics.get("disk_writes") == metrics.get("chunks_recovered"),
        || {
            format!(
                "{:?} spare writes for {:?} chunks",
                metrics.get("disk_writes"),
                metrics.get("chunks_recovered")
            )
        },
    )
}

impl DaemonSmall {
    fn daemon(&mut self) -> &mut Daemon {
        self.daemon
            .as_mut()
            .expect("a daemon runs between setup and drop")
    }

    /// Start a daemon and run every distinct config once, so each later
    /// job finds its plan in the daemon's store.
    fn start(&mut self) -> Result<(), String> {
        self.daemon = Some(Daemon::start(&self.socket)?);
        for index in 0..self.jobs.len() {
            self.job(index)?;
        }
        self.served = 0;
        Ok(())
    }

    fn stop(&mut self) -> Result<(), String> {
        match self.daemon.take() {
            Some(daemon) => daemon.stop(),
            None => Ok(()),
        }
    }

    /// One op: submit, then poll until done. Returns the `done` reply.
    fn job(&mut self, index: usize) -> Result<Json, String> {
        let request = self.jobs[index % PLANS].request.clone();
        let daemon = self.daemon();
        let status = status_request(&daemon.call(&request)?)?;
        let deadline = Instant::now() + JOB_TIMEOUT;
        loop {
            let reply = daemon.call(&status)?;
            match state_of(&reply) {
                "done" => {
                    self.served += 1;
                    return Ok(reply);
                }
                "queued" | "running" if Instant::now() < deadline => std::thread::yield_now(),
                _ => return Err(format!("job did not finish: {}", reply.render())),
            }
        }
    }
}

impl Workload for DaemonSmall {
    /// 400 jobs and a daemon restart ≈ 0.4 s a pass.
    const PASSES: usize = 24;

    fn setup(ctx: &Ctx) -> Result<Self, String> {
        let dir = ctx.work_dir();
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        let mut scratch = EngineScratch::new();
        let jobs = (0..PLANS)
            .map(|i| {
                // JSON numbers are f64: keep the seed within 2^53.
                let seed = ctx.derive("daemon_small.campaign", i) >> 16;
                let (stripes, errors, workers, cache_mb) = (512u32, 64usize, 16usize, 16usize);
                let cfg = ExperimentConfig::builder()
                    .stripes(stripes)
                    .error_count(errors)
                    .workers(workers)
                    .cache_mb(cache_mb)
                    .seed(seed)
                    .gen_threads(1)
                    .build()
                    .map_err(|e| e.to_string())?;
                let num = |n: u64| Json::Num(n as f64);
                let request = Json::obj([
                    ("cmd", Json::Str("repair".into())),
                    ("backend", Json::Str("engine".into())),
                    (
                        "config",
                        Json::obj([
                            ("stripes", num(u64::from(stripes))),
                            ("errors", num(errors as u64)),
                            ("workers", num(workers as u64)),
                            ("cache_mb", num(cache_mb as u64)),
                            ("seed", num(seed)),
                            ("gen_threads", num(1)),
                        ]),
                    ),
                ]);
                let plan = fbf::core::PlannedCampaign::cold(&cfg).map_err(|e| e.to_string())?;
                let direct =
                    run_planned_with_scratch(&cfg, &plan, fbf::PlanSource::Cold, &mut scratch);
                let expected = Json::parse(&direct.to_json()).map_err(|e| e.to_string())?;
                Ok(Job {
                    cfg,
                    request,
                    direct,
                    expected,
                })
            })
            .collect::<Result<_, String>>()?;
        let mut state = DaemonSmall {
            socket: dir.join("fbfd.sock"),
            jobs,
            jobs_per_pass: ctx.scaled(400, 20),
            daemon: None,
            served: 0,
            peak_rss_kb: Vec::new(),
        };
        state.start()?;
        Ok(state)
    }

    fn pass(&mut self, pass: &mut Pass) -> Result<(), String> {
        if self.served > 0 {
            self.stop()?;
            self.start()?;
        }
        for index in 0..self.jobs_per_pass {
            let reply = pass.time(|| self.job(index))?;
            let job = &self.jobs[index % PLANS];
            pass.check(job.direct.chunks_recovered as u64, check(job, &reply));
            // Every field of the reply was just matched against the direct
            // in-process run of the same config; fold that run's counters in
            // (the reply renders the hit ratio, not the cache counters).
            pass.sim.add_metrics(&job.direct);
        }
        let hwm = self.daemon().status_kb("VmHWM")?;
        self.peak_rss_kb.push(hwm as f64);
        Ok(())
    }

    fn peak_rss_kb(&self) -> Option<u64> {
        Some(median(&self.peak_rss_kb) as u64)
    }

    fn trace(
        &mut self,
        _ctx: &Ctx,
        tracer: &mut Tracer,
        baseline: &Baseline,
        layers: &mut Values,
    ) -> Result<(), String> {
        let us = |d: Duration| d.as_secs_f64() * 1e6;
        self.stop()?;
        self.start()?;

        // A second connection, opened and dropped again before any op.
        let addr = ServerAddr::Unix(self.socket.clone());
        let t = Instant::now();
        let extra = DaemonClient::connect(&addr).map_err(|e| format!("connect: {e}"))?;
        layers.set("daemon.connect_ms", t.elapsed().as_secs_f64() * 1e3);
        drop(extra);
        let ping = Json::obj([("cmd", Json::Str("ping".into()))]);
        let mut ping_us = Vec::with_capacity(PROBE_CALLS);
        for _ in 0..PROBE_CALLS {
            let t = Instant::now();
            self.daemon().call(&ping)?;
            ping_us.push(us(t.elapsed()));
        }
        layers.set("daemon.ping_us", median(&ping_us));

        let rss_before = self.daemon().status_kb("VmRSS")?;
        let (mut polls, mut detect_us) = (0u64, Vec::with_capacity(self.jobs_per_pass));
        let mut last_done = None;
        for index in 0..self.jobs_per_pass {
            let request = self.jobs[index % PLANS].request.clone();
            let op = tracer.open_op();
            let span = tracer.open("daemon.submit");
            let submitted = self.daemon().call(&request)?;
            let mut previous_end = Instant::now();
            tracer.close(span);
            let status = status_request(&submitted)?;
            let reply = loop {
                let span = tracer.open("daemon.status");
                let reply = self.daemon().call(&status)?;
                let now = Instant::now();
                tracer.close(span);
                polls += 1;
                match state_of(&reply) {
                    "done" => {
                        detect_us.push(us(now - previous_end));
                        break reply;
                    }
                    "queued" | "running" => {
                        previous_end = now;
                        std::thread::yield_now();
                    }
                    _ => return Err(format!("job did not finish: {}", reply.render())),
                }
            };
            tracer.close(op);
            check(&self.jobs[index % PLANS], &reply)?;
            last_done = Some(reply);
        }
        let rss_after = self.daemon().status_kb("VmRSS")?;
        let jobs = self.jobs_per_pass as f64;
        layers.set(
            "daemon.rss_kb_per_job",
            rss_after.saturating_sub(rss_before) as f64 / jobs,
        );
        layers.set("daemon.polls_per_job", polls as f64 / jobs);
        layers.set("daemon.detect_us", median(&detect_us));
        for (metric, span) in [
            ("daemon.submit_us", "daemon.submit"),
            ("daemon.status_us", "daemon.status"),
        ] {
            let durations: Vec<f64> = tracer
                .durations_ms(span)
                .iter()
                .map(|ms| ms * 1e3)
                .collect();
            layers.set(metric, median(&durations));
        }

        // The same jobs in-process: warm plan lookup, simulate, render.
        let store = PlanStore::new();
        let mut scratch = EngineScratch::new();
        for job in &self.jobs {
            store.plan(&job.cfg).map_err(|e| e.to_string())?;
        }
        let (mut direct_ms, mut warm_us) = (vec![], vec![]);
        let mut rendered = String::new();
        for index in 0..self.jobs_per_pass {
            let cfg = &self.jobs[index % PLANS].cfg;
            let t = Instant::now();
            let (plan, source) = store.plan(cfg).map_err(|e| e.to_string())?;
            warm_us.push(us(t.elapsed()));
            let metrics = run_planned_with_scratch(cfg, &plan, source, &mut scratch);
            rendered = metrics.to_json();
            direct_ms.push(t.elapsed().as_secs_f64() * 1e3);
        }
        std::hint::black_box(&rendered);
        let stats = store.stats();
        layers.set(
            "core.planstore_hit_ratio",
            stats.hits as f64 / (stats.hits + stats.misses).max(1) as f64,
        );
        layers.set("core.plan_warm_us", median(&warm_us));
        layers.set("daemon.direct_ms", median(&direct_ms));
        layers.set(
            "daemon.overhead_ms",
            baseline.op_p50_ms - median(&direct_ms),
        );

        // JSON costs on a real `done` reply.
        let reply = last_done.ok_or("traced pass ran no job")?;
        let text = reply.render();
        let cfg = &self.jobs[0].cfg;
        let (plan, source) = store.plan(cfg).map_err(|e| e.to_string())?;
        let metrics = run_planned_with_scratch(cfg, &plan, source, &mut scratch);
        let probe = |f: &mut dyn FnMut()| {
            let samples: Vec<f64> = (0..PROBE_CALLS)
                .map(|_| {
                    let t = Instant::now();
                    f();
                    us(t.elapsed())
                })
                .collect();
            median(&samples)
        };
        layers.set(
            "core.json_parse_us",
            probe(&mut || {
                std::hint::black_box(Json::parse(&text).is_ok());
            }),
        );
        layers.set(
            "core.json_render_us",
            probe(&mut || {
                std::hint::black_box(reply.render());
            }),
        );
        layers.set(
            "core.metrics_to_json_us",
            probe(&mut || {
                std::hint::black_box(metrics.to_json());
            }),
        );
        Ok(())
    }
}

impl Drop for DaemonSmall {
    fn drop(&mut self) {
        // A clean shutdown removes the socket file; Daemon's own Drop
        // kills the child if that fails.
        let _ = self.stop();
    }
}

/// `serve` mode: be the daemon under test. Returns when a client sends
/// `shutdown` — or when the benchmark process that spawned it is gone, so
/// a killed run leaves no daemon behind.
pub fn serve(socket: PathBuf) -> Result<(), String> {
    let handle = fbf::serve(
        &ServerAddr::Unix(socket),
        fbf::DaemonOptions {
            workers: 1,
            retain: 2,
        },
    )
    .map_err(|e| format!("serve: {e}"))?;
    let parent = std::os::unix::process::parent_id();
    while !handle.is_shutting_down() && std::os::unix::process::parent_id() == parent {
        std::thread::sleep(Duration::from_millis(50));
    }
    handle.shutdown();
    Ok(())
}
