//! `fbf` — command-line front end for the FBF reproduction.
//!
//! ```text
//! fbf layout <code> <p>                     print a stripe layout and chain summary
//! fbf plan <code> <p> <col> <row> <len>     show recovery schemes for one error
//! fbf trace <stripes> <count> [seed]        emit a synthetic error trace (stdout)
//! fbf run [--key value ...]                 one experiment, all metrics
//! fbf replay <file> [--key value ...]       replay an error trace instead of drawing one
//! fbf sweep [--key value ...]               cache-size sweep across the five policies
//! fbf rebuild [--disks N] [--key value ...]  whole-disk declustered rebuild campaign
//! fbf serve [--socket P | --tcp A]          run the repair daemon in the foreground
//! fbf client [--socket P | --tcp A] <cmd>   talk to a running daemon
//! fbf scrub <code> <p>                      silent-corruption scrub demo
//! fbf mttdl <disks> <mttr_hours>            reliability model for a 3DFT array
//! ```
//!
//! Experiment flags (`run`/`replay`/`sweep`, also `client repair`/`load`):
//! `--code tip|hdd1|triplestar|star|rdp|evenodd`, `--p 7`,
//! `--policy fifo|lru|lfu|arc|fbf|...`, `--scheme typical|fbf|greedy`,
//! `--cache-mb 64`, `--chunk-kb 32`, `--stripes 4096`, `--errors 512`,
//! `--workers 128`, `--seed N`, `--gen-threads N`, plus fault injection:
//! `--media ‰`, `--transient ‰`, `--fault-seed N`, `--kill <disk>@<ms>`,
//! `--slow <disk>@<permille>`. Every flag is one key of
//! `ExperimentConfigBuilder::set`, dashes for underscores; `client
//! repair`/`rebuild` forward them to the daemon, which applies the same
//! `set`.
//!
//! `--json` (any command) emits the result as one JSON object on stdout
//! instead of human-readable text. Global observability flags:
//! `--trace <path>` streams a chrome://tracing-compatible JSONL run trace
//! to `<path>`; `--obs` pretty-prints events to stderr. `--metrics <path>`
//! writes a Prometheus text-exposition snapshot of `run`/`sweep` results
//! (validated by `scripts/check_trace.py --prom`).
//!
//! Daemon transport selection (`serve`/`client`): `--socket <path>` for a
//! unix socket (default `$TMPDIR/fbfd.sock`), `--tcp <addr:port>` for TCP.

use fbf::core::{policy_grid, CACHE_MB};
use fbf::recovery::{scheme::generate, PartialStripeError, PriorityDictionary, SchemeKind};
use fbf::report::f;
use fbf::workload::{
    client_trace_ids, generate_errors, parse_trace, render_trace, shard_campaign, validate_against,
    ErrorGenConfig, LoadReport,
};
use fbf::{
    run_experiment, run_experiment_with_errors, ConfigError, DaemonClient, DaemonOptions,
    ExperimentConfig, ExperimentConfigBuilder, Json, ReliabilityParams, ServerAddr, Table,
};
use fbf::{CodeSpec, StripeCode};
use std::time::{Duration, Instant};

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let (args, obs, metrics_out, json) = match install_obs_flags(&raw) {
        Ok(v) => v,
        Err(rc) => std::process::exit(rc),
    };
    let metrics_out = metrics_out.as_deref();
    let code = match args.first().map(String::as_str) {
        Some("layout") => cmd_layout(&args[1..], json),
        Some("plan") => cmd_plan(&args[1..], json),
        Some("trace") => cmd_trace(&args[1..], json),
        Some("run") => cmd_run(&args[1..], obs, metrics_out, json),
        Some("replay") => cmd_replay(&args[1..], obs, metrics_out, json),
        Some("sweep") => cmd_sweep(&args[1..], obs, metrics_out, json),
        Some("rebuild") => cmd_rebuild(&args[1..], obs, json),
        Some("serve") => cmd_serve(&args[1..], json),
        Some("client") => cmd_client(&args[1..], json),
        Some("scrub") => cmd_scrub(&args[1..], json),
        Some("mttdl") => cmd_mttdl(&args[1..], json),
        Some("help") | None => {
            print_usage();
            0
        }
        Some(other) => {
            eprintln!("unknown command `{other}`\n");
            print_usage();
            2
        }
    };
    // `exit` skips destructors, so flush the trace subscriber explicitly.
    if obs {
        fbf::obs::uninstall();
    }
    std::process::exit(code);
}

/// Pull `--trace <path>` / `--trace=<path>` / `--obs` / `--metrics <path>`
/// / `--json` out of the argument list (they may appear anywhere) and
/// install the matching subscriber. Returns the remaining arguments,
/// whether event observability is on, the Prometheus snapshot path if
/// requested, and whether JSON output was selected.
#[allow(clippy::type_complexity)]
fn install_obs_flags(raw: &[String]) -> Result<(Vec<String>, bool, Option<String>, bool), i32> {
    let mut args = Vec::with_capacity(raw.len());
    let mut trace: Option<String> = None;
    let mut metrics: Option<String> = None;
    let mut stderr = false;
    let mut json = false;
    let mut i = 0;
    while i < raw.len() {
        match raw[i].as_str() {
            "--obs" => stderr = true,
            "--json" => json = true,
            "--trace" => {
                let Some(p) = raw.get(i + 1) else {
                    eprintln!("--trace needs a file path");
                    return Err(2);
                };
                trace = Some(p.clone());
                i += 1;
            }
            "--metrics" => {
                let Some(p) = raw.get(i + 1) else {
                    eprintln!("--metrics needs a file path");
                    return Err(2);
                };
                metrics = Some(p.clone());
                i += 1;
            }
            s => {
                if let Some(p) = s.strip_prefix("--trace=") {
                    trace = Some(p.to_string());
                } else if let Some(p) = s.strip_prefix("--metrics=") {
                    metrics = Some(p.to_string());
                } else {
                    args.push(raw[i].clone());
                }
            }
        }
        i += 1;
    }

    let mut sinks: Vec<std::sync::Arc<dyn fbf::obs::Subscriber>> = Vec::new();
    if let Some(path) = trace {
        match fbf::obs::TraceWriter::create(std::path::Path::new(&path)) {
            Ok(w) => {
                eprintln!("(trace streaming to {path})");
                sinks.push(std::sync::Arc::new(w));
            }
            Err(e) => {
                eprintln!("cannot open trace file {path}: {e}");
                return Err(1);
            }
        }
    }
    if stderr {
        sinks.push(std::sync::Arc::new(fbf::obs::StderrSubscriber::default()));
    }
    if sinks.is_empty() {
        return Ok((args, false, metrics, json));
    }
    let sub: std::sync::Arc<dyn fbf::obs::Subscriber> = if sinks.len() == 1 {
        sinks.pop().expect("one sink")
    } else {
        std::sync::Arc::new(fbf::obs::FanoutSubscriber::new(sinks))
    };
    fbf::obs::install(sub);
    Ok((args, true, metrics, json))
}

/// Write a Prometheus snapshot of `points` to `path` (best-effort: an I/O
/// failure is reported but does not change the command's exit code — the
/// experiment itself succeeded).
fn write_metrics_snapshot(path: &str, points: &[fbf::SweepPoint]) {
    match std::fs::write(path, fbf::prometheus_snapshot(points)) {
        Ok(()) => eprintln!("(metrics snapshot written to {path})"),
        Err(e) => eprintln!("cannot write metrics snapshot {path}: {e}"),
    }
}

fn print_usage() {
    eprintln!(
        "fbf — Favorable Block First reproduction CLI\n\n\
         usage:\n\
         \u{20}  fbf layout <code> <p>\n\
         \u{20}  fbf plan <code> <p> <col> <first_row> <len> [scheme]\n\
         \u{20}  fbf trace <stripes> <count> [seed]\n\
         \u{20}  fbf run [--key value ...] [--trace-in <file>]\n\
         \u{20}  fbf replay <file> [--key value ...]\n\
         \u{20}  fbf sweep [--key value ...]\n\
         \u{20}  fbf rebuild [--disks N] [--placement clustered|rotated|declustered]\n\
         \u{20}      [--failed-disk D] [--cap N] [--fairness rr|drr] [--campaigns N]\n\
         \u{20}      [--app-reads N] [--key value ...]\n\
         \u{20}  fbf serve [--socket <path> | --tcp <addr>] [--daemon-workers N]\n\
         \u{20}  fbf client [--socket <path> | --tcp <addr>] \\\n\
         \u{20}      ping | repair [...] | rebuild [...] | status <job> | jobs |\n\
         \u{20}      read <job> <stripe> <row> <col> | metrics | watch | load [...] | shutdown\n\
         \u{20}  fbf scrub <code> <p>\n\
         \u{20}  fbf mttdl <disks> <mttr_hours>\n\n\
         experiment flags (--kill d@ms, --slow d@permille):\n\
         \u{20}  {flags}\n\n\
         global flags: --json (machine-readable stdout), --trace <path>\n\
         \u{20}  (JSONL run trace), --obs (event log on stderr), --metrics <path>\n\
         \u{20}  (Prometheus snapshot of run/sweep results)\n\n\
         codes: tip hdd1 triplestar star rdp evenodd\n\
         policies: fifo lru lfu arc fbf lru-k 2q lrfu fbr vdf",
        flags = fbf::core::config::KEYS
            .map(|k| format!("--{}", k.replace('_', "-")))
            .join(" ")
    );
}

fn parse_code(s: &str) -> Option<CodeSpec> {
    fbf::code_from_name(s)
}

fn parse_scheme(s: &str) -> Option<SchemeKind> {
    fbf::scheme_from_name(s)
}

/// Split experiment arguments — `--key value` or `--key=value` — into
/// `(key, value)` pairs, dashes in the key turned to underscores. Anything
/// else is rejected.
fn config_flags(args: &[String]) -> Result<Vec<(String, String)>, i32> {
    let mut out = Vec::with_capacity(args.len());
    let mut i = 0;
    while i < args.len() {
        let Some(flag) = args[i].strip_prefix("--") else {
            eprintln!("unexpected argument `{}` (expected --key value)", args[i]);
            return Err(2);
        };
        let (key, value) = match flag.split_once('=') {
            Some((k, v)) => (k, v.to_string()),
            None => {
                let Some(v) = args.get(i + 1) else {
                    eprintln!("--{flag} needs a value");
                    return Err(2);
                };
                i += 1;
                (flag, v.clone())
            }
        };
        out.push((key.replace('-', "_"), value));
        i += 1;
    }
    Ok(out)
}

/// Apply experiment flags onto the paper's defaults through
/// [`ExperimentConfigBuilder::set`]. Validation happens in
/// [`build_or_report`], so a bad combination fails with a typed message
/// before any work starts.
fn builder_from_flags(flags: &[(String, String)]) -> Result<ExperimentConfigBuilder, ConfigError> {
    flags
        .iter()
        .try_fold(ExperimentConfig::builder(), |b, (k, v)| b.set(k, v))
}

/// [`config_flags`] then [`builder_from_flags`], errors reported on
/// stderr as exit code 2.
fn parse_config_args(args: &[String]) -> Result<ExperimentConfigBuilder, i32> {
    builder_from_flags(&config_flags(args)?).map_err(|e| {
        eprintln!("{e}");
        2
    })
}

/// Pull a valued flag (`--name <v>` / `--name=<v>`) out of an argument
/// list, returning the remaining arguments and the value.
fn split_flag(args: &[String], name: &str) -> Result<(Vec<String>, Option<String>), i32> {
    let long = format!("--{name}");
    let prefixed = format!("--{name}=");
    let mut rest = Vec::with_capacity(args.len());
    let mut value = None;
    let mut i = 0;
    while i < args.len() {
        let s = args[i].as_str();
        if s == long {
            let Some(v) = args.get(i + 1) else {
                eprintln!("{long} needs a value");
                return Err(2);
            };
            value = Some(v.clone());
            i += 1;
        } else if let Some(v) = s.strip_prefix(&prefixed) {
            value = Some(v.to_string());
        } else {
            rest.push(args[i].clone());
        }
        i += 1;
    }
    Ok((rest, value))
}

/// Pull a boolean flag (`--name`) out of an argument list.
fn split_switch(args: &[String], name: &str) -> (Vec<String>, bool) {
    let long = format!("--{name}");
    let mut found = false;
    let rest = args
        .iter()
        .filter(|a| {
            if a.as_str() == long {
                found = true;
                false
            } else {
                true
            }
        })
        .cloned()
        .collect();
    (rest, found)
}

/// Finish a builder, turning a `ConfigError` into exit code 2.
fn build_or_report(builder: ExperimentConfigBuilder) -> Result<ExperimentConfig, i32> {
    builder.build().map_err(|e| {
        eprintln!("invalid configuration: {e}");
        2
    })
}

fn print_json(value: &Json) {
    println!("{}", value.render());
}

fn cmd_layout(args: &[String], json: bool) -> i32 {
    let code = match build_code(args) {
        Ok(c) => c,
        Err(rc) => return rc,
    };
    let mut per_dir = [0usize; 3];
    for chain in code.chains() {
        per_dir[chain.direction.index()] += 1;
    }
    let avg_len: f64 =
        code.chains().iter().map(|c| c.len() as f64).sum::<f64>() / code.chains().len() as f64;
    if json {
        print_json(&Json::obj([
            ("code", Json::Str(code.spec().name().to_string())),
            ("rows", Json::Num(code.rows() as f64)),
            ("disks", Json::Num(code.cols() as f64)),
            (
                "fault_tolerance",
                Json::Num(code.spec().fault_tolerance() as f64),
            ),
            (
                "chains",
                Json::obj([
                    ("horizontal", Json::Num(per_dir[0] as f64)),
                    ("diagonal", Json::Num(per_dir[1] as f64)),
                    ("anti_diagonal", Json::Num(per_dir[2] as f64)),
                ]),
            ),
            ("avg_chain_len", Json::Num(avg_len)),
        ]));
        return 0;
    }
    println!(
        "{}  ({} rows x {} disks, tolerates {} failures)",
        code.describe(),
        code.rows(),
        code.cols(),
        code.spec().fault_tolerance()
    );
    println!("{}", code.layout().ascii_art());
    println!(
        "chains: {} horizontal, {} diagonal, {} anti-diagonal",
        per_dir[0], per_dir[1], per_dir[2]
    );
    println!("average chain length: {avg_len:.2} members");
    0
}

/// Build a code from two positional args, reporting errors to stderr.
fn build_code(args: &[String]) -> Result<StripeCode, i32> {
    let spec = args.first().and_then(|s| parse_code(s)).ok_or_else(|| {
        eprintln!("expected a code name (tip/hdd1/triplestar/star/rdp/evenodd)");
        2
    })?;
    let p: usize = args.get(1).and_then(|s| s.parse().ok()).ok_or_else(|| {
        eprintln!("expected a prime p");
        2
    })?;
    StripeCode::build(spec, p).map_err(|e| {
        eprintln!("cannot build {spec}: {e}");
        1
    })
}

fn cmd_plan(args: &[String], json: bool) -> i32 {
    let code = match build_code(args) {
        Ok(c) => c,
        Err(rc) => return rc,
    };
    let (Some(col), Some(first), Some(len)) = (
        args.get(2).and_then(|s| s.parse::<usize>().ok()),
        args.get(3).and_then(|s| s.parse::<usize>().ok()),
        args.get(4).and_then(|s| s.parse::<usize>().ok()),
    ) else {
        eprintln!("usage: fbf plan <code> <p> <col> <first_row> <len> [scheme]");
        return 2;
    };
    let kind = args
        .get(5)
        .and_then(|s| parse_scheme(s))
        .unwrap_or(SchemeKind::FbfCycling);

    let error = match PartialStripeError::new(&code, 0, col, first, len) {
        Ok(e) => e,
        Err(e) => {
            eprintln!("invalid error: {e}");
            return 1;
        }
    };
    let scheme = match generate(&code, &error, kind) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("scheme generation failed: {e}");
            return 1;
        }
    };
    if json {
        let repairs: Vec<Json> = scheme
            .repairs
            .iter()
            .map(|r| {
                Json::obj([
                    ("target", Json::Str(r.target.to_string())),
                    ("direction", Json::Str(r.option.direction.to_string())),
                    (
                        "reads",
                        Json::Arr(
                            r.option
                                .reads
                                .iter()
                                .map(|c| Json::Str(c.to_string()))
                                .collect(),
                        ),
                    ),
                ])
            })
            .collect();
        print_json(&Json::obj([
            ("code", Json::Str(code.spec().name().to_string())),
            ("scheme", Json::Str(kind.name().to_string())),
            ("repairs", Json::Arr(repairs)),
            ("read_slots", Json::Num(scheme.total_read_slots() as f64)),
            ("unique_reads", Json::Num(scheme.unique_reads() as f64)),
            ("shared_savings", Json::Num(scheme.shared_savings() as f64)),
        ]));
        return 0;
    }
    println!("{} / {} scheme for {error}:", code.describe(), kind.name());
    for r in &scheme.repairs {
        let reads: Vec<String> = r.option.reads.iter().map(|c| c.to_string()).collect();
        println!(
            "  {} via {:>13}: {}",
            r.target,
            r.option.direction.to_string(),
            reads.join(" ")
        );
    }
    println!(
        "totals: {} slots / {} distinct / {} saved",
        scheme.total_read_slots(),
        scheme.unique_reads(),
        scheme.shared_savings()
    );
    let dict = PriorityDictionary::from_scheme(&scheme);
    for prio in (1..=3).rev() {
        let cells = dict.cells_with_priority(0, prio);
        if !cells.is_empty() {
            let names: Vec<String> = cells.iter().map(|c| c.to_string()).collect();
            println!("priority {prio}: {}", names.join(", "));
        }
    }
    0
}

fn cmd_trace(args: &[String], json: bool) -> i32 {
    let (Some(stripes), Some(count)) = (
        args.first().and_then(|s| s.parse::<u32>().ok()),
        args.get(1).and_then(|s| s.parse::<usize>().ok()),
    ) else {
        eprintln!("usage: fbf trace <stripes> <count> [seed]");
        return 2;
    };
    let seed = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(0x5EED);
    // Trace geometry bound: use TIP(p=13) so traces replay on any shipped
    // code with p >= 13 — or adjust to taste.
    let code = StripeCode::build(CodeSpec::Tip, 13).expect("13 is prime");
    let group = generate_errors(&code, &ErrorGenConfig::paper_default(stripes, count, seed));
    if json {
        print_json(&Json::obj([
            ("stripes", Json::Num(stripes as f64)),
            ("count", Json::Num(group.len() as f64)),
            ("seed", Json::Num(seed as f64)),
            ("trace", Json::Str(render_trace(&group))),
        ]));
        return 0;
    }
    print!("{}", render_trace(&group));
    0
}

/// Load, parse, and geometry-check an error trace file against `cfg`.
fn load_trace(path: &str, cfg: &ExperimentConfig) -> Result<fbf::recovery::ErrorGroup, i32> {
    let text = std::fs::read_to_string(path).map_err(|e| {
        eprintln!("cannot read trace {path}: {e}");
        1
    })?;
    let errors = parse_trace(&text).map_err(|e| {
        eprintln!("bad trace {path}: {e}");
        2
    })?;
    let code = StripeCode::build(cfg.code, cfg.p).map_err(|e| {
        eprintln!("cannot build {}: {e}", cfg.code.name());
        2
    })?;
    validate_against(&errors, &code, cfg.stripes as usize).map_err(|e| {
        eprintln!("trace {path} does not fit the configured geometry: {e}");
        2
    })?;
    Ok(errors)
}

fn cmd_run(args: &[String], obs: bool, metrics_out: Option<&str>, json: bool) -> i32 {
    let (args, trace_in) = match split_flag(args, "trace-in") {
        Ok(v) => v,
        Err(rc) => return rc,
    };
    run_with(&args, trace_in.as_deref(), obs, metrics_out, json)
}

fn cmd_replay(args: &[String], obs: bool, metrics_out: Option<&str>, json: bool) -> i32 {
    let Some((path, rest)) = args.split_first() else {
        eprintln!("usage: fbf replay <trace-file> [--key value ...]");
        return 2;
    };
    if path.starts_with("--") {
        eprintln!("usage: fbf replay <trace-file> [--key value ...]");
        return 2;
    }
    run_with(rest, Some(path), obs, metrics_out, json)
}

fn run_with(
    args: &[String],
    trace_in: Option<&str>,
    obs: bool,
    metrics_out: Option<&str>,
    json: bool,
) -> i32 {
    let cfg = match parse_config_args(args)
        .map(|b| b.obs(obs))
        .and_then(build_or_report)
    {
        Ok(c) => c,
        Err(rc) => return rc,
    };
    if !json {
        println!("running {}", cfg.describe());
    }
    let result = match trace_in {
        Some(path) => {
            let errors = match load_trace(path, &cfg) {
                Ok(g) => g,
                Err(rc) => return rc,
            };
            if !json {
                println!("  (replaying {} errors from {path})", errors.len());
            }
            run_experiment_with_errors(&cfg, errors)
        }
        None => run_experiment(&cfg),
    };
    match result {
        Ok(m) => {
            if let Some(path) = metrics_out {
                write_metrics_snapshot(
                    path,
                    &[fbf::SweepPoint {
                        config: cfg,
                        metrics: m.clone(),
                    }],
                );
            }
            if json {
                println!("{}", m.to_json());
                return 0;
            }
            println!("  hit ratio          : {:.4}", m.hit_ratio);
            println!("  disk reads         : {}", m.disk_reads);
            println!("  avg response       : {:.3} ms", m.avg_response_ms);
            println!("  reconstruction time: {:.3} s", m.reconstruction_s);
            println!(
                "  FBF overhead       : {:.4} ms/stripe ({:.3}%)",
                m.overhead_per_stripe_ms, m.overhead_pct
            );
            println!("  chunks recovered   : {}", m.chunks_recovered);
            if m.slo.evaluated {
                println!(
                    "  slo                : {}",
                    if m.slo.pass { "PASS" } else { "FAIL" }
                );
            }
            if !m.faults.is_empty() || m.stripes_lost > 0 {
                println!(
                    "  faults             : {} media, {} transient ({} retries, {} exhausted), {} dead-disk",
                    m.faults.media_errors,
                    m.faults.transient_faults,
                    m.faults.retries,
                    m.faults.retries_exhausted,
                    m.faults.dead_disk_reads
                );
                println!(
                    "  escalation         : {} replans over {} rounds, {} stripes lost",
                    m.replans, m.replan_rounds, m.stripes_lost
                );
                for dl in &m.data_loss {
                    println!(
                        "    DATA LOSS stripe {}: damage spans {} columns",
                        dl.stripe, dl.columns
                    );
                }
            }
            0
        }
        Err(e) => {
            eprintln!("run failed: {e}");
            1
        }
    }
}

/// `fbf rebuild`: simulate a whole-disk failure on an N-disk array and
/// drive the declustered rebuild scheduler over every affected stripe,
/// with foreground app reads sharing the spindles. Rebuild-specific
/// flags come out first; everything left is ordinary experiment flags.
fn cmd_rebuild(args: &[String], obs: bool, json: bool) -> i32 {
    // The flags are read exactly as the daemon reads a `rebuild` request.
    let spec = rebuild_request(args).and_then(|fields| {
        fbf::core::daemon::rebuild_spec_from_request(&Json::obj(fields)).map_err(|e| {
            eprintln!("{e}");
            2
        })
    });
    let mut spec = match spec {
        Ok(s) => s,
        Err(rc) => return rc,
    };
    spec.base.obs = obs;

    if !json {
        println!(
            "rebuilding disk {} of {} ({} placement, {} fairness): {}",
            spec.failed_disk,
            spec.disks,
            spec.placement.name(),
            spec.fairness.name(),
            spec.base.describe()
        );
    }
    match fbf::run_rebuild(&spec) {
        Ok(outcome) => {
            if json {
                println!("{}", outcome.to_json());
                return i32::from(!outcome.failed_stripes.is_empty());
            }
            println!(
                "  stripes affected   : {} ({} rebuilt, {} failed)",
                outcome.stripes_affected,
                outcome.stripes_rebuilt,
                outcome.failed_stripes.len()
            );
            println!("  waves              : {}", outcome.waves);
            println!("  reconstruction time: {:.3} s", outcome.reconstruction_s);
            println!(
                "  rebuild-read skew  : {:.3} (max/mean)",
                outcome.rebuild_skew
            );
            if let Some(p99) = outcome.app_p99_ms {
                println!(
                    "  app read p99       : {p99:.3} ms (p999 {})",
                    outcome
                        .app_p999_ms
                        .map_or("n/a".to_string(), |v| format!("{v:.3} ms"))
                );
            }
            i32::from(!outcome.failed_stripes.is_empty())
        }
        Err(e) => {
            eprintln!("rebuild failed: {e}");
            1
        }
    }
}

fn cmd_sweep(args: &[String], obs: bool, metrics_out: Option<&str>, json: bool) -> i32 {
    let builder = match parse_config_args(args).map(|b| b.obs(obs)) {
        Ok(b) => b,
        Err(rc) => return rc,
    };
    let base = match build_or_report(builder) {
        Ok(c) => c,
        Err(rc) => return rc,
    };
    let grid = policy_grid(
        format!("hit ratio — {}(p={})", base.code.name(), base.p),
        &CACHE_MB,
        |policy, mb| {
            builder
                .policy(policy)
                .cache_mb(mb)
                .build()
                .expect("validated base stays valid across the grid")
        },
        |m| f(m.hit_ratio, 4),
    );
    let (table, points) = match grid {
        Ok(g) => g,
        Err(e) => {
            eprintln!("sweep failed: {e}");
            return 1;
        }
    };
    if let Some(path) = metrics_out {
        write_metrics_snapshot(path, &points);
    }
    if json {
        let rows: Vec<Json> = points
            .iter()
            .map(|pt| {
                Json::obj([
                    ("cache_mb", Json::Num(pt.config.cache_mb as f64)),
                    ("policy", Json::Str(pt.config.policy.name().to_string())),
                    ("metrics", pt.metrics.to_json_value()),
                ])
            })
            .collect();
        print_json(&Json::obj([
            ("code", Json::Str(base.code.name().to_string())),
            ("p", Json::Num(base.p as f64)),
            ("points", Json::Arr(rows)),
        ]));
        return 0;
    }
    println!("{}", table.render());
    0
}

/// Resolve the daemon address from `--socket` / `--tcp`, defaulting to a
/// unix socket at `$TMPDIR/fbfd.sock`.
fn split_addr(args: &[String]) -> Result<(Vec<String>, ServerAddr), i32> {
    let (args, socket) = split_flag(args, "socket")?;
    let (args, tcp) = split_flag(&args, "tcp")?;
    match (socket, tcp) {
        (Some(_), Some(_)) => {
            eprintln!("--socket and --tcp are mutually exclusive");
            Err(2)
        }
        (Some(path), None) => Ok((args, ServerAddr::Unix(path.into()))),
        (None, Some(addr)) => match addr.parse() {
            Ok(sock) => Ok((args, ServerAddr::Tcp(sock))),
            Err(e) => {
                eprintln!("bad --tcp address `{addr}`: {e}");
                Err(2)
            }
        },
        (None, None) => Ok((
            args,
            ServerAddr::Unix(std::env::temp_dir().join("fbfd.sock")),
        )),
    }
}

fn addr_display(addr: &ServerAddr) -> String {
    match addr {
        ServerAddr::Unix(p) => format!("unix:{}", p.display()),
        ServerAddr::Tcp(a) => format!("tcp:{a}"),
    }
}

fn cmd_serve(args: &[String], json: bool) -> i32 {
    let (args, addr) = match split_addr(args) {
        Ok(v) => v,
        Err(rc) => return rc,
    };
    let (args, workers) = match split_flag(&args, "daemon-workers") {
        Ok(v) => v,
        Err(rc) => return rc,
    };
    if let Some(stray) = args.first() {
        eprintln!("unexpected argument `{stray}`");
        return 2;
    }
    let mut opts = DaemonOptions::default();
    if let Some(w) = workers {
        match w.parse() {
            Ok(n) => opts.workers = n,
            Err(_) => {
                eprintln!("bad --daemon-workers `{w}`");
                return 2;
            }
        }
    }
    let handle = match fbf::serve(&addr, opts) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("cannot serve on {}: {e}", addr_display(&addr));
            return 1;
        }
    };
    if json {
        print_json(&Json::obj([
            ("listening", Json::Str(addr_display(handle.addr()))),
            ("workers", Json::Num(opts.workers as f64)),
        ]));
    } else {
        println!(
            "fbfd listening on {} ({} workers); stop with `fbf client shutdown`",
            addr_display(handle.addr()),
            opts.workers
        );
    }
    handle.wait();
    0
}

/// The fields of a daemon `rebuild` request from `fbf rebuild` /
/// `fbf client rebuild` arguments: rebuild-spec flags come out first,
/// everything left is ordinary experiment flags. All forwarded as typed;
/// `rebuild_spec_from_request` is the one reader.
fn rebuild_request(args: &[String]) -> Result<Vec<(&'static str, Json)>, i32> {
    let mut rest = args.to_vec();
    let mut fields = vec![("cmd", Json::from("rebuild"))];
    for (flag, wire_key) in [
        ("disks", "disks"),
        ("placement", "placement"),
        ("placement-seed", "placement_seed"),
        ("failed-disk", "failed_disk"),
        ("cap", "cap"),
        ("fairness", "fairness"),
        ("campaigns", "campaigns"),
        ("app-reads", "app_reads"),
    ] {
        let (r, value) = split_flag(&rest, flag)?;
        rest = r;
        fields.extend(value.map(|v| (wire_key, Json::Str(v))));
    }
    fields.push(("config", overrides_from_flags(&config_flags(&rest)?)));
    Ok(fields)
}

/// The daemon's `config` override object: the flags forwarded as they
/// were typed. The daemon applies them through the same
/// `ExperimentConfigBuilder::set` a local run uses, so every key — fault
/// injection included — means the same on both sides.
fn overrides_from_flags(flags: &[(String, String)]) -> Json {
    Json::Obj(
        flags
            .iter()
            .map(|(k, v)| (k.clone(), Json::Str(v.clone())))
            .collect(),
    )
}

fn connect_or_report(addr: &ServerAddr) -> Result<DaemonClient, i32> {
    DaemonClient::connect(addr).map_err(|e| {
        eprintln!(
            "cannot connect to fbfd at {}: {e} (is it running? start one with `fbf serve`)",
            addr_display(addr)
        );
        1
    })
}

/// One request/reply exchange; prints the reply and maps `ok` to the
/// exit code.
fn call_and_print(client: &mut DaemonClient, req: &Json, json: bool) -> i32 {
    match client.call(req) {
        Ok(reply) => {
            let ok = reply.get("ok").and_then(Json::as_bool).unwrap_or(false);
            if json {
                print_json(&reply);
            } else if ok {
                println!("{}", reply.render());
            } else {
                eprintln!("daemon error: {}", daemon_error(&reply));
            }
            i32::from(!ok)
        }
        Err(e) => {
            eprintln!("request failed: {e}");
            1
        }
    }
}

/// Render a daemon `stat` reply as a compact human-readable snapshot:
/// a one-line summary, a per-job table (live escalation counters from
/// the worker's `Progress`, plus hit ratio once finished), and per-class
/// latency quantiles merged across every finished job.
fn render_stat(reply: &Json) -> String {
    let num = |key: &str| reply.get(key).and_then(Json::as_f64).unwrap_or(0.0);
    let mut out = format!(
        "fbfd up {:.1}s · workers {} (busy {}) · queue {} · running {} · done {} · failed {}\n",
        num("uptime_s"),
        num("workers"),
        num("workers_busy"),
        num("queue_depth"),
        num("jobs_running"),
        num("jobs_done"),
        num("jobs_failed"),
    );
    let jobs = reply.get("jobs").and_then(Json::as_arr).unwrap_or(&[]);
    if !jobs.is_empty() {
        out.push_str(&format!(
            "\n{:>4} {:<8} {:<7} {:>18} {:>6} {:>7} {:>6} {:>5} {:>7} {:>10}\n",
            "job",
            "state",
            "backend",
            "trace",
            "rounds",
            "replans",
            "faults",
            "lost",
            "hit",
            "reads"
        ));
        for job in jobs {
            let jn = |key: &str| job.get(key).and_then(Json::as_u64).unwrap_or(0);
            let hit = job
                .get("hit_ratio")
                .and_then(Json::as_f64)
                .map_or_else(|| "-".to_string(), |h| format!("{h:.3}"));
            let reads = job
                .get("disk_reads")
                .and_then(Json::as_u64)
                .map_or_else(|| "-".to_string(), |r| r.to_string());
            out.push_str(&format!(
                "{:>4} {:<8} {:<7} {:>18} {:>6} {:>7} {:>6} {:>5} {:>7} {:>10}\n",
                jn("job"),
                job.get("state").and_then(Json::as_str).unwrap_or("?"),
                job.get("backend").and_then(Json::as_str).unwrap_or("?"),
                jn("trace"),
                jn("rounds"),
                jn("replans"),
                jn("faults"),
                jn("stripes_lost"),
                hit,
                reads,
            ));
        }
    }
    if let Some(Json::Obj(classes)) = reply.get("class_latency") {
        let active: Vec<_> = classes
            .iter()
            .filter(|(_, l)| l.get("count").and_then(Json::as_u64).unwrap_or(0) > 0)
            .collect();
        if !active.is_empty() {
            out.push_str(&format!(
                "\n{:<10} {:>8} {:>9} {:>9} {:>9} {:>9}\n",
                "class", "count", "p50_ms", "p90_ms", "p99_ms", "p999_ms"
            ));
            for (name, l) in active {
                let q = |key: &str| l.get(key).and_then(Json::as_f64).unwrap_or(0.0);
                out.push_str(&format!(
                    "{:<10} {:>8} {:>9.3} {:>9.3} {:>9.3} {:>9.3}\n",
                    name,
                    l.get("count").and_then(Json::as_u64).unwrap_or(0),
                    q("p50_ms"),
                    q("p90_ms"),
                    q("p99_ms"),
                    q("p999_ms"),
                ));
            }
        }
    }
    out
}

/// `fbf client top` — a refreshing `stat` view. `--interval-ms` sets the
/// refresh period (default 1000), `--iterations` bounds the run (0 =
/// until interrupted; CI uses a finite count).
fn client_top(args: &[String], addr: &ServerAddr) -> i32 {
    let (args, interval) = match split_flag(args, "interval-ms") {
        Ok(v) => v,
        Err(rc) => return rc,
    };
    let interval: u64 = match interval.as_deref().map(str::parse).transpose() {
        Ok(ms) => ms.unwrap_or(1000).max(50),
        Err(_) => {
            eprintln!("bad --interval-ms value");
            return 2;
        }
    };
    let (args, iterations) = match split_flag(&args, "iterations") {
        Ok(v) => v,
        Err(rc) => return rc,
    };
    let iterations: u64 = match iterations.as_deref().map(str::parse).transpose() {
        Ok(n) => n.unwrap_or(0),
        Err(_) => {
            eprintln!("bad --iterations value");
            return 2;
        }
    };
    if !args.is_empty() {
        eprintln!("usage: fbf client top [--interval-ms <n>] [--iterations <n>]");
        return 2;
    }
    let mut client = match connect_or_report(addr) {
        Ok(c) => c,
        Err(rc) => return rc,
    };
    let mut done = 0u64;
    loop {
        let reply = match client.call(&Json::obj([("cmd", Json::Str("stat".into()))])) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("request failed: {e}");
                return 1;
            }
        };
        if reply.get("ok").and_then(Json::as_bool) != Some(true) {
            eprintln!("daemon error: {}", daemon_error(&reply));
            return 1;
        }
        // Clear screen + home, like top(1); harmless when piped.
        print!("\x1b[2J\x1b[H{}", render_stat(&reply));
        use std::io::Write as _;
        let _ = std::io::stdout().flush();
        done += 1;
        if iterations != 0 && done >= iterations {
            return 0;
        }
        std::thread::sleep(Duration::from_millis(interval));
    }
}

fn cmd_client(args: &[String], json: bool) -> i32 {
    let (args, addr) = match split_addr(args) {
        Ok(v) => v,
        Err(rc) => return rc,
    };
    let Some((action, rest)) = args.split_first() else {
        eprintln!(
            "usage: fbf client [--socket <path> | --tcp <addr>] \
             ping|repair|rebuild|status|jobs|read|metrics|stat|top|dump|watch|load|shutdown"
        );
        return 2;
    };
    match action.as_str() {
        cmd @ ("ping" | "jobs" | "shutdown") => {
            let mut client = match connect_or_report(&addr) {
                Ok(c) => c,
                Err(rc) => return rc,
            };
            call_and_print(&mut client, &Json::obj([("cmd", Json::from(cmd))]), json)
        }
        "repair" => client_repair(rest, &addr, json),
        "rebuild" => client_rebuild(rest, &addr, json),
        "status" => {
            let Some(id) = rest.first().and_then(|s| s.parse::<u64>().ok()) else {
                eprintln!("usage: fbf client status <job>");
                return 2;
            };
            let mut client = match connect_or_report(&addr) {
                Ok(c) => c,
                Err(rc) => return rc,
            };
            call_and_print(
                &mut client,
                &Json::obj([
                    ("cmd", Json::Str("status".into())),
                    ("job", Json::Num(id as f64)),
                ]),
                json,
            )
        }
        "read" => {
            let nums: Vec<u64> = rest.iter().filter_map(|s| s.parse().ok()).collect();
            if nums.len() != 4 {
                eprintln!("usage: fbf client read <job> <stripe> <row> <col>");
                return 2;
            }
            let mut client = match connect_or_report(&addr) {
                Ok(c) => c,
                Err(rc) => return rc,
            };
            call_and_print(
                &mut client,
                &Json::obj([
                    ("cmd", Json::Str("read".into())),
                    ("job", Json::Num(nums[0] as f64)),
                    ("stripe", Json::Num(nums[1] as f64)),
                    ("row", Json::Num(nums[2] as f64)),
                    ("col", Json::Num(nums[3] as f64)),
                ]),
                json,
            )
        }
        "metrics" => {
            let mut client = match connect_or_report(&addr) {
                Ok(c) => c,
                Err(rc) => return rc,
            };
            match client.call(&Json::obj([("cmd", Json::Str("metrics".into()))])) {
                Ok(reply) if json => {
                    print_json(&reply);
                    0
                }
                Ok(reply) => {
                    // The Prometheus text is the payload; print it bare so
                    // it pipes straight into check_trace.py --prom.
                    match reply.get("prometheus").and_then(Json::as_str) {
                        Some(text) => {
                            print!("{text}");
                            0
                        }
                        None => {
                            eprintln!("daemon error: {}", reply.render());
                            1
                        }
                    }
                }
                Err(e) => {
                    eprintln!("request failed: {e}");
                    1
                }
            }
        }
        "stat" => {
            let mut client = match connect_or_report(&addr) {
                Ok(c) => c,
                Err(rc) => return rc,
            };
            match client.call(&Json::obj([("cmd", Json::Str("stat".into()))])) {
                Ok(reply) if json => {
                    print_json(&reply);
                    i32::from(reply.get("ok").and_then(Json::as_bool) != Some(true))
                }
                Ok(reply) => {
                    print!("{}", render_stat(&reply));
                    i32::from(reply.get("ok").and_then(Json::as_bool) != Some(true))
                }
                Err(e) => {
                    eprintln!("request failed: {e}");
                    1
                }
            }
        }
        "top" => client_top(rest, &addr),
        "dump" => {
            let (rest, out) = match split_flag(rest, "out") {
                Ok(v) => v,
                Err(rc) => return rc,
            };
            if !rest.is_empty() {
                eprintln!("usage: fbf client dump [--out <file.jsonl>]");
                return 2;
            }
            let mut client = match connect_or_report(&addr) {
                Ok(c) => c,
                Err(rc) => return rc,
            };
            match client.call(&Json::obj([("cmd", Json::Str("dump".into()))])) {
                Ok(reply) if reply.get("ok").and_then(Json::as_bool) == Some(true) => {
                    let jsonl = reply.get("jsonl").and_then(Json::as_str).unwrap_or("");
                    match out {
                        Some(path) => {
                            if let Err(e) = std::fs::write(&path, jsonl) {
                                eprintln!("cannot write {path}: {e}");
                                return 1;
                            }
                            eprintln!(
                                "wrote {} flight-recorder events to {path}",
                                reply.get("events").and_then(Json::as_u64).unwrap_or(0)
                            );
                            0
                        }
                        None if json => {
                            print_json(&reply);
                            0
                        }
                        None => {
                            print!("{jsonl}");
                            0
                        }
                    }
                }
                Ok(reply) => {
                    eprintln!("daemon error: {}", daemon_error(&reply));
                    1
                }
                Err(e) => {
                    eprintln!("request failed: {e}");
                    1
                }
            }
        }
        "watch" => {
            let mut client = match connect_or_report(&addr) {
                Ok(c) => c,
                Err(rc) => return rc,
            };
            match client.call(&Json::obj([("cmd", Json::Str("subscribe".into()))])) {
                Ok(_ack) => loop {
                    match client.recv() {
                        Ok(Some(frame)) => match frame.get("event").and_then(Json::as_str) {
                            Some(line) => println!("{line}"),
                            None => println!("{}", frame.render()),
                        },
                        Ok(None) => return 0,
                        Err(e) => {
                            eprintln!("stream ended: {e}");
                            return 1;
                        }
                    }
                },
                Err(e) => {
                    eprintln!("subscribe failed: {e}");
                    1
                }
            }
        }
        "load" => client_load(rest, &addr, json),
        other => {
            eprintln!("unknown client action `{other}`");
            2
        }
    }
}

fn client_repair(args: &[String], addr: &ServerAddr, json: bool) -> i32 {
    let (rest, wait) = split_switch(args, "wait");
    match repair_request(&rest) {
        Ok(fields) => submit_job(addr, fields, wait, "metrics", json),
        Err(rc) => rc,
    }
}

/// The fields of a daemon `repair` request: `--backend`, `--dir` and the
/// trace file's text (it travels inline; the daemon never opens client
/// paths) come out first, everything left is experiment flags.
fn repair_request(args: &[String]) -> Result<Vec<(&'static str, Json)>, i32> {
    let (rest, backend) = split_flag(args, "backend")?;
    let (rest, dir) = split_flag(&rest, "dir")?;
    let (rest, trace_in) = split_flag(&rest, "trace-in")?;
    let trace = match trace_in {
        Some(path) => Some(std::fs::read_to_string(&path).map_err(|e| {
            eprintln!("cannot read trace {path}: {e}");
            1
        })?),
        None => None,
    };
    let mut fields = vec![
        ("cmd", Json::from("repair")),
        ("config", overrides_from_flags(&config_flags(&rest)?)),
    ];
    for (wire_key, value) in [("backend", backend), ("dir", dir), ("trace", trace)] {
        fields.extend(value.map(|v| (wire_key, Json::Str(v))));
    }
    Ok(fields)
}

/// Submit an array-wide rebuild job (`fbf client rebuild`): the same
/// spec flags as `fbf rebuild`, executed on the daemon's worker pool.
fn client_rebuild(args: &[String], addr: &ServerAddr, json: bool) -> i32 {
    let (args, wait) = split_switch(args, "wait");
    match rebuild_request(&args) {
        Ok(fields) => submit_job(addr, fields, wait, "rebuild", json),
        Err(rc) => rc,
    }
}

/// The `error` text of a failed reply.
fn daemon_error(reply: &Json) -> &str {
    reply
        .get("error")
        .and_then(Json::as_str)
        .unwrap_or("unknown error")
}

/// Submit a job request; with `wait`, poll it to completion and print the
/// `result_key` object of its final status.
fn submit_job(
    addr: &ServerAddr,
    fields: Vec<(&'static str, Json)>,
    wait: bool,
    result_key: &str,
    json: bool,
) -> i32 {
    let mut client = match connect_or_report(addr) {
        Ok(c) => c,
        Err(rc) => return rc,
    };
    let reply = match client.call(&Json::obj(fields)) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("request failed: {e}");
            return 1;
        }
    };
    let ok = reply.get("ok").and_then(Json::as_bool).unwrap_or(false);
    let Some(job) = reply.get("job").and_then(Json::as_u64).filter(|_| ok) else {
        if json {
            print_json(&reply);
        } else {
            eprintln!("daemon error: {}", daemon_error(&reply));
        }
        return 1;
    };
    if !wait {
        if json {
            print_json(&reply);
        } else {
            println!("job {job} queued");
        }
        return 0;
    }
    match wait_for_job(&mut client, job) {
        Ok(status) => {
            let done = status.get("state").and_then(Json::as_str) == Some("done");
            if json {
                print_json(&status);
            } else if done {
                println!("job {job} done");
                if let Some(result) = status.get(result_key) {
                    println!("{}", result.render());
                }
            } else {
                eprintln!("job {job} failed: {}", daemon_error(&status));
            }
            i32::from(!done)
        }
        Err(e) => {
            eprintln!("waiting on job {job} failed: {e}");
            1
        }
    }
}

/// Poll `status` until the job leaves queued/running.
fn wait_for_job(client: &mut DaemonClient, job: u64) -> Result<Json, String> {
    loop {
        let status = client
            .call(&Json::obj([
                ("cmd", Json::Str("status".into())),
                ("job", Json::Num(job as f64)),
            ]))
            .map_err(|e| e.to_string())?;
        match status.get("state").and_then(Json::as_str) {
            Some("done") | Some("failed") => return Ok(status),
            Some(_) => std::thread::sleep(Duration::from_millis(50)),
            None => {
                return Err(format!("unexpected status reply: {}", status.render()));
            }
        }
    }
}

/// Trace-driven load generator: shard a synthetic campaign across N
/// connections, submit each shard as an inline-trace repair, and report
/// per-class round-trip latency digests.
fn client_load(args: &[String], addr: &ServerAddr, json: bool) -> i32 {
    let (args, connections) = match split_flag(args, "connections") {
        Ok(v) => v,
        Err(rc) => return rc,
    };
    let connections: usize = match connections.as_deref().map(str::parse).transpose() {
        Ok(n) => n.unwrap_or(4).max(1),
        Err(_) => {
            eprintln!("bad --connections value");
            return 2;
        }
    };
    let (args, backend) = match split_flag(&args, "backend") {
        Ok(v) => v,
        Err(rc) => return rc,
    };
    // The load campaign is generated locally so every connection replays
    // a disjoint shard; the same config overrides ship with each repair
    // so the daemon executes the shard against the intended geometry.
    let flags = match config_flags(&args) {
        Ok(f) => f,
        Err(rc) => return rc,
    };
    let cfg = match builder_from_flags(&flags).and_then(|b| b.build()) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("invalid configuration: {e}");
            return 2;
        }
    };
    let overrides = overrides_from_flags(&flags);
    let code = match StripeCode::build(cfg.code, cfg.p) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("cannot build {}: {e}", cfg.code.name());
            return 2;
        }
    };
    let group = generate_errors(
        &code,
        &ErrorGenConfig::paper_default(cfg.stripes, cfg.error_count, cfg.seed),
    );
    let shards = shard_campaign(&group, connections);
    // Stamp every connection's repair with a client-minted trace id so
    // the daemon's spans are attributable per connection afterwards.
    let trace_ids = client_trace_ids(u64::from(std::process::id()), shards.len());
    let started = Instant::now();
    let workers: Vec<_> = shards
        .into_iter()
        .zip(trace_ids)
        .map(|(shard, trace_id)| {
            let addr = addr.clone();
            let overrides = overrides.clone();
            let backend = backend.clone();
            std::thread::spawn(move || -> LoadReport {
                let mut report = LoadReport::new();
                let mut client = match DaemonClient::connect(&addr) {
                    Ok(c) => c,
                    Err(_) => {
                        report.record_failure("connect");
                        return report;
                    }
                };
                let mut fields = vec![
                    ("cmd", Json::Str("repair".into())),
                    ("config", overrides),
                    ("trace", Json::Str(render_trace(&shard))),
                    ("trace_id", Json::Num(trace_id as f64)),
                ];
                if let Some(b) = backend {
                    fields.push(("backend", Json::Str(b)));
                }
                let submit = Instant::now();
                let job = match client.call(&Json::obj(fields)) {
                    Ok(reply) if reply.get("ok").and_then(Json::as_bool) == Some(true) => {
                        match reply.get("job").and_then(Json::as_u64) {
                            Some(id) => id,
                            None => {
                                report.record_failure("repair");
                                return report;
                            }
                        }
                    }
                    _ => {
                        report.record_failure("repair");
                        return report;
                    }
                };
                loop {
                    let poll = Instant::now();
                    let status = client.call(&Json::obj([
                        ("cmd", Json::Str("status".into())),
                        ("job", Json::Num(job as f64)),
                    ]));
                    let Ok(status) = status else {
                        report.record_failure("status");
                        return report;
                    };
                    report.record("status", poll.elapsed().as_nanos() as u64);
                    match status.get("state").and_then(Json::as_str) {
                        Some("done") => {
                            report.record("repair", submit.elapsed().as_nanos() as u64);
                            return report;
                        }
                        Some("failed") => {
                            report.record_failure("repair");
                            return report;
                        }
                        Some(_) => std::thread::sleep(Duration::from_millis(20)),
                        None => {
                            report.record_failure("status");
                            return report;
                        }
                    }
                }
            })
        })
        .collect();
    let mut merged = LoadReport::new();
    for handle in workers {
        match handle.join() {
            Ok(report) => merged.merge(&report),
            Err(_) => merged.record_failure("connect"),
        }
    }
    let wall = started.elapsed();
    if json {
        let class = |name: &str| {
            let d = merged.digest(name);
            Json::obj([
                ("count", Json::Num(merged.count(name) as f64)),
                ("failures", Json::Num(merged.failure_count(name) as f64)),
                (
                    "p50_ms",
                    Json::Num(d.and_then(|d| d.quantile_ns(0.5)).unwrap_or(0) as f64 / 1e6),
                ),
                (
                    "p99_ms",
                    Json::Num(d.and_then(|d| d.quantile_ns(0.99)).unwrap_or(0) as f64 / 1e6),
                ),
            ])
        };
        print_json(&Json::obj([
            ("connections", Json::Num(connections as f64)),
            ("errors", Json::Num(group.len() as f64)),
            ("wall_ms", Json::Num(wall.as_secs_f64() * 1e3)),
            ("repair", class("repair")),
            ("status", class("status")),
            ("failures", Json::Num(merged.total_failures() as f64)),
        ]));
    } else {
        println!(
            "load: {} errors over {} connections in {:.1} ms",
            group.len(),
            connections,
            wall.as_secs_f64() * 1e3
        );
        print!("{}", merged.render());
    }
    i32::from(merged.total_failures() > 0 || merged.count("repair") == 0)
}

fn cmd_scrub(args: &[String], json: bool) -> i32 {
    use fbf::codes::encode::encode;
    use fbf::recovery::{scrub, ScrubOutcome};
    use fbf::{Cell, Stripe};

    let code = match build_code(args) {
        Ok(c) => c,
        Err(rc) => return rc,
    };
    let mut stripe = Stripe::patterned(code.layout(), 4096);
    encode(&code, &mut stripe).expect("encode");
    let victim = Cell::new(code.rows() / 2, code.cols() / 3);
    let mut buf = stripe.get(code.layout(), victim).to_vec();
    buf[0] ^= 0xFF;
    stripe.set(code.layout(), victim, buf.into());
    if !json {
        println!("{}: silently corrupted {victim}", code.describe());
    }
    let outcome = scrub(&code, &mut stripe, 2);
    let repaired = matches!(outcome, ScrubOutcome::Repaired(_));
    if json {
        print_json(&Json::obj([
            ("code", Json::Str(code.spec().name().to_string())),
            ("corrupted", Json::Str(victim.to_string())),
            ("outcome", Json::Str(format!("{outcome:?}"))),
            ("repaired", Json::Bool(repaired)),
        ]));
        return i32::from(!repaired);
    }
    match outcome {
        ScrubOutcome::Repaired(cells) => {
            println!("scrubber located {cells:?} and repaired it");
            0
        }
        other => {
            println!("scrub outcome: {other:?}");
            1
        }
    }
}

fn cmd_mttdl(args: &[String], json: bool) -> i32 {
    let (Some(disks), Some(mttr)) = (
        args.first().and_then(|s| s.parse::<usize>().ok()),
        args.get(1).and_then(|s| s.parse::<f64>().ok()),
    ) else {
        eprintln!("usage: fbf mttdl <disks> <mttr_hours>");
        return 2;
    };
    let mut rows = Vec::new();
    for ft in 1..=3 {
        let p = ReliabilityParams {
            disks,
            fault_tolerance: ft,
            mttr_hours: mttr,
            ..ReliabilityParams::nearline_3dft(disks)
        };
        rows.push((ft, fbf::mttdl_years(&p)));
    }
    if json {
        print_json(&Json::obj([
            ("disks", Json::Num(disks as f64)),
            ("mttr_hours", Json::Num(mttr)),
            (
                "rows",
                Json::Arr(
                    rows.iter()
                        .map(|&(ft, years)| {
                            Json::obj([
                                ("fault_tolerance", Json::Num(ft as f64)),
                                ("mttdl_years", Json::Num(years)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]));
        return 0;
    }
    let mut table = Table::new(
        format!("MTTDL, {disks} nearline disks, {mttr} h repair window"),
        &["fault_tolerance", "mttdl_years"],
    );
    for (ft, years) in rows {
        table.push_row(vec![ft.to_string(), format!("{years:.3e}")]);
    }
    println!("{}", table.render());
    0
}

#[cfg(test)]
mod tests {
    use super::*;
    use fbf::core::config::KEYS;
    use fbf::core::daemon::config_from_request;
    use fbf::disksim::{DiskKill, SlowDisk};
    use fbf::{FaultPlan, PolicyKind, SimTime};

    type Builder = ExperimentConfigBuilder;
    type Setter = fn(Builder) -> Builder;

    fn faults(b: Builder, edit: fn(&mut FaultPlan)) -> Builder {
        let mut plan = FaultPlan::none();
        edit(&mut plan);
        b.faults(plan)
    }

    /// One sample per key of `set`: a value text and the typed setter
    /// call that text must be equivalent to.
    const SAMPLES: [(&str, &str, Setter); 19] = [
        ("code", "star", |b| b.code(CodeSpec::Star)),
        ("p", "11", |b| b.p(11)),
        ("policy", "arc", |b| b.policy(PolicyKind::Arc)),
        ("scheme", "greedy", |b| b.scheme(SchemeKind::Greedy)),
        ("cache_mb", "128", |b| b.cache_mb(128)),
        ("cache", "128", |b| b.cache_mb(128)),
        ("chunk_kb", "64", |b| b.chunk_kb(64)),
        ("stripes", "1024", |b| b.stripes(1024)),
        ("errors", "100", |b| b.error_count(100)),
        ("error_count", "100", |b| b.error_count(100)),
        ("workers", "16", |b| b.workers(16)),
        ("decode_batch", "4", |b| b.decode_batch(4)),
        ("seed", "7", |b| b.seed(7)),
        ("gen_threads", "2", |b| b.gen_threads(2)),
        ("media", "15", |b| faults(b, |f| f.media_per_mille = 15)),
        ("transient", "40", |b| {
            faults(b, |f| f.transient_per_mille = 40)
        }),
        ("fault_seed", "9", |b| faults(b, |f| f.seed = 9)),
        ("kill", "3@40", |b| {
            faults(b, |f| {
                let at = SimTime::from_millis(40);
                f.disk_kill = Some(DiskKill { disk: 3, at });
            })
        }),
        ("slow", "2@1500", |b| {
            faults(b, |f| {
                let (disk, scale_milli) = (2, 1500);
                f.straggler = Some(SlowDisk { disk, scale_milli });
            })
        }),
    ];

    /// Debug text stands in for equality (`ExperimentConfig` holds floats
    /// and derives no `PartialEq`); `obs` is the daemon's own default.
    fn shown(cfg: ExperimentConfig) -> String {
        format!("{:?}", ExperimentConfig { obs: false, ..cfg })
    }

    fn wire(key: &str, value: Json) -> Result<ExperimentConfig, String> {
        let config = Json::Obj([(key.to_string(), value)].into());
        config_from_request(&Json::obj([("config", config)]))
    }

    fn cli(flag: &str, value: &str) -> Result<ExperimentConfig, ConfigError> {
        let args = [flag.to_string(), value.to_string()];
        let flags = config_flags(&args).expect("well-formed flag");
        builder_from_flags(&flags)?.build()
    }

    #[test]
    fn every_key_means_the_same_on_the_cli_the_wire_and_the_builder() {
        for key in KEYS {
            let &(_, text, typed) = SAMPLES
                .iter()
                .find(|sample| sample.0 == key)
                .unwrap_or_else(|| panic!("KEYS lists `{key}`; add a sample for it"));
            let want = shown(typed(ExperimentConfig::builder()).build().unwrap());
            let set = ExperimentConfig::builder().set(key, text).unwrap();
            assert_eq!(shown(set.build().unwrap()), want, "set({key})");
            let flag = format!("--{}", key.replace('_', "-"));
            assert_eq!(shown(cli(&flag, text).unwrap()), want, "{flag} {text}");
            let joined = [format!("{flag}={text}")];
            let flags = config_flags(&joined).unwrap();
            let built = builder_from_flags(&flags).unwrap().build().unwrap();
            assert_eq!(shown(built), want, "{flag}={text}");
            assert_eq!(
                shown(wire(key, text.into()).unwrap()),
                want,
                "wire string {key}"
            );
            if let Ok(n) = text.parse::<u32>() {
                let got = wire(key, Json::Num(f64::from(n))).unwrap();
                assert_eq!(shown(got), want, "wire number {key}");
            }
        }
    }

    #[test]
    fn unknown_keys_and_bad_values_fail_the_same_everywhere() {
        let cases = [
            ("striipes", "128", "unknown config key `striipes`"),
            (
                "stripes",
                "4294967301",
                "bad value for `stripes`: `4294967301`",
            ),
            ("media", "70000", "bad value for `media`: `70000`"),
            ("policy", "mru", "bad value for `policy`: `mru`"),
            ("kill", "3", "bad value for `kill`: `3`"),
            ("workers", "0", "workers must be at least 1"),
            (
                "cache_mb",
                "18014398509481984",
                "cache of 18014398509481984 MiB overflows the chunk count",
            ),
        ];
        for (key, text, message) in cases {
            let set = ExperimentConfig::builder()
                .set(key, text)
                .and_then(Builder::build)
                .unwrap_err();
            assert_eq!(set.to_string(), message);
            let flag = format!("--{}", key.replace('_', "-"));
            assert_eq!(cli(&flag, text).unwrap_err(), set, "{flag} {text}");
            assert_eq!(
                wire(key, text.into()).unwrap_err(),
                message,
                "wire string {key}"
            );
            if let Ok(n) = text.parse::<f64>() {
                let as_number = wire(key, Json::Num(n)).unwrap_err();
                assert_eq!(as_number, message, "wire number {key}");
            }
        }
        // Neither a bare word nor the old `key=value` spelling is a flag.
        assert_eq!(config_flags(&["stripes=128".to_string()]), Err(2));
        assert_eq!(config_flags(&["--stripes".to_string()]), Err(2));
    }
}
