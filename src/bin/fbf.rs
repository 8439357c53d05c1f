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
//! instead of human-readable text. Global observability flags
//! ([`fbf::obs::ObsFlags`], shared with the figure binaries): `--trace
//! <path>` streams a chrome://tracing-compatible JSONL run trace to
//! `<path>`; `--obs` pretty-prints events to stderr. `--metrics <path>`
//! writes a Prometheus text-exposition snapshot of `run`/`sweep` results
//! (validated by `scripts/check_trace.py --prom`).
//!
//! The daemon (`serve`, the one launcher): `--socket <path>` for a unix
//! socket (default `$TMPDIR/fbfd.sock`) or `--tcp <addr:port>`,
//! `--daemon-workers N`, `--retain N` (finished jobs whose array stays
//! readable), `--ring-cap N` (events the flight recorder keeps); a zero
//! count is refused. It exits when a client sends `shutdown`;
//! `client` takes the same `--socket`/`--tcp`.
//!
//! Every subcommand is a `fn(&mut Args) -> Result<(), Exit>`; `main` is
//! the only place that prints an error or picks an exit code.

use fbf::core::{policy_grid, CACHE_MB};
use fbf::disksim::EngineScratch;
use fbf::obs::flags::{take_flag, take_switch};
use fbf::obs::ObsFlags;
use fbf::recovery::priority::priority_for_count;
use fbf::recovery::{
    scheme::generate, PartialStripeError, PriorityDictionary, RecoveryController, SchemeKind,
    StripeDamage, StripePlan,
};
use fbf::report::f;
use fbf::workload::{
    client_trace_ids, generate_errors, render_trace, shard_campaign, ErrorGenConfig, LoadReport,
};
use fbf::{CodeSpec, StripeCode};
use fbf::{
    ConfigError, DaemonClient, DaemonError, DaemonOptions, ExperimentConfig, Json, Outcome,
    PlanStore, PolicyKind, ReliabilityParams, RequestError, ServerAddr, Table, Work,
};
use std::num::NonZeroUsize;
use std::str::FromStr;
use std::time::{Duration, Instant};

/// How a command ends when it does not succeed: the process exit code,
/// what to say on stderr (nothing, when the command already printed its
/// result and only the code reports it), and — for a daemon refusal — the
/// daemon's own reply, which `--json` mode prints in place of the message.
#[derive(Debug)]
struct Exit {
    code: i32,
    message: String,
    reply: Option<Json>,
}

impl Exit {
    /// The command line was wrong (exit 2).
    fn usage(message: impl Into<String>) -> Self {
        Exit {
            code: 2,
            message: message.into(),
            reply: None,
        }
    }

    /// The command line was fine and the work failed (exit 1).
    fn fail(message: impl Into<String>) -> Self {
        Exit {
            code: 1,
            ..Exit::usage(message)
        }
    }

    /// The result is printed; exit code 1 is all there is to add.
    fn fail_if(failed: bool) -> Result<(), Exit> {
        if failed {
            Err(Exit::fail(""))
        } else {
            Ok(())
        }
    }
}

impl From<DaemonError> for Exit {
    fn from(e: DaemonError) -> Self {
        Exit {
            reply: e.reply().cloned(),
            ..Exit::fail(e.to_string())
        }
    }
}

/// The command line after the command word, consumed as it is read:
/// flags come out by name from anywhere, positionals from the front, and
/// whatever a command leaves behind is an error ([`Args::done`]). The
/// global flags `main` already took ride along.
struct Args {
    rest: Vec<String>,
    /// `--json`: machine-readable stdout.
    json: bool,
    flags: ObsFlags,
}

impl Args {
    /// `--name <v>` / `--name=<v>` parsed into the field's own type.
    fn flag<T: FromStr>(&mut self, name: &str) -> Result<Option<T>, Exit> {
        let Some(text) = take_flag(&mut self.rest, name).map_err(Exit::usage)? else {
            return Ok(None);
        };
        let parsed = text.parse().map_err(|_| format!("bad --{name} value"));
        parsed.map(Some).map_err(Exit::usage)
    }

    /// A bare `--name`.
    fn switch(&mut self, name: &str) -> bool {
        take_switch(&mut self.rest, name)
    }

    /// The next positional, if there is one; one that does not parse is
    /// the `usage` error, never a default.
    fn optional_with<T>(
        &mut self,
        parse: impl FnOnce(&str) -> Option<T>,
        usage: &str,
    ) -> Result<Option<T>, Exit> {
        if self.rest.is_empty() {
            return Ok(None);
        }
        let word = self.rest.remove(0);
        parse(&word).map(Some).ok_or_else(|| Exit::usage(usage))
    }

    /// The next positional, required.
    fn positional_with<T>(
        &mut self,
        parse: impl FnOnce(&str) -> Option<T>,
        usage: &str,
    ) -> Result<T, Exit> {
        self.optional_with(parse, usage)?
            .ok_or_else(|| Exit::usage(usage))
    }

    fn positional<T: FromStr>(&mut self, usage: &str) -> Result<T, Exit> {
        self.positional_with(|s| s.parse().ok(), usage)
    }

    /// Nothing may be left over.
    fn done(&self, usage: &str) -> Result<(), Exit> {
        if self.rest.is_empty() {
            Ok(())
        } else {
            Err(Exit::usage(usage))
        }
    }

    /// Resolve the daemon address from `--socket` / `--tcp`, defaulting to
    /// a unix socket at `$TMPDIR/fbfd.sock`.
    fn addr(&mut self) -> Result<ServerAddr, Exit> {
        match (self.flag::<String>("socket")?, self.flag::<String>("tcp")?) {
            (Some(_), Some(_)) => Err(Exit::usage("--socket and --tcp are mutually exclusive")),
            (Some(path), None) => Ok(ServerAddr::Unix(path.into())),
            (None, Some(addr)) => match addr.parse() {
                Ok(sock) => Ok(ServerAddr::Tcp(sock)),
                Err(e) => Err(Exit::usage(format!("bad --tcp address `{addr}`: {e}"))),
            },
            (None, None) => Ok(ServerAddr::Unix(std::env::temp_dir().join("fbfd.sock"))),
        }
    }
}

fn main() {
    let mut rest: Vec<String> = std::env::args().skip(1).collect();
    let json = take_switch(&mut rest, "json");
    let mut obs = false;
    let outcome = ObsFlags::take(&mut rest)
        .map_err(Exit::usage)
        .and_then(|flags| {
            obs = flags.install().map_err(Exit::fail)?;
            run(&mut Args { rest, json, flags })
        });
    // `exit` skips destructors, so flush the trace subscriber explicitly.
    if obs {
        fbf::obs::uninstall();
    }
    let Err(exit) = outcome else {
        return;
    };
    match exit.reply {
        Some(reply) if json => print_json(&reply),
        _ if exit.message.is_empty() => {}
        _ => eprintln!("{}", exit.message),
    }
    std::process::exit(exit.code);
}

fn run(args: &mut Args) -> Result<(), Exit> {
    let command = args.optional_with(|s| Some(s.to_string()), "")?;
    match command.as_deref().unwrap_or("help") {
        "layout" => cmd_layout(args),
        "plan" => cmd_plan(args),
        "trace" => cmd_trace(args),
        "run" => {
            let trace_in = args.flag::<String>("trace-in")?;
            cmd_local(args, false, trace_in.as_deref())
        }
        "replay" => {
            let usage = "usage: fbf replay <trace-file> [--key value ...]";
            let is_path = |s: &str| (!s.starts_with("--")).then(|| s.to_string());
            let path = args.positional_with(is_path, usage)?;
            cmd_local(args, false, Some(&path))
        }
        "sweep" => cmd_sweep(args),
        "rebuild" => cmd_local(args, true, None),
        "serve" => cmd_serve(args),
        "client" => cmd_client(args),
        "scrub" => cmd_scrub(args),
        "mttdl" => cmd_mttdl(args),
        "help" => {
            eprintln!("{}", usage());
            Ok(())
        }
        other => Err(Exit::usage(format!(
            "unknown command `{other}`\n\n{}",
            usage()
        ))),
    }
}

fn usage() -> String {
    format!(
        "fbf — Favorable Block First reproduction CLI\n\n\
         usage:\n\
         \u{20}  fbf layout <code> <p>\n\
         \u{20}  fbf plan <code> <p> <col> <first_row> <len> [scheme]\n\
         \u{20}  fbf plan --census <code> <p> [scheme]\n\
         \u{20}  fbf trace <stripes> <count> [seed]\n\
         \u{20}  fbf run [--key value ...] [--trace-in <file>]\n\
         \u{20}  fbf replay <file> [--key value ...]\n\
         \u{20}  fbf sweep [--key value ...]\n\
         \u{20}  fbf rebuild [--disks N] [--placement clustered|rotated|declustered]\n\
         \u{20}      [--failed-disk D] [--cap N] [--fairness rr|drr] [--campaigns N]\n\
         \u{20}      [--app-reads N] [--key value ...]\n\
         \u{20}  fbf serve [--socket <path> | --tcp <addr>] [--daemon-workers N]\n\
         \u{20}      [--retain N] [--ring-cap N]\n\
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
    )
}

/// Split experiment arguments — `--key value` or `--key=value` — into
/// `(key, value)` pairs, dashes in the key turned to underscores. Anything
/// else is rejected.
fn config_flags(args: &[String]) -> Result<Vec<(String, String)>, Exit> {
    let mut out = Vec::with_capacity(args.len());
    let mut i = 0;
    while i < args.len() {
        let Some(flag) = args[i].strip_prefix("--") else {
            let stray = &args[i];
            return Err(Exit::usage(format!(
                "unexpected argument `{stray}` (expected --key value)"
            )));
        };
        let (key, value) = match flag.split_once('=') {
            Some((k, v)) => (k, v.to_string()),
            None => {
                let Some(v) = args.get(i + 1) else {
                    return Err(Exit::usage(format!("--{flag} needs a value")));
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

fn print_json(value: &Json) {
    println!("{}", value.render());
}

/// Build a code from the next two positionals.
fn build_code(args: &mut Args) -> Result<StripeCode, Exit> {
    let spec = args.positional_with(
        fbf::code_from_name,
        "expected a code name (tip/hdd1/triplestar/star/rdp/evenodd)",
    )?;
    let p: usize = args.positional("expected a prime p")?;
    StripeCode::build(spec, p).map_err(|e| Exit::fail(format!("cannot build {spec}: {e}")))
}

fn cmd_layout(args: &mut Args) -> Result<(), Exit> {
    let code = build_code(args)?;
    args.done("usage: fbf layout <code> <p>")?;
    let mut per_dir = [0usize; 3];
    for chain in code.chains() {
        per_dir[chain.direction.index()] += 1;
    }
    let avg_len: f64 =
        code.chains().iter().map(|c| c.len() as f64).sum::<f64>() / code.chains().len() as f64;
    if args.json {
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
        return Ok(());
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
    Ok(())
}

/// `fbf plan --census`: the whole format space of single-column damage —
/// every contiguous run of every column, `cols × rows(rows+1)/2` formats —
/// planned once through one controller: what Table IV's overhead amounts
/// to per (code, p) before every later stripe is a lookup.
fn plan_census(args: &mut Args) -> Result<(), Exit> {
    let usage = "usage: fbf plan --census <code> <p> [scheme]";
    let code = build_code(args)?;
    let kind = args.optional_with(fbf::scheme_from_name, usage)?;
    let kind = kind.unwrap_or(SchemeKind::FbfCycling);
    args.done(usage)?;

    let rows = code.rows();
    let runs = (0..code.cols()).flat_map(|col| {
        (0..rows).flat_map(move |first| (1..=rows - first).map(move |len| (col, first, len)))
    });
    let mut controller = RecoveryController::new(&code, kind);
    let started = Instant::now();
    let planned: Vec<_> = runs
        .map(|(col, first, len)| {
            let run = PartialStripeError::new(&code, 0, col, first, len);
            let cells = run.expect("the run lies inside the stripe").cells();
            let plan = controller.plan_for(&StripeDamage { stripe: 0, cells });
            (col, first, len, plan)
        })
        .collect();
    let overhead_ms = started.elapsed().as_secs_f64() * 1e3;

    // What is reported of `lost` chunks whose repairs make `refs[k]` read
    // references at priority `k + 1`.
    let figures = |refs: [usize; 3], lost: usize| {
        let reads = refs.iter().sum::<usize>() as f64;
        [
            ("reads", reads),
            ("reads_per_lost_chunk", reads / lost as f64),
            ("prio3_share", refs[2] as f64 / reads),
            ("prio2_share", refs[1] as f64 / reads),
            ("prio1_share", refs[0] as f64 / reads),
        ]
    };
    let json = |figures: [(&'static str, f64); 5]| figures.map(|(k, v)| (k, Json::Num(v)));
    let (mut lost, mut joint, mut total) = (0, 0, [0usize; 3]);
    let mut table = Vec::with_capacity(planned.len());
    for (col, first, len, plan) in &planned {
        let mut refs = [0usize; 3];
        let plan = match plan {
            // Table II: a chunk `n` chosen chains read is `n` references.
            StripePlan::Chained(scheme) => {
                for &(_, n) in &scheme.share_count_list() {
                    refs[usize::from(priority_for_count(n)) - 1] += n;
                }
                "chained"
            }
            // No chain ordering repairs the run: it is decoded jointly.
            StripePlan::Joint(joint_plan) => {
                joint += 1;
                refs[0] = joint_plan.reads.len();
                "joint"
            }
        };
        lost += len;
        total = [0, 1, 2].map(|k| total[k] + refs[k]);
        let run = [("col", col), ("first_row", first), ("len", len)];
        let run = run.map(|(name, value)| (name, Json::Num(*value as f64)));
        let row = run.into_iter().chain([("plan", Json::from(plan))]);
        table.push(Json::obj(row.chain(json(figures(refs, *len)))));
    }
    let summary = figures(total, lost);
    if args.json {
        let head = [
            ("code", Json::from(code.spec().name())),
            ("p", Json::Num(code.p() as f64)),
            ("scheme", Json::from(kind.name())),
            ("formats", Json::Num(planned.len() as f64)),
            ("joint", Json::Num(joint as f64)),
            ("overhead_ms", Json::Num(overhead_ms)),
            ("rows", Json::Arr(table)),
        ];
        print_json(&Json::obj(head.into_iter().chain(json(summary))));
        return Ok(());
    }
    println!(
        "{} / {} census: {} single-column formats ({joint} joint)",
        code.describe(),
        kind.name(),
        planned.len()
    );
    println!("  FBF overhead       : {overhead_ms:.3} ms once per (code, p), then a lookup");
    let labels = [
        "reads / lost chunk",
        "priority 3 share",
        "priority 2 share",
        "priority 1 share",
    ];
    for (label, (_, value)) in labels.iter().zip(&summary[1..]) {
        println!("  {label:<19}: {value:.4}");
    }
    Ok(())
}

fn cmd_plan(args: &mut Args) -> Result<(), Exit> {
    if args.switch("census") {
        return plan_census(args);
    }
    let usage = "usage: fbf plan <code> <p> <col> <first_row> <len> [scheme]";
    let code = build_code(args)?;
    let (col, first, len): (usize, usize, usize) = (
        args.positional(usage)?,
        args.positional(usage)?,
        args.positional(usage)?,
    );
    let kind = args.optional_with(fbf::scheme_from_name, usage)?;
    let kind = kind.unwrap_or(SchemeKind::FbfCycling);
    args.done(usage)?;

    let error = PartialStripeError::new(&code, 0, col, first, len)
        .map_err(|e| Exit::fail(format!("invalid error: {e}")))?;
    let scheme = generate(&code, &error, kind)
        .map_err(|e| Exit::fail(format!("scheme generation failed: {e}")))?;
    let dict = PriorityDictionary::from_scheme(&scheme);
    let with_priority = |prio: u8| -> Vec<String> {
        let cells = dict.cells_with_priority(0, prio);
        cells.iter().map(|c| c.to_string()).collect()
    };
    if args.json {
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
            (
                "priorities",
                Json::obj([(1, "1"), (2, "2"), (3, "3")].map(|(prio, key)| {
                    let cells = with_priority(prio).into_iter().map(Json::Str);
                    (key, Json::Arr(cells.collect()))
                })),
            ),
            ("read_slots", Json::Num(scheme.total_read_slots() as f64)),
            ("unique_reads", Json::Num(scheme.unique_reads() as f64)),
            ("shared_savings", Json::Num(scheme.shared_savings() as f64)),
        ]));
        return Ok(());
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
    for prio in (1..=3).rev() {
        let names = with_priority(prio);
        if !names.is_empty() {
            println!("priority {prio}: {}", names.join(", "));
        }
    }
    Ok(())
}

fn cmd_trace(args: &mut Args) -> Result<(), Exit> {
    let usage = "usage: fbf trace <stripes> <count> [seed]";
    let (stripes, count): (u32, usize) = (args.positional(usage)?, args.positional(usage)?);
    let seed: u64 = args
        .optional_with(|s| s.parse().ok(), usage)?
        .unwrap_or(0x5EED);
    args.done(usage)?;
    // Trace geometry bound: use TIP(p=13) so traces replay on any shipped
    // code with p >= 13 — or adjust to taste.
    let code = StripeCode::build(CodeSpec::Tip, 13).expect("13 is prime");
    if count as u64 > u64::from(stripes) {
        let errors = count;
        return Err(Exit::usage(
            ConfigError::TooManyErrors { errors, stripes }.to_string(),
        ));
    }
    let group = generate_errors(&code, &ErrorGenConfig::paper_default(stripes, count, seed));
    if args.json {
        print_json(&Json::obj([
            ("stripes", Json::Num(stripes as f64)),
            ("count", Json::Num(group.len() as f64)),
            ("seed", Json::Num(seed as f64)),
            ("trace", Json::Str(render_trace(&group))),
        ]));
        return Ok(());
    }
    print!("{}", render_trace(&group));
    Ok(())
}

/// A refusal as `run`, `replay` and `sweep` word it: the daemon's text,
/// with the trace file named and a configuration that does not add up
/// marked as such.
fn refusal(e: RequestError, path: &str) -> Exit {
    Exit::usage(match &e {
        RequestError::Config(ConfigError::UnknownKey(_) | ConfigError::BadValue { .. }) => {
            e.to_string()
        }
        RequestError::Config(c) => format!("invalid configuration: {c}"),
        RequestError::BadTrace(t) => format!("bad trace {path}: {t}"),
        RequestError::TraceGeometry(g) => {
            format!("trace {path} does not fit the configured geometry: {g}")
        }
        _ => e.to_string(),
    })
}

/// `fbf run` / `replay` / `rebuild`: build the request `fbf client` would
/// send to a daemon and execute it here — one reader of the flags
/// ([`Work::from_request`]) and one executor ([`Work::execute`]) behind
/// both doors. `rebuild` simulates a whole-disk failure on an N-disk array
/// and drives the declustered rebuild scheduler over every affected
/// stripe, with foreground app reads sharing the spindles.
fn cmd_local(args: &mut Args, rebuild: bool, trace_in: Option<&str>) -> Result<(), Exit> {
    let (what, request) = match rebuild {
        true => ("rebuild", rebuild_request(args)?),
        false => ("run", repair_request(args, trace_in)?),
    };
    let work = Work::from_request(&Json::obj(request)).map_err(|e| match rebuild {
        true => Exit::usage(e.to_string()),
        false => refusal(e, trace_in.unwrap_or("")),
    })?;
    if !args.json {
        match &work {
            Work::Repair { cfg, campaign, .. } => {
                println!("running {}", cfg.describe());
                if let (Some(errors), Some(path)) = (campaign, trace_in) {
                    println!("  (replaying {} errors from {path})", errors.len());
                }
            }
            Work::Rebuild(spec) => println!(
                "rebuilding disk {} of {} ({} placement, {} fairness): {}",
                spec.failed_disk,
                spec.disks,
                spec.placement.name(),
                spec.fairness.name(),
                spec.base.describe()
            ),
        }
    }
    let outcome = work
        .execute(&PlanStore::new(), &mut EngineScratch::new(), None)
        .map_err(|e| Exit::fail(format!("{what} failed: {e}")))?;
    match outcome {
        Outcome::Repair { metrics, .. } => print_run(args, &metrics),
        Outcome::Rebuild(outcome) => print_rebuild(args, &outcome),
    }
}

fn print_run(args: &Args, m: &fbf::Metrics) -> Result<(), Exit> {
    args.flags
        .write_metrics(|| fbf::prometheus_snapshot([m], None));
    if args.json {
        println!("{}", m.to_json());
        return Ok(());
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
    Ok(())
}

fn print_rebuild(args: &Args, outcome: &fbf::RebuildOutcome) -> Result<(), Exit> {
    let failed = !outcome.failed_stripes.is_empty();
    if args.json {
        println!("{}", outcome.to_json());
        return Exit::fail_if(failed);
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
    Exit::fail_if(failed)
}

fn cmd_sweep(args: &mut Args) -> Result<(), Exit> {
    // The experiment flags, read as every other door reads them.
    let request = Json::obj(repair_request(args, None)?);
    let work = Work::from_request(&request).map_err(|e| refusal(e, ""))?;
    let base = *work.cfg();
    let grid = policy_grid(&CACHE_MB, &PolicyKind::ALL, |&cache_mb, &policy| {
        ExperimentConfig {
            policy,
            cache_mb,
            ..base
        }
    })
    .map_err(|e| Exit::fail(format!("sweep failed: {e}")))?;
    let snapshot = || fbf::prometheus_snapshot(grid.points.iter().map(|p| &p.metrics), None);
    args.flags.write_metrics(snapshot);
    if args.json {
        let rows: Vec<Json> = grid
            .points
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
        return Ok(());
    }
    let mut headers = vec!["cache_mb"];
    headers.extend(PolicyKind::ALL.iter().map(PolicyKind::name));
    let table = grid.table(
        format!("hit ratio — {}(p={})", base.code.name(), base.p),
        &headers,
        |mb| vec![mb.to_string()],
        |pt| vec![f(pt.metrics.hit_ratio, 4)],
    );
    println!("{}", table.render());
    Ok(())
}

fn addr_display(addr: &ServerAddr) -> String {
    match addr {
        ServerAddr::Unix(p) => format!("unix:{}", p.display()),
        ServerAddr::Tcp(a) => format!("tcp:{a}"),
    }
}

/// `fbf serve`: the daemon's one launcher, in the foreground until a
/// client sends `shutdown`.
fn cmd_serve(args: &mut Args) -> Result<(), Exit> {
    let addr = args.addr()?;
    let mut opts = DaemonOptions::default();
    let workers = args.flag::<NonZeroUsize>("daemon-workers")?;
    opts.workers = workers.map_or(opts.workers, NonZeroUsize::get);
    opts.retain = args.flag("retain")?.unwrap_or(opts.retain);
    let ring_cap = args.flag::<NonZeroUsize>("ring-cap")?;
    if let Some(stray) = args.rest.first() {
        return Err(Exit::usage(format!("unexpected argument `{stray}`")));
    }
    if let Some(cap) = ring_cap {
        // serve() keeps a recorder that is already installed.
        let recorder = fbf::obs::FlightRecorder::with_capacity(cap.get());
        fbf::obs::ring::install(std::sync::Arc::new(recorder));
    }
    let handle = fbf::serve(&addr, opts)
        .map_err(|e| Exit::fail(format!("cannot serve on {}: {e}", addr_display(&addr))))?;
    if args.json {
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
    Ok(())
}

/// The fields of a daemon `rebuild` request from `fbf rebuild` /
/// `fbf client rebuild` arguments: rebuild-spec flags come out first,
/// everything left is ordinary experiment flags. All forwarded as typed;
/// `Work::from_request` is the one reader.
fn rebuild_request(args: &mut Args) -> Result<Vec<(&'static str, Json)>, Exit> {
    let mut fields = vec![("cmd", Json::from("rebuild"))];
    // The spec's wire keys; each one's flag spells its underscores as dashes.
    let spec_keys = "disks placement placement_seed failed_disk cap fairness campaigns app_reads";
    for wire_key in spec_keys.split(' ') {
        let value = args.flag::<String>(&wire_key.replace('_', "-"))?;
        fields.extend(value.map(|v| (wire_key, Json::Str(v))));
    }
    fields.push(("config", overrides(&config_flags(&args.rest)?)));
    Ok(fields)
}

/// The fields of a daemon `repair` request: the experiment flags left on
/// the command line, and the text of the trace file to replay (it travels
/// inline; the daemon never opens client paths).
fn repair_request(args: &Args, trace_in: Option<&str>) -> Result<Vec<(&'static str, Json)>, Exit> {
    let mut fields = vec![
        ("cmd", Json::from("repair")),
        ("config", overrides(&config_flags(&args.rest)?)),
    ];
    if let Some(path) = trace_in {
        let text = std::fs::read_to_string(path)
            .map_err(|e| Exit::fail(format!("cannot read trace {path}: {e}")))?;
        fields.push(("trace", Json::Str(text)));
    }
    Ok(fields)
}

/// The daemon's `config` override object: the flags forwarded as they
/// were typed. The daemon applies them through the same
/// `ExperimentConfigBuilder::set` a local run uses, so every key — fault
/// injection included — means the same on both sides.
fn overrides(flags: &[(String, String)]) -> Json {
    Json::Obj(
        flags
            .iter()
            .map(|(k, v)| (k.clone(), Json::Str(v.clone())))
            .collect(),
    )
}

fn connect(addr: &ServerAddr) -> Result<DaemonClient, Exit> {
    DaemonClient::connect(addr).map_err(|e| {
        Exit::fail(format!(
            "cannot connect to fbfd at {}: {e} (is it running? start one with `fbf serve`)",
            addr_display(addr)
        ))
    })
}

/// A request that is its command word alone.
fn cmd(name: &str) -> Json {
    Json::obj([("cmd", name.into())])
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

fn cmd_client(args: &mut Args) -> Result<(), Exit> {
    let addr = args.addr()?;
    let action = args.positional::<String>(
        "usage: fbf client [--socket <path> | --tcp <addr>] \
         ping|repair|rebuild|status|jobs|read|metrics|stat|top|dump|watch|load|shutdown",
    )?;
    let json = args.json;
    // An action that takes no arguments of its own.
    let bare = |args: &Args| args.done(&format!("usage: fbf client {action}"));
    match action.as_str() {
        "ping" | "jobs" | "shutdown" => {
            bare(args)?;
            print_json(&connect(&addr)?.request(&cmd(&action))?)
        }
        "repair" => {
            let wait = args.switch("wait");
            let backend = args.flag::<String>("backend")?;
            let dir = args.flag::<String>("dir")?;
            let trace_in = args.flag::<String>("trace-in")?;
            let mut fields = repair_request(args, trace_in.as_deref())?;
            for (wire_key, value) in [("backend", backend), ("dir", dir)] {
                fields.extend(value.map(|v| (wire_key, Json::Str(v))));
            }
            submit_job(&addr, fields, wait, json)?
        }
        // The same spec flags as `fbf rebuild`, executed on the daemon's
        // worker pool.
        "rebuild" => {
            let wait = args.switch("wait");
            submit_job(&addr, rebuild_request(args)?, wait, json)?
        }
        "status" => {
            let usage = "usage: fbf client status <job>";
            let job: u64 = args.positional(usage)?;
            args.done(usage)?;
            let status = Json::obj([("cmd", "status".into()), ("job", job.into())]);
            print_json(&connect(&addr)?.request(&status)?)
        }
        "read" => {
            let usage = "usage: fbf client read <job> <stripe> <row> <col>";
            let mut fields = vec![("cmd", Json::from("read"))];
            for key in ["job", "stripe", "row", "col"] {
                fields.push((key, args.positional::<u64>(usage)?.into()));
            }
            args.done(usage)?;
            print_json(&connect(&addr)?.request(&Json::obj(fields))?)
        }
        "metrics" => {
            bare(args)?;
            let reply = connect(&addr)?.request(&cmd("metrics"))?;
            match reply.get("prometheus").and_then(Json::as_str) {
                // The Prometheus text is the payload; print it bare so it
                // pipes straight into check_trace.py --prom.
                Some(text) if !json => print!("{text}"),
                _ => print_json(&reply),
            }
        }
        "stat" => {
            bare(args)?;
            let reply = connect(&addr)?.request(&cmd("stat"))?;
            match json {
                true => print_json(&reply),
                false => print!("{}", render_stat(&reply)),
            }
        }
        "top" => client_top(args, &addr)?,
        "dump" => {
            let out = args.flag::<String>("out")?;
            args.done("usage: fbf client dump [--out <file.jsonl>]")?;
            let reply = connect(&addr)?.request(&cmd("dump"))?;
            let jsonl = reply.get("jsonl").and_then(Json::as_str).unwrap_or("");
            match out {
                Some(path) => {
                    std::fs::write(&path, jsonl)
                        .map_err(|e| Exit::fail(format!("cannot write {path}: {e}")))?;
                    eprintln!(
                        "wrote {} flight-recorder events to {path}",
                        reply.get("events").and_then(Json::as_u64).unwrap_or(0)
                    );
                }
                None if json => print_json(&reply),
                None => print!("{jsonl}"),
            }
        }
        "watch" => {
            bare(args)?;
            let mut client = connect(&addr)?;
            client.request(&cmd("subscribe"))?;
            let ended = |e| Exit::fail(format!("stream ended: {e}"));
            while let Some(frame) = client.recv().map_err(ended)? {
                match frame.get("event").and_then(Json::as_str) {
                    Some(line) => println!("{line}"),
                    None => println!("{}", frame.render()),
                }
            }
        }
        "load" => client_load(args, &addr)?,
        other => return Err(Exit::usage(format!("unknown client action `{other}`"))),
    }
    Ok(())
}

/// `fbf client top` — a refreshing `stat` view. `--interval-ms` sets the
/// refresh period (default 1000), `--iterations` bounds the run (0 =
/// until interrupted; CI uses a finite count).
fn client_top(args: &mut Args, addr: &ServerAddr) -> Result<(), Exit> {
    let interval: u64 = args.flag("interval-ms")?.unwrap_or(1000).max(50);
    let iterations: u64 = args.flag("iterations")?.unwrap_or(0);
    args.done("usage: fbf client top [--interval-ms <n>] [--iterations <n>]")?;
    let mut client = connect(addr)?;
    let mut done = 0u64;
    loop {
        let reply = client.request(&cmd("stat"))?;
        // Clear screen + home, like top(1); harmless when piped.
        print!("\x1b[2J\x1b[H{}", render_stat(&reply));
        use std::io::Write as _;
        let _ = std::io::stdout().flush();
        done += 1;
        if iterations != 0 && done >= iterations {
            return Ok(());
        }
        std::thread::sleep(Duration::from_millis(interval));
    }
}

/// Submit a job request; with `wait`, see it through and print what its
/// final status carries: a repair's `metrics` or a rebuild's `rebuild`.
fn submit_job(
    addr: &ServerAddr,
    fields: Vec<(&'static str, Json)>,
    wait: bool,
    json: bool,
) -> Result<(), Exit> {
    let mut client = connect(addr)?;
    let (job, reply) = client.submit(fields)?;
    if !wait {
        match json {
            true => print_json(&reply),
            false => println!("job {job} queued"),
        }
        return Ok(());
    }
    let status = client.wait(job, Duration::from_millis(50), |_| {})?;
    if json {
        print_json(&status);
        return Ok(());
    }
    println!("job {job} done");
    if let Some(result) = status.get("metrics").or(status.get("rebuild")) {
        println!("{}", result.render());
    }
    Ok(())
}

/// Trace-driven load generator: shard a synthetic campaign across N
/// connections, submit each shard as an inline-trace repair, and report
/// per-class round-trip latency digests.
fn client_load(args: &mut Args, addr: &ServerAddr) -> Result<(), Exit> {
    let connections: usize = args.flag("connections")?.unwrap_or(4).max(1);
    let backend = args.flag::<String>("backend")?;
    // The load campaign is generated locally so every connection replays
    // a disjoint shard; the same config overrides ship with each repair
    // so the daemon executes the shard against the intended geometry.
    let flags = config_flags(&args.rest)?;
    let request = Json::obj([("config", overrides(&flags))]);
    let work = Work::from_request(&request)
        .map_err(|e| Exit::usage(format!("invalid configuration: {e}")))?;
    let cfg = work.cfg();
    let code = StripeCode::build(cfg.code, cfg.p)
        .map_err(|e| Exit::usage(format!("cannot build {}: {e}", cfg.code.name())))?;
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
            let mut fields = vec![
                ("cmd", Json::from("repair")),
                ("config", overrides(&flags)),
                ("trace", Json::Str(render_trace(&shard))),
                ("trace_id", trace_id.into()),
            ];
            fields.extend(backend.clone().map(|b| ("backend", Json::Str(b))));
            std::thread::spawn(move || -> LoadReport {
                let mut report = LoadReport::new();
                let Ok(mut client) = DaemonClient::connect(&addr) else {
                    report.record_failure("connect");
                    return report;
                };
                let submit = Instant::now();
                let Ok((job, _)) = client.submit(fields) else {
                    report.record_failure("repair");
                    return report;
                };
                let polled = client.wait(job, Duration::from_millis(20), |rtt| {
                    report.record("status", rtt.as_nanos() as u64);
                });
                match polled {
                    Ok(_) => report.record("repair", submit.elapsed().as_nanos() as u64),
                    Err(DaemonError::JobFailed(_)) => report.record_failure("repair"),
                    Err(_) => report.record_failure("status"),
                }
                report
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
    if args.json {
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
    Exit::fail_if(merged.total_failures() > 0 || merged.count("repair") == 0)
}

fn cmd_scrub(args: &mut Args) -> Result<(), Exit> {
    use fbf::codes::encode::encode;
    use fbf::recovery::{scrub, ScrubOutcome};
    use fbf::{Cell, Stripe};

    let code = build_code(args)?;
    args.done("usage: fbf scrub <code> <p>")?;
    let mut stripe = Stripe::patterned(code.layout(), 4096);
    encode(&code, &mut stripe).expect("encode");
    let victim = Cell::new(code.rows() / 2, code.cols() / 3);
    let mut buf = stripe.get(code.layout(), victim).to_vec();
    buf[0] ^= 0xFF;
    stripe.set(code.layout(), victim, buf.into());
    if !args.json {
        println!("{}: silently corrupted {victim}", code.describe());
    }
    let outcome = scrub(&code, &mut stripe, 2);
    let repaired = matches!(outcome, ScrubOutcome::Repaired(_));
    if args.json {
        print_json(&Json::obj([
            ("code", Json::Str(code.spec().name().to_string())),
            ("corrupted", Json::Str(victim.to_string())),
            ("outcome", Json::Str(format!("{outcome:?}"))),
            ("repaired", Json::Bool(repaired)),
        ]));
    } else if let ScrubOutcome::Repaired(cells) = &outcome {
        println!("scrubber located {cells:?} and repaired it");
    } else {
        println!("scrub outcome: {outcome:?}");
    }
    Exit::fail_if(!repaired)
}

fn cmd_mttdl(args: &mut Args) -> Result<(), Exit> {
    let usage = "usage: fbf mttdl <disks> <mttr_hours>";
    let (disks, mttr): (usize, f64) = (args.positional(usage)?, args.positional(usage)?);
    args.done(usage)?;
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
    if args.json {
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
        return Ok(());
    }
    let mut table = Table::new(
        format!("MTTDL, {disks} nearline disks, {mttr} h repair window"),
        &["fault_tolerance", "mttdl_years"],
    );
    for (ft, years) in rows {
        table.push_row(vec![ft.to_string(), format!("{years:.3e}")]);
    }
    println!("{}", table.render());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use fbf::core::config::KEYS;
    use fbf::disksim::{DiskKill, SlowDisk};
    use fbf::{ExperimentConfigBuilder, FaultPlan, PolicyKind, SimTime};

    type Builder = ExperimentConfigBuilder;
    type Setter = fn(Builder) -> Builder;

    fn faults(b: Builder, edit: fn(&mut FaultPlan)) -> Builder {
        let mut plan = FaultPlan::none();
        edit(&mut plan);
        b.faults(plan)
    }

    /// One sample per key of `set`: a value text and the typed setter
    /// call that text must be equivalent to.
    const SAMPLES: [(&str, &str, Setter); 18] = [
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

    fn request(config: Json) -> Result<ExperimentConfig, RequestError> {
        Work::from_request(&Json::obj([("config", config)])).map(|work| *work.cfg())
    }

    fn wire(key: &str, value: Json) -> Result<ExperimentConfig, String> {
        request(Json::Obj([(key.to_string(), value)].into())).map_err(|e| e.to_string())
    }

    /// The command line's way to a config: flags, forwarded as typed.
    fn cli(args: &[String]) -> Result<ExperimentConfig, RequestError> {
        request(overrides(&config_flags(args).expect("well-formed flag")))
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
            let split = [flag.clone(), text.to_string()];
            assert_eq!(shown(cli(&split).unwrap()), want, "{flag} {text}");
            let joined = [format!("{flag}={text}")];
            assert_eq!(shown(cli(&joined).unwrap()), want, "{flag}={text}");
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
            let refused = cli(&[flag.clone(), text.to_string()]).unwrap_err();
            assert_eq!(refused, RequestError::Config(set), "{flag} {text}");
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
        for bad in ["stripes=128", "--stripes"] {
            assert_eq!(config_flags(&[bad.to_string()]).unwrap_err().code, 2);
        }
    }
}
