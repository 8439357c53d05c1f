//! `fbf-benchmark run | repeat-check | serve` — see `README.md`.

use fbf_benchmark::metrics::{unit_of, workload_named};
use fbf_benchmark::orchestrate::{self, Plan};
use fbf_benchmark::workloads::{self, daemon_small, Ctx};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "\
usage: fbf-benchmark run [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
                         [--smoke] [--out DIR]
       fbf-benchmark repeat-check [--seed N] [--seconds S] [--smoke] [--out DIR]
       fbf-benchmark serve --socket PATH

run           one workload when --workload is given (the driver's form: the last
              stdout line is the result object); otherwise every workload, each in
              its own process, interleaved over three rounds, then one traced
              run each; writes results.json, trace.jsonl, layer_breakdown.csv
repeat-check  the full run twice; non-zero exit when the two disagree
serve         be the daemon under test (used by the daemon_small workload)";

/// Parsed command line.
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    out: PathBuf,
    socket: Option<PathBuf>,
}

impl Args {
    /// `--seconds`, defaulting to `BENCHMARK.json`'s `run_seconds` (a
    /// fraction of a second under `--smoke`).
    fn seconds(&self) -> f64 {
        self.seconds.unwrap_or(if self.smoke { 0.2 } else { 10.0 })
    }
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        smoke: false,
        out: PathBuf::from("benchmark/out"),
        socket: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            parsed.smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => parsed.workload = Some(value.clone()),
            "--seed" => parsed.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                let seconds: f64 = value.parse().map_err(|_| bad())?;
                if !(seconds.is_finite() && seconds >= 0.0) {
                    return Err(bad());
                }
                parsed.seconds = Some(seconds);
            }
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--out" => parsed.out = PathBuf::from(value),
            "--socket" => parsed.socket = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(parsed)
}

/// Run one workload in this process and print its metrics by name, the
/// contract's result object last.
fn run_one(name: &str, args: &Args) -> Result<bool, String> {
    let spec = workload_named(name).ok_or_else(|| format!("unknown workload `{name}`"))?;
    std::fs::create_dir_all(&args.out)
        .map_err(|e| format!("create {}: {e}", args.out.display()))?;
    let ctx = Ctx {
        workload: spec.name,
        seed: args.seed,
        seconds: args.seconds(),
        trace: args.trace,
        smoke: args.smoke,
        out: args.out.clone(),
    };
    let outcome = workloads::run(&ctx)?;
    for (metric, value) in &outcome.values.0 {
        let unit = unit_of(metric).unwrap_or("");
        println!("{:<16} {metric:<36} {value:>18.6} {unit}", spec.name);
    }
    println!("{}", outcome.result_line(args.trace));
    Ok(outcome.failed == 0)
}

fn dispatch(command: &str, args: &Args) -> Result<bool, String> {
    let plan = || Plan {
        seed: args.seed,
        seconds: args.seconds(),
        smoke: args.smoke,
        out: args.out.clone(),
    };
    match (command, &args.workload) {
        ("run", Some(name)) => run_one(name, args),
        ("run", None) => orchestrate::full_run(&plan()).map(|run| run.clean()),
        ("repeat-check", _) => orchestrate::repeat_check(&plan()),
        ("serve", _) => {
            let socket = args.socket.clone().ok_or("serve needs --socket")?;
            daemon_small::serve(socket).map(|()| true)
        }
        _ => Err(format!("unknown command `{command}`\n{USAGE}")),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = argv.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    match parse(rest).and_then(|args| dispatch(command, &args)) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("fbf-benchmark: output checks failed");
            ExitCode::from(1)
        }
        Err(e) => {
            eprintln!("fbf-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
