//! The full run: every workload in a child process of its own (so
//! `peak_rss_mb` is that workload's), interleaved over several rounds so
//! slow machine drift lands on all of them, then one traced run each.
//! Also `repeat-check`: the full run twice, compared under the
//! benchmark's own bounds.

use crate::env;
use crate::metrics::{END_TO_END, PER_LAYER, WORKLOADS};
use crate::span::BREAKDOWN_HEADER;
use crate::stats::{median, rel_diff};
use fbf::Json;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::{Command, Stdio};

/// What a full run was asked to do.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Run seed handed to every child.
    pub seed: u64,
    /// `--seconds` of every child.
    pub seconds: f64,
    /// 1/20-scale inputs.
    pub smoke: bool,
    /// Output directory.
    pub out: PathBuf,
}

impl Plan {
    /// Untraced rounds over the workloads: three, one under `--smoke`.
    fn rounds(&self) -> usize {
        if self.smoke {
            1
        } else {
            3
        }
    }
}

/// One workload's results over a full run.
#[derive(Debug, Clone, Default)]
pub struct WorkloadResult {
    /// Ops timed, summed over rounds and the traced run.
    pub attempted: u64,
    /// Failed ops and checks, summed.
    pub failed: u64,
    /// Each end-to-end metric's value per round.
    pub rounds: BTreeMap<&'static str, Vec<f64>>,
    /// The per-layer metrics this workload measures.
    pub layers: BTreeMap<&'static str, f64>,
}

impl WorkloadResult {
    /// Add a child's op and failure counts.
    fn count(&mut self, result: &Json) {
        let field = |key| result.get(key).and_then(Json::as_u64).unwrap_or(0);
        self.attempted += field("attempted");
        self.failed += field("failed");
    }

    /// Median over rounds of an end-to-end metric.
    pub fn end_to_end(&self, name: &str) -> f64 {
        self.rounds.get(name).map_or(0.0, |v| median(v))
    }
}

/// Results of a full run, by workload.
#[derive(Debug, Clone, Default)]
pub struct FullRun {
    /// Per-workload results, in name order.
    pub workloads: BTreeMap<&'static str, WorkloadResult>,
}

impl FullRun {
    /// No op and no output check failed anywhere.
    pub fn clean(&self) -> bool {
        self.workloads.values().all(|w| w.failed == 0)
    }
}

/// Run one workload in a child process and parse its result line.
fn child(plan: &Plan, workload: &str, traced: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut command = Command::new(exe);
    command
        .args(["run", "--workload", workload])
        .args(["--seed", &plan.seed.to_string()])
        .args(["--seconds", &plan.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .arg("--out")
        .arg(&plan.out)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if plan.smoke {
        command.arg("--smoke");
    }
    let output = command
        .output()
        .map_err(|e| format!("spawn {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout
        .lines()
        .last()
        .ok_or_else(|| format!("{workload} printed nothing ({})", output.status))?;
    let result = Json::parse(line).map_err(|e| format!("{workload} result line: {e}"))?;
    // A child whose output checks failed exits non-zero but still reports;
    // one that died without a result is an error.
    if result.get("metrics").is_none() {
        return Err(format!("{workload} ({}) printed no result", output.status));
    }
    Ok(result)
}

fn value(result: &Json, metric: &str) -> Result<f64, String> {
    result
        .get("metrics")
        .and_then(|m| m.get(metric))
        .and_then(|m| m.get("value"))
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("result has no {metric}"))
}

/// Run every workload: three interleaved untraced rounds (one under
/// `--smoke`), then one traced run each. Prints every metric by name with
/// its unit and writes `results.json`, `trace.jsonl` and
/// `layer_breakdown.csv` under `plan.out`.
pub fn full_run(plan: &Plan) -> Result<FullRun, String> {
    let mut runs = session(std::slice::from_ref(plan))?;
    Ok(runs.remove(0))
}

/// Measure `plans.len()` full runs (alike but for `out`) in one session,
/// interleaved child by child: round 1 of every run, then round 2 of every
/// run, …, then the traced runs. The machine's slow minutes then land on
/// all of them alike, which is what makes two runs of one commit comparable.
fn session(plans: &[Plan]) -> Result<Vec<FullRun>, String> {
    for plan in plans {
        std::fs::create_dir_all(&plan.out)
            .map_err(|e| format!("create {}: {e}", plan.out.display()))?;
    }
    let load_start = env::load_average();
    let mut runs = vec![FullRun::default(); plans.len()];
    let rounds = plans.first().map_or(0, Plan::rounds);
    for round in 0..rounds {
        for spec in &WORKLOADS {
            for (plan, run) in plans.iter().zip(&mut runs) {
                eprintln!("round {}/{rounds}: {}", round + 1, spec.name);
                let result = child(plan, spec.name, false)?;
                let entry = run.workloads.entry(spec.name).or_default();
                entry.count(&result);
                for metric in &END_TO_END {
                    entry
                        .rounds
                        .entry(metric.name)
                        .or_default()
                        .push(value(&result, metric.name)?);
                }
            }
        }
    }
    for spec in &WORKLOADS {
        for (plan, run) in plans.iter().zip(&mut runs) {
            eprintln!("traced: {}", spec.name);
            let result = child(plan, spec.name, true)?;
            let entry = run.workloads.entry(spec.name).or_default();
            entry.count(&result);
            for metric in PER_LAYER
                .iter()
                .filter(|m| m.workloads.contains(&spec.name))
            {
                entry
                    .layers
                    .insert(metric.name, value(&result, metric.name)?);
            }
        }
    }
    let load_end = env::load_average();

    for (plan, run) in plans.iter().zip(&runs) {
        merge_traces(plan)?;
        let results = plan.out.join("results.json");
        std::fs::write(&results, render_results(plan, run, load_start, load_end))
            .map_err(|e| format!("write {}: {e}", results.display()))?;
        print!("{}", render_table(run));
        println!("results: {}", results.display());
    }
    if load_start.max(load_end) > env::nproc() as f64 {
        println!("noisy: 1-minute load average {load_start} → {load_end} exceeds nproc");
    }
    Ok(runs)
}

/// Concatenate the per-workload trace files into the two files the
/// README documents.
fn merge_traces(plan: &Plan) -> Result<(), String> {
    let read = |name: String| {
        let path = plan.out.join(name);
        std::fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))
    };
    let mut jsonl = String::new();
    let mut csv = format!("{BREAKDOWN_HEADER}\n");
    for spec in &WORKLOADS {
        jsonl.push_str(&read(format!("trace.{}.jsonl", spec.name))?);
        let table = read(format!("layer_breakdown.{}.csv", spec.name))?;
        csv.extend(table.lines().skip(1).flat_map(|l| [l, "\n"]));
    }
    for (name, body) in [("trace.jsonl", jsonl), ("layer_breakdown.csv", csv)] {
        let path = plan.out.join(name);
        std::fs::write(&path, body).map_err(|e| format!("write {}: {e}", path.display()))?;
    }
    Ok(())
}

fn render_table(run: &FullRun) -> String {
    let mut out = String::new();
    for (workload, result) in &run.workloads {
        for metric in &END_TO_END {
            let _ = writeln!(
                out,
                "{workload:<16} {:<36} {:>18.6} {}",
                metric.name,
                result.end_to_end(metric.name),
                metric.unit
            );
        }
        for metric in PER_LAYER.iter() {
            if let Some(value) = result.layers.get(metric.name) {
                let _ = writeln!(
                    out,
                    "{workload:<16} {:<36} {value:>18.6} {}",
                    metric.name, metric.unit
                );
            }
        }
        let _ = writeln!(
            out,
            "{workload:<16} {:<36} {:>18.6} ratio ({} of {})",
            "fail_ratio",
            result.failed as f64 / result.attempted.max(1) as f64,
            result.failed,
            result.attempted
        );
    }
    out
}

fn render_results(plan: &Plan, run: &FullRun, load_start: f64, load_end: f64) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\n  \"seed\": {}, \"seconds\": {}, \"rounds\": {}, \"smoke\": {},\n  \"env\": {{{}}},\n  \"workloads\": {{",
        plan.seed,
        plan.seconds,
        plan.rounds(),
        plan.smoke,
        env::stamp_fields(load_start, load_end)
    );
    for (i, (workload, result)) in run.workloads.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            out,
            "{sep}\n    \"{workload}\": {{\"attempted\": {}, \"failed\": {}, \"fail_ratio\": {},\n      \"end_to_end\": {{",
            result.attempted,
            result.failed,
            result.failed as f64 / result.attempted.max(1) as f64
        );
        for (j, metric) in END_TO_END.iter().enumerate() {
            let rounds: Vec<String> = result.rounds[metric.name]
                .iter()
                .map(f64::to_string)
                .collect();
            let _ = write!(
                out,
                "{}\"{}\": {{\"value\": {}, \"unit\": \"{}\", \"rounds\": [{}]}}",
                if j == 0 { "" } else { ", " },
                metric.name,
                result.end_to_end(metric.name),
                metric.unit,
                rounds.join(", ")
            );
        }
        out.push_str("},\n      \"per_layer\": {");
        let layers = PER_LAYER
            .iter()
            .filter_map(|m| result.layers.get(m.name).map(|v| (m, v)));
        for (j, (metric, value)) in layers.enumerate() {
            let _ = write!(
                out,
                "{}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                if j == 0 { "" } else { ", " },
                metric.name,
                metric.unit
            );
        }
        out.push_str("}}");
    }
    out.push_str("\n  }\n}\n");
    out
}

/// One compared pair of `repeat-check`.
struct Pair {
    workload: &'static str,
    metric: &'static str,
    first: f64,
    second: f64,
    /// Allowed relative difference; 0 for values that must be identical.
    bound: f64,
}

impl Pair {
    fn agrees(&self) -> bool {
        if self.bound == 0.0 {
            self.first == self.second
        } else {
            rel_diff(self.first, self.second).abs() <= self.bound
        }
    }
}

/// Run the full benchmark twice — the two runs' children alternating, so
/// both see the same machine — and compare: every simulated statistic and
/// exact counter identical, every host-time end-to-end metric within its
/// bound, no failed op. Prints the table; `Ok(false)` on disagreement.
pub fn repeat_check(plan: &Plan) -> Result<bool, String> {
    let plans = ["repeat-1", "repeat-2"].map(|dir| Plan {
        out: plan.out.join(dir),
        ..plan.clone()
    });
    let runs = session(&plans)?;
    let (first, second) = (&runs[0], &runs[1]);
    let mut pairs = Vec::new();
    for spec in &WORKLOADS {
        let (a, b) = (&first.workloads[spec.name], &second.workloads[spec.name]);
        for metric in &END_TO_END {
            pairs.push(Pair {
                workload: spec.name,
                metric: metric.name,
                first: a.end_to_end(metric.name),
                second: b.end_to_end(metric.name),
                bound: if metric.exact { 0.0 } else { metric.bound },
            });
        }
        for metric in PER_LAYER.iter().filter(|m| m.exact) {
            if let (Some(&x), Some(&y)) = (a.layers.get(metric.name), b.layers.get(metric.name)) {
                pairs.push(Pair {
                    workload: spec.name,
                    metric: metric.name,
                    first: x,
                    second: y,
                    bound: 0.0,
                });
            }
        }
    }
    println!(
        "{:<16} {:<34} {:>16} {:>16} {:>9} {:>7}",
        "workload", "metric", "run 1", "run 2", "diff", "bound"
    );
    let mut agree = first.clean() && second.clean();
    for pair in &pairs {
        let ok = pair.agrees();
        agree &= ok;
        println!(
            "{:<16} {:<34} {:>16.6} {:>16.6} {:>+8.2}% {:>6.0}%{}",
            pair.workload,
            pair.metric,
            pair.first,
            pair.second,
            100.0 * rel_diff(pair.first, pair.second),
            100.0 * pair.bound,
            if ok { "" } else { "  DISAGREE" }
        );
    }
    for (i, run) in runs.iter().enumerate() {
        for (workload, result) in &run.workloads {
            if result.failed > 0 {
                println!(
                    "run {}: {workload}: {} failed of {}",
                    i + 1,
                    result.failed,
                    result.attempted
                );
            }
        }
    }
    println!("repeat-check: {}", if agree { "PASS" } else { "FAIL" });
    Ok(agree)
}
