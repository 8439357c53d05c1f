//! The benchmark against its own contract: `BENCHMARK.json` says what the
//! tables in `src/metrics.rs` say, and a smoke run of every workload
//! prints exactly the names it was promised, for exactly the workloads
//! that measure them.

use fbf::Json;
use fbf_benchmark::metrics::{EndToEnd, PerLayer, WorkloadSpec, END_TO_END, PER_LAYER, WORKLOADS};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::Mutex;

const BIN: &str = env!("CARGO_BIN_EXE_fbf-benchmark");

fn out_dir(test: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(test);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Benchmark processes time things: one at a time, or the tests running
/// in parallel become each other's noisy neighbours.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

/// Run the benchmark binary; returns (exit ok, stdout).
fn bench(args: &[&str], out: &Path) -> (bool, String) {
    let _serial = ONE_AT_A_TIME.lock().unwrap_or_else(|p| p.into_inner());
    let output = Command::new(BIN)
        .args(args)
        .arg("--out")
        .arg(out)
        .output()
        .expect("benchmark binary runs");
    (
        output.status.success(),
        String::from_utf8(output.stdout).expect("utf-8 stdout"),
    )
}

/// The result object a single-workload run prints last.
fn result_of(workload: &str, seed: &str, traced: bool, out: &Path) -> Json {
    let trace = if traced { "1" } else { "0" };
    let (ok, stdout) = bench(
        &[
            "run",
            "--smoke",
            "--workload",
            workload,
            "--seed",
            seed,
            "--trace",
            trace,
        ],
        out,
    );
    assert!(ok, "{workload} (trace {trace}) exited non-zero:\n{stdout}");
    let result = Json::parse(stdout.lines().last().expect("a result line")).expect("JSON");
    let Json::Obj(fields) = &result else {
        panic!("result is not an object")
    };
    let keys: Vec<&str> = fields.keys().map(String::as_str).collect();
    assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
    assert_eq!(result.get("correct"), Some(&Json::Bool(true)), "{workload}");
    assert_eq!(result.get("failed").and_then(Json::as_u64), Some(0));
    assert!(result.get("attempted").and_then(Json::as_u64).unwrap() >= 1);
    result
}

fn metric(result: &Json, name: &str) -> f64 {
    let entry = result.get("metrics").and_then(|m| m.get(name));
    entry
        .and_then(|m| m.get("value"))
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("no value for {name}"))
}

fn metric_names(result: &Json) -> BTreeSet<String> {
    match result.get("metrics") {
        Some(Json::Obj(map)) => map.keys().cloned().collect(),
        _ => panic!("metrics is not an object"),
    }
}

fn strs<'a>(doc: &'a Json, list: &str, key: &str) -> Vec<&'a str> {
    doc.get(list)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("{list} is not an array"))
        .iter()
        .map(|e| e.get(key).and_then(Json::as_str).expect("string field"))
        .collect()
}

#[test]
fn benchmark_json_says_what_the_tables_say() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    assert!(text.len() <= 64 << 10);
    let doc = Json::parse(&text).expect("BENCHMARK.json parses");
    let Json::Obj(fields) = &doc else {
        panic!("not an object")
    };
    let keys: Vec<&str> = fields.keys().map(String::as_str).collect();
    assert_eq!(
        keys,
        [
            "command",
            "end_to_end",
            "paths",
            "per_layer",
            "run_seconds",
            "workloads"
        ]
    );

    let column = |list: &str, key: &str| strs(&doc, list, key);
    let workloads =
        |f: fn(&WorkloadSpec) -> &'static str| WORKLOADS.iter().map(f).collect::<Vec<_>>();
    let end_to_end =
        |f: fn(&EndToEnd) -> &'static str| END_TO_END.iter().map(f).collect::<Vec<_>>();
    let per_layer = |f: fn(&PerLayer) -> &'static str| PER_LAYER.iter().map(f).collect::<Vec<_>>();
    assert_eq!(column("workloads", "name"), workloads(|w| w.name));
    assert_eq!(column("workloads", "why"), workloads(|w| w.why));
    assert_eq!(column("end_to_end", "name"), end_to_end(|m| m.name));
    assert_eq!(column("end_to_end", "unit"), end_to_end(|m| m.unit));
    assert_eq!(
        column("end_to_end", "better"),
        end_to_end(|m| m.better.name())
    );
    assert_eq!(column("per_layer", "name"), per_layer(|m| m.name));
    assert_eq!(column("per_layer", "unit"), per_layer(|m| m.unit));
    assert_eq!(
        column("per_layer", "better"),
        per_layer(|m| m.better.name())
    );
    let bounds: Vec<f64> = doc
        .get("end_to_end")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|e| e.get("bound").and_then(Json::as_f64).expect("bound"))
        .collect();
    assert_eq!(
        bounds,
        END_TO_END.iter().map(|m| m.bound).collect::<Vec<_>>()
    );

    // The contract's own limits.
    let setup = END_TO_END
        .iter()
        .find(|m| m.name == "setup_s")
        .expect("setup_s");
    assert_eq!((setup.unit, setup.better.name()), ("s", "lower"));
    assert!((2..=8).contains(&WORKLOADS.len()));
    assert!((1..=16).contains(&END_TO_END.len()));
    assert!((1..=128).contains(&PER_LAYER.len()));
    let seconds = doc.get("run_seconds").and_then(Json::as_u64).unwrap();
    assert!((1..=60).contains(&seconds));
    assert_eq!(
        doc.get("paths"),
        Some(&Json::Arr(vec![Json::Str("benchmark".into())]))
    );
    let command = doc.get("command").and_then(Json::as_arr).unwrap();
    assert!(command.len() <= 32);
    assert!(command
        .iter()
        .all(|a| a.as_str().is_some_and(|s| s.len() <= 200)));
    for unit in END_TO_END
        .iter()
        .map(|m| m.unit)
        .chain(PER_LAYER.iter().map(|m| m.unit))
    {
        assert!(unit.len() <= 16);
        assert!(unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
    }
}

#[test]
fn every_workload_emits_exactly_the_named_metrics() {
    let out = out_dir("named-metrics");
    let end_to_end: BTreeSet<String> = END_TO_END.iter().map(|m| m.name.to_string()).collect();
    let per_layer: BTreeSet<String> = PER_LAYER.iter().map(|m| m.name.to_string()).collect();
    for spec in &WORKLOADS {
        let untraced = result_of(spec.name, "5", false, &out);
        assert_eq!(metric_names(&untraced), end_to_end, "{}", spec.name);
        for m in &END_TO_END {
            let value = metric(&untraced, m.name);
            assert!(
                value.is_finite() && value > 0.0,
                "{} {} = {value}",
                spec.name,
                m.name
            );
        }

        let traced = result_of(spec.name, "5", true, &out);
        assert_eq!(metric_names(&traced), per_layer, "{}", spec.name);
        for m in &PER_LAYER {
            let value = metric(&traced, m.name);
            assert!(value.is_finite(), "{} {} = {value}", spec.name, m.name);
            if !m.workloads.contains(&spec.name) {
                assert_eq!(value, 0.0, "{} does not measure {}", spec.name, m.name);
            }
        }
        // Every workload traces ops. How well its layers reconcile to the
        // wall time is a host-timing figure: reported, not judged here
        // (the arithmetic is tested on synthetic spans in `src/span.rs`).
        assert!(metric(&traced, "obs.traced_ops") >= 1.0);
        assert!(metric(&traced, "obs.reconcile_error_pct") >= 0.0);

        // The layer table is well-formed row by row.
        let csv = std::fs::read_to_string(out.join(format!("layer_breakdown.{}.csv", spec.name)))
            .expect("layer table written");
        let mut lines = csv.lines();
        assert_eq!(
            lines.next(),
            Some("workload,layer,calls,total_ms,self_ms,share")
        );
        for line in lines {
            let cols: Vec<&str> = line.split(',').collect();
            assert_eq!((cols.len(), cols[0]), (6, spec.name), "{line}");
            let (total, own): (f64, f64) = (cols[3].parse().unwrap(), cols[4].parse().unwrap());
            assert!(own >= 0.0 && own <= total + 1e-9, "{line}");
            assert!(cols[5].parse::<f64>().unwrap() >= 0.0, "{line}");
        }
        assert!(out.join(format!("trace.{}.jsonl", spec.name)).exists());
    }
}

#[test]
fn the_seed_decides_the_inputs_and_nothing_else_does() {
    let out = out_dir("seed");
    let sims = [
        "sim_hit_ratio",
        "sim_reads_per_chunk",
        "sim_avg_response_ms",
        "sim_reconstruction_s",
    ];
    let run = |seed: &str| {
        let result = result_of("faulted_sim", seed, false, &out);
        sims.map(|name| metric(&result, name))
    };
    let first = run("7");
    assert_eq!(first, run("7"), "same seed, same simulated statistics");
    assert_ne!(
        first,
        run("8"),
        "another seed draws other campaigns and faults"
    );
}

#[test]
fn a_full_smoke_run_writes_stamped_results_and_merged_traces() {
    let out = out_dir("full-run");
    let (ok, stdout) = bench(&["run", "--smoke", "--seed", "9"], &out);
    assert!(ok, "full smoke run failed:\n{stdout}");
    for spec in &WORKLOADS {
        for metric in &END_TO_END {
            let printed = stdout.lines().any(|l| {
                let mut cols = l.split_whitespace();
                cols.next() == Some(spec.name) && cols.next() == Some(metric.name)
            });
            assert!(printed, "{} {} not printed by name", spec.name, metric.name);
        }
    }
    let results = std::fs::read_to_string(out.join("results.json")).expect("results.json");
    let doc = Json::parse(&results).expect("results.json parses");
    assert_eq!(doc.get("seed").and_then(Json::as_u64), Some(9));
    let env = doc.get("env").expect("environment stamp");
    for key in [
        "commit",
        "rustc",
        "nproc",
        "cpu",
        "xor_kernel",
        "load_start",
        "load_end",
        "noisy",
    ] {
        assert!(env.get(key).is_some(), "stamp lacks {key}");
    }
    for spec in &WORKLOADS {
        let w = doc
            .get("workloads")
            .and_then(|w| w.get(spec.name))
            .expect(spec.name);
        assert_eq!(w.get("fail_ratio").and_then(Json::as_f64), Some(0.0));
        let layers = match w.get("per_layer") {
            Some(Json::Obj(map)) => map.keys().cloned().collect::<BTreeSet<_>>(),
            _ => panic!("per_layer is not an object"),
        };
        let expected: BTreeSet<String> = PER_LAYER
            .iter()
            .filter(|m| m.workloads.contains(&spec.name))
            .map(|m| m.name.to_string())
            .collect();
        assert_eq!(
            layers, expected,
            "{} reports its own layers only",
            spec.name
        );
    }
    let csv = std::fs::read_to_string(out.join("layer_breakdown.csv")).expect("merged table");
    for spec in &WORKLOADS {
        assert!(csv
            .lines()
            .any(|l| l.starts_with(&format!("{},op,", spec.name))));
    }
    assert!(out.join("trace.jsonl").exists());
    assert!(
        !out.join("work")
            .read_dir()
            .is_ok_and(|mut d| d.next().is_some()),
        "scratch left behind"
    );
}
