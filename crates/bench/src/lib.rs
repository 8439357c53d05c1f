//! # fbf-bench — harness regenerating every table and figure of the paper
//!
//! One binary per artefact (run with `cargo run --release -p fbf-bench
//! --bin <name>`):
//!
//! | Binary | Paper artefact |
//! |---|---|
//! | `fig8_hit_ratio` | Fig. 8 — hit ratio vs cache size, 4 codes × P ∈ {7,11,13} |
//! | `fig9_read_ops` | Fig. 9 — disk reads, TIP, P ∈ {5,7,11,13} |
//! | `fig10_response_time` | Fig. 10 — avg response time, codes × P ∈ {7,11,13} |
//! | `fig11_reconstruction_time` | Fig. 11 — reconstruction time, TIP, P ∈ {5,7,11,13} |
//! | `table4_overhead` | Table IV — FBF temporal overhead |
//! | `table5_summary` | Table V — max improvement of FBF over each baseline |
//! | `ablation_scheme` | scheme generator ablation (typical / cycling / greedy) |
//! | `ablation_demotion` | FBF demotion-mechanism ablation |
//! | `ablation_sharing` | partitioned vs shared cache ablation |
//! | `fig2_fig3_walkthrough` | Figs. 2–3 + Table III — scheme selection demo |
//!
//! Every binary prints aligned tables and drops CSVs under `results/`.
//! Campaign scale is controlled by `FBF_ERRORS` / `FBF_STRIPES` /
//! `FBF_WORKERS` environment variables (defaults reproduce the shapes in
//! minutes on a laptop).
//!
//! The figure binaries that call [`init_obs`] also accept `--trace
//! <path>` (stream a chrome://tracing JSONL run trace) and `--obs`
//! (pretty-print events to stderr), or the equivalent `FBF_TRACE` /
//! `FBF_OBS=1` environment knobs.

use fbf_cache::PolicyKind;
use fbf_codes::CodeSpec;
use fbf_core::{ExperimentConfig, Table};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

pub use fbf_core::CACHE_MB;

/// Primes used by the multi-code figures (Figs. 8 and 10).
pub const FIG8_PRIMES: [usize; 3] = [7, 11, 13];
/// TIP-only figures (Figs. 9 and 11) sweep all four primes.
pub const TIP_PRIMES: [usize; 4] = [5, 7, 11, 13];

/// Read a scale knob from the environment.
pub fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Set once [`init_obs`] installs a subscriber; consulted by
/// [`base_config`] so every experiment the harness builds carries
/// `obs = true` and the engine/runner/sweep emission sites light up.
static OBS_REQUESTED: AtomicBool = AtomicBool::new(false);

/// Whether [`init_obs`] installed a subscriber for this process.
pub fn obs_requested() -> bool {
    OBS_REQUESTED.load(Ordering::Relaxed)
}

/// Observability bootstrap shared by the figure/table binaries.
///
/// Recognises `--trace <path>` (or `--trace=<path>`) and `--obs` on the
/// command line, plus `FBF_TRACE=<path>` and `FBF_OBS=1` in the
/// environment. `--trace` streams chrome://tracing-compatible JSONL to
/// the given file; `--obs` pretty-prints events to stderr; both together
/// fan out to both sinks. With neither present this is a no-op and the
/// run stays on the zero-cost disabled path.
///
/// Call at the top of `main`, and pair with [`finish_obs`] before exit —
/// `std::process::exit` skips destructors, so the trace file must be
/// flushed explicitly.
pub fn init_obs() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut trace: Option<String> = None;
    let mut stderr = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--obs" => stderr = true,
            "--trace" => {
                if let Some(p) = args.get(i + 1) {
                    trace = Some(p.clone());
                    i += 1;
                }
            }
            s => {
                if let Some(p) = s.strip_prefix("--trace=") {
                    trace = Some(p.to_string());
                }
            }
        }
        i += 1;
    }
    if trace.is_none() {
        if let Ok(p) = std::env::var("FBF_TRACE") {
            if !p.is_empty() {
                trace = Some(p);
            }
        }
    }
    stderr = stderr || std::env::var("FBF_OBS").is_ok_and(|v| v == "1");

    let mut sinks: Vec<Arc<dyn fbf_obs::Subscriber>> = Vec::new();
    if let Some(path) = trace {
        match fbf_obs::TraceWriter::create(std::path::Path::new(&path)) {
            Ok(w) => {
                eprintln!("(trace streaming to {path})");
                sinks.push(Arc::new(w));
            }
            Err(e) => eprintln!("warning: cannot open trace file {path}: {e}"),
        }
    }
    if stderr {
        sinks.push(Arc::new(fbf_obs::StderrSubscriber::default()));
    }
    if sinks.is_empty() {
        return;
    }
    let sub: Arc<dyn fbf_obs::Subscriber> = if sinks.len() == 1 {
        sinks.pop().expect("one sink")
    } else {
        Arc::new(fbf_obs::FanoutSubscriber::new(sinks))
    };
    fbf_obs::install(sub);
    OBS_REQUESTED.store(true, Ordering::Relaxed);
}

/// Flush and detach the subscriber installed by [`init_obs`] (no-op if
/// none was). Call as the last line of a bench `main`.
pub fn finish_obs() {
    if OBS_REQUESTED.load(Ordering::Relaxed) {
        fbf_obs::uninstall();
    }
}

/// The Prometheus snapshot path requested via `--metrics <path>`,
/// `--metrics=<path>`, or `FBF_METRICS=<path>` — the metrics counterpart
/// of [`init_obs`]'s `--trace`. Figure binaries that sweep call
/// [`fbf_core::prometheus_snapshot`] on their points and write it here.
pub fn metrics_path() -> Option<String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        if args[i] == "--metrics" {
            if let Some(p) = args.get(i + 1) {
                return Some(p.clone());
            }
        } else if let Some(p) = args[i].strip_prefix("--metrics=") {
            return Some(p.to_string());
        }
        i += 1;
    }
    std::env::var("FBF_METRICS").ok().filter(|p| !p.is_empty())
}

/// Write a Prometheus snapshot of `points` to the path from
/// [`metrics_path`], if one was requested (best effort, like
/// [`save_csv`]).
pub fn save_metrics_snapshot(points: &[fbf_core::SweepPoint]) {
    let Some(path) = metrics_path() else {
        return;
    };
    match std::fs::write(&path, fbf_core::prometheus_snapshot(points)) {
        Ok(()) => eprintln!("(metrics snapshot written to {path})"),
        Err(e) => eprintln!("warning: cannot write metrics snapshot {path}: {e}"),
    }
}

/// The figure-scale experiment base: paper constants, campaign sized by
/// env knobs.
pub fn base_config(
    code: CodeSpec,
    p: usize,
    policy: PolicyKind,
    cache_mb: usize,
) -> ExperimentConfig {
    ExperimentConfig::builder()
        .code(code)
        .p(p)
        .policy(policy)
        .cache_mb(cache_mb)
        .stripes(env_usize("FBF_STRIPES", 4096) as u32)
        .error_count(env_usize("FBF_ERRORS", 512))
        .workers(env_usize("FBF_WORKERS", 128))
        .obs(obs_requested())
        .build()
        .expect("paper-shaped figure configuration is valid")
}

/// Write a table's CSV under `results/<name>.csv` (best effort — printing
/// is the primary output).
pub fn save_csv(name: &str, table: &Table) {
    let dir = std::path::Path::new("results");
    if std::fs::create_dir_all(dir).is_ok() {
        let path = dir.join(format!("{name}.csv"));
        if let Err(e) = std::fs::write(&path, table.to_csv()) {
            eprintln!("warning: could not write {}: {e}", path.display());
        } else {
            eprintln!("(csv saved to {})", path.display());
        }
    }
}

/// Pretty-print a ratio like `2.47x`.
pub fn times(ours: f64, theirs: f64) -> String {
    if theirs == 0.0 {
        "inf".to_string()
    } else {
        format!("{:.2}x", ours / theirs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn base_config_uses_paper_constants() {
        let cfg = base_config(CodeSpec::Tip, 7, PolicyKind::Fbf, 64);
        assert_eq!(cfg.chunk_kb, 32);
        assert_eq!(cfg.cache_mb, 64);
        assert_eq!(cfg.code, CodeSpec::Tip);
    }

    #[test]
    fn times_formats() {
        assert_eq!(times(2.0, 1.0), "2.00x");
        assert_eq!(times(1.0, 0.0), "inf");
    }
}
