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
//! <path>` (stream a chrome://tracing JSONL run trace), `--obs`
//! (pretty-print events to stderr) and `--metrics <path>`, or the
//! equivalent `FBF_TRACE` / `FBF_OBS=1` / `FBF_METRICS` environment knobs.

use fbf_cache::PolicyKind;
use fbf_codes::CodeSpec;
use fbf_core::{ExperimentConfig, Table};
use fbf_obs::ObsFlags;
use std::sync::OnceLock;

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

/// What [`init_obs`] found: the flags (environment fallbacks applied) and
/// whether they installed a subscriber — consulted by [`base_config`] so
/// every experiment the harness builds carries `obs = true` and the
/// engine/runner/sweep emission sites light up.
static OBS: OnceLock<(ObsFlags, bool)> = OnceLock::new();

/// Observability bootstrap shared by the figure/table binaries: the
/// command line's [`ObsFlags`] (`--trace`, `--obs`, `--metrics`, parsed
/// exactly as `fbf` parses them), each falling back to its environment
/// knob (`FBF_TRACE=<path>`, `FBF_OBS=1`, `FBF_METRICS=<path>`). With
/// none present this is a no-op and the run stays on the zero-cost
/// disabled path.
///
/// Call at the top of `main`, and pair with [`finish_obs`] before exit —
/// `std::process::exit` skips destructors, so the trace file must be
/// flushed explicitly.
pub fn init_obs() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let mut flags = ObsFlags::take(&mut args).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    });
    let env = |name| std::env::var(name).ok().filter(|v: &String| !v.is_empty());
    flags.trace = flags.trace.or_else(|| env("FBF_TRACE"));
    flags.metrics = flags.metrics.or_else(|| env("FBF_METRICS"));
    flags.stderr |= env("FBF_OBS").as_deref() == Some("1");
    let on = flags.install().unwrap_or_else(|e| {
        eprintln!("warning: {e}");
        false
    });
    let _ = OBS.set((flags, on));
}

/// Flush and detach the subscriber installed by [`init_obs`] (no-op if
/// none was). Call as the last line of a bench `main`.
pub fn finish_obs() {
    fbf_obs::uninstall();
}

/// Write a Prometheus snapshot of `points` to the `--metrics` /
/// `FBF_METRICS` path [`init_obs`] found, if any.
pub fn save_metrics_snapshot(points: &[fbf_core::SweepPoint]) {
    if let Some((flags, _)) = OBS.get() {
        flags.write_metrics(|| fbf_core::prometheus_snapshot(points));
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
        .obs(OBS.get().is_some_and(|(_, on)| *on))
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
