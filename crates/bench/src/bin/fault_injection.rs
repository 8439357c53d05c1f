//! Seeded fault-injection smoke: determinism + byte-exact verification.
//!
//! Runs one campaign under a hostile fault plan — hard media errors, a
//! transiently-stalling array, a straggler disk, and a mid-campaign
//! whole-disk kill — **twice**, and fails (non-zero exit) unless the two
//! runs produce identical `Metrics` (including every fault counter, the
//! replan/round counts, and the data-loss list). Then runs the same
//! campaign through `verify_campaign` — the data plane on a `SimBackend`
//! at the config's 32 KiB chunks, every repaired stripe read back —
//! proving every surviving repaired stripe holds its pristine bytes and
//! every lost stripe genuinely exceeds the code's fault tolerance.
//!
//! CI runs this on every push (`FBF_BENCH_QUICK=1` shrinks the scale;
//! the assertions are identical). Scale knobs: `FBF_STRIPES`,
//! `FBF_ERRORS`, `FBF_WORKERS`.

use fbf_bench::{Artefact, Failure, Scale};
use fbf_cache::PolicyKind;
use fbf_codes::CodeSpec;
use fbf_core::{run_experiment, verify_campaign, ExperimentConfig, Json, Metrics, SweepPoint};
use std::fmt::Write;

fn campaign(scale: &Scale) -> Result<ExperimentConfig, Failure> {
    let mut builder = scale
        .campaign(scale.pick(512, 128), scale.pick(128, 48), 16)
        .code(CodeSpec::Tip)
        .p(7)
        .policy(PolicyKind::Fbf)
        .cache_mb(16)
        .gen_threads(1);
    // The hostile plan in `fbf run`'s flags: seed 0xfbf5, disk 2 at 1.5x
    // service time, disk 3 dead 40 virtual ms in.
    for (key, value) in [
        ("fault_seed", "64501"),
        ("media", "15"),
        ("transient", "40"),
        ("slow", "2@1500"),
        ("kill", "3@40"),
    ] {
        builder = builder.set(key, value)?;
    }
    Ok(builder.build()?)
}

/// Zero the two host-wall-clock fields (scheme-generation overhead is
/// measured on the host, not the virtual clock) so `==` checks exactly
/// the simulated, seed-determined portion of the metrics.
fn simulated(mut m: Metrics) -> Metrics {
    m.overhead_per_stripe_ms = 0.0;
    m.overhead_pct = 0.0;
    m
}

fn main() {
    fbf_bench::main(|scale| {
        let cfg = campaign(scale)?;
        eprintln!(
            "fault-injection smoke: {} stripes, {} errors, media=15‰ transient=40‰ \
             straggler(disk 2 @1.5x) kill(disk 3 @40ms), seed {:#x}",
            cfg.stripes, cfg.error_count, cfg.faults.seed
        );

        let first = simulated(run_experiment(&cfg)?);
        let second = simulated(run_experiment(&cfg)?);
        if first != second {
            return Err(format!(
                "DETERMINISM FAILURE: two runs of the same seeded fault plan diverged\n\
                 first:  {}\nsecond: {}",
                first.to_json(),
                second.to_json()
            )
            .into());
        }
        if first.faults.is_empty() {
            return Err("SMOKE MISCONFIGURED: hostile fault plan injected nothing".into());
        }

        let verify = verify_campaign(&cfg)?;
        if verify.stripes + verify.lost != first.stripes_repaired + first.stripes_lost {
            return Err(format!(
                "ACCOUNTING FAILURE: verify saw {} stripes (+{} lost) but the run \
                 repaired {} (+{} lost)",
                verify.stripes, verify.lost, first.stripes_repaired, first.stripes_lost
            )
            .into());
        }

        let n = |v: u64| Json::Num(v as f64);
        let summary = Json::obj([
            ("deterministic", Json::Bool(true)),
            ("verified_stripes", n(verify.stripes as u64)),
            ("verified_chunks", n(verify.chunks as u64)),
            ("verified_bytes", n(verify.bytes)),
            ("lost_stripes", n(verify.lost as u64)),
            ("metrics", first.to_json_value()),
        ]);
        // Every fault counter is in the summary's metrics.
        eprintln!(
            "ok: identical metrics across reruns; {} surviving stripes verified \
             byte-exact ({} chunks), {} correctly declared lost",
            verify.stripes, verify.chunks, verify.lost
        );
        let mut out = Artefact::default();
        writeln!(out, "{}", summary.render())?;
        out.points([SweepPoint {
            config: cfg,
            metrics: first,
        }]);
        Ok(out)
    })
}
