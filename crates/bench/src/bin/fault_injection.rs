//! Seeded fault-injection smoke: determinism + byte-exact verification.
//!
//! Runs one campaign under a hostile fault plan — hard media errors, a
//! transiently-stalling array, a straggler disk, and a mid-campaign
//! whole-disk kill — **twice**, and fails (non-zero exit) unless the two
//! runs produce identical `Metrics` (including every fault counter, the
//! replan/round counts, and the data-loss list). Then replays the same
//! campaign through `verify_campaign`, proving every surviving
//! repaired stripe decodes bit-for-bit and every lost stripe genuinely
//! exceeds the code's fault tolerance.
//!
//! CI runs this on every push (`FBF_BENCH_QUICK=1` shrinks the scale;
//! the assertions are identical). Scale knobs: `FBF_STRIPES`,
//! `FBF_ERRORS`, `FBF_WORKERS`.

use fbf_bench::env_usize;
use fbf_cache::PolicyKind;
use fbf_codes::CodeSpec;
use fbf_core::{run_experiment, verify_campaign, ExperimentConfig, Json, Metrics};
use fbf_disksim::{DiskKill, FaultPlan, RetryPolicy, SimTime, SlowDisk};

fn campaign() -> ExperimentConfig {
    let quick = std::env::var("FBF_BENCH_QUICK").is_ok();
    let mut cfg = ExperimentConfig::builder()
        .code(CodeSpec::Tip)
        .p(7)
        .policy(PolicyKind::Fbf)
        .cache_mb(16)
        .stripes(env_usize("FBF_STRIPES", if quick { 128 } else { 512 }) as u32)
        .error_count(env_usize("FBF_ERRORS", if quick { 48 } else { 128 }))
        .workers(env_usize("FBF_WORKERS", 16))
        .gen_threads(1)
        .build()
        .expect("smoke config is valid");
    cfg.faults = FaultPlan {
        seed: 0xfb_f5,
        media_per_mille: 15,
        transient_per_mille: 40,
        straggler: Some(SlowDisk {
            disk: 2,
            scale_milli: 1500,
        }),
        disk_kill: Some(DiskKill {
            disk: 3,
            at: SimTime::from_millis(40),
        }),
        retry: RetryPolicy::default(),
        ..FaultPlan::none()
    };
    cfg
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
    let cfg = campaign();
    eprintln!(
        "fault-injection smoke: {} stripes, {} errors, media=15‰ transient=40‰ \
         straggler(disk 2 @1.5x) kill(disk 3 @40ms), seed {:#x}",
        cfg.stripes, cfg.error_count, cfg.faults.seed
    );

    let first: Metrics = simulated(run_experiment(&cfg).expect("faulted run completes"));
    let second: Metrics = simulated(run_experiment(&cfg).expect("faulted rerun completes"));
    if first != second {
        eprintln!("DETERMINISM FAILURE: two runs of the same seeded fault plan diverged");
        eprintln!("first:  {}", first.to_json());
        eprintln!("second: {}", second.to_json());
        std::process::exit(1);
    }
    if first.faults.is_empty() {
        eprintln!("SMOKE MISCONFIGURED: hostile fault plan injected nothing");
        std::process::exit(1);
    }

    let verify = verify_campaign(&cfg).expect("faulted verification completes");
    if verify.stripes + verify.lost != first.stripes_repaired + first.stripes_lost {
        eprintln!(
            "ACCOUNTING FAILURE: verify saw {} stripes (+{} lost) but the run \
             repaired {} (+{} lost)",
            verify.stripes, verify.lost, first.stripes_repaired, first.stripes_lost
        );
        std::process::exit(1);
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
    println!("{}", summary.render());
    eprintln!(
        "ok: identical metrics across reruns; {} surviving stripes verified \
         byte-exact ({} chunks), {} correctly declared lost; \
         {} media / {} transient ({} retries, {} exhausted) / {} dead-disk, \
         {} replans over {} rounds",
        verify.stripes,
        verify.chunks,
        verify.lost,
        first.faults.media_errors,
        first.faults.transient_faults,
        first.faults.retries,
        first.faults.retries_exhausted,
        first.faults.dead_disk_reads,
        first.replans,
        first.replan_rounds,
    );
}
