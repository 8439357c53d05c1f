//! Plan-store equivalence: sharing a planned campaign across sweep points
//! must change *how often* scheme generation runs, never *what* any point
//! measures. These tests pin the acceptance criteria of the shared-plan
//! sweep engine at the facade level.

use fbf::core::sweep_with_progress;
use fbf::CodeSpec;
use fbf::PolicyKind;
use fbf::{run_experiment, sweep, ExperimentConfig, Metrics, PlanSource, PlanStore};

fn grid_point(code: CodeSpec, p: usize, policy: PolicyKind, cache_mb: usize) -> ExperimentConfig {
    ExperimentConfig::builder()
        .code(code)
        .p(p)
        .policy(policy)
        .cache_mb(cache_mb)
        .stripes(128)
        .error_count(32)
        .workers(8)
        .gen_threads(1)
        .build()
        .expect("grid point is valid")
}

/// The simulated (deterministic) half of the metrics. Wall-clock fields
/// (`overhead_*`) are excluded: a warm point inherits the *store's* cold
/// generation time, which is a different measurement from a standalone run.
fn simulated(m: &Metrics) -> (u64, u64, f64, f64, f64, usize, usize) {
    (
        m.disk_reads,
        m.disk_writes,
        m.hit_ratio,
        m.avg_response_ms,
        m.reconstruction_s,
        m.chunks_recovered,
        m.stripes_repaired,
    )
}

/// Every policy gets bit-identical metrics whether it plans cold on its own
/// or reuses a shared campaign from the store.
#[test]
fn shared_plans_are_bit_identical_to_cold_for_every_policy() {
    let configs: Vec<ExperimentConfig> = PolicyKind::EXTENDED
        .iter()
        .map(|&policy| grid_point(CodeSpec::Tip, 7, policy, 8))
        .collect();

    let store = PlanStore::new();
    let shared = sweep_with_progress(&configs, 4, &store, |_| {}).unwrap();
    assert_eq!(store.stats().misses, 1, "ten policies share one campaign");

    for (point, cfg) in shared.iter().zip(&configs) {
        let cold = run_experiment(cfg).unwrap();
        assert_eq!(cold.plan_source, PlanSource::Cold);
        assert_eq!(
            simulated(&point.metrics),
            simulated(&cold),
            "{}: shared plan must not change the simulation",
            cfg.policy.name()
        );
    }
}

/// A Fig. 8-shaped grid (codes × primes × policies × cache sizes) plans
/// exactly once per distinct campaign shape — the tentpole's headline
/// saving — and exactly one point per shape carries cold provenance.
#[test]
fn fig8_grid_plans_once_per_campaign_shape() {
    let codes = [CodeSpec::Tip, CodeSpec::Star];
    let primes = [5usize, 7];
    let cache_sizes = [2usize, 8, 32];
    let mut configs = Vec::new();
    for code in codes {
        for p in primes {
            for policy in PolicyKind::ALL {
                for mb in cache_sizes {
                    configs.push(grid_point(code, p, policy, mb));
                }
            }
        }
    }
    let distinct_shapes = codes.len() * primes.len();

    let store = PlanStore::new();
    let points = sweep_with_progress(&configs, 4, &store, |_| {}).unwrap();
    assert_eq!(points.len(), configs.len());

    let stats = store.stats();
    assert_eq!(stats.misses as usize, distinct_shapes);
    assert_eq!(stats.hits as usize, configs.len() - distinct_shapes);
    assert_eq!(store.len(), distinct_shapes);

    let cold = points
        .iter()
        .filter(|pt| pt.metrics.plan_source == PlanSource::Cold)
        .count();
    assert_eq!(cold, distinct_shapes, "one cold measurement per campaign");
}

/// Work-stealing execution returns the same points in the same order as a
/// serial sweep — parallelism is an implementation detail.
#[test]
fn work_stealing_matches_serial_sweep() {
    let configs: Vec<ExperimentConfig> = PolicyKind::ALL
        .iter()
        .flat_map(|&policy| [2usize, 8].map(|mb| grid_point(CodeSpec::TripleStar, 7, policy, mb)))
        .collect();
    let serial = sweep(&configs, 1).unwrap();
    let parallel = sweep(&configs, 4).unwrap();
    assert_eq!(serial.len(), parallel.len());
    for (a, b) in serial.iter().zip(&parallel) {
        assert_eq!(a.config.policy, b.config.policy);
        assert_eq!(a.config.cache_mb, b.config.cache_mb);
        assert_eq!(simulated(&a.metrics), simulated(&b.metrics));
    }
}

/// A failing grid point (p = 8 is not prime) surfaces as `Err` from the
/// sweep without aborting the process or poisoning sibling points.
#[test]
fn failing_point_surfaces_as_error_not_abort() {
    let good = grid_point(CodeSpec::Tip, 7, PolicyKind::Fbf, 8);
    let mut bad = good;
    bad.p = 8; // bypasses the builder deliberately: sweep must re-validate
    let err = sweep(&[good, bad, good], 2).unwrap_err();
    assert!(matches!(err, fbf::RunError::Config(_)), "got: {err}");
    // The good points still sweep cleanly afterwards.
    assert_eq!(sweep(&[good, good], 2).unwrap().len(), 2);
}
