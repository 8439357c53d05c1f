//! One experiment end to end.
//!
//! [`run_experiment`] is the standalone entry point: validate, plan cold,
//! simulate. Sweeps instead plan through a
//! [`PlanStore`](crate::plan::PlanStore) and call [`run_planned`] with the
//! shared campaign, so scheme generation happens once per distinct
//! [`PlanKey`](crate::plan::PlanKey) instead of once per point.

use crate::config::{ConfigError, ExperimentConfig};
use crate::faulted::{execute_capped, PassBytes, MAX_ROUNDS};
use crate::metrics::Metrics;
use crate::plan::{PlanKey, PlanSource, PlannedCampaign};
use fbf_codes::CodeError;
use fbf_disksim::{EngineScratch, NoBytes};
use fbf_recovery::SchemeError;

/// Failures a run can hit.
#[derive(Debug)]
pub enum RunError {
    /// The configuration is invalid (caught before any work).
    Config(ConfigError),
    /// The code could not be built (bad prime).
    Code(CodeError),
    /// Scheme generation failed (unschedulable damage).
    Scheme(SchemeError),
    /// A storage backend refused or failed an operation (I/O error,
    /// geometry/chunk-size mismatch, damaged read) — a run on a backend
    /// ([`crate::backend_run`]) only.
    Backend(fbf_disksim::BackendError),
    /// A sweep worker died; the payload is the panic message. Unlike the
    /// other variants this indicates a bug, but it is reported as an error
    /// so one poisoned point cannot abort a whole campaign's process.
    Worker(String),
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::Config(e) => write!(f, "invalid configuration: {e}"),
            RunError::Code(e) => write!(f, "code construction failed: {e}"),
            RunError::Scheme(e) => write!(f, "scheme generation failed: {e}"),
            RunError::Backend(e) => write!(f, "storage backend failed: {e}"),
            RunError::Worker(msg) => write!(f, "sweep worker panicked: {msg}"),
        }
    }
}

impl std::error::Error for RunError {}

impl From<ConfigError> for RunError {
    fn from(e: ConfigError) -> Self {
        RunError::Config(e)
    }
}

impl From<CodeError> for RunError {
    fn from(e: CodeError) -> Self {
        RunError::Code(e)
    }
}

impl From<SchemeError> for RunError {
    fn from(e: SchemeError) -> Self {
        RunError::Scheme(e)
    }
}

/// Run one reconstruction experiment and return its metrics.
///
/// Plans the campaign cold; to amortise planning across many related
/// experiments, use [`sweep`](crate::sweep::sweep) or a
/// [`PlanStore`](crate::plan::PlanStore) plus [`run_planned`] directly.
pub fn run_experiment(cfg: &ExperimentConfig) -> Result<Metrics, RunError> {
    cfg.validate()?;
    let plan = PlannedCampaign::cold(cfg)?;
    Ok(run_planned(cfg, &plan, PlanSource::Cold))
}

/// Simulate one experiment against an already-planned campaign.
///
/// The plan must have been generated for `cfg`'s [`PlanKey`] (debug-checked)
/// — the remaining fields (policy, cache geometry, disk model…) are free to
/// differ between experiments sharing one plan; that is the point.
pub fn run_planned(cfg: &ExperimentConfig, plan: &PlannedCampaign, source: PlanSource) -> Metrics {
    run_planned_with_scratch(cfg, plan, source, &mut EngineScratch::new())
}

/// [`run_planned`] against caller-owned [`EngineScratch`], so the engine's
/// event heap and per-worker vectors are reused across the many points a
/// sweep worker thread executes instead of re-allocated per point.
pub fn run_planned_with_scratch(
    cfg: &ExperimentConfig,
    plan: &PlannedCampaign,
    source: PlanSource,
    scratch: &mut EngineScratch,
) -> Metrics {
    run_planned_observed(cfg, plan, source, scratch, None)
}

/// [`run_planned_with_scratch`] that additionally publishes live
/// escalation counters into `progress` while the campaign runs —
/// the daemon threads each job's [`Progress`](crate::progress::Progress)
/// through here so `stat`/`top` can report rounds/replans/faults-so-far
/// mid-job.
pub fn run_planned_observed(
    cfg: &ExperimentConfig,
    plan: &PlannedCampaign,
    source: PlanSource,
    scratch: &mut EngineScratch,
    progress: Option<&crate::progress::Progress>,
) -> Metrics {
    let Ok(metrics) = simulate(cfg, plan, source, scratch, progress, &mut NoBytes);
    metrics
}

/// [`run_planned_observed`] with every pass's bytes moved through
/// `bytes` — the one simulated path, whether or not it moves payloads.
pub(crate) fn simulate<B: PassBytes>(
    cfg: &ExperimentConfig,
    plan: &PlannedCampaign,
    source: PlanSource,
    scratch: &mut EngineScratch,
    progress: Option<&crate::progress::Progress>,
    bytes: &mut B,
) -> Result<Metrics, B::Error> {
    debug_assert_eq!(plan.key, PlanKey::of(cfg), "plan/config key mismatch");

    let obs = cfg.obs && fbf_obs::enabled();
    let sim_span = if obs {
        Some(fbf_obs::span("runner", "simulate"))
    } else {
        None
    };
    let outcome = execute_capped(cfg, plan, scratch, progress, bytes, MAX_ROUNDS)?;
    let mut metrics = Metrics::from_faulted(&outcome, plan.generation, source);
    metrics.evaluate_slo(&cfg.slo);

    if let Some(span) = sim_span {
        span.end_with(&[
            ("policy", fbf_obs::Value::Str(cfg.policy.name())),
            ("cache_mb", fbf_obs::Value::U64(cfg.cache_mb as u64)),
            ("plan", fbf_obs::Value::Str(source.name())),
        ]);
    }
    Ok(metrics)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::PlanStore;
    use fbf_cache::PolicyKind;

    fn small(policy: PolicyKind, cache_mb: usize) -> ExperimentConfig {
        ExperimentConfig::builder()
            .policy(policy)
            .cache_mb(cache_mb)
            .stripes(256)
            .error_count(64)
            .workers(8)
            .gen_threads(1)
            .build()
            .unwrap()
    }

    #[test]
    fn runs_and_recovers_everything() {
        let m = run_experiment(&small(PolicyKind::Fbf, 16)).unwrap();
        assert_eq!(m.stripes_repaired, 64);
        assert_eq!(
            m.disk_writes as usize, m.chunks_recovered,
            "one spare write per lost chunk"
        );
        assert!(m.disk_reads > 0);
        assert!(m.reconstruction_s > 0.0);
        assert_eq!(m.plan_source, PlanSource::Cold);
    }

    #[test]
    fn deterministic_for_same_config() {
        let cfg = small(PolicyKind::Arc, 8);
        let a = run_experiment(&cfg).unwrap();
        let b = run_experiment(&cfg).unwrap();
        assert_eq!(a.hit_ratio, b.hit_ratio);
        assert_eq!(a.disk_reads, b.disk_reads);
        assert_eq!(a.reconstruction_s, b.reconstruction_s);
    }

    #[test]
    fn fbf_beats_lru_with_tight_cache() {
        // The paper's headline: when cache is limited, FBF hits more and
        // reads less than LRU under the same campaign.
        let fbf = run_experiment(&small(PolicyKind::Fbf, 2)).unwrap();
        let lru = run_experiment(&small(PolicyKind::Lru, 2)).unwrap();
        assert!(
            fbf.hit_ratio >= lru.hit_ratio,
            "FBF {:.4} vs LRU {:.4}",
            fbf.hit_ratio,
            lru.hit_ratio
        );
        assert!(fbf.disk_reads <= lru.disk_reads);
    }

    #[test]
    fn bigger_cache_never_reads_more() {
        let small_cache = run_experiment(&small(PolicyKind::Lru, 1)).unwrap();
        let big_cache = run_experiment(&small(PolicyKind::Lru, 64)).unwrap();
        assert!(big_cache.disk_reads <= small_cache.disk_reads);
        assert!(big_cache.hit_ratio >= small_cache.hit_ratio);
    }

    #[test]
    fn bad_prime_is_reported() {
        // Bypass the builder deliberately: struct-update still compiles
        // (back-compat), and the runner's own validation must catch it.
        let cfg = ExperimentConfig {
            p: 8,
            ..small(PolicyKind::Lru, 4)
        };
        assert!(matches!(
            run_experiment(&cfg),
            Err(RunError::Config(ConfigError::NonPrimeP(8)))
        ));
    }

    #[test]
    fn zero_workers_reported_not_panicking() {
        let cfg = ExperimentConfig {
            workers: 0,
            ..small(PolicyKind::Lru, 4)
        };
        assert!(matches!(
            run_experiment(&cfg),
            Err(RunError::Config(ConfigError::Zero("workers")))
        ));
    }

    #[test]
    fn runner_evaluates_slo_from_config() {
        use crate::config::SloSpec;
        use fbf_disksim::RequestClass;
        // Recovery reads wait behind 10 ms disk accesses — a 1 ms
        // zero-allowance objective cannot hold; a lenient one must.
        let mut cfg = small(PolicyKind::Fbf, 16);
        cfg.slo = SloSpec::none().class(RequestClass::Recovery, 1.0, 0.0);
        let strict = run_experiment(&cfg).unwrap();
        assert!(strict.slo.evaluated);
        assert!(!strict.slo.pass);
        cfg.slo = SloSpec::none().class(RequestClass::Recovery, 1e6, 0.0);
        let lenient = run_experiment(&cfg).unwrap();
        assert!(lenient.slo.evaluated && lenient.slo.pass);
        // The verdict covers every recovery read.
        let v = lenient.slo.classes[RequestClass::Recovery.index()];
        assert_eq!(
            v.total,
            lenient.class_latency[RequestClass::Recovery.index()].count
        );
    }

    #[test]
    fn warm_plan_reproduces_cold_metrics() {
        let cfg = small(PolicyKind::Fbf, 8);
        let cold = run_experiment(&cfg).unwrap();
        let store = PlanStore::new();
        store.plan(&cfg).unwrap();
        let (plan, source) = store.plan(&cfg).unwrap();
        assert_eq!(source, PlanSource::Warm);
        let warm = run_planned(&cfg, &plan, source);
        assert_eq!(warm.hit_ratio, cold.hit_ratio);
        assert_eq!(warm.disk_reads, cold.disk_reads);
        assert_eq!(warm.reconstruction_s, cold.reconstruction_s);
        assert_eq!(warm.plan_source, PlanSource::Warm);
    }
}
