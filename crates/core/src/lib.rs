//! # fbf-core — experiment runner for the FBF reproduction
//!
//! Wires the whole stack together — codes, workload, recovery, cache,
//! simulator — behind one [`ExperimentConfig`] → [`Metrics`] call, plus
//! sweep drivers and report formatting used by the figure/table binaries
//! in `fbf-bench`.
//!
//! A single experiment is one reconstruction campaign:
//!
//! 1. build the erasure code ([`fbf_codes::StripeCode`]);
//! 2. draw a seeded campaign of partial stripe errors
//!    ([`fbf_workload::generate_errors`]);
//! 3. generate recovery schemes and the priority dictionary
//!    ([`fbf_recovery`]), timing this step — it is the *temporal overhead*
//!    the paper's Table IV reports;
//! 4. lower to worker scripts and run the simulator
//!    ([`fbf_disksim::Engine`]);
//! 5. collect [`Metrics`]: hit ratio, disk reads, average response time,
//!    reconstruction (virtual) time, overhead.
//!
//! ```no_run
//! use fbf_core::{ExperimentConfig, run_experiment};
//! use fbf_codes::CodeSpec;
//! use fbf_cache::PolicyKind;
//!
//! let cfg = ExperimentConfig::builder()
//!     .code(CodeSpec::Tip)
//!     .p(7)
//!     .policy(PolicyKind::Fbf)
//!     .cache_mb(64)
//!     .build()
//!     .unwrap();
//! let metrics = run_experiment(&cfg).unwrap();
//! println!("hit ratio {:.3}", metrics.hit_ratio);
//! ```

pub mod backend_run;
pub mod config;
pub mod daemon;
pub mod faulted;
pub mod job;
pub mod metrics;
pub mod plan;
pub mod progress;
pub mod prom;
pub mod rebuild;
pub mod reliability;
pub mod report;
pub mod runner;
pub mod sweep;
pub mod verify;

pub use backend_run::{file_backend_for, run_planned_on, sim_backend_for};
pub use config::{
    code_from_name, scheme_from_name, ConfigError, ExperimentConfig, ExperimentConfigBuilder,
};
pub use daemon::{serve, DaemonClient, DaemonError, DaemonHandle, DaemonOptions, ServerAddr};
pub use faulted::{FaultedOutcome, MAX_ROUNDS};
pub use fbf_obs::json::{self, Json, JsonError};
pub use job::{BackendKind, Outcome, RequestError, Work};
pub use metrics::{ClassLatency, Metrics, METRICS_SCHEMA_VERSION};
pub use plan::{PlanKey, PlanSource, PlanStore, PlanStoreStats, PlannedCampaign};
pub use progress::{Progress, ProgressSnapshot};
pub use prom::{prometheus_snapshot, Live};
pub use rebuild::{execute_rebuild, run_rebuild, RebuildOutcome, RebuildSpec};
pub use reliability::{mttdl_years, ReliabilityParams};
pub use report::Table;
pub use runner::{run_experiment, run_planned, run_planned_observed, RunError};
pub use sweep::{
    policy_grid, sweep, sweep_with_progress, Grid, SweepPoint, SweepProgress, CACHE_MB,
};
pub use verify::{verify_backend, verify_campaign, VerifyReport};
