//! # fbf — Favorable Block First (ICPP 2017) reproduction, facade crate
//!
//! The crate root is the stable public surface: experiment configuration,
//! the pluggable storage backend, the repair daemon, metrics, and the
//! sweep/report helpers the examples and binaries are written against.
//!
//! ```no_run
//! use fbf::{run_experiment, ExperimentConfig, PolicyKind};
//!
//! let cfg = ExperimentConfig::builder()
//!     .policy(PolicyKind::Fbf)
//!     .cache_mb(64)
//!     .build()
//!     .unwrap();
//! let metrics = run_experiment(&cfg).unwrap();
//! println!("hit ratio {:.3}", metrics.hit_ratio);
//! ```
//!
//! Real I/O goes through the [`StorageBackend`] trait — [`SimBackend`]
//! mirrors the discrete-event simulator chunk for chunk, [`FileBackend`]
//! does the same against real files — and `fbfd` (see [`serve`]) exposes
//! repair as a service over a unix or TCP socket.
//!
//! The workspace layers underneath (codes, cache policies, disk
//! simulator, recovery planner, workload generators, observability) stay
//! reachable through the module aliases below for anything not
//! re-exported here, but those paths are implementation surface: they
//! move between releases, the root does not.

// Deep module aliases. Hidden from docs: reach through them when a layer
// internal is genuinely needed, but prefer the root re-exports — deep
// paths are not covered by the facade's stability intent.
#[doc(hidden)]
pub use fbf_cache as cache;
#[doc(hidden)]
pub use fbf_codes as codes;
#[doc(hidden)]
pub use fbf_core as core;
#[doc(hidden)]
pub use fbf_disksim as disksim;
#[doc(hidden)]
pub use fbf_obs as obs;
#[doc(hidden)]
pub use fbf_recovery as recovery;
#[doc(hidden)]
pub use fbf_workload as workload;

// Cache policies under test.
pub use fbf_cache::PolicyKind;

// Erasure-code vocabulary every experiment references.
pub use fbf_codes::{Cell, ChunkId, CodeSpec, Stripe, StripeCode};

// Experiment configuration, execution, metrics, daemon, reporting.
pub use fbf_core::report;
pub use fbf_core::{
    code_from_name, file_backend_for, mttdl_years, prometheus_snapshot, run_experiment,
    run_planned, run_planned_on, run_rebuild, scheme_from_name, serve, sim_backend_for, sweep,
    verify_backend, verify_campaign, BackendKind, ClassLatency, ConfigError, DaemonClient,
    DaemonError, DaemonHandle, DaemonOptions, ExperimentConfig, ExperimentConfigBuilder, Json,
    JsonError, Live, Metrics, Outcome, PlanSource, PlanStore, Progress, ProgressSnapshot,
    RebuildOutcome, RebuildSpec, ReliabilityParams, RequestError, RunError, ServerAddr, SweepPoint,
    Table, VerifyReport, Work, METRICS_SCHEMA_VERSION,
};

// Storage backends and the simulator types that surface in reports.
pub use fbf_disksim::{
    ArrayMapping, BackendDiskStats, BackendError, CacheSharing, FaultPlan, FileBackend, Placement,
    RequestClass, RunReport, SimBackend, SimTime, StorageBackend,
};

// Recovery-scheme generator selection and rebuild fairness policies.
pub use fbf_recovery::{Fairness, SchemeKind};

// Campaign generation, trace (de)serialisation, daemon load generation.
pub use fbf_workload::{
    client_trace_ids, generate_errors, parse_trace, render_trace, shard_campaign, validate_against,
    ErrorGenConfig, LoadReport,
};
