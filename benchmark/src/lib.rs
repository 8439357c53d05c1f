//! The repo's benchmark: six named workloads driven through the public
//! `fbf` API only, exact simulated counters beside host-time medians, and
//! a layer trace recorded from outside the program under test.
//!
//! `README.md` defines every workload and metric; `BENCHMARK.json` at the
//! repository root is the same contract in the driver's format.

pub mod env;
pub mod metrics;
pub mod orchestrate;
pub mod seed;
pub mod span;
pub mod stats;
pub mod workloads;
