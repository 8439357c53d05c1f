//! # fbf-workload — synthetic traces for the FBF evaluation
//!
//! The paper evaluates with "synthetic traces of situations where disks
//! with random size of partial stripes fail" (§IV-A). The authors' traces
//! were never released, so this crate regenerates the same *distribution
//! family* they describe, seeded for reproducibility:
//!
//! * [`errors`] — partial-stripe error campaigns: run lengths uniform on
//!   `[1, p-1]` chunks (mean `(p-1)/2`), contiguous within a stripe, with
//!   optional spatial clustering of affected stripes (latent sector errors
//!   are strongly spatially local — the paper cites \[7\], \[8\]).
//! * [`app_io`] — a background application read stream, for experiments
//!   where recovery competes with foreground traffic.
//! * [`trace`] — a plain-text serialisation of error campaigns so runs can
//!   be archived and replayed without extra dependencies.
//! * [`loadgen`] — campaign sharding and per-class latency aggregation for
//!   driving the repair daemon from concurrent client connections.

pub mod app_io;
pub mod errors;
pub mod loadgen;
mod rng;
pub mod trace;

pub use app_io::{generate_app_reads, AppIoConfig};
pub use errors::{generate_errors, ErrorGenConfig};
pub use loadgen::{client_trace_ids, shard_campaign, LoadReport};
pub use trace::{parse_trace, render_trace, validate_against};
