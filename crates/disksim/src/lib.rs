//! # fbf-disksim — event-driven disk-array simulator
//!
//! Stand-in for DiskSim 4.0 (the FBF paper's simulator; it is C-only with no
//! Rust bindings, so per the reproduction plan we rebuild the surface the
//! paper actually uses — see DESIGN.md §2). The simulator provides:
//!
//! * virtual [`time`] in nanosecond ticks,
//! * a per-disk service model ([`disk`]) — either the paper's fixed-latency
//!   configuration (0.5 ms buffer-cache access, 10 ms disk access) or a
//!   seek + rotation + transfer model with FCFS queueing,
//! * chunk→disk/LBA mapping for a striped array ([`array`]), including
//!   HDD1-style rotated parity placement,
//! * a buffer cache ([`buffer`]) that wraps any [`fbf_cache`] replacement
//!   policy and tracks hits/misses,
//! * the discrete-event [`engine`]: a set of logical *workers* (SOR
//!   reconstruction processes) each executing a script of chunk reads,
//!   XOR computations and spare writes; the engine interleaves them in
//!   virtual-time order, modelling disk contention between workers.
//!
//! The engine is deterministic: identical inputs produce identical virtual
//! timings, which the integration tests rely on.

pub mod array;
pub mod backend;
pub mod buffer;
pub mod declust;
pub mod disk;
pub mod engine;
pub mod equeue;
pub mod fault;
pub mod sched;
pub mod time;

pub use array::ArrayMapping;
pub use backend::{BackendDiskStats, BackendError, FileBackend, SimBackend, StorageBackend};
pub use buffer::{BufferCache, Lookup, PayloadCache};
pub use declust::Placement;
pub use disk::{DiskModel, DiskParams, DiskStats};
pub use engine::{
    build_caches, ByteHook, CacheSharing, Engine, EngineConfig, EngineScratch, NoBytes, Op,
    ResponseStats, RunReport, WorkerScript,
};
pub use equeue::{CalendarQueue, Event, EventQueue};
pub use fault::{
    resolve_read, splitmix64, DiskKill, FailedRead, FaultCounters, FaultDraw, FaultPlan,
    ReadFailure, ReadOutcome, RetryPolicy, SlowDisk,
};
pub use fbf_obs::{Digest, RequestClass};
pub use sched::{DiskSched, QueuedDisk};
pub use time::SimTime;
