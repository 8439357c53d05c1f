//! # fbf-cache — buffer-cache replacement policies
//!
//! The replacement policies the FBF paper compares (§IV-A): **FIFO**,
//! **LRU**, **LFU**, **ARC**, and the paper's contribution, the
//! priority-queue **FBF** policy (§III, Algorithm 1). All policies
//! implement one trait, [`ReplacementPolicy`], so the simulator's buffer
//! cache (`fbf-disksim`'s frame store) is policy-agnostic.
//!
//! Policies deal in chunk *identities* ([`Key`]); payloads live in the
//! simulator's frame store. Capacity is measured in chunks, matching the
//! paper's fixed 32 KB chunk size (cache size in MB / 32 KB = capacity).
//!
//! ```
//! use fbf_cache::{PolicyKind, ReplacementPolicy, key};
//!
//! let mut lru = PolicyKind::Lru.build(2);
//! assert!(!lru.on_access(key(0, 0, 0)));          // cold miss
//! lru.on_insert(key(0, 0, 0), 1);
//! lru.on_insert(key(0, 0, 1), 1);
//! assert!(lru.on_access(key(0, 0, 0)));           // hit, refreshes recency
//! let outcome = lru.on_insert(key(0, 1, 0), 1);   // full → evicts LRU
//! assert_eq!(outcome.evicted(), Some(key(0, 0, 1)));
//! ```

pub mod arc;
pub mod fbf;
pub mod fbr;
pub mod fifo;
pub mod key_map;
pub mod lfu;
pub mod lrfu;
pub mod lru;
pub mod lru_k;
pub mod policy;
pub mod queue;
pub mod stats;
pub mod two_q;
pub mod vdf;

pub use arc::ArcPolicy;
pub use fbf::{DemotePosition, FbfConfig, FbfPolicy};
pub use fbf_codes::hash::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use fbr::FbrPolicy;
pub use fifo::FifoPolicy;
pub use lfu::LfuPolicy;
pub use lrfu::LrfuPolicy;
pub use lru::LruPolicy;
pub use lru_k::LruKPolicy;
pub use policy::{InsertOutcome, Key, PolicyKind, ReplacementPolicy};
pub use stats::CacheStats;
pub use two_q::TwoQPolicy;
pub use vdf::VdfPolicy;

/// Convenience constructor for a [`Key`] from raw stripe/row/col numbers.
/// Mostly for tests and examples.
pub fn key(stripe: u32, row: usize, col: usize) -> Key {
    fbf_codes::ChunkId::new(stripe, fbf_codes::Cell::new(row, col))
}
