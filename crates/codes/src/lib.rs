//! # fbf-codes — erasure-code substrate for the FBF reproduction
//!
//! This crate implements the XOR-based triple-disk-fault-tolerant (3DFT)
//! erasure codes that the FBF paper evaluates on: **TIP-code**, **HDD1**,
//! **Triple-STAR** and **STAR**, together with everything the cache scheme
//! needs to reason about them:
//!
//! * stripe [`layout`]s (which cell of the `rows × cols` grid is data and
//!   which is parity),
//! * [`chain`]s — the horizontal / diagonal / anti-diagonal parity equations
//!   that tie cells together, and per-cell chain-membership queries,
//! * [`repair`] sets — exactly which surviving chunks must be fetched to
//!   rebuild a lost chunk through a given chain,
//! * an [`encode`]r and a peeling + GF(2)-elimination [`decode`]r so that
//!   reconstruction results can be checked bit-for-bit,
//! * the [`xor`] kernels shared by all of the above,
//! * the payload generator ([`fill`]) behind test and pristine stripes, and
//! * the one CPU probe ([`simd`]) that picks which compiled clone of each
//!   runs.
//!
//! Every code is represented uniformly as a [`StripeCode`]: a layout plus a
//! list of XOR equations ([`chain::ParityChain`]). STAR's EVENODD-style
//! adjusters are folded into its diagonal/anti-diagonal equations (the
//! adjuster line's cells are simply members of every diagonal chain), so the
//! generic encoder/decoder and the FBF priority logic treat all four codes
//! identically.
//!
//! ```
//! use fbf_codes::{CodeSpec, StripeCode};
//!
//! let code = StripeCode::build(CodeSpec::Tip, 5).unwrap();
//! assert_eq!(code.cols(), 6);            // TIP uses p + 1 disks
//! assert_eq!(code.rows(), 4);            // p - 1 rows per stripe
//! // every data cell can be repaired through at least one parity chain
//! for cell in code.data_cells() {
//!     assert!(!code.chains_of(cell).is_empty());
//! }
//! ```

pub mod analysis;
pub mod chain;
pub mod codes;
pub mod decode;
pub mod encode;
pub mod fill;
pub mod hash;
pub mod layout;
pub mod prime;
pub mod repair;
pub mod simd;
pub mod stripe;
pub mod xor;

pub use analysis::{analyze, CodeMetrics};
pub use chain::{ChainId, Direction, ParityChain};
pub use codes::{CodeSpec, StripeCode};
pub use layout::{Cell, CellKind, ChunkId, Layout};
pub use stripe::{ChunkBuf, Stripe};

/// Error type for code construction and coding operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodeError {
    /// `p` must be a prime number (and large enough for the code family).
    NotPrime(usize),
    /// `p` is prime but too small for the requested code family.
    PrimeTooSmall { p: usize, min: usize },
    /// The erasure pattern is beyond the decoding capability of the code.
    Unrecoverable { unresolved: usize },
    /// A cell address is outside the stripe layout.
    OutOfBounds(Cell),
}

impl std::fmt::Display for CodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodeError::NotPrime(p) => write!(f, "{p} is not prime"),
            CodeError::PrimeTooSmall { p, min } => {
                write!(f, "prime {p} too small for this code (need >= {min})")
            }
            CodeError::Unrecoverable { unresolved } => {
                write!(
                    f,
                    "erasure pattern unrecoverable: {unresolved} cells unresolved"
                )
            }
            CodeError::OutOfBounds(c) => write!(f, "cell {c:?} outside stripe layout"),
        }
    }
}

impl std::error::Error for CodeError {}

/// Convenient result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, CodeError>;
