//! Fig. 11 — partial stripe reconstruction time, TIP-code.
//!
//! Shapes to look for (paper §IV-B-4): reconstruction time decreases with
//! cache size, FBF finishes first in most cells; improvements are smaller
//! than for response time because XOR computation and spare writes cost
//! the same for every policy (up to ~15% over LRU in the paper).

use fbf_bench::{CACHE_MB, TIP_PRIMES};
use fbf_codes::CodeSpec;
use fbf_core::report::f;

fn main() {
    fbf_bench::main(|scale| {
        fbf_bench::figure(
            scale,
            "Fig.11 reconstruction time (s)",
            "fig11",
            &[CodeSpec::Tip],
            &TIP_PRIMES,
            &CACHE_MB,
            |m| f(m.reconstruction_s, 3),
        )
    })
}
