//! Fig. 10 — average response time of the disk array during recovery.
//!
//! Shapes to look for (paper §IV-B-3): response time falls with cache
//! size; FBF is fastest under every code, with the advantage fading once
//! the cache is very large (beyond ~2048 MB in the paper).

use fbf_bench::{CACHE_MB, FIG8_PRIMES};
use fbf_codes::CodeSpec;
use fbf_core::report::f;

fn main() {
    fbf_bench::main(|scale| {
        fbf_bench::figure(
            scale,
            "Fig.10 avg response time (ms)",
            "fig10",
            &CodeSpec::ALL,
            &FIG8_PRIMES,
            &CACHE_MB,
            |m| f(m.avg_response_ms, 3),
        )
    })
}
