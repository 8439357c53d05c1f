//! Fig. 8 — cache hit ratio during partial stripe reconstruction.
//!
//! One sub-table per (code, P): rows are cache sizes, columns the five
//! policies. The paper's observations to look for in the output:
//! FBF dominates at limited cache sizes, plateaus earliest, and all curves
//! converge once the cache exceeds the per-stripe working set; STAR shows
//! the highest ratios because its adjuster chunks are referenced many times.

//! `FBF_BENCH_QUICK=1` shrinks the grid to one (TIP, p=7) sub-table over
//! two cache sizes — the CI smoke configuration that pairs with
//! `--trace` to exercise the whole observability path in seconds.

use fbf_bench::{CACHE_MB, FIG8_PRIMES};
use fbf_codes::CodeSpec;
use fbf_core::report::f;

fn main() {
    fbf_bench::main(|scale| {
        fbf_bench::figure(
            scale,
            "Fig.8 hit ratio",
            "fig8",
            scale.pick(&CodeSpec::ALL, &[CodeSpec::Tip]),
            scale.pick(&FIG8_PRIMES, &[7]),
            scale.pick(&CACHE_MB, &[2, 64]),
            |m| f(m.hit_ratio, 4),
        )
    })
}
