//! Fig. 8 — cache hit ratio during partial stripe reconstruction.
//!
//! One sub-table per (code, P): rows are cache sizes, columns the five
//! policies. The paper's observations to look for in the output:
//! FBF dominates at limited cache sizes, plateaus earliest, and all curves
//! converge once the cache exceeds the per-stripe working set; STAR shows
//! the highest ratios because its adjuster chunks are referenced many times.

//! `FBF_FIG8_SMOKE=1` shrinks the grid to one (TIP, p=7) sub-table over
//! two cache sizes — the CI smoke configuration that pairs with
//! `--trace` to exercise the whole observability path in seconds.

use fbf_bench::{
    base_config, finish_obs, init_obs, save_csv, save_metrics_snapshot, CACHE_MB, FIG8_PRIMES,
};
use fbf_codes::CodeSpec;
use fbf_core::{policy_grid, report::f};

fn main() {
    init_obs();
    let mut all_points = Vec::new();
    let smoke = std::env::var("FBF_FIG8_SMOKE").is_ok_and(|v| v == "1");
    let codes: &[CodeSpec] = if smoke {
        &[CodeSpec::Tip]
    } else {
        &CodeSpec::ALL
    };
    let primes: &[usize] = if smoke { &[7] } else { &FIG8_PRIMES };
    let sizes: &[usize] = if smoke { &[2, 64] } else { &CACHE_MB };

    for &code in codes {
        for &p in primes {
            if p < code.min_prime() {
                continue;
            }
            let (table, points) = policy_grid(
                format!("Fig.8 hit ratio — {}(p={p})", code.name()),
                sizes,
                |policy, mb| base_config(code, p, policy, mb),
                |m| f(m.hit_ratio, 4),
            )
            .expect("sweep failed");
            println!("{}", table.render());
            save_csv(&format!("fig8_{}_p{p}", code.name().to_lowercase()), &table);
            all_points.extend(points);
        }
    }
    save_metrics_snapshot(&all_points);
    finish_obs();
}
