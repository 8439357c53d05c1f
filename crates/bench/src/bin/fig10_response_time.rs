//! Fig. 10 — average response time of the disk array during recovery.
//!
//! Shapes to look for (paper §IV-B-3): response time falls with cache
//! size; FBF is fastest under every code, with the advantage fading once
//! the cache is very large (beyond ~2048 MB in the paper).

use fbf_bench::{base_config, save_csv, CACHE_MB, FIG8_PRIMES};
use fbf_codes::CodeSpec;
use fbf_core::{policy_grid, report::f};

fn main() {
    for code in CodeSpec::ALL {
        for p in FIG8_PRIMES {
            if p < code.min_prime() {
                continue;
            }
            let (table, _) = policy_grid(
                format!("Fig.10 avg response time (ms) — {}(p={p})", code.name()),
                &CACHE_MB,
                |policy, mb| base_config(code, p, policy, mb),
                |m| f(m.avg_response_ms, 3),
            )
            .expect("sweep failed");
            println!("{}", table.render());
            save_csv(
                &format!("fig10_{}_p{p}", code.name().to_lowercase()),
                &table,
            );
        }
    }
}
