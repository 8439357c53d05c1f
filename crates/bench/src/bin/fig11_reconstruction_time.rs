//! Fig. 11 — partial stripe reconstruction time, TIP-code.
//!
//! Shapes to look for (paper §IV-B-4): reconstruction time decreases with
//! cache size, FBF finishes first in most cells; improvements are smaller
//! than for response time because XOR computation and spare writes cost
//! the same for every policy (up to ~15% over LRU in the paper).

use fbf_bench::{base_config, save_csv, CACHE_MB, TIP_PRIMES};
use fbf_codes::CodeSpec;
use fbf_core::{policy_grid, report::f};

fn main() {
    for p in TIP_PRIMES {
        let (table, _) = policy_grid(
            format!("Fig.11 reconstruction time (s) — TIP(p={p})"),
            &CACHE_MB,
            |policy, mb| base_config(CodeSpec::Tip, p, policy, mb),
            |m| f(m.reconstruction_s, 3),
        )
        .expect("sweep failed");
        println!("{}", table.render());
        save_csv(&format!("fig11_tip_p{p}"), &table);
    }
}
