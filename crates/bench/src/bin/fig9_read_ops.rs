//! Fig. 9 — number of disk read operations during recovery, TIP-code.
//!
//! Shapes to look for (paper §IV-B-2): reads fall as cache grows and
//! stabilise (stable point postponed as P grows); FBF reads least, with the
//! biggest margin at restricted cache sizes (up to ~22% fewer than LFU in
//! the paper).

use fbf_bench::{base_config, finish_obs, init_obs, save_csv, CACHE_MB, TIP_PRIMES};
use fbf_codes::CodeSpec;
use fbf_core::policy_grid;

fn main() {
    init_obs();
    for p in TIP_PRIMES {
        let (table, _) = policy_grid(
            format!("Fig.9 disk reads — TIP(p={p})"),
            &CACHE_MB,
            |policy, mb| base_config(CodeSpec::Tip, p, policy, mb),
            |m| m.disk_reads.to_string(),
        )
        .expect("sweep failed");
        println!("{}", table.render());
        save_csv(&format!("fig9_tip_p{p}"), &table);
    }
    finish_obs();
}
