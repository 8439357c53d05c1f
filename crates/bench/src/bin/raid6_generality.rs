//! Generality check: FBF on RAID-6 codes (RDP, EVENODD).
//!
//! §IV-C claims FBF applies to "a wide range of storage arrays" since it
//! consumes only chain structure. With two chain directions instead of
//! three, the maximum share count per chunk drops, so the gap between FBF
//! and LRU narrows — but the ranking should hold. This bench runs the
//! Fig. 8-style hit-ratio sweep on both RAID-6 codes.

use fbf_bench::{base_config, save_csv, CACHE_MB};
use fbf_codes::CodeSpec;
use fbf_core::{policy_grid, report::f};

fn main() {
    for code in [CodeSpec::Rdp, CodeSpec::Evenodd] {
        for p in [7usize, 13] {
            let (table, _) = policy_grid(
                format!("RAID-6 hit ratio — {}(p={p})", code.name()),
                &CACHE_MB,
                |policy, mb| base_config(code, p, policy, mb),
                |m| f(m.hit_ratio, 4),
            )
            .expect("sweep failed");
            println!("{}", table.render());
            save_csv(
                &format!("raid6_{}_p{p}", code.name().to_lowercase()),
                &table,
            );
        }
    }
}
