//! Extended policy comparison: the paper's five figures policies plus the
//! other §II-B citations — LRU-K, 2Q, LRFU, FBR and VDF (the closest
//! prior art).
//!
//! Expected outcome: the recency/frequency refinements (LRU-K, 2Q, LRFU,
//! FBR) land between LRU and ARC — none of them understands parity-chain
//! sharing; VDF protects victim-disk chunks (which FBF also implicitly
//! favours) but not the shared *surviving* chunks, so FBF still leads.

use fbf_bench::{Artefact, CACHE_MB};
use fbf_cache::PolicyKind;
use fbf_codes::CodeSpec;
use fbf_core::{policy_grid, report::f};

fn main() {
    fbf_bench::main(|scale| {
        let p = 11;
        let mut headers = vec!["cache_mb"];
        headers.extend(PolicyKind::EXTENDED.iter().map(PolicyKind::name));
        let grid = policy_grid(&CACHE_MB, &PolicyKind::EXTENDED, |&mb, &policy| {
            scale.config(CodeSpec::Tip, p, policy, mb)
        })?;
        let label = |mb: &usize| vec![mb.to_string()];
        let hit = grid.table(
            format!("Extended policies, hit ratio — TIP(p={p})"),
            &headers,
            label,
            |pt| vec![f(pt.metrics.hit_ratio, 4)],
        );
        let reads = grid.table(
            format!("Extended policies, disk reads — TIP(p={p})"),
            &headers,
            label,
            |pt| vec![pt.metrics.disk_reads.to_string()],
        );
        let mut out = Artefact::default();
        out.table("extended_policies_hit", hit)
            .table("extended_policies_reads", reads)
            .points(grid.points);
        Ok(out)
    })
}
