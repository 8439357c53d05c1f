//! Ablation: per-worker cache partitioning vs one shared cache.
//!
//! The paper's SOR setup gives each reconstruction process "a small part of
//! cache". A shared cache would let workers poach each other's chunks but
//! also reuse nothing across stripes (chunk identities are stripe-local),
//! so the main effect is how eviction pressure distributes. This bench
//! quantifies it per policy at a limited cache size.

use fbf_bench::{Artefact, CACHE_MB};
use fbf_cache::PolicyKind;
use fbf_codes::CodeSpec;
use fbf_core::{policy_grid, report::f, ExperimentConfig};
use fbf_disksim::CacheSharing;

fn main() {
    fbf_bench::main(|scale| {
        let p = 11;
        let rows: Vec<_> = CACHE_MB[..6]
            .iter()
            .flat_map(|&mb| PolicyKind::ALL.map(|policy| (mb, policy)))
            .collect();
        let sharing = [CacheSharing::Partitioned, CacheSharing::Shared];
        let grid = policy_grid(&rows, &sharing, |&(mb, policy), &sharing| {
            ExperimentConfig {
                sharing,
                ..scale.config(CodeSpec::Tip, p, policy, mb)
            }
        })?;
        let table = grid.table(
            format!("Cache-sharing ablation — TIP(p={p}), hit ratio"),
            &["cache_mb", "policy", "partitioned", "shared"],
            |(mb, policy)| vec![mb.to_string(), policy.name().to_string()],
            |pt| vec![f(pt.metrics.hit_ratio, 4)],
        );
        let mut out = Artefact::default();
        out.table("ablation_sharing", table).points(grid.points);
        Ok(out)
    })
}
