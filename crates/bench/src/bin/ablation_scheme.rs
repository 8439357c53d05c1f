//! Ablation: how much of FBF's win is the recovery *scheme* vs the cache
//! *policy*?
//!
//! Runs every (scheme generator × cache policy) pair at a fixed, limited
//! cache size. Expected outcome: with the horizontal-only typical scheme no
//! chunk is re-referenced, so every policy's hit ratio collapses to ~0 and
//! the policies tie; the shared-chunk schemes (cycling, greedy) create the
//! reuse that the FBF *policy* then protects better than the baselines.

use fbf_bench::Artefact;
use fbf_cache::PolicyKind;
use fbf_codes::CodeSpec;
use fbf_core::{policy_grid, report::f, ExperimentConfig};
use fbf_recovery::SchemeKind;

fn main() {
    fbf_bench::main(|scale| {
        let cache_mb = 64;
        let p = 11;
        let rows: Vec<_> = SchemeKind::ALL
            .into_iter()
            .flat_map(|scheme| PolicyKind::ALL.map(|policy| (scheme, policy)))
            .collect();
        let grid = policy_grid(&rows, &[()], |&(scheme, policy), _| ExperimentConfig {
            scheme,
            ..scale.config(CodeSpec::Tip, p, policy, cache_mb)
        })?;
        let table = grid.table(
            format!("Scheme ablation — TIP(p={p}), cache {cache_mb}MB"),
            &["scheme", "policy", "hit_ratio", "disk_reads", "recon_s"],
            |(scheme, policy)| vec![scheme.name().to_string(), policy.name().to_string()],
            |pt| {
                vec![
                    f(pt.metrics.hit_ratio, 4),
                    pt.metrics.disk_reads.to_string(),
                    f(pt.metrics.reconstruction_s, 3),
                ]
            },
        );
        let mut out = Artefact::default();
        out.table("ablation_scheme", table).points(grid.points);
        Ok(out)
    })
}
