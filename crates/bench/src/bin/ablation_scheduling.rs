//! Ablation: disk head-scheduling discipline under the detailed
//! mechanical model.
//!
//! The paper's DiskSim runs use its default disk model; our fixed-latency
//! configuration makes scheduling irrelevant (every order costs the same).
//! This ablation switches to the seek+rotation+transfer model and sweeps
//! FCFS / SSTF / C-LOOK, checking two things:
//!
//! * reordering reduces reconstruction time (seek locality exists in
//!   recovery traffic: stripes map to contiguous LBAs);
//! * the FBF-vs-LRU ranking is *robust* to the disk model — the paper's
//!   conclusion does not depend on the fixed-latency simplification.

use fbf_bench::Artefact;
use fbf_cache::PolicyKind;
use fbf_codes::CodeSpec;
use fbf_core::{policy_grid, report::f, ExperimentConfig};
use fbf_disksim::{DiskModel, DiskSched};

fn main() {
    fbf_bench::main(|scale| {
        let p = 11;
        let cache_mb = 64;
        let policies = [PolicyKind::Lru, PolicyKind::Fbf];
        let rows: Vec<_> = DiskSched::ALL
            .into_iter()
            .flat_map(|sched| policies.map(|policy| (sched, policy)))
            .collect();
        let grid = policy_grid(&rows, &[()], |&(disk_sched, policy), _| ExperimentConfig {
            disk_model: DiskModel::detailed_default(),
            disk_sched,
            ..scale.config(CodeSpec::Tip, p, policy, cache_mb)
        })?;
        let table = grid.table(
            format!("Disk-scheduling ablation — TIP(p={p}), {cache_mb}MB, detailed disk model"),
            &[
                "discipline",
                "policy",
                "hit_ratio",
                "avg_resp_ms",
                "recon_s",
            ],
            |(sched, policy)| vec![sched.name().to_string(), policy.name().to_string()],
            |pt| {
                vec![
                    f(pt.metrics.hit_ratio, 4),
                    f(pt.metrics.avg_response_ms, 3),
                    f(pt.metrics.reconstruction_s, 3),
                ]
            },
        );
        let mut out = Artefact::default();
        out.table("ablation_scheduling", table);
        // Robustness check: FBF still wins under every discipline.
        for (sched, pair) in DiskSched::ALL.iter().zip(grid.points.chunks(2)) {
            let (lru, fbf) = (&pair[0].metrics, &pair[1].metrics);
            out.check(fbf.reconstruction_s <= lru.reconstruction_s, || {
                format!("{}: FBF should not lose to LRU", sched.name())
            });
        }
        out.points(grid.points);
        Ok(out)
    })
}
