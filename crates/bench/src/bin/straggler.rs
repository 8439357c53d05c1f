//! Failure injection: reconstruction with one aged straggler disk.
//!
//! Disks in the failure-prone regime the paper targets (§II-C: error
//! rates grow as drives age) rarely degrade uniformly — one disk serving
//! at 3× its normal latency throttles every chain that crosses it. This
//! bench measures how each policy's reconstruction tolerates a straggler:
//! the more reads a policy serves from cache, the fewer land on the slow
//! disk's queue.

use fbf_bench::Artefact;
use fbf_cache::PolicyKind;
use fbf_codes::CodeSpec;
use fbf_core::{policy_grid, report::f};

fn main() {
    fbf_bench::main(|scale| {
        let p = 11;
        let cache_mb = 64;
        let rows: Vec<_> = [1.0f64, 2.0, 4.0]
            .into_iter()
            .flat_map(|factor| PolicyKind::ALL.map(|policy| (factor, policy)))
            .collect();
        let grid = policy_grid(&rows, &[()], |&(factor, policy), _| {
            let mut cfg = scale.config(CodeSpec::Tip, p, policy, cache_mb);
            if factor > 1.0 {
                cfg.straggler = Some((0, factor));
            }
            cfg
        })?;
        // The factor-1.0 rows are the healthy baseline of the cost column.
        let healthy = |policy| {
            grid.points
                .iter()
                .find(|pt| pt.config.policy == policy && pt.config.straggler.is_none())
                .map_or(f64::NAN, |pt| pt.metrics.reconstruction_s)
        };
        let table = grid.table(
            format!("Straggler injection — TIP(p={p}), {cache_mb}MB, disk 0 at N× latency"),
            &[
                "slowdown",
                "policy",
                "hit_ratio",
                "recon_s",
                "slowdown_cost_pct",
            ],
            |(factor, policy)| vec![format!("{factor}x"), policy.name().to_string()],
            |pt| {
                let h = healthy(pt.config.policy);
                vec![
                    f(pt.metrics.hit_ratio, 4),
                    f(pt.metrics.reconstruction_s, 3),
                    f(100.0 * (pt.metrics.reconstruction_s - h) / h, 1),
                ]
            },
        );
        let mut out = Artefact::default();
        out.table("straggler", table).points(grid.points);
        Ok(out)
    })
}
