//! Repair-progress curve: how fast the window of vulnerability closes.
//!
//! Total reconstruction time (Fig. 11) is the moment the *last* chunk is
//! repaired, but data-loss exposure shrinks with every spare write. This
//! bench reports, per policy, the virtual time by which 25/50/75/90/100%
//! of the lost chunks were rewritten — FBF's cache hits pull the whole
//! curve left, not just its endpoint.

use fbf_bench::Artefact;
use fbf_cache::PolicyKind;
use fbf_codes::CodeSpec;
use fbf_core::{policy_grid, report::f};

fn main() {
    fbf_bench::main(|scale| {
        let p = 11;
        let cache_mb = 64;
        let grid = policy_grid(&PolicyKind::ALL, &[()], |&policy, _| {
            scale.config(CodeSpec::Tip, p, policy, cache_mb)
        })?;
        let table = grid.table(
            format!("Repair progress — TIP(p={p}), {cache_mb}MB cache"),
            &["policy", "p50_s", "p90_s", "complete_s"],
            |policy| vec![policy.name().to_string()],
            |pt| {
                vec![
                    f(pt.metrics.repair_p50_s, 3),
                    f(pt.metrics.repair_p90_s, 3),
                    f(pt.metrics.reconstruction_s, 3),
                ]
            },
        );
        let mut out = Artefact::default();
        out.table("wov_curve", table).points(grid.points);
        Ok(out)
    })
}
