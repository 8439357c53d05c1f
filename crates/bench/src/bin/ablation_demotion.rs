//! Ablation: the FBF demotion mechanism.
//!
//! The paper's §III-A-2 is ambiguous about where a demoted chunk lands in
//! the lower queue ("start point" in the text vs "attached to the end" in
//! the figures). This ablation measures all three variants across the
//! cache-size sweep:
//!
//! * `demote-back`  — demoted chunk to the lower queue's MRU end (default);
//! * `demote-front` — to the LRU end (evicted sooner once downgraded);
//! * `no-demotion`  — hits keep a chunk in its original queue.

use fbf_bench::{Artefact, CACHE_MB};
use fbf_cache::{DemotePosition, FbfConfig, PolicyKind};
use fbf_codes::CodeSpec;
use fbf_core::{policy_grid, report::f, ExperimentConfig};

const VARIANTS: [FbfConfig; 3] = [
    FbfConfig {
        demote_to: DemotePosition::Back,
        disable_demotion: false,
    },
    FbfConfig {
        demote_to: DemotePosition::Front,
        disable_demotion: false,
    },
    FbfConfig {
        demote_to: DemotePosition::Back,
        disable_demotion: true,
    },
];

fn main() {
    fbf_bench::main(|scale| {
        let p = 11;
        let grid = policy_grid(&CACHE_MB, &VARIANTS, |&mb, &fbf| ExperimentConfig {
            fbf,
            ..scale.config(CodeSpec::Tip, p, PolicyKind::Fbf, mb)
        })?;
        let table = grid.table(
            format!("FBF demotion ablation — TIP(p={p})"),
            &["cache_mb", "demote-back", "demote-front", "no-demotion"],
            |mb| vec![mb.to_string()],
            |pt| vec![f(pt.metrics.hit_ratio, 4)],
        );
        let mut out = Artefact::default();
        out.table("ablation_demotion", table).points(grid.points);
        Ok(out)
    })
}
