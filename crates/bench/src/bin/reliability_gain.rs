//! Reliability translation of Fig. 11: what FBF's faster reconstruction
//! buys in MTTDL.
//!
//! The paper argues that cutting reconstruction time narrows the window of
//! vulnerability and so cuts the chance of a fourth concurrent failure.
//! This bench measures each policy's reconstruction time (TIP grid),
//! scales a nearline 3DFT array's repair window accordingly, and reports
//! the exact Markov-model MTTDL — making the WOV argument quantitative.

use fbf_bench::Artefact;
use fbf_cache::PolicyKind;
use fbf_codes::CodeSpec;
use fbf_core::{mttdl_years, policy_grid, report::f, ReliabilityParams};
use std::fmt::Write;

fn main() {
    fbf_bench::main(|scale| {
        let p = 11;
        let cache_mb = 64; // the contended regime, where FBF's gain is real
        let grid = policy_grid(&PolicyKind::ALL, &[()], |&policy, _| {
            scale.config(CodeSpec::Tip, p, policy, cache_mb)
        })?;
        let lru = grid
            .points
            .iter()
            .find(|pt| pt.config.policy == PolicyKind::Lru);
        let lru_recon = lru.expect("LRU present").metrics.reconstruction_s;

        let base = ReliabilityParams::nearline_3dft(CodeSpec::Tip.disks(p));
        let lru_mttdl = mttdl_years(&base);
        let table = grid.table(
            format!("MTTDL under each policy — TIP(p={p}), {cache_mb}MB cache, nearline 3DFT"),
            &[
                "policy",
                "recon_s",
                "relative_wov",
                "mttdl_years",
                "gain_vs_lru",
            ],
            |policy| vec![policy.name().to_string()],
            |pt| {
                let rs = pt.metrics.reconstruction_s;
                let years = mttdl_years(&ReliabilityParams {
                    mttr_hours: base.mttr_hours * rs / lru_recon,
                    ..base
                });
                vec![
                    f(rs, 3),
                    f(rs / lru_recon, 4),
                    format!("{years:.3e}"),
                    f(years / lru_mttdl, 3),
                ]
            },
        );
        let mut out = Artefact::default();
        out.table("reliability_gain", table).points(grid.points);
        writeln!(
            out,
            "(WOV scales with reconstruction time; MTTDL ∝ 1/WOV³ for a 3DFT,\n \
             so the paper's ~15% reconstruction gain is worth ~1.6x in MTTDL)"
        )?;
        Ok(out)
    })
}
