//! Whole-disk rebuild: hybrid chain selection vs the all-horizontal
//! baseline (the paper's reference \[22\], generalised to 3DFT codes).
//!
//! Reports, per code, the read *ratio* of each scheme generator against
//! horizontal-only (the known RDP optimum is 0.75), and simulates a
//! full-disk rebuild campaign to show the end-to-end time difference.

use fbf_bench::Artefact;
use fbf_cache::PolicyKind;
use fbf_codes::{CodeSpec, StripeCode};
use fbf_core::{
    report::f, run_planned, ExperimentConfig, PlanSource, PlannedCampaign, SweepPoint, Table,
};
use fbf_recovery::{rebuild_campaign, rebuild_read_ratio, SchemeKind};

fn main() {
    fbf_bench::main(|scale| {
        let p = 11;
        let stripes = 512u32;
        let mut out = Artefact::default();

        let mut ratios = Table::new(
            format!("Full-disk rebuild read ratio vs horizontal-only (p={p})"),
            &["code", "fbf_cycling", "greedy"],
        );
        for spec in CodeSpec::EXTENDED {
            let code = StripeCode::build(spec, p)?;
            let cyc = rebuild_read_ratio(&code, 0, SchemeKind::FbfCycling)?;
            let grd = rebuild_read_ratio(&code, 0, SchemeKind::Greedy)?;
            ratios.push_row(vec![spec.name().to_string(), f(cyc, 3), f(grd, 3)]);
        }
        out.table("disk_rebuild_ratios", ratios);

        // End-to-end: rebuild a whole disk of TIP(p=11) under FBF vs LRU.
        let code = StripeCode::build(CodeSpec::Tip, p)?;
        let mut times = Table::new(
            format!("Full-disk rebuild time — TIP(p={p}), {stripes} stripes, 64MB cache"),
            &["scheme", "policy", "disk_reads", "rebuild_s"],
        );
        for scheme in SchemeKind::ALL {
            let campaign = rebuild_campaign(&code, 0, stripes)?;
            let base = ExperimentConfig::builder()
                .obs(scale.obs)
                .p(p)
                .scheme(scheme)
                .cache_mb(64)
                .stripes(stripes)
                .error_count(campaign.len())
                .workers(64)
                .build()?;
            let plan = PlannedCampaign::cold_with_errors(&base, campaign)?;
            for policy in [PolicyKind::Lru, PolicyKind::Fbf] {
                let config = ExperimentConfig { policy, ..base };
                let m = run_planned(&config, &plan, PlanSource::Cold);
                times.push_row(vec![
                    scheme.name().to_string(),
                    policy.name().to_string(),
                    m.disk_reads.to_string(),
                    f(m.reconstruction_s, 3),
                ]);
                out.points([SweepPoint { config, metrics: m }]);
            }
        }
        out.table("disk_rebuild_times", times);
        Ok(out)
    })
}
