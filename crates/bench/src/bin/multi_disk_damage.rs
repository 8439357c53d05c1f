//! Multi-disk damage: stripes carrying errors on more than one disk.
//!
//! LSE studies (the paper's \[8\]/\[9\]) show errors cluster spatially — a
//! stripe hit once is disproportionately likely to be hit again. With two
//! damaged columns, more repairs are forced off the horizontal direction
//! and more chains cross, so sharing — and FBF's edge — *grows*. This
//! bench sweeps the probability of a second same-stripe error.

use fbf_bench::Artefact;
use fbf_cache::PolicyKind;
use fbf_codes::{CodeSpec, StripeCode};
use fbf_core::{
    report::f, run_planned, ExperimentConfig, PlanSource, PlannedCampaign, SweepPoint, Table,
};
use fbf_workload::{generate_errors, ErrorGenConfig};

fn main() {
    fbf_bench::main(|scale| {
        let (code, p, stripes, errors) = (CodeSpec::Tip, 11, 4096, 512);
        let cache_mb = 64;
        let built = StripeCode::build(code, p)?;
        let mut table = Table::new(
            format!("Multi-disk damage sweep — TIP(p={p}), {cache_mb}MB"),
            &[
                "second_error_prob",
                "policy",
                "hit_ratio",
                "disk_reads",
                "recon_s",
            ],
        );
        let mut out = Artefact::default();
        for prob in [0.0f64, 0.25, 0.5, 1.0] {
            let campaign = generate_errors(
                &built,
                &ErrorGenConfig {
                    multi_col_prob: prob,
                    ..ErrorGenConfig::paper_default(stripes, errors, 0x5EED)
                },
            );
            let base = ExperimentConfig::builder()
                .obs(scale.obs)
                .code(code)
                .p(p)
                .cache_mb(cache_mb)
                .stripes(stripes)
                .error_count(errors)
                .workers(128)
                .build()?;
            let plan = PlannedCampaign::cold_with_errors(&base, campaign)?;
            for policy in [PolicyKind::Lru, PolicyKind::Arc, PolicyKind::Fbf] {
                let config = ExperimentConfig { policy, ..base };
                let m = run_planned(&config, &plan, PlanSource::Cold);
                table.push_row(vec![
                    format!("{prob:.2}"),
                    policy.name().to_string(),
                    f(m.hit_ratio, 4),
                    m.disk_reads.to_string(),
                    f(m.reconstruction_s, 3),
                ]);
                out.points([SweepPoint { config, metrics: m }]);
            }
        }
        out.table("multi_disk_damage", table);
        Ok(out)
    })
}
