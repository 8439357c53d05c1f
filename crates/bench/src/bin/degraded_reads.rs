//! Degraded reads under concurrent reconstruction: does FBF's warm cache
//! also speed up application reads that hit lost chunks?
//!
//! Setup: a campaign of partial stripe errors is being repaired by SOR
//! workers while an application issues hot-spotted reads; reads that land
//! on lost chunks become parallel fan-out repairs (Op::Gather) through the
//! *shared* buffer cache. FBF keeps the multiply-referenced favorable
//! blocks resident, so a fan-out finds more of its chain already cached.
//!
//! This is the one binary that drives the engine directly: no driver runs
//! a campaign beside a degraded foreground stream on one shared cache,
//! so it lowers the plans and appends the stream itself.

use fbf_bench::Artefact;
use fbf_cache::PolicyKind;
use fbf_codes::{CodeSpec, StripeCode};
use fbf_core::{report::f, Table};
use fbf_disksim::{ArrayMapping, CacheSharing, Engine, EngineConfig, SimTime};
use fbf_recovery::{
    build_scripts_from_plans, degrade_script, ExecConfig, RecoveryController, SchemeKind,
    StripePlan,
};
use fbf_workload::{generate_app_reads, generate_errors, AppIoConfig, ErrorGenConfig};
use std::fmt::Write;

fn main() {
    fbf_bench::main(|scale| {
        let p = 11;
        let stripes = 2048u32;
        let code = StripeCode::build(CodeSpec::Tip, p)?;

        // Reconstruction campaign and its per-stripe plans.
        let errors = generate_errors(&code, &ErrorGenConfig::paper_default(stripes, 384, 4242));
        let mut controller = RecoveryController::new(&code, SchemeKind::FbfCycling);
        let damage = errors.damage_by_stripe();
        let plans: Vec<StripePlan> = damage.iter().map(|d| controller.plan_for(d)).collect();

        // Application stream, biased toward the damaged region so a good
        // fraction of reads degrade.
        let app = generate_app_reads(
            &code,
            &AppIoConfig {
                stripes,
                reads: 3000,
                hot_fraction: 0.7,
                hot_set: 0.3,
                think_time: SimTime::from_micros(200),
                seed: 99,
            },
        );
        let (degraded_app, degraded_count) =
            degrade_script(&code, &app, &plans, SimTime::from_micros(8));
        let mut out = Artefact::default();
        let reads = app.reads();
        let share = 100.0 * degraded_count as f64 / reads as f64;
        let stream = format!("{reads} reads, {degraded_count} degraded ({share:.1}%)");
        writeln!(out, "application stream: {stream}\n")?;

        let mut table = Table::new(
            format!("Degraded reads under reconstruction — TIP(p={p}), shared 64MB cache"),
            &[
                "policy",
                "hit_ratio",
                "disk_reads",
                "makespan_s",
                "avg_read_ms",
            ],
        );
        let mut scripts = build_scripts_from_plans(
            &plans,
            &ExecConfig {
                workers: 32,
                ..Default::default()
            },
        );
        scripts.push(degraded_app);
        let mapping = ArrayMapping::new(code.cols(), code.rows(), false);
        for policy in PolicyKind::ALL {
            let engine = Engine::new(EngineConfig {
                sharing: CacheSharing::Shared,
                obs: scale.obs,
                ..EngineConfig::paper(policy, 64 * 1024 / 32, mapping.clone(), stripes as u64)
            });
            let report = engine.run(&scripts);
            table.push_row(vec![
                policy.name().to_string(),
                f(report.cache.hit_ratio(), 4),
                report.disk_reads.to_string(),
                f(report.makespan.as_secs_f64(), 3),
                f(report.read_response.avg_millis(), 3),
            ]);
        }
        out.table("degraded_reads", table);
        Ok(out)
    })
}
