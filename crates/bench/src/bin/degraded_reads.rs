//! Degraded reads under concurrent reconstruction: does FBF's warm cache
//! also speed up application reads that hit lost chunks?
//!
//! Setup: a campaign of partial stripe errors is being repaired by SOR
//! workers while an application issues hot-spotted reads; reads that land
//! on lost chunks become parallel fan-out repairs (Op::Gather) through the
//! *shared* buffer cache. FBF keeps the multiply-referenced favorable
//! blocks resident, so a fan-out finds more of its chain already cached.

use fbf_bench::save_csv;
use fbf_cache::PolicyKind;
use fbf_codes::{CodeSpec, StripeCode};
use fbf_core::{report::f, Table};
use fbf_disksim::{ArrayMapping, CacheSharing, Engine, EngineConfig, SimTime};
use fbf_recovery::{
    build_scripts_from_plans, degrade_script, ExecConfig, RecoveryController, SchemeKind,
    StripePlan,
};
use fbf_workload::{generate_app_reads, generate_errors, AppIoConfig, ErrorGenConfig};

fn main() {
    let p = 11;
    let stripes = 2048u32;
    let code = StripeCode::build(CodeSpec::Tip, p).expect("prime");

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
    println!(
        "application stream: {} reads, {} degraded ({:.1}%)\n",
        app.reads(),
        degraded_count,
        100.0 * degraded_count as f64 / app.reads() as f64
    );

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
    for policy in PolicyKind::ALL {
        let mut scripts = build_scripts_from_plans(
            &plans,
            &ExecConfig {
                workers: 32,
                ..Default::default()
            },
        );
        scripts.push(degraded_app.clone());
        let engine = Engine::new(EngineConfig {
            sharing: CacheSharing::Shared,
            ..EngineConfig::paper(
                policy,
                64 * 1024 / 32,
                ArrayMapping::new(code.cols(), code.rows(), false),
                stripes as u64,
            )
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
    println!("{}", table.render());
    save_csv("degraded_reads", &table);
}
