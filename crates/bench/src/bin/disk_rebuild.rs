//! Whole-disk rebuild: hybrid chain selection vs the all-horizontal
//! baseline (the paper's reference \[22\], generalised to 3DFT codes).
//!
//! Reports, per code, the read *ratio* of each scheme generator against
//! horizontal-only (the known RDP optimum is 0.75), and simulates a
//! full-disk rebuild campaign to show the end-to-end time difference.

use fbf_bench::save_csv;
use fbf_cache::PolicyKind;
use fbf_codes::{CodeSpec, StripeCode};
use fbf_core::{report::f, Table};
use fbf_disksim::{ArrayMapping, Engine, EngineConfig};
use fbf_recovery::{
    build_scripts, rebuild_campaign, rebuild_read_ratio, ExecConfig, RecoveryController, SchemeKind,
};

fn main() {
    let p = 11;
    let stripes = 512u32;

    let mut ratios = Table::new(
        format!("Full-disk rebuild read ratio vs horizontal-only (p={p})"),
        &["code", "fbf_cycling", "greedy"],
    );
    for spec in CodeSpec::EXTENDED {
        if p < spec.min_prime() {
            continue;
        }
        let code = StripeCode::build(spec, p).expect("prime");
        let cyc = rebuild_read_ratio(&code, 0, SchemeKind::FbfCycling).expect("scheme");
        let grd = rebuild_read_ratio(&code, 0, SchemeKind::Greedy).expect("scheme");
        ratios.push_row(vec![spec.name().to_string(), f(cyc, 3), f(grd, 3)]);
    }
    println!("{}", ratios.render());
    save_csv("disk_rebuild_ratios", &ratios);

    // End-to-end: rebuild a whole disk of TIP(p=11) under FBF vs LRU.
    let code = StripeCode::build(CodeSpec::Tip, p).expect("prime");
    let mut times = Table::new(
        format!("Full-disk rebuild time — TIP(p={p}), {stripes} stripes, 64MB cache"),
        &["scheme", "policy", "disk_reads", "rebuild_s"],
    );
    for kind in [
        SchemeKind::Typical,
        SchemeKind::FbfCycling,
        SchemeKind::Greedy,
    ] {
        let campaign = rebuild_campaign(&code, 0, stripes).expect("column 0 exists");
        let (schemes, dict) = RecoveryController::new(&code, kind)
            .plan_campaign(&campaign)
            .expect("schemes");
        let scripts = build_scripts(
            &schemes,
            &dict,
            &ExecConfig {
                workers: 64,
                ..Default::default()
            },
        );
        for policy in [PolicyKind::Lru, PolicyKind::Fbf] {
            let engine = Engine::new(EngineConfig::paper(
                policy,
                64 * 1024 / 32,
                ArrayMapping::new(code.cols(), code.rows(), false),
                stripes as u64,
            ));
            let report = engine.run(&scripts);
            times.push_row(vec![
                kind.name().to_string(),
                policy.name().to_string(),
                report.disk_reads.to_string(),
                f(report.makespan.as_secs_f64(), 3),
            ]);
        }
    }
    println!("{}", times.render());
    save_csv("disk_rebuild_times", &times);
}
