//! Online recovery: reconstruction racing foreground application I/O.
//!
//! Run with `cargo run --release --example online_recovery`.
//!
//! The paper motivates FBF's priorities partly by online recovery: while a
//! partial stripe is being repaired, applications keep reading the array
//! (§III-A-1, "the application can access these chunks during partial
//! stripe reconstruction"). This example builds a combined simulation —
//! SOR reconstruction workers plus an application reader — and compares
//! how each policy's reconstruction time and application response time
//! hold up under the mixed load.

use fbf::disksim::{ArrayMapping, Engine, EngineConfig};
use fbf::recovery::{build_scripts_borrowed, plan_campaign_parallel, ExecConfig, SchemeKind};
use fbf::report::f;
use fbf::workload::{generate_app_reads, generate_errors, AppIoConfig, ErrorGenConfig};
use fbf::PolicyKind;
use fbf::Table;
use fbf::{CodeSpec, StripeCode};

fn main() {
    let code = StripeCode::build(CodeSpec::Tip, 11).expect("build");
    let stripes = 2048u32;

    // Reconstruction campaign.
    let errors = generate_errors(&code, &ErrorGenConfig::paper_default(stripes, 256, 77));
    let schemes =
        plan_campaign_parallel(&code, &errors, SchemeKind::FbfCycling, 0).expect("schemes");
    let mut scripts = build_scripts_borrowed(
        &schemes,
        &ExecConfig {
            workers: 32,
            ..Default::default()
        },
    );

    // Foreground application traffic (hot-spotted reads) as one extra worker.
    let app = generate_app_reads(
        &code,
        &AppIoConfig {
            stripes,
            reads: 2000,
            seed: 7,
            ..Default::default()
        },
    );
    let app_worker = scripts.len();
    scripts.push(app);

    let mut table = Table::new(
        "online recovery — TIP(p=11), 64MB cache, 32 workers + app reader",
        &[
            "policy",
            "hit_ratio",
            "disk_reads",
            "recon+app makespan (s)",
        ],
    );
    for policy in PolicyKind::ALL {
        let engine = Engine::new(EngineConfig::paper(
            policy,
            64 * 1024 / 32,
            ArrayMapping::new(code.cols(), code.rows(), false),
            stripes as u64,
        ));
        let report = engine.run(&scripts);
        table.push_row(vec![
            policy.name().to_string(),
            f(report.cache.hit_ratio(), 4),
            report.disk_reads.to_string(),
            f(report.makespan.as_secs_f64(), 3),
        ]);
    }
    println!("{}", table.render());
    println!("(app worker index {app_worker} shares the disks with reconstruction)");
}
