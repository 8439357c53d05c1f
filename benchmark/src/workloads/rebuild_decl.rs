//! `rebuild_decl` — the array-wide declustered rebuild driver: one op is
//! one `run_rebuild` of a failed disk under its own placement seed. Many
//! short engine waves, so per-wave costs count as much as the engine loop.

use super::{ensure, Baseline, Ctx, Pass, Workload};
use crate::metrics::Values;
use crate::span::Tracer;
use crate::stats::median;
use fbf::core::PlannedCampaign;
use fbf::recovery::{ErrorGroup, PartialStripeError, RebuildItem, RebuildScheduler};
use fbf::{
    run_rebuild, ArrayMapping, ExperimentConfig, Fairness, Placement, RebuildOutcome, RebuildSpec,
    StripeCode,
};
use std::collections::BTreeMap;

const OPS: usize = 8;
const DISKS: usize = 48;

/// State of the `rebuild_decl` workload.
pub struct RebuildDecl {
    specs: Vec<RebuildSpec>,
}

fn check(index: usize, outcome: &RebuildOutcome) -> Result<(), String> {
    ensure(
        outcome.stripes_affected > 0 && outcome.stripes_rebuilt == outcome.stripes_affected,
        || {
            format!(
                "op {index}: rebuilt {} of {} affected stripes",
                outcome.stripes_rebuilt, outcome.stripes_affected
            )
        },
    )
}

/// The waves `RebuildScheduler` admits for `spec`, drained alone: the
/// driver's discover and plan steps redone through the public API, then
/// only `push` / `next_wave` inside the replayed span.
fn replay_admission(
    spec: &RebuildSpec,
    tracer: &mut Tracer,
    parent: crate::span::SpanId,
) -> Result<usize, String> {
    let cfg = &spec.base;
    let code = StripeCode::build(cfg.code, cfg.p).map_err(|e| e.to_string())?;
    let mapping =
        ArrayMapping::with_placement(spec.disks, code.rows(), code.cols(), spec.placement);
    let mut shards: Vec<ErrorGroup> = (0..spec.campaigns).map(|_| ErrorGroup::new()).collect();
    let mut affected = 0usize;
    for stripe in 0..cfg.stripes {
        let lost =
            (0..mapping.cols).find(|&col| mapping.disk_of_col(stripe, col) == spec.failed_disk);
        if let Some(col) = lost {
            let error = PartialStripeError::new(&code, stripe, col, 0, code.rows())
                .map_err(|e| format!("full-column damage rejected: {e:?}"))?;
            shards[affected % spec.campaigns].push(error);
            affected += 1;
        }
    }
    let mut items = Vec::with_capacity(affected);
    for (campaign, errors) in shards.into_iter().enumerate() {
        let mut sub = *cfg;
        sub.error_count = errors.len();
        sub.seed = cfg.seed.wrapping_add(campaign as u64 + 1);
        let span = tracer.open_replay(parent, "core.plan_cold");
        let plan = PlannedCampaign::cold_with_errors(&sub, errors).map_err(|e| e.to_string())?;
        tracer.close(span);
        for scheme in &plan.schemes {
            let mut reads: BTreeMap<u32, u32> = BTreeMap::new();
            for cell in scheme.repairs.iter().flat_map(|r| &r.option.reads) {
                *reads
                    .entry(mapping.disk_of_col(scheme.stripe, cell.c()) as u32)
                    .or_insert(0) += 1;
            }
            items.push(RebuildItem {
                campaign,
                stripe: scheme.stripe,
                disk_reads: reads.into_iter().collect(),
            });
        }
    }
    let span = tracer.open_replay(parent, "recovery.sched_admit");
    let mut scheduler = RebuildScheduler::new(spec.disks, spec.per_disk_cap, spec.fairness);
    for item in items {
        scheduler.push(item);
    }
    let mut waves = 0usize;
    while !scheduler.is_empty() {
        std::hint::black_box(scheduler.next_wave());
        waves += 1;
    }
    tracer.close(span);
    Ok(waves)
}

impl Workload for RebuildDecl {
    /// 8 rebuilds ≈ 0.4 s a pass.
    const PASSES: usize = 24;

    fn setup(ctx: &Ctx) -> Result<Self, String> {
        let base = ExperimentConfig::builder()
            .stripes(ctx.scaled(16_384, 1024) as u32)
            .workers(16)
            .seed(ctx.derive("rebuild_decl.campaign", 0))
            .gen_threads(1)
            .build()
            .map_err(|e| e.to_string())?;
        let specs = (0..OPS)
            .map(|i| RebuildSpec {
                placement: Placement::Declustered {
                    seed: ctx.derive("rebuild_decl.placement", i),
                },
                per_disk_cap: 64,
                fairness: Fairness::RoundRobin,
                campaigns: 4,
                app_reads_per_wave: 128,
                ..RebuildSpec::new(base, DISKS)
            })
            .collect();
        Ok(RebuildDecl { specs })
    }

    fn pass(&mut self, pass: &mut Pass) -> Result<(), String> {
        for (index, spec) in self.specs.iter().enumerate() {
            let outcome = pass.time(|| run_rebuild(spec)).map_err(|e| e.to_string())?;
            let chunks = outcome.report.disk_writes;
            pass.check(chunks, check(index, &outcome));
            pass.sim.add_report(&outcome.report, chunks);
            pass.sim.waves += outcome.waves as u64;
            pass.sim.rebuild_skew += outcome.rebuild_skew;
            pass.sim.app_p99_ms += outcome.app_p99_ms.unwrap_or(0.0);
        }
        Ok(())
    }

    fn trace(
        &mut self,
        _ctx: &Ctx,
        tracer: &mut Tracer,
        _baseline: &Baseline,
        layers: &mut Values,
    ) -> Result<(), String> {
        for (index, spec) in self.specs.iter().enumerate() {
            let op = tracer.open_op();
            let span = tracer.open("core.rebuild");
            let outcome = run_rebuild(spec).map_err(|e| e.to_string())?;
            tracer.close(span);
            tracer.close(op);
            check(index, &outcome)?;
            let waves = replay_admission(spec, tracer, span)?;
            if waves != outcome.waves {
                return Err(format!(
                    "op {index}: admission replay drained {waves} waves, the driver {}",
                    outcome.waves
                ));
            }
        }
        layers.set(
            "core.rebuild_ms",
            median(&tracer.durations_ms("core.rebuild")),
        );
        layers.set(
            "recovery.sched_admit_ms",
            median(&tracer.durations_ms("recovery.sched_admit")),
        );
        Ok(())
    }
}
