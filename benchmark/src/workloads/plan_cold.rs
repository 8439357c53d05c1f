//! `plan_cold` — Table IV's "extra calculation": cold campaign planning is
//! the op. The engine runs only in the warm-up pass, untimed, where every
//! plan is simulated once: that is both the output check (the plan
//! recovers every lost chunk) and the source of this workload's `sim_*`.

use super::{ensure, Baseline, Ctx, Pass, PlanShape, Sim, Workload};
use crate::metrics::Values;
use crate::span::Tracer;
use crate::stats::median;
use fbf::codes::hash::FxHasher;
use fbf::core::PlannedCampaign;
use fbf::disksim::{Op, WorkerScript};
use fbf::recovery::{build_scripts, ExecConfig, RecoveryController};
use fbf::{
    generate_errors, run_planned, CodeSpec, ErrorGenConfig, ExperimentConfig, PlanSource,
    StripeCode,
};
use std::hash::{Hash, Hasher};

/// Five shapes of clearly different cost, so the pooled median sits
/// inside the middle one instead of on the gap between two.
const SHAPES: [(CodeSpec, usize); 5] = [
    (CodeSpec::Tip, 7),
    (CodeSpec::Tip, 11),
    (CodeSpec::TripleStar, 11),
    (CodeSpec::Hdd1, 13),
    (CodeSpec::Star, 13),
];
const OPS_PER_SHAPE: usize = 4;

/// What identifies a plan: lost chunks, lowered script ops, and a hash of
/// every op in order. The scripts are all the engine sees of a plan, so
/// equal digests mean equal simulated statistics.
type Digest = (usize, usize, u64);

fn digest(chunks_lost: usize, scripts: &[WorkerScript]) -> Digest {
    let mut hash = FxHasher::default();
    for script in scripts {
        for op in &script.ops {
            match *op {
                Op::Read { chunk, priority } => (0u8, chunk, priority).hash(&mut hash),
                Op::Compute { duration } => (1u8, duration).hash(&mut hash),
                Op::Gather { index } => {
                    (2u8, &script.gathers[index as usize].chunks).hash(&mut hash)
                }
                Op::Write { chunk } => (3u8, chunk).hash(&mut hash),
            }
        }
    }
    (
        chunks_lost,
        scripts.iter().map(|s| s.ops.len()).sum(),
        hash.finish(),
    )
}

/// State of the `plan_cold` workload.
pub struct PlanCold {
    configs: Vec<ExperimentConfig>,
    /// Warm-up results: each op's plan digest and the simulated totals.
    digests: Vec<Digest>,
    reference: Sim,
}

impl Workload for PlanCold {
    /// 20 plans ≈ 0.25 s a pass.
    const PASSES: usize = 32;

    fn setup(ctx: &Ctx) -> Result<Self, String> {
        let configs = (0..SHAPES.len() * OPS_PER_SHAPE)
            .map(|i| {
                let (code, p) = SHAPES[i % SHAPES.len()];
                ExperimentConfig::builder()
                    .code(code)
                    .p(p)
                    .stripes(ctx.scaled(8192, 128) as u32)
                    .error_count(ctx.scaled(2048, 32))
                    .workers(ctx.scaled(128, 8))
                    .seed(ctx.derive("plan_cold.campaign", i))
                    .gen_threads(1)
                    .build()
                    .map_err(|e| e.to_string())
            })
            .collect::<Result<_, _>>()?;
        Ok(PlanCold {
            configs,
            digests: Vec::new(),
            reference: Sim::default(),
        })
    }

    fn pass(&mut self, pass: &mut Pass) -> Result<(), String> {
        for (index, cfg) in self.configs.iter().enumerate() {
            let plan = pass
                .time(|| PlannedCampaign::cold(cfg))
                .map_err(|e| e.to_string())?;
            let verdict = if pass.warmup {
                let m = run_planned(cfg, &plan, PlanSource::Cold);
                self.digests.push(digest(plan.chunks_lost, &plan.scripts));
                self.reference.add_metrics(&m);
                ensure(m.chunks_recovered == plan.chunks_lost, || {
                    format!(
                        "plan {index} recovers {} of {} chunks when simulated",
                        m.chunks_recovered, plan.chunks_lost
                    )
                })
            } else {
                ensure(
                    digest(plan.chunks_lost, &plan.scripts) == self.digests[index],
                    || format!("plan {index} differs from the warm-up pass's"),
                )
            };
            pass.check(plan.chunks_lost as u64, verdict);
        }
        // The engine ran in the warm-up only; every later pass was held to
        // the same plans op for op (the digest), hence to the same totals.
        pass.sim = self.reference.clone();
        Ok(())
    }

    fn trace(
        &mut self,
        _ctx: &Ctx,
        tracer: &mut Tracer,
        _baseline: &Baseline,
        layers: &mut Values,
    ) -> Result<(), String> {
        let mut shape = PlanShape::default();
        for (index, cfg) in self.configs.iter().enumerate() {
            let op = tracer.open_op();
            let cold = tracer.open("core.plan_cold");
            let plan = PlannedCampaign::cold(cfg).map_err(|e| e.to_string())?;
            tracer.close(cold);
            tracer.close(op);
            if digest(plan.chunks_lost, &plan.scripts) != self.digests[index] {
                return Err(format!("plan {index} differs from the warm-up pass's"));
            }
            shape.add(&plan);
            // As in the untraced passes, the plan is gone before the next
            // planning call runs: the replays below reuse its memory.
            drop(plan);

            // The four public calls `cold` makes, replayed alone. It
            // builds the code twice (once to draw the errors, once to plan).
            let mut code = None;
            for _ in 0..2 {
                let span = tracer.open_replay(cold, "codes.build");
                code = Some(StripeCode::build(cfg.code, cfg.p).map_err(|e| e.to_string())?);
                tracer.close(span);
            }
            let code = code.expect("built twice");
            let span = tracer.open_replay(cold, "workload.generate");
            let errors = generate_errors(
                &code,
                &ErrorGenConfig::paper_default(cfg.stripes, cfg.error_count, cfg.seed),
            );
            tracer.close(span);
            let span = tracer.open_replay(cold, "recovery.plan");
            let (schemes, dictionary) = RecoveryController::new(&code, cfg.scheme)
                .plan_campaign(&errors)
                .map_err(|e| e.to_string())?;
            tracer.close(span);
            let span = tracer.open_replay(cold, "recovery.scripts");
            let scripts = build_scripts(
                &schemes,
                &dictionary,
                &ExecConfig {
                    workers: cfg.workers,
                    decode_batch: cfg.decode_batch,
                    ..Default::default()
                },
            );
            tracer.close(span);
            if digest(self.digests[index].0, &scripts) != self.digests[index] {
                return Err(format!(
                    "plan {index}: replayed steps lowered other scripts"
                ));
            }
        }
        for (metric, span) in [
            ("core.plan_cold_ms", "core.plan_cold"),
            ("codes.build_ms", "codes.build"),
            ("workload.generate_ms", "workload.generate"),
            ("recovery.plan_ms", "recovery.plan"),
            ("recovery.scripts_ms", "recovery.scripts"),
        ] {
            layers.set(metric, median(&tracer.durations_ms(span)));
        }
        layers.set(
            "core.plan_self_ms",
            median(&tracer.self_ms("core.plan_cold")),
        );
        shape.record(layers);
        Ok(())
    }
}
