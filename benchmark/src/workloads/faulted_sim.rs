//! `faulted_sim` — the engine under injected faults: multi-round
//! escalation and mid-run re-planning on pre-planned campaigns. One op is
//! one campaign under one fault seed.

use super::{ensure, Baseline, Ctx, Pass, Workload};
use crate::metrics::Values;
use crate::span::Tracer;
use crate::stats::median;
use fbf::core::runner::run_planned_with_scratch;
use fbf::core::PlannedCampaign;
use fbf::disksim::{DiskKill, EngineScratch, RetryPolicy, SlowDisk};
use fbf::{ExperimentConfig, FaultPlan, Metrics, PlanSource, SimTime};

const CAMPAIGNS: usize = 4;
const OPS: usize = 16;

/// The `fault_injection` smoke's hostile plan, under a per-op seed.
fn hostile(seed: u64) -> FaultPlan {
    FaultPlan {
        seed,
        media_per_mille: 15,
        transient_per_mille: 40,
        straggler: Some(SlowDisk {
            disk: 2,
            scale_milli: 1500,
        }),
        disk_kill: Some(DiskKill {
            disk: 3,
            at: SimTime::from_millis(40),
        }),
        retry: RetryPolicy::default(),
        ..FaultPlan::none()
    }
}

/// State of the `faulted_sim` workload.
pub struct FaultedSim {
    plans: Vec<PlannedCampaign>,
    /// Op `i` runs `configs[i]` on `plans[i % CAMPAIGNS]`.
    configs: Vec<ExperimentConfig>,
    scratch: EngineScratch,
}

impl FaultedSim {
    fn run(&mut self, index: usize) -> Metrics {
        run_planned_with_scratch(
            &self.configs[index],
            &self.plans[index % CAMPAIGNS],
            PlanSource::Warm,
            &mut self.scratch,
        )
    }

    fn check(&self, index: usize, m: &Metrics) -> Result<(), String> {
        let damaged = self.plans[index % CAMPAIGNS].schemes.len();
        ensure(m.stripes_unresolved == 0, || {
            format!("op {index}: escalation rounds exhausted")
        })?;
        ensure(
            m.stripes_repaired + m.stripes_lost + m.stripes_unresolved == damaged,
            || {
                format!(
                    "op {index}: {} repaired + {} lost of {damaged} damaged stripes",
                    m.stripes_repaired, m.stripes_lost
                )
            },
        )?;
        ensure(m.replan_rounds > 0, || {
            format!("op {index}: the hostile plan injected no hard failure")
        })
    }
}

impl Workload for FaultedSim {
    /// 16 faulted runs ≈ 0.2 s a pass.
    const PASSES: usize = 40;

    fn setup(ctx: &Ctx) -> Result<Self, String> {
        let base = |campaign: usize| {
            ExperimentConfig::builder()
                .stripes(ctx.scaled(4096, 128) as u32)
                .error_count(ctx.scaled(512, 24))
                .workers(ctx.scaled(128, 8))
                .seed(ctx.derive("faulted_sim.campaign", campaign))
                .gen_threads(1)
                .build()
                .map_err(|e| e.to_string())
        };
        let plans = (0..CAMPAIGNS)
            .map(|c| PlannedCampaign::cold(&base(c)?).map_err(|e| e.to_string()))
            .collect::<Result<_, String>>()?;
        let configs = (0..OPS)
            .map(|i| {
                let mut cfg = base(i % CAMPAIGNS)?;
                cfg.faults = hostile(ctx.derive("faulted_sim.fault", i));
                Ok(cfg)
            })
            .collect::<Result<_, String>>()?;
        Ok(FaultedSim {
            plans,
            configs,
            scratch: EngineScratch::new(),
        })
    }

    fn pass(&mut self, pass: &mut Pass) -> Result<(), String> {
        for index in 0..OPS {
            let t = std::time::Instant::now();
            let m = self.run(index);
            pass.record(t.elapsed());
            pass.check(m.chunks_recovered as u64, self.check(index, &m));
            pass.sim.add_metrics(&m);
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
        for index in 0..OPS {
            let op = tracer.open_op();
            let span = tracer.open("core.faulted");
            let m = self.run(index);
            tracer.close(span);
            tracer.close(op);
            self.check(index, &m)?;
        }
        layers.set(
            "core.faulted_ms",
            median(&tracer.durations_ms("core.faulted")),
        );
        Ok(())
    }
}
