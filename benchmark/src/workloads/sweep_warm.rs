//! `sweep_warm` — the paper's Fig. 8/9 sweep over a pre-warmed plan
//! store: the engine and cache-policy hot loop. One op is one sweep point.

use super::{ensure, Baseline, Ctx, Pass, PlanShape, Workload};
use crate::metrics::Values;
use crate::span::Tracer;
use crate::stats::median;
use fbf::core::runner::run_planned_with_scratch;
use fbf::core::{sweep_with_progress, PlannedCampaign};
use fbf::disksim::{build_caches, EngineConfig, EngineScratch, Lookup, Op};
use fbf::{ArrayMapping, CodeSpec, ExperimentConfig, Metrics, PlanStore, PolicyKind};
use std::sync::{Arc, Mutex};
use std::time::Instant;

const SHAPES: [(CodeSpec, usize); 3] = [
    (CodeSpec::Tip, 7),
    (CodeSpec::TripleStar, 11),
    (CodeSpec::Star, 13),
];
const POLICIES: [PolicyKind; 5] = [
    PolicyKind::Fbf,
    PolicyKind::Lru,
    PolicyKind::Lfu,
    PolicyKind::Arc,
    PolicyKind::Fifo,
];
/// 2 … 512 MiB: from far below the campaign's working set to all of it.
const CACHE_MB: [usize; 9] = [2, 4, 8, 16, 32, 64, 128, 256, 512];
const POINTS_PER_SHAPE: usize = POLICIES.len() * CACHE_MB.len();

/// State of the `sweep_warm` workload.
pub struct SweepWarm {
    configs: Vec<ExperimentConfig>,
    store: PlanStore,
    /// The warm plan of each shape (config `i` uses `i / POINTS_PER_SHAPE`).
    plans: Vec<Arc<PlannedCampaign>>,
}

impl SweepWarm {
    fn plan_of(&self, index: usize) -> &PlannedCampaign {
        &self.plans[index / POINTS_PER_SHAPE]
    }

    fn check(&self, index: usize, m: &Metrics) -> Result<(), String> {
        let lost = self.plan_of(index).chunks_lost;
        ensure(m.chunks_recovered == lost, || {
            format!(
                "point {index}: recovered {} of {lost} chunks",
                m.chunks_recovered
            )
        })?;
        ensure(m.disk_writes as usize == m.chunks_recovered, || {
            format!("point {index}: {} writes for {lost} chunks", m.disk_writes)
        })
    }
}

/// The engine configuration `run_planned_with_scratch` builds for `cfg`:
/// what a cache replay must construct its slices from.
fn engine_config(cfg: &ExperimentConfig, plan: &PlannedCampaign) -> EngineConfig {
    EngineConfig {
        policy: cfg.policy,
        fbf: cfg.fbf,
        victim_map: Some(Arc::clone(&plan.victim_map)),
        cache_chunks: cfg.cache_chunks(),
        sharing: cfg.sharing,
        disk_model: cfg.disk_model,
        sched: cfg.disk_sched,
        straggler: cfg.straggler,
        faults: cfg.faults,
        cache_hit_time: cfg.cache_hit_time,
        chunk_bytes: cfg.chunk_bytes(),
        mapping: ArrayMapping::new(plan.cols, plan.rows, cfg.code.rotated_placement()),
        data_stripes: u64::from(cfg.stripes),
        obs: false,
    }
}

/// Replay every worker's read sequence through the cache slices the
/// engine would build. Returns (accesses, hits).
fn replay_caches(cfg: &ExperimentConfig, plan: &PlannedCampaign) -> (u64, u64) {
    let mut caches = build_caches(&engine_config(cfg, plan), plan.scripts.len());
    let mut accesses = 0u64;
    for (worker, script) in plan.scripts.iter().enumerate() {
        let cache = &mut caches[worker];
        for op in &script.ops {
            if let Op::Read { chunk, priority } = *op {
                accesses += 1;
                if cache.access(chunk) == Lookup::Miss {
                    cache.insert(chunk, priority);
                }
            }
        }
    }
    (accesses, caches.iter().map(|c| c.stats().hits).sum())
}

impl Workload for SweepWarm {
    /// 135 points ≈ 1 s a pass.
    const PASSES: usize = 8;

    fn setup(ctx: &Ctx) -> Result<Self, String> {
        let stripes = ctx.scaled(4096, 128) as u32;
        let errors = ctx.scaled(512, 16);
        let workers = ctx.scaled(128, 8);
        let mut configs = Vec::with_capacity(SHAPES.len() * POINTS_PER_SHAPE);
        for (shape, (code, p)) in SHAPES.into_iter().enumerate() {
            for policy in POLICIES {
                for cache_mb in CACHE_MB {
                    let cfg = ExperimentConfig::builder()
                        .code(code)
                        .p(p)
                        .policy(policy)
                        .cache_mb(cache_mb)
                        .stripes(stripes)
                        .error_count(errors)
                        .workers(workers)
                        .seed(ctx.derive("sweep_warm.campaign", shape))
                        .gen_threads(1)
                        .build()
                        .map_err(|e| e.to_string())?;
                    configs.push(cfg);
                }
            }
        }
        let store = PlanStore::new();
        let plans = (0..SHAPES.len())
            .map(|shape| {
                store
                    .plan(&configs[shape * POINTS_PER_SHAPE])
                    .map(|(plan, _)| plan)
                    .map_err(|e| e.to_string())
            })
            .collect::<Result<_, _>>()?;
        Ok(SweepWarm {
            configs,
            store,
            plans,
        })
    }

    fn pass(&mut self, pass: &mut Pass) -> Result<(), String> {
        // Latency of a point = gap between consecutive progress callbacks
        // (the first gap includes the sweep's own start-up).
        let clock = Mutex::new((Instant::now(), Vec::with_capacity(self.configs.len())));
        let points = sweep_with_progress(&self.configs, 1, &self.store, |_| {
            let mut clock = clock.lock().expect("single sweep thread");
            let now = Instant::now();
            let gap = now - clock.0;
            clock.0 = now;
            clock.1.push(gap);
        })
        .map_err(|e| e.to_string())?;
        let gaps = clock.into_inner().expect("single sweep thread").1;
        if points.len() != self.configs.len() || gaps.len() != points.len() {
            return Err(format!("sweep returned {} points", points.len()));
        }
        for (index, (point, gap)) in points.iter().zip(gaps).enumerate() {
            pass.record(gap);
            pass.check(
                point.metrics.chunks_recovered as u64,
                self.check(index, &point.metrics),
            );
            pass.sim.add_metrics(&point.metrics);
        }
        Ok(())
    }

    fn trace(
        &mut self,
        _ctx: &Ctx,
        tracer: &mut Tracer,
        baseline: &Baseline,
        layers: &mut Values,
    ) -> Result<(), String> {
        let mut scratch = EngineScratch::new();
        let before = self.store.stats();
        let (mut script_ops, mut accesses) = (0u64, 0u64);
        for (index, cfg) in self.configs.iter().enumerate() {
            let op = tracer.open_op();
            let warm = tracer.open("core.plan_warm");
            let (plan, source) = self.store.plan(cfg).map_err(|e| e.to_string())?;
            tracer.close(warm);
            let simulate = tracer.open("core.simulate");
            let metrics = run_planned_with_scratch(cfg, &plan, source, &mut scratch);
            tracer.close(simulate);
            tracer.close(op);

            let replay = tracer.open_replay(simulate, "cache.replay");
            let (replayed, hits) = replay_caches(cfg, &plan);
            tracer.close(replay);
            if hits != metrics.cache.hits || replayed != metrics.cache.accesses() {
                return Err(format!(
                    "point {index}: cache replay saw {hits} hits in {replayed} accesses, the engine {} in {}",
                    metrics.cache.hits,
                    metrics.cache.accesses()
                ));
            }
            self.check(index, &metrics)?;
            accesses += replayed;
            script_ops += plan.scripts.iter().map(|s| s.ops.len() as u64).sum::<u64>();
        }
        let after = self.store.stats();
        let lookups = (after.hits + after.misses - before.hits - before.misses).max(1);
        layers.set(
            "core.planstore_hit_ratio",
            (after.hits - before.hits) as f64 / lookups as f64,
        );
        let warm_us: Vec<f64> = tracer
            .durations_ms("core.plan_warm")
            .iter()
            .map(|ms| ms * 1e3)
            .collect();
        layers.set("core.plan_warm_us", median(&warm_us));
        let simulate_ms = tracer.durations_ms("core.simulate");
        let replay_ms = tracer.durations_ms("cache.replay");
        layers.set("core.simulate_ms", median(&simulate_ms));
        layers.set(
            "disksim.ns_per_script_op",
            simulate_ms.iter().sum::<f64>() * 1e6 / script_ops.max(1) as f64,
        );
        layers.set(
            "cache.ns_per_access",
            replay_ms.iter().sum::<f64>() * 1e6 / accesses.max(1) as f64,
        );
        layers.set(
            "disksim.engine_self_ms",
            median(&tracer.self_ms("core.simulate")),
        );
        let mut shape = PlanShape::default();
        for plan in &self.plans {
            shape.add(plan);
        }
        shape.record(layers);

        // ROADMAP item 5's budget: the same sweep with every point opted
        // in to fbf-obs and a subscriber that discards everything.
        let mut observed = self.configs.clone();
        for cfg in &mut observed {
            cfg.obs = true;
        }
        let previous = fbf::obs::uninstall();
        fbf::obs::install(Arc::new(fbf::obs::NoopSubscriber));
        let t = Instant::now();
        let swept = sweep_with_progress(&observed, 1, &self.store, |_| {});
        let observed_s = t.elapsed().as_secs_f64();
        fbf::obs::uninstall();
        if let Some(subscriber) = previous {
            fbf::obs::install(subscriber);
        }
        swept.map_err(|e| e.to_string())?;
        layers.set(
            "obs.enabled_overhead_pct",
            100.0 * (observed_s / baseline.pass_busy_s.max(1e-9) - 1.0),
        );
        Ok(())
    }
}
