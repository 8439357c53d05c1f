//! Memoised campaign planning: generate each recovery plan once, share it
//! across every sweep point that needs it.
//!
//! A figure-sized sweep (Fig. 8: 4 codes × 3 primes × 5 policies × 9 cache
//! sizes) runs 540 experiments but only 12 *distinct campaigns* — the
//! recovery schemes (priorities included) and worker scripts depend only on
//! `(code, p, stripes, error_count, seed, scheme, workers)`, not on the
//! cache policy or size under test. [`PlanStore`] keys planned campaigns by
//! exactly that tuple: the first experiment to need a campaign pays the cold
//! generation cost, every later one shares the artifact read-only through
//! an [`Arc`].
//!
//! Table IV reports the *cold* generation cost, so memoisation must not
//! launder it away: [`PlannedCampaign::generation`] records the cold
//! wall-clock, warm lookups reuse that figure, and each experiment's
//! [`Metrics`](crate::metrics::Metrics) carries a [`PlanSource`] so reports
//! can tell a measured cost from an inherited one.

use crate::config::ExperimentConfig;
use crate::runner::RunError;
use fbf_cache::FxHashMap;
use fbf_codes::{CodeSpec, StripeCode};
use fbf_disksim::WorkerScript;
use fbf_obs::HostTime;
use fbf_recovery::{
    build_scripts_borrowed, plan_campaign_parallel, ErrorGroup, ExecConfig, RecoveryScheme,
    SchemeKind,
};
use fbf_workload::{generate_errors, ErrorGenConfig};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The configuration fields a planned campaign actually depends on.
///
/// Everything else in [`ExperimentConfig`] — policy, cache size, sharing,
/// disk model — shapes the *simulation* of the plan, not the plan itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PlanKey {
    /// Erasure code under test.
    pub code: CodeSpec,
    /// The code's prime parameter.
    pub p: usize,
    /// Stripes in the data zone (error placement domain).
    pub stripes: u32,
    /// Errors in the campaign.
    pub error_count: usize,
    /// Campaign RNG seed.
    pub seed: u64,
    /// Recovery-scheme generator.
    pub scheme: SchemeKind,
    /// SOR workers (fixes the stripe → worker script assignment).
    pub workers: usize,
}

impl PlanKey {
    /// Project a full experiment configuration onto its planning key.
    pub fn of(cfg: &ExperimentConfig) -> Self {
        PlanKey {
            code: cfg.code,
            p: cfg.p,
            stripes: cfg.stripes,
            error_count: cfg.error_count,
            seed: cfg.seed,
            scheme: cfg.scheme,
            workers: cfg.workers,
        }
    }
}

/// Whether an experiment's plan was generated for it or reused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanSource {
    /// The plan was generated by this experiment (its `generation` time is
    /// a measurement).
    Cold,
    /// The plan came from a [`PlanStore`] hit (its `generation` time is
    /// inherited from the cold run that produced it).
    Warm,
}

impl PlanSource {
    /// Short label for reports.
    pub fn name(&self) -> &'static str {
        match self {
            PlanSource::Cold => "cold",
            PlanSource::Warm => "warm",
        }
    }
}

/// Everything the simulator needs about one campaign, generated once.
#[derive(Debug, Clone)]
pub struct PlannedCampaign {
    /// The key this campaign was planned under.
    pub key: PlanKey,
    /// The drawn error campaign.
    pub errors: ErrorGroup,
    /// One recovery scheme per damaged stripe, in stripe order, each
    /// carrying its format's FBF priority table.
    pub schemes: Vec<RecoveryScheme>,
    /// Per-worker simulator scripts (SOR round-robin over `key.workers`).
    /// Empty in a rebuild shard's plan, whose waves lower their own.
    pub scripts: Vec<WorkerScript>,
    /// Stripe → damaged column, for VDF's victim tracking. Fast-hashed:
    /// VDF consults it on every cache access in the simulator hot loop.
    pub victim_map: Arc<FxHashMap<u32, u16>>,
    /// Array columns (disks) of the built code, for the address mapping.
    pub cols: usize,
    /// Rows per stripe of the built code.
    pub rows: usize,
    /// Lost chunks across the campaign.
    pub chunks_lost: usize,
    /// Host wall-clock spent on cold scheme + priority generation — the
    /// paper's Table IV "extra calculation" cost.
    pub generation: HostTime,
}

impl PlannedCampaign {
    /// Generate a campaign from scratch (the *cold* path), timing the
    /// scheme-generation step.
    ///
    /// Every [`ExperimentConfig::gen_threads`] value plans through the
    /// format-memoising controller; the value only sets how many host
    /// threads share the work (0 = all cores) and never changes the plan.
    pub fn cold(cfg: &ExperimentConfig) -> Result<Self, RunError> {
        let code = StripeCode::build(cfg.code, cfg.p)?;
        let errors = generate_errors(
            &code,
            &ErrorGenConfig::paper_default(cfg.stripes, cfg.error_count, cfg.seed),
        );
        Self::plan_on::<true>(cfg, &code, errors)
    }

    /// [`cold`](Self::cold) with a caller-supplied campaign instead of the
    /// seeded synthetic one — the trace-replay path (`fbf --trace-in`).
    /// Replaying the trace rendered from a synthetic campaign goes through
    /// the exact same planning code, so results match the original run.
    pub fn cold_with_errors(cfg: &ExperimentConfig, errors: ErrorGroup) -> Result<Self, RunError> {
        Self::plan_on::<true>(cfg, &StripeCode::build(cfg.code, cfg.p)?, errors)
    }

    /// Plan `errors` on the built `code` of `cfg`, lowering its scripts
    /// when `LOWER`. It is a const so that the campaign path compiles
    /// without the branch: as a runtime flag, the benchmark's `plan_cold`
    /// read ≈ 4 % slower on a 2-vCPU Xeon.
    fn plan_on<const LOWER: bool>(
        cfg: &ExperimentConfig,
        code: &StripeCode,
        errors: ErrorGroup,
    ) -> Result<Self, RunError> {
        let obs = cfg.obs && fbf_obs::enabled();
        let plan_span = if obs {
            Some(fbf_obs::span("plan", "cold"))
        } else {
            None
        };

        // FBF's "extra calculation" — wall-clock it for Table IV.
        let t0 = Instant::now();
        let schemes = plan_campaign_parallel(code, &errors, cfg.scheme, cfg.gen_threads)?;
        let generation = HostTime::since(t0);

        let scripts = if LOWER {
            build_scripts_borrowed(
                &schemes,
                &ExecConfig {
                    workers: cfg.workers,
                    ..Default::default()
                },
            )
        } else {
            Vec::new()
        };
        let victim_map: FxHashMap<u32, u16> = errors
            .errors
            .iter()
            .map(|e| (e.stripe, e.col as u16))
            .collect();
        // One repair per lost cell.
        let chunks_lost = schemes.iter().map(|s| s.repairs.len()).sum();

        if let Some(span) = plan_span {
            span.end_with(&[
                ("code", fbf_obs::Value::Str(cfg.code.name())),
                ("p", fbf_obs::Value::U64(cfg.p as u64)),
                ("stripes", fbf_obs::Value::U64(cfg.stripes as u64)),
                ("errors", fbf_obs::Value::U64(cfg.error_count as u64)),
                ("schemes", fbf_obs::Value::U64(schemes.len() as u64)),
                ("host_generation_ms", fbf_obs::Value::F64(generation.ms())),
            ]);
        }
        Ok(PlannedCampaign {
            key: PlanKey::of(cfg),
            errors,
            schemes,
            scripts,
            victim_map: Arc::new(victim_map),
            cols: code.cols(),
            rows: code.rows(),
            chunks_lost,
            generation,
        })
    }
}

/// Hit/miss counters of a [`PlanStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PlanStoreStats {
    /// Lookups that reused an existing campaign.
    pub hits: u64,
    /// Lookups that had to generate cold.
    pub misses: u64,
}

/// Concurrent memo of planned campaigns, keyed by [`PlanKey`].
///
/// Lookups for distinct keys generate in parallel; concurrent lookups for
/// the *same* key serialise on a per-key slot, so each campaign is
/// generated exactly once no matter how many sweep workers race for it.
#[derive(Debug, Default)]
pub struct PlanStore {
    /// Keyed by the plan's [`PlanKey`] and whether it carries lowered
    /// scripts: a campaign plan does, a rebuild shard's plan does not.
    /// Keying the two apart means a campaign lookup can never be handed
    /// a scriptless plan.
    slots: Mutex<HashMap<(PlanKey, bool), Slot>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

type Slot = Arc<Mutex<Option<Arc<PlannedCampaign>>>>;

impl PlanStore {
    /// An empty store.
    pub fn new() -> Self {
        PlanStore::default()
    }

    /// The campaign for `cfg`, generated cold on first request and shared
    /// on every one after. The returned [`PlanSource`] says which happened.
    pub fn plan(
        &self,
        cfg: &ExperimentConfig,
    ) -> Result<(Arc<PlannedCampaign>, PlanSource), RunError> {
        let planned = self.memo((PlanKey::of(cfg), true), || PlannedCampaign::cold(cfg))?;
        if planned.1 == PlanSource::Warm && cfg.obs && fbf_obs::enabled() {
            fbf_obs::instant(
                "plan",
                "warm",
                &[
                    ("code", fbf_obs::Value::Str(cfg.code.name())),
                    ("p", fbf_obs::Value::U64(cfg.p as u64)),
                ],
            );
        }
        Ok(planned)
    }

    /// A rebuild shard's plan: [`plan`](Self::plan) with a caller-supplied
    /// error campaign instead of the seeded synthetic draw (full-column
    /// damage derived from the failed disk), and no scripts — the rebuild
    /// lowers each wave from the plan's schemes, never the whole shard.
    /// Shard plans are stored apart from campaign plans, so `plan` never
    /// returns one to a caller that would run its (missing) scripts.
    ///
    /// `errors` runs only on the cold path. The caller must guarantee
    /// that `cfg`'s [`PlanKey`] uniquely determines the supplied campaign
    /// (rebuild shards salt `cfg.seed` per shard for exactly this
    /// reason); two callers mapping one key to different error groups
    /// would silently share the first one's plan.
    pub(crate) fn plan_custom(
        &self,
        cfg: &ExperimentConfig,
        errors: impl FnOnce() -> ErrorGroup,
    ) -> Result<(Arc<PlannedCampaign>, PlanSource), RunError> {
        self.memo((PlanKey::of(cfg), false), || {
            let code = StripeCode::build(cfg.code, cfg.p)?;
            PlannedCampaign::plan_on::<false>(cfg, &code, errors())
        })
    }

    /// The plan stored under `key`, made by `cold` on first request.
    fn memo(
        &self,
        key: (PlanKey, bool),
        cold: impl FnOnce() -> Result<PlannedCampaign, RunError>,
    ) -> Result<(Arc<PlannedCampaign>, PlanSource), RunError> {
        let slot = {
            let mut slots = self.slots.lock().unwrap_or_else(|p| p.into_inner());
            Arc::clone(slots.entry(key).or_default())
        };

        // Holding only this key's lock: planners for other keys proceed,
        // racers for this key wait and then hit.
        let mut entry = slot.lock().unwrap_or_else(|p| p.into_inner());
        if let Some(plan) = entry.as_ref() {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok((Arc::clone(plan), PlanSource::Warm));
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let plan = Arc::new(cold()?);
        *entry = Some(Arc::clone(&plan));
        Ok((plan, PlanSource::Cold))
    }

    /// Hit/miss counts so far.
    pub fn stats(&self) -> PlanStoreStats {
        PlanStoreStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }

    /// Distinct campaigns currently stored.
    pub fn len(&self) -> usize {
        self.slots.lock().unwrap_or_else(|p| p.into_inner()).len()
    }

    /// `len() == 0`.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fbf_cache::PolicyKind;

    fn tiny() -> ExperimentConfig {
        ExperimentConfig::builder()
            .stripes(128)
            .error_count(32)
            .workers(4)
            .gen_threads(1)
            .build()
            .unwrap()
    }

    #[test]
    fn key_ignores_simulation_fields() {
        let base = tiny();
        let mut other = base;
        other.policy = PolicyKind::Lru;
        other.cache_mb = 2;
        other.cache_hit_time = fbf_disksim::SimTime::from_micros(1);
        assert_eq!(PlanKey::of(&base), PlanKey::of(&other));

        let mut different = base;
        different.seed = 999;
        assert_ne!(PlanKey::of(&base), PlanKey::of(&different));
    }

    #[test]
    fn store_generates_once_per_key() {
        let store = PlanStore::new();
        let cfg = tiny();
        let (a, src_a) = store.plan(&cfg).unwrap();
        let (b, src_b) = store.plan(&cfg).unwrap();
        assert_eq!(src_a, PlanSource::Cold);
        assert_eq!(src_b, PlanSource::Warm);
        assert!(Arc::ptr_eq(&a, &b), "warm lookups share the cold artifact");
        assert_eq!(store.stats(), PlanStoreStats { hits: 1, misses: 1 });
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn cold_plan_matches_store_plan() {
        let cfg = tiny();
        let cold = PlannedCampaign::cold(&cfg).unwrap();
        let store = PlanStore::new();
        let (stored, _) = store.plan(&cfg).unwrap();
        assert_eq!(cold.errors, stored.errors);
        assert_eq!(cold.schemes, stored.schemes);
        assert_eq!(cold.scripts, stored.scripts);
        assert_eq!(cold.chunks_lost, stored.chunks_lost);
    }

    #[test]
    fn plan_does_not_depend_on_gen_threads() {
        let serial = PlannedCampaign::cold(&tiny()).unwrap();
        assert!(
            serial
                .scripts
                .iter()
                .flat_map(|s| &s.ops)
                .any(|op| matches!(
                    op,
                    fbf_disksim::Op::Read { priority, .. } if *priority > 1
                )),
            "the campaign must exercise shared priorities"
        );
        let damage = serial.errors.damage_by_stripe();
        assert_eq!(
            serial.chunks_lost,
            damage.iter().map(|d| d.cells.len()).sum::<usize>()
        );
        // Lowering with each scheme's own table is lowering through the
        // campaign's dictionary, op for op.
        let cfg = tiny();
        let exec = ExecConfig {
            workers: cfg.workers,
            ..Default::default()
        };
        let dictionary = fbf_recovery::PriorityDictionary::from_schemes(&serial.schemes);
        assert_eq!(
            serial.scripts,
            fbf_recovery::build_scripts(&serial.schemes, &dictionary, &exec)
        );
        for gen_threads in [0, 2, 5] {
            let mut cfg = tiny();
            cfg.gen_threads = gen_threads;
            let plan = PlannedCampaign::cold(&cfg).unwrap();
            // Scheme equality compares the priority tables too.
            assert_eq!(plan.schemes, serial.schemes, "gen_threads {gen_threads}");
            assert_eq!(plan.scripts, serial.scripts, "gen_threads {gen_threads}");
            assert_eq!(plan.chunks_lost, serial.chunks_lost);
        }
    }

    #[test]
    fn concurrent_same_key_plans_once() {
        let store = PlanStore::new();
        let cfg = tiny();
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| store.plan(&cfg).unwrap());
            }
        });
        let stats = store.stats();
        assert_eq!(stats.misses, 1, "exactly one cold generation");
        assert_eq!(stats.hits, 7);
    }

    #[test]
    fn custom_errors_memoise_once_per_key() {
        let store = PlanStore::new();
        let cfg = tiny();
        let code = fbf_codes::StripeCode::build(cfg.code, cfg.p).unwrap();
        let calls = std::sync::atomic::AtomicUsize::new(0);
        let make = || {
            calls.fetch_add(1, Ordering::Relaxed);
            fbf_recovery::ErrorGroup::full_columns(&code, (0..8).map(|s| (s, 0))).unwrap()
        };
        let (a, src_a) = store.plan_custom(&cfg, make).unwrap();
        let (b, src_b) = store
            .plan_custom(&cfg, || panic!("warm hit must not rebuild errors"))
            .unwrap();
        assert_eq!(src_a, PlanSource::Cold);
        assert_eq!(src_b, PlanSource::Warm);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(calls.load(Ordering::Relaxed), 1);
        assert_eq!(a.errors.len(), 8, "the supplied campaign was planned");
        assert_eq!(a.schemes.len(), 8);
        assert!(a.scripts.is_empty(), "a shard plan lowers no scripts");
    }

    #[test]
    fn shard_plans_are_stored_apart_from_campaign_plans() {
        let store = PlanStore::new();
        let cfg = tiny();
        let code = fbf_codes::StripeCode::build(cfg.code, cfg.p).unwrap();
        let shard = || fbf_recovery::ErrorGroup::full_columns(&code, (0..8).map(|s| (s, 0)));
        let (scriptless, _) = store.plan_custom(&cfg, || shard().unwrap()).unwrap();
        // The same key through the campaign door plans its own campaign,
        // scripts and all.
        let (campaign, source) = store.plan(&cfg).unwrap();
        assert_eq!(source, PlanSource::Cold);
        assert!(!Arc::ptr_eq(&scriptless, &campaign));
        assert_eq!(
            campaign.scripts,
            PlannedCampaign::cold(&cfg).unwrap().scripts
        );
        assert!(!campaign.scripts.is_empty());
        // And the other way round.
        let other = PlanStore::new();
        other.plan(&cfg).unwrap();
        let (shard_plan, source) = other.plan_custom(&cfg, || shard().unwrap()).unwrap();
        assert_eq!(source, PlanSource::Cold);
        assert!(shard_plan.scripts.is_empty());
        assert_eq!(store.len(), 2);
        assert_eq!(store.stats(), PlanStoreStats { hits: 0, misses: 2 });
    }

    #[test]
    fn bad_prime_surfaces_and_store_stays_usable() {
        let store = PlanStore::new();
        let mut bad = tiny();
        bad.p = 8;
        assert!(store.plan(&bad).is_err());
        let (_, src) = store.plan(&tiny()).unwrap();
        assert_eq!(src, PlanSource::Cold);
    }
}
