//! Array-wide declustered rebuild: wave-scheduled whole-disk recovery
//! over many more disks than stripe columns.
//!
//! The partial-stripe machinery in this crate repairs one campaign at a
//! time against a clustered array (`disks == cols`). A whole-disk failure
//! in a *declustered* array is a different animal: with the D3 placement
//! ([`fbf_disksim::Placement::Declustered`]) each stripe's columns land on
//! a per-stripe permutation of `N >= 100` disks, so the failed disk's
//! stripes — and the surviving chunks their repairs must read — are
//! scattered across the whole array. Rebuilding them all at once would be
//! maximally parallel but would also bury foreground I/O; rebuilding them
//! serially wastes the declustering.
//!
//! [`execute_rebuild`] drives the middle path:
//!
//! 1. **Discover** the stripes with a column on the failed disk (at most
//!    one each — per-stripe placements are injective) and shard them
//!    round-robin into repair *campaigns*.
//! 2. **Plan** each campaign through the shared
//!    [`PlanStore`](crate::plan::PlanStore): a full-column
//!    [`PartialStripeError`](fbf_recovery::PartialStripeError) per stripe,
//!    planned by the same scheme generators as every other experiment but
//!    lowered to no scripts — the waves lower their own. Shard configs
//!    salt the campaign seed so each shard gets its own
//!    [`PlanKey`](crate::plan::PlanKey).
//! 3. **Schedule**: each stripe's projected per-disk read footprint — one
//!    read histogram per lost column, projected through the stripe's
//!    placement — feeds
//!    a [`RebuildScheduler`], which admits *waves* bounded by a per-disk
//!    read cap and arbitrated by a [`Fairness`] policy (round-robin or
//!    deficit-weighted) across the campaigns. Admission never looks at a
//!    simulated outcome, so every wave is known before the first runs.
//! 4. **Simulate** each wave as one engine pass — recovery scripts plus an
//!    optional foreground application-read script seeded by the wave's
//!    index — and merge the waves back-to-back on one virtual clock
//!    exactly as faulted rounds merge (the passes of [`crate::faulted`]).
//!    No pass reads another's outcome, so the waves run on the host's
//!    cores and their reports fold strictly in wave order: the outcome is
//!    the same on any number of threads.
//!
//! The outcome carries the clustered-vs-declustered comparison metrics:
//! reconstruction time, per-disk rebuild-read balance and skew, and
//! foreground p99/p999 during the rebuild.

use crate::config::{ConfigError, ExperimentConfig};
use crate::faulted::{Merged, Passes};
use crate::plan::{PlanStore, PlannedCampaign};
use crate::runner::RunError;
use crate::sweep::{host_threads, work_steal};
use fbf_cache::FxHashMap;
use fbf_codes::StripeCode;
use fbf_disksim::{ArrayMapping, EngineScratch, Placement, RequestClass, RunReport, SimTime};
use fbf_obs::Json;
use fbf_recovery::{
    ErrorGroup, ExecConfig, Fairness, RebuildItem, RebuildScheduler, RecoveryScheme,
};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, PoisonError};

/// One array-wide rebuild, fully specified.
#[derive(Debug, Clone)]
pub struct RebuildSpec {
    /// Code, cache, disk model, workers, seed — everything the per-wave
    /// engine passes inherit. `stripes` bounds the data zone searched for
    /// affected stripes; `error_count` is not read (the failed disk decides
    /// the campaign) beyond having to pass [`ExperimentConfig::validate`].
    pub base: ExperimentConfig,
    /// Physical disks in the array (`>=` the code's column count).
    pub disks: usize,
    /// Column→disk placement under test.
    pub placement: Placement,
    /// The disk that failed.
    pub failed_disk: usize,
    /// Max rebuild reads any one disk absorbs per wave.
    pub per_disk_cap: u32,
    /// Arbitration between the repair campaigns.
    pub fairness: Fairness,
    /// Campaign shards the affected stripes are split into.
    pub campaigns: usize,
    /// Foreground application reads issued alongside each wave (0 = no
    /// foreground traffic).
    pub app_reads_per_wave: usize,
}

impl RebuildSpec {
    /// A spec with scheduling defaults: declustered placement seeded from
    /// the base config, disk 0 failed, a 64-read cap, round-robin over 4
    /// campaigns, and a light foreground stream.
    pub fn new(base: ExperimentConfig, disks: usize) -> Self {
        RebuildSpec {
            placement: Placement::Declustered { seed: base.seed },
            base,
            disks,
            failed_disk: 0,
            per_disk_cap: 64,
            fairness: Fairness::RoundRobin,
            campaigns: 4,
            app_reads_per_wave: 128,
        }
    }

    /// Check the spec against the array `code`'s stripes go on, for what
    /// the driver could otherwise only hit as a panic or silently ignore
    /// (a fault aimed past the last disk): [`execute_rebuild`] and the
    /// request reader both refuse through here.
    pub fn validate(&self, code: &StripeCode) -> Result<(), ConfigError> {
        let disks = self.disks;
        if disks < code.cols() {
            return Err(ConfigError::TooFewDisks {
                disks,
                cols: code.cols(),
            });
        }
        if u32::try_from(disks).is_err() {
            return Err(ConfigError::TooManyDisks(disks));
        }
        if self.failed_disk >= disks {
            return Err(ConfigError::FailedDiskOutOfRange {
                failed_disk: self.failed_disk,
                disks,
            });
        }
        self.base.check_fault_disks(disks)?;
        if self.per_disk_cap == 0 {
            return Err(ConfigError::Zero("cap"));
        }
        if self.campaigns == 0 {
            return Err(ConfigError::Zero("campaigns"));
        }
        Ok(())
    }
}

/// Everything an array-wide rebuild produced.
#[derive(Debug)]
pub struct RebuildOutcome {
    /// All waves merged on one virtual clock (makespans summed, counters
    /// and digests merged).
    pub report: RunReport,
    /// The placement that was rebuilt under.
    pub placement: Placement,
    /// The fairness policy that arbitrated the campaigns.
    pub fairness: Fairness,
    /// Waves the scheduler admitted.
    pub waves: usize,
    /// Stripes with a column on the failed disk.
    pub stripes_affected: usize,
    /// Stripes whose repair completed without a hard read failure.
    pub stripes_rebuilt: usize,
    /// Stripes whose repair hit a hard read failure mid-wave (only under
    /// an injected fault plan); their repair is *not* counted done.
    pub failed_stripes: Vec<u32>,
    /// Total virtual reconstruction time, seconds.
    pub reconstruction_s: f64,
    /// Rebuild (non-App) reads absorbed by each disk.
    pub per_disk_rebuild_reads: Vec<u64>,
    /// Busiest disk's rebuild reads over the all-disk mean (1.0 = even).
    pub rebuild_skew: f64,
    /// Foreground p99 read latency during the rebuild, ms.
    pub app_p99_ms: Option<f64>,
    /// Foreground p999 read latency during the rebuild, ms.
    pub app_p999_ms: Option<f64>,
}

impl RebuildOutcome {
    /// The outcome as a JSON object (schemaless sibling of
    /// [`Metrics::to_json_value`](crate::metrics::Metrics::to_json_value)).
    pub fn to_json_value(&self) -> Json {
        let n = |v: u64| Json::Num(v as f64);
        let opt = |v: Option<f64>| v.map_or(Json::Null, Json::Num);
        Json::obj([
            ("placement", Json::from(self.placement.name())),
            ("fairness", Json::from(self.fairness.name())),
            ("waves", n(self.waves as u64)),
            ("stripes_affected", n(self.stripes_affected as u64)),
            ("stripes_rebuilt", n(self.stripes_rebuilt as u64)),
            (
                "failed_stripes",
                Json::Arr(
                    self.failed_stripes
                        .iter()
                        .map(|&s| n(u64::from(s)))
                        .collect(),
                ),
            ),
            ("reconstruction_s", Json::Num(self.reconstruction_s)),
            ("disk_reads", n(self.report.disk_reads)),
            ("disk_writes", n(self.report.disk_writes)),
            ("rebuild_skew", Json::Num(self.rebuild_skew)),
            ("app_p99_ms", opt(self.app_p99_ms)),
            ("app_p999_ms", opt(self.app_p999_ms)),
            (
                "per_disk_rebuild_reads",
                Json::Arr(self.per_disk_rebuild_reads.iter().map(|&r| n(r)).collect()),
            ),
        ])
    }

    /// [`to_json_value`](Self::to_json_value), rendered.
    pub fn to_json(&self) -> String {
        self.to_json_value().render()
    }
}

/// Salt a shard's campaign seed so each shard owns a distinct
/// [`PlanKey`](crate::plan::PlanKey) in the shared store.
fn shard_seed(base: u64, shard: usize) -> u64 {
    base ^ (shard as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// [`execute_rebuild`] with a private plan store and scratch — the
/// standalone entry point (CLI, tests).
pub fn run_rebuild(spec: &RebuildSpec) -> Result<RebuildOutcome, RunError> {
    execute_rebuild(spec, &PlanStore::new(), &mut EngineScratch::new())
}

/// Drive one array-wide rebuild to completion, simulating its waves on
/// the host's cores. See the module docs for the model; `store` is shared
/// so concurrent rebuilds (or a rebuild next to a sweep) reuse each
/// other's planning, and `scratch` serves the calling thread's waves.
pub fn execute_rebuild(
    spec: &RebuildSpec,
    store: &PlanStore,
    scratch: &mut EngineScratch,
) -> Result<RebuildOutcome, RunError> {
    execute_rebuild_on(spec, store, scratch, host_threads())
}

/// One admitted wave: the schemes it repairs, borrowed from the shard
/// plans, and the stripes still queued behind it.
struct Wave<'a> {
    schemes: Vec<&'a RecoveryScheme>,
    pending: usize,
}

/// Wave reports waiting for every earlier wave, and the fold they join
/// in wave order.
#[derive(Default)]
struct Fold {
    ready: BTreeMap<usize, RunReport>,
    merged: Merged,
}

/// [`execute_rebuild`] on at most `threads` threads. The outcome does not
/// depend on `threads`.
pub(crate) fn execute_rebuild_on(
    spec: &RebuildSpec,
    store: &PlanStore,
    scratch: &mut EngineScratch,
    threads: usize,
) -> Result<RebuildOutcome, RunError> {
    let cfg = &spec.base;
    cfg.validate()?;
    let code = StripeCode::build(cfg.code, cfg.p)?;
    spec.validate(&code)?;
    let mapping =
        ArrayMapping::with_placement(spec.disks, code.rows(), code.cols(), spec.placement);

    let shards = plan_shards(spec, &code, &mapping, store)?;
    let stripes_affected: usize = shards.iter().map(|s| s.stripes.len()).sum();

    // One merged victim map (VDF tracks damaged columns across all
    // campaigns at once).
    let mut victims: FxHashMap<u32, u16> = FxHashMap::default();
    for shard in &shards {
        victims.extend(shard.plan.victim_map.iter().map(|(&s, &c)| (s, c)));
    }

    // 3. Schedule: projected per-disk read footprints feed the admission
    // scheduler.
    let mut sched = RebuildScheduler::new(spec.disks, spec.per_disk_cap, spec.fairness);
    for item in admission_items(&shards, &mapping) {
        sched.push(item);
    }
    // Admission never looks at a simulated outcome, so every wave is known
    // before any runs.
    let mut waves = Vec::new();
    while !sched.is_empty() {
        // Schemes are borrowed from the shard plans, priorities and all.
        let schemes = sched
            .next_wave()
            .iter()
            .map(|item| {
                let shard = &shards[item.campaign];
                let idx = shard
                    .stripes
                    .binary_search_by_key(&item.stripe, |&(stripe, _)| stripe)
                    .expect("the scheduler hands back the stripes it was given");
                &shard.plan.schemes[idx]
            })
            .collect();
        waves.push(Wave {
            schemes,
            pending: sched.pending(),
        });
    }

    // 4. Simulate: every wave is an independent engine pass (its scripts,
    // its seeded foreground reads, its pass index), so waves run on any
    // thread and their reports fold in wave order onto one virtual clock.
    let victims = Arc::new(victims);
    let passes = Passes::new(cfg, mapping, Arc::clone(&victims));
    let exec_cfg = ExecConfig {
        workers: cfg.workers,
        ..Default::default()
    };
    let obs = cfg.obs && fbf_obs::enabled();
    let fold = Mutex::new(Fold::default());
    work_steal(waves.len(), threads, scratch, |_, cursor, scratch| {
        while let Some(k) = cursor.claim() {
            let mut scripts = fbf_recovery::build_scripts_borrowed(&waves[k].schemes, &exec_cfg);
            if spec.app_reads_per_wave > 0 {
                scripts.push(fbf_workload::generate_app_reads(
                    &code,
                    &fbf_workload::AppIoConfig {
                        stripes: cfg.stripes,
                        reads: spec.app_reads_per_wave,
                        seed: cfg.seed ^ (k as u64 + 1),
                        ..Default::default()
                    },
                ));
            }
            let report = passes.engine(k).run_with_scratch(&scripts, scratch);
            drop(scripts);
            // Fold every report whose predecessors are all in.
            let mut fold = fold.lock().unwrap_or_else(PoisonError::into_inner);
            let Fold { ready, merged } = &mut *fold;
            ready.insert(k, report);
            while let Some(report) = ready.remove(&merged.passes()) {
                merged.absorb(report);
                if obs {
                    let wave = &waves[merged.passes() - 1];
                    fbf_obs::instant(
                        "rebuild",
                        "wave",
                        &[
                            ("wave", fbf_obs::Value::U64(merged.passes() as u64)),
                            ("stripes", fbf_obs::Value::U64(wave.schemes.len() as u64)),
                            ("pending", fbf_obs::Value::U64(wave.pending as u64)),
                        ],
                    );
                }
            }
        }
    });
    let waves = waves.len();
    let report = fold
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner)
        .merged
        .finish();

    // A failed read abandons a repair only on a stripe under rebuild;
    // foreground reads fail on any stripe of the zone.
    let mut failed_stripes: Vec<u32> = report
        .failed_reads
        .iter()
        .map(|f| f.chunk.stripe)
        .filter(|s| victims.contains_key(s))
        .collect();
    failed_stripes.sort_unstable();
    failed_stripes.dedup();
    let app = RequestClass::App.index();
    let app_ms = |q: f64| {
        let ns = report.class_latency[app].quantile_ns(q);
        ns.map(|ns| SimTime::from_nanos(ns).as_secs_f64() * 1e3)
    };
    Ok(RebuildOutcome {
        reconstruction_s: report.makespan.as_secs_f64(),
        rebuild_skew: report.rebuild_read_skew(),
        app_p99_ms: app_ms(0.99),
        app_p999_ms: app_ms(0.999),
        per_disk_rebuild_reads: report.rebuild_reads_per_disk(),
        placement: spec.placement,
        fairness: spec.fairness,
        waves,
        stripes_affected,
        stripes_rebuilt: stripes_affected - failed_stripes.len(),
        failed_stripes,
        report,
    })
}

/// One repair campaign: a round-robin share of the failed disk's stripes.
struct Shard {
    /// `(stripe, lost column)`, ascending by stripe — which is also the
    /// plan's scheme order.
    stripes: Vec<(u32, usize)>,
    plan: Arc<PlannedCampaign>,
}

/// Steps 1 and 2 of [`execute_rebuild`].
fn plan_shards(
    spec: &RebuildSpec,
    code: &StripeCode,
    mapping: &ArrayMapping,
    store: &PlanStore,
) -> Result<Vec<Shard>, RunError> {
    let cfg = &spec.base;
    // 1. Discover: the failed disk's stripes and which column each lost.
    // Per-stripe placements are injective, so at most one column matches.
    let affected: Vec<(u32, usize)> = (0..cfg.stripes)
        .filter_map(|stripe| {
            mapping
                .stripe_disks(stripe)
                .position(|disk| disk == spec.failed_disk)
                .map(|col| (stripe, col))
        })
        .collect();

    // 2. Plan: shard round-robin, one full-column campaign per shard,
    // through the shared store under salted keys.
    let shards = spec.campaigns.min(affected.len().max(1));
    (0..shards)
        .map(|k| {
            let stripes: Vec<_> = affected.iter().skip(k).step_by(shards).copied().collect();
            let mut sub = *cfg;
            sub.error_count = stripes.len();
            sub.seed = shard_seed(cfg.seed, k);
            let group = || {
                ErrorGroup::full_columns(code, stripes.iter().copied())
                    .expect("a column the mapping placed is in range")
            };
            let (plan, _) = store.plan_custom(&sub, group)?;
            Ok(Shard { stripes, plan })
        })
        .collect()
}

/// The scheduler's view of every planned stripe, shard by shard: the read
/// histogram its format counted once, projected through the stripe's
/// placement.
fn admission_items(shards: &[Shard], mapping: &ArrayMapping) -> Vec<RebuildItem> {
    let mut items = Vec::with_capacity(shards.iter().map(|s| s.stripes.len()).sum());
    for (k, shard) in shards.iter().enumerate() {
        for (scheme, &(stripe, _)) in shard.plan.schemes.iter().zip(&shard.stripes) {
            assert_eq!(scheme.stripe, stripe, "plans keep their shard's order");
            let disks = mapping.stripe_disks(stripe);
            items.push(RebuildItem::project(
                k,
                stripe,
                scheme.column_reads(),
                disks,
            ));
        }
    }
    items
}

#[cfg(test)]
mod tests {
    use super::*;
    use fbf_disksim::{DiskKill, FaultPlan, SlowDisk};

    fn base() -> ExperimentConfig {
        ExperimentConfig::builder()
            .stripes(192)
            .error_count(1) // ignored by the rebuild driver
            .workers(8)
            .gen_threads(1)
            .build()
            .unwrap()
    }

    fn spec(placement: Placement) -> RebuildSpec {
        let mut s = RebuildSpec::new(base(), 48);
        s.placement = placement;
        s.per_disk_cap = 16;
        s.app_reads_per_wave = 64;
        s
    }

    #[test]
    fn declustering_cuts_rebuild_skew_and_time() {
        let clustered = run_rebuild(&spec(Placement::Fixed)).unwrap();
        let declustered = run_rebuild(&spec(Placement::Declustered { seed: 7 })).unwrap();
        assert_eq!(
            clustered.stripes_affected, 192,
            "clustered disk 0 carries column 0 of every stripe"
        );
        // Declustering thins the failed disk's stripe set to ~cols/disks
        // of the zone, but it must still find some.
        assert!(declustered.stripes_affected > 0);
        assert!(declustered.stripes_affected < 192);
        // The headline: spreading the same column over the array evens the
        // rebuild reads and shortens reconstruction.
        assert!(
            declustered.rebuild_skew < clustered.rebuild_skew,
            "declustered {:.2} vs clustered {:.2}",
            declustered.rebuild_skew,
            clustered.rebuild_skew
        );
        assert!(declustered.report.disk_reads > 0);
        assert_eq!(
            clustered.stripes_rebuilt, clustered.stripes_affected,
            "no faults → every stripe rebuilds"
        );
    }

    /// `spec` under every fault kind: media and transient errors, a
    /// straggler, and a disk that dies mid-way through the first wave.
    fn faulted(mut spec: RebuildSpec) -> RebuildSpec {
        spec.base.faults = FaultPlan {
            seed: 17,
            media_per_mille: 20,
            transient_per_mille: 40,
            transient_failures_max: 4,
            straggler: Some(SlowDisk {
                disk: 5,
                scale_milli: 3000,
            }),
            disk_kill: Some(DiskKill {
                disk: 9,
                at: SimTime::from_millis(5),
            }),
            ..FaultPlan::none()
        };
        spec
    }

    #[test]
    fn the_outcome_does_not_depend_on_the_thread_count() {
        let mut drr = spec(Placement::Declustered { seed: 5 });
        drr.fairness = Fairness::DeficitWeighted;
        drr.campaigns = 3;
        let mut specs = vec![
            spec(Placement::Fixed),
            spec(Placement::Declustered { seed: 11 }),
            drr,
            faulted(spec(Placement::Declustered { seed: 13 })),
        ];
        for s in &mut specs {
            s.app_reads_per_wave = 128;
        }
        for mut quiet in specs.clone() {
            quiet.app_reads_per_wave = 0;
            specs.push(quiet);
        }
        for s in &specs {
            let run = |threads| {
                execute_rebuild_on(s, &PlanStore::new(), &mut EngineScratch::new(), threads)
                    .unwrap()
            };
            let serial = run(1);
            assert!(serial.waves > 2, "{} waves", serial.waves);
            for threads in [2, 3, 8] {
                let parallel = run(threads);
                let what = format!(
                    "{} {} app_reads={} on {threads} threads",
                    s.placement.name(),
                    s.fairness.name(),
                    s.app_reads_per_wave
                );
                assert_eq!(parallel.to_json(), serial.to_json(), "{what}");
                assert_eq!(
                    format!("{:?}", parallel.report),
                    format!("{:?}", serial.report),
                    "{what}"
                );
            }
        }
    }

    #[test]
    fn a_killed_disk_is_dead_from_time_zero_only_after_the_first_wave() {
        let mut s = spec(Placement::Declustered { seed: 3 });
        let reads = run_rebuild(&s).unwrap().per_disk_rebuild_reads;
        let busiest = (0..reads.len()).max_by_key(|&d| reads[d]).unwrap();
        // A kill long after any wave ends.
        s.base.faults.disk_kill = Some(DiskKill {
            disk: busiest as u32,
            at: SimTime::from_millis(3_600_000),
        });
        // One wave: it runs under the configured plan, so nothing dies.
        s.per_disk_cap = u32::MAX;
        let single = run_rebuild(&s).unwrap();
        assert_eq!(single.waves, 1);
        assert_eq!(single.report.faults.dead_disk_reads, 0);
        // Many waves: from the second on, the disk died at time zero.
        s.per_disk_cap = 16;
        let many = run_rebuild(&s).unwrap();
        assert!(many.waves > 1);
        assert!(many.report.faults.dead_disk_reads > 0);
        assert!(!many.failed_stripes.is_empty());
    }

    #[test]
    fn rebuild_is_deterministic() {
        let s = spec(Placement::Declustered { seed: 11 });
        let a = run_rebuild(&s).unwrap();
        let b = run_rebuild(&s).unwrap();
        assert_eq!(a.report.makespan, b.report.makespan);
        assert_eq!(a.report.disk_reads, b.report.disk_reads);
        assert_eq!(a.waves, b.waves);
        assert_eq!(a.per_disk_rebuild_reads, b.per_disk_rebuild_reads);
        assert_eq!(a.to_json(), b.to_json());
        assert_eq!(format!("{:?}", a.report), format!("{:?}", b.report));
    }

    /// The per-read-slot footprint the driver used to build for every
    /// stripe, kept as the oracle for the per-lost-column projection.
    fn footprint_by_read_slot(
        scheme: &fbf_recovery::RecoveryScheme,
        mapping: &ArrayMapping,
    ) -> Vec<(u32, u32)> {
        let mut reads: BTreeMap<u32, u32> = BTreeMap::new();
        for repair in &scheme.repairs {
            for cell in &repair.option.reads {
                let disk = mapping.disk_of_col(scheme.stripe, cell.c()) as u32;
                *reads.entry(disk).or_insert(0) += 1;
            }
        }
        reads.into_iter().collect()
    }

    #[test]
    fn per_column_footprints_equal_per_read_slot_footprints() {
        use fbf_codes::CodeSpec;
        let mut checked = 0usize;
        for code in [
            CodeSpec::Tip,
            CodeSpec::Hdd1,
            CodeSpec::TripleStar,
            CodeSpec::Star,
        ] {
            for p in [5, 7, 11].into_iter().filter(|&p| p >= code.min_prime()) {
                for placement in [
                    Placement::Fixed,
                    Placement::Rotated,
                    Placement::Declustered { seed: p as u64 },
                ] {
                    let base = ExperimentConfig::builder()
                        .code(code)
                        .p(p)
                        .stripes(96)
                        .error_count(0)
                        .gen_threads(1)
                        .build()
                        .unwrap();
                    let mut spec = RebuildSpec::new(base, 24);
                    spec.placement = placement;
                    spec.failed_disk = 5;
                    spec.campaigns = 3;
                    let code = StripeCode::build(base.code, base.p).unwrap();
                    spec.validate(&code).unwrap();
                    let mapping =
                        ArrayMapping::with_placement(24, code.rows(), code.cols(), placement);
                    let shards = plan_shards(&spec, &code, &mapping, &PlanStore::new()).unwrap();
                    let mut items = admission_items(&shards, &mapping).into_iter();
                    for (k, shard) in shards.iter().enumerate() {
                        for scheme in &shard.plan.schemes {
                            let item = items.next().expect("one item per planned stripe");
                            assert_eq!((item.campaign, item.stripe), (k, scheme.stripe));
                            assert_eq!(
                                item.disk_reads,
                                footprint_by_read_slot(scheme, &mapping),
                                "{} p={p} {} stripe {}",
                                base.code.name(),
                                placement.name(),
                                scheme.stripe
                            );
                            checked += 1;
                        }
                    }
                    assert!(items.next().is_none());
                }
            }
        }
        assert!(checked > 500, "only {checked} stripes were planned");
    }

    /// The refusal `run_rebuild` gives `spec`, which must be a typed
    /// configuration error rather than a panic.
    fn refusal(spec: &RebuildSpec) -> ConfigError {
        match run_rebuild(spec) {
            Err(RunError::Config(e)) => e,
            other => panic!("expected a configuration refusal, got {other:?}"),
        }
    }

    #[test]
    fn an_array_narrower_than_a_stripe_is_refused() {
        let s = RebuildSpec::new(base(), 7);
        assert!(matches!(
            refusal(&s),
            ConfigError::TooFewDisks { disks: 7, cols: 8 }
        ));
    }

    #[cfg(target_pointer_width = "64")]
    #[test]
    fn an_array_beyond_the_u32_disk_index_is_refused() {
        let s = RebuildSpec::new(base(), 1 << 32);
        assert!(matches!(refusal(&s), ConfigError::TooManyDisks(d) if d == 1 << 32));
    }

    #[test]
    fn a_failed_disk_outside_the_array_is_refused() {
        let mut s = spec(Placement::Fixed);
        s.failed_disk = 48;
        assert!(matches!(
            refusal(&s),
            ConfigError::FailedDiskOutOfRange {
                failed_disk: 48,
                disks: 48
            }
        ));
    }

    #[test]
    fn a_zero_cap_is_refused() {
        let mut s = spec(Placement::Fixed);
        s.per_disk_cap = 0;
        assert!(matches!(refusal(&s), ConfigError::Zero("cap")));
    }

    #[test]
    fn zero_campaigns_are_refused() {
        let mut s = spec(Placement::Fixed);
        s.campaigns = 0;
        assert!(matches!(refusal(&s), ConfigError::Zero("campaigns")));
    }

    #[test]
    fn every_lost_chunk_is_rewritten_once() {
        let out = run_rebuild(&spec(Placement::Declustered { seed: 3 })).unwrap();
        // One spare write per chunk of each failed column.
        let rows = StripeCode::build(base().code, base().p).unwrap().rows() as u64;
        assert_eq!(
            out.report.disk_writes,
            out.stripes_affected as u64 * rows,
            "full-column repair writes every row back"
        );
        assert!(out.waves > 1, "the cap must force multiple waves");
        assert!(out.failed_stripes.is_empty());
        // Foreground latency was measured.
        assert!(out.app_p99_ms.is_some());
    }

    #[test]
    fn weighted_fairness_and_store_sharing_work() {
        let mut s = spec(Placement::Declustered { seed: 5 });
        s.fairness = Fairness::DeficitWeighted;
        s.campaigns = 3;
        let store = PlanStore::new();
        let a = execute_rebuild(&s, &store, &mut EngineScratch::new()).unwrap();
        assert_eq!(store.stats().misses, 3, "one cold plan per campaign shard");
        assert!(
            a.waves < a.stripes_affected,
            "DRR packs several stripes a wave: {} waves for {} stripes",
            a.waves,
            a.stripes_affected
        );
        let b = execute_rebuild(&s, &store, &mut EngineScratch::new()).unwrap();
        assert_eq!(store.stats().misses, 3, "second rebuild reuses every plan");
        assert_eq!(a.report.makespan, b.report.makespan);
        assert_eq!(a.rebuild_skew, b.rebuild_skew);
    }

    #[test]
    fn json_shape_is_stable() {
        let out = run_rebuild(&spec(Placement::Declustered { seed: 9 })).unwrap();
        let j = out.to_json();
        for key in [
            "\"placement\":\"declustered\"",
            "\"fairness\":\"round-robin\"",
            "\"waves\":",
            "\"reconstruction_s\":",
            "\"rebuild_skew\":",
            "\"per_disk_rebuild_reads\":[",
        ] {
            assert!(j.contains(key), "{key} missing from {j}");
        }
        assert_eq!(Json::parse(&j).unwrap(), out.to_json_value());
    }
}
