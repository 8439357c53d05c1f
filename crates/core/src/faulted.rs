//! The simulated campaign: run, absorb hard failures, re-plan, run again.
//!
//! Every simulated campaign executes here, whatever its
//! [`FaultPlan`](fbf_disksim::FaultPlan). When no read fails, one engine
//! pass is the whole story. A hard failure (media error, exhausted
//! retries, dead disk) abandons its stripe mid-repair, and the controller
//! must fold the unreadable chunk into the stripe's damage and try again
//! with a fresh plan. This module drives that loop:
//!
//! 1. **Round 0** executes the campaign's original scripts under the
//!    configured fault plan.
//! 2. Each round's [`FailedRead`](fbf_disksim::FailedRead)s feed the
//!    [`Escalator`], which enlarges damage, declares [`DataLoss`] for
//!    stripes past the code's fault tolerance, and re-plans the rest.
//! 3. The re-plans become fresh worker scripts and run as the next round.
//!    From round 1 on, a scheduled disk kill is moved to time zero — the
//!    disk died in round 0 and stays dead.
//!
//! The loop terminates because damage grows strictly (a re-plan never
//! reads a known-lost cell, so a chunk can fail at most once) and is
//! bounded by stripe geometry; [`MAX_ROUNDS`] is a belt-and-braces cap.
//! Every step is deterministic in the config's seeds, so two runs of the
//! same faulted config produce identical merged reports.
//!
//! Each round starts with cold caches — conservative (round 0's survivors
//! could seed round 1) but honest: the re-plan happens on the host after
//! failure *detection*, and the simulator does not model cache retention
//! across that host round-trip.

use crate::config::ExperimentConfig;
use crate::plan::PlannedCampaign;
use crate::progress::Progress;
use fbf_cache::FxHashMap;
use fbf_codes::StripeCode;
use fbf_disksim::{
    ArrayMapping, ByteHook, Engine, EngineScratch, FailedRead, NoBytes, RunReport, SimTime,
    WorkerScript,
};
use fbf_recovery::{
    build_scripts_from_plans, DataLoss, Escalator, ExecConfig, StripeDamage, StripePlan,
};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Hard cap on escalation rounds. Unreachable in practice (damage is
/// bounded by geometry long before this); it exists so a logic bug can
/// never spin the driver forever.
pub const MAX_ROUNDS: u64 = 32;

/// Everything a simulated campaign produced: the merged engine report
/// plus the escalation verdicts needed for metrics and byte-exact
/// verification.
#[derive(Debug)]
pub struct FaultedOutcome {
    /// All rounds merged: makespans summed (rounds run back-to-back),
    /// counters and distributions merged, write completions offset into
    /// the combined timeline.
    pub report: RunReport,
    /// Stripe re-plans issued across all rounds.
    pub replans: u64,
    /// Escalation rounds absorbed (0 = no hard failures).
    pub rounds: u64,
    /// Stripes whose accumulated damage exceeded the code's fault
    /// tolerance — typed, reported, never a panic.
    pub data_loss: Vec<DataLoss>,
    /// Every repaired stripe that was re-planned: its final accumulated
    /// damage — what its last re-plan must have recovered — and that
    /// re-plan. A repaired stripe absent here kept its original damage
    /// and was repaired by its original scheme.
    pub replanned: BTreeMap<u32, (StripeDamage, StripePlan)>,
    /// Surviving stripes (repaired despite faults).
    pub stripes_repaired: usize,
    /// Chunks of surviving stripes recovered, counting escalated damage.
    pub chunks_recovered: usize,
    /// The round cap was hit with failures still pending. The affected
    /// stripes are in [`FaultedOutcome::unresolved`] — they are *not*
    /// counted as repaired and *not* typed as data loss, and any caller
    /// treating the campaign as a success must check this flag.
    /// (Regression guard: exhaustion used to exit the loop silently,
    /// reporting partially-repaired stripes as repaired.)
    pub rounds_exhausted: bool,
    /// Damage of stripes left neither repaired nor declared lost when the
    /// round cap hit. Empty unless [`FaultedOutcome::rounds_exhausted`].
    pub unresolved: Vec<StripeDamage>,
}

/// What the passes of a campaign do with the bytes they move: nothing
/// ([`NoBytes`]), or repair a storage backend's array
/// ([`DataPlane`](crate::backend_run::DataPlane)).
pub(crate) trait PassBytes: ByteHook {
    /// Forget the previous pass — it starts with fresh payload slots, as
    /// it starts with fresh caches.
    fn fresh(&mut self) -> &mut Self {
        self
    }

    /// The next pass runs `plans`, re-planned for `code`.
    fn replan(&mut self, _code: &StripeCode, _plans: &[StripePlan]) {}
}

impl PassBytes for NoBytes {}

/// Engine passes run back to back on one virtual clock: escalation
/// rounds here, waves in the array-wide rebuild driver. A pass's engine
/// depends on its index alone. The first pass runs under the configured
/// fault plan; by every later one a scheduled disk kill has happened, so
/// its instant moves to time zero — the disk died in an earlier pass and
/// stays dead. Passes may therefore run in any order and on any thread,
/// as long as their reports are folded into a [`Merged`] in pass order.
pub(crate) struct Passes<'a> {
    cfg: &'a ExperimentConfig,
    mapping: ArrayMapping,
    victim_map: Arc<FxHashMap<u32, u16>>,
}

impl<'a> Passes<'a> {
    pub(crate) fn new(
        cfg: &'a ExperimentConfig,
        mapping: ArrayMapping,
        victim_map: Arc<FxHashMap<u32, u16>>,
    ) -> Self {
        Passes {
            cfg,
            mapping,
            victim_map,
        }
    }

    /// The engine that runs pass `pass` (counted from 0).
    pub(crate) fn engine(&self, pass: usize) -> Engine {
        let mut faults = self.cfg.faults;
        if pass > 0 {
            if let Some(kill) = faults.disk_kill.as_mut() {
                kill.at = SimTime::ZERO;
            }
        }
        Engine::new(self.cfg.engine_config(
            self.mapping.clone(),
            Arc::clone(&self.victim_map),
            faults,
        ))
    }

    /// Run `scripts` as the next pass of `merged`, moving their bytes
    /// through `bytes`, and fold it in; returns the hard read failures of
    /// this pass alone.
    pub(crate) fn run<'m, B: PassBytes>(
        &self,
        merged: &'m mut Merged,
        scripts: &[WorkerScript],
        scratch: &mut EngineScratch,
        bytes: &mut B,
    ) -> Result<&'m [FailedRead], B::Error> {
        let report =
            self.engine(merged.passes())
                .run_with_bytes(scripts, scratch, bytes.fresh())?;
        Ok(merged.absorb(report))
    }
}

/// Pass reports folded in pass order into one total.
#[derive(Default)]
pub(crate) struct Merged {
    total: Option<RunReport>,
    passes: usize,
}

impl Merged {
    /// Passes folded so far: the index of the next one.
    pub(crate) fn passes(&self) -> usize {
        self.passes
    }

    /// Fold the next pass's report into the total; returns that pass's
    /// hard read failures.
    pub(crate) fn absorb(&mut self, pass: RunReport) -> &[FailedRead] {
        self.passes += 1;
        let failures = pass.failed_reads.len();
        let total = match &mut self.total {
            Some(total) => {
                merge_round(total, &pass);
                total
            }
            first @ None => first.insert(pass),
        };
        &total.failed_reads[total.failed_reads.len() - failures..]
    }

    /// All passes merged (empty if none ran).
    pub(crate) fn finish(self) -> RunReport {
        self.total.unwrap_or_default()
    }
}

/// Fold one pass's report into the running total. Passes execute
/// back-to-back on the virtual clock, so makespans add and each pass's
/// write completions shift by the time already elapsed.
fn merge_round(total: &mut RunReport, round: &RunReport) {
    let base = total.makespan;
    total.makespan = base + round.makespan;
    total.cache.merge(&round.cache);
    total.disk_reads += round.disk_reads;
    total.disk_writes += round.disk_writes;
    total.read_response.merge(&round.read_response);
    total.write_response.merge(&round.write_response);
    for (t, r) in total.class_latency.iter_mut().zip(&round.class_latency) {
        t.merge(r);
    }
    total
        .write_completions
        .extend(round.write_completions.iter().map(|&t| base + t));
    for (t, r) in total.per_disk.iter_mut().zip(&round.per_disk) {
        t.merge(r);
    }
    for (t, r) in total
        .per_disk_class_reads
        .iter_mut()
        .zip(&round.per_disk_class_reads)
    {
        for (a, b) in t.iter_mut().zip(r) {
            *a += b;
        }
    }
    total.faults.merge(&round.faults);
    total
        .failed_reads
        .extend(round.failed_reads.iter().copied());
}

/// Simulate `plan` under `cfg.faults`, escalating hard read failures
/// through re-planning until the campaign settles (or stripes are
/// declared lost). A campaign in which no read fails is one pass and
/// builds no re-planning state at all.
///
/// The plan must have been generated for `cfg` (the same invariant as
/// [`run_planned`](crate::runner::run_planned)); in particular the code
/// must build, which `cfg.validate()` already guaranteed.
///
/// Live round/fault counters are published into `progress` (the daemon's
/// `stat` reads them mid-job) and a `faulted/round` instant is emitted per
/// escalation round. A non-empty data-loss verdict triggers a
/// flight-recorder dump ([`fbf_obs::ring::trigger_dump`], reason
/// `data-loss`) so the events leading up to the loss survive for
/// post-mortem without pre-enabled tracing. Exhaustion — [`MAX_ROUNDS`]
/// hit with failures still pending — is a typed verdict
/// ([`FaultedOutcome::rounds_exhausted`] + [`FaultedOutcome::unresolved`]),
/// never a silent partial success.
pub fn execute_faulted(
    cfg: &ExperimentConfig,
    plan: &PlannedCampaign,
    scratch: &mut EngineScratch,
    progress: Option<&Progress>,
) -> FaultedOutcome {
    let Ok(outcome) = execute_capped(cfg, plan, scratch, progress, &mut NoBytes, MAX_ROUNDS);
    outcome
}

/// [`execute_faulted`] with every pass's bytes moved through `bytes` and
/// an explicit escalation-round cap.
pub(crate) fn execute_capped<B: PassBytes>(
    cfg: &ExperimentConfig,
    plan: &PlannedCampaign,
    scratch: &mut EngineScratch,
    progress: Option<&Progress>,
    bytes: &mut B,
    max_rounds: u64,
) -> Result<FaultedOutcome, B::Error> {
    let mapping = ArrayMapping::new(plan.cols, plan.rows, cfg.code.rotated_placement());
    let passes = Passes::new(cfg, mapping, Arc::clone(&plan.victim_map));
    let mut merged = Merged::default();
    let mut pending = passes
        .run(&mut merged, &plan.scripts, scratch, bytes)?
        .to_vec();
    // Every hard failure is one failed read.
    let mut failures = pending.len() as u64;
    if let Some(p) = progress {
        p.record(0, 0, failures, 0);
    }

    // What holds when no read failed: the original schemes repaired
    // everything. Escalation state is built only once a read has.
    let (mut replans, mut rounds) = (0, 0);
    let mut data_loss = Vec::new();
    let mut final_plans: BTreeMap<u32, StripePlan> = BTreeMap::new();
    let mut replanned = BTreeMap::new();
    let mut unresolved = Vec::new();
    let (mut stripes_repaired, mut chunks_recovered) = (plan.schemes.len(), plan.chunks_lost);
    if !pending.is_empty() {
        let code = StripeCode::build(cfg.code, cfg.p).expect("plan was built with this code/p");
        let mut escalator = Escalator::new(&code, cfg.scheme, &plan.errors);
        // Escalation rounds are re-planned retries, not first-pass
        // recovery — attribute their latency to the replan class.
        let exec_cfg = ExecConfig {
            workers: cfg.workers,
            class: fbf_disksim::RequestClass::Replan,
            ..Default::default()
        };
        let obs = cfg.obs && fbf_obs::enabled();
        while !pending.is_empty() && escalator.rounds() < max_rounds {
            let absorbed = escalator.absorb(&pending);
            data_loss.extend(absorbed.data_loss);
            let publish = |failures: u64| {
                if let Some(p) = progress {
                    p.record(
                        escalator.rounds(),
                        escalator.replans(),
                        failures,
                        data_loss.len() as u64,
                    );
                }
                if obs {
                    fbf_obs::instant(
                        "faulted",
                        "round",
                        &[
                            ("round", fbf_obs::Value::U64(escalator.rounds())),
                            ("replans", fbf_obs::Value::U64(escalator.replans())),
                            ("faults", fbf_obs::Value::U64(failures)),
                            ("lost", fbf_obs::Value::U64(data_loss.len() as u64)),
                        ],
                    );
                }
            };
            if absorbed.replans.is_empty() {
                // Every failure this round was on a stripe now declared
                // (or already) lost — nothing left to retry.
                publish(failures);
                break;
            }
            let scripts = build_scripts_from_plans(&absorbed.replans, &exec_cfg);
            bytes.replan(&code, &absorbed.replans);
            for p in absorbed.replans {
                final_plans.insert(p.stripe(), p);
            }
            pending = passes.run(&mut merged, &scripts, scratch, bytes)?.to_vec();
            failures += pending.len() as u64;
            publish(failures);
        }
        if !data_loss.is_empty() {
            // Mark the loss in the event stream (so the dump's last events
            // explain themselves), then snapshot the flight recorder.
            if obs {
                fbf_obs::instant(
                    "faulted",
                    "data-loss",
                    &[("stripes", fbf_obs::Value::U64(data_loss.len() as u64))],
                );
            }
            fbf_obs::ring::trigger_dump("data-loss");
        }

        // Exhaustion verdict: failures still pending after the loop whose
        // stripes were never declared lost were neither repaired nor typed
        // — surface them instead of letting them ride in the "repaired"
        // count. (The empty-replans break leaves pending stripes too, but
        // those are all in `data_loss`, so they filter out here.)
        let lost: BTreeSet<u32> = data_loss.iter().map(|d| d.stripe).collect();
        let unresolved_stripes: BTreeSet<u32> = pending
            .iter()
            .map(|f| f.chunk.stripe)
            .filter(|s| !lost.contains(s))
            .collect();
        if !unresolved_stripes.is_empty() {
            if obs {
                fbf_obs::instant(
                    "faulted",
                    "rounds-exhausted",
                    &[
                        ("rounds", fbf_obs::Value::U64(escalator.rounds())),
                        (
                            "unresolved",
                            fbf_obs::Value::U64(unresolved_stripes.len() as u64),
                        ),
                    ],
                );
            }
            fbf_obs::ring::trigger_dump("rounds-exhausted");
        }

        // Every failed read belongs to a stripe of the plan, so the lost
        // and unresolved stripes come off its scheme count.
        stripes_repaired = plan.schemes.len() - data_loss.len() - unresolved_stripes.len();
        // A lost stripe's last plan is dropped here: the escalator's
        // damage no longer lists it.
        chunks_recovered = 0;
        for damage in escalator.damage() {
            if unresolved_stripes.contains(&damage.stripe) {
                unresolved.push(damage.clone());
                continue;
            }
            chunks_recovered += damage.cells.len();
            if let Some(plan) = final_plans.remove(&damage.stripe) {
                replanned.insert(damage.stripe, (damage.clone(), plan));
            }
        }
        (replans, rounds) = (escalator.replans(), escalator.rounds());
    }
    Ok(FaultedOutcome {
        report: merged.finish(),
        replans,
        rounds,
        data_loss,
        replanned,
        stripes_repaired,
        chunks_recovered,
        rounds_exhausted: !unresolved.is_empty(),
        unresolved,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fbf_disksim::{DiskKill, FaultPlan, RetryPolicy};

    fn faulty(media: u16, kill: Option<u32>) -> ExperimentConfig {
        let mut cfg = ExperimentConfig::builder()
            .stripes(128)
            .error_count(48)
            .workers(8)
            .gen_threads(1)
            .build()
            .unwrap();
        cfg.faults = FaultPlan {
            seed: 99,
            media_per_mille: media,
            retry: RetryPolicy::default(),
            disk_kill: kill.map(|disk| DiskKill {
                disk,
                at: SimTime::from_millis(40),
            }),
            ..FaultPlan::none()
        };
        cfg
    }

    fn outcome(cfg: &ExperimentConfig) -> FaultedOutcome {
        let plan = PlannedCampaign::cold(cfg).unwrap();
        execute_faulted(cfg, &plan, &mut EngineScratch::new(), None)
    }

    #[test]
    fn media_faults_escalate_and_settle() {
        let cfg = faulty(30, None);
        let out = outcome(&cfg);
        assert!(
            out.report.faults.media_errors > 0,
            "30‰ must fire on ~1k reads"
        );
        assert!(out.rounds >= 1);
        assert!(out.replans >= 1);
        assert_eq!(
            out.stripes_repaired + out.data_loss.len(),
            48,
            "every damaged stripe is repaired or typed as lost"
        );
        // (`verify_campaign` holds `chunks_recovered` to the cells it
        // byte-checks, escalated damage included.)
    }

    #[test]
    fn faulted_execution_is_deterministic() {
        let cfg = faulty(25, Some(3));
        let a = outcome(&cfg);
        let b = outcome(&cfg);
        assert_eq!(a.report.makespan, b.report.makespan);
        assert_eq!(a.report.faults, b.report.faults);
        assert_eq!(a.report.disk_reads, b.report.disk_reads);
        assert_eq!(a.replans, b.replans);
        assert_eq!(a.rounds, b.rounds);
        assert_eq!(a.data_loss, b.data_loss);
        assert_eq!(a.replanned, b.replanned);
    }

    #[test]
    fn disk_kill_keeps_the_disk_dead_in_later_rounds() {
        let cfg = faulty(0, Some(2));
        let out = outcome(&cfg);
        if out.rounds > 0 {
            // Re-planned reads avoid the dead column, so later rounds can
            // only fail on *other* chunks of the killed disk; the merged
            // counters stay consistent either way.
            assert_eq!(
                out.report.faults.hard_failures(),
                out.report.failed_reads.len() as u64
            );
        }
        assert_eq!(out.stripes_repaired + out.data_loss.len(), 48);
    }

    #[test]
    fn no_faults_means_single_round_identity() {
        let mut cfg = faulty(0, None);
        cfg.faults = FaultPlan::none();
        let plan = PlannedCampaign::cold(&cfg).unwrap();
        let out = execute_faulted(&cfg, &plan, &mut EngineScratch::new(), None);
        assert_eq!(out.rounds, 0);
        assert_eq!(out.replans, 0);
        assert!(out.data_loss.is_empty());
        assert_eq!(out.stripes_repaired, 48);
        assert_eq!(out.chunks_recovered, plan.chunks_lost);
        assert!(
            out.replanned.is_empty(),
            "no read failed, so no re-plan state was built"
        );
        let mapping = ArrayMapping::new(plan.cols, plan.rows, cfg.code.rotated_placement());
        let direct = Engine::new(cfg.engine_config(
            mapping,
            Arc::clone(&plan.victim_map),
            FaultPlan::none(),
        ))
        .run_with_scratch(&plan.scripts, &mut EngineScratch::new());
        assert_eq!(format!("{:?}", out.report), format!("{direct:?}"));
    }

    #[test]
    fn replan_rounds_attribute_latency_to_replan_class() {
        use fbf_disksim::RequestClass;
        let cfg = faulty(30, None);
        let out = outcome(&cfg);
        assert!(out.rounds >= 1, "30‰ media errors must force a re-plan");
        let replan = &out.report.class_latency[RequestClass::Replan.index()];
        assert!(replan.count() > 0, "round ≥1 reads carry the replan class");
        // The class digests partition the run's reads exactly, even
        // across merged rounds.
        let by_class: u64 = out.report.class_latency.iter().map(|h| h.count()).sum();
        assert_eq!(by_class, out.report.read_response.count);
    }

    #[test]
    fn round_exhaustion_is_a_typed_verdict_not_a_silent_success() {
        // A zero-round cap makes every round-0 failure pathological: no
        // escalation is allowed, so the failed stripes can be neither
        // repaired nor typed as lost. The driver must say so instead of
        // reporting them repaired.
        let cfg = faulty(30, None);
        let plan = PlannedCampaign::cold(&cfg).unwrap();
        let Ok(out) = execute_capped(
            &cfg,
            &plan,
            &mut EngineScratch::new(),
            None,
            &mut NoBytes,
            0,
        );
        assert!(
            !out.report.failed_reads.is_empty(),
            "30‰ media errors must fail reads in round 0"
        );
        assert!(out.rounds_exhausted, "cap hit with pending failures");
        assert!(!out.unresolved.is_empty());
        // Every damaged stripe is accounted for exactly once: repaired,
        // lost, or unresolved — never silently dropped or double-counted.
        assert_eq!(
            out.stripes_repaired + out.data_loss.len() + out.unresolved.len(),
            48
        );
        for d in &out.unresolved {
            assert!(
                !out.replanned.contains_key(&d.stripe),
                "unresolved stripe {} must not carry a final plan or count as recovered",
                d.stripe
            );
        }
    }

    #[test]
    fn converged_runs_never_flag_exhaustion() {
        let out = outcome(&faulty(30, None));
        assert!(!out.rounds_exhausted);
        assert!(out.unresolved.is_empty());
        let clean = outcome(&faulty(0, None));
        assert!(!clean.rounds_exhausted);
        assert!(clean.unresolved.is_empty());
    }

    #[test]
    fn per_disk_class_reads_survive_round_merging() {
        use fbf_disksim::RequestClass;
        let out = outcome(&faulty(30, None));
        assert!(out.rounds >= 1, "must merge at least one replan round");
        let per_class_total: u64 = out
            .report
            .per_disk_class_reads
            .iter()
            .flat_map(|c| c.iter())
            .sum();
        assert_eq!(
            per_class_total, out.report.disk_reads,
            "per-disk class reads partition disk_reads exactly across merged rounds"
        );
        let replan: u64 = out
            .report
            .class_reads_per_disk(RequestClass::Replan)
            .iter()
            .sum();
        assert!(replan > 0, "replan rounds attribute their disk reads");
    }

    #[test]
    fn every_survivor_has_a_final_plan_covering_its_damage() {
        let cfg = faulty(35, Some(5));
        let out = outcome(&cfg);
        // Each re-planned survivor's last plan rebuilds exactly its final
        // damage; the rest were repaired by their original schemes.
        assert!(!out.replanned.is_empty(), "35‰ + a kill must re-plan");
        for (&stripe, (damage, plan)) in &out.replanned {
            assert_eq!((damage.stripe, plan.stripe()), (stripe, stripe));
            let mut lost: Vec<_> = plan.lost().collect();
            lost.sort_unstable();
            assert_eq!(lost, damage.cells, "stripe {stripe}");
        }
        for dl in &out.data_loss {
            assert!(
                !out.replanned.contains_key(&dl.stripe),
                "lost stripes carry no plan"
            );
            assert!(dl.columns > 3, "TIP tolerates 3 columns");
        }
    }
}
