//! Multi-round faulted execution: run, absorb hard failures, re-plan,
//! run again.
//!
//! When a [`FaultPlan`](fbf_disksim::FaultPlan) injects read faults, one
//! engine pass is no longer the whole story: a hard failure (media error,
//! exhausted retries, dead disk) abandons its stripe mid-repair, and the
//! controller must fold the unreadable chunk into the stripe's damage and
//! try again with a fresh plan. This module drives that loop:
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
use fbf_codes::StripeCode;
use fbf_disksim::{
    ArrayMapping, Engine, EngineConfig, EngineScratch, FaultPlan, RunReport, SimTime, WorkerScript,
};
use fbf_recovery::{
    build_scripts_from_plans, DataLoss, Escalator, ExecConfig, StripeDamage, StripePlan,
};
use std::collections::BTreeMap;

/// Hard cap on escalation rounds. Unreachable in practice (damage is
/// bounded by geometry long before this); it exists so a logic bug can
/// never spin the driver forever.
pub const MAX_ROUNDS: u64 = 32;

/// Everything a faulted multi-round execution produced: the merged engine
/// report plus the escalation verdicts needed for metrics and byte-exact
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
    /// Final accumulated damage of every surviving stripe, in stripe
    /// order — what the repair must have recovered.
    pub surviving_damage: Vec<StripeDamage>,
    /// The plan that ultimately repaired each surviving stripe (the
    /// original scheme, or the last re-plan).
    pub final_plans: BTreeMap<u32, StripePlan>,
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

/// The engine configuration for one pass over `plan` under `faults`
/// (the single-pass runner's too).
pub(crate) fn engine_config(
    cfg: &ExperimentConfig,
    plan: &PlannedCampaign,
    faults: FaultPlan,
) -> EngineConfig {
    cfg.engine_config(
        ArrayMapping::new(plan.cols, plan.rows, cfg.code.rotated_placement()),
        std::sync::Arc::clone(&plan.victim_map),
        faults,
    )
}

/// The fault plan for rounds ≥ 1: a disk killed in round 0 stays dead, so
/// its kill instant moves to time zero. Shared with the array-wide
/// rebuild driver, whose waves chain on the virtual clock the same way.
pub(crate) fn later_round_faults(f: FaultPlan) -> FaultPlan {
    let mut later = f;
    if let Some(kill) = later.disk_kill.as_mut() {
        kill.at = SimTime::ZERO;
    }
    later
}

/// Fold one round's report into the running total. Rounds execute
/// back-to-back on the virtual clock, so makespans add and each round's
/// write completions shift by the time already elapsed. Shared with the
/// array-wide rebuild driver, which merges per-wave reports the same way.
pub(crate) fn merge_round(total: &mut RunReport, round: &RunReport) {
    let base = total.makespan;
    total.makespan = base + round.makespan;
    total.cache.merge(&round.cache);
    total.disk_reads += round.disk_reads;
    total.disk_writes += round.disk_writes;
    total.read_response.merge(&round.read_response);
    total.read_latency.merge(&round.read_latency);
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

/// Execute `plan` under `cfg.faults`, escalating hard read failures
/// through re-planning until the campaign settles (or stripes are
/// declared lost).
///
/// The plan must have been generated for `cfg` (the same invariant as
/// [`run_planned`](crate::runner::run_planned)); in particular the code
/// must build, which `cfg.validate()` already guaranteed.
pub fn execute_faulted(
    cfg: &ExperimentConfig,
    plan: &PlannedCampaign,
    scratch: &mut EngineScratch,
) -> FaultedOutcome {
    execute_faulted_observed(cfg, plan, scratch, None)
}

/// [`execute_faulted`] that additionally publishes live round/fault
/// counters into `progress` (the daemon's `stat` reads them mid-job) and
/// emits a `faulted/round` instant per escalation round. A non-empty
/// data-loss verdict triggers a flight-recorder dump
/// ([`fbf_obs::ring::trigger_dump`], reason `data-loss`) so the events
/// leading up to the loss survive for post-mortem without pre-enabled
/// tracing.
pub fn execute_faulted_observed(
    cfg: &ExperimentConfig,
    plan: &PlannedCampaign,
    scratch: &mut EngineScratch,
    progress: Option<&Progress>,
) -> FaultedOutcome {
    execute_faulted_capped(cfg, plan, scratch, progress, MAX_ROUNDS)
}

/// [`execute_faulted_observed`] with an explicit escalation-round cap.
/// Exhaustion — the cap hit with failures still pending — is a typed
/// verdict ([`FaultedOutcome::rounds_exhausted`] +
/// [`FaultedOutcome::unresolved`]), never a silent partial success: the
/// affected stripes are excluded from `stripes_repaired`/`final_plans`.
pub fn execute_faulted_capped(
    cfg: &ExperimentConfig,
    plan: &PlannedCampaign,
    scratch: &mut EngineScratch,
    progress: Option<&Progress>,
    max_rounds: u64,
) -> FaultedOutcome {
    let code = StripeCode::build(cfg.code, cfg.p).expect("plan was built with this code/p");
    let mut escalator = Escalator::new(&code, cfg.scheme, &plan.errors);
    let mut final_plans: BTreeMap<u32, StripePlan> = plan
        .schemes
        .iter()
        .map(|s| (s.stripe, StripePlan::Chained(s.clone())))
        .collect();

    let run = |scripts: &[WorkerScript], faults: FaultPlan, scratch: &mut EngineScratch| {
        Engine::new(engine_config(cfg, plan, faults)).run_with_scratch(scripts, scratch)
    };

    let mut total = run(&plan.scripts, cfg.faults, scratch);
    let mut pending = std::mem::take(&mut total.failed_reads);
    total.failed_reads = pending.clone();

    let later = later_round_faults(cfg.faults);
    // Escalation rounds are re-planned retries, not first-pass recovery —
    // attribute their latency to the replan class.
    let exec_cfg = ExecConfig {
        workers: cfg.workers,
        class: fbf_disksim::RequestClass::Replan,
        decode_batch: cfg.decode_batch,
        ..Default::default()
    };
    let obs = cfg.obs && fbf_obs::enabled();
    let mut data_loss = Vec::new();
    if let Some(p) = progress {
        p.record(0, 0, total.faults.hard_failures(), 0);
    }
    while !pending.is_empty() && escalator.rounds() < max_rounds {
        let absorbed = escalator.absorb(&pending);
        for dl in &absorbed.data_loss {
            final_plans.remove(&dl.stripe);
        }
        data_loss.extend(absorbed.data_loss);
        let publish = |total: &RunReport| {
            if let Some(p) = progress {
                p.record(
                    escalator.rounds(),
                    escalator.replans(),
                    total.faults.hard_failures(),
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
                        ("faults", fbf_obs::Value::U64(total.faults.hard_failures())),
                        ("lost", fbf_obs::Value::U64(data_loss.len() as u64)),
                    ],
                );
            }
        };
        if absorbed.replans.is_empty() {
            // Every failure this round was on a stripe now declared (or
            // already) lost — nothing left to retry.
            publish(&total);
            break;
        }
        let scripts = build_scripts_from_plans(&absorbed.replans, &absorbed.dictionary, &exec_cfg);
        for p in absorbed.replans {
            final_plans.insert(p.stripe(), p);
        }
        let round = run(&scripts, later, scratch);
        pending = round.failed_reads.clone();
        merge_round(&mut total, &round);
        publish(&total);
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
    // stripes were never declared lost were neither repaired nor typed —
    // surface them instead of letting them ride in the "repaired" count.
    // (The empty-replans break leaves pending stripes too, but those are
    // all in `data_loss`, so they filter out here.)
    let lost: std::collections::BTreeSet<u32> = data_loss.iter().map(|d| d.stripe).collect();
    let unresolved_stripes: std::collections::BTreeSet<u32> = pending
        .iter()
        .map(|f| f.chunk.stripe)
        .filter(|s| !lost.contains(s))
        .collect();
    let rounds_exhausted = !unresolved_stripes.is_empty();
    if rounds_exhausted {
        for s in &unresolved_stripes {
            final_plans.remove(s);
        }
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

    let mut surviving_damage = escalator.surviving_damage();
    let unresolved: Vec<StripeDamage> = surviving_damage
        .iter()
        .filter(|d| unresolved_stripes.contains(&d.stripe))
        .cloned()
        .collect();
    surviving_damage.retain(|d| !unresolved_stripes.contains(&d.stripe));
    let chunks_recovered = surviving_damage.iter().map(|d| d.cells.len()).sum();
    FaultedOutcome {
        report: total,
        replans: escalator.replans(),
        rounds: escalator.rounds(),
        data_loss,
        surviving_damage,
        stripes_repaired: final_plans.len(),
        chunks_recovered,
        final_plans,
        rounds_exhausted,
        unresolved,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fbf_disksim::{DiskKill, RetryPolicy};

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
        execute_faulted(cfg, &plan, &mut EngineScratch::new())
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
        // Escalated chunks count as recovered on surviving stripes.
        let initial: usize = out.surviving_damage.iter().map(|d| d.cells.len()).sum();
        assert_eq!(out.chunks_recovered, initial);
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
        assert_eq!(a.surviving_damage, b.surviving_damage);
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
        let out = execute_faulted(&cfg, &plan, &mut EngineScratch::new());
        assert_eq!(out.rounds, 0);
        assert_eq!(out.replans, 0);
        assert!(out.data_loss.is_empty());
        assert_eq!(out.stripes_repaired, 48);
        let direct = Engine::new(engine_config(&cfg, &plan, FaultPlan::none()))
            .run_with_scratch(&plan.scripts, &mut EngineScratch::new());
        assert_eq!(out.report.makespan, direct.makespan);
        assert_eq!(out.report.disk_reads, direct.disk_reads);
    }

    #[test]
    fn replan_rounds_attribute_latency_to_replan_class() {
        use fbf_disksim::RequestClass;
        let cfg = faulty(30, None);
        let out = outcome(&cfg);
        assert!(out.rounds >= 1, "30‰ media errors must force a re-plan");
        let replan = &out.report.class_latency[RequestClass::Replan.index()];
        assert!(replan.count() > 0, "round ≥1 reads carry the replan class");
        // The class digests partition the overall read-latency digest
        // exactly, even across merged rounds.
        let by_class: u64 = out.report.class_latency.iter().map(|h| h.count()).sum();
        assert_eq!(by_class, out.report.read_latency.count());
    }

    #[test]
    fn round_exhaustion_is_a_typed_verdict_not_a_silent_success() {
        // A zero-round cap makes every round-0 failure pathological: no
        // escalation is allowed, so the failed stripes can be neither
        // repaired nor typed as lost. The driver must say so instead of
        // reporting them repaired.
        let cfg = faulty(30, None);
        let plan = PlannedCampaign::cold(&cfg).unwrap();
        let out = execute_faulted_capped(&cfg, &plan, &mut EngineScratch::new(), None, 0);
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
                !out.final_plans.contains_key(&d.stripe),
                "unresolved stripe {} must not carry a final plan",
                d.stripe
            );
            assert!(
                !out.surviving_damage.iter().any(|s| s.stripe == d.stripe),
                "unresolved stripe {} must not count as recovered damage",
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
        for damage in &out.surviving_damage {
            let plan = out
                .final_plans
                .get(&damage.stripe)
                .expect("surviving stripe has a plan");
            assert_eq!(plan.stripe(), damage.stripe);
        }
        for dl in &out.data_loss {
            assert!(
                !out.final_plans.contains_key(&dl.stripe),
                "lost stripes carry no plan"
            );
            assert!(dl.columns > 3, "TIP tolerates 3 columns");
        }
    }
}
