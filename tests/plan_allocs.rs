//! Allocation discipline on the planning path, counted exactly.
//!
//! A planned stripe whose damage format is already in the controller's
//! memo is one stamp on the shared [`FormatPlan`](fbf::recovery::FormatPlan),
//! and a worker script is one allocation sized before it is filled. Both
//! are properties a timing cannot pin on a shared host and a counting
//! allocator can: `common` installs one and this file holds the cold
//! planning path to it.

mod common;

use common::counted;
use fbf::core::PlannedCampaign;
use fbf::disksim::WorkerScript;
use fbf::recovery::{
    build_scripts, build_scripts_borrowed, build_scripts_from_plans, ErrorGroup, ExecConfig,
    PartialStripeError, RecoveryController, RecoveryScheme, SchemeKind, StripePlan,
};
use fbf::{CodeSpec, ExperimentConfig, StripeCode};

fn config(
    code: CodeSpec,
    p: usize,
    stripes: u32,
    errors: usize,
    workers: usize,
) -> ExperimentConfig {
    ExperimentConfig::builder()
        .code(code)
        .p(p)
        .stripes(stripes)
        .error_count(errors)
        .workers(workers)
        .gen_threads(1)
        .build()
        .unwrap()
}

/// One error per stripe on `stripes` stripes, cycling through every
/// contiguous run of column 0 and 1: the same format set whatever the
/// stripe count (as long as it covers one cycle).
fn recurring_formats(code: &StripeCode, stripes: u32) -> ErrorGroup {
    let rows = code.rows();
    let runs: Vec<(usize, usize, usize)> = (0..2)
        .flat_map(|col| {
            (0..rows).flat_map(move |first| (1..=rows - first).map(move |len| (col, first, len)))
        })
        .collect();
    let mut group = ErrorGroup::new();
    for stripe in 0..stripes {
        let (col, first, len) = runs[stripe as usize % runs.len()];
        group.push(PartialStripeError::new(code, stripe, col, first, len).unwrap());
    }
    group
}

fn assert_exactly_sized(scripts: &[WorkerScript], what: &str) {
    assert!(scripts.iter().any(|s| !s.ops.is_empty()), "{what}: no ops");
    for (worker, script) in scripts.iter().enumerate() {
        assert_eq!(
            script.ops.capacity(),
            script.ops.len(),
            "{what}: worker {worker}'s script was not sized to its ops"
        );
    }
}

/// A stripe whose format is in the memo costs a stamp, not a copy: twice
/// the stripes over one format set cost no more allocator calls (the
/// deep-copied scheme body of earlier revisions cost 6 to 8 per extra
/// stripe, and a merged damage list per stripe one more).
#[test]
fn a_memo_hit_stripe_is_a_stamp() {
    for (spec, p) in [(CodeSpec::Tip, 7), (CodeSpec::Star, 13)] {
        let code = StripeCode::build(spec, p).unwrap();
        let n = 1024u32;
        let cold = |stripes: u32| {
            let cfg = config(spec, p, stripes, stripes as usize, 128);
            let errors = recurring_formats(&code, stripes);
            let (plan, calls) =
                counted(|| PlannedCampaign::cold_with_errors(&cfg, errors).unwrap());
            assert_eq!(plan.schemes.len(), stripes as usize);
            calls
        };
        let (small, large) = (cold(n), cold(2 * n));
        assert!(
            large.total() <= small.total(),
            "{spec:?} p={p}: {} allocator calls at {n} stripes, {} at {}",
            small.total(),
            large.total(),
            2 * n
        );
    }
}

/// Every script of every lowering entry point is allocated once, at its
/// final length — no `realloc` runs while a campaign is lowered.
#[test]
fn scripts_are_sized_before_they_are_filled() {
    let exec = ExecConfig {
        workers: 16,
        ..Default::default()
    };

    // `build_scripts` / `build_scripts_borrowed`: a campaign of chained
    // schemes of many lengths.
    let code = StripeCode::build(CodeSpec::Hdd1, 13).unwrap();
    let group = recurring_formats(&code, 500);
    let (schemes, dictionary) = RecoveryController::new(&code, SchemeKind::FbfCycling)
        .plan_campaign(&group)
        .unwrap();
    let (scripts, calls) = counted(|| build_scripts(&schemes, &dictionary, &exec));
    assert_eq!(calls.realloc, 0, "build_scripts: {calls:?}");
    assert_exactly_sized(&scripts, "build_scripts");
    let borrowed: Vec<&RecoveryScheme> = schemes.iter().rev().collect();
    let (scripts, calls) = counted(|| build_scripts_borrowed(&borrowed, &exec));
    assert_eq!(calls.realloc, 0, "build_scripts_borrowed: {calls:?}");
    assert_exactly_sized(&scripts, "build_scripts_borrowed");

    // `build_scripts_from_plans`: STAR damage across its adjuster columns
    // has no chain ordering, so the campaign mixes joint decodes in. (One
    // joint stripe per worker at most: a script's `gathers` list is not
    // what is being sized here.)
    let code = StripeCode::build(CodeSpec::Star, 5).unwrap();
    let mut group = recurring_formats(&code, 64);
    for stripe in [3, 20, 37] {
        for col in [1, code.cols() - 2, code.cols() - 1] {
            group.push(PartialStripeError::new(&code, stripe, col, 0, code.rows()).unwrap());
        }
    }
    let mut controller = RecoveryController::new(&code, SchemeKind::FbfCycling);
    let damage = group.damage_by_stripe();
    let plans: Vec<StripePlan> = damage.iter().map(|d| controller.plan_for(d)).collect();
    let joint = plans
        .iter()
        .filter(|p| matches!(p, StripePlan::Joint(_)))
        .count();
    assert!(joint > 0 && joint < plans.len(), "{joint} joint plans");
    let (scripts, calls) = counted(|| build_scripts_from_plans(&plans, &exec));
    assert_eq!(calls.realloc, 0, "build_scripts_from_plans: {calls:?}");
    assert_exactly_sized(&scripts, "build_scripts_from_plans");
}

/// One cold plan at the benchmark's `plan_cold` size (8192 stripes, 2048
/// errors, 128 workers) on each of its five shapes, in allocator calls.
/// The counts repeat exactly (seeded campaign, fixed hasher); each bound
/// is the count since chain usability is counted in scratch and damage
/// is merged without per-stripe lists, rounded up. The shared format
/// plan alone made 3 907 / 9 088 / 9 448 / 12 602 / 13 655; the
/// deep-copying, doubling planner before it 16 567 / 30 051 / 30 704 /
/// 39 011 / 43 539, moving 1.1–7.6 MB in `realloc`. `--nocapture` prints
/// today's.
#[test]
fn cold_plan_allocator_calls() {
    for (spec, p, bound) in [
        (CodeSpec::Tip, 7, 1_700),
        (CodeSpec::Tip, 11, 6_500),
        (CodeSpec::TripleStar, 11, 6_800),
        (CodeSpec::Hdd1, 13, 9_800),
        (CodeSpec::Star, 13, 10_700),
    ] {
        let cfg = config(spec, p, 8192, 2048, 128);
        let (plan, calls) = counted(|| PlannedCampaign::cold(&cfg).unwrap());
        let ops: usize = plan.scripts.iter().map(|s| s.ops.len()).sum();
        println!(
            "{spec:?} p={p}: {} allocator calls ({} alloc, {} realloc over {} bytes) \
             for {} stripes, {ops} script ops",
            calls.total(),
            calls.alloc,
            calls.realloc,
            calls.realloc_bytes,
            plan.schemes.len()
        );
        assert_exactly_sized(&plan.scripts, "PlannedCampaign::cold");
        // An op is 12 bytes (`SimTime` is 4-byte aligned), and that is
        // all a script's op list holds.
        let op_bytes: usize = (plan.scripts.iter())
            .map(|s| std::mem::size_of_val(s.ops.as_slice()))
            .sum();
        assert_eq!(op_bytes, ops * 12, "{spec:?} p={p}");
        assert!(
            calls.total() <= bound,
            "{spec:?} p={p}: {} allocator calls, more than {bound}",
            calls.total()
        );
        // What is left to `realloc` is the error generator's list and the
        // code's chain tables, nothing that grows with the scripts.
        assert!(calls.realloc_bytes < 100_000, "{spec:?} p={p}: {calls:?}");
    }
}
