//! Parallel reconstruction helpers (§III-B).
//!
//! Two layers of parallelism exist in this reproduction:
//!
//! * **Inside the simulation** — SOR workers are *logical* processes whose
//!   contention the engine models in virtual time.
//! * **On the host** — campaign planning is pure CPU work, embarrassingly
//!   parallel per stripe. [`plan_campaign_parallel`] — the planning path of
//!   every `gen_threads` value — runs one format-memoising
//!   [`RecoveryController`] per `std::thread::scope` thread over disjoint
//!   contiguous ranges of the damaged stripes (no shared mutable state,
//!   join for the results). [`generate_schemes_parallel`] fans out the
//!   same way but generates every stripe from scratch: it is the
//!   un-memoised oracle the differential tests and Table IV's `full_*`
//!   columns compare the controller against.

use crate::controller::RecoveryController;
use crate::error::{stripe_runs, ErrorGroup};
use crate::scheme::{generate_for_cells, RecoveryScheme, SchemeError, SchemeKind};
use fbf_codes::StripeCode;

/// Run `work` over contiguous slices of `items` on up to `threads` host
/// threads (`0` = one per available CPU, never more than one per item);
/// at least one result, in slice order.
fn fan_out<D: Sync, T: Send>(
    items: &[D],
    threads: usize,
    work: impl Fn(&[D]) -> T + Sync,
) -> Vec<T> {
    let threads = if threads == 0 {
        std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1)
    } else {
        threads
    }
    .min(items.len());
    if threads <= 1 {
        return vec![work(items)];
    }
    let work = &work;
    // Joins every worker and re-raises a worker's panic.
    std::thread::scope(|scope| {
        let workers: Vec<_> = items
            .chunks(items.len().div_ceil(threads))
            .map(|slice| scope.spawn(move || work(slice)))
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .collect()
    })
}

/// Plan a campaign — one scheme per damaged stripe, in stripe order, each
/// carrying its priorities — on `threads` host threads (`0` = one per
/// available CPU).
///
/// Each thread runs its own [`RecoveryController`] over a contiguous slice
/// of the damaged stripes, so every thread count memoises by format; the
/// slices' results are concatenated in stripe order. The plan does not
/// depend on `threads`: a scheme and its table are functions of the
/// damage format alone, and an error is the first one in stripe order.
/// Each stripe's errors are merged in the thread's one reused cell buffer.
pub fn plan_campaign_parallel(
    code: &StripeCode,
    group: &ErrorGroup,
    kind: SchemeKind,
    threads: usize,
) -> Result<Vec<RecoveryScheme>, SchemeError> {
    let errors = group.by_stripe();
    let runs = stripe_runs(&errors);
    let mut parts = fan_out(&runs, threads, |slice| {
        RecoveryController::new(code, kind).plan_runs(slice)
    })
    .into_iter();
    let mut schemes = parts.next().expect("fan_out yields a result")?;
    for part in parts {
        schemes.extend(part?);
    }
    Ok(schemes)
}

/// Generate one scheme per *damaged stripe* (same-stripe errors merged)
/// from scratch — no format memo — in parallel across host threads.
///
/// Results are ordered by stripe. `threads = 0` means one thread per
/// available CPU (capped by the number of stripes).
pub fn generate_schemes_parallel(
    code: &StripeCode,
    group: &ErrorGroup,
    kind: SchemeKind,
    threads: usize,
) -> Result<Vec<RecoveryScheme>, SchemeError> {
    let damages = group.damage_by_stripe();
    let parts = fan_out(&damages, threads, |slice| {
        slice
            .iter()
            .map(|d| generate_for_cells(code, d.stripe, &d.cells, kind))
            .collect::<Result<Vec<_>, _>>()
    });
    let mut schemes = Vec::with_capacity(damages.len());
    for part in parts {
        schemes.extend(part?);
    }
    Ok(schemes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::PartialStripeError;
    use fbf_codes::CodeSpec;

    fn group(code: &StripeCode, n: u32) -> ErrorGroup {
        let mut g = ErrorGroup::new();
        for s in 0..n {
            let col = (s as usize) % code.cols();
            let len = 1 + (s as usize) % (code.rows() - 1);
            g.push(PartialStripeError::new(code, s, col, 0, len).unwrap());
        }
        g
    }

    #[test]
    fn parallel_generation_matches_serial() {
        let code = StripeCode::build(CodeSpec::TripleStar, 7).unwrap();
        let g = group(&code, 25);
        let serial = generate_schemes_parallel(&code, &g, SchemeKind::FbfCycling, 1).unwrap();
        let parallel = generate_schemes_parallel(&code, &g, SchemeKind::FbfCycling, 4).unwrap();
        assert_eq!(serial, parallel, "scheme generation must be deterministic");
        assert_eq!(serial.len(), 25);
    }

    #[test]
    fn planning_does_not_depend_on_thread_count() {
        let code = StripeCode::build(CodeSpec::TripleStar, 7).unwrap();
        let g = group(&code, 25);
        let oracle = generate_schemes_parallel(&code, &g, SchemeKind::FbfCycling, 1).unwrap();
        for threads in [0, 1, 2, 4, 64] {
            let schemes =
                plan_campaign_parallel(&code, &g, SchemeKind::FbfCycling, threads).unwrap();
            // Scheme equality compares the priority tables too.
            assert_eq!(schemes, oracle, "{threads} threads");
        }
        let none =
            plan_campaign_parallel(&code, &ErrorGroup::new(), SchemeKind::Typical, 4).unwrap();
        assert!(none.is_empty());
    }

    #[test]
    fn zero_threads_uses_available_parallelism() {
        let code = StripeCode::build(CodeSpec::Tip, 5).unwrap();
        let g = group(&code, 8);
        let schemes = generate_schemes_parallel(&code, &g, SchemeKind::Typical, 0).unwrap();
        assert_eq!(schemes.len(), 8);
    }

    #[test]
    fn empty_group_yields_no_schemes() {
        let code = StripeCode::build(CodeSpec::Tip, 5).unwrap();
        let schemes =
            generate_schemes_parallel(&code, &ErrorGroup::new(), SchemeKind::Typical, 4).unwrap();
        assert!(schemes.is_empty());
    }
}
