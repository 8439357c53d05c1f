//! Parallel reconstruction helpers (§III-B).
//!
//! Two layers of parallelism exist in this reproduction:
//!
//! * **Inside the simulation** — SOR workers are *logical* processes whose
//!   contention the engine models in virtual time; [`assign_round_robin`]
//!   partitions stripes over them.
//! * **On the host** — scheme generation for a large campaign is pure
//!   CPU work, embarrassingly parallel per stripe.
//!   [`generate_schemes_parallel`] fans it out over `std::thread::scope`
//!   threads (the guides' recommended shape: spawn N workers over disjoint
//!   index ranges, no shared mutable state, join for the results).

use crate::error::{ErrorGroup, StripeDamage};
use crate::scheme::{generate_for_cells, RecoveryScheme, SchemeError, SchemeKind};
use fbf_codes::StripeCode;

/// Assign error indices to `workers` queues round-robin (SOR's
/// stripe-oriented partitioning).
pub fn assign_round_robin(group: &ErrorGroup, workers: usize) -> Vec<Vec<usize>> {
    let workers = workers.max(1).min(group.len().max(1));
    let mut queues = vec![Vec::new(); workers];
    for i in 0..group.len() {
        queues[i % workers].push(i);
    }
    queues
}

/// Generate one scheme per *damaged stripe* (same-stripe errors merged),
/// in parallel across host threads.
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
    let n = damages.len();
    if n == 0 {
        return Ok(Vec::new());
    }
    let threads = if threads == 0 {
        std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1)
    } else {
        threads
    }
    .min(n);

    let gen_one = |d: &StripeDamage| generate_for_cells(code, d.stripe, &d.cells, kind);

    if threads <= 1 {
        return damages.iter().map(gen_one).collect();
    }

    let mut out: Vec<Option<Result<RecoveryScheme, SchemeError>>> = Vec::new();
    out.resize_with(n, || None);
    let chunk = n.div_ceil(threads);

    // Joins every worker and re-raises a worker's panic.
    std::thread::scope(|scope| {
        for (slice, damages) in out.chunks_mut(chunk).zip(damages.chunks(chunk)) {
            scope.spawn(move || {
                for (slot, d) in slice.iter_mut().zip(damages) {
                    *slot = Some(generate_for_cells(code, d.stripe, &d.cells, kind));
                }
            });
        }
    });

    out.into_iter()
        .map(|r| r.expect("every slot filled by its worker"))
        .collect()
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
    fn round_robin_covers_everything_evenly() {
        let code = StripeCode::build(CodeSpec::Tip, 7).unwrap();
        let g = group(&code, 10);
        let queues = assign_round_robin(&g, 3);
        assert_eq!(queues.len(), 3);
        let mut seen: Vec<usize> = queues.concat();
        seen.sort_unstable();
        assert_eq!(seen, (0..10).collect::<Vec<_>>());
        let sizes: Vec<usize> = queues.iter().map(|q| q.len()).collect();
        assert_eq!(sizes, vec![4, 3, 3]);
    }

    #[test]
    fn round_robin_more_workers_than_errors() {
        let code = StripeCode::build(CodeSpec::Tip, 7).unwrap();
        let g = group(&code, 2);
        let queues = assign_round_robin(&g, 16);
        assert_eq!(queues.len(), 2);
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
