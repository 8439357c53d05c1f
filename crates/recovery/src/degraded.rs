//! Degraded reads: serving application I/O that hits a lost chunk.
//!
//! While partial stripe errors await (or undergo) repair, applications
//! keep reading the array. A read that lands on a lost chunk cannot be
//! served from disk — the controller synthesizes it on the fly: fan out
//! reads for the cheapest repair chain, XOR, return. This is the
//! degraded-read path of Khan et al. (the paper's reference \[36\]) and the
//! second reason FBF holds favorable blocks: "the application can access
//! these chunks during partial stripe reconstruction" (§III-A-1). A warm
//! favorable block turns part of the fan-out into cache hits and cuts the
//! degraded read's latency.

use crate::controller::StripePlan;
use crate::joint::JointRepair;
use fbf_codes::repair::usable_repair_options;
use fbf_codes::{Cell, ChunkId, StripeCode};
use fbf_disksim::{Op, SimTime, WorkerScript};

/// Rewrite an application read stream into its *degraded* form: reads of
/// healthy chunks pass through; reads of lost chunks become a parallel
/// fan-out of the cheapest repair chain that avoids the stripe's other
/// lost cells — or, when no chain does, of the stripe's joint read set —
/// plus an XOR compute step.
///
/// `plans` are the campaign's stripe plans in stripe order: a chunk is
/// lost when its stripe's plan rebuilds it, and each fan-out read carries
/// that plan's priority, so a concurrently running FBF reconstruction
/// keeps its favorable blocks hot for exactly these fan-outs.
///
/// Returns the degraded script and the number of reads that were
/// degraded.
pub fn degrade_script(
    code: &StripeCode,
    app: &WorkerScript,
    plans: &[StripePlan],
    xor_time_per_chunk: SimTime,
) -> (WorkerScript, usize) {
    debug_assert!(plans.windows(2).all(|w| w[0].stripe() < w[1].stripe()));
    // Degraded reads are still application reads — keep the app stream's
    // request class so latency attribution does not misfile them as
    // recovery traffic.
    let mut out = WorkerScript {
        class: app.class,
        ..Default::default()
    };
    let mut degraded = 0usize;
    for op in &app.ops {
        let Op::Read { chunk, .. } = *op else {
            out.ops.push(*op);
            continue;
        };
        let plan = match plans.binary_search_by_key(&chunk.stripe, StripePlan::stripe) {
            Ok(i) if plans[i].lost().any(|c| c == chunk.cell) => &plans[i],
            _ => {
                out.ops.push(*op);
                continue;
            }
        };
        degraded += 1;
        let lost: Vec<Cell> = plan.lost().collect();
        let reads = match usable_repair_options(code, chunk.cell, &lost)
            .into_iter()
            .next()
        {
            Some(best) => best.reads,
            None => JointRepair::new(code, chunk.stripe, &lost).reads,
        };
        let n = reads.len() as u64;
        out.push_gather(
            reads
                .into_iter()
                .map(|cell| (ChunkId::new(chunk.stripe, cell), plan.priority(cell)))
                .collect(),
        );
        out.ops.push(Op::Compute {
            duration: SimTime::from_nanos(xor_time_per_chunk.as_nanos() * n),
        });
    }
    (out, degraded)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ErrorGroup, PartialStripeError, RecoveryController, SchemeKind};
    use fbf_codes::CodeSpec;

    fn plans(code: &StripeCode, group: &ErrorGroup) -> Vec<StripePlan> {
        let mut controller = RecoveryController::new(code, SchemeKind::FbfCycling);
        let damage = group.damage_by_stripe();
        damage.iter().map(|d| controller.plan_for(d)).collect()
    }

    fn setup() -> (StripeCode, Vec<StripePlan>) {
        let code = StripeCode::build(CodeSpec::Tip, 7).unwrap();
        let mut group = ErrorGroup::new();
        group.push(PartialStripeError::new(&code, 3, 0, 0, 4).unwrap());
        group.push(PartialStripeError::new(&code, 9, 2, 1, 2).unwrap());
        let plans = plans(&code, &group);
        (code, plans)
    }

    fn reads_of(chunks: impl IntoIterator<Item = ChunkId>) -> WorkerScript {
        let ops = chunks
            .into_iter()
            .map(|chunk| Op::Read { chunk, priority: 1 });
        WorkerScript {
            ops: ops.collect(),
            ..Default::default()
        }
    }

    #[test]
    fn healthy_reads_pass_through() {
        let (code, plans) = setup();
        // An undamaged stripe, and a healthy cell of a damaged one.
        let app = reads_of([
            ChunkId::new(5, Cell::new(1, 1)),
            ChunkId::new(3, Cell::new(0, 1)),
            ChunkId::new(4, Cell::new(0, 0)),
        ]);
        let (out, degraded) = degrade_script(&code, &app, &plans, SimTime::from_micros(8));
        assert_eq!(degraded, 0);
        assert_eq!(out.ops, app.ops);
    }

    #[test]
    fn lost_reads_become_gathers() {
        let (code, plans) = setup();
        let app = reads_of([ChunkId::new(3, Cell::new(1, 0))]);
        let (out, degraded) = degrade_script(&code, &app, &plans, SimTime::from_micros(8));
        assert_eq!(degraded, 1);
        assert_eq!(out.gathers.len(), 1);
        // The fan-out avoids other lost cells of the stripe, and reads at
        // the stripe plan's priorities.
        for &(chunk, priority) in &out.gathers[0].chunks {
            assert!(
                !plans[0].lost().any(|c| c == chunk.cell),
                "fan-out reads lost {chunk}"
            );
            assert_eq!(priority, plans[0].priority(chunk.cell));
        }
        // Followed by an XOR compute step.
        assert!(matches!(out.ops[1], Op::Compute { .. }));
    }

    #[test]
    fn degraded_fan_out_has_chain_length() {
        let (code, plans) = setup();
        let app = reads_of([ChunkId::new(9, Cell::new(1, 2))]);
        let (out, _) = degrade_script(&code, &app, &plans, SimTime::ZERO);
        // Cheapest chain for a TIP(p=7) data cell has >= 4 surviving cells.
        assert!(out.gathers[0].chunks.len() >= 4);
    }

    /// Regression: when no chain of a lost chunk avoids the stripe's other
    /// lost cells, the degraded read used to become a plain read of the
    /// *lost* chunk, which the engine served as if it existed. It fans out
    /// the stripe's joint read set instead.
    #[test]
    fn no_fan_out_reads_a_lost_chunk() {
        // STAR p=7, columns {0, 3}, rows 0..4: chain-by-chain repair stalls.
        let code = StripeCode::build(CodeSpec::Star, 7).unwrap();
        let mut group = ErrorGroup::new();
        for col in [0, 3] {
            group.push(PartialStripeError::new(&code, 2, col, 0, 4).unwrap());
        }
        let plans = plans(&code, &group);
        let lost: Vec<ChunkId> = plans[0].lost().map(|c| ChunkId::new(2, c)).collect();
        assert_eq!(lost.len(), 8);
        let app = reads_of(lost.iter().copied());
        let (out, degraded) = degrade_script(&code, &app, &plans, SimTime::from_micros(8));
        assert_eq!(degraded, lost.len());
        assert_eq!(out.gathers.len(), lost.len(), "every lost read fans out");
        for op in &out.ops {
            if let Op::Read { chunk, .. } = op {
                assert!(!lost.contains(chunk), "plain read of lost {chunk}");
            }
        }
        for gather in &out.gathers {
            for (chunk, _) in &gather.chunks {
                assert!(!lost.contains(chunk), "fan-out reads lost {chunk}");
            }
        }
    }
}
