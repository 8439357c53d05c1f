//! Mid-recovery failure escalation: unreadable chunks become erasures.
//!
//! When a recovery read fails hard (latent sector error, exhausted
//! retries, dead disk), the chunk the repair wanted to *read* is itself
//! lost. The controller's answer is the same as for the original damage:
//! fold the chunk into the stripe's damage set and re-plan the stripe
//! against the enlarged pattern — the new plan never reads a known-lost
//! cell, so a given chunk can fail at most once. Escalation therefore
//! terminates: damage grows strictly per round and is bounded by the
//! stripe's geometry.
//!
//! A 3DFT code tolerates any damage confined to at most
//! [`fault_tolerance`](fbf_codes::CodeSpec::fault_tolerance) columns. The
//! moment a stripe's accumulated damage spans more columns, no plan
//! exists; the stripe is reported as a typed [`DataLoss`] — never a
//! panic — and dropped from further rounds.

use crate::controller::{RecoveryController, StripePlan};
use crate::error::{ErrorGroup, StripeDamage};
use crate::scheme::SchemeKind;
use fbf_codes::{Cell, StripeCode};
use fbf_disksim::FailedRead;
use std::collections::{BTreeMap, BTreeSet};

/// A stripe whose accumulated damage exceeds the code's fault tolerance:
/// unrecoverable, reported instead of repaired.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DataLoss {
    /// The unrecoverable stripe.
    pub stripe: u32,
    /// Distinct damaged columns at the moment of loss (exceeds the code's
    /// fault tolerance by construction).
    pub columns: usize,
    /// The full damage set at the moment of loss.
    pub cells: Vec<Cell>,
}

/// Result of absorbing one engine round's hard failures.
#[derive(Debug)]
pub struct Absorbed {
    /// Fresh plans for every still-recoverable stripe that grew damage
    /// this round, in stripe order; each carries its own priorities.
    pub replans: Vec<StripePlan>,
    /// Stripes that crossed the fault-tolerance line this round.
    pub data_loss: Vec<DataLoss>,
}

/// The escalation state machine: per-stripe accumulated damage plus a
/// memoised re-planner.
pub struct Escalator<'a> {
    code: &'a StripeCode,
    controller: RecoveryController<'a>,
    /// Accumulated damage per stripe (initial campaign + every escalated
    /// read failure).
    damage: BTreeMap<u32, StripeDamage>,
    /// Stripes already declared unrecoverable.
    lost: BTreeSet<u32>,
    tolerance: usize,
    replans: u64,
    rounds: u64,
}

impl<'a> Escalator<'a> {
    /// Start from a campaign's initial damage.
    pub fn new(code: &'a StripeCode, kind: SchemeKind, group: &ErrorGroup) -> Self {
        let damage = group
            .damage_by_stripe()
            .into_iter()
            .map(|d| (d.stripe, d))
            .collect();
        Escalator {
            tolerance: code.spec().fault_tolerance(),
            code,
            controller: RecoveryController::new(code, kind),
            damage,
            lost: BTreeSet::new(),
            replans: 0,
            rounds: 0,
        }
    }

    /// Fold one round of hard read failures into the damage sets and
    /// produce replacement plans (or [`DataLoss`] verdicts) for every
    /// affected stripe. Deterministic: failures arrive in the engine's
    /// replay-exact order and all internal state is ordered.
    pub fn absorb(&mut self, failures: &[FailedRead]) -> Absorbed {
        self.rounds += 1;
        let mut touched: BTreeSet<u32> = BTreeSet::new();
        for f in failures {
            let stripe = f.chunk.stripe;
            if self.lost.contains(&stripe) {
                continue;
            }
            let damage = self.damage.entry(stripe).or_insert_with(|| StripeDamage {
                stripe,
                cells: Vec::new(),
            });
            match f.kind {
                // A dead disk loses the whole column for this stripe (all
                // rows of a stripe-column live on one disk); marking it
                // now spares one futile round per remaining row.
                fbf_disksim::ReadFailure::DeadDisk => {
                    let col = f.chunk.cell.c();
                    for r in 0..self.code.rows() {
                        damage.insert(Cell::new(r, col));
                    }
                }
                _ => damage.insert(f.chunk.cell),
            }
            touched.insert(stripe);
        }

        let mut replans = Vec::with_capacity(touched.len());
        let mut data_loss = Vec::new();
        for stripe in touched {
            let damage = &self.damage[&stripe];
            let columns = damage.cells.iter().map(|c| c.c()).collect::<BTreeSet<_>>();
            if columns.len() > self.tolerance {
                self.lost.insert(stripe);
                data_loss.push(DataLoss {
                    stripe,
                    columns: columns.len(),
                    cells: damage.cells.clone(),
                });
            } else {
                replans.push(self.controller.plan_for(damage));
            }
        }
        self.replans += replans.len() as u64;
        Absorbed { replans, data_loss }
    }

    /// Accumulated damage of every stripe *not* declared lost, in stripe
    /// order — what a surviving stripe's repair must have recovered.
    pub fn damage(&self) -> impl Iterator<Item = &StripeDamage> {
        self.damage
            .values()
            .filter(|d| !self.lost.contains(&d.stripe))
    }

    /// Re-plans issued so far (stripes × rounds, not chunk count).
    pub fn replans(&self) -> u64 {
        self.replans
    }

    /// Escalation rounds absorbed so far.
    pub fn rounds(&self) -> u64 {
        self.rounds
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::PartialStripeError;
    use fbf_codes::{ChunkId, CodeSpec};
    use fbf_disksim::ReadFailure;

    fn code() -> StripeCode {
        StripeCode::build(CodeSpec::Tip, 7).unwrap()
    }

    fn failed(stripe: u32, r: usize, c: usize, kind: ReadFailure) -> FailedRead {
        FailedRead {
            chunk: ChunkId::new(stripe, Cell::new(r, c)),
            worker: 0,
            kind,
        }
    }

    fn group(code: &StripeCode, stripes: u32) -> ErrorGroup {
        let mut g = ErrorGroup::new();
        for s in 0..stripes {
            g.push(PartialStripeError::new(code, s, 0, 0, 3).unwrap());
        }
        g
    }

    #[test]
    fn media_failure_enlarges_damage_and_replans() {
        let code = code();
        let mut esc = Escalator::new(&code, SchemeKind::FbfCycling, &group(&code, 4));
        // Stripe 1 loses a read chunk in column 2.
        let out = esc.absorb(&[failed(1, 0, 2, ReadFailure::Media)]);
        assert!(out.data_loss.is_empty());
        assert_eq!(out.replans.len(), 1);
        assert_eq!(out.replans[0].stripe(), 1);
        assert_eq!(esc.replans(), 1);
        // The new plan rebuilds exactly the enlarged damage and reads no
        // damaged cell.
        let damage = esc.damage().nth(1).unwrap();
        assert_eq!(damage.cells.len(), 4);
        let mut lost: Vec<Cell> = out.replans[0].lost().collect();
        lost.sort_unstable();
        assert_eq!(lost, damage.cells);
        let reads: Vec<Cell> = match &out.replans[0] {
            StripePlan::Chained(s) => s
                .repairs
                .iter()
                .flat_map(|r| r.option.reads.clone())
                .collect(),
            StripePlan::Joint(j) => j.reads.clone(),
        };
        for cell in &reads {
            assert!(!damage.cells.contains(cell), "plan reads damaged {cell}");
        }
    }

    #[test]
    fn fourth_column_is_data_loss_for_3dft() {
        let code = code();
        // Initial damage in column 0; fail reads in columns 1, 2, 3.
        let mut esc = Escalator::new(&code, SchemeKind::FbfCycling, &group(&code, 1));
        let out = esc.absorb(&[
            failed(0, 0, 1, ReadFailure::Media),
            failed(0, 0, 2, ReadFailure::Media),
            failed(0, 0, 3, ReadFailure::Media),
        ]);
        assert_eq!(out.data_loss.len(), 1, "4 columns beats tolerance 3");
        assert_eq!(out.data_loss[0].stripe, 0);
        assert_eq!(out.data_loss[0].columns, 4);
        assert!(out.replans.is_empty());
        assert_eq!(
            esc.damage().count(),
            0,
            "a lost stripe has no surviving damage"
        );
        // The verdict carries the full damage: the initial run plus the
        // three failed reads.
        assert_eq!(out.data_loss[0].cells.len(), 3 + 3);
    }

    #[test]
    fn dead_disk_takes_the_whole_column() {
        let code = code();
        let mut esc = Escalator::new(&code, SchemeKind::FbfCycling, &group(&code, 2));
        let out = esc.absorb(&[failed(0, 2, 4, ReadFailure::DeadDisk)]);
        assert_eq!(out.replans.len(), 1);
        let damage = esc.damage().next().unwrap();
        let col4 = damage.cells.iter().filter(|c| c.c() == 4).count();
        assert_eq!(col4, code.rows(), "entire column marked lost");
    }

    #[test]
    fn lost_stripes_are_not_replanned_again() {
        let code = code();
        let mut esc = Escalator::new(&code, SchemeKind::FbfCycling, &group(&code, 1));
        esc.absorb(&[
            failed(0, 0, 1, ReadFailure::Media),
            failed(0, 0, 2, ReadFailure::Media),
            failed(0, 0, 3, ReadFailure::Media),
        ]);
        let again = esc.absorb(&[failed(0, 1, 5, ReadFailure::Media)]);
        assert!(again.replans.is_empty());
        assert!(again.data_loss.is_empty(), "already reported, not repeated");
        assert_eq!(esc.rounds(), 2);
    }

    #[test]
    fn absorb_is_deterministic() {
        let code = code();
        let failures = [
            failed(2, 1, 3, ReadFailure::Media),
            failed(0, 0, 5, ReadFailure::RetriesExhausted),
            failed(2, 4, 1, ReadFailure::Media),
        ];
        let run = |fails: &[FailedRead]| {
            let mut esc = Escalator::new(&code, SchemeKind::FbfCycling, &group(&code, 3));
            let out = esc.absorb(fails);
            (
                out.replans
                    .iter()
                    .map(StripePlan::stripe)
                    .collect::<Vec<_>>(),
                out.data_loss.len(),
                esc.damage().cloned().collect::<Vec<_>>(),
            )
        };
        assert_eq!(run(&failures), run(&failures));
    }
}
