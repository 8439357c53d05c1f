//! Campaign verification: the simulated reconstruction, re-executed on
//! real bytes.
//!
//! The simulator moves chunk *identities*; this module closes the loop by
//! replaying the exact same campaign (same seed, same schemes) against
//! per-stripe payload buffers and checking every recovered chunk
//! bit-for-bit against the original. Run it after a sweep to certify that
//! the timing results describe a reconstruction that actually produces
//! correct data.

use crate::config::ExperimentConfig;
use crate::faulted::execute_faulted;
use crate::plan::PlannedCampaign;
use crate::runner::RunError;
use fbf_codes::encode::encode;
use fbf_codes::{CodeError, Stripe, StripeCode};
use fbf_disksim::EngineScratch;
use fbf_recovery::{apply_scheme, StripeDamage};
use std::collections::BTreeSet;

/// Payload bytes per chunk — small: the XOR algebra is size-independent,
/// so this verifies the schemes, not the disk model.
const CHUNK_SIZE: usize = 1024;

/// Outcome of a verified campaign.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VerifyReport {
    /// Surviving stripes repaired and verified byte-for-byte.
    pub stripes: usize,
    /// Chunks recovered and compared (original + escalated damage).
    pub chunks: usize,
    /// Bytes compared (chunks × chunk size).
    pub bytes: u64,
    /// Stripes correctly declared unrecoverable (damage past the code's
    /// fault tolerance) — excluded from the byte comparison. Zero unless
    /// the config's fault plan destroyed data.
    pub lost: usize,
}

impl VerifyReport {
    /// Erase `damage` from a freshly encoded stripe, run `repair` on it
    /// and compare every recovered chunk with the original.
    fn check(
        &mut self,
        code: &StripeCode,
        damage: &StripeDamage,
        repair: impl FnOnce(&mut Stripe) -> Result<(), CodeError>,
    ) -> Result<(), RunError> {
        let mut pristine =
            Stripe::patterned_seeded(code.layout(), CHUNK_SIZE, damage.stripe as u64);
        encode(code, &mut pristine).map_err(RunError::Code)?;
        let mut damaged = pristine.clone();
        for &cell in &damage.cells {
            damaged.erase(code.layout(), cell);
        }
        repair(&mut damaged).map_err(RunError::Code)?;
        for &cell in &damage.cells {
            assert_eq!(
                damaged.get(code.layout(), cell),
                pristine.get(code.layout(), cell),
                "stripe {} cell {cell}: reconstruction produced wrong bytes",
                damage.stripe
            );
            self.chunks += 1;
            self.bytes += CHUNK_SIZE as u64;
        }
        self.stripes += 1;
        Ok(())
    }
}

/// Replay `cfg`'s campaign — under its fault plan, if it has one — and
/// verify that every stripe the simulated run reports as repaired decodes
/// bit-for-bit.
///
/// Runs the same execution as [`run_experiment`](crate::run_experiment)
/// to learn each stripe's final damage and final plan (its original
/// scheme, or its last re-plan against the accumulated damage), then
/// checks on real payloads that the plan recovers the damage — proving
/// re-planned repairs are as sound as the originals. Lost stripes are
/// checked to genuinely exceed the code's fault tolerance.
pub fn verify_campaign(cfg: &ExperimentConfig) -> Result<VerifyReport, RunError> {
    cfg.validate()?;
    let code = StripeCode::build(cfg.code, cfg.p)?;
    let plan = PlannedCampaign::cold(cfg)?;
    let outcome = execute_faulted(cfg, &plan, &mut EngineScratch::new(), None);

    let mut report = VerifyReport::default();
    // Stripes the original schemes did not repair, re-planned ones aside.
    let unrepaired: BTreeSet<u32> = (outcome.data_loss.iter().map(|d| d.stripe))
        .chain(outcome.unresolved.iter().map(|d| d.stripe))
        .collect();
    // A re-planned stripe is erased by the escalator's final damage, never
    // by the targets its plan chose, so a plan that skips a cell fails.
    for (damage, scheme) in plan.errors.damage_by_stripe().iter().zip(&plan.schemes) {
        match outcome.replanned.get(&damage.stripe) {
            Some((damage, replan)) => report.check(&code, damage, |s| replan.restore(&code, s))?,
            None if unrepaired.contains(&damage.stripe) => {}
            None => report.check(&code, damage, |s| apply_scheme(&code, s, scheme))?,
        }
    }
    assert_eq!(
        (report.stripes, report.chunks),
        (outcome.stripes_repaired, outcome.chunks_recovered),
        "the run counts as repaired exactly what was verified"
    );
    let tolerance = code.spec().fault_tolerance();
    for loss in &outcome.data_loss {
        assert!(
            loss.columns > tolerance,
            "stripe {} declared lost at {} columns within tolerance {}",
            loss.stripe,
            loss.columns,
            tolerance
        );
        report.lost += 1;
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fbf_codes::CodeSpec;
    use fbf_disksim::{DiskKill, FaultPlan, RetryPolicy, SimTime};

    #[test]
    fn verifies_a_default_campaign() {
        let cfg = ExperimentConfig::builder()
            .stripes(128)
            .error_count(48)
            .gen_threads(1)
            .build()
            .unwrap();
        let report = verify_campaign(&cfg).unwrap();
        assert_eq!(report.stripes, 48);
        assert!(report.chunks >= 48);
        assert_eq!(report.bytes, report.chunks as u64 * 1024);
    }

    #[test]
    fn verifies_every_code() {
        for spec in CodeSpec::ALL {
            let cfg = ExperimentConfig::builder()
                .code(spec)
                .p(7)
                .stripes(64)
                .error_count(24)
                .gen_threads(1)
                .build()
                .unwrap();
            let report = verify_campaign(&cfg).unwrap();
            assert_eq!(report.stripes, 24, "{spec:?}");
        }
    }

    fn faulted_cfg(media: u16, kill: Option<u32>) -> ExperimentConfig {
        let mut cfg = ExperimentConfig::builder()
            .stripes(128)
            .error_count(48)
            .workers(8)
            .gen_threads(1)
            .build()
            .unwrap();
        cfg.faults = FaultPlan {
            seed: 7,
            media_per_mille: media,
            retry: RetryPolicy::default(),
            disk_kill: kill.map(|disk| DiskKill {
                disk,
                at: SimTime::from_millis(30),
            }),
            ..FaultPlan::none()
        };
        cfg
    }

    #[test]
    fn verifies_a_media_faulted_campaign() {
        let report = verify_campaign(&faulted_cfg(30, None)).unwrap();
        assert_eq!(report.stripes + report.lost, 48);
        assert!(report.stripes > 0, "most stripes survive 30‰");
        assert_eq!(report.bytes, report.chunks as u64 * 1024);
    }

    #[test]
    fn verifies_through_a_disk_kill() {
        let report = verify_campaign(&faulted_cfg(20, Some(4))).unwrap();
        assert_eq!(report.stripes + report.lost, 48);
    }

    #[test]
    fn faultless_plan_matches_plain_verify() {
        // Without faults the verified set is the plan's own bookkeeping.
        let mut cfg = faulted_cfg(0, None);
        cfg.faults = FaultPlan::none();
        let plan = PlannedCampaign::cold(&cfg).unwrap();
        let report = verify_campaign(&cfg).unwrap();
        assert_eq!(report.stripes, plan.schemes.len());
        assert_eq!(report.chunks, plan.chunks_lost);
        assert_eq!(report.lost, 0);
    }
}
