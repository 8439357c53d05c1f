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
use fbf_codes::{Stripe, StripeCode};
use fbf_disksim::EngineScratch;
use fbf_recovery::{apply_scheme, generate_schemes_parallel, StripePlan};
use fbf_workload::{generate_errors, ErrorGenConfig};

/// Outcome of a verified campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VerifyReport {
    /// Stripes repaired and verified.
    pub stripes: usize,
    /// Chunks recovered and compared.
    pub chunks: usize,
    /// Bytes compared (chunks × chunk size).
    pub bytes: u64,
}

/// Replay `cfg`'s campaign on real payloads and verify every recovered
/// byte. Uses a small (1 KiB) payload per chunk — the XOR algebra is
/// size-independent, so this verifies the schemes, not the disk model.
pub fn verify_campaign(cfg: &ExperimentConfig) -> Result<VerifyReport, RunError> {
    let code = StripeCode::build(cfg.code, cfg.p)?;
    let errors = generate_errors(
        &code,
        &ErrorGenConfig::paper_default(cfg.stripes, cfg.error_count, cfg.seed),
    );
    let schemes = generate_schemes_parallel(&code, &errors, cfg.scheme, cfg.gen_threads)?;

    let chunk_size = 1024;
    let mut report = VerifyReport {
        stripes: 0,
        chunks: 0,
        bytes: 0,
    };
    for (damage, scheme) in errors.damage_by_stripe().iter().zip(&schemes) {
        assert_eq!(
            damage.stripe, scheme.stripe,
            "scheme order matches damage order"
        );
        let mut pristine =
            Stripe::patterned_seeded(code.layout(), chunk_size, damage.stripe as u64);
        encode(&code, &mut pristine).map_err(RunError::Code)?;
        let mut damaged = pristine.clone();
        for &cell in &damage.cells {
            damaged.erase(code.layout(), cell);
        }
        apply_scheme(&code, &mut damaged, scheme).map_err(RunError::Code)?;
        for &cell in &damage.cells {
            assert_eq!(
                damaged.get(code.layout(), cell),
                pristine.get(code.layout(), cell),
                "stripe {} cell {cell}: reconstruction produced wrong bytes",
                damage.stripe
            );
            report.chunks += 1;
            report.bytes += chunk_size as u64;
        }
        report.stripes += 1;
    }
    Ok(report)
}

/// Outcome of a verified *faulted* campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultedVerifyReport {
    /// Surviving stripes repaired and verified byte-for-byte.
    pub stripes: usize,
    /// Chunks recovered and compared (original + escalated damage).
    pub chunks: usize,
    /// Bytes compared.
    pub bytes: u64,
    /// Stripes correctly declared unrecoverable (damage past the code's
    /// fault tolerance) — excluded from the byte comparison.
    pub lost: usize,
}

/// Replay `cfg`'s campaign *with its fault plan* and verify that every
/// stripe the escalation driver reports as repaired decodes bit-for-bit.
///
/// Re-runs the multi-round execution to learn each stripe's final damage
/// and final plan, then checks on real payloads that the final plan
/// recovers the full accumulated damage — proving the re-planned repairs
/// are as sound as the originals. Lost stripes are checked to genuinely
/// exceed the code's fault tolerance.
pub fn verify_campaign_faulted(cfg: &ExperimentConfig) -> Result<FaultedVerifyReport, RunError> {
    cfg.validate()?;
    let code = StripeCode::build(cfg.code, cfg.p)?;
    let plan = PlannedCampaign::cold(cfg)?;
    let outcome = execute_faulted(cfg, &plan, &mut EngineScratch::new());

    let chunk_size = 1024;
    let mut report = FaultedVerifyReport {
        stripes: 0,
        chunks: 0,
        bytes: 0,
        lost: 0,
    };
    for damage in &outcome.surviving_damage {
        let final_plan = outcome
            .final_plans
            .get(&damage.stripe)
            .expect("surviving stripe has a final plan");
        let mut pristine =
            Stripe::patterned_seeded(code.layout(), chunk_size, damage.stripe as u64);
        encode(&code, &mut pristine).map_err(RunError::Code)?;
        let mut damaged = pristine.clone();
        for &cell in &damage.cells {
            damaged.erase(code.layout(), cell);
        }
        match final_plan {
            StripePlan::Chained(s) => {
                apply_scheme(&code, &mut damaged, s).map_err(RunError::Code)?
            }
            StripePlan::Joint(j) => j.apply(&code, &mut damaged).map_err(RunError::Code)?,
        }
        for &cell in &damage.cells {
            assert_eq!(
                damaged.get(code.layout(), cell),
                pristine.get(code.layout(), cell),
                "stripe {} cell {cell}: faulted reconstruction produced wrong bytes",
                damage.stripe
            );
            report.chunks += 1;
            report.bytes += chunk_size as u64;
        }
        report.stripes += 1;
    }
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
        let report = verify_campaign_faulted(&faulted_cfg(30, None)).unwrap();
        assert_eq!(report.stripes + report.lost, 48);
        assert!(report.stripes > 0, "most stripes survive 30‰");
        assert_eq!(report.bytes, report.chunks as u64 * 1024);
    }

    #[test]
    fn verifies_through_a_disk_kill() {
        let report = verify_campaign_faulted(&faulted_cfg(20, Some(4))).unwrap();
        assert_eq!(report.stripes + report.lost, 48);
    }

    #[test]
    fn faultless_plan_matches_plain_verify() {
        let mut cfg = faulted_cfg(0, None);
        cfg.faults = FaultPlan::none();
        let plain = verify_campaign(&cfg).unwrap();
        let faulted = verify_campaign_faulted(&cfg).unwrap();
        assert_eq!(faulted.stripes, plain.stripes);
        assert_eq!(faulted.chunks, plain.chunks);
        assert_eq!(faulted.lost, 0);
    }
}
