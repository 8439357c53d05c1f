//! Campaign verification: read the repaired array back.
//!
//! The data plane ([`crate::backend_run`]) is the engine's run moving real
//! bytes, so checking a campaign is checking what that run left on its
//! backend. [`verify_backend`] reads every repaired stripe back whole
//! ([`StorageBackend::read_stripe`]), requires every chain equation of the
//! code to hold, and holds the run's counts to what it read. It checks the
//! code, not a generator, so it verifies any content a backend holds. [`verify_campaign`] is that
//! check after a run on a [`SimBackend`](fbf_disksim::SimBackend) at the
//! config's chunk size: run it after a sweep to certify that the timing
//! results describe a reconstruction that actually produces correct data.

use crate::backend_run::{run_planned_on, sim_backend_for};
use crate::config::ExperimentConfig;
use crate::metrics::Metrics;
use crate::plan::{PlanSource, PlannedCampaign};
use crate::runner::RunError;
use fbf_codes::encode::verify;
use fbf_codes::{ChunkId, Stripe, StripeCode};
use fbf_disksim::StorageBackend;

/// Outcome of a verified campaign.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VerifyReport {
    /// Damaged stripes that read back with every chain equation holding.
    pub stripes: usize,
    /// Chunks of those stripes served from the spare area: the original
    /// damage plus what escalation added.
    pub chunks: usize,
    /// Bytes of those chunks (chunks × chunk size).
    pub bytes: u64,
    /// Stripes correctly declared unrecoverable (damage past the code's
    /// fault tolerance) — excluded from the read-back. Zero unless the
    /// config's fault plan destroyed data.
    pub lost: usize,
}

/// Run `cfg`'s campaign — under its fault plan, if it has one — on a
/// [`SimBackend`](fbf_disksim::SimBackend) and [`verify_backend`] the
/// result.
pub fn verify_campaign(cfg: &ExperimentConfig) -> Result<VerifyReport, RunError> {
    cfg.validate()?;
    let plan = PlannedCampaign::cold(cfg)?;
    let mut backend = sim_backend_for(cfg, &plan)?;
    let metrics = run_planned_on(cfg, &plan, PlanSource::Cold, &mut backend)?;
    verify_backend(cfg, &plan, &metrics, &mut backend)
}

/// Check what the run that reported `metrics` left on `backend`:
///
/// * every stripe in `metrics.data_loss` exceeds the code's fault
///   tolerance;
/// * every other damaged stripe whose originally lost chunks were all
///   rewritten to the spare area reads back with no violated chain. The
///   stripe was decoded from its surviving cells, so its erased cells have
///   exactly one assignment that satisfies every chain: zero syndromes
///   mean the repaired bytes are the lost bytes, whatever the content;
/// * the stripes so verified, their spare-written chunks, the lost stripes
///   and the rest (left with an original chunk unwritten) equal the run's
///   `stripes_repaired`, `chunks_recovered`, `stripes_lost` and
///   `stripes_unresolved`. Escalated damage is covered by the chunk count.
///
/// A failed check is [`RunError::Verify`]; a backend that cannot serve a
/// read is [`RunError::Backend`].
pub fn verify_backend(
    cfg: &ExperimentConfig,
    plan: &PlannedCampaign,
    metrics: &Metrics,
    backend: &mut dyn StorageBackend,
) -> Result<VerifyReport, RunError> {
    let code = StripeCode::build(cfg.code, cfg.p)?;
    let tolerance = code.spec().fault_tolerance();
    if let Some(loss) = metrics.data_loss.iter().find(|l| l.columns <= tolerance) {
        return Err(RunError::Verify(format!(
            "stripe {} declared lost at {} columns within tolerance {tolerance}",
            loss.stripe, loss.columns
        )));
    }
    let mut report = VerifyReport {
        lost: metrics.data_loss.len(),
        ..VerifyReport::default()
    };
    let mut unresolved = 0;
    let chunk_bytes = backend.chunk_bytes();
    // One stripe of buffers for the whole check, refilled by each read.
    let mut read_back = Stripe::zeroed(code.layout(), chunk_bytes);
    for damage in plan.errors.damage_by_stripe() {
        let stripe = damage.stripe;
        if metrics.data_loss.iter().any(|l| l.stripe == stripe) {
            continue;
        }
        if !(damage.cells.iter()).all(|&cell| backend.is_repaired(ChunkId::new(stripe, cell))) {
            unresolved += 1;
            continue;
        }
        (backend.read_stripe(stripe, &mut read_back)).map_err(RunError::Backend)?;
        report.chunks += (code.layout().cells())
            .filter(|&cell| backend.is_repaired(ChunkId::new(stripe, cell)))
            .count();
        if !verify(&code, &read_back).is_empty() {
            return Err(RunError::Verify(format!(
                "stripe {stripe} reads back with violated chain equations"
            )));
        }
        report.stripes += 1;
    }
    report.bytes = (report.chunks * chunk_bytes) as u64;
    let read_back = (report.stripes, report.chunks, report.lost, unresolved);
    let run = (
        metrics.stripes_repaired,
        metrics.chunks_recovered,
        metrics.stripes_lost,
        metrics.stripes_unresolved,
    );
    if read_back != run {
        return Err(RunError::Verify(format!(
            "read back (stripes, chunks, lost, unresolved) = {read_back:?}, the run reports {run:?}"
        )));
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
            .chunk_kb(1)
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
                .chunk_kb(1)
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
            .chunk_kb(1)
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
