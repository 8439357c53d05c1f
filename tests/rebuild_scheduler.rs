//! End-to-end smoke for the array-wide rebuild scheduler, through the
//! public `fbf` facade (the same path `fbf rebuild` and the daemon's
//! rebuild job take).
//!
//! Pins the two contracts the benchmark and CI e2e lean on:
//!
//! * **Determinism** — a rebuild is a pure function of its spec: two
//!   runs agree on every counter, latency digest, and the rendered
//!   JSON, even with fault injection racing the repair waves.
//! * **Declustering wins** — at array scale, declustered placement
//!   strictly reduces both the max/mean rebuild-read skew and the
//!   reconstruction makespan against the clustered baseline.

use fbf::disksim::FaultPlan;
use fbf::{run_rebuild, ExperimentConfig, Fairness, Placement, RebuildSpec};

fn small_base() -> ExperimentConfig {
    ExperimentConfig::builder()
        .chunk_kb(1)
        .cache_mb(1)
        .stripes(192)
        .error_count(32)
        .workers(16)
        .gen_threads(1)
        .build()
        .unwrap()
}

fn spec(placement: Placement) -> RebuildSpec {
    let mut base = small_base();
    // Media errors race the rebuild waves; the merged report must still
    // be reproducible bit for bit.
    base.faults = FaultPlan {
        media_per_mille: 5,
        seed: 7,
        ..FaultPlan::none()
    };
    let mut spec = RebuildSpec::new(base, 48);
    spec.placement = placement;
    spec.fairness = Fairness::DeficitWeighted;
    spec.app_reads_per_wave = 64;
    spec
}

#[test]
fn rebuild_under_faults_is_deterministic_run_to_run() {
    let spec = spec(Placement::Declustered { seed: 0x5EED });
    let a = run_rebuild(&spec).expect("first run");
    let b = run_rebuild(&spec).expect("second run");

    assert_eq!(a.waves, b.waves);
    assert_eq!(a.stripes_affected, b.stripes_affected);
    assert_eq!(a.stripes_rebuilt, b.stripes_rebuilt);
    assert_eq!(a.failed_stripes, b.failed_stripes);
    assert_eq!(a.report.makespan, b.report.makespan);
    assert_eq!(a.report.disk_reads, b.report.disk_reads);
    assert_eq!(a.report.disk_writes, b.report.disk_writes);
    assert_eq!(a.per_disk_rebuild_reads, b.per_disk_rebuild_reads);
    assert_eq!(a.to_json(), b.to_json(), "rendered outcome must be stable");
}

#[test]
fn declustering_beats_clustering_at_array_scale() {
    let clustered = run_rebuild(&spec(Placement::Fixed)).expect("clustered");
    let declustered =
        run_rebuild(&spec(Placement::Declustered { seed: 0x5EED })).expect("declustered");

    // Clustered placement drags every stripe through the failed disk's
    // column; declustering leaves most stripes untouched and spreads
    // the rest over all survivors.
    assert_eq!(clustered.stripes_affected, 192);
    assert!(declustered.stripes_affected < clustered.stripes_affected);
    assert!(
        declustered.rebuild_skew < clustered.rebuild_skew,
        "declustered skew {} must beat clustered {}",
        declustered.rebuild_skew,
        clustered.rebuild_skew
    );
    assert!(
        declustered.reconstruction_s < clustered.reconstruction_s,
        "declustered rebuild {}s must finish before clustered {}s",
        declustered.reconstruction_s,
        clustered.reconstruction_s
    );
    // Foreground traffic ran alongside both rebuilds and produced a
    // tail-latency reading.
    assert!(clustered.app_p99_ms.is_some());
    assert!(declustered.app_p99_ms.is_some());
}

#[test]
fn rebuild_under_faults_accounts_every_affected_stripe() {
    // `fbf rebuild --disks 24 --stripes 128 --workers 8 --media 60`:
    // heavy media errors fail foreground reads on stripes that are not
    // under rebuild too, and those must not count as failed repairs.
    let mut base = ExperimentConfig::builder()
        .stripes(128)
        .error_count(0) // the failed disk decides the campaign
        .workers(8)
        .build()
        .unwrap();
    base.faults = FaultPlan {
        media_per_mille: 60,
        ..FaultPlan::none()
    };
    let spec = RebuildSpec::new(base, 24);
    let outcome = run_rebuild(&spec).expect("rebuild");

    let app_only_failures = outcome
        .report
        .failed_reads
        .iter()
        .filter(|f| !outcome.failed_stripes.contains(&f.chunk.stripe))
        .count();
    assert!(
        app_only_failures > 0,
        "the fault rate must fail reads outside the rebuilt stripes"
    );
    assert!(!outcome.failed_stripes.is_empty());
    assert!(outcome.failed_stripes.windows(2).all(|w| w[0] < w[1]));
    assert_eq!(
        outcome.stripes_rebuilt + outcome.failed_stripes.len(),
        outcome.stripes_affected
    );
    // Every failed stripe really had a column on the failed disk.
    let mapping = fbf::ArrayMapping::with_placement(24, 6, 8, spec.placement);
    for &stripe in &outcome.failed_stripes {
        assert!(
            (0..8).any(|col| mapping.disk_of_col(stripe, col) == spec.failed_disk),
            "stripe {stripe} was never under rebuild"
        );
    }
}
