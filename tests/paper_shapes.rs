//! Shape tests: the qualitative claims of the paper's evaluation section,
//! asserted at reduced scale. These are the properties EXPERIMENTS.md
//! reports at full figure scale.

use fbf::CodeSpec;
use fbf::PolicyKind;
use fbf::{run_experiment, ExperimentConfig};

fn cfg(policy: PolicyKind, cache_mb: usize, p: usize, code: CodeSpec) -> ExperimentConfig {
    ExperimentConfig::builder()
        .code(code)
        .p(p)
        .policy(policy)
        .cache_mb(cache_mb)
        .stripes(1024)
        .error_count(192)
        .workers(32)
        .gen_threads(1)
        .build()
        .expect("shape-test configuration is valid")
}

/// Fig. 8's headline: at a limited cache size, FBF's hit ratio beats every
/// baseline.
#[test]
fn fbf_hit_ratio_dominates_at_limited_cache() {
    let cache_mb = 16; // well below the plateau for p = 11 at 32 workers
    let fbf = run_experiment(&cfg(PolicyKind::Fbf, cache_mb, 11, CodeSpec::Tip)).unwrap();
    for baseline in PolicyKind::BASELINES {
        let base = run_experiment(&cfg(baseline, cache_mb, 11, CodeSpec::Tip)).unwrap();
        assert!(
            fbf.hit_ratio > base.hit_ratio,
            "FBF {:.4} must beat {} {:.4}",
            fbf.hit_ratio,
            baseline.name(),
            base.hit_ratio
        );
    }
}

/// Fig. 8's plateau: hit ratio rises with cache size and stabilises; all
/// policies converge at large cache.
#[test]
fn hit_ratio_monotone_and_convergent() {
    let big = 2048;
    let mut plateau = Vec::new();
    for policy in PolicyKind::ALL {
        let small = run_experiment(&cfg(policy, 4, 7, CodeSpec::Tip)).unwrap();
        let large = run_experiment(&cfg(policy, big, 7, CodeSpec::Tip)).unwrap();
        assert!(
            large.hit_ratio >= small.hit_ratio,
            "{}: hit ratio must not fall with cache size",
            policy.name()
        );
        plateau.push(large.hit_ratio);
    }
    let (min, max) = plateau
        .iter()
        .fold((f64::MAX, f64::MIN), |(lo, hi), &v| (lo.min(v), hi.max(v)));
    assert!(
        max - min < 1e-9,
        "policies must converge at huge cache: {plateau:?}"
    );
}

/// Fig. 9: disk reads decrease with cache size; FBF issues the fewest at
/// the limited sizes; the stable point is later for larger p.
#[test]
fn disk_reads_shape() {
    let fbf_small = run_experiment(&cfg(PolicyKind::Fbf, 16, 11, CodeSpec::Tip)).unwrap();
    let fbf_large = run_experiment(&cfg(PolicyKind::Fbf, 512, 11, CodeSpec::Tip)).unwrap();
    assert!(fbf_large.disk_reads <= fbf_small.disk_reads);

    for baseline in PolicyKind::BASELINES {
        let base = run_experiment(&cfg(baseline, 16, 11, CodeSpec::Tip)).unwrap();
        assert!(
            fbf_small.disk_reads < base.disk_reads,
            "FBF reads {} must undercut {} reads {}",
            fbf_small.disk_reads,
            baseline.name(),
            base.disk_reads
        );
    }
}

/// Fig. 10/11: FBF's response and reconstruction times at limited cache
/// beat LRU's (the paper's most-cited baseline).
#[test]
fn fbf_faster_than_lru_at_limited_cache() {
    let fbf = run_experiment(&cfg(PolicyKind::Fbf, 16, 11, CodeSpec::Tip)).unwrap();
    let lru = run_experiment(&cfg(PolicyKind::Lru, 16, 11, CodeSpec::Tip)).unwrap();
    assert!(fbf.avg_response_ms < lru.avg_response_ms);
    assert!(fbf.reconstruction_s < lru.reconstruction_s);
}

/// §IV-B-1: STAR's adjuster chunks are referenced many times, giving STAR
/// a higher hit-ratio plateau than the adjuster-free codes at equal p.
#[test]
fn star_plateau_exceeds_tip() {
    let star = run_experiment(&cfg(PolicyKind::Fbf, 2048, 7, CodeSpec::Star)).unwrap();
    let tip = run_experiment(&cfg(PolicyKind::Fbf, 2048, 7, CodeSpec::Tip)).unwrap();
    assert!(
        star.hit_ratio > tip.hit_ratio,
        "STAR {:.4} vs TIP {:.4}",
        star.hit_ratio,
        tip.hit_ratio
    );
}

/// Table IV's shape: FBF's temporal overhead is a tiny fraction of
/// reconstruction time and grows with p.
#[test]
fn overhead_small_and_growing_with_p() {
    let m5 = run_experiment(&cfg(PolicyKind::Fbf, 64, 5, CodeSpec::Tip)).unwrap();
    let m13 = run_experiment(&cfg(PolicyKind::Fbf, 64, 13, CodeSpec::Tip)).unwrap();
    assert!(
        m5.overhead_pct() < 10.0,
        "overhead {}% too large",
        m5.overhead_pct()
    );
    assert!(m13.overhead_pct() < 10.0);
    assert!(
        m13.overhead_per_stripe_ms() >= m5.overhead_per_stripe_ms(),
        "larger stripes cost more to plan: {} vs {}",
        m13.overhead_per_stripe_ms(),
        m5.overhead_per_stripe_ms()
    );
}
