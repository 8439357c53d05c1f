//! Cross-crate integration tests: campaigns recover real bytes, schemes
//! beat typical recovery structurally, and the whole pipeline is
//! deterministic.

use fbf::codes::encode::encode;
use fbf::recovery::{
    apply_scheme, generate_schemes_parallel, scheme::generate, PartialStripeError,
    PriorityDictionary, SchemeKind,
};
use fbf::workload::{generate_errors, parse_trace, render_trace, ErrorGenConfig};
use fbf::PolicyKind;
use fbf::{run_experiment, ExperimentConfig};
use fbf::{CodeSpec, Stripe, StripeCode};

/// A whole random campaign, applied to real stripe payloads, recovers
/// every chunk bit-for-bit — for every code.
#[test]
fn campaign_recovers_exact_bytes_all_codes() {
    for spec in CodeSpec::ALL {
        let code = StripeCode::build(spec, 7).unwrap();
        let campaign = generate_errors(&code, &ErrorGenConfig::paper_default(64, 32, 1234));
        let schemes =
            generate_schemes_parallel(&code, &campaign, SchemeKind::FbfCycling, 2).unwrap();

        // One pristine encoded stripe reused per error (payload content is
        // stripe-independent here; identity comes from the cells).
        let mut pristine = Stripe::patterned(code.layout(), 64);
        encode(&code, &mut pristine).unwrap();

        for (damage, scheme) in campaign.damage_by_stripe().iter().zip(&schemes) {
            assert_eq!(damage.stripe, scheme.stripe);
            let mut damaged = pristine.clone();
            for &cell in &damage.cells {
                damaged.erase(code.layout(), cell);
            }
            apply_scheme(&code, &mut damaged, scheme).unwrap();
            for &cell in &damage.cells {
                assert_eq!(
                    damaged.get(code.layout(), cell),
                    pristine.get(code.layout(), cell),
                    "{spec:?} stripe {} cell {cell}",
                    damage.stripe
                );
            }
        }
    }
}

/// The FBF scheme never fetches more distinct chunks than the typical
/// scheme, and usually fewer (Fig. 2's structural claim), for every error
/// shape on every code.
#[test]
fn fbf_scheme_unique_reads_never_exceed_typical() {
    for spec in CodeSpec::ALL {
        let code = StripeCode::build(spec, 11).unwrap();
        let mut strictly_better = 0;
        for col in 0..code.cols() {
            for len in 2..code.rows() {
                let e = PartialStripeError::new(&code, 0, col, 0, len).unwrap();
                let typical = generate(&code, &e, SchemeKind::Typical).unwrap();
                let fbf = generate(&code, &e, SchemeKind::FbfCycling).unwrap();
                // Same number of repairs...
                assert_eq!(typical.repairs.len(), fbf.repairs.len());
                // ...but shared chunks shrink the distinct fetch set.
                if fbf.unique_reads() < typical.unique_reads() {
                    strictly_better += 1;
                }
            }
        }
        assert!(
            strictly_better > 0,
            "{spec:?}: FBF must strictly reduce unique reads somewhere"
        );
    }
}

/// Priorities derived from a campaign match Table II against brute-force
/// share counting, campaign-wide.
#[test]
fn campaign_priorities_match_brute_force() {
    let code = StripeCode::build(CodeSpec::TripleStar, 7).unwrap();
    let campaign = generate_errors(&code, &ErrorGenConfig::paper_default(128, 64, 9));
    let schemes = generate_schemes_parallel(&code, &campaign, SchemeKind::FbfCycling, 0).unwrap();
    let dict = PriorityDictionary::from_schemes(&schemes);
    for scheme in &schemes {
        for (cell, count) in scheme.share_count_list() {
            let id = fbf::codes::ChunkId::new(scheme.stripe, cell);
            let expect = match count {
                0 | 1 => 1u8,
                2 => 2,
                _ => 3,
            };
            // Dictionary may hold a higher value if another scheme shares
            // the chunk — never lower.
            assert!(dict.priority_of(&id) >= expect, "{id} count={count}");
        }
    }
}

/// The full simulated experiment is deterministic and recovers everything:
/// one spare write per lost chunk, reads bounded by the campaign's slots.
#[test]
fn simulated_experiment_is_consistent() {
    let cfg = ExperimentConfig::builder()
        .code(CodeSpec::Hdd1)
        .p(7)
        .policy(PolicyKind::Fbf)
        .cache_mb(16)
        .stripes(256)
        .error_count(64)
        .workers(16)
        .gen_threads(1)
        .build()
        .unwrap();
    let a = run_experiment(&cfg).unwrap();
    let b = run_experiment(&cfg).unwrap();
    assert_eq!(a.disk_reads, b.disk_reads);
    assert_eq!(a.cache, b.cache);
    assert_eq!(a.disk_writes as usize, a.chunks_recovered);
    assert!(a.disk_reads <= a.cache.accesses());
}

/// Error traces survive a render/parse roundtrip and replay to identical
/// schemes.
#[test]
fn trace_replay_reproduces_schemes() {
    let code = StripeCode::build(CodeSpec::Tip, 7).unwrap();
    let campaign = generate_errors(&code, &ErrorGenConfig::paper_default(100, 40, 5));
    let replayed = parse_trace(&render_trace(&campaign)).unwrap();
    assert_eq!(campaign, replayed);
    let s1 = generate_schemes_parallel(&code, &campaign, SchemeKind::FbfCycling, 1).unwrap();
    let s2 = generate_schemes_parallel(&code, &replayed, SchemeKind::FbfCycling, 1).unwrap();
    assert_eq!(s1, s2);
}

/// Every policy completes the same campaign with identical write counts —
/// the cache only changes *when* chunks are fetched, never what is
/// recovered.
#[test]
fn all_policies_recover_the_same_campaign() {
    let mut writes = Vec::new();
    for policy in PolicyKind::ALL {
        let cfg = ExperimentConfig::builder()
            .policy(policy)
            .cache_mb(8)
            .stripes(128)
            .error_count(32)
            .workers(8)
            .gen_threads(1)
            .build()
            .unwrap();
        let m = run_experiment(&cfg).unwrap();
        writes.push(m.disk_writes);
    }
    assert!(
        writes.windows(2).all(|w| w[0] == w[1]),
        "writes differ: {writes:?}"
    );
}

/// FBF generalises to two-direction RAID-6 codes (RDP, EVENODD): schemes
/// schedule, recover real bytes, and still find shared chunks.
#[test]
fn raid6_generality() {
    for spec in [CodeSpec::Rdp, CodeSpec::Evenodd] {
        let code = StripeCode::build(spec, 7).unwrap();
        let mut pristine = Stripe::patterned(code.layout(), 64);
        encode(&code, &mut pristine).unwrap();

        let error = PartialStripeError::new(&code, 0, 0, 0, code.rows() - 1).unwrap();
        let scheme = generate(&code, &error, SchemeKind::FbfCycling).unwrap();
        assert!(
            scheme.shared_savings() > 0,
            "{spec:?}: two directions still produce shared chunks"
        );
        let mut damaged = pristine.clone();
        for cell in error.cells() {
            damaged.erase(code.layout(), cell);
        }
        apply_scheme(&code, &mut damaged, &scheme).unwrap();
        for cell in error.cells() {
            assert_eq!(
                damaged.get(code.layout(), cell),
                pristine.get(code.layout(), cell)
            );
        }

        // And the full simulated pipeline runs.
        let cfg = ExperimentConfig::builder()
            .code(spec)
            .p(7)
            .policy(PolicyKind::Fbf)
            .cache_mb(16)
            .stripes(128)
            .error_count(32)
            .workers(8)
            .gen_threads(1)
            .build()
            .unwrap();
        let m = run_experiment(&cfg).unwrap();
        assert_eq!(m.disk_writes as usize, m.chunks_recovered, "{spec:?}");
    }
}

/// Multi-disk damage in one stripe (two partial errors on different
/// columns, the spatially correlated case) recovers end to end, and the
/// simulated run counts one spare write per merged lost chunk.
#[test]
fn multi_disk_stripe_damage_recovers() {
    use fbf::workload::ErrorGenConfig;
    let code = StripeCode::build(CodeSpec::TripleStar, 7).unwrap();
    let cfg = ErrorGenConfig {
        multi_col_prob: 1.0,
        ..ErrorGenConfig::paper_default(128, 32, 2024)
    };
    let campaign = generate_errors(&code, &cfg);
    let damages = campaign.damage_by_stripe();
    assert_eq!(damages.len(), 32);
    let schemes = generate_schemes_parallel(&code, &campaign, SchemeKind::FbfCycling, 2).unwrap();

    for (damage, scheme) in damages.iter().zip(&schemes) {
        let mut pristine = Stripe::patterned(code.layout(), 32);
        encode(&code, &mut pristine).unwrap();
        let mut damaged = pristine.clone();
        for &cell in &damage.cells {
            damaged.erase(code.layout(), cell);
        }
        apply_scheme(&code, &mut damaged, scheme).unwrap();
        for &cell in &damage.cells {
            assert_eq!(
                damaged.get(code.layout(), cell),
                pristine.get(code.layout(), cell),
                "stripe {} cell {cell}",
                damage.stripe
            );
        }
    }
}

/// The verified-campaign API certifies a full experiment's data path.
#[test]
fn verify_campaign_certifies_bytes() {
    let cfg = ExperimentConfig::builder()
        .code(CodeSpec::Star)
        .p(7)
        .stripes(96)
        .error_count(32)
        .gen_threads(1)
        .build()
        .unwrap();
    let report = fbf::verify_campaign(&cfg).unwrap();
    assert_eq!(report.stripes, 32);
    // The same config simulates with identical chunk accounting.
    let metrics = run_experiment(&cfg).unwrap();
    assert_eq!(metrics.chunks_recovered, report.chunks);
}

/// STAR multi-disk damage exceeds what chain-by-chain repair can order for
/// some patterns; the controller's joint-decode fallback keeps the
/// campaign running and still recovers exact bytes.
#[test]
fn star_multi_disk_campaign_uses_joint_fallback() {
    use fbf::recovery::{build_scripts_from_plans, ExecConfig, RecoveryController, StripePlan};
    use fbf::workload::ErrorGenConfig;

    let code = StripeCode::build(CodeSpec::Star, 7).unwrap();
    let campaign = generate_errors(
        &code,
        &ErrorGenConfig {
            multi_col_prob: 1.0,
            ..ErrorGenConfig::paper_default(256, 64, 99)
        },
    );
    let mut ctl = RecoveryController::new(&code, SchemeKind::FbfCycling);
    let damage = campaign.damage_by_stripe();
    let plans: Vec<StripePlan> = damage.iter().map(|d| ctl.plan_for(d)).collect();
    assert_eq!(plans.len(), 64);
    let joints = plans
        .iter()
        .filter(|p| matches!(p, StripePlan::Joint(_)))
        .count();
    assert!(
        joints > 0,
        "expected some unorderable STAR patterns in 64 stripes"
    );
    assert!(joints < plans.len(), "most patterns should still chain");

    // Byte-exact recovery through both plan kinds.
    for (plan, damage) in plans.iter().zip(&damage) {
        assert_eq!(plan.stripe(), damage.stripe);
        let mut pristine = Stripe::patterned(code.layout(), 32);
        encode(&code, &mut pristine).unwrap();
        let mut damaged = pristine.clone();
        for &cell in &damage.cells {
            damaged.erase(code.layout(), cell);
        }
        plan.restore(&code, &mut damaged).unwrap();
        for &cell in &damage.cells {
            assert_eq!(
                damaged.get(code.layout(), cell),
                pristine.get(code.layout(), cell),
                "stripe {} cell {cell}",
                damage.stripe
            );
        }
    }

    // And the simulator runs the mixed plan set.
    let scripts = build_scripts_from_plans(
        &plans,
        &ExecConfig {
            workers: 16,
            ..Default::default()
        },
    );
    let engine = fbf::disksim::Engine::new(fbf::disksim::EngineConfig::paper(
        PolicyKind::Fbf,
        512,
        fbf::disksim::ArrayMapping::new(code.cols(), code.rows(), false),
        256,
    ));
    let report = engine.run(&scripts);
    let expected_writes: usize = campaign
        .damage_by_stripe()
        .iter()
        .map(|d| d.cells.len())
        .sum();
    assert_eq!(report.disk_writes as usize, expected_writes);
}

/// Every request class is reachable from the request front door that the
/// CLI and the daemon share: a faulted repair issues recovery and replan
/// reads, a rebuild with foreground traffic issues app reads.
#[test]
fn every_request_class_has_a_front_door() {
    use fbf::disksim::{Digest, EngineScratch};
    use fbf::{Json, Outcome, PlanStore, RequestClass, Work};

    let execute = |request: &str| {
        let work = Work::from_request(&Json::parse(request).unwrap()).expect("valid request");
        work.execute(&PlanStore::new(), &mut EngineScratch::new(), None)
            .expect("request executes")
    };
    let mut seen: [Digest; RequestClass::COUNT] = Default::default();
    let mut merge = |digests: &[Digest; RequestClass::COUNT]| {
        for (into, d) in seen.iter_mut().zip(digests) {
            into.merge(d);
        }
    };
    match execute(
        r#"{"cmd":"repair","config":{"stripes":"256","errors":"64","workers":"16",
            "media":"20","transient":"30","kill":"2@30"}}"#,
    ) {
        Outcome::Repair { metrics, .. } => merge(&metrics.class_digests),
        Outcome::Rebuild(_) => panic!("a repair request ran a rebuild"),
    }
    match execute(
        r#"{"cmd":"rebuild","config":{"stripes":64,"workers":8},"disks":24,"app_reads":32}"#,
    ) {
        Outcome::Rebuild(out) => merge(&out.report.class_latency),
        Outcome::Repair { .. } => panic!("a rebuild request ran a repair"),
    }
    for class in RequestClass::ALL {
        assert!(seen[class.index()].count() > 0, "no {class} reads");
    }
}

/// The policies' key-map work on a small TIP p = 5 run is what the
/// per-access costs add up to: under FBF and LRU a hit is one lookup, a
/// miss one lookup and one entry insert, and an eviction one removal
/// more (DESIGN §8), so `map_ops = hits + 2·misses + evictions`.
#[test]
fn key_map_work_adds_up_on_a_small_tip_run() {
    let run = |policy| {
        let cfg = ExperimentConfig::builder()
            .code(CodeSpec::Tip)
            .p(5)
            .policy(policy)
            .cache_mb(1)
            .stripes(24)
            .error_count(12)
            .workers(2)
            .gen_threads(1)
            .build()
            .unwrap();
        run_experiment(&cfg).unwrap().cache
    };
    for (policy, pinned) in [(PolicyKind::Fbf, 165), (PolicyKind::Lru, 165)] {
        let c = run(policy);
        assert!(c.hits > 0 && c.evictions > 0, "{policy}: {c}");
        assert_eq!(
            c.map_ops,
            c.hits + 2 * c.misses + c.evictions,
            "{policy}: {c}"
        );
        assert_eq!(c.map_ops, pinned, "{policy}: {c}");
    }
}
