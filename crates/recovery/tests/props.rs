//! Property tests for the recovery layer: scheme correctness on arbitrary
//! merged damage, scrubber honesty, controller memoisation equivalence.

use fbf_codes::encode::encode;
use fbf_codes::{Cell, ChunkId, CodeSpec, Stripe, StripeCode};
use fbf_disksim::{Op, SimTime, WorkerScript};
use fbf_recovery::priority::priority_for_count;
use fbf_recovery::scheme::generate_for_cells;
use fbf_recovery::scrub::{scrub, ScrubOutcome};
use fbf_recovery::{
    apply_scheme, build_scripts, build_scripts_borrowed, build_scripts_from_plans, ErrorGroup,
    ExecConfig, PartialStripeError, PriorityDictionary, RecoveryController, RecoveryScheme,
    SchemeError, SchemeKind, StripeDamage, StripePlan,
};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;

fn spec_strategy() -> impl Strategy<Value = CodeSpec> {
    prop_oneof![
        Just(CodeSpec::Tip),
        Just(CodeSpec::Hdd1),
        Just(CodeSpec::TripleStar),
        Just(CodeSpec::Star),
    ]
}

fn kind_strategy() -> impl Strategy<Value = SchemeKind> {
    prop_oneof![
        Just(SchemeKind::Typical),
        Just(SchemeKind::FbfCycling),
        Just(SchemeKind::Greedy),
    ]
}

/// Chunk → priority the slow way: every scheme's share counts through
/// Table II, a chunk given twice keeping its highest priority.
fn brute_force<'a>(schemes: impl IntoIterator<Item = &'a RecoveryScheme>) -> BTreeMap<ChunkId, u8> {
    let mut brute = BTreeMap::new();
    for scheme in schemes {
        for (cell, count) in scheme.share_counts() {
            let prio = brute.entry(ChunkId::new(scheme.stripe, cell)).or_insert(1);
            *prio = (*prio).max(priority_for_count(count));
        }
    }
    brute
}

/// Every observable of `dict` agrees with the brute-force map.
fn assert_dictionary_is(dict: &PriorityDictionary, brute: &BTreeMap<ChunkId, u8>) {
    assert_eq!(dict.len(), brute.len());
    assert_eq!(dict.is_empty(), brute.is_empty());
    for (chunk, &prio) in brute {
        assert_eq!(dict.priority_of(chunk), prio, "{chunk}");
    }
    let stripes: std::collections::BTreeSet<u32> = brute.keys().map(|c| c.stripe).collect();
    for prio in 1..=3u8 {
        let mut chunks = dict.chunks_with_priority(prio);
        chunks.sort_unstable();
        let expect: Vec<ChunkId> = brute
            .iter()
            .filter(|&(_, &p)| p == prio)
            .map(|(&c, _)| c)
            .collect();
        assert_eq!(chunks, expect, "priority {prio}");
        for &stripe in &stripes {
            // Already sorted: `BTreeMap` order is (stripe, row, col).
            let cells: Vec<Cell> = expect
                .iter()
                .filter(|c| c.stripe == stripe)
                .map(|c| c.cell)
                .collect();
            assert_eq!(dict.cells_with_priority(stripe, prio), cells);
        }
    }
}

/// `plans` lowered the reference way: stripe `i` on worker `i % workers`,
/// every read at `dict`'s priority for its chunk.
fn lower_through(
    plans: &[StripePlan],
    dict: &PriorityDictionary,
    config: &ExecConfig,
) -> Vec<WorkerScript> {
    let workers = config.workers.min(plans.len().max(1));
    let empty = WorkerScript {
        class: config.class,
        ..Default::default()
    };
    let mut scripts = vec![empty; workers];
    let xor = |chunks: usize| Op::Compute {
        duration: SimTime::from_nanos(config.xor_time_per_chunk.as_nanos() * chunks as u64),
    };
    for (i, plan) in plans.iter().enumerate() {
        let script = &mut scripts[i % workers];
        let chunk = |cell| ChunkId::new(plan.stripe(), cell);
        let read = |cell| (chunk(cell), dict.priority_of(&chunk(cell)));
        match plan {
            StripePlan::Chained(scheme) => {
                for repair in &scheme.repairs {
                    for &cell in &repair.option.reads {
                        let (chunk, priority) = read(cell);
                        script.ops.push(Op::Read { chunk, priority });
                    }
                    script.ops.push(xor(repair.option.reads.len()));
                    script.ops.push(Op::Write {
                        chunk: chunk(repair.target),
                    });
                }
            }
            StripePlan::Joint(joint) => {
                script.push_gather(joint.reads.iter().map(|&cell| read(cell)).collect());
                script.ops.push(xor(joint.reads.len() + joint.lost.len()));
                for &cell in &joint.lost {
                    script.ops.push(Op::Write { chunk: chunk(cell) });
                }
            }
        }
    }
    scripts
}

/// One object per format: every stripe a controller plans for one damage
/// format is a stamp on the first one's body — and that body is what
/// planning the stripe from scratch yields (or, where no chain ordering
/// exists, both refuse), its per-column histogram what counting the read
/// slots one by one gives.
fn assert_stamps_equal_direct_generation(
    code: &StripeCode,
    kind: SchemeKind,
    formats: impl IntoIterator<Item = Vec<Cell>>,
) {
    let mut ctl = RecoveryController::new(code, kind);
    let mut bodies: BTreeMap<Vec<Cell>, RecoveryScheme> = BTreeMap::new();
    for (stripe, cells) in (0u32..).zip(formats) {
        let direct = generate_for_cells(code, stripe, &cells, kind);
        let damage = StripeDamage { stripe, cells };
        let planned = ctl.scheme_for(&damage);
        let (planned, direct) = match (planned, direct) {
            (Ok(planned), Ok(direct)) => (planned, direct),
            (Err(SchemeError::Unschedulable(a)), Err(SchemeError::Unschedulable(b))) => {
                assert_eq!(a, b, "{:?}", damage.cells);
                continue;
            }
            (planned, direct) => panic!("{:?}: {planned:?} vs {direct:?}", damage.cells),
        };
        assert_eq!(planned, direct, "{:?}", damage.cells);
        assert!(!Arc::ptr_eq(planned.format(), direct.format()));
        let mut by_read_slot = vec![0u32; code.cols()];
        for cell in direct.repairs.iter().flat_map(|r| &r.option.reads) {
            by_read_slot[cell.c()] += 1;
        }
        assert_eq!(planned.column_reads(), by_read_slot, "{:?}", damage.cells);
        let first = bodies
            .entry(damage.cells)
            .or_insert_with(|| planned.clone());
        assert!(Arc::ptr_eq(first.format(), planned.format()), "second body");
    }
    assert_eq!(
        ctl.formats(),
        bodies.len(),
        "one memo entry per plannable format"
    );
    for pair in bodies.values().collect::<Vec<_>>().windows(2) {
        assert!(
            !Arc::ptr_eq(pair[0].format(), pair[1].format()),
            "formats merged"
        );
    }
}

/// The format census: every contiguous single-column run of every code at
/// every prime it accepts up to 13, under each generator — visited twice,
/// so every format is stamped at least once.
#[test]
fn every_census_format_is_one_shared_body() {
    for spec in CodeSpec::ALL {
        for code in [3, 5, 7, 11, 13]
            .into_iter()
            .filter_map(|p| StripeCode::build(spec, p).ok())
        {
            let rows = code.rows();
            let census: Vec<Vec<Cell>> = (0..code.cols())
                .flat_map(|col| (0..rows).map(move |first| (col, first)))
                .flat_map(|(col, first)| {
                    (first + 1..=rows)
                        .map(move |end| (first..end).map(|r| Cell::new(r, col)).collect())
                })
                .collect();
            assert_eq!(census.len(), code.cols() * rows * (rows + 1) / 2);
            for kind in SchemeKind::ALL {
                let twice = census.iter().chain(&census).cloned();
                assert_stamps_equal_direct_generation(&code, kind, twice);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `damage_by_stripe` equals the per-stripe ordered-map merge it
    /// replaced, on unsorted campaigns with several errors per stripe,
    /// overlapping rows and duplicated errors.
    #[test]
    fn damage_by_stripe_equals_the_ordered_map_merge(
        errors in proptest::collection::vec((0u32..6, 0usize..8, 0usize..6, 1usize..7, 0usize..3), 0..40),
    ) {
        let code = StripeCode::build(CodeSpec::Tip, 7).unwrap();
        let mut group = ErrorGroup::new();
        for &(stripe, col, first, len, copies) in &errors {
            let len = len.min(code.rows() - first);
            let e = PartialStripeError::new(&code, stripe, col, first, len).unwrap();
            for _ in 0..=copies.saturating_sub(1) {
                group.push(e);
            }
        }
        let mut by_stripe: BTreeMap<u32, Vec<Cell>> = BTreeMap::new();
        for e in &group.errors {
            by_stripe.entry(e.stripe).or_default().extend(e.cells());
        }
        let expect: Vec<StripeDamage> = by_stripe
            .into_iter()
            .map(|(stripe, mut cells)| {
                cells.sort_unstable();
                cells.dedup();
                StripeDamage { stripe, cells }
            })
            .collect();
        prop_assert_eq!(group.damage_by_stripe(), expect);
    }

    /// Every stripe's plan carries its own priorities. For every code and
    /// generator, on single- and multi-column damage with recurring
    /// formats (STAR's among them with no chain ordering):
    /// - the dictionary over the chained plans equals the brute-force
    ///   per-chunk one;
    /// - every `plan_for` plan rebuilds exactly its stripe's damage, and
    ///   its `restore` reproduces the pristine bytes;
    /// - scripts lowered from the plans' own tables equal, op for op, the
    ///   scripts lowered through that dictionary, joint plans included.
    #[test]
    fn controller_dictionary_equals_brute_force(
        spec in spec_strategy(),
        kind in kind_strategy(),
        damage in proptest::collection::vec((0usize..3, 1usize..4, 0usize..2, 1usize..4), 1..24),
    ) {
        let code = StripeCode::build(spec, 7).unwrap();
        let mut group = ErrorGroup::new();
        for (i, &(col, ncols, first, len)) in damage.iter().enumerate() {
            // Stripe ids with gaps; 1–3 adjacent columns, same rows each.
            for c in col..col + ncols {
                group.push(PartialStripeError::new(&code, 3 * i as u32, c, first, len).unwrap());
            }
        }
        // The pattern `joint.rs` pins: no chain ordering on STAR p=7.
        for col in [0, 3] {
            let stripe = 3 * damage.len() as u32;
            group.push(PartialStripeError::new(&code, stripe, col, 0, 4).unwrap());
        }
        let damages = group.damage_by_stripe();
        let mut ctl = RecoveryController::new(&code, kind);
        let plans: Vec<StripePlan> = damages.iter().map(|d| ctl.plan_for(d)).collect();
        let chained: Vec<&RecoveryScheme> = plans
            .iter()
            .filter_map(|p| match p {
                StripePlan::Chained(s) => Some(s),
                StripePlan::Joint(_) => None,
            })
            .collect();
        if spec == CodeSpec::Star {
            prop_assert!(chained.len() < plans.len(), "STAR's stalling pattern plans jointly");
        }
        let dict = PriorityDictionary::from_schemes(chained.iter().copied());
        assert_dictionary_is(&dict, &brute_force(chained.iter().copied()));
        // Unknown chunks: an undamaged stripe, and a cell off the grid.
        prop_assert_eq!(dict.priority_of(&ChunkId::new(1, Cell::new(0, 0))), 1);
        prop_assert_eq!(dict.priority_of(&ChunkId::new(0, Cell::new(99, 99))), 1);
        for (plan, damage) in plans.iter().zip(&damages) {
            prop_assert_eq!(plan.stripe(), damage.stripe);
            let mut lost: Vec<Cell> = plan.lost().collect();
            lost.sort_unstable();
            prop_assert_eq!(&lost, &damage.cells);
            let mut pristine = Stripe::patterned_seeded(code.layout(), 16, u64::from(damage.stripe));
            encode(&code, &mut pristine).unwrap();
            let mut damaged = pristine.clone();
            for &cell in &damage.cells {
                damaged.erase(code.layout(), cell);
            }
            plan.restore(&code, &mut damaged).unwrap();
            for &cell in &damage.cells {
                prop_assert_eq!(damaged.get(code.layout(), cell), pristine.get(code.layout(), cell));
            }
        }
        let config = ExecConfig { workers: 3, ..Default::default() };
        prop_assert_eq!(
            build_scripts_from_plans(&plans, &config),
            lower_through(&plans, &dict, &config)
        );
        // The strict path agrees whenever every stripe schedules.
        if chained.len() == plans.len() {
            let (schemes, strict) = RecoveryController::new(&code, kind)
                .plan_campaign(&group)
                .unwrap();
            prop_assert!(schemes.iter().eq(chained.iter().copied()));
            prop_assert_eq!(&strict, &dict);
            prop_assert_eq!(
                build_scripts(&schemes, &strict, &config),
                build_scripts_borrowed(&schemes, &config)
            );
        }
        // Recurring formats — multi-column ones with no chain ordering
        // among them — are one body each.
        let formats = group.damage_by_stripe().into_iter().map(|d| d.cells);
        assert_stamps_equal_direct_generation(&code, kind, formats);
    }

    /// Two schemes given to one stripe max-merge chunk by chunk, in either
    /// order and one `add_scheme` at a time, whatever the two tables'
    /// geometries.
    #[test]
    fn two_schemes_on_one_stripe_max_merge(
        spec in spec_strategy(),
        a in (0usize..8, 0usize..3, 1usize..4, kind_strategy()),
        b in (0usize..8, 3usize..6, 1usize..4, kind_strategy()),
    ) {
        let code = StripeCode::build(spec, 7).unwrap();
        let scheme = |(col, first, len, kind): (usize, usize, usize, SchemeKind)| {
            let len = len.min(code.rows() - first);
            let e = PartialStripeError::new(&code, 5, col % code.cols(), first, len).unwrap();
            fbf_recovery::scheme::generate(&code, &e, kind).unwrap()
        };
        let (a, b) = (scheme(a), scheme(b));
        let other = RecoveryScheme::stamp(a.format(), 6);
        let brute = brute_force([&a, &b, &other]);
        let ab = PriorityDictionary::from_schemes([&a, &b, &other]);
        assert_dictionary_is(&ab, &brute);
        let ba = PriorityDictionary::from_schemes([&other, &b, &a]);
        prop_assert_eq!(&ab, &ba);
        let mut added = PriorityDictionary::from_schemes([&a, &other]);
        added.add_scheme(&b);
        prop_assert_eq!(&ab, &added);
        // A dictionary that knows less is a different dictionary.
        prop_assert!(ab != PriorityDictionary::from_schemes([&a, &b]));
    }

    /// Single-column damage (the paper's scenario) always schedules
    /// chain-by-chain and recovers exact bytes, at any length.
    #[test]
    fn single_column_damage_always_schedules(
        spec in spec_strategy(),
        col in 0usize..32,
        first in 0usize..6,
        len in 1usize..6,
    ) {
        let code = StripeCode::build(spec, 7).unwrap();
        let col = col % code.cols();
        let first = first % code.rows();
        let len = 1 + (len - 1) % (code.rows() - first);
        let lost: Vec<Cell> = (first..first + len).map(|r| Cell::new(r, col)).collect();

        let mut pristine = Stripe::patterned(code.layout(), 16);
        encode(&code, &mut pristine).unwrap();
        let scheme = generate_for_cells(&code, 0, &lost, SchemeKind::FbfCycling).unwrap();
        let mut damaged = pristine.clone();
        for &cell in &lost {
            damaged.erase(code.layout(), cell);
        }
        apply_scheme(&code, &mut damaged, &scheme).unwrap();
        for &cell in &lost {
            prop_assert_eq!(damaged.get(code.layout(), cell), pristine.get(code.layout(), cell));
        }
    }

    /// Multi-column damage (2–3 columns, within the codes' tolerance)
    /// either schedules chain-by-chain (and then recovers exact bytes) or
    /// honestly reports Unschedulable — in which case the joint GF(2)
    /// decoder must still recover it. Sequential single-chain repair is
    /// strictly weaker than joint decoding (STAR's adjuster chains make
    /// even some two-column patterns unorderable), so "defer to the
    /// decoder" is the correct controller behaviour, not a failure.
    #[test]
    fn multi_column_damage_schedules_or_defers(
        spec in spec_strategy(),
        cols in proptest::collection::btree_set(0usize..32, 2..4),
        first in 0usize..6,
        len in 1usize..6,
    ) {
        let code = StripeCode::build(spec, 7).unwrap();
        let cols: Vec<usize> = cols.into_iter().map(|c| c % code.cols())
            .collect::<std::collections::BTreeSet<_>>().into_iter().collect();
        let first = first % code.rows();
        let len = 1 + (len - 1) % (code.rows() - first);
        let mut lost: Vec<Cell> = cols
            .iter()
            .flat_map(|&c| (first..first + len).map(move |r| Cell::new(r, c)))
            .collect();
        lost.sort_unstable();
        lost.dedup();

        let mut pristine = Stripe::patterned(code.layout(), 16);
        encode(&code, &mut pristine).unwrap();
        let mut damaged = pristine.clone();
        for &cell in &lost {
            damaged.erase(code.layout(), cell);
        }
        match generate_for_cells(&code, 0, &lost, SchemeKind::FbfCycling) {
            Ok(scheme) => {
                apply_scheme(&code, &mut damaged, &scheme).unwrap();
                for &cell in &lost {
                    prop_assert_eq!(
                        damaged.get(code.layout(), cell),
                        pristine.get(code.layout(), cell)
                    );
                }
            }
            Err(_) => {
                // Chain-at-a-time repair is stuck; the decoder must not be.
                fbf_codes::decode::decode(&code, &mut damaged, &lost).unwrap();
                for &cell in &lost {
                    prop_assert_eq!(
                        damaged.get(code.layout(), cell),
                        pristine.get(code.layout(), cell)
                    );
                }
            }
        }
    }

    /// Scrubber honesty: whatever the outcome, it never *mis-repairs* —
    /// after a `Repaired` outcome every chain verifies and non-corrupted
    /// cells are untouched.
    #[test]
    fn scrub_never_misrepairs(
        spec in spec_strategy(),
        cell_r in 0usize..6,
        cell_c in 0usize..10,
        flip in 1u8..=255,
    ) {
        let code = StripeCode::build(spec, 7).unwrap();
        let victim = Cell::new(cell_r % code.rows(), cell_c % code.cols());
        let mut pristine = Stripe::patterned(code.layout(), 16);
        encode(&code, &mut pristine).unwrap();
        let mut s = pristine.clone();
        let mut buf = s.get(code.layout(), victim).to_vec();
        buf[0] ^= flip;
        s.set(code.layout(), victim, buf.into());

        match scrub(&code, &mut s, 1) {
            ScrubOutcome::Repaired(located) => {
                prop_assert_eq!(&located, &vec![victim]);
                // Full stripe equals the pristine original.
                for cell in code.layout().cells() {
                    prop_assert_eq!(
                        s.get(code.layout(), cell),
                        pristine.get(code.layout(), cell),
                        "{} modified", cell
                    );
                }
            }
            ScrubOutcome::Ambiguous(cands) => {
                // The true location must be among the candidates.
                prop_assert!(cands.iter().any(|c| c.contains(&victim)));
            }
            ScrubOutcome::Clean => {
                prop_assert!(false, "corruption missed entirely");
            }
            ScrubOutcome::Unlocatable => {
                // Acceptable only if the cell's fingerprint is shared;
                // never for data cells (3 chains → unique by test above).
            }
        }
    }

    /// Controller memoisation: a campaign planned through the memo equals
    /// one planned from scratch, for random formats.
    #[test]
    fn controller_memo_equivalence(
        stripes in proptest::collection::vec((0usize..8, 0usize..4, 1usize..4), 1..30),
    ) {
        let code = StripeCode::build(CodeSpec::Tip, 7).unwrap();
        let mut group = ErrorGroup::new();
        for (i, (col, first, len)) in stripes.iter().enumerate() {
            let col = col % code.cols();
            let first = first % code.rows();
            let len = 1 + (len - 1) % (code.rows() - first);
            group.push(PartialStripeError::new(&code, i as u32, col, first, len).unwrap());
        }
        let mut ctl = RecoveryController::new(&code, SchemeKind::FbfCycling);
        let (memo_schemes, memo_dict) = ctl.plan_campaign(&group).unwrap();
        let direct = fbf_recovery::generate_schemes_parallel(
            &code, &group, SchemeKind::FbfCycling, 1,
        ).unwrap();
        // gen_threads=1 path also memoises inside run_experiment, so
        // compare against the explicitly parallel (non-memo) path too.
        let parallel = fbf_recovery::generate_schemes_parallel(
            &code, &group, SchemeKind::FbfCycling, 4,
        ).unwrap();
        prop_assert_eq!(&memo_schemes, &direct);
        prop_assert_eq!(&memo_schemes, &parallel);
        let direct_dict = fbf_recovery::PriorityDictionary::from_schemes(&direct);
        prop_assert_eq!(memo_dict, direct_dict);
    }
}
