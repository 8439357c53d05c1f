//! Reconstruction execution: schemes → simulator scripts, and scheme
//! application on real payloads.
//!
//! [`build_scripts`] lowers a campaign of recovery schemes into
//! [`WorkerScript`]s for the simulator: every repair becomes its read
//! burst (through the buffer cache, carrying FBF priorities), an XOR
//! compute step, and a spare-area write. Stripes are distributed over SOR
//! workers round-robin.
//!
//! [`apply_scheme`] executes a scheme against actual stripe bytes so the
//! integration tests can assert that the recovered payloads equal the
//! originals — the schemes are not just plausible, they are *correct*.

use crate::controller::StripePlan;
use crate::priority::{PriorityDictionary, PriorityTable};
use crate::scheme::RecoveryScheme;
use fbf_codes::{ChunkId, CodeError, Stripe, StripeCode};
use fbf_disksim::{Op, RequestClass, SimTime, WorkerScript};
use std::borrow::Borrow;

/// Execution-shaping parameters.
#[derive(Debug, Clone, Copy)]
pub struct ExecConfig {
    /// Number of SOR reconstruction workers (the paper runs 128).
    pub workers: usize,
    /// XOR cost charged per chunk participating in a repair.
    pub xor_time_per_chunk: SimTime,
    /// Request class stamped on every lowered script — recovery traffic
    /// by default; escalation rounds lower with [`RequestClass::Replan`]
    /// so the latency attribution separates first-pass repair from
    /// re-planned retries.
    pub class: RequestClass,
    /// Inert: nothing reads it. It stays only until the benchmark stops
    /// setting it.
    pub decode_batch: usize,
}

impl Default for ExecConfig {
    fn default() -> Self {
        ExecConfig {
            workers: 128,
            // 32 KB XOR at a conservative 4 GB/s.
            xor_time_per_chunk: SimTime::from_micros(8),
            class: RequestClass::Recovery,
            decode_batch: 8,
        }
    }
}

/// Worker count actually used for a campaign of `stripes` stripes: capped
/// at the stripe count (extra workers would sit idle) but never silently
/// promoted from zero — `workers == 0` is a configuration bug the caller
/// must reject up front (`ExperimentConfig::validate` returns
/// `ConfigError::Zero("workers")`), not a value to paper over.
fn effective_workers(config: &ExecConfig, stripes: usize) -> usize {
    assert!(
        config.workers > 0,
        "ExecConfig.workers must be positive (validate the config first)"
    );
    config.workers.min(stripes.max(1))
}

/// Deal `items` (one stripe each) round-robin over the workers' scripts:
/// item `i` goes to worker `i % workers` — SOR's stripe-oriented
/// partitioning; each worker repairs its stripes strictly in order.
///
/// `ops_of` is the number of ops `lower` will push for an item. Every
/// script is allocated once at the sum over its items before anything is
/// emitted, so lowering never moves an op it has written.
fn lower_round_robin<T>(
    items: &[T],
    config: &ExecConfig,
    ops_of: impl Fn(&T) -> usize,
    mut lower: impl FnMut(&T, &mut WorkerScript),
) -> Vec<WorkerScript> {
    let workers = effective_workers(config, items.len());
    let mut lengths = vec![0usize; workers];
    for (i, item) in items.iter().enumerate() {
        lengths[i % workers] += ops_of(item);
    }
    let mut scripts: Vec<WorkerScript> = lengths
        .iter()
        .map(|&ops| WorkerScript {
            ops: Vec::with_capacity(ops),
            gathers: Vec::new(),
            class: config.class,
        })
        .collect();
    for (i, item) in items.iter().enumerate() {
        lower(item, &mut scripts[i % workers]);
    }
    debug_assert!(scripts.iter().zip(&lengths).all(|(s, &n)| s.ops.len() == n));
    scripts
}

/// One chained scheme: every repair becomes its read burst, an XOR
/// compute step and a spare write — `scheme.script_ops` ops in all.
/// Reads carry `table`'s priorities (1 without a table).
fn lower_chained(
    scheme: &RecoveryScheme,
    table: Option<&PriorityTable>,
    config: &ExecConfig,
    script: &mut WorkerScript,
) {
    for repair in &scheme.repairs {
        for &cell in &repair.option.reads {
            script.ops.push(Op::Read {
                chunk: ChunkId::new(scheme.stripe, cell),
                priority: table.map_or(1, |t| t.priority(cell)),
            });
        }
        let xor_chunks = repair.option.reads.len() as u64;
        script.ops.push(Op::Compute {
            duration: SimTime::from_nanos(config.xor_time_per_chunk.as_nanos() * xor_chunks),
        });
        script.ops.push(Op::Write {
            chunk: ChunkId::new(scheme.stripe, repair.target),
        });
    }
}

/// Lower a campaign into per-worker scripts; reads carry `dictionary`'s
/// priorities.
pub fn build_scripts(
    schemes: &[RecoveryScheme],
    dictionary: &PriorityDictionary,
    config: &ExecConfig,
) -> Vec<WorkerScript> {
    lower_round_robin(
        schemes,
        config,
        |scheme| scheme.script_ops,
        |scheme, script| lower_chained(scheme, dictionary.table(scheme.stripe), config, script),
    )
}

/// [`build_scripts`] with each read carrying the priority its own scheme
/// gives it, no dictionary needed: the lowering of a planned campaign, and
/// of a rebuild wave, which mixes schemes borrowed from stripe-disjoint
/// shards.
pub fn build_scripts_borrowed<S: Borrow<RecoveryScheme>>(
    schemes: &[S],
    config: &ExecConfig,
) -> Vec<WorkerScript> {
    lower_round_robin(
        schemes,
        config,
        |scheme| scheme.borrow().script_ops,
        |scheme, script| {
            let scheme = scheme.borrow();
            lower_chained(scheme, Some(&scheme.table), config, script)
        },
    )
}

/// Lower a campaign of [`StripePlan`]s (chained + joint fallbacks) into
/// per-worker scripts, each read at its plan's priority. Chained plans
/// lower exactly as [`build_scripts_borrowed`]; joint plans become one
/// parallel fan-out of the whole read set, a decode computation, and the
/// spare writes.
pub fn build_scripts_from_plans(plans: &[StripePlan], config: &ExecConfig) -> Vec<WorkerScript> {
    lower_round_robin(
        plans,
        config,
        |plan| match plan {
            StripePlan::Chained(scheme) => scheme.script_ops,
            // The gather, the decode, one write per lost cell.
            StripePlan::Joint(joint) => 2 + joint.lost.len(),
        },
        |plan, script| match plan {
            StripePlan::Chained(scheme) => {
                lower_chained(scheme, Some(&scheme.table), config, script)
            }
            StripePlan::Joint(joint) => {
                let fan_out: Vec<(ChunkId, u8)> = joint
                    .reads
                    .iter()
                    .map(|&cell| (ChunkId::new(joint.stripe, cell), plan.priority(cell)))
                    .collect();
                let n = fan_out.len() as u64;
                script.push_gather(fan_out);
                // Joint decode costs roughly one XOR pass per equation row
                // touched — charge reads + lost as a conservative bound.
                script.ops.push(Op::Compute {
                    duration: SimTime::from_nanos(
                        config.xor_time_per_chunk.as_nanos() * (n + joint.lost.len() as u64),
                    ),
                });
                for &cell in &joint.lost {
                    script.ops.push(Op::Write {
                        chunk: ChunkId::new(joint.stripe, cell),
                    });
                }
            }
        },
    )
}

/// Apply a scheme to real stripe payloads: for each repair, XOR the read
/// cells into the target. The caller is expected to have erased (or
/// corrupted) the lost cells; on return they hold the recovered bytes.
pub fn apply_scheme(
    code: &StripeCode,
    stripe: &mut Stripe,
    scheme: &RecoveryScheme,
) -> Result<(), CodeError> {
    for repair in &scheme.repairs {
        let recovered = stripe.xor_cells(code.layout(), &repair.option.reads);
        stripe.set(code.layout(), repair.target, recovered);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::{ErrorGroup, PartialStripeError};
    use crate::scheme::{generate, SchemeKind};
    use fbf_codes::encode::encode;
    use fbf_codes::CodeSpec;

    fn setup() -> (StripeCode, Stripe) {
        let code = StripeCode::build(CodeSpec::Tip, 7).unwrap();
        let mut stripe = Stripe::patterned(code.layout(), 64);
        encode(&code, &mut stripe).unwrap();
        (code, stripe)
    }

    #[test]
    fn apply_scheme_recovers_exact_bytes() {
        for kind in SchemeKind::ALL {
            let (code, original) = setup();
            let e = PartialStripeError::new(&code, 0, 0, 1, 5).unwrap();
            let scheme = generate(&code, &e, kind).unwrap();
            let mut damaged = original.clone();
            for cell in e.cells() {
                damaged.erase(code.layout(), cell);
            }
            apply_scheme(&code, &mut damaged, &scheme).unwrap();
            for cell in e.cells() {
                assert_eq!(
                    damaged.get(code.layout(), cell),
                    original.get(code.layout(), cell),
                    "{kind}: {cell} not recovered"
                );
            }
        }
    }

    #[test]
    fn apply_scheme_recovers_every_code_and_column() {
        for spec in CodeSpec::ALL {
            let code = StripeCode::build(spec, 5).unwrap();
            let mut original = Stripe::patterned(code.layout(), 32);
            encode(&code, &mut original).unwrap();
            for col in 0..code.cols() {
                let e = PartialStripeError::new(&code, 0, col, 0, code.rows() - 1).unwrap();
                let scheme = generate(&code, &e, SchemeKind::FbfCycling).unwrap();
                let mut damaged = original.clone();
                for cell in e.cells() {
                    damaged.erase(code.layout(), cell);
                }
                apply_scheme(&code, &mut damaged, &scheme).unwrap();
                for cell in e.cells() {
                    assert_eq!(
                        damaged.get(code.layout(), cell),
                        original.get(code.layout(), cell),
                        "{spec:?} col {col} {cell}"
                    );
                }
            }
        }
    }

    #[test]
    fn scripts_cover_all_repairs() {
        let (code, _) = setup();
        let e = PartialStripeError::new(&code, 0, 0, 0, 5).unwrap();
        let scheme = generate(&code, &e, SchemeKind::FbfCycling).unwrap();
        let dict = PriorityDictionary::from_schemes([&scheme]);
        let scripts = build_scripts(
            std::slice::from_ref(&scheme),
            &dict,
            &ExecConfig {
                workers: 4,
                ..Default::default()
            },
        );
        // One stripe → one busy worker.
        let busy: Vec<&WorkerScript> = scripts.iter().filter(|s| !s.ops.is_empty()).collect();
        assert_eq!(busy.len(), 1);
        let reads = busy[0].reads();
        assert_eq!(reads, scheme.total_read_slots());
        let writes = busy[0]
            .ops
            .iter()
            .filter(|o| matches!(o, Op::Write { .. }))
            .count();
        assert_eq!(writes, 5);
    }

    #[test]
    fn scripts_carry_dictionary_priorities() {
        let (code, _) = setup();
        let e = PartialStripeError::new(&code, 0, 0, 0, 5).unwrap();
        let scheme = generate(&code, &e, SchemeKind::FbfCycling).unwrap();
        let dict = PriorityDictionary::from_schemes([&scheme]);
        let scripts = build_scripts(
            std::slice::from_ref(&scheme),
            &dict,
            &ExecConfig {
                workers: 1,
                ..Default::default()
            },
        );
        for op in &scripts[0].ops {
            if let Op::Read { chunk, priority } = op {
                assert_eq!(*priority, dict.priority_of(chunk));
            }
        }
    }

    #[test]
    fn scripts_equal_per_chunk_lowering_op_for_op() {
        let code = StripeCode::build(CodeSpec::TripleStar, 7).unwrap();
        let mut group = ErrorGroup::new();
        for s in 0..11u32 {
            let (col, first, len) = (s as usize % 3, s as usize % 2, 1 + s as usize % 4);
            group.push(PartialStripeError::new(&code, 2 * s, col, first, len).unwrap());
        }
        let (schemes, dict) = crate::RecoveryController::new(&code, SchemeKind::FbfCycling)
            .plan_campaign(&group)
            .unwrap();
        let config = ExecConfig {
            workers: 3,
            ..Default::default()
        };
        // The reference lowering: one dictionary lookup per read.
        let mut expect = vec![WorkerScript::default(); 3];
        for (i, scheme) in schemes.iter().enumerate() {
            let ops = &mut expect[i % 3].ops;
            for repair in &scheme.repairs {
                for &cell in &repair.option.reads {
                    let chunk = ChunkId::new(scheme.stripe, cell);
                    ops.push(Op::Read {
                        chunk,
                        priority: dict.priority_of(&chunk),
                    });
                }
                ops.push(Op::Compute {
                    duration: SimTime::from_nanos(
                        config.xor_time_per_chunk.as_nanos() * repair.option.reads.len() as u64,
                    ),
                });
                ops.push(Op::Write {
                    chunk: ChunkId::new(scheme.stripe, repair.target),
                });
            }
        }
        let scripts = build_scripts(&schemes, &dict, &config);
        assert_eq!(scripts, expect);
        assert!(scripts
            .iter()
            .flat_map(|s| &s.ops)
            .any(|op| matches!(op, Op::Read { priority, .. } if *priority > 1)));
        // Borrowed schemes carry their priorities themselves.
        let borrowed: Vec<&RecoveryScheme> = schemes.iter().collect();
        assert_eq!(build_scripts_borrowed(&borrowed, &config), expect);
    }

    #[test]
    fn stripes_distribute_round_robin() {
        let (code, _) = setup();
        let schemes: Vec<RecoveryScheme> = (0..6)
            .map(|s| {
                let e = PartialStripeError::new(&code, s, 0, 0, 3).unwrap();
                generate(&code, &e, SchemeKind::Typical).unwrap()
            })
            .collect();
        let dict = PriorityDictionary::from_schemes(&schemes);
        let scripts = build_scripts(
            &schemes,
            &dict,
            &ExecConfig {
                workers: 3,
                ..Default::default()
            },
        );
        assert_eq!(scripts.len(), 3);
        for s in &scripts {
            assert!(!s.ops.is_empty(), "every worker gets stripes");
        }
    }

    #[test]
    fn worker_count_capped_by_stripes() {
        let (code, _) = setup();
        let e = PartialStripeError::new(&code, 0, 0, 0, 2).unwrap();
        let scheme = generate(&code, &e, SchemeKind::Typical).unwrap();
        let dict = PriorityDictionary::from_schemes([&scheme]);
        let scripts = build_scripts(
            std::slice::from_ref(&scheme),
            &dict,
            &ExecConfig {
                workers: 128,
                ..Default::default()
            },
        );
        assert_eq!(scripts.len(), 1, "no point in more workers than stripes");
    }

    #[test]
    #[should_panic(expected = "workers must be positive")]
    fn zero_workers_is_a_programmer_error() {
        let (code, _) = setup();
        let e = PartialStripeError::new(&code, 0, 0, 0, 2).unwrap();
        let scheme = generate(&code, &e, SchemeKind::Typical).unwrap();
        let dict = PriorityDictionary::from_schemes([&scheme]);
        build_scripts(
            std::slice::from_ref(&scheme),
            &dict,
            &ExecConfig {
                workers: 0,
                ..Default::default()
            },
        );
    }
}
