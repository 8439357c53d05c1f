//! Exhaustive fault-tolerance audit: decode every combination of
//! `fault_tolerance` simultaneous whole-column erasures, for every shipped
//! code and every paper prime.
//!
//! This is the repo's MDS-property certificate: the 3DFT codes (TIP, HDD1,
//! Triple-STAR, STAR) must survive all column triples, the RAID-6 codes
//! (RDP, EVENODD) all column pairs. Any `bad > 0` is a construction bug.

use fbf_bench::Artefact;
use fbf_codes::decode::decode;
use fbf_codes::encode::encode;
use fbf_codes::{Cell, CodeSpec, Stripe, StripeCode};
use std::fmt::Write;

/// Every `k`-subset of `0..n`.
fn subsets(n: usize, k: usize) -> Vec<Vec<usize>> {
    if k == 0 {
        return vec![Vec::new()];
    }
    (k - 1..n)
        .flat_map(|last| {
            subsets(last, k - 1)
                .into_iter()
                .map(move |s| [s, vec![last]].concat())
        })
        .collect()
}

fn main() {
    fbf_bench::main(|_| {
        let mut out = Artefact::default();
        let mut failures = 0usize;
        for spec in CodeSpec::EXTENDED {
            for p in [5usize, 7, 11, 13] {
                let code = StripeCode::build(spec, p)?;
                let mut stripe = Stripe::patterned(code.layout(), 8);
                encode(&code, &mut stripe)?;
                let k = spec.fault_tolerance();
                let (mut ok, mut bad) = (0usize, 0usize);
                for cols in subsets(code.cols(), k) {
                    let erased: Vec<Cell> = cols
                        .iter()
                        .flat_map(|&c| (0..code.rows()).map(move |r| Cell::new(r, c)))
                        .collect();
                    let mut s = stripe.clone();
                    for &e in &erased {
                        s.erase(code.layout(), e);
                    }
                    // Verify payloads, not just solvability.
                    let intact = decode(&code, &mut s, &erased).is_ok()
                        && erased
                            .iter()
                            .all(|&e| s.get(code.layout(), e) == stripe.get(code.layout(), e));
                    if intact {
                        ok += 1;
                    } else {
                        bad += 1;
                    }
                }
                writeln!(
                    out,
                    "{:<10} p={:<2} tolerance={}: {ok} combinations ok, {bad} bad",
                    spec.name(),
                    p,
                    k
                )?;
                failures += bad;
            }
        }
        if failures == 0 {
            writeln!(
                out,
                "\nall codes are exhaustively erasure-tolerant at their rated level ✓"
            )?;
        } else {
            writeln!(out, "\nFAILURES: {failures}")?;
        }
        out.check(failures == 0, || {
            format!("{failures} erasure combinations failed to decode")
        });
        Ok(out)
    })
}
