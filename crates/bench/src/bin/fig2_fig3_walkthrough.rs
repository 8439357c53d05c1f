//! Figs. 2–3 + Table III — recovery-scheme selection, step by step.
//!
//! Reproduces the paper's worked examples:
//!
//! * Fig. 2 — TIP(p=5): a 4-chunk error on disk 0, repaired by the typical
//!   (horizontal-only) scheme vs the FBF direction-cycling scheme; prints
//!   both read sets and the chunk-sharing gain.
//! * Fig. 3 / Table III — TIP(p=7, n=8): a 5-chunk error on disk 0; prints
//!   the chosen chain per lost chunk and the resulting priority dictionary
//!   in Table III's format (cells grouped by priority).
//!
//! The exact cells differ from the paper's table (our TIP layout is a
//! documented geometric reconstruction, DESIGN.md §2), but the *shape* —
//! a couple of multiply-shared favorable blocks, many single-reference
//! chunks — is the point being demonstrated.

use fbf_bench::{Artefact, Failure};
use fbf_codes::{CodeSpec, StripeCode};
use fbf_recovery::{scheme::generate, PartialStripeError, SchemeKind};
use std::fmt::Write;

fn show_error(out: &mut Artefact, code: &StripeCode, len: usize, fig: &str) -> Result<(), Failure> {
    writeln!(out, "=== {fig} — {} ===", code.describe())?;
    let error = PartialStripeError::new(code, 0, 0, 0, len)?;
    writeln!(out, "error: {len} lost chunks on disk 0, rows 0..{len}\n")?;

    for kind in [SchemeKind::Typical, SchemeKind::FbfCycling] {
        let scheme = generate(code, &error, kind)?;
        writeln!(out, "{} scheme:", kind.name())?;
        for r in &scheme.repairs {
            let reads: Vec<String> = r.option.reads.iter().map(|c| c.to_string()).collect();
            let direction = r.option.direction.to_string();
            let reads = reads.join(" ");
            writeln!(
                out,
                "  {} via {direction:>13} chain: reads {reads}",
                r.target
            )?;
        }
        writeln!(
            out,
            "  -> {} read slots, {} distinct chunks, {} reads saved by sharing\n",
            scheme.total_read_slots(),
            scheme.unique_reads(),
            scheme.shared_savings()
        )?;

        if kind == SchemeKind::FbfCycling {
            writeln!(out, "priority dictionary (Table III format):")?;
            for prio in (1..=3).rev() {
                let cells = scheme.cells_with(prio);
                let names: Vec<String> = cells.iter().map(|c| c.to_string()).collect();
                let names = names.join(", ");
                let names = if names.is_empty() { "-" } else { &names };
                writeln!(out, "  priority {prio}: {names}")?;
            }
            writeln!(out)?;
        }
    }
    Ok(())
}

fn main() {
    fbf_bench::main(|_| {
        let mut out = Artefact::default();
        // Fig. 2: TIP-code, p = 5 (6 disks), 4-chunk error.
        show_error(&mut out, &StripeCode::build(CodeSpec::Tip, 5)?, 4, "Fig. 2")?;
        // Fig. 3 / Table III: TIP-code, p = 7 (8 disks), 5-chunk error.
        let tip7 = StripeCode::build(CodeSpec::Tip, 7)?;
        show_error(&mut out, &tip7, 5, "Fig. 3 / Table III")?;
        Ok(out)
    })
}
