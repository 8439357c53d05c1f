//! Structural comparison of the shipped erasure codes — the table every
//! code paper opens with: disks, storage efficiency, update complexity,
//! chain length, single-chunk repair cost.

use fbf_bench::Artefact;
use fbf_codes::{analyze, CodeSpec, StripeCode};
use fbf_core::{report::f, Table};

fn main() {
    fbf_bench::main(|_| {
        let mut out = Artefact::default();
        for p in [7usize, 13] {
            let mut table = Table::new(
                format!("Code structure comparison (p={p})"),
                &[
                    "code",
                    "disks",
                    "tolerance",
                    "storage_eff",
                    "avg_update",
                    "max_update",
                    "avg_chain_len",
                    "avg_repair_reads",
                ],
            );
            for spec in CodeSpec::EXTENDED {
                let code = StripeCode::build(spec, p)?;
                let m = analyze(&code);
                table.push_row(vec![
                    spec.name().to_string(),
                    code.cols().to_string(),
                    spec.fault_tolerance().to_string(),
                    f(m.storage_efficiency, 3),
                    f(m.avg_update_complexity, 2),
                    m.max_update_complexity.to_string(),
                    f(m.avg_chain_length, 2),
                    f(m.avg_repair_reads, 2),
                ]);
            }
            out.table(format!("code_comparison_p{p}"), table);
        }
        Ok(out)
    })
}
