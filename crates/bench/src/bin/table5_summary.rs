//! Table V — maximum improvement of FBF over each baseline policy.
//!
//! Re-runs the TIP sweeps behind Figs. 8–11 and reports, per baseline, the
//! maximum improvement FBF achieves on each of the four metrics anywhere
//! in the (P, cache size) grid — the same aggregation the paper uses.

use fbf_bench::{Artefact, CACHE_MB, TIP_PRIMES};
use fbf_cache::PolicyKind;
use fbf_codes::CodeSpec;
use fbf_core::report::{improvement_pct_higher_better, improvement_pct_lower_better};
use fbf_core::{policy_grid, report::f, Metrics, SweepPoint, Table};
use std::fmt::Write;

/// A metric's improvement of FBF (first) over a baseline (second), %.
type Improvement = fn(&Metrics, &Metrics) -> f64;

const METRICS: [(&str, Improvement); 4] = [
    ("hit ratio (%)", |fbf, base| {
        improvement_pct_higher_better(fbf.hit_ratio, base.hit_ratio)
    }),
    ("disk reads (%)", |fbf, base| {
        improvement_pct_lower_better(fbf.disk_reads as f64, base.disk_reads as f64)
    }),
    ("response time (%)", |fbf, base| {
        improvement_pct_lower_better(fbf.avg_response_ms, base.avg_response_ms)
    }),
    ("reconstruction time (%)", |fbf, base| {
        improvement_pct_lower_better(fbf.reconstruction_s, base.reconstruction_s)
    }),
];

fn main() {
    fbf_bench::main(|scale| {
        // One sweep covering all policies over the full TIP grid.
        let rows: Vec<_> = TIP_PRIMES
            .into_iter()
            .flat_map(|p| CACHE_MB.map(|mb| (p, mb)))
            .collect();
        let grid = policy_grid(&rows, &PolicyKind::ALL, |&(p, mb), &policy| {
            scale.config(CodeSpec::Tip, p, policy, mb)
        })?;

        let mut table = Table::new(
            "Table V — max improvement of FBF over baselines (TIP grid)",
            &["metric", "FIFO", "LRU", "LFU", "ARC"],
        );
        for (name, improvement) in METRICS {
            let mut cells = vec![name.to_string()];
            for baseline in PolicyKind::BASELINES {
                let best = grid
                    .points
                    .chunks(PolicyKind::ALL.len())
                    .map(|row| improvement(of(row, PolicyKind::Fbf), of(row, baseline)))
                    .fold(f64::MIN, f64::max);
                cells.push(f(best, 2));
            }
            table.push_row(cells);
        }

        let mut out = Artefact::default();
        out.table("table5_summary", table).points(grid.points);
        writeln!(
            out,
            "(positive = FBF better; the paper reports up to 247.67% hit-ratio,\n \
             22.52% reads, 31.39% response-time and 14.90% reconstruction-time gains)"
        )?;
        Ok(out)
    })
}

/// The metrics of `policy`'s point among a row's [`PolicyKind::ALL`].
fn of(points: &[SweepPoint], policy: PolicyKind) -> &Metrics {
    let at = PolicyKind::ALL.iter().position(|&k| k == policy);
    &points[at.expect("a figure policy")].metrics
}
