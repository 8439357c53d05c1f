//! Tail latency of recovery reads — beyond the paper's mean-only Fig. 10.
//!
//! Mean response time understates what a deep disk queue does to the
//! unlucky requests. This bench reports p50 / p95 / p99 read latency per
//! policy at a contended cache size: every cache hit FBF wins is a request
//! that *skips the queue entirely*, so the tail compresses more than the
//! mean suggests.

use fbf_bench::Artefact;
use fbf_cache::PolicyKind;
use fbf_codes::CodeSpec;
use fbf_core::{policy_grid, report::f};

fn main() {
    fbf_bench::main(|scale| {
        let p = 13;
        let grid = policy_grid(&PolicyKind::ALL, &[()], |&policy, _| {
            scale.config(CodeSpec::Tip, p, policy, 64)
        })?;
        let table = grid.table(
            format!("Read latency distribution — TIP(p={p}), 64MB cache"),
            &["policy", "mean_ms", "p50_ms", "p95_ms", "p99_ms"],
            |policy| vec![policy.name().to_string()],
            |pt| {
                vec![
                    f(pt.metrics.avg_response_ms, 3),
                    f(pt.metrics.p50_response_ms, 3),
                    f(pt.metrics.p95_response_ms, 3),
                    f(pt.metrics.p99_response_ms, 3),
                ]
            },
        );
        let mut out = Artefact::default();
        out.table("tail_latency", table).points(grid.points);
        Ok(out)
    })
}
