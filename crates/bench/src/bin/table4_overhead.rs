//! Table IV — temporal overhead of FBF during partial stripe recovery.
//!
//! The overhead is the host time spent generating recovery schemes and
//! their priorities (the paper's "extra calculation"), reported per stripe
//! in milliseconds and as a percentage of the (virtual) reconstruction
//! time. The paper finds < 2.8% everywhere, growing mildly with P.
//!
//! Both timed regions build every format's priority table: it is part of
//! each scheme. Neither builds a campaign-wide stripe → table index, which
//! no planned campaign carries.

use fbf_bench::{Artefact, TIP_PRIMES};
use fbf_cache::PolicyKind;
use fbf_codes::{CodeSpec, StripeCode};
use fbf_core::{report::f, run_planned, PlanSource, PlannedCampaign, SweepPoint, Table};
use fbf_obs::HostTime;
use fbf_recovery::generate_schemes_parallel;
use std::time::Instant;

fn main() {
    fbf_bench::main(|scale| {
        let mut out = Artefact::default();
        let mut table = Table::new(
            "Table IV — FBF temporal overhead",
            &[
                "p",
                "code",
                "host_memo_ms_per_stripe",
                "host_memo_pct",
                "host_full_ms_per_stripe",
                "host_full_pct",
            ],
        );
        for p in TIP_PRIMES {
            for code in [
                CodeSpec::Star,
                CodeSpec::TripleStar,
                CodeSpec::Tip,
                CodeSpec::Hdd1,
            ] {
                // host_memo_*: the paper's format-memoised controller ("priorities
                // can be enumerated once a same format ... is detected again"),
                // on one host thread. host_full_*: the same campaign through the
                // un-memoised oracle — every stripe's scheme and priorities
                // generated from scratch, also on one thread — bounding what
                // the memo saves. Both produce the same plan, so both are
                // charged against the same simulated reconstruction time.
                let mut config = scale.config(code, p, PolicyKind::Fbf, 64);
                config.gen_threads = 1;
                let plan = PlannedCampaign::cold(&config)?;
                let metrics = run_planned(&config, &plan, PlanSource::Cold);
                let built = StripeCode::build(code, p)?;
                let t0 = Instant::now();
                let schemes = generate_schemes_parallel(&built, &plan.errors, config.scheme, 1)?;
                let full = HostTime::since(t0);
                // Scheme equality compares the priority tables too.
                out.check(schemes == plan.schemes, || {
                    format!("{code}(p={p}): memoised plan differs from the oracle's")
                });
                let full_per_stripe_ms = full.ms() / schemes.len() as f64;
                let full_pct = 100.0 * full.secs() / metrics.reconstruction_s;
                table.push_row(vec![
                    p.to_string(),
                    code.name().to_string(),
                    f(metrics.overhead_per_stripe_ms(), 4),
                    f(metrics.overhead_pct(), 3),
                    f(full_per_stripe_ms, 4),
                    f(full_pct, 3),
                ]);
                out.points([SweepPoint { config, metrics }]);
            }
        }
        out.table("table4_overhead", table);
        Ok(out)
    })
}
