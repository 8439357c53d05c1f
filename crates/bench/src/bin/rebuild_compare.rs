//! Clustered vs declustered whole-disk rebuild at array scale.
//!
//! Runs the array-wide rebuild scheduler over a 128-disk array (and a
//! rotated middle ground) after the failure of one disk, and reports the
//! numbers the declustering literature turns on: how many stripes the
//! failure actually touches, how skewed the rebuild reads land on the
//! survivors (max/mean), the merged-clock reconstruction time, and the
//! foreground p99 while the rebuild runs. The committed
//! `results/rebuild_compare.csv` is the acceptance evidence that
//! declustered placement beats clustered at >= 100 disks.
//!
//! Knobs: `FBF_DISKS` (default 128), `FBF_STRIPES` (default 1024),
//! `FBF_BENCH_QUICK=1` shrinks the campaign for CI smoke.

use fbf_bench::{Artefact, Failure};
use fbf_core::{report::f, run_rebuild, ExperimentConfig, RebuildSpec, Table};
use fbf_disksim::Placement;
use std::fmt::Write;

fn main() {
    fbf_bench::main(|scale| {
        let disks = scale.disks.unwrap_or(128);
        let stripes = scale.stripes.unwrap_or(scale.pick(1024, 192));

        let base = ExperimentConfig::builder()
            .obs(scale.obs)
            .cache_mb(8)
            .chunk_kb(8)
            .stripes(stripes)
            .error_count(64)
            .workers(32)
            .gen_threads(1)
            .build()?;

        let mut table = Table::new(
            format!("Whole-disk rebuild, {disks} disks, {stripes} stripes (disk 0 fails)"),
            &[
                "placement",
                "stripes_affected",
                "rebuild_skew",
                "reconstruction_s",
                "waves",
                "app_p99_ms",
            ],
        );

        let mut out = Artefact::default();
        let mut skew = |placement: Placement| -> Result<f64, Failure> {
            let mut spec = RebuildSpec::new(base, disks);
            spec.placement = placement;
            let outcome = run_rebuild(&spec)?;
            out.check(outcome.stripes_rebuilt == outcome.stripes_affected, || {
                format!("{} rebuild left stripes behind", placement.name())
            });
            table.push_row(vec![
                placement.name().to_string(),
                outcome.stripes_affected.to_string(),
                f(outcome.rebuild_skew, 3),
                f(outcome.reconstruction_s, 3),
                outcome.waves.to_string(),
                outcome.app_p99_ms.map_or("-".to_string(), |ms| f(ms, 3)),
            ]);
            Ok(outcome.rebuild_skew)
        };
        let clustered = skew(Placement::Fixed)?;
        skew(Placement::Rotated)?;
        let declustered = skew(Placement::Declustered { seed: base.seed })?;
        out.table("rebuild_compare", table);

        // The claim this benchmark exists to check: declustering cuts the
        // max/mean rebuild-read skew against clustered placement.
        let ratio = declustered / clustered;
        let skews = format!("{ratio:.3} ({declustered:.3} vs {clustered:.3})");
        writeln!(out, "declustered/clustered skew: {skews}")?;
        out.check(declustered < clustered, || {
            format!("declustered skew {declustered:.3} must beat clustered {clustered:.3}")
        });
        Ok(out)
    })
}
