//! # fbf-bench — harness regenerating every table and figure of the paper
//!
//! One binary per artefact, one file each in `src/bin/` whose module doc
//! says what it reproduces and why (README's "Reproducing the paper"
//! lists them). Run one with `cargo run --release -p fbf-bench --bin
//! <name>`.
//!
//! Every binary has one shape: it hands [`main`] a function from the
//! [`Scale`] to an [`Artefact`] — its tables, the prose around them and
//! the points it swept — and [`main`] does the rest. It prints each
//! table and saves it as `results/<name>.csv`. It accepts `--trace
//! <path>` (stream a chrome://tracing JSONL run trace), `--obs`
//! (pretty-print events to stderr) and `--metrics <path>` (a Prometheus
//! snapshot of every swept point). It exits 1 when a claim the binary
//! checks fails.
//!
//! Campaign scale comes from `FBF_STRIPES` / `FBF_ERRORS` /
//! `FBF_WORKERS` (and `FBF_DISKS` for `rebuild_compare`); the defaults
//! reproduce the shapes in minutes on a laptop. `FBF_BENCH_QUICK=1`
//! selects the smaller grids CI smoke-runs. A value that does not parse
//! is refused with exit 2. `multi_disk_damage`, `degraded_reads` and
//! `disk_rebuild` pin their own scale.

use fbf_cache::PolicyKind;
use fbf_codes::CodeSpec;
use fbf_core::{
    policy_grid, ExperimentConfig, ExperimentConfigBuilder, Metrics, SweepPoint, Table,
};
use fbf_obs::ObsFlags;
use std::fmt;

pub use fbf_core::CACHE_MB;

/// Primes used by the multi-code figures (Figs. 8 and 10).
pub const FIG8_PRIMES: [usize; 3] = [7, 11, 13];
/// TIP-only figures (Figs. 9 and 11) sweep all four primes.
pub const TIP_PRIMES: [usize; 4] = [5, 7, 11, 13];

/// Why a binary could not produce its artefact (exit 1).
pub type Failure = Box<dyn std::error::Error>;

/// Campaign scale, read once by [`main`]: `FBF_STRIPES`, `FBF_ERRORS`,
/// `FBF_WORKERS` and `FBF_DISKS` (`None` when unset), `FBF_BENCH_QUICK=1`
/// (the smaller grids CI smoke-runs), and whether a subscriber is
/// installed, so that every experiment is observed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Scale {
    pub stripes: Option<u32>,
    pub errors: Option<usize>,
    pub workers: Option<usize>,
    pub disks: Option<usize>,
    pub quick: bool,
    pub obs: bool,
}

impl Scale {
    /// Read the knobs through `get` (the process environment, in
    /// [`main`]). An empty value means unset. A count that is not a
    /// positive integer, or a quick switch other than `0` or `1`, is
    /// refused with a message naming the variable and its value.
    pub fn read(get: impl Fn(&str) -> Option<String>) -> Result<Scale, String> {
        let get = |name: &str| get(name).filter(|v| !v.is_empty());
        let count = |name: &str| {
            get(name)
                .map(|v| match v.parse::<u32>() {
                    Ok(n) if n > 0 => Ok(n),
                    _ => Err(format!("{name}={v:?} is not a positive integer")),
                })
                .transpose()
        };
        let quick = match get("FBF_BENCH_QUICK").as_deref() {
            None | Some("0") => false,
            Some("1") => true,
            Some(v) => return Err(format!("FBF_BENCH_QUICK={v:?} is neither 0 nor 1")),
        };
        Ok(Scale {
            stripes: count("FBF_STRIPES")?,
            errors: count("FBF_ERRORS")?.map(|n| n as usize),
            workers: count("FBF_WORKERS")?.map(|n| n as usize),
            disks: count("FBF_DISKS")?.map(|n| n as usize),
            quick,
            obs: false,
        })
    }

    /// `full`, or `quick` under `FBF_BENCH_QUICK=1`.
    pub fn pick<T>(&self, full: T, quick: T) -> T {
        if self.quick {
            quick
        } else {
            full
        }
    }

    /// An experiment builder with a campaign of `stripes`, `errors` and
    /// `workers`, each unless its knob says otherwise, observed when
    /// [`main`] installed a subscriber.
    pub fn campaign(&self, stripes: u32, errors: usize, workers: usize) -> ExperimentConfigBuilder {
        ExperimentConfig::builder()
            .obs(self.obs)
            .stripes(self.stripes.unwrap_or(stripes))
            .error_count(self.errors.unwrap_or(errors))
            .workers(self.workers.unwrap_or(workers))
    }

    /// The figure-scale experiment: paper constants, a 4096-stripe,
    /// 512-error, 128-worker campaign unless the knobs say otherwise.
    pub fn config(
        &self,
        code: CodeSpec,
        p: usize,
        policy: PolicyKind,
        cache_mb: usize,
    ) -> ExperimentConfig {
        self.campaign(4096, 512, 128)
            .code(code)
            .p(p)
            .policy(policy)
            .cache_mb(cache_mb)
            .build()
            .expect("paper-shaped figure configuration is valid")
    }
}

/// The paper's figure shape: for each of `codes` × `primes`, one
/// [`policy_grid`] of `sizes` × every policy, tabulated
/// as `<label> — <code>(p=<p>)` with `cell` per point and saved as
/// `<csv>_<code>_p<p>`.
pub fn figure(
    scale: &Scale,
    label: &str,
    csv: &str,
    codes: &[CodeSpec],
    primes: &[usize],
    sizes: &[usize],
    cell: impl Fn(&Metrics) -> String,
) -> Result<Artefact, Failure> {
    let mut headers = vec!["cache_mb"];
    headers.extend(PolicyKind::ALL.iter().map(PolicyKind::name));
    let mut out = Artefact::default();
    for &code in codes {
        for &p in primes {
            let grid = policy_grid(sizes, &PolicyKind::ALL, |&mb, &policy| {
                scale.config(code, p, policy, mb)
            })?;
            let table = grid.table(
                format!("{label} — {}(p={p})", code.name()),
                &headers,
                |mb| vec![mb.to_string()],
                |pt| vec![cell(&pt.metrics)],
            );
            out.table(format!("{csv}_{}_p{p}", code.name().to_lowercase()), table)
                .points(grid.points);
        }
    }
    Ok(out)
}

/// What a binary hands [`main`]: its stdout in order — tables and the
/// prose written around them with `write!` — the points it swept, and
/// the first claim it checked that failed.
#[derive(Debug, Default)]
pub struct Artefact {
    out: Vec<Out>,
    points: Vec<SweepPoint>,
    failure: Option<String>,
}

#[derive(Debug)]
enum Out {
    /// A table and the name of its CSV.
    Table(String, Table),
    /// Prose, printed as written.
    Text(String),
}

impl Artefact {
    /// Print `table` here and save it as `results/<csv>.csv`.
    pub fn table(&mut self, csv: impl Into<String>, table: Table) -> &mut Self {
        self.out.push(Out::Table(csv.into(), table));
        self
    }

    /// Snapshot `points` under `--metrics`.
    pub fn points(&mut self, points: impl IntoIterator<Item = SweepPoint>) -> &mut Self {
        self.points.extend(points);
        self
    }

    /// Exit 1 with `message` unless `claim` holds. The output is printed
    /// either way.
    pub fn check(&mut self, claim: bool, message: impl FnOnce() -> String) -> &mut Self {
        if !claim && self.failure.is_none() {
            self.failure = Some(message());
        }
        self
    }

    /// Print the output, saving each table as `results/<csv>.csv` (best
    /// effort: printing is the primary output), write the metrics
    /// snapshot, and return the exit code.
    fn emit(self, flags: &ObsFlags) -> i32 {
        for out in &self.out {
            match out {
                Out::Table(csv, table) => {
                    println!("{}", table.render());
                    let path = format!("results/{csv}.csv");
                    match std::fs::create_dir_all("results")
                        .and_then(|()| std::fs::write(&path, table.to_csv()))
                    {
                        Ok(()) => eprintln!("(csv saved to {path})"),
                        Err(e) => eprintln!("warning: could not write {path}: {e}"),
                    }
                }
                Out::Text(text) => print!("{text}"),
            }
        }
        let points = self.points.iter().map(|p| &p.metrics);
        flags.write_metrics(|| fbf_core::prometheus_snapshot(points, None));
        self.failure.map_or(0, |message| {
            eprintln!("{message}");
            1
        })
    }
}

impl fmt::Write for Artefact {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        match self.out.last_mut() {
            Some(Out::Text(text)) => text.push_str(s),
            _ => self.out.push(Out::Text(s.to_string())),
        }
        Ok(())
    }
}

/// The `main` of every figure binary: read the [`Scale`] and the
/// observability flags (the command line's [`ObsFlags`], parsed exactly
/// as `fbf` parses them), run `artefact`, print and save what it made,
/// flush the trace, and exit: 2 on a refused knob or flag, 1 when the
/// artefact failed or a checked claim did not hold.
pub fn main(artefact: impl FnOnce(&Scale) -> Result<Artefact, Failure>) -> ! {
    fn refuse<T>(message: String) -> T {
        eprintln!("{message}");
        std::process::exit(2)
    }
    let env = |name: &str| std::env::var(name).ok().filter(|v| !v.is_empty());
    let mut scale = Scale::read(env).unwrap_or_else(refuse);
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let flags = ObsFlags::take(&mut args).unwrap_or_else(refuse);
    scale.obs = flags.install().unwrap_or_else(|e| {
        eprintln!("warning: {e}");
        false
    });
    let code = match artefact(&scale) {
        Ok(out) => out.emit(&flags),
        Err(e) => {
            eprintln!("error: {e}");
            1
        }
    };
    // `exit` skips destructors: flush the trace first.
    fbf_obs::uninstall();
    std::process::exit(code)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fmt::Write;

    fn lookup<'a>(vars: &'a [(&str, &str)]) -> impl Fn(&str) -> Option<String> + 'a {
        |name| {
            vars.iter()
                .find(|(k, _)| *k == name)
                .map(|(_, v)| v.to_string())
        }
    }

    #[test]
    fn base_config_uses_paper_constants() {
        let cfg = Scale::default().config(CodeSpec::Tip, 7, PolicyKind::Fbf, 64);
        assert_eq!(cfg.chunk_kb, 32);
        assert_eq!(cfg.cache_mb, 64);
        assert_eq!(cfg.code, CodeSpec::Tip);
        assert_eq!(
            (cfg.stripes, cfg.error_count, cfg.workers),
            (4096, 512, 128)
        );
    }

    #[test]
    fn scale_knobs_override_the_campaign() {
        let vars = [
            ("FBF_STRIPES", "256"),
            ("FBF_ERRORS", "64"),
            ("FBF_WORKERS", ""),
            ("FBF_BENCH_QUICK", "1"),
        ];
        let scale = Scale::read(lookup(&vars)).unwrap();
        assert!(scale.quick);
        assert_eq!(scale.pick(2048, 64), 64);
        let cfg = scale.config(CodeSpec::Tip, 7, PolicyKind::Fbf, 64);
        // An empty value is unset, so the worker default stands.
        assert_eq!((cfg.stripes, cfg.error_count, cfg.workers), (256, 64, 128));
        assert_eq!(Scale::read(lookup(&[])).unwrap(), Scale::default());
    }

    #[test]
    fn a_malformed_scale_variable_is_refused() {
        for (name, value) in [
            ("FBF_STRIPES", "4k"),
            ("FBF_WORKERS", "-1"),
            ("FBF_ERRORS", "0"),
            ("FBF_DISKS", "1.5"),
            ("FBF_STRIPES", "4294967296"),
            ("FBF_BENCH_QUICK", "yes"),
        ] {
            let err = Scale::read(lookup(&[(name, value)])).unwrap_err();
            assert!(
                err.contains(name) && err.contains(value),
                "{name}={value}: {err}"
            );
        }
    }

    #[test]
    fn prose_keeps_its_place_between_tables() {
        let mut out = Artefact::default();
        write!(out, "before").unwrap();
        writeln!(out, " the table").unwrap();
        out.table("t", Table::new("t", &["a"]));
        writeln!(out, "after").unwrap();
        out.check(true, || unreachable!())
            .check(false, || "first".into())
            .check(false, || "second".into());
        let shape: Vec<&str> = out
            .out
            .iter()
            .map(|o| match o {
                Out::Table(csv, _) => csv.as_str(),
                Out::Text(text) => text.as_str(),
            })
            .collect();
        assert_eq!(shape, ["before the table\n", "t", "after\n"]);
        assert_eq!(out.failure.as_deref(), Some("first"));
    }
}
