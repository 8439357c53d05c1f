//! One job, two doors: the `fbf` CLI (`run` / `replay` / `rebuild`) and the
//! daemon (`repair` / `rebuild`) hand the controller the same JSON request.
//! [`Work::from_request`] is its one reader — every refusal a door gives
//! before work starts is a [`RequestError`] from here — and
//! [`Work::execute`] the one way it runs, errors typed until the door
//! stringifies them. The daemon queues a `Work` and keeps its [`Outcome`];
//! the CLI builds the request it would have sent and executes it in place.

use crate::backend_run::{file_backend_for, run_observed_on, sim_backend_for};
use crate::config::{ConfigError, ExperimentConfig, ExperimentConfigBuilder};
use crate::metrics::Metrics;
use crate::plan::{PlanSource, PlanStore, PlannedCampaign};
use crate::progress::Progress;
use crate::rebuild::{execute_rebuild, RebuildOutcome, RebuildSpec};
use crate::runner::{run_planned_observed, RunError};
use fbf_codes::{CodeSpec, StripeCode};
use fbf_disksim::{EngineScratch, Placement, StorageBackend};
use fbf_obs::Json;
use fbf_recovery::{ErrorGroup, Fairness};
use std::path::PathBuf;
use std::sync::Arc;

/// What a repair runs against.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BackendKind {
    /// The simulator alone: chunk identities on the virtual clock.
    Engine,
    /// The in-memory data plane; its array is the job's to keep.
    Sim,
    /// Real per-disk files under the `dir` the request named; `None`
    /// leaves the choice to whoever executes (the daemon gives each job a
    /// directory of its own, [`Work::execute`] uses [`scratch_root`]).
    File(Option<PathBuf>),
    /// Debug-build seam for the worker-crash regression test: a panicking
    /// job must become `failed`, not a dead worker.
    #[cfg(debug_assertions)]
    Panic,
}

/// Where `file` repairs that named no directory go: `$TMPDIR/fbfd-<pid>`.
pub fn scratch_root() -> PathBuf {
    std::env::temp_dir().join(format!("fbfd-{}", std::process::id()))
}

/// One unit of work, checked whole: nothing about it can be refused after
/// [`Work::from_request`] returned it, only fail while running.
#[derive(Debug, Clone)]
pub enum Work {
    /// Repair one campaign of partial stripe errors.
    Repair {
        /// The experiment; `error_count` is 0 when `campaign` is supplied.
        cfg: ExperimentConfig,
        /// A replayed campaign, already checked against `cfg`'s geometry;
        /// `None` draws the seeded synthetic one.
        campaign: Option<ErrorGroup>,
        /// What the repair runs against.
        backend: BackendKind,
    },
    /// Rebuild a failed disk of a (declustered) array.
    Rebuild(RebuildSpec),
}

/// Why a request was refused before any work started. `Display` is the
/// text a daemon reply carries; the CLI rewords the variants it shows with
/// a file name.
#[derive(Debug, Clone, PartialEq)]
pub enum RequestError {
    /// A `config` override, or the configuration (or rebuild spec) the
    /// request adds up to.
    Config(ConfigError),
    /// The inline `trace` does not parse.
    BadTrace(String),
    /// The inline `trace` names stripes or cells the configuration lacks.
    TraceGeometry(String),
    /// A field outside `config` has the wrong shape, range or name.
    Field(String),
}

impl std::fmt::Display for RequestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RequestError::Config(e) => e.fmt(f),
            RequestError::BadTrace(e) => write!(f, "bad trace: {e}"),
            RequestError::TraceGeometry(e) => write!(f, "trace does not fit geometry: {e}"),
            RequestError::Field(e) => f.write_str(e),
        }
    }
}

impl std::error::Error for RequestError {}

impl From<ConfigError> for RequestError {
    fn from(e: ConfigError) -> Self {
        RequestError::Config(e)
    }
}

/// A [`RequestError::Field`] refusal.
fn field<T>(message: String) -> Result<T, RequestError> {
    Err(RequestError::Field(message))
}

/// The request's code, or the refusal to build it.
fn build_code(code: CodeSpec, p: usize) -> Result<StripeCode, RequestError> {
    StripeCode::build(code, p).or_else(|e| field(format!("cannot build code: {e}")))
}

/// Apply the request's `config` object onto the paper-default
/// [`ExperimentConfig`] through [`ExperimentConfigBuilder::set`] (numbers
/// as their integer text, strings as they are). Unknown keys are an error
/// (a typo'd override silently running the default experiment would be
/// worse).
fn builder_from_request(req: &Json) -> Result<ExperimentConfigBuilder, RequestError> {
    let mut builder = ExperimentConfig::builder().obs(true);
    if let Some(Json::Obj(map)) = req.get("config") {
        for (key, value) in map {
            let text = match value {
                Json::Str(s) => s.clone(),
                Json::Num(_) => value.render(),
                _ => return field(format!("config.{key} must be a number or a string")),
            };
            builder = builder.set(key, &text)?;
        }
    }
    Ok(builder)
}

/// An optional request field that must be a non-negative integer fitting
/// `T`, as a JSON number or its decimal text (what `fbf client` forwards):
/// absent is `None`, anything else out of shape or range is an error,
/// never a truncation onto some other experiment.
pub(crate) fn int_field<T: TryFrom<u64> + std::str::FromStr>(
    req: &Json,
    key: &str,
) -> Result<Option<T>, RequestError> {
    let Some(value) = req.get(key) else {
        return Ok(None);
    };
    match value {
        Json::Str(text) => text.parse().ok(),
        _ => value.as_u64().and_then(|n| T::try_from(n).ok()),
    }
    .map_or_else(
        || field(format!("bad value for `{key}`: {}", value.render())),
        |n| Ok(Some(n)),
    )
}

/// The [`RebuildSpec`] a `rebuild` request describes around its validated
/// `base`: `disks`, `placement` (`clustered`/`rotated`/`declustered`),
/// `placement_seed`, `failed_disk`, `cap`, `fairness` (`rr`/`drr`),
/// `campaigns` and `app_reads`, each checked.
fn rebuild_spec(req: &Json, base: ExperimentConfig) -> Result<RebuildSpec, RequestError> {
    let code = build_code(base.code, base.p)?;
    let disks: usize = int_field(req, "disks")?.unwrap_or(100);
    // Per-disk state is allocated for every disk asked for; more disks than
    // stripe columns exist are disks no chunk can ever land on.
    let columns = u64::from(base.stripes).saturating_mul(code.cols() as u64);
    if disks as u64 > columns {
        let stripes = base.stripes;
        return field(format!(
            "{disks} disks exceed the {columns} stripe columns of {stripes} stripes"
        ));
    }
    let mut spec = RebuildSpec::new(base, disks);
    let placement_seed = int_field(req, "placement_seed")?;
    spec.placement = match req.get("placement").and_then(Json::as_str) {
        Some("declustered") | None => Placement::Declustered {
            seed: placement_seed.unwrap_or(spec.base.seed),
        },
        Some("clustered" | "fixed") => Placement::Fixed,
        Some("rotated") => Placement::Rotated,
        Some(other) => {
            return field(format!(
                "unknown placement `{other}` (clustered, rotated, declustered)"
            ))
        }
    };
    if placement_seed.is_some() && !matches!(spec.placement, Placement::Declustered { .. }) {
        return field("placement_seed only applies to declustered placement".to_string());
    }
    spec.failed_disk = int_field(req, "failed_disk")?.unwrap_or(spec.failed_disk);
    spec.per_disk_cap = int_field(req, "cap")?.unwrap_or(spec.per_disk_cap);
    if let Some(f) = req.get("fairness").and_then(Json::as_str) {
        let Some(fairness) = Fairness::parse(f) else {
            return field(format!("unknown fairness `{f}` (rr or drr)"));
        };
        spec.fairness = fairness;
    }
    spec.campaigns = int_field(req, "campaigns")?.unwrap_or(spec.campaigns);
    spec.app_reads_per_wave = int_field(req, "app_reads")?.unwrap_or(spec.app_reads_per_wave);
    // Array shape, failed disk, cap and campaign count: the driver's rule.
    spec.validate(&code)?;
    Ok(spec)
}

impl Work {
    /// The work a request describes: `cmd` `rebuild` is a [`Work::Rebuild`]
    /// (see [`RebuildSpec`] for its fields), anything else a repair taking
    /// `config` overrides (every key of [`crate::config::KEYS`]), `backend`,
    /// `dir` and an inline `trace`.
    pub fn from_request(req: &Json) -> Result<Work, RequestError> {
        let rebuild = req.get("cmd").and_then(Json::as_str) == Some("rebuild");
        let trace = req.get("trace").and_then(Json::as_str);
        let mut builder = builder_from_request(req)?;
        // A request that brings its campaign — a failed disk's columns, an
        // inline trace — draws no errors of its own.
        if rebuild || trace.is_some() {
            builder = builder.error_count(0);
        }
        let cfg = builder.build()?;
        if rebuild {
            return rebuild_spec(req, cfg).map(Work::Rebuild);
        }
        cfg.check_fault_disks(cfg.code.disks(cfg.p))?;
        let dir = req.get("dir").and_then(Json::as_str).map(PathBuf::from);
        let backend = match req.get("backend").and_then(Json::as_str) {
            Some("engine") | None => BackendKind::Engine,
            Some("sim") => BackendKind::Sim,
            Some("file") => BackendKind::File(dir),
            #[cfg(debug_assertions)]
            Some("panic") => BackendKind::Panic,
            Some(other) => return field(format!("unknown backend `{other}`")),
        };
        let campaign = match trace {
            None => None,
            Some(text) => {
                let group = fbf_workload::parse_trace(text).map_err(RequestError::BadTrace)?;
                let code = build_code(cfg.code, cfg.p)?;
                fbf_workload::validate_against(&group, &code, cfg.stripes as usize)
                    .map_err(RequestError::TraceGeometry)?;
                Some(group)
            }
        };
        Ok(Work::Repair {
            cfg,
            campaign,
            backend,
        })
    }

    /// The experiment configuration the work runs under.
    pub fn cfg(&self) -> &ExperimentConfig {
        match self {
            Work::Repair { cfg, .. } => cfg,
            Work::Rebuild(spec) => &spec.base,
        }
    }

    /// What `status` replies call the job's `backend`.
    pub fn backend_name(&self) -> &'static str {
        match self {
            Work::Repair { backend, .. } => match backend {
                BackendKind::Engine => "engine",
                BackendKind::Sim => "sim",
                BackendKind::File(_) => "file",
                #[cfg(debug_assertions)]
                BackendKind::Panic => "panic",
            },
            Work::Rebuild(_) => "rebuild",
        }
    }

    /// Run the work to completion. `store` shares planning with whatever
    /// else the caller runs, `scratch` is the engine's reusable state, and
    /// `progress` receives a repair's live escalation counters.
    pub fn execute(
        &self,
        store: &PlanStore,
        scratch: &mut EngineScratch,
        progress: Option<&Progress>,
    ) -> Result<Outcome, RunError> {
        let (cfg, campaign, backend) = match self {
            Work::Rebuild(spec) => {
                return execute_rebuild(spec, store, scratch).map(Outcome::Rebuild)
            }
            Work::Repair {
                cfg,
                campaign,
                backend,
            } => (cfg, campaign, backend),
        };
        cfg.validate()?;
        // Trace-supplied campaigns bypass the plan store (their errors are
        // not derivable from the PlanKey); synthetic ones share it.
        let (plan, source) = match campaign {
            Some(errors) => (
                Arc::new(PlannedCampaign::cold_with_errors(cfg, errors.clone())?),
                PlanSource::Cold,
            ),
            None => store.plan(cfg)?,
        };
        // The data plane moves bytes and hands its array back for `read`.
        let mut kept: Option<Box<dyn StorageBackend>> = match backend {
            BackendKind::Engine => None,
            BackendKind::Sim => Some(Box::new(sim_backend_for(cfg, &plan)?)),
            BackendKind::File(dir) => {
                let dir = dir.clone().unwrap_or_else(scratch_root);
                Some(Box::new(file_backend_for(cfg, &plan, &dir)?))
            }
            #[cfg(debug_assertions)]
            BackendKind::Panic => panic!("deliberate panic backend (worker-crash regression test)"),
        };
        let metrics = match kept.as_deref_mut() {
            Some(backend) => run_observed_on(cfg, &plan, source, scratch, progress, backend)?,
            None => run_planned_observed(cfg, &plan, source, scratch, progress),
        };
        Ok(Outcome::Repair {
            metrics,
            backend: kept,
        })
    }
}

/// What finished [`Work`] produced, by kind.
pub enum Outcome {
    /// A repair: its metrics, and the array a `sim`/`file` repair ran on
    /// (repaired chunks come from its spare area).
    Repair {
        /// The run's metrics.
        metrics: Metrics,
        /// The data plane the repair ran on; `None` for `engine`.
        backend: Option<Box<dyn StorageBackend>>,
    },
    /// An array-wide rebuild.
    Rebuild(RebuildOutcome),
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(request: &str) -> Result<Work, RequestError> {
        Work::from_request(&Json::parse(request).expect("test request is JSON"))
    }

    #[test]
    fn config_overrides_apply_and_unknown_keys_fail() {
        let work = parse(
            r#"{"cmd":"repair","config":{"policy":"lru","stripes":128,"errors":16,"chunk_kb":1}}"#,
        )
        .unwrap();
        let cfg = work.cfg();
        assert_eq!(cfg.stripes, 128);
        assert_eq!(cfg.error_count, 16);
        assert_eq!(cfg.chunk_kb, 1);
        assert!(parse(r#"{"config":{"striipes":128}}"#).is_err());
    }

    /// A request that brings its campaign draws no errors: the default 512
    /// do not have to fit its stripes, and the count reads 0 afterwards.
    #[test]
    fn a_supplied_campaign_zeroes_the_error_count() {
        let trace = r#"{"cmd":"repair","config":{"stripes":64},"trace":"3 0 0 2\n"}"#;
        let Work::Repair { cfg, campaign, .. } = parse(trace).unwrap() else {
            panic!("a repair request");
        };
        assert_eq!((cfg.error_count, campaign.map(|c| c.len())), (0, Some(1)));
        let rebuild = r#"{"cmd":"rebuild","config":{"stripes":64},"disks":24}"#;
        assert_eq!(parse(rebuild).unwrap().cfg().error_count, 0);
        let drawn = parse(r#"{"cmd":"repair","config":{"stripes":64}}"#).unwrap_err();
        assert_eq!(drawn.to_string(), "cannot place 512 errors on 64 stripes");
    }

    /// Every refusal the daemon's malformed-request test and the CLI
    /// transcript pin, at the one place that words them: the request, the
    /// variant that types it, the text a reply carries.
    #[test]
    fn every_refusal_is_worded_here() {
        let cases = [
            // `config`: keys, values, and what they add up to.
            (
                r#"{"cmd":"repair","config":{"striipes":128}}"#,
                "config",
                "unknown config key `striipes`",
            ),
            (
                r#"{"cmd":"repair","config":{"policy":"mru"}}"#,
                "config",
                "bad value for `policy`: `mru`",
            ),
            (
                r#"{"cmd":"repair","config":{"stripes":4294967301}}"#,
                "config",
                "bad value for `stripes`: `4294967301`",
            ),
            (
                r#"{"cmd":"repair","config":{"cache_mb":18014398509481984}}"#,
                "config",
                "cache of 18014398509481984 MiB overflows the chunk count",
            ),
            (
                r#"{"cmd":"repair","config":{"kill":"3@18446744073709551615"}}"#,
                "config",
                "bad value for `kill`: `3@18446744073709551615`",
            ),
            (
                r#"{"cmd":"repair","config":{"workers":1.5}}"#,
                "config",
                "bad value for `workers`: `1.5`",
            ),
            (
                r#"{"cmd":"repair","config":{"workers":0}}"#,
                "config",
                "workers must be at least 1",
            ),
            (
                r#"{"cmd":"repair","config":{"stripes":4,"errors":9}}"#,
                "config",
                "cannot place 9 errors on 4 stripes",
            ),
            (
                r#"{"cmd":"repair","config":{"kill":"99@40"}}"#,
                "config",
                "kill disk 99 outside the 8-disk array",
            ),
            (
                r#"{"cmd":"repair","config":{"code":"star","slow":"10@3000"}}"#,
                "config",
                "slow disk 10 outside the 10-disk array",
            ),
            (
                r#"{"cmd":"repair","config":{"stripes":[4]}}"#,
                "field",
                "config.stripes must be a number or a string",
            ),
            // `backend` and the inline `trace`.
            (
                r#"{"cmd":"repair","backend":"tape"}"#,
                "field",
                "unknown backend `tape`",
            ),
            (
                r#"{"cmd":"repair","trace":"1 2 3\n"}"#,
                "trace",
                "bad trace: line 1: expected 4 fields, got 3",
            ),
            (
                r#"{"cmd":"repair","config":{"stripes":8},"trace":"14 0 0 2\n"}"#,
                "geometry",
                "trace does not fit geometry: error 1: stripe 14 out of range \
                 (campaign has 8 stripes)",
            ),
            // The rebuild spec's own fields, then the spec they add up to.
            (
                r#"{"cmd":"rebuild","disks":24.5}"#,
                "field",
                "bad value for `disks`: 24.5",
            ),
            (
                r#"{"cmd":"rebuild","disks":"4x"}"#,
                "field",
                r#"bad value for `disks`: "4x""#,
            ),
            (
                r#"{"cmd":"rebuild","disks":9007199254740992}"#,
                "field",
                "9007199254740992 disks exceed the 32768 stripe columns of 4096 stripes",
            ),
            (
                r#"{"cmd":"rebuild","failed_disk":-1}"#,
                "field",
                "bad value for `failed_disk`: -1",
            ),
            (
                r#"{"cmd":"rebuild","cap":4294967296}"#,
                "field",
                "bad value for `cap`: 4294967296",
            ),
            (
                r#"{"cmd":"rebuild","campaigns":0.5}"#,
                "field",
                "bad value for `campaigns`: 0.5",
            ),
            (
                r#"{"cmd":"rebuild","app_reads":"many"}"#,
                "field",
                r#"bad value for `app_reads`: "many""#,
            ),
            (
                r#"{"cmd":"rebuild","placement_seed":-3}"#,
                "field",
                "bad value for `placement_seed`: -3",
            ),
            (
                r#"{"cmd":"rebuild","placement":"striped"}"#,
                "field",
                "unknown placement `striped` (clustered, rotated, declustered)",
            ),
            (
                r#"{"cmd":"rebuild","placement":"rotated","placement_seed":3}"#,
                "field",
                "placement_seed only applies to declustered placement",
            ),
            (
                r#"{"cmd":"rebuild","fairness":"fifo"}"#,
                "field",
                "unknown fairness `fifo` (rr or drr)",
            ),
            (
                r#"{"cmd":"rebuild","disks":4}"#,
                "config",
                "4 disks cannot hold 8-column stripes",
            ),
            (
                r#"{"cmd":"rebuild","failed_disk":100}"#,
                "config",
                "failed_disk 100 outside the 100-disk array",
            ),
            (
                r#"{"cmd":"rebuild","disks":24,"config":{"kill":"30@5"}}"#,
                "config",
                "kill disk 30 outside the 24-disk array",
            ),
            (
                r#"{"cmd":"rebuild","cap":0}"#,
                "config",
                "cap must be at least 1",
            ),
            (
                r#"{"cmd":"rebuild","campaigns":"0"}"#,
                "config",
                "campaigns must be at least 1",
            ),
        ];
        for (request, variant, text) in cases {
            let refused = parse(request).expect_err(request);
            let typed = match refused {
                RequestError::Config(_) => "config",
                RequestError::BadTrace(_) => "trace",
                RequestError::TraceGeometry(_) => "geometry",
                RequestError::Field(_) => "field",
            };
            assert_eq!((typed, refused.to_string().as_str()), (variant, text));
        }
    }
}
