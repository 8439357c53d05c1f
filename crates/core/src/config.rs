//! Experiment configuration.

use fbf_cache::{FbfConfig, FxHashMap, PolicyKind};
use fbf_codes::prime::is_prime;
use fbf_codes::CodeSpec;
use fbf_disksim::{
    ArrayMapping, CacheSharing, DiskKill, DiskModel, DiskSched, EngineConfig, FaultPlan, SimTime,
    SlowDisk,
};
use fbf_recovery::SchemeKind;
use std::sync::Arc;

/// Why a configuration was rejected before running.
///
/// Produced by [`ExperimentConfig::validate`] (and therefore by
/// [`ExperimentConfigBuilder::build`]) so that impossible experiments fail
/// at construction with a precise reason instead of deep inside the stack.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// The code's `p` parameter must be prime.
    NonPrimeP(usize),
    /// A count that must be at least 1 — `workers`, `stripes`, `chunk_kb`,
    /// or a rebuild's `cap` (a zero per-disk read cap admits nothing, ever)
    /// and `campaigns` — was 0; the payload is its key.
    Zero(&'static str),
    /// The error generator damages each stripe at most once, so it cannot
    /// draw more errors than the data zone has stripes.
    TooManyErrors {
        /// Errors asked for.
        errors: usize,
        /// Stripes in the data zone.
        stripes: u32,
    },
    /// The buffer cache cannot hold even one chunk.
    CacheTooSmall {
        /// Configured cache size, MiB.
        cache_mb: usize,
        /// Configured chunk size, KiB.
        chunk_kb: usize,
    },
    /// The cache size in KiB does not fit the address space.
    CacheTooLarge {
        /// Configured cache size, MiB.
        cache_mb: usize,
    },
    /// [`ExperimentConfigBuilder::set`] was given a key outside [`KEYS`].
    UnknownKey(String),
    /// [`ExperimentConfigBuilder::set`] could not parse the value as the
    /// key's type (wrong shape, unknown name, or out of range).
    BadValue {
        /// The key being set.
        key: String,
        /// The rejected value text.
        value: String,
    },
    /// A rebuild's array has fewer disks than its stripes have columns.
    TooFewDisks {
        /// Disks in the array.
        disks: usize,
        /// Columns of the code's stripes.
        cols: usize,
    },
    /// A rebuild's array has more disks than placement and the admission
    /// scheduler, which index disks by `u32`, can address.
    TooManyDisks(usize),
    /// A rebuild names a failed disk the array does not have.
    FailedDiskOutOfRange {
        /// The disk named.
        failed_disk: usize,
        /// Disks in the array.
        disks: usize,
    },
    /// A `kill` or `slow` fault names a disk the array does not have.
    FaultDiskOutOfRange {
        /// The config key of the fault.
        key: &'static str,
        /// The disk named.
        disk: u32,
        /// Disks in the array.
        disks: usize,
    },
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::NonPrimeP(p) => write!(f, "p = {p} is not prime"),
            ConfigError::Zero(key) => write!(f, "{key} must be at least 1"),
            ConfigError::TooManyErrors { errors, stripes } => {
                write!(f, "cannot place {errors} errors on {stripes} stripes")
            }
            ConfigError::CacheTooSmall { cache_mb, chunk_kb } => write!(
                f,
                "cache of {cache_mb} MiB cannot hold one {chunk_kb} KiB chunk"
            ),
            ConfigError::CacheTooLarge { cache_mb } => {
                write!(f, "cache of {cache_mb} MiB overflows the chunk count")
            }
            ConfigError::UnknownKey(key) => write!(f, "unknown config key `{key}`"),
            ConfigError::BadValue { key, value } => {
                write!(f, "bad value for `{key}`: `{value}`")
            }
            ConfigError::TooFewDisks { disks, cols } => {
                write!(f, "{disks} disks cannot hold {cols}-column stripes")
            }
            ConfigError::TooManyDisks(disks) => {
                write!(f, "{disks} disks exceed the u32 disk index")
            }
            ConfigError::FailedDiskOutOfRange { failed_disk, disks } => {
                write!(
                    f,
                    "failed_disk {failed_disk} outside the {disks}-disk array"
                )
            }
            ConfigError::FaultDiskOutOfRange { key, disk, disks } => {
                write!(f, "{key} disk {disk} outside the {disks}-disk array")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// Full description of one reconstruction experiment.
///
/// Defaults follow the paper's setup (§IV-A) scaled to finish in seconds of
/// host time: 32 KB chunks, 0.5 ms cache access, 10 ms disk access, SOR
/// with 128 workers and a partitioned cache, uniform error lengths on
/// `[1, p-1]`.
///
/// **Scheme note.** All cache policies run on top of the *shared-chunk*
/// recovery scheme (`SchemeKind::FbfCycling`). With the horizontal-only
/// typical scheme no chunk is ever referenced twice, so every policy's hit
/// ratio is ~0 and the comparison is vacuous; the paper's Fig. 8 baselines
/// clearly re-reference chunks. The scheme itself is ablated separately
/// (`ablation_scheme`).
#[derive(Debug, Clone, Copy)]
pub struct ExperimentConfig {
    /// Erasure code under test.
    pub code: CodeSpec,
    /// The code's prime parameter (5, 7, 11, 13 in the paper).
    pub p: usize,
    /// Cache replacement policy under test.
    pub policy: PolicyKind,
    /// FBF-specific tunables (demotion position, ablation switches); only
    /// consulted when `policy == PolicyKind::Fbf`.
    pub fbf: FbfConfig,
    /// Recovery-scheme generator (see struct docs).
    pub scheme: SchemeKind,
    /// Total buffer-cache size in MiB (the paper's x-axis).
    pub cache_mb: usize,
    /// Chunk size in KiB (the paper: 32).
    pub chunk_kb: usize,
    /// Stripes in the array's data zone.
    pub stripes: u32,
    /// Partial stripe errors the seeded generator draws, each on a stripe
    /// of its own (at most `stripes`). A run that brings its campaign — a
    /// replayed trace, a failed disk's columns — draws none and ignores it.
    pub error_count: usize,
    /// SOR reconstruction workers.
    pub workers: usize,
    /// Inert: nothing reads it. The data plane runs on the engine and
    /// decodes no batches; the field stays only until the benchmark stops
    /// setting it.
    pub decode_batch: usize,
    /// Cache partitioning across workers.
    pub sharing: CacheSharing,
    /// Disk service model.
    pub disk_model: DiskModel,
    /// Disk head-scheduling discipline (matters under the detailed
    /// mechanical model; FCFS matches the paper's fixed-latency setup).
    pub disk_sched: DiskSched,
    /// Failure injection: one disk serving at a multiple of its normal
    /// service time (aged-disk straggler).
    pub straggler: Option<(usize, f64)>,
    /// Deterministic mid-recovery fault injection (media errors, transient
    /// stalls, straggler, disk kill). [`FaultPlan::none()`] — the default —
    /// reproduces the fault-free baseline bit-for-bit.
    pub faults: FaultPlan,
    /// Buffer-cache access time.
    pub cache_hit_time: SimTime,
    /// Campaign RNG seed.
    pub seed: u64,
    /// Host threads for scheme generation (0 = all cores).
    pub gen_threads: usize,
    /// Emit fbf-obs events (plan spans, run counters) for this experiment.
    /// Only takes effect when a subscriber is installed via
    /// `fbf_obs::install`; off by default so plain runs stay zero-cost.
    pub obs: bool,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        ExperimentConfig {
            code: CodeSpec::Tip,
            p: 7,
            policy: PolicyKind::Fbf,
            fbf: FbfConfig::default(),
            scheme: SchemeKind::FbfCycling,
            cache_mb: 64,
            chunk_kb: 32,
            stripes: 4096,
            error_count: 512,
            workers: 128,
            decode_batch: 8,
            sharing: CacheSharing::Partitioned,
            disk_model: DiskModel::paper_default(),
            disk_sched: DiskSched::Fcfs,
            straggler: None,
            faults: FaultPlan::none(),
            cache_hit_time: SimTime::from_micros(500),
            seed: 0x5EED,
            gen_threads: 0,
            obs: false,
        }
    }
}

/// Every key [`ExperimentConfigBuilder::set`] accepts (aliases beside the
/// name they stand for). The CLI spells them `--cache-mb`; its help text
/// is printed from this list.
pub const KEYS: [&str; 18] = [
    "code",
    "p",
    "policy",
    "scheme",
    "cache_mb",
    "cache",
    "chunk_kb",
    "stripes",
    "errors",
    "error_count",
    "workers",
    "seed",
    "gen_threads",
    "media",
    "transient",
    "fault_seed",
    "kill",
    "slow",
];

/// Parse a code name as the CLI and daemon protocol spell it
/// (`tip`, `hdd1`, `triplestar`, `star`, `rdp`, `evenodd`).
pub fn code_from_name(s: &str) -> Option<CodeSpec> {
    match s.to_ascii_lowercase().as_str() {
        "tip" => Some(CodeSpec::Tip),
        "hdd1" => Some(CodeSpec::Hdd1),
        "triplestar" | "triple-star" | "ts" => Some(CodeSpec::TripleStar),
        "star" => Some(CodeSpec::Star),
        "rdp" => Some(CodeSpec::Rdp),
        "evenodd" | "eo" => Some(CodeSpec::Evenodd),
        _ => None,
    }
}

/// Parse a replacement-policy name (`fifo`, `lru`, `lfu`, `arc`, `fbf`,
/// `lru-k`, `2q`, `lrfu`, `fbr`, `vdf`).
fn policy_from_name(s: &str) -> Option<PolicyKind> {
    match s.to_ascii_lowercase().as_str() {
        "fifo" => Some(PolicyKind::Fifo),
        "lru" => Some(PolicyKind::Lru),
        "lfu" => Some(PolicyKind::Lfu),
        "arc" => Some(PolicyKind::Arc),
        "fbf" => Some(PolicyKind::Fbf),
        "lru-k" | "lruk" | "lru2" => Some(PolicyKind::LruK),
        "2q" | "twoq" => Some(PolicyKind::TwoQ),
        "lrfu" => Some(PolicyKind::Lrfu),
        "fbr" => Some(PolicyKind::Fbr),
        "vdf" => Some(PolicyKind::Vdf),
        _ => None,
    }
}

/// Parse a recovery-scheme name (`typical`, `fbf`/`cycling`, `greedy`).
pub fn scheme_from_name(s: &str) -> Option<SchemeKind> {
    match s.to_ascii_lowercase().as_str() {
        "typical" | "horizontal" => Some(SchemeKind::Typical),
        "fbf" | "cycling" => Some(SchemeKind::FbfCycling),
        "greedy" => Some(SchemeKind::Greedy),
        _ => None,
    }
}

impl ExperimentConfig {
    /// Start building a configuration from the paper's defaults, with
    /// validation at the end.
    ///
    /// ```
    /// use fbf_core::ExperimentConfig;
    /// use fbf_cache::PolicyKind;
    ///
    /// let cfg = ExperimentConfig::builder()
    ///     .policy(PolicyKind::Lru)
    ///     .cache_mb(16)
    ///     .build()
    ///     .unwrap();
    /// assert_eq!(cfg.cache_mb, 16);
    /// ```
    pub fn builder() -> ExperimentConfigBuilder {
        ExperimentConfigBuilder {
            cfg: ExperimentConfig::default(),
        }
    }

    /// Check the configuration for impossibilities a run could only hit as
    /// a panic or a nonsense result.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if !is_prime(self.p) {
            return Err(ConfigError::NonPrimeP(self.p));
        }
        let counts = [
            ("workers", self.workers),
            ("stripes", self.stripes as usize),
        ];
        if let Some((key, _)) = counts.into_iter().find(|&(_, n)| n == 0) {
            return Err(ConfigError::Zero(key));
        }
        if self.error_count as u64 > u64::from(self.stripes) {
            return Err(ConfigError::TooManyErrors {
                errors: self.error_count,
                stripes: self.stripes,
            });
        }
        if self.chunk_kb == 0 {
            return Err(ConfigError::Zero("chunk_kb"));
        }
        if self.cache_mb.checked_mul(1024).is_none() {
            return Err(ConfigError::CacheTooLarge {
                cache_mb: self.cache_mb,
            });
        }
        if self.cache_chunks() == 0 {
            return Err(ConfigError::CacheTooSmall {
                cache_mb: self.cache_mb,
                chunk_kb: self.chunk_kb,
            });
        }
        Ok(())
    }

    /// Refuse a `kill` or `slow` fault aimed at a disk an array of `disks`
    /// disks lacks: the engine would never apply it, and the run would
    /// pass for a faulted one.
    pub(crate) fn check_fault_disks(&self, disks: usize) -> Result<(), ConfigError> {
        let aimed = [
            ("kill", self.faults.disk_kill.map(|k| k.disk)),
            ("slow", self.faults.straggler.map(|s| s.disk)),
        ];
        for (key, disk) in aimed {
            if let Some(disk) = disk.filter(|&d| d as usize >= disks) {
                return Err(ConfigError::FaultDiskOutOfRange { key, disk, disks });
            }
        }
        Ok(())
    }

    /// Cache capacity in chunks: `cache_mb` MiB of `chunk_kb` KiB chunks.
    pub fn cache_chunks(&self) -> usize {
        self.cache_mb * 1024 / self.chunk_kb
    }

    /// Chunk payload size in bytes.
    pub fn chunk_bytes(&self) -> u64 {
        (self.chunk_kb as u64) << 10
    }

    /// The simulator configuration of this experiment. Every driver —
    /// campaign rounds, data plane, rebuild waves — builds its
    /// engine here and supplies only what differs between them: the
    /// chunk→disk mapping, the victim map of the stripes under repair,
    /// and the fault plan of the round at hand.
    pub fn engine_config(
        &self,
        mapping: ArrayMapping,
        victim_map: Arc<FxHashMap<u32, u16>>,
        faults: FaultPlan,
    ) -> EngineConfig {
        EngineConfig {
            policy: self.policy,
            fbf: self.fbf,
            victim_map: Some(victim_map),
            cache_chunks: self.cache_chunks(),
            sharing: self.sharing,
            disk_model: self.disk_model,
            sched: self.disk_sched,
            straggler: self.straggler,
            faults,
            cache_hit_time: self.cache_hit_time,
            chunk_bytes: self.chunk_bytes(),
            mapping,
            data_stripes: self.stripes as u64,
            obs: self.obs,
        }
    }

    /// One-line description for logs and reports.
    pub fn describe(&self) -> String {
        format!(
            "{}(p={}) policy={} scheme={} cache={}MB workers={}",
            self.code.name(),
            self.p,
            self.policy.name(),
            self.scheme.name(),
            self.cache_mb,
            self.workers
        )
    }
}

/// Fluent, validated construction of [`ExperimentConfig`].
///
/// Starts from [`ExperimentConfig::default`] (the paper's setup); every
/// setter overrides one field; [`build`](Self::build) validates eagerly and
/// returns a typed [`ConfigError`] instead of letting a bad value panic
/// mid-experiment.
#[derive(Debug, Clone, Copy)]
pub struct ExperimentConfigBuilder {
    cfg: ExperimentConfig,
}

macro_rules! builder_setters {
    ($($(#[$doc:meta])* $field:ident: $ty:ty),+ $(,)?) => {
        $(
            $(#[$doc])*
            pub fn $field(mut self, $field: $ty) -> Self {
                self.cfg.$field = $field;
                self
            }
        )+
    };
}

impl ExperimentConfigBuilder {
    builder_setters! {
        /// Erasure code under test.
        code: CodeSpec,
        /// The code's prime parameter.
        p: usize,
        /// Cache replacement policy under test.
        policy: PolicyKind,
        /// FBF-specific tunables.
        fbf: FbfConfig,
        /// Recovery-scheme generator.
        scheme: SchemeKind,
        /// Total buffer-cache size in MiB.
        cache_mb: usize,
        /// Chunk size in KiB.
        chunk_kb: usize,
        /// Stripes in the array's data zone.
        stripes: u32,
        /// Partial stripe errors in the campaign.
        error_count: usize,
        /// SOR reconstruction workers.
        workers: usize,
        /// Inert (see [`ExperimentConfig::decode_batch`]).
        decode_batch: usize,
        /// Cache partitioning across workers.
        sharing: CacheSharing,
        /// Disk service model.
        disk_model: DiskModel,
        /// Disk head-scheduling discipline.
        disk_sched: DiskSched,
        /// Aged-disk straggler injection.
        straggler: Option<(usize, f64)>,
        /// Deterministic mid-recovery fault injection.
        faults: FaultPlan,
        /// Buffer-cache access time.
        cache_hit_time: SimTime,
        /// Campaign RNG seed.
        seed: u64,
        /// Host threads for scheme generation (0 = all cores).
        gen_threads: usize,
        /// Emit fbf-obs events for this experiment.
        obs: bool,
    }

    /// Set one field from its textual key and value — the one place
    /// config key names are matched. The CLI (`--cache-mb 64` →
    /// `set("cache_mb", "64")`), the daemon's `config` object and `fbf
    /// client` all come through here. Integers parse into the field's own
    /// type, so an out-of-range value is a [`ConfigError::BadValue`], never
    /// a truncation. The fault keys edit [`ExperimentConfig::faults`] in
    /// place: `kill` is `<disk>@<ms>`, `slow` is `<disk>@<permille>`.
    pub fn set(mut self, key: &str, value: &str) -> Result<Self, ConfigError> {
        fn num<T: std::str::FromStr>(v: &str) -> Option<T> {
            v.parse().ok()
        }
        fn at<T: std::str::FromStr>(v: &str) -> Option<(u32, T)> {
            let (disk, n) = v.split_once('@')?;
            Some((num(disk)?, num(n)?))
        }
        let cfg = &mut self.cfg;
        let parsed = match key {
            "code" => code_from_name(value).map(|c| cfg.code = c),
            "p" => num(value).map(|p| cfg.p = p),
            "policy" => policy_from_name(value).map(|p| cfg.policy = p),
            "scheme" => scheme_from_name(value).map(|s| cfg.scheme = s),
            "cache_mb" | "cache" => num(value).map(|c| cfg.cache_mb = c),
            "chunk_kb" => num(value).map(|c| cfg.chunk_kb = c),
            "stripes" => num(value).map(|s| cfg.stripes = s),
            "errors" | "error_count" => num(value).map(|e| cfg.error_count = e),
            "workers" => num(value).map(|w| cfg.workers = w),
            "seed" => num(value).map(|s| cfg.seed = s),
            "gen_threads" => num(value).map(|g| cfg.gen_threads = g),
            "media" => num(value).map(|m| cfg.faults.media_per_mille = m),
            "transient" => num(value).map(|t| cfg.faults.transient_per_mille = t),
            "fault_seed" => num(value).map(|s| cfg.faults.seed = s),
            "kill" => at::<u64>(value).and_then(|(disk, ms)| {
                // Milliseconds on the wire, nanoseconds inside.
                let at = SimTime(ms.checked_mul(1_000_000)?);
                cfg.faults.disk_kill = Some(DiskKill { disk, at });
                Some(())
            }),
            "slow" => at(value).map(|(disk, scale_milli)| {
                cfg.faults.straggler = Some(SlowDisk { disk, scale_milli });
            }),
            _ => return Err(ConfigError::UnknownKey(key.to_string())),
        };
        match parsed {
            Some(()) => Ok(self),
            None => Err(ConfigError::BadValue {
                key: key.to_string(),
                value: value.to_string(),
            }),
        }
    }

    /// Validate and produce the configuration.
    pub fn build(self) -> Result<ExperimentConfig, ConfigError> {
        self.cfg.validate()?;
        Ok(self.cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_defaults_match_default() {
        let built = ExperimentConfig::builder().build().unwrap();
        let default = ExperimentConfig::default();
        assert_eq!(built.describe(), default.describe());
        assert_eq!(built.seed, default.seed);
        assert_eq!(built.cache_mb, default.cache_mb);
    }

    #[test]
    fn builder_rejects_non_prime_p() {
        assert_eq!(
            ExperimentConfig::builder().p(8).build().unwrap_err(),
            ConfigError::NonPrimeP(8)
        );
    }

    #[test]
    fn builder_rejects_zero_workers_and_stripes() {
        assert_eq!(
            ExperimentConfig::builder().workers(0).build().unwrap_err(),
            ConfigError::Zero("workers")
        );
        assert_eq!(
            ExperimentConfig::builder().stripes(0).build().unwrap_err(),
            ConfigError::Zero("stripes")
        );
    }

    #[test]
    fn validate_refuses_more_errors_than_stripes() {
        let full = ExperimentConfig::builder().stripes(4).error_count(4);
        assert!(full.build().is_ok(), "one error on every stripe fits");
        let err = full.error_count(9).build().unwrap_err();
        assert_eq!(
            err,
            ConfigError::TooManyErrors {
                errors: 9,
                stripes: 4
            }
        );
        assert_eq!(err.to_string(), "cannot place 9 errors on 4 stripes");
        // The default count against a zone shrunk below it, and a config
        // mutated after it was built.
        assert!(ExperimentConfig::builder().stripes(128).build().is_err());
        let mut cfg = ExperimentConfig::default();
        cfg.error_count = cfg.stripes as usize + 1;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn builder_rejects_cache_below_one_chunk_or_past_the_address_space() {
        assert_eq!(
            ExperimentConfig::builder().cache_mb(0).build().unwrap_err(),
            ConfigError::CacheTooSmall {
                cache_mb: 0,
                chunk_kb: 32
            }
        );
        assert_eq!(
            ExperimentConfig::builder().chunk_kb(0).build().unwrap_err(),
            ConfigError::Zero("chunk_kb")
        );
        // MiB → KiB would wrap (release) or panic (debug) unchecked.
        let cache_mb = usize::MAX / 1024 + 1;
        assert_eq!(
            ExperimentConfig::builder()
                .cache_mb(cache_mb)
                .build()
                .unwrap_err(),
            ConfigError::CacheTooLarge { cache_mb }
        );
    }

    #[test]
    fn builder_sets_every_field_it_names() {
        let cfg = ExperimentConfig::builder()
            .code(CodeSpec::Star)
            .p(11)
            .policy(PolicyKind::Arc)
            .scheme(SchemeKind::Typical)
            .cache_mb(128)
            .chunk_kb(64)
            .stripes(1024)
            .error_count(100)
            .workers(16)
            .seed(7)
            .gen_threads(2)
            .obs(true)
            .build()
            .unwrap();
        assert_eq!(cfg.code, CodeSpec::Star);
        assert_eq!(cfg.p, 11);
        assert_eq!(cfg.policy, PolicyKind::Arc);
        assert_eq!(cfg.scheme, SchemeKind::Typical);
        assert_eq!(cfg.cache_mb, 128);
        assert_eq!(cfg.chunk_kb, 64);
        assert_eq!(cfg.stripes, 1024);
        assert_eq!(cfg.error_count, 100);
        assert_eq!(cfg.workers, 16);
        assert_eq!(cfg.seed, 7);
        assert_eq!(cfg.gen_threads, 2);
        assert!(cfg.obs);
    }

    #[test]
    fn validate_accepts_paper_defaults() {
        assert!(ExperimentConfig::default().validate().is_ok());
    }

    #[test]
    fn default_faults_are_inactive() {
        let cfg = ExperimentConfig::default();
        assert!(!cfg.faults.is_active());
        let faulted = ExperimentConfig::builder()
            .faults(FaultPlan {
                media_per_mille: 5,
                ..FaultPlan::none()
            })
            .build()
            .unwrap();
        assert!(faulted.faults.is_active());
    }

    #[test]
    fn cache_chunks_conversion() {
        let cfg = ExperimentConfig {
            cache_mb: 256,
            chunk_kb: 32,
            ..Default::default()
        };
        assert_eq!(cfg.cache_chunks(), 8192);
        assert_eq!(cfg.chunk_bytes(), 32 * 1024);
    }

    #[test]
    fn default_matches_paper_constants() {
        let cfg = ExperimentConfig::default();
        assert_eq!(cfg.chunk_kb, 32);
        assert_eq!(cfg.workers, 128);
        assert_eq!(cfg.cache_hit_time, SimTime::from_micros(500));
        match cfg.disk_model {
            DiskModel::Fixed { access } => assert_eq!(access, SimTime::from_millis(10)),
            _ => panic!("default disk model should be the paper's fixed latency"),
        }
    }

    #[test]
    fn describe_mentions_key_fields() {
        let d = ExperimentConfig::default().describe();
        assert!(d.contains("TIP"));
        assert!(d.contains("FBF"));
        assert!(d.contains("64MB"));
    }
}
