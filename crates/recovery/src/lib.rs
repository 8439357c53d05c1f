//! # fbf-recovery — partial-stripe recovery for 3DFT arrays
//!
//! Everything between "a partial stripe error was detected" and "worker
//! scripts ready for the simulator":
//!
//! * [`error`] — the failure model: runs of 1..p-1 bad chunks on one disk
//!   of a stripe ([`PartialStripeError`]), grouped into campaigns;
//! * [`scheme`] — recovery-scheme generation. The *typical* scheme repairs
//!   every lost chunk through its horizontal chain (§II, Fig. 2(a)); the
//!   *FBF* scheme cycles the three chain directions to maximise shared
//!   chunks (§III-A-1, Fig. 2(b)/Fig. 3); a *greedy* overlap-maximising
//!   variant is included for ablation;
//! * [`controller`] — the format-memoising planner; its [`StripePlan`]
//!   (chained, or a joint decode when no chain ordering exists) is one
//!   stripe's repair, priorities and byte-level restore in one value;
//! * [`priority`] — Table II: each chunk's priority is the number of
//!   chosen chains that reference it, consumed by the FBF cache policy at
//!   insert time; a scheme carries its own table, the
//!   [`PriorityDictionary`] is the campaign-wide view of them;
//! * [`exec`] — turns plans into [`fbf_disksim::WorkerScript`]s (reads,
//!   XOR compute, spare writes) and can also *apply* a scheme to real
//!   stripe payloads so tests verify recovered bytes;
//! * [`parallel`] — SOR-style partitioning of a campaign across workers,
//!   plus multi-threaded campaign planning using std scoped threads;
//! * [`scrub`] — background verification: chain-syndrome computation,
//!   silent-corruption location, and repair (§II-C's motivation);
//! * [`degraded`] — on-the-fly repair of application reads that hit lost
//!   chunks (fan-out gathers through the buffer cache);
//! * [`rebuild`] — whole-disk failure as full-column errors (with the
//!   hybrid-chain read-ratio analysis of the paper's reference \[22\]) and
//!   the wave scheduler that admits an array-wide rebuild.

pub mod controller;
pub mod degraded;
pub mod error;
pub mod escalate;
pub mod exec;
pub mod joint;
pub mod parallel;
pub mod priority;
pub mod rebuild;
pub mod scheme;
pub mod scrub;

pub use controller::{RecoveryController, StripePlan};
pub use degraded::degrade_script;
pub use error::{ErrorGroup, PartialStripeError, StripeDamage};
pub use escalate::{Absorbed, DataLoss, Escalator};
pub use exec::{
    apply_scheme, build_scripts, build_scripts_borrowed, build_scripts_from_plans, ExecConfig,
};
pub use joint::JointRepair;
pub use parallel::{generate_schemes_parallel, plan_campaign_parallel};
pub use priority::PriorityDictionary;
pub use rebuild::{rebuild_campaign, rebuild_read_ratio, Fairness, RebuildItem, RebuildScheduler};
pub use scheme::{ChunkRepair, FormatPlan, RecoveryScheme, SchemeError, SchemeKind};
pub use scrub::{scrub, ScrubOutcome};
