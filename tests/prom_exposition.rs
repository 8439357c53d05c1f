//! The Prometheus exposition, pinned byte for byte: fixed, deterministic
//! snapshots rendered through the public facade and compared with the
//! committed files under `tests/prom/`.
//!
//! - `run.prom`: one fault-free engine run — what `fbf run --stripes 256
//!   --errors 64 --workers 16 --metrics <path>` writes;
//! - `faulted.prom`: the same run with `--media 20 --transient 30 --kill
//!   2@30` (re-plans and data loss);
//! - `empty.prom`: a snapshot of no points;
//! - `live.prom`: no finished job plus a daemon's live job-table gauges.
//!
//! Every run is engine-only (virtual time), so the bytes are exact. When
//! a change to the exposition is intended, the failing test leaves the
//! new text in `target/tmp/prom/`; review the diff and copy it over the
//! committed file.

use fbf::disksim::EngineScratch;
use fbf::{Json, Live, Metrics, Outcome, PlanStore, Work};
use std::path::Path;

/// The metrics `fbf run` reports for these experiment flags.
fn run(flags: &[(&'static str, &str)]) -> Metrics {
    let config = Json::obj(flags.iter().map(|&(k, v)| (k, Json::Str(v.to_string()))));
    let request = Json::obj([("cmd", "repair".into()), ("config", config)]);
    let work = Work::from_request(&request).expect("valid request");
    match work.execute(&PlanStore::new(), &mut EngineScratch::new(), None) {
        Ok(Outcome::Repair { metrics, .. }) => metrics,
        other => panic!("expected a repair outcome, got {:?}", other.err()),
    }
}

const CLEAN: [(&str, &str); 3] = [("stripes", "256"), ("errors", "64"), ("workers", "16")];

fn faulted() -> Metrics {
    let mut flags = CLEAN.to_vec();
    flags.extend([("media", "20"), ("transient", "30"), ("kill", "2@30")]);
    run(&flags)
}

/// Compare `actual` with the committed `tests/prom/<name>`; on a mismatch
/// leave the actual text under `target/tmp/prom/` and fail.
fn pinned(name: &str, actual: &str) {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let expected = std::fs::read_to_string(root.join("tests/prom").join(name))
        .unwrap_or_else(|e| panic!("tests/prom/{name}: {e}"));
    if actual != expected {
        let out = root.join("target/tmp/prom");
        let _ = std::fs::create_dir_all(&out);
        let _ = std::fs::write(out.join(name), actual);
        panic!("tests/prom/{name} differs; the actual text is in target/tmp/prom/{name}");
    }
}

#[test]
fn a_fault_free_run_renders_its_fixture() {
    pinned("run.prom", &fbf::prometheus_snapshot([&run(&CLEAN)], None));
}

#[test]
fn a_faulted_run_renders_its_fixture() {
    let m = faulted();
    assert!(
        m.replans > 0 && m.stripes_lost > 0,
        "the fixture must cover both"
    );
    pinned("faulted.prom", &fbf::prometheus_snapshot([&m], None));
}

#[test]
fn the_empty_set_renders_its_fixture() {
    pinned("empty.prom", &fbf::prometheus_snapshot([], None));
}

#[test]
fn a_live_table_renders_its_fixture() {
    // What `fbf serve`'s `metrics` shows with no finished job, 2 queued, 1
    // running (on one busy worker), 5 done and 1 failed, and 3 retained
    // backends.
    let live = Live {
        jobs: [("queued", 2), ("running", 1), ("done", 5), ("failed", 1)],
        running: 1,
        busy: 1,
        retained: 3,
    };
    pinned("live.prom", &fbf::prometheus_snapshot([], Some(&live)));
}
