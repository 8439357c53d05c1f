//! A `sim` repair holds no stripes: `SimBackend` derives every chunk it
//! serves, so the daemon's memory during and after the job is the cache,
//! the engine's state and the spare copies the repair wrote, and stays
//! bounded while `--retain` keeps the job's backend.
//!
//! The job is `fbf client repair --backend sim --stripes 4096 --errors 512
//! --workers 16 --chunk-kb 32 --cache-mb 64 --wait` against an in-process
//! `serve`; the peak resident memory it adds (`VmHWM` after the job less
//! `VmRSS` before it) must stay under 66 MiB, ≈ 10 % over the ≈ 60 MiB it
//! measures on x86-64 Linux. The payload slab holds a chunk only while a
//! later read of the pass needs it; one that held every cached chunk (the
//! 64 MiB cache's 2 048 slots) peaked near 123 MiB here, a backend that
//! also held the stripes under repair (≈ 1.5 MiB each at TIP p = 7 /
//! 32 KiB) near 142 MiB, and one that kept every stripe it read near
//! 900 MiB. Ignored in
//! debug builds, whose allocation pattern is not the release daemon's; CI
//! runs it with `--release`. Its own test binary: resident memory is the
//! whole process's.

use fbf::{DaemonClient, DaemonOptions, Json, ServerAddr};
use std::time::Duration;

/// The ceiling on peak resident growth, in KiB.
const CEILING_KIB: u64 = 66 << 10;

fn status_kb(field: &str) -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    status
        .lines()
        .find_map(|line| line.strip_prefix(field))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or_else(|| panic!("a {field} line"))
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "measures the release daemon's memory: run with --release"
)]
fn a_sim_repair_peaks_under_66_mib() {
    let name = format!("fbf-test-sim-footprint-{}.sock", std::process::id());
    let addr = ServerAddr::Unix(std::env::temp_dir().join(name));
    let handle = fbf::serve(&addr, DaemonOptions::default()).expect("serve");
    let mut client = DaemonClient::connect(&addr).expect("connect");

    let before = status_kb("VmRSS:");
    let config = Json::obj([
        ("stripes", Json::Num(4096.0)),
        ("errors", Json::Num(512.0)),
        ("workers", Json::Num(16.0)),
        ("chunk_kb", Json::Num(32.0)),
        ("cache_mb", Json::Num(64.0)),
    ]);
    let (id, _) = client
        .submit([
            ("cmd", "repair".into()),
            ("backend", "sim".into()),
            ("config", config),
        ])
        .expect("repair queued");
    let reply = client
        .wait(id, Duration::from_millis(5), |_| {})
        .expect("done");
    let peak = status_kb("VmHWM:");
    let after = status_kb("VmRSS:");
    let growth = peak.saturating_sub(before);
    println!(
        "VmRSS {before} kB before, {after} kB after; VmHWM {peak} kB: peak growth {growth} kB"
    );
    assert_eq!(
        reply.get("state").and_then(Json::as_str),
        Some("done"),
        "{reply:?}"
    );
    assert!(
        growth <= CEILING_KIB,
        "peak growth {growth} kB > {CEILING_KIB} kB"
    );

    client
        .request(&Json::obj([("cmd", "shutdown".into())]))
        .expect("shutdown ack");
    handle.wait();
}
