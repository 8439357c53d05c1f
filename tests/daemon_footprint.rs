//! A long-lived daemon grows by what each finished job reports, and no
//! more: while its flight recorder fills, a stream of small engine jobs
//! raises resident memory by at most 4 KiB per job, and once it is full
//! by at most 8 KiB per job.
//!
//! What the daemon keeps per job is its table entry — the finished
//! `Metrics` — while the recorder packs each event into a few dozen
//! bytes and, bounded by capacity, recycles them. Ignored in debug builds, whose allocation
//! pattern is not the release daemon's; CI runs it with `--release`.
//! Its own test binary: the recorder is process-global, and resident
//! memory is the whole process's.

use fbf::{DaemonClient, DaemonOptions, Json, ServerAddr};
use std::time::Duration;

/// Jobs measured after the recorder has filled.
const JOBS: usize = 1_200;
/// Distinct campaigns, so plans are warm after the first round.
const SEEDS: u64 = 8;
/// The per-job growth ceiling while the recorder fills, in KiB.
const FILL_KIB_PER_JOB: f64 = 4.0;
/// The per-job growth ceiling once the recorder is full, in KiB.
const KIB_PER_JOB: f64 = 8.0;

fn vm_rss_kb() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmRSS:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("a VmRSS line")
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "measures the release daemon's memory: run with --release"
)]
fn resident_memory_grows_at_most_4_kib_per_job_while_filling_and_8_after() {
    let name = format!("fbf-test-footprint-{}.sock", std::process::id());
    let addr = ServerAddr::Unix(std::env::temp_dir().join(name));
    let opts = DaemonOptions {
        workers: 1,
        ..Default::default()
    };
    let handle = fbf::serve(&addr, opts).expect("serve");
    let mut client = DaemonClient::connect(&addr).expect("connect");
    let recorder = fbf::obs::ring::recorder().expect("the daemon installs a flight recorder");

    // The job `daemon_small` submits.
    let mut submitted = 0u64;
    let mut job = |client: &mut DaemonClient| {
        let config = Json::obj([
            ("stripes", Json::Num(512.0)),
            ("errors", Json::Num(64.0)),
            ("workers", Json::Num(16.0)),
            ("cache_mb", Json::Num(16.0)),
            ("seed", Json::Num((1 + submitted % SEEDS) as f64)),
            ("gen_threads", Json::Num(1.0)),
        ]);
        submitted += 1;
        let (id, _) = client
            .submit([
                ("cmd", "repair".into()),
                ("backend", "engine".into()),
                ("config", config),
            ])
            .expect("repair queued");
        client
            .wait(id, Duration::from_micros(100), |_| {})
            .expect("done");
    };

    // Plan every campaign once (its cold plan and the worker's first-use
    // growth are paid once, not per job), then fill the recorder from
    // empty, then run one more round of every campaign.
    for _ in 0..SEEDS {
        job(&mut client);
    }
    recorder.clear();
    let empty = vm_rss_kb();
    let mut filled = 0u64;
    while recorder.dropped() == 0 {
        job(&mut client);
        filled += 1;
    }
    let full = vm_rss_kb();
    let fill_per_job = full.saturating_sub(empty) as f64 / filled as f64;
    println!(
        "VmRSS {empty} -> {full} kB over the {filled} jobs that filled the recorder: \
         {fill_per_job:.2} KiB per job"
    );
    assert!(
        fill_per_job <= FILL_KIB_PER_JOB,
        "{fill_per_job:.2} KiB per job while filling > {FILL_KIB_PER_JOB} KiB"
    );
    for _ in 0..SEEDS {
        job(&mut client);
    }
    let before = vm_rss_kb();
    for _ in 0..JOBS {
        job(&mut client);
    }
    let after = vm_rss_kb();
    let per_job = after.saturating_sub(before) as f64 / JOBS as f64;
    println!(
        "VmRSS {before} -> {after} kB over {JOBS} jobs: {per_job:.2} KiB per job \
         ({submitted} jobs in all, recorder holds {} events)",
        recorder.len()
    );
    assert!(
        per_job <= KIB_PER_JOB,
        "{per_job:.2} KiB per job > {KIB_PER_JOB} KiB"
    );

    client
        .request(&Json::obj([("cmd", "shutdown".into())]))
        .expect("shutdown ack");
    handle.wait();
}
