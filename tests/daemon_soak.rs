//! A long-lived daemon's flight recorder stays bounded. Rebuild jobs run
//! their waves on short-lived helper threads; each helper's ring is
//! retired when the thread exits, so hundreds of rebuilds leave the ring
//! count where the first one left it.
//!
//! Its own test binary: the recorder is process-global, and a daemon
//! test running beside this one would register rings of its own.

use fbf::{DaemonClient, DaemonOptions, Json, ServerAddr};
use std::time::Duration;

const JOBS: usize = 200;

#[test]
fn rebuild_jobs_leave_no_flight_recorder_rings_behind() {
    let name = format!("fbf-test-soak-{}.sock", std::process::id());
    let addr = ServerAddr::Unix(std::env::temp_dir().join(name));
    let opts = DaemonOptions {
        workers: 1,
        ..Default::default()
    };
    let handle = fbf::serve(&addr, opts).expect("serve");
    let mut client = DaemonClient::connect(&addr).expect("connect");
    let recorder = fbf::obs::ring::recorder().expect("the daemon installs a flight recorder");

    let rebuild = |client: &mut DaemonClient| {
        let config = Json::obj([
            ("stripes", Json::Num(64.0)),
            ("workers", Json::Num(4.0)),
            ("gen_threads", Json::Num(1.0)),
        ]);
        let (job, _) = client
            .submit([
                ("cmd", "rebuild".into()),
                ("config", config),
                ("disks", 16u64.into()),
                ("cap", 4u64.into()),
                ("app_reads", 8u64.into()),
            ])
            .expect("rebuild queued");
        job
    };
    let waves = |status: &Json| {
        let rebuild = status.get("rebuild").expect("a rebuild outcome");
        rebuild.get("waves").and_then(Json::as_u64).expect("waves")
    };

    // The first job registers every ring a job's own threads keep.
    let first = rebuild(&mut client);
    let status = client
        .wait(first, Duration::from_millis(1), |_| {})
        .expect("done");
    assert!(
        waves(&status) >= 2,
        "helpers only run on a multi-wave rebuild"
    );
    let settled = recorder.rings();

    let jobs: Vec<u64> = (0..JOBS).map(|_| rebuild(&mut client)).collect();
    for job in jobs {
        client
            .wait(job, Duration::from_millis(1), |_| {})
            .expect("done");
    }
    assert_eq!(recorder.rings(), settled, "after {JOBS} more rebuilds");
    assert!(!recorder.is_empty(), "the retired ring keeps the history");

    client
        .request(&Json::obj([("cmd", "shutdown".into())]))
        .expect("shutdown ack");
    handle.wait();
}
