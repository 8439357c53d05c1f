//! A long-lived daemon's flight recorder stays bounded. Rebuild jobs run
//! their waves on short-lived helper threads, and every thread records
//! into the one process-wide log: hundreds of rebuilds leave it no larger
//! than its capacity, holding the newest job's events.
//!
//! Its own test binary: the recorder is process-global, and a daemon
//! test running beside this one would record events of its own.

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
        client
            .submit([
                ("cmd", "rebuild".into()),
                ("config", config),
                ("disks", 16u64.into()),
                ("cap", 4u64.into()),
                ("app_reads", 8u64.into()),
            ])
            .expect("rebuild queued")
    };
    let waves = |status: &Json| {
        let rebuild = status.get("rebuild").expect("a rebuild outcome");
        rebuild.get("waves").and_then(Json::as_u64).expect("waves")
    };

    let (first, _) = rebuild(&mut client);
    let status = client
        .wait(first, Duration::from_millis(1), |_| {})
        .expect("done");
    assert!(
        waves(&status) >= 2,
        "helpers only run on a multi-wave rebuild"
    );

    let jobs: Vec<(u64, Json)> = (0..JOBS).map(|_| rebuild(&mut client)).collect();
    for &(job, _) in &jobs {
        client
            .wait(job, Duration::from_millis(1), |_| {})
            .expect("done");
    }
    assert!(
        recorder.len() <= recorder.capacity(),
        "{} events retained after {JOBS} more rebuilds, capacity {}",
        recorder.len(),
        recorder.capacity()
    );
    assert!(recorder.dropped() > 0, "the runs overflowed the log");
    // The newest history survives: the last job's engine runs, then its
    // end, all under the trace id its submit reply named.
    let (last, reply) = jobs.last().unwrap();
    let trace = reply.get("trace").and_then(Json::as_u64).expect("trace id");
    let ours = format!("\"trace_id\":{trace},");
    let dump = recorder.dump_lines(false);
    let end = dump
        .iter()
        .rposition(|line| line.contains("\"name\":\"job-end\""))
        .expect("a job-end in the dump");
    assert!(dump[end].contains(&ours), "{}", dump[end]);
    assert!(
        dump[end].contains(&format!("\"job\":{last}}}")),
        "{}",
        dump[end]
    );
    let is_run = |line: &&String| line.starts_with("{\"name\":\"run\",\"cat\":\"engine\"");
    assert!(
        dump[..end]
            .iter()
            .filter(is_run)
            .any(|line| line.contains(&ours)),
        "the last job's engine runs precede its end"
    );

    client
        .request(&Json::obj([("cmd", "shutdown".into())]))
        .expect("shutdown ack");
    handle.wait();
}
