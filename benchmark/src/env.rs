//! Where a result was measured: the environment stamp carried by every
//! `results.json`, and the `/proc` readers behind the memory metrics.

use std::process::Command;

/// A `Vm*` line of `/proc/<pid>/status`, KiB.
pub fn proc_status_kb(pid: u32, key: &str) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix(key)?.strip_prefix(':'))
        .and_then(|rest| rest.split_whitespace().next()?.parse().ok())
}

/// Peak resident set of process `pid`, KiB (`VmHWM`).
pub fn peak_rss_kb(pid: u32) -> Option<u64> {
    proc_status_kb(pid, "VmHWM")
}

/// The 1-minute load average.
pub fn load_average() -> f64 {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(0.0)
}

/// Hardware threads available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Commit, toolchain and machine a run was measured on, plus the load
/// average when it started. JSON object fields, without the braces.
pub fn stamp_fields(load_start: f64, load_end: f64) -> String {
    let noisy = load_start.max(load_end) > nproc() as f64;
    format!(
        "\"commit\": \"{}\", \"rustc\": \"{}\", \"nproc\": {}, \"cpu\": \"{}\", \
         \"xor_kernel\": \"{}\", \"load_start\": {load_start}, \"load_end\": {load_end}, \
         \"noisy\": {noisy}",
        command_line("git", &["rev-parse", "HEAD"]),
        command_line("rustc", &["--version"]),
        nproc(),
        cpu_model().replace('"', "'"),
        fbf::codes::xor::active_kernel().name(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_own_peak_rss() {
        // The kernel batches per-thread RSS updates, so the two are not
        // strictly ordered at any instant; both must simply be there.
        let hwm = peak_rss_kb(std::process::id()).expect("linux /proc");
        let rss = proc_status_kb(std::process::id(), "VmRSS").expect("linux /proc");
        assert!(hwm > 0 && rss > 0);
    }
}
