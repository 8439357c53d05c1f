//! The `fbf` command line, end to end: every invocation of
//! `tests/cli/script.txt` — each subcommand in text and `--json` mode,
//! every usage-error branch, and a whole `serve` / `client` round trip on
//! a scratch socket — must reproduce `tests/cli/transcript.txt`: stdout,
//! stderr and exit code, `host_` values masked.
//!
//! When a change to the CLI is intended, the failing run leaves the new
//! transcript next to the test's scratch files; review the diff and copy
//! it over the committed one.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

const FBF: &str = env!("CARGO_BIN_EXE_fbf");
const SCRIPT: &str = include_str!("cli/script.txt");
const TRANSCRIPT: &str = include_str!("cli/transcript.txt");

/// The daemon under test; killed if the test unwinds before `shutdown`.
struct Daemon(Child);

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Replace what is host time with `*`. One rule (`fbf_obs::host`) says
/// where it is: the number after a `host_` key — `"host_x":1.5` in JSON,
/// `host_x=1.5` in text.
fn mask(line: &str) -> String {
    let mut out = String::with_capacity(line.len());
    let mut rest = line;
    while let Some(at) = rest.find("host_") {
        let key = &rest[at..];
        let key_len = key
            .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
            .unwrap_or(key.len());
        let after = &key[key_len..];
        let value = after.strip_prefix('"').unwrap_or(after);
        let value = value.strip_prefix([':', '=']).map(str::trim_start);
        let number = value.map_or(0, |v| {
            v.find(|c: char| !(c.is_ascii_digit() || ".eE+-".contains(c)))
                .unwrap_or(v.len())
        });
        match value {
            Some(v) if number > 0 => {
                out.push_str(&rest[..rest.len() - v.len()]);
                out.push('*');
                rest = &v[number..];
            }
            _ => {
                out.push_str(&rest[..at + key_len]);
                rest = &rest[at + key_len..];
            }
        }
    }
    out + rest
}

/// Run every script line and render the transcript.
fn transcript(tmp: &Path) -> String {
    let tmp_text = tmp.to_str().expect("utf-8 temp dir");
    let mut out = String::new();
    for line in SCRIPT.lines().map(str::trim) {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let shown = line.trim_start_matches("code: ");
        let code_only = shown.len() != line.len();
        let (command, capture) = match shown.split_once(" > ") {
            Some((command, file)) => (command, Some(file.replace("$TMP", tmp_text))),
            None => (shown, None),
        };
        let args = command
            .replace("$SOCK", "$TMP/fbfd.sock")
            .replace("$TMP", tmp_text);
        let run = Command::new(FBF)
            .args(args.split_whitespace())
            .output()
            .expect("run fbf");
        let exit = run.status.code().unwrap_or(-1);
        writeln!(out, "$ fbf {shown}\nexit {exit}").unwrap();
        if code_only {
            continue;
        }
        if let Some(file) = &capture {
            std::fs::write(file, &run.stdout).expect("capture stdout");
        }
        let streams = [
            ("|", &run.stdout, capture.is_none()),
            ("!", &run.stderr, true),
        ];
        for (mark, bytes, shown) in streams {
            let text = String::from_utf8_lossy(bytes).replace(tmp_text, "$TMP");
            for line in text.lines().filter(|_| shown) {
                writeln!(out, "{mark} {}", mask(line)).unwrap();
            }
        }
    }
    out
}

#[test]
fn every_invocation_reproduces_the_committed_transcript() {
    let tmp: PathBuf = std::env::temp_dir().join(format!("fbf-cli-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&tmp);
    std::fs::create_dir_all(&tmp).expect("scratch dir");
    let sock = tmp.join("fbfd.sock");

    // The one launcher, with both flags it took over from `fbfd`.
    let serve = ["serve", "--daemon-workers", "1", "--retain", "2"];
    let mut daemon = Daemon(
        Command::new(FBF)
            .args(serve)
            .args(["--ring-cap", "64", "--socket"])
            .arg(&sock)
            .stdout(Stdio::piped())
            .spawn()
            .expect("launch fbf serve"),
    );
    let deadline = Instant::now() + Duration::from_secs(30);
    while !sock.exists() {
        assert!(Instant::now() < deadline, "fbf serve never bound {sock:?}");
        std::thread::sleep(Duration::from_millis(20));
    }

    let actual = transcript(&tmp);

    // `client shutdown` was the script's last line: the daemon exits 0,
    // having announced itself, and takes its socket file with it.
    let status = daemon.0.wait().expect("daemon exit status");
    assert!(status.success(), "fbf serve exited {status}");
    assert!(!sock.exists(), "socket file must be cleaned up");
    let mut banner = String::new();
    let mut stdout = daemon.0.stdout.take().expect("piped stdout");
    std::io::Read::read_to_string(&mut stdout, &mut banner).expect("daemon stdout");
    assert!(
        banner.starts_with("fbfd listening on unix:") && banner.contains("(1 workers)"),
        "{banner}"
    );

    if actual != TRANSCRIPT {
        let kept = Path::new(env!("CARGO_TARGET_TMPDIR")).join("cli-transcript.actual");
        std::fs::write(&kept, &actual).expect("keep the actual transcript");
        let (want, got) = TRANSCRIPT
            .lines()
            .zip(actual.lines())
            .find(|(want, got)| want != got)
            .unwrap_or(("<one transcript is a prefix of the other>", ""));
        panic!(
            "transcript differs from tests/cli/transcript.txt; first at\n  want: {want}\n   got: {got}\n\
             full output kept in {}",
            kept.display()
        );
    }
    let _ = std::fs::remove_dir_all(&tmp);
}

#[test]
fn mask_hides_host_time_and_nothing_else() {
    assert_eq!(
        mask(r#"{"errors":16,"host_wall_ms":12.5e1,"host_uptime_s":0.25,"p50_ms":3.5}"#),
        r#"{"errors":16,"host_wall_ms":*,"host_uptime_s":*,"p50_ms":3.5}"#
    );
    assert_eq!(
        mask("  FBF overhead       : host_overhead_ms_per_stripe=0.0123 host_overhead_pct=0.456"),
        "  FBF overhead       : host_overhead_ms_per_stripe=* host_overhead_pct=*"
    );
    assert_eq!(
        mask("fbfd host_uptime_s=1.3 · workers 1 (busy 0)"),
        "fbfd host_uptime_s=* · workers 1 (busy 0)"
    );
    assert_eq!(
        mask("  disk reads         : 458"),
        "  disk reads         : 458"
    );
    assert_eq!(
        mask("a host_ word, host_x: none, wall_ms=3"),
        "a host_ word, host_x: none, wall_ms=3"
    );
}
