//! The observability flags every front end takes — `--trace <path>`
//! (chrome://tracing JSONL), `--obs` (events on stderr), `--metrics
//! <path>` (Prometheus snapshot) — parsed and installed in one place, so
//! `fbf` and the figure binaries cannot drift apart.

use crate::{FanoutSubscriber, StderrSubscriber, Subscriber, TraceWriter};
use std::sync::Arc;

/// Remove every `--name <value>` / `--name=<value>` from `args` and return
/// the last value given. A trailing `--name` with nothing after it is an
/// error (the message names the flag).
pub fn take_flag(args: &mut Vec<String>, name: &str) -> Result<Option<String>, String> {
    let long = format!("--{name}");
    let prefixed = format!("--{name}=");
    let mut value = None;
    let mut i = 0;
    while i < args.len() {
        if args[i] == long {
            if i + 1 == args.len() {
                return Err(format!("{long} needs a value"));
            }
            value = args.drain(i..i + 2).nth(1);
        } else if let Some(v) = args[i].strip_prefix(&prefixed) {
            value = Some(v.to_string());
            args.remove(i);
        } else {
            i += 1;
        }
    }
    Ok(value)
}

/// Remove every bare `--name` from `args`; was there one?
pub fn take_switch(args: &mut Vec<String>, name: &str) -> bool {
    let before = args.len();
    args.retain(|a| a.strip_prefix("--") != Some(name));
    args.len() != before
}

/// The parsed observability flags.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ObsFlags {
    /// `--trace`: stream a JSONL run trace to this file.
    pub trace: Option<String>,
    /// `--metrics`: write a Prometheus snapshot of the results here.
    pub metrics: Option<String>,
    /// `--obs`: pretty-print events to stderr.
    pub stderr: bool,
}

impl ObsFlags {
    /// Pull the three flags out of `args`, wherever they appear.
    pub fn take(args: &mut Vec<String>) -> Result<Self, String> {
        let path = |args: &mut Vec<String>, name| {
            take_flag(args, name).map_err(|_| format!("--{name} needs a file path"))
        };
        Ok(ObsFlags {
            trace: path(args, "trace")?,
            metrics: path(args, "metrics")?,
            stderr: take_switch(args, "obs"),
        })
    }

    /// Install the subscriber the flags ask for (file, stderr, or both
    /// fanned out) and report whether there is one. An unopenable trace
    /// file is an error and installs nothing. Pair with
    /// [`uninstall`](crate::uninstall) before exit so the file is flushed.
    pub fn install(&self) -> Result<bool, String> {
        let mut sinks: Vec<Arc<dyn Subscriber>> = Vec::new();
        if let Some(path) = &self.trace {
            let writer = TraceWriter::create(std::path::Path::new(path))
                .map_err(|e| format!("cannot open trace file {path}: {e}"))?;
            eprintln!("(trace streaming to {path})");
            sinks.push(Arc::new(writer));
        }
        if self.stderr {
            sinks.push(Arc::new(StderrSubscriber::default()));
        }
        let sub = match sinks.len() {
            0 => return Ok(false),
            1 => sinks.pop().expect("one sink"),
            _ => Arc::new(FanoutSubscriber::new(sinks)),
        };
        crate::install(sub);
        Ok(true)
    }

    /// Write `render()` — a Prometheus text exposition of the command's
    /// results — to the `--metrics` path, if one was given. Best effort:
    /// an I/O failure is reported on stderr and nothing else changes (the
    /// experiment itself succeeded).
    pub fn write_metrics(&self, render: impl FnOnce() -> String) {
        let Some(path) = &self.metrics else {
            return;
        };
        match std::fs::write(path, render()) {
            Ok(()) => eprintln!("(metrics snapshot written to {path})"),
            Err(e) => eprintln!("cannot write metrics snapshot {path}: {e}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(line: &str) -> Vec<String> {
        line.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn flags_come_out_wherever_they_are_and_the_rest_keeps_its_order() {
        let mut args =
            argv("run --trace=a.jsonl --p 7 --obs --metrics m.prom --trace b.jsonl --trace-in t");
        let flags = ObsFlags::take(&mut args).unwrap();
        assert_eq!(flags.trace.as_deref(), Some("b.jsonl"), "last one wins");
        assert_eq!(flags.metrics.as_deref(), Some("m.prom"));
        assert!(flags.stderr);
        assert_eq!(args, argv("run --p 7 --trace-in t"));
        assert_eq!(ObsFlags::take(&mut args).unwrap(), ObsFlags::default());
        assert_eq!(ObsFlags::default().install(), Ok(false));
    }

    #[test]
    fn a_flag_without_its_value_is_an_error_not_a_default() {
        for name in ["trace", "metrics"] {
            let mut args = argv(&format!("run --{name}"));
            let err = ObsFlags::take(&mut args).unwrap_err();
            assert_eq!(err, format!("--{name} needs a file path"));
        }
        let mut args = argv("--cap");
        assert_eq!(
            take_flag(&mut args, "cap").unwrap_err(),
            "--cap needs a value"
        );
    }
}
