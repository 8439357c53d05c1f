//! Host time — what the machine running the program took — kept apart
//! from the simulation's virtual time, which a seed fixes. One rule says
//! where it may appear (DESIGN.md §11, "Host time"): a host-time value is
//! printed only under a JSON key, CSV column, text token or obs arg that
//! begins with `host_`, and nothing else begins with `host_`. Masking the
//! `host_` values makes any two outputs of one seed byte-comparable.

use std::time::{Duration, Instant};

/// A span of host wall-clock time.
///
/// Two host times always compare equal: host time is never part of a
/// value's identity, so `==` on a struct that holds one (`Metrics`)
/// compares exactly what the simulation determined.
#[derive(Debug, Clone, Copy, Default)]
pub struct HostTime(Duration);

impl HostTime {
    /// No time at all.
    pub const ZERO: HostTime = HostTime(Duration::ZERO);

    /// The host time elapsed since `start`.
    pub fn since(start: Instant) -> Self {
        HostTime(start.elapsed())
    }

    /// `ns` nanoseconds.
    pub fn from_nanos(ns: u64) -> Self {
        HostTime(Duration::from_nanos(ns))
    }

    /// Whole nanoseconds (saturating), for summing into an atomic.
    pub fn as_nanos(self) -> u64 {
        u64::try_from(self.0.as_nanos()).unwrap_or(u64::MAX)
    }

    /// Milliseconds.
    pub fn ms(self) -> f64 {
        self.0.as_secs_f64() * 1e3
    }

    /// Seconds.
    pub fn secs(self) -> f64 {
        self.0.as_secs_f64()
    }
}

impl PartialEq for HostTime {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn units_agree_and_equality_ignores_the_value() {
        let t = HostTime::from_nanos(2_500_000);
        assert_eq!(t.as_nanos(), 2_500_000);
        assert!((t.ms() - 2.5).abs() < 1e-12);
        assert!((t.secs() - 0.0025).abs() < 1e-15);
        assert_eq!(t, HostTime::ZERO, "host time is not part of identity");
    }
}
