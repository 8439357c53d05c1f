//! Virtual time.
//!
//! [`SimTime`] is a nanosecond tick count. Nanoseconds keep every quantity
//! the paper uses (0.5 ms cache hits, 10 ms disk accesses, sub-ms FBF
//! overhead) exactly representable in integers, so simulations are
//! deterministic and replay-stable — no floating-point clock drift.

use std::ops::{Add, AddAssign, Sub};

/// A point in (or span of) virtual time, in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

impl SimTime {
    /// Time zero.
    pub const ZERO: SimTime = SimTime(0);

    /// From whole nanoseconds.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// From whole microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us * 1_000)
    }

    /// From whole milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000_000)
    }

    /// From whole seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000_000)
    }

    /// Raw nanosecond count.
    #[inline]
    pub const fn as_nanos(&self) -> u64 {
        self.0
    }

    /// As fractional milliseconds.
    #[inline]
    pub fn as_millis_f64(&self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// As fractional seconds.
    #[inline]
    pub fn as_secs_f64(&self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Saturating subtraction (spans never go negative).
    #[inline]
    pub fn saturating_sub(&self, other: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(other.0))
    }

    /// The later of two instants.
    #[inline]
    pub fn max(self, other: SimTime) -> SimTime {
        SimTime(self.0.max(other.0))
    }
}

impl Add for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimTime) {
        self.0 += rhs.0;
    }
}

impl Sub for SimTime {
    type Output = SimTime;
    #[inline]
    fn sub(self, rhs: SimTime) -> SimTime {
        debug_assert!(self.0 >= rhs.0, "SimTime underflow");
        SimTime(self.0 - rhs.0)
    }
}

impl std::iter::Sum for SimTime {
    fn sum<I: Iterator<Item = SimTime>>(iter: I) -> SimTime {
        iter.fold(SimTime::ZERO, |a, b| a + b)
    }
}

impl std::fmt::Display for SimTime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.as_millis_f64())
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}us", self.0 as f64 / 1e3)
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_roundtrip() {
        assert_eq!(SimTime::from_millis(10).as_nanos(), 10_000_000);
        assert_eq!(SimTime::from_micros(500).as_nanos(), 500_000);
        assert_eq!(SimTime::from_secs(2).as_millis_f64(), 2000.0);
    }

    #[test]
    fn arithmetic() {
        let a = SimTime::from_millis(3);
        let b = SimTime::from_millis(1);
        assert_eq!(a + b, SimTime::from_millis(4));
        assert_eq!(a - b, SimTime::from_millis(2));
        assert_eq!(b.saturating_sub(a), SimTime::ZERO);
        assert_eq!(a.max(b), a);
    }

    #[test]
    fn sum_of_spans() {
        let total: SimTime = (1..=4).map(SimTime::from_millis).sum();
        assert_eq!(total, SimTime::from_millis(10));
    }

    #[test]
    fn display_scales() {
        assert_eq!(SimTime::from_nanos(12).to_string(), "12ns");
        assert_eq!(SimTime::from_micros(3).to_string(), "3.000us");
        assert_eq!(SimTime::from_millis(7).to_string(), "7.000ms");
        assert_eq!(SimTime::from_secs(2).to_string(), "2.000s");
    }
}
