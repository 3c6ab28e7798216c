//! Virtual time for the deterministic fabric simulator.
//!
//! Simulated time is a non-negative number of seconds held in an `f64`.
//! A newtype keeps seconds from being confused with the many other `f64`
//! quantities in the simulator (bytes, bandwidths, ratios) and centralises
//! the handful of arithmetic operations the engine needs.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

/// A point in (or span of) virtual time, in seconds.
///
/// `Time` is totally ordered; the simulator never produces NaN (all inputs
/// are validated to be finite and non-negative), so `max`/`min` on it are
/// well-defined.
#[derive(Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Time(f64);

impl Time {
    /// The origin of virtual time.
    pub const ZERO: Time = Time(0.0);

    /// Creates a time from seconds. Panics on negative or non-finite input:
    /// a negative timestamp is always a simulator bug, and catching it at
    /// construction keeps every downstream `max` well-defined.
    #[inline]
    pub fn from_secs(s: f64) -> Time {
        assert!(s.is_finite() && s >= 0.0, "invalid time: {s}");
        Time(s)
    }

    /// Wraps seconds the caller has already proven finite and
    /// non-negative, without checking them again: a reservation derives
    /// its start and end from a valid ready time and a service time of
    /// at least zero, and checks the end once (`Resource::reserve`).
    #[inline]
    pub(crate) const fn from_valid_secs(s: f64) -> Time {
        Time(s)
    }

    /// Creates a time from microseconds.
    #[inline]
    pub fn from_us(us: f64) -> Time {
        Time::from_secs(us * 1e-6)
    }

    /// Seconds since the virtual origin.
    #[inline]
    pub fn as_secs(self) -> f64 {
        self.0
    }

    /// Microseconds since the virtual origin.
    #[inline]
    pub fn as_us(self) -> f64 {
        self.0 * 1e6
    }

    /// The later of two times.
    #[inline]
    pub fn max(self, other: Time) -> Time {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }

    /// The earlier of two times.
    #[inline]
    pub fn min(self, other: Time) -> Time {
        if self.0 <= other.0 {
            self
        } else {
            other
        }
    }
}

impl Eq for Time {}

#[allow(clippy::derive_ord_xor_partial_ord)]
impl Ord for Time {
    #[inline]
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Safe: construction forbids NaN, so the derived PartialOrd is
        // already a total order; this just unwraps it.
        self.partial_cmp(other).expect("Time is never NaN")
    }
}

impl Add for Time {
    type Output = Time;
    #[inline]
    fn add(self, rhs: Time) -> Time {
        Time(self.0 + rhs.0)
    }
}

impl AddAssign for Time {
    #[inline]
    fn add_assign(&mut self, rhs: Time) {
        self.0 += rhs.0;
    }
}

impl Sub for Time {
    type Output = Time;
    /// Difference between two times. Panics (in debug builds) if the result
    /// would be negative, which indicates a causality violation.
    #[inline]
    fn sub(self, rhs: Time) -> Time {
        debug_assert!(
            self.0 >= rhs.0,
            "negative time span: {} - {}",
            self.0,
            rhs.0
        );
        Time((self.0 - rhs.0).max(0.0))
    }
}

impl Mul<f64> for Time {
    type Output = Time;
    #[inline]
    fn mul(self, rhs: f64) -> Time {
        Time::from_secs(self.0 * rhs)
    }
}

impl Div<f64> for Time {
    type Output = Time;
    #[inline]
    fn div(self, rhs: f64) -> Time {
        Time::from_secs(self.0 / rhs)
    }
}

impl Sum for Time {
    fn sum<I: Iterator<Item = Time>>(iter: I) -> Time {
        iter.fold(Time::ZERO, |a, b| a + b)
    }
}

impl fmt::Debug for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}us", self.as_us())
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1.0 {
            write!(f, "{:.6}s", self.0)
        } else if self.0 >= 1e-3 {
            write!(f, "{:.3}ms", self.0 * 1e3)
        } else {
            write!(f, "{:.3}us", self.as_us())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_units() {
        let t = Time::from_us(2.5);
        assert!((t.as_secs() - 2.5e-6).abs() < 1e-18);
        assert!((t.as_us() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn ordering_and_max() {
        let a = Time::from_us(1.0);
        let b = Time::from_us(2.0);
        assert!(a < b);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
        assert_eq!(b.max(b), b);
    }

    #[test]
    fn arithmetic() {
        let a = Time::from_us(3.0);
        let b = Time::from_us(1.0);
        let close = |x: Time, y: Time| (x.as_us() - y.as_us()).abs() < 1e-9;
        assert!(close(a + b, Time::from_us(4.0)));
        assert!(close(a - b, Time::from_us(2.0)));
        assert!(close(a * 2.0, Time::from_us(6.0)));
        assert!(close(a / 3.0, Time::from_us(1.0)));
        let mut c = a;
        c += b;
        assert!(close(c, Time::from_us(4.0)));
    }

    #[test]
    fn sum_iterator() {
        let total: Time = (1..=4).map(|i| Time::from_us(i as f64)).sum();
        assert_eq!(total, Time::from_us(10.0));
    }

    #[test]
    #[should_panic(expected = "invalid time")]
    fn negative_time_rejected() {
        let _ = Time::from_secs(-1.0);
    }

    #[test]
    fn display_scales() {
        assert_eq!(format!("{}", Time::from_secs(2.0)), "2.000000s");
        assert_eq!(format!("{}", Time::from_secs(2e-3)), "2.000ms");
        assert_eq!(format!("{}", Time::from_us(2.0)), "2.000us");
    }
}
