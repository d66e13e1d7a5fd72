//! Simulated time.
//!
//! [`SimTime`] is an integral number of picoseconds. Picosecond resolution
//! lets the interconnect model express byte-level transfer times on 100 GB/s
//! class links (10 ps/byte) without rounding, while `u64` still covers more
//! than 200 days of simulated time — far beyond any experiment in the paper.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A point in simulated time (or a duration), in picoseconds.
///
/// `SimTime` is used for both instants and durations; the arithmetic
/// operators treat it as a plain quantity.
///
/// # Example
///
/// ```
/// use trainbox_sim::SimTime;
///
/// let t = SimTime::from_micros(3) + SimTime::from_nanos(500);
/// assert_eq!(t.as_picos(), 3_500_000);
/// assert!((t.as_secs_f64() - 3.5e-6).abs() < 1e-18);
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimTime(u64);

const PS_PER_NS: u64 = 1_000;
const PS_PER_US: u64 = 1_000_000;
const PS_PER_MS: u64 = 1_000_000_000;
const PS_PER_S: u64 = 1_000_000_000_000;

impl SimTime {
    /// The zero instant / zero duration.
    pub const ZERO: SimTime = SimTime(0);
    /// The maximum representable time.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Construct from picoseconds.
    #[inline]
    pub const fn from_picos(ps: u64) -> Self {
        SimTime(ps)
    }

    /// Construct from nanoseconds.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns * PS_PER_NS)
    }

    /// Construct from microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us * PS_PER_US)
    }

    /// Construct from milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * PS_PER_MS)
    }

    /// Construct from whole seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * PS_PER_S)
    }

    /// Construct from fractional seconds, rounding to the nearest picosecond.
    ///
    /// # Panics
    ///
    /// Panics if `s` is negative, NaN, or too large to represent.
    #[inline]
    pub fn from_secs_f64(s: f64) -> Self {
        assert!(s.is_finite() && s >= 0.0, "invalid duration: {s}");
        let ps = s * PS_PER_S as f64;
        assert!(ps <= u64::MAX as f64, "duration overflows SimTime: {s}s");
        SimTime(ps.round() as u64)
    }

    /// The raw picosecond count.
    #[inline]
    pub const fn as_picos(self) -> u64 {
        self.0
    }

    /// This time as fractional nanoseconds.
    #[inline]
    pub fn as_nanos_f64(self) -> f64 {
        self.0 as f64 / PS_PER_NS as f64
    }

    /// This time as fractional microseconds.
    #[inline]
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / PS_PER_US as f64
    }

    /// This time as fractional milliseconds.
    #[inline]
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / PS_PER_MS as f64
    }

    /// This time as fractional seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / PS_PER_S as f64
    }

    /// Saturating subtraction: returns zero instead of underflowing.
    #[inline]
    pub fn saturating_sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }

    /// Checked addition.
    #[inline]
    pub fn checked_add(self, rhs: SimTime) -> Option<SimTime> {
        self.0.checked_add(rhs.0).map(SimTime)
    }

    /// Saturating addition: clamps to [`SimTime::MAX`] instead of
    /// overflowing.
    #[inline]
    pub fn saturating_add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }

    /// Checked subtraction.
    #[inline]
    pub fn checked_sub(self, rhs: SimTime) -> Option<SimTime> {
        self.0.checked_sub(rhs.0).map(SimTime)
    }

    /// Checked multiplication by a scalar.
    #[inline]
    pub fn checked_mul(self, rhs: u64) -> Option<SimTime> {
        self.0.checked_mul(rhs).map(SimTime)
    }

    /// Saturating multiplication by a scalar: clamps to [`SimTime::MAX`]
    /// instead of overflowing.
    #[inline]
    pub fn saturating_mul(self, rhs: u64) -> SimTime {
        SimTime(self.0.saturating_mul(rhs))
    }

    /// The larger of two times.
    #[inline]
    pub fn max(self, rhs: SimTime) -> SimTime {
        if self >= rhs {
            self
        } else {
            rhs
        }
    }

    /// The smaller of two times.
    #[inline]
    pub fn min(self, rhs: SimTime) -> SimTime {
        if self <= rhs {
            self
        } else {
            rhs
        }
    }
}

impl Add for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.checked_add(rhs.0).expect("SimTime overflow"))
    }
}

impl AddAssign for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimTime) {
        *self = *self + rhs;
    }
}

impl Sub for SimTime {
    type Output = SimTime;
    #[inline]
    fn sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.checked_sub(rhs.0).expect("SimTime underflow"))
    }
}

impl SubAssign for SimTime {
    #[inline]
    fn sub_assign(&mut self, rhs: SimTime) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for SimTime {
    type Output = SimTime;
    #[inline]
    fn mul(self, rhs: u64) -> SimTime {
        SimTime(self.0.checked_mul(rhs).expect("SimTime overflow"))
    }
}

impl Div<u64> for SimTime {
    type Output = SimTime;
    #[inline]
    fn div(self, rhs: u64) -> SimTime {
        SimTime(self.0 / rhs)
    }
}

impl Sum for SimTime {
    #[inline]
    fn sum<I: Iterator<Item = SimTime>>(iter: I) -> SimTime {
        iter.fold(SimTime::ZERO, Add::add)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ps = self.0;
        if ps == 0 {
            write!(f, "0s")
        } else if ps.is_multiple_of(PS_PER_S) {
            write!(f, "{}s", ps / PS_PER_S)
        } else if ps >= PS_PER_S {
            write!(f, "{:.6}s", self.as_secs_f64())
        } else if ps >= PS_PER_MS {
            write!(f, "{:.3}ms", self.as_millis_f64())
        } else if ps >= PS_PER_US {
            write!(f, "{:.3}us", self.as_micros_f64())
        } else if ps >= PS_PER_NS {
            write!(f, "{:.3}ns", self.as_nanos_f64())
        } else {
            write!(f, "{ps}ps")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn unit_constructors_agree() {
        assert_eq!(SimTime::from_nanos(1), SimTime::from_picos(1_000));
        assert_eq!(SimTime::from_micros(1), SimTime::from_nanos(1_000));
        assert_eq!(SimTime::from_millis(1), SimTime::from_micros(1_000));
        assert_eq!(SimTime::from_secs(1), SimTime::from_millis(1_000));
    }

    #[test]
    fn from_secs_f64_round_trips() {
        let t = SimTime::from_secs_f64(1.5e-6);
        assert_eq!(t, SimTime::from_nanos(1500));
        assert_eq!(SimTime::from_secs_f64(0.0), SimTime::ZERO);
    }

    #[test]
    #[should_panic(expected = "invalid duration")]
    fn from_secs_f64_rejects_negative() {
        SimTime::from_secs_f64(-1.0);
    }

    #[test]
    #[should_panic(expected = "invalid duration")]
    fn from_secs_f64_rejects_nan() {
        SimTime::from_secs_f64(f64::NAN);
    }

    #[test]
    fn arithmetic() {
        let a = SimTime::from_nanos(10);
        let b = SimTime::from_nanos(3);
        assert_eq!(a + b, SimTime::from_nanos(13));
        assert_eq!(a - b, SimTime::from_nanos(7));
        assert_eq!(a * 4, SimTime::from_nanos(40));
        assert_eq!(a / 2, SimTime::from_nanos(5));
        assert_eq!(b.saturating_sub(a), SimTime::ZERO);
        assert_eq!(a.max(b), a);
        assert_eq!(a.min(b), b);
    }

    #[test]
    fn checked_and_saturating_variants() {
        let a = SimTime::from_nanos(10);
        let b = SimTime::from_nanos(3);
        assert_eq!(a.checked_add(b), Some(SimTime::from_nanos(13)));
        assert_eq!(SimTime::MAX.checked_add(SimTime::from_picos(1)), None);
        assert_eq!(SimTime::MAX.saturating_add(a), SimTime::MAX);
        assert_eq!(a.checked_sub(b), Some(SimTime::from_nanos(7)));
        assert_eq!(b.checked_sub(a), None);
        assert_eq!(a.checked_mul(4), Some(SimTime::from_nanos(40)));
        assert_eq!(SimTime::MAX.checked_mul(2), None);
        assert_eq!(SimTime::MAX.saturating_mul(2), SimTime::MAX);
        assert_eq!(a.saturating_mul(0), SimTime::ZERO);
    }

    #[test]
    #[should_panic(expected = "SimTime underflow")]
    fn sub_underflow_panics() {
        let _ = SimTime::from_nanos(1) - SimTime::from_nanos(2);
    }

    #[test]
    fn sum_of_times() {
        let total: SimTime = (1..=4).map(SimTime::from_nanos).sum();
        assert_eq!(total, SimTime::from_nanos(10));
    }

    #[test]
    fn display_picks_sensible_units() {
        assert_eq!(SimTime::ZERO.to_string(), "0s");
        assert_eq!(SimTime::from_secs(2).to_string(), "2s");
        assert_eq!(SimTime::from_picos(5).to_string(), "5ps");
        assert_eq!(SimTime::from_nanos(1500).to_string(), "1.500us");
        assert!(SimTime::from_millis(2500).to_string().ends_with('s'));
    }

    proptest! {
        #[test]
        fn add_then_sub_is_identity(a in 0u64..u64::MAX / 4, b in 0u64..u64::MAX / 4) {
            let (a, b) = (SimTime::from_picos(a), SimTime::from_picos(b));
            prop_assert_eq!((a + b) - b, a);
        }

        #[test]
        fn ordering_is_consistent_with_picos(a: u64, b: u64) {
            prop_assert_eq!(
                SimTime::from_picos(a).cmp(&SimTime::from_picos(b)),
                a.cmp(&b)
            );
        }

        #[test]
        fn secs_round_trip_within_a_picosecond(s in 0.0f64..1.0e6) {
            let t = SimTime::from_secs_f64(s);
            prop_assert!((t.as_secs_f64() - s).abs() <= 1e-12 * (1.0 + s));
        }
    }
}
