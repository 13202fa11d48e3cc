//! Simulated time.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in simulated time, in seconds since simulation start.
///
/// `SimTime` is a thin newtype over `f64` that enforces the two invariants
/// the kernel relies on: values are finite and non-negative. It implements
/// `Ord` (total order), which a bare `f64` cannot.
///
/// # Examples
///
/// ```
/// use sae_sim::SimTime;
///
/// let t = SimTime::from_seconds(1.5) + SimTime::from_seconds(0.5);
/// assert_eq!(t.seconds(), 2.0);
/// assert!(t > SimTime::ZERO);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct SimTime(f64);

impl SimTime {
    /// The simulation epoch, `t = 0`.
    pub const ZERO: SimTime = SimTime(0.0);

    /// Creates a `SimTime` from seconds.
    ///
    /// # Panics
    ///
    /// Panics if `seconds` is negative, NaN, or infinite.
    pub fn from_seconds(seconds: f64) -> Self {
        assert!(
            seconds.is_finite() && seconds >= 0.0,
            "SimTime must be finite and non-negative, got {seconds}"
        );
        SimTime(seconds)
    }

    /// Returns the time in seconds.
    pub fn seconds(self) -> f64 {
        self.0
    }
}

impl Eq for SimTime {}

#[allow(clippy::derive_ord_xor_partial_ord)]
impl Ord for SimTime {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Invariant: never NaN, so partial_cmp always succeeds.
        self.0
            .partial_cmp(&other.0)
            .expect("SimTime is never NaN by construction")
    }
}

impl Add for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime::from_seconds(self.0 + rhs.0)
    }
}

impl AddAssign for SimTime {
    fn add_assign(&mut self, rhs: SimTime) {
        *self = *self + rhs;
    }
}

impl Sub for SimTime {
    type Output = SimTime;
    /// # Panics
    ///
    /// Panics if the result would be negative.
    fn sub(self, rhs: SimTime) -> SimTime {
        SimTime::from_seconds(self.0 - rhs.0)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.0)
    }
}

impl From<SimTime> for f64 {
    fn from(t: SimTime) -> f64 {
        t.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_is_default() {
        assert_eq!(SimTime::default(), SimTime::ZERO);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_seconds(2.0) - SimTime::from_seconds(0.5);
        assert_eq!(t.seconds(), 1.5);
    }

    #[test]
    fn ordering_is_total() {
        let mut v = [
            SimTime::from_seconds(3.0),
            SimTime::from_seconds(1.0),
            SimTime::from_seconds(2.0),
        ];
        v.sort();
        assert_eq!(v[0].seconds(), 1.0);
        assert_eq!(v[2].seconds(), 3.0);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_rejected() {
        let _ = SimTime::from_seconds(-1.0);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn nan_rejected() {
        let _ = SimTime::from_seconds(f64::NAN);
    }

    #[test]
    fn display_formats_seconds() {
        assert_eq!(SimTime::from_seconds(1.5).to_string(), "1.500000s");
    }
}
