//! Simulated-time primitives.
//!
//! The device lives on a *simulated* clock, distinct from the host's wall
//! clock: device operations (kernels, copies, sorts) are assigned modeled
//! durations, and the [`crate::timeline`] composes them into start/end
//! times. Host work measured with `std::time::Instant` is converted into
//! [`SimDuration`] when it participates in the same schedule.

use serde::{Deserialize, Serialize};
use std::iter::Sum;
use std::ops::{Add, AddAssign, Sub};

/// A span of simulated time. Internally stored as seconds (f64).
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize)]
pub struct SimDuration(f64);

impl SimDuration {
    pub const ZERO: SimDuration = SimDuration(0.0);

    pub fn from_secs(s: f64) -> Self {
        debug_assert!(
            s >= 0.0 && s.is_finite(),
            "durations must be finite and non-negative"
        );
        SimDuration(s)
    }

    pub fn from_millis(ms: f64) -> Self {
        Self::from_secs(ms * 1e-3)
    }

    pub fn from_micros(us: f64) -> Self {
        Self::from_secs(us * 1e-6)
    }

    pub fn as_secs(&self) -> f64 {
        self.0
    }

    pub fn as_millis(&self) -> f64 {
        self.0 * 1e3
    }

    pub fn as_micros(&self) -> f64 {
        self.0 * 1e6
    }

    pub fn max(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.max(other.0))
    }
}

impl From<std::time::Duration> for SimDuration {
    fn from(d: std::time::Duration) -> Self {
        SimDuration(d.as_secs_f64())
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> Self {
        iter.fold(SimDuration::ZERO, |a, b| a + b)
    }
}

/// An instant on the simulated clock (seconds since schedule start).
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize)]
pub struct SimTime(f64);

impl SimTime {
    pub const ZERO: SimTime = SimTime(0.0);

    pub fn from_secs(s: f64) -> Self {
        SimTime(s)
    }

    pub fn as_secs(&self) -> f64 {
        self.0
    }

    pub fn max(self, other: SimTime) -> SimTime {
        SimTime(self.0.max(other.0))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.as_secs())
    }
}

impl Sub for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration::from_secs((self.0 - rhs.0).max(0.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_conversions_roundtrip() {
        let d = SimDuration::from_millis(1.5);
        assert!((d.as_secs() - 0.0015).abs() < 1e-12);
        assert!((d.as_micros() - 1500.0).abs() < 1e-9);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::ZERO + SimDuration::from_secs(2.0);
        let u = t + SimDuration::from_secs(3.0);
        assert_eq!((u - t).as_secs(), 3.0);
        assert_eq!(t.max(u), u);
        let s: SimDuration = [1.0, 2.0, 3.0]
            .iter()
            .map(|&x| SimDuration::from_secs(x))
            .sum();
        assert_eq!(s.as_secs(), 6.0);
    }

    #[test]
    fn from_std_duration() {
        let d: SimDuration = std::time::Duration::from_millis(250).into();
        assert!((d.as_millis() - 250.0).abs() < 1e-9);
    }

    #[test]
    fn sub_saturates_at_zero() {
        let a = SimTime::from_secs(1.0);
        let b = SimTime::from_secs(2.0);
        assert_eq!((a - b).as_secs(), 0.0);
    }
}
