//! Typed physical quantities used throughout the workspace.
//!
//! The power-budgeting literature mixes watts, kilowatts and megawatts
//! freely; newtypes keep the interpretation straight at API boundaries
//! ([C-NEWTYPE]). The wrapped value is public in the spirit of a passive,
//! C-style quantity (`Miles(pub f64)` in the API guidelines).
//!
//! # Examples
//!
//! ```
//! use dpc_models::units::Watts;
//!
//! let idle = Watts(120.0);
//! let dynamic = Watts(65.0);
//! assert_eq!(idle + dynamic, Watts(185.0));
//! assert!(Watts::from_kilowatts(0.185) - (idle + dynamic) < Watts(1e-9));
//! ```

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// Electrical power in watts.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Watts(pub f64);

impl Watts {
    /// Zero watts.
    pub const ZERO: Watts = Watts(0.0);

    /// Creates a quantity from kilowatts.
    ///
    /// ```
    /// # use dpc_models::units::Watts;
    /// assert_eq!(Watts::from_kilowatts(1.5), Watts(1500.0));
    /// ```
    pub fn from_kilowatts(kw: f64) -> Self {
        Watts(kw * 1e3)
    }

    /// Creates a quantity from megawatts.
    pub fn from_megawatts(mw: f64) -> Self {
        Watts(mw * 1e6)
    }

    /// The value in kilowatts.
    pub fn kilowatts(self) -> f64 {
        self.0 / 1e3
    }

    /// The value in megawatts.
    pub fn megawatts(self) -> f64 {
        self.0 / 1e6
    }

    /// Clamps the value into `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn clamp(self, lo: Watts, hi: Watts) -> Watts {
        assert!(lo <= hi, "invalid clamp range {lo} > {hi}");
        Watts(self.0.clamp(lo.0, hi.0))
    }

    /// Absolute value.
    pub fn abs(self) -> Watts {
        Watts(self.0.abs())
    }

    /// Smaller of two quantities.
    pub fn min(self, other: Watts) -> Watts {
        Watts(self.0.min(other.0))
    }

    /// Larger of two quantities.
    pub fn max(self, other: Watts) -> Watts {
        Watts(self.0.max(other.0))
    }
}

impl fmt::Display for Watts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(prec) = f.precision() {
            write!(f, "{:.*} W", prec, self.0)
        } else {
            write!(f, "{} W", self.0)
        }
    }
}

impl Add for Watts {
    type Output = Watts;
    fn add(self, rhs: Watts) -> Watts {
        Watts(self.0 + rhs.0)
    }
}

impl AddAssign for Watts {
    fn add_assign(&mut self, rhs: Watts) {
        self.0 += rhs.0;
    }
}

impl Sub for Watts {
    type Output = Watts;
    fn sub(self, rhs: Watts) -> Watts {
        Watts(self.0 - rhs.0)
    }
}

impl SubAssign for Watts {
    fn sub_assign(&mut self, rhs: Watts) {
        self.0 -= rhs.0;
    }
}

impl Neg for Watts {
    type Output = Watts;
    fn neg(self) -> Watts {
        Watts(-self.0)
    }
}

impl Mul<f64> for Watts {
    type Output = Watts;
    fn mul(self, rhs: f64) -> Watts {
        Watts(self.0 * rhs)
    }
}

impl Mul<Watts> for f64 {
    type Output = Watts;
    fn mul(self, rhs: Watts) -> Watts {
        Watts(self * rhs.0)
    }
}

impl Div<f64> for Watts {
    type Output = Watts;
    fn div(self, rhs: f64) -> Watts {
        Watts(self.0 / rhs)
    }
}

/// Ratio of two powers is dimensionless.
impl Div<Watts> for Watts {
    type Output = f64;
    fn div(self, rhs: Watts) -> f64 {
        self.0 / rhs.0
    }
}

impl Sum for Watts {
    fn sum<I: Iterator<Item = Watts>>(iter: I) -> Watts {
        Watts(iter.map(|w| w.0).sum())
    }
}

impl<'a> Sum<&'a Watts> for Watts {
    fn sum<I: Iterator<Item = &'a Watts>>(iter: I) -> Watts {
        Watts(iter.map(|w| w.0).sum())
    }
}

impl From<f64> for Watts {
    fn from(v: f64) -> Self {
        Watts(v)
    }
}

impl From<Watts> for f64 {
    fn from(v: Watts) -> Self {
        v.0
    }
}

/// Temperature in degrees Celsius.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Celsius(pub f64);

impl fmt::Display for Celsius {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(prec) = f.precision() {
            write!(f, "{:.*} °C", prec, self.0)
        } else {
            write!(f, "{} °C", self.0)
        }
    }
}

impl Add for Celsius {
    type Output = Celsius;
    fn add(self, rhs: Celsius) -> Celsius {
        Celsius(self.0 + rhs.0)
    }
}

impl Sub for Celsius {
    type Output = Celsius;
    fn sub(self, rhs: Celsius) -> Celsius {
        Celsius(self.0 - rhs.0)
    }
}

impl Mul<f64> for Celsius {
    type Output = Celsius;
    fn mul(self, rhs: f64) -> Celsius {
        Celsius(self.0 * rhs)
    }
}

/// Wall-clock time in seconds, used by the simulators.
///
/// `std::time::Duration` cannot represent the fractional arithmetic the
/// queueing models need (e.g. negative residuals during integration), so the
/// simulators use a plain `f64` wrapper.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Seconds(pub f64);

impl Seconds {
    /// Zero seconds.
    pub const ZERO: Seconds = Seconds(0.0);

    /// Creates a quantity from microseconds.
    pub fn from_micros(us: f64) -> Self {
        Seconds(us / 1e6)
    }

    /// The value in milliseconds.
    pub fn millis(self) -> f64 {
        self.0 * 1e3
    }

    /// The value in microseconds.
    pub fn micros(self) -> f64 {
        self.0 * 1e6
    }

    /// Larger of two durations.
    pub fn max(self, other: Seconds) -> Seconds {
        Seconds(self.0.max(other.0))
    }
}

impl fmt::Display for Seconds {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(prec) = f.precision() {
            write!(f, "{:.*} s", prec, self.0)
        } else {
            write!(f, "{} s", self.0)
        }
    }
}

impl Add for Seconds {
    type Output = Seconds;
    fn add(self, rhs: Seconds) -> Seconds {
        Seconds(self.0 + rhs.0)
    }
}

impl AddAssign for Seconds {
    fn add_assign(&mut self, rhs: Seconds) {
        self.0 += rhs.0;
    }
}

impl Sub for Seconds {
    type Output = Seconds;
    fn sub(self, rhs: Seconds) -> Seconds {
        Seconds(self.0 - rhs.0)
    }
}

impl Mul<f64> for Seconds {
    type Output = Seconds;
    fn mul(self, rhs: f64) -> Seconds {
        Seconds(self.0 * rhs)
    }
}

impl Div<f64> for Seconds {
    type Output = Seconds;
    fn div(self, rhs: f64) -> Seconds {
        Seconds(self.0 / rhs)
    }
}

impl Div<Seconds> for Seconds {
    type Output = f64;
    fn div(self, rhs: Seconds) -> f64 {
        self.0 / rhs.0
    }
}

impl Sum for Seconds {
    fn sum<I: Iterator<Item = Seconds>>(iter: I) -> Seconds {
        Seconds(iter.map(|s| s.0).sum())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn watts_arithmetic_roundtrips() {
        let a = Watts(10.0);
        let b = Watts(4.0);
        assert_eq!(a + b, Watts(14.0));
        assert_eq!(a - b, Watts(6.0));
        assert_eq!(a * 2.0, Watts(20.0));
        assert_eq!(2.0 * a, Watts(20.0));
        assert_eq!(a / 2.0, Watts(5.0));
        assert_eq!(a / b, 2.5);
        assert_eq!(-a, Watts(-10.0));
    }

    #[test]
    fn watts_unit_conversions() {
        assert_eq!(Watts::from_kilowatts(2.0), Watts(2000.0));
        assert_eq!(Watts::from_megawatts(0.5), Watts(500_000.0));
        assert!((Watts(1234.0).kilowatts() - 1.234).abs() < 1e-12);
        assert!((Watts(2.5e6).megawatts() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn watts_clamp_and_extrema() {
        assert_eq!(Watts(5.0).clamp(Watts(0.0), Watts(3.0)), Watts(3.0));
        assert_eq!(Watts(-1.0).clamp(Watts(0.0), Watts(3.0)), Watts(0.0));
        assert_eq!(Watts(2.0).min(Watts(3.0)), Watts(2.0));
        assert_eq!(Watts(2.0).max(Watts(3.0)), Watts(3.0));
        assert_eq!(Watts(-2.0).abs(), Watts(2.0));
    }

    #[test]
    #[should_panic(expected = "invalid clamp range")]
    fn watts_clamp_rejects_inverted_range() {
        let _ = Watts(1.0).clamp(Watts(2.0), Watts(1.0));
    }

    #[test]
    fn watts_sum_over_iterators() {
        let v = [Watts(1.0), Watts(2.0), Watts(3.0)];
        let owned: Watts = v.iter().copied().sum();
        let borrowed: Watts = v.iter().sum();
        assert_eq!(owned, Watts(6.0));
        assert_eq!(borrowed, Watts(6.0));
    }

    #[test]
    fn watts_display_formats() {
        assert_eq!(format!("{}", Watts(1.5)), "1.5 W");
        assert_eq!(format!("{:.2}", Watts(1.234)), "1.23 W");
    }

    #[test]
    fn seconds_conversions() {
        assert_eq!(Seconds::from_micros(10.0), Seconds(1e-5));
        assert!((Seconds(0.2).millis() - 200.0).abs() < 1e-9);
        assert!((Seconds(0.2).micros() - 200_000.0).abs() < 1e-6);
    }

    #[test]
    fn seconds_arithmetic() {
        let mut t = Seconds(1.0);
        t += Seconds(0.5);
        assert_eq!(t, Seconds(1.5));
        assert_eq!(t - Seconds(0.5), Seconds(1.0));
        assert_eq!(t * 2.0, Seconds(3.0));
        assert_eq!(t / 3.0, Seconds(0.5));
        assert_eq!(Seconds(3.0) / Seconds(1.5), 2.0);
    }

    #[test]
    fn celsius_arithmetic_and_display() {
        assert_eq!(Celsius(20.0) + Celsius(2.5), Celsius(22.5));
        assert_eq!(Celsius(20.0) - Celsius(2.5), Celsius(17.5));
        assert_eq!(Celsius(10.0) * 0.5, Celsius(5.0));
        assert_eq!(format!("{:.1}", Celsius(21.37)), "21.4 °C");
    }
}
