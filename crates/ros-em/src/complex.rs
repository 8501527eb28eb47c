//! Minimal, fast complex arithmetic for baseband signals and phasors.
//!
//! The RoS workspace intentionally avoids external numeric crates; this
//! module provides the small subset of complex functionality the
//! simulator needs (arithmetic, polar forms, exponentials) with the
//! standard `f64` precision used throughout.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Sub, SubAssign};

/// A complex number with `f64` components.
///
/// ```
/// use ros_em::Complex64;
/// let j = Complex64::I;
/// assert_eq!(j * j, Complex64::new(-1.0, 0.0));
/// let p = Complex64::from_polar(2.0, std::f64::consts::FRAC_PI_2);
/// assert!((p - Complex64::new(0.0, 2.0)).abs() < 1e-12);
/// ```
#[derive(Clone, Copy, PartialEq, Default)]
pub struct Complex64 {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex64 {
    /// The additive identity, `0 + 0j`.
    pub const ZERO: Complex64 = Complex64 { re: 0.0, im: 0.0 };
    /// The multiplicative identity, `1 + 0j`.
    pub const ONE: Complex64 = Complex64 { re: 1.0, im: 0.0 };
    /// The imaginary unit, `0 + 1j`.
    pub const I: Complex64 = Complex64 { re: 0.0, im: 1.0 };

    /// Creates a complex number from Cartesian parts.
    #[inline]
    pub const fn new(re: f64, im: f64) -> Self {
        Complex64 { re, im }
    }

    /// Creates a purely real complex number.
    #[inline]
    pub const fn real(re: f64) -> Self {
        Complex64 { re, im: 0.0 }
    }

    /// Creates a complex number from polar form `r·exp(jθ)`.
    #[inline]
    pub fn from_polar(r: f64, theta: f64) -> Self {
        Complex64::new(r * theta.cos(), r * theta.sin())
    }

    /// `exp(jθ)` — a unit phasor at angle `theta` (radians).
    #[inline]
    pub fn cis(theta: f64) -> Self {
        Complex64::new(theta.cos(), theta.sin())
    }

    /// Complex conjugate.
    #[inline]
    pub fn conj(self) -> Self {
        Complex64::new(self.re, -self.im)
    }

    /// Magnitude `|z|`.
    #[inline]
    pub fn abs(self) -> f64 {
        self.re.hypot(self.im)
    }

    /// Squared magnitude `|z|²` (power of a phasor), cheaper than [`abs`].
    ///
    /// [`abs`]: Complex64::abs
    #[inline]
    pub fn norm_sqr(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Argument (phase) in radians, in `(-π, π]`.
    #[inline]
    pub fn arg(self) -> f64 {
        self.im.atan2(self.re)
    }

    /// Complex exponential `exp(z)`.
    #[inline]
    pub fn exp(self) -> Self {
        Complex64::from_polar(self.re.exp(), self.im)
    }

    /// Principal square root.
    #[inline]
    pub fn sqrt(self) -> Self {
        Complex64::from_polar(self.abs().sqrt(), self.arg() / 2.0)
    }

    /// Scales by a real factor.
    #[inline]
    pub fn scale(self, k: f64) -> Self {
        Complex64::new(self.re * k, self.im * k)
    }

    /// True when either component is NaN.
    #[inline]
    pub fn is_nan(self) -> bool {
        self.re.is_nan() || self.im.is_nan()
    }

    /// True when both components are finite.
    #[inline]
    pub fn is_finite(self) -> bool {
        self.re.is_finite() && self.im.is_finite()
    }
}

impl fmt::Debug for Complex64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.im >= 0.0 {
            write!(f, "{}+{}j", self.re, self.im)
        } else {
            write!(f, "{}{}j", self.re, self.im)
        }
    }
}

impl fmt::Display for Complex64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

impl From<f64> for Complex64 {
    #[inline]
    fn from(re: f64) -> Self {
        Complex64::real(re)
    }
}

impl Add for Complex64 {
    type Output = Complex64;
    #[inline]
    fn add(self, rhs: Complex64) -> Complex64 {
        Complex64::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl Sub for Complex64 {
    type Output = Complex64;
    #[inline]
    fn sub(self, rhs: Complex64) -> Complex64 {
        Complex64::new(self.re - rhs.re, self.im - rhs.im)
    }
}

impl Mul for Complex64 {
    type Output = Complex64;
    #[inline]
    fn mul(self, rhs: Complex64) -> Complex64 {
        Complex64::new(
            self.re * rhs.re - self.im * rhs.im,
            self.re * rhs.im + self.im * rhs.re,
        )
    }
}

impl Mul<f64> for Complex64 {
    type Output = Complex64;
    #[inline]
    fn mul(self, rhs: f64) -> Complex64 {
        self.scale(rhs)
    }
}

impl Mul<Complex64> for f64 {
    type Output = Complex64;
    #[inline]
    fn mul(self, rhs: Complex64) -> Complex64 {
        rhs.scale(self)
    }
}

impl Div<f64> for Complex64 {
    type Output = Complex64;
    #[inline]
    fn div(self, rhs: f64) -> Complex64 {
        Complex64::new(self.re / rhs, self.im / rhs)
    }
}

impl Neg for Complex64 {
    type Output = Complex64;
    #[inline]
    fn neg(self) -> Complex64 {
        Complex64::new(-self.re, -self.im)
    }
}

impl AddAssign for Complex64 {
    #[inline]
    fn add_assign(&mut self, rhs: Complex64) {
        *self = *self + rhs;
    }
}

impl SubAssign for Complex64 {
    #[inline]
    fn sub_assign(&mut self, rhs: Complex64) {
        *self = *self - rhs;
    }
}

impl MulAssign for Complex64 {
    #[inline]
    fn mul_assign(&mut self, rhs: Complex64) {
        *self = *self * rhs;
    }
}

impl Sum for Complex64 {
    fn sum<I: Iterator<Item = Complex64>>(iter: I) -> Complex64 {
        iter.fold(Complex64::ZERO, |a, b| a + b)
    }
}

impl<'a> Sum<&'a Complex64> for Complex64 {
    fn sum<I: Iterator<Item = &'a Complex64>>(iter: I) -> Complex64 {
        iter.fold(Complex64::ZERO, |a, b| a + *b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::{FRAC_PI_2, FRAC_PI_4, PI};

    fn close(a: Complex64, b: Complex64) -> bool {
        (a - b).abs() < 1e-12
    }

    #[test]
    fn constructors_and_constants() {
        assert_eq!(Complex64::ZERO, Complex64::new(0.0, 0.0));
        assert_eq!(Complex64::ONE, Complex64::new(1.0, 0.0));
        assert_eq!(Complex64::I, Complex64::new(0.0, 1.0));
        assert_eq!(Complex64::real(3.5), Complex64::new(3.5, 0.0));
        assert_eq!(Complex64::from(2.0), Complex64::real(2.0));
    }

    #[test]
    fn arithmetic_identities() {
        let z = Complex64::new(3.0, -4.0);
        assert_eq!(z + Complex64::ZERO, z);
        assert_eq!(z * Complex64::ONE, z);
        assert_eq!(-(-z), z);
        assert_eq!(z - z, Complex64::ZERO);
    }

    #[test]
    fn multiplication_matches_polar() {
        let a = Complex64::from_polar(2.0, FRAC_PI_4);
        let b = Complex64::from_polar(3.0, FRAC_PI_2);
        let p = a * b;
        assert!((p.abs() - 6.0).abs() < 1e-12);
        assert!((p.arg() - (FRAC_PI_4 + FRAC_PI_2)).abs() < 1e-12);
    }

    #[test]
    fn division() {
        let a = Complex64::new(1.0, 2.0);
        assert!(close(a / 2.0, Complex64::new(0.5, 1.0)));
    }

    #[test]
    fn conj_and_norm() {
        let z = Complex64::new(3.0, 4.0);
        assert_eq!(z.conj(), Complex64::new(3.0, -4.0));
        assert_eq!(z.abs(), 5.0);
        assert_eq!(z.norm_sqr(), 25.0);
        assert!(close(z * z.conj(), Complex64::real(25.0)));
    }

    #[test]
    fn cis_is_unit_phasor() {
        for k in 0..16 {
            let th = k as f64 / 16.0 * 2.0 * PI;
            let u = Complex64::cis(th);
            assert!((u.abs() - 1.0).abs() < 1e-12);
        }
        assert!(close(Complex64::cis(PI), Complex64::real(-1.0)));
    }

    #[test]
    fn exp_euler() {
        let z = Complex64::new(0.0, PI);
        assert!(close(z.exp(), Complex64::real(-1.0)));
        let z = Complex64::new(1.0, 0.0);
        assert!(close(z.exp(), Complex64::real(std::f64::consts::E)));
    }

    #[test]
    fn sqrt_principal_branch() {
        let z = Complex64::real(-4.0);
        assert!(close(z.sqrt(), Complex64::new(0.0, 2.0)));
        let w = Complex64::new(3.0, 4.0).sqrt();
        assert!(close(w * w, Complex64::new(3.0, 4.0)));
    }

    #[test]
    fn sum_iterators() {
        let v = vec![Complex64::new(1.0, 1.0); 4];
        let s: Complex64 = v.iter().sum();
        assert_eq!(s, Complex64::new(4.0, 4.0));
        let s2: Complex64 = v.into_iter().sum();
        assert_eq!(s2, Complex64::new(4.0, 4.0));
    }

    #[test]
    fn scalar_ops_commute() {
        let z = Complex64::new(1.5, -2.5);
        assert_eq!(z * 2.0, 2.0 * z);
        assert_eq!((z * 2.0) / 2.0, z);
    }

    #[test]
    fn nan_and_finite_flags() {
        assert!(Complex64::new(f64::NAN, 0.0).is_nan());
        assert!(!Complex64::ONE.is_nan());
        assert!(Complex64::ONE.is_finite());
        assert!(!Complex64::new(f64::INFINITY, 0.0).is_finite());
    }

    #[test]
    fn assign_ops() {
        let mut z = Complex64::new(1.0, 1.0);
        z += Complex64::ONE;
        assert_eq!(z, Complex64::new(2.0, 1.0));
        z -= Complex64::I;
        assert_eq!(z, Complex64::new(2.0, 0.0));
        z *= Complex64::I;
        assert_eq!(z, Complex64::new(0.0, 2.0));
    }
}
