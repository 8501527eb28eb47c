//! Scene geometry: 3-D vectors and angle conventions.
//!
//! ## Coordinate frame
//!
//! The RoS workspace uses a right-handed road frame:
//!
//! * **x** — along the road (direction of vehicle travel),
//! * **y** — across the road, pointing away from the curb toward the
//!   lanes (from the tag's point of view, toward the radar),
//! * **z** — up.
//!
//! A tag mounted on the roadside faces the +y half-space. The *azimuth*
//! of a point relative to a tag is the angle in the x–y plane measured
//! from the +x axis (so broadside to the tag is 90°, matching the
//! paper's Fig. 4 where the retroreflective plateau is centred on 90°…
//! we plot it recentred on 0° = broadside, as most figures do).
//! *Elevation* is measured from the x–y plane toward +z.

use crate::units::{Degrees, Radians};
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// Converts degrees to radians.
#[inline]
pub fn deg_to_rad(deg: f64) -> f64 {
    Degrees::new(deg).radians().value()
}

/// Converts radians to degrees.
#[inline]
pub fn rad_to_deg(rad: f64) -> f64 {
    Radians::new(rad).degrees().value()
}

/// Wraps an angle to `(-π, π]`.
#[inline]
pub fn wrap_angle(rad: f64) -> f64 {
    Radians::new(rad).wrapped().value()
}

/// A 3-D vector / point in metres.
#[derive(Clone, Copy, PartialEq, Debug, Default)]
pub struct Vec3 {
    /// Along-road component \[m\].
    pub x: f64,
    /// Across-road component \[m\].
    pub y: f64,
    /// Vertical component \[m\].
    pub z: f64,
}

impl Vec3 {
    /// The origin.
    pub const ZERO: Vec3 = Vec3 {
        x: 0.0,
        y: 0.0,
        z: 0.0,
    };

    /// Creates a vector from components.
    #[inline]
    pub const fn new(x: f64, y: f64, z: f64) -> Self {
        Vec3 { x, y, z }
    }

    /// Euclidean norm.
    #[inline]
    pub fn norm(self) -> f64 {
        (self.x * self.x + self.y * self.y + self.z * self.z).sqrt()
    }

    /// Squared Euclidean norm.
    #[inline]
    pub fn norm_sqr(self) -> f64 {
        self.x * self.x + self.y * self.y + self.z * self.z
    }

    /// Distance to another point.
    #[inline]
    pub fn distance(self, o: Vec3) -> f64 {
        (self - o).norm()
    }

    /// Horizontal (x–y plane) range to another point.
    #[inline]
    pub fn ground_distance(self, o: Vec3) -> f64 {
        ((self.x - o.x).powi(2) + (self.y - o.y).powi(2)).sqrt()
    }

    /// Azimuth of `target` as seen from `self`, measured from the +x
    /// axis within the x–y plane, in radians `(-π, π]`.
    #[inline]
    pub fn azimuth_to(self, target: Vec3) -> f64 {
        (target.y - self.y).atan2(target.x - self.x)
    }

    /// Elevation of `target` as seen from `self`: the angle above the
    /// horizontal plane, in radians `[-π/2, π/2]`.
    #[inline]
    pub fn elevation_to(self, target: Vec3) -> f64 {
        let dz = target.z - self.z;
        let g = self.ground_distance(target);
        dz.atan2(g)
    }
}

impl Add for Vec3 {
    type Output = Vec3;
    #[inline]
    fn add(self, o: Vec3) -> Vec3 {
        Vec3::new(self.x + o.x, self.y + o.y, self.z + o.z)
    }
}

impl Sub for Vec3 {
    type Output = Vec3;
    #[inline]
    fn sub(self, o: Vec3) -> Vec3 {
        Vec3::new(self.x - o.x, self.y - o.y, self.z - o.z)
    }
}

impl Mul<f64> for Vec3 {
    type Output = Vec3;
    #[inline]
    fn mul(self, k: f64) -> Vec3 {
        Vec3::new(self.x * k, self.y * k, self.z * k)
    }
}

impl Mul<Vec3> for f64 {
    type Output = Vec3;
    #[inline]
    fn mul(self, v: Vec3) -> Vec3 {
        v * self
    }
}

impl Div<f64> for Vec3 {
    type Output = Vec3;
    #[inline]
    fn div(self, k: f64) -> Vec3 {
        Vec3::new(self.x / k, self.y / k, self.z / k)
    }
}

impl Neg for Vec3 {
    type Output = Vec3;
    #[inline]
    fn neg(self) -> Vec3 {
        Vec3::new(-self.x, -self.y, -self.z)
    }
}

impl AddAssign for Vec3 {
    #[inline]
    fn add_assign(&mut self, o: Vec3) {
        *self = *self + o;
    }
}

impl SubAssign for Vec3 {
    #[inline]
    fn sub_assign(&mut self, o: Vec3) {
        *self = *self - o;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::{FRAC_PI_2, FRAC_PI_4, PI};

    #[test]
    fn vector_algebra() {
        let a = Vec3::new(1.0, 2.0, 3.0);
        let b = Vec3::new(-1.0, 0.5, 2.0);
        assert_eq!(a + b, Vec3::new(0.0, 2.5, 5.0));
        assert_eq!(a - b, Vec3::new(2.0, 1.5, 1.0));
        assert_eq!(a * 2.0, Vec3::new(2.0, 4.0, 6.0));
        assert_eq!(2.0 * a, a * 2.0);
        assert_eq!(a / 2.0, Vec3::new(0.5, 1.0, 1.5));
        assert_eq!(-a, Vec3::new(-1.0, -2.0, -3.0));
    }

    #[test]
    fn norm_and_norm_sqr() {
        let v = Vec3::new(3.0, 4.0, 0.0);
        assert_eq!(v.norm(), 5.0);
        assert_eq!(v.norm_sqr(), 25.0);
    }

    #[test]
    fn azimuth_elevation() {
        let o = Vec3::ZERO;
        assert!((o.azimuth_to(Vec3::new(1.0, 0.0, 0.0)) - 0.0).abs() < 1e-12);
        assert!((o.azimuth_to(Vec3::new(0.0, 1.0, 0.0)) - FRAC_PI_2).abs() < 1e-12);
        assert!((o.azimuth_to(Vec3::new(1.0, 1.0, 0.0)) - FRAC_PI_4).abs() < 1e-12);
        assert!((o.elevation_to(Vec3::new(1.0, 0.0, 1.0)) - FRAC_PI_4).abs() < 1e-12);
        assert!((o.elevation_to(Vec3::new(0.0, 5.0, 0.0))).abs() < 1e-12);
    }

    #[test]
    fn distance_and_ground_distance() {
        let a = Vec3::new(0.0, 0.0, 0.0);
        let b = Vec3::new(2.0, 0.0, 0.0);
        assert_eq!(a.distance(b), 2.0);
        assert_eq!(a.ground_distance(Vec3::new(3.0, 4.0, 100.0)), 5.0);
    }

    #[test]
    fn wrap_angle_range() {
        assert!((wrap_angle(3.0 * PI) - PI).abs() < 1e-12);
        assert!((wrap_angle(-3.0 * PI) - PI).abs() < 1e-12);
        assert!((wrap_angle(0.1) - 0.1).abs() < 1e-15);
        for k in -8..=8 {
            let a = wrap_angle(k as f64 * 1.7);
            assert!(a > -PI - 1e-12 && a <= PI + 1e-12);
        }
    }
}
