//! Jones-calculus polarization model.
//!
//! RoS's central clutter-rejection trick (§4.2) is *polarization
//! switching*: the PSVAA re-radiates the incident wave in the orthogonal
//! linear polarization, while ordinary roadside objects "barely impact
//! the polarization of incident signals upon reflection". The radar
//! transmits on one linear polarization and receives on the orthogonal
//! one, so tag returns pass and clutter is suppressed.
//!
//! We model transverse field states as 2-component complex Jones
//! vectors in the (V, H) linear basis and reflectors as 2×2 Jones
//! matrices acting on them. This is exact for the far-field scalar
//! channels the simulator uses.

use std::ops::Add;

use crate::complex::Complex64;
use crate::units::Db;

/// Linear polarization axes used by radar ports.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Polarization {
    /// Vertical (the TI radar's stock patch orientation).
    V,
    /// Horizontal (a port rotated by 90°, as in §7.1).
    H,
}

impl Polarization {
    /// The orthogonal linear polarization.
    #[inline]
    pub fn orthogonal(self) -> Polarization {
        match self {
            Polarization::V => Polarization::H,
            Polarization::H => Polarization::V,
        }
    }

    /// Unit Jones vector for this polarization.
    #[inline]
    pub fn jones(self) -> JonesVector {
        match self {
            Polarization::V => JonesVector::new(Complex64::ONE, Complex64::ZERO),
            Polarization::H => JonesVector::new(Complex64::ZERO, Complex64::ONE),
        }
    }
}

/// A transverse field state `(E_v, E_h)` with complex amplitudes.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct JonesVector {
    /// Vertical field component.
    pub v: Complex64,
    /// Horizontal field component.
    pub h: Complex64,
}

impl JonesVector {
    /// Creates a Jones vector from components.
    #[inline]
    pub const fn new(v: Complex64, h: Complex64) -> Self {
        JonesVector { v, h }
    }

    /// The zero field.
    pub const ZERO: JonesVector = JonesVector {
        v: Complex64::ZERO,
        h: Complex64::ZERO,
    };

    /// Total field power `|E_v|² + |E_h|²`.
    #[inline]
    pub fn power(self) -> f64 {
        self.v.norm_sqr() + self.h.norm_sqr()
    }

    /// Projects onto a receive port with the given polarization,
    /// returning the complex voltage that port observes.
    #[inline]
    pub fn project(self, rx: Polarization) -> Complex64 {
        match rx {
            Polarization::V => self.v,
            Polarization::H => self.h,
        }
    }

    /// Scales both components by a complex factor.
    #[inline]
    pub fn scale(self, k: Complex64) -> JonesVector {
        JonesVector::new(self.v * k, self.h * k)
    }
}

/// Coherent field sum.
impl Add for JonesVector {
    type Output = JonesVector;
    #[inline]
    fn add(self, o: JonesVector) -> JonesVector {
        JonesVector::new(self.v + o.v, self.h + o.h)
    }
}

/// A 2×2 complex operator mapping incident to scattered Jones vectors.
///
/// Layout:
/// ```text
/// [ vv  vh ]   scattered_v = vv·incident_v + vh·incident_h
/// [ hv  hh ]   scattered_h = hv·incident_v + hh·incident_h
/// ```
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct JonesMatrix {
    /// V-in → V-out coefficient.
    pub vv: Complex64,
    /// H-in → V-out coefficient.
    pub vh: Complex64,
    /// V-in → H-out coefficient.
    pub hv: Complex64,
    /// H-in → H-out coefficient.
    pub hh: Complex64,
}

impl JonesMatrix {
    /// Creates a matrix from row-major coefficients.
    #[inline]
    pub const fn new(vv: Complex64, vh: Complex64, hv: Complex64, hh: Complex64) -> Self {
        JonesMatrix { vv, vh, hv, hh }
    }

    /// Clutter reflection with imperfect polarization purity.
    ///
    /// Real objects leak some energy into the cross polarization; §7.2
    /// measures a median rejection of 16–19 dB for roadside objects.
    /// `rejection` is the *power* ratio between co- and cross-pol
    /// reflections (larger = purer).
    pub fn clutter(rejection: Db) -> JonesMatrix {
        // Amplitude cross-coupling for a power rejection R is 10^(-R/20):
        // the power rejection read on the amplitude scale.
        let leak = (-rejection).as_amplitude().ratio();
        JonesMatrix::new(
            Complex64::ONE,
            Complex64::real(leak),
            Complex64::real(leak),
            Complex64::ONE,
        )
    }

    /// Applies the operator to an incident field.
    #[inline]
    pub fn apply(self, e: JonesVector) -> JonesVector {
        JonesVector::new(self.vv * e.v + self.vh * e.h, self.hv * e.v + self.hh * e.h)
    }

    /// Scalar channel gain from a `tx`-polarized port through this
    /// reflector into an `rx`-polarized port.
    #[inline]
    pub fn channel(self, tx: Polarization, rx: Polarization) -> Complex64 {
        self.apply(tx.jones()).project(rx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn orthogonal_polarizations() {
        assert_eq!(Polarization::V.orthogonal(), Polarization::H);
        assert_eq!(Polarization::H.orthogonal(), Polarization::V);
        assert_eq!(Polarization::V.orthogonal().orthogonal(), Polarization::V);
    }

    #[test]
    fn jones_vector_power_and_projection() {
        let e = JonesVector::new(Complex64::new(3.0, 0.0), Complex64::new(0.0, 4.0));
        assert_eq!(e.power(), 25.0);
        assert_eq!(e.project(Polarization::V), Complex64::new(3.0, 0.0));
        assert_eq!(e.project(Polarization::H), Complex64::new(0.0, 4.0));
    }

    #[test]
    fn clutter_rejection_matches_spec() {
        for rej in [16.0, 17.5, 19.0] {
            let m = JonesMatrix::clutter(Db::new(rej));
            let co = m.channel(Polarization::V, Polarization::V).norm_sqr();
            let cross = m.channel(Polarization::V, Polarization::H).norm_sqr();
            let measured = 10.0 * (co / cross).log10();
            assert!(
                (measured - rej).abs() < 1e-9,
                "rejection {rej} measured {measured}"
            );
        }
    }

    #[test]
    fn apply_is_linear() {
        let m = JonesMatrix::new(
            Complex64::new(1.0, 1.0),
            Complex64::new(0.5, 0.0),
            Complex64::new(0.0, -1.0),
            Complex64::new(2.0, 0.0),
        );
        let a = JonesVector::new(Complex64::ONE, Complex64::I);
        let b = JonesVector::new(Complex64::real(2.0), Complex64::ZERO);
        let lhs = m.apply(a + b);
        let rhs = m.apply(a) + m.apply(b);
        assert!((lhs.v - rhs.v).abs() < 1e-12);
        assert!((lhs.h - rhs.h).abs() < 1e-12);
    }
}
