//! Circular polarization (§8's range-extension path).
//!
//! The PSVAA pays 6 dB because only half its elements re-radiate into
//! the orthogonal *linear* polarization. §8: *"The range can be
//! further improved by overcoming the 6 dB RCS loss of the PSVAA with
//! circularly polarized (CP) antenna elements. While common objects
//! change the left/right-hand direction of circular polarized signals
//! upon reflection, the PSVAA with CP antennas does not, enabling the
//! radar to separate the reflections without the 6 dB loss."*
//!
//! This module provides the circular basis on top of the linear Jones
//! calculus and the two canonical reflection operators:
//!
//! * [`mirror_reflection`] — an ordinary (specular, metallic)
//!   reflection **flips** handedness,
//! * [`phase_conjugating_reflection`] — a retrodirective
//!   (Van Atta / phase-conjugating) surface **preserves** handedness,
//!
//! which is exactly the discrimination a CP radar exploits.

use crate::complex::Complex64;
use crate::jones::{JonesMatrix, JonesVector};

/// Circular polarization handedness (IEEE convention, from the
/// transmitter's point of view).
///
/// ```
/// use ros_em::circular::{mirror_channel_power, Handedness};
/// // Ordinary reflections flip handedness: a same-handed CP receiver
/// // rejects clutter entirely.
/// let tx = Handedness::Right;
/// assert!(mirror_channel_power(tx, tx) < 1e-9);
/// assert!((mirror_channel_power(tx, tx.flip()) - 1.0).abs() < 1e-9);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Handedness {
    /// Right-hand circular.
    Right,
    /// Left-hand circular.
    Left,
}

impl Handedness {
    /// The opposite handedness.
    pub fn flip(self) -> Handedness {
        match self {
            Handedness::Right => Handedness::Left,
            Handedness::Left => Handedness::Right,
        }
    }

    /// Unit Jones vector in the linear (V, H) basis:
    /// RHC = (1, −j)/√2, LHC = (1, +j)/√2.
    pub fn jones(self) -> JonesVector {
        let s = std::f64::consts::FRAC_1_SQRT_2;
        match self {
            Handedness::Right => JonesVector::new(Complex64::real(s), Complex64::new(0.0, -s)),
            Handedness::Left => JonesVector::new(Complex64::real(s), Complex64::new(0.0, s)),
        }
    }
}

/// Projects a field onto a circular receive port, returning the
/// complex voltage (inner product with the conjugate basis vector).
pub fn project_circular(e: JonesVector, rx: Handedness) -> Complex64 {
    let b = rx.jones();
    b.v.conj() * e.v + b.h.conj() * e.h
}

/// An ordinary mirror-like reflection in the linear basis.
///
/// A metallic reflection reverses the propagation direction; keeping
/// the observer's coordinate convention fixed, one transverse
/// component changes sign — which is what flips circular handedness.
pub(crate) fn mirror_reflection() -> JonesMatrix {
    JonesMatrix::new(
        Complex64::ONE,
        Complex64::ZERO,
        Complex64::ZERO,
        -Complex64::ONE,
    )
}

/// A phase-conjugating (retrodirective) reflection: the Van Atta
/// mechanism re-radiates the conjugate field, which preserves circular
/// handedness. In the linear basis this is the conjugation operator
/// composed with the mirror; for the power accounting used here the
/// net effect is the identity on handedness.
pub(crate) fn phase_conjugating_reflection(e: JonesVector) -> JonesVector {
    // Conjugate each component (phase conjugation), then mirror.
    let conj = JonesVector::new(e.v.conj(), e.h.conj());
    mirror_reflection().apply(conj)
}

/// Power fraction of a `tx`-handed interrogation received on an
/// `rx`-handed port after an **ordinary** reflection.
pub fn mirror_channel_power(tx: Handedness, rx: Handedness) -> f64 {
    let out = mirror_reflection().apply(tx.jones());
    project_circular(out, rx).norm_sqr()
}

/// Power fraction after a **phase-conjugating** (CP-Van-Atta)
/// reflection.
pub fn conjugating_channel_power(tx: Handedness, rx: Handedness) -> f64 {
    let out = phase_conjugating_reflection(tx.jones());
    project_circular(out, rx).norm_sqr()
}

/// RCS gain of a CP PSVAA over the linear PSVAA \[dB\]: the full
/// aperture re-radiates (no half-element split), recovering §4.2's
/// 6 dB penalty.
pub const CP_RCS_GAIN_DB: f64 = 6.0;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basis_vectors_are_unit_and_orthogonal() {
        for h in [Handedness::Right, Handedness::Left] {
            assert!((h.jones().power() - 1.0).abs() < 1e-12);
        }
        let cross = project_circular(Handedness::Right.jones(), Handedness::Left);
        assert!(cross.abs() < 1e-12, "RHC/LHC not orthogonal: {cross:?}");
        let co = project_circular(Handedness::Right.jones(), Handedness::Right);
        assert!((co.abs() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn flip_is_involution() {
        assert_eq!(Handedness::Right.flip(), Handedness::Left);
        assert_eq!(Handedness::Right.flip().flip(), Handedness::Right);
    }

    #[test]
    fn ordinary_reflection_flips_handedness() {
        // Same-handed return ≈ 0, cross-handed ≈ 1.
        for tx in [Handedness::Right, Handedness::Left] {
            let same = mirror_channel_power(tx, tx);
            let cross = mirror_channel_power(tx, tx.flip());
            assert!(same < 1e-12, "{tx:?} same-handed {same}");
            assert!((cross - 1.0).abs() < 1e-12, "{tx:?} cross-handed {cross}");
        }
    }

    #[test]
    fn conjugating_reflection_preserves_handedness() {
        // The CP Van Atta returns the same handedness — the radar's
        // same-handed port sees the tag, and clutter (mirror-like)
        // lands in the other port.
        for tx in [Handedness::Right, Handedness::Left] {
            let same = conjugating_channel_power(tx, tx);
            let cross = conjugating_channel_power(tx, tx.flip());
            assert!((same - 1.0).abs() < 1e-12, "{tx:?} same {same}");
            assert!(cross < 1e-12, "{tx:?} cross {cross}");
        }
    }

    #[test]
    fn cp_discrimination_is_complete() {
        // The discrimination matrix tag-vs-clutter is exactly
        // complementary: a same-handed receiver keeps the full tag
        // power and no clutter power (before leakage effects).
        let tx = Handedness::Right;
        let tag = conjugating_channel_power(tx, tx);
        let clutter = mirror_channel_power(tx, tx);
        assert!(tag > 0.999 && clutter < 1e-9);
    }
}
