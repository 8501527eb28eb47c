//! Strip-line transmission lines (§4.1–§4.2).
//!
//! Two TL properties drive the entire §4.1 design analysis:
//!
//! * **Dispersion** — TLs are cut to lengths differing by integer
//!   multiples of the guided wavelength λg *at the centre frequency*.
//!   Away from 79 GHz the electrical lengths drift apart; the phase
//!   misalignment between the shortest and longest line grows with
//!   their physical length difference, eventually turning coherent
//!   addition destructive. This caps the useful pair count (Fig. 3).
//! * **Loss** — ≈1.02 dB/cm on the Rogers stackup (§4.3 quotes 11 dB
//!   for a 10.8 cm line), which suppresses the outer, longer-line
//!   pairs' contribution.
//!
//! The strip-line is non-dispersive to first order (TEM-like), so
//! `λg(f) = λg(f_c)·f_c/f` — i.e. constant effective permittivity.

use ros_cache::{GeomCache, KeyBuilder, TableKind};
use ros_em::constants::{F_CENTER_HZ, LAMBDA_GUIDED_79GHZ_M, TL_LOSS_DB_PER_M};
use ros_em::units::cast::AsF64;
use ros_em::Complex64;
use std::sync::Arc;

/// Guided wavelength at frequency `freq_hz` \[m\].
#[inline]
pub fn guided_wavelength(freq_hz: f64) -> f64 {
    LAMBDA_GUIDED_79GHZ_M * F_CENTER_HZ / freq_hz
}

/// A physical transmission line of fixed length.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TransmissionLine {
    /// Physical length \[m\].
    pub length_m: f64,
}

impl TransmissionLine {
    /// Creates a line of the given physical length.
    ///
    /// # Panics
    /// Panics on negative length.
    pub fn new(length_m: f64) -> Self {
        assert!(length_m >= 0.0, "TL length must be non-negative");
        TransmissionLine { length_m }
    }

    /// Electrical phase delay at `freq_hz` \[rad\] (positive number;
    /// the propagating wave accrues `e^{-jφ}`).
    #[inline]
    pub fn phase(&self, freq_hz: f64) -> f64 {
        std::f64::consts::TAU * self.length_m / guided_wavelength(freq_hz)
    }

    /// One-way amplitude attenuation factor (< 1) from conductor and
    /// dielectric loss.
    #[inline]
    pub fn amplitude(&self) -> f64 {
        ros_em::db::db_to_lin(-TL_LOSS_DB_PER_M * self.length_m)
    }

    /// Full complex transfer coefficient at `freq_hz`:
    /// `amplitude · e^{−j·phase}`.
    #[inline]
    pub fn transfer(&self, freq_hz: f64) -> Complex64 {
        Complex64::from_polar(self.amplitude(), -self.phase(freq_hz))
    }

    /// Extends the line by `extra_m`, returning a new line.
    #[inline]
    pub fn extended(&self, extra_m: f64) -> TransmissionLine {
        TransmissionLine::new(self.length_m + extra_m)
    }
}

/// The paper's fabricated PSVAA line lengths (§4.2): 4.106 mm,
/// 9.148 mm, and 12.171 mm for the three pairs, innermost first.
/// (The second line carries an extra λg/2 that cancels the 180° feed-
/// direction offset; [`feed_phase_compensation`] returns that offset.)
pub fn paper_tl_lengths_m() -> [f64; 3] {
    [4.106e-3, 9.148e-3, 12.171e-3]
}

/// The feed-direction phase offset of pair `p` (0-based, innermost
/// first) in the paper's compact layout: the middle pair is fed from
/// the opposite side, contributing a π offset that its +λg/2 of extra
/// line length cancels at the centre frequency.
pub fn feed_phase_compensation(pair: usize) -> f64 {
    if pair == 1 {
        std::f64::consts::PI
    } else {
        0.0
    }
}

/// Complex TL transfer (dispersion) table over a frequency grid,
/// memoized in an injected cache: entry `i * freq_grid_hz.len() + j`
/// is line `i`'s [`TransmissionLine::transfer`] at `freq_grid_hz[j]`
/// (line-major). One table per distinct (lengths, grid) pair — the
/// §4.1 misalignment analysis reuses it across pair counts because
/// the design-rule length sets nest.
pub fn dispersion_table_in(
    cache: &GeomCache,
    lengths_m: &[f64],
    freq_grid_hz: &[f64],
) -> Arc<Vec<Complex64>> {
    let key = KeyBuilder::new("antenna.tl.dispersion")
        .f64s(lengths_m)
        .f64s(freq_grid_hz)
        .finish();
    cache.get_or_build(TableKind::Dispersion, key, || {
        let mut table = Vec::with_capacity(lengths_m.len() * freq_grid_hz.len());
        for &len in lengths_m {
            let line = TransmissionLine::new(len);
            for &freq in freq_grid_hz {
                table.push(line.transfer(freq));
            }
        }
        table
    })
}

/// Ideal TL lengths for an `n_pairs` Van Atta array following the §4.1
/// design rule: adjacent lines differ by exactly 2·λg (the smallest
/// integer multiple of λg that clears the λ antenna pitch), innermost
/// line one λg long.
pub fn design_tl_lengths_m(n_pairs: usize) -> Vec<f64> {
    (0..n_pairs)
        .map(|p| (1.0 + 2.0 * p.as_f64()) * LAMBDA_GUIDED_79GHZ_M)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn guided_wavelength_dispersion() {
        // λg shrinks with frequency; anchor value at 79 GHz.
        assert!((guided_wavelength(79.0e9) - 2027.0e-6).abs() < 1e-12);
        assert!(guided_wavelength(81.0e9) < guided_wavelength(76.0e9));
    }

    #[test]
    fn phase_is_2pi_per_guided_wavelength() {
        let tl = TransmissionLine::new(3.0 * LAMBDA_GUIDED_79GHZ_M);
        assert!((tl.phase(F_CENTER_HZ) - 3.0 * std::f64::consts::TAU).abs() < 1e-9);
    }

    #[test]
    fn phase_misalignment_grows_with_length_difference() {
        // §4.1: misalignment between band edges ∝ length difference.
        let short = TransmissionLine::new(LAMBDA_GUIDED_79GHZ_M);
        let long = TransmissionLine::new(9.0 * LAMBDA_GUIDED_79GHZ_M);
        let mis = |tl: &TransmissionLine| (tl.phase(81.0e9) - tl.phase(77.0e9)).abs();
        assert!(mis(&long) > 8.0 * mis(&short) * 0.99);
    }

    #[test]
    fn misalignment_criterion_reproduces_4_94_lambda_g() {
        // §4.1: maximum tolerable length difference δl satisfies
        // 2π·(B/c_l)·δl = π/2 with B = 4 GHz ⇒ δl ≈ 4.94 λg.
        let b = 4.0e9;
        let c_l = F_CENTER_HZ * LAMBDA_GUIDED_79GHZ_M; // propagation speed in TL
        let delta_l = c_l / (4.0 * b);
        assert!(
            (delta_l / LAMBDA_GUIDED_79GHZ_M - 4.9375).abs() < 0.01,
            "δl = {} λg",
            delta_l / LAMBDA_GUIDED_79GHZ_M
        );
    }

    #[test]
    fn loss_matches_paper_example() {
        let tl = TransmissionLine::new(0.108);
        assert!((tl.amplitude() - 10f64.powf(-11.0 / 20.0)).abs() < 1e-12);
    }

    #[test]
    fn transfer_combines_amplitude_and_phase() {
        let tl = TransmissionLine::new(5e-3);
        let t = tl.transfer(F_CENTER_HZ);
        assert!((t.abs() - tl.amplitude()).abs() < 1e-12);
        assert!((ros_em::geom::wrap_angle(t.arg() + tl.phase(F_CENTER_HZ))).abs() < 1e-9);
    }

    #[test]
    fn paper_lengths_match_design_multiples() {
        let l = paper_tl_lengths_m();
        let lg = LAMBDA_GUIDED_79GHZ_M;
        // §4.2: 2nd and 3rd differ from the 1st by ≈2.5 λg and ≈4 λg.
        assert!(((l[1] - l[0]) / lg - 2.5).abs() < 0.05);
        assert!(((l[2] - l[0]) / lg - 4.0).abs() < 0.05);
    }

    #[test]
    fn design_lengths_step_by_two_lambda_g() {
        let l = design_tl_lengths_m(4);
        assert_eq!(l.len(), 4);
        for w in l.windows(2) {
            assert!(((w[1] - w[0]) / LAMBDA_GUIDED_79GHZ_M - 2.0).abs() < 1e-9);
        }
    }

    #[test]
    fn feed_compensation_only_on_middle_pair() {
        assert_eq!(feed_phase_compensation(0), 0.0);
        assert_eq!(feed_phase_compensation(1), std::f64::consts::PI);
        assert_eq!(feed_phase_compensation(2), 0.0);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_length_rejected() {
        TransmissionLine::new(-1.0);
    }

    #[test]
    fn extended_line_adds_length() {
        let tl = TransmissionLine::new(1e-3).extended(0.5e-3);
        assert!((tl.length_m - 1.5e-3).abs() < 1e-15);
    }
}
