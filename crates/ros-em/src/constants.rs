//! Physical constants and the RoS / automotive-radar frequency plan.
//!
//! All values trace to the paper (§3–§5) or standard physics. Keeping
//! them in one place prevents the usual drift where each crate hardcodes
//! a slightly different speed of light.

/// Speed of light in vacuum \[m/s\].
pub const C: f64 = 299_792_458.0;

/// Thermal noise power spectral density at 290 K \[dBm/Hz\].
///
/// The paper (§5.3) uses −173.9 dBm; the textbook kT value is
/// −173.98 dBm/Hz at 290 K. We keep the paper's constant so link-budget
/// numbers match the published ones.
pub(crate) const THERMAL_NOISE_DBM_PER_HZ: f64 = -173.9;

/// Lower edge of the automotive radar band \[Hz\] (76 GHz).
pub const BAND_LO_HZ: f64 = 76.0e9;

/// Upper edge of the automotive radar band \[Hz\] (81 GHz).
pub const BAND_HI_HZ: f64 = 81.0e9;

/// RoS design centre frequency \[Hz\] (79 GHz, §4.2).
pub const F_CENTER_HZ: f64 = 79.0e9;

/// Free-space wavelength at the 79 GHz design frequency \[m\] (≈3.79 mm).
pub const LAMBDA_CENTER_M: f64 = C / F_CENTER_HZ;

/// Guided wavelength in the PSVAA strip-line at 79 GHz \[m\] (§4.2:
/// λg = 2027 µm for the copper layer on the Rogers stackup).
pub const LAMBDA_GUIDED_79GHZ_M: f64 = 2027.0e-6;

/// Strip-line loss \[dB/m\].
///
/// Derived from §4.3: a 10.8 cm transmission line incurs ≈11 dB loss on
/// the chosen substrate, i.e. ≈101.9 dB/m.
pub const TL_LOSS_DB_PER_M: f64 = 11.0 / 0.108;

/// Converts a frequency to its free-space wavelength \[m\].
#[inline]
pub fn wavelength(freq_hz: f64) -> f64 {
    C / freq_hz
}

/// Converts miles-per-hour to metres-per-second.
#[inline]
pub fn mph_to_mps(mph: f64) -> f64 {
    mph * 0.44704
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lambda_at_79ghz_is_3_79_mm() {
        assert!((LAMBDA_CENTER_M - 3.794e-3).abs() < 2e-6);
        assert!((wavelength(F_CENTER_HZ) - LAMBDA_CENTER_M).abs() < 1e-15);
    }

    #[test]
    fn band_is_5_ghz_wide() {
        assert!((BAND_HI_HZ - BAND_LO_HZ - 5.0e9).abs() < 1.0);
        assert!(F_CENTER_HZ > BAND_LO_HZ && F_CENTER_HZ < BAND_HI_HZ);
    }

    #[test]
    fn tl_loss_matches_paper_example() {
        // §4.3: the farthest centrosymmetric pair needs a 10.8 cm TL
        // which induces an 11 dB loss.
        let loss = TL_LOSS_DB_PER_M * 0.108;
        assert!((loss - 11.0).abs() < 1e-9);
    }

    #[test]
    fn guided_wavelength_is_sub_freespace() {
        // Guided wavelength must be shorter than free-space wavelength
        // (ε_eff > 1), a fact §4.1 relies on (λg < λ ⇒ ΔL_min = 2λg).
        assert!(LAMBDA_GUIDED_79GHZ_M < LAMBDA_CENTER_M);
    }

    #[test]
    fn mph_to_mps_matches_paper_anchor() {
        // §5.3: 86 mph ≈ 38.5 m/s.
        assert!((mph_to_mps(86.0) - 38.5).abs() < 0.1);
    }
}
