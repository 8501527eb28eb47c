//! The radar's antenna array (§3.2, §7.1).
//!
//! The paper's TI radar uses 4 Rx antennas at λ/2 spacing (≈28.6°
//! two-way beamwidth) plus two Tx ports: one at the stock vertical
//! polarization for ordinary object detection, and one rotated 90° for
//! tag decoding (§7.1 "we simply rotate one Tx antenna by 90°").

use ros_em::jones::Polarization;
use ros_em::units::cast::AsF64;

/// Radar antenna array geometry.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RadarArray {
    /// Number of Rx antennas.
    pub n_rx: usize,
    /// Rx element spacing \[m\].
    pub rx_spacing_m: f64,
    /// Polarization of the stock Tx/Rx ports.
    pub native_pol: Polarization,
}

impl RadarArray {
    /// The TI radar array: 4 Rx at λ/2, vertical native polarization.
    pub fn ti_default() -> Self {
        RadarArray {
            n_rx: 4,
            rx_spacing_m: ros_em::constants::LAMBDA_CENTER_M / 2.0,
            native_pol: Polarization::V,
        }
    }

    /// Phase of antenna `k` for a far-field source at azimuth `az`
    /// \[rad\] from boresight: `−2π·k·d·sin(az)/λ`.
    pub fn steering_phase(&self, k: usize, az: f64, lambda_m: f64) -> f64 {
        -std::f64::consts::TAU * k.as_f64() * self.rx_spacing_m * az.sin() / lambda_m
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ros_em::constants::LAMBDA_CENTER_M;

    #[test]
    fn ti_array_basics() {
        let a = RadarArray::ti_default();
        assert_eq!(a.n_rx, 4);
        assert!((a.rx_spacing_m - LAMBDA_CENTER_M / 2.0).abs() < 1e-12);
    }

    #[test]
    fn steering_phase_zero_at_boresight() {
        let a = RadarArray::ti_default();
        for k in 0..4 {
            assert_eq!(a.steering_phase(k, 0.0, LAMBDA_CENTER_M), -0.0);
        }
    }

    #[test]
    fn steering_phase_progresses_per_antenna() {
        let a = RadarArray::ti_default();
        let az = 0.3;
        let step =
            a.steering_phase(1, az, LAMBDA_CENTER_M) - a.steering_phase(0, az, LAMBDA_CENTER_M);
        assert!((step + std::f64::consts::PI * az.sin()).abs() < 1e-9);
    }
}
