//! FMCW chirp configuration and derived quantities (§3.2, §7.1).

use ros_em::constants::C;
use ros_em::units::cast::AsF64;

/// FMCW chirp/frame parameters.
///
/// Defaults follow the paper's §7.1 TI radar settings: frame duration
/// 60 µs, frame repetition 1 kHz, frequency slope 66 MHz/µs, baseband
/// sampling 5 Msps, 256 complex samples per frame, carrier 79 GHz.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ChirpConfig {
    /// Carrier (chirp start) frequency \[Hz\].
    pub carrier_hz: f64,
    /// Chirp slope \[Hz/s\].
    pub slope_hz_per_s: f64,
    /// Complex baseband sampling rate \[S/s\].
    pub sample_rate_hz: f64,
    /// Samples per chirp.
    pub n_samples: usize,
    /// Frame repetition rate \[Hz\].
    pub frame_rate_hz: f64,
}

impl Default for ChirpConfig {
    fn default() -> Self {
        ChirpConfig {
            carrier_hz: 79.0e9,
            slope_hz_per_s: 66.0e12,
            sample_rate_hz: 5.0e6,
            n_samples: 256,
            frame_rate_hz: 1000.0,
        }
    }
}

impl ChirpConfig {
    /// The paper's TI IWR1443 configuration (§7.1).
    pub fn ti_default() -> Self {
        Self::default()
    }

    /// Swept (sampled) RF bandwidth \[Hz\]: `slope · n/f_s`.
    pub fn bandwidth_hz(&self) -> f64 {
        self.slope_hz_per_s * self.n_samples.as_f64() / self.sample_rate_hz
    }

    /// Range resolution \[m\]: `c / 2B`.
    pub fn range_resolution_m(&self) -> f64 {
        C / (2.0 * self.bandwidth_hz())
    }

    /// Maximum unambiguous range \[m\] for complex sampling:
    /// `f_s · c / (2·slope)`.
    pub fn max_range_m(&self) -> f64 {
        self.sample_rate_hz * C / (2.0 * self.slope_hz_per_s)
    }

    /// Beat (IF) frequency for a target at range `r` \[Hz\]:
    /// `2·slope·r/c`.
    pub fn beat_frequency_hz(&self, range_m: f64) -> f64 {
        2.0 * self.slope_hz_per_s * range_m / C
    }

    /// Range corresponding to FFT bin `bin` of an `n_fft`-point range
    /// spectrum \[m\].
    pub fn bin_to_range_m(&self, bin: usize, n_fft: usize) -> f64 {
        let f_beat = bin.as_f64() * self.sample_rate_hz / n_fft.as_f64();
        f_beat * C / (2.0 * self.slope_hz_per_s)
    }

    /// FFT bin (fractional) corresponding to range `r` in an
    /// `n_fft`-point spectrum.
    pub fn range_to_bin(&self, range_m: f64, n_fft: usize) -> f64 {
        self.beat_frequency_hz(range_m) * n_fft.as_f64() / self.sample_rate_hz
    }

    /// Carrier wavelength \[m\].
    pub fn wavelength_m(&self) -> f64 {
        C / self.carrier_hz
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ti_bandwidth_is_about_3_4_ghz() {
        let c = ChirpConfig::ti_default();
        // 256 samples at 5 Msps = 51.2 µs of a 66 MHz/µs sweep.
        assert!((c.bandwidth_hz() - 3.3792e9).abs() < 1e6);
    }

    #[test]
    fn range_resolution_close_to_paper() {
        // §3.2 quotes 3.75 cm for B = 4 GHz; the sampled 3.38 GHz gives
        // ≈4.4 cm.
        let c = ChirpConfig::ti_default();
        assert!((c.range_resolution_m() - 0.0444).abs() < 0.001);
    }

    #[test]
    fn max_range_covers_tag_scenarios() {
        let c = ChirpConfig::ti_default();
        // 5 Msps complex ⇒ ≈11.4 m unambiguous range: covers the 6 m
        // detection limit of Fig. 15 comfortably.
        assert!((c.max_range_m() - 11.36).abs() < 0.05);
    }

    #[test]
    fn beat_frequency_roundtrip() {
        let c = ChirpConfig::ti_default();
        for r in [0.5, 3.0, 6.0] {
            let fb = c.beat_frequency_hz(r);
            let bin = c.range_to_bin(r, 256);
            assert!(
                (c.bin_to_range_m(bin.round() as usize, 256) - r).abs() < c.range_resolution_m()
            );
            assert!(fb < c.sample_rate_hz, "aliased at {r} m");
        }
    }

    #[test]
    fn wavelength_at_79ghz() {
        let c = ChirpConfig::ti_default();
        assert!((c.wavelength_m() - 3.794e-3).abs() < 1e-5);
    }
}
