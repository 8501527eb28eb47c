//! Summary statistics for the evaluation harness.
//!
//! The paper reports medians, quartile boxes, and SNR values defined as
//! `(μ₁ − μ₀)² / σ²` over coding-peak amplitudes (§7.1). These helpers
//! compute those quantities plus the basics every experiment needs.

use ros_em::units::cast::{self, AsF64};

/// Arithmetic mean; 0.0 for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len().as_f64()
}

/// Population variance; 0.0 for slices shorter than 2.
pub fn variance(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    xs.iter().map(|x| (x - m).powi(2)).sum::<f64>() / xs.len().as_f64()
}

/// Linear-interpolated quantile, `q ∈ [0, 1]`; 0.0 for an empty slice.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1).as_f64();
    let lo = cast::floor_usize(pos);
    let hi = cast::ceil_usize(pos);
    if lo == hi {
        v[lo]
    } else {
        let t = pos - lo.as_f64();
        v[lo] * (1.0 - t) + v[hi] * t
    }
}

/// Median (50th percentile).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Five-number box-plot summary used by several figures.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BoxStats {
    /// Minimum.
    pub min: f64,
    /// 25th percentile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// 75th percentile.
    pub q3: f64,
    /// Maximum.
    pub max: f64,
}

impl BoxStats {
    /// Computes the summary; all zeros for an empty slice.
    pub fn from(xs: &[f64]) -> BoxStats {
        BoxStats {
            min: quantile(xs, 0.0),
            q1: quantile(xs, 0.25),
            median: quantile(xs, 0.5),
            q3: quantile(xs, 0.75),
            max: quantile(xs, 1.0),
        }
    }
}

/// The paper's OOK decoding SNR (§7.1):
/// `SNR = (μ₁ − μ₀)² / σ²`,
/// where `μ₁`/`μ₀` are the mean amplitudes of "1"/"0" coding peaks and
/// `σ` is the pooled standard deviation of the peak amplitudes.
///
/// When no "0" bins exist (`zeros` empty), `μ₀ = 0` — the all-ones tag
/// case the paper predominantly measures. When the pooled deviation is
/// zero (noise-free simulation), returns `f64::INFINITY`.
pub fn ook_snr(ones: &[f64], zeros: &[f64], noise_sigma: f64) -> f64 {
    let mu1 = mean(ones);
    let mu0 = if zeros.is_empty() { 0.0 } else { mean(zeros) };
    let pooled_var = {
        let n1 = ones.len();
        let n0 = zeros.len();
        if n1 + n0 == 0 {
            0.0
        } else {
            (variance(ones) * n1.as_f64() + variance(zeros) * n0.as_f64()) / (n1 + n0).as_f64()
        }
    };
    let sigma2 = pooled_var.max(noise_sigma * noise_sigma);
    if sigma2 <= 0.0 {
        return f64::INFINITY;
    }
    (mu1 - mu0).powi(2) / sigma2
}

/// Converts the paper's SNR to dB.
pub fn snr_db(snr_linear: f64) -> f64 {
    10.0 * snr_linear.log10()
}

/// OOK bit-error rate from linear SNR: `BER = ½·erfc(√SNR / (2√2))`
/// (§7.1, citing the OOK minimum-energy-coding model).
pub fn ook_ber(snr_linear: f64) -> f64 {
    0.5 * ros_em::special::erfc(snr_linear.sqrt() / (2.0 * std::f64::consts::SQRT_2))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_variance_basics() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(mean(&xs), 2.5);
        assert_eq!(variance(&xs), 1.25);
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(variance(&[5.0]), 0.0);
    }

    #[test]
    fn quantiles_and_median() {
        let xs = [3.0, 1.0, 2.0, 4.0, 5.0];
        assert_eq!(median(&xs), 3.0);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 5.0);
        assert_eq!(quantile(&xs, 0.25), 2.0);
        let even = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(median(&even), 2.5);
    }

    #[test]
    fn box_stats_ordered() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64 * 7.3) % 13.0).collect();
        let b = BoxStats::from(&xs);
        assert!(b.min <= b.q1 && b.q1 <= b.median && b.median <= b.q3 && b.q3 <= b.max);
    }

    #[test]
    fn ook_snr_separable_bits() {
        // Ones at 10±0.1, zeros at 1±0.1 → big SNR.
        let ones = [9.9, 10.0, 10.1];
        let zeros = [0.9, 1.0, 1.1];
        let snr = ook_snr(&ones, &zeros, 0.0);
        assert!(snr > 1000.0);
        // Degenerate noise-free case.
        assert_eq!(ook_snr(&[5.0], &[], 0.0), f64::INFINITY);
    }

    #[test]
    fn ook_snr_uses_noise_floor_sigma() {
        let ones = [10.0, 10.0];
        let snr = ook_snr(&ones, &[], 1.0);
        assert!((snr - 100.0).abs() < 1e-9);
    }

    #[test]
    fn ber_anchor_points() {
        // Paper anchors: 15.8 dB → 0.1 %, 14 dB → 0.6 %, 10 dB → 5.7 %.
        let lin = |db: f64| 10f64.powf(db / 10.0);
        assert!((ook_ber(lin(15.8)) - 0.001).abs() < 3e-4);
        assert!((ook_ber(lin(14.0)) - 0.006).abs() < 2e-3);
        assert!((ook_ber(lin(10.0)) - 0.057).abs() < 8e-3);
        // Monotone decreasing in SNR.
        assert!(ook_ber(lin(20.0)) < ook_ber(lin(10.0)));
    }

    #[test]
    fn snr_db_conversion() {
        assert_eq!(snr_db(100.0), 20.0);
        assert!((snr_db(2.0) - 3.0103).abs() < 1e-3);
    }
}
