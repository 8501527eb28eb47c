//! Single-bin DFT (Goertzel-style) evaluation.
//!
//! The radar's spotlight beamformer (§6) needs the spectrum at *one*
//! arbitrary (fractional) frequency per frame — a full FFT would waste
//! work and force on-grid frequencies. This module provides direct
//! single-bin evaluation with optional windowing, used by
//! `ros_radar::processing::spotlight_with` (through the table-driven
//! [`single_bin_windowed_table`]) and anywhere else a matched
//! single-tone correlation is needed.

use crate::window::{Window, WindowTable};
use ros_em::Complex64;
use ros_em::units::cast::AsF64;

/// Complex single-bin DFT of `signal` at `cycles_per_sample`
/// (fractional frequencies welcome), normalized by the signal length:
/// a unit-amplitude complex tone at that exact frequency returns
/// magnitude ≈ 1.
pub fn single_bin(signal: &[Complex64], cycles_per_sample: f64) -> Complex64 {
    if signal.is_empty() {
        return Complex64::ZERO;
    }
    let w = -std::f64::consts::TAU * cycles_per_sample;
    let step = Complex64::cis(w);
    let mut ph = Complex64::ONE;
    let mut acc = Complex64::ZERO;
    for &s in signal {
        acc += s * ph;
        ph = ph * step;
    }
    acc / signal.len().as_f64()
}

/// Windowed single-bin DFT, compensated for the window's coherent
/// gain so tone amplitudes stay calibrated. The direct reference the
/// table-driven [`single_bin_windowed_table`] is pinned against.
pub fn single_bin_windowed(
    signal: &[Complex64],
    cycles_per_sample: f64,
    window: Window,
) -> Complex64 {
    if signal.is_empty() {
        return Complex64::ZERO;
    }
    let n = signal.len();
    let w = -std::f64::consts::TAU * cycles_per_sample;
    let step = Complex64::cis(w);
    let mut ph = Complex64::ONE;
    let mut acc = Complex64::ZERO;
    for (i, &s) in signal.iter().enumerate() {
        acc += s * ph * window.coeff(i, n);
        ph = ph * step;
    }
    let gain = window.coherent_gain(n).max(1e-12);
    acc / (n.as_f64() * gain)
}

/// Windowed single-bin DFT driven by a precomputed [`WindowTable`].
///
/// Bit-identical to [`single_bin_windowed`] for a table of matching
/// shape and length, but allocation-free: the per-call
/// `coherent_gain` scratch vector of the direct version is replaced by
/// the table's stored gain. This is the variant the spotlight
/// beamformer uses on the per-frame hot path.
///
/// # Panics
/// Panics if the table length differs from `signal.len()` (empty
/// signals short-circuit first, as in the direct version).
// lint: hot-path
pub fn single_bin_windowed_table(
    signal: &[Complex64],
    cycles_per_sample: f64,
    table: &WindowTable,
) -> Complex64 {
    if signal.is_empty() {
        return Complex64::ZERO;
    }
    let n = signal.len();
    let coeffs = table.coeffs();
    assert_eq!(coeffs.len(), n, "window table is for length {}", coeffs.len());
    let w = -std::f64::consts::TAU * cycles_per_sample;
    let step = Complex64::cis(w);
    let mut ph = Complex64::ONE;
    let mut acc = Complex64::ZERO;
    for (i, &s) in signal.iter().enumerate() {
        acc += s * ph * coeffs[i];
        ph = ph * step;
    }
    let gain = table.gain().max(1e-12);
    acc / (n.as_f64() * gain)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tone(n: usize, cycles_per_sample: f64, amp: f64, phase: f64) -> Vec<Complex64> {
        (0..n)
            .map(|i| {
                Complex64::from_polar(
                    amp,
                    std::f64::consts::TAU * cycles_per_sample * i as f64 + phase,
                )
            })
            .collect()
    }

    #[test]
    fn recovers_on_grid_tone() {
        let x = tone(256, 10.0 / 256.0, 2.5, 0.7);
        let y = single_bin(&x, 10.0 / 256.0);
        assert!((y.abs() - 2.5).abs() < 1e-9);
        assert!((y.arg() - 0.7).abs() < 1e-9);
    }

    #[test]
    fn recovers_fractional_tone() {
        // Off-grid frequencies are the whole point.
        let f = 10.37 / 256.0;
        let x = tone(256, f, 1.0, -1.1);
        let y = single_bin(&x, f);
        assert!((y.abs() - 1.0).abs() < 1e-9);
        assert!((y.arg() + 1.1).abs() < 1e-9);
    }

    #[test]
    fn rejects_distant_tone() {
        let x = tone(256, 30.0 / 256.0, 1.0, 0.0);
        let y = single_bin(&x, 10.0 / 256.0);
        assert!(y.abs() < 0.05, "leakage {}", y.abs());
    }

    #[test]
    fn windowed_amplitude_calibrated() {
        let f = 20.0 / 256.0;
        let x = tone(256, f, 3.0, 0.2);
        for win in [Window::Rect, Window::Hann, Window::Blackman] {
            let y = single_bin_windowed(&x, f, win);
            assert!(
                (y.abs() - 3.0).abs() < 0.02,
                "{win:?}: amplitude {}",
                y.abs()
            );
        }
    }

    #[test]
    fn windowed_suppresses_neighbours_better() {
        // A strong tone 2.5 bins away: Hann leaks far less than rect.
        let f0 = 20.0 / 256.0;
        let interferer = tone(256, f0 + 2.5 / 256.0, 1.0, 0.0);
        let rect = single_bin_windowed(&interferer, f0, Window::Rect).abs();
        let hann = single_bin_windowed(&interferer, f0, Window::Hann).abs();
        assert!(hann < rect / 3.0, "rect {rect}, hann {hann}");
    }

    #[test]
    fn empty_signal() {
        assert_eq!(single_bin(&[], 0.1), Complex64::ZERO);
        assert_eq!(single_bin_windowed(&[], 0.1, Window::Hann), Complex64::ZERO);
        let table = WindowTable::new(Window::Hann, 0);
        assert_eq!(single_bin_windowed_table(&[], 0.1, &table), Complex64::ZERO);
    }

    #[test]
    fn table_variant_bit_identical() {
        let f = 10.37 / 256.0;
        let x = tone(256, f, 1.7, -0.4);
        for win in [Window::Rect, Window::Hann, Window::Hamming, Window::Blackman] {
            let table = WindowTable::new(win, x.len());
            let direct = single_bin_windowed(&x, f, win);
            let tabled = single_bin_windowed_table(&x, f, &table);
            assert_eq!(direct.re.to_bits(), tabled.re.to_bits(), "{win:?}");
            assert_eq!(direct.im.to_bits(), tabled.im.to_bits(), "{win:?}");
        }
    }

    #[test]
    fn linearity() {
        let f = 5.0 / 128.0;
        let a = tone(128, f, 1.0, 0.0);
        let b = tone(128, f, 2.0, 1.0);
        let sum: Vec<Complex64> = a.iter().zip(&b).map(|(&x, &y)| x + y).collect();
        let ya = single_bin(&a, f);
        let yb = single_bin(&b, f);
        let ys = single_bin(&sum, f);
        assert!((ys - (ya + yb)).abs() < 1e-9);
    }
}
