//! Single-bin DFT (Goertzel-style) evaluation.
//!
//! The radar's spotlight beamformer (§6) needs the spectrum at *one*
//! arbitrary (fractional) frequency per frame — a full FFT would waste
//! work and force on-grid frequencies. This module provides direct
//! single-bin evaluation with optional windowing, used by
//! `ros_radar::processing::spotlight_with` (through the table-driven,
//! all-antennas-at-once [`single_bin_windowed_each`]) and anywhere else
//! a matched single-tone correlation is needed.

use crate::window::WindowTable;
use ros_em::units::cast::AsF64;
use ros_em::Complex64;

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
        ph *= step;
    }
    acc / signal.len().as_f64()
}

/// Windowed single-bin DFT, compensated for the window's coherent
/// gain so tone amplitudes stay calibrated. The direct reference the
/// table-driven [`single_bin_windowed_each`] is pinned against.
#[cfg(test)]
pub fn single_bin_windowed(
    signal: &[Complex64],
    cycles_per_sample: f64,
    window: crate::window::Window,
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
        ph *= step;
    }
    let gain = window.coherent_gain(n).max(1e-12);
    acc / (n.as_f64() * gain)
}

/// Signals one pass of [`single_bin_windowed_each`] correlates side by
/// side against the shared phasor chain.
const SINGLE_BIN_LANES: usize = 4;

/// `single_bin_windowed` of every signal in `signals` (e.g. one per
/// Rx antenna), driven by a precomputed [`WindowTable`]: `each(k, y)`
/// receives signal `k`'s result, in order.
///
/// The `ph ← ph·step` chain is the same for every signal, so one walk
/// over the samples advances it once and updates up to
/// [`SINGLE_BIN_LANES`] accumulators per step. Each signal's sum still
/// gets the terms `s·ph·w` in sample order from the same `ph` values,
/// so every result is bit-identical to `single_bin_windowed` for a
/// table of matching shape and length. Allocation-free: the table
/// carries the coherent gain the direct version recomputes. This is
/// the form the spotlight beamformer uses on the per-frame hot path.
///
/// # Panics
/// Panics if the signals differ in length, or if the table length
/// differs from theirs (empty signals short-circuit to zero first, as
/// in the direct version).
pub fn single_bin_windowed_each<S: AsRef<[Complex64]>>(
    signals: &[S],
    cycles_per_sample: f64,
    table: &WindowTable,
    mut each: impl FnMut(usize, Complex64),
) {
    let n = signals.first().map_or(0, |s| s.as_ref().len());
    for s in signals {
        assert_eq!(s.as_ref().len(), n, "signals differ in length");
    }
    if n == 0 {
        for k in 0..signals.len() {
            each(k, Complex64::ZERO);
        }
        return;
    }
    let coeffs = table.coeffs();
    assert_eq!(
        coeffs.len(),
        n,
        "window table is for length {}",
        coeffs.len()
    );
    let w = -std::f64::consts::TAU * cycles_per_sample;
    let step = Complex64::cis(w);
    let norm = n.as_f64() * table.gain().max(1e-12);
    for (c, chunk) in signals.chunks(SINGLE_BIN_LANES).enumerate() {
        // Lanes past a short last chunk re-read its first signal; their
        // sums are dropped.
        let lanes: [&[Complex64]; SINGLE_BIN_LANES] =
            std::array::from_fn(|l| chunk.get(l).unwrap_or(&chunk[0]).as_ref());
        let mut ph = Complex64::ONE;
        let mut acc = [Complex64::ZERO; SINGLE_BIN_LANES];
        for (i, &wi) in coeffs.iter().enumerate() {
            for (a, lane) in acc.iter_mut().zip(lanes) {
                *a += lane[i] * ph * wi;
            }
            ph *= step;
        }
        for (l, &a) in acc.iter().take(chunk.len()).enumerate() {
            each(c * SINGLE_BIN_LANES + l, a / norm);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::window::Window;

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
        let mut got = Vec::new();
        single_bin_windowed_each(&[[]; 3], 0.1, &table, |k, y| got.push((k, y)));
        assert_eq!(
            got,
            [
                (0, Complex64::ZERO),
                (1, Complex64::ZERO),
                (2, Complex64::ZERO)
            ]
        );
    }

    #[test]
    fn table_variant_bit_identical() {
        // Antenna counts around the lane width (one short chunk, one
        // full, one full plus a short one, two full) at the empty,
        // single-sample and frame lengths.
        let f = 10.37 / 256.0;
        for n_rx in [1usize, 3, 4, 5, 8] {
            for n in [0usize, 1, 256] {
                let signals: Vec<Vec<Complex64>> = (0..n_rx)
                    .map(|k| {
                        tone(
                            n,
                            f + k as f64 * 0.013,
                            1.7 - 0.1 * k as f64,
                            -0.4 + k as f64,
                        )
                    })
                    .collect();
                for win in [
                    Window::Rect,
                    Window::Hann,
                    Window::Hamming,
                    Window::Blackman,
                ] {
                    let table = WindowTable::new(win, n);
                    let mut got = Vec::new();
                    single_bin_windowed_each(&signals, f, &table, |k, y| got.push((k, y)));
                    assert_eq!(got.len(), n_rx);
                    for (k, (idx, y)) in got.into_iter().enumerate() {
                        let direct = single_bin_windowed(&signals[k], f, win);
                        let at = format!("{win:?} n_rx {n_rx} n {n} k {k}");
                        assert_eq!(idx, k, "{at}");
                        assert_eq!(direct.re.to_bits(), y.re.to_bits(), "{at}");
                        assert_eq!(direct.im.to_bits(), y.im.to_bits(), "{at}");
                    }
                }
            }
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
