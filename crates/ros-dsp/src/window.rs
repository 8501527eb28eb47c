//! Window (taper) functions for spectral analysis.
//!
//! The RCS frequency spectrum (paper Eq. 7) is computed from a finite
//! aperture of `u = cos θ` — truncation sidelobes from strong coding
//! peaks can mask weak ones or fill coding nulls, directly hurting the
//! OOK SNR. A Hann or Blackman taper trades a little main-lobe width
//! for 30–60 dB sidelobe suppression; Fig. 17's "FoV truncation"
//! experiment is exactly a window-length study.

use ros_em::units::cast::AsF64;

/// Supported window shapes.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Window {
    /// No taper (boxcar). −13 dB first sidelobe.
    Rect,
    /// Hann (raised cosine). −31.5 dB first sidelobe.
    Hann,
    /// Hamming. −42.7 dB first sidelobe, non-zero ends.
    Hamming,
    /// Blackman. −58 dB first sidelobe, widest main lobe of the set.
    Blackman,
}

impl Window {
    /// Evaluates the window at sample `i` of `n` (symmetric convention).
    pub fn coeff(self, i: usize, n: usize) -> f64 {
        if n <= 1 {
            return 1.0;
        }
        let x = i.as_f64() / (n - 1).as_f64();
        let tau = std::f64::consts::TAU;
        match self {
            Window::Rect => 1.0,
            Window::Hann => 0.5 - 0.5 * (tau * x).cos(),
            Window::Hamming => 0.54 - 0.46 * (tau * x).cos(),
            Window::Blackman => 0.42 - 0.5 * (tau * x).cos() + 0.08 * (2.0 * tau * x).cos(),
        }
    }

    /// Generates the full window of length `n`.
    pub fn generate(self, n: usize) -> Vec<f64> {
        (0..n).map(|i| self.coeff(i, n)).collect()
    }

    /// Applies the window to a signal in place.
    pub fn apply(self, signal: &mut [f64]) {
        let n = signal.len();
        for (i, s) in signal.iter_mut().enumerate() {
            *s *= self.coeff(i, n);
        }
    }

    /// Coherent gain: mean of the coefficients (amplitude scaling a
    /// windowed tone suffers); used to normalize peak amplitudes.
    pub fn coherent_gain(self, n: usize) -> f64 {
        if n == 0 {
            return 1.0;
        }
        self.generate(n).iter().sum::<f64>() / n.as_f64()
    }

    /// Stable cache key for plan maps (`BTreeMap`-friendly).
    pub fn key(self) -> u8 {
        match self {
            Window::Rect => 0,
            Window::Hann => 1,
            Window::Hamming => 2,
            Window::Blackman => 3,
        }
    }
}

/// A window evaluated once for a fixed length: coefficient table plus
/// precomputed coherent gain.
///
/// [`Window::apply`] and [`Window::coherent_gain`] re-evaluate the
/// taper (and the gain even allocates a scratch vector) on every call;
/// on the per-frame hot path that cost is pure waste because the
/// length never changes. `WindowTable` front-loads both, and its
/// [`taper`](WindowTable::taper) runs allocation-free with bit-identical
/// results (the table is filled by the same [`Window::coeff`] the
/// direct path evaluates).
#[derive(Clone, Debug)]
pub struct WindowTable {
    window: Window,
    coeffs: Vec<f64>,
    gain: f64,
}

impl WindowTable {
    /// Evaluates `window` for signals of length `n`.
    pub fn new(window: Window, n: usize) -> Self {
        WindowTable {
            window,
            coeffs: window.generate(n),
            gain: window.coherent_gain(n),
        }
    }

    /// The window shape this table was built from.
    pub fn window(&self) -> Window {
        self.window
    }

    /// Signal length the table covers.
    pub fn len(&self) -> usize {
        self.coeffs.len()
    }

    /// True when built for length 0.
    pub fn is_empty(&self) -> bool {
        self.coeffs.is_empty()
    }

    /// The raw coefficient table.
    pub(crate) fn coeffs(&self) -> &[f64] {
        &self.coeffs
    }

    /// Precomputed coherent gain — the same value
    /// [`Window::coherent_gain`] computes, without the per-call
    /// allocation.
    pub fn gain(&self) -> f64 {
        self.gain
    }

    /// Applies the taper in place; bit-identical to [`Window::apply`]
    /// on a signal of the planned length.
    ///
    /// # Panics
    /// Panics if `signal.len()` differs from the table length.
    pub fn taper(&self, signal: &mut [f64]) {
        assert_eq!(
            signal.len(),
            self.coeffs.len(),
            "window table is for length {}",
            self.coeffs.len()
        );
        for (s, &c) in signal.iter_mut().zip(self.coeffs.iter()) {
            *s *= c;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rect_is_all_ones() {
        assert!(Window::Rect.generate(9).iter().all(|&c| c == 1.0));
        assert_eq!(Window::Rect.coherent_gain(16), 1.0);
    }

    #[test]
    fn hann_endpoints_and_peak() {
        let w = Window::Hann.generate(9);
        assert!(w[0].abs() < 1e-12);
        assert!(w[8].abs() < 1e-12);
        assert!((w[4] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn hamming_endpoints_nonzero() {
        let w = Window::Hamming.generate(11);
        assert!((w[0] - 0.08).abs() < 1e-12);
        assert!((w[10] - 0.08).abs() < 1e-12);
        assert!((w[5] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn blackman_endpoints_zero() {
        let w = Window::Blackman.generate(17);
        assert!(w[0].abs() < 1e-12);
        assert!((w[8] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn windows_are_symmetric() {
        for win in [
            Window::Rect,
            Window::Hann,
            Window::Hamming,
            Window::Blackman,
        ] {
            let w = win.generate(33);
            for i in 0..w.len() {
                assert!(
                    (w[i] - w[w.len() - 1 - i]).abs() < 1e-12,
                    "{win:?} asymmetric at {i}"
                );
            }
        }
    }

    #[test]
    fn coherent_gains_ordered() {
        // Heavier tapers give smaller coherent gain.
        let n = 256;
        let rect = Window::Rect.coherent_gain(n);
        let hann = Window::Hann.coherent_gain(n);
        let blackman = Window::Blackman.coherent_gain(n);
        assert!(rect > hann && hann > blackman);
        assert!((hann - 0.5).abs() < 0.01);
        assert!((blackman - 0.42).abs() < 0.01);
    }

    #[test]
    fn apply_scales_signal() {
        let mut s = vec![2.0; 5];
        Window::Hann.apply(&mut s);
        assert!(s[0].abs() < 1e-12);
        assert!((s[2] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn degenerate_lengths() {
        assert_eq!(Window::Hann.generate(0).len(), 0);
        assert_eq!(Window::Hann.generate(1), vec![1.0]);
        assert_eq!(Window::Blackman.coeff(0, 1), 1.0);
    }

    #[test]
    fn table_matches_direct_window_bitwise() {
        for win in [
            Window::Rect,
            Window::Hann,
            Window::Hamming,
            Window::Blackman,
        ] {
            for n in [0usize, 1, 7, 64] {
                let table = WindowTable::new(win, n);
                assert_eq!(table.window(), win);
                assert_eq!(table.len(), n);
                assert_eq!(
                    table.gain().to_bits(),
                    win.coherent_gain(n).to_bits(),
                    "{win:?} n={n}"
                );
                let mut direct: Vec<f64> = (0..n).map(|i| 1.0 + i as f64).collect();
                let mut tabled = direct.clone();
                win.apply(&mut direct);
                table.taper(&mut tabled);
                for (a, b) in direct.iter().zip(&tabled) {
                    assert_eq!(a.to_bits(), b.to_bits(), "{win:?} n={n}");
                }
            }
        }
    }

    #[test]
    fn window_keys_distinct() {
        let keys: Vec<u8> = [
            Window::Rect,
            Window::Hann,
            Window::Hamming,
            Window::Blackman,
        ]
        .iter()
        .map(|w| w.key())
        .collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), keys.len());
    }

    #[test]
    fn hann_sidelobes_below_30db() {
        // Windowed tone: sidelobe level in the padded spectrum.
        use crate::fft::{magnitudes, spectrum_padded};
        let n = 64;
        let k0 = 8.0;
        let mut x: Vec<f64> = (0..n)
            .map(|i| (std::f64::consts::TAU * k0 * i as f64 / n as f64).cos())
            .collect();
        Window::Hann.apply(&mut x);
        let spec = magnitudes(&spectrum_padded(&x, n * 16));
        let nfft = spec.len();
        let peak_bin = (k0 as usize) * nfft / n;
        let peak = spec[peak_bin.saturating_sub(8)..peak_bin + 8]
            .iter()
            .cloned()
            .fold(0.0, f64::max);
        // Far sidelobe well away from the main lobe (and its image).
        let far = spec[nfft / 4]; // bin 16-of-64 equivalent, ~8 bins away
        let ratio_db = 20.0 * (peak / far).log10();
        assert!(
            ratio_db > 30.0,
            "sidelobe suppression only {ratio_db:.1} dB"
        );
    }
}
