//! Iterative radix-2 FFT/IFFT.
//!
//! Two call sites drive the requirements:
//!
//! 1. **Range processing** (paper Eq. 3): an FFT over 256 IF samples
//!    per chirp — small, power-of-two, hot path.
//! 2. **RCS frequency spectrum** (paper Eq. 7): an FFT over the
//!    RSS-vs-`u` trace, heavily zero-padded so sub-wavelength stack
//!    spacings resolve into clean peaks.
//!
//! Both fit a classic in-place radix-2 Cooley–Tukey with precomputable
//! twiddles. Inputs that are not a power of two are zero-padded by the
//! convenience wrappers ([`spectrum_padded`]); `fft_in_place` itself
//! panics on non-power-of-two lengths to catch programming errors
//! early, smoltcp-style (explicit > clever).

use ros_em::units::cast::AsF64;
use ros_em::Complex64;

/// Returns true when `n` is a power of two (and non-zero).
#[inline]
pub fn is_power_of_two(n: usize) -> bool {
    n != 0 && (n & (n - 1)) == 0
}

/// The smallest power of two ≥ `n`.
#[inline]
pub fn next_power_of_two(n: usize) -> usize {
    n.next_power_of_two()
}

/// In-place forward FFT (engineering sign: `X[k] = Σ x[n]·e^{−j2πnk/N}`).
///
/// # Panics
/// Panics if `data.len()` is not a power of two.
pub fn fft_in_place(data: &mut [Complex64]) {
    transform(data, false);
}

/// In-place inverse FFT, normalized by `1/N` so that
/// `ifft(fft(x)) == x`.
///
/// # Panics
/// Panics if `data.len()` is not a power of two.
pub fn ifft_in_place(data: &mut [Complex64]) {
    transform(data, true);
    let n = data.len().as_f64();
    for v in data.iter_mut() {
        *v = *v / n;
    }
}

fn transform(data: &mut [Complex64], inverse: bool) {
    let n = data.len();
    assert!(
        is_power_of_two(n),
        "FFT length must be a power of two, got {n}"
    );
    if n <= 1 {
        return;
    }

    // Bit-reversal permutation.
    let mut j = 0usize;
    for i in 0..n {
        if i < j {
            data.swap(i, j);
        }
        let mut m = n >> 1;
        while m >= 1 && j & m != 0 {
            j ^= m;
            m >>= 1;
        }
        j |= m;
    }

    // Danielson–Lanczos butterflies.
    let sign = if inverse { 1.0 } else { -1.0 };
    let mut len = 2;
    while len <= n {
        let ang = sign * std::f64::consts::TAU / len.as_f64();
        let wlen = Complex64::cis(ang);
        let mut i = 0;
        while i < n {
            let mut w = Complex64::ONE;
            for k in 0..len / 2 {
                let u = data[i + k];
                let v = data[i + k + len / 2] * w;
                data[i + k] = u + v;
                data[i + k + len / 2] = u - v;
                w *= wlen;
            }
            i += len;
        }
        len <<= 1;
    }
}

/// A precomputed radix-2 FFT plan for one transform size.
///
/// FFTW-style setup/execute split: [`FftPlan::new`] does all the
/// trigonometry (per-stage forward twiddle tables) and the
/// bit-reversal permutation once; [`FftPlan::process_forward`] then
/// runs allocation-free inside the steady-state frame. Twiddles are
/// generated with the *same* `w = w · w_len` recurrence the direct
/// [`fft_in_place`] butterfly uses, so planned transforms are
/// bit-identical to the direct ones — a property pinned by the
/// plan-identity proptests.
#[derive(Clone, Debug)]
pub struct FftPlan {
    n: usize,
    /// Bit-reversal target for each index (u32 keeps the table compact).
    rev: Vec<u32>,
    /// Concatenated per-stage forward twiddles (len/2 entries per stage).
    fwd: Vec<Complex64>,
}

impl FftPlan {
    /// Builds a plan for transforms of length `n`.
    ///
    /// # Panics
    /// Panics if `n` is not a power of two.
    #[expect(
        clippy::as_conversions,
        reason = "a bit-reversal index is < n, which fits u32"
    )]
    pub fn new(n: usize) -> Self {
        assert!(
            is_power_of_two(n),
            "FFT length must be a power of two, got {n}"
        );
        // Bit-reversal permutation targets — the identical j-walk
        // `transform` performs, captured once.
        let mut rev = Vec::with_capacity(n);
        let mut j = 0usize;
        for _ in 0..n {
            rev.push(j as u32);
            let mut m = n >> 1;
            while m >= 1 && j & m != 0 {
                j ^= m;
                m >>= 1;
            }
            j |= m;
        }
        // Twiddles via the exact butterfly recurrence (not
        // `cis(k·ang)`), so fwd[k] has the same bits as the running
        // `w` in the direct implementation.
        let mut fwd = Vec::new();
        let mut len = 2;
        while len <= n {
            let ang = -std::f64::consts::TAU / len.as_f64();
            let wlen = Complex64::cis(ang);
            let mut w = Complex64::ONE;
            for _ in 0..len / 2 {
                fwd.push(w);
                w *= wlen;
            }
            len <<= 1;
        }
        FftPlan { n, rev, fwd }
    }

    /// Transform size this plan was built for.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True only for the degenerate length-0 plan (which cannot exist:
    /// `new` rejects 0). Present for API completeness.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// In-place forward FFT; bit-identical to [`fft_in_place`].
    ///
    /// # Panics
    /// Panics if `data.len()` differs from the planned size.
    pub fn process_forward(&self, data: &mut [Complex64]) {
        let n = self.n;
        assert_eq!(data.len(), n, "plan is for length {n}");
        if n <= 1 {
            return;
        }
        for i in 0..n {
            #[expect(clippy::as_conversions, reason = "u32 widens losslessly to usize")]
            let j = self.rev[i] as usize;
            if i < j {
                data.swap(i, j);
            }
        }
        let mut base = 0usize;
        let mut len = 2;
        while len <= n {
            let half = len / 2;
            let stage = &self.fwd[base..base + half];
            let mut i = 0;
            while i < n {
                for k in 0..half {
                    let u = data[i + k];
                    let v = data[i + k + half] * stage[k];
                    data[i + k] = u + v;
                    data[i + k + half] = u - v;
                }
                i += len;
            }
            base += half;
            len <<= 1;
        }
    }
}

/// Forward FFT of a real-valued sequence, zero-padded to at least
/// `min_len` (rounded up to a power of two). Returns the full complex
/// spectrum of length `max(len, min_len).next_power_of_two()`.
pub fn spectrum_padded(signal: &[f64], min_len: usize) -> Vec<Complex64> {
    let n = next_power_of_two(signal.len().max(min_len).max(1));
    let mut buf: Vec<Complex64> = Vec::with_capacity(n);
    buf.extend(signal.iter().map(|&x| Complex64::real(x)));
    buf.resize(n, Complex64::ZERO);
    fft_in_place(&mut buf);
    buf
}

/// Magnitudes of a complex spectrum.
pub fn magnitudes(spec: &[Complex64]) -> Vec<f64> {
    spec.iter().map(|c| c.abs()).collect()
}

/// Power (|·|²) of a complex spectrum.
pub fn powers(spec: &[Complex64]) -> Vec<f64> {
    spec.iter().map(|c| c.norm_sqr()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: Complex64, b: Complex64, tol: f64) {
        assert!((a - b).abs() < tol, "{a:?} vs {b:?}");
    }

    #[test]
    fn power_of_two_helpers() {
        assert!(is_power_of_two(1));
        assert!(is_power_of_two(1024));
        assert!(!is_power_of_two(0));
        assert!(!is_power_of_two(3));
        assert_eq!(next_power_of_two(5), 8);
        assert_eq!(next_power_of_two(8), 8);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn fft_rejects_non_power_of_two() {
        let mut d = vec![Complex64::ZERO; 3];
        fft_in_place(&mut d);
    }

    #[test]
    fn fft_of_impulse_is_flat() {
        let mut d = vec![Complex64::ZERO; 8];
        d[0] = Complex64::ONE;
        fft_in_place(&mut d);
        for v in &d {
            assert_close(*v, Complex64::ONE, 1e-12);
        }
    }

    #[test]
    fn fft_of_dc_is_impulse() {
        let mut d = vec![Complex64::ONE; 16];
        fft_in_place(&mut d);
        assert_close(d[0], Complex64::real(16.0), 1e-12);
        for v in &d[1..] {
            assert!(v.abs() < 1e-12);
        }
    }

    #[test]
    fn single_tone_lands_in_one_bin() {
        let n = 64;
        let k0 = 5;
        let mut d: Vec<Complex64> = (0..n)
            .map(|i| Complex64::cis(std::f64::consts::TAU * k0 as f64 * i as f64 / n as f64))
            .collect();
        fft_in_place(&mut d);
        for (k, v) in d.iter().enumerate() {
            if k == k0 {
                assert!((v.abs() - n as f64).abs() < 1e-9);
            } else {
                assert!(v.abs() < 1e-9, "leak at bin {k}: {}", v.abs());
            }
        }
    }

    #[test]
    fn ifft_inverts_fft() {
        let n = 32;
        let orig: Vec<Complex64> = (0..n)
            .map(|i| Complex64::new((i as f64).sin(), (i as f64 * 0.7).cos()))
            .collect();
        let mut d = orig.clone();
        fft_in_place(&mut d);
        ifft_in_place(&mut d);
        for (a, b) in d.iter().zip(&orig) {
            assert_close(*a, *b, 1e-10);
        }
    }

    #[test]
    fn parseval_energy_conserved() {
        let n = 128;
        let x: Vec<Complex64> = (0..n)
            .map(|i| Complex64::new((i as f64 * 0.3).sin(), (i as f64 * 1.1).cos() * 0.5))
            .collect();
        let time_energy: f64 = x.iter().map(|c| c.norm_sqr()).sum();
        let mut d = x;
        fft_in_place(&mut d);
        let freq_energy: f64 = d.iter().map(|c| c.norm_sqr()).sum::<f64>() / n as f64;
        assert!((time_energy - freq_energy).abs() < 1e-9 * time_energy);
    }

    #[test]
    fn fft_linearity() {
        let n = 16;
        let a: Vec<Complex64> = (0..n).map(|i| Complex64::real(i as f64)).collect();
        let b: Vec<Complex64> = (0..n)
            .map(|i| Complex64::new(0.0, (i * i) as f64))
            .collect();
        let sum: Vec<Complex64> = a.iter().zip(&b).map(|(&x, &y)| x + y).collect();
        let mut fa = a.clone();
        let mut fb = b.clone();
        let mut fs = sum;
        fft_in_place(&mut fa);
        fft_in_place(&mut fb);
        fft_in_place(&mut fs);
        for i in 0..n {
            assert_close(fs[i], fa[i] + fb[i], 1e-9);
        }
    }

    #[test]
    fn padding_rounds_up() {
        let spec = spectrum_padded(&[1.0, 2.0, 3.0], 10);
        assert_eq!(spec.len(), 16);
        let spec = spectrum_padded(&[1.0; 16], 4);
        assert_eq!(spec.len(), 16);
        let spec = spectrum_padded(&[], 0);
        assert_eq!(spec.len(), 1);
    }

    #[test]
    fn padded_spectrum_dc_value() {
        // DC bin equals the sum of the input regardless of padding.
        let x = [1.0, 2.0, 3.0, 4.0];
        let spec = spectrum_padded(&x, 64);
        assert!((spec[0].re - 10.0).abs() < 1e-12);
        assert!(spec[0].im.abs() < 1e-12);
    }

    #[test]
    fn real_spectrum_is_conjugate_symmetric() {
        let x = [0.3, -1.2, 2.5, 0.0, 1.1, -0.7, 0.2, 0.9];
        let spec = spectrum_padded(&x, 8);
        let n = spec.len();
        for k in 1..n / 2 {
            assert_close(spec[k], spec[n - k].conj(), 1e-10);
        }
    }

    #[test]
    fn magnitudes_and_powers() {
        let spec = vec![Complex64::new(3.0, 4.0), Complex64::ZERO];
        assert_eq!(magnitudes(&spec), vec![5.0, 0.0]);
        assert_eq!(powers(&spec), vec![25.0, 0.0]);
    }

    fn ramp(n: usize) -> Vec<Complex64> {
        (0..n)
            .map(|i| Complex64::new((i as f64 * 0.37).sin(), (i as f64 * 1.3).cos()))
            .collect()
    }

    #[test]
    fn plan_forward_bit_identical_to_direct() {
        for n in [1usize, 2, 4, 8, 64, 256] {
            let plan = FftPlan::new(n);
            assert_eq!(plan.len(), n);
            let mut a = ramp(n);
            let mut b = a.clone();
            fft_in_place(&mut a);
            plan.process_forward(&mut b);
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.re.to_bits(), y.re.to_bits(), "n={n}");
                assert_eq!(x.im.to_bits(), y.im.to_bits(), "n={n}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn plan_rejects_non_power_of_two() {
        let _ = FftPlan::new(12);
    }

    #[test]
    #[should_panic(expected = "plan is for length")]
    fn plan_rejects_wrong_length() {
        let plan = FftPlan::new(8);
        let mut d = vec![Complex64::ZERO; 4];
        plan.process_forward(&mut d);
    }

    #[test]
    fn plan_reuse_is_stateless() {
        // Two consecutive executes on the same plan give the same bits
        // — the plan carries no per-call state.
        let plan = FftPlan::new(32);
        let orig = ramp(32);
        let mut a = orig.clone();
        let mut b = orig.clone();
        plan.process_forward(&mut a);
        plan.process_forward(&mut b);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.re.to_bits(), y.re.to_bits());
            assert_eq!(x.im.to_bits(), y.im.to_bits());
        }
    }
}
