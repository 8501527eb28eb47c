//! Chirp-Z transform (zoom FFT) via Bluestein's algorithm.
//!
//! The RCS-spectrum decoder needs fine frequency resolution only
//! inside the coding band (6λ–10.5λ of stack spacing for the 4-bit
//! tag). Zero-padding a full FFT to get that resolution wastes most of
//! its bins; the chirp-Z transform evaluates the z-transform along an
//! arbitrary arc — here, a dense sweep of exactly the band of interest
//! — in `O(N log N)` regardless of the zoom factor.
//!
//! `czt(x, m, w, a)` computes `X[k] = Σ_n x[n]·a^{−n}·w^{nk}` for
//! `k = 0..m`, which for `a = e^{j2πf₀}` and `w = e^{−j2πδf}` is the
//! spectrum from `f₀` in steps of `δf` (cycles/sample).

use crate::fft::{fft_in_place, ifft_in_place, FftPlan};
use ros_em::units::cast::AsF64;
use ros_em::Complex64;

/// Chirp-Z transform of `x`: `m` output points along the arc defined
/// by starting point `a` and ratio `w` (both on/near the unit circle).
///
/// Implemented with Bluestein's identity `nk = (n² + k² − (k−n)²)/2`,
/// turning the transform into one convolution of length ≥ `n + m − 1`
/// evaluated by FFT.
///
/// This is the direct (allocating) reference; the hot decode path uses
/// [`CztPlan`], which precomputes the chirp tables once and then runs
/// allocation-free with bit-identical output.
pub fn czt(x: &[Complex64], m: usize, w: Complex64, a: Complex64) -> Vec<Complex64> {
    let n = x.len();
    if n == 0 || m == 0 {
        return vec![Complex64::ZERO; m];
    }

    // Chirp sequence: w^{k²/2} for k up to max(n, m).
    let l = (n + m - 1).next_power_of_two();
    let kmax = n.max(m);
    let mut chirp = Vec::with_capacity(kmax);
    // w = e^{jθ}: compute w^{k²/2} via the phase directly for accuracy.
    let theta = w.arg();
    let mag = w.abs();
    for k in 0..kmax {
        let k2 = (k.as_f64()) * (k.as_f64()) / 2.0;
        let amp = mag.powf(k2);
        chirp.push(Complex64::from_polar(amp, theta * k2));
    }

    // A[n] = x[n]·a^{−n}·w^{n²/2}
    let a_theta = a.arg();
    let a_mag = a.abs();
    let mut fa = vec![Complex64::ZERO; l];
    for i in 0..n {
        let a_pow = Complex64::from_polar(a_mag.powf(-(i.as_f64())), -a_theta * i.as_f64());
        fa[i] = x[i] * a_pow * chirp[i];
    }

    // B[k] = w^{−k²/2}, arranged for circular convolution.
    let mut fb = vec![Complex64::ZERO; l];
    for k in 0..m {
        fb[k] = chirp[k].inv();
    }
    for i in 1..n {
        fb[l - i] = chirp[i].inv();
    }

    fft_in_place(&mut fa);
    fft_in_place(&mut fb);
    for i in 0..l {
        fa[i] *= fb[i];
    }
    ifft_in_place(&mut fa);

    (0..m).map(|k| fa[k] * chirp[k]).collect()
}

/// A precomputed chirp-Z plan: Bluestein chirp tables, `a`-power
/// table, and the pre-transformed convolution kernel `FFT(B)` for one
/// fixed `(n, m, w, a)` quadruple.
///
/// [`CztPlan::process`] reruns only the per-call work — modulate,
/// convolve via the embedded [`FftPlan`], demodulate — into
/// caller-supplied buffers, so steady-state evaluation allocates
/// nothing. The table build uses the exact arithmetic of [`czt`]
/// (same `from_polar` phases, same multiply order), making planned
/// output bit-identical to the direct function.
#[derive(Clone, Debug)]
pub struct CztPlan {
    n: usize,
    m: usize,
    l: usize,
    /// `w^{k²/2}` for `k < max(n, m)`.
    chirp: Vec<Complex64>,
    /// `a^{−i}` for `i < n`.
    a_pow: Vec<Complex64>,
    /// FFT of the arranged `B[k] = w^{−k²/2}` kernel (length `l`).
    fb_fft: Vec<Complex64>,
    fft: FftPlan,
}

impl CztPlan {
    /// Builds a plan for `czt(x, m, w, a)` with `x.len() == n`.
    pub fn new(n: usize, m: usize, w: Complex64, a: Complex64) -> Self {
        if n == 0 || m == 0 {
            return CztPlan {
                n,
                m,
                l: 1,
                chirp: Vec::new(),
                a_pow: Vec::new(),
                fb_fft: Vec::new(),
                fft: FftPlan::new(1),
            };
        }
        let l = (n + m - 1).next_power_of_two();
        let kmax = n.max(m);
        let mut chirp = Vec::with_capacity(kmax);
        let theta = w.arg();
        let mag = w.abs();
        for k in 0..kmax {
            let k2 = (k.as_f64()) * (k.as_f64()) / 2.0;
            let amp = mag.powf(k2);
            chirp.push(Complex64::from_polar(amp, theta * k2));
        }
        let a_theta = a.arg();
        let a_mag = a.abs();
        let mut a_pow = Vec::with_capacity(n);
        for i in 0..n {
            a_pow.push(Complex64::from_polar(
                a_mag.powf(-(i.as_f64())),
                -a_theta * i.as_f64(),
            ));
        }
        let mut fb = vec![Complex64::ZERO; l];
        for k in 0..m {
            fb[k] = chirp[k].inv();
        }
        for i in 1..n {
            fb[l - i] = chirp[i].inv();
        }
        let fft = FftPlan::new(l);
        fft.process_forward(&mut fb);
        CztPlan {
            n,
            m,
            l,
            chirp,
            a_pow,
            fb_fft: fb,
            fft,
        }
    }

    /// Input length `n` the plan expects.
    pub fn input_len(&self) -> usize {
        self.n
    }

    /// Number of output bins `m`.
    pub fn output_len(&self) -> usize {
        self.m
    }

    /// Evaluates the planned transform of `x` into `out`, using `work`
    /// as convolution scratch. Bit-identical to
    /// `czt(x, m, w, a)`; allocation-free once the buffers have grown
    /// to capacity.
    ///
    /// # Panics
    /// Panics if `x.len()` differs from the planned input length.
    #[expect(
        clippy::needless_range_loop,
        reason = "the indexed loops stay as written in this steady-state kernel"
    )]
    pub fn process(&self, x: &[Complex64], work: &mut Vec<Complex64>, out: &mut Vec<Complex64>) {
        assert_eq!(x.len(), self.n, "plan is for input length {}", self.n);
        out.clear();
        if self.n == 0 || self.m == 0 {
            out.resize(self.m, Complex64::ZERO);
            return;
        }
        work.clear();
        work.resize(self.l, Complex64::ZERO);
        for i in 0..self.n {
            work[i] = x[i] * self.a_pow[i] * self.chirp[i];
        }
        self.fft.process_forward(work);
        for i in 0..self.l {
            work[i] *= self.fb_fft[i];
        }
        self.fft.process_inverse(work);
        for k in 0..self.m {
            out.push(work[k] * self.chirp[k]);
        }
    }
}

/// Zoom spectrum of a real signal: `m` bins spanning
/// `[f_start, f_end]` cycles/sample.
///
/// ```
/// use ros_dsp::czt::zoom_spectrum;
/// let tone: Vec<f64> = (0..128)
///     .map(|i| (std::f64::consts::TAU * 0.123 * i as f64).cos())
///     .collect();
/// let spec = zoom_spectrum(&tone, 0.10, 0.15, 256);
/// let peak = spec.iter().enumerate()
///     .max_by(|a, b| a.1.abs().total_cmp(&b.1.abs())).unwrap().0;
/// let f = 0.10 + 0.05 * peak as f64 / 255.0;
/// assert!((f - 0.123).abs() < 1e-3);
/// ```
pub fn zoom_spectrum(signal: &[f64], f_start: f64, f_end: f64, m: usize) -> Vec<Complex64> {
    assert!(m >= 2 && f_end > f_start);
    let x: Vec<Complex64> = signal.iter().map(|&v| Complex64::real(v)).collect();
    let df = (f_end - f_start) / (m - 1).as_f64();
    let a = Complex64::cis(std::f64::consts::TAU * f_start);
    let w = Complex64::cis(-std::f64::consts::TAU * df);
    czt(&x, m, w, a)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dft_direct(x: &[Complex64], m: usize, w: Complex64, a: Complex64) -> Vec<Complex64> {
        (0..m)
            .map(|k| {
                let mut acc = Complex64::ZERO;
                for (n, &xn) in x.iter().enumerate() {
                    // a^{-n} · w^{n·k}
                    let phase = -a.arg() * n as f64 + w.arg() * (n * k) as f64;
                    let ampl = a.abs().powf(-(n as f64)) * w.abs().powf((n * k) as f64);
                    acc += xn * Complex64::from_polar(ampl, phase);
                }
                acc
            })
            .collect()
    }

    #[test]
    fn matches_direct_evaluation() {
        let x: Vec<Complex64> = (0..17)
            .map(|i| Complex64::new((i as f64 * 0.7).sin(), (i as f64 * 0.31).cos()))
            .collect();
        let a = Complex64::cis(0.3);
        let w = Complex64::cis(-0.05);
        let fast = czt(&x, 23, w, a);
        let slow = dft_direct(&x, 23, w, a);
        for (f, s) in fast.iter().zip(&slow) {
            assert!((*f - *s).abs() < 1e-8 * (1.0 + s.abs()), "{f:?} vs {s:?}");
        }
    }

    #[test]
    fn reduces_to_dft_on_the_unit_grid() {
        // CZT with w = e^{−j2π/N}, a = 1 equals the plain DFT.
        let n = 16;
        let x: Vec<Complex64> = (0..n)
            .map(|i| Complex64::cis(std::f64::consts::TAU * 3.0 * i as f64 / n as f64))
            .collect();
        let w = Complex64::cis(-std::f64::consts::TAU / n as f64);
        let out = czt(&x, n, w, Complex64::ONE);
        let mut fft = x.clone();
        crate::fft::fft_in_place(&mut fft);
        for (c, f) in out.iter().zip(&fft) {
            assert!((*c - *f).abs() < 1e-8, "{c:?} vs {f:?}");
        }
    }

    #[test]
    fn zoom_finds_offgrid_tone() {
        // A tone at 0.12345 cycles/sample; zoom into [0.1, 0.15].
        let f0 = 0.12345;
        let n = 200;
        let x: Vec<f64> = (0..n)
            .map(|i| (std::f64::consts::TAU * f0 * i as f64).cos())
            .collect();
        let m = 501;
        let spec = zoom_spectrum(&x, 0.10, 0.15, m);
        let peak = spec
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.abs().total_cmp(&b.1.abs()))
            .unwrap()
            .0;
        let f_peak = 0.10 + 0.05 * peak as f64 / (m - 1) as f64;
        assert!((f_peak - f0).abs() < 2e-4, "peak at {f_peak}");
    }

    #[test]
    fn zoom_resolution_beats_padded_fft_per_flop() {
        // Two tones 0.002 cycles/sample apart, unresolvable by a plain
        // 200-point FFT (resolution 0.005) but split by a 1000-bin zoom
        // over a 0.02-wide band.
        let (f1, f2) = (0.200, 0.202);
        let n = 600;
        let x: Vec<f64> = (0..n)
            .map(|i| {
                (std::f64::consts::TAU * f1 * i as f64).cos()
                    + (std::f64::consts::TAU * f2 * i as f64).cos()
            })
            .collect();
        let spec = zoom_spectrum(&x, 0.195, 0.215, 1000);
        let mags: Vec<f64> = spec.iter().map(|c| c.abs()).collect();
        let peaks = crate::peaks::find_peaks(
            &mags,
            &crate::peaks::PeakParams {
                min_prominence: mags.iter().cloned().fold(0.0, f64::max) * 0.2,
                ..Default::default()
            },
        );
        assert!(peaks.len() >= 2, "found {} peaks", peaks.len());
        let fs: Vec<f64> = peaks
            .iter()
            .take(2)
            .map(|p| 0.195 + 0.02 * p.index as f64 / 999.0)
            .collect();
        let mut fs = fs;
        fs.sort_by(|a, b| a.total_cmp(b));
        assert!((fs[0] - f1).abs() < 5e-4);
        assert!((fs[1] - f2).abs() < 5e-4);
    }

    #[test]
    fn empty_inputs() {
        assert!(czt(&[], 0, Complex64::ONE, Complex64::ONE).is_empty());
        let z = czt(&[], 4, Complex64::ONE, Complex64::ONE);
        assert_eq!(z.len(), 4);
        assert!(z.iter().all(|c| *c == Complex64::ZERO));
    }

    fn assert_bits_eq(a: &[Complex64], b: &[Complex64]) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert_eq!(x.re.to_bits(), y.re.to_bits());
            assert_eq!(x.im.to_bits(), y.im.to_bits());
        }
    }

    #[test]
    fn plan_bit_identical_to_direct() {
        // Includes a deliberately non-power-of-two input length.
        for (n, m) in [(17usize, 23usize), (16, 16), (1, 5), (40, 7)] {
            let x: Vec<Complex64> = (0..n)
                .map(|i| Complex64::new((i as f64 * 0.7).sin(), (i as f64 * 0.31).cos()))
                .collect();
            let a = Complex64::cis(0.3);
            let w = Complex64::cis(-0.05);
            let direct = czt(&x, m, w, a);
            let plan = CztPlan::new(n, m, w, a);
            assert_eq!(plan.input_len(), n);
            assert_eq!(plan.output_len(), m);
            let mut work = Vec::new();
            let mut out = Vec::new();
            plan.process(&x, &mut work, &mut out);
            assert_bits_eq(&direct, &out);
            // Reusing the dirty work/out buffers changes nothing.
            plan.process(&x, &mut work, &mut out);
            assert_bits_eq(&direct, &out);
        }
    }

    #[test]
    fn plan_degenerate_sizes() {
        let plan = CztPlan::new(0, 4, Complex64::ONE, Complex64::ONE);
        let mut work = Vec::new();
        let mut out = Vec::new();
        plan.process(&[], &mut work, &mut out);
        assert_eq!(out.len(), 4);
        assert!(out.iter().all(|c| *c == Complex64::ZERO));
    }
}
