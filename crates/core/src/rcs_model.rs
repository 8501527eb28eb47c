//! The §5.1 analytic multi-stack RCS model (Eqs. 6–7).
//!
//! For `M` stacks at positions `d_k` and a far-field radar at
//! direction cosine `u = cos θ` (equivalently `sin` of the azimuth
//! from broadside in our convention):
//!
//! ```text
//! r_s(u) = r_T(u) · |Σ_k e^{j·4π·d_k·u/λ}|²
//!        = r_T(u) · (M + 2·Σ_{k<l} cos(4π(d_k−d_l)u/λ))
//! ```
//!
//! A Fourier transform over `u` turns each pairwise spacing into a
//! spectral peak at `(d_k − d_l)/(λ/2)` cycles per unit `u` — the RCS
//! frequency spectrum whose coding-band peaks carry the bits. With
//! `u ∈ [−1, 1]` the spacing resolution is λ/4 (§5.1).

use ros_dsp::fft::{magnitudes, spectrum_padded, FftPlan};
use ros_dsp::window::{Window, WindowTable};
use ros_em::units::cast::AsF64;
use ros_em::Complex64;

/// The analytic array factor `|Σ e^{j4πd·u/λ}|²` of Eq. 6.
pub fn multi_stack_factor(positions_m: &[f64], u: f64, lambda_m: f64) -> f64 {
    let k = 2.0 * std::f64::consts::TAU / lambda_m; // 4π/λ
    let (mut re, mut im) = (0.0, 0.0);
    for &d in positions_m {
        let ph = k * d * u;
        re += ph.cos();
        im += ph.sin();
    }
    re * re + im * im
}

/// Below this grid size the u-sweep runs serially — thread spawn
/// overhead beats the arithmetic for small sweeps.
const PAR_GRID_THRESHOLD: usize = 256;

/// Samples `r_s(u)/r_T(u)` (the normalized Eq.-6 factor) on a uniform
/// `u` grid spanning `[-u_max, u_max]`.
///
/// Each grid point is an independent evaluation of
/// [`multi_stack_factor`], so large sweeps fan out over
/// [`ros_exec::par_map`]; results are bit-identical at any
/// thread count (per-point arithmetic is untouched and output order
/// is the grid order).
pub fn sample_rcs_factor(positions_m: &[f64], lambda_m: f64, u_max: f64, n: usize) -> Vec<f64> {
    assert!(n >= 2 && u_max > 0.0);
    let point = |i: usize| {
        let u = -u_max + 2.0 * u_max * i.as_f64() / (n - 1).as_f64();
        multi_stack_factor(positions_m, u, lambda_m)
    };
    if n < PAR_GRID_THRESHOLD {
        return (0..n).map(point).collect();
    }
    let grid: Vec<usize> = (0..n).collect();
    ros_exec::par_map(&grid, |&i| point(i))
}

/// The RCS frequency spectrum of a sampled RCS trace.
///
/// Input: `rcs[i]` sampled uniformly over `u ∈ [−u_max, u_max]`.
/// Output: `(spacings_m, magnitude)` — magnitude of the spectrum as a
/// function of the *physical spacing* axis (metres), positive
/// frequencies only. The DC term is removed and a Hann window applied
/// before the FFT, as the decoder does.
pub fn rcs_spectrum(
    rcs: &[f64],
    u_max: f64,
    lambda_m: f64,
    zero_pad_factor: usize,
) -> (Vec<f64>, Vec<f64>) {
    rcs_spectrum_windowed(rcs, u_max, lambda_m, zero_pad_factor, Window::Hann)
}

/// [`rcs_spectrum`] with an explicit taper (for windowing ablations).
pub fn rcs_spectrum_windowed(
    rcs: &[f64],
    u_max: f64,
    lambda_m: f64,
    zero_pad_factor: usize,
    window: Window,
) -> (Vec<f64>, Vec<f64>) {
    assert!(!rcs.is_empty() && u_max > 0.0 && zero_pad_factor >= 1);
    let mean = rcs.iter().sum::<f64>() / rcs.len().as_f64();
    let mut centred: Vec<f64> = rcs.iter().map(|&r| r - mean).collect();
    window.apply(&mut centred);

    let n_fft = (rcs.len() * zero_pad_factor).next_power_of_two();
    let spec = spectrum_padded(&centred, n_fft);
    let mags = magnitudes(&spec);

    // Frequency axis: bin b ↔ b/(span of u) cycles per u; a spacing s
    // produces 2s/λ cycles per u ⇒ s = bin·λ/(2·span·...)
    let span_u = 2.0 * u_max;
    let half = mags.len() / 2;
    let mut spacings = Vec::with_capacity(half);
    let mut out = Vec::with_capacity(half);
    for (b, &m) in mags.iter().take(half).enumerate() {
        // The FFT assumes unit sample spacing; sample i corresponds to
        // u-step span_u/(len−1). Frequency of bin b in cycles/sample:
        // b/n_fft ⇒ cycles per u: b/n_fft·(len−1)/span_u.
        let cycles_per_u = b.as_f64() / mags.len().as_f64() * (rcs.len() - 1).as_f64() / span_u;
        spacings.push(cycles_per_u * lambda_m / 2.0);
        out.push(m);
    }
    (spacings, out)
}

/// Scratch-buffer twin of [`rcs_spectrum_windowed`]: identical
/// `(spacings, mags)` written into the output buffers via a
/// precomputed window table and FFT plan (the plan must be sized for
/// `(rcs.len() · zero_pad_factor).next_power_of_two()`).
/// Allocation-free once the buffers have grown to capacity.
#[allow(clippy::too_many_arguments)]
pub fn rcs_spectrum_windowed_into(
    rcs: &[f64],
    u_max: f64,
    lambda_m: f64,
    zero_pad_factor: usize,
    table: &WindowTable,
    plan: &FftPlan,
    centred: &mut Vec<f64>,
    work: &mut Vec<Complex64>,
    spacings: &mut Vec<f64>,
    mags: &mut Vec<f64>,
) {
    assert!(!rcs.is_empty() && u_max > 0.0 && zero_pad_factor >= 1);
    let n_fft = (rcs.len() * zero_pad_factor).next_power_of_two();
    assert_eq!(
        plan.len(),
        n_fft,
        "FFT plan sized for the wrong zero-padded length"
    );
    let mean = rcs.iter().sum::<f64>() / rcs.len().as_f64();
    centred.clear();
    for &r in rcs {
        centred.push(r - mean);
    }
    table.taper(centred);

    work.clear();
    for &x in centred.iter() {
        work.push(Complex64::real(x));
    }
    work.resize(n_fft, Complex64::ZERO);
    plan.process_forward(work);

    let span_u = 2.0 * u_max;
    let half = n_fft / 2;
    spacings.clear();
    mags.clear();
    for (b, c) in work.iter().take(half).enumerate() {
        let cycles_per_u = b.as_f64() / n_fft.as_f64() * (rcs.len() - 1).as_f64() / span_u;
        spacings.push(cycles_per_u * lambda_m / 2.0);
        mags.push(c.abs());
    }
}

/// Finds the spectrum magnitude at (nearest to) a target spacing.
pub fn magnitude_at_spacing(spacings_m: &[f64], mags: &[f64], target_m: f64) -> f64 {
    assert_eq!(spacings_m.len(), mags.len());
    if spacings_m.is_empty() {
        return 0.0;
    }
    let mut best = 0usize;
    let mut best_err = f64::INFINITY;
    for (i, &s) in spacings_m.iter().enumerate() {
        let e = (s - target_m).abs();
        if e < best_err {
            best_err = e;
            best = i;
        }
    }
    mags[best]
}

#[cfg(test)]
mod tests {
    use super::*;
    use ros_em::constants::LAMBDA_CENTER_M;

    const LAM: f64 = LAMBDA_CENTER_M;

    fn paper_positions() -> Vec<f64> {
        [0.0, 6.0, -7.5, 9.0, -10.5]
            .iter()
            .map(|x| x * LAM)
            .collect()
    }

    #[test]
    fn factor_peak_at_broadside() {
        let pos = paper_positions();
        // u = 0: all stacks in phase → M².
        assert!((multi_stack_factor(&pos, 0.0, LAM) - 25.0).abs() < 1e-9);
    }

    #[test]
    fn factor_matches_cosine_expansion() {
        // Eq. 6: M + 2·Σ cos(4πΔd·u/λ).
        let pos = paper_positions();
        let u = 0.137;
        let m = pos.len() as f64;
        let mut expansion = m;
        for i in 0..pos.len() {
            for j in i + 1..pos.len() {
                expansion +=
                    2.0 * (2.0 * std::f64::consts::TAU * (pos[i] - pos[j]) * u / LAM).cos();
            }
        }
        let direct = multi_stack_factor(&pos, u, LAM);
        assert!((direct - expansion).abs() < 1e-9);
    }

    #[test]
    fn spectrum_shows_four_coding_peaks() {
        // Fig. 10c: peaks at 6, 7.5, 9, 10.5 λ.
        let pos = paper_positions();
        let rcs = sample_rcs_factor(&pos, LAM, 1.0, 512);
        let (spacings, mags) = rcs_spectrum(&rcs, 1.0, LAM, 8);
        let peak_floor = mags.iter().cloned().fold(0.0, f64::max) / 10.0;
        for slot in [6.0, 7.5, 9.0, 10.5] {
            let m = magnitude_at_spacing(&spacings, &mags, slot * LAM);
            assert!(
                m > peak_floor,
                "coding peak at {slot}λ missing: {m} vs floor {peak_floor}"
            );
        }
        // A non-slot position inside the band stays low.
        let null = magnitude_at_spacing(&spacings, &mags, 6.75 * LAM);
        let peak = magnitude_at_spacing(&spacings, &mags, 6.0 * LAM);
        assert!(null < peak / 3.0, "null {null} vs peak {peak}");
    }

    #[test]
    fn spectrum_zero_bits_have_no_peaks() {
        // Tag "1010": slots 2 (7.5λ) and 4 (10.5λ) empty.
        let pos: Vec<f64> = [0.0, 6.0, 9.0].iter().map(|x| x * LAM).collect();
        let rcs = sample_rcs_factor(&pos, LAM, 1.0, 512);
        let (spacings, mags) = rcs_spectrum(&rcs, 1.0, LAM, 8);
        let p6 = magnitude_at_spacing(&spacings, &mags, 6.0 * LAM);
        let p75 = magnitude_at_spacing(&spacings, &mags, 7.5 * LAM);
        let p9 = magnitude_at_spacing(&spacings, &mags, 9.0 * LAM);
        let p105 = magnitude_at_spacing(&spacings, &mags, 10.5 * LAM);
        assert!(
            p6 > 4.0 * p75,
            "bit-1 slot 6λ {p6} vs bit-0 slot 7.5λ {p75}"
        );
        assert!(p9 > 4.0 * p105);
    }

    #[test]
    fn secondary_peak_at_3lambda_outside_band() {
        // Same-side stacks (6λ, 9λ) create a secondary at 3λ — below
        // the 6λ band edge, never inside it.
        let pos = paper_positions();
        let rcs = sample_rcs_factor(&pos, LAM, 1.0, 512);
        let (spacings, mags) = rcs_spectrum(&rcs, 1.0, LAM, 8);
        let p3 = magnitude_at_spacing(&spacings, &mags, 3.0 * LAM);
        let peak_floor = mags.iter().cloned().fold(0.0, f64::max) / 10.0;
        assert!(p3 > peak_floor, "secondary at 3λ should exist");
    }

    #[test]
    fn resolution_improves_with_span() {
        // §5.1: u ∈ [−1, 1] gives λ/4 spacing resolution; halving the
        // span halves the resolution. Verify two stacks λ/2 apart are
        // resolved at full span.
        let pos = vec![0.0, 0.5 * LAM];
        let rcs = sample_rcs_factor(&pos, LAM, 1.0, 512);
        let (spacings, mags) = rcs_spectrum(&rcs, 1.0, LAM, 8);
        let p = magnitude_at_spacing(&spacings, &mags, 0.5 * LAM);
        let dc_adjacent = magnitude_at_spacing(&spacings, &mags, 0.05 * LAM);
        assert!(p > dc_adjacent, "λ/2 spacing unresolved");
        let _ = dc_adjacent;
    }

    #[test]
    fn windowed_into_bit_identical_to_direct() {
        let pos = paper_positions();
        let rcs = sample_rcs_factor(&pos, LAM, 1.0, 200);
        let zero_pad = 4;
        let n_fft = (rcs.len() * zero_pad).next_power_of_two();
        let plan = FftPlan::new(n_fft);
        let table = WindowTable::new(Window::Hamming, rcs.len());
        let (mut centred, mut work) = (Vec::new(), Vec::new());
        let (mut spacings, mut mags) = (Vec::new(), Vec::new());
        // Twice through the same buffers (first run leaves them dirty).
        for _ in 0..2 {
            rcs_spectrum_windowed_into(
                &rcs,
                1.0,
                LAM,
                zero_pad,
                &table,
                &plan,
                &mut centred,
                &mut work,
                &mut spacings,
                &mut mags,
            );
            let (want_s, want_m) = rcs_spectrum_windowed(&rcs, 1.0, LAM, zero_pad, Window::Hamming);
            assert_eq!(spacings.len(), want_s.len());
            assert_eq!(mags.len(), want_m.len());
            for (a, b) in spacings.iter().zip(&want_s) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
            for (a, b) in mags.iter().zip(&want_m) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn empty_band_for_reference_only_tag() {
        let pos = vec![0.0];
        let rcs = sample_rcs_factor(&pos, LAM, 1.0, 256);
        // Constant trace: spectrum ≈ 0 after mean removal.
        let (_, mags) = rcs_spectrum(&rcs, 1.0, LAM, 4);
        assert!(mags.iter().all(|&m| m < 1e-9));
    }
}
