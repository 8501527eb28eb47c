//! Tag decoding: RSS trace → RCS spectrum → coding peaks → bits.
//!
//! Implements the §6 decode flow. The radar has already isolated the
//! tag ([`crate::detector`]) and spotlighted it once per frame; the
//! decoder receives the per-frame complex RSS together with the
//! *believed* radar positions (ground truth ± tracking error) and:
//!
//! 1. maps each sample onto the spectral axis `u = cos θ` (θ measured
//!    from the tag's array axis), keeping samples within the angular
//!    field of view,
//! 2. compensates the slow range/antenna-pattern envelope so the trace
//!    is proportional to RCS ("the RSS is equivalent to a scaled
//!    version of RCS", §6),
//! 3. resamples onto a uniform `u` grid and takes the windowed,
//!    zero-padded FFT — the RCS frequency spectrum (Eq. 7),
//! 4. reads the amplitude at each coding slot, normalizes by the
//!    coding-band power, and thresholds into bits (OOK),
//! 5. estimates the paper's decoding SNR `(μ₁−μ₀)²/σ²` and the
//!    corresponding OOK BER.

use crate::encode::SpatialCode;
use crate::rcs_model;
use ros_dsp::fft::FftPlan;
use ros_dsp::plan::PlanCache;
use ros_dsp::resample::{resample_uniform_into, Sample};
use ros_dsp::stats;
use ros_dsp::window::WindowTable;
use ros_em::radar_eq::RadarLinkBudget;
use ros_em::units::cast::AsF64;
use ros_em::{Complex64, Vec3};
use ros_obs::names;
use ros_radar::frontend::radar_pattern;

/// One spotlight measurement.
#[derive(Clone, Copy, Debug)]
pub struct RssSample {
    /// The radar position the vehicle *believes* it was at \[m\].
    pub radar_pos: Vec3,
    /// Complex RSS amplitude from the spotlight beamformer \[√mW\].
    pub rss: Complex64,
}

/// Decoder configuration.
#[derive(Clone, Copy, Debug)]
pub struct DecoderConfig {
    /// Angular field of view kept for decoding \[rad\] (§7.3: 60° is
    /// sufficient; Fig. 17 sweeps 20°–100°).
    pub fov_rad: f64,
    /// Uniform `u`-grid size before the FFT.
    pub n_grid: usize,
    /// Zero-padding factor for the spectrum.
    pub zero_pad: usize,
    /// Bit-decision threshold as a fraction of the largest slot
    /// amplitude.
    pub threshold: f64,
    /// Half-width of the erasure dead zone around the effective bit
    /// threshold, as a fraction of that threshold: slot amplitudes
    /// within `±erasure_margin · T` of `T` decode as *erasures* — the
    /// bit value is still reported, but the slot index lands in
    /// [`DecodeResult::erasures`] and the pass verdict degrades to
    /// `PartialDecode`. 0 disables erasure marking.
    pub erasure_margin: f64,
    /// Compensate the range/antenna envelope using this link budget
    /// (`None` = use the raw RSS trace).
    pub envelope_budget: Option<RadarLinkBudget>,
    /// Spectral taper applied before the FFT.
    pub window: ros_dsp::window::Window,
}

impl Default for DecoderConfig {
    fn default() -> Self {
        DecoderConfig {
            fov_rad: ros_em::geom::deg_to_rad(60.0),
            n_grid: 512,
            zero_pad: 8,
            threshold: 0.45,
            erasure_margin: 0.10,
            envelope_budget: Some(RadarLinkBudget::ti_eval()),
            window: ros_dsp::window::Window::Hann,
        }
    }
}

/// Decoder output.
#[derive(Clone, Debug, Default)]
pub struct DecodeResult {
    /// Decoded bits (length = code capacity).
    pub bits: Vec<bool>,
    /// Normalized coding-slot amplitudes, bit order.
    pub slot_amplitudes: Vec<f64>,
    /// The paper's decoding SNR (linear).
    pub snr_linear: f64,
    /// Spacing axis of the spectrum \[m\].
    pub spectrum_spacings_m: Vec<f64>,
    /// Spectrum magnitudes (normalized by the coding-band RMS).
    pub spectrum_mags: Vec<f64>,
    /// Number of samples that survived the FoV filter.
    pub n_samples_used: usize,
    /// Samples rejected for non-finite RSS (saturation artefacts,
    /// corrupted frames) before any decoding.
    pub n_samples_nonfinite: usize,
    /// Slot indices whose amplitude fell inside the erasure dead zone
    /// around the decision threshold — bits too marginal to trust.
    pub erasures: Vec<usize>,
}

impl DecodeResult {
    /// Decoding SNR in dB.
    pub fn snr_db(&self) -> f64 {
        stats::snr_db(self.snr_linear)
    }

    /// OOK bit error rate implied by the SNR.
    pub fn ber(&self) -> f64 {
        stats::ook_ber(self.snr_linear)
    }
}

/// Decoding errors.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DecodeError {
    /// Fewer than 8 usable samples inside the field of view.
    TooFewSamples {
        /// Samples that survived filtering.
        got: usize,
    },
    /// The spectrum is too short to carve out a noise-reference band,
    /// so slot amplitudes cannot be normalized.
    NoNoiseReference,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::TooFewSamples { got } => {
                write!(f, "only {got} RSS samples inside the field of view")
            }
            DecodeError::NoNoiseReference => {
                write!(f, "spectrum too short for a noise-reference band")
            }
        }
    }
}

impl std::error::Error for DecodeError {}

/// Per-decoder scratch arena: memoized FFT/window plans plus every
/// intermediate buffer [`decode_into`] touches. One arena per worker
/// (or long-lived reader) turns the steady-state decode into a
/// zero-allocation kernel; results are bit-identical to [`decode`].
#[derive(Clone, Debug, Default)]
pub struct DecodeScratch {
    plans: PlanCache,
    bufs: DecodeBufs,
}

impl DecodeScratch {
    /// An empty arena; plans and buffers grow on first use.
    pub fn new() -> Self {
        DecodeScratch::default()
    }
}

/// Reusable intermediate buffers for one decode pass.
#[derive(Clone, Debug, Default)]
struct DecodeBufs {
    trace: Vec<Sample>,
    sort_aux: Vec<Sample>,
    grid: Vec<f64>,
    centred: Vec<f64>,
    fft_work: Vec<Complex64>,
    ones: Vec<f64>,
    zeros: Vec<f64>,
}

/// Decodes a spotlight RSS trace against a known spatial code.
///
/// `tag_center` is the detector's estimate of the tag position;
/// `tag_axis_yaw` the tag's array-axis rotation (0 = along +x).
///
/// Convenience wrapper over [`decode_into`] with a throwaway scratch
/// arena; batch callers reuse a [`DecodeScratch`] instead.
pub fn decode(
    samples: &[RssSample],
    tag_center: Vec3,
    tag_axis_yaw: f64,
    code: &SpatialCode,
    cfg: &DecoderConfig,
) -> Result<DecodeResult, DecodeError> {
    let mut scratch = DecodeScratch::new();
    let mut out = DecodeResult::default();
    decode_into(
        samples,
        tag_center,
        tag_axis_yaw,
        code,
        cfg,
        &mut scratch,
        &mut out,
    )?;
    Ok(out)
}

/// [`decode`] through a reusable [`DecodeScratch`] arena, writing the
/// result in place. Plans are resolved (and built on first use) here
/// in the prologue; the spectral kernel then runs allocation-free and
/// bit-identical to the direct path. On error `out` holds unspecified
/// intermediate state.
pub fn decode_into(
    samples: &[RssSample],
    tag_center: Vec3,
    tag_axis_yaw: f64,
    code: &SpatialCode,
    cfg: &DecoderConfig,
    scratch: &mut DecodeScratch,
    out: &mut DecodeResult,
) -> Result<(), DecodeError> {
    let _span = ros_obs::span(names::TIME_DECODE);
    ros_obs::count(names::DECODE_ATTEMPTS, 1);

    // Resolve the window table and FFT plan this configuration needs
    // (cache misses build here, outside the kernel).
    let DecodeScratch { plans, bufs } = scratch;
    let (table, plan) = plans.window_and_fft(
        cfg.window,
        cfg.n_grid,
        (cfg.n_grid * cfg.zero_pad).next_power_of_two(),
    );

    let res = decode_core(
        samples,
        tag_center,
        tag_axis_yaw,
        code,
        cfg,
        table,
        plan,
        bufs,
        out,
    );
    match &res {
        Err(DecodeError::TooFewSamples { got }) => {
            ros_obs::count(names::DECODE_ERRORS, 1);
            ros_obs::event(
                "decode.error",
                &[("reason", "too_few_samples".into()), ("got", (*got).into())],
            );
        }
        Err(DecodeError::NoNoiseReference) => {
            ros_obs::count(names::DECODE_ERRORS, 1);
            ros_obs::event("decode.error", &[("reason", "no_noise_reference".into())]);
        }
        Ok(()) => {
            if ros_obs::enabled() {
                ros_obs::count(names::DECODE_OK, 1);
                ros_obs::hist(names::DECODE_SNR_DB, stats::snr_db(out.snr_linear));
                for a in &out.slot_amplitudes {
                    ros_obs::hist(names::DECODE_SLOT_AMP, *a);
                }
                if ros_obs::detail() {
                    let t = decision_level(cfg, &out.slot_amplitudes);
                    for (i, (a, b)) in out.slot_amplitudes.iter().zip(&out.bits).enumerate() {
                        ros_obs::event_detail(
                            "decode.slot",
                            &[
                                ("idx", i.into()),
                                ("amp", (*a).into()),
                                ("bit", (*b).into()),
                                ("margin", (a - t).into()),
                            ],
                        );
                    }
                }
                let word: String = out
                    .bits
                    .iter()
                    .map(|b| if *b { '1' } else { '0' })
                    .collect();
                ros_obs::event(
                    "decode.result",
                    &[
                        ("bits", word.as_str().into()),
                        ("snr_db", stats::snr_db(out.snr_linear).into()),
                        ("n_samples", out.n_samples_used.into()),
                    ],
                );
                if !out.erasures.is_empty() {
                    ros_obs::event(
                        "decode.partial",
                        &[
                            ("erasures", out.erasures.len().into()),
                            ("slots", out.bits.len().into()),
                        ],
                    );
                }
            }
        }
    }
    res
}

/// The §6 decode flow proper, against pre-resolved plans and scratch
/// buffers. Allocation-free once the buffers have grown to capacity;
/// observability stays in [`decode_into`]'s prologue/epilogue.
#[allow(clippy::too_many_arguments)]
fn decode_core(
    samples: &[RssSample],
    tag_center: Vec3,
    tag_axis_yaw: f64,
    code: &SpatialCode,
    cfg: &DecoderConfig,
    table: &WindowTable,
    plan: &FftPlan,
    bufs: &mut DecodeBufs,
    out: &mut DecodeResult,
) -> Result<(), DecodeError> {
    let lambda = ros_em::constants::LAMBDA_CENTER_M;
    let u_max = (cfg.fov_rad / 2.0).sin();
    let DecodeBufs {
        trace,
        sort_aux,
        grid,
        centred,
        fft_work,
        ones,
        zeros,
    } = bufs;

    // 1–2: map to u, compensate envelope. Non-finite RSS (clipped
    // ADC artefacts, corrupted frames) is rejected here — one NaN
    // sample would otherwise spread through the resampler into every
    // spectrum bin and decode as garbage instead of a typed error.
    trace.clear();
    let mut nonfinite = 0usize;
    for s in samples {
        if !s.rss.re.is_finite()
            || !s.rss.im.is_finite()
            || !s.radar_pos.x.is_finite()
            || !s.radar_pos.y.is_finite()
        {
            nonfinite += 1;
            continue;
        }
        let v = s.radar_pos - tag_center;
        let ground = (v.x * v.x + v.y * v.y).sqrt();
        if ground < 1e-6 {
            continue;
        }
        // Angle from the tag's array axis, folded into the direction
        // cosine u; yaw rotates the axis.
        let (sin_y, cos_y) = tag_axis_yaw.sin_cos();
        let along = v.x * cos_y + v.y * sin_y;
        let u = along / ground;
        if u.abs() > u_max {
            continue;
        }
        let mut p = s.rss.norm_sqr();
        if let Some(budget) = &cfg.envelope_budget {
            let d = v.norm();
            // Unit-RCS received power at this range…
            let unit_dbm = budget.received_power_dbm(0.0, d);
            // …and the radar's own two-way pattern toward the tag.
            let az_radar = -v.x.atan2(-v.y);
            let g = radar_pattern(az_radar);
            let env = ros_em::db::db_to_pow(unit_dbm) * g.powi(4);
            if env > 0.0 {
                p /= env;
            }
        }
        trace.push(Sample { x: u, y: p });
    }
    if trace.len() < 8 {
        return Err(DecodeError::TooFewSamples { got: trace.len() });
    }
    let n_used = trace.len();

    // 3: uniform resample + zero-padded FFT spectrum. Raw
    // spacings/magnitudes land directly in the result buffers; the
    // magnitudes are normalized in place once the noise RMS is known.
    resample_uniform_into(trace, -u_max, u_max, cfg.n_grid, sort_aux, grid);
    rcs_model::rcs_spectrum_windowed_into(
        grid,
        u_max,
        lambda,
        cfg.zero_pad,
        table,
        plan,
        centred,
        fft_work,
        &mut out.spectrum_spacings_m,
        &mut out.spectrum_mags,
    );
    let spacings = &out.spectrum_spacings_m;

    // 4: coding-slot amplitudes, peak-searched within ±0.5λ (tolerant
    // of small tracking-induced spectral shifts; slots are 1.5λ apart).
    let tol = 0.5 * lambda;
    out.slot_amplitudes.clear();
    for k in 1..=code.capacity_bits() {
        let target = code.slot_spacing_lambda(k) * lambda;
        let mut amp = 0.0f64;
        for (s, m) in spacings.iter().zip(out.spectrum_mags.iter()) {
            if (*s - target).abs() <= tol {
                amp = f64::max(amp, *m);
            }
        }
        out.slot_amplitudes.push(amp);
    }

    // Noise floor: bins away from EVERY predictable spectral feature.
    // The all-ones layout fixes where peaks can appear — the coding
    // slots plus every secondary (coding-stack pairwise) spacing — so
    // any bin ≥0.75λ away from all of them is pure noise/leakage.
    // Only the feature *maximum* matters, so the features are folded
    // on the fly instead of materialized.
    let mut max_feature = 0.0f64;
    for k in 1..=code.capacity_bits() {
        max_feature = f64::max(max_feature, code.slot_spacing_lambda(k) * lambda);
    }
    for i in 1..=code.capacity_bits() {
        for j in 1..=code.capacity_bits() {
            if i != j {
                let spacing = (code.slot_position_m(i) - code.slot_position_m(j)).abs();
                max_feature = f64::max(max_feature, spacing);
            }
        }
    }
    // The noise region sits beyond the largest possible feature, so it
    // stays clean at any field of view (narrow FoVs broaden every peak
    // and would contaminate in-band gaps).
    let noise_lo = max_feature + 1.5 * lambda;
    let noise_hi = max_feature + 6.0 * lambda;
    let mut noise_sum = 0.0f64;
    let mut noise_count = 0usize;
    for (s, m) in spacings.iter().zip(out.spectrum_mags.iter()) {
        if *s >= noise_lo && *s <= noise_hi {
            noise_sum += m * m;
            noise_count += 1;
        }
    }
    if noise_count == 0 {
        return Err(DecodeError::NoNoiseReference);
    }
    let noise_rms = (noise_sum / noise_count.as_f64()).sqrt().max(1e-300);

    // Normalize amplitudes by the band noise (the §6 "normalized by the
    // overall power within the coding band").
    for a in out.slot_amplitudes.iter_mut() {
        *a /= noise_rms;
    }
    for m in out.spectrum_mags.iter_mut() {
        *m /= noise_rms;
    }

    // 5: threshold into bits and estimate SNR. Amplitudes inside the
    // `±erasure_margin·T` dead zone around the decision level `T`
    // decode as erasures — the bit is still reported but flagged as
    // untrusted, which the reader surfaces as a `PartialDecode` verdict.
    let effective_t = decision_level(cfg, &out.slot_amplitudes);
    out.bits.clear();
    for &a in out.slot_amplitudes.iter() {
        out.bits.push(a > effective_t);
    }
    out.erasures.clear();
    if cfg.erasure_margin > 0.0 {
        for (i, &a) in out.slot_amplitudes.iter().enumerate() {
            if (a - effective_t).abs() <= cfg.erasure_margin * effective_t {
                out.erasures.push(i);
            }
        }
    }

    ones.clear();
    zeros.clear();
    for (&a, &b) in out.slot_amplitudes.iter().zip(out.bits.iter()) {
        if b {
            ones.push(a);
        } else {
            zeros.push(a);
        }
    }
    // σ = 1 after normalization (band noise RMS); pooled slot variance
    // guards against wobbly peaks.
    out.snr_linear = stats::ook_snr(ones, zeros, 1.0);
    out.n_samples_used = n_used;
    out.n_samples_nonfinite = nonfinite;
    Ok(())
}

/// The level a noise-normalized slot amplitude must exceed to decode
/// as 1: `T = max(threshold·max_amp, 4)`, the larger of the relative
/// threshold and four times the band noise RMS.
fn decision_level(cfg: &DecoderConfig, slot_amplitudes: &[f64]) -> f64 {
    let max_amp = slot_amplitudes.iter().fold(0.0, |m, &a| f64::max(m, a));
    (cfg.threshold * max_amp).max(4.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::SpatialCode;
    use crate::tag::Tag;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use ros_em::jones::Polarization;
    use ros_scene::reflector::{EchoContext, Reflector};

    /// Builds an idealized RSS trace straight from the tag physics
    /// (sum of scatterer echoes + optional noise) along a drive-by.
    fn synth_trace(tag: &Tag, standoff: f64, noise_dbm: Option<f64>, seed: u64) -> Vec<RssSample> {
        let ctx = EchoContext::ti_clear();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut out = Vec::new();
        let n = 401;
        for i in 0..n {
            let x = -4.0 + 8.0 * i as f64 / (n - 1) as f64;
            let pos = Vec3::new(x, 0.0, 0.0);
            let echoes = tag.echoes(pos, Polarization::H, Polarization::V, &ctx);
            let mut rss: Complex64 = Complex64::ZERO;
            for e in &echoes {
                // Radar two-way pattern toward each scatterer.
                let az = (e.pos.x - pos.x).atan2(e.pos.y - pos.y);
                let g = radar_pattern(az);
                rss += e.amp * (g * g);
            }
            if let Some(floor) = noise_dbm {
                let sigma = 10f64.powf(floor / 20.0) / std::f64::consts::SQRT_2;
                rss += Complex64::new(gauss(&mut rng) * sigma, gauss(&mut rng) * sigma);
            }
            out.push(RssSample {
                radar_pos: pos,
                rss,
            });
        }
        let _ = standoff;
        out
    }

    fn gauss<R: Rng>(rng: &mut R) -> f64 {
        let u1: f64 = rng.gen::<f64>().max(1e-12);
        let u2: f64 = rng.gen();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    fn code8() -> SpatialCode {
        SpatialCode {
            rows_per_stack: 8,
            ..SpatialCode::paper_4bit()
        }
    }

    #[test]
    fn decodes_all_ones_noise_free() {
        let tag = code8()
            .encode(&[true; 4])
            .unwrap()
            .mounted_at(Vec3::new(0.0, 2.0, 0.0));
        let trace = synth_trace(&tag, 2.0, None, 1);
        let r = decode(
            &trace,
            tag.mount(),
            0.0,
            tag.code(),
            &DecoderConfig::default(),
        )
        .unwrap();
        assert_eq!(r.bits, vec![true; 4], "amps {:?}", r.slot_amplitudes);
        assert!(r.snr_db() > 14.0, "SNR {:.1} dB", r.snr_db());
    }

    #[test]
    fn decodes_mixed_patterns() {
        for bits in [
            [true, false, true, false],
            [false, true, false, true],
            [true, true, false, false],
            [false, false, true, true],
            [true, false, false, true],
        ] {
            let tag = code8()
                .encode(&bits)
                .unwrap()
                .mounted_at(Vec3::new(0.0, 2.0, 0.0));
            let trace = synth_trace(&tag, 2.0, None, 2);
            let r = decode(
                &trace,
                tag.mount(),
                0.0,
                tag.code(),
                &DecoderConfig::default(),
            )
            .unwrap();
            assert_eq!(r.bits.as_slice(), &bits, "amps {:?}", r.slot_amplitudes);
        }
    }

    #[test]
    fn decodes_with_noise() {
        let tag = code8()
            .encode(&[true, true, false, true])
            .unwrap()
            .mounted_at(Vec3::new(0.0, 2.0, 0.0));
        let trace = synth_trace(&tag, 2.0, Some(-62.0), 3);
        let r = decode(
            &trace,
            tag.mount(),
            0.0,
            tag.code(),
            &DecoderConfig::default(),
        )
        .unwrap();
        assert_eq!(r.bits, vec![true, true, false, true]);
    }

    #[test]
    fn too_few_samples_is_an_error() {
        let s = RssSample {
            radar_pos: Vec3::new(0.0, 0.0, 0.0),
            rss: Complex64::ONE,
        };
        let err = decode(
            &[s; 3],
            Vec3::new(0.0, 2.0, 0.0),
            0.0,
            &code8(),
            &DecoderConfig::default(),
        )
        .unwrap_err();
        assert!(matches!(err, DecodeError::TooFewSamples { .. }));
        assert!(err.to_string().contains("samples"));
    }

    #[test]
    fn nonfinite_samples_filtered_not_propagated() {
        let tag = code8()
            .encode(&[true; 4])
            .unwrap()
            .mounted_at(Vec3::new(0.0, 2.0, 0.0));
        let mut trace = synth_trace(&tag, 2.0, None, 6);
        // Corrupt a third of the trace with NaN/∞ RSS.
        for (i, s) in trace.iter_mut().enumerate() {
            if i % 3 == 0 {
                s.rss = if i % 6 == 0 {
                    Complex64::new(f64::NAN, 0.0)
                } else {
                    Complex64::new(f64::INFINITY, f64::INFINITY)
                };
            }
        }
        let r = decode(
            &trace,
            tag.mount(),
            0.0,
            tag.code(),
            &DecoderConfig::default(),
        )
        .unwrap();
        assert!(r.n_samples_nonfinite > 100);
        assert_eq!(r.bits, vec![true; 4]);
        assert!(r.snr_db().is_finite());
        assert!(r.slot_amplitudes.iter().all(|a| a.is_finite()));
    }

    #[test]
    fn all_nonfinite_trace_is_typed_error_not_nan() {
        let s = RssSample {
            radar_pos: Vec3::new(1.0, 0.0, 0.0),
            rss: Complex64::new(f64::NAN, f64::NAN),
        };
        let err = decode(
            &vec![s; 200],
            Vec3::new(0.0, 2.0, 0.0),
            0.0,
            &code8(),
            &DecoderConfig::default(),
        )
        .unwrap_err();
        assert!(matches!(err, DecodeError::TooFewSamples { got: 0 }));
    }

    #[test]
    fn marginal_slot_amplitude_is_an_erasure() {
        // A clean decode has no erasures; shrinking the dead zone to 0
        // never creates any; a wide margin flags the weakest slots.
        let tag = code8()
            .encode(&[true, false, true, true])
            .unwrap()
            .mounted_at(Vec3::new(0.0, 2.0, 0.0));
        let trace = synth_trace(&tag, 2.0, None, 7);
        let clean = decode(
            &trace,
            tag.mount(),
            0.0,
            tag.code(),
            &DecoderConfig::default(),
        )
        .unwrap();
        assert!(clean.erasures.is_empty(), "clean fixture must not erase");
        let off = decode(
            &trace,
            tag.mount(),
            0.0,
            tag.code(),
            &DecoderConfig {
                erasure_margin: 0.0,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(off.erasures.is_empty());
        // A margin wide enough to reach the strongest slot flags it.
        let max = clean.slot_amplitudes.iter().cloned().fold(0.0, f64::max);
        let t = (0.45 * max).max(4.0);
        let needed = (max - t).abs() / t + 0.05;
        let wide = decode(
            &trace,
            tag.mount(),
            0.0,
            tag.code(),
            &DecoderConfig {
                erasure_margin: needed,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(!wide.erasures.is_empty(), "margin {needed} must flag slots");
    }

    #[test]
    fn decode_into_bit_identical_to_decode() {
        let tag = code8()
            .encode(&[true, false, true, true])
            .unwrap()
            .mounted_at(Vec3::new(0.0, 2.0, 0.0));
        let trace = synth_trace(&tag, 2.0, Some(-62.0), 11);
        let mut scratch = DecodeScratch::new();
        let mut out = DecodeResult::default();
        // One arena across configs of different plan sizes, each decoded
        // twice (dirty buffers on the second pass).
        for cfg in [
            DecoderConfig::default(),
            DecoderConfig {
                n_grid: 256,
                zero_pad: 4,
                ..Default::default()
            },
        ] {
            for _ in 0..2 {
                let want = decode(&trace, tag.mount(), 0.0, tag.code(), &cfg).unwrap();
                decode_into(
                    &trace,
                    tag.mount(),
                    0.0,
                    tag.code(),
                    &cfg,
                    &mut scratch,
                    &mut out,
                )
                .unwrap();
                assert_eq!(out.bits, want.bits);
                assert_eq!(out.erasures, want.erasures);
                assert_eq!(out.n_samples_used, want.n_samples_used);
                assert_eq!(out.n_samples_nonfinite, want.n_samples_nonfinite);
                assert_eq!(out.snr_linear.to_bits(), want.snr_linear.to_bits());
                assert_eq!(out.slot_amplitudes.len(), want.slot_amplitudes.len());
                for (a, b) in out.slot_amplitudes.iter().zip(&want.slot_amplitudes) {
                    assert_eq!(a.to_bits(), b.to_bits());
                }
                assert_eq!(out.spectrum_mags.len(), want.spectrum_mags.len());
                for (a, b) in out.spectrum_mags.iter().zip(&want.spectrum_mags) {
                    assert_eq!(a.to_bits(), b.to_bits());
                }
                for (a, b) in out
                    .spectrum_spacings_m
                    .iter()
                    .zip(&want.spectrum_spacings_m)
                {
                    assert_eq!(a.to_bits(), b.to_bits());
                }
            }
        }
    }

    /// The value of `"key":` in one JSON event line, up to the next
    /// `,` or `}`.
    fn field<'a>(line: &'a str, key: &str) -> &'a str {
        let pat = format!("\"{key}\":");
        let start = line.find(&pat).expect("field present") + pat.len();
        let rest = &line[start..];
        &rest[..rest.find([',', '}']).expect("field terminated")]
    }

    #[test]
    fn slot_margin_is_measured_from_the_deciding_level() {
        // A weak pass whose relative threshold sits below the 4·noise
        // floor: slots between the two decode as 0, so their reported
        // margin must be negative.
        let tag = code8()
            .encode(&[true, false, true, true])
            .unwrap()
            .mounted_at(Vec3::new(0.0, 2.0, 0.0));
        let trace = synth_trace(&tag, 2.0, Some(-50.0), 0);
        let cfg = DecoderConfig::default();
        let (r, lines) = ros_obs::capture_scope(ros_obs::Level::Detail, || {
            decode(&trace, tag.mount(), 0.0, tag.code(), &cfg).unwrap()
        });
        let max_amp = r.slot_amplitudes.iter().cloned().fold(0.0, f64::max);
        assert!(cfg.threshold * max_amp < 4.0, "fixture must be weak");
        assert!(
            r.slot_amplitudes
                .iter()
                .any(|&a| a > cfg.threshold * max_amp && a <= 4.0),
            "fixture must have a slot between the two levels"
        );
        let slots: Vec<&String> = lines
            .iter()
            .filter(|l| l.contains("\"ev\":\"decode.slot\""))
            .collect();
        assert_eq!(slots.len(), r.bits.len());
        for (line, &bit) in slots.iter().zip(&r.bits) {
            let margin: f64 = field(line, "margin").parse().unwrap();
            assert_eq!(field(line, "bit"), bit.to_string(), "{line}");
            assert_eq!(bit, margin > 0.0, "{line}");
        }
    }

    #[test]
    fn narrow_fov_still_decodes() {
        // Fig. 17: a 60° FoV is sufficient; even 40° mostly works.
        let tag = code8()
            .encode(&[true; 4])
            .unwrap()
            .mounted_at(Vec3::new(0.0, 2.0, 0.0));
        let trace = synth_trace(&tag, 2.0, None, 4);
        let cfg = DecoderConfig {
            fov_rad: ros_em::geom::deg_to_rad(40.0),
            ..Default::default()
        };
        let r = decode(&trace, tag.mount(), 0.0, tag.code(), &cfg).unwrap();
        assert_eq!(r.bits, vec![true; 4]);
    }

    #[test]
    fn samples_outside_fov_filtered() {
        let tag = code8()
            .encode(&[true; 4])
            .unwrap()
            .mounted_at(Vec3::new(0.0, 2.0, 0.0));
        let trace = synth_trace(&tag, 2.0, None, 5);
        let narrow = DecoderConfig {
            fov_rad: ros_em::geom::deg_to_rad(30.0),
            ..Default::default()
        };
        let wide = DecoderConfig::default();
        let rn = decode(&trace, tag.mount(), 0.0, tag.code(), &narrow).unwrap();
        let rw = decode(&trace, tag.mount(), 0.0, tag.code(), &wide).unwrap();
        assert!(rn.n_samples_used < rw.n_samples_used);
    }
}
