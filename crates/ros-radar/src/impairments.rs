//! Front-end impairments: phase noise, quantization, IQ imbalance.
//!
//! The paper's TI evaluation board is noted (§8) for its "limited
//! transmit power, antenna gain and high receiver noise figure"; real
//! front-ends add correlated impairments on top of thermal noise. This
//! module injects the three classics into synthesized IF data so their
//! effect on tag decoding can be quantified:
//!
//! * **phase noise** — a random-walk carrier phase common to all
//!   antennas within a chirp,
//! * **ADC quantization** — mid-rise uniform quantizers per I/Q rail,
//! * **IQ imbalance** — gain mismatch and quadrature skew producing an
//!   image tone.

use crate::frontend::Frame;
use rand::Rng;
use ros_em::units::cast::AsF64;
use ros_em::Complex64;

/// Impairment configuration. `Default` is a clean front-end.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Impairments {
    /// Per-sample RMS of the phase random walk \[rad\] (0 = off).
    pub phase_noise_rad_per_sample: f64,
    /// ADC bits per I/Q rail (0 = ideal converter).
    pub adc_bits: u32,
    /// Full-scale amplitude of the ADC \[√mW\] (must be > 0 when
    /// `adc_bits > 0`).
    pub adc_full_scale: f64,
    /// Amplitude gain mismatch of the Q rail (0 = balanced).
    pub iq_gain_mismatch: f64,
    /// Quadrature phase skew \[rad\] (0 = perfect 90°).
    pub iq_phase_skew_rad: f64,
}

impl Default for Impairments {
    fn default() -> Self {
        Impairments {
            phase_noise_rad_per_sample: 0.0,
            adc_bits: 0,
            adc_full_scale: 1.0,
            iq_gain_mismatch: 0.0,
            iq_phase_skew_rad: 0.0,
        }
    }
}

impl Impairments {
    /// A plausible evaluation-board profile: −80 dBc/Hz-class phase
    /// noise, 12-bit ADC, 1% IQ imbalance.
    pub fn eval_board() -> Self {
        Impairments {
            phase_noise_rad_per_sample: 0.002,
            adc_bits: 12,
            adc_full_scale: 0.1,
            iq_gain_mismatch: 0.01,
            iq_phase_skew_rad: 0.01,
        }
    }

    /// True when every impairment is disabled.
    pub fn is_clean(&self) -> bool {
        self.phase_noise_rad_per_sample == 0.0
            && self.adc_bits == 0
            && self.iq_gain_mismatch == 0.0
            && self.iq_phase_skew_rad == 0.0
    }

    /// Applies the impairments to a frame in place.
    pub fn apply<R: Rng>(&self, frame: &mut Frame, rng: &mut R) {
        if self.is_clean() {
            return;
        }
        let mut walk = vec![0.0; frame.n_samples()];
        self.fill_walk(rng, &mut walk);
        self.apply_with_walk(frame, &walk);
    }

    /// Fills a pre-sized slice with the per-frame phase random walk,
    /// the only stochastic part of the impairment chain: one walk
    /// shared by all antennas (common LO), refreshed per frame, and
    /// zero draws when phase noise is off. A batch pre-draws the walks
    /// serially into segments of one reusable flat buffer and applies
    /// them on worker threads via [`apply_with_walk`] with bit-identical
    /// results.
    pub(crate) fn fill_walk<R: Rng>(&self, rng: &mut R, out: &mut [f64]) {
        if self.phase_noise_rad_per_sample > 0.0 {
            // One bulk draw of the steps' uniforms, then the running sum
            // in place.
            rng.fill_unit_f64(out);
            let mut acc = 0.0;
            for w in out.iter_mut() {
                acc += (*w - 0.5) * 2.0 * self.phase_noise_rad_per_sample;
                *w = acc;
            }
        } else {
            out.fill(0.0);
        }
    }

    /// Deterministic half of [`apply`]: impairs a frame with a
    /// pre-drawn phase walk. Safe on worker threads.
    pub(crate) fn apply_with_walk(&self, frame: &mut Frame, walk: &[f64]) {
        if self.is_clean() {
            return;
        }
        for ant in frame.data.iter_mut() {
            for (i, s) in ant.iter_mut().enumerate() {
                let mut v = *s;
                if self.phase_noise_rad_per_sample > 0.0 {
                    v *= Complex64::cis(walk[i]);
                }
                if self.iq_gain_mismatch != 0.0 || self.iq_phase_skew_rad != 0.0 {
                    // Q rail sees gain (1+g) and a skewed mixing angle.
                    let i_rail = v.re;
                    let q_rail = (1.0 + self.iq_gain_mismatch)
                        * (v.im * self.iq_phase_skew_rad.cos()
                            + v.re * self.iq_phase_skew_rad.sin());
                    v = Complex64::new(i_rail, q_rail);
                }
                if self.adc_bits > 0 {
                    v = Complex64::new(
                        quantize(v.re, self.adc_bits, self.adc_full_scale),
                        quantize(v.im, self.adc_bits, self.adc_full_scale),
                    );
                }
                *s = v;
            }
        }
    }
}

/// Hard-clips every I/Q rail of a frame at ±`full_scale` \[√mW\] —
/// an ADC driven into saturation by a strong in-band signal. Unlike
/// [`Impairments::apply`] this is not part of a front-end profile; it
/// is the per-frame seam the fault-injection layer (`ros-fault`
/// `AdcSaturation`) clips through. Deterministic and in-place, so it
/// composes with pre-drawn noise packets without touching any RNG.
pub fn saturate_frame(frame: &mut Frame, full_scale: f64) {
    let fs = full_scale.max(0.0);
    for ant in frame.data.iter_mut() {
        for s in ant.iter_mut() {
            *s = Complex64::new(s.re.clamp(-fs, fs), s.im.clamp(-fs, fs));
        }
    }
}

/// Mid-rise uniform quantizer with clipping at ±`full_scale`.
fn quantize(x: f64, bits: u32, full_scale: f64) -> f64 {
    debug_assert!(full_scale > 0.0);
    let levels = (1u64 << bits).as_f64();
    let step = 2.0 * full_scale / levels;
    let clipped = x.clamp(-full_scale, full_scale - step);
    ((clipped / step).floor() + 0.5) * step
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::array::RadarArray;
    use crate::chirp::ChirpConfig;
    use crate::echo::{Echo, Pose};
    use crate::frontend::synthesize_frame;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use ros_em::radar_eq::RadarLinkBudget;
    use ros_em::Vec3;

    fn frame(seed: u64) -> Frame {
        let c = ChirpConfig::ti_default();
        let a = RadarArray::ti_default();
        let b = RadarLinkBudget::ti_eval();
        let mut rng = StdRng::seed_from_u64(seed);
        let echo = Echo::new(
            Vec3::new(0.0, 3.0, 0.0),
            Complex64::from_polar(10f64.powf(-35.0 / 20.0), 0.4),
        );
        synthesize_frame(
            &c,
            &a,
            &b,
            Pose::side_looking(Vec3::ZERO),
            &[echo],
            &mut rng,
        )
    }

    #[test]
    fn clean_profile_is_identity() {
        let mut f = frame(1);
        let orig = f.data.clone();
        let mut rng = StdRng::seed_from_u64(2);
        Impairments::default().apply(&mut f, &mut rng);
        assert_eq!(f.data, orig);
    }

    #[test]
    fn saturate_frame_clips_both_rails() {
        let mut f = frame(11);
        let fs = 1e-5;
        saturate_frame(&mut f, fs);
        for ant in &f.data {
            for s in ant {
                assert!(s.re.abs() <= fs && s.im.abs() <= fs);
            }
        }
        // Samples already inside the rails are untouched.
        let mut g = frame(11);
        let wide = 1e6;
        let orig = g.data.clone();
        saturate_frame(&mut g, wide);
        assert_eq!(g.data, orig);
    }

    #[test]
    fn walk_into_matches_direct_draw() {
        for imp in [
            Impairments::eval_board(),
            Impairments::default(),
            Impairments {
                adc_bits: 8,
                ..Default::default()
            },
        ] {
            let mut rng = StdRng::seed_from_u64(33);
            let mut out = vec![5.0; 256]; // dirty
            imp.fill_walk(&mut rng, &mut out);
            // The walk drawn one step at a time: a running sum of
            // uniform steps, or zeros and no draws with phase noise off.
            let mut direct = StdRng::seed_from_u64(33);
            let mut acc = 0.0f64;
            for w in &out {
                if imp.phase_noise_rad_per_sample > 0.0 {
                    acc += (direct.gen::<f64>() - 0.5) * 2.0 * imp.phase_noise_rad_per_sample;
                }
                assert_eq!(w.to_bits(), acc.to_bits());
            }
            // Both must leave the RNG at the same point.
            assert_eq!(rng.gen::<u64>(), direct.gen::<u64>());
        }
    }

    #[test]
    fn quantizer_properties() {
        // Monotone, bounded error, symmetric range.
        let bits = 8;
        let fs = 1.0;
        let step = 2.0 / 256.0;
        let mut prev = f64::NEG_INFINITY;
        for i in -120..120 {
            let x = i as f64 / 100.0;
            let q = quantize(x, bits, fs);
            assert!(q >= prev - 1e-12);
            prev = q;
            if x.abs() < fs - step {
                assert!((q - x).abs() <= step / 2.0 + 1e-12, "x={x} q={q}");
            }
        }
        // Clipping.
        assert!(quantize(5.0, bits, fs) < fs);
        assert!(quantize(-5.0, bits, fs) >= -fs);
    }

    #[test]
    fn quantization_noise_shrinks_with_bits() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut err = |bits: u32| {
            let mut total = 0.0;
            for _ in 0..2000 {
                let x: f64 = (rng.gen::<f64>() - 0.5) * 1.6;
                let e = quantize(x, bits, 1.0) - x;
                total += e * e;
            }
            total
        };
        let e8 = err(8);
        let e12 = err(12);
        assert!(e12 < e8 / 100.0, "8-bit {e8}, 12-bit {e12}");
    }

    #[test]
    fn phase_noise_preserves_power() {
        let mut f = frame(4);
        let p_before: f64 = f.data[0].iter().map(|s| s.norm_sqr()).sum();
        let mut rng = StdRng::seed_from_u64(5);
        Impairments {
            phase_noise_rad_per_sample: 0.01,
            ..Default::default()
        }
        .apply(&mut f, &mut rng);
        let p_after: f64 = f.data[0].iter().map(|s| s.norm_sqr()).sum();
        assert!((p_before - p_after).abs() < 1e-9 * p_before);
    }

    #[test]
    fn phase_noise_common_across_antennas() {
        // Same walk on every antenna ⇒ antenna phase *differences*
        // (the AoA information) survive.
        let mut f = frame(6);
        let before: Vec<f64> = (0..f.n_samples())
            .map(|i| (f.data[1][i] * f.data[0][i].conj()).arg())
            .collect();
        let mut rng = StdRng::seed_from_u64(7);
        Impairments {
            phase_noise_rad_per_sample: 0.02,
            ..Default::default()
        }
        .apply(&mut f, &mut rng);
        let after: Vec<f64> = (0..f.n_samples())
            .map(|i| (f.data[1][i] * f.data[0][i].conj()).arg())
            .collect();
        for (b, a) in before.iter().zip(&after) {
            assert!((b - a).abs() < 1e-9);
        }
    }

    #[test]
    fn eval_board_profile_degrades_mildly() {
        // A strong beat tone must survive the eval-board profile with
        // most of its coherent energy.
        let c = ChirpConfig::ti_default();
        let mut f = frame(8);
        let mut rng = StdRng::seed_from_u64(9);
        let tone = |fr: &Frame| {
            let fb = c.beat_frequency_hz(3.0);
            ros_dsp::goertzel::single_bin(&fr.data[0], fb / c.sample_rate_hz).abs()
        };
        let before = tone(&f);
        Impairments::eval_board().apply(&mut f, &mut rng);
        let after = tone(&f);
        let loss_db = 20.0 * (before / after).log10();
        assert!(loss_db < 1.5, "impairment loss {loss_db:.2} dB");
        assert!(loss_db > -1.5);
    }
}
