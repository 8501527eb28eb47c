//! Near-field matched-filter decoding.
//!
//! The §5.1 FFT decoder assumes the radar is in the tag's far field:
//! every stack's fringe is then a pure tone in `u = cos θ`, and the
//! spectrum separates the slots. Inside the far-field distance
//! (`2D²/λ`, ≈2.9 m for the 4-bit tag and ≈7.6 m for a 6-bit tag) the
//! wavefront curvature chirps the fringes and smears the peaks — the
//! §5.3 capacity limit, and the effect the paper proposes to attack
//! with near-field-focusing antennas (§8).
//!
//! This module implements the *radar-side* equivalent of NFFA: instead
//! of an FFT over `u`, each coding slot is detected with a matched
//! filter built from the **exact** per-frame geometry. For slot
//! position `x_s` and frame position `r_i`, the reference↔slot fringe
//! phase is
//!
//! ```text
//! ψ_i(x_s) = (4π/λ)·(|r_i − p_s| − |r_i − p_0|)
//! ```
//!
//! with `p_s` the slot's true 3-D location — no plane-wave
//! approximation. Correlating the mean-removed RCS trace against the
//! quadrature pair `(cos ψ, sin ψ)` recovers the slot amplitude at any
//! distance. The noise floor is estimated from matched filters at
//! phantom (off-slot) positions.

use crate::decode::{DecodeError, DecoderConfig, RssSample};
use crate::encode::SpatialCode;
use ros_dsp::stats;
use ros_em::units::cast::AsF64;
use ros_em::Vec3;

/// Near-field decode result.
#[derive(Clone, Debug)]
pub struct NearFieldDecodeResult {
    /// Decoded bits.
    pub bits: Vec<bool>,
    /// Noise-normalized matched-filter amplitude per slot.
    pub slot_amplitudes: Vec<f64>,
    /// The paper's decoding SNR (linear).
    pub snr_linear: f64,
    /// Samples used after FoV filtering.
    pub n_samples_used: usize,
}

impl NearFieldDecodeResult {
    /// Decoding SNR in dB.
    pub fn snr_db(&self) -> f64 {
        stats::snr_db(self.snr_linear)
    }

    /// Implied OOK bit error rate.
    pub fn ber(&self) -> f64 {
        stats::ook_ber(self.snr_linear)
    }
}

/// Matched-filter amplitude of the fringe between the reference stack
/// and a hypothetical stack at `offset_m` along the tag axis.
fn matched_amplitude(
    trace: &[(Vec3, f64)], // (radar position, mean-removed RCS value)
    tag_center: Vec3,
    tag_axis_yaw: f64,
    offset_m: f64,
    lambda: f64,
) -> f64 {
    let (sin_y, cos_y) = tag_axis_yaw.sin_cos();
    let slot_pos = tag_center + Vec3::new(offset_m * cos_y, offset_m * sin_y, 0.0);
    let k2 = 2.0 * std::f64::consts::TAU / lambda; // 4π/λ
    let mut c = 0.0;
    let mut s = 0.0;
    for (r, v) in trace {
        let psi = k2 * (r.distance(slot_pos) - r.distance(tag_center));
        c += v * psi.cos();
        s += v * psi.sin();
    }
    let n = trace.len().max(1).as_f64();
    (c * c + s * s).sqrt() / n
}

/// Decodes a spotlight RSS trace with exact near-field matched filters.
///
/// Arguments mirror [`crate::decode::decode`]; the `cfg` supplies the
/// FoV filter and envelope compensation. Works at any distance —
/// including well inside the far-field bound where the FFT decoder
/// fails.
pub fn decode_nearfield(
    samples: &[RssSample],
    tag_center: Vec3,
    tag_axis_yaw: f64,
    code: &SpatialCode,
    cfg: &DecoderConfig,
) -> Result<NearFieldDecodeResult, DecodeError> {
    let lambda = ros_em::constants::LAMBDA_CENTER_M;
    let u_max = (cfg.fov_rad / 2.0).sin();

    // FoV filter + envelope compensation (same as the FFT decoder).
    let mut trace: Vec<(Vec3, f64)> = Vec::with_capacity(samples.len());
    let (sin_y, cos_y) = tag_axis_yaw.sin_cos();
    for s in samples {
        let v = s.radar_pos - tag_center;
        let ground = (v.x * v.x + v.y * v.y).sqrt();
        if ground < 1e-6 {
            continue;
        }
        let along = v.x * cos_y + v.y * sin_y;
        let u = along / ground;
        if u.abs() > u_max {
            continue;
        }
        let mut p = s.rss.norm_sqr();
        if let Some(budget) = &cfg.envelope_budget {
            let d = v.norm();
            let unit_dbm = budget.received_power_dbm(0.0, d);
            let az_radar = (-v.x).atan2(-v.y);
            let g = az_radar.cos().max(0.0).powf(1.5);
            let env = ros_em::db::db_to_pow(unit_dbm) * g.powi(4);
            if env > 0.0 {
                p /= env;
            }
        }
        trace.push((s.radar_pos, p));
    }
    if trace.len() < 8 {
        return Err(DecodeError::TooFewSamples { got: trace.len() });
    }
    let n_used = trace.len();

    // Mean removal (the DC term of Eq. 6).
    let mean = trace.iter().map(|(_, v)| v).sum::<f64>() / trace.len().as_f64();
    for t in trace.iter_mut() {
        t.1 -= mean;
    }

    // Matched filter at every slot…
    let slot_amps: Vec<f64> = (1..=code.capacity_bits())
        .map(|k| {
            matched_amplitude(
                &trace,
                tag_center,
                tag_axis_yaw,
                code.slot_position_m(k),
                lambda,
            )
        })
        .collect();

    // …and at phantom positions beyond every real feature for the
    // noise floor (out-of-band, so matched-filter skirts of true peaks
    // cannot inflate it — mirroring the FFT decoder's noise region).
    let dc = code.delta_c_lambda * lambda;
    // Largest pairwise feature: the opposite-side slot sum.
    let max_feature = code.max_pair_spacing_m();
    let mut phantom_amps = Vec::new();
    for j in 0..6 {
        for sign in [-1.0, 1.0] {
            let pos = sign * (max_feature + 1.5 * lambda + j.as_f64() * 0.75 * dc);
            phantom_amps.push(matched_amplitude(
                &trace,
                tag_center,
                tag_axis_yaw,
                pos,
                lambda,
            ));
        }
    }
    let noise_rms = (phantom_amps.iter().map(|a| a * a).sum::<f64>()
        / phantom_amps.len().max(1).as_f64())
    .sqrt()
    .max(1e-300);

    let slot_amplitudes: Vec<f64> = slot_amps.iter().map(|a| a / noise_rms).collect();
    let max_amp = slot_amplitudes.iter().cloned().fold(0.0, f64::max);
    let bits: Vec<bool> = slot_amplitudes
        .iter()
        .map(|&a| a > cfg.threshold * max_amp && a > 4.0)
        .collect();

    let ones: Vec<f64> = slot_amplitudes
        .iter()
        .zip(&bits)
        .filter(|(_, &b)| b)
        .map(|(&a, _)| a)
        .collect();
    let zeros: Vec<f64> = slot_amplitudes
        .iter()
        .zip(&bits)
        .filter(|(_, &b)| !b)
        .map(|(&a, _)| a)
        .collect();
    let snr_linear = stats::ook_snr(&ones, &zeros, 1.0);

    Ok(NearFieldDecodeResult {
        bits,
        slot_amplitudes,
        snr_linear,
        n_samples_used: n_used,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reader::{DriveBy, ReaderConfig};

    fn code(bits: usize, rows: usize) -> SpatialCode {
        SpatialCode {
            m_stacks: bits + 1,
            rows_per_stack: rows,
            ..SpatialCode::paper_4bit()
        }
    }

    fn run_trace(tag: crate::tag::Tag, standoff: f64, span: f64, seed: u64) -> Vec<RssSample> {
        let mut drive = DriveBy::new(tag, standoff).with_seed(seed);
        drive.half_span_m = span;
        let outcome = drive.run(&ReaderConfig::fast());
        outcome.rss_trace
    }

    #[test]
    fn matches_fft_decoder_in_far_field() {
        let c = code(4, 8);
        let bits = [true, false, true, true];
        let tag = c.encode(&bits).unwrap();
        let center = ros_em::Vec3::new(0.0, 3.5, 1.0);
        let trace = run_trace(tag, 3.5, 8.0, 1);
        let r = decode_nearfield(&trace, center, 0.0, &c, &DecoderConfig::default()).unwrap();
        assert_eq!(r.bits, bits.to_vec(), "amps {:?}", r.slot_amplitudes);
        assert!(r.snr_db() > 12.0, "SNR {:.1}", r.snr_db());
    }

    #[test]
    fn decodes_6bit_tag_in_near_field() {
        // The FFT decoder fails on a 6-bit tag at 4 m (inside its
        // ≈7.6 m far field); the matched filter does not.
        let c = code(6, 8);
        let bits = [true, true, false, true, false, true];
        let tag = c.encode(&bits).unwrap();
        let center = ros_em::Vec3::new(0.0, 4.0, 1.0);
        let trace = run_trace(tag, 4.0, 10.0, 66);
        let r = decode_nearfield(&trace, center, 0.0, &c, &DecoderConfig::default()).unwrap();
        assert_eq!(r.bits, bits.to_vec(), "amps {:?}", r.slot_amplitudes);
    }

    #[test]
    fn decodes_4bit_tag_well_inside_far_field() {
        // 2 m standoff < 2.9 m far field.
        let c = code(4, 8);
        let bits = [false, true, true, false];
        let tag = c.encode(&bits).unwrap();
        let center = ros_em::Vec3::new(0.0, 2.0, 1.0);
        let trace = run_trace(tag, 2.0, 5.0, 3);
        let r = decode_nearfield(&trace, center, 0.0, &c, &DecoderConfig::default()).unwrap();
        assert_eq!(r.bits, bits.to_vec());
    }

    #[test]
    fn too_few_samples_error() {
        let c = code(4, 8);
        let err = decode_nearfield(&[], ros_em::Vec3::ZERO, 0.0, &c, &DecoderConfig::default())
            .unwrap_err();
        assert!(matches!(err, DecodeError::TooFewSamples { .. }));
    }
}
