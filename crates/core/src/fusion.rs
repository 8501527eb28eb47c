//! Multi-pass fusion: combining several drive-by readings.
//!
//! A commuting vehicle passes the same tag every day; a fleet passes
//! it hundreds of times an hour. Single-pass decoding at the edge of
//! the link budget (an 8-row tag at 5 m, Fig. 15) is marginal — but
//! the readings are independent, so combining them buys back SNR.
//! This module implements the two standard combiners:
//!
//! * **amplitude fusion** — SNR-weighted averaging of the normalized
//!   coding-slot amplitudes before the bit decision (coherent-ish
//!   gain: variance shrinks as `1/Σw`),
//! * **majority vote** — per-bit voting over independent decodes
//!   (robust to occasional garbage passes).

use crate::decode::DecodeResult;
use ros_em::units::cast::AsF64;

/// A fused multi-pass decision.
#[derive(Clone, Debug)]
pub struct FusedDecode {
    /// Fused bits.
    pub bits: Vec<bool>,
    /// Fused slot amplitudes (amplitude fusion) or vote fractions
    /// (majority vote), in slot order.
    pub confidence: Vec<f64>,
    /// Passes that contributed.
    pub n_passes: usize,
}

/// Fuses passes by SNR-weighted slot-amplitude averaging.
///
/// Weighting by linear SNR keeps a garbage pass (SNR ≈ 0) from
/// diluting good ones. Bits are re-decided on the fused amplitudes
/// with the same relative-plus-absolute rule as the single-pass
/// decoder.
///
/// # Panics
/// Panics when `passes` is empty or slot counts differ.
pub fn fuse_amplitudes(passes: &[DecodeResult]) -> FusedDecode {
    assert!(!passes.is_empty(), "need at least one pass");
    let n_slots = passes[0].slot_amplitudes.len();
    assert!(
        passes.iter().all(|p| p.slot_amplitudes.len() == n_slots),
        "slot count mismatch across passes"
    );

    let mut fused = vec![0.0; n_slots];
    let mut weight_sum = 0.0;
    for p in passes {
        #[expect(
            clippy::manual_clamp,
            reason = "max/min maps a NaN SNR to the 1e-6 floor; f64::clamp would pass the NaN through"
        )]
        let w = p.snr_linear.max(1e-6).min(1e6);
        for (f, &a) in fused.iter_mut().zip(&p.slot_amplitudes) {
            *f += w * a;
        }
        weight_sum += w;
    }
    for f in fused.iter_mut() {
        *f /= weight_sum;
    }

    // Averaging K independent passes shrinks the amplitude noise by
    // ≈√K, so the absolute gate scales down accordingly.
    let gate = (4.0 / (passes.len().as_f64()).sqrt()).max(1.5);
    let max_amp = fused.iter().cloned().fold(0.0, f64::max);
    let bits: Vec<bool> = fused
        .iter()
        .map(|&a| a > 0.45 * max_amp && a > gate)
        .collect();
    FusedDecode {
        bits,
        confidence: fused,
        n_passes: passes.len(),
    }
}

/// Fuses passes by per-bit majority vote (ties decode to 0 — the
/// conservative choice: a phantom "1" invents a sign that is not
/// there).
///
/// # Panics
/// Panics when `passes` is empty or bit counts differ.
pub fn fuse_majority(passes: &[DecodeResult]) -> FusedDecode {
    assert!(!passes.is_empty(), "need at least one pass");
    let n_bits = passes[0].bits.len();
    assert!(
        passes.iter().all(|p| p.bits.len() == n_bits),
        "bit count mismatch across passes"
    );
    let mut votes = vec![0usize; n_bits];
    for p in passes {
        for (v, &b) in votes.iter_mut().zip(&p.bits) {
            if b {
                *v += 1;
            }
        }
    }
    let n = passes.len();
    let bits: Vec<bool> = votes.iter().map(|&v| 2 * v > n).collect();
    let confidence: Vec<f64> = votes.iter().map(|&v| v.as_f64() / n.as_f64()).collect();
    FusedDecode {
        bits,
        confidence,
        n_passes: n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::SpatialCode;
    use crate::reader::{DriveBy, ReaderConfig};

    fn marginal_passes(n: usize, standoff: f64) -> (Vec<bool>, Vec<DecodeResult>) {
        // An 8-row tag near its Fig.-15 range limit (≈4 m): single
        // passes are unreliable.
        let bits = vec![true, false, true, true];
        let code = SpatialCode {
            rows_per_stack: 8,
            ..SpatialCode::paper_4bit()
        };
        let mut passes = Vec::new();
        for seed in 0..n as u64 {
            let tag = code.encode(&bits).unwrap();
            let mut drive = DriveBy::new(tag, standoff).with_seed(5500 + seed);
            drive.half_span_m = 8.0;
            if let Ok(d) = drive.run(&ReaderConfig::fast()).decode {
                passes.push(d);
            }
        }
        (bits, passes)
    }

    #[test]
    fn amplitude_fusion_rescues_marginal_link() {
        // At 4.75 m amplitude fusion recovers the message even though
        // individual bit decisions are mostly below the single-pass
        // gate.
        let (bits, passes) = marginal_passes(7, 4.75);
        assert!(passes.len() >= 5, "need passes to fuse");
        let fused = fuse_amplitudes(&passes);
        assert_eq!(
            fused.bits, bits,
            "fused decode failed: {:?}",
            fused.confidence
        );
    }

    #[test]
    fn majority_vote_rescues_moderately_marginal_link() {
        // Majority voting needs individual decodes to be right more
        // often than not — works at 4.4 m where single passes flip
        // occasionally.
        let (bits, passes) = marginal_passes(7, 4.4);
        assert!(passes.len() >= 5);
        let vote = fuse_majority(&passes);
        assert_eq!(vote.bits, bits, "votes: {:?}", vote.confidence);
    }

    #[test]
    fn amplitude_fusion_weights_by_snr() {
        // One good pass + one garbage pass: the garbage must not win.
        let good = DecodeResult {
            bits: vec![true, false],
            slot_amplitudes: vec![20.0, 1.0],
            snr_linear: 1000.0,
            spectrum_spacings_m: vec![],
            spectrum_mags: vec![],
            n_samples_used: 100,
            n_samples_nonfinite: 0,
            erasures: vec![],
        };
        let garbage = DecodeResult {
            bits: vec![false, true],
            slot_amplitudes: vec![1.0, 20.0],
            snr_linear: 0.01,
            spectrum_spacings_m: vec![],
            spectrum_mags: vec![],
            n_samples_used: 100,
            n_samples_nonfinite: 0,
            erasures: vec![],
        };
        let fused = fuse_amplitudes(&[good, garbage]);
        assert_eq!(fused.bits, vec![true, false]);
    }

    #[test]
    fn majority_vote_basic() {
        let mk = |bits: Vec<bool>| DecodeResult {
            bits,
            slot_amplitudes: vec![0.0; 2],
            snr_linear: 10.0,
            spectrum_spacings_m: vec![],
            spectrum_mags: vec![],
            n_samples_used: 10,
            n_samples_nonfinite: 0,
            erasures: vec![],
        };
        let fused = fuse_majority(&[
            mk(vec![true, false]),
            mk(vec![true, true]),
            mk(vec![true, false]),
        ]);
        assert_eq!(fused.bits, vec![true, false]);
        assert_eq!(fused.confidence, vec![1.0, 1.0 / 3.0]);
        assert_eq!(fused.n_passes, 3);
    }

    #[test]
    fn ties_vote_zero() {
        let mk = |b: bool| DecodeResult {
            bits: vec![b],
            slot_amplitudes: vec![0.0],
            snr_linear: 10.0,
            spectrum_spacings_m: vec![],
            spectrum_mags: vec![],
            n_samples_used: 10,
            n_samples_nonfinite: 0,
            erasures: vec![],
        };
        let fused = fuse_majority(&[mk(true), mk(false)]);
        assert_eq!(fused.bits, vec![false]);
    }

    #[test]
    #[should_panic(expected = "at least one pass")]
    fn empty_fusion_rejected() {
        fuse_amplitudes(&[]);
    }
}
