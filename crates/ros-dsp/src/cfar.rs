//! Cell-averaging CFAR (constant false-alarm rate) detection.
//!
//! Range profiles contain targets of wildly different strengths on a
//! noise floor that varies with range and clutter. A fixed threshold
//! either misses weak tags or fires on noise; CA-CFAR adapts the
//! threshold per cell from the average power of *training* cells
//! around it, excluding *guard* cells that may contain target energy
//! leakage. This is the standard first stage of the §3.2/§6 point-cloud
//! flow ("recognizing peaks at different distances").

use ros_em::units::cast::AsF64;

/// CA-CFAR configuration.
#[derive(Clone, Copy, Debug)]
pub struct CfarParams {
    /// Training cells on each side of the cell under test.
    pub training: usize,
    /// Guard cells on each side of the cell under test.
    pub guard: usize,
    /// Threshold factor over the noise estimate, linear power.
    pub threshold_factor: f64,
}

impl Default for CfarParams {
    fn default() -> Self {
        CfarParams {
            training: 8,
            guard: 2,
            threshold_factor: 8.0, // ≈9 dB over the local noise average
        }
    }
}

/// A CFAR detection.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Detection {
    /// Cell index.
    pub index: usize,
    /// Cell power.
    pub power: f64,
    /// Local noise estimate used for the test.
    pub noise: f64,
}

impl Detection {
    /// Detection SNR in dB, clamped to ±120 dB.
    ///
    /// A blanked frame (or a training window of exact zeros) makes the
    /// noise estimate 0, and the raw ratio would read +∞ — or NaN for
    /// a 0/0 cell — either of which poisons every downstream statistic
    /// it is averaged into. Power is clamped non-negative, the noise
    /// floored at the smallest positive normal, and the result pinned
    /// to a ±120 dB range no physical FMCW link exceeds; ordinary
    /// detections are numerically unchanged.
    pub fn snr_db(&self) -> f64 {
        const SNR_CLAMP_DB: f64 = 120.0;
        let ratio = self.power.max(0.0) / self.noise.max(f64::MIN_POSITIVE);
        (10.0 * ratio.log10()).clamp(-SNR_CLAMP_DB, SNR_CLAMP_DB)
    }
}

/// Runs cell-averaging CFAR over a power profile.
///
/// Cells whose one-sided windows fall off the array use the available
/// side only (automatically degenerating to "greatest-of" at the
/// edges). Cells must also be local maxima so one target produces one
/// detection, not a run of them.
pub fn ca_cfar(power: &[f64], params: &CfarParams) -> Vec<Detection> {
    let mut detections = Vec::new();
    ca_cfar_into(power, params, &mut detections);
    detections
}

/// Scratch-buffer twin of [`ca_cfar`]: identical detections written
/// into `out` (cleared first). Allocation-free once `out` has grown to
/// capacity, so it is safe to call from the steady-state frame.
pub fn ca_cfar_into(power: &[f64], params: &CfarParams, out: &mut Vec<Detection>) {
    out.clear();
    let n = power.len();
    if n == 0 || params.training == 0 {
        return;
    }
    for i in 0..n {
        // Leading (left) training window.
        let left_hi = i.saturating_sub(params.guard);
        let left_lo = left_hi.saturating_sub(params.training);
        // Lagging (right) training window.
        let right_lo = (i + params.guard + 1).min(n);
        let right_hi = (right_lo + params.training).min(n);

        // Non-finite cells (saturated FFT bins, blanked samples) are
        // excluded from the training average — one NaN in a window
        // would otherwise poison the noise estimate for every cell it
        // slides through — and can never fire themselves: a NaN power
        // fails every comparison below, and a +∞ one is no real
        // detection either.
        if !power[i].is_finite() {
            continue;
        }
        let mut sum = 0.0;
        let mut count = 0usize;
        let mut train = |lo: usize, hi: usize| {
            for &p in &power[lo..hi] {
                if p.is_finite() {
                    sum += p;
                    count += 1;
                }
            }
        };
        if left_hi > left_lo {
            train(left_lo, left_hi);
        }
        if right_hi > right_lo {
            train(right_lo, right_hi);
        }
        if count == 0 {
            continue;
        }
        let noise = sum / count.as_f64();

        // A NaN neighbour is "unknown", not "bigger": `!(a < b)` keeps
        // the original `>=` semantics on the left while treating NaN
        // as not-larger; the explicit NaN check does the same on the
        // strict right-hand comparison.
        #[expect(
            clippy::neg_cmp_op_on_partial_ord,
            reason = "`!(a < b)` treats NaN as not-larger"
        )]
        let is_local_max = (i == 0 || !(power[i] < power[i - 1]))
            && (i + 1 >= n || power[i] > power[i + 1] || power[i + 1].is_nan());

        if is_local_max && power[i] > params.threshold_factor * noise {
            out.push(Detection {
                index: i,
                power: power[i],
                noise,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flat_noise(n: usize, level: f64) -> Vec<f64> {
        vec![level; n]
    }

    #[test]
    fn detects_strong_target_on_flat_noise() {
        let mut p = flat_noise(64, 1.0);
        p[30] = 100.0;
        let d = ca_cfar(&p, &CfarParams::default());
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].index, 30);
        assert!((d[0].noise - 1.0).abs() < 1e-9);
        assert!((d[0].snr_db() - 20.0).abs() < 0.1);
    }

    #[test]
    fn no_detection_on_pure_noise() {
        let p = flat_noise(64, 2.5);
        assert!(ca_cfar(&p, &CfarParams::default()).is_empty());
    }

    #[test]
    fn threshold_factor_controls_sensitivity() {
        let mut p = flat_noise(64, 1.0);
        p[20] = 5.0;
        let strict = CfarParams {
            threshold_factor: 8.0,
            ..Default::default()
        };
        let loose = CfarParams {
            threshold_factor: 3.0,
            ..Default::default()
        };
        assert!(ca_cfar(&p, &strict).is_empty());
        assert_eq!(ca_cfar(&p, &loose).len(), 1);
    }

    #[test]
    fn guard_cells_protect_wide_targets() {
        // A target that leaks into neighbours: without guards the
        // leakage inflates the noise estimate.
        let mut p = flat_noise(64, 1.0);
        p[31] = 30.0;
        p[32] = 100.0;
        p[33] = 30.0;
        let with_guard = CfarParams {
            guard: 2,
            ..Default::default()
        };
        let d = ca_cfar(&p, &with_guard);
        assert!(d.iter().any(|d| d.index == 32));
        // The shoulders must not fire (not local maxima).
        assert!(d.iter().all(|d| d.index == 32));
    }

    #[test]
    fn adapts_to_noise_steps() {
        // Step in the noise floor: a target that clears the low floor
        // but sits inside the high-floor region must not fire there.
        let mut p = Vec::new();
        p.extend(flat_noise(32, 1.0));
        p.extend(flat_noise(32, 50.0));
        p[16] = 40.0; // strong vs floor 1.0
        p[48] = 120.0; // only 2.4× the local floor of 50
        let d = ca_cfar(
            &p,
            &CfarParams {
                training: 6,
                guard: 1,
                threshold_factor: 6.0,
            },
        );
        assert!(d.iter().any(|d| d.index == 16));
        assert!(!d.iter().any(|d| d.index == 48));
    }

    #[test]
    fn two_separated_targets_both_detected() {
        let mut p = flat_noise(128, 1.0);
        p[30] = 50.0;
        p[90] = 80.0;
        let d = ca_cfar(&p, &CfarParams::default());
        let idx: Vec<usize> = d.iter().map(|d| d.index).collect();
        assert!(idx.contains(&30) && idx.contains(&90));
        assert_eq!(d.len(), 2);
    }

    #[test]
    fn edge_target_detected_with_one_sided_window() {
        let mut p = flat_noise(64, 1.0);
        p[1] = 100.0;
        let d = ca_cfar(&p, &CfarParams::default());
        assert!(d.iter().any(|d| d.index == 1));
    }

    #[test]
    fn degenerate_inputs() {
        assert!(ca_cfar(&[], &CfarParams::default()).is_empty());
        let p = [5.0];
        assert!(ca_cfar(
            &p,
            &CfarParams {
                training: 0,
                ..Default::default()
            }
        )
        .is_empty());
    }

    #[test]
    fn single_sample_has_no_training_cells() {
        // One cell: both training windows are empty, so no noise
        // estimate exists and no detection can fire, however strong.
        assert!(ca_cfar(&[1e9], &CfarParams::default()).is_empty());
    }

    #[test]
    fn all_equal_power_never_fires() {
        // A perfectly flat profile sits exactly at its own noise
        // estimate; any threshold factor above 1 keeps it silent at
        // every length down to the two-cell minimum.
        for n in [2usize, 3, 5, 64] {
            let p = vec![3.7; n];
            let d = ca_cfar(
                &p,
                &CfarParams {
                    training: 2,
                    guard: 0,
                    threshold_factor: 1.0 + 1e-12,
                },
            );
            assert!(d.is_empty(), "fired on flat profile of length {n}");
        }
    }

    #[test]
    fn snr_db_is_finite_for_degenerate_cells() {
        // Zero noise estimate: previously +inf (or NaN for 0/0).
        let d = Detection {
            index: 0,
            power: 5.0,
            noise: 0.0,
        };
        assert!(d.snr_db().is_finite());
        assert_eq!(d.snr_db(), 120.0);
        let zz = Detection {
            index: 0,
            power: 0.0,
            noise: 0.0,
        };
        assert!(zz.snr_db().is_finite(), "0/0 must not be NaN");
        assert_eq!(zz.snr_db(), -120.0);
        let silent = Detection {
            index: 0,
            power: 0.0,
            noise: 1.0,
        };
        assert_eq!(silent.snr_db(), -120.0);
        // The normal path is unchanged.
        let normal = Detection {
            index: 0,
            power: 100.0,
            noise: 1.0,
        };
        assert!((normal.snr_db() - 20.0).abs() < 1e-12);
    }

    #[test]
    fn nonfinite_cells_never_fire_and_do_not_poison_training() {
        // A NaN and a +∞ cell sit inside the training windows of a
        // genuine target: the target must still be detected with a
        // finite noise estimate, and the corrupted cells themselves
        // must not appear as detections.
        let mut p = flat_noise(64, 1.0);
        p[30] = 100.0;
        p[20] = f64::NAN;
        p[38] = f64::INFINITY;
        let d = ca_cfar(&p, &CfarParams::default());
        assert!(d.iter().any(|d| d.index == 30), "target lost to NaN cell");
        for det in &d {
            assert!(det.index != 20 && det.index != 38, "corrupt cell fired");
            assert!(det.noise.is_finite() && det.power.is_finite());
            assert!(det.snr_db().is_finite());
        }
    }

    #[test]
    fn into_variant_matches_direct() {
        let mut p = flat_noise(64, 1.0);
        p[30] = 100.0;
        p[20] = f64::NAN;
        p[50] = 40.0;
        let direct = ca_cfar(&p, &CfarParams::default());
        let mut out = vec![
            Detection {
                index: 1,
                power: 2.0,
                noise: 3.0
            };
            4
        ]; // dirty buffer must be cleared
        ca_cfar_into(&p, &CfarParams::default(), &mut out);
        assert_eq!(direct, out);
    }

    #[test]
    fn all_nan_profile_is_silent() {
        let p = vec![f64::NAN; 48];
        assert!(ca_cfar(&p, &CfarParams::default()).is_empty());
    }

    #[test]
    fn zero_power_profile_stays_silent() {
        // All-zero power (e.g. a blanked frame): noise estimate is 0
        // and `0 > k·0` is false, so nothing fires and nothing is NaN.
        let p = vec![0.0; 32];
        assert!(ca_cfar(&p, &CfarParams::default()).is_empty());
    }
}
