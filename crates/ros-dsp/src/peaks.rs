//! Peak detection for spectra and angular profiles.
//!
//! Used in three places:
//!
//! * range-profile peaks → point-cloud candidates (with CFAR),
//! * AoA pseudo-spectrum peaks → per-point azimuth,
//! * RCS-frequency-spectrum peaks → coding-bit amplitudes (§5.2).
//!
//! The detector finds strict local maxima, optionally enforces a
//! minimum height, *prominence* (height above the higher of the two
//! flanking saddles — robust against sidelobe shoulders), and a minimum
//! index separation (greedy, strongest first).

use ros_em::units::cast::AsF64;

/// A detected peak.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Peak {
    /// Index into the input slice.
    pub index: usize,
    /// Value at the peak.
    pub value: f64,
    /// Prominence: peak height above the higher flanking minimum.
    pub prominence: f64,
    /// Sub-bin interpolated position (parabolic fit of the peak and its
    /// neighbours); equals `index as f64` at the array edges.
    pub refined_index: f64,
}

/// Detection thresholds. Defaults accept everything (pure local maxima).
#[derive(Clone, Copy, Debug)]
pub struct PeakParams {
    /// Minimum peak value.
    pub min_height: f64,
    /// Minimum prominence.
    pub min_prominence: f64,
    /// Minimum separation between retained peaks, in samples.
    pub min_separation: usize,
}

impl Default for PeakParams {
    fn default() -> Self {
        PeakParams {
            min_height: f64::NEG_INFINITY,
            min_prominence: 0.0,
            min_separation: 0,
        }
    }
}

/// Finds peaks in `data` subject to `params`, sorted by descending value.
pub fn find_peaks(data: &[f64], params: &PeakParams) -> Vec<Peak> {
    let n = data.len();
    if n < 3 {
        return Vec::new();
    }

    let mut peaks: Vec<Peak> = Vec::new();
    for i in 1..n - 1 {
        // A strict local max; plateaus are attributed to their left edge.
        if data[i] > data[i - 1] && data[i] >= data[i + 1] {
            if data[i] < params.min_height {
                continue;
            }
            let prominence = prominence_at(data, i);
            if prominence < params.min_prominence {
                continue;
            }
            peaks.push(Peak {
                index: i,
                value: data[i],
                prominence,
                refined_index: parabolic_refine(data, i),
            });
        }
    }

    peaks.sort_by(|a, b| b.value.total_cmp(&a.value));

    if params.min_separation > 0 {
        let mut kept: Vec<Peak> = Vec::new();
        for p in peaks {
            if kept
                .iter()
                .all(|q| p.index.abs_diff(q.index) >= params.min_separation)
            {
                kept.push(p);
            }
        }
        return kept;
    }
    peaks
}

/// Stable in-place insertion sort by descending value — the same
/// permutation `sort_by(|a, b| b.value.total_cmp(&a.value))` produces
/// (both are stable), but without `std`'s runtime merge buffer. Peak
/// lists on the hot path are short (a handful of coding/AoA peaks), so
/// the quadratic worst case is irrelevant.
fn sort_desc_by_value(peaks: &mut [Peak]) {
    for i in 1..peaks.len() {
        let mut j = i;
        while j > 0 && peaks[j - 1].value.total_cmp(&peaks[j].value) == std::cmp::Ordering::Less {
            peaks.swap(j - 1, j);
            j -= 1;
        }
    }
}

/// Scratch-buffer twin of [`find_peaks`]: identical detections written
/// into `out` (cleared first). Allocation-free once `out` has grown to
/// capacity, so it is safe to call from the steady-state frame.
pub fn find_peaks_into(data: &[f64], params: &PeakParams, out: &mut Vec<Peak>) {
    out.clear();
    let n = data.len();
    if n < 3 {
        return;
    }
    for i in 1..n - 1 {
        // A strict local max; plateaus are attributed to their left edge.
        if data[i] > data[i - 1] && data[i] >= data[i + 1] {
            if data[i] < params.min_height {
                continue;
            }
            let prominence = prominence_at(data, i);
            if prominence < params.min_prominence {
                continue;
            }
            out.push(Peak {
                index: i,
                value: data[i],
                prominence,
                refined_index: parabolic_refine(data, i),
            });
        }
    }

    sort_desc_by_value(out);

    if params.min_separation > 0 {
        // Greedy strongest-first keep, compacted in place: the kept
        // set is always a prefix of `out`, so the separation test can
        // run against the already-written prefix.
        let mut write = 0usize;
        for i in 0..out.len() {
            let p = out[i];
            if out[..write]
                .iter()
                .all(|q| p.index.abs_diff(q.index) >= params.min_separation)
            {
                out[write] = p;
                write += 1;
            }
        }
        out.truncate(write);
    }
}

/// Prominence of the local maximum at `i`: walk left and right until a
/// sample higher than `data[i]` is found (or the edge); the prominence
/// is `data[i]` minus the higher of the two interval minima.
fn prominence_at(data: &[f64], i: usize) -> f64 {
    let h = data[i];

    let mut left_min = h;
    for j in (0..i).rev() {
        if data[j] > h {
            break;
        }
        left_min = left_min.min(data[j]);
    }

    let mut right_min = h;
    for &v in &data[i + 1..] {
        if v > h {
            break;
        }
        right_min = right_min.min(v);
    }

    h - left_min.max(right_min)
}

/// Three-point parabolic interpolation of the true peak position.
fn parabolic_refine(data: &[f64], i: usize) -> f64 {
    if i == 0 || i + 1 >= data.len() {
        return i.as_f64();
    }
    let (a, b, c) = (data[i - 1], data[i], data[i + 1]);
    let denom = a - 2.0 * b + c;
    if denom.abs() < 1e-300 {
        return i.as_f64();
    }
    let delta = 0.5 * (a - c) / denom;
    // Clamp: a sane vertex lies within ±½ bin of the sampled maximum.
    i.as_f64() + delta.clamp(-0.5, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finds_single_peak() {
        let d = [0.0, 1.0, 3.0, 1.0, 0.0];
        let p = find_peaks(&d, &PeakParams::default());
        assert_eq!(p.len(), 1);
        assert_eq!(p[0].index, 2);
        assert_eq!(p[0].value, 3.0);
        assert_eq!(p[0].prominence, 3.0);
    }

    #[test]
    fn no_peaks_in_monotone_data() {
        let up: Vec<f64> = (0..10).map(|i| i as f64).collect();
        assert!(find_peaks(&up, &PeakParams::default()).is_empty());
        let down: Vec<f64> = (0..10).map(|i| -(i as f64)).collect();
        assert!(find_peaks(&down, &PeakParams::default()).is_empty());
    }

    #[test]
    fn edge_samples_are_not_peaks() {
        let d = [5.0, 1.0, 2.0, 1.0, 9.0];
        let p = find_peaks(&d, &PeakParams::default());
        assert_eq!(p.len(), 1);
        assert_eq!(p[0].index, 2);
    }

    #[test]
    fn sorted_by_value_descending() {
        let d = [0.0, 2.0, 0.0, 5.0, 0.0, 3.0, 0.0];
        let p = find_peaks(&d, &PeakParams::default());
        let values: Vec<f64> = p.iter().map(|p| p.value).collect();
        assert_eq!(values, vec![5.0, 3.0, 2.0]);
    }

    #[test]
    fn min_height_filters() {
        let d = [0.0, 2.0, 0.0, 5.0, 0.0];
        let p = find_peaks(
            &d,
            &PeakParams {
                min_height: 3.0,
                ..Default::default()
            },
        );
        assert_eq!(p.len(), 1);
        assert_eq!(p[0].value, 5.0);
    }

    #[test]
    fn prominence_of_shoulder_is_small() {
        // A small bump riding on the flank of a big peak has low
        // prominence even though its height is large.
        let d = [0.0, 10.0, 8.0, 8.5, 2.0, 0.0];
        let p = find_peaks(&d, &PeakParams::default());
        let shoulder = p.iter().find(|p| p.index == 3).unwrap();
        assert!((shoulder.prominence - 0.5).abs() < 1e-12);
        let main = p.iter().find(|p| p.index == 1).unwrap();
        assert_eq!(main.prominence, 10.0);
    }

    #[test]
    fn min_separation_keeps_strongest() {
        let d = [0.0, 4.0, 0.0, 5.0, 0.0, 4.5, 0.0];
        let p = find_peaks(
            &d,
            &PeakParams {
                min_separation: 3,
                ..Default::default()
            },
        );
        // 5.0 at idx 3 wins; 4.5 at idx 5 is within 3 bins; 4.0 at idx 1 too.
        assert_eq!(p.len(), 1);
        assert_eq!(p[0].index, 3);
    }

    #[test]
    fn plateau_detected_once() {
        let d = [0.0, 1.0, 1.0, 0.0];
        let p = find_peaks(&d, &PeakParams::default());
        assert_eq!(p.len(), 1);
        assert_eq!(p[0].index, 1);
    }

    #[test]
    fn parabolic_refinement_recovers_offset() {
        // Sample a parabola with vertex at 2.3.
        let vertex = 2.3;
        let d: Vec<f64> = (0..6).map(|i| 10.0 - (i as f64 - vertex).powi(2)).collect();
        let p = find_peaks(&d, &PeakParams::default());
        assert_eq!(p.len(), 1);
        assert!((p[0].refined_index - vertex).abs() < 1e-9);
    }

    #[test]
    fn into_variant_matches_direct() {
        // Ties, separation, thresholds — the into variant must agree
        // exactly (same order, same bits) with the allocating one.
        let d = [0.0, 4.0, 0.0, 5.0, 0.0, 4.0, 0.0, 2.0, 0.0, 5.0, 0.0];
        for params in [
            PeakParams::default(),
            PeakParams {
                min_separation: 3,
                ..Default::default()
            },
            PeakParams {
                min_height: 3.0,
                min_prominence: 1.0,
                min_separation: 2,
            },
        ] {
            let direct = find_peaks(&d, &params);
            let mut out = vec![
                Peak {
                    index: 9,
                    value: 9.9,
                    prominence: 0.0,
                    refined_index: 0.0
                };
                2
            ]; // dirty buffer must be cleared
            find_peaks_into(&d, &params, &mut out);
            assert_eq!(direct, out);
        }
    }

    #[test]
    fn short_inputs_yield_nothing() {
        assert!(find_peaks(&[], &PeakParams::default()).is_empty());
        assert!(find_peaks(&[1.0], &PeakParams::default()).is_empty());
        assert!(find_peaks(&[1.0, 2.0], &PeakParams::default()).is_empty());
    }
}
