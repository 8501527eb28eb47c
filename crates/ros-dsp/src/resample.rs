//! Resampling of non-uniformly sampled traces onto uniform grids.
//!
//! The tag's RCS is sampled wherever the vehicle happens to be when a
//! frame fires, i.e. at non-uniform positions in `u = cos θ` (§5.1's
//! spectral variable). The FFT needs uniform samples, so the decoder
//! first sorts the (u, RSS) pairs and linearly interpolates them onto a
//! uniform u-grid. Tracking error (Fig. 16d) enters precisely here: the
//! *assumed* u values drift from the true ones, warping the grid.

use ros_em::units::cast::AsF64;

/// A sampled point of a 1-D trace.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Sample {
    /// Abscissa (e.g. `u = cos θ`).
    pub x: f64,
    /// Ordinate (e.g. linear RSS).
    pub y: f64,
}

/// Sorts samples by `x`, averaging exact duplicates.
///
/// Duplicate abscissae occur when the vehicle is nearly stationary
/// relative to the tag (frames faster than motion); averaging them is
/// the maximum-likelihood combination under AWGN.
#[expect(
    clippy::float_cmp,
    reason = "only bit-equal abscissae are duplicates; the goldens pin this grouping"
)]
pub fn sort_dedup(samples: &mut Vec<Sample>) {
    samples.sort_by(|a, b| a.x.total_cmp(&b.x));
    let mut out: Vec<Sample> = Vec::with_capacity(samples.len());
    let mut i = 0;
    while i < samples.len() {
        let x = samples[i].x;
        let mut sum = 0.0;
        let mut cnt = 0usize;
        while i < samples.len() && samples[i].x == x {
            sum += samples[i].y;
            cnt += 1;
            i += 1;
        }
        out.push(Sample {
            x,
            y: sum / cnt.as_f64(),
        });
    }
    *samples = out;
}

/// Linearly interpolates sorted samples at `x`; clamps outside the hull.
pub fn interp(samples: &[Sample], x: f64) -> f64 {
    match samples {
        [] => 0.0,
        [only] => only.y,
        _ => {
            if x <= samples[0].x {
                return samples[0].y;
            }
            let last = samples.len() - 1;
            if x >= samples[last].x {
                return samples[last].y;
            }
            // Binary search for the bracketing pair.
            let mut lo = 0usize;
            let mut hi = last;
            while hi - lo > 1 {
                let mid = (lo + hi) / 2;
                if samples[mid].x <= x {
                    lo = mid;
                } else {
                    hi = mid;
                }
            }
            let (a, b) = (samples[lo], samples[hi]);
            let t = (x - a.x) / (b.x - a.x);
            a.y * (1.0 - t) + b.y * t
        }
    }
}

/// Stable bottom-up merge sort of samples by `x`, using `aux` as the
/// merge buffer. Stability makes the output permutation identical to
/// the `sort_by(total_cmp)` the direct path uses — `std`'s stable sort
/// allocates a scratch buffer at runtime, which is exactly what the
/// hot path must avoid.
fn merge_sort_by_x(samples: &mut [Sample], aux: &mut Vec<Sample>) {
    let n = samples.len();
    aux.clear();
    aux.resize(n, Sample { x: 0.0, y: 0.0 });
    let mut width = 1;
    while width < n {
        let mut lo = 0;
        while lo < n {
            let mid = (lo + width).min(n);
            let hi = (lo + 2 * width).min(n);
            if mid < hi {
                let (mut i, mut j) = (lo, mid);
                #[expect(
                    clippy::needless_range_loop,
                    reason = "the indexed merge stays as written in this steady-state kernel"
                )]
                for k in lo..hi {
                    if i < mid
                        && (j >= hi
                            || samples[i].x.total_cmp(&samples[j].x) != std::cmp::Ordering::Greater)
                    {
                        aux[k] = samples[i];
                        i += 1;
                    } else {
                        aux[k] = samples[j];
                        j += 1;
                    }
                }
                samples[lo..hi].copy_from_slice(&aux[lo..hi]);
            }
            lo = hi;
        }
        width *= 2;
    }
}

/// In-place twin of the [`sort_dedup`] compaction pass: averages runs
/// of exactly-equal abscissae, writing the survivors to the front and
/// truncating. Same run grouping and summation order as the direct
/// path, so the averaged values carry the same bits.
#[expect(
    clippy::float_cmp,
    reason = "only bit-equal abscissae are duplicates; the goldens pin this grouping"
)]
fn dedup_average_in_place(samples: &mut Vec<Sample>) {
    let n = samples.len();
    let mut write = 0usize;
    let mut i = 0usize;
    while i < n {
        let x = samples[i].x;
        let mut sum = 0.0;
        let mut cnt = 0usize;
        while i < n && samples[i].x == x {
            sum += samples[i].y;
            cnt += 1;
            i += 1;
        }
        samples[write] = Sample {
            x,
            y: sum / cnt.as_f64(),
        };
        write += 1;
    }
    samples.truncate(write);
}

/// Scratch-buffer twin of [`resample_uniform`]: sorts/dedups `samples`
/// in place (it is consumed as working storage, exactly like the
/// by-value direct version) and writes the uniform grid into `out`.
/// `aux` is merge-sort scratch. Bit-identical to the direct path;
/// allocation-free once all three buffers have grown to capacity.
pub fn resample_uniform_into(
    samples: &mut Vec<Sample>,
    x0: f64,
    x1: f64,
    n: usize,
    aux: &mut Vec<Sample>,
    out: &mut Vec<f64>,
) {
    out.clear();
    if samples.is_empty() || n == 0 {
        return;
    }
    merge_sort_by_x(samples, aux);
    dedup_average_in_place(samples);
    for i in 0..n {
        let x = if n == 1 {
            (x0 + x1) / 2.0
        } else {
            x0 + (x1 - x0) * i.as_f64() / (n - 1).as_f64()
        };
        out.push(interp(samples, x));
    }
}

/// Resamples a non-uniform trace onto `n` uniform points spanning
/// `[x0, x1]`. The input is sorted/deduplicated internally.
///
/// Returns an empty vector when the input is empty or `n == 0`.
///
/// This is the direct (allocating) reference; the hot decode path uses
/// [`resample_uniform_into`] with caller-held scratch.
pub fn resample_uniform(mut samples: Vec<Sample>, x0: f64, x1: f64, n: usize) -> Vec<f64> {
    if samples.is_empty() || n == 0 {
        return Vec::new();
    }
    sort_dedup(&mut samples);
    (0..n)
        .map(|i| {
            let x = if n == 1 {
                (x0 + x1) / 2.0
            } else {
                x0 + (x1 - x0) * i.as_f64() / (n - 1).as_f64()
            };
            interp(&samples, x)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(x: f64, y: f64) -> Sample {
        Sample { x, y }
    }

    #[test]
    fn sort_and_average_duplicates() {
        let mut v = vec![s(2.0, 4.0), s(1.0, 1.0), s(2.0, 6.0)];
        sort_dedup(&mut v);
        assert_eq!(v, vec![s(1.0, 1.0), s(2.0, 5.0)]);
    }

    #[test]
    fn interp_linear_between_points() {
        let v = vec![s(0.0, 0.0), s(1.0, 10.0)];
        assert_eq!(interp(&v, 0.25), 2.5);
        assert_eq!(interp(&v, 0.5), 5.0);
    }

    #[test]
    fn interp_clamps_outside() {
        let v = vec![s(0.0, 3.0), s(1.0, 7.0)];
        assert_eq!(interp(&v, -5.0), 3.0);
        assert_eq!(interp(&v, 5.0), 7.0);
    }

    #[test]
    fn interp_degenerate() {
        assert_eq!(interp(&[], 0.5), 0.0);
        assert_eq!(interp(&[s(1.0, 9.0)], 42.0), 9.0);
    }

    #[test]
    fn resample_recovers_linear_function() {
        // y = 2x sampled non-uniformly, resampled uniformly.
        let xs = [0.0, 0.13, 0.41, 0.55, 0.78, 1.0];
        let samples: Vec<Sample> = xs.iter().map(|&x| s(x, 2.0 * x)).collect();
        let out = resample_uniform(samples, 0.0, 1.0, 11);
        for (i, &y) in out.iter().enumerate() {
            let x = i as f64 / 10.0;
            assert!((y - 2.0 * x).abs() < 1e-12, "at {x}: {y}");
        }
    }

    #[test]
    fn resample_unsorted_input() {
        let samples = vec![s(1.0, 2.0), s(0.0, 0.0), s(0.5, 1.0)];
        let out = resample_uniform(samples, 0.0, 1.0, 3);
        assert_eq!(out, vec![0.0, 1.0, 2.0]);
    }

    #[test]
    fn resample_empty_and_single() {
        assert!(resample_uniform(vec![], 0.0, 1.0, 8).is_empty());
        assert!(resample_uniform(vec![s(0.0, 1.0)], 0.0, 1.0, 0).is_empty());
        let out = resample_uniform(vec![s(0.3, 7.0)], 0.0, 1.0, 4);
        assert_eq!(out, vec![7.0; 4]);
    }

    #[test]
    fn resample_single_point_grid() {
        let out = resample_uniform(vec![s(0.0, 0.0), s(1.0, 10.0)], 0.0, 1.0, 1);
        assert_eq!(out, vec![5.0]); // midpoint of the span
    }

    #[test]
    fn into_variant_bit_identical_to_direct() {
        // Awkward data: duplicates, negative zero, unsorted, ties.
        let data = vec![
            s(0.3, 1.0),
            s(-0.2, 4.0),
            s(0.3, 3.0),
            s(0.0, 7.0),
            s(-0.0, 9.0),
            s(0.11, -2.5),
            s(-0.2, 6.0),
            s(0.3, 5.0),
        ];
        for n in [0usize, 1, 2, 7, 64] {
            let direct = resample_uniform(data.clone(), -0.5, 0.5, n);
            let mut work = data.clone();
            let mut aux = Vec::new();
            let mut out = vec![99.0; 3]; // dirty buffer must be cleared
            resample_uniform_into(&mut work, -0.5, 0.5, n, &mut aux, &mut out);
            assert_eq!(direct.len(), out.len(), "n={n}");
            for (a, b) in direct.iter().zip(&out) {
                assert_eq!(a.to_bits(), b.to_bits(), "n={n}");
            }
        }
    }

    #[test]
    fn into_variant_scratch_reuse_across_sizes() {
        // The same scratch buffers serve different trace lengths and
        // grid sizes without leaking state between calls.
        let mut aux = Vec::new();
        let mut out = Vec::new();
        for len in [3usize, 17, 5, 64, 2] {
            let data: Vec<Sample> = (0..len)
                .map(|i| s(((i * 7919) % len) as f64 / len as f64, i as f64 * 0.3))
                .collect();
            let n = len * 2;
            let direct = resample_uniform(data.clone(), 0.0, 1.0, n);
            let mut work = data;
            resample_uniform_into(&mut work, 0.0, 1.0, n, &mut aux, &mut out);
            assert_eq!(direct.len(), out.len());
            for (a, b) in direct.iter().zip(&out) {
                assert_eq!(a.to_bits(), b.to_bits(), "len={len}");
            }
        }
    }
}
