//! MUSIC super-resolution angle estimation.
//!
//! The paper's radar separates side-by-side tags with plain
//! beamforming, whose resolution is the 28.6° array beamwidth (§3.2) —
//! the reason §5.3 requires ≥1.53 m between tags at 6 m. MUSIC
//! (MUltiple SIgnal Classification) breaks that limit by splitting the
//! antenna covariance into signal and noise subspaces: sources produce
//! *nulls* of the noise subspace, which can be far narrower than a
//! beamwidth. With it, advertising boards can pack tags closer than
//! the §5.3 bound.

use crate::eig::{hermitian_eig, CMatrix};
use crate::peaks::{find_peaks, PeakParams};
use ros_em::units::cast::AsF64;
use ros_em::Complex64;

/// Sample covariance matrix `R = (1/T)·Σ x x^H` from snapshots
/// (`snapshots[t][antenna]`).
///
/// # Panics
/// Panics when snapshots are empty or ragged.
pub fn covariance(snapshots: &[Vec<Complex64>]) -> CMatrix {
    assert!(!snapshots.is_empty(), "need at least one snapshot");
    let n = snapshots[0].len();
    assert!(snapshots.iter().all(|s| s.len() == n), "ragged snapshots");
    let mut r = CMatrix::zeros(n);
    for x in snapshots {
        for i in 0..n {
            for j in 0..n {
                r[(i, j)] += x[i] * x[j].conj();
            }
        }
    }
    let t = snapshots.len().as_f64();
    for v in r.data.iter_mut() {
        *v = *v / t;
    }
    r
}

/// MUSIC pseudo-spectrum over a `sin(az)` grid for a uniform linear
/// array with `spacing_wavelengths` element pitch.
///
/// `n_sources` is the assumed source count (signal-subspace size).
/// Returns `(u_grid, pseudo_spectrum)`.
///
/// # Panics
/// Panics when `n_sources >= n_antennas`.
pub fn music_spectrum(
    r: &CMatrix,
    n_sources: usize,
    spacing_wavelengths: f64,
    n_grid: usize,
) -> (Vec<f64>, Vec<f64>) {
    let n = r.n;
    assert!(
        n_sources < n,
        "need at least one noise dimension ({n_sources} sources, {n} antennas)"
    );
    let eig = hermitian_eig(r);
    // Noise subspace: eigenvectors with the smallest n − k eigenvalues
    // (eigenvalues come back ascending).
    let n_noise = n - n_sources;

    let mut us = Vec::with_capacity(n_grid);
    let mut ps = Vec::with_capacity(n_grid);
    for g in 0..n_grid {
        let u = -1.0 + 2.0 * g.as_f64() / (n_grid - 1).as_f64();
        // Steering vector a(u).
        let a: Vec<Complex64> = (0..n)
            .map(|k| Complex64::cis(-std::f64::consts::TAU * k.as_f64() * spacing_wavelengths * u))
            .collect();
        // ||E_n^H a||².
        let mut denom = 0.0;
        for col in 0..n_noise {
            let mut dot = Complex64::ZERO;
            for (i, &ai) in a.iter().enumerate() {
                dot += eig.vectors[(i, col)].conj() * ai;
            }
            denom += dot.norm_sqr();
        }
        us.push(u);
        ps.push(1.0 / denom.max(1e-12));
    }
    (us, ps)
}

/// Estimates up to `n_sources` source directions (as `sin(az)` values)
/// from antenna snapshots, strongest first.
pub fn music_doa(
    snapshots: &[Vec<Complex64>],
    n_sources: usize,
    spacing_wavelengths: f64,
) -> Vec<f64> {
    let r = covariance(snapshots);
    let (us, ps) = music_spectrum(&r, n_sources, spacing_wavelengths, 1024);
    let peaks = find_peaks(
        &ps,
        &PeakParams {
            min_separation: 8,
            ..Default::default()
        },
    );
    peaks.iter().take(n_sources).map(|p| us[p.index]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Synthesizes snapshots for sources at the given `sin(az)` values.
    fn snapshots(
        sources: &[(f64, f64)], // (u, amplitude)
        n_ant: usize,
        spacing: f64,
        t: usize,
        noise: f64,
        seed: u64,
    ) -> Vec<Vec<Complex64>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..t)
            .map(|_| {
                (0..n_ant)
                    .map(|k| {
                        let mut x = Complex64::new(
                            rng.gen::<f64>() * noise - noise / 2.0,
                            rng.gen::<f64>() * noise - noise / 2.0,
                        );
                        for &(u, amp) in sources {
                            // Random per-snapshot source phase.
                            let _ = amp;
                            x += Complex64::cis(-std::f64::consts::TAU * k as f64 * spacing * u)
                                * amp;
                        }
                        x
                    })
                    .collect()
            })
            .collect()
    }

    /// Snapshots with independent random source phases per snapshot
    /// (decorrelates the sources, as MUSIC requires).
    fn snapshots_random_phase(
        sources: &[(f64, f64)],
        n_ant: usize,
        spacing: f64,
        t: usize,
        noise: f64,
        seed: u64,
    ) -> Vec<Vec<Complex64>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..t)
            .map(|_| {
                let phases: Vec<f64> = sources
                    .iter()
                    .map(|_| rng.gen::<f64>() * std::f64::consts::TAU)
                    .collect();
                (0..n_ant)
                    .map(|k| {
                        let mut x = Complex64::new(
                            (rng.gen::<f64>() - 0.5) * noise,
                            (rng.gen::<f64>() - 0.5) * noise,
                        );
                        for (s, &(u, amp)) in sources.iter().enumerate() {
                            x += Complex64::from_polar(
                                amp,
                                phases[s] - std::f64::consts::TAU * k as f64 * spacing * u,
                            );
                        }
                        x
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn covariance_of_single_source_is_rank_one() {
        let snaps = snapshots(&[(0.3, 1.0)], 4, 0.5, 64, 0.0, 1);
        let r = covariance(&snaps);
        let eig = crate::eig::hermitian_eig(&r);
        // One dominant eigenvalue, three ≈ 0.
        assert!(eig.values[3] > 100.0 * eig.values[2].max(1e-12));
    }

    #[test]
    fn single_source_located() {
        let u0 = 0.35;
        let snaps = snapshots_random_phase(&[(u0, 1.0)], 4, 0.5, 128, 0.05, 2);
        let doa = music_doa(&snaps, 1, 0.5);
        assert_eq!(doa.len(), 1);
        assert!((doa[0] - u0).abs() < 0.02, "got {}", doa[0]);
    }

    #[test]
    fn resolves_sources_inside_a_beamwidth() {
        // 4 antennas at λ/2: beamforming resolution Δu ≈ 0.5. Two
        // sources Δu = 0.25 apart are unresolvable classically; MUSIC
        // splits them.
        let (u1, u2) = (0.10, 0.35);
        let snaps = snapshots_random_phase(&[(u1, 1.0), (u2, 1.0)], 4, 0.5, 256, 0.05, 3);
        let mut doa = music_doa(&snaps, 2, 0.5);
        doa.sort_by(|a, b| a.total_cmp(b));
        assert_eq!(doa.len(), 2, "found {doa:?}");
        assert!((doa[0] - u1).abs() < 0.04, "got {doa:?}");
        assert!((doa[1] - u2).abs() < 0.04, "got {doa:?}");
    }

    #[test]
    fn pseudo_spectrum_peaks_at_source() {
        let u0 = -0.2;
        let snaps = snapshots_random_phase(&[(u0, 1.0)], 4, 0.5, 128, 0.1, 4);
        let r = covariance(&snaps);
        let (us, ps) = music_spectrum(&r, 1, 0.5, 512);
        let peak_idx = ps
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .unwrap()
            .0;
        assert!((us[peak_idx] - u0).abs() < 0.02);
    }

    #[test]
    #[should_panic(expected = "noise dimension")]
    fn too_many_sources_rejected() {
        let snaps = snapshots(&[(0.0, 1.0)], 4, 0.5, 8, 0.0, 5);
        let r = covariance(&snaps);
        music_spectrum(&r, 4, 0.5, 64);
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_snapshots_rejected() {
        let snaps = vec![vec![Complex64::ZERO; 4], vec![Complex64::ZERO; 3]];
        covariance(&snaps);
    }
}
