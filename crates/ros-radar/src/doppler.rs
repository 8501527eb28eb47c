//! Range–Doppler processing over multi-chirp bursts.
//!
//! The paper's radar transmits one chirp per 1 kHz frame and §7.3
//! argues Doppler shifts (≈19 kHz at 80 mph) are negligible for the
//! *RCS* measurement. Real automotive radars nevertheless use bursts
//! of chirps per frame to estimate radial velocity — which is how the
//! vehicle separates stationary roadside infrastructure (like a RoS
//! tag) from moving traffic before decoding. This module adds that
//! capability: burst synthesis with per-chirp phase progression and
//! the standard 2-D (range × Doppler) FFT.

use crate::array::RadarArray;
use crate::chirp::ChirpConfig;
use crate::echo::{Echo, Pose};
use rand::Rng;
use ros_dsp::fft::fft_in_place;
use ros_em::radar_eq::RadarLinkBudget;
use ros_em::units::cast::AsF64;
use ros_em::Complex64;

/// Burst parameters: `n_chirps` chirps separated by `chirp_interval_s`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BurstConfig {
    /// Chirps per burst (Doppler FFT length).
    pub n_chirps: usize,
    /// Chirp repetition interval \[s\].
    pub chirp_interval_s: f64,
}

impl Default for BurstConfig {
    fn default() -> Self {
        BurstConfig {
            n_chirps: 32,
            chirp_interval_s: 60e-6,
        }
    }
}

impl BurstConfig {
    /// Maximum unambiguous radial speed \[m/s\]: `λ/(4·T_c)`.
    pub fn max_unambiguous_speed_mps(&self, lambda_m: f64) -> f64 {
        lambda_m / (4.0 * self.chirp_interval_s)
    }

    /// Velocity resolution \[m/s\]: `λ/(2·N·T_c)`.
    pub fn velocity_resolution_mps(&self, lambda_m: f64) -> f64 {
        lambda_m / (2.0 * self.n_chirps.as_f64() * self.chirp_interval_s)
    }
}

/// A moving scatterer for burst synthesis.
#[derive(Clone, Copy, Debug)]
pub struct MovingEcho {
    /// The echo at the burst's first chirp.
    pub echo: Echo,
    /// Radial velocity toward the radar \[m/s\] (positive = closing).
    pub radial_speed_mps: f64,
}

/// One burst of IF data from antenna 0: `data[chirp][sample]`.
///
/// (Doppler processing needs only one antenna; AoA uses the
/// single-chirp [`crate::frontend::Frame`] path.)
#[derive(Clone, Debug)]
// lint: allow-dead-pub(returned by synthesize_burst; callers bind it, never write the name)
pub struct Burst {
    /// Per-chirp IF samples.
    pub data: Vec<Vec<Complex64>>,
}

/// Synthesizes a burst for a set of (possibly moving) scatterers.
pub fn synthesize_burst<R: Rng>(
    chirp: &ChirpConfig,
    array: &RadarArray,
    budget: &RadarLinkBudget,
    burst: &BurstConfig,
    pose: Pose,
    echoes: &[MovingEcho],
    rng: &mut R,
) -> Burst {
    let n = chirp.n_samples;
    let lambda = chirp.wavelength_m();
    let mut data = vec![vec![Complex64::ZERO; n]; burst.n_chirps];

    for me in echoes {
        let range0 = pose.range_to(me.echo.pos);
        let az = pose.azimuth_to(me.echo.pos);
        let g = crate::frontend::radar_pattern(az);
        // Gain is non-negative, so `<=` keeps the exact-zero skip
        // behavior while avoiding an exact float comparison.
        if g <= 0.0 {
            continue;
        }
        let amp = me.echo.amp * (g * g);
        for (c, chirp_buf) in data.iter_mut().enumerate() {
            // Range migration within a burst is ≪ a bin; only the
            // carrier phase advances chirp to chirp.
            let dt = c.as_f64() * burst.chirp_interval_s;
            let range = range0 - me.radial_speed_mps * dt;
            let doppler_phase = 2.0 * std::f64::consts::TAU * me.radial_speed_mps * dt / lambda;
            let f_beat = chirp.beat_frequency_hz(range);
            let w = std::f64::consts::TAU * f_beat / chirp.sample_rate_hz;
            let rot = Complex64::cis(w);
            let mut phasor = amp * Complex64::cis(doppler_phase);
            for s in chirp_buf.iter_mut() {
                *s += phasor;
                phasor *= rot;
            }
        }
    }

    // Thermal noise, per sample.
    let sigma = crate::frontend::per_sample_noise_sigma(budget, chirp, array);
    for chirp_buf in data.iter_mut() {
        for s in chirp_buf.iter_mut() {
            *s += Complex64::new(gauss(rng) * sigma, gauss(rng) * sigma);
        }
    }

    Burst { data }
}

fn gauss<R: Rng>(rng: &mut R) -> f64 {
    let u1: f64 = rng.gen::<f64>().max(1e-300);
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// The range–Doppler power map: `map[doppler_bin][range_bin]` \[mW\].
///
/// Doppler bins are FFT-shifted so bin `n_chirps/2` is zero velocity;
/// use [`doppler_bin_to_speed`] for the axis.
pub fn range_doppler_map(burst: &Burst) -> Vec<Vec<f64>> {
    let n_chirps = burst.data.len();
    let n_samples = burst.data[0].len();
    assert!(n_chirps.is_power_of_two(), "chirp count must be 2^k");

    // Range FFT per chirp.
    let range_spectra: Vec<Vec<Complex64>> = burst
        .data
        .iter()
        .map(|chirp| {
            let mut buf = chirp.clone();
            buf.resize(n_samples.next_power_of_two(), Complex64::ZERO);
            fft_in_place(&mut buf);
            let scale = 1.0 / n_samples.as_f64();
            buf.iter().map(|&c| c * scale).collect()
        })
        .collect();

    // Doppler FFT across chirps per range bin.
    let n_range = range_spectra[0].len();
    let mut map = vec![vec![0.0; n_range]; n_chirps];
    let mut col = vec![Complex64::ZERO; n_chirps];
    for r in 0..n_range {
        for (c, spec) in range_spectra.iter().enumerate() {
            col[c] = spec[r];
        }
        fft_in_place(&mut col);
        for (c, &v) in col.iter().enumerate() {
            // FFT-shift: negative Doppler bins to the lower half.
            let shifted = (c + n_chirps / 2) % n_chirps;
            map[shifted][r] = (v / n_chirps.as_f64()).norm_sqr();
        }
    }
    map
}

/// The radial speed of a (shifted) Doppler bin \[m/s\].
pub fn doppler_bin_to_speed(bin: usize, burst: &BurstConfig, lambda_m: f64) -> f64 {
    let centered = bin.as_f64() - burst.n_chirps.as_f64() / 2.0;
    centered * lambda_m / (2.0 * burst.n_chirps.as_f64() * burst.chirp_interval_s)
}

/// Finds the strongest cell of a range–Doppler map:
/// `(doppler_bin, range_bin, power)`.
pub fn strongest_cell(map: &[Vec<f64>]) -> (usize, usize, f64) {
    let mut best = (0, 0, 0.0);
    for (d, row) in map.iter().enumerate() {
        for (r, &p) in row.iter().enumerate() {
            if p > best.2 {
                best = (d, r, p);
            }
        }
    }
    best
}

/// A detection in the range–Doppler map.
#[derive(Clone, Copy, Debug, PartialEq)]
// lint: allow-dead-pub(returned by rd_cfar; callers bind fields, never the name)
pub struct RdDetection {
    /// Doppler bin (FFT-shifted).
    pub doppler_bin: usize,
    /// Range bin.
    pub range_bin: usize,
    /// Cell power \[mW\].
    pub power: f64,
}

/// 2-D cell-averaging CFAR over a range–Doppler map: per cell, the
/// noise is estimated from a ring of training cells (guard band
/// excluded) and the cell fires when it is a local maximum exceeding
/// `threshold_factor` × the estimate.
pub fn rd_cfar(
    map: &[Vec<f64>],
    training: usize,
    guard: usize,
    threshold_factor: f64,
) -> Vec<RdDetection> {
    let nd = map.len();
    if nd == 0 {
        return Vec::new();
    }
    let nr = map[0].len();
    let mut out = Vec::new();
    for d in 0..nd {
        for r in 0..nr {
            let p = map[d][r];
            // Local max over the 8-neighbourhood.
            let mut is_max = true;
            let (d_nb, r_nb) = (d.saturating_sub(1), r.saturating_sub(1));
            'nb: for (dd, row) in map.iter().enumerate().take((d + 2).min(nd)).skip(d_nb) {
                for (rr, &q) in row.iter().enumerate().take((r + 2).min(nr)).skip(r_nb) {
                    if (dd, rr) != (d, r) && q > p {
                        is_max = false;
                        break 'nb;
                    }
                }
            }
            if !is_max {
                continue;
            }
            // Training ring.
            let lo_d = d.saturating_sub(training + guard);
            let hi_d = (d + training + guard + 1).min(nd);
            let lo_r = r.saturating_sub(training + guard);
            let hi_r = (r + training + guard + 1).min(nr);
            let mut sum = 0.0;
            let mut count = 0usize;
            for (dd, row) in map.iter().enumerate().take(hi_d).skip(lo_d) {
                for (rr, &q) in row.iter().enumerate().take(hi_r).skip(lo_r) {
                    let in_guard = dd.abs_diff(d) <= guard && rr.abs_diff(r) <= guard;
                    if !in_guard {
                        sum += q;
                        count += 1;
                    }
                }
            }
            if count == 0 {
                continue;
            }
            let noise = sum / count.as_f64();
            if p > threshold_factor * noise {
                out.push(RdDetection {
                    doppler_bin: d,
                    range_bin: r,
                    power: p,
                });
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use ros_em::Vec3;

    fn setup() -> (ChirpConfig, RadarArray, RadarLinkBudget, BurstConfig) {
        (
            ChirpConfig::ti_default(),
            RadarArray::ti_default(),
            RadarLinkBudget::ti_eval(),
            BurstConfig::default(),
        )
    }

    fn strong(pos: Vec3, v: f64) -> MovingEcho {
        MovingEcho {
            echo: Echo::new(pos, Complex64::from_polar(10f64.powf(-30.0 / 20.0), 0.2)),
            radial_speed_mps: v,
        }
    }

    #[test]
    fn burst_config_bounds() {
        let b = BurstConfig::default();
        let lam = ChirpConfig::ti_default().wavelength_m();
        // λ/(4·60µs) ≈ 15.8 m/s unambiguous.
        assert!((b.max_unambiguous_speed_mps(lam) - 15.8).abs() < 0.2);
        assert!(b.velocity_resolution_mps(lam) < 1.1);
    }

    #[test]
    fn stationary_target_in_zero_doppler_bin() {
        let (c, a, bu, burst) = setup();
        let mut rng = StdRng::seed_from_u64(31);
        let pos = Vec3::new(0.0, 3.0, 0.0);
        let b = synthesize_burst(
            &c,
            &a,
            &bu,
            &burst,
            Pose::side_looking(Vec3::ZERO),
            &[strong(pos, 0.0)],
            &mut rng,
        );
        let map = range_doppler_map(&b);
        let (d, r, _) = strongest_cell(&map);
        assert_eq!(d, burst.n_chirps / 2, "doppler bin {d}");
        let range = c.bin_to_range_m(r, map[0].len());
        assert!((range - 3.0).abs() < 2.0 * c.range_resolution_m());
    }

    #[test]
    fn moving_target_speed_recovered() {
        let (c, a, bu, burst) = setup();
        let lam = c.wavelength_m();
        for v in [-8.0, 4.0, 10.0] {
            let mut rng = StdRng::seed_from_u64(32);
            let b = synthesize_burst(
                &c,
                &a,
                &bu,
                &burst,
                Pose::side_looking(Vec3::ZERO),
                &[strong(Vec3::new(0.0, 4.0, 0.0), v)],
                &mut rng,
            );
            let map = range_doppler_map(&b);
            let (d, _, _) = strongest_cell(&map);
            let measured = doppler_bin_to_speed(d, &burst, lam);
            assert!(
                (measured - v).abs() <= burst.velocity_resolution_mps(lam),
                "v={v}: measured {measured}"
            );
        }
    }

    #[test]
    fn two_targets_separated_in_doppler() {
        let (c, a, bu, burst) = setup();
        let lam = c.wavelength_m();
        let mut rng = StdRng::seed_from_u64(33);
        // Same range, different speeds: inseparable in range, clean in
        // Doppler — the reason radars add the second dimension.
        let b = synthesize_burst(
            &c,
            &a,
            &bu,
            &burst,
            Pose::side_looking(Vec3::ZERO),
            &[
                strong(Vec3::new(0.0, 4.0, 0.0), 0.0),
                strong(Vec3::new(0.1, 4.0, 0.0), 9.0),
            ],
            &mut rng,
        );
        let map = range_doppler_map(&b);
        // Power at the two expected Doppler bins at the target range.
        let r_bin = c.range_to_bin(4.0, map[0].len()).round() as usize;
        let zero_bin = burst.n_chirps / 2;
        let v_bin = (0..burst.n_chirps)
            .min_by(|&x, &y| {
                let ex = (doppler_bin_to_speed(x, &burst, lam) - 9.0).abs();
                let ey = (doppler_bin_to_speed(y, &burst, lam) - 9.0).abs();
                ex.total_cmp(&ey)
            })
            .unwrap();
        let p_zero = map[zero_bin][r_bin];
        let p_move = map[v_bin][r_bin];
        let p_empty = map[(zero_bin + v_bin) / 2 + 1][r_bin];
        assert!(p_zero > 50.0 * p_empty);
        assert!(p_move > 50.0 * p_empty);
    }

    #[test]
    fn rd_cfar_finds_both_targets() {
        let (c, a, bu, burst) = setup();
        let mut rng = StdRng::seed_from_u64(35);
        let b = synthesize_burst(
            &c,
            &a,
            &bu,
            &burst,
            Pose::side_looking(Vec3::ZERO),
            &[
                strong(Vec3::new(0.0, 3.0, 0.0), 0.0),
                strong(Vec3::new(0.0, 5.0, 0.0), 7.0),
            ],
            &mut rng,
        );
        let map = range_doppler_map(&b);
        let dets = rd_cfar(&map, 6, 2, 10.0);
        assert!(dets.len() >= 2, "found {dets:?}");
        // One stationary, one moving.
        let lam = c.wavelength_m();
        let speeds: Vec<f64> = dets
            .iter()
            .map(|d| doppler_bin_to_speed(d.doppler_bin, &burst, lam))
            .collect();
        assert!(speeds.iter().any(|v| v.abs() < 1.0), "{speeds:?}");
        assert!(speeds.iter().any(|v| (v - 7.0).abs() < 1.0), "{speeds:?}");
    }

    #[test]
    fn rd_cfar_quiet_on_noise() {
        let (c, a, bu, burst) = setup();
        let mut rng = StdRng::seed_from_u64(36);
        let b = synthesize_burst(
            &c,
            &a,
            &bu,
            &burst,
            Pose::side_looking(Vec3::ZERO),
            &[],
            &mut rng,
        );
        let map = range_doppler_map(&b);
        let dets = rd_cfar(&map, 6, 2, 15.0);
        assert!(dets.len() <= 2, "false alarms: {}", dets.len());
    }

    #[test]
    fn aliasing_beyond_unambiguous_speed() {
        let (c, a, bu, burst) = setup();
        let lam = c.wavelength_m();
        let v_max = burst.max_unambiguous_speed_mps(lam);
        let v = v_max * 1.5; // aliases to −v_max/2
        let mut rng = StdRng::seed_from_u64(34);
        let b = synthesize_burst(
            &c,
            &a,
            &bu,
            &burst,
            Pose::side_looking(Vec3::ZERO),
            &[strong(Vec3::new(0.0, 4.0, 0.0), v)],
            &mut rng,
        );
        let map = range_doppler_map(&b);
        let (d, _, _) = strongest_cell(&map);
        let measured = doppler_bin_to_speed(d, &burst, lam);
        assert!(
            (measured - (v - 2.0 * v_max)).abs() < 1.0,
            "expected alias near {}, got {measured}",
            v - 2.0 * v_max
        );
    }
}
