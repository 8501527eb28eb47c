//! Frame processing: range FFT, CFAR detection, AoA estimation.
//!
//! Implements the §3.2 flow: an FFT over the IF samples resolves
//! range (Eq. 3); beamforming across the Rx antennas resolves the
//! angle of arrival (Eq. 4); CFAR keeps prominent reflectors. The
//! output is the per-frame point list that §6's multi-frame pipeline
//! consumes.

use crate::array::RadarArray;
use crate::chirp::ChirpConfig;
use crate::frontend::Frame;
use crate::pointcloud::RadarPoint;
use ros_dsp::cfar::{ca_cfar_into, CfarParams, Detection};
use ros_dsp::fft::{fft_in_place, FftPlan};
use ros_dsp::peaks::{find_peaks_into, Peak, PeakParams};
use ros_dsp::window::WindowTable;
use ros_dsp::PlanCache;
use ros_em::Complex64;
use ros_em::units::cast::{self, AsF64};

/// Azimuth search grid half-width \[rad\] (the radar antenna FoV).
pub(crate) const AOA_GRID_HALF_RAD: f64 = 1.2;

/// Azimuth grid step \[rad\] (≈0.6°).
pub(crate) const AOA_GRID_STEP_RAD: f64 = 0.01;

/// Per-antenna normalized range spectra: `out[k][bin] = FFT(s_k)/N`.
///
/// Direct reference implementation; the batch/steady-state pipeline
/// uses the planned [`range_spectra_into`] twin, which is pinned
/// bit-identical to this one.
pub fn range_spectra(frame: &Frame) -> Vec<Vec<Complex64>> {
    frame
        .data
        .iter()
        .map(|ant| {
            let mut buf = ant.clone();
            // Power-of-two guaranteed by the default config (256); pad
            // defensively otherwise.
            let n = buf.len().next_power_of_two();
            buf.resize(n, Complex64::ZERO);
            fft_in_place(&mut buf);
            let scale = 1.0 / ant.len().as_f64();
            buf.iter().map(|&c| c * scale).collect()
        })
        .collect()
}

/// Scratch-buffer twin of [`range_spectra`]: identical spectra written
/// into `out` via a precomputed [`FftPlan`] (which must be sized for
/// the frame's zero-padded length, `n_samples.next_power_of_two()`).
/// Allocation-free once the rows have grown to capacity.
// lint: hot-path
pub(crate) fn range_spectra_into(frame: &Frame, plan: &FftPlan, out: &mut Vec<Vec<Complex64>>) {
    let k_rx = frame.data.len();
    out.truncate(k_rx);
    while out.len() < k_rx {
        out.push(Vec::default());
    }
    for (ant, row) in frame.data.iter().zip(out.iter_mut()) {
        row.clear();
        row.extend_from_slice(ant);
        row.resize(plan.len(), Complex64::ZERO);
        plan.process_forward(row);
        let scale = 1.0 / ant.len().as_f64();
        for c in row.iter_mut() {
            *c = *c * scale;
        }
    }
}

/// Non-coherently integrated range power profile \[mW per bin\],
/// averaged over antennas.
pub fn range_power_profile(spectra: &[Vec<Complex64>]) -> Vec<f64> {
    let n = spectra[0].len();
    let k = spectra.len().as_f64();
    (0..n)
        .map(|i| spectra.iter().map(|s| s[i].norm_sqr()).sum::<f64>() / k)
        .collect()
}

/// Scratch-buffer twin of [`range_power_profile`]: identical profile
/// written into `out` (cleared first).
// lint: hot-path
pub fn range_power_profile_into(spectra: &[Vec<Complex64>], out: &mut Vec<f64>) {
    out.clear();
    let n = spectra[0].len();
    let k = spectra.len().as_f64();
    for i in 0..n {
        out.push(spectra.iter().map(|s| s[i].norm_sqr()).sum::<f64>() / k);
    }
}

/// Beamforming pseudo-spectrum at one range bin: power versus azimuth
/// over the AoA grid. Returns `(azimuths, powers)`.
pub fn aoa_spectrum(
    spectra: &[Vec<Complex64>],
    bin: usize,
    array: &RadarArray,
    lambda_m: f64,
) -> (Vec<f64>, Vec<f64>) {
    let n_az = cast::floor_usize(2.0 * AOA_GRID_HALF_RAD / AOA_GRID_STEP_RAD) + 1;
    let mut azs = Vec::with_capacity(n_az);
    let mut pws = Vec::with_capacity(n_az);
    for i in 0..n_az {
        let az = -AOA_GRID_HALF_RAD + i.as_f64() * AOA_GRID_STEP_RAD;
        let mut y = Complex64::ZERO;
        for (k, s) in spectra.iter().enumerate() {
            let w = Complex64::cis(-array.steering_phase(k, az, lambda_m));
            y += w * s[bin];
        }
        azs.push(az);
        pws.push((y / spectra.len().as_f64()).norm_sqr());
    }
    (azs, pws)
}

/// Scratch-buffer twin of [`aoa_spectrum`]: identical `(azimuths,
/// powers)` grids written into `azs`/`pws` (cleared first).
// lint: hot-path
pub fn aoa_spectrum_into(
    spectra: &[Vec<Complex64>],
    bin: usize,
    array: &RadarArray,
    lambda_m: f64,
    azs: &mut Vec<f64>,
    pws: &mut Vec<f64>,
) {
    azs.clear();
    pws.clear();
    let n_az = cast::floor_usize(2.0 * AOA_GRID_HALF_RAD / AOA_GRID_STEP_RAD) + 1;
    for i in 0..n_az {
        let az = -AOA_GRID_HALF_RAD + i.as_f64() * AOA_GRID_STEP_RAD;
        let mut y = Complex64::ZERO;
        for (k, s) in spectra.iter().enumerate() {
            let w = Complex64::cis(-array.steering_phase(k, az, lambda_m));
            y += w * s[bin];
        }
        azs.push(az);
        pws.push((y / spectra.len().as_f64()).norm_sqr());
    }
}

/// Reusable scratch arena for [`detect_points_with`]: the plan cache
/// (FFT plan per padded frame length, window table for the spotlight)
/// plus every intermediate buffer of the detect chain. One per worker
/// or per run; steady-state frames allocate nothing.
#[derive(Clone, Debug, Default)]
pub struct DetectScratch {
    plans: PlanCache,
    bufs: DetectBufs,
}

impl DetectScratch {
    /// The scratch's plan cache, for resolving additional plans (e.g.
    /// the spotlight window table) in a prologue.
    pub fn plans(&mut self) -> &mut PlanCache {
        &mut self.plans
    }
}

/// The non-plan working buffers of the detect chain.
#[derive(Clone, Debug, Default)]
struct DetectBufs {
    spectra: Vec<Vec<Complex64>>,
    profile: Vec<f64>,
    detections: Vec<Detection>,
    azs: Vec<f64>,
    pws: Vec<f64>,
    peaks: Vec<Peak>,
}

/// Detects prominent reflectors in one frame, written into `out`.
///
/// Range detection uses CA-CFAR on the integrated profile; each
/// detected range bin is then swept in angle, keeping up to
/// `max_targets_per_bin` beamforming peaks within 6 dB of the bin's
/// strongest. Resolves the frame's FFT plan from the scratch's cache
/// (allocating on first use only), then runs the allocation-free
/// [`detect_points_core`] kernel.
pub fn detect_points_with(
    frame: &Frame,
    chirp: &ChirpConfig,
    array: &RadarArray,
    cfar: &CfarParams,
    max_targets_per_bin: usize,
    scratch: &mut DetectScratch,
    out: &mut Vec<RadarPoint>,
) {
    let n_fft = frame.n_samples().next_power_of_two();
    let DetectScratch { plans, bufs } = scratch;
    let plan = plans.fft(n_fft);
    detect_points_core(frame, chirp, array, cfar, max_targets_per_bin, plan, bufs, out);
    ros_obs::count("radar.cfar_detections", bufs.detections.len());
}

/// The steady-state detect kernel: range FFT → CFAR → AoA sweep with
/// every intermediate in a reusable buffer.
// lint: hot-path
fn detect_points_core(
    frame: &Frame,
    chirp: &ChirpConfig,
    array: &RadarArray,
    cfar: &CfarParams,
    max_targets_per_bin: usize,
    plan: &FftPlan,
    bufs: &mut DetectBufs,
    out: &mut Vec<RadarPoint>,
) {
    out.clear();
    let DetectBufs {
        spectra,
        profile,
        detections,
        azs,
        pws,
        peaks,
    } = bufs;
    range_spectra_into(frame, plan, spectra);
    range_power_profile_into(spectra, profile);
    // Only the first half of the spectrum is physical (positive beat).
    let half = profile.len() / 2;
    ca_cfar_into(&profile[..half], cfar, detections);

    let lambda = chirp.wavelength_m();
    for det in detections.iter() {
        let range = chirp.bin_to_range_m(det.index, spectra[0].len());
        if range < 0.3 {
            continue; // direct leakage region
        }
        aoa_spectrum_into(spectra, det.index, array, lambda, azs, pws);
        find_peaks_into(
            pws,
            &PeakParams {
                min_separation: cast::floor_usize(0.25 / AOA_GRID_STEP_RAD),
                ..Default::default()
            },
            peaks,
        );
        if peaks.is_empty() {
            continue;
        }
        let strongest = peaks[0].value;
        for p in peaks.iter().take(max_targets_per_bin) {
            if p.value < strongest / 4.0 {
                break; // >6 dB below the bin's dominant target
            }
            out.push(RadarPoint {
                range_m: range,
                azimuth_rad: azs[p.index],
                power_mw: p.value,
            });
        }
    }
}

/// "Spotlight" beamforming measurement (§6): the complex RSS amplitude
/// of a known target position, combining a single-bin DFT at the exact
/// (fractional) beat frequency with a matched steering vector.
///
/// The Hann window (−31 dB range sidelobes keep nearby objects out of
/// the measurement) comes from a precomputed [`WindowTable`] sized for
/// the frame's sample count, so the call is safe in `lint: hot-path`
/// kernels. Returns the complex amplitude in √mW; `|·|²` is the RSS in
/// mW.
// lint: hot-path
pub fn spotlight_with(
    frame: &Frame,
    chirp: &ChirpConfig,
    array: &RadarArray,
    target_world: ros_em::Vec3,
    table: &WindowTable,
) -> Complex64 {
    let range = frame.pose.range_to(target_world);
    let az = frame.pose.azimuth_to(target_world);
    let f_beat = chirp.beat_frequency_hz(range);
    let w = std::f64::consts::TAU * f_beat / chirp.sample_rate_hz;
    let lambda = chirp.wavelength_m();

    let cycles = w / std::f64::consts::TAU;
    let mut y = Complex64::ZERO;
    for (k, ant) in frame.data.iter().enumerate() {
        let acc = ros_dsp::goertzel::single_bin_windowed_table(ant, cycles, table);
        let steer = Complex64::cis(-array.steering_phase(k, az, lambda));
        y += steer * acc;
    }
    y / frame.n_rx().as_f64()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::echo::{Echo, Pose};
    use crate::frontend::synthesize_frame;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use ros_em::radar_eq::RadarLinkBudget;
    use ros_em::Vec3;

    fn capture(echoes: &[Echo], seed: u64) -> (Frame, ChirpConfig, RadarArray) {
        let c = ChirpConfig::ti_default();
        let a = RadarArray::ti_default();
        let b = RadarLinkBudget::ti_eval();
        let mut rng = StdRng::seed_from_u64(seed);
        let f = synthesize_frame(&c, &a, &b, Pose::side_looking(Vec3::ZERO), echoes, &mut rng);
        (f, c, a)
    }

    fn points_in(
        f: &Frame,
        c: &ChirpConfig,
        a: &RadarArray,
        max_targets_per_bin: usize,
    ) -> Vec<RadarPoint> {
        let mut pts = Vec::new();
        let mut scratch = DetectScratch::default();
        let cfar = CfarParams::default();
        detect_points_with(f, c, a, &cfar, max_targets_per_bin, &mut scratch, &mut pts);
        pts
    }

    fn spotlight_at(f: &Frame, c: &ChirpConfig, a: &RadarArray, target: Vec3) -> Complex64 {
        let table = WindowTable::new(ros_dsp::window::Window::Hann, f.n_samples());
        spotlight_with(f, c, a, target, &table)
    }

    fn strong_echo(pos: Vec3) -> Echo {
        // −30 dBm: far above the −62 dBm floor.
        Echo::new(pos, Complex64::from_polar(10f64.powf(-30.0 / 20.0), 1.0))
    }

    #[test]
    fn detects_single_target_range_and_angle() {
        let pos = Vec3::new(1.0, 3.0, 0.0);
        let (f, c, a) = capture(&[strong_echo(pos)], 11);
        let pts = points_in(&f, &c, &a, 2);
        assert!(!pts.is_empty(), "no detections");
        let best = pts
            .iter()
            .max_by(|x, y| x.power_mw.total_cmp(&y.power_mw))
            .unwrap();
        let true_range = pos.norm();
        let true_az = (1.0f64).atan2(3.0);
        assert!(
            (best.range_m - true_range).abs() < 2.0 * c.range_resolution_m(),
            "range {} vs {}",
            best.range_m,
            true_range
        );
        assert!(
            (best.azimuth_rad - true_az).abs() < 0.1,
            "az {} vs {}",
            best.azimuth_rad,
            true_az
        );
    }

    #[test]
    fn detects_two_separated_targets() {
        let p1 = Vec3::new(-1.0, 2.5, 0.0);
        let p2 = Vec3::new(1.5, 4.5, 0.0);
        let (f, c, a) = capture(&[strong_echo(p1), strong_echo(p2)], 12);
        let pts = points_in(&f, &c, &a, 2);
        let found1 = pts
            .iter()
            .any(|p| (p.range_m - p1.norm()).abs() < 0.15 && (p.azimuth_rad + 0.38).abs() < 0.15);
        let found2 = pts
            .iter()
            .any(|p| (p.range_m - p2.norm()).abs() < 0.15 && (p.azimuth_rad - 0.32).abs() < 0.15);
        assert!(found1 && found2, "points: {pts:?}");
    }

    #[test]
    fn no_detections_on_noise() {
        let (f, c, a) = capture(&[], 13);
        let pts = points_in(&f, &c, &a, 2);
        assert!(pts.len() <= 1, "false alarms: {pts:?}");
    }

    #[test]
    fn detected_power_matches_echo_power() {
        let pos = Vec3::new(0.0, 3.0, 0.0);
        let (f, c, a) = capture(&[strong_echo(pos)], 14);
        let pts = points_in(&f, &c, &a, 1);
        let best = pts
            .iter()
            .max_by(|x, y| x.power_mw.total_cmp(&y.power_mw))
            .unwrap();
        // Processing is calibrated: detected RSS ≈ echo power (−30 dBm)
        // up to a systematic ~2 dB window/scalloping loss, with a few
        // tenths of a dB of noise-realization spread on top.
        assert!(
            (best.rss_dbm() - (-30.0)).abs() < 2.5,
            "RSS {} dBm",
            best.rss_dbm()
        );
    }

    #[test]
    fn spotlight_recovers_complex_amplitude() {
        let pos = Vec3::new(0.8, 2.7, 0.0);
        let amp = Complex64::from_polar(10f64.powf(-35.0 / 20.0), 0.7);
        let (f, c, a) = capture(&[Echo::new(pos, amp)], 15);
        let y = spotlight_at(&f, &c, &a, pos);
        // The measurement includes the radar's own two-way antenna
        // pattern at the target azimuth.
        let az = (0.8f64).atan2(2.7);
        let g = crate::frontend::radar_pattern(az);
        let expected = amp.abs() * g * g;
        let err_db = 20.0 * (y.abs() / expected).log10();
        assert!(err_db.abs() < 1.0, "amplitude error {err_db} dB");
    }

    #[test]
    fn spotlight_rejects_off_target_energy() {
        // A strong interferer far from the spotlighted position should
        // contribute little.
        let target = Vec3::new(0.0, 3.0, 0.0);
        let interferer = Vec3::new(-2.0, 5.0, 0.0);
        let amp_t = Complex64::from_polar(10f64.powf(-45.0 / 20.0), 0.0);
        let amp_i = Complex64::from_polar(10f64.powf(-25.0 / 20.0), 0.0);
        let (f, c, a) = capture(&[Echo::new(target, amp_t), Echo::new(interferer, amp_i)], 16);
        let y = spotlight_at(&f, &c, &a, target);
        let err_db = 20.0 * (y.abs() / amp_t.abs()).log10();
        assert!(err_db.abs() < 3.0, "spotlight leakage {err_db} dB");
    }

    #[test]
    fn planned_detect_chain_bit_identical_to_direct() {
        let p1 = Vec3::new(-1.0, 2.5, 0.0);
        let p2 = Vec3::new(1.5, 4.5, 0.0);
        let (f, c, a) = capture(&[strong_echo(p1), strong_echo(p2)], 21);

        // range_spectra_into vs range_spectra.
        let direct_spectra = range_spectra(&f);
        let plan = FftPlan::new(f.n_samples().next_power_of_two());
        let mut spectra = vec![vec![Complex64::new(3.0, 3.0); 2]; 9]; // dirty
        range_spectra_into(&f, &plan, &mut spectra);
        assert_eq!(direct_spectra.len(), spectra.len());
        for (da, sa) in direct_spectra.iter().zip(&spectra) {
            assert_eq!(da.len(), sa.len());
            for (d, s) in da.iter().zip(sa) {
                assert_eq!(d.re.to_bits(), s.re.to_bits());
                assert_eq!(d.im.to_bits(), s.im.to_bits());
            }
        }

        // profile / AoA twins.
        let direct_profile = range_power_profile(&direct_spectra);
        let mut profile = vec![7.0; 3];
        range_power_profile_into(&spectra, &mut profile);
        assert_eq!(direct_profile.len(), profile.len());
        for (d, p) in direct_profile.iter().zip(&profile) {
            assert_eq!(d.to_bits(), p.to_bits());
        }
        let lambda = c.wavelength_m();
        let (direct_azs, direct_pws) = aoa_spectrum(&direct_spectra, 12, &a, lambda);
        let (mut azs, mut pws) = (vec![1.0; 2], Vec::new());
        aoa_spectrum_into(&spectra, 12, &a, lambda, &mut azs, &mut pws);
        for (d, v) in direct_azs.iter().zip(&azs).chain(direct_pws.iter().zip(&pws)) {
            assert_eq!(d.to_bits(), v.to_bits());
        }
    }

    #[test]
    fn range_profile_has_power_at_target_bin() {
        let pos = Vec3::new(0.0, 4.0, 0.0);
        let (f, c, _) = capture(&[strong_echo(pos)], 17);
        let spectra = range_spectra(&f);
        let profile = range_power_profile(&spectra);
        let bin = c.range_to_bin(4.0, profile.len()).round() as usize;
        let peak_region: f64 = profile[bin.saturating_sub(1)..=bin + 1]
            .iter()
            .cloned()
            .fold(0.0, f64::max);
        let far = profile[profile.len() / 4];
        assert!(peak_region > 100.0 * far);
    }
}
