//! The top-level radar facade.

use crate::array::RadarArray;
use crate::chirp::ChirpConfig;
use crate::echo::{Echo, Pose};
use crate::frontend::{Frame, SynthScratch};
use crate::impairments::Impairments;
use crate::pointcloud::RadarPoint;
use crate::processing;
use rand::Rng;
use ros_dsp::cfar::CfarParams;
use ros_em::jones::Polarization;
use ros_em::radar_eq::RadarLinkBudget;
use ros_em::units::cast::AsF64;
use ros_em::{Complex64, Vec3};
use ros_obs::names;

/// Which Tx port the radar fires (§7.1).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RadarMode {
    /// Stock Tx: co-polarized Tx/Rx — used for object detection.
    Native,
    /// Rotated Tx: Tx orthogonal to Rx — used for tag decoding.
    PolarizationSwitched,
}

impl RadarMode {
    /// The (tx, rx) polarization pair of this mode given the array's
    /// native polarization.
    pub fn polarizations(self, native: Polarization) -> (Polarization, Polarization) {
        match self {
            // Both ports native: clutter (co-pol) comes back strongly.
            RadarMode::Native => (native, native),
            // Tx rotated 90°: the Rx stays native, so only reflectors
            // that switch polarization (the PSVAA tag) return strongly.
            RadarMode::PolarizationSwitched => (native.orthogonal(), native),
        }
    }
}

/// Reusable per-batch scratch arena for [`FmcwRadar::capture_batch_with`]:
/// the pre-drawn flat phase-walk buffer plus one [`SynthScratch`] per
/// worker thread. The thermal noise needs no buffer of its own: it is
/// drawn straight into the output frames. A long-lived pipeline keeps
/// one of these per run so steady-state frames allocate nothing.
#[derive(Clone, Debug, Default)]
pub struct CaptureScratch {
    walks: Vec<f64>,
    synth: Vec<SynthScratch>,
}

/// A complete FMCW radar instance.
#[derive(Clone, Debug)]
pub struct FmcwRadar {
    /// Chirp/frame configuration.
    pub chirp: ChirpConfig,
    /// Antenna array geometry.
    pub array: RadarArray,
    /// Link budget (drives the noise model).
    pub budget: RadarLinkBudget,
    /// CFAR configuration for detection.
    pub cfar: CfarParams,
    /// Front-end impairment profile (clean by default).
    pub impairments: Impairments,
}

impl FmcwRadar {
    /// The paper's TI evaluation radar.
    pub fn ti_eval() -> Self {
        FmcwRadar {
            chirp: ChirpConfig::ti_default(),
            array: RadarArray::ti_default(),
            budget: RadarLinkBudget::ti_eval(),
            cfar: CfarParams::default(),
            impairments: Impairments::default(),
        }
    }

    /// Captures one frame of IF data from the given echoes, applying
    /// the configured front-end impairments: a one-job batch, so the
    /// serial and the batch capture share one path.
    pub fn capture<R: Rng>(&self, pose: Pose, echoes: &[Echo], rng: &mut R) -> Frame {
        ros_obs::count(names::RADAR_FRAMES_SYNTHESIZED, 1);
        let mut out = Vec::with_capacity(1);
        self.capture_batch_into(
            &[(pose, echoes.to_vec())],
            rng,
            &mut CaptureScratch::default(),
            &mut out,
        );
        out.swap_remove(0)
    }

    /// Captures a batch of frames into `out`, bit-identical to calling
    /// [`FmcwRadar::capture`] once per job in order, at any thread
    /// count. A long-lived pipeline keeps one [`CaptureScratch`] alive
    /// across batches so warm frames allocate nothing. The telemetry
    /// (batch span + frame counter) stays outside the hot-path kernel,
    /// so the observability layer's own bookkeeping never counts
    /// against the zero-alloc budget.
    pub fn capture_batch_with<R: Rng>(
        &self,
        jobs: &[(Pose, Vec<Echo>)],
        rng: &mut R,
        scratch: &mut CaptureScratch,
        out: &mut Vec<Frame>,
    ) {
        let _span = ros_obs::span(names::TIME_RADAR_CAPTURE_BATCH);
        ros_obs::count(names::RADAR_FRAMES_SYNTHESIZED, jobs.len());
        self.capture_batch_into(jobs, rng, scratch, out);
    }

    /// The batch-capture kernel behind [`FmcwRadar::capture_batch_with`].
    ///
    /// First `out` is laid out, one frame of `k_rx` rows per job. Then
    /// the RNG is consumed serially (span `radar.capture_noise`): per
    /// frame, unit-variance thermal noise drawn straight into its rows,
    /// antenna by antenna, then the impairment phase walk into a flat
    /// segment of the scratch arena, exactly the order the serial loop
    /// uses. The deterministic synthesis then fans out over
    /// [`ros_exec::par_for_each_chunk_mut`] with one [`SynthScratch`]
    /// per worker (span `radar.capture_synth`); each worker takes whole
    /// runs of the frames the IF tone kernel packs into one lane group,
    /// turns every noise row into `signal + σ·noise` and applies the
    /// impairments. Output frames (and every intermediate) depend only
    /// on the job order, never on thread scheduling. The two spans open
    /// once per batch, not per frame.
    fn capture_batch_into<R: Rng>(
        &self,
        jobs: &[(Pose, Vec<Echo>)],
        rng: &mut R,
        scratch: &mut CaptureScratch,
        out: &mut Vec<Frame>,
    ) {
        let n = self.chirp.n_samples;
        let k_rx = self.array.n_rx;
        crate::frontend::size_frames(jobs, k_rx, n, out);
        if jobs.is_empty() {
            return;
        }

        let clean = self.impairments.is_clean();
        let CaptureScratch { walks, synth } = scratch;
        {
            let _noise = ros_obs::span(names::TIME_RADAR_CAPTURE_NOISE);
            walks.clear();
            walks.resize(if clean { 0 } else { jobs.len() * n }, 0.0);
            for (i, frame) in out.iter_mut().enumerate() {
                for row in &mut frame.data {
                    crate::frontend::fill_noise(rng, row);
                }
                if !clean {
                    self.impairments
                        .fill_walk(rng, &mut walks[i * n..(i + 1) * n]);
                }
            }
        }

        let _synth = ros_obs::span(names::TIME_RADAR_CAPTURE_SYNTH);
        let want = ros_exec::threads().max(1);
        synth.truncate(want);
        while synth.len() < want {
            synth.push(SynthScratch::default());
        }

        let sigma = crate::frontend::per_sample_noise_sigma(&self.budget, &self.chirp, &self.array);
        let walks = &*walks;
        let group = crate::frontend::synth_group_frames(k_rx);
        ros_exec::par_for_each_chunk_mut(synth, out, group, |synth_scratch, i0, frames| {
            crate::frontend::synthesize_signal_into(
                &self.chirp,
                &self.array,
                &jobs[i0..i0 + frames.len()],
                sigma,
                synth_scratch,
                frames,
            );
            for (i, frame) in (i0..).zip(frames.iter_mut()) {
                let walk = if clean {
                    &[][..]
                } else {
                    &walks[i * n..(i + 1) * n]
                };
                self.impairments.apply_with_walk(frame, walk);
            }
        });
    }

    /// Detects prominent reflectors in a frame (local polar points),
    /// written into `out`. Every intermediate (and the FFT plan) is
    /// reused from `scratch`, so steady-state frames allocate nothing.
    pub fn detect_with(
        &self,
        frame: &Frame,
        scratch: &mut processing::DetectScratch,
        out: &mut Vec<RadarPoint>,
    ) {
        processing::detect_points_with(
            frame,
            &self.chirp,
            &self.array,
            &self.cfar,
            2,
            scratch,
            out,
        );
        ros_obs::hist(names::RADAR_POINTS_PER_FRAME, out.len().as_f64());
    }

    /// Spotlight-beamforms on a known world position, returning the
    /// complex RSS amplitude \[√mW\]. `table` is a precomputed Hann
    /// window sized for the frame's sample count, so the call
    /// allocates nothing.
    pub fn spotlight_with(
        &self,
        frame: &Frame,
        target_world: Vec3,
        table: &ros_dsp::window::WindowTable,
    ) -> Complex64 {
        processing::spotlight_with(frame, &self.chirp, &self.array, target_world, table)
    }

    /// The radar's decode-condition noise floor \[dBm\].
    pub fn noise_floor_dbm(&self) -> f64 {
        self.budget.noise_floor_dbm()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use ros_dsp::window::{Window, WindowTable};

    #[test]
    fn mode_polarizations() {
        let (tx, rx) = RadarMode::Native.polarizations(Polarization::V);
        assert_eq!((tx, rx), (Polarization::V, Polarization::V));
        let (tx, rx) = RadarMode::PolarizationSwitched.polarizations(Polarization::V);
        assert_eq!((tx, rx), (Polarization::H, Polarization::V));
    }

    fn points_of(radar: &FmcwRadar, frame: &Frame) -> Vec<RadarPoint> {
        let mut pts = Vec::new();
        radar.detect_with(frame, &mut processing::DetectScratch::default(), &mut pts);
        pts
    }

    #[test]
    fn end_to_end_capture_detect() {
        let radar = FmcwRadar::ti_eval();
        let mut rng = StdRng::seed_from_u64(99);
        let pos = Vec3::new(0.5, 3.5, 0.0);
        let echo = Echo::new(pos, Complex64::from_polar(10f64.powf(-35.0 / 20.0), 0.3));
        let frame = radar.capture(Pose::side_looking(Vec3::ZERO), &[echo], &mut rng);
        let pts = points_of(&radar, &frame);
        assert!(pts
            .iter()
            .any(|p| (p.range_m - pos.norm()).abs() < 0.15 && (p.rss_dbm() + 35.0).abs() < 3.0));
        let table = WindowTable::new(Window::Hann, frame.n_samples());
        let y = radar.spotlight_with(&frame, pos, &table);
        assert!((20.0 * y.abs().log10() - (-35.0)).abs() < 2.0);
    }

    #[test]
    fn weak_target_below_floor_is_invisible() {
        let radar = FmcwRadar::ti_eval();
        let mut rng = StdRng::seed_from_u64(100);
        let pos = Vec3::new(0.0, 4.0, 0.0);
        // −75 dBm: 13 dB below the −62 dBm floor.
        let echo = Echo::new(pos, Complex64::from_polar(10f64.powf(-75.0 / 20.0), 0.0));
        let frame = radar.capture(Pose::side_looking(Vec3::ZERO), &[echo], &mut rng);
        let pts = points_of(&radar, &frame);
        assert!(
            !pts.iter()
                .any(|p| (p.range_m - 4.0).abs() < 0.2 && p.rss_dbm() > -70.0),
            "ghost detection of sub-floor target"
        );
    }

    #[test]
    fn capture_batch_matches_serial_captures() {
        for impairments in [Impairments::default(), Impairments::eval_board()] {
            let mut radar = FmcwRadar::ti_eval();
            radar.impairments = impairments;
            let jobs: Vec<(Pose, Vec<Echo>)> = (0..5)
                .map(|i| {
                    let x = -1.0 + 0.5 * i as f64;
                    let echo = Echo::new(
                        Vec3::new(x, 3.0, 0.0),
                        Complex64::from_polar(10f64.powf(-40.0 / 20.0), 0.1 * i as f64),
                    );
                    (Pose::side_looking(Vec3::ZERO), vec![echo])
                })
                .collect();
            let mut rng = StdRng::seed_from_u64(77);
            let serial: Vec<Frame> = jobs
                .iter()
                .map(|(pose, echoes)| radar.capture(*pose, echoes, &mut rng))
                .collect();
            let mut rng = StdRng::seed_from_u64(77);
            let mut batch = Vec::new();
            radar.capture_batch_with(&jobs, &mut rng, &mut CaptureScratch::default(), &mut batch);
            assert_eq!(serial.len(), batch.len());
            for (a, b) in serial.iter().zip(&batch) {
                for (ra, rb) in a.data.iter().zip(&b.data) {
                    for (sa, sb) in ra.iter().zip(rb) {
                        assert_eq!(sa.re.to_bits(), sb.re.to_bits());
                        assert_eq!(sa.im.to_bits(), sb.im.to_bits());
                    }
                }
            }
        }
    }

    /// Every frame's pose and samples as bit patterns.
    fn capture_bits(frames: &[Frame]) -> Vec<u64> {
        frames
            .iter()
            .flat_map(|f| {
                let p = f.pose.pos;
                let samples = f.data.iter().flatten();
                [p.x, p.y, p.z, f.pose.yaw]
                    .into_iter()
                    .chain(samples.flat_map(|s| [s.re, s.im]))
            })
            .map(f64::to_bits)
            .collect()
    }

    #[test]
    fn capture_batch_into_reuses_scratch_across_sizes_and_threads() {
        let make_jobs = |count: usize| -> Vec<(Pose, Vec<Echo>)> {
            (0..count)
                .map(|i| {
                    let echo = Echo::new(
                        Vec3::new(-0.8 + 0.4 * i as f64, 3.2, 0.0),
                        Complex64::from_polar(10f64.powf(-38.0 / 20.0), 0.2 * i as f64),
                    );
                    (
                        Pose::side_looking(Vec3::new(0.1 * i as f64, 0.0, 0.0)),
                        vec![echo],
                    )
                })
                .collect()
        };
        let nan = Complex64::new(f64::NAN, f64::NAN);
        for impairments in [Impairments::default(), Impairments::eval_board()] {
            let mut radar = FmcwRadar::ti_eval();
            radar.impairments = impairments;
            // One scratch arena and one output survive shrinking and
            // growing batches at several thread counts. Before each
            // call the warm output is poisoned: NaN samples, a short
            // row, a missing and a surplus antenna row, a wrong pose and
            // two frames more than the batch has jobs. Every run must
            // equal a fresh capture and the serial loop bit for bit.
            let mut scratch = CaptureScratch::default();
            let mut out = Vec::new();
            for (n_threads, n_jobs) in [(1usize, 6usize), (2, 3), (8, 6), (2, 1), (1, 2), (8, 5)] {
                let _guard = ros_exec::ThreadGuard::pin(Some(n_threads));
                let jobs = make_jobs(n_jobs);
                let mut rng = StdRng::seed_from_u64(1234);
                let serial: Vec<Frame> = jobs
                    .iter()
                    .map(|(pose, echoes)| radar.capture(*pose, echoes, &mut rng))
                    .collect();
                let mut fresh = Vec::new();
                let mut rng = StdRng::seed_from_u64(1234);
                radar.capture_batch_with(
                    &jobs,
                    &mut rng,
                    &mut CaptureScratch::default(),
                    &mut fresh,
                );

                out.resize_with(n_jobs + 2, || Frame {
                    data: Vec::new(),
                    pose: Pose::side_looking(Vec3::ZERO),
                });
                for (i, frame) in out.iter_mut().enumerate() {
                    frame.pose = Pose::side_looking(Vec3::new(9.0, 9.0, 9.0));
                    for row in frame.data.iter_mut() {
                        row.fill(nan);
                    }
                    match i % 3 {
                        0 => frame.data.push(vec![nan; 3]),
                        1 => frame.data.iter_mut().for_each(|row| row.truncate(17)),
                        _ => {
                            frame.data.pop();
                        }
                    }
                }
                let mut rng = StdRng::seed_from_u64(1234);
                radar.capture_batch_with(&jobs, &mut rng, &mut scratch, &mut out);
                let what = format!("{impairments:?}, {n_threads} threads, {n_jobs} jobs");
                assert_eq!(out.len(), n_jobs, "{what}");
                assert!(
                    out.iter().all(|f| f.n_rx() == radar.array.n_rx
                        && f.data.iter().all(|r| r.len() == radar.chirp.n_samples)),
                    "{what}: frame shape"
                );
                assert!(
                    capture_bits(&out) == capture_bits(&fresh),
                    "{what}: warm != fresh"
                );
                assert!(
                    capture_bits(&out) == capture_bits(&serial),
                    "{what}: batch != serial"
                );
            }
        }
    }

    #[test]
    fn noise_floor_accessor() {
        let radar = FmcwRadar::ti_eval();
        assert!((radar.noise_floor_dbm() - (-62.0)).abs() < 0.6);
    }
}
