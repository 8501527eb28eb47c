//! IF signal synthesis: turning scene echoes into dechirped samples.
//!
//! For a scatterer at range `d` and azimuth `θ`, the dechirped
//! (beat) signal at Rx antenna `k` is (paper Eq. 2):
//!
//! ```text
//! s(t, k) = A · exp(j·2π·f_b·t) · exp(j·φ_k(θ))      f_b = 2·γ·d/c
//! ```
//!
//! The scene already folded the radar equation and the round-trip
//! carrier phase into the echo amplitude; the front-end adds the beat
//! tone, the per-antenna steering phase, the radar's own antenna
//! pattern, and thermal noise scaled so that the *post-processing*
//! noise floor equals the link budget's `L₀` (−62 dBm for the TI
//! radar, §5.3).

use crate::array::RadarArray;
use crate::chirp::ChirpConfig;
use crate::echo::{Echo, Pose};
use rand::Rng;
use ros_em::radar_eq::RadarLinkBudget;
use ros_em::units::cast::AsF64;
use ros_em::Complex64;

/// Exponent of the radar's own antenna element pattern (per way).
/// Two-way cos^3 gives a ±28° half-power field of view, matching the
/// "around 60°" total FoV of §7.3.
pub(crate) const RADAR_PATTERN_EXP: f64 = 1.5;

/// Raw IF data of one frame: `data[k][n]` is sample `n` of antenna `k`.
#[derive(Clone, Debug)]
pub struct Frame {
    /// Per-antenna complex IF samples.
    pub data: Vec<Vec<Complex64>>,
    /// The radar pose when the frame fired.
    pub pose: Pose,
}

impl Frame {
    /// Number of Rx antennas.
    pub fn n_rx(&self) -> usize {
        self.data.len()
    }

    /// Samples per antenna.
    pub fn n_samples(&self) -> usize {
        self.data.first().map_or(0, Vec::len)
    }
}

/// The radar's one-way element field pattern at azimuth `az` \[rad\].
pub fn radar_pattern(az: f64) -> f64 {
    let c = az.cos();
    if c <= 0.0 {
        0.0
    } else {
        c.powf(RADAR_PATTERN_EXP)
    }
}

/// Per-sample complex-noise standard deviation (per real/imag
/// component) that yields the link budget's noise floor after the
/// range FFT (÷N coherent gain) and beamforming (÷K) used by
/// [`crate::processing`].
pub(crate) fn per_sample_noise_sigma(
    budget: &RadarLinkBudget,
    chirp: &ChirpConfig,
    array: &RadarArray,
) -> f64 {
    let floor_mw = ros_em::db::dbm_to_mw(budget.noise_floor_dbm());
    // Processing averages N samples and K antennas: noise power at the
    // output is σ_total²/(N·K), so σ_total² = floor·N·K. Each of the
    // two quadratures carries half the power.
    let total = floor_mw * chirp.n_samples.as_f64() * array.n_rx.as_f64();
    (total / 2.0).sqrt()
}

/// The per-echo reference the IF kernel is checked against: every
/// echo's beat tone with steering phases and the radar's own antenna
/// pattern, but **no thermal noise**, one echo and one antenna at a
/// time. [`synthesize_signal_into`] must match it bit for bit.
#[cfg(test)]
pub(crate) fn synthesize_signal(
    chirp: &ChirpConfig,
    array: &RadarArray,
    pose: Pose,
    echoes: &[Echo],
) -> Frame {
    let n = chirp.n_samples;
    let k_rx = array.n_rx;
    let lambda = chirp.wavelength_m();
    let mut data = vec![vec![Complex64::ZERO; n]; k_rx];

    for echo in echoes {
        if echo.amp == Complex64::ZERO {
            continue;
        }
        let range = pose.range_to(echo.pos);
        let az = pose.azimuth_to(echo.pos);
        let g = radar_pattern(az);
        // Gain is non-negative, so `<=` keeps the exact-zero skip
        // behavior while avoiding an exact float comparison.
        if g <= 0.0 {
            continue;
        }
        // Two-way radar antenna pattern.
        let amp = echo.amp * (g * g);
        let f_beat = chirp.beat_frequency_hz(range);
        let w = std::f64::consts::TAU * f_beat / chirp.sample_rate_hz;
        let rot = Complex64::cis(w);
        for (k, ant) in data.iter_mut().enumerate() {
            let mut phasor = amp * Complex64::cis(array.steering_phase(k, az, lambda));
            for s in ant.iter_mut() {
                *s += phasor;
                phasor *= rot;
            }
        }
    }

    Frame { data, pose }
}

/// Echo slots whose phasor chains one lane-group pass advances
/// together. Each chain's rotate waits on its previous step, so one
/// chain per pass leaves the core idle for the multiply latency; four
/// independent chains fill that wait while their phasors and rotations
/// still fit in registers. Chosen by measurement on rosbench
/// `full_pass` (2-vCPU x86-64): at two SSE2 lanes (12 s runs), groups
/// of 2, 3 and 6 gave `op_ms_p50` 90–98, 82–85 and 81–82 ms against
/// 80–83 ms for 4; at four AVX lanes (two 10 s runs each), groups of
/// 2, 3, 6 and 8 gave 59.7–61.7, 55.6–58.3, 57.9–59.7 and 54.7–55.0 ms
/// against 54.8–55.3 ms for 4; at eight AVX-512 lanes (five 10 s runs
/// each), groups of 2 and 8 gave medians of 53.9 and 48.2 ms against
/// 48.2 ms for 4 (run-to-run spread about 47–54 ms for all three).
/// Eight is no faster at any width even with 32 zmm registers, so the
/// smaller register set stays at every width.
const SYNTH_GROUP: usize = 4;

/// Lanes one pass advances side by side where the host has no AVX
/// (and on every non-x86 target). Two lanes of `f64` fill one 128-bit
/// SSE2 register, so each step of the literal `Complex64::mul`
/// expansion runs as packed `mulpd`/`addpd`/`subpd` on portable
/// arrays. Chosen by measurement on the same host and 12 s runs with
/// SSE2 code only: with groups of 4, one lane gave 94–99 ms and four
/// lanes (two SSE2 registers per value) 87–89 ms against 80–83 ms for
/// two.
const SYNTH_LANES: usize = 2;

/// Lanes per pass under the `avx` target feature: four lanes of `f64`
/// fill one 256-bit register, one frame of the TI radar
/// ([`RadarArray::ti_default`], four antennas). In the same 10 s runs
/// on the same AVX host, the two-lane kernel forced on read
/// 75.8–77.8 ms against 54.8–55.3 ms for four lanes.
#[cfg(target_arch = "x86_64")]
const SYNTH_LANES_AVX: usize = 4;

/// Lanes per pass under the `avx512f` target feature: eight lanes of
/// `f64` fill one 512-bit register, two frames of the TI radar side by
/// side. On an AVX-512 host (10 s runs of rosbench `full_pass`), the
/// four-lane kernel forced on read 51.7–57.0 ms against 47.0–53.4 ms
/// for eight lanes.
#[cfg(target_arch = "x86_64")]
const SYNTH_LANES_AVX512: usize = 8;

/// Frames one lane group of width `lanes` holds: as many whole frames
/// of `k_rx` antennas as fit, and at least one (a frame wider than the
/// register spans several lane groups).
fn frames_per_group(lanes: usize, k_rx: usize) -> usize {
    (lanes / k_rx.max(1)).max(1)
}

/// The number of consecutive frames [`synthesize_signal_into`] packs
/// into one lane group on this host for `k_rx` antennas. A batch that
/// hands each worker whole runs of this many frames gives every frame
/// the same partner at any thread count (the bits do not depend on the
/// partner either; see [`synthesize_lanes`]).
pub(crate) fn synth_group_frames(k_rx: usize) -> usize {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f") {
            return frames_per_group(SYNTH_LANES_AVX512, k_rx);
        }
        if std::arch::is_x86_feature_detected!("avx") {
            return frames_per_group(SYNTH_LANES_AVX, k_rx);
        }
    }
    frames_per_group(SYNTH_LANES, k_rx)
}

/// Lays `out` out for `jobs`: one frame per job, with the job's pose
/// and `k_rx` rows of `n` samples. Surplus frames are dropped. A warm
/// row of the right length keeps its stale samples and costs nothing:
/// the capture's noise draw overwrites every one of them.
pub(crate) fn size_frames(jobs: &[(Pose, Vec<Echo>)], k_rx: usize, n: usize, out: &mut Vec<Frame>) {
    out.resize_with(jobs.len(), || Frame {
        data: Vec::new(),
        pose: Pose::side_looking(ros_em::Vec3::ZERO),
    });
    for (frame, (pose, _)) in out.iter_mut().zip(jobs) {
        frame.pose = *pose;
        frame.data.resize_with(k_rx, Vec::new);
        for row in &mut frame.data {
            row.resize(n, Complex64::ZERO);
        }
    }
}

/// Reusable scratch for [`synthesize_signal_into`], laid out afresh
/// for each frame group at the lane width the call runs at. A group of
/// `F` frames occupies lanes `q = f·k_rx + k` (frame `f`, antenna
/// `k`), `k_pad` = `F·k_rx` rounded up to whole lane groups of width
/// `L`. The split-complex accumulator planes are lane-group
/// interleaved (`acc_re[(p·n + j)·L + l]` holds sample `j` of lane
/// `q = p·L + l`). Echo slot `e` holds, per lane, the `e`-th live echo
/// of that lane's frame: its per-sample rotation `rots[e·k_pad + q]`
/// and start phasor `starts[e·k_pad + q]`. A frame with fewer live
/// echoes than the group's most, and every padded lane, gets a unit
/// rotation and a zero start phasor in the slots it lacks. One scratch
/// per worker keeps the batch path allocation-free after warm-up.
/// `steer` holds the `k_rx` steering phasors of the last tag column the
/// precompute evaluated (see [`synthesize_group`]).
#[derive(Clone, Debug, Default)]
pub struct SynthScratch {
    acc_re: Vec<f64>,
    acc_im: Vec<f64>,
    rots: Vec<Complex64>,
    starts: Vec<Complex64>,
    steer: Vec<Complex64>,
}

/// The IF kernel for a run of frames: adds each job's noiseless signal
/// (bit-identical to the per-echo reference) onto the frame of the same
/// index in `frames` (the two slices are the same length), reusing
/// `scratch` between calls. Each frame arrives laid out by
/// [`size_frames`] with unit-variance noise in its rows, and every
/// sample leaves as `signal + σ·noise`.
///
/// Runs [`synthesize_lanes`] eight lanes wide inside an `avx512f`
/// target-feature function when the host has AVX-512, four lanes wide
/// inside an `avx` one when it has AVX (both detected at run time), and
/// two lanes wide otherwise. All widths are the same source and give
/// the same bits.
pub(crate) fn synthesize_signal_into(
    chirp: &ChirpConfig,
    array: &RadarArray,
    jobs: &[(Pose, Vec<Echo>)],
    sigma: f64,
    scratch: &mut SynthScratch,
    frames: &mut [Frame],
) {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f") {
            // SAFETY: `synthesize_avx512` needs only the `avx512f`
            // target feature, and the `is_x86_feature_detected!("avx512f")`
            // check above has just confirmed that this host supports it.
            unsafe { synthesize_avx512(chirp, array, jobs, sigma, scratch, frames) };
            return;
        }
        if std::arch::is_x86_feature_detected!("avx") {
            // SAFETY: `synthesize_avx` needs only the `avx` target
            // feature, and the `is_x86_feature_detected!("avx")` check
            // above has just confirmed that this host supports it.
            unsafe { synthesize_avx(chirp, array, jobs, sigma, scratch, frames) };
            return;
        }
    }
    synthesize_lanes::<SYNTH_LANES>(chirp, array, jobs, sigma, scratch, frames);
}

/// [`synthesize_lanes`] at [`SYNTH_LANES_AVX512`], compiled with the
/// `avx512f` target feature so each lane-group step is one 512-bit
/// operation. Only `avx512f`, for the reason [`synthesize_avx`] gives.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn synthesize_avx512(
    chirp: &ChirpConfig,
    array: &RadarArray,
    jobs: &[(Pose, Vec<Echo>)],
    sigma: f64,
    scratch: &mut SynthScratch,
    frames: &mut [Frame],
) {
    synthesize_lanes::<SYNTH_LANES_AVX512>(chirp, array, jobs, sigma, scratch, frames);
}

/// [`synthesize_lanes`] at [`SYNTH_LANES_AVX`], compiled with the
/// `avx` target feature so each lane-group step is one 256-bit
/// operation. Only `avx`: the reference rounds each product and each
/// sum of the rotation, and a fused multiply-add rounds the pair once,
/// so an FMA kernel would change the bits. The compiler never fuses
/// separate operations on its own, so enabling `fma` would buy nothing
/// here and would only shut out AVX hosts without it.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
fn synthesize_avx(
    chirp: &ChirpConfig,
    array: &RadarArray,
    jobs: &[(Pose, Vec<Echo>)],
    sigma: f64,
    scratch: &mut SynthScratch,
    frames: &mut [Frame],
) {
    synthesize_lanes::<SYNTH_LANES_AVX>(chirp, array, jobs, sigma, scratch, frames);
}

/// The IF tone kernel at lane width `L`, over consecutive groups of
/// `F = max(1, L / k_rx)` frames.
///
/// Per group, a precompute pass applies the reference's skips in the
/// same order, frame by frame, and gives each live echo the next echo
/// slot of its frame's lanes: one rotation and `k_rx` start phasors
/// (the [`SynthScratch`] layout). Then, per lane group of `L` lanes,
/// runs of [`SYNTH_GROUP`] slots walk the samples together with their
/// phasors held in locals, so the independent rotate chains overlap
/// and each step covers all `L` lanes, whichever frames they belong
/// to, in one packed operation; a one-slot pass takes the last
/// `m mod G` slots. Today's four-antenna frame fills one AVX register
/// (`F = 1`) and two frames fill one AVX-512 register (`F = 2`).
/// Finally each frame's noise rows become `signal + σ·noise`.
///
/// The precompute evaluates a tag column once. The rows of one stack
/// share their world `x` and `y` bit for bit and differ only in `z`,
/// and [`Pose::azimuth_to`] reads only `x`, `y` and the frame's pose, so
/// they share the azimuth, the pattern gain and the `k_rx` steering
/// phasors. Each frame keeps the last live echo's `(x, y)` bits with its
/// gain and phasors; a live echo with the same bits reuses them, and
/// any other echo evaluates them afresh. Range, beat rotation and
/// `amp·(g·g)·phasor` stay per echo. Each reused value is the output of
/// the same deterministic call on the same input bits, so this changes
/// no bit.
///
/// Bit-identity with the reference holds at every `L` and for every
/// pairing of frames. Every accumulator cell receives its own frame's
/// live echoes one add at a time in the original echo order, starting
/// from `+0`, and every phasor step is the literal expansion of
/// `Complex64::mul`, `(pr·cr − pi·ci, pr·ci + pi·cr)`, with no fused
/// multiply-add. The slots a lane's frame lacks (and padded lanes)
/// hold a `+0` start phasor under a unit rotation, which stays `+0` at
/// every step (`0·1 − 0·0 = +0`, `0·0 + 0·1 = +0`), so they only ever
/// add `+0`. A round-to-nearest sum is `−0` only when both addends are
/// `−0`, so a cell that starts at `+0` and only gains sums never holds
/// `−0`, and adding `+0` to it is a bitwise no-op. Hence a frame's
/// samples do not depend on which frame shares its lane group, nor on
/// how many slots the group runs. Only the loop nest and the lane
/// packing change, never a cell's operation sequence. Always inlined,
/// so each target-feature instantiation is compiled with its caller's
/// feature.
#[inline(always)]
fn synthesize_lanes<const L: usize>(
    chirp: &ChirpConfig,
    array: &RadarArray,
    jobs: &[(Pose, Vec<Echo>)],
    sigma: f64,
    scratch: &mut SynthScratch,
    frames: &mut [Frame],
) {
    let per_group = frames_per_group(L, array.n_rx);
    for (group, out) in jobs.chunks(per_group).zip(frames.chunks_mut(per_group)) {
        synthesize_group::<L>(chirp, array, group, sigma, scratch, out);
    }
}

/// One frame group of [`synthesize_lanes`].
#[inline(always)]
fn synthesize_group<const L: usize>(
    chirp: &ChirpConfig,
    array: &RadarArray,
    jobs: &[(Pose, Vec<Echo>)],
    sigma: f64,
    scratch: &mut SynthScratch,
    frames: &mut [Frame],
) {
    let n = chirp.n_samples;
    let k_rx = array.n_rx;
    let k_pad = (jobs.len() * k_rx).div_ceil(L) * L;
    let lambda = chirp.wavelength_m();
    if n == 0 || k_pad == 0 {
        // Nothing to synthesize, and the planes below are chunked by a
        // width that must not be zero.
        return;
    }

    let SynthScratch {
        acc_re,
        acc_im,
        rots,
        starts,
        steer,
    } = scratch;
    rots.clear();
    starts.clear();
    steer.resize(k_rx, Complex64::ZERO);
    for (f, (pose, echoes)) in jobs.iter().enumerate() {
        let mut slot = f * k_rx;
        // The last evaluated column: its `(x, y)` bits and pattern gain
        // (its steering phasors are in `steer`).
        let mut column: Option<(u64, u64, f64)> = None;
        for echo in echoes {
            if echo.amp == Complex64::ZERO {
                continue;
            }
            let key = (echo.pos.x.to_bits(), echo.pos.y.to_bits());
            let g = match column {
                Some((x, y, g)) if (x, y) == key => g,
                _ => {
                    let az = pose.azimuth_to(echo.pos);
                    for (k, s) in steer.iter_mut().enumerate() {
                        *s = Complex64::cis(array.steering_phase(k, az, lambda));
                    }
                    let g = radar_pattern(az);
                    column = Some((key.0, key.1, g));
                    g
                }
            };
            // Gain is non-negative, so `<=` keeps the exact-zero skip
            // behavior while avoiding an exact float comparison.
            if g <= 0.0 {
                continue;
            }
            let range = pose.range_to(echo.pos);
            // Two-way radar antenna pattern.
            let amp = echo.amp * (g * g);
            let f_beat = chirp.beat_frequency_hz(range);
            let w = std::f64::consts::TAU * f_beat / chirp.sample_rate_hz;
            if slot >= rots.len() {
                // A new echo slot: every lane starts as padding.
                rots.resize(rots.len() + k_pad, Complex64::ONE);
                starts.resize(starts.len() + k_pad, Complex64::ZERO);
            }
            rots[slot..slot + k_rx].fill(Complex64::cis(w));
            for (s, phasor) in starts[slot..slot + k_rx].iter_mut().zip(steer.iter()) {
                *s = amp * *phasor;
            }
            slot += k_pad;
        }
    }

    acc_re.clear();
    acc_re.resize(k_pad * n, 0.0);
    acc_im.clear();
    acc_im.resize(k_pad * n, 0.0);
    let m = rots.len() / k_pad;
    let grouped = m - m % SYNTH_GROUP;
    let planes = acc_re
        .chunks_exact_mut(L * n)
        .zip(acc_im.chunks_exact_mut(L * n));
    for (p, (plane_re, plane_im)) in planes.enumerate() {
        let (plane_re, _) = plane_re.as_chunks_mut::<L>();
        let (plane_im, _) = plane_im.as_chunks_mut::<L>();
        let k0 = p * L;
        let runs = rots
            .chunks_exact(SYNTH_GROUP * k_pad)
            .zip(starts.chunks_exact(SYNTH_GROUP * k_pad));
        for (r, s) in runs {
            add_tones::<SYNTH_GROUP, L>(r, s, k0, plane_re, plane_im);
        }
        for e in grouped..m {
            let slot = e * k_pad..(e + 1) * k_pad;
            add_tones::<1, L>(&rots[slot.clone()], &starts[slot], k0, plane_re, plane_im);
        }
    }

    // Padded lanes are never copied out. Each row holds its unit noise
    // draws and leaves as `signal + σ·noise`.
    let rows = frames.iter_mut().flat_map(|frame| frame.data.iter_mut());
    for (q, row) in rows.enumerate() {
        let plane = (q / L) * L * n..(q / L + 1) * L * n;
        let (plane_re, _) = acc_re[plane.clone()].as_chunks::<L>();
        let (plane_im, _) = acc_im[plane].as_chunks::<L>();
        let l = q % L;
        for (s, (re, im)) in row.iter_mut().zip(plane_re.iter().zip(plane_im)) {
            *s = Complex64::new(re[l] + sigma * s.re, im[l] + sigma * s.im);
        }
    }
}

/// Adds `G` echo slots' tones onto one lane group. `rots` and `starts`
/// hold the `G` slots' rotations and start phasors slot-major (`k_pad`
/// lanes per slot); lane `l` of the group takes entry `g·k_pad + k0 + l`
/// of each. Per sample, each lane's cell gains the `G` current phasors
/// in slot order, then each phasor takes one `Complex64::mul` step by
/// its own lane's rotation.
#[inline(always)]
fn add_tones<const G: usize, const L: usize>(
    rots: &[Complex64],
    starts: &[Complex64],
    k0: usize,
    plane_re: &mut [[f64; L]],
    plane_im: &mut [[f64; L]],
) {
    let k_pad = starts.len() / G;
    let lane = |v: &[Complex64], g: usize, l: usize| v[g * k_pad + k0 + l];
    let mut pr: [[f64; L]; G] =
        std::array::from_fn(|g| std::array::from_fn(|l| lane(starts, g, l).re));
    let mut pi: [[f64; L]; G] =
        std::array::from_fn(|g| std::array::from_fn(|l| lane(starts, g, l).im));
    let cr: [[f64; L]; G] = std::array::from_fn(|g| std::array::from_fn(|l| lane(rots, g, l).re));
    let ci: [[f64; L]; G] = std::array::from_fn(|g| std::array::from_fn(|l| lane(rots, g, l).im));
    for (sr, si) in plane_re.iter_mut().zip(plane_im.iter_mut()) {
        let (mut ar, mut ai) = (*sr, *si);
        for g in 0..G {
            for l in 0..L {
                ar[l] += pr[g][l];
                ai[l] += pi[g][l];
                let (a, b) = (pr[g][l], pi[g][l]);
                pr[g][l] = a * cr[g][l] - b * ci[g][l];
                pi[g][l] = a * ci[g][l] + b * cr[g][l];
            }
        }
        *sr = ar;
        *si = ai;
    }
}

/// Fills a pre-sized slice with unit-variance complex Gaussian draws,
/// one [`gaussian_pair`] per sample giving re then im. A capture draws
/// each frame's rows this way, antenna by antenna, straight into the
/// output frame, and the IF kernel scales them by σ as it adds the
/// signal.
pub(crate) fn fill_noise<R: Rng>(rng: &mut R, out: &mut [Complex64]) {
    for g in out.iter_mut() {
        let (re, im) = gaussian_pair(rng);
        *g = Complex64::new(re, im);
    }
}

/// Synthesizes the IF frame for a set of echoes: a one-job capture
/// through [`FmcwRadar::capture`](crate::radar::FmcwRadar::capture) on
/// a clean front-end, so it takes the batch's one noise path.
///
/// `rng` drives the AWGN; pass a seeded RNG for reproducible
/// experiments.
pub fn synthesize_frame<R: Rng>(
    chirp: &ChirpConfig,
    array: &RadarArray,
    budget: &RadarLinkBudget,
    pose: Pose,
    echoes: &[Echo],
    rng: &mut R,
) -> Frame {
    let radar = crate::radar::FmcwRadar {
        chirp: *chirp,
        array: *array,
        budget: *budget,
        cfar: ros_dsp::cfar::CfarParams::default(),
        impairments: crate::impairments::Impairments::default(),
    };
    radar.capture(pose, echoes, rng)
}

/// Standard normal *pair* via the Marsaglia polar method (avoids a
/// rand_distr dep). Noise is always consumed as (re, im) pairs, and the
/// polar transform hands back two independent normals per accepted
/// candidate — for the cost of one `ln` + one `sqrt` and **no** trig,
/// where the one-at-a-time Box–Muller this replaced spent an `ln`, a
/// `sqrt` *and* a `cos` per single normal. The rejection loop (≈21.5%
/// of candidates fall outside the unit disc) is deterministic for a
/// seeded RNG, which is all the capture pipeline requires.
fn gaussian_pair<R: Rng>(rng: &mut R) -> (f64, f64) {
    loop {
        let x = 2.0 * rng.gen::<f64>() - 1.0;
        let y = 2.0 * rng.gen::<f64>() - 1.0;
        let s = x * x + y * y;
        // Reject outside the unit disc; also reject a (sub)normal-tiny
        // `s`, where `ln(s)/s` overflows.
        if !(f64::MIN_POSITIVE..1.0).contains(&s) {
            continue;
        }
        let f = (-2.0 * s.ln() / s).sqrt();
        return (x * f, y * f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use ros_em::Vec3;

    fn setup() -> (ChirpConfig, RadarArray, RadarLinkBudget) {
        (
            ChirpConfig::ti_default(),
            RadarArray::ti_default(),
            RadarLinkBudget::ti_eval(),
        )
    }

    #[test]
    fn frame_dimensions() {
        let (c, a, b) = setup();
        let mut rng = StdRng::seed_from_u64(1);
        let f = synthesize_frame(&c, &a, &b, Pose::side_looking(Vec3::ZERO), &[], &mut rng);
        assert_eq!(f.n_rx(), 4);
        assert_eq!(f.n_samples(), 256);
    }

    #[test]
    fn single_echo_produces_beat_tone() {
        let (c, a, b) = setup();
        let mut rng = StdRng::seed_from_u64(2);
        let pos = Vec3::new(0.0, 3.0, 0.0);
        let echo = Echo::new(pos, Complex64::from_polar(1.0, 0.0)); // 0 dBm: huge
        let f = synthesize_frame(
            &c,
            &a,
            &b,
            Pose::side_looking(Vec3::ZERO),
            &[echo],
            &mut rng,
        );
        // DFT at the predicted beat bin dominates.
        let n = f.n_samples();
        let fb = c.beat_frequency_hz(3.0);
        let corr: Complex64 = (0..n)
            .map(|i| {
                f.data[0][i]
                    * Complex64::cis(-std::f64::consts::TAU * fb * i as f64 / c.sample_rate_hz)
            })
            .sum();
        let peak = corr.abs() / n as f64;
        assert!(peak > 0.5, "beat tone missing: {peak}");
    }

    #[test]
    fn steering_phases_consistent_with_azimuth() {
        let (c, a, b) = setup();
        let mut rng = StdRng::seed_from_u64(3);
        let pos = Vec3::new(1.5, 3.0, 0.0); // az = atan2(1.5, 3) ≈ 26.6°
        let echo = Echo::new(pos, Complex64::from_polar(1.0, 0.0));
        let pose = Pose::side_looking(Vec3::ZERO);
        let f = synthesize_frame(&c, &a, &b, pose, &[echo], &mut rng);
        let az = pose.azimuth_to(pos);
        let lambda = c.wavelength_m();
        // Phase difference between adjacent antennas at sample 0 should
        // match the steering phase (noise is tiny vs a 0 dBm echo).
        let measured = ros_em::geom::wrap_angle(f.data[1][0].arg() - f.data[0][0].arg());
        let expected = a.steering_phase(1, az, lambda);
        assert!(
            (measured - expected).abs() < 0.05,
            "measured {measured}, expected {expected}"
        );
    }

    #[test]
    fn noise_floor_calibrated() {
        // With no echoes, the post-processing noise power (mean over
        // bins after FFT÷N and K-antenna averaging) must sit near the
        // link-budget floor.
        let (c, a, b) = setup();
        let mut rng = StdRng::seed_from_u64(4);
        let mut acc = 0.0;
        let trials = 20;
        for _ in 0..trials {
            let f = synthesize_frame(&c, &a, &b, Pose::side_looking(Vec3::ZERO), &[], &mut rng);
            // Beamform at boresight then single-bin DFT power, averaged
            // over several bins.
            let n = f.n_samples();
            for bin in [10usize, 50, 100, 200] {
                let mut y = Complex64::ZERO;
                for k in 0..f.n_rx() {
                    let mut xk = Complex64::ZERO;
                    for i in 0..n {
                        xk += f.data[k][i]
                            * Complex64::cis(
                                -std::f64::consts::TAU * bin as f64 * i as f64 / n as f64,
                            );
                    }
                    y += xk / n as f64;
                }
                y = y / f.n_rx() as f64;
                acc += y.norm_sqr();
            }
        }
        let mean_mw = acc / (trials * 4) as f64;
        let mean_dbm = 10.0 * mean_mw.log10();
        let floor = b.noise_floor_dbm();
        assert!(
            (mean_dbm - floor).abs() < 1.5,
            "measured floor {mean_dbm:.1} dBm vs budget {floor:.1} dBm"
        );
    }

    #[test]
    fn behind_the_array_is_silent() {
        let (c, a, b) = setup();
        let mut rng = StdRng::seed_from_u64(5);
        let pos = Vec3::new(0.0, -3.0, 0.0); // behind boresight
        let echo = Echo::new(pos, Complex64::from_polar(1.0, 0.0));
        let f = synthesize_frame(
            &c,
            &a,
            &b,
            Pose::side_looking(Vec3::ZERO),
            &[echo],
            &mut rng,
        );
        // Only noise present: total power per sample far below 0 dBm.
        let p: f64 = f.data[0].iter().map(|s| s.norm_sqr()).sum::<f64>() / 256.0;
        assert!(10.0 * p.log10() < -20.0);
    }

    #[test]
    fn pattern_rolls_off() {
        assert_eq!(radar_pattern(0.0), 1.0);
        assert!(radar_pattern(0.5) < 1.0);
        assert_eq!(radar_pattern(2.0), 0.0); // >90°
    }

    /// An IF-kernel entry with [`synthesize_signal_into`]'s signature.
    type SynthInto =
        fn(&ChirpConfig, &RadarArray, &[(Pose, Vec<Echo>)], f64, &mut SynthScratch, &mut [Frame]);

    /// The generic kernel at every width, whatever this host runs, and
    /// the dispatched entry: each must match [`reference`].
    const KERNELS: [(&str, SynthInto); 4] = [
        ("L = 2", synthesize_lanes::<2>),
        ("L = 4", synthesize_lanes::<4>),
        ("L = 8", synthesize_lanes::<8>),
        ("dispatched", synthesize_signal_into),
    ];

    /// The noise scale of the kernel checks, near the echo amplitudes
    /// so that both halves of `signal + σ·noise` carry bits.
    const SIGMA: f64 = 3e-4;

    /// Every sample of a run of frames as the bit patterns of its parts.
    fn frame_bits(frames: &[Frame]) -> Vec<u64> {
        frames
            .iter()
            .flat_map(|f| f.data.iter().flatten())
            .flat_map(|s| [s.re.to_bits(), s.im.to_bits()])
            .collect()
    }

    /// `jobs`' frames as a capture hands them to the kernel: laid out by
    /// [`size_frames`] from NaN-filled, wrongly shaped, surplus frames,
    /// with seeded unit noise in every row.
    fn noisy_frames(c: &ChirpConfig, a: &RadarArray, jobs: &[(Pose, Vec<Echo>)]) -> Vec<Frame> {
        let dirty = Frame {
            data: vec![vec![Complex64::new(f64::NAN, 9.0); 3]; 7],
            pose: Pose::side_looking(Vec3::ZERO),
        };
        let mut frames = vec![dirty; jobs.len() + 2];
        size_frames(jobs, a.n_rx, c.n_samples, &mut frames);
        let mut rng = StdRng::seed_from_u64(7);
        for row in frames.iter_mut().flat_map(|f| f.data.iter_mut()) {
            fill_noise(&mut rng, row);
        }
        frames
    }

    /// The per-echo reference with the noise added on top, one sample
    /// at a time: `s += σ·g`.
    fn reference(
        c: &ChirpConfig,
        a: &RadarArray,
        jobs: &[(Pose, Vec<Echo>)],
        noise: &[Frame],
    ) -> Vec<Frame> {
        jobs.iter()
            .zip(noise)
            .map(|((pose, echoes), nz)| {
                let mut f = synthesize_signal(c, a, *pose, echoes);
                for (ant, nz) in f.data.iter_mut().zip(&nz.data) {
                    for (s, g) in ant.iter_mut().zip(nz) {
                        *s += Complex64::new(g.re * SIGMA, g.im * SIGMA);
                    }
                }
                f
            })
            .collect()
    }

    /// Runs every kernel over `jobs` twice through one scratch (reuse
    /// must not change bits), each time from freshly laid-out noisy
    /// frames, and checks each frame against [`reference`].
    fn check_batch(c: &ChirpConfig, a: &RadarArray, jobs: &[(Pose, Vec<Echo>)], what: &str) {
        let noise = noisy_frames(c, a, jobs);
        assert_eq!(noise.len(), jobs.len(), "{what}");
        for (f, (pose, _)) in noise.iter().zip(jobs) {
            assert_eq!(f.pose, *pose, "{what}");
            assert_eq!(f.n_rx(), a.n_rx, "{what}");
            assert!(f.data.iter().all(|row| row.len() == c.n_samples), "{what}");
        }
        let direct = reference(c, a, jobs, &noise);
        for (name, synth) in KERNELS {
            let mut scratch = SynthScratch::default();
            for _ in 0..2 {
                let mut frames = noise.clone();
                synth(c, a, jobs, SIGMA, &mut scratch, &mut frames);
                assert!(
                    frame_bits(&frames) == frame_bits(&direct),
                    "{name}, {what}: bits differ"
                );
            }
        }
    }

    /// `rows` echoes of one tag column: the same `x` and `y` bits, each
    /// row 88 mm above the last (so each has its own range), with
    /// amplitudes and phases that differ per row.
    fn column(x: f64, y: f64, rows: usize) -> impl Iterator<Item = Echo> {
        (0..rows).map(move |r| {
            let t = r as f64;
            Echo::new(
                Vec3::new(x, y, -0.1 + 0.088 * t),
                Complex64::from_polar(1e-3 / (1.0 + 0.3 * t), 0.5 * t - 1.0),
            )
        })
    }

    /// The next `f64` above a positive `x`: one ulp apart.
    fn next_up(x: f64) -> f64 {
        f64::from_bits(x.to_bits() + 1)
    }

    #[test]
    fn signal_into_bit_identical_to_direct() {
        let (ti, a, _) = setup();
        let echo = |x: f64, y: f64, amp: f64, phase: f64| {
            Echo::new(Vec3::new(x, y, 0.0), Complex64::from_polar(amp, phase))
        };
        let behind = echo(0.0, -2.0, 1e-3, 0.0);
        let skipped = Echo::new(Vec3::new(1.0, 1.0, 0.0), Complex64::ZERO);
        // Nine live echoes (two full slot runs and one left over) among
        // a behind-the-array and a zero-amplitude one.
        let mut full: Vec<Echo> = (0..9)
            .map(|i| {
                let t = f64::from(i);
                echo(
                    -1.2 + 0.3 * t,
                    2.0 + 0.4 * t,
                    2e-3 / (1.0 + t),
                    0.7 * t - 2.0,
                )
            })
            .collect();
        full.insert(3, behind);
        full.insert(6, skipped);
        // Tag columns, each a run of rows sharing (x, y) at different
        // z: a six-row run; two columns one ulp apart in x, then in y; a
        // run broken by another echo and then resumed; one x with rows
        // behind the radar (g ≤ 0) and then in front of it, so a cache
        // keyed on x alone reuses the wrong gain; a run with
        // zero-amplitude rows inside it.
        let mut with_gaps: Vec<Echo> = column(1.1, 3.3, 5).collect();
        with_gaps[1].amp = Complex64::ZERO;
        with_gaps[3].amp = Complex64::ZERO;
        let columns: Vec<Echo> = column(-0.6, 2.5, 6)
            .chain(column(0.4, 3.0, 3))
            .chain(column(next_up(0.4), 3.0, 3))
            .chain(column(next_up(0.4), next_up(3.0), 2))
            .chain(column(0.2, 2.8, 2))
            .chain([echo(-0.3, 4.1, 5e-4, 0.9)])
            .chain(column(0.2, 2.8, 3))
            .chain(column(-0.9, -1.5, 3))
            .chain(column(-0.9, 2.2, 3))
            .chain(with_gaps)
            .collect();
        let frames: [Vec<Echo>; 6] = [
            full,
            vec![skipped, behind, skipped], // all dead
            vec![behind, echo(0.5, 3.0, 2e-3, 0.4)],
            Vec::new(),
            vec![
                echo(-1.0, 4.0, 7e-4, -1.1),
                skipped,
                echo(0.3, 1.5, 1e-3, 2.9),
            ],
            columns,
        ];
        let pose = |i: usize| Pose::side_looking(Vec3::new(0.2 + 0.05 * i as f64, -0.1, 0.0));
        let batch = |order: &[usize]| -> Vec<(Pose, Vec<Echo>)> {
            order
                .iter()
                .map(|&i| (pose(i), frames[i].clone()))
                .collect()
        };
        // Batches of 1, 2, 3 and 5 frames whose live counts differ: a
        // full frame alone, paired with an all-dead one in both orders,
        // and runs that leave a lone trailing frame; the column frame
        // alone, leading a pair and inside a triple.
        let orders: [&[usize]; 9] = [
            &[0],
            &[0, 1],
            &[1, 0],
            &[1, 2, 0],
            &[3, 4, 2],
            &[0, 1, 2, 3, 4],
            &[5],
            &[5, 0],
            &[2, 5, 1],
        ];
        // The TI chirp, and one with no samples at all.
        for c in [ti, ChirpConfig { n_samples: 0, ..ti }] {
            for n_rx in [1, 2, 3, 4, 5, 8] {
                let a = RadarArray { n_rx, ..a };
                for order in orders {
                    let what = format!("n = {}, n_rx = {n_rx}, frames {order:?}", c.n_samples);
                    check_batch(&c, &a, &batch(order), &what);
                }
            }
        }
    }

    /// One proptest echo spec, `((kind, rows), x, y, phase)`, as echoes
    /// in scene order. Kind 0 is a zero-amplitude run, 1 a column behind
    /// the radar, 2 a column with zero-amplitude rows inside it, 3 two
    /// columns one ulp apart in x, 4 one x with rows behind and then in
    /// front of the radar, 5 a run broken by another echo and resumed;
    /// any other kind is a plain column.
    fn spec_echoes(((kind, rows), x, y, phase): ((u8, usize), f64, f64, f64)) -> Vec<Echo> {
        let at = |x: f64, y: f64| -> Vec<Echo> {
            column(x, y, rows)
                .map(|e| Echo::new(e.pos, e.amp * Complex64::from_polar(1.0 / y.abs(), phase)))
                .collect()
        };
        match kind {
            0 => at(x, y)
                .into_iter()
                .map(|e| Echo::new(e.pos, Complex64::ZERO))
                .collect(),
            1 => at(x, -y),
            2 => {
                let mut run = at(x, y);
                for e in run.iter_mut().skip(1).step_by(2) {
                    e.amp = Complex64::ZERO;
                }
                run
            }
            3 => [at(x, y), at(next_up(x.abs()).copysign(x), y)].concat(),
            4 => [at(x, -y), at(x, y)].concat(),
            5 => [at(x, y), at(y - 3.0, 2.0 * y), at(x, y)].concat(),
            _ => at(x, y),
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(48))]

        /// The grouped kernel at two, four and eight lanes, and the
        /// dispatched entry, against the per-echo reference plus noise,
        /// bit for bit: batches of one to five frames, each with its own
        /// pose and from none through several slot runs of echoes. The
        /// echoes come in tag-column runs of one to three rows sharing
        /// (x, y) at different z ([`spec_echoes`]): zero-amplitude runs,
        /// columns behind the radar or partly behind it, zero-amplitude
        /// rows inside a run, columns one ulp apart in x and runs broken
        /// by another echo, so frames that share a lane group differ in
        /// live count. Antenna counts leave padded lanes (1, 3, 5; 2 at
        /// four lanes and up), fill lane groups with several frames each
        /// (1, 2, 4 at eight lanes) or span several lane groups (8). Each
        /// path reuses one scratch while the counts shrink and grow (the
        /// call list, then the same list reversed).
        #[test]
        fn grouped_signal_into_bit_identical_to_direct(
            calls in proptest::prop::collection::vec(
                (
                    0usize..6,
                    proptest::prop::collection::vec(
                        (
                            -0.5f64..0.5,
                            proptest::prop::collection::vec(
                                ((0u8..8, 1usize..4), -2.0f64..2.0, 0.3f64..6.0, -3.2f64..3.2),
                                0..=2 * SYNTH_GROUP + 1,
                            ),
                        ),
                        1..=5,
                    ),
                ),
                2..5,
            )
        ) {
            let (c, ti, _) = setup();
            for (name, synth) in KERNELS {
                let mut scratch = SynthScratch::default();
                for (rx, batch) in calls.iter().chain(calls.iter().rev()) {
                    let a = RadarArray { n_rx: [1, 2, 3, 4, 5, 8][*rx], ..ti };
                    let jobs: Vec<(Pose, Vec<Echo>)> = batch
                        .iter()
                        .map(|(dx, spec)| {
                            let pose = Pose::side_looking(Vec3::new(*dx, -0.2, 0.0));
                            (pose, spec.iter().flat_map(|s| spec_echoes(*s)).collect())
                        })
                        .collect();
                    let mut frames = noisy_frames(&c, &a, &jobs);
                    let direct = reference(&c, &a, &jobs, &frames);
                    synth(&c, &a, &jobs, SIGMA, &mut scratch, &mut frames);
                    proptest::prop_assert!(
                        frame_bits(&frames) == frame_bits(&direct),
                        "{name}: bits differ"
                    );
                }
            }
        }
    }

    #[test]
    fn gaussian_moments() {
        let mut rng = StdRng::seed_from_u64(6);
        let n = 20_000;
        let xs: Vec<f64> = (0..n / 2)
            .flat_map(|_| {
                let (a, b) = gaussian_pair(&mut rng);
                [a, b]
            })
            .collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.03, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }
}
