//! Streaming frame ingestion for long-running reader services.
//!
//! [`DriveBy::run`](crate::reader::DriveBy::run) materializes a whole
//! pass — fine for sweeps, wrong for a fleet service watching an
//! arbitrarily long drive. This module splits the reader into a
//! producer/consumer pair with bounded memory on both sides:
//!
//! * [`FrameSource`] — a pull-based event iterator. A source yields
//!   [`StreamEvent`]s in chunks; nothing upstream ever holds more than
//!   one chunk of frames.
//! * [`StreamingReader`] — incremental decode state. It buffers only
//!   the *open* passes (frames between `PassStart` and `PassEnd`),
//!   decodes each pass the moment it closes via
//!   [`decode_into`](crate::decode::decode_into) with one reused
//!   scratch arena, and recycles the per-pass sample buffers through a
//!   free pool. Peak memory is `O(open passes × frames per pass)`,
//!   independent of drive length.
//!
//! ## One frame loop
//!
//! [`DriveBySource`] is the only implementation of the fast-mode frame
//! loop: the spotlight RSS expression, the serial receiver-noise RNG
//! (two draws per frame, drawn even for dropped frames), the fault
//! schedule realization, and the closest-approach decode-centre anchor.
//! Work is done at the rate it changes. Per pass, [`DriveBySource::new`]
//! resolves the echo scene once: each tag's row positions, weights and
//! row array, and the cache lookups for its row tables. Per frame, the
//! spotlight gate is aimed once (the pose and the tag's range and
//! azimuth sine). Per tag column, the terms that depend only on the
//! column's azimuth (the radar pattern and the azimuth gate) are
//! evaluated once through a [`ColumnMemo`]; per echo, only the range
//! gate. Per chunk it plans the frames serially, maps their
//! clean spotlight RSS (over the `ros_exec` pool when [`DriveBy::run`]
//! drains it, on one worker otherwise) and draws the noise serially.
//! The echoes accumulate in the order they always have, so the bits
//! match a per-frame export of every reflector.
//! [`DriveBy::run`] in fast mode drains one source and decodes through
//! the same [`PassContext`] call as [`StreamingReader`], so a
//! [`SignRead`] and the `Outcome` of the equivalent batch run carry
//! bit-identical bits and SNR by construction — at any chunk size and
//! any worker or thread count. `tests/serve_stream.rs` keeps one
//! end-to-end check of this.

use crate::decode::{
    decode_into, DecodeError, DecodeResult, DecodeScratch, DecoderConfig, RssSample,
};
use crate::encode::SpatialCode;
use crate::reader::{DriveBy, EchoScene, PassVerdict, ReaderConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ros_em::jones::Polarization;
use ros_em::units::cast::AsF64;
use ros_em::{Complex64, Vec3};
use ros_fault::{FaultSchedule, FrameFaults};
use ros_radar::echo::{ColumnMemo, Pose};
use ros_radar::radar::FmcwRadar;
use ros_scene::tracking::TrackingStream;
use ros_scene::trajectory::{ManoeuvreTrajectory, Trajectory};
use std::collections::BTreeMap;

/// Globally unique pass identity inside a corridor run. The ordering
/// (derived lexicographically: radar, vehicle, tag, seq) defines the
/// canonical read-log order, which is how the service proves its
/// output is invariant under worker count.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PassId {
    /// Roadside radar index.
    pub radar: u32,
    /// Vehicle index.
    pub vehicle: u32,
    /// Tag index along the corridor.
    pub tag: u32,
    /// Encounter sequence number (repeat passes of the same triple).
    pub seq: u32,
}

impl PassId {
    /// Compact `r/v/t/s` label for logs and metric payloads.
    pub fn label(&self) -> String {
        format!("r{}v{}t{}s{}", self.radar, self.vehicle, self.tag, self.seq)
    }
}

/// Everything the decoder needs to know about a pass, carried by
/// [`StreamEvent::PassStart`] so the consumer is stateless with
/// respect to scenario geometry.
#[derive(Clone, Copy, Debug)]
pub struct PassContext {
    /// Decode-centre estimate (believed-track anchored, see
    /// [`DriveBySource::new`]).
    pub center_est: Vec3,
    /// The tag's spatial code.
    pub code: SpatialCode,
    /// Tag axis yaw \[rad\] passed to the decoder.
    pub tag_axis_yaw: f64,
}

impl PassContext {
    /// Decodes a closed pass's frames. The one decode call of the fast
    /// reader and the streaming reader alike.
    pub(crate) fn decode_into(
        &self,
        samples: &[RssSample],
        decoder: &DecoderConfig,
        scratch: &mut DecodeScratch,
        out: &mut DecodeResult,
    ) -> Result<(), DecodeError> {
        decode_into(
            samples,
            self.center_est,
            self.tag_axis_yaw,
            &self.code,
            decoder,
            scratch,
            out,
        )
    }
}

/// One event of a frame stream.
#[derive(Clone, Copy, Debug)]
pub enum StreamEvent {
    /// A pass opened; frames for `pass` follow.
    PassStart {
        /// Pass identity.
        pass: PassId,
        /// Decode parameters for the pass.
        ctx: PassContext,
    },
    /// One spotlight RSS frame of an open pass.
    Frame {
        /// Pass identity.
        pass: PassId,
        /// The believed-position + RSS sample.
        sample: RssSample,
    },
    /// The pass closed; its decode verdict can now be produced.
    PassEnd {
        /// Pass identity.
        pass: PassId,
    },
}

/// A decoded sign read: the streaming counterpart of
/// [`Outcome`](crate::reader::Outcome), carrying the typed verdict and
/// — unlike the historical flattened `bits` — the decode error when
/// decoding failed.
#[derive(Clone, Debug)]
pub struct SignRead {
    /// Which pass produced this read.
    pub pass: PassId,
    /// Typed degradation verdict (single source of truth, shared with
    /// the batch reader via [`PassVerdict::from_decode`]).
    pub verdict: PassVerdict,
    /// Decoded bits on success, `None` when decoding failed.
    pub bits: Option<Vec<bool>>,
    /// Decode SNR \[dB\] on success.
    pub snr_db: Option<f64>,
    /// The typed decode error when decoding failed.
    pub error: Option<DecodeError>,
    /// Number of frames the decode consumed.
    pub n_frames: usize,
}

impl SignRead {
    /// Canonical one-line textual form. SNR is rendered as the raw IEEE
    /// bit pattern so two logs compare bit-exactly — the corridor
    /// service's worker-count invariance proof string-compares these.
    pub fn log_line(&self) -> String {
        let bits = match &self.bits {
            Some(b) => b.iter().map(|&x| if x { '1' } else { '0' }).collect(),
            None => "-".to_string(),
        };
        let snr = match self.snr_db {
            Some(s) => format!("{:016x}", s.to_bits()),
            None => "-".to_string(),
        };
        let err = match &self.error {
            Some(e) => format!("{e}"),
            None => "-".to_string(),
        };
        format!(
            "{} verdict={} bits={} snr={} frames={} err={}",
            self.pass.label(),
            self.verdict.name(),
            bits,
            snr,
            self.n_frames,
            err
        )
    }
}

/// A pull-based producer of [`StreamEvent`]s.
///
/// `next_events` appends up to `max` events to `out` and returns
/// `false` once the stream is exhausted (nothing appended, nothing
/// ever again). Chunked pulling keeps the producer's working set
/// bounded regardless of drive length.
///
/// A `max` below 2 is treated as 2: a duplicated frame emits two
/// events that are never split across chunks, so a smaller chunk could
/// not make progress. The event sequence does not depend on the chunk
/// size.
pub trait FrameSource {
    /// Appends up to `max.max(2)` events to `out`; returns `false` when
    /// the stream is exhausted.
    fn next_events(&mut self, max: usize, out: &mut Vec<StreamEvent>) -> bool;
}

/// The smallest chunk a [`FrameSource`] emits: the two events of a
/// duplicated frame.
const MIN_CHUNK_EVENTS: usize = 2;

/// Per-open-pass buffer held by the streaming reader.
#[derive(Debug)]
struct OpenPass {
    ctx: PassContext,
    samples: Vec<RssSample>,
}

/// Incremental decode state: feed it [`StreamEvent`]s, collect
/// [`SignRead`]s. See the module docs for the memory model.
#[derive(Debug)]
pub struct StreamingReader {
    decoder: DecoderConfig,
    scratch: DecodeScratch,
    result: DecodeResult,
    open: BTreeMap<PassId, OpenPass>,
    pool: Vec<Vec<RssSample>>,
    buffered: usize,
    peak_open: usize,
    peak_buffered: usize,
    decodes: u64,
}

impl StreamingReader {
    /// A reader with the given decoder configuration. Scratch arenas
    /// (FFT plans, workspaces) are allocated once here and reused for
    /// every pass.
    pub fn new(decoder: DecoderConfig) -> Self {
        StreamingReader {
            decoder,
            scratch: DecodeScratch::new(),
            result: DecodeResult::default(),
            open: BTreeMap::new(),
            pool: Vec::new(),
            buffered: 0,
            peak_open: 0,
            peak_buffered: 0,
            decodes: 0,
        }
    }

    /// Ingests one event. Returns a [`SignRead`] when the event closed
    /// a pass (i.e. it was a `PassEnd` for a known pass). Frames for
    /// unknown passes are ignored — a source that never loses events
    /// never triggers that path.
    pub fn ingest(&mut self, ev: StreamEvent) -> Option<SignRead> {
        match ev {
            StreamEvent::PassStart { pass, ctx } => {
                let samples = self.pool.pop().unwrap_or_default();
                self.open.insert(pass, OpenPass { ctx, samples });
                self.peak_open = self.peak_open.max(self.open.len());
                None
            }
            StreamEvent::Frame { pass, sample } => {
                if let Some(p) = self.open.get_mut(&pass) {
                    p.samples.push(sample);
                    self.buffered += 1;
                    self.peak_buffered = self.peak_buffered.max(self.buffered);
                }
                None
            }
            StreamEvent::PassEnd { pass } => {
                let p = self.open.remove(&pass)?;
                Some(self.close(pass, p))
            }
        }
    }

    /// Closes every still-open pass (in canonical [`PassId`] order) and
    /// returns their reads. Call once the source is exhausted so a
    /// stream that ends mid-pass still yields a verdict per pass.
    pub fn finish(&mut self) -> Vec<SignRead> {
        let mut reads = Vec::with_capacity(self.open.len());
        while let Some((&pass, _)) = self.open.iter().next() {
            if let Some(p) = self.open.remove(&pass) {
                reads.push(self.close(pass, p));
            }
        }
        reads
    }

    fn close(&mut self, pass: PassId, mut p: OpenPass) -> SignRead {
        let n_frames = p.samples.len();
        self.buffered -= n_frames;
        let decode = p.ctx.decode_into(
            &p.samples,
            &self.decoder,
            &mut self.scratch,
            &mut self.result,
        );
        self.decodes += 1;
        p.samples.clear();
        self.pool.push(p.samples);
        match decode {
            Ok(()) => SignRead {
                pass,
                verdict: PassVerdict::from_decode(Ok(&self.result)),
                bits: Some(self.result.bits.clone()),
                snr_db: Some(self.result.snr_db()),
                error: None,
                n_frames,
            },
            Err(e) => SignRead {
                pass,
                verdict: PassVerdict::from_decode(Err(&e)),
                bits: None,
                snr_db: None,
                error: Some(e),
                n_frames,
            },
        }
    }

    /// Frames currently buffered across all open passes.
    pub fn buffered(&self) -> usize {
        self.buffered
    }

    /// High-water mark of simultaneously open passes.
    pub fn peak_open(&self) -> usize {
        self.peak_open
    }

    /// High-water mark of buffered frames — the number a memory bound
    /// should be asserted against.
    pub fn peak_buffered(&self) -> usize {
        self.peak_buffered
    }

    /// Total passes decoded so far.
    pub fn decodes(&self) -> u64 {
        self.decodes
    }
}

/// Phase of a [`DriveBySource`]'s event emission.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum SourcePhase {
    Start,
    Frames,
    End,
    Done,
}

/// Streams one [`DriveBy`] pass as [`StreamEvent`]s, frame by frame,
/// in O(1) memory per frame (the fault schedule, when a plan is
/// attached, is the one O(n)-per-pass allocation).
///
/// This is the fast reader's frame loop: [`DriveBy::run`] in fast mode
/// drains one of these. See the module docs.
pub struct DriveBySource {
    drive: DriveBy,
    pass: PassId,
    ctx_pass: PassContext,
    // Frame timeline: index i ∈ {0, stride, 2·stride, …} ≤ n_last.
    rate_hz: f64,
    stride: usize,
    n_last: usize,
    i: usize,
    traj: ManoeuvreTrajectory,
    schedule: Option<FaultSchedule>,
    // The pass's echo sources, resolved once, and the per-frame state
    // of the spotlight and noise model.
    scene: EchoScene,
    spot: SpotlightModel,
    tx: Polarization,
    rx: Polarization,
    sigma: f64,
    rng: StdRng,
    tracking: TrackingStream,
    frame_no: usize,
    phase: SourcePhase,
    // Frames of the chunk being emitted (reused across chunks), and
    // whether their clean RSS fans out over the `ros_exec` pool.
    plan: Vec<PlannedFrame>,
    fan_out: bool,
}

/// One frame of a chunk, planned serially (timeline, tracking and
/// fault lookups advance in frame order) before its clean RSS is
/// evaluated.
#[derive(Clone, Copy, Debug)]
struct PlannedFrame {
    t: f64,
    truth: Vec3,
    believed: Vec3,
}

impl DriveBySource {
    /// Prepares the streaming pass. Runs an O(1)-memory prepass over
    /// the frame timeline to anchor the decode centre the way detection
    /// would (closest-approach frame of the *truth* track, offset by the
    /// believed-track error at that frame, so a constant tracking
    /// offset cancels), then rewinds for streaming.
    pub fn new(drive: DriveBy, cfg: &ReaderConfig, pass: PassId) -> Self {
        let base = Trajectory::drive_by(drive.speed_mps, drive.half_span_m, drive.radar_height_m);
        let traj = ManoeuvreTrajectory::new(base, drive.lateral);
        let rate_hz = drive.radar.chirp.frame_rate_hz;
        let stride = cfg.frame_stride.max(1);
        let n_last = ros_em::units::cast::floor_usize(base.duration_s * rate_hz);

        // Fault plans are realized against the materialized timeline —
        // one Vec<f64> per pass.
        let schedule = drive.faults.as_ref().map(|p| {
            let times: Vec<f64> = (0..=n_last)
                .step_by(stride)
                .map(|i| i.as_f64() / rate_hz)
                .collect();
            p.schedule(&times)
        });

        // Prepass: walk the timeline once with a throwaway tracking
        // stream to find the closest-approach anchor and the believed
        // offset there. Frame positions are O(1) recomputable, so no
        // track is materialized.
        let mut prepass_tracking = TrackingStream::new(drive.tracking);
        let mut best_d = f64::INFINITY;
        let mut offset = Vec3::ZERO;
        for (j, i) in (0..=n_last).step_by(stride).enumerate() {
            let t = i.as_f64() / rate_hz;
            let truth = traj.position_at(t);
            let mut believed = prepass_tracking.advance(truth);
            if let Some(sch) = &schedule {
                if let Some(s) = sch.get(j).spike {
                    believed += Vec3::new(s.dx_m, s.dy_m, 0.0);
                }
            }
            let d = truth.distance(drive.tag.mount());
            if d < best_d {
                best_d = d;
                offset = believed - truth;
            }
        }
        let ctx_pass = PassContext {
            center_est: drive.tag.mount() + offset,
            code: *drive.tag.code(),
            tag_axis_yaw: 0.0,
        };

        let scene = EchoScene::new(&drive);
        let (tx, rx) = ros_radar::radar::RadarMode::PolarizationSwitched
            .polarizations(drive.radar.array.native_pol);
        let sigma = drive.noise_sigma();
        let spot = SpotlightModel::new(&drive.radar);
        let rng = StdRng::seed_from_u64(drive.seed);
        let tracking = TrackingStream::new(drive.tracking);
        DriveBySource {
            drive,
            pass,
            ctx_pass,
            rate_hz,
            stride,
            n_last,
            i: 0,
            traj,
            schedule,
            scene,
            spot,
            tx,
            rx,
            sigma,
            rng,
            tracking,
            frame_no: 0,
            phase: SourcePhase::Start,
            plan: Vec::new(),
            fan_out: false,
        }
    }

    /// Spreads each chunk's clean-RSS evaluation over the `ros_exec`
    /// pool. [`DriveBy::run`] drains its pass on the caller's thread, so
    /// it fans out; a corridor runs one serial source per worker. The
    /// emitted events are bit-identical either way.
    pub(crate) fn fanned_out(mut self) -> Self {
        self.fan_out = true;
        self
    }

    /// Total decoding frames on the timeline (before drop/duplicate
    /// faults reshape the emitted stream).
    pub fn n_frames(&self) -> usize {
        self.n_last / self.stride + 1
    }

    /// The decode context the source's `PassStart` carries.
    pub(crate) fn context(&self) -> &PassContext {
        &self.ctx_pass
    }

    /// The fault plan realized against this pass's frame timeline.
    pub(crate) fn schedule(&self) -> Option<&FaultSchedule> {
        self.schedule.as_ref()
    }

    /// One frame's clean (noise-free, fault-free) spotlight RSS at time
    /// `t`, true radar position `pos_true`: every echo of the resolved
    /// scene, in scene order, through the radar pattern and the gate
    /// aimed at the tag for this frame.
    fn fast_clean_rss(&self, t: f64, pos_true: Vec3) -> Complex64 {
        let drive = &self.drive;
        let block_amp = drive
            .blockages
            .iter()
            .filter(|b| t >= b.t_start_s && t <= b.t_end_s)
            .map(|b| ros_em::db::db_to_lin(-b.attenuation_db))
            .fold(1.0, f64::min);
        let gate = self.spot.aim(pos_true, drive.tag.mount());
        let mut column = ColumnMemo::default();
        let mut rss = Complex64::ZERO;
        self.scene.for_each(pos_true, self.tx, self.rx, |e| {
            rss += gate.echo_rss(&mut column, e.pos, e.amp, block_amp);
        });
        rss
    }

    /// The realized faults of frame `frame_no` (clean without a plan).
    fn faults(&self, frame_no: usize) -> FrameFaults {
        match &self.schedule {
            Some(sch) => *sch.get(frame_no),
            None => FrameFaults::clean(),
        }
    }

    /// Emits the frames whose events fit in `room` and returns how many
    /// events it pushed. The timeline and tracking advance serially in
    /// frame order; the clean RSS of the planned frames — the per-frame
    /// cost — is mapped over the workers; receiver noise is then drawn
    /// serially in frame order, so the events are bit-identical at any
    /// worker count.
    fn emit_frames(&mut self, room: usize, out: &mut Vec<StreamEvent>) -> usize {
        let mut plan = std::mem::take(&mut self.plan);
        plan.clear();
        // A duplicated frame emits two events; reserve room so a chunk
        // boundary never splits the RNG draw from its emission.
        let mut planned = 0usize;
        while self.i <= self.n_last && room - planned >= 2 {
            let t = self.i.as_f64() / self.rate_hz;
            let truth = self.traj.position_at(t);
            let mut believed = self.tracking.advance(truth);
            let ff = self.faults(self.frame_no + plan.len());
            if let Some(s) = ff.spike {
                believed += Vec3::new(s.dx_m, s.dy_m, 0.0);
            }
            planned += match (ff.dropped, ff.duplicated) {
                (true, _) => 0,
                (false, true) => 2,
                (false, false) => 1,
            };
            plan.push(PlannedFrame { t, truth, believed });
            self.i += self.stride;
        }

        let workers = if self.fan_out { ros_exec::threads() } else { 1 };
        let clean = ros_exec::par_map_with(workers, &plan, |f| self.fast_clean_rss(f.t, f.truth));
        for (f, rss_clean) in plan.iter().zip(clean) {
            let ff = self.faults(self.frame_no);
            let rss = fast_frame_rss(rss_clean, self.frame_no, &mut self.rng, self.sigma, &ff);
            self.frame_no += 1;
            if ff.dropped {
                continue;
            }
            let sample = RssSample {
                radar_pos: f.believed,
                rss,
            };
            out.push(StreamEvent::Frame {
                pass: self.pass,
                sample,
            });
            if ff.duplicated {
                out.push(StreamEvent::Frame {
                    pass: self.pass,
                    sample,
                });
            }
        }
        self.plan = plan;
        planned
    }
}

/// Fast-mode spotlight selectivity parameters, mirrored from the full
/// pipeline: a single-bin DFT at the tag's beat frequency plus a
/// 4-antenna beamformer. Echoes away from the spotlighted
/// range/azimuth are attenuated by the corresponding Dirichlet
/// kernels.
#[derive(Clone, Copy, Debug)]
struct SpotlightModel {
    n_fft: usize,
    n_rx: usize,
    slope: f64,
    fs: f64,
    lambda: f64,
    rx_spacing_m: f64,
}

impl SpotlightModel {
    /// Captures the spotlight parameters of `radar`.
    fn new(radar: &FmcwRadar) -> Self {
        SpotlightModel {
            n_fft: radar.chirp.n_samples,
            n_rx: radar.array.n_rx,
            slope: radar.chirp.slope_hz_per_s,
            fs: radar.chirp.sample_rate_hz,
            lambda: radar.chirp.wavelength_m(),
            rx_spacing_m: radar.array.rx_spacing_m,
        }
    }

    /// The gate of one frame: the radar at `pos` spotlighting
    /// `target`. The pose and the target's range and azimuth sine are
    /// computed here, once per frame.
    fn aim(&self, pos: Vec3, target: Vec3) -> SpotlightGate<'_> {
        let pose = Pose::side_looking(pos);
        SpotlightGate {
            model: self,
            pose,
            target_range_m: pose.range_to(target),
            target_sin_az: pose.azimuth_to(target).sin(),
        }
    }
}

/// A [`SpotlightModel`] aimed for one frame ([`SpotlightModel::aim`]).
struct SpotlightGate<'a> {
    model: &'a SpotlightModel,
    pose: Pose,
    target_range_m: f64,
    target_sin_az: f64,
}

impl SpotlightGate<'_> {
    /// The gated clean RSS of one echo at `pos` with amplitude `amp`,
    /// under blockage attenuation `block_amp`:
    /// `amp · (g·g · |g_range·g_az| · block_amp)`, with `g` the radar
    /// pattern gain. `g` and `g_az` depend only on the echo's azimuth,
    /// so `column` evaluates them once per tag column; `g_range` stays
    /// per echo.
    fn echo_rss(
        &self,
        column: &mut ColumnMemo<(f64, f64)>,
        pos: Vec3,
        amp: Complex64,
        block_amp: f64,
    ) -> Complex64 {
        let (g, g_az) = column.get_or_eval(pos, || self.column_gains(pos));
        let g_range = self.range_gain(pos);
        amp * (g * g * (g_range * g_az).abs() * block_amp)
    }

    /// The azimuth part of the gate for an echo at `pos`: the radar
    /// pattern gain and the azimuth Dirichlet of the beamformer.
    fn column_gains(&self, pos: Vec3) -> (f64, f64) {
        let m = self.model;
        let az = self.pose.azimuth_to(pos);
        let g = ros_radar::frontend::radar_pattern(az);
        let du = az.sin() - self.target_sin_az;
        let g_az = ros_em::special::dirichlet(
            std::f64::consts::TAU * m.rx_spacing_m * du / m.lambda,
            m.n_rx,
        );
        (g, g_az)
    }

    /// The range part of the gate for an echo at `pos`: the range
    /// Dirichlet of the single-bin DFT.
    fn range_gain(&self, pos: Vec3) -> f64 {
        let m = self.model;
        let dr = self.pose.range_to(pos) - self.target_range_m;
        let df = 2.0 * m.slope * dr / ros_em::constants::C;
        ros_em::special::dirichlet(std::f64::consts::TAU * df / m.fs, m.n_fft)
    }

    /// Combined range × azimuth spotlight gate for an echo at `e_pos`,
    /// whose azimuth from the pose is `az` \[rad\]: the per-echo
    /// oracle [`SpotlightGate::echo_rss`] is checked against.
    #[cfg(test)]
    fn gain(&self, e_pos: Vec3, az: f64) -> f64 {
        let m = self.model;
        let dr = self.pose.range_to(e_pos) - self.target_range_m;
        let df = 2.0 * m.slope * dr / ros_em::constants::C;
        let g_range = ros_em::special::dirichlet(std::f64::consts::TAU * df / m.fs, m.n_fft);
        let du = az.sin() - self.target_sin_az;
        let g_az = ros_em::special::dirichlet(
            std::f64::consts::TAU * m.rx_spacing_m * du / m.lambda,
            m.n_rx,
        );
        (g_range * g_az).abs()
    }
}

/// Receiver noise + per-frame signal faults for one fast-mode frame.
/// Noise is drawn for every frame — faulted or not, dropped or not —
/// so the RNG stream stays aligned with the clean run and a zero-rate
/// plan is bit-identical to no plan at all. The draw order (noise,
/// burst, saturation) is fixed: the golden fixtures pin it.
fn fast_frame_rss(
    rss_clean: Complex64,
    i: usize,
    rng: &mut StdRng,
    sigma: f64,
    ff: &FrameFaults,
) -> Complex64 {
    let mut rss = rss_clean + Complex64::new(gauss(rng) * sigma, gauss(rng) * sigma);
    if let Some(b) = &ff.burst {
        let sigma_b = sigma * ros_em::db::db_to_lin(b.excess_db);
        #[expect(clippy::as_conversions, reason = "frame index widens losslessly")]
        let (g_re, g_im) = b.gaussian_pair(i as u64);
        rss += Complex64::new(g_re * sigma_b, g_im * sigma_b);
    }
    if let Some(fs) = ff.saturation {
        rss = Complex64::new(rss.re.clamp(-fs, fs), rss.im.clamp(-fs, fs));
    }
    rss
}

fn gauss<R: Rng>(rng: &mut R) -> f64 {
    let u1: f64 = rng.gen::<f64>().max(1e-300);
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

impl FrameSource for DriveBySource {
    fn next_events(&mut self, max: usize, out: &mut Vec<StreamEvent>) -> bool {
        let max = max.max(MIN_CHUNK_EVENTS);
        let mut emitted = 0usize;
        while emitted < max {
            match self.phase {
                SourcePhase::Start => {
                    out.push(StreamEvent::PassStart {
                        pass: self.pass,
                        ctx: self.ctx_pass,
                    });
                    emitted += 1;
                    self.phase = SourcePhase::Frames;
                }
                SourcePhase::Frames => {
                    if self.i > self.n_last {
                        self.phase = SourcePhase::End;
                        continue;
                    }
                    if max - emitted < MIN_CHUNK_EVENTS {
                        return true;
                    }
                    emitted += self.emit_frames(max - emitted, out);
                }
                SourcePhase::End => {
                    out.push(StreamEvent::PassEnd { pass: self.pass });
                    emitted += 1;
                    self.phase = SourcePhase::Done;
                }
                SourcePhase::Done => return false,
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::SpatialCode;
    use crate::reader::ReaderConfig;
    use crate::tag::Tag;

    fn tag8(bits: &[bool]) -> Tag {
        SpatialCode {
            rows_per_stack: 8,
            ..SpatialCode::paper_4bit()
        }
        .encode(bits)
        .unwrap()
    }

    fn pid() -> PassId {
        PassId {
            radar: 0,
            vehicle: 0,
            tag: 0,
            seq: 0,
        }
    }

    #[test]
    fn reader_bounds_memory_and_recycles() {
        let cfg = ReaderConfig::fast();
        let mut reader = StreamingReader::new(cfg.decoder);
        for round in 0..3u32 {
            let drive = DriveBy::new(tag8(&[true; 4]), 2.0).with_seed(u64::from(round));
            let mut src = DriveBySource::new(
                drive,
                &cfg,
                PassId {
                    seq: round,
                    ..pid()
                },
            );
            let mut events = Vec::new();
            while src.next_events(64, &mut events) {}
            for ev in events.drain(..) {
                reader.ingest(ev);
            }
        }
        assert_eq!(reader.decodes(), 3);
        assert_eq!(reader.buffered(), 0, "all pass buffers returned");
        assert_eq!(reader.peak_open(), 1, "sequential passes never overlap");
    }

    /// An event as bit patterns: kind, then positions and RSS.
    fn event_bits(ev: &StreamEvent) -> Vec<u64> {
        let v = |p: Vec3| [p.x.to_bits(), p.y.to_bits(), p.z.to_bits()];
        match ev {
            StreamEvent::PassStart { ctx, .. } => [&[0][..], &v(ctx.center_est)].concat(),
            StreamEvent::Frame { sample, .. } => [
                &[1][..],
                &v(sample.radar_pos),
                &[sample.rss.re.to_bits(), sample.rss.im.to_bits()],
            ]
            .concat(),
            StreamEvent::PassEnd { .. } => vec![2],
        }
    }

    /// A chunk below 2 events is treated as 2: pulls of 0, 1 and 2
    /// events terminate and emit the whole-pass event sequence bit for
    /// bit, also when frames are duplicated (two events that never
    /// split across chunks) and dropped.
    #[test]
    fn tiny_chunks_terminate_with_identical_events() {
        use ros_fault::{FaultKind, FaultPlan};
        let cfg = ReaderConfig::fast();
        let clean = DriveBy::new(tag8(&[true, false, true, true]), 2.0).with_seed(5);
        let faulted = clean.clone().with_faults(
            FaultPlan::new(9)
                .with(FaultKind::FrameDuplicate, 0.2)
                .with(FaultKind::FrameDrop, 0.1),
        );
        for (name, drive) in [("clean", clean), ("faulted", faulted)] {
            let drain = |chunk: usize| {
                let mut src = DriveBySource::new(drive.clone(), &cfg, pid());
                let max_calls = 4 * src.n_frames() + 8;
                let mut events = Vec::new();
                let mut calls = 0usize;
                while src.next_events(chunk, &mut events) {
                    calls += 1;
                    assert!(calls <= max_calls, "{name}: chunk {chunk} never finishes");
                }
                events.iter().map(event_bits).collect::<Vec<_>>()
            };
            let whole = drain(usize::MAX);
            assert!(
                matches!(whole.first().map(|e| e[0]), Some(0)),
                "{name}: PassStart first"
            );
            assert_eq!(whole.last(), Some(&vec![2]), "{name}: PassEnd last");
            if name == "faulted" {
                assert!(
                    whole.windows(2).any(|w| w[0][0] == 1 && w[0] == w[1]),
                    "{name}: the plan duplicates at least one frame"
                );
            }
            for chunk in [0usize, 1, 2] {
                assert_eq!(drain(chunk), whole, "{name}: chunk {chunk}");
            }
        }
    }

    #[test]
    fn finish_closes_truncated_pass() {
        let cfg = ReaderConfig::fast();
        let drive = DriveBy::new(tag8(&[true; 4]), 2.0);
        let mut src = DriveBySource::new(drive, &cfg, pid());
        let mut reader = StreamingReader::new(cfg.decoder);
        let mut events = Vec::new();
        src.next_events(10, &mut events); // start + a few frames, no end
        for ev in events.drain(..) {
            assert!(reader.ingest(ev).is_none());
        }
        let reads = reader.finish();
        assert_eq!(reads.len(), 1);
        assert_eq!(reads[0].pass, pid());
        assert_eq!(reader.buffered(), 0);
    }

    /// `echoes` through the memoized gate and through the per-echo
    /// oracle (the whole gate evaluated for every echo), both summed in
    /// order: every term and the sum agree bit for bit.
    fn assert_gate_matches_oracle(gate: &SpotlightGate<'_>, echoes: &[(Vec3, Complex64)]) {
        for block_amp in [1.0, 0.25] {
            let mut column = ColumnMemo::default();
            let (mut fast, mut oracle) = (Complex64::ZERO, Complex64::ZERO);
            for (i, &(pos, amp)) in echoes.iter().enumerate() {
                let a = gate.echo_rss(&mut column, pos, amp, block_amp);
                let az = gate.pose.azimuth_to(pos);
                let g = ros_radar::frontend::radar_pattern(az);
                let b = amp * (g * g * gate.gain(pos, az) * block_amp);
                assert_eq!(
                    (a.re.to_bits(), a.im.to_bits()),
                    (b.re.to_bits(), b.im.to_bits()),
                    "echo {i} at {pos:?}: {a:?} vs {b:?}"
                );
                fast += a;
                oracle += b;
            }
            assert_eq!(
                (fast.re.to_bits(), fast.im.to_bits()),
                (oracle.re.to_bits(), oracle.im.to_bits())
            );
        }
    }

    /// Every echo `drive`'s scene sends a radar at `radar_pos`, in scene
    /// order, with the reader's polarizations and with co-polarized
    /// ports (which adds the board echoes).
    fn scene_echoes(drive: &DriveBy, radar_pos: Vec3) -> Vec<(Vec3, Complex64)> {
        let scene = EchoScene::new(drive);
        let native = drive.radar.array.native_pol;
        let (tx, rx) = ros_radar::radar::RadarMode::PolarizationSwitched.polarizations(native);
        let mut echoes = Vec::new();
        for (tx, rx) in [(tx, rx), (native, native)] {
            scene.for_each(radar_pos, tx, rx, |e| echoes.push((e.pos, e.amp)));
        }
        echoes
    }

    #[test]
    fn column_memoized_gate_bit_identical_to_per_echo_oracle() {
        let radar = FmcwRadar::ti_eval();
        let model = SpotlightModel::new(&radar);
        let code = |rows| SpatialCode {
            rows_per_stack: rows,
            ..SpatialCode::paper_4bit()
        };
        let bits = [true, false, true, true];
        let straight8 = DriveBy::new(code(8).encode(&bits).unwrap(), 2.0);
        let straight32 = DriveBy::new(code(32).encode(&bits).unwrap(), 2.0);
        let bowed = DriveBy::new(
            code(32).encode(&bits).unwrap().with_column_bow(0.0004, 3),
            2.0,
        );
        // Two tags side by side, a tripod between them.
        let side_by_side = DriveBy::new(code(8).encode(&bits).unwrap(), 2.0)
            .with_extra_tag(
                code(8)
                    .encode(&[false, true, true, false])
                    .unwrap()
                    .mounted_at(Vec3::new(0.6, 2.0, 1.0)),
            )
            .with_clutter(ros_scene::objects::ClutterObject::new(
                ros_scene::objects::ObjectClass::Tripod,
                Vec3::new(0.3, 2.2, 0.8),
                7,
            ));
        let mut scene_echo_count = 0;
        for drive in [&straight8, &straight32, &bowed, &side_by_side] {
            let target = drive.tag.mount();
            // Along the pass, and behind the tag.
            for radar_pos in [
                Vec3::new(-4.0, 0.0, 1.0),
                Vec3::new(-0.7, 0.0, 1.0),
                Vec3::new(0.0, 0.0, 1.0),
                Vec3::new(1.3, 0.0, 1.0),
                Vec3::new(0.2, 3.5, 1.0),
            ] {
                let echoes = scene_echoes(drive, radar_pos);
                scene_echo_count += echoes.len();
                assert_gate_matches_oracle(&model.aim(radar_pos, target), &echoes);
            }
        }
        assert!(scene_echo_count > 1000, "{scene_echo_count} scene echoes");

        // Hand-built columns: a clutter echo between two rows of one
        // column; the same x at another y; columns one ulp apart in x,
        // then in y; a column at −0 against one at +0.
        let up = |v: f64| f64::from_bits(v.to_bits() + 1);
        let amp = Complex64::from_polar(1e-4, 0.3);
        let at = |x: f64, y: f64, z: f64| (Vec3::new(x, y, z), amp);
        let echoes = [
            at(0.4, 2.0, 0.9),
            at(0.4, 2.0, 1.0),
            at(0.25, 2.6, 0.4),
            at(0.4, 2.0, 1.1),
            at(0.4, 3.0, 1.1),
            at(0.4, 3.0, 1.2),
            at(up(0.4), 3.0, 1.2),
            at(up(0.4), up(3.0), 1.2),
            at(up(0.4), up(3.0), 1.3),
            at(0.0, 2.0, 1.0),
            at(-0.0, 2.0, 1.0),
            at(-0.5, 2.0, 1.0),
            at(-0.5, 2.0, 0.9),
        ];
        let target = Vec3::new(0.0, 2.0, 1.0);
        for radar_pos in [
            Vec3::new(-1.1, 0.0, 1.0),
            Vec3::new(0.0, 0.0, 1.0),
            Vec3::new(0.9, 0.0, 1.0),
            // Behind every echo: the radar pattern is zero.
            Vec3::new(0.1, 4.0, 1.0),
        ] {
            assert_gate_matches_oracle(&model.aim(radar_pos, target), &echoes);
        }
    }

    #[test]
    fn failed_decode_surfaces_error_not_empty_bits() {
        let cfg = ReaderConfig::fast();
        let mut reader = StreamingReader::new(cfg.decoder);
        let ctx = PassContext {
            center_est: Vec3::new(0.0, 2.0, 1.0),
            code: SpatialCode::paper_4bit(),
            tag_axis_yaw: 0.0,
        };
        reader.ingest(StreamEvent::PassStart { pass: pid(), ctx });
        // Two samples: far below any decoder minimum.
        for _ in 0..2 {
            reader.ingest(StreamEvent::Frame {
                pass: pid(),
                sample: RssSample {
                    radar_pos: Vec3::ZERO,
                    rss: ros_em::Complex64::ZERO,
                },
            });
        }
        let read = reader
            .ingest(StreamEvent::PassEnd { pass: pid() })
            .expect("pass closed");
        assert_eq!(read.verdict, PassVerdict::NoTag);
        assert!(read.bits.is_none(), "no flattened empty-bits read");
        assert!(read.error.is_some(), "typed decode error surfaced");
        assert!(read.log_line().contains("verdict=no_tag"));
    }
}
