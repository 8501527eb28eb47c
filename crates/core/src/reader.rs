//! The end-to-end drive-by reader.
//!
//! Ties everything together the way the paper's field experiments do
//! (§6–§7): a vehicle-mounted radar drives past a roadside tag, detects
//! it among clutter, spotlights it every frame, and decodes the bits.
//!
//! Two fidelity levels:
//!
//! * [`ReaderMode::Fast`] — per frame, the spotlight RSS is computed
//!   directly from the scene echoes plus calibrated receiver noise.
//!   Physically equivalent to the full pipeline when the tag is range-
//!   isolated (the spotlight's single-bin DFT rejects everything else),
//!   and ~100× cheaper. Used for parameter sweeps. A fast pass drains
//!   one [`DriveBySource`], so the batch reader and the streaming
//!   service share a single frame loop.
//! * [`ReaderMode::FullPipeline`] — every strided frame is synthesized
//!   at the IF level in both Tx modes; detection runs the §6 point-
//!   cloud → DBSCAN → two-feature flow; decoding spotlights the
//!   *detected* cluster centre. Used for the Fig. 11/13 experiments
//!   and integration tests.

use crate::decode::{decode_into, DecodeResult, DecodeScratch, DecoderConfig, RssSample};
use crate::detector::{pick_tag, score_clusters, DetectorConfig, ScoredCluster};
use crate::stream::{DriveBySource, FrameSource, PassId, StreamEvent};
use crate::tag::{ResolvedTag, Tag};
use rand::rngs::StdRng;
use rand::SeedableRng;
use ros_dsp::window::{Window, WindowTable};
use ros_em::jones::Polarization;
use ros_em::units::cast::AsF64;
use ros_em::{Complex64, Vec3};
use ros_fault::{BurstDraw, CorruptionMode, FaultPlan, FaultSchedule, FrameFaults};
use ros_obs::names;
use ros_radar::echo::{Echo, Pose};
use ros_radar::impairments::saturate_frame;
use ros_radar::pointcloud::{PointCloud, RadarPoint};
use ros_radar::processing::DetectScratch;
use ros_radar::radar::{CaptureScratch, FmcwRadar, RadarMode};
use ros_scene::objects::ClutterObject;
use ros_scene::reflector::{EchoContext, EchoLink, SceneEcho};
use ros_scene::tracking::TrackingError;
use ros_scene::trajectory::{LateralProfile, ManoeuvreTrajectory, Trajectory};
use ros_scene::weather::FogLevel;

/// Simulation fidelity.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ReaderMode {
    /// Direct spotlight-RSS synthesis (fast, for sweeps).
    Fast,
    /// Full IF-level pipeline with detection.
    FullPipeline,
}

/// Reader configuration.
#[derive(Clone, Debug)]
pub struct ReaderConfig {
    /// Fidelity level.
    pub mode: ReaderMode,
    /// Keep every `stride`-th frame of the 1 kHz stream for decoding.
    pub frame_stride: usize,
    /// Keep every `detect_stride`-th *decoding* frame for the detection
    /// point cloud (full pipeline only).
    pub detect_stride: usize,
    /// Decoder settings.
    pub decoder: DecoderConfig,
    /// Detector settings (full pipeline only).
    pub detector: DetectorConfig,
}

impl ReaderConfig {
    /// Fast-mode defaults for parameter sweeps.
    pub fn fast() -> Self {
        ReaderConfig {
            mode: ReaderMode::Fast,
            frame_stride: 4,
            detect_stride: 5,
            decoder: DecoderConfig::default(),
            detector: DetectorConfig::default(),
        }
    }

    /// Full-pipeline defaults.
    pub fn full() -> Self {
        ReaderConfig {
            mode: ReaderMode::FullPipeline,
            ..Self::fast()
        }
    }
}

/// A drive-by scenario.
#[derive(Clone, Debug)]
pub struct DriveBy {
    /// The tag under test (mounted by this builder).
    pub tag: Tag,
    /// Additional tags (multi-tag experiments, Fig. 16a).
    pub extra_tags: Vec<Tag>,
    /// Roadside clutter (full-pipeline scenes, Fig. 11/13).
    pub clutter: Vec<ClutterObject>,
    /// Lateral radar–tag standoff \[m\].
    pub standoff_m: f64,
    /// Vehicle speed \[m/s\].
    pub speed_mps: f64,
    /// Pass half-span along the road \[m\].
    pub half_span_m: f64,
    /// Radar height \[m\] (tag centre height is the tag mount's z).
    pub radar_height_m: f64,
    /// Weather.
    pub fog: FogLevel,
    /// Tracking-error model.
    pub tracking: TrackingError,
    /// Extra interference noise over the thermal floor \[dB\]
    /// (adjacent-radar experiments, Fig. 16b).
    pub interference_db: f64,
    /// RNG seed.
    pub seed: u64,
    /// Radar instance.
    pub radar: FmcwRadar,
    /// Lateral manoeuvre profile of the pass (default: straight).
    pub lateral: LateralProfile,
    /// Two-ray ground-bounce coefficient (`None` = flat-earth off).
    pub ground_coeff: Option<f64>,
    /// Transient blockage events (passing traffic occluding the tag).
    pub blockages: Vec<Blockage>,
    /// Deterministic fault-injection plan (`None` = clean run). The
    /// plan is realized against the pass's frame timeline with
    /// [`FaultPlan::schedule`] — drawn serially, so any plan is
    /// bit-identical at every thread count.
    pub faults: Option<FaultPlan>,
}

/// A transient line-of-sight blockage (§7.3: "detection and decoding
/// of a RoS tag fails when it is fully blocked by another vehicle"):
/// between `t_start_s` and `t_end_s` of the pass, the tag's echoes are
/// attenuated by `attenuation_db` (∞-like values for metal blockage).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Blockage {
    /// Blockage onset \[s\] into the pass.
    pub t_start_s: f64,
    /// Blockage end \[s\].
    pub t_end_s: f64,
    /// Two-way attenuation while blocked \[dB\].
    pub attenuation_db: f64,
}

impl DriveBy {
    /// A standard cart pass: tag mounted at `standoff_m` from the
    /// radar lane at matched height (1 m), vehicle at 2 m/s, ±4 m span.
    pub fn new(tag: Tag, standoff_m: f64) -> Self {
        let mounted = tag.mounted_at(Vec3::new(0.0, standoff_m, 1.0));
        DriveBy {
            tag: mounted,
            extra_tags: Vec::new(),
            clutter: Vec::new(),
            standoff_m,
            speed_mps: 2.0,
            half_span_m: 4.0,
            radar_height_m: 1.0,
            fog: FogLevel::Clear,
            tracking: TrackingError::none(),
            interference_db: 0.0,
            seed: 0xd21e,
            radar: FmcwRadar::ti_eval(),
            lateral: LateralProfile::Straight,
            ground_coeff: None,
            blockages: Vec::new(),
            faults: None,
        }
    }

    /// Adds a transient blockage event.
    pub fn with_blockage(mut self, b: Blockage) -> Self {
        self.blockages.push(b);
        self
    }

    /// Attaches a fault-injection plan.
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Enables the two-ray ground-bounce model.
    pub fn with_ground(mut self, coeff: f64) -> Self {
        self.ground_coeff = Some(coeff);
        self
    }

    /// Sets the lateral manoeuvre profile (lane change, curve).
    pub fn with_lateral(mut self, profile: LateralProfile) -> Self {
        self.lateral = profile;
        self
    }

    /// Sets the vehicle speed \[m/s\].
    pub fn with_speed(mut self, mps: f64) -> Self {
        self.speed_mps = mps;
        self
    }

    /// Sets the radar height \[m\].
    pub fn with_radar_height(mut self, h: f64) -> Self {
        self.radar_height_m = h;
        self
    }

    /// Sets the weather.
    pub fn with_fog(mut self, fog: FogLevel) -> Self {
        self.fog = fog;
        self
    }

    /// Sets the tracking-error model.
    pub fn with_tracking(mut self, t: TrackingError) -> Self {
        self.tracking = t;
        self
    }

    /// Adds a clutter object.
    pub fn with_clutter(mut self, c: ClutterObject) -> Self {
        self.clutter.push(c);
        self
    }

    /// Populates the roadside from a scene preset (clutter placed
    /// relative to this drive-by's standoff).
    pub fn with_scene(mut self, preset: ros_scene::scenario::ScenePreset, seed: u64) -> Self {
        self.clutter.extend(preset.build(self.standoff_m, seed));
        self
    }

    /// Adds a second tag.
    pub fn with_extra_tag(mut self, t: Tag) -> Self {
        self.extra_tags.push(t);
        self
    }

    /// Sets interference noise over the floor \[dB\].
    pub fn with_interference_db(mut self, db: f64) -> Self {
        self.interference_db = db;
        self
    }

    /// Sets the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    pub(crate) fn context(&self) -> EchoContext {
        EchoContext {
            budget: self.radar.budget,
            fog: self.fog,
            ground_coeff: self.ground_coeff,
        }
    }

    /// Runs the scenario.
    ///
    /// Fast mode drains one [`DriveBySource`] pass — the frame loop the
    /// streaming service runs — as a single chunk whose per-frame
    /// spotlight RSS fans out over the `ros_exec` pool (bit-identical
    /// at any thread count), and decodes its frames with the context
    /// the source's `PassStart` carries, through the same call
    /// [`StreamingReader`](crate::stream::StreamingReader) makes.
    pub fn run(&self, cfg: &ReaderConfig) -> Outcome {
        if cfg.mode == ReaderMode::FullPipeline {
            return self.run_full(cfg);
        }
        let _span = ros_obs::span(names::TIME_READER_RUN_FAST);
        let mut source = DriveBySource::new(self.clone(), cfg, BATCH_PASS).fanned_out();
        let mut samples = Vec::with_capacity(source.n_frames());
        // One chunk fits the whole pass (a duplicated frame emits two
        // events, plus PassStart and PassEnd), so its clean-RSS map fans
        // out once per pass.
        let whole_pass = 2 * source.n_frames() + 2;
        let mut events = Vec::with_capacity(source.n_frames() + 2);
        let mut more = true;
        while more {
            more = source.next_events(whole_pass, &mut events);
            for ev in events.drain(..) {
                if let StreamEvent::Frame { sample, .. } = ev {
                    samples.push(sample);
                }
            }
        }

        // Fault counters and per-frame verdicts come from the realized
        // schedule in one serial step, so the frame loop does no
        // bookkeeping. Fast mode has no point cloud to corrupt.
        let frame_verdicts = match source.schedule() {
            Some(sch) => account_faults(sch, source.n_frames(), |_| 0),
            None => Vec::new(),
        };
        ros_obs::count(names::READER_FRAMES, samples.len());
        if ros_obs::detail() {
            for (i, s) in samples.iter().enumerate() {
                let rss_dbm = 10.0 * s.rss.norm_sqr().max(1e-300).log10();
                ros_obs::event_detail(
                    "reader.frame",
                    &[("i", i.into()), ("rss_dbm", rss_dbm.into())],
                );
            }
        }

        let mut decode_scratch = DecodeScratch::new();
        let mut dec = DecodeResult::default();
        let decode_result = source
            .context()
            .decode_into(&samples, &cfg.decoder, &mut decode_scratch, &mut dec)
            .map(|()| dec);
        let mut outcome = Outcome::from_parts(samples, decode_result, None, Vec::new());
        outcome.frame_verdicts = frame_verdicts;
        ros_obs::event(
            "reader.pass",
            &[
                ("mode", "fast".into()),
                ("frames", outcome.rss_trace.len().into()),
                ("decoded", outcome.decode.is_ok().into()),
                ("verdict", outcome.verdict.name().into()),
            ],
        );
        outcome
    }

    /// Ground-truth radar track for this scenario.
    pub fn track(&self, cfg: &ReaderConfig) -> (Vec<f64>, Vec<Vec3>, Vec<Vec3>) {
        let base = Trajectory::drive_by(self.speed_mps, self.half_span_m, self.radar_height_m);
        let traj = ManoeuvreTrajectory::new(base, self.lateral);
        let times = base.frame_times(self.radar.chirp.frame_rate_hz, cfg.frame_stride);
        let truth = traj.positions(&times);
        let believed = self.tracking.apply(&truth);
        (times, truth, believed)
    }

    pub(crate) fn noise_sigma(&self) -> f64 {
        let floor_dbm = self.radar.noise_floor_dbm() + self.interference_db;
        ros_em::db::db_to_lin(floor_dbm) / std::f64::consts::SQRT_2
    }

    /// Realizes the fault plan (if any) against a frame timeline and
    /// displaces the believed track by the scheduled tracking spikes.
    fn fault_schedule(&self, times: &[f64], believed: &mut [Vec3]) -> Option<FaultSchedule> {
        let schedule = self.faults.as_ref().map(|p| p.schedule(times))?;
        ros_scene::tracking::apply_spikes(
            believed,
            schedule
                .spikes()
                .map(|(i, s)| (i, Vec3::new(s.dx_m, s.dy_m, 0.0))),
        );
        Some(schedule)
    }

    fn run_full(&self, cfg: &ReaderConfig) -> Outcome {
        let _span = ros_obs::span(names::TIME_READER_RUN_FULL);
        let (times, truth, mut believed) = self.track(cfg);
        let schedule = self.fault_schedule(&times, &mut believed);
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0xf011);
        let native = RadarMode::Native.polarizations(self.radar.array.native_pol);
        let switched = RadarMode::PolarizationSwitched.polarizations(self.radar.array.native_pol);

        // Capture both Tx modes per decoding frame. Jobs are laid out
        // in the exact order the serial loop would consume the RNG
        // (switched frame `i`, then — every `detect_stride` frames —
        // the matching native frame), so `capture_batch`'s serial
        // RNG pre-draw keeps the stream bit-identical while the IF
        // synthesis itself runs on worker threads.
        let mut jobs: Vec<(Pose, Vec<Echo>)> = Vec::with_capacity(truth.len() * 2);
        {
            let _gather = ros_obs::span(names::TIME_READER_GATHER_ECHOES);
            let scene = EchoScene::new(self);
            for (i, pos_true) in truth.iter().enumerate() {
                let pose_true = Pose::side_looking(*pos_true);
                // An interference burst is one extra strong scatterer in
                // this frame's scene — both Tx modes of the frame see it,
                // exactly as a co-channel radar in the field would.
                let burst = schedule
                    .as_ref()
                    .and_then(|sch| sch.get(i).burst.as_ref())
                    .map(|b| self.burst_echo(&pose_true, b));
                let mut sw_echoes = scene.gather(*pos_true, switched);
                if let Some(e) = &burst {
                    sw_echoes.push(*e);
                }
                jobs.push((pose_true, sw_echoes));
                if i % cfg.detect_stride == 0 {
                    let mut nat_echoes = scene.gather(*pos_true, native);
                    if let Some(e) = &burst {
                        nat_echoes.push(*e);
                    }
                    jobs.push((pose_true, nat_echoes));
                }
            }
        }
        let mut capture_scratch = CaptureScratch::default();
        let mut captured = Vec::new();
        self.radar
            .capture_batch_with(&jobs, &mut rng, &mut capture_scratch, &mut captured);
        let mut frames = captured.into_iter();
        let mut switched_frames = Vec::with_capacity(truth.len());
        let mut native_frames = Vec::new();
        for (i, pos_believed) in believed.iter().enumerate() {
            let Some(frame) = frames.next() else { break };
            switched_frames.push((frame, *pos_believed));
            if i % cfg.detect_stride == 0 {
                let Some(frame_nat) = frames.next() else {
                    break;
                };
                native_frames.push((frame_nat, *pos_believed));
            }
        }

        // ADC saturation clips the captured IF frames in place — both
        // the decode (switched) frame and, where one exists, the paired
        // native frame of the same pass index.
        if let Some(sch) = &schedule {
            for (i, (frame, _)) in switched_frames.iter_mut().enumerate() {
                if let Some(fs) = sch.get(i).saturation {
                    saturate_frame(frame, fs);
                }
            }
            for (j, (frame, _)) in native_frames.iter_mut().enumerate() {
                if let Some(fs) = sch.get(j * cfg.detect_stride).saturation {
                    saturate_frame(frame, fs);
                }
            }
        }

        // Detection cloud from the native-mode frames (detection is a
        // pure per-frame function, so the fan-out changes nothing).
        // One detect arena per worker keeps the FFT plan and every
        // intermediate buffer warm across the frames a worker handles.
        // Dropped frames never reach the cloud; corrupted ones have
        // their returns mangled (NaN/∞/outlier range) *before* DBSCAN,
        // which the hardened clustering must absorb.
        let mut cloud = PointCloud::new();
        let mut corrupted_points = vec![0usize; switched_frames.len()];
        {
            let _detect = ros_obs::span(names::TIME_READER_DETECT);
            let workers = ros_exec::threads().max(1).min(native_frames.len().max(1));
            let mut detect_scratches = vec![DetectScratch::default(); workers];
            let mut detections: Vec<Vec<RadarPoint>> = vec![Vec::new(); native_frames.len()];
            ros_exec::par_for_each_mut(
                &mut detect_scratches,
                &mut detections,
                |scratch, j, pts| {
                    self.radar.detect_with(&native_frames[j].0, scratch, pts);
                },
            );
            for (j, ((_, pos_believed), pts)) in native_frames.iter().zip(&detections).enumerate() {
                let idx = j * cfg.detect_stride;
                let ff = match &schedule {
                    Some(sch) => *sch.get(idx),
                    None => FrameFaults::clean(),
                };
                if ff.dropped {
                    continue;
                }
                let pose = Pose::side_looking(*pos_believed);
                if let Some(c) = &ff.corruption {
                    let mut mangled = pts.clone();
                    for (k, p) in mangled.iter_mut().enumerate() {
                        match c.mode {
                            CorruptionMode::NaN => p.range_m = f64::NAN,
                            CorruptionMode::Inf => {
                                p.range_m = f64::INFINITY;
                                p.power_mw = f64::INFINITY;
                            }
                            #[expect(
                                clippy::as_conversions,
                                reason = "point index widens losslessly"
                            )]
                            CorruptionMode::Outlier { offset_m } => {
                                p.range_m += (2.0 * c.unit(k as u64) - 1.0) * offset_m;
                            }
                        }
                    }
                    if idx < corrupted_points.len() {
                        corrupted_points[idx] = mangled.len();
                    }
                    cloud.add_frame(&mangled, &pose);
                } else {
                    cloud.add_frame(pts, &pose);
                }
            }
        }
        ros_obs::gauge(names::READER_CLOUD_POINTS, cloud.len().as_f64());

        // One serial bookkeeping pass per frame: fault counters and the
        // per-frame verdicts the outcome reports.
        let frame_verdicts = match &schedule {
            Some(sch) => account_faults(sch, switched_frames.len(), |i| corrupted_points[i]),
            None => Vec::new(),
        };

        // Score clusters; the RSS probe spotlights the candidate centre
        // across the pass in both modes, skipping frames where another
        // cluster occupies the same range–azimuth cell (its energy
        // would leak into the spotlight and corrupt the loss feature).
        // Every spotlight in this run shares one precomputed Hann
        // table (all frames have the chirp's sample count).
        let spot_table = WindowTable::new(Window::Hann, self.radar.chirp.n_samples);
        let range_res = self.radar.chirp.range_resolution_m();
        let h = self.radar_height_m;
        let clusters = score_clusters(&cloud, &cfg.detector, |members, center2d, others2d| {
            // Cluster centroids live on the road plane; objects (and
            // the radar) sit at the radar height.
            let center = Vec3::new(center2d.x, center2d.y, h);
            let others: Vec<Vec3> = others2d.iter().map(|o| Vec3::new(o.x, o.y, h)).collect();
            let clear_of_neighbours = |pose_pos: Vec3| -> bool {
                let p = Pose::side_looking(pose_pos);
                let rc = p.range_to(center);
                let uc = p.azimuth_to(center).sin();
                others.iter().all(|o| {
                    let ro = p.range_to(*o);
                    let uo = p.azimuth_to(*o).sin();
                    (rc - ro).abs() > 3.0 * range_res || (uc - uo).abs() > 0.45
                })
            };
            // The loss feature comes from matched per-frame pairs: the
            // native and switched captures at the *same pose* measure
            // the same scatterers through the same spotlight window, so
            // spotlight coverage and geometry bias cancel in the
            // difference. Frames where another cluster shares the
            // range–azimuth cell are skipped.
            let _ = members;
            // Frames with a weak native return would push the switched
            // measurement under the noise floor and clip the loss, so
            // only strong frames contribute to the pair statistics.
            let floor = self.radar.noise_floor_dbm();
            let min_native = floor + 18.0;
            let mut nat = Vec::new();
            let mut losses = Vec::new();
            for (j, (frame_nat, _)) in native_frames.iter().enumerate() {
                if !clear_of_neighbours(frame_nat.pose.pos) {
                    continue;
                }
                let idx = j * cfg.detect_stride;
                // A dropped frame contributes neither half of the pair.
                if let Some(sch) = &schedule {
                    if sch.get(idx).dropped {
                        continue;
                    }
                }
                let Some((frame_sw, _)) = switched_frames.get(idx) else {
                    break;
                };
                let n_dbm = 10.0
                    * self
                        .radar
                        .spotlight_with(frame_nat, center, &spot_table)
                        .norm_sqr()
                        .max(1e-300)
                        .log10();
                if n_dbm < min_native {
                    continue;
                }
                let s_dbm = 10.0
                    * self
                        .radar
                        .spotlight_with(frame_sw, center, &spot_table)
                        .norm_sqr()
                        .max(1e-300)
                        .log10();
                nat.push(n_dbm);
                losses.push(n_dbm - s_dbm);
            }
            let native = ros_dsp::stats::median(&nat);
            let loss = ros_dsp::stats::median(&losses);
            (native, native - loss)
        });

        let picked = pick_tag(&clusters);
        let tag_center = picked.map(|i| {
            let c = &clusters[i].features.center;
            Vec3::new(c.x, c.y, self.radar_height_m)
        });

        // Decode by spotlighting the detected centre (fall back to the
        // true mount if detection failed, flagged in the outcome).
        let spot = tag_center.unwrap_or(self.tag.mount());
        let samples: Vec<RssSample> = {
            let _spotlight = ros_obs::span(names::TIME_READER_SPOTLIGHT);
            let raw = ros_exec::par_map(&switched_frames, |(frame, pos_believed)| RssSample {
                radar_pos: *pos_believed,
                rss: self.radar.spotlight_with(frame, spot, &spot_table),
            });
            apply_stream_faults(raw, schedule.as_ref())
        };
        ros_obs::count(names::READER_FRAMES, samples.len());

        // One decode arena for the pass: the main decode and every
        // per-cluster decode share the same plans and buffers.
        let mut decode_scratch = DecodeScratch::new();
        let mut dec = DecodeResult::default();
        let decode_result = decode_into(
            &samples,
            spot,
            0.0,
            self.tag.code(),
            &cfg.decoder,
            &mut decode_scratch,
            &mut dec,
        )
        .map(|()| dec.clone());

        // Decode every tag-classified cluster independently (multi-tag
        // advertising boards, §5.3). The picked cluster's trace and
        // decode are the ones above, so it takes their result as is.
        let mut all_tags = Vec::new();
        for (i, c) in clusters.iter().enumerate().filter(|(_, c)| c.is_tag) {
            let center = Vec3::new(
                c.features.center.x,
                c.features.center.y,
                self.radar_height_m,
            );
            if Some(i) == picked {
                if let Ok(decode) = &decode_result {
                    all_tags.push(DecodedTag {
                        center,
                        decode: decode.clone(),
                    });
                }
                continue;
            }
            let trace: Vec<RssSample> = switched_frames
                .iter()
                .map(|(frame, pos_believed)| RssSample {
                    radar_pos: *pos_believed,
                    rss: self.radar.spotlight_with(frame, center, &spot_table),
                })
                .collect();
            let trace = apply_stream_faults(trace, schedule.as_ref());
            if decode_into(
                &trace,
                center,
                0.0,
                self.tag.code(),
                &cfg.decoder,
                &mut decode_scratch,
                &mut dec,
            )
            .is_ok()
            {
                all_tags.push(DecodedTag {
                    center,
                    decode: dec.clone(),
                });
            }
        }

        let mut outcome = Outcome::from_parts(samples, decode_result, tag_center, clusters);
        outcome.all_tags = all_tags;
        outcome.frame_verdicts = frame_verdicts;
        // Detection failure is a degraded pass even when the true-mount
        // fallback happened to decode: the reader would not have known
        // where to point in the field.
        if outcome.detected_center.is_none() {
            outcome.verdict = PassVerdict::NoTag;
        }
        ros_obs::event(
            "reader.pass",
            &[
                ("mode", "full".into()),
                ("frames", outcome.rss_trace.len().into()),
                ("clusters", outcome.clusters.len().into()),
                ("detected", outcome.detected_center.is_some().into()),
                ("decoded", outcome.decode.is_ok().into()),
                ("verdict", outcome.verdict.name().into()),
            ],
        );
        outcome
    }

    /// Materializes one frame's interference burst as an extra echo:
    /// a strong scatterer at a burst-drawn range/azimuth whose
    /// per-sample amplitude sits `excess_db` above the thermal floor.
    fn burst_echo(&self, pose: &Pose, b: &BurstDraw) -> Echo {
        let range = 1.0 + 5.0 * b.unit(0);
        let az = (b.unit(1) - 0.5) * 1.4;
        let pos = pose.pos + Vec3::new(range * az.sin(), range * az.cos(), 0.0);
        let amp = ros_em::db::db_to_lin(self.radar.noise_floor_dbm() + b.excess_db);
        let phase = std::f64::consts::TAU * b.unit(2);
        Echo::new(pos, Complex64::from_polar(amp, phase))
    }
}

/// The echo sources of one pass, resolved once: the echo context with
/// its range-independent radar-equation terms ([`EchoLink`]), every
/// tag's radar-independent rows ([`ResolvedTag`]) and the clutter.
/// Both frame loops export it per frame, in the order the echoes have
/// always accumulated: the tag (its rows, then its board echoes when
/// `tx == rx`), each extra tag the same way, then the clutter through
/// [`ClutterObject::for_each_echo`].
pub(crate) struct EchoScene {
    link: EchoLink,
    tags: Vec<ResolvedTag>,
    clutter: Vec<ClutterObject>,
    /// The most echoes one radar position receives, plus one for an
    /// interference burst: the capacity [`EchoScene::gather`] reserves.
    pub(crate) max_echoes: usize,
}

impl EchoScene {
    /// Resolves `drive`'s tags at the radar's carrier frequency.
    pub(crate) fn new(drive: &DriveBy) -> Self {
        let ctx = drive.context();
        let freq_hz = ctx.budget.freq_hz;
        let tags: Vec<ResolvedTag> = std::iter::once(&drive.tag)
            .chain(&drive.extra_tags)
            .map(|t| t.resolved_at(freq_hz))
            .collect();
        let clutter = drive.clutter.clone();
        let max_echoes = tags.iter().map(ResolvedTag::max_echoes).sum::<usize>()
            + clutter
                .iter()
                .map(|c| c.class().n_scatterers())
                .sum::<usize>()
            + 1;
        EchoScene {
            link: EchoLink::new(ctx),
            tags,
            clutter,
            max_echoes,
        }
    }

    /// Calls `each` for every echo a radar at `radar_pos` receives
    /// with polarizations `tx`/`rx`, in scene order.
    pub(crate) fn for_each(
        &self,
        radar_pos: Vec3,
        tx: Polarization,
        rx: Polarization,
        mut each: impl FnMut(SceneEcho),
    ) {
        for tag in &self.tags {
            tag.echoes(radar_pos, tx, rx, &self.link, &mut each);
        }
        for c in &self.clutter {
            c.for_each_echo(radar_pos, tx, rx, &self.link, &mut each);
        }
    }

    /// Every echo for a radar at `radar_pos`, in scene order — one
    /// IF-synthesis job's echo list. The list is sized once for the
    /// scene's most echoes and a burst, so it never grows.
    fn gather(&self, radar_pos: Vec3, (tx, rx): (Polarization, Polarization)) -> Vec<Echo> {
        let mut echoes = Vec::with_capacity(self.max_echoes);
        self.for_each(radar_pos, tx, rx, |e| echoes.push(Echo::new(e.pos, e.amp)));
        echoes
    }
}

/// Placeholder identity of the one pass a fast [`DriveBy::run`] drains.
const BATCH_PASS: PassId = PassId {
    radar: 0,
    vehicle: 0,
    tag: 0,
    seq: 0,
};

/// Emits the `fault.*` counters and `reader.frames_degraded` for the
/// first `n_frames` frames of a realized schedule and returns their
/// per-frame verdicts. `corrupted_points(i)` is the number of point
/// returns mangled in frame `i`. Serial, so the exported totals are
/// thread-count invariant.
fn account_faults(
    schedule: &FaultSchedule,
    n_frames: usize,
    corrupted_points: impl Fn(usize) -> usize,
) -> Vec<FrameVerdict> {
    let mut degraded = 0usize;
    let verdicts = (0..n_frames)
        .map(|i| {
            let ff = schedule.get(i);
            let cp = corrupted_points(i);
            if !ff.is_clean() {
                degraded += 1;
                ff.record(cp);
            }
            FrameVerdict::from_faults(i, ff, cp)
        })
        .collect();
    if degraded > 0 {
        ros_obs::count(names::READER_FRAMES_DEGRADED, degraded);
    }
    verdicts
}

/// Applies frame-stream faults to a per-frame spotlight trace:
/// dropped frames vanish, duplicated ones appear twice. With no
/// schedule the trace passes through untouched.
fn apply_stream_faults(raw: Vec<RssSample>, schedule: Option<&FaultSchedule>) -> Vec<RssSample> {
    let Some(sch) = schedule else {
        return raw;
    };
    let mut out = Vec::with_capacity(raw.len());
    for (i, s) in raw.into_iter().enumerate() {
        let ff = sch.get(i);
        if ff.dropped {
            continue;
        }
        out.push(s);
        if ff.duplicated {
            out.push(s);
        }
    }
    out
}

/// Typed degradation verdict for one drive-by pass: the reader never
/// panics or leaks NaN under faults — it reports one of these.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PassVerdict {
    /// Full decode, every slot trusted.
    Clean,
    /// Bits were produced but some slot amplitudes sat inside the
    /// erasure dead-zone around the decision threshold — resolved
    /// count and erased slot indices attached.
    PartialDecode {
        /// Slots decoded outside the erasure band.
        bits_resolved: usize,
        /// Slot indices flagged as erasures.
        erasures: Vec<usize>,
    },
    /// No tag: detection failed or decoding returned a typed error.
    NoTag,
}

impl PassVerdict {
    /// Derives the pass verdict from a decode outcome — the single
    /// source of truth for degradation classification (the [`Outcome`]
    /// constructor and the streaming reader both go through here).
    ///
    /// Erasure indices are sanitized at this boundary: sorted, deduped,
    /// and bounds-checked against the bit count. Under composite fault
    /// storms an upstream producer can hand over aliased or
    /// out-of-range indices, and the historical
    /// `bits.len() - erasures.len()` arithmetic then over-counted the
    /// erased slots (under-counting `bits_resolved`, even below zero
    /// but for the saturating clamp). After sanitizing, the
    /// subtraction is exact.
    pub fn from_decode(decode: Result<&DecodeResult, &crate::decode::DecodeError>) -> Self {
        let Ok(d) = decode else {
            return PassVerdict::NoTag;
        };
        let mut erasures: Vec<usize> = d
            .erasures
            .iter()
            .copied()
            .filter(|&i| i < d.bits.len())
            .collect();
        erasures.sort_unstable();
        erasures.dedup();
        if erasures.is_empty() {
            PassVerdict::Clean
        } else {
            PassVerdict::PartialDecode {
                bits_resolved: d.bits.len() - erasures.len(),
                erasures,
            }
        }
    }

    /// Stable lowercase label (observability payloads, bench CSV).
    pub fn name(&self) -> &'static str {
        match self {
            PassVerdict::Clean => "clean",
            PassVerdict::PartialDecode { .. } => "partial_decode",
            PassVerdict::NoTag => "no_tag",
        }
    }

    /// Anything other than a clean full decode.
    pub fn is_degraded(&self) -> bool {
        !matches!(self, PassVerdict::Clean)
    }
}

/// Per-frame fault exposure of one pass (populated only when a fault
/// plan was attached; indexed by decoding-frame number).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FrameVerdict {
    /// Decoding-frame index.
    pub index: usize,
    /// Frame was dropped from the decode stream.
    pub dropped: bool,
    /// Frame was duplicated in the decode stream.
    pub duplicated: bool,
    /// Frame's ADC output was clipped.
    pub saturated: bool,
    /// Frame carried an interference burst.
    pub jammed: bool,
    /// Point-cloud returns corrupted in this frame (full pipeline).
    pub corrupted_points: usize,
    /// Believed track displaced by a tracking spike.
    pub tracking_spiked: bool,
}

impl FrameVerdict {
    fn from_faults(index: usize, ff: &FrameFaults, corrupted_points: usize) -> Self {
        FrameVerdict {
            index,
            dropped: ff.dropped,
            duplicated: ff.duplicated,
            saturated: ff.saturation.is_some(),
            jammed: ff.burst.is_some(),
            corrupted_points,
            tracking_spiked: ff.spike.is_some(),
        }
    }

    /// True when this frame was touched by any fault.
    pub fn is_degraded(&self) -> bool {
        self.dropped
            || self.duplicated
            || self.saturated
            || self.jammed
            || self.corrupted_points > 0
            || self.tracking_spiked
    }
}

/// One decoded tag in a multi-tag scene.
#[derive(Clone, Debug)]
pub struct DecodedTag {
    /// Detected tag centre \[m\].
    pub center: Vec3,
    /// Decode result for this tag.
    pub decode: DecodeResult,
}

/// Result of a drive-by.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// Decode outcome: full diagnostics on success, the typed decode
    /// error otherwise. A failed decode is *not* an empty read — the
    /// error is preserved here and [`Outcome::verdict`] reports
    /// [`PassVerdict::NoTag`].
    pub decode: Result<DecodeResult, crate::decode::DecodeError>,
    /// The detected tag centre (full pipeline; `None` in fast mode or
    /// when detection failed).
    pub detected_center: Option<Vec3>,
    /// All scored clusters (full pipeline).
    pub clusters: Vec<ScoredCluster>,
    /// The spotlight RSS trace used for decoding.
    pub rss_trace: Vec<RssSample>,
    /// Every tag-classified cluster decoded independently (full
    /// pipeline only; advertising-board scenes).
    pub all_tags: Vec<DecodedTag>,
    /// Typed degradation verdict of the pass.
    pub verdict: PassVerdict,
    /// Per-frame fault exposure (empty unless a fault plan was set).
    pub frame_verdicts: Vec<FrameVerdict>,
}

impl Outcome {
    fn from_parts(
        rss_trace: Vec<RssSample>,
        decode: Result<DecodeResult, crate::decode::DecodeError>,
        detected_center: Option<Vec3>,
        clusters: Vec<ScoredCluster>,
    ) -> Self {
        let verdict = PassVerdict::from_decode(decode.as_ref());
        Outcome {
            decode,
            detected_center,
            clusters,
            rss_trace,
            all_tags: Vec::new(),
            verdict,
            frame_verdicts: Vec::new(),
        }
    }

    /// The decoded bits, or `None` when decoding failed. Check
    /// [`Outcome::verdict`] to distinguish a trustworthy read from a
    /// partial one.
    pub fn decoded_bits(&self) -> Option<&[bool]> {
        self.decode.as_ref().ok().map(|d| d.bits.as_slice())
    }

    /// Lossy convenience view of the decoded bits: an empty slice when
    /// decoding failed. A legitimately empty read and a failed decode
    /// look identical here — [`Outcome::verdict`] (and
    /// [`Outcome::decoded_bits`]) are the source of truth; this exists
    /// for assertions and plotting where the distinction is irrelevant.
    pub fn bits(&self) -> &[bool] {
        self.decoded_bits().unwrap_or(&[])
    }

    /// Decoding SNR \[dB\], `None` when decoding failed.
    pub fn snr_db(&self) -> Option<f64> {
        self.decode.as_ref().ok().map(|d| d.snr_db())
    }

    /// Median spotlight RSS across the middle half of the pass \[dBm\].
    pub fn median_rss_dbm(&self) -> f64 {
        let n = self.rss_trace.len();
        if n == 0 {
            return f64::NEG_INFINITY;
        }
        let mid: Vec<f64> = self.rss_trace[n / 4..(3 * n / 4).max(n / 4 + 1)]
            .iter()
            .map(|s| 10.0 * s.rss.norm_sqr().max(1e-300).log10())
            .collect();
        ros_dsp::stats::median(&mid)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::SpatialCode;

    fn tag8(bits: &[bool]) -> Tag {
        SpatialCode {
            rows_per_stack: 8,
            ..SpatialCode::paper_4bit()
        }
        .encode(bits)
        .unwrap()
    }

    #[test]
    fn fast_mode_decodes_all_ones() {
        let outcome = DriveBy::new(tag8(&[true; 4]), 2.0).run(&ReaderConfig::fast());
        assert_eq!(outcome.bits(), vec![true; 4]);
        assert!(outcome.snr_db().unwrap() > 10.0);
    }

    #[test]
    fn fast_mode_decodes_mixed_bits() {
        for bits in [[true, false, true, true], [false, true, true, false]] {
            let outcome = DriveBy::new(tag8(&bits), 2.0)
                .with_seed(7)
                .run(&ReaderConfig::fast());
            assert_eq!(outcome.bits(), &bits);
        }
    }

    #[test]
    fn rss_decreases_with_standoff() {
        let near = DriveBy::new(tag8(&[true; 4]), 2.0).run(&ReaderConfig::fast());
        let far = DriveBy::new(tag8(&[true; 4]), 4.0).run(&ReaderConfig::fast());
        assert!(
            near.median_rss_dbm() > far.median_rss_dbm() + 5.0,
            "near {} far {}",
            near.median_rss_dbm(),
            far.median_rss_dbm()
        );
    }

    #[test]
    fn tracking_error_degrades_snr() {
        let clean = DriveBy::new(tag8(&[true; 4]), 2.0).run(&ReaderConfig::fast());
        let drifty = DriveBy::new(tag8(&[true; 4]), 2.0)
            .with_tracking(TrackingError::drift(0.10))
            .run(&ReaderConfig::fast());
        let s_clean = clean.snr_db().unwrap();
        let s_drift = drifty.snr_db().unwrap_or(0.0);
        assert!(
            s_clean > s_drift,
            "clean {s_clean} dB vs 10% drift {s_drift} dB"
        );
    }

    #[test]
    fn interference_raises_floor_and_lowers_snr() {
        let quiet = DriveBy::new(tag8(&[true; 4]), 2.0).run(&ReaderConfig::fast());
        let noisy = DriveBy::new(tag8(&[true; 4]), 2.0)
            .with_interference_db(15.0)
            .run(&ReaderConfig::fast());
        assert!(quiet.snr_db().unwrap() > noisy.snr_db().unwrap_or(0.0));
    }
}
