//! The traced run: per-layer numbers, timed from this file around calls
//! into each layer's public functions (the library crates carry no
//! spans for this). It is a separate process from the timed runs, so
//! its timer calls never touch an end-to-end figure.
//!
//! Every traced run replays every layer, whichever workload it is
//! given, so each one reports the whole per-layer catalogue of
//! `BENCHMARK.json`. A round replays, on operation `i`'s inputs:
//!
//! * `full_pass`: `DriveBy::run` with telemetry `Off` and under
//!   `Level::Summary`, in alternating order, then the same pass stage by
//!   stage;
//! * `corridor`: one radar's shard through `source_for_with` →
//!   `next_events` → `StreamingReader::ingest` on this thread, its
//!   events once more through a bounded channel, then a full corridor
//!   run for the service's counters;
//! * `tag_design`: the shaping search in a fresh cache, a miss and the
//!   hits of an encode round, and the flat-top objective alone.
//!
//! Rounds repeat for the window; each metric is the median over rounds.

use crate::corridor::{report_ok, Corridor};
use crate::full_pass::FullPass;
use crate::harness::{control_ms, Record, Scale, Workload};
use crate::stats::{median, Fnv};
use crate::tag_design::{word, TagDesign};
use rand::rngs::StdRng;
use rand::SeedableRng;
use ros_antenna::shaping::{flat_top_objective, standard_profile_in};
use ros_cache::GeomCache;
use ros_core::decode::{decode_into, DecodeResult, DecodeScratch, RssSample};
use ros_core::reader::{DriveBy, ReaderConfig};
use ros_core::stream::{FrameSource, StreamEvent, StreamingReader};
use ros_dsp::dbscan::{dbscan, summarize_clusters, Label};
use ros_dsp::window::{Window, WindowTable};
use ros_em::jones::Polarization;
use ros_em::{Complex64, Vec3};
use ros_exec::ThreadGuard;
use ros_radar::echo::{Echo, Pose};
use ros_radar::frontend::Frame;
use ros_radar::pointcloud::PointCloud;
use ros_radar::processing::DetectScratch;
use ros_radar::radar::{CaptureScratch, RadarMode};
use ros_scene::reflector::{EchoContext, Reflector};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Per-round samples, keyed by metric name.
#[derive(Default)]
struct Samples(BTreeMap<&'static str, Vec<f64>>);

impl Samples {
    fn add(&mut self, name: &'static str, v: f64) {
        self.0.entry(name).or_default().push(v);
    }

    /// This round's sample of `name`.
    fn last(&self, name: &str) -> f64 {
        self.0
            .get(name)
            .and_then(|v| v.last())
            .copied()
            .unwrap_or(f64::NAN)
    }
}

/// The full-pass stages, in pipeline order, as metric names.
const STAGES: [&str; 7] = [
    "ros-scene.gather_ms",
    "ros-radar.capture_ms",
    "ros-radar.detect_ms",
    "ros-dsp.dbscan_ms",
    "core.score_self_ms",
    "ros-radar.spotlight_ms",
    "core.decode_ms",
];

/// Replays one `DriveBy::run` in full-pipeline mode stage by stage, the
/// way the reader runs it on one thread with no fault plan, and records
/// each stage's time and work. Returns whether the replay detected the
/// tag and decoded `word`.
fn replay_full_pass(drive: &DriveBy, cfg: &ReaderConfig, word: [bool; 4], s: &mut Samples) -> bool {
    let radar = &drive.radar;
    let (_, truth, believed) = drive.track(cfg);
    let ctx = EchoContext {
        budget: radar.budget,
        fog: drive.fog,
        ground_coeff: drive.ground_coeff,
    };
    let mut reflectors: Vec<&dyn Reflector> = vec![&drive.tag];
    reflectors.extend(drive.extra_tags.iter().map(|t| t as &dyn Reflector));
    reflectors.extend(drive.clutter.iter().map(|c| c as &dyn Reflector));
    let gather = |pos: Vec3, (tx, rx): (Polarization, Polarization)| -> Vec<Echo> {
        reflectors
            .iter()
            .flat_map(|r| r.echoes(pos, tx, rx, &ctx))
            .map(|e| Echo::new(e.pos, e.amp))
            .collect()
    };
    let native = RadarMode::Native.polarizations(radar.array.native_pol);
    let switched = RadarMode::PolarizationSwitched.polarizations(radar.array.native_pol);

    // Echo gather: both Tx modes every `detect_stride` frames, the
    // switched mode on the others.
    let t = Instant::now();
    let mut jobs = Vec::with_capacity(2 * truth.len());
    for (i, &pos) in truth.iter().enumerate() {
        let pose = Pose::side_looking(pos);
        jobs.push((pose, gather(pos, switched)));
        if i % cfg.detect_stride == 0 {
            jobs.push((pose, gather(pos, native)));
        }
    }
    s.add("ros-scene.gather_ms", ms(t));
    let echoes: usize = jobs.iter().map(|(_, e)| e.len()).sum();
    s.add(
        "ros-scene.echoes_per_frame",
        echoes as f64 / jobs.len() as f64,
    );

    // IF synthesis, with the reader's noise seed.
    let t = Instant::now();
    let mut rng = StdRng::seed_from_u64(drive.seed ^ 0xf011);
    let mut frames = Vec::new();
    radar.capture_batch_with(&jobs, &mut rng, &mut CaptureScratch::default(), &mut frames);
    let capture = ms(t);
    s.add("ros-radar.capture_ms", capture);
    s.add(
        "ros-radar.capture_us_per_frame",
        capture * 1e3 / frames.len() as f64,
    );
    s.add("ros-radar.frames_synthesized", frames.len() as f64);
    let mut switched_frames: Vec<(Frame, Vec3)> = Vec::with_capacity(believed.len());
    let mut native_frames: Vec<(Frame, Vec3)> = Vec::new();
    let mut it = frames.into_iter();
    for (i, &pos) in believed.iter().enumerate() {
        let Some(f) = it.next() else { break };
        switched_frames.push((f, pos));
        if i % cfg.detect_stride == 0 {
            let Some(f) = it.next() else { break };
            native_frames.push((f, pos));
        }
    }

    // Range FFT + CFAR + AoA on the native frames, merged into one
    // world-frame cloud at the believed poses.
    let t = Instant::now();
    let mut scratch = DetectScratch::default();
    let mut points = Vec::new();
    let mut cloud = PointCloud::new();
    for (f, pos) in &native_frames {
        radar.detect_with(f, &mut scratch, &mut points);
        cloud.add_frame(&points, &Pose::side_looking(*pos));
    }
    s.add("ros-radar.detect_ms", ms(t));
    s.add(
        "ros-radar.points_per_frame",
        cloud.len() as f64 / native_frames.len() as f64,
    );
    s.add("ros-dsp.cloud_points", cloud.len() as f64);

    let t = Instant::now();
    let xy = cloud.xy();
    let (labels, _) = dbscan(&xy, &cfg.detector.dbscan);
    let summaries: Vec<_> = summarize_clusters(&xy, &labels)
        .into_iter()
        .filter(|c| c.count >= cfg.detector.min_points)
        .collect();
    s.add("ros-dsp.dbscan_ms", ms(t));

    // Two-feature discrimination. The polarization-loss probe is the
    // reader's: matched native/switched spotlights on the cluster
    // centre, skipping frames another cluster shares a cell with and
    // frames with a weak native return. Probe time is spotlight time.
    let table = WindowTable::new(Window::Hann, radar.chirp.n_samples);
    let mut spotlight_calls = 0usize;
    let mut spot = |f: &Frame, at: Vec3| {
        spotlight_calls += 1;
        radar.spotlight_with(f, at, &table)
    };
    let h = drive.radar_height_m;
    let range_res = radar.chirp.range_resolution_m();
    let min_native = radar.noise_floor_dbm() + 18.0;
    let dbm = |x: Complex64| 10.0 * x.norm_sqr().max(1e-300).log10();
    let t = Instant::now();
    let mut probe_ms = 0.0;
    let mut scored = Vec::new();
    for (k, c) in summaries.iter().enumerate() {
        let members: Vec<usize> = (0..labels.len())
            .filter(|&i| labels[i] == Label::Cluster(c.id))
            .collect();
        black_box(members);
        let center = Vec3::new(c.cx, c.cy, h);
        let others: Vec<Vec3> = summaries
            .iter()
            .enumerate()
            .filter(|&(j, _)| j != k)
            .map(|(_, o)| Vec3::new(o.cx, o.cy, h))
            .collect();
        let clear = |pos: Vec3| {
            let p = Pose::side_looking(pos);
            let (rc, uc) = (p.range_to(center), p.azimuth_to(center).sin());
            others.iter().all(|&o| {
                (rc - p.range_to(o)).abs() > 3.0 * range_res
                    || (uc - p.azimuth_to(o).sin()).abs() > 0.45
            })
        };
        let tp = Instant::now();
        let mut losses = Vec::new();
        for (j, (f_nat, _)) in native_frames.iter().enumerate() {
            if !clear(f_nat.pose.pos) {
                continue;
            }
            let Some((f_sw, _)) = switched_frames.get(j * cfg.detect_stride) else {
                break;
            };
            let n_dbm = dbm(spot(f_nat, center));
            if n_dbm < min_native {
                continue;
            }
            losses.push(n_dbm - dbm(spot(f_sw, center)));
        }
        let loss = ros_dsp::stats::median(&losses);
        probe_ms += ms(tp);
        let area = std::f64::consts::PI * c.rms_radius * c.rms_radius;
        let is_tag = area <= cfg.detector.max_tag_area_m2 && loss <= cfg.detector.max_rss_loss_db;
        scored.push((center, loss, is_tag));
    }
    let tag = scored
        .iter()
        .filter(|c| c.2)
        .min_by(|a, b| a.1.total_cmp(&b.1))
        .map(|c| c.0);
    s.add("core.score_self_ms", ms(t) - probe_ms);
    s.add("core.clusters_scored", scored.len() as f64);
    let n_tags = scored.iter().filter(|c| c.2).count();
    s.add("core.tag_ratio", n_tags as f64 / scored.len().max(1) as f64);

    // Spotlight every decoding frame on the detected centre and decode;
    // the reader then decodes each tag-classified cluster on its own.
    let centers = std::iter::once(tag.unwrap_or(drive.tag.mount()))
        .chain(scored.iter().filter(|c| c.2).map(|c| c.0));
    let (mut spot_ms, mut decode_ms) = (probe_ms, 0.0);
    let mut scratch = DecodeScratch::new();
    let mut dec = DecodeResult::default();
    let mut decoded = None;
    for (k, center) in centers.enumerate() {
        let t = Instant::now();
        let trace: Vec<RssSample> = switched_frames
            .iter()
            .map(|(f, pos)| RssSample {
                radar_pos: *pos,
                rss: spot(f, center),
            })
            .collect();
        spot_ms += ms(t);
        let t = Instant::now();
        let r = decode_into(
            &trace,
            center,
            0.0,
            drive.tag.code(),
            &cfg.decoder,
            &mut scratch,
            &mut dec,
        );
        decode_ms += ms(t);
        if k == 0 {
            decoded = r.ok().map(|()| dec.bits.clone());
        }
    }
    s.add("ros-radar.spotlight_ms", spot_ms);
    s.add("ros-radar.spotlight_calls", spotlight_calls as f64);
    s.add("core.decode_ms", decode_ms);
    let ok = tag.is_some() && decoded.as_deref() == Some(&word[..]);
    s.add("core.decode_ok_ratio", f64::from(u8::from(ok)));
    ok
}

/// Streams radar 0's passes of operation `i`'s corridor on this thread,
/// timing the source, the producer and the consumer separately, then
/// pushes the same events through a bounded channel between two
/// threads. Returns whether every pass got its read.
fn replay_corridor_shard(c: &Corridor, i: u64, s: &mut Samples) -> bool {
    let cfg = c.config(i);
    let encounters: Vec<_> = cfg
        .encounters()
        .into_iter()
        .filter(|e| e.pass.radar == 0)
        .collect();
    let mut reader = StreamingReader::new(cfg.reader.decoder);
    let mut buf = Vec::with_capacity(cfg.chunk_frames);
    let mut events = Vec::new();
    let (mut new_ms, mut produce_ms, mut ingest_ms, mut close_ms) = (0.0, 0.0, 0.0, 0.0);
    let mut frames = 0usize;
    let mut reads = Vec::new();
    for e in &encounters {
        let t = Instant::now();
        let mut src = cfg.source_for_with(e, &c.cache);
        new_ms += ms(t);
        loop {
            buf.clear();
            let t = Instant::now();
            let more = src.next_events(cfg.chunk_frames, &mut buf);
            produce_ms += ms(t);
            let t = Instant::now();
            let mut closing = 0.0;
            for &ev in &buf {
                match ev {
                    StreamEvent::PassEnd { .. } => {
                        let tc = Instant::now();
                        reads.extend(reader.ingest(ev));
                        closing += ms(tc);
                    }
                    StreamEvent::Frame { .. } => {
                        frames += 1;
                        reader.ingest(ev);
                    }
                    StreamEvent::PassStart { .. } => {
                        reader.ingest(ev);
                    }
                }
            }
            ingest_ms += ms(t) - closing;
            close_ms += closing;
            events.extend_from_slice(&buf);
            if !more {
                break;
            }
        }
    }
    let passes = encounters.len().max(1) as f64;
    let frames_f = frames.max(1) as f64;
    s.add("core.stream_source_new_ms", new_ms / passes);
    s.add(
        "core.stream_produce_us_per_frame",
        produce_ms * 1e3 / frames_f,
    );
    s.add(
        "core.stream_ingest_ns_per_frame",
        ingest_ms * 1e6 / frames_f,
    );
    s.add("core.stream_close_ms", close_ms / passes);
    s.add(
        "ros-serve.produce_share",
        produce_ms / (new_ms + produce_ms + ingest_ms + close_ms),
    );

    let t = Instant::now();
    let received = ros_exec::scope(|sc| {
        let (tx, rx) = ros_exec::channel::bounded::<StreamEvent>(cfg.channel_capacity);
        let events = &events;
        sc.spawn(move || {
            for &ev in events {
                if tx.send(ev).is_err() {
                    break;
                }
            }
        });
        let mut n = 0usize;
        while rx.recv().is_some() {
            n += 1;
        }
        n
    });
    s.add(
        "ros-exec.channel_ns_per_event",
        ms(t) * 1e6 / events.len().max(1) as f64,
    );

    received == events.len()
        && reads
            .iter()
            .map(|r| r.pass)
            .eq(encounters.iter().map(|e| e.pass))
}

/// Times the design search and the cache's miss and hit paths on
/// operation `i`'s word order.
fn replay_tag_design(td: &TagDesign, i: u64, s: &mut Samples) -> bool {
    let rows = td.code.rows_per_stack;
    let t = Instant::now();
    black_box(standard_profile_in(&GeomCache::new(), rows));
    s.add("ros-antenna.shaping_ms", ms(t));

    let cache = GeomCache::new();
    let order = td.order(i);
    let t = Instant::now();
    let first = td.code.encode_with(&cache, &word(order[0]));
    s.add("ros-cache.build_ms", ms(t));
    let t = Instant::now();
    let rest: Vec<_> = order[1..]
        .iter()
        .map(|&w| td.code.encode_with(&cache, &word(w)))
        .collect();
    s.add("ros-cache.hit_us", ms(t) * 1e3 / rest.len() as f64);

    // The DE search's cost function alone, on seeded half-profiles.
    let half = rows / 2 + rows % 2;
    let mut x = i.wrapping_add(1);
    let mut costs = 0.0;
    let calls = 200;
    let t = Instant::now();
    for _ in 0..calls {
        let v: Vec<f64> = (0..half)
            .map(|_| {
                x = x
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                (x >> 11) as f64 / (1u64 << 53) as f64 * std::f64::consts::TAU * 0.9
            })
            .collect();
        costs += flat_top_objective(&v, rows, ros_em::geom::deg_to_rad(10.0));
    }
    s.add("ros-antenna.objective_us", ms(t) * 1e3 / f64::from(calls));
    first.is_ok() && rest.iter().all(Result::is_ok) && costs.is_finite()
}

/// Runs rounds for `seconds` (at least three; one at
/// [`Scale::Smoke`]) and reports the per-layer medians.
pub fn run(workload: &str, scale: Scale, seed: u64, seconds: f64) -> Record {
    // Spans under `Level::Summary` read the clock a real telemetry
    // session installs; with the level off nothing reads it.
    ros_obs::install_monotonic_clock();
    let mut controls = vec![control_ms(1)];
    let mut fp = FullPass::setup(scale, seed);
    let mut cor = Corridor::setup(scale, seed);
    let mut td = TagDesign::setup(scale, seed);
    let min_rounds = if scale == Scale::Smoke { 1 } else { 3 };
    let mut s = Samples::default();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut tally = |ok: bool| {
        attempted += 1;
        failed += u64::from(!ok);
    };
    let mut digest = Fnv::default();
    // Ratios pair timings taken within one round, so host drift between
    // rounds cancels.
    let (mut off_ms, mut attribution, mut overhead_pct) = (Vec::new(), Vec::new(), Vec::new());
    let start = Instant::now();
    for i in 0u64.. {
        if i >= min_rounds && (scale == Scale::Smoke || start.elapsed().as_secs_f64() >= seconds) {
            break;
        }
        let mut sink = Fnv::default();
        let d = if i == 0 { &mut digest } else { &mut sink };
        {
            let _pin = ThreadGuard::pin(Some(1));
            // One `DriveBy::run` at a telemetry level, timed.
            let mut pass = |level| {
                let t = Instant::now();
                let (out, _) = ros_obs::capture_scope(level, || fp.run(i));
                (ms(t), out)
            };
            // Whichever pass runs second finds the caches warm, so the
            // two swap places every round.
            let ((off, out), (summary, summary_out)) = if i % 2 == 0 {
                (pass(ros_obs::Level::Off), pass(ros_obs::Level::Summary))
            } else {
                let summary = pass(ros_obs::Level::Summary);
                (pass(ros_obs::Level::Off), summary)
            };
            off_ms.push(off);
            overhead_pct.push((summary / off - 1.0) * 100.0);
            tally(fp.check(&out, d).ok);
            tally(fp.check(&summary_out, &mut Fnv::default()).ok);
            let (drive, cfg, word) = fp.prepare(i);
            tally(replay_full_pass(drive, cfg, word, &mut s));
            attribution.push(STAGES.iter().map(|n| s.last(n)).sum::<f64>() / off);
        }
        {
            let _pin = ThreadGuard::pin(Some(cor.workers));
            tally(replay_corridor_shard(&cor, i, &mut s));
            let (cfg, r) = cor.run(i);
            tally(report_ok(&cfg, &r));
            d.u64(r.log_digest());
            s.add("ros-serve.backpressure_stalls", r.stalls as f64);
            s.add("ros-serve.channel_max_occupancy", r.max_occupancy as f64);
            s.add("ros-serve.peak_buffered_frames", r.peak_buffered as f64);
            s.add(
                "ros-cache.hits_per_frame",
                r.cache_hits as f64 / r.frames_consumed.max(1) as f64,
            );
            s.add("ros-cache.misses_per_op", r.cache_misses as f64);
        }
        {
            let _pin = ThreadGuard::pin(Some(1));
            tally(replay_tag_design(&td, i, &mut s));
            let out = td.run(i);
            tally(td.check(&out, d).ok);
        }
        controls.push(control_ms(1));
    }

    let mut metrics: Vec<(String, f64, usize)> =
        s.0.iter()
            .map(|(name, v)| (name.to_string(), median(v), v.len()))
            .collect();
    let rounds = off_ms.len();
    metrics.push((
        "trace.attribution_ratio".into(),
        median(&attribution),
        rounds,
    ));
    metrics.push(("host.control_ms".into(), median(&controls), controls.len()));
    metrics.push((
        "ros-obs.summary_overhead_pct".into(),
        median(&overhead_pct),
        rounds,
    ));
    Record {
        workload: workload.to_string(),
        seed,
        trace: true,
        threads: cor.workers,
        correct: failed == 0,
        attempted,
        failed,
        digest: digest.0,
        op_ms: off_ms,
        control_ms: controls,
        metrics,
    }
}

/// The largest full-pass stage and its share of the stage sum.
pub fn largest_stage(r: &Record) -> Option<(String, f64)> {
    let value = |n: &str| r.metrics.iter().find(|m| m.0 == n).map(|m| m.1);
    let total: f64 = STAGES.iter().filter_map(|n| value(n)).sum();
    STAGES
        .iter()
        .filter_map(|n| value(n).map(|v| (n.to_string(), v / total)))
        .max_by(|a, b| a.1.total_cmp(&b.1))
}
