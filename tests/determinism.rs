//! Bit-reproducibility of every pipeline path wired into the
//! [`ros_exec`] scoped-thread executor.
//!
//! The contract (DESIGN.md §9): parallel output is **bit-identical**
//! (`f64::to_bits`) to the one-thread run at *any* worker count. Each
//! test runs a path at 1, 2, and 8 threads and compares against the
//! 1-thread reference. Random draws never move into workers — RNG
//! packets are pre-drawn serially in the historical order, so the
//! streams are unchanged too.
//!
//! Each test pins its own thread with the RAII
//! [`ros_exec::ThreadGuard`]; the pin is that thread's alone (its
//! `ros-exec` workers inherit it), so the tests run in parallel without
//! a shared lock, and the guard restores the default
//! (`ROS_EXEC_THREADS` / core count) even on panic.

use rand::rngs::StdRng;
use rand::SeedableRng;
use ros_core::decode::{
    decode, decode_into, DecodeResult, DecodeScratch, DecoderConfig, RssSample,
};
use ros_core::encode::SpatialCode;
use ros_core::rcs_model;
use ros_core::reader::{DriveBy, Outcome, ReaderConfig};
use ros_core::tag::Tag;
use ros_em::constants::LAMBDA_CENTER_M;
use ros_em::jones::Polarization;
use ros_em::{Complex64, Vec3};
use ros_exec::ParSeed;
use ros_radar::echo::{Echo, Pose};
use ros_radar::pointcloud::RadarPoint;
use ros_radar::processing::DetectScratch;
use ros_radar::radar::{CaptureScratch, FmcwRadar};
use ros_scene::reflector::{EchoContext, Reflector};

/// The worker counts every path is checked at (1 is the reference).
const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

/// Runs `f` with this thread's executor pinned to `n` workers,
/// restoring the default afterwards (even on panic).
fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    let _pin = ros_exec::ThreadGuard::pin(Some(n));
    f()
}

fn assert_f64_bits_eq(a: &[f64], b: &[f64], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length mismatch");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{what}: element {i} differs ({x} vs {y})"
        );
    }
}

fn assert_complex_bits_eq(a: &[Complex64], b: &[Complex64], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length mismatch");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x.re.to_bits(), y.re.to_bits(), "{what}: re {i} differs");
        assert_eq!(x.im.to_bits(), y.im.to_bits(), "{what}: im {i} differs");
    }
}

#[test]
fn par_map_preserves_order_and_values() {
    let items: Vec<u64> = (0..103).collect();
    let serial: Vec<f64> = items
        .iter()
        .map(|&x| (x as f64 + 0.5).sqrt().sin())
        .collect();
    for n in THREAD_COUNTS {
        let par = with_threads(n, || {
            ros_exec::par_map(&items, |&x| (x as f64 + 0.5).sqrt().sin())
        });
        assert_f64_bits_eq(&serial, &par, &format!("par_map@{n}"));
    }
}

#[test]
fn par_seed_streams_are_stable_and_distinct() {
    let seed = ParSeed::new(0xD00D_F00D);
    let streams: Vec<u64> = (0..64).map(|i| seed.stream(i)).collect();
    // Deterministic: same derivation twice.
    let again: Vec<u64> = (0..64).map(|i| seed.stream(i)).collect();
    assert_eq!(streams, again);
    // Distinct across indices and from the substream space.
    for i in 0..64 {
        for j in 0..64 {
            if i != j {
                assert_ne!(streams[i], streams[j], "stream collision {i}/{j}");
            }
            assert_ne!(
                streams[i],
                seed.substream(1, j as u64),
                "stream/substream collision {i}/{j}"
            );
        }
    }
}

#[test]
fn rcs_u_grid_bit_identical_across_thread_counts() {
    // n > PAR_GRID_THRESHOLD so the parallel branch actually engages.
    let positions: Vec<f64> = (0..9).map(|k| 0.055 * k as f64).collect();
    let n = 4096;
    let reference = with_threads(1, || {
        rcs_model::sample_rcs_factor(&positions, LAMBDA_CENTER_M, 1.0, n)
    });
    for t in THREAD_COUNTS {
        let par = with_threads(t, || {
            rcs_model::sample_rcs_factor(&positions, LAMBDA_CENTER_M, 1.0, n)
        });
        assert_f64_bits_eq(&reference, &par, &format!("sample_rcs_factor@{t}"));
    }
}

fn capture_jobs() -> Vec<(Pose, Vec<Echo>)> {
    let mut jobs: Vec<(Pose, Vec<Echo>)> = (0..5)
        .map(|i| {
            let echoes: Vec<Echo> = (0..7)
                .map(|k| {
                    Echo::new(
                        Vec3::new(-0.9 + 0.3 * k as f64, 2.5 + 0.05 * i as f64, 0.0),
                        Complex64::from_polar(ros_em::db::db_to_lin(-40.0), 0.31 * k as f64),
                    )
                })
                .collect();
            (
                Pose::side_looking(Vec3::new(0.04 * i as f64, 0.0, 0.0)),
                echoes,
            )
        })
        .collect();
    jobs.push(ros_tests::crowded_capture_job());
    jobs
}

#[test]
fn capture_batch_bit_identical_across_thread_counts() {
    let radar = FmcwRadar::ti_eval();
    let jobs = capture_jobs();
    let capture = || {
        let mut rng = StdRng::seed_from_u64(0xA11CE);
        let mut frames = Vec::new();
        radar.capture_batch_with(&jobs, &mut rng, &mut CaptureScratch::default(), &mut frames);
        frames
    };
    let reference = with_threads(1, capture);
    for t in THREAD_COUNTS {
        let frames = with_threads(t, capture);
        assert_eq!(frames.len(), reference.len());
        for (f, r) in frames.iter().zip(&reference) {
            for (fa, ra) in f.data.iter().zip(&r.data) {
                assert_complex_bits_eq(ra, fa, &format!("capture_batch@{t}"));
            }
        }
    }
}

fn drive_by_outcome(cfg: &ReaderConfig) -> Outcome {
    let code = SpatialCode {
        rows_per_stack: 8,
        ..SpatialCode::paper_4bit()
    };
    let tag = code
        .encode_with(ros_tests::fixture_cache(), &[true, false, true, true])
        .expect("valid 4-bit word");
    DriveBy::new(tag, 2.0).with_seed(0xD811).run(cfg)
}

fn assert_outcomes_bit_identical(a: &Outcome, b: &Outcome, what: &str) {
    assert_eq!(a.bits(), b.bits(), "{what}: decoded bits");
    assert_eq!(a.rss_trace.len(), b.rss_trace.len(), "{what}: trace length");
    for (sa, sb) in a.rss_trace.iter().zip(&b.rss_trace) {
        assert_eq!(sa.rss.re.to_bits(), sb.rss.re.to_bits(), "{what}: rss re");
        assert_eq!(sa.rss.im.to_bits(), sb.rss.im.to_bits(), "{what}: rss im");
        assert_eq!(
            sa.radar_pos.x.to_bits(),
            sb.radar_pos.x.to_bits(),
            "{what}: pos"
        );
    }
    match (&a.decode, &b.decode) {
        (Ok(da), Ok(db)) => {
            assert_eq!(
                da.snr_linear.to_bits(),
                db.snr_linear.to_bits(),
                "{what}: snr"
            );
            assert_f64_bits_eq(
                &da.slot_amplitudes,
                &db.slot_amplitudes,
                &format!("{what}: slot amplitudes"),
            );
        }
        (Err(_), Err(_)) => {}
        _ => panic!("{what}: one run decoded, the other did not"),
    }
}

/// The planned capture → detect path exactly as the full reader wires
/// it: one [`CaptureScratch`], then one [`DetectScratch`] per worker
/// partitioned by [`ros_exec::par_for_each_mut`].
fn planned_capture_detect(
    radar: &FmcwRadar,
    jobs: &[(Pose, Vec<Echo>)],
) -> (Vec<ros_radar::frontend::Frame>, Vec<Vec<RadarPoint>>) {
    let mut rng = StdRng::seed_from_u64(0xA11CE);
    let mut capture = CaptureScratch::default();
    let mut frames = Vec::new();
    radar.capture_batch_with(jobs, &mut rng, &mut capture, &mut frames);
    let workers = ros_exec::threads().max(1).min(frames.len().max(1));
    let mut scratches = vec![DetectScratch::default(); workers];
    let mut detections: Vec<Vec<RadarPoint>> = vec![Vec::new(); frames.len()];
    ros_exec::par_for_each_mut(&mut scratches, &mut detections, |scratch, j, pts| {
        radar.detect_with(&frames[j], scratch, pts);
    });
    (frames, detections)
}

#[test]
fn planned_capture_detect_bit_identical_across_thread_counts() {
    let radar = FmcwRadar::ti_eval();
    let jobs = capture_jobs();
    let (ref_frames, ref_points) = with_threads(1, || planned_capture_detect(&radar, &jobs));
    for t in THREAD_COUNTS {
        let (frames, points) = with_threads(t, || planned_capture_detect(&radar, &jobs));
        assert_eq!(frames.len(), ref_frames.len());
        for (f, r) in frames.iter().zip(&ref_frames) {
            for (fa, ra) in f.data.iter().zip(&r.data) {
                assert_complex_bits_eq(ra, fa, &format!("planned capture@{t}"));
            }
        }
        assert_eq!(points.len(), ref_points.len());
        for (ps, rs) in points.iter().zip(&ref_points) {
            assert_eq!(ps.len(), rs.len(), "planned detect@{t}: point count");
            for (p, r) in ps.iter().zip(rs) {
                assert_eq!(p.range_m.to_bits(), r.range_m.to_bits(), "range@{t}");
                assert_eq!(
                    p.azimuth_rad.to_bits(),
                    r.azimuth_rad.to_bits(),
                    "azimuth@{t}"
                );
                assert_eq!(p.power_mw.to_bits(), r.power_mw.to_bits(), "power@{t}");
            }
        }
    }
}

/// A noise-free drive-by RSS trace straight from the tag physics (sum
/// of scatterer echoes per believed radar position).
fn planned_decode_trace(tag: &Tag) -> Vec<RssSample> {
    let ctx = EchoContext::ti_clear();
    (0..161)
        .map(|i| {
            let pos = Vec3::new(-2.0 + 4.0 * i as f64 / 160.0, 0.0, 0.0);
            let echoes = tag.echoes(pos, Polarization::H, Polarization::V, &ctx);
            let mut rss = Complex64::ZERO;
            for e in &echoes {
                rss += e.amp;
            }
            RssSample {
                radar_pos: pos,
                rss,
            }
        })
        .collect()
}

#[test]
fn planned_decode_bit_identical_across_thread_counts() {
    let tag = SpatialCode {
        rows_per_stack: 8,
        ..SpatialCode::paper_4bit()
    }
    .encode_with(ros_tests::fixture_cache(), &[true, false, true, true])
    .expect("valid 4-bit word")
    .mounted_at(Vec3::new(0.0, 2.0, 0.0));
    let trace = planned_decode_trace(&tag);

    let cfg = DecoderConfig::default();
    let reference = with_threads(1, || decode(&trace, tag.mount(), 0.0, tag.code(), &cfg))
        .expect("fixture decodes");
    assert_eq!(reference.bits, vec![true, false, true, true]);
    // One scratch arena survives the whole sweep: plan reuse across
    // repeated decodes must not perturb a single bit either.
    let mut scratch = DecodeScratch::new();
    for t in THREAD_COUNTS {
        let mut out = DecodeResult::default();
        with_threads(t, || {
            decode_into(
                &trace,
                tag.mount(),
                0.0,
                tag.code(),
                &cfg,
                &mut scratch,
                &mut out,
            )
        })
        .expect("planned fixture decodes");
        assert_eq!(out.bits, reference.bits, "bits@{t}");
        assert_eq!(out.erasures, reference.erasures, "erasures@{t}");
        assert_eq!(
            out.snr_linear.to_bits(),
            reference.snr_linear.to_bits(),
            "snr@{t}"
        );
        assert_eq!(out.n_samples_used, reference.n_samples_used);
        assert_eq!(out.n_samples_nonfinite, reference.n_samples_nonfinite);
        assert_f64_bits_eq(
            &reference.slot_amplitudes,
            &out.slot_amplitudes,
            &format!("planned slot amps@{t}"),
        );
        assert_f64_bits_eq(
            &reference.spectrum_spacings_m,
            &out.spectrum_spacings_m,
            &format!("planned spacings@{t}"),
        );
        assert_f64_bits_eq(
            &reference.spectrum_mags,
            &out.spectrum_mags,
            &format!("planned mags@{t}"),
        );
    }
}

#[test]
fn drive_by_fast_bit_identical_across_thread_counts() {
    let cfg = ReaderConfig::fast();
    let reference = with_threads(1, || drive_by_outcome(&cfg));
    for t in THREAD_COUNTS {
        let o = with_threads(t, || drive_by_outcome(&cfg));
        assert_outcomes_bit_identical(&reference, &o, &format!("fast@{t}"));
    }
}

#[test]
fn drive_by_full_bit_identical_across_thread_counts() {
    let cfg = ReaderConfig::full();
    let reference = with_threads(1, || drive_by_outcome(&cfg));
    for t in THREAD_COUNTS {
        let o = with_threads(t, || drive_by_outcome(&cfg));
        assert_outcomes_bit_identical(&reference, &o, &format!("full@{t}"));
    }
}

/// The corridor reader service at 1, 2, and 8 pinned executor threads
/// (auto worker resolution) produces one bit-identical read log: the
/// service's output is a function of the scenario, never of how many
/// shards the encounters landed on.
#[test]
fn corridor_service_bit_identical_across_thread_counts() {
    use ros_cache::GeomCache;
    use ros_serve::{run_corridor_with, CorridorConfig};
    let cfg = CorridorConfig {
        n_radars: 2,
        n_vehicles: 2,
        n_tags: 1,
        channel_capacity: 8,
        chunk_frames: 32,
        ..CorridorConfig::default()
    };
    let reference = with_threads(1, || run_corridor_with(&cfg, 0, &GeomCache::new()));
    assert_eq!(reference.workers, 1);
    for t in THREAD_COUNTS {
        let r = with_threads(t, || run_corridor_with(&cfg, 0, &GeomCache::new()));
        assert_eq!(r.workers, t, "auto resolution follows the pinned pool");
        assert_eq!(r.log(), reference.log(), "read log @ {t} threads");
        assert_eq!(
            r.frames_produced, reference.frames_produced,
            "@ {t} threads"
        );
        assert_eq!(r.frames_produced, r.frames_consumed, "@ {t} threads");
    }
}
