//! The zero-allocation steady-state budget (the plan/arena contract).
//!
//! DESIGN.md §14: after a warm-up pass has resolved every FFT/CZT/
//! window plan and grown every scratch buffer to its high-water mark,
//! a steady-state frame — capture → detect → spotlight → decode — must
//! perform **zero** heap allocations. This test is the one enforcer of
//! that budget: a counting global allocator measures it. Warm-up runs
//! the exact per-frame work that the measured rounds repeat (same job
//! seeds, same trace, both the FFT and CZT decode configurations), so
//! every buffer capacity the measurement needs has already been
//! reached, and any allocation observed afterwards is a real
//! steady-state regression.
//!
//! The measured loop reaches every steady-state kernel:
//!
//! * capture — `FmcwRadar::capture_batch_with` → `capture_batch_into`
//!   (`frontend::size_frames`, `frontend::fill_noise` /
//!   `gaussian_pair` straight into the output rows,
//!   `Impairments::fill_walk`, then per frame group
//!   `frontend::synthesize_signal_into`, whose copy-out adds the
//!   noise, and per frame `Impairments::apply_with_walk`). The
//!   radar carries the `Impairments::eval_board` profile so the
//!   impairment kernels run; a clean front-end skips them. The five
//!   capture jobs make two frame pairs and a lone trailing frame where
//!   the IF tone kernel packs two frames per lane group (AVX-512), and
//!   five single-frame groups elsewhere.
//! * detect — `FmcwRadar::detect_with` → `processing::detect_points_core`
//!   (`range_spectra_into` over `FftPlan::process_forward`,
//!   `range_power_profile_into`, `cfar::ca_cfar_into`,
//!   `aoa_spectrum_into`, `peaks::find_peaks_into`).
//! * spotlight — `FmcwRadar::spotlight_with` →
//!   `goertzel::single_bin_windowed_each`.
//! * decode — `decode_into` → `decode_core` (`resample_uniform_into`,
//!   `WindowTable::taper`, `rcs_spectrum_windowed_into` on the FFT
//!   configuration, `rcs_spectrum_czt_into` → `CztPlan::process` →
//!   `FftPlan::process_forward`/`process_inverse` on the CZT one).
//!
//! Two steady-state paths stay outside the per-frame contract:
//!
//! * the multi-worker branch of `ros_exec::par_for_each_chunk_mut` spawns
//!   scoped threads, and spawning allocates. The budget runs pinned to
//!   one worker, whose serial branch allocates nothing.
//! * `ResolvedTag::export_rows` runs inside per-frame echo gathering,
//!   which builds each frame's echo list on purpose; the capture jobs
//!   here are pre-gathered.
//!
//! This file intentionally contains a single `#[test]`: the harness
//! runs tests of one binary concurrently, and a sibling test's setup
//! allocations would pollute the process-global counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use rand::rngs::StdRng;
use rand::SeedableRng;
use ros_core::decode::{decode_into, DecodeResult, DecodeScratch, DecoderConfig, RssSample};
use ros_core::encode::SpatialCode;
use ros_core::reader::{DriveBy, ReaderConfig};
use ros_dsp::window::{Window, WindowTable};
use ros_em::{Complex64, Vec3};
use ros_radar::echo::{Echo, Pose};
use ros_radar::frontend::Frame;
use ros_radar::impairments::Impairments;
use ros_radar::pointcloud::RadarPoint;
use ros_radar::processing::DetectScratch;
use ros_radar::radar::{CaptureScratch, FmcwRadar};

/// Forwards to the system allocator, counting every allocation.
struct CountingAlloc;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: pure pass-through to `System`; the counter has no effect on
// the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Per-iteration capture seeds. Warm-up and measurement cycle through
/// the same set, so the noise realizations (and therefore the CFAR
/// detection counts and buffer high-water marks) the measurement sees
/// are exactly the ones warm-up already sized for.
const CAPTURE_SEEDS: [u64; 4] = [0xA110_C0, 0xA110_C1, 0xA110_C2, 0xA110_C3];

/// Every long-lived buffer of the steady-state frame loop.
struct Arena {
    capture: CaptureScratch,
    frames: Vec<Frame>,
    detect: DetectScratch,
    points: Vec<RadarPoint>,
    decode: DecodeScratch,
    result: DecodeResult,
}

/// The fixed (read-only) inputs of one steady-state frame.
struct Fixture {
    radar: FmcwRadar,
    jobs: Vec<(Pose, Vec<Echo>)>,
    spot_table: WindowTable,
    spot_target: Vec3,
    trace: Vec<RssSample>,
    tag_center: Vec3,
    code: SpatialCode,
    configs: [DecoderConfig; 2],
}

fn capture_jobs() -> Vec<(Pose, Vec<Echo>)> {
    let mut jobs: Vec<(Pose, Vec<Echo>)> = (0..4)
        .map(|i| {
            let echoes: Vec<Echo> = (0..6)
                .map(|k| {
                    Echo::new(
                        Vec3::new(-0.8 + 0.3 * k as f64, 2.4 + 0.05 * i as f64, 0.0),
                        Complex64::from_polar(ros_em::db::db_to_lin(-40.0), 0.29 * k as f64),
                    )
                })
                .collect();
            (
                Pose::side_looking(Vec3::new(0.05 * i as f64, 0.0, 0.0)),
                echoes,
            )
        })
        .collect();
    jobs.push(ros_tests::crowded_capture_job());
    jobs
}

/// Builds the decoder input the canonical way: a fast-mode drive-by of
/// a 2-bit tag, reusing its RSS trace verbatim.
fn drive_by_trace() -> (Vec<RssSample>, Vec3, SpatialCode) {
    let code = SpatialCode::with_bits(2, 8);
    let tag = code.encode(&[true, true]).expect("2-bit word encodes");
    let center = Vec3::new(0.0, 2.0, 1.0);
    let outcome = DriveBy::new(tag, 2.0)
        .with_seed(0x90_1DE2)
        .run(&ReaderConfig::fast());
    (outcome.rss_trace, center, code)
}

/// One steady-state frame: batch capture, per-frame detection and
/// spotlight, then a decode per configuration. Returns a value folded
/// from every stage so nothing is optimized away.
fn steady_frame(fx: &Fixture, seed: u64, arena: &mut Arena) -> f64 {
    let mut rng = StdRng::seed_from_u64(seed);
    fx.radar
        .capture_batch_with(&fx.jobs, &mut rng, &mut arena.capture, &mut arena.frames);
    let mut acc = 0.0;
    for frame in arena.frames.iter() {
        fx.radar
            .detect_with(frame, &mut arena.detect, &mut arena.points);
        for p in arena.points.iter() {
            acc += p.power_mw;
        }
        acc += fx
            .radar
            .spotlight_with(frame, fx.spot_target, &fx.spot_table)
            .abs();
    }
    for cfg in &fx.configs {
        decode_into(
            &fx.trace,
            fx.tag_center,
            0.0,
            &fx.code,
            cfg,
            &mut arena.decode,
            &mut arena.result,
        )
        .expect("steady-state decode stays on the success path");
        acc += arena.result.snr_linear;
    }
    acc
}

#[test]
fn steady_state_frame_allocates_nothing() {
    // Pin the executor to one worker *before* any measurement: the
    // override short-circuits `ros_exec::threads()` ahead of its
    // `env::var` lookup (which allocates), and one worker keeps the
    // serial fast path — no thread spawns inside the loop.
    let _pin = ros_exec::ThreadGuard::pin(Some(1));
    ros_obs::set_level(ros_obs::Level::Off);

    let mut radar = FmcwRadar::ti_eval();
    radar.impairments = Impairments::eval_board();
    let (trace, tag_center, code) = drive_by_trace();
    let fx = Fixture {
        spot_table: WindowTable::new(Window::Hann, radar.chirp.n_samples),
        spot_target: Vec3::new(0.0, 2.5, 0.0),
        radar,
        jobs: capture_jobs(),
        trace,
        tag_center,
        code,
        configs: [
            DecoderConfig::default(),
            DecoderConfig {
                use_czt: true,
                ..DecoderConfig::default()
            },
        ],
    };
    let mut arena = Arena {
        capture: CaptureScratch::default(),
        frames: Vec::new(),
        detect: DetectScratch::default(),
        points: Vec::new(),
        decode: DecodeScratch::new(),
        result: DecodeResult::default(),
    };

    // Warm-up: one full cycle over the capture seeds resolves every
    // plan (FFT, CZT, window tables) and grows every buffer to the
    // sizes the measured rounds will revisit.
    let mut warm = 0.0;
    for &seed in &CAPTURE_SEEDS {
        warm += steady_frame(&fx, seed, &mut arena);
    }
    assert!(warm.is_finite() && warm != 0.0, "warm-up produced no work");

    // Measurement: two more cycles over the same seeds must not touch
    // the heap at all.
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let mut measured = 0.0;
    for _round in 0..2 {
        for &seed in &CAPTURE_SEEDS {
            measured += std::hint::black_box(steady_frame(&fx, seed, &mut arena));
        }
    }
    let after = ALLOCATIONS.load(Ordering::Relaxed);

    assert!(measured.is_finite());
    assert_eq!(
        after - before,
        0,
        "steady-state frames allocated {} time(s); the plan/arena \
         contract requires capture → detect → spotlight → decode to \
         run allocation-free after warm-up",
        after - before
    );
}
