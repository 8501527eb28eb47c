//! Fault-injection determinism conformance suite.
//!
//! The `ros-fault` contract: a `FaultPlan` is realized by serial
//! pre-draw, so any plan — every cell of the canonical matrix — must
//! produce bit-identical outcomes at 1, 2, and 8 executor threads, in
//! both reader modes, including the fault counters the pass emits.

use ros_core::encode::SpatialCode;
use ros_core::reader::{DriveBy, Outcome, ReaderConfig, ReaderMode};
use ros_core::tag::Tag;
use ros_exec::ThreadGuard;
use ros_fault::FaultPlan;
use ros_obs::Level;
use std::sync::Mutex;

/// Serializes tests touching the process-global obs state.
static LOCK: Mutex<()> = Mutex::new(());

/// Master seed of the canonical matrix (shared with `bench faults`).
const MATRIX_SEED: u64 = 0xfa17;

fn tag8(bits: &[bool]) -> Tag {
    SpatialCode {
        rows_per_stack: 8,
        ..SpatialCode::paper_4bit()
    }
    .encode_with(ros_tests::fixture_cache(), bits)
    .unwrap()
}

/// The frozen full-pipeline fixture (mirrors `tests/obs_trace.rs`).
fn full_fixture() -> (DriveBy, ReaderConfig) {
    let code = SpatialCode {
        rows_per_stack: 32,
        ..SpatialCode::paper_4bit()
    };
    let tag = code.encode_with(ros_tests::fixture_cache(), &[true, false, true, true]).unwrap();
    let mut drive = DriveBy::new(tag, 3.0).with_seed(90125);
    drive.half_span_m = 3.0;
    let mut cfg = ReaderConfig::full();
    cfg.frame_stride = 8;
    (drive, cfg)
}

/// Bit-exact fingerprint of everything a pass reports.
fn fingerprint(o: &Outcome) -> (Vec<bool>, Vec<(u64, u64)>, String, usize) {
    (
        o.bits().to_vec(),
        o.rss_trace
            .iter()
            .map(|s| (s.rss.re.to_bits(), s.rss.im.to_bits()))
            .collect(),
        format!("{:?}", o.verdict),
        o.frame_verdicts
            .iter()
            .filter(|v| v.is_degraded())
            .count(),
    )
}

fn run_pinned(drive: &DriveBy, cfg: &ReaderConfig, threads: usize) -> Outcome {
    let _pin = ThreadGuard::pin(Some(threads));
    drive.run(cfg)
}

#[test]
fn canonical_matrix_is_thread_invariant_in_fast_mode() {
    let _guard = LOCK.lock().unwrap_or_else(|p| p.into_inner());
    let cfg = ReaderConfig::fast();
    for (pi, plan) in FaultPlan::canonical_matrix(MATRIX_SEED)
        .into_iter()
        .enumerate()
    {
        let drive = DriveBy::new(tag8(&[true, false, true, true]), 2.0)
            .with_seed(7)
            .with_faults(plan);
        let one = fingerprint(&run_pinned(&drive, &cfg, 1));
        for t in [2, 8] {
            let many = fingerprint(&run_pinned(&drive, &cfg, t));
            assert_eq!(one, many, "plan #{pi} diverged at {t} threads (fast)");
        }
    }
}

#[test]
fn storm_and_windowed_plans_are_thread_invariant_in_full_mode() {
    let _guard = LOCK.lock().unwrap_or_else(|p| p.into_inner());
    let matrix = FaultPlan::canonical_matrix(MATRIX_SEED);
    // The two most entangled plans: the mid-pass burst window and the
    // multi-stream storm (the tail of the canonical matrix).
    let picked: Vec<FaultPlan> = matrix.into_iter().rev().take(2).collect();
    let (base, cfg) = full_fixture();
    for plan in picked {
        let label = format!("{:?}", plan.specs.iter().map(|s| s.kind.name()).collect::<Vec<_>>());
        let drive = base.clone().with_faults(plan);
        let one = fingerprint(&run_pinned(&drive, &cfg, 1));
        for t in [2, 8] {
            let many = fingerprint(&run_pinned(&drive, &cfg, t));
            assert_eq!(one, many, "plan {label} diverged at {t} threads (full)");
        }
    }
}

/// Runs the full fixture's drive in `mode` under the storm plan with
/// telemetry routed to memory. Returns the exported `fault.*` /
/// `reader.frames_degraded` metric lines verbatim, plus the number of
/// degraded frame verdicts the outcome reports.
fn fault_metric_lines(mode: ReaderMode, threads: usize) -> (Vec<String>, usize) {
    let _pin = ThreadGuard::pin(Some(threads));
    let buffer = ros_obs::install_memory_sink();
    ros_obs::reset_metrics();
    ros_obs::set_level(Level::Summary);

    let (base, mut cfg) = full_fixture();
    cfg.mode = mode;
    let storm = FaultPlan::canonical_matrix(MATRIX_SEED)
        .pop()
        .expect("matrix is non-empty");
    let outcome = base.with_faults(storm).run(&cfg);

    ros_obs::flush();
    ros_obs::set_level(Level::Off);
    ros_obs::reset_metrics();
    let lines = buffer.lock().expect("sink buffer").clone();
    let lines = lines
        .into_iter()
        .filter(|l| {
            l.contains("\"name\":\"fault.") || l.contains("\"name\":\"reader.frames_degraded\"")
        })
        .collect();
    (lines, fingerprint(&outcome).3)
}

#[test]
fn fault_counters_are_identical_across_thread_counts() {
    let _guard = LOCK.lock().unwrap_or_else(|p| p.into_inner());
    for mode in [ReaderMode::FullPipeline, ReaderMode::Fast] {
        let one = fault_metric_lines(mode, 1);
        assert!(
            !one.0.is_empty(),
            "storm plan must export fault counters ({mode:?})"
        );
        for t in [2, 8] {
            assert_eq!(
                one,
                fault_metric_lines(mode, t),
                "fault counters diverged at {t} threads ({mode:?})"
            );
        }
    }
}

/// The fast reader's fault accounting is pinned to literal values: the
/// storm plan on the full fixture's drive, in fast mode. Point
/// corruption needs a point cloud, so in fast mode it degrades frames
/// (`reader.frames_degraded`) without marking a frame verdict or
/// emitting `fault.points_corrupted`.
#[test]
fn fast_mode_fault_accounting_is_pinned() {
    let _guard = LOCK.lock().unwrap_or_else(|p| p.into_inner());
    let (lines, degraded_verdicts) = fault_metric_lines(ReaderMode::Fast, 2);
    let counter = |name: &str, value: usize| {
        format!("{{\"ev\":\"metric\",\"name\":\"{name}\",\"kind\":\"counter\",\"value\":{value}}}")
    };
    assert_eq!(
        lines,
        vec![
            counter("fault.frames_dropped", 38),
            counter("fault.frames_saturated", 39),
            counter("fault.tracking_spikes", 17),
            counter("reader.frames_degraded", 138),
        ]
    );
    assert_eq!(degraded_verdicts, 81);
}

#[test]
fn zero_rate_plan_matches_no_plan_bit_for_bit() {
    let _guard = LOCK.lock().unwrap_or_else(|p| p.into_inner());
    // Attaching a plan that never fires must not perturb the RNG
    // stream: the fault layer draws from its own seed space.
    let cfg = ReaderConfig::fast();
    let clean = DriveBy::new(tag8(&[true, true, false, true]), 2.0).with_seed(41);
    let gated = clean.clone().with_faults(FaultPlan::single(
        9,
        ros_fault::FaultKind::FrameDrop,
        0.0,
    ));
    let a = run_pinned(&clean, &cfg, 2);
    let b = run_pinned(&gated, &cfg, 2);
    assert_eq!(a.bits(), b.bits());
    assert_eq!(
        fingerprint(&a).1,
        fingerprint(&b).1,
        "zero-rate plan perturbed the RSS trace"
    );
}
