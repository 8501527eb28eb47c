//! Golden telemetry trace of a *degraded* full-pipeline drive-by.
//!
//! The companion of `tests/obs_trace.rs`: the same frozen 3-stack
//! fixture, but run under the canonical composite fault plan (the
//! "storm" tail of [`FaultPlan::canonical_matrix`]). With the null
//! clock and serial fault pre-draw, the summary ndjson stream — spans,
//! the degraded-frame bookkeeping, and the `fault.*` counters — is a
//! pure function of the seeds, so its skeleton is pinned as a golden
//! and must be bit-identical at any thread count.

use ros_core::encode::SpatialCode;
use ros_core::reader::{DriveBy, ReaderConfig};
use ros_exec::ThreadGuard;
use ros_fault::FaultPlan;
use ros_obs::Level;

/// Fixture seed — the end-to-end detecting fixture's, reused.
const SEED: u64 = 90125;

/// Master seed of the canonical fault matrix (shared with
/// `bench faults` and `tests/fault_determinism.rs`).
const MATRIX_SEED: u64 = 0xfa17;

/// The frozen `ev[:stage|:name]` skeleton of the degraded summary
/// trace: the clean pipeline skeleton plus the fault counters the
/// storm plan fires (drops, saturation, point corruption, tracking
/// spikes) and the degraded-frame tally.
///
/// Regenerate by running this fixture with a memory sink and printing
/// `skeleton(&lines)` — see `run_traced()` below.
const EXPECTED: &[&str] = &[
    "span:reader.gather_echoes",
    "span:radar.capture_noise",
    "span:radar.capture_synth",
    "span:radar.capture_batch",
    "span:reader.detect",
    "dbscan",
    "span:dsp.dbscan",
    "span:detector.score",
    "detector.pick",
    "span:reader.spotlight",
    "decode.result",
    "span:decode",
    "decode.result",
    "span:decode",
    "reader.pass",
    "span:reader.run_full",
    "metric:radar.frames_synthesized",
    "metric:radar.cfar_detections",
    "metric:radar.points_per_frame",
    "metric:dsp.dbscan.runs",
    "metric:dsp.dbscan.clusters",
    "metric:dsp.dbscan.noise_points",
    "metric:detector.clusters_scored",
    "metric:detector.tags_classified",
    "metric:decode.attempts",
    "metric:decode.ok",
    "metric:decode.snr_db",
    "metric:decode.slot_amp",
    "metric:fault.frames_dropped",
    "metric:fault.frames_saturated",
    "metric:fault.points_corrupted",
    "metric:fault.tracking_spikes",
    "metric:reader.frames",
    "metric:reader.cloud_points",
    "metric:reader.frames_degraded",
    "metric:time.reader.run_full",
    "metric:time.reader.gather_echoes",
    "metric:time.radar.capture_batch",
    "metric:time.radar.capture_noise",
    "metric:time.radar.capture_synth",
    "metric:time.reader.detect",
    "metric:time.dsp.dbscan",
    "metric:time.detector.score",
    "metric:time.reader.spotlight",
    "metric:time.decode",
];

/// Runs the frozen fixture under the storm plan with telemetry routed
/// to memory, returning every emitted line.
fn run_traced(threads: usize) -> Vec<String> {
    let _pin = ThreadGuard::pin(Some(threads));

    // Fixture built before the capture starts: encoding runs the
    // one-shot DE beam-shaping optimization (cached per process,
    // `optim.de.generations`), and the golden pins the pipeline
    // trace, not cache-temperature-dependent setup.
    let code = SpatialCode {
        rows_per_stack: 32,
        ..SpatialCode::paper_4bit()
    };
    let tag = code
        .encode_with(ros_tests::fixture_cache(), &[true, false, true, true])
        .expect("word encodes");

    let mut drive = DriveBy::new(tag, 3.0).with_seed(SEED);
    drive.half_span_m = 3.0;
    let storm = FaultPlan::canonical_matrix(MATRIX_SEED)
        .pop()
        .expect("matrix is non-empty");
    let drive = drive.with_faults(storm);
    let mut cfg = ReaderConfig::full();
    cfg.frame_stride = 8;
    let (outcome, lines) = ros_obs::capture_scope(Level::Summary, || {
        let outcome = drive.run(&cfg);
        ros_obs::flush();
        outcome
    });
    assert!(
        outcome.frame_verdicts.iter().any(|v| v.is_degraded()),
        "the storm plan must visibly degrade frames"
    );
    lines
}

/// Reduces ndjson lines to their `ev[:stage|:name]` skeleton.
fn skeleton(lines: &[String]) -> Vec<String> {
    lines
        .iter()
        .map(|l| {
            let ev = field(l, "ev").expect("every line has an ev");
            match ev.as_str() {
                "span" => format!("span:{}", field(l, "stage").expect("span stage")),
                "metric" => format!("metric:{}", field(l, "name").expect("metric name")),
                _ => ev,
            }
        })
        .collect()
}

/// Extracts a string field from one flat ndjson object.
fn field(line: &str, key: &str) -> Option<String> {
    let tag = format!("\"{key}\":\"");
    let start = line.find(&tag)? + tag.len();
    let end = line[start..].find('"')?;
    Some(line[start..start + end].to_string())
}

#[test]
fn degraded_trace_skeleton_matches_golden() {
    let lines = run_traced(1);

    for l in &lines {
        assert!(
            l.starts_with('{') && l.ends_with('}') && l.contains("\"ev\":\""),
            "malformed ndjson line: {l}"
        );
    }

    // The pass summary must carry the typed verdict.
    let pass = lines
        .iter()
        .find(|l| l.contains("\"ev\":\"reader.pass\""))
        .expect("pass summary event");
    assert!(
        field(pass, "verdict").is_some(),
        "reader.pass must report the typed verdict: {pass}"
    );

    let got = skeleton(&lines);
    assert_eq!(
        got, EXPECTED,
        "degraded telemetry skeleton drifted;\n got: {got:#?}"
    );
}

#[test]
fn degraded_trace_is_identical_across_thread_counts() {
    let one = run_traced(1);
    for t in [2, 8] {
        let many = run_traced(t);
        assert_eq!(
            one, many,
            "degraded summary trace must be bit-identical at {t} threads"
        );
    }
}
