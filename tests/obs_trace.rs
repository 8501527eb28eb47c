//! Golden telemetry trace of a full-pipeline drive-by.
//!
//! With the null clock (no `init_from_env`) and one pinned worker, the
//! summary-level ndjson stream of a frozen 3-stack fixture is fully
//! deterministic: spans carry `dur_ns: 0`, metrics export in the fixed
//! registration order, and event payloads are pure functions of the
//! seeded scenario. The event/stage skeleton is pinned here, so a
//! renamed stage, a dropped span, or a reordered export shows up as a
//! loud diff — the telemetry schema is part of the repo's contract,
//! same as the golden decode numbers.
//!
//! The trace must also be identical with the pool fanned out: summary
//! events are only emitted from serial code (workers touch counters,
//! which aggregate), so thread count must not change a single line.
//!
//! The corridor service's `serve.*` and `cache.*` families are pinned
//! the same way: exported once from the service's serial epilogue, so
//! their metric lines must not depend on the worker count.
//!
//! Each fixture captures through `ros_obs::capture_scope`, which gives
//! it a run of its own that its `ros-exec` workers inherit, so the
//! tests here run in parallel without a shared lock.

use ros_cache::GeomCache;
use ros_core::encode::SpatialCode;
use ros_core::reader::{DriveBy, ReaderConfig};
use ros_exec::ThreadGuard;
use ros_obs::Level;
use ros_serve::{run_corridor_with, CorridorConfig, ServeReport};

/// Fixture seed — the end-to-end detecting fixture's, reused.
const SEED: u64 = 90125;

/// The frozen `ev[:stage]` skeleton of the summary trace, in emission
/// order: pipeline spans/events first (spans appear where they *drop*),
/// then the flushed metric lines in `ros_obs::names` order.
///
/// Regenerate by printing `skeleton(&run_traced(1))`.
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
    "metric:reader.frames",
    "metric:reader.cloud_points",
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

/// Runs the frozen 3-stack full-pipeline fixture with telemetry routed
/// to memory, returning every emitted line.
fn run_traced(threads: usize) -> Vec<String> {
    let _pin = ThreadGuard::pin(Some(threads));

    // A 32-row 4-bit tag, big enough for the discriminator to
    // classify — the trace must cover a genuine detection, not the
    // true-mount fallback. Built *before* the capture starts: tag
    // construction runs the one-shot DE beam-shaping optimization
    // (cached per process, `optim.de.generations`), and the golden
    // pins the pipeline trace, not cache-temperature-dependent setup.
    let code = SpatialCode {
        rows_per_stack: 32,
        ..SpatialCode::paper_4bit()
    };
    let bits = [true, false, true, true];
    let tag = code
        .encode_with(ros_tests::fixture_cache(), &bits)
        .expect("4-bit word encodes");

    let mut drive = DriveBy::new(tag, 3.0).with_seed(SEED);
    drive.half_span_m = 3.0;
    let mut cfg = ReaderConfig::full();
    cfg.frame_stride = 8;
    let (outcome, lines) = ros_obs::capture_scope(Level::Summary, || {
        let outcome = drive.run(&cfg);
        ros_obs::flush();
        outcome
    });
    assert!(outcome.detected_center.is_some(), "fixture must detect");
    assert_eq!(outcome.bits(), bits, "fixture must decode");
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
fn trace_skeleton_matches_golden() {
    let lines = run_traced(1);

    // Every line is a flat, braced, parseable-looking object.
    for l in &lines {
        assert!(
            l.starts_with('{') && l.ends_with('}') && l.contains("\"ev\":\""),
            "malformed ndjson line: {l}"
        );
    }

    // The null clock keeps spans bit-stable.
    for l in lines.iter().filter(|l| l.contains("\"ev\":\"span\"")) {
        assert!(
            l.contains("\"dur_ns\":0"),
            "span carried wall time without an installed clock: {l}"
        );
    }

    let got = skeleton(&lines);
    assert_eq!(got, EXPECTED, "telemetry skeleton drifted;\n got: {got:#?}");
}

#[test]
fn trace_is_identical_across_thread_counts() {
    let one = run_traced(1);
    for t in [2, 8] {
        let many = run_traced(t);
        assert_eq!(
            one, many,
            "summary trace must be bit-identical at {t} threads"
        );
    }
}

/// Metrics that record scheduling, not work: how full a channel got
/// and how often a producer blocked depend on thread interleaving.
const SCHEDULING_METRICS: &[&str] = &["serve.backpressure_stalls", "serve.channel_max_occupancy"];

/// Runs a 2×2×1 corridor on `workers` shards with a fresh cache and
/// telemetry routed to memory, returning the report and the flushed
/// `serve.*`/`cache.*` metric lines, minus [`SCHEDULING_METRICS`].
/// Worker-side histograms such as `decode.slot_amp` are left out as
/// well: their float sums depend on the order shards add samples in.
fn run_corridor_traced(workers: usize) -> (ServeReport, Vec<String>) {
    let cfg = CorridorConfig {
        n_radars: 2,
        n_vehicles: 2,
        n_tags: 1,
        ..CorridorConfig::default()
    };
    let (report, lines) = ros_obs::capture_scope(Level::Summary, || {
        let report = run_corridor_with(&cfg, workers, &GeomCache::new());
        ros_obs::flush();
        report
    });
    let metrics = lines
        .iter()
        .filter(|l| {
            let name = field(l, "name").unwrap_or_default();
            l.starts_with("{\"ev\":\"metric\"")
                && (name.starts_with("serve.") || name.starts_with("cache."))
                && !SCHEDULING_METRICS.contains(&name.as_str())
        })
        .cloned()
        .collect();
    (report, metrics)
}

/// The value of counter `name` among flushed metric lines.
fn counter(lines: &[String], name: &str) -> u64 {
    let tag = format!("\"name\":\"{name}\",\"kind\":\"counter\",\"value\":");
    let (_, value) = lines
        .iter()
        .find_map(|l| l.split_once(&tag))
        .unwrap_or_else(|| panic!("no counter {name} in {lines:#?}"));
    value.trim_end_matches('}').parse().expect("counter value")
}

#[test]
fn corridor_serve_and_cache_metrics_match_report_at_any_worker_count() {
    let (report, one) = run_corridor_traced(1);
    let (_, two) = run_corridor_traced(2);
    assert_eq!(
        one, two,
        "serve.*/cache.* lines must not depend on the worker count"
    );

    assert_eq!(counter(&one, "serve.frames_in"), report.frames_produced);
    assert_eq!(counter(&one, "serve.frames_out"), report.frames_consumed);
    assert_eq!(counter(&one, "serve.reads"), 4);
    assert_eq!(counter(&one, "cache.hit"), report.cache_hits);
    assert_eq!(counter(&one, "cache.miss"), report.cache_misses);
    assert_eq!(
        counter(&one, "cache.shaping.miss") + counter(&one, "cache.pattern.miss"),
        report.cache_misses,
        "per-kind misses account for every build"
    );
    assert!(
        report.cache_hits > 0 && report.cache_misses > 0,
        "cache must see traffic"
    );
}
