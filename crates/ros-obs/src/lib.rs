//! Pipeline observability for RoS: spans, metrics, ndjson export.
//!
//! The reader pipeline (point cloud → DBSCAN → discrimination →
//! spotlight → FFT → OOK → SNR) is deterministic and parallel, but
//! without telemetry it is a black box: when a drive-by decodes wrong
//! bits there is no record of what the CFAR saw, how the clusters
//! scored, or where the slot amplitudes landed. This crate is the
//! single diagnostic channel for the whole workspace:
//!
//! * **Spans** ([`span`]) time a pipeline stage. Wall time comes from a
//!   monotonic clock that is *injected at the edges* — binaries call
//!   [`init_from_env`], which installs it; library code never reads the
//!   OS clock on its own, so determinism tests stay clock-free (an
//!   uninstalled clock reads 0 and traces stay bit-stable).
//! * **Metrics** ([`count`], [`gauge`], [`hist`]) aggregate counters,
//!   gauges, and histograms in a registry with a *fixed registration
//!   order* ([`names::ALL`]), so two runs always export metrics in the
//!   same sequence regardless of which stage touched them first.
//! * **Events** ([`event`], [`event_detail`]) emit one ndjson object
//!   per line to the configured sink (stderr, `ROS_OBS_FILE`, or an
//!   in-memory buffer for tests and [`capture_scope`]).
//!
//! Everything is gated by the process-wide [`Level`]:
//!
//! | `ROS_OBS` | level              | behaviour                                  |
//! |-----------|--------------------|--------------------------------------------|
//! | unset / 0 | [`Level::Off`]     | every call is a no-op (no allocation)      |
//! | 1         | [`Level::Summary`] | spans, per-stage events, metrics           |
//! | 2         | [`Level::Detail`]  | + per-frame / per-slot / per-cluster trace |
//!
//! The environment variable is only read by [`init_from_env`] — plain
//! library/test processes that never call it stay [`Level::Off`] even
//! with `ROS_OBS` exported, which keeps `cargo test` hermetic.
//!
//! The disabled path is zero-cost: one relaxed atomic load, no locks,
//! no allocation (asserted by the `zero_alloc` integration test). The
//! crate is std-only and dependency-free so every pipeline crate can
//! depend on it without cycles.

pub mod clock;
mod json;
mod metrics;
pub mod names;
mod sink;

pub use clock::{install_monotonic_clock, install_null_clock};
pub use json::Value;
pub use metrics::{count, gauge, hist, metrics_json, metrics_json_touched, reset_metrics};
pub use sink::install_memory_sink;

use clock::now_ns;
use std::sync::atomic::{AtomicU8, Ordering};

/// Observability level, ordered: `Off < Summary < Detail`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// Everything disabled; every call is a cheap no-op.
    Off,
    /// Spans, stage-level events, and metrics.
    Summary,
    /// Additionally per-frame / per-slot / per-cluster detail events.
    Detail,
}

impl Level {
    /// Parses a `ROS_OBS` value. Unrecognized strings mean [`Level::Off`].
    pub fn parse(s: &str) -> Level {
        match s.trim() {
            "1" | "summary" | "on" => Level::Summary,
            "2" | "detail" | "trace" => Level::Detail,
            _ => Level::Off,
        }
    }

    fn from_u8(v: u8) -> Level {
        match v {
            1 => Level::Summary,
            2 => Level::Detail,
            _ => Level::Off,
        }
    }

    fn as_u8(self) -> u8 {
        match self {
            Level::Off => 0,
            Level::Summary => 1,
            Level::Detail => 2,
        }
    }
}

/// The process-wide level; 0 until somebody opts in.
static LEVEL: AtomicU8 = AtomicU8::new(0);

/// The current observability level (one relaxed atomic load).
#[inline]
pub fn level() -> Level {
    Level::from_u8(LEVEL.load(Ordering::Relaxed))
}

/// True when summary-level telemetry is on.
#[inline]
pub fn enabled() -> bool {
    LEVEL.load(Ordering::Relaxed) >= 1
}

/// True when detail-level (per-frame/per-slot) telemetry is on.
#[inline]
pub fn detail() -> bool {
    LEVEL.load(Ordering::Relaxed) >= 2
}

/// Sets the process-wide level programmatically (tests, bench).
pub fn set_level(l: Level) {
    LEVEL.store(l.as_u8(), Ordering::Relaxed);
}

/// Reads `ROS_OBS` / `ROS_OBS_FILE` and configures level, clock, and
/// sink accordingly. Call once from binary entry points.
///
/// With `ROS_OBS` unset (or 0) this is a no-op and the process stays
/// [`Level::Off`]. Otherwise the monotonic clock is installed and the
/// ndjson sink goes to `ROS_OBS_FILE` (falling back to stderr if the
/// file cannot be created, and by default).
pub fn init_from_env() {
    let lvl = std::env::var("ROS_OBS").map_or(Level::Off, |v| Level::parse(&v));
    if lvl == Level::Off {
        return;
    }
    install_monotonic_clock();
    if let Ok(path) = std::env::var("ROS_OBS_FILE") {
        if !path.is_empty() {
            sink::install_file_sink(&path);
        }
    }
    set_level(lvl);
}

/// A stage-timing guard: emits `{"ev":"span","stage":...,"dur_ns":...}`
/// on drop and records the duration in the `time.<stage>` histogram.
///
/// Inert (no allocation, no clock read) when the level is
/// [`Level::Off`] at construction.
#[must_use = "a span measures the scope it is bound to; bind it to a `_span` local"]
// lint: allow-dead-pub(RAII guard returned by span(); callers never spell the name)
pub struct Span {
    stage: &'static str,
    start_ns: u64,
    live: bool,
}

/// Opens a span over the current scope.
pub fn span(stage: &'static str) -> Span {
    if !enabled() {
        return Span {
            stage,
            start_ns: 0,
            live: false,
        };
    }
    Span {
        stage,
        start_ns: now_ns(),
        live: true,
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if !self.live {
            return;
        }
        let dur = now_ns().saturating_sub(self.start_ns);
        metrics::hist_time(self.stage, dur);
        let mut line = String::with_capacity(64);
        line.push_str("{\"ev\":\"span\",\"stage\":\"");
        json::push_escaped(&mut line, self.stage);
        line.push_str("\",\"dur_ns\":");
        json::push_u64(&mut line, dur);
        line.push('}');
        sink::write_line(&line);
    }
}

/// Emits one ndjson event at summary level:
/// `{"ev":"<ev>","<k>":<v>,...}`. No-op below [`Level::Summary`].
pub fn event(ev: &str, fields: &[(&str, Value<'_>)]) {
    if !enabled() {
        return;
    }
    emit(ev, fields);
}

/// Emits one ndjson event at detail level. No-op below [`Level::Detail`].
pub fn event_detail(ev: &str, fields: &[(&str, Value<'_>)]) {
    if !detail() {
        return;
    }
    emit(ev, fields);
}

fn emit(ev: &str, fields: &[(&str, Value<'_>)]) {
    let mut line = String::with_capacity(64 + fields.len() * 16);
    line.push_str("{\"ev\":\"");
    json::push_escaped(&mut line, ev);
    line.push('"');
    for (k, v) in fields {
        line.push_str(",\"");
        json::push_escaped(&mut line, k);
        line.push_str("\":");
        v.push_json(&mut line);
    }
    line.push('}');
    sink::write_line(&line);
}

/// Exports every registered metric as one `{"ev":"metric",...}` line
/// (in registration order) and flushes the sink.
pub fn flush() {
    if enabled() {
        for line in metrics::metric_lines() {
            sink::write_line(&line);
        }
    }
    sink::flush();
}

/// A telemetry capture taken by [`capture_scope`].
#[derive(Clone, Debug)]
// lint: allow-dead-pub(returned by capture_scope; callers destructure, never name it)
pub struct CaptureReport {
    /// Every ndjson line emitted inside the scope, in order.
    pub lines: Vec<String>,
    /// JSON array of the metrics touched inside the scope, in fixed
    /// registration order.
    pub metrics: String,
}

/// Runs `f` with telemetry captured into memory, restoring the prior
/// level and sink afterwards (even though `f` may have emitted through
/// them). Metrics are reset on entry and on exit, so the report holds
/// exactly the scope's activity.
///
/// Used by rosbench's traced runs to measure a pass with telemetry on
/// without disturbing a `ROS_OBS` session the user may have
/// configured.
pub fn capture_scope<R>(lvl: Level, f: impl FnOnce() -> R) -> (R, CaptureReport) {
    let prior_level = level();
    let prior_sink = sink::take();
    let buffer = sink::install_memory_sink();
    metrics::reset_metrics();
    set_level(lvl);
    let result = f();
    set_level(prior_level);
    let metrics_snapshot = metrics::metrics_json_touched();
    metrics::reset_metrics();
    let lines = buffer
        .lock()
        .unwrap_or_else(|p| p.into_inner())
        .clone();
    sink::restore(prior_sink);
    (
        result,
        CaptureReport {
            lines,
            metrics: metrics_snapshot,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_parsing() {
        assert_eq!(Level::parse("1"), Level::Summary);
        assert_eq!(Level::parse("2"), Level::Detail);
        assert_eq!(Level::parse("trace"), Level::Detail);
        assert_eq!(Level::parse("summary"), Level::Summary);
        assert_eq!(Level::parse("0"), Level::Off);
        assert_eq!(Level::parse(""), Level::Off);
        assert_eq!(Level::parse("bogus"), Level::Off);
        assert!(Level::Off < Level::Summary && Level::Summary < Level::Detail);
    }

    #[test]
    fn level_round_trips_through_u8() {
        for l in [Level::Off, Level::Summary, Level::Detail] {
            assert_eq!(Level::from_u8(l.as_u8()), l);
        }
    }

}
