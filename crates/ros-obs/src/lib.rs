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
//!   gauges, and histograms, named by typed ids, in a *fixed
//!   registration order* ([`names::ALL`]), so two runs always export
//!   metrics in the same sequence regardless of which stage touched
//!   them first.
//! * **Events** ([`event`], [`event_detail`]) emit one ndjson object
//!   per line to the run's sink (stderr, `ROS_OBS_FILE`, or the
//!   in-memory buffer of a [`capture_scope`]).
//!
//! Level, clock, metrics and sink belong to the calling thread's run
//! ([`RunContext`]), which `ros-exec` workers inherit, so concurrent
//! runs never mix. Everything is gated by the run's [`Level`]:
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
//! The disabled path is zero-cost: one thread-local load, no locks,
//! no allocation (asserted by the `zero_alloc` integration test). The
//! crate is std-only and dependency-free so every pipeline crate can
//! depend on it without cycles.

pub mod clock;
mod json;
mod metrics;
pub mod names;
mod run;
mod sink;

pub use clock::install_monotonic_clock;
pub use json::Value;
pub use metrics::{count, gauge, hist};
pub use run::{level, set_level, RunContext};

use clock::now_ns;
use names::Hist;
use sink::Out;

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
}

/// True when summary-level telemetry is on.
#[inline]
pub fn enabled() -> bool {
    level() >= Level::Summary
}

/// True when detail-level (per-frame/per-slot) telemetry is on.
#[inline]
pub fn detail() -> bool {
    level() >= Level::Detail
}

/// Reads `ROS_OBS` / `ROS_OBS_FILE` and starts the calling thread's
/// run accordingly. Call once from binary entry points, before any
/// fan-out.
///
/// With `ROS_OBS` unset (or 0) this is a no-op and the thread stays
/// [`Level::Off`]. Otherwise the monotonic clock is installed and the
/// ndjson sink goes to `ROS_OBS_FILE` (falling back to stderr if the
/// file cannot be created, and by default).
pub fn init_from_env() {
    let lvl = std::env::var("ROS_OBS").map_or(Level::Off, |v| Level::parse(&v));
    if lvl == Level::Off {
        return;
    }
    install_monotonic_clock();
    // An unset or empty path, or a file that cannot be created, means stderr.
    let file = std::env::var("ROS_OBS_FILE")
        .ok()
        .and_then(|p| std::fs::File::create(p).ok());
    run::install(file.map_or(Out::Stderr, |f| Out::File(std::io::BufWriter::new(f))));
    set_level(lvl);
}

/// A stage-timing guard: emits `{"ev":"span","stage":...,"dur_ns":...}`
/// on drop and records the duration in its `time.<stage>` histogram.
///
/// Inert (no allocation, no clock read) when the level is
/// [`Level::Off`] at construction.
#[must_use = "a span measures the scope it is bound to; bind it to a `_span` local"]
// lint: allow-dead-pub(RAII guard returned by span(); callers never spell the name)
pub struct Span {
    id: Hist,
    /// `None` when telemetry was off at construction.
    start_ns: Option<u64>,
}

/// Opens a span over the current scope, timed into `id`'s
/// `time.<stage>` histogram.
pub fn span(id: Hist) -> Span {
    Span {
        id,
        start_ns: enabled().then(now_ns),
    }
}

impl Drop for Span {
    #[expect(
        clippy::as_conversions,
        reason = "span durations are far below 2^53 ns"
    )]
    fn drop(&mut self) {
        let Some(start_ns) = self.start_ns else {
            return;
        };
        let dur = now_ns().saturating_sub(start_ns);
        let name = names::ALL[self.id.0].0;
        let mut line = String::with_capacity(64);
        line.push_str("{\"ev\":\"span\",\"stage\":\"");
        json::push_escaped(&mut line, name.strip_prefix("time.").unwrap_or(name));
        line.push_str("\",\"dur_ns\":");
        json::push_u64(&mut line, dur);
        line.push('}');
        // Precision loss above 2^53 ns (~104 days per span) is acceptable.
        hist(self.id, dur as f64);
        write_line(line);
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
    write_line(line);
}

/// Appends one line to the run's sink; a stderr line is written after
/// the run-state lock is released.
fn write_line(line: String) {
    if let Some(Some(line)) = run::with_state(|s| s.out.push(line)) {
        sink::write_stderr(std::slice::from_ref(&line));
    }
}

/// Exports every touched metric as one `{"ev":"metric",...}` line
/// (in registration order) and flushes the sink. Stderr lines are
/// written after the run-state lock is released.
pub fn flush() {
    let on = enabled();
    let stderr_lines = run::with_state(|s| {
        let lines: Vec<String> = if on {
            s.metrics.lines().filter_map(|line| s.out.push(line)).collect()
        } else {
            Vec::new()
        };
        s.out.flush();
        lines
    });
    if let Some(lines) = stderr_lines {
        sink::write_stderr(&lines);
    }
}

/// Runs `f` in a fresh run at `lvl` — an in-memory sink, zeroed
/// metrics, the caller's clock — and returns every line it emitted
/// (call [`flush`] inside `f` for the metric lines). The caller's run
/// is restored when `f` returns or unwinds.
///
/// Used by rosbench's traced runs to measure a pass with telemetry on
/// without disturbing a `ROS_OBS` session the user may have
/// configured.
pub fn capture_scope<R>(lvl: Level, f: impl FnOnce() -> R) -> (R, Vec<String>) {
    let ctx = RunContext::fresh(lvl, Out::Memory(Vec::new()));
    let result = ctx.within(f);
    let mut lines = Vec::new();
    if let Some(run) = &ctx.run {
        if let Out::Memory(buf) = &mut run.lock().out {
            lines = std::mem::take(buf);
        }
    }
    (result, lines)
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
}
