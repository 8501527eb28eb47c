//! Counters, gauges, and histograms with a fixed registration order.
//!
//! The registry is a mutex-guarded vector pre-populated from
//! [`crate::names::ALL`], so export order is deterministic regardless
//! of which pipeline stage touches its metric first (or from which
//! worker thread). Unknown names are appended after the fixed block.
//!
//! Updates take the registry lock briefly; the disabled path
//! ([`crate::enabled`] false) returns before ever reaching the lock.

use crate::json;
use crate::names::{Kind, ALL};
use std::sync::Mutex;

/// One registered metric with its aggregate state.
struct Metric {
    name: String,
    kind: Kind,
    /// Counter value / histogram sample count.
    count: u64,
    /// Gauge value / histogram sum.
    sum: f64,
    min: f64,
    max: f64,
    /// Whether anything has written to it since the last reset.
    touched: bool,
}

impl Metric {
    fn new(name: &str, kind: Kind) -> Self {
        Metric {
            name: name.to_string(),
            kind,
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            touched: false,
        }
    }
}

static REGISTRY: Mutex<Vec<Metric>> = Mutex::new(Vec::new());

fn with_metric(name: &str, kind: Kind, f: impl FnOnce(&mut Metric)) {
    let mut reg = REGISTRY.lock().unwrap_or_else(|p| p.into_inner());
    if reg.is_empty() {
        reg.extend(ALL.iter().map(|(n, k)| Metric::new(n, *k)));
    }
    let idx = match reg.iter().position(|m| m.name == name) {
        Some(i) => i,
        None => {
            reg.push(Metric::new(name, kind));
            reg.len() - 1
        }
    };
    f(&mut reg[idx]);
}

/// Adds `n` to a counter. No-op when telemetry is off.
#[expect(clippy::as_conversions, reason = "usize widens losslessly to u64")]
pub fn count(name: &str, n: usize) {
    if !crate::enabled() {
        return;
    }
    with_metric(name, Kind::Counter, |m| {
        m.count += n as u64;
        m.touched = true;
    });
}

/// Sets a gauge to `v`. No-op when telemetry is off.
pub fn gauge(name: &str, v: f64) {
    if !crate::enabled() {
        return;
    }
    with_metric(name, Kind::Gauge, |m| {
        m.sum = v;
        m.touched = true;
    });
}

/// Records one sample into a histogram. No-op when telemetry is off.
pub fn hist(name: &str, v: f64) {
    if !crate::enabled() {
        return;
    }
    with_metric(name, Kind::Histogram, |m| {
        m.count += 1;
        m.sum += v;
        m.min = m.min.min(v);
        m.max = m.max.max(v);
        m.touched = true;
    });
}

/// Records a span duration (ns) into the `time.<stage>` histogram.
#[expect(clippy::as_conversions, reason = "span durations are far below 2^53 ns")]
pub(crate) fn hist_time(stage: &str, dur_ns: u64) {
    let mut name = String::with_capacity(5 + stage.len());
    name.push_str("time.");
    name.push_str(stage);
    // Precision loss above 2^53 ns (~104 days per span) is acceptable.
    hist(&name, dur_ns as f64);
}

fn metric_json_body(m: &Metric, out: &mut String) {
    out.push_str("\"name\":\"");
    json::push_escaped(out, &m.name);
    out.push_str("\",\"kind\":\"");
    out.push_str(match m.kind {
        Kind::Counter => "counter",
        Kind::Gauge => "gauge",
        Kind::Histogram => "histogram",
    });
    out.push('"');
    match m.kind {
        Kind::Counter => {
            out.push_str(",\"value\":");
            json::push_u64(out, m.count);
        }
        Kind::Gauge => {
            out.push_str(",\"value\":");
            json::push_f64(out, if m.touched { m.sum } else { 0.0 });
        }
        Kind::Histogram => {
            out.push_str(",\"count\":");
            json::push_u64(out, m.count);
            out.push_str(",\"sum\":");
            json::push_f64(out, m.sum);
            if m.count > 0 {
                out.push_str(",\"min\":");
                json::push_f64(out, m.min);
                out.push_str(",\"max\":");
                json::push_f64(out, m.max);
            }
        }
    }
}

fn snapshot(only_touched: bool) -> String {
    let mut reg = REGISTRY.lock().unwrap_or_else(|p| p.into_inner());
    if reg.is_empty() {
        reg.extend(ALL.iter().map(|(n, k)| Metric::new(n, *k)));
    }
    let mut out = String::from("[");
    let mut first = true;
    for m in reg.iter() {
        if only_touched && !m.touched {
            continue;
        }
        if !first {
            out.push(',');
        }
        first = false;
        out.push('{');
        metric_json_body(m, &mut out);
        out.push('}');
    }
    out.push(']');
    out
}

/// JSON array of every registered metric, in fixed registration order.
pub fn metrics_json() -> String {
    snapshot(false)
}

/// Like [`metrics_json`] but only metrics written since the last
/// [`reset_metrics`] — what [`crate::capture_scope`] reports.
pub fn metrics_json_touched() -> String {
    snapshot(true)
}

/// One `{"ev":"metric",...}` ndjson line per touched metric, in
/// registration order (exported by [`crate::flush`]).
pub(crate) fn metric_lines() -> Vec<String> {
    let reg = REGISTRY.lock().unwrap_or_else(|p| p.into_inner());
    reg.iter()
        .filter(|m| m.touched)
        .map(|m| {
            let mut line = String::from("{\"ev\":\"metric\",");
            metric_json_body(m, &mut line);
            line.push('}');
            line
        })
        .collect()
}

/// Zeroes every metric's state. Registration (and therefore export
/// order) is preserved, including dynamically added names.
pub fn reset_metrics() {
    let mut reg = REGISTRY.lock().unwrap_or_else(|p| p.into_inner());
    for m in reg.iter_mut() {
        m.count = 0;
        m.sum = 0.0;
        m.min = f64::INFINITY;
        m.max = f64::NEG_INFINITY;
        m.touched = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes the unit tests in this module; they share the global
    /// registry and level.
    static LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn counters_gauges_histograms_aggregate() {
        let _g = LOCK.lock().unwrap_or_else(|p| p.into_inner());
        crate::set_level(crate::Level::Summary);
        reset_metrics();
        count("decode.attempts", 2);
        count("decode.attempts", 3);
        gauge("reader.cloud_points", 41.0);
        hist("decode.snr_db", 10.0);
        hist("decode.snr_db", 20.0);
        let json = metrics_json_touched();
        assert!(json.contains("\"name\":\"decode.attempts\",\"kind\":\"counter\",\"value\":5"));
        assert!(json.contains("\"name\":\"reader.cloud_points\",\"kind\":\"gauge\",\"value\":41"));
        assert!(json.contains(
            "\"name\":\"decode.snr_db\",\"kind\":\"histogram\",\"count\":2,\"sum\":30,\"min\":10,\"max\":20"
        ));
        crate::set_level(crate::Level::Off);
        reset_metrics();
    }

    #[test]
    fn disabled_updates_are_dropped() {
        let _g = LOCK.lock().unwrap_or_else(|p| p.into_inner());
        crate::set_level(crate::Level::Off);
        reset_metrics();
        count("decode.attempts", 7);
        hist("decode.snr_db", 1.0);
        crate::set_level(crate::Level::Summary);
        assert_eq!(metrics_json_touched(), "[]");
        crate::set_level(crate::Level::Off);
    }

    #[test]
    fn untouched_metrics_report_zero_state() {
        let _g = LOCK.lock().unwrap_or_else(|p| p.into_inner());
        reset_metrics();
        let json = metrics_json();
        // Histograms with no samples omit min/max (they are not finite).
        assert!(json.contains("\"name\":\"decode.snr_db\",\"kind\":\"histogram\",\"count\":0,\"sum\":0}"));
    }
}
