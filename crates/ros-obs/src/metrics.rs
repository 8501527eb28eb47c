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

/// Quantile sketch resolution: 4 sub-buckets per power of two keeps
/// the relative estimation error under ~12.5% per sample, which is
/// plenty for p50/p99 latency reporting.
const SUB_PER_OCTAVE: usize = 4;
/// Octaves covered by the sketch; 2^64 ns ≈ 585 years, so every
/// realistic latency/value lands inside the table.
const N_OCTAVES: usize = 64;
/// Total sketch buckets per histogram.
const N_BUCKETS: usize = N_OCTAVES * SUB_PER_OCTAVE;

/// The sketch bucket a sample falls into. Values `<= 1` (including
/// zero, negatives, and NaN) all collapse into bucket 0 — quantile
/// answers are clamped to the exact observed min/max anyway.
#[expect(
    clippy::as_conversions,
    reason = "floor(log2 v) of v > 1 is a small non-negative integer, octave < 64 fits i32, \
              and frac in [0, 1) scaled by 4 truncates to 0..=3"
)]
fn bucket_index(v: f64) -> usize {
    if !(v > 1.0) {
        return 0;
    }
    let octave = (v.log2().floor() as usize).min(N_OCTAVES - 1);
    let base = (2.0f64).powi(octave as i32);
    let frac = (v / base - 1.0).clamp(0.0, 1.0 - f64::EPSILON);
    let sub = (frac * SUB_PER_OCTAVE as f64) as usize;
    octave * SUB_PER_OCTAVE + sub.min(SUB_PER_OCTAVE - 1)
}

/// Representative value (geometric bucket midpoint) of sketch bucket
/// `idx`; callers clamp the answer into the observed `[min, max]`.
#[expect(
    clippy::as_conversions,
    reason = "octave < 64 fits i32 and the sub-bucket index 0..=3 is exact in f64"
)]
fn bucket_value(idx: usize) -> f64 {
    let octave = idx / SUB_PER_OCTAVE;
    let sub = idx % SUB_PER_OCTAVE;
    let base = (2.0f64).powi(octave as i32);
    base * (1.0 + (sub as f64 + 0.5) / SUB_PER_OCTAVE as f64)
}

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
    /// Log₂-bucketed sample counts for [`hist_quantile`]; allocated on
    /// a histogram's first sample, absent for counters/gauges. Not
    /// exported — the JSON/ndjson formats stay count/sum/min/max.
    buckets: Option<Box<[u64; N_BUCKETS]>>,
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
            buckets: None,
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
        m.buckets.get_or_insert_with(|| Box::new([0u64; N_BUCKETS]))[bucket_index(v)] += 1;
    });
}

/// Estimated `q`-quantile (`q` in `[0, 1]`, clamped) of histogram
/// `name` from its log₂-bucketed sketch, or `None` when the metric is
/// unknown, not a histogram, or has no samples since the last reset.
///
/// The estimate is the geometric midpoint of the bucket holding the
/// rank-`⌈q·count⌉` sample, clamped into the exact observed
/// `[min, max]` — so `hist_quantile(n, 0.0)` is the true minimum,
/// `hist_quantile(n, 1.0)` the true maximum, and interior quantiles
/// carry at most one sub-bucket (~12.5%) of relative error. This is
/// how `bench serve` turns `serve.decode_latency_ns` into p50/p99.
pub fn hist_quantile(name: &str, q: f64) -> Option<f64> {
    let reg = REGISTRY.lock().unwrap_or_else(|p| p.into_inner());
    let m = reg.iter().find(|m| m.name == name)?;
    if m.kind != Kind::Histogram || m.count == 0 {
        return None;
    }
    let buckets = m.buckets.as_ref()?;
    let q = if q.is_nan() { 0.5 } else { q.clamp(0.0, 1.0) };
    // The extreme quantiles are tracked exactly; only interior ranks
    // need the sketch.
    if q <= 0.0 {
        return Some(m.min);
    }
    if q >= 1.0 {
        return Some(m.max);
    }
    #[expect(
        clippy::as_conversions,
        reason = "count and a clamped ceil both fit u64 exactly at realistic sample counts"
    )]
    let rank = ((q * m.count as f64).ceil() as u64).max(1);
    let mut cum = 0u64;
    for (i, &c) in buckets.iter().enumerate() {
        cum += c;
        if cum >= rank {
            return Some(bucket_value(i).clamp(m.min, m.max));
        }
    }
    Some(m.max)
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
/// [`reset_metrics`] — what `bench perf` embeds per timed path.
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
        if let Some(b) = m.buckets.as_mut() {
            b.fill(0);
        }
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
    fn hist_quantile_brackets_true_quantiles() {
        let _g = LOCK.lock().unwrap_or_else(|p| p.into_inner());
        crate::set_level(crate::Level::Summary);
        reset_metrics();
        // 1..=1000 µs in ns: true p50 = 500_000, true p99 = 990_000.
        for i in 1..=1000u32 {
            hist("serve.decode_latency_ns", f64::from(i) * 1000.0);
        }
        let p0 = hist_quantile("serve.decode_latency_ns", 0.0).unwrap();
        let p50 = hist_quantile("serve.decode_latency_ns", 0.5).unwrap();
        let p99 = hist_quantile("serve.decode_latency_ns", 0.99).unwrap();
        let p100 = hist_quantile("serve.decode_latency_ns", 1.0).unwrap();
        assert_eq!(p0, 1000.0, "q=0 is the exact min");
        assert_eq!(p100, 1_000_000.0, "q=1 is the exact max");
        assert!(p50 >= 1000.0 && p50 <= p99 && p99 <= p100, "monotone: {p50} {p99}");
        // One sub-bucket of a log2/4 sketch is at most 2^(1/4) ≈ 1.19×
        // wide; allow a generous 25% band around the true values.
        assert!((p50 - 500_000.0).abs() / 500_000.0 < 0.25, "p50 = {p50}");
        assert!((p99 - 990_000.0).abs() / 990_000.0 < 0.25, "p99 = {p99}");
        crate::set_level(crate::Level::Off);
        reset_metrics();
    }

    #[test]
    fn hist_quantile_edge_cases() {
        let _g = LOCK.lock().unwrap_or_else(|p| p.into_inner());
        crate::set_level(crate::Level::Summary);
        reset_metrics();
        // Unknown name / wrong kind / empty histogram all yield None.
        assert_eq!(hist_quantile("no.such.metric", 0.5), None);
        count("decode.attempts", 1);
        assert_eq!(hist_quantile("decode.attempts", 0.5), None);
        assert_eq!(hist_quantile("decode.snr_db", 0.5), None);
        // Non-positive samples collapse into bucket 0 but min/max
        // clamping keeps the answers exact for a constant stream.
        hist("decode.snr_db", 0.0);
        hist("decode.snr_db", 0.0);
        assert_eq!(hist_quantile("decode.snr_db", 0.5), Some(0.0));
        // Out-of-range q is clamped, NaN falls back to the median.
        assert_eq!(hist_quantile("decode.snr_db", -3.0), Some(0.0));
        assert_eq!(hist_quantile("decode.snr_db", 7.0), Some(0.0));
        assert_eq!(hist_quantile("decode.snr_db", f64::NAN), Some(0.0));
        // Reset drops the sketch contents along with the aggregates.
        reset_metrics();
        assert_eq!(hist_quantile("decode.snr_db", 0.5), None);
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
