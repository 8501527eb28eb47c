//! Counters, gauges, and histograms in a fixed registration order.
//!
//! Each run's table holds one slot per row of [`crate::names::ALL`],
//! indexed by the typed ids, so export order is deterministic
//! regardless of which pipeline stage touches its metric first (or
//! from which worker thread), and an update is an index, not a search.
//!
//! Updates take the run's state lock briefly; the disabled path
//! ([`crate::enabled`] false) returns before ever reaching the lock.

use crate::json;
use crate::names::{Counter, Gauge, Hist, Kind, ALL};
use crate::run;

/// One metric's aggregate state.
#[derive(Clone, Copy)]
struct Slot {
    /// Counter value / histogram sample count.
    count: u64,
    /// Gauge value / histogram sum.
    sum: f64,
    min: f64,
    max: f64,
    /// Whether anything has written to it in this run.
    touched: bool,
}

const EMPTY: Slot = Slot {
    count: 0,
    sum: 0.0,
    min: f64::INFINITY,
    max: f64::NEG_INFINITY,
    touched: false,
};

/// One run's metrics: a slot per row of [`ALL`].
pub(crate) struct Table([Slot; ALL.len()]);

impl Table {
    pub(crate) const fn new() -> Self {
        Table([EMPTY; ALL.len()])
    }

    /// One `{"ev":"metric",...}` ndjson line per touched metric, in
    /// [`ALL`] order (exported by [`crate::flush`]).
    pub(crate) fn lines(&self) -> impl Iterator<Item = String> + '_ {
        ALL.iter()
            .zip(&self.0)
            .filter(|(_, m)| m.touched)
            .map(|(&(name, kind), m)| {
                // A touched histogram has a sample, so its min/max are finite.
                let mut out = String::from("{\"ev\":\"metric\",\"name\":\"");
                json::push_escaped(&mut out, name);
                out.push_str("\",\"kind\":\"");
                out.push_str(match kind {
                    Kind::Counter => "counter",
                    Kind::Gauge => "gauge",
                    Kind::Histogram => "histogram",
                });
                out.push('"');
                match kind {
                    Kind::Counter => {
                        out.push_str(",\"value\":");
                        json::push_u64(&mut out, m.count);
                    }
                    Kind::Gauge => {
                        out.push_str(",\"value\":");
                        json::push_f64(&mut out, m.sum);
                    }
                    Kind::Histogram => {
                        out.push_str(",\"count\":");
                        json::push_u64(&mut out, m.count);
                        out.push_str(",\"sum\":");
                        json::push_f64(&mut out, m.sum);
                        out.push_str(",\"min\":");
                        json::push_f64(&mut out, m.min);
                        out.push_str(",\"max\":");
                        json::push_f64(&mut out, m.max);
                    }
                }
                out.push('}');
                out
            })
    }
}

/// Adds `n` to a counter. No-op when telemetry is off.
#[expect(clippy::as_conversions, reason = "usize widens losslessly to u64")]
pub fn count(id: Counter, n: usize) {
    if crate::enabled() {
        run::with_state(|s| {
            let m = &mut s.metrics.0[id.0];
            m.count += n as u64;
            m.touched = true;
        });
    }
}

/// Sets a gauge to `v`. No-op when telemetry is off.
pub fn gauge(id: Gauge, v: f64) {
    if crate::enabled() {
        run::with_state(|s| {
            let m = &mut s.metrics.0[id.0];
            m.sum = v;
            m.touched = true;
        });
    }
}

/// Records one sample into a histogram. No-op when telemetry is off.
pub fn hist(id: Hist, v: f64) {
    if crate::enabled() {
        run::with_state(|s| {
            let m = &mut s.metrics.0[id.0];
            m.count += 1;
            m.sum += v;
            m.min = m.min.min(v);
            m.max = m.max.max(v);
            m.touched = true;
        });
    }
}

#[cfg(test)]
mod tests {
    use crate::names::{DECODE_ATTEMPTS, DECODE_SNR_DB, READER_CLOUD_POINTS};
    use crate::{capture_scope, count, flush, gauge, hist, Level};

    #[test]
    fn counters_gauges_histograms_aggregate() {
        let ((), lines) = capture_scope(Level::Summary, || {
            count(DECODE_ATTEMPTS, 2);
            count(DECODE_ATTEMPTS, 3);
            gauge(READER_CLOUD_POINTS, 41.0);
            hist(DECODE_SNR_DB, 10.0);
            hist(DECODE_SNR_DB, 20.0);
            flush();
        });
        let json = lines.join("\n");
        assert!(json.contains("\"name\":\"decode.attempts\",\"kind\":\"counter\",\"value\":5"));
        assert!(json.contains("\"name\":\"reader.cloud_points\",\"kind\":\"gauge\",\"value\":41"));
        assert!(json.contains(
            "\"name\":\"decode.snr_db\",\"kind\":\"histogram\",\"count\":2,\"sum\":30,\"min\":10,\"max\":20"
        ));
    }

    #[test]
    fn disabled_updates_are_dropped() {
        let ((), lines) = capture_scope(Level::Off, || {
            count(DECODE_ATTEMPTS, 7);
            hist(DECODE_SNR_DB, 1.0);
            crate::set_level(Level::Summary);
            flush();
        });
        assert!(lines.is_empty(), "{lines:?}");
    }
}
