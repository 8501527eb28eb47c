//! The fixed metric registration order and the typed metric ids.
//!
//! Every metric the pipeline emits is declared here, in the order it
//! appears in exports (the `flush` metric lines), which makes the export
//! order a property of this table — not of which stage happened to
//! touch its metric first, which would vary with configuration and
//! thread scheduling. Code names a metric by its typed id, which a
//! `const fn` checks against [`ALL`] at compile time, so an id cannot
//! drift from the table and a misspelt id or a counter handed to
//! `gauge` does not compile:
//!
//! ```compile_fail
//! ros_obs::count(ros_obs::names::DECODE_OKK, 1);
//! ```
//!
//! ```compile_fail
//! ros_obs::gauge(ros_obs::names::DECODE_OK, 1.0);
//! ```
//!
//! Naming scheme: `<crate-or-stage>.<what>`, dB/meter suffixes spelled
//! out (`_db`, `_m2`). Span durations land in `time.<stage>`.

/// Metric kinds (mirrored by each run's metric table).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Monotonic event count.
    Counter,
    /// Last-written value.
    Gauge,
    /// Count / sum / min / max aggregate.
    Histogram,
}

/// Every pipeline metric, in export order.
pub const ALL: &[(&str, Kind)] = &[
    // Radar front end.
    ("radar.frames_synthesized", Kind::Counter),
    ("radar.cfar_detections", Kind::Counter),
    ("radar.points_per_frame", Kind::Histogram),
    // Clustering.
    ("dsp.dbscan.runs", Kind::Counter),
    ("dsp.dbscan.clusters", Kind::Counter),
    ("dsp.dbscan.noise_points", Kind::Counter),
    // Discrimination.
    ("detector.clusters_scored", Kind::Counter),
    ("detector.tags_classified", Kind::Counter),
    // Decode.
    ("decode.attempts", Kind::Counter),
    ("decode.ok", Kind::Counter),
    ("decode.errors", Kind::Counter),
    ("decode.snr_db", Kind::Histogram),
    ("decode.slot_amp", Kind::Histogram),
    // Fault injection (ros-fault): one counter per injected fault, so
    // traces show exactly what a FaultPlan realized. Emitted from
    // serial reader code only — the export stays thread-invariant.
    ("fault.frames_dropped", Kind::Counter),
    ("fault.frames_duplicated", Kind::Counter),
    ("fault.frames_saturated", Kind::Counter),
    ("fault.bursts_injected", Kind::Counter),
    ("fault.points_corrupted", Kind::Counter),
    ("fault.tracking_spikes", Kind::Counter),
    // Optimizer (ros-optim): DE generations actually run, summed over
    // every minimize call. Emitted once per run, after its serial
    // loop, so the value is thread-count invariant.
    ("optim.de.generations", Kind::Counter),
    // Corridor reader service (ros-serve). Counters are aggregated
    // across workers, so totals are thread-count invariant even though
    // per-worker interleaving is not.
    ("serve.frames_in", Kind::Counter),
    ("serve.frames_out", Kind::Counter),
    ("serve.reads", Kind::Counter),
    ("serve.backpressure_stalls", Kind::Counter),
    ("serve.channel_max_occupancy", Kind::Gauge),
    ("serve.decode_latency_ns", Kind::Histogram),
    // Geometry/EM memo store (ros-cache). Deltas are exported by
    // `GeomCache::emit_obs` from serial epilogues only, so values are
    // thread-count invariant; per-kind miss counters let a smoke test
    // assert "exactly one build per table kind" for a K=1 corridor.
    ("cache.hit", Kind::Counter),
    ("cache.miss", Kind::Counter),
    ("cache.insert", Kind::Counter),
    ("cache.evict", Kind::Counter),
    ("cache.entries", Kind::Gauge),
    ("cache.pattern.miss", Kind::Counter),
    ("cache.dispersion.miss", Kind::Counter),
    ("cache.shaping.miss", Kind::Counter),
    // Reader.
    ("reader.frames", Kind::Counter),
    ("reader.cloud_points", Kind::Gauge),
    ("reader.frames_degraded", Kind::Counter),
    // Stage wall time (span durations), pipeline order.
    ("time.reader.run_fast", Kind::Histogram),
    ("time.reader.run_full", Kind::Histogram),
    ("time.reader.gather_echoes", Kind::Histogram),
    ("time.radar.capture_batch", Kind::Histogram),
    ("time.radar.capture_noise", Kind::Histogram),
    ("time.radar.capture_synth", Kind::Histogram),
    ("time.reader.detect", Kind::Histogram),
    ("time.dsp.dbscan", Kind::Histogram),
    ("time.detector.score", Kind::Histogram),
    ("time.reader.spotlight", Kind::Histogram),
    ("time.decode", Kind::Histogram),
];

/// The id of a [`Kind::Counter`] row of [`ALL`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Counter(pub(crate) usize);

/// The id of a [`Kind::Gauge`] row of [`ALL`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Gauge(pub(crate) usize);

/// The id of a [`Kind::Histogram`] row of [`ALL`]; a span's id is its
/// `time.<stage>` row.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Hist(pub(crate) usize);

/// The index of `name` in [`ALL`]. Evaluated at compile time for every
/// id, so an undeclared name or a kind mismatch is a build error.
const fn row(name: &str, kind: Kind) -> usize {
    let mut i = 0;
    while i < ALL.len() && !str_eq(ALL[i].0, name) {
        i += 1;
    }
    assert!(i < ALL.len(), "metric is not declared in names::ALL");
    let same_kind = matches!(
        (ALL[i].1, kind),
        (Kind::Counter, Kind::Counter)
            | (Kind::Gauge, Kind::Gauge)
            | (Kind::Histogram, Kind::Histogram)
    );
    assert!(
        same_kind,
        "metric is declared in names::ALL with another kind"
    );
    i
}

const fn str_eq(a: &str, b: &str) -> bool {
    let (a, b) = (a.as_bytes(), b.as_bytes());
    let mut i = 0;
    while i < a.len() && i < b.len() && a[i] == b[i] {
        i += 1;
    }
    i == a.len() && i == b.len()
}

const fn counter(name: &str) -> Counter {
    Counter(row(name, Kind::Counter))
}

const fn gauge(name: &str) -> Gauge {
    Gauge(row(name, Kind::Gauge))
}

const fn hist(name: &str) -> Hist {
    Hist(row(name, Kind::Histogram))
}

pub use ids::*;

/// One id per row of [`ALL`]: the name upper-cased, `.` as `_`.
#[expect(
    missing_docs,
    reason = "an id's documentation is the name it is built from"
)]
mod ids {
    use super::{counter, gauge, hist, Counter, Gauge, Hist};

    pub const RADAR_FRAMES_SYNTHESIZED: Counter = counter("radar.frames_synthesized");
    pub const RADAR_CFAR_DETECTIONS: Counter = counter("radar.cfar_detections");
    pub const RADAR_POINTS_PER_FRAME: Hist = hist("radar.points_per_frame");
    pub const DSP_DBSCAN_RUNS: Counter = counter("dsp.dbscan.runs");
    pub const DSP_DBSCAN_CLUSTERS: Counter = counter("dsp.dbscan.clusters");
    pub const DSP_DBSCAN_NOISE_POINTS: Counter = counter("dsp.dbscan.noise_points");
    pub const DETECTOR_CLUSTERS_SCORED: Counter = counter("detector.clusters_scored");
    pub const DETECTOR_TAGS_CLASSIFIED: Counter = counter("detector.tags_classified");
    pub const DECODE_ATTEMPTS: Counter = counter("decode.attempts");
    pub const DECODE_OK: Counter = counter("decode.ok");
    pub const DECODE_ERRORS: Counter = counter("decode.errors");
    pub const DECODE_SNR_DB: Hist = hist("decode.snr_db");
    pub const DECODE_SLOT_AMP: Hist = hist("decode.slot_amp");
    pub const FAULT_FRAMES_DROPPED: Counter = counter("fault.frames_dropped");
    pub const FAULT_FRAMES_DUPLICATED: Counter = counter("fault.frames_duplicated");
    pub const FAULT_FRAMES_SATURATED: Counter = counter("fault.frames_saturated");
    pub const FAULT_BURSTS_INJECTED: Counter = counter("fault.bursts_injected");
    pub const FAULT_POINTS_CORRUPTED: Counter = counter("fault.points_corrupted");
    pub const FAULT_TRACKING_SPIKES: Counter = counter("fault.tracking_spikes");
    pub const OPTIM_DE_GENERATIONS: Counter = counter("optim.de.generations");
    pub const SERVE_FRAMES_IN: Counter = counter("serve.frames_in");
    pub const SERVE_FRAMES_OUT: Counter = counter("serve.frames_out");
    pub const SERVE_READS: Counter = counter("serve.reads");
    pub const SERVE_BACKPRESSURE_STALLS: Counter = counter("serve.backpressure_stalls");
    pub const SERVE_CHANNEL_MAX_OCCUPANCY: Gauge = gauge("serve.channel_max_occupancy");
    pub const SERVE_DECODE_LATENCY_NS: Hist = hist("serve.decode_latency_ns");
    pub const CACHE_HIT: Counter = counter("cache.hit");
    pub const CACHE_MISS: Counter = counter("cache.miss");
    pub const CACHE_INSERT: Counter = counter("cache.insert");
    pub const CACHE_EVICT: Counter = counter("cache.evict");
    pub const CACHE_ENTRIES: Gauge = gauge("cache.entries");
    pub const CACHE_PATTERN_MISS: Counter = counter("cache.pattern.miss");
    pub const CACHE_DISPERSION_MISS: Counter = counter("cache.dispersion.miss");
    pub const CACHE_SHAPING_MISS: Counter = counter("cache.shaping.miss");
    pub const READER_FRAMES: Counter = counter("reader.frames");
    pub const READER_CLOUD_POINTS: Gauge = gauge("reader.cloud_points");
    pub const READER_FRAMES_DEGRADED: Counter = counter("reader.frames_degraded");
    pub const TIME_READER_RUN_FAST: Hist = hist("time.reader.run_fast");
    pub const TIME_READER_RUN_FULL: Hist = hist("time.reader.run_full");
    pub const TIME_READER_GATHER_ECHOES: Hist = hist("time.reader.gather_echoes");
    pub const TIME_RADAR_CAPTURE_BATCH: Hist = hist("time.radar.capture_batch");
    pub const TIME_RADAR_CAPTURE_NOISE: Hist = hist("time.radar.capture_noise");
    pub const TIME_RADAR_CAPTURE_SYNTH: Hist = hist("time.radar.capture_synth");
    pub const TIME_READER_DETECT: Hist = hist("time.reader.detect");
    pub const TIME_DSP_DBSCAN: Hist = hist("time.dsp.dbscan");
    pub const TIME_DETECTOR_SCORE: Hist = hist("time.detector.score");
    pub const TIME_READER_SPOTLIGHT: Hist = hist("time.reader.spotlight");
    pub const TIME_DECODE: Hist = hist("time.decode");
}
