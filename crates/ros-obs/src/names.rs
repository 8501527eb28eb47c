//! The fixed metric registration order.
//!
//! Every metric the pipeline emits is declared here, in the order it
//! appears in exports (`metrics_json`, the `flush` metric lines).
//! Pre-registering the full set at registry creation makes the export
//! order a property of this table — not of which stage happened to
//! touch its metric first, which would vary with configuration and
//! thread scheduling. Names not in this table still work; they are
//! appended after the fixed block in first-use order.
//!
//! Naming scheme: `<crate-or-stage>.<what>`, dB/meter suffixes spelled
//! out (`_db`, `_m2`). Span durations land in `time.<stage>`.

/// Metric kinds (mirrored by the registry's internal state).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
// lint: allow-dead-pub(tuple component of ALL; consumed positionally)
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
    // every minimize / minimize_par call. Emitted from the serial
    // epilogue of each run, so the value is thread-count invariant.
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
    ("time.reader.detect", Kind::Histogram),
    ("time.dsp.dbscan", Kind::Histogram),
    ("time.detector.score", Kind::Histogram),
    ("time.reader.spotlight", Kind::Histogram),
    ("time.decode", Kind::Histogram),
];
