//! `serve` sub-command: the fleet-scale corridor service benchmark.
//!
//! Runs a corridor (`ros-serve`) end to end — sharded streaming
//! producers, bounded channels, per-worker streaming decoders — and
//! writes `BENCH_serve.json` at the repository root:
//!
//! ```json
//! {
//!   "requested_threads": 4,
//!   "effective_threads": 4,
//!   "available_parallelism": 4,
//!   "valid": true,
//!   "corridor": {"radars": 3, "vehicles": 8, "tags": 2, "passes": 48},
//!   "workers": 4,
//!   "frames": 40000, "reads": 48, "decodes": 48,
//!   "frames_per_sec": 1.0, "decodes_per_sec": 1.0,
//!   "decode_latency_p50_ns": 1.0, "decode_latency_p99_ns": 1.0,
//!   "backpressure_stalls": 0, "channel_max_occupancy": 8,
//!   "channel_capacity": 256, "peak_open_passes": 1,
//!   "peak_buffered_frames": 2000,
//!   "worker_invariance": {"digest_lo": "…", "digest_hi": "…", "equal": true}
//! }
//! ```
//!
//! Latency quantiles come from the `serve.decode_latency_ns` histogram
//! via `ros_obs::hist_quantile` (the log₂-bucket sketch, ~9% relative
//! error). A run whose thread pool resolves to one effective worker
//! measures no concurrency at all, so — exactly like `perf` — the
//! record is marked `"valid": false`, never replaces a checked-in
//! valid record without `--force`, and `--require-valid` exits
//! non-zero on it. The worker-invariance block re-runs the corridor at
//! 1 worker and at `max(8, auto)` workers and proves the canonical
//! read logs digest-equal — the service's output is a function of the
//! scenario, not of the sharding.

use crate::util::should_overwrite;
use ros_cache::GeomCache;
use ros_serve::{run_corridor_uncached, run_corridor_with, CorridorConfig, ServeReport};

/// Corridor shape for the full benchmark (the ISSUE acceptance
/// scenario): 3 radars × 8 vehicles × 2 tags = 48 passes.
fn full_corridor() -> CorridorConfig {
    CorridorConfig {
        n_radars: 3,
        n_vehicles: 8,
        n_tags: 2,
        channel_capacity: 256,
        ..CorridorConfig::default()
    }
}

/// Corridor shape for the cache comparison (the ISSUE 9 acceptance
/// scenario): K = 4 tags, 5 radars × 10 vehicles × 4 tags = 200
/// encounters over at most 20 distinct mounted-tag designs.
fn cache_corridor() -> CorridorConfig {
    CorridorConfig {
        n_radars: 5,
        n_vehicles: 10,
        n_tags: 4,
        channel_capacity: 256,
        ..CorridorConfig::default()
    }
}

/// Reduced CI matrix: 2 radars × 2 vehicles × 1 tag = 4 passes.
fn smoke_corridor() -> CorridorConfig {
    CorridorConfig {
        n_radars: 2,
        n_vehicles: 2,
        n_tags: 1,
        channel_capacity: 64,
        ..CorridorConfig::default()
    }
}

/// Runs the corridor service benchmark and writes `BENCH_serve.json`.
///
/// `smoke` shrinks the corridor for CI; `require_valid` exits non-zero
/// when the record is invalid (single effective worker); `force`
/// allows an invalid record to replace a checked-in valid one.
pub fn run(smoke: bool, require_valid: bool, force: bool) {
    // The latency histogram and throughput clock need live telemetry;
    // keep whatever the user configured, otherwise record quietly into
    // the in-process registry.
    if !ros_obs::enabled() {
        ros_obs::install_memory_sink();
        ros_obs::set_level(ros_obs::Level::Summary);
    }
    ros_obs::install_monotonic_clock();

    let available = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let requested = ros_exec::threads();
    let effective = requested.min(available);
    let valid = effective > 1;
    let cfg = if smoke { smoke_corridor() } else { full_corridor() };
    let passes = cfg.encounters().len();
    println!(
        "corridor serve: {} radars x {} vehicles x {} tags = {passes} passes \
         ({requested} requested, {effective} effective of {available} cores)",
        cfg.n_radars, cfg.n_vehicles, cfg.n_tags
    );
    if !valid {
        eprintln!(
            "WARNING: the thread pool resolves to a single effective worker on this \
             machine; producer/worker concurrency is cooperative only and throughput \
             is not a scaling result. BENCH_serve.json will be marked \"valid\": false."
        );
    }

    let report = run_corridor_with(&cfg, 0, &GeomCache::new());
    let secs = report.elapsed_ns as f64 / 1e9;
    let fps = if secs > 0.0 {
        report.frames_consumed as f64 / secs
    } else {
        f64::NAN
    };
    let dps = if secs > 0.0 {
        report.decodes as f64 / secs
    } else {
        f64::NAN
    };
    let p50 = ros_obs::hist_quantile("serve.decode_latency_ns", 0.5);
    let p99 = ros_obs::hist_quantile("serve.decode_latency_ns", 0.99);

    println!(
        "  {} frames, {} reads ({} decoded) in {:.2} ms with {} workers",
        report.frames_consumed,
        report.reads.len(),
        report.decoded_reads(),
        secs * 1e3,
        report.workers,
    );
    println!("  throughput: {fps:.0} frames/s, {dps:.1} decodes/s");
    println!(
        "  decode latency: p50 {} us, p99 {} us",
        p50.map_or("-".to_string(), |v| format!("{:.0}", v / 1e3)),
        p99.map_or("-".to_string(), |v| format!("{:.0}", v / 1e3)),
    );
    println!(
        "  backpressure: {} stalls, channel high-water {}/{} items, \
         peak {} open passes / {} buffered frames",
        report.stalls,
        report.max_occupancy,
        report.capacity,
        report.peak_open,
        report.peak_buffered,
    );

    // Worker-count invariance: the canonical read log must be
    // bit-identical however the encounters shard.
    let lo = run_corridor_with(&cfg, 1, &GeomCache::new());
    let hi = run_corridor_with(&cfg, report.workers.max(8), &GeomCache::new());
    let equal = lo.log() == hi.log() && lo.log() == report.log();
    println!(
        "  worker invariance (1 vs {} workers): {}",
        report.workers.max(8),
        if equal { "logs identical" } else { "LOGS DIVERGE" },
    );

    // Cache-temperature comparison: cold shared cache, the same cache
    // pre-warmed (a second corridor in the same process — the
    // verify.sh cache stage greps this run's nonzero `cache.hit`), and
    // the no-memoization baseline.
    let ccfg = if smoke { smoke_corridor() } else { cache_corridor() };
    let cb = run_cache_bench(&ccfg);
    let ratio = cb.hit_miss_ratio();
    println!(
        "  cache: {} passes x2, {} hits / {} misses (ratio {ratio:.0}x)",
        cb.passes, cb.hits, cb.misses
    );
    println!(
        "  cache decodes/s: cold {:.1}, warm {:.1}, uncached {:.1} ({})",
        cb.cold_dps,
        cb.warm_dps,
        cb.uncached_dps,
        if cb.logs_equal { "logs identical" } else { "LOGS DIVERGE" },
    );

    let json = render_json(
        requested, effective, available, valid, &cfg, passes, &report, fps, dps, p50, p99, &lo,
        &hi, equal, &cb,
    );
    // The smoke matrix is a CI check, not a benchmark record: its
    // artifact goes under target/ so a verify run can never touch the
    // checked-in corridor record. The overwrite guard protects the
    // real record only.
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    if smoke {
        let path = root.join("target/BENCH_serve_smoke.json");
        match std::fs::write(&path, json) {
            Ok(()) => println!("\nwrote {}", path.display()),
            Err(e) => eprintln!("\nfailed to write {}: {e}", path.display()),
        }
    } else {
        let path = root.join("BENCH_serve.json");
        let existing = std::fs::read_to_string(&path).ok();
        if should_overwrite(existing.as_deref(), valid, force) {
            match std::fs::write(&path, json) {
                Ok(()) => println!("\nwrote {}", path.display()),
                Err(e) => eprintln!("\nfailed to write {}: {e}", path.display()),
            }
        } else {
            eprintln!(
                "\nrefusing to overwrite {}: the checked-in record is \"valid\": true and \
                 this run is not (single effective worker). Pass --force to replace it anyway.",
                path.display()
            );
        }
    }

    if !equal {
        eprintln!("error: read log diverged across worker counts — determinism bug.");
        ros_obs::flush();
        std::process::exit(1);
    }
    if !cb.logs_equal {
        eprintln!("error: read log diverged across cache temperatures — memoization bug.");
        ros_obs::flush();
        std::process::exit(1);
    }
    if require_valid && !valid {
        eprintln!(
            "error: --require-valid was set and this record is \"valid\": false \
             (single effective worker). Refusing to bless it."
        );
        ros_obs::flush();
        std::process::exit(1);
    }
}

/// Results of the cache-temperature comparison: one corridor decoded
/// with a cold shared cache, again with the (now warm) cache, and once
/// with memoization disabled.
struct CacheBench {
    /// Encounters per corridor run.
    passes: usize,
    /// Cache hits across the cold + warm runs.
    hits: u64,
    /// Cache misses across the cold + warm runs (the distinct tables).
    misses: u64,
    /// Decodes/sec of the cold-cache run.
    cold_dps: f64,
    /// Decodes/sec of the warm-cache run.
    warm_dps: f64,
    /// Decodes/sec of the uncached baseline.
    uncached_dps: f64,
    /// Whether all three read logs are bit-identical (they must be:
    /// cache temperature is not allowed to change physics).
    logs_equal: bool,
}

impl CacheBench {
    fn hit_miss_ratio(&self) -> f64 {
        if self.misses == 0 {
            f64::INFINITY
        } else {
            self.hits as f64 / self.misses as f64
        }
    }
}

/// Runs the corridor three times — cold cache, warm cache, no cache —
/// and gathers the comparison.
fn run_cache_bench(cfg: &CorridorConfig) -> CacheBench {
    let decodes_per_sec = |r: &ServeReport| {
        let secs = r.elapsed_ns as f64 / 1e9;
        if secs > 0.0 {
            r.decodes as f64 / secs
        } else {
            f64::NAN
        }
    };
    let cache = GeomCache::new();
    let cold = run_corridor_with(cfg, 0, &cache);
    let warm = run_corridor_with(cfg, 0, &cache);
    let uncached = run_corridor_uncached(cfg, 0);
    CacheBench {
        passes: cfg.encounters().len(),
        hits: cold.cache_hits + warm.cache_hits,
        misses: cold.cache_misses + warm.cache_misses,
        cold_dps: decodes_per_sec(&cold),
        warm_dps: decodes_per_sec(&warm),
        uncached_dps: decodes_per_sec(&uncached),
        logs_equal: cold.log() == warm.log() && cold.log() == uncached.log(),
    }
}

/// Hand-rolled JSON (the workspace carries no serde).
#[allow(clippy::too_many_arguments)] // one artifact, one call site
fn render_json(
    requested: usize,
    effective: usize,
    available: usize,
    valid: bool,
    cfg: &CorridorConfig,
    passes: usize,
    report: &ServeReport,
    fps: f64,
    dps: f64,
    p50: Option<f64>,
    p99: Option<f64>,
    lo: &ServeReport,
    hi: &ServeReport,
    equal: bool,
    cb: &CacheBench,
) -> String {
    let q = |v: Option<f64>| v.map_or("null".to_string(), |x| format!("{x:.1}"));
    let mut s = String::from("{\n");
    s.push_str(&format!("  \"requested_threads\": {requested},\n"));
    s.push_str(&format!("  \"effective_threads\": {effective},\n"));
    s.push_str(&format!("  \"available_parallelism\": {available},\n"));
    s.push_str(&format!("  \"valid\": {valid},\n"));
    if !valid {
        s.push_str(
            "  \"invalid_reason\": \"thread pool resolves to one effective worker; \
             service concurrency is cooperative only and throughput is not a scaling \
             result\",\n",
        );
    }
    s.push_str(&format!(
        "  \"corridor\": {{\"radars\": {}, \"vehicles\": {}, \"tags\": {}, \"passes\": {passes}}},\n",
        cfg.n_radars, cfg.n_vehicles, cfg.n_tags
    ));
    s.push_str(&format!("  \"workers\": {},\n", report.workers));
    s.push_str(&format!(
        "  \"frames\": {}, \"reads\": {}, \"decodes\": {},\n",
        report.frames_consumed,
        report.reads.len(),
        report.decodes
    ));
    s.push_str(&format!(
        "  \"frames_per_sec\": {fps:.1}, \"decodes_per_sec\": {dps:.2},\n"
    ));
    s.push_str(&format!(
        "  \"decode_latency_p50_ns\": {}, \"decode_latency_p99_ns\": {},\n",
        q(p50),
        q(p99)
    ));
    s.push_str(&format!(
        "  \"backpressure_stalls\": {}, \"channel_max_occupancy\": {},\n",
        report.stalls, report.max_occupancy
    ));
    s.push_str(&format!(
        "  \"channel_capacity\": {}, \"peak_open_passes\": {}, \"peak_buffered_frames\": {},\n",
        report.capacity, report.peak_open, report.peak_buffered
    ));
    s.push_str(&format!(
        "  \"worker_invariance\": {{\"digest_lo\": \"{:016x}\", \"digest_hi\": \"{:016x}\", \"equal\": {equal}}},\n",
        lo.log_digest(),
        hi.log_digest()
    ));
    let ratio = cb.hit_miss_ratio();
    let ratio_json = if ratio.is_finite() {
        format!("{ratio:.1}")
    } else {
        "null".to_string()
    };
    s.push_str(&format!(
        "  \"cache\": {{\"passes\": {}, \"hits\": {}, \"misses\": {}, \"hit_miss_ratio\": {ratio_json}, \
         \"cold_decodes_per_sec\": {:.2}, \"warm_decodes_per_sec\": {:.2}, \
         \"uncached_decodes_per_sec\": {:.2}, \"logs_equal\": {}}}\n",
        cb.passes, cb.hits, cb.misses, cb.cold_dps, cb.warm_dps, cb.uncached_dps, cb.logs_equal
    ));
    s.push_str("}\n");
    s
}
