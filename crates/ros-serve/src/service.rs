//! The sharded streaming service topology.
//!
//! ```text
//!  producer 0 ──SPSC──▶ worker 0 ──┐
//!  producer 1 ──SPSC──▶ worker 1 ──┼─MPSC─▶ aggregator (main thread)
//!  …                   …           │
//!  producer W ──SPSC──▶ worker W ──┘
//! ```
//!
//! Encounters shard by `radar % workers`, so each roadside radar's
//! frame stream stays ordered within its shard. Every producer
//! synthesizes its shard's frames chunk by chunk through a
//! [`DriveBySource`](ros_core::stream::DriveBySource) and pushes each
//! chunk into a *bounded* SPSC channel with one `send_all` — one lock
//! round-trip per chunk; the worker takes at most one chunk per
//! `recv_into`. When the decode worker falls behind, the producer
//! **blocks** — a stall is counted (`serve.backpressure_stalls`),
//! nothing is ever dropped. Capacity and occupancy still count events.
//! Workers run one
//! [`StreamingReader`](ros_core::stream::StreamingReader) each
//! (scratch arenas and pass buffers amortized across the whole shard)
//! and fan their [`SignRead`]s into a bounded MPSC channel the main
//! thread drains.
//!
//! ## Worker-count invariance
//!
//! Each encounter is physically self-contained (own RNG substream, own
//! decode state), so the *set* of reads is independent of sharding;
//! sorting by [`PassId`](ros_core::stream::PassId) makes the log
//! bit-identical at any worker count. [`ServeReport::log`] is that
//! canonical form; `tests/serve_stream.rs` pins 1 ≡ 2 ≡ 8 workers.

use crate::corridor::CorridorConfig;
use ros_cache::GeomCache;
use ros_core::stream::{FrameSource, SignRead, StreamEvent, StreamingReader};
use ros_em::units::cast::AsF64;
use ros_exec::channel::{bounded, ChannelStats};
use ros_obs::names;

/// Aggregate outcome of one corridor run.
#[derive(Clone, Debug)]
pub struct ServeReport {
    /// Every pass's read, sorted by canonical
    /// [`PassId`](ros_core::stream::PassId) order.
    pub reads: Vec<SignRead>,
    /// Frame events emitted by producers.
    pub frames_produced: u64,
    /// Frame events consumed by decode workers. Conservation
    /// (`frames_produced == frames_consumed`) is part of the
    /// no-silent-drop contract.
    pub frames_consumed: u64,
    /// Passes decoded.
    pub decodes: u64,
    /// Blocking sends across all frame channels (backpressure events).
    pub stalls: u64,
    /// High-water channel occupancy across all frame channels.
    pub max_occupancy: usize,
    /// Configured frame-channel capacity.
    pub capacity: usize,
    /// High-water mark of simultaneously open passes in any worker.
    pub peak_open: usize,
    /// High-water mark of buffered frames in any worker — the memory
    /// bound.
    pub peak_buffered: usize,
    /// Shard/worker count the run used.
    pub workers: usize,
    /// Geometry/EM table-cache hits during this run (0 when the run
    /// was uncached).
    pub cache_hits: u64,
    /// Geometry/EM table-cache misses (= tables built) during this
    /// run. Worker-count invariant: each distinct key builds exactly
    /// once per cache regardless of sharding.
    pub cache_misses: u64,
}

impl ServeReport {
    /// The canonical read log: one [`SignRead::log_line`] per pass, in
    /// [`PassId`](ros_core::stream::PassId) order, newline-joined.
    /// Bit-identical across worker counts.
    pub fn log(&self) -> String {
        let mut s = String::new();
        for r in &self.reads {
            s.push_str(&r.log_line());
            s.push('\n');
        }
        s
    }

    /// FNV-1a digest of [`ServeReport::log`] — a compact equality
    /// token for the worker-count invariance proof.
    pub fn log_digest(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in self.log().bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }

    /// Reads that produced trusted or partial bits (decode succeeded).
    pub fn decoded_reads(&self) -> usize {
        self.reads.iter().filter(|r| r.bits.is_some()).count()
    }
}

/// Frame events among `events`.
fn frame_count(events: &[StreamEvent]) -> u64 {
    let n = events
        .iter()
        .filter(|ev| matches!(ev, StreamEvent::Frame { .. }))
        .count();
    u64::try_from(n).unwrap_or(u64::MAX)
}

/// Per-shard result carried back from the scoped threads.
struct ShardOutcome {
    produced: u64,
    consumed: u64,
    decodes: u64,
    peak_open: usize,
    peak_buffered: usize,
    stats: ChannelStats,
}

/// Runs the corridor with `workers` shards (`0` = auto: the
/// [`ros_exec::threads`] resolution, so `ROS_EXEC_THREADS` governs the
/// service exactly as it governs `par_map`), all per-radar workers
/// sharing the injected cache.
///
/// Blocks until every pass has decoded; returns the aggregate report
/// with the `serve.*` metric family emitted as a side effect. Every
/// worker reads one cache snapshot, and tables survive across runs
/// that pass the same handle; a caller that wants a cold run passes
/// `&GeomCache::new()`. Reads are bit-identical to the uncached run at
/// any cache temperature — `tests/cache_determinism.rs` pins this.
pub fn run_corridor_with(cfg: &CorridorConfig, workers: usize, cache: &GeomCache) -> ServeReport {
    run_corridor_impl(cfg, workers, Some(cache))
}

/// [`run_corridor_with`] with table caching disabled — every encounter
/// recomputes its design's tables from scratch. The no-memoization
/// reference that `tests/cache_determinism.rs` compares cached runs
/// against.
pub fn run_corridor_uncached(cfg: &CorridorConfig, workers: usize) -> ServeReport {
    run_corridor_impl(cfg, workers, None)
}

fn run_corridor_impl(
    cfg: &CorridorConfig,
    workers: usize,
    cache: Option<&GeomCache>,
) -> ServeReport {
    let workers = if workers == 0 {
        ros_exec::threads()
    } else {
        workers
    }
    .max(1);
    let cache_before = cache.map(|c| c.snapshot());
    let encounters = cfg.encounters();
    let cap = cfg.channel_capacity.max(1);
    let chunk = cfg.chunk_frames;

    let (reads, shards) = ros_exec::scope(|s| {
        let (read_tx, read_rx) = bounded::<SignRead>(cap);
        let mut handles = Vec::with_capacity(workers);
        for shard in 0..workers {
            let (ev_tx, ev_rx) = bounded::<StreamEvent>(cap);
            let shard_encounters: Vec<_> = encounters
                .iter()
                .filter(|e| usize::try_from(e.pass.radar).unwrap_or(0) % workers == shard)
                .copied()
                .collect();
            // Every producer shares the same store (cloning a
            // `GeomCache` clones the handle, not the tables).
            let shard_cache = cache.cloned();
            let producer = s.spawn(move || {
                let mut produced = 0u64;
                let mut buf: Vec<StreamEvent> = Vec::with_capacity(chunk);
                for e in &shard_encounters {
                    let mut src = match &shard_cache {
                        Some(cache) => cfg.source_for_with(e, cache),
                        None => cfg.source_for(e),
                    };
                    loop {
                        let more = src.next_events(chunk, &mut buf);
                        produced += frame_count(&buf);
                        // One chunk per lock; `send_all` drains `buf`.
                        if ev_tx.send_all(&mut buf).is_err() {
                            // Worker side is gone: nothing left to
                            // feed; report what was produced.
                            return produced;
                        }
                        if !more {
                            break;
                        }
                    }
                }
                produced
            });
            let read_tx = read_tx.clone();
            let worker = s.spawn(move || {
                let mut reader = StreamingReader::new(cfg.reader.decoder);
                let mut consumed = 0u64;
                // At most one chunk in hand at a time.
                let mut inbox: Vec<StreamEvent> = Vec::with_capacity(chunk);
                'recv: while ev_rx.recv_into(&mut inbox, chunk) {
                    consumed += frame_count(&inbox);
                    for ev in inbox.drain(..) {
                        let is_end = matches!(ev, StreamEvent::PassEnd { .. });
                        let t_dec = if is_end { ros_obs::clock::now_ns() } else { 0 };
                        if let Some(read) = reader.ingest(ev) {
                            ros_obs::hist(
                                names::SERVE_DECODE_LATENCY_NS,
                                ros_obs::clock::now_ns().saturating_sub(t_dec).as_f64(),
                            );
                            if read_tx.send(read).is_err() {
                                break 'recv;
                            }
                        }
                    }
                }
                for read in reader.finish() {
                    if read_tx.send(read).is_err() {
                        break;
                    }
                }
                let stats = ev_rx.stats();
                (
                    consumed,
                    reader.decodes(),
                    reader.peak_open(),
                    reader.peak_buffered(),
                    stats,
                )
            });
            handles.push((producer, worker));
        }
        // The main thread keeps no sender: drop its clone so the read
        // channel closes once the last worker finishes.
        drop(read_tx);
        let mut reads = Vec::new();
        while let Some(r) = read_rx.recv() {
            reads.push(r);
        }
        // A panicked shard re-raises on this thread: its missing frames
        // and reads must never pass for a short but successful run.
        let shards: Vec<ShardOutcome> = handles
            .into_iter()
            .map(|(p, w)| {
                let produced = p.join().unwrap_or_else(|e| std::panic::resume_unwind(e));
                let (consumed, decodes, peak_open, peak_buffered, stats) =
                    w.join().unwrap_or_else(|e| std::panic::resume_unwind(e));
                ShardOutcome {
                    produced,
                    consumed,
                    decodes,
                    peak_open,
                    peak_buffered,
                    stats,
                }
            })
            .collect();
        (reads, shards)
    });

    let mut reads = reads;
    reads.sort_by_key(|r| r.pass);

    let mut report = ServeReport {
        reads,
        frames_produced: 0,
        frames_consumed: 0,
        decodes: 0,
        stalls: 0,
        max_occupancy: 0,
        capacity: cap,
        peak_open: 0,
        peak_buffered: 0,
        workers,
        cache_hits: 0,
        cache_misses: 0,
    };
    for sh in &shards {
        report.frames_produced += sh.produced;
        report.frames_consumed += sh.consumed;
        report.decodes += sh.decodes;
        report.stalls += sh.stats.stalls;
        report.max_occupancy = report.max_occupancy.max(sh.stats.max_occupancy);
        report.peak_open = report.peak_open.max(sh.peak_open);
        report.peak_buffered = report.peak_buffered.max(sh.peak_buffered);
    }

    // Counters are emitted once, from this serial epilogue, so the
    // exported totals are worker-count invariant.
    ros_obs::count(
        names::SERVE_FRAMES_IN,
        usize::try_from(report.frames_produced).unwrap_or(usize::MAX),
    );
    ros_obs::count(
        names::SERVE_FRAMES_OUT,
        usize::try_from(report.frames_consumed).unwrap_or(usize::MAX),
    );
    ros_obs::count(names::SERVE_READS, report.reads.len());
    ros_obs::count(
        names::SERVE_BACKPRESSURE_STALLS,
        usize::try_from(report.stalls).unwrap_or(usize::MAX),
    );
    ros_obs::gauge(
        names::SERVE_CHANNEL_MAX_OCCUPANCY,
        report.max_occupancy.as_f64(),
    );
    if let (Some(cache), Some(before)) = (cache, cache_before) {
        // Delta export from the same serial epilogue, so `cache.*`
        // totals are worker-count invariant too.
        cache.emit_obs(&before);
        let after = cache.snapshot();
        report.cache_hits = after.hits().saturating_sub(before.hits());
        report.cache_misses = after.misses().saturating_sub(before.misses());
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> CorridorConfig {
        CorridorConfig {
            n_radars: 2,
            n_vehicles: 1,
            n_tags: 1,
            channel_capacity: 8,
            chunk_frames: 32,
            ..CorridorConfig::default()
        }
    }

    #[test]
    fn corridor_decodes_every_pass_and_conserves_frames() {
        let cfg = small();
        let report = run_corridor_with(&cfg, 2, &GeomCache::new());
        assert_eq!(report.reads.len(), 2);
        assert_eq!(report.decodes, 2);
        assert_eq!(report.frames_produced, report.frames_consumed);
        assert!(report.frames_produced > 0);
        assert!(report.max_occupancy <= report.capacity);
        assert!(report.decoded_reads() >= 1, "at least one clean decode");
    }

    #[test]
    fn log_is_worker_count_invariant() {
        let cfg = small();
        let one = run_corridor_with(&cfg, 1, &GeomCache::new());
        let four = run_corridor_with(&cfg, 4, &GeomCache::new());
        assert_eq!(one.log(), four.log());
        assert_eq!(one.log_digest(), four.log_digest());
    }
}
