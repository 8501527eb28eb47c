//! Integration tests for the streaming reader path and the corridor
//! service (`ros-serve`): streaming ≡ batch under faults,
//! worker-count invariance of the aggregate read log, explicit
//! backpressure, and the decode-verdict regressions (failed decodes
//! must surface their error, erasure accounting must be exact).

use ros_cache::GeomCache;
use ros_core::encode::SpatialCode;
use ros_core::reader::{DriveBy, PassVerdict, ReaderConfig};
use ros_core::stream::{DriveBySource, FrameSource, PassId, SignRead, StreamingReader};
use ros_core::tag::Tag;
use ros_fault::{FaultKind, FaultPlan};
use ros_serve::{run_corridor_with, CorridorConfig};

/// Runs `f` with this thread's executor pinned to `n` workers.
fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    let _pin = ros_exec::ThreadGuard::pin(Some(n));
    f()
}

fn tag8(bits: &[bool]) -> Tag {
    SpatialCode {
        rows_per_stack: 8,
        ..SpatialCode::paper_4bit()
    }
    .encode(bits)
    .unwrap()
}

fn pid() -> PassId {
    PassId {
        radar: 0,
        vehicle: 0,
        tag: 0,
        seq: 0,
    }
}

/// Drives one pass through the streaming path in `chunk`-event pulls.
fn stream_read(drive: &DriveBy, cfg: &ReaderConfig, chunk: usize) -> SignRead {
    let mut src = DriveBySource::new(drive.clone(), cfg, pid());
    let mut reader = StreamingReader::new(cfg.decoder);
    let mut events = Vec::new();
    let mut read = None;
    loop {
        events.clear();
        let more = src.next_events(chunk, &mut events);
        for ev in events.drain(..) {
            if let Some(r) = reader.ingest(ev) {
                read = Some(r);
            }
        }
        if !more {
            break;
        }
    }
    read.unwrap_or_else(|| reader.finish().pop().expect("one pass"))
}

// ---------------------------------------------------------------------
// Streaming ≡ batch.
// ---------------------------------------------------------------------

/// The streaming source + incremental reader reproduce the batch
/// reader bit for bit under a composite fault plan (drops, duplicates,
/// bursts, tracking spikes), at every chunk size. The batch reader
/// drains the same source, so this pins the decode wiring and the
/// chunking, not a second frame loop.
#[test]
fn streaming_read_matches_batch_under_fault_storm() {
    let cfg = ReaderConfig::fast();
    let drive = DriveBy::new(tag8(&[false, true, true, true]), 2.5)
        .with_seed(31337)
        .with_tracking(ros_scene::tracking::TrackingError {
            drift: 0.04,
            jitter_m: 0.015,
            seed: 8,
        })
        .with_faults(
            FaultPlan::new(55)
                .with(FaultKind::FrameDrop, 0.10)
                .with(FaultKind::FrameDuplicate, 0.06)
                .with(FaultKind::InterferenceBurst { excess_db: 10.0 }, 0.05)
                .with(FaultKind::TrackingSpike { magnitude_m: 0.3 }, 0.04),
        );
    let batch = drive.run(&cfg);
    for chunk in [2usize, 3, 41, 500] {
        let streamed = stream_read(&drive, &cfg, chunk);
        assert_eq!(
            streamed.bits.as_deref(),
            batch.decoded_bits(),
            "chunk {chunk}"
        );
        assert_eq!(
            streamed.snr_db.map(f64::to_bits),
            batch.snr_db().map(f64::to_bits),
            "chunk {chunk}"
        );
        assert_eq!(streamed.verdict, batch.verdict, "chunk {chunk}");
        assert_eq!(streamed.n_frames, batch.rss_trace.len(), "chunk {chunk}");
    }
}

// ---------------------------------------------------------------------
// Corridor service: worker-count invariance + conservation.
// ---------------------------------------------------------------------

fn corridor() -> CorridorConfig {
    CorridorConfig {
        n_radars: 3,
        n_vehicles: 2,
        n_tags: 1,
        channel_capacity: 16,
        chunk_frames: 64,
        ..CorridorConfig::default()
    }
}

/// The aggregate read log is bit-identical at 1, 2, and 8 workers, and
/// every frame produced is consumed (no silent drops anywhere).
#[test]
fn corridor_read_log_is_worker_count_invariant() {
    let cfg = corridor();
    let reference = run_corridor_with(&cfg, 1, &GeomCache::new());
    assert_eq!(reference.reads.len(), 6);
    assert!(reference.decoded_reads() >= 1, "smoke floor: >= 1 decode");
    for workers in [2usize, 8] {
        let r = run_corridor_with(&cfg, workers, &GeomCache::new());
        assert_eq!(r.log(), reference.log(), "{workers} workers");
        assert_eq!(r.log_digest(), reference.log_digest(), "{workers} workers");
        assert_eq!(r.frames_produced, r.frames_consumed, "{workers} workers");
        assert_eq!(r.frames_produced, reference.frames_produced);
        assert!(r.max_occupancy <= r.capacity, "{workers} workers");
    }
}

/// `workers = 0` resolves through `ros_exec::threads()`, so the pinned
/// executor width drives the service the same way it drives `par_map`
/// — and the log still matches the serial reference.
#[test]
fn corridor_auto_worker_resolution_follows_executor() {
    let cfg = corridor();
    let reference = run_corridor_with(&cfg, 1, &GeomCache::new());
    let auto = with_threads(3, || run_corridor_with(&cfg, 0, &GeomCache::new()));
    assert_eq!(auto.workers, 3);
    assert_eq!(auto.log(), reference.log());
}

// ---------------------------------------------------------------------
// Backpressure: bounded channels block (and count), never drop.
// ---------------------------------------------------------------------

/// A deliberately slow consumer forces the producer into its blocking
/// path: occupancy never exceeds the bound, every blocking send is
/// counted, and every item still arrives (conservation).
#[test]
fn slow_consumer_backpressure_blocks_and_conserves() {
    use ros_exec::channel::bounded;
    const CAP: usize = 4;
    const ITEMS: usize = 200;
    let (tx, rx) = bounded::<usize>(CAP);
    let received = ros_exec::scope(|s| {
        let producer = s.spawn(move || {
            for i in 0..ITEMS {
                tx.send(i).expect("receiver alive");
            }
        });
        let consumer = s.spawn(move || {
            let mut got = Vec::new();
            while let Some(v) = rx.recv() {
                std::thread::sleep(std::time::Duration::from_micros(150));
                got.push(v);
            }
            (got, rx.stats())
        });
        producer.join().expect("producer");
        consumer.join().expect("consumer")
    });
    let (got, stats) = received;
    assert_eq!(got.len(), ITEMS, "no frame lost or duplicated");
    assert_eq!(got, (0..ITEMS).collect::<Vec<_>>(), "FIFO order");
    assert!(stats.max_occupancy <= CAP, "bound respected");
    assert!(stats.stalls > 0, "slow consumer must stall the producer");
}

/// At the service level: a tiny channel forces stalls, the report
/// counts them, and conservation still holds.
#[test]
fn corridor_with_tiny_channel_stalls_but_conserves() {
    let cfg = CorridorConfig {
        channel_capacity: 2,
        chunk_frames: 32,
        ..corridor()
    };
    let r = run_corridor_with(&cfg, 2, &GeomCache::new());
    assert!(r.stalls > 0, "capacity 2 must backpressure the producers");
    assert!(r.max_occupancy <= 2);
    assert_eq!(r.frames_produced, r.frames_consumed);
    assert_eq!(
        r.log(),
        run_corridor_with(&corridor(), 2, &GeomCache::new()).log(),
        "capacity does not change physics"
    );
}

// ---------------------------------------------------------------------
// Decode-verdict regressions (the two satellite bugfixes).
// ---------------------------------------------------------------------

/// A pass with too few samples to decode must surface the typed error:
/// `Outcome.decode` is `Err`, the verdict is `NoTag`, and there is no
/// flattened `bits: []` masquerading as a legitimate empty read.
#[test]
fn failed_decode_surfaces_error_instead_of_empty_bits() {
    let mut cfg = ReaderConfig::fast();
    cfg.frame_stride = 100_000; // one sample per pass: below any decode minimum
    let outcome = DriveBy::new(tag8(&[true; 4]), 2.0).run(&cfg);
    let err = outcome.decode.as_ref().expect_err("decode must fail");
    assert!(matches!(
        err,
        ros_core::decode::DecodeError::TooFewSamples { .. }
    ));
    assert_eq!(outcome.verdict, PassVerdict::NoTag);
    assert_eq!(outcome.decoded_bits(), None, "no fabricated read");
    assert!(outcome.bits().is_empty(), "lossy view degrades explicitly");

    // Same contract on the streaming path.
    let streamed = stream_read(&DriveBy::new(tag8(&[true; 4]), 2.0), &cfg, 64);
    assert_eq!(streamed.verdict, PassVerdict::NoTag);
    assert!(streamed.bits.is_none());
    assert!(
        streamed.error.is_some(),
        "typed error travels with the read"
    );
}

/// Erasure indices are sanitized at the verdict boundary: aliased
/// duplicates and out-of-range indices no longer over-count erased
/// slots (the historical `len - erasures.len()` under-counted
/// `bits_resolved`).
#[test]
fn verdict_sanitizes_aliased_and_out_of_range_erasures() {
    use ros_core::decode::DecodeResult;
    let d = DecodeResult {
        bits: vec![true, false, true, true],
        erasures: vec![1, 1, 9, 3, 3],
        ..DecodeResult::default()
    };
    let v = PassVerdict::from_decode(Ok(&d));
    match v {
        PassVerdict::PartialDecode {
            bits_resolved,
            erasures,
        } => {
            assert_eq!(erasures, vec![1, 3], "deduped, bounds-checked, sorted");
            assert_eq!(bits_resolved, 2, "exact: 4 bits - 2 distinct erased");
            assert_eq!(bits_resolved + erasures.len(), d.bits.len());
        }
        other => panic!("expected PartialDecode, got {other:?}"),
    }

    // All-bogus erasures collapse to a clean verdict.
    let clean = DecodeResult {
        bits: vec![true; 4],
        erasures: vec![7, 8, 9],
        ..DecodeResult::default()
    };
    assert_eq!(PassVerdict::from_decode(Ok(&clean)), PassVerdict::Clean);
}

// ---------------------------------------------------------------------
// Memory boundedness of the streaming reader.
// ---------------------------------------------------------------------

/// Decoding many sequential passes through one reader never buffers
/// more than one pass's frames: peak memory is independent of how many
/// passes flow through.
#[test]
fn sequential_passes_keep_peak_memory_at_one_pass() {
    let cfg = ReaderConfig::fast();
    let mut reader = StreamingReader::new(cfg.decoder);
    let mut single_pass_peak = 0usize;
    for round in 0..5u32 {
        let drive = DriveBy::new(tag8(&[true; 4]), 2.0).with_seed(u64::from(round) + 1);
        let mut src = DriveBySource::new(
            drive,
            &cfg,
            PassId {
                seq: round,
                ..pid()
            },
        );
        let mut events = Vec::new();
        loop {
            let more = src.next_events(64, &mut events);
            for ev in events.drain(..) {
                reader.ingest(ev);
            }
            if !more {
                break;
            }
        }
        if round == 0 {
            single_pass_peak = reader.peak_buffered();
        }
    }
    assert_eq!(reader.decodes(), 5);
    assert_eq!(reader.buffered(), 0);
    assert_eq!(
        reader.peak_buffered(),
        single_pass_peak,
        "peak does not grow with pass count"
    );
}
