//! Cache-temperature determinism proofs (ISSUE 9 satellite 1).
//!
//! The `ros-cache` memoization layer must be invisible to physics:
//! a decode through a fresh cache, a pre-warmed cache, or a
//! capacity-1 cache that thrashes on every lookup must produce reads
//! that are `to_bits`-identical to the uncached path — at 1, 2, and
//! 8 executor threads. Any divergence means a cache key is missing
//! an input (two different tables aliased to one key) or a build
//! closure is impure.

use ros_cache::GeomCache;
use ros_core::encode::SpatialCode;
use ros_core::reader::{DriveBy, Outcome, ReaderConfig};
use ros_core::tag::Tag;
use ros_serve::{run_corridor_uncached, run_corridor_with, CorridorConfig};

/// Runs `f` with this thread's executor pinned to `n` workers.
fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    let _pin = ros_exec::ThreadGuard::pin(Some(n));
    f()
}

/// The golden-fixture drive-by (same shape as `golden_decode.rs`):
/// a 2-bit, 8-row beam-shaped tag at 2 m standoff, frozen seed.
fn golden_drive(tag: Tag) -> Outcome {
    DriveBy::new(tag, 2.0)
        .with_seed(0x90_1DE2)
        .run(&ReaderConfig::fast())
}

/// Everything bit-relevant about an outcome, with floats captured as
/// raw bit patterns so "close enough" can never pass.
fn fingerprint(o: &Outcome) -> (Vec<bool>, Option<u64>, Vec<u64>, Vec<u64>) {
    let amps: Vec<u64> = o
        .decode
        .as_ref()
        .map(|d| d.slot_amplitudes.iter().map(|a| a.to_bits()).collect())
        .unwrap_or_default();
    let trace: Vec<u64> = o
        .rss_trace
        .iter()
        .flat_map(|r| [r.rss.re.to_bits(), r.rss.im.to_bits()])
        .collect();
    (o.bits().to_vec(), o.snr_db().map(f64::to_bits), amps, trace)
}

/// The three cache temperatures under test, plus the uncached
/// reference: fresh, pre-warmed (every table already resident), and a
/// capacity-1 cache that evicts on every second distinct key.
fn tag_at_every_temperature(code: &SpatialCode, bits: &[bool]) -> Vec<(&'static str, Tag)> {
    let fresh = GeomCache::new();
    let warm = GeomCache::new();
    // Warm the second cache by building the identical design once.
    let _ = code.encode_with(&warm, bits).expect("warmup encodes");
    let thrash = GeomCache::with_capacity(1);
    vec![
        ("uncached", code.encode(bits).expect("encodes")),
        ("fresh", code.encode_with(&fresh, bits).expect("encodes")),
        (
            "pre-warmed",
            code.encode_with(&warm, bits).expect("encodes"),
        ),
        (
            "capacity-1",
            code.encode_with(&thrash, bits).expect("encodes"),
        ),
    ]
}

#[test]
fn golden_drive_by_is_bit_identical_across_cache_temperatures() {
    let code = SpatialCode::with_bits(2, 8);
    let bits = [true, true];
    let tags = tag_at_every_temperature(&code, &bits);
    for threads in [1usize, 2, 8] {
        let outcomes: Vec<_> = with_threads(threads, || {
            tags.iter()
                .map(|(name, tag)| (*name, fingerprint(&golden_drive(tag.clone()))))
                .collect()
        });
        let (_, reference) = &outcomes[0];
        assert_eq!(reference.0, vec![true, true], "fixture must decode");
        for (name, fp) in &outcomes[1..] {
            assert_eq!(fp, reference, "{name} cache diverged at {threads} threads");
        }
    }
}

/// A capacity-1 cache evicts between the shaping and scatterer-table
/// lookups of a single pass — the worst possible thrashing — and the
/// decode is still bit-identical frame by frame.
#[test]
fn thrashing_cache_rebuilds_but_never_drifts() {
    let code = SpatialCode::with_bits(2, 8);
    let thrash = GeomCache::with_capacity(1);
    let reference = fingerprint(&golden_drive(code.encode(&[true, true]).expect("encodes")));
    for _ in 0..3 {
        let tag = code.encode_with(&thrash, &[true, true]).expect("encodes");
        assert_eq!(fingerprint(&golden_drive(tag)), reference);
    }
    let stats = thrash.snapshot();
    assert!(stats.evictions() > 0, "capacity 1 must evict");
    assert!(thrash.len() <= 1, "capacity bound holds");
}

// ---------------------------------------------------------------------
// Corridor slice: the service-level proof.
// ---------------------------------------------------------------------

fn corridor() -> CorridorConfig {
    CorridorConfig {
        n_radars: 2,
        n_vehicles: 2,
        n_tags: 1,
        channel_capacity: 32,
        chunk_frames: 64,
        ..CorridorConfig::default()
    }
}

/// The corridor read log is digest-identical across cache
/// temperatures and worker counts simultaneously.
#[test]
fn corridor_log_is_invariant_to_cache_temperature_and_workers() {
    let cfg = corridor();
    let reference = with_threads(1, || run_corridor_uncached(&cfg, 1));
    assert!(reference.decoded_reads() >= 1, "smoke floor: >= 1 decode");

    let warm = GeomCache::new();
    let _ = run_corridor_with(&cfg, 1, &warm); // pre-warm every table
    for workers in [1usize, 2, 8] {
        let runs = with_threads(workers, || {
            let fresh = run_corridor_with(&cfg, workers, &GeomCache::new());
            let warmed = run_corridor_with(&cfg, workers, &warm);
            let thrashed = run_corridor_with(&cfg, workers, &GeomCache::with_capacity(1));
            [
                ("fresh", fresh),
                ("pre-warmed", warmed),
                ("capacity-1", thrashed),
            ]
        });
        for (name, r) in &runs {
            assert_eq!(
                r.log(),
                reference.log(),
                "{name} cache diverged at {workers} workers"
            );
            assert_eq!(r.log_digest(), reference.log_digest(), "{name}/{workers}");
        }
        // The pre-warmed cache serves every lookup from memory.
        let (_, warmed) = &runs[1];
        assert_eq!(warmed.cache_misses, 0, "warm run must not rebuild");
        assert!(warmed.cache_hits > 0, "warm run must actually hit");
    }
}
