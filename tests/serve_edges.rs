//! Edge-case tests for the corridor reader service: zero-encounter
//! corridors, single-frame passes, a panicking shard, and the K=1
//! reuse contract — one mounted-tag design shared by every encounter
//! must build each table kind exactly once per run, observable through
//! the run's own cache statistics.

use ros_cache::{GeomCache, TableKind};
use ros_serve::{run_corridor_with, CorridorConfig};

fn base() -> CorridorConfig {
    CorridorConfig {
        n_radars: 2,
        n_vehicles: 2,
        n_tags: 1,
        channel_capacity: 16,
        chunk_frames: 64,
        ..CorridorConfig::default()
    }
}

/// A corridor with no vehicles (or no tags) has zero encounters: the
/// service must start its workers, produce nothing, and shut down
/// cleanly with an empty, conserved report — not hang on an empty
/// channel or fabricate reads.
#[test]
fn zero_encounter_corridor_completes_empty() {
    for cfg in [
        CorridorConfig {
            n_vehicles: 0,
            ..base()
        },
        CorridorConfig {
            n_tags: 0,
            ..base()
        },
    ] {
        assert!(cfg.encounters().is_empty());
        for workers in [1usize, 4] {
            let r = run_corridor_with(&cfg, workers, &GeomCache::new());
            assert!(r.reads.is_empty(), "no pass, no read");
            assert_eq!(r.decodes, 0);
            assert_eq!(r.frames_produced, 0);
            assert_eq!(r.frames_consumed, 0);
            assert_eq!(r.stalls, 0);
            assert_eq!(r.cache_misses, 0, "no tag was built, no table either");
            assert_eq!(r.cache_hits, 0);
            assert!(r.log().is_empty());
        }
    }
}

/// A frame stride larger than any pass collapses every pass to a
/// single frame — far below the decode minimum. Every pass must still
/// produce a read carrying the typed decode error (never a fabricated
/// empty word), conservation must hold, and the degenerate log must
/// stay worker-count invariant.
#[test]
fn single_frame_passes_surface_typed_failures() {
    let mut cfg = base();
    cfg.reader.frame_stride = 100_000;
    let passes = cfg.encounters().len();
    let reference = run_corridor_with(&cfg, 1, &GeomCache::new());
    assert_eq!(reference.reads.len(), passes, "every pass reports");
    assert_eq!(
        reference.frames_produced,
        u64::try_from(passes).unwrap_or(u64::MAX),
        "one frame per pass"
    );
    assert_eq!(reference.frames_produced, reference.frames_consumed);
    for r in &reference.reads {
        assert!(r.bits.is_none(), "no bits from a one-sample pass");
        assert!(r.error.is_some(), "typed error travels with the read");
    }
    assert_eq!(reference.decoded_reads(), 0);
    let two = run_corridor_with(&cfg, 2, &GeomCache::new());
    assert_eq!(two.log(), reference.log(), "degenerate log still invariant");
}

/// K = 1: one mounted-tag design serves all encounters (the corridor's
/// tags share one stack geometry, and a single radar means a single
/// word), so a whole run must build exactly one shaping profile, one
/// shaped stack and one scatterer table on the run's own cache, no
/// matter how many vehicles pass.
#[test]
fn k1_corridor_misses_each_table_kind_exactly_once() {
    let cfg = CorridorConfig {
        n_radars: 1,
        n_vehicles: 4,
        n_tags: 1,
        ..base()
    };
    let cache = GeomCache::new();
    let report = run_corridor_with(&cfg, 2, &cache);
    assert_eq!(report.reads.len(), 4);
    // The corridor path exercises exactly two table kinds: the DE
    // shaping profile, and two pattern tables (the shaped stack and
    // the per-frequency row-scatterer table).
    assert_eq!(report.cache_misses, 3, "one build per table");
    assert!(report.cache_hits > 0, "reuse must register as hits");
    let snap = cache.snapshot();
    for (kind, tables) in [(TableKind::Shaping, 1), (TableKind::Pattern, 2)] {
        assert_eq!(
            snap.kind(kind).misses,
            tables,
            "{kind:?} built more than once"
        );
    }
}

/// A shard whose decode worker panics must take the run down with it.
/// `zero_pad = 0` makes the spectrum decoder's FFT length zero, which
/// panics inside the worker's `decode_into`. Turning that into a
/// report with zero reads and unconsumed frames would hide the crash
/// behind a plausible-looking short run; the panic has to reach the
/// caller instead.
#[test]
fn shard_panic_propagates_instead_of_short_report() {
    let mut cfg = CorridorConfig {
        n_radars: 2,
        n_vehicles: 1,
        n_tags: 1,
        ..base()
    };
    cfg.reader.decoder.zero_pad = 0;
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        run_corridor_with(&cfg, 2, &GeomCache::new())
    }));
    if let Ok(r) = outcome {
        panic!(
            "shard panic was swallowed: reads = {}, frames produced = {}, consumed = {}",
            r.reads.len(),
            r.frames_produced,
            r.frames_consumed
        );
    }
}
