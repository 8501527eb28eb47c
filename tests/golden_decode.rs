//! Frozen end-to-end decode fixture (golden test).
//!
//! A 3-stack tag (reference stack + 2 data bits, 8 rows per stack) is
//! driven past at 2 m standoff in fast mode with a fixed seed. The
//! decoded bits, the per-bit normalized peak amplitudes, and the SNR
//! are pinned to checked-in golden values, so *any* numerical drift in
//! the RCS model, the sampling geometry, the resampler, the CZT
//! decoder, or the executor wiring shows up as a loud diff instead of
//! a silent quality regression.
//!
//! If a deliberate algorithm change moves these numbers, regenerate
//! them by printing `outcome.decode` from this exact fixture and
//! update the constants together with a CHANGES.md note.

use ros_core::encode::SpatialCode;
use ros_core::reader::{DriveBy, Outcome, ReaderConfig};

/// Fixture seed — arbitrary but frozen.
const SEED: u64 = 0x90_1DE2;

/// Golden decoded payload.
const GOLDEN_BITS: [bool; 2] = [true, true];

/// Golden per-bit peak amplitudes as reported by the decoder
/// (spectrum magnitude at each coding slot), reference-normalized
/// below before comparison.
const GOLDEN_AMPS: [f64; 2] = [14.399565319663589, 13.888325897830049];

/// Golden decode SNR (linear power ratio).
const GOLDEN_SNR_LINEAR: f64 = 200.051197383188423;

/// Golden number of resampled u-grid points the decoder consumed.
const GOLDEN_SAMPLES_USED: usize = 289;

/// Golden RSS trace length (one sample per fast-mode frame).
const GOLDEN_TRACE_LEN: usize = 1001;

/// Golden median RSS over the trace \[dBm\].
const GOLDEN_MEDIAN_RSS_DBM: f64 = -53.1895278382179697;

/// Amplitude/SNR tolerance: the fixture is bit-deterministic, so the
/// tolerance only absorbs printing round-trip error in the goldens.
const TOL: f64 = 1e-9;

fn run_fixture() -> Outcome {
    let code = SpatialCode::with_bits(2, 8);
    let tag = code.encode(&GOLDEN_BITS).expect("2-bit word encodes");
    DriveBy::new(tag, 2.0)
        .with_seed(SEED)
        .run(&ReaderConfig::fast())
}

#[test]
fn golden_bits_and_amplitudes() {
    let outcome = run_fixture();
    assert_eq!(outcome.bits(), GOLDEN_BITS, "decoded payload drifted");

    let decode = outcome.decode.as_ref().expect("fixture decodes");
    assert_eq!(decode.bits, GOLDEN_BITS);
    assert_eq!(decode.slot_amplitudes.len(), GOLDEN_AMPS.len());

    // Per-bit peak amplitudes, normalized to the strongest slot (the
    // classifier's own reference frame).
    let peak = GOLDEN_AMPS.iter().cloned().fold(f64::MIN, f64::max);
    let got_peak = decode
        .slot_amplitudes
        .iter()
        .cloned()
        .fold(f64::MIN, f64::max);
    for (i, (got, want)) in decode.slot_amplitudes.iter().zip(&GOLDEN_AMPS).enumerate() {
        let got_norm = got / got_peak;
        let want_norm = want / peak;
        assert!(
            (got_norm - want_norm).abs() < TOL,
            "slot {i}: normalized amplitude {got_norm} != golden {want_norm}"
        );
        // Raw amplitudes are also frozen (looser only by print round-trip).
        assert!(
            (got - want).abs() < TOL * want.abs(),
            "slot {i}: raw amplitude {got} != golden {want}"
        );
    }
}

/// The steady-state path — plan caches, scratch arenas, per-worker
/// partitioning — must land on the frozen goldens at *any* worker
/// count, not just reproduce itself. 1/2/8 workers each replay the
/// fixture against the same constants.
#[test]
fn golden_holds_at_every_worker_count() {
    for workers in [1usize, 2, 8] {
        let _pin = ros_exec::ThreadGuard::pin(Some(workers));
        let outcome = run_fixture();
        assert_eq!(
            outcome.bits(),
            GOLDEN_BITS,
            "decoded payload drifted at {workers} worker(s)"
        );
        let decode = outcome.decode.as_ref().expect("fixture decodes");
        for (i, (got, want)) in decode.slot_amplitudes.iter().zip(&GOLDEN_AMPS).enumerate() {
            assert!(
                (got - want).abs() < TOL * want.abs(),
                "slot {i}@{workers} workers: amplitude {got} != golden {want}"
            );
        }
        assert!(
            (decode.snr_linear - GOLDEN_SNR_LINEAR).abs() < TOL * GOLDEN_SNR_LINEAR,
            "SNR drifted at {workers} worker(s): {} vs golden {}",
            decode.snr_linear,
            GOLDEN_SNR_LINEAR
        );
        assert_eq!(decode.n_samples_used, GOLDEN_SAMPLES_USED);
        assert_eq!(outcome.rss_trace.len(), GOLDEN_TRACE_LEN);
    }
}

#[test]
fn golden_snr_and_sampling() {
    let outcome = run_fixture();
    let decode = outcome.decode.as_ref().expect("fixture decodes");

    assert!(
        (decode.snr_linear - GOLDEN_SNR_LINEAR).abs() < TOL * GOLDEN_SNR_LINEAR,
        "SNR drifted: {} vs golden {}",
        decode.snr_linear,
        GOLDEN_SNR_LINEAR
    );
    assert_eq!(decode.n_samples_used, GOLDEN_SAMPLES_USED);
    assert_eq!(outcome.rss_trace.len(), GOLDEN_TRACE_LEN);
    assert!(
        (outcome.median_rss_dbm() - GOLDEN_MEDIAN_RSS_DBM).abs() < TOL,
        "median RSS drifted: {} vs golden {}",
        outcome.median_rss_dbm(),
        GOLDEN_MEDIAN_RSS_DBM
    );
}
