//! Frozen end-to-end decode fixture (golden test).
//!
//! A 3-stack tag (reference stack + 2 data bits, 8 rows per stack) is
//! driven past at 2 m standoff in fast mode with a fixed seed. The
//! decoded bits, the per-bit normalized peak amplitudes, and the SNR
//! are pinned to checked-in golden values, so *any* numerical drift in
//! the RCS model, the sampling geometry, the resampler, the spectrum
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

/// Golden FNV-1a hash of one short full-pipeline pass (see
/// [`full_pipeline_digest`]): the only Tier-1 pin of IF-level output
/// in absolute terms, so a change to IF synthesis, noise, detection,
/// clustering, the spotlight or the decoder that moves a single bit
/// fails here.
const GOLDEN_FULL_DIGEST: u64 = 0xf601_12ca_da96_02db;

/// The word the full-pipeline pass encodes and must read back.
const FULL_WORD: [bool; 4] = [true, true, false, true];

/// FNV-1a over the 8 bytes of each value, in order.
fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325_u64;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// One IF-level drive-by of a 32-row 4-bit tag past the urban-curb
/// scene (echo gather, IF synthesis, detect, DBSCAN, discrimination,
/// spotlight, decode), every 8th frame over a ±1 m span, hashed over
/// the `f64::to_bits` of the RSS trace, the SNR and the detected
/// centre, and the decoded bits.
fn full_pipeline_digest() -> (u64, Outcome) {
    use ros_scene::ScenePreset;
    let tag = SpatialCode::paper_4bit()
        .encode(&FULL_WORD)
        .expect("4-bit word encodes");
    let mut drive = DriveBy::new(tag, 3.0)
        .with_scene(ScenePreset::UrbanCurb, 0x5ce_11e)
        .with_seed(SEED);
    drive.half_span_m = 1.0;
    let cfg = ReaderConfig {
        frame_stride: 8,
        ..ReaderConfig::full()
    };
    let out = drive.run(&cfg);
    let mut words = Vec::new();
    for s in &out.rss_trace {
        words.extend(
            [
                s.radar_pos.x,
                s.radar_pos.y,
                s.radar_pos.z,
                s.rss.re,
                s.rss.im,
            ]
            .map(f64::to_bits),
        );
    }
    words.push(out.snr_db().unwrap_or(f64::NAN).to_bits());
    if let Some(c) = out.detected_center {
        words.extend([c.x, c.y, c.z].map(f64::to_bits));
    }
    words.extend(out.bits().iter().map(|&b| u64::from(b)));
    (fnv1a(words), out)
}

#[test]
fn golden_full_pipeline_pass() {
    let (digest, out) = full_pipeline_digest();
    assert!(out.detected_center.is_some(), "tag not detected");
    assert_eq!(out.bits(), FULL_WORD, "decoded payload drifted");
    assert_eq!(
        digest, GOLDEN_FULL_DIGEST,
        "full-pipeline digest drifted: {digest:#018x}"
    );
}
