//! Graceful-degradation coverage: the pathological ends of the fault
//! space must come back as *typed* outcomes — `PassVerdict::NoTag`,
//! `PassVerdict::PartialDecode` — never as a panic or a NaN leaking
//! out of the pipeline.

use ros_core::encode::SpatialCode;
use ros_core::reader::{DriveBy, Outcome, PassVerdict, ReaderConfig};
use ros_core::tag::Tag;
use ros_fault::{CorruptionMode, FaultKind, FaultPlan};

fn tag8() -> Tag {
    SpatialCode {
        rows_per_stack: 8,
        ..SpatialCode::paper_4bit()
    }
    .encode_with(ros_tests::fixture_cache(), &[true, false, true, true])
    .unwrap()
}

/// The frozen full-pipeline fixture (mirrors `tests/obs_trace.rs`).
fn full_fixture() -> (DriveBy, ReaderConfig) {
    let code = SpatialCode {
        rows_per_stack: 32,
        ..SpatialCode::paper_4bit()
    };
    let tag = code
        .encode_with(ros_tests::fixture_cache(), &[true, false, true, true])
        .unwrap();
    let mut drive = DriveBy::new(tag, 3.0).with_seed(90125);
    drive.half_span_m = 3.0;
    let mut cfg = ReaderConfig::full();
    cfg.frame_stride = 8;
    (drive, cfg)
}

/// No NaN/Inf may escape through any numeric field of the outcome.
fn assert_finite(o: &Outcome, label: &str) {
    for (i, s) in o.rss_trace.iter().enumerate() {
        assert!(
            s.rss.re.is_finite() && s.rss.im.is_finite(),
            "{label}: non-finite RSS sample at index {i}"
        );
    }
    if let Ok(d) = &o.decode {
        for (i, a) in d.slot_amplitudes.iter().enumerate() {
            assert!(
                a.is_finite(),
                "{label}: non-finite slot amplitude at slot {i}"
            );
        }
    }
    if let Some(snr) = o.snr_db() {
        assert!(snr.is_finite(), "{label}: non-finite SNR");
    }
}

#[test]
fn all_frames_dropped_in_fast_mode_is_typed_no_tag() {
    let drive = DriveBy::new(tag8(), 2.0)
        .with_seed(3)
        .with_faults(FaultPlan::single(1, FaultKind::FrameDrop, 1.0));
    let o = drive.run(&ReaderConfig::fast());
    assert_eq!(o.verdict, PassVerdict::NoTag);
    assert!(o.bits().is_empty(), "dropped pass must decode no bits");
    assert!(o.rss_trace.is_empty(), "dropped pass must sample nothing");
    assert!(o.frame_verdicts.iter().all(|v| v.dropped));
    assert_finite(&o, "all-dropped fast");
}

#[test]
fn all_frames_dropped_in_full_mode_is_typed_no_tag() {
    let (base, cfg) = full_fixture();
    let o = base
        .with_faults(FaultPlan::single(1, FaultKind::FrameDrop, 1.0))
        .run(&cfg);
    assert_eq!(o.verdict, PassVerdict::NoTag);
    assert!(o.detected_center.is_none());
    assert!(o.bits().is_empty());
    assert_finite(&o, "all-dropped full");
}

#[test]
fn all_nan_point_cloud_degrades_without_panicking() {
    let (base, cfg) = full_fixture();
    let plan = FaultPlan::single(
        2,
        FaultKind::PointCorruption {
            mode: CorruptionMode::NaN,
        },
        1.0,
    );
    let o = base.with_faults(plan).run(&cfg);
    // Every native frame feeds DBSCAN nothing but NaN ranges, so the
    // detector must fail *typed* — and nothing downstream may go
    // non-finite.
    assert!(
        o.detected_center.is_none(),
        "an all-NaN cloud must not localize a tag"
    );
    assert_eq!(o.verdict, PassVerdict::NoTag);
    assert_finite(&o, "all-NaN cloud");
    if let Some(c) = o.detected_center {
        assert!(c.x.is_finite() && c.y.is_finite() && c.z.is_finite());
    }
}

#[test]
fn all_inf_point_cloud_degrades_without_panicking() {
    let (base, cfg) = full_fixture();
    let plan = FaultPlan::single(
        2,
        FaultKind::PointCorruption {
            mode: CorruptionMode::Inf,
        },
        1.0,
    );
    let o = base.with_faults(plan).run(&cfg);
    assert!(o.detected_center.is_none());
    assert_eq!(o.verdict, PassVerdict::NoTag);
    assert_finite(&o, "all-Inf cloud");
}

#[test]
fn hard_adc_saturation_in_fast_mode_stays_finite_and_typed() {
    // A full-scale rail far below the echo level clips every frame to
    // the same tiny square-wave — decoding may fail or partially
    // succeed, but the verdict must be typed and all numbers finite.
    let drive = DriveBy::new(tag8(), 2.0)
        .with_seed(5)
        .with_faults(FaultPlan::single(
            7,
            FaultKind::AdcSaturation { full_scale: 1e-9 },
            1.0,
        ));
    let o = drive.run(&ReaderConfig::fast());
    assert_finite(&o, "saturated fast");
    assert!(o.frame_verdicts.iter().all(|v| v.saturated));
    match &o.verdict {
        PassVerdict::Clean | PassVerdict::NoTag => {}
        PassVerdict::PartialDecode {
            bits_resolved,
            erasures,
        } => {
            assert!(!erasures.is_empty());
            assert_eq!(bits_resolved + erasures.len(), o.bits().len());
        }
    }
}

#[test]
fn hard_adc_saturation_in_full_mode_stays_finite_and_typed() {
    let (base, cfg) = full_fixture();
    let o = base
        .with_faults(FaultPlan::single(
            7,
            FaultKind::AdcSaturation { full_scale: 1e-9 },
            1.0,
        ))
        .run(&cfg);
    assert_finite(&o, "saturated full");
    // The clipped IF stream carries no tag signature above threshold,
    // so whatever the detector concludes must be expressible as a
    // typed verdict (the match is exhaustive by construction).
    let _ = &o.verdict;
}

#[test]
fn wide_erasure_margin_yields_partial_decode_with_consistent_counts() {
    // Inflating the erasure dead-zone to swallow the whole amplitude
    // range forces every slot into the erasure set: the canonical
    // PartialDecode outcome, with no fault plan involved at all.
    let drive = DriveBy::new(tag8(), 2.0).with_seed(11);
    let mut cfg = ReaderConfig::fast();
    cfg.decoder.erasure_margin = 50.0;
    let o = drive.run(&cfg);
    match &o.verdict {
        PassVerdict::PartialDecode {
            bits_resolved,
            erasures,
        } => {
            assert!(!erasures.is_empty());
            assert_eq!(bits_resolved + erasures.len(), o.bits().len());
            assert!(erasures.iter().all(|&slot| slot < o.bits().len()));
        }
        other => panic!("expected PartialDecode, got {other:?}"),
    }
    assert!(o.verdict.is_degraded());
    assert_finite(&o, "wide erasure margin");
}

#[test]
fn duplicated_every_frame_doubles_the_trace_and_still_decodes() {
    let clean = DriveBy::new(tag8(), 2.0).with_seed(13);
    let doubled = clean
        .clone()
        .with_faults(FaultPlan::single(17, FaultKind::FrameDuplicate, 1.0));
    let cfg = ReaderConfig::fast();
    let a = clean.run(&cfg);
    let b = doubled.run(&cfg);
    assert_eq!(b.rss_trace.len(), 2 * a.rss_trace.len());
    assert!(b.frame_verdicts.iter().all(|v| v.duplicated));
    assert_finite(&b, "all-duplicated fast");
}

#[test]
fn empty_and_nan_sample_streams_decode_to_typed_errors() {
    use ros_core::decode::{decode, DecodeError, DecoderConfig, RssSample};
    use ros_em::{Complex64, Vec3};

    let code = SpatialCode {
        rows_per_stack: 8,
        ..SpatialCode::paper_4bit()
    };
    let center = Vec3::new(0.0, 2.0, 0.0);
    let cfg = DecoderConfig::default();

    let err = decode(&[], center, 0.0, &code, &cfg).unwrap_err();
    assert!(matches!(err, DecodeError::TooFewSamples { got: 0 }));

    // A stream that is *all* NaN must be filtered down to the same
    // typed error, not resampled into a garbage spectrum.
    let poisoned: Vec<RssSample> = (0..64)
        .map(|i| RssSample {
            radar_pos: Vec3::new(-2.0 + 0.0625 * f64::from(i), 0.0, 0.0),
            rss: Complex64::new(f64::NAN, f64::NAN),
        })
        .collect();
    let err = decode(&poisoned, center, 0.0, &code, &cfg).unwrap_err();
    assert!(matches!(err, DecodeError::TooFewSamples { .. }));
}
