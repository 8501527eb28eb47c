//! End-to-end integration tests: encode → physics → radar → decode.

use ros_core::encode::SpatialCode;
use ros_core::reader::{DriveBy, ReaderConfig};
use ros_em::Vec3;
use ros_scene::objects::{ClutterObject, ObjectClass};

fn code(rows: usize) -> SpatialCode {
    SpatialCode {
        rows_per_stack: rows,
        ..SpatialCode::paper_4bit()
    }
}

#[test]
fn all_16_bit_patterns_roundtrip() {
    // Every 4-bit message must decode exactly in a clean fast-mode
    // pass (except all-zeros, which has no peaks to anchor on — the
    // tag always keeps its reference stack, but an all-empty coding
    // band is indistinguishable from no tag).
    for word in 1u8..16 {
        let bits = [word & 1 != 0, word & 2 != 0, word & 4 != 0, word & 8 != 0];
        let tag = code(8)
            .encode_with(ros_tests::fixture_cache(), &bits)
            .unwrap();
        let outcome = DriveBy::new(tag, 2.5)
            .with_seed(word as u64)
            .run(&ReaderConfig::fast());
        assert_eq!(
            outcome.bits(),
            bits.to_vec(),
            "pattern {word:04b} mis-decoded: {:?}",
            outcome.decode.as_ref().map(|d| &d.slot_amplitudes)
        );
    }
}

#[test]
fn snr_exceeds_paper_floor_in_typical_conditions() {
    // §7: "the decoding SNR of RoS consistently exceeds 14 dB in
    // typical scenarios".
    for (rows, standoff) in [(8, 2.0), (8, 3.0), (16, 3.0), (32, 3.0), (32, 4.0)] {
        let tag = code(rows)
            .encode_with(ros_tests::fixture_cache(), &[true; 4])
            .unwrap();
        let mut drive = DriveBy::new(tag, standoff).with_seed(7);
        drive.half_span_m = 8.0;
        let outcome = drive.run(&ReaderConfig::fast());
        let snr = outcome.snr_db().expect("decode");
        assert!(
            snr > 14.0,
            "rows={rows} standoff={standoff}: SNR {snr:.1} dB"
        );
    }
}

#[test]
fn decode_fails_gracefully_beyond_range() {
    // An 8-row tag at 6 m is under the noise floor (Fig. 15) — the
    // reader must not hallucinate the all-ones pattern.
    let tag = code(8)
        .encode_with(ros_tests::fixture_cache(), &[true; 4])
        .unwrap();
    let mut drive = DriveBy::new(tag, 6.0).with_seed(11);
    drive.half_span_m = 8.0;
    let outcome = drive.run(&ReaderConfig::fast());
    assert_ne!(outcome.bits(), vec![true; 4], "ghost decode at 6 m");
}

#[test]
fn full_pipeline_detects_and_decodes_among_clutter() {
    let bits = [true, false, true, true];
    let tag = code(32)
        .encode_with(ros_tests::fixture_cache(), &bits)
        .unwrap()
        .with_column_bow(0.0004, 5);
    let mut drive = DriveBy::new(tag, 3.0)
        .with_clutter(ClutterObject::new(
            ObjectClass::StreetLamp,
            Vec3::new(1.8, 3.3, 1.0),
            21,
        ))
        .with_seed(90125);
    drive.half_span_m = 3.0;
    let mut cfg = ReaderConfig::full();
    cfg.frame_stride = 8;
    let outcome = drive.run(&cfg);

    // The detector must find the tag near its true position…
    let center = outcome.detected_center.expect("tag detected");
    assert!(
        (center.x - 0.0).abs() < 0.3 && (center.y - 3.0).abs() < 0.3,
        "detected at ({:.2}, {:.2})",
        center.x,
        center.y
    );
    // …and the lamp cluster must not be classified as a tag.
    let lamp_cluster = outcome
        .clusters
        .iter()
        .find(|c| (c.features.center.x - 1.8).abs() < 0.6)
        .expect("lamp cluster");
    assert!(!lamp_cluster.is_tag);
    assert_eq!(outcome.bits(), bits.to_vec());
}

#[test]
fn six_bit_code_needs_far_field_and_a_better_radar() {
    // §5.3's capacity limit, reproduced: a 6-bit tag's coding aperture
    // has a ≈7.6 m far field. Reading it from 4 m (near field) smears
    // the negative-side coding peaks; reading it from beyond the far
    // field needs more link budget than the TI eval radar has — a
    // commercial radar (§8) decodes it cleanly.
    let code6 = SpatialCode::with_bits(6, 8);
    let bits = [true, true, false, true, false, true];

    // Near field with the TI radar: at least one bit corrupted.
    let tag = code6
        .encode_with(ros_tests::fixture_cache(), &bits)
        .unwrap();
    let mut near = DriveBy::new(tag, 4.0).with_seed(66);
    near.half_span_m = 10.0;
    let near_out = near.run(&ReaderConfig::fast());
    assert_ne!(
        near_out.bits(),
        bits.to_vec(),
        "near-field read should fail"
    );

    // Far field with the commercial radar: clean decode.
    let tag = code6
        .encode_with(ros_tests::fixture_cache(), &bits)
        .unwrap();
    let mut far = DriveBy::new(tag, 8.5).with_seed(66);
    far.half_span_m = 14.0;
    far.radar.budget = ros_em::radar_eq::RadarLinkBudget::commercial();
    let far_out = far.run(&ReaderConfig::fast());
    assert_eq!(far_out.bits(), bits.to_vec());
}

#[test]
fn full_pipeline_reads_advertising_board() {
    // Two tags side by side (§5.3's multi-tag boards): the full
    // pipeline must classify BOTH clusters as tags and decode each.
    let bits_a = [true, false, true, true];
    let bits_b = [true, true, false, true];
    let tag_a = code(32)
        .encode_with(ros_tests::fixture_cache(), &bits_a)
        .unwrap()
        .with_column_bow(0.0004, 1);
    let tag_b = code(32)
        .encode_with(ros_tests::fixture_cache(), &bits_b)
        .unwrap()
        .with_column_bow(0.0004, 2)
        .mounted_at(Vec3::new(1.8, 3.0, 1.0));
    let mut drive = DriveBy::new(tag_a, 3.0)
        .with_extra_tag(tag_b)
        .with_seed(808);
    drive.half_span_m = 3.5;
    let mut cfg = ReaderConfig::full();
    cfg.frame_stride = 8;
    let outcome = drive.run(&cfg);
    let tags: Vec<_> = outcome.all_tags.iter().collect();
    assert!(tags.len() >= 2, "found {} tag clusters", tags.len());
    let near_a = tags
        .iter()
        .find(|t| (t.center.x - 0.0).abs() < 0.5)
        .expect("tag A cluster");
    // Note: spotlighting tag A's centre decodes tag A's bits even with
    // tag B 1.8 m away (the board story of Fig. 16a).
    assert_eq!(near_a.decode.bits, bits_a.to_vec());
}

#[test]
fn crowded_scene_preset_still_decodes() {
    use ros_scene::scenario::ScenePreset;
    let bits = [true, false, false, true];
    let tag = code(32)
        .encode_with(ros_tests::fixture_cache(), &bits)
        .unwrap()
        .with_column_bow(0.0004, 9);
    let mut drive = DriveBy::new(tag, 3.0)
        .with_scene(ScenePreset::UrbanCurb, 77)
        .with_seed(909);
    drive.half_span_m = 3.0;
    let mut cfg = ReaderConfig::full();
    cfg.frame_stride = 8;
    let outcome = drive.run(&cfg);
    assert_eq!(outcome.bits(), bits.to_vec());
    // No clutter cluster may be classified as a tag.
    for c in &outcome.clusters {
        if c.is_tag {
            assert!(
                (c.features.center.x).abs() < 0.5,
                "clutter misclassified as tag at {:?}",
                c.features.center
            );
        }
    }
}

#[test]
fn lane_change_pass_still_decodes() {
    // A lane change toward the curb mid-pass changes the standoff
    // continuously; the envelope compensation and u-mapping must
    // absorb it.
    use ros_scene::trajectory::LateralProfile;
    let bits = [true, true, false, true];
    let tag = code(32)
        .encode_with(ros_tests::fixture_cache(), &bits)
        .unwrap();
    let mut drive = DriveBy::new(tag, 3.5)
        .with_lateral(LateralProfile::LaneChange { offset_m: 1.0 })
        .with_seed(707);
    drive.half_span_m = 8.0;
    let outcome = drive.run(&ReaderConfig::fast());
    assert_eq!(outcome.bits(), bits.to_vec());
    assert!(outcome.snr_db().unwrap() > 10.0);
}

#[test]
fn curved_road_pass_still_decodes() {
    use ros_scene::trajectory::LateralProfile;
    let bits = [true, false, true, true];
    let tag = code(32)
        .encode_with(ros_tests::fixture_cache(), &bits)
        .unwrap();
    let mut drive = DriveBy::new(tag, 3.5)
        .with_lateral(LateralProfile::Curve { sagitta_m: 0.7 })
        .with_seed(708);
    drive.half_span_m = 8.0;
    let outcome = drive.run(&ReaderConfig::fast());
    assert_eq!(outcome.bits(), bits.to_vec());
}

#[test]
fn decodes_over_reflective_asphalt() {
    // Two-ray ground bounce ripples the RSS trace with height-dependent
    // fading; the decoder must still read the tag. At 79 GHz asphalt is
    // rough on the wavelength scale (Rayleigh criterion), so the
    // specular coefficient is small (|Γ| ≈ 0.2).
    let bits = [true, false, true, true];
    let tag = code(32)
        .encode_with(ros_tests::fixture_cache(), &bits)
        .unwrap();
    let mut drive = DriveBy::new(tag, 3.0).with_ground(-0.2).with_seed(313);
    drive.half_span_m = 8.0;
    let outcome = drive.run(&ReaderConfig::fast());
    assert_eq!(outcome.bits(), bits.to_vec());
}

#[test]
fn partial_blockage_tolerated_full_blockage_fails() {
    use ros_core::reader::Blockage;
    let bits = [true, false, true, true];
    // A truck shadows ~20% of the usable (±30° FoV) window.
    let tag = code(32)
        .encode_with(ros_tests::fixture_cache(), &bits)
        .unwrap();
    let mut drive = DriveBy::new(tag, 3.0)
        .with_blockage(Blockage {
            t_start_s: 3.13,
            t_end_s: 3.48,
            attenuation_db: 40.0,
        })
        .with_seed(515);
    drive.half_span_m = 8.0;
    let outcome = drive.run(&ReaderConfig::fast());
    assert_eq!(
        outcome.bits(),
        bits.to_vec(),
        "partial blockage should survive"
    );

    // Full-pass metal blockage: §7.3 says decoding fails — and it must
    // not hallucinate the message.
    let tag = code(32)
        .encode_with(ros_tests::fixture_cache(), &bits)
        .unwrap();
    let mut drive = DriveBy::new(tag, 3.0)
        .with_blockage(Blockage {
            t_start_s: 0.0,
            t_end_s: 1e9,
            attenuation_db: 60.0,
        })
        .with_seed(516);
    drive.half_span_m = 8.0;
    let outcome = drive.run(&ReaderConfig::fast());
    assert_ne!(
        outcome.bits(),
        bits.to_vec(),
        "ghost decode through a truck"
    );
}

#[test]
fn deterministic_given_seed() {
    let tag = code(8)
        .encode_with(ros_tests::fixture_cache(), &[true, false, false, true])
        .unwrap();
    let a = DriveBy::new(tag.clone(), 3.0)
        .with_seed(123)
        .run(&ReaderConfig::fast());
    let b = DriveBy::new(tag, 3.0)
        .with_seed(123)
        .run(&ReaderConfig::fast());
    assert_eq!(a.bits(), b.bits());
    assert_eq!(a.snr_db(), b.snr_db());
}
