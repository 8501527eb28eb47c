//! Headline paper claims, asserted end-to-end across crates.

use ros_antenna::design;
use ros_antenna::shaping;
use ros_antenna::stack::PsvaaStack;
use ros_antenna::vaa::{ArrayKind, VanAttaArray};
use ros_core::capacity;
use ros_core::encode::SpatialCode;
use ros_core::reader::{DriveBy, ReaderConfig};
use ros_em::constants::{F_CENTER_HZ, LAMBDA_CENTER_M};
use ros_em::geom::deg_to_rad;
use ros_em::jones::Polarization;
use ros_em::radar_eq::RadarLinkBudget;
use ros_scene::weather::FogLevel;

#[test]
fn headline_design_rules() {
    // §4.1: optimal pairs = 3 for the 4 GHz automotive sweep.
    assert_eq!(design::optimal_antenna_pairs(4.0e9, F_CENTER_HZ), 3);
    // §5.3 link budget corner cases.
    assert!((capacity::max_decode_range_m(&RadarLinkBudget::ti_eval(), -23.0) - 6.9).abs() < 0.5);
    assert!(
        (capacity::max_decode_range_m(&RadarLinkBudget::commercial(), -23.0) - 52.0).abs() < 4.0
    );
    // §5.2 example layout.
    let code = SpatialCode::paper_4bit();
    let slots: Vec<f64> = code.slot_spacings_lambda();
    assert_eq!(slots, vec![6.0, 7.5, 9.0, 10.5]);
}

#[test]
fn psvaa_stack_of_paper_tag_is_about_10cm() {
    // Fig. 12a: "the height of a 32-array PSVAA stack is about 10.8 cm"
    // (beam-shaped — the phase weights add height over the 8.8 cm
    // uniform baseline).
    let shaped = shaping::shaped_stack_in(ros_tests::fixture_cache(), 32);
    let h = shaped.height_m();
    assert!(h > 0.088 && h < 0.125, "shaped 32-stack height {h} m");
    let uniform = PsvaaStack::uniform(32);
    assert!(shaped.height_m() > uniform.height_m());
}

#[test]
fn retroreflection_beats_specular_at_wide_angles() {
    // Fig. 4: the whole premise of using VAAs.
    let vaa = VanAttaArray::new(ArrayKind::VanAtta, 3);
    let ula = VanAttaArray::new(ArrayKind::Ula, 3);
    for deg in [25.0, 45.0, 60.0] {
        let th = deg_to_rad(deg);
        let v = vaa.monostatic_rcs_dbsm(th, F_CENTER_HZ, Polarization::V, Polarization::V);
        let u = ula.monostatic_rcs_dbsm(th, F_CENTER_HZ, Polarization::V, Polarization::V);
        assert!(v > u + 8.0, "at {deg}°: VAA {v:.1} vs ULA {u:.1}");
    }
}

#[test]
fn detection_ranges_scale_with_stack_size() {
    // Fig. 15: 8-row tags die by ~5 m; 32-row tags still decode at 6 m.
    let mk = |rows: usize| {
        SpatialCode {
            rows_per_stack: rows,
            ..SpatialCode::paper_4bit()
        }
        .encode_with(ros_tests::fixture_cache(), &[true; 4])
        .unwrap()
    };
    let mut drive8 = DriveBy::new(mk(8), 6.0).with_seed(2);
    drive8.half_span_m = 8.0;
    let out8 = drive8.run(&ReaderConfig::fast());
    assert_ne!(out8.bits(), vec![true; 4], "8-row tag should fail at 6 m");

    let mut drive32 = DriveBy::new(mk(32), 6.0).with_seed(2);
    drive32.half_span_m = 8.0;
    let out32 = drive32.run(&ReaderConfig::fast());
    assert_eq!(out32.bits(), vec![true; 4], "32-row tag must decode at 6 m");
}

#[test]
fn beam_shaping_stabilizes_elevation_mismatch() {
    // Fig. 14: at a 4° elevation offset the shaped tag still decodes
    // strongly; the un-shaped tag's RSS collapses.
    let mk = |shaped: bool| {
        SpatialCode {
            rows_per_stack: 32,
            beam_shaped: shaped,
            ..SpatialCode::paper_4bit()
        }
        .encode_with(ros_tests::fixture_cache(), &[true; 4])
        .unwrap()
    };
    let dz = 3.0 * deg_to_rad(4.0).tan();
    let run = |shaped: bool, seed: u64| {
        DriveBy::new(mk(shaped), 3.0)
            .with_radar_height(1.0 + dz)
            .with_seed(seed)
            .run(&ReaderConfig::fast())
    };
    // Median RSS over a few seeds: shaped must be ≥6 dB stronger.
    let med = |shaped: bool| {
        let v: Vec<f64> = (0..3)
            .map(|s| run(shaped, 30 + s).median_rss_dbm())
            .collect();
        ros_dsp::stats::median(&v)
    };
    let with = med(true);
    let without = med(false);
    assert!(
        with > without + 6.0,
        "shaped {with:.1} dBm vs unshaped {without:.1} dBm at 4° offset"
    );
}

#[test]
fn fog_does_not_break_decoding() {
    // Fig. 16c.
    let tag = SpatialCode::paper_4bit()
        .encode_with(ros_tests::fixture_cache(), &[true; 4])
        .unwrap();
    let mut drive = DriveBy::new(tag, 3.0)
        .with_fog(FogLevel::Heavy)
        .with_seed(3);
    drive.half_span_m = 8.0;
    let outcome = drive.run(&ReaderConfig::fast());
    assert_eq!(outcome.bits(), vec![true; 4]);
    assert!(outcome.snr_db().unwrap() > 14.0);
}

#[test]
fn sixty_degree_fov_is_sufficient() {
    // Fig. 17 / §7.3.
    let tag = SpatialCode::paper_4bit()
        .encode_with(ros_tests::fixture_cache(), &[true; 4])
        .unwrap();
    let mut cfg = ReaderConfig::fast();
    cfg.decoder.fov_rad = deg_to_rad(60.0);
    let mut drive = DriveBy::new(tag, 3.0).with_seed(4);
    drive.half_span_m = 8.0;
    let outcome = drive.run(&cfg);
    assert_eq!(outcome.bits(), vec![true; 4]);
}

#[test]
fn driving_speed_does_not_break_decoding() {
    // Fig. 18: 30 mph with every frame kept.
    let tag = SpatialCode::paper_4bit()
        .encode_with(ros_tests::fixture_cache(), &[true; 4])
        .unwrap();
    let mut cfg = ReaderConfig::fast();
    cfg.frame_stride = 1;
    let mut drive = DriveBy::new(tag, 3.0)
        .with_speed(ros_em::constants::mph_to_mps(30.0))
        .with_seed(5);
    drive.half_span_m = 8.0;
    let outcome = drive.run(&cfg);
    assert_eq!(outcome.bits(), vec![true; 4]);
    assert!(outcome.snr_db().unwrap() > 14.0);
}

#[test]
fn mild_tracking_drift_is_tolerated() {
    // Fig. 16d: ≤2% drift (what Wheel-INS-class dead reckoning
    // delivers) leaves decoding intact.
    let tag = SpatialCode::paper_4bit()
        .encode_with(ros_tests::fixture_cache(), &[true; 4])
        .unwrap();
    let mut drive = DriveBy::new(tag, 3.0)
        .with_tracking(ros_scene::tracking::TrackingError::drift(0.02))
        .with_seed(6);
    drive.half_span_m = 8.0;
    let outcome = drive.run(&ReaderConfig::fast());
    assert_eq!(outcome.bits(), vec![true; 4]);
}

#[test]
fn section8_extensions_deliver_their_claims() {
    // ASK: more bits in the same footprint.
    let ask = ros_core::ask::AskCode::four_level();
    assert!(ask.data_bits() > 4.0);
    // CP: +6 dB closes to ≈76 m on a commercial radar.
    let base = capacity::estimated_tag_rcs_dbsm(5, 32, true);
    let cp_range = capacity::max_decode_range_m(
        &RadarLinkBudget::commercial(),
        base + ros_em::circular::CP_RCS_GAIN_DB,
    );
    assert!(cp_range > 70.0, "CP range {cp_range:.0} m");
    // FEC: an order of magnitude at the 14 dB operating point.
    let raw = ros_dsp::stats::ook_ber(10f64.powf(14.0 / 10.0));
    let protected = ros_core::fec::block_error_probability(raw);
    assert!(protected < raw / 5.0);
}

#[test]
fn near_field_decoder_extends_capacity() {
    // The §8 NFFA direction: a 6-bit tag read inside its far field
    // fails on the FFT decoder but succeeds on the matched filter.
    use ros_core::decode::{decode, DecoderConfig};
    use ros_core::nearfield::decode_nearfield;
    use ros_core::reader::{DriveBy, ReaderConfig};

    let code6 = SpatialCode::with_bits(6, 8);
    let bits = [true, true, false, true, false, true];
    let tag = code6
        .encode_with(ros_tests::fixture_cache(), &bits)
        .unwrap();
    let mut drive = DriveBy::new(tag, 4.0).with_seed(66);
    drive.half_span_m = 10.0;
    let outcome = drive.run(&ReaderConfig::fast());
    let center = ros_em::Vec3::new(0.0, 4.0, 1.0);
    let cfg = DecoderConfig::default();
    let fft = decode(&outcome.rss_trace, center, 0.0, &code6, &cfg).unwrap();
    let mf = decode_nearfield(&outcome.rss_trace, center, 0.0, &code6, &cfg).unwrap();
    assert_ne!(fft.bits, bits.to_vec(), "FFT should fail in the near field");
    assert_eq!(mf.bits, bits.to_vec(), "matched filter must succeed");
}

#[test]
fn tag_width_far_field_speed_scale_together() {
    // §5.3 table of tradeoffs, checked as monotonic relations.
    let mut last_width = 0.0;
    let mut last_ff = 0.0;
    for bits in 2..=7 {
        let a = capacity::analyze(&SpatialCode::with_bits(bits, 32), 1000.0);
        assert!(a.width_m > last_width);
        assert!(a.far_field_m > last_ff);
        last_width = a.width_m;
        last_ff = a.far_field_m;
    }
    let lam = LAMBDA_CENTER_M;
    let _ = lam;
}
