//! Figures 16–18: practical vehicular scenarios (§7.3).
//!
//! * Fig. 16a — adjacent-tag interference vs spread angle,
//! * Fig. 16b — adjacent-radar interference vs radar spacing,
//! * Fig. 16c — fog levels,
//! * Fig. 16d — self-tracking error,
//! * Fig. 17 — angular field of view,
//! * Fig. 18 — vehicle speed.

use crate::util::{f, note, snr_median, Table};
use ros_core::encode::SpatialCode;
use ros_core::reader::{DriveBy, ReaderConfig};
use ros_em::constants::mph_to_mps;
use ros_em::geom::deg_to_rad;
use ros_em::Vec3;
use ros_scene::tracking::TrackingError;
use ros_scene::weather::FogLevel;

fn paper_tag(seed: u64) -> ros_core::tag::Tag {
    SpatialCode::paper_4bit()
        .encode(&[true; 4])
        .unwrap_or_else(|e| panic!("tag encode: {e}"))
        .with_column_bow(0.0004, seed)
}

/// Fig. 16a: two tags side by side, spread angle 10°–30° at 3 m.
///
/// Cross-tag fringes appear at the tag-to-tag spacing (≈140–460λ),
/// far above the coding band — but only if the RSS trace satisfies
/// their Nyquist rate. The 1 kHz frame rate does (≈2 mm per frame);
/// the experiment therefore keeps every frame and uses a dense `u`
/// grid, exactly like the real system.
pub fn fig16a() {
    let mut t = Table::new(
        "Fig. 16a — SNR vs adjacent-tag spread angle (dB)",
        &["spread_deg", "SNR"],
    );
    let mut cfg = ReaderConfig::fast();
    cfg.frame_stride = 1;
    cfg.decoder.n_grid = 4096;
    for spread in [10.0, 15.0, 20.0, 25.0, 30.0] {
        let dx = 3.0 * deg_to_rad(spread).tan();
        let second = paper_tag(77).mounted_at(Vec3::new(dx, 3.0, 1.0));
        let drive = DriveBy::new(paper_tag(42), 3.0)
            .with_extra_tag(second)
            .with_seed(1600 + spread as u64);
        let o = drive.run(&cfg);
        t.row(vec![f(spread, 0), f(o.snr_db().unwrap_or(f64::NAN), 1)]);
    }
    t.emit("fig16a");
    note("SNR only slightly increases with spread angle; cross-tag interference negligible.");
}

/// Fig. 16b: a second radar interrogating simultaneously, 1–3 m away.
///
/// The second radar's chirps are asynchronous, so its energy appears
/// as a raised noise floor. The rise is bounded by the tag's
/// retro-directivity (Fig. 4b: 5–13 dB leakage suppression) and falls
/// off with radar separation; we model it as
/// `floor_rise = 7 dB − 2 dB/m · spacing` (clamped at 0).
pub fn fig16b() {
    let mut t = Table::new(
        "Fig. 16b — SNR vs adjacent-radar spacing (dB)",
        &["spacing_m", "floor_rise_dB", "SNR"],
    );
    for step in 0..=4 {
        let spacing = 1.0 + 0.5 * step as f64;
        let rise = (7.0 - 2.0 * spacing).max(0.0);
        let mut drive = DriveBy::new(paper_tag(42), 3.0)
            .with_interference_db(rise)
            .with_seed(1660 + step as u64);
        drive.half_span_m = 8.0;
        let o = drive.run(&ReaderConfig::fast());
        t.row(vec![
            f(spacing, 1),
            f(rise, 1),
            f(o.snr_db().unwrap_or(f64::NAN), 1),
        ]);
    }
    t.emit("fig16b");
    note("SNR slightly increases with separation but stays >15 dB even at 1 m.");
}

/// Fig. 16c: fog levels.
pub fn fig16c() {
    let mut t = Table::new("Fig. 16c — SNR vs fog level (dB)", &["fog", "SNR"]);
    for fog in FogLevel::ALL {
        let mut snrs = Vec::new();
        for seed in 0..4u64 {
            let mut drive = DriveBy::new(paper_tag(42 + seed), 3.0)
                .with_fog(fog)
                .with_seed(1700 + seed);
            drive.half_span_m = 8.0;
            let o = drive.run(&ReaderConfig::fast());
            snrs.push(o.snr_db());
        }
        t.row(vec![fog.label().into(), snr_median(&snrs)]);
    }
    t.emit("fig16c");
    note("median SNR stays above 15 dB across all fog levels.");
}

/// Fig. 16d: relative tracking error 2–10 %.
pub fn fig16d() {
    let mut t = Table::new(
        "Fig. 16d — SNR vs relative tracking error (dB)",
        &["drift_pct", "SNR"],
    );
    for pct in [0.0, 2.0, 4.0, 6.0, 8.0, 10.0] {
        let mut snrs = Vec::new();
        for seed in 0..4u64 {
            let mut drive = DriveBy::new(paper_tag(42 + seed), 3.0)
                .with_tracking(TrackingError {
                    drift: pct / 100.0,
                    jitter_m: 0.0,
                    seed,
                })
                .with_seed(1800 + seed);
            drive.half_span_m = 8.0;
            let o = drive.run(&ReaderConfig::fast());
            snrs.push(o.snr_db());
        }
        t.row(vec![f(pct, 0), snr_median(&snrs)]);
    }
    t.emit("fig16d");
    note("≈20 dB below 6% drift, degrading beyond as coding peaks distort.");
}

/// Beyond Fig. 16c: rain rates (the paper cites 3.2 dB/100 m at
/// 100 mm/h but only tests fog; the model covers both).
pub fn rain_sweep() {
    let mut t = Table::new(
        "Extension — rain rate vs link margin at 79 GHz",
        &["rain_mm_h", "2-way loss @6m (dB)", "2-way loss @52m (dB)"],
    );
    for rate in [0.0, 10.0, 25.0, 50.0, 100.0] {
        let l6 = 2.0 * ros_em::atten::rain_one_way_db(rate, 6.0);
        let l52 = 2.0 * ros_em::atten::rain_one_way_db(rate, 52.0);
        t.row(vec![f(rate, 0), f(l6, 2), f(l52, 2)]);
    }
    t.emit("rain_sweep");
    note("even 100 mm/h rain costs <0.4 dB at 6 m and <3.5 dB at 52 m — radar keeps reading.");
}

/// End-to-end §8 claim: a commercial-grade radar (N_F 9 dB, EIRP
/// 50 dBm) reads the tag from tens of metres.
pub fn commercial_range() {
    let mut t = Table::new(
        "Extension — commercial radar decode range (32-row tag, 30 mph)",
        &["dist_m", "median RSS (dBm)", "SNR (dB)", "bits ok"],
    );
    for d in [10.0, 20.0, 30.0, 40.0, 50.0] {
        let tag = paper_tag(42);
        let mut drive = DriveBy::new(tag, d)
            .with_speed(mph_to_mps(30.0))
            .with_seed(2100 + d as u64);
        drive.half_span_m = (1.2 * d).min(60.0);
        drive.radar.budget = ros_em::radar_eq::RadarLinkBudget::commercial();
        let mut cfg = ReaderConfig::fast();
        cfg.frame_stride = 2;
        let o = drive.run(&cfg);
        t.row(vec![
            f(d, 0),
            f(o.median_rss_dbm(), 1),
            f(o.snr_db().unwrap_or(f64::NAN), 1),
            format!("{}", o.bits() == vec![true; 4]),
        ]);
    }
    t.emit("commercial_range");
    note("§8 predicts ≈52 m from the link budget; the end-to-end simulation confirms decoding at highway standoffs.");
}

/// Fig. 17: angular field of view 20°–100°.
pub fn fig17() {
    let mut t = Table::new("Fig. 17 — SNR vs angular FoV (dB)", &["fov_deg", "SNR"]);
    for fov in [20.0, 40.0, 60.0, 80.0, 100.0] {
        let mut cfg = ReaderConfig::fast();
        cfg.decoder.fov_rad = deg_to_rad(fov);
        let mut drive = DriveBy::new(paper_tag(42), 3.0).with_seed(1900 + fov as u64);
        drive.half_span_m = 8.0;
        let o = drive.run(&cfg);
        t.row(vec![f(fov, 0), f(o.snr_db().unwrap_or(f64::NAN), 1)]);
    }
    t.emit("fig17");
    note("SNR rises slightly from 20° to 80°; 60° FoV is sufficient to decode.");
}

/// Fig. 18: vehicle speed 10–30 mph.
pub fn fig18() {
    let mut t = Table::new("Fig. 18 — SNR vs vehicle speed (dB)", &["speed_mph", "SNR"]);
    for mph in [10.0, 15.0, 20.0, 25.0, 30.0] {
        let mut snrs = Vec::new();
        for seed in 0..3u64 {
            let mut drive = DriveBy::new(paper_tag(42), 3.0)
                .with_speed(mph_to_mps(mph))
                .with_seed(2000 + seed);
            drive.half_span_m = 8.0;
            // Keep every frame at driving speed (the 1 kHz rate is no
            // longer oversampled).
            let mut cfg = ReaderConfig::fast();
            cfg.frame_stride = 1;
            let o = drive.run(&cfg);
            snrs.push(o.snr_db());
        }
        t.row(vec![f(mph, 0), snr_median(&snrs)]);
    }
    t.emit("fig18");
    note("SNR consistently above 14 dB at 10–30 mph (larger spread than cart tests).");
}
