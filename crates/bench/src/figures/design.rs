//! The paper's in-text design numbers (§4–§5, §8), regenerated.

use crate::util::{f, Table};
use ros_antenna::design;
use ros_core::capacity;
use ros_core::encode::SpatialCode;
use ros_em::constants::{F_CENTER_HZ, LAMBDA_CENTER_M};
use ros_em::geom::rad_to_deg;
use ros_em::radar_eq::RadarLinkBudget;

/// Prints every checkable in-text design figure next to the paper's value.
pub fn design() {
    let mut t = Table::new(
        "In-text design numbers — paper vs reproduced",
        &["quantity", "paper", "ours"],
    );

    let dl = design::max_tl_length_difference_m(4.0e9, F_CENTER_HZ);
    t.row(vec![
        "max TL length difference (λg)".into(),
        "4.94".into(),
        f(dl / ros_em::constants::LAMBDA_GUIDED_79GHZ_M, 2),
    ]);
    t.row(vec![
        "optimal antenna pairs".into(),
        "3".into(),
        format!("{}", design::optimal_antenna_pairs(4.0e9, F_CENTER_HZ)),
    ]);
    let bw = design::stack_beamwidth_rad(32, 0.725 * LAMBDA_CENTER_M, LAMBDA_CENTER_M);
    t.row(vec![
        "32-stack beamwidth (°)".into(),
        "1.1".into(),
        f(rad_to_deg(bw), 2),
    ]);
    t.row(vec![
        "height tolerance at 3 m (cm)".into(),
        "3".into(),
        f(design::height_tolerance_m(bw, 3.0) * 100.0, 1),
    ]);

    let code = SpatialCode::paper_4bit();
    t.row(vec![
        "4-bit tag width (λ)".into(),
        "22.5".into(),
        f(code.width_lambda(), 1),
    ]);
    let a = capacity::analyze(&code, 1000.0);
    t.row(vec![
        "4-bit far-field distance (m)".into(),
        "2.9".into(),
        f(a.far_field_m, 2),
    ]);
    let six = SpatialCode::with_bits(6, 32);
    t.row(vec![
        "6-bit tag width (λ)".into(),
        "34.5".into(),
        f(six.width_lambda(), 1),
    ]);
    t.row(vec![
        "max vehicle speed (m/s)".into(),
        "38.5".into(),
        f(a.max_speed_mps, 1),
    ]);
    t.row(vec![
        "min side-by-side tag spacing at 6 m (m)".into(),
        "1.53".into(),
        f(a.min_tag_separation_m, 2),
    ]);

    let ti = RadarLinkBudget::ti_eval();
    t.row(vec![
        "TI noise floor (dBm)".into(),
        "-62".into(),
        f(ti.noise_floor_dbm(), 1),
    ]);
    t.row(vec![
        "TI max decode range, σ=−23 dBsm (m)".into(),
        "6.9".into(),
        f(capacity::max_decode_range_m(&ti, -23.0), 2),
    ]);
    t.row(vec![
        "commercial radar range (m)".into(),
        "52".into(),
        f(
            capacity::max_decode_range_m(&RadarLinkBudget::commercial(), -23.0),
            1,
        ),
    ]);
    t.row(vec![
        "estimated 32-row tag RCS (dBsm)".into(),
        "-23".into(),
        f(capacity::estimated_tag_rcs_dbsm(5, 32, true), 1),
    ]);

    // SNR↔BER anchors.
    for (snr, paper) in [
        (15.8, "0.10%"),
        (15.0, "0.30%"),
        (14.0, "0.60%"),
        (10.0, "5.7%"),
    ] {
        let ber = ros_dsp::stats::ook_ber(ros_em::db::db_to_pow(snr));
        t.row(vec![
            format!("BER at {snr} dB SNR"),
            paper.into(),
            format!("{:.2}%", ber * 100.0),
        ]);
    }

    t.emit("design");
}
