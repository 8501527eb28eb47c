//! Figure 10: the example 4-bit tag (§5.2).
//!
//! * Fig. 10a layout: 4 coding stacks at +6λ, −7.5λ, +9λ, −10.5λ plus
//!   the reference stack,
//! * Fig. 10b: normalized RCS vs direction,
//! * Fig. 10c: RCS frequency spectrum with the 4 coding peaks.

use crate::util::{f, note, Table};
use ros_cache::GeomCache;
use ros_core::encode::SpatialCode;
use ros_core::rcs_model;
use ros_em::constants::LAMBDA_CENTER_M;

/// Fig. 10b: the multi-stack RCS factor vs azimuth.
pub fn fig10b() {
    let code = SpatialCode::paper_4bit();
    let tag = code
        .encode(&[true; 4])
        .unwrap_or_else(|e| panic!("tag encode: {e}"));
    let pos = tag.stack_positions_m().to_vec();
    let mut t = Table::new(
        "Fig. 10b — 4-bit tag RCS (normalized) vs azimuth",
        &["azimuth_deg", "normalized RCS"],
    );
    let peak = rcs_model::multi_stack_factor(&pos, 0.0, LAMBDA_CENTER_M);
    for deg in (-60..=60).step_by(2) {
        let u = ros_em::geom::deg_to_rad(deg as f64).sin();
        let r = rcs_model::multi_stack_factor(&pos, u, LAMBDA_CENTER_M) / peak;
        t.row(vec![format!("{deg}"), f(r, 4)]);
    }
    t.emit("fig10b");
    note("rapid multi-lobe fringing across azimuth — the spatial code's signature.");
}

/// Fig. 10c: the RCS frequency spectrum of the 4-bit tag.
pub fn fig10c(cache: &GeomCache) {
    let code = SpatialCode::paper_4bit();
    for (label, bits) in [("1111", [true; 4]), ("1010", [true, false, true, false])] {
        let tag = code
            .encode_with(cache, &bits)
            .unwrap_or_else(|e| panic!("tag encode: {e}"));
        let pos = tag.stack_positions_m().to_vec();
        let rcs = rcs_model::sample_rcs_factor(&pos, LAMBDA_CENTER_M, 1.0, 1024);
        let (spacings, mags) = rcs_model::rcs_spectrum(&rcs, 1.0, LAMBDA_CENTER_M, 8);
        let mut t = Table::new(
            &format!("Fig. 10c — RCS frequency spectrum, bits {label}"),
            &["spacing_lambda", "normalized magnitude"],
        );
        let peak = mags.iter().cloned().fold(1e-30, f64::max);
        let mut last = -1.0f64;
        for (s, m) in spacings.iter().zip(mags.iter()) {
            let sl = s / LAMBDA_CENTER_M;
            if sl > 25.0 {
                break;
            }
            if sl - last >= 0.25 {
                t.row(vec![f(sl, 2), f(m / peak, 3)]);
                last = sl;
            }
        }
        t.emit(&format!("fig10c_{label}"));
        // Slot readout.
        let mut s = Table::new(
            &format!("Fig. 10c slots — bits {label}"),
            &["slot_lambda", "bit", "normalized amplitude"],
        );
        for (k, slot) in code.slot_spacings_lambda().iter().enumerate() {
            let m = rcs_model::magnitude_at_spacing(&spacings, &mags, slot * LAMBDA_CENTER_M);
            s.row(vec![
                f(*slot, 1),
                format!("{}", bits[k] as u8),
                f(m / peak, 3),
            ]);
        }
        s.emit(&format!("fig10c_slots_{label}"));
    }
    note("4 coding peaks at 6/7.5/9/10.5λ for 1111; secondary peaks fall outside the coding band.");
}
