//! Figure 8: elevation beam shaping (§4.3).
//!
//! Compares the elevation power pattern of an 8-PSVAA stack with the
//! DE-GA flat-top phase profile against the uniform (un-shaped) stack,
//! and prints the optimized layout next to the paper's published
//! example.

use crate::util::{f, note, Table};
use ros_antenna::shaping::{standard_profile_in, ShapingProfile};
use ros_antenna::stack::PsvaaStack;
use ros_cache::GeomCache;
use ros_em::constants::F_CENTER_HZ;
use ros_em::geom::{deg_to_rad, rad_to_deg};

/// Fig. 8a: the optimized stack layout.
pub fn fig8a(cache: &GeomCache) {
    // The DE-GA profile is the most expensive table in the repo; the
    // shared cache means fig8a and fig8b run it once between them.
    let profile = standard_profile_in(cache, 8);
    let paper = ShapingProfile::paper_example_8();
    let shaped = profile.build();
    let mut t = Table::new(
        "Fig. 8a — 8-row stack layout: DE-GA phases and row spacings",
        &["row", "phase_deg (ours)", "phase_deg (paper)", "row_z (λ)"],
    );
    let lam = ros_em::constants::LAMBDA_CENTER_M;
    for (i, row) in shaped.rows().iter().enumerate() {
        t.row(vec![
            format!("{}", i + 1),
            f(rad_to_deg(row.phase_rad), 1),
            f(rad_to_deg(paper.phases[i]), 1),
            f(row.z_m / lam, 3),
        ]);
    }
    t.emit("fig8a");
    note("paper example: (152.9°, 37.6°, 0, 0, 0, 0, 37.6°, 152.9°); spacings 0.725–0.867λ.");
}

/// Fig. 8b: elevation pattern with and without beam shaping.
pub fn fig8b(cache: &GeomCache) {
    let shaped = standard_profile_in(cache, 8).build();
    let flat = PsvaaStack::uniform(8);
    let mut t = Table::new(
        "Fig. 8b — elevation power pattern (dB, peak-normalized)",
        &["elev_deg", "with shaping", "without shaping"],
    );
    let epsilons: Vec<f64> = (-20..=20).map(|i| deg_to_rad(f64::from(i))).collect();
    let shaped_db = shaped.elevation_pattern_table_in(cache, &epsilons, F_CENTER_HZ);
    let flat_db = flat.elevation_pattern_table_in(cache, &epsilons, F_CENTER_HZ);
    for (k, i) in (-20..=20).enumerate() {
        t.row(vec![
            f(f64::from(i), 0),
            f(shaped_db[k], 1),
            f(flat_db[k], 1),
        ]);
    }
    t.emit("fig8b");

    let bw_shaped = rad_to_deg(shaped.measured_beamwidth_rad(F_CENTER_HZ));
    let bw_flat = rad_to_deg(flat.measured_beamwidth_rad(F_CENTER_HZ));
    println!("   measured −3 dB beamwidth: shaped {bw_shaped:.1}°, uniform {bw_flat:.1}°");
    note("beam flattened to ≈10° (from ≈2°), symmetric pattern.");
}
