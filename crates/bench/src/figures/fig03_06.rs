//! Figures 3–6: array-level RCS characterization (§4.1–§4.2).
//!
//! * Fig. 3 — RCS per antenna pair vs frequency for 1–6 pairs,
//! * Fig. 4a — monostatic RCS vs azimuth, VAA vs ULA,
//! * Fig. 4b — bistatic RCS with 30° incidence,
//! * Fig. 5a/5b — PSVAA vs VAA, cross-/co-polarized Tx/Rx,
//! * Fig. 6a/6b — PSVAA RCS across 76–81 GHz, cross-/co-polarized.

use crate::util::{f, note, Table};
use ros_antenna::tl;
use ros_antenna::vaa::{ArrayKind, VanAttaArray};
use ros_cache::GeomCache;
use ros_em::constants::F_CENTER_HZ;
use ros_em::geom::deg_to_rad;
use ros_em::jones::Polarization;

const V: Polarization = Polarization::V;
const H: Polarization = Polarization::H;

/// The Fig. 4/5 azimuth grid: −90°..=90° in 5° steps, as radians.
fn azimuth_grid_rad() -> Vec<f64> {
    (-90..=90)
        .step_by(5)
        .map(|d| deg_to_rad(f64::from(d)))
        .collect()
}

/// Fig. 3: per-pair RCS vs frequency for 1..6 antenna pairs.
pub fn fig3(cache: &GeomCache) {
    let mut t = Table::new(
        "Fig. 3 — RCS per antenna pair vs frequency (dB, relative)",
        &[
            "freq_GHz", "1 pair", "2 pairs", "3 pairs", "4 pairs", "5 pairs", "6 pairs",
        ],
    );
    let arrays: Vec<VanAttaArray> = (1..=6)
        .map(|n| VanAttaArray::new(ArrayKind::VanAtta, n))
        .collect();
    let th = deg_to_rad(30.0);
    for k in 0..=10 {
        let freq = 76.0e9 + 0.5e9 * k as f64;
        let mut cells = vec![f(freq / 1e9, 1)];
        for (n, arr) in arrays.iter().enumerate() {
            let field = arr.monostatic_field(th, freq, V, V);
            let per_pair_db = 10.0 * (field.norm_sqr() / (n + 1) as f64).log10();
            cells.push(f(per_pair_db, 2));
        }
        t.row(cells);
    }
    t.emit("fig3");

    // Summary: worst-case-over-band per-pair figure of merit.
    let mut s = Table::new(
        "Fig. 3 summary — worst-case per-pair RCS over 76–81 GHz",
        &["pairs", "per-pair (dB)", "optimal?"],
    );
    let mut best = (0usize, f64::NEG_INFINITY);
    let mut vals = Vec::new();
    for (n, arr) in arrays.iter().enumerate() {
        let mut worst = f64::INFINITY;
        for k in 0..=20 {
            let freq = 76.0e9 + 0.25e9 * k as f64;
            let p = arr.monostatic_field(th, freq, V, V).norm_sqr() / (n + 1) as f64;
            worst = worst.min(p);
        }
        let db = 10.0 * worst.log10();
        vals.push(db);
        if db > best.1 {
            best = (n + 1, db);
        }
    }
    for (n, db) in vals.iter().enumerate() {
        s.row(vec![
            format!("{}", n + 1),
            f(*db, 2),
            if n + 1 == best.0 {
                "← max".into()
            } else {
                String::new()
            },
        ]);
    }
    s.emit("fig3_summary");
    note("RCS contribution per antenna pair is maximized with 3 pairs (§4.1).");

    // Mechanism behind the roll-off: TL dispersion misalignment. The
    // design-rule lines (§4.1, adjacent lines 2λg apart) are phase-
    // aligned only at 79 GHz; at the band edges the outermost line
    // drifts away from the innermost, and past ≈90° the pair's
    // contribution turns destructive. The transfer table is memoized
    // per (lengths, grid) in the run-wide cache.
    let lengths = tl::design_tl_lengths_m(6);
    let grid: Vec<f64> = (0..=10).map(|k| 76.0e9 + 0.5e9 * f64::from(k)).collect();
    let table = tl::dispersion_table_in(cache, &lengths, &grid);
    let mut d = Table::new(
        "Fig. 3 aside — TL phase misalignment vs innermost line (deg)",
        &["freq_GHz", "pair 2", "pair 3", "pair 4", "pair 5", "pair 6"],
    );
    for (j, freq) in grid.iter().enumerate() {
        let mut cells = vec![f(freq / 1e9, 1)];
        let reference = table[j].arg();
        for i in 1..lengths.len() {
            let mis = ros_em::geom::wrap_angle(table[i * grid.len() + j].arg() - reference);
            cells.push(f(ros_em::geom::rad_to_deg(mis).abs(), 1));
        }
        d.row(cells);
    }
    d.emit("fig3_dispersion");
    note("misalignment grows with line-length difference; 90° marks the §4.1 destructive-addition bound.");
}

/// Fig. 4a: monostatic RCS vs azimuth, VAA vs ULA.
pub fn fig4a(cache: &GeomCache) {
    let vaa = VanAttaArray::new(ArrayKind::VanAtta, 3);
    let ula = VanAttaArray::new(ArrayKind::Ula, 3);
    let mut t = Table::new(
        "Fig. 4a — monostatic RCS vs azimuth (dBsm)",
        &["azimuth_deg", "VAA", "ULA"],
    );
    // The VAA azimuth sweep here is the same table Fig. 5b evaluates —
    // with the shared cache it builds once per bench run.
    let thetas = azimuth_grid_rad();
    let vaa_rcs = vaa.monostatic_rcs_table_in(cache, &thetas, F_CENTER_HZ, V, V);
    let ula_rcs = ula.monostatic_rcs_table_in(cache, &thetas, F_CENTER_HZ, V, V);
    for (i, deg) in (-90..=90).step_by(5).enumerate() {
        t.row(vec![format!("{deg}"), f(vaa_rcs[i], 1), f(ula_rcs[i], 1)]);
    }
    t.emit("fig4a");
    note("VAA: flat plateau across ≈120° FoV; ULA: specular, strong only near 0°.");
}

/// Fig. 4b: bistatic RCS, incidence fixed at 30°.
pub fn fig4b() {
    let vaa = VanAttaArray::new(ArrayKind::VanAtta, 3);
    let ula = VanAttaArray::new(ArrayKind::Ula, 3);
    let th_in = deg_to_rad(30.0);
    let mut t = Table::new(
        "Fig. 4b — bistatic RCS, incidence 30° (dBsm)",
        &["obs_deg", "VAA", "ULA"],
    );
    for deg in (-90..=90).step_by(5) {
        let th = deg_to_rad(deg as f64);
        t.row(vec![
            format!("{deg}"),
            f(vaa.bistatic_rcs_dbsm(th_in, th, F_CENTER_HZ, V, V), 1),
            f(ula.bistatic_rcs_dbsm(th_in, th, F_CENTER_HZ, V, V), 1),
        ]);
    }
    t.emit("fig4b");
    note("VAA redirects back to +30° (retro); ULA reflects to −30° (specular); VAA leakage 5–13 dB down.");
}

/// Fig. 5a/5b: PSVAA vs original VAA, cross- and co-polarized.
pub fn fig5(cache: &GeomCache, cross: bool) {
    let psvaa = VanAttaArray::new(ArrayKind::Psvaa, 3);
    let vaa = VanAttaArray::new(ArrayKind::VanAtta, 3);
    let (tx, rx, name, paper) = if cross {
        (
            V,
            H,
            "Fig. 5a — RCS, Tx/Rx orthogonal polarization (dBsm)",
            "PSVAA ≈ −43 dBsm flat across 120°; VAA ≈ −55 dBsm (12 dB lower).",
        )
    } else {
        (
            V,
            V,
            "Fig. 5b — RCS, Tx/Rx same polarization (dBsm)",
            "PSVAA acts as a specular reflector: only the normal direction returns.",
        )
    };
    let mut t = Table::new(name, &["azimuth_deg", "PSVAA", "VAA"]);
    let thetas = azimuth_grid_rad();
    let psvaa_rcs = psvaa.monostatic_rcs_table_in(cache, &thetas, F_CENTER_HZ, tx, rx);
    let vaa_rcs = vaa.monostatic_rcs_table_in(cache, &thetas, F_CENTER_HZ, tx, rx);
    for (i, deg) in (-90..=90).step_by(5).enumerate() {
        t.row(vec![format!("{deg}"), f(psvaa_rcs[i], 1), f(vaa_rcs[i], 1)]);
    }
    t.emit(if cross { "fig5a" } else { "fig5b" });
    note(paper);
}

/// Fig. 6a/6b: PSVAA RCS across the band, cross- and co-polarized.
pub fn fig6(cross: bool) {
    let psvaa = VanAttaArray::paper_psvaa();
    let (tx, rx, name, paper) = if cross {
        (
            V,
            H,
            "Fig. 6a — PSVAA RCS across 76–81 GHz, orthogonal pol (dBsm)",
            "cross-pol RCS varies by <4 dB across the band.",
        )
    } else {
        (
            V,
            V,
            "Fig. 6b — PSVAA RCS across 76–81 GHz, same pol (dBsm)",
            "strong specular main lobe and side lobes across the band.",
        )
    };
    let mut t = Table::new(
        name,
        &[
            "azimuth_deg",
            "76GHz",
            "77.25GHz",
            "78.5GHz",
            "79.75GHz",
            "81GHz",
        ],
    );
    for deg in (-90..=90).step_by(10) {
        let th = deg_to_rad(deg as f64);
        let mut cells = vec![format!("{deg}")];
        for k in 0..5 {
            let freq = 76.0e9 + 1.25e9 * k as f64;
            cells.push(f(psvaa.monostatic_rcs_dbsm(th, freq, tx, rx), 1));
        }
        t.row(cells);
    }
    t.emit(if cross { "fig6a" } else { "fig6b" });
    note(paper);

    if cross {
        // Band ripple summary at a plateau angle.
        let th = deg_to_rad(15.0);
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for k in 0..=40 {
            let freq = 76.0e9 + 5.0e9 * k as f64 / 40.0;
            let r = psvaa.monostatic_rcs_dbsm(th, freq, tx, rx);
            lo = lo.min(r);
            hi = hi.max(r);
        }
        println!(
            "   measured band ripple at 15°: {:.2} dB (paper: <4 dB)\n",
            hi - lo
        );
    }
}
