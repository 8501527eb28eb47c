//! Figures 14 and 15: elevation beam shaping and distance (§7.2).
//!
//! * Fig. 14a/b — RSS and SNR versus elevation misalignment, tags with
//!   and without beam shaping (radar fixed 3 m away),
//! * Fig. 15a/b — RSS and SNR versus radar-to-tag distance for tags
//!   with 8, 16, and 32 PSVAAs per stack.

use crate::util::{f, note, snr_median, Table};
use ros_core::encode::SpatialCode;
use ros_core::reader::{DriveBy, ReaderConfig};
use ros_em::geom::deg_to_rad;

fn tag_with(rows: usize, shaped: bool, seed: u64) -> ros_core::tag::Tag {
    let code = SpatialCode {
        rows_per_stack: rows,
        beam_shaped: shaped,
        ..SpatialCode::paper_4bit()
    };
    // Column bow grows with column length (§7.2's bending/sway).
    let bow = 0.0004 * (rows as f64 / 32.0).powi(2);
    code.encode(&[true; 4])
        .unwrap_or_else(|e| panic!("tag encode: {e}"))
        .with_column_bow(bow, seed)
}

/// Figs. 14a/14b: elevation misalignment with/without beam shaping.
pub fn fig14() {
    let mut t = Table::new(
        "Fig. 14a/b — RSS and SNR vs elevation angle (3 m standoff, 32-row stacks)",
        &[
            "elev_deg",
            "RSS w/ shaping",
            "RSS w/o shaping",
            "SNR w/ shaping",
            "SNR w/o shaping",
        ],
    );
    for tenth in 0..=8 {
        let elev_deg = 0.5 * tenth as f64;
        let dz = 3.0 * deg_to_rad(elev_deg).tan();
        let mut row = vec![f(elev_deg, 1)];
        let mut rss_pair = Vec::new();
        let mut snr_cells = Vec::new();
        for shaped in [true, false] {
            let mut rss = Vec::new();
            let mut snr = Vec::new();
            for seed in 0..3u64 {
                let drive = DriveBy::new(tag_with(32, shaped, 42 + seed), 3.0)
                    .with_radar_height(1.0 + dz)
                    .with_seed(1400 + 10 * tenth as u64 + seed);
                let o = drive.run(&ReaderConfig::fast());
                rss.push(o.median_rss_dbm());
                snr.push(o.snr_db());
            }
            rss_pair.push(ros_dsp::stats::median(&rss));
            snr_cells.push(snr_median(&snr));
        }
        row.push(f(rss_pair[0], 1));
        row.push(f(rss_pair[1], 1));
        row.extend(snr_cells);
        t.row(row);
    }
    t.emit("fig14");
    note("with shaping: SNR stays >15 dB to ±4°; without: RSS swings ≈13 dB, SNR dips to ≈10 dB.");
}

/// Figs. 15a/15b: distance sweep for 8/16/32-row tags.
pub fn fig15() {
    let mut t = Table::new(
        "Fig. 15a/b — RSS (dBm) and SNR (dB) vs radar-to-tag distance",
        &[
            "dist_m",
            "RSS 8",
            "RSS 16",
            "RSS 32",
            "SNR 8",
            "SNR 16",
            "SNR 32",
            "bits ok 8/16/32",
        ],
    );
    for step in 0..=8 {
        let d = 2.0 + 0.5 * step as f64;
        let mut rss = Vec::new();
        let mut snr = Vec::new();
        let mut ok = Vec::new();
        for rows in [8usize, 16, 32] {
            let mut rss_s = Vec::new();
            let mut snr_s = Vec::new();
            let mut n_ok = 0;
            for seed in 0..3u64 {
                let mut drive = DriveBy::new(tag_with(rows, true, 42 + seed), d)
                    .with_seed(1500 + 10 * step as u64 + seed);
                drive.half_span_m = (2.0 * d).min(8.0);
                let o = drive.run(&ReaderConfig::fast());
                rss_s.push(o.median_rss_dbm());
                snr_s.push(o.snr_db());
                if o.bits() == vec![true; 4] {
                    n_ok += 1;
                }
            }
            rss.push(ros_dsp::stats::median(&rss_s));
            snr.push(snr_median(&snr_s));
            ok.push(if n_ok >= 2 { '1' } else { '0' });
        }
        let mut row = vec![f(d, 1), f(rss[0], 1), f(rss[1], 1), f(rss[2], 1)];
        row.extend(snr);
        row.push(format!("{}/{}/{}", ok[0], ok[1], ok[2]));
        t.row(row);
    }
    t.emit("fig15");
    note("detect ranges ≈4/5/6 m for 8/16/32 rows; all SNR >14 dB in range; 32-row SNR statistically lower (near-field + column bending).");
}
