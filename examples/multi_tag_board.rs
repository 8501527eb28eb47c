//! Multi-tag advertising board: two 4-bit tags side by side convey an
//! 8-bit message (paper §5.3: "RoS can instead place multiple tags
//! side by side similar to advertising boards"; §7.3 Fig. 16a shows
//! the cross-tag interference is negligible).
//!
//! ```bash
//! cargo run --release -p ros-examples --bin multi_tag_board
//! ```

use ros_core::capacity;
use ros_core::encode::SpatialCode;
use ros_core::reader::{DriveBy, ReaderConfig};
use ros_em::Vec3;

fn main() {
    println!("RoS multi-tag board: 8 bits from two 4-bit tags");
    println!("===============================================");

    let code = SpatialCode::paper_4bit();
    let word: [bool; 8] = [true, false, true, true, false, true, false, false];
    let (lo, hi) = word.split_at(4);

    // §5.3: tags must sit ≥1.53 m apart for a 4-Rx radar at 6 m; at a
    // 3 m reading distance half of that suffices. Use 1.6 m.
    let analysis = capacity::analyze(&code, 1000.0);
    let spacing = analysis.min_tag_separation_m.max(1.6);
    println!(
        "tag spacing {spacing:.2} m (§5.3 minimum at 6 m: {:.2} m)",
        analysis.min_tag_separation_m
    );

    let standoff = 3.0;
    let tag_a = code.encode(lo).unwrap().with_column_bow(0.0004, 1);
    let tag_b = code
        .encode(hi)
        .unwrap()
        .with_column_bow(0.0004, 2)
        .mounted_at(Vec3::new(spacing, standoff, 1.0));

    // Decode tag A with tag B present…
    let mut cfg = ReaderConfig::fast();
    cfg.frame_stride = 1; // dense sampling keeps cross-tag fringes above Nyquist
    cfg.decoder.n_grid = 4096;
    let drive_a = DriveBy::new(tag_a.clone(), standoff)
        .with_extra_tag(tag_b.clone())
        .with_seed(501);
    let out_a = drive_a.run(&cfg);

    // …and tag B with tag A present (swap roles; B's drive-by centres
    // on B's mount, so rebuild with B primary).
    let tag_b_primary = code.encode(hi).unwrap().with_column_bow(0.0004, 2);
    let tag_a_extra = code
        .encode(lo)
        .unwrap()
        .with_column_bow(0.0004, 1)
        .mounted_at(Vec3::new(-spacing, standoff, 1.0));
    let drive_b = DriveBy::new(tag_b_primary, standoff)
        .with_extra_tag(tag_a_extra)
        .with_seed(502);
    let out_b = drive_b.run(&cfg);

    let b2u = |bits: &[bool]| bits.iter().map(|&b| b as u8).collect::<Vec<_>>();
    println!(
        "\ntag A sent {:?} decoded {:?} (SNR {:.1} dB)",
        b2u(lo),
        b2u(out_a.bits()),
        out_a.snr_db().unwrap_or(f64::NAN)
    );
    println!(
        "tag B sent {:?} decoded {:?} (SNR {:.1} dB)",
        b2u(hi),
        b2u(out_b.bits()),
        out_b.snr_db().unwrap_or(f64::NAN)
    );

    let mut decoded = out_a.bits().to_vec();
    decoded.extend_from_slice(out_b.bits());
    assert_eq!(decoded, word.to_vec(), "8-bit word mismatch");
    println!("\n8-bit word recovered: {:?} ✓", b2u(&decoded));
}
