//! Ablations and §8 extensions — design-choice studies beyond the
//! paper's own figures.
//!
//! * `ablate_decoder` — FFT spectrum decoder vs the near-field matched
//!   filter, across distance and tag capacity,
//! * `ablate_window` — spectral taper choice,
//! * `ablate_sampling` — frame-rate (Nyquist) margin,
//! * `ask_demo` — the §8 multi-level ASK extension over distance,
//! * `cp_analysis` — circular-polarization range gains,
//! * `fec_analysis` — Hamming(7,4) residual error rates,
//! * `optimizer_ablation` — DE vs PSO on the beam-shaping objective,
//! * `ground_effect` — two-ray asphalt multipath,
//! * `impairments` — front-end phase noise / ADC / IQ imbalance,
//! * `tag_yaw` — mounting-yaw robustness from retroreflectivity.

use crate::util::{f, note, Table};
use ros_core::ask::AskCode;
use ros_core::capacity;
use ros_core::decode::{decode, DecoderConfig};
use ros_core::encode::SpatialCode;
use ros_core::fec;
use ros_core::nearfield::decode_nearfield;
use ros_core::reader::{DriveBy, ReaderConfig};
use ros_dsp::window::Window;
use ros_em::radar_eq::RadarLinkBudget;
use ros_em::Vec3;

fn tag_for(bits: &[bool], rows: usize, m_stacks: usize) -> (SpatialCode, ros_core::tag::Tag) {
    let code = SpatialCode {
        m_stacks,
        rows_per_stack: rows,
        ..SpatialCode::paper_4bit()
    };
    (
        code,
        code.encode(bits)
            .unwrap_or_else(|e| panic!("tag encode: {e}")),
    )
}

/// FFT decoder vs near-field matched filter, per distance and capacity.
pub fn ablate_decoder() {
    let mut t = Table::new(
        "Ablation — FFT vs near-field matched-filter decoder",
        &["tag", "dist_m", "FFT ok", "FFT SNR", "MF ok", "MF SNR"],
    );
    let cases = [
        ("4-bit", 4usize, vec![true, false, true, true]),
        ("6-bit", 6, vec![true, true, false, true, false, true]),
    ];
    for (label, bits_n, bits) in &cases {
        for d in [2.0, 3.0, 4.0, 5.0] {
            let (code, tag) = tag_for(bits, 8, bits_n + 1);
            let mut drive = DriveBy::new(tag, d).with_seed(8800 + d as u64);
            drive.half_span_m = (2.5 * d).min(10.0);
            if *bits_n == 6 {
                // 6-bit tags need more link budget (§5.3).
                drive.radar.budget = RadarLinkBudget::commercial();
            }
            let outcome = drive.run(&ReaderConfig::fast());
            let center = Vec3::new(0.0, d, 1.0);
            let cfg = DecoderConfig::default();
            let fft = decode(&outcome.rss_trace, center, 0.0, &code, &cfg);
            let mf = decode_nearfield(&outcome.rss_trace, center, 0.0, &code, &cfg);
            let okf = fft.as_ref().map(|r| r.bits == *bits).unwrap_or(false);
            let okm = mf.as_ref().map(|r| r.bits == *bits).unwrap_or(false);
            t.row(vec![
                label.to_string(),
                f(d, 1),
                format!("{okf}"),
                fft.map(|r| f(r.snr_db(), 1)).unwrap_or_default(),
                format!("{okm}"),
                mf.map(|r| f(r.snr_db(), 1)).unwrap_or_default(),
            ]);
        }
    }
    t.emit("ablate_decoder");
    note("the matched filter extends decoding inside the far-field bound (§8's NFFA goal, radar-side).");
}

/// Spectral taper ablation.
pub fn ablate_window() {
    let mut t = Table::new(
        "Ablation — spectral window vs decoding SNR (4-bit tag, 3 m)",
        &["window", "SNR (dB)", "bits ok"],
    );
    for (name, win) in [
        ("Rect", Window::Rect),
        ("Hann", Window::Hann),
        ("Hamming", Window::Hamming),
        ("Blackman", Window::Blackman),
    ] {
        let (_, tag) = tag_for(&[true, false, true, true], 32, 5);
        let mut drive = DriveBy::new(tag.with_column_bow(0.0004, 42), 3.0).with_seed(8900);
        drive.half_span_m = 8.0;
        let mut cfg = ReaderConfig::fast();
        cfg.decoder.window = win;
        let o = drive.run(&cfg);
        t.row(vec![
            name.into(),
            f(o.snr_db().unwrap_or(f64::NAN), 1),
            format!("{}", o.bits() == vec![true, false, true, true]),
        ]);
    }
    t.emit("ablate_window");
    note("Hann is the default: the rectangular window's sidelobes leak envelope energy into the coding band.");
}

/// Frame-stride (sampling-rate) ablation — the §5.3 Nyquist margin.
pub fn ablate_sampling() {
    let mut t = Table::new(
        "Ablation — frame stride vs decoding (30 mph, 3 m)",
        &["stride", "frame_rate_Hz", "SNR (dB)", "bits ok"],
    );
    for stride in [1usize, 2, 4, 8, 16, 32] {
        let (_, tag) = tag_for(&[true; 4], 32, 5);
        let mut drive = DriveBy::new(tag.with_column_bow(0.0004, 42), 3.0)
            .with_speed(ros_em::constants::mph_to_mps(30.0))
            .with_seed(9000 + stride as u64);
        drive.half_span_m = 8.0;
        let mut cfg = ReaderConfig::fast();
        cfg.frame_stride = stride;
        let o = drive.run(&cfg);
        t.row(vec![
            format!("{stride}"),
            f(1000.0 / stride as f64, 0),
            f(o.snr_db().unwrap_or(f64::NAN), 1),
            format!("{}", o.bits() == vec![true; 4]),
        ]);
    }
    t.emit("ablate_sampling");
    note("decoding survives until the effective frame rate violates the §5.3 Nyquist bound.");
}

/// The ASK (multi-level) extension over distance.
pub fn ask_demo() {
    let code = AskCode::four_level();
    let mut t = Table::new(
        "Extension — 4-level ASK (6 data bits in the 4-bit footprint)",
        &["dist_m", "symbols sent", "symbols decoded", "ok"],
    );
    let symbols = [3u8, 1, 2];
    for d in [2.0, 2.5, 3.0, 3.5, 4.0] {
        let tag = code
            .encode(&symbols)
            .unwrap_or_else(|e| panic!("ASK encode: {e}"));
        let mut drive = DriveBy::new(tag, d).with_seed(9100 + d as u64);
        drive.half_span_m = 8.0;
        let outcome = drive.run(&ReaderConfig::fast());
        let got = decode(
            &outcome.rss_trace,
            Vec3::new(0.0, d, 1.0),
            0.0,
            &code.geometry,
            &DecoderConfig::default(),
        )
        .map(|r| code.classify(&r.slot_amplitudes))
        .unwrap_or_default();
        t.row(vec![
            f(d, 1),
            format!("{symbols:?}"),
            format!("{got:?}"),
            format!("{}", got == symbols.to_vec()),
        ]);
    }
    t.emit("ask_demo");
    note(&format!(
        "4 levels × {} data slots = {} bits (vs 4 OOK bits) in the same footprint.",
        code.data_slots(),
        code.data_bits()
    ));
}

/// Circular polarization range gains (§8).
pub fn cp_analysis() {
    use ros_em::circular::{
        conjugating_channel_power, mirror_channel_power, Handedness, CP_RCS_GAIN_DB,
    };
    let mut t = Table::new(
        "Extension — circular polarization channels (power fraction)",
        &["reflector", "same-handed port", "cross-handed port"],
    );
    let tx = Handedness::Right;
    t.row(vec![
        "CP Van Atta (tag)".into(),
        f(conjugating_channel_power(tx, tx), 3),
        f(conjugating_channel_power(tx, tx.flip()), 3),
    ]);
    t.row(vec![
        "ordinary reflector".into(),
        f(mirror_channel_power(tx, tx), 3),
        f(mirror_channel_power(tx, tx.flip()), 3),
    ]);
    t.emit("cp_channels");

    let mut r = Table::new(
        "Extension — CP range gain (commercial radar, 5×32 tag)",
        &["tag", "RCS (dBsm)", "max range (m)"],
    );
    let base = capacity::estimated_tag_rcs_dbsm(5, 32, true);
    let com = RadarLinkBudget::commercial();
    r.row(vec![
        "linear PSVAA".into(),
        f(base, 1),
        f(capacity::max_decode_range_m(&com, base), 1),
    ]);
    r.row(vec![
        "CP PSVAA".into(),
        f(base + CP_RCS_GAIN_DB, 1),
        f(capacity::max_decode_range_m(&com, base + CP_RCS_GAIN_DB), 1),
    ]);
    r.emit("cp_range");
    note("CP recovers the 6 dB polarization-switching penalty → ≈41% more range (§8).");
}

/// Meta-optimizer ablation: DE (the paper's §4.3 choice) vs PSO on the
/// flat-top beam-shaping objective.
pub fn optimizer_ablation() {
    use ros_antenna::shaping::{flat_top_objective, mirror_profile};
    use ros_antenna::stack::PsvaaStack;
    use ros_em::constants::F_CENTER_HZ;
    use ros_em::geom::{deg_to_rad, rad_to_deg};
    use ros_optim::{minimize, minimize_pso, DeConfig, PsoConfig, Strategy};

    let mut t = Table::new(
        "Ablation — DE (paper's choice) vs PSO for beam shaping (8-row stack)",
        &[
            "optimizer",
            "cost",
            "evaluations",
            "beamwidth (°)",
            "worst in-window (dB)",
        ],
    );
    let n_rows = 8;
    let target = deg_to_rad(10.0);
    let bounds = vec![(0.0, std::f64::consts::TAU * 0.9); n_rows / 2];

    let summarize = |label: &str, x: &[f64], cost: f64, evals: usize, t: &mut Table| {
        let stack = PsvaaStack::with_phases(&mirror_profile(x, n_rows));
        let bw = rad_to_deg(stack.measured_beamwidth_rad(F_CENTER_HZ));
        let mut worst = f64::INFINITY;
        for i in -10..=10 {
            let eps = deg_to_rad(0.5 * i as f64);
            worst = worst.min(stack.elevation_pattern_db(eps, F_CENTER_HZ));
        }
        t.row(vec![
            label.into(),
            f(cost, 3),
            format!("{evals}"),
            f(bw, 1),
            f(worst, 1),
        ]);
    };

    let de = minimize(
        |h, _| flat_top_objective(h, n_rows, target),
        &bounds,
        &DeConfig {
            population: 32,
            max_generations: 120,
            strategy: Strategy::RandToBest1Bin,
            ..Default::default()
        },
    );
    summarize(
        "DE (rand-to-best/1)",
        &de.x,
        de.cost,
        de.evaluations,
        &mut t,
    );

    let pso = minimize_pso(
        |h| flat_top_objective(h, n_rows, target),
        &bounds,
        &PsoConfig {
            particles: 32,
            max_iterations: 120,
            ..Default::default()
        },
    );
    summarize(
        "PSO (global-best)",
        &pso.x,
        pso.cost,
        pso.evaluations,
        &mut t,
    );

    t.emit("optimizer_ablation");
    note("at equal evaluation budgets DE reaches a flatter, wider top than PSO — supporting the paper's §4.3 DE-GA choice.");
}

/// Tag mounting-yaw robustness: the Van Atta retroreflection makes the
/// tag nearly insensitive to how squarely it faces the road — the
/// property that motivates VAAs over specular barcodes (§3.2/§4.1).
pub fn tag_yaw() {
    let mut t = Table::new(
        "Ablation — tag mounting yaw vs decoding (32-row tag, 3 m)",
        &["yaw_deg", "median RSS (dBm)", "SNR (dB)", "bits ok"],
    );
    for yaw_deg in [0.0f64, 10.0, 20.0, 30.0, 40.0] {
        let (_, tag) = tag_for(&[true; 4], 32, 5);
        let tag = tag
            .with_column_bow(0.0004, 42)
            .with_yaw(ros_em::geom::deg_to_rad(yaw_deg));
        let mut drive = DriveBy::new(tag, 3.0).with_seed(9600 + yaw_deg as u64);
        drive.half_span_m = 8.0;
        let o = drive.run(&ReaderConfig::fast());
        t.row(vec![
            f(yaw_deg, 0),
            f(o.median_rss_dbm(), 1),
            f(o.snr_db().unwrap_or(f64::NAN), 1),
            format!("{}", o.bits() == vec![true; 4]),
        ]);
    }
    t.emit("tag_yaw");
    note("a specular barcode would die at the first degree of yaw; the retroreflective tag decodes to ≥30°.");
}

/// Two-ray ground-bounce study: RSS and SNR with and without the
/// asphalt multipath model (off by default in every paper figure).
pub fn ground_effect() {
    let mut t = Table::new(
        "Ablation — two-ray ground bounce (32-row tag, 3 m)",
        &[
            "radar_height_m",
            "RSS flat-earth",
            "RSS two-ray",
            "SNR flat",
            "SNR two-ray",
        ],
    );
    for h in [0.5, 0.75, 1.0, 1.25, 1.5] {
        let mut row = vec![f(h, 2)];
        let mut rss = Vec::new();
        let mut snr = Vec::new();
        for ground in [None, Some(-0.2)] {
            let (_, tag) = tag_for(&[true; 4], 32, 5);
            let mut drive = DriveBy::new(tag.with_column_bow(0.0004, 42), 3.0)
                .with_radar_height(h)
                .with_seed(9400 + (h * 100.0) as u64);
            if let Some(g) = ground {
                drive = drive.with_ground(g);
            }
            drive.half_span_m = 8.0;
            let o = drive.run(&ReaderConfig::fast());
            rss.push(o.median_rss_dbm());
            snr.push(o.snr_db().unwrap_or(f64::NAN));
        }
        row.push(f(rss[0], 1));
        row.push(f(rss[1], 1));
        row.push(f(snr[0], 1));
        row.push(f(snr[1], 1));
        t.row(row);
    }
    t.emit("ground_effect");
    note("79 GHz asphalt is rough (|Γ|≈0.2): the two-ray ripple shifts RSS a few dB but decoding holds.");
}

/// Front-end impairment study on the full IF pipeline.
pub fn impairments_ablation() {
    use ros_radar::impairments::Impairments;
    let mut t = Table::new(
        "Ablation — front-end impairments (full IF pipeline, 3 m)",
        &["front-end", "detected", "bits ok", "SNR (dB)"],
    );
    for (label, imp) in [
        ("ideal", Impairments::default()),
        (
            "eval board (PN + 12-bit ADC + IQ)",
            Impairments::eval_board(),
        ),
    ] {
        let (_, tag) = tag_for(&[true, false, true, true], 32, 5);
        let mut drive = DriveBy::new(tag.with_column_bow(0.0004, 42), 3.0).with_seed(9500);
        drive.half_span_m = 3.0;
        drive.radar.impairments = imp;
        let mut cfg = ReaderConfig::full();
        cfg.frame_stride = 8;
        let o = drive.run(&cfg);
        t.row(vec![
            label.into(),
            format!("{}", o.detected_center.is_some()),
            format!("{}", o.bits() == vec![true, false, true, true]),
            f(o.snr_db().unwrap_or(f64::NAN), 1),
        ]);
    }
    t.emit("impairments");
    note("the decode chain tolerates evaluation-board phase noise, quantization and IQ imbalance.");
}

/// Traffic-blockage study (§7.3: full blockage fails; redundancy and
/// mounting height are the mitigations).
pub fn blockage() {
    use ros_core::reader::Blockage;
    let mut t = Table::new(
        "Ablation — passing-traffic blockage vs decoding (32-row tag, 3 m)",
        &["blocked fraction", "SNR (dB)", "bits ok"],
    );
    // The decoder uses the ±30°-FoV window of the pass: at 3 m standoff
    // and ±8 m span that is x ∈ ±1.73 m, i.e. t ∈ [3.13, 4.87] s at
    // 2 m/s. The blockage shadows a fraction of that window (a vehicle
    // overtaking from behind shadows its leading edge first).
    let (w_lo, w_hi) = (3.13, 4.87);
    for frac in [0.0, 0.2, 0.4, 0.6, 0.8, 1.0] {
        let width = (w_hi - w_lo) * frac;
        let (_, tag) = tag_for(&[true; 4], 32, 5);
        let mut drive = DriveBy::new(tag.with_column_bow(0.0004, 42), 3.0)
            .with_blockage(Blockage {
                t_start_s: w_lo,
                t_end_s: w_lo + width,
                attenuation_db: 40.0,
            })
            .with_seed(9700 + (frac * 10.0) as u64);
        drive.half_span_m = 8.0;
        let o = drive.run(&ReaderConfig::fast());
        t.row(vec![
            f(frac, 1),
            f(o.snr_db().unwrap_or(f64::NAN), 1),
            format!("{}", o.bits() == vec![true; 4]),
        ]);
    }
    t.emit("blockage");
    note("decoding survives ≈40% of the FoV window shadowed; total occlusion fails (§7.3) — mount tags high / deploy redundantly.");
}

/// FEC residual-error analysis at the paper's SNR operating points.
pub fn fec_analysis() {
    let mut t = Table::new(
        "Extension — Hamming(7,4) protection at the paper's SNR anchors",
        &["SNR (dB)", "raw BER", "protected block error"],
    );
    for snr_db in [10.0, 14.0, 15.0, 15.8, 20.0] {
        let ber = ros_dsp::stats::ook_ber(ros_em::db::db_to_pow(snr_db));
        t.row(vec![
            f(snr_db, 1),
            format!("{:.3}%", ber * 100.0),
            format!("{:.5}%", fec::block_error_probability(ber) * 100.0),
        ]);
    }
    t.emit("fec_analysis");
    note("§8: larger capacity admits error correction; one flipped coding peak per block is recovered.");
}
