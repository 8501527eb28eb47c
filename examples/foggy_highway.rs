//! Adverse weather and radar-grade comparison: decode a tag through
//! fog with the TI evaluation radar versus a commercial automotive
//! radar (paper §7.3 Fig. 16c and §8).
//!
//! ```bash
//! cargo run --release -p ros-examples --bin foggy_highway
//! ```

use ros_core::capacity;
use ros_core::encode::SpatialCode;
use ros_core::reader::{DriveBy, ReaderConfig};
use ros_em::radar_eq::RadarLinkBudget;
use ros_scene::weather::FogLevel;

fn main() {
    println!("RoS in the fog");
    println!("==============");

    let message = [true, false, false, true];
    let code = SpatialCode::paper_4bit();

    println!("\n-- TI evaluation radar, 3 m standoff --");
    println!("{:>10} {:>10} {:>10}", "fog", "SNR (dB)", "bits ok");
    for fog in FogLevel::ALL {
        let tag = code.encode(&message).unwrap().with_column_bow(0.0004, 3);
        let mut drive = DriveBy::new(tag, 3.0).with_fog(fog).with_seed(99);
        drive.half_span_m = 8.0;
        let o = drive.run(&ReaderConfig::fast());
        println!(
            "{:>10} {:>10.1} {:>10}",
            fog.label(),
            o.snr_db().unwrap_or(f64::NAN),
            if o.bits() == message.to_vec() {
                "yes"
            } else {
                "NO"
            }
        );
    }

    // Link-budget view: how far could each radar grade read this tag?
    println!("\n-- maximum decode range (link budget, σ = −23 dBsm) --");
    let ti = RadarLinkBudget::ti_eval();
    let commercial = RadarLinkBudget::commercial();
    println!(
        "TI eval radar:     {:>5.1} m (noise floor {:.1} dBm)",
        capacity::max_decode_range_m(&ti, -23.0),
        ti.noise_floor_dbm()
    );
    println!(
        "commercial radar:  {:>5.1} m (N_F 9 dB, EIRP 50 dBm — paper §8)",
        capacity::max_decode_range_m(&commercial, -23.0)
    );

    // Fog barely matters at these ranges: quantify the margin.
    println!("\n-- two-way fog loss at reading distance --");
    for d in [3.0, 6.0, 52.0] {
        let loss = ros_em::atten::fog_round_trip_db(FogLevel::Heavy, d);
        println!("{d:>5.0} m: {loss:.2} dB (heavy fog)");
    }
    println!("\nradar reads road signs when cameras cannot ✓");
}
