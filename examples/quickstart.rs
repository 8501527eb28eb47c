//! Quickstart: encode four bits on a RoS tag, drive a simulated TI
//! radar past it, and decode them.
//!
//! ```bash
//! cargo run --release -p ros-examples --bin quickstart
//! ```

use ros_core::capacity;
use ros_core::encode::SpatialCode;
use ros_core::reader::{DriveBy, ReaderConfig};

fn main() {
    // The paper's 4-bit code: M = 5 stack slots at δc = 1.5λ, 32
    // beam-shaped PSVAAs per stack (Fig. 12a).
    let code = SpatialCode::paper_4bit();
    let message = [true, false, true, true];
    let tag = code.encode(&message).expect("4 bits fit a 4-bit code");

    println!("RoS quickstart");
    println!("==============");
    println!(
        "tag: {} stacks on a {:.1} cm surface, encoding {:?}",
        tag.stack_positions_m().len(),
        code.width_m() * 100.0,
        message.map(|b| b as u8)
    );
    let analysis = capacity::analyze(&code, 1000.0);
    println!(
        "far field {:.1} m · max speed {:.0} m/s · stack height {:.1} cm",
        analysis.far_field_m,
        analysis.max_speed_mps,
        tag.height_m() * 100.0
    );

    // Drive by at 3 m standoff (one lane over) with the TI-class radar.
    let outcome = DriveBy::new(tag, 3.0).run(&ReaderConfig::fast());

    let decoded: Vec<u8> = outcome.bits().iter().map(|&b| b as u8).collect();
    println!("\ndecoded bits: {decoded:?}");
    match &outcome.decode {
        Ok(d) => {
            println!(
                "decoding SNR: {:.1} dB (BER {:.3}%)",
                d.snr_db(),
                d.ber() * 100.0
            );
            println!(
                "coding-slot amplitudes: {:?}",
                d.slot_amplitudes
                    .iter()
                    .map(|a| (a * 10.0).round() / 10.0)
                    .collect::<Vec<_>>()
            );
        }
        Err(e) => println!("decoding failed: {e}"),
    }
    assert_eq!(outcome.bits(), message.to_vec(), "round trip failed");
    println!("\nround trip OK ✓");
}
