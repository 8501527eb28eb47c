//! Metric export order is a property of [`ros_obs::names::ALL`], not
//! of runtime touch order. Two runs that exercise the pipeline in a
//! different sequence (different configs, different thread timing)
//! must still export metrics in the identical sequence, or diffing two
//! telemetry records becomes line-matching guesswork.

use ros_obs::{names, Level};

#[test]
fn export_order_is_the_names_table_regardless_of_touch_order() {
    // Touch a scrambled subset: stage time first, decode before radar,
    // reader last.
    let ((), lines) = ros_obs::capture_scope(Level::Summary, || {
        drop(ros_obs::span(names::TIME_DECODE));
        ros_obs::hist(names::DECODE_SNR_DB, 21.0);
        ros_obs::count(names::RADAR_FRAMES_SYNTHESIZED, 7);
        ros_obs::gauge(names::READER_CLOUD_POINTS, 41.0);
        ros_obs::flush();
    });

    let touched = [
        "time.decode",
        "decode.snr_db",
        "radar.frames_synthesized",
        "reader.cloud_points",
    ];
    let in_table_order: Vec<&str> = names::ALL
        .iter()
        .map(|(name, _)| *name)
        .filter(|name| touched.contains(name))
        .collect();
    assert_eq!(
        in_table_order.len(),
        touched.len(),
        "every touched id is a table row"
    );

    // The flushed metric lines follow the table and hold nothing
    // untouched.
    let exported: Vec<&str> = lines
        .iter()
        .filter_map(|l| l.strip_prefix("{\"ev\":\"metric\",\"name\":\""))
        .filter_map(|l| l.split('"').next())
        .collect();
    assert_eq!(exported, in_table_order, "export must keep table order");
}
