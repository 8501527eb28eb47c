//! The RoS experiment harness: regenerates every figure of the paper.
//!
//! ```text
//! cargo run --release -p bench -- all         # every figure ("figures" works too)
//! cargo run --release -p bench -- fig15
//! cargo run --release -p bench -- design
//! cargo run --release -p bench -- --par all   # figure-level fan-out
//! cargo run --release -p bench -- smoke       # one full-pipeline drive-by
//! cargo run --release -p bench -- faults      # fault-injection sweep
//! cargo run --release -p bench -- faults --smoke   # reduced CI matrix
//! ```
//!
//! Tables print to stdout and are mirrored as CSVs under `results/`.
//! With `--par`, independent figure jobs fan out over the
//! [`ros_exec`] scoped-thread executor (console tables from different
//! figures may interleave; the CSV mirrors are per-figure files and
//! unaffected). Speed is not measured here: the repository's one
//! benchmark is `rosbench` (`crates/bench/src/bin/rosbench`), which
//! times whole passes and their stages against the 1 ms frame budget.
//!
//! Telemetry: `ROS_OBS=1` (summary) or `ROS_OBS=2` (per-frame detail)
//! streams ndjson from every pipeline stage to stderr, or to
//! `ROS_OBS_FILE` when set — see `ros-obs` and DESIGN.md §10. `smoke`
//! runs a single 3-stack full-pipeline drive-by, the smallest command
//! that exercises capture → CFAR → DBSCAN → discrimination → decode.
#![allow(
    clippy::print_stdout,
    clippy::print_stderr,
    clippy::as_conversions,
    clippy::panic,
    reason = "a measurement harness: it prints tables, converts counts for display, \
              and aborts on a broken experiment; the library-only lints do not apply"
)]

mod faults;
mod figures;
mod util;

use figures::*;
use ros_cache::GeomCache;

fn main() {
    ros_obs::init_from_env();
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let parallel = args.iter().any(|a| a == "--par");
    args.retain(|a| a != "--par");

    if args.iter().any(|a| a == "smoke") {
        smoke();
        ros_obs::flush();
        return;
    }
    if args.iter().any(|a| a == "faults") {
        faults::run(args.iter().any(|a| a == "--smoke"));
        ros_obs::flush();
        return;
    }

    let which: Vec<&str> = if args.is_empty() || args.iter().any(|a| a == "all" || a == "figures") {
        vec![
            "fig3",
            "fig4a",
            "fig4b",
            "fig5a",
            "fig5b",
            "fig6a",
            "fig6b",
            "fig8a",
            "fig8b",
            "fig10b",
            "fig10c",
            "fig11b",
            "fig11c",
            "fig11d",
            "fig13",
            "fig14",
            "fig15",
            "fig16a",
            "fig16b",
            "fig16c",
            "fig16d",
            "fig17",
            "fig18",
            "design",
            "ablate_decoder",
            "ablate_window",
            "ablate_sampling",
            "ask_demo",
            "cp_analysis",
            "fec_analysis",
            "ber_validation",
            "music_separation",
            "optimizer_ablation",
            "rain_sweep",
            "commercial_range",
            "ground_effect",
            "impairments",
            "tag_yaw",
            "blockage",
        ]
    } else {
        args.iter().map(String::as_str).collect()
    };

    // One geometry/EM table cache shared by every figure job: repeated
    // designs (fig4a's VAA azimuth table reappears in fig5b, the 8-row
    // shaping profile spans fig8a/fig8b) build exactly once per run.
    let cache = GeomCache::new();
    if parallel {
        // Figure jobs are independent (each writes its own CSVs), so
        // they fan out across the executor's thread pool.
        ros_exec::par_map(&which, |name| run_one(name, &cache));
    } else {
        for name in which {
            run_one(name, &cache);
        }
    }
    ros_obs::flush();
}

/// `smoke` sub-command: one 5-stack full-pipeline drive-by — the
/// smallest run that touches every instrumented stage with a genuine
/// tag classification (IF capture, CFAR, DBSCAN, two-feature
/// discrimination, spotlight, OOK decode). With `ROS_OBS=1` the trace
/// doubles as the telemetry smoke test wired into `verify.sh`.
fn smoke() {
    use ros_core::encode::SpatialCode;
    use ros_core::reader::{DriveBy, ReaderConfig};

    // 32 rows per stack: large enough for the size feature to
    // classify the cluster as a tag (mirrors tests/obs_trace.rs).
    let code = SpatialCode {
        rows_per_stack: 32,
        ..SpatialCode::paper_4bit()
    };
    let Ok(tag) = code.encode(&[true, false, true, true]) else {
        eprintln!("smoke: 4-bit word failed to encode");
        return;
    };
    let mut drive = DriveBy::new(tag, 3.0).with_seed(90125);
    drive.half_span_m = 3.0;
    let mut cfg = ReaderConfig::full();
    cfg.frame_stride = 8;
    let outcome = drive.run(&cfg);
    println!(
        "smoke: bits={:?} clusters={} detected={} snr_db={:.2}",
        outcome.bits(),
        outcome.clusters.len(),
        outcome.detected_center.is_some(),
        outcome.snr_db().unwrap_or(f64::NAN),
    );
}

/// Dispatches one experiment by name (the unit of figure-level
/// parallelism). `cache` is the run-wide geometry/EM table cache;
/// figures that evaluate memoizable tables draw from it.
fn run_one(name: &str, cache: &GeomCache) {
    match name {
        "fig3" => fig03_06::fig3(cache),
        "fig4a" => fig03_06::fig4a(cache),
        "fig4b" => fig03_06::fig4b(),
        "fig5a" => fig03_06::fig5(cache, true),
        "fig5b" => fig03_06::fig5(cache, false),
        "fig6a" => fig03_06::fig6(true),
        "fig6b" => fig03_06::fig6(false),
        "fig8a" => fig08::fig8a(cache),
        "fig8b" => fig08::fig8b(cache),
        "fig10b" => fig10::fig10b(),
        "fig10c" => fig10::fig10c(cache),
        "fig11b" => fig11_13::fig11b(),
        "fig11c" => fig11_13::fig11c(),
        "fig11d" => fig11_13::fig11d(),
        "fig13" | "fig13a" | "fig13b" => fig11_13::fig13(),
        "fig14" | "fig14a" | "fig14b" => fig14_15::fig14(),
        "fig15" | "fig15a" | "fig15b" => fig14_15::fig15(),
        "fig16a" => fig16_18::fig16a(),
        "fig16b" => fig16_18::fig16b(),
        "fig16c" => fig16_18::fig16c(),
        "fig16d" => fig16_18::fig16d(),
        "fig17" => fig16_18::fig17(),
        "fig18" => fig16_18::fig18(),
        "design" => design::design(),
        "ablate_decoder" => ablations::ablate_decoder(),
        "ablate_window" => ablations::ablate_window(),
        "ablate_sampling" => ablations::ablate_sampling(),
        "ask_demo" => ablations::ask_demo(),
        "cp_analysis" => ablations::cp_analysis(),
        "fec_analysis" => ablations::fec_analysis(),
        "ber_validation" => validation::ber_validation(),
        "music_separation" => validation::music_separation(),
        "optimizer_ablation" => ablations::optimizer_ablation(),
        "rain_sweep" => fig16_18::rain_sweep(),
        "commercial_range" => fig16_18::commercial_range(),
        "ground_effect" => ablations::ground_effect(),
        "impairments" => ablations::impairments_ablation(),
        "tag_yaw" => ablations::tag_yaw(),
        "blockage" => ablations::blockage(),
        other => eprintln!("unknown experiment: {other}"),
    }
}
