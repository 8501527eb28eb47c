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
//! runs a single 5-stack full-pipeline drive-by, the smallest command
//! that exercises capture → CFAR → DBSCAN → discrimination → decode.
//!
//! An unknown experiment name exits with status 2 before anything
//! runs, and a `smoke` whose word fails to encode exits with status 1,
//! so a typo in a doc or a script fails instead of passing silently.
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

/// One runnable experiment: its canonical name, extra spellings that
/// run the same job, and the job itself. The job takes the run-wide
/// geometry/EM table cache; figures that evaluate memoizable tables
/// draw from it.
type Experiment = (&'static str, &'static [&'static str], fn(&GeomCache));

/// Every experiment, in `all` order (the unit of figure-level
/// parallelism). `all` runs each row once; an alias never reruns it.
const EXPERIMENTS: &[Experiment] = &[
    ("fig3", &[], fig03_06::fig3),
    ("fig4a", &[], fig03_06::fig4a),
    ("fig4b", &[], |_| fig03_06::fig4b()),
    ("fig5a", &[], |c| fig03_06::fig5(c, true)),
    ("fig5b", &[], |c| fig03_06::fig5(c, false)),
    ("fig6a", &[], |_| fig03_06::fig6(true)),
    ("fig6b", &[], |_| fig03_06::fig6(false)),
    ("fig8a", &[], fig08::fig8a),
    ("fig8b", &[], fig08::fig8b),
    ("fig10b", &[], |_| fig10::fig10b()),
    ("fig10c", &[], fig10::fig10c),
    ("fig11b", &[], |_| fig11_13::fig11b()),
    ("fig11c", &[], |_| fig11_13::fig11c()),
    ("fig11d", &[], |_| fig11_13::fig11d()),
    ("fig13", &["fig13a", "fig13b"], |_| fig11_13::fig13()),
    ("fig14", &["fig14a", "fig14b"], |_| fig14_15::fig14()),
    ("fig15", &["fig15a", "fig15b"], |_| fig14_15::fig15()),
    ("fig16a", &[], |_| fig16_18::fig16a()),
    ("fig16b", &[], |_| fig16_18::fig16b()),
    ("fig16c", &[], |_| fig16_18::fig16c()),
    ("fig16d", &[], |_| fig16_18::fig16d()),
    ("fig17", &[], |_| fig16_18::fig17()),
    ("fig18", &[], |_| fig16_18::fig18()),
    ("design", &[], |_| design::design()),
    ("ablate_decoder", &[], |_| ablations::ablate_decoder()),
    ("ablate_window", &[], |_| ablations::ablate_window()),
    ("ablate_sampling", &[], |_| ablations::ablate_sampling()),
    ("ask_demo", &[], |_| ablations::ask_demo()),
    ("cp_analysis", &[], |_| ablations::cp_analysis()),
    ("fec_analysis", &[], |_| ablations::fec_analysis()),
    ("ber_validation", &[], |_| validation::ber_validation()),
    ("music_separation", &[], |_| validation::music_separation()),
    ("optimizer_ablation", &[], |_| {
        ablations::optimizer_ablation()
    }),
    ("rain_sweep", &[], |_| fig16_18::rain_sweep()),
    ("commercial_range", &[], |_| fig16_18::commercial_range()),
    ("ground_effect", &[], |_| ablations::ground_effect()),
    ("impairments", &[], |_| ablations::impairments_ablation()),
    ("tag_yaw", &[], |_| ablations::tag_yaw()),
    ("blockage", &[], |_| ablations::blockage()),
];

/// The job `name` runs: a canonical name or one of its aliases.
fn lookup(name: &str) -> Option<fn(&GeomCache)> {
    EXPERIMENTS
        .iter()
        .find(|(canonical, aliases, _)| *canonical == name || aliases.contains(&name))
        .map(|&(_, _, run)| run)
}

fn main() {
    ros_obs::init_from_env();
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let parallel = args.iter().any(|a| a == "--par");
    args.retain(|a| a != "--par");

    if args.iter().any(|a| a == "smoke") {
        let ok = smoke();
        ros_obs::flush();
        if !ok {
            std::process::exit(1);
        }
        return;
    }
    if args.iter().any(|a| a == "faults") {
        faults::run(args.iter().any(|a| a == "--smoke"));
        ros_obs::flush();
        return;
    }

    let jobs: Vec<fn(&GeomCache)> =
        if args.is_empty() || args.iter().any(|a| a == "all" || a == "figures") {
            EXPERIMENTS.iter().map(|&(_, _, run)| run).collect()
        } else {
            let mut jobs = Vec::with_capacity(args.len());
            for name in &args {
                let Some(run) = lookup(name) else {
                    eprintln!("unknown experiment: {name}");
                    std::process::exit(2);
                };
                jobs.push(run);
            }
            jobs
        };

    // One geometry/EM table cache shared by every figure job: repeated
    // designs (fig4a's VAA azimuth table reappears in fig5b, the 8-row
    // shaping profile spans fig8a/fig8b) build exactly once per run.
    let cache = GeomCache::new();
    if parallel {
        // Figure jobs are independent (each writes its own CSVs), so
        // they fan out across the executor's thread pool.
        ros_exec::par_map(&jobs, |run| run(&cache));
    } else {
        for run in jobs {
            run(&cache);
        }
    }
    ros_obs::flush();
}

/// `smoke` sub-command: one 5-stack full-pipeline drive-by — the
/// smallest run that touches every instrumented stage with a genuine
/// tag classification (IF capture, CFAR, DBSCAN, two-feature
/// discrimination, spotlight, OOK decode). With `ROS_OBS=1` the trace
/// doubles as the telemetry smoke test wired into `verify.sh`.
/// Returns false when the word fails to encode.
fn smoke() -> bool {
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
        return false;
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
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_name_and_alias_resolves_and_unknown_names_do_not() {
        let mut names = std::collections::BTreeSet::new();
        for (canonical, aliases, _) in EXPERIMENTS {
            for name in std::iter::once(canonical).chain(aliases.iter()) {
                assert!(lookup(name).is_some(), "{name} does not resolve");
                assert!(names.insert(*name), "{name} is spelled twice");
            }
        }
        assert_eq!(EXPERIMENTS.len(), 39);
        assert!(lookup("fig15b").is_some());
        assert!(lookup("fig99").is_none());
        assert!(lookup("").is_none());
    }
}
