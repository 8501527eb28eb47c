//! `rosbench`: the repository's benchmark. See README.md beside this
//! package for the workloads, the metrics and the commands.
//!
//! ```text
//! rosbench --workload <full_pass|corridor|tag_design|all> [--seed N]
//!          [--seconds S] [--trace [0|1]] [--smoke]
//! rosbench compare <a.json> <b.json>
//! ```
//!
//! Each workload runs in its own process (`all` starts one per
//! workload), one closed-loop generator thread, telemetry off. The last
//! line of standard output is the result: `correct`, `attempted`,
//! `failed` and every end-to-end metric, or with `--trace 1` every
//! per-layer metric. The full record goes to `target/rosbench/`.

mod compare;
mod corridor;
mod full_pass;
mod harness;
mod heap;
mod json;
mod spec;
mod stats;
mod tag_design;
mod trace;

use harness::{measure, result_line, Record, Scale};
use spec::Spec;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

const USAGE: &str = "usage: rosbench --workload <full_pass|corridor|tag_design|all> [--seed N] \
                     [--seconds S] [--trace [0|1]] [--smoke]\n       rosbench compare <a.json> <b.json>";

#[derive(Clone, Debug, PartialEq)]
struct Opts {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    smoke: bool,
}

impl Opts {
    fn parse(args: &[String], spec: &Spec) -> Result<Opts, String> {
        let mut o = Opts {
            workload: String::new(),
            seed: 1,
            seconds: spec.run_seconds,
            trace: false,
            smoke: false,
        };
        let mut it = args.iter().peekable();
        while let Some(a) = it.next() {
            let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
            match a.as_str() {
                "--workload" => o.workload = value("--workload")?.clone(),
                "--seed" => {
                    o.seed = value("--seed")?
                        .parse()
                        .map_err(|e| format!("--seed: {e}"))?
                }
                "--seconds" => {
                    o.seconds = value("--seconds")?
                        .parse()
                        .map_err(|e| format!("--seconds: {e}"))?;
                }
                // `--trace`, `--trace 1` or `--trace 0`.
                "--trace" => {
                    o.trace = it
                        .next_if(|v| *v == "0" || *v == "1")
                        .is_none_or(|v| v == "1")
                }
                "--smoke" => o.smoke = true,
                other => return Err(format!("unknown argument `{other}`")),
            }
        }
        if o.workload != "all" && !spec.workloads.contains(&o.workload) {
            return Err(format!("unknown workload `{}`", o.workload));
        }
        if o.seconds == 0 {
            return Err("--seconds must be at least 1".into());
        }
        Ok(o)
    }

    fn args(&self, workload: &str) -> Vec<String> {
        let mut v = vec![
            "--workload".into(),
            workload.into(),
            "--seed".into(),
            self.seed.to_string(),
            "--seconds".into(),
            self.seconds.to_string(),
            "--trace".into(),
            u8::from(self.trace).to_string(),
        ];
        if self.smoke {
            v.push("--smoke".into());
        }
        v
    }
}

/// Runs one workload in this process.
fn run_one(o: &Opts) -> Record {
    let scale = if o.smoke { Scale::Smoke } else { Scale::Full };
    let (seed, secs) = (o.seed, o.seconds as f64);
    if o.trace {
        return trace::run(&o.workload, scale, seed, secs);
    }
    match o.workload.as_str() {
        "full_pass" => measure("full_pass", seed, secs, 1, scale, || {
            full_pass::FullPass::setup(scale, seed)
        }),
        "corridor" => measure("corridor", seed, secs, corridor::workers(), scale, || {
            corridor::Corridor::setup(scale, seed)
        }),
        "tag_design" => measure("tag_design", seed, secs, 1, scale, || {
            tag_design::TagDesign::setup(scale, seed)
        }),
        other => unreachable!("workload `{other}` was validated"),
    }
}

fn out_dir() -> PathBuf {
    PathBuf::from("target").join("rosbench")
}

fn write(path: &Path, text: &str) {
    let written = std::fs::create_dir_all(out_dir()).and_then(|()| std::fs::write(path, text));
    match written {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("warning: cannot write {}: {e}", path.display()),
    }
}

/// Where a run's record goes.
fn record_path(workload: &str, seed: u64, trace: bool) -> PathBuf {
    let suffix = if trace { "-trace" } else { "" };
    out_dir().join(format!("{workload}-seed{seed}{suffix}.json"))
}

/// One workload: run it, print its metrics, write its record, and end
/// with the result line.
fn single(o: &Opts, spec: &Spec) -> Result<(), String> {
    let specs = if o.trace {
        &spec.per_layer
    } else {
        &spec.end_to_end
    };
    let r = run_one(o);
    r.conforms(specs)?;
    print!("{}", r.human(specs));
    if let Some((stage, share)) = trace::largest_stage(&r) {
        println!(
            "largest full_pass stage: {stage} ({:.0}% of the stage sum)",
            share * 100.0
        );
    }
    write(
        &record_path(&r.workload, r.seed, r.trace),
        &format!("{}\n", r.to_json(specs)),
    );
    println!("{}", result_line(&[r], specs));
    Ok(())
}

/// Every workload, each in a child process of this binary; writes the
/// set of records and ends with the combined result line.
fn all(o: &Opts, spec: &Spec) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut records = Vec::new();
    for w in &spec.workloads {
        let out = Command::new(&exe)
            .args(o.args(w))
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("{w}: {e}"))?;
        print!("{}", String::from_utf8_lossy(&out.stdout));
        if !out.status.success() {
            return Err(format!("{w} exited with {}", out.status));
        }
        let path = record_path(w, o.seed, false);
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        records.push(Record::from_json(&json::parse(&text)?)?);
    }
    let stamp = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let jsons: Vec<String> = records
        .iter()
        .map(|r| r.to_json(&spec.end_to_end))
        .collect();
    write(
        &out_dir().join(format!("set-seed{}-{stamp}.json", o.seed)),
        &format!(
            "{{\"seed\": {}, \"records\": [\n{}]}}\n",
            o.seed,
            jsons.join(",\n")
        ),
    );
    println!("{}", result_line(&records, &spec.end_to_end));
    Ok(())
}

fn main() -> ExitCode {
    ros_obs::set_level(ros_obs::Level::Off);
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = Spec::load().and_then(|spec| match args.first().map(String::as_str) {
        Some("compare") => match &args[1..] {
            [a, b] => compare::run(a, b, &spec).inspect(|&ok| {
                println!("{}", if ok { "no regression" } else { "REGRESSION" });
            }),
            _ => Err(USAGE.into()),
        },
        _ => Opts::parse(&args, &spec)
            .map_err(|e| format!("{e}\n{USAGE}"))
            .and_then(|o| {
                if o.workload == "all" && !o.trace {
                    all(&o, &spec)
                } else {
                    single(&o, &spec)
                }
            })
            .map(|()| true),
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("rosbench: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use harness::Workload;

    fn opts(workload: &str, seed: u64, trace: bool) -> Opts {
        Opts {
            workload: workload.into(),
            seed,
            seconds: 1,
            trace,
            smoke: true,
        }
    }

    /// One operation of every workload at smoke size, then one traced
    /// round: outputs check, and each record carries exactly the
    /// metrics `BENCHMARK.json` declares. One test, because executor
    /// pins are process-wide.
    #[test]
    fn smoke_runs_every_workload_and_a_traced_round() {
        let spec = Spec::load().unwrap();
        for w in &spec.workloads {
            let r = run_one(&opts(w, 3, false));
            assert!(r.correct && r.attempted == 1 && r.failed == 0, "{w}: {r:?}");
            r.conforms(&spec.end_to_end).unwrap();
            let line = json::parse(&result_line(&[r], &spec.end_to_end)).unwrap();
            let json::Value::Obj(keys) = &line else {
                panic!("{line:?}")
            };
            assert_eq!(
                keys.keys().collect::<Vec<_>>(),
                ["attempted", "correct", "failed", "metrics"]
            );
        }
        let r = run_one(&opts("corridor", 3, true));
        assert!(r.correct && r.failed == 0, "{r:?}");
        r.conforms(&spec.per_layer).unwrap();
    }

    #[test]
    fn the_same_seed_draws_the_same_inputs() {
        for i in 0..8 {
            assert_eq!(full_pass::draw(5, i), full_pass::draw(5, i));
            assert_ne!(full_pass::draw(5, i).0, full_pass::draw(6, i).0);
        }
        let (ca, cb) = (
            corridor::Corridor::setup(Scale::Smoke, 5),
            corridor::Corridor::setup(Scale::Smoke, 6),
        );
        assert_eq!(
            ca.config(4).seed,
            corridor::Corridor::setup(Scale::Smoke, 5).config(4).seed
        );
        assert_ne!(ca.config(4).seed, cb.config(4).seed);
        let (ta, tb) = (
            tag_design::TagDesign::setup(Scale::Smoke, 5),
            tag_design::TagDesign::setup(Scale::Smoke, 6),
        );
        assert_eq!(
            ta.order(2),
            tag_design::TagDesign::setup(Scale::Smoke, 5).order(2)
        );
        assert_ne!(ta.order(2), tb.order(2));
        let mut sorted = tb.order(2);
        sorted.sort_unstable();
        assert_eq!(sorted, (0..16).collect::<Vec<_>>());
    }

    /// Another seed redraws receiver noise (and words), never the
    /// amount of work: frame counts per operation stay put.
    #[test]
    fn other_seeds_change_noise_not_work() {
        let ops = |seed| {
            let mut f = full_pass::FullPass::setup(Scale::Smoke, seed);
            let (out, _) = f.run(0);
            let mut c = corridor::Corridor::setup(Scale::Smoke, seed);
            let (_, report) = c.run(0);
            (out, report)
        };
        let ((fa, ca), (fb, cb)) = (ops(1), ops(2));
        assert_eq!(fa.rss_trace.len(), fb.rss_trace.len());
        assert!(fa
            .rss_trace
            .iter()
            .zip(&fb.rss_trace)
            .any(|(x, y)| x.rss != y.rss));
        assert_eq!(ca.frames_consumed, cb.frames_consumed);
        assert_ne!(ca.log_digest(), cb.log_digest());
    }

    #[test]
    fn arguments_parse() {
        let spec = Spec::load().unwrap();
        let parse = |s: &str| {
            let args: Vec<String> = s.split_whitespace().map(String::from).collect();
            Opts::parse(&args, &spec)
        };
        let o = parse("--workload corridor --seed 9 --trace 0").unwrap();
        assert_eq!((o.seed, o.trace, o.seconds), (9, false, spec.run_seconds));
        assert!(parse("--workload all --trace").unwrap().trace);
        assert!(
            parse("--trace 1 --workload tag_design --smoke")
                .unwrap()
                .smoke
        );
        assert!(parse("--workload nope").is_err());
        assert!(parse("--workload full_pass --seconds 0").is_err());
        assert!(parse("--workload full_pass --bogus").is_err());
        let round = parse("--workload full_pass --seed 4 --trace --smoke").unwrap();
        let back: Vec<String> = round.args("full_pass");
        assert_eq!(Opts::parse(&back, &spec).unwrap(), round);
    }
}
