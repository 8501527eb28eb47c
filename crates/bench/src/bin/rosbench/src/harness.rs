//! The closed-loop timing harness shared by every workload, and the
//! record a run leaves behind.

use crate::json::{num, quote, Value};
use crate::spec::MetricSpec;
use crate::stats::{median, quantile, Fnv};
use std::time::Instant;

/// Problem size: the benchmark proper, or one small operation per
/// workload for the unit-test smoke run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    Full,
    Smoke,
}

/// Untimed operations before the window opens.
const WARMUP_OPS: u64 = 3;
/// Operations whose outputs feed the digest: a fixed count, so two runs
/// of one seed digest the same outputs however many operations their
/// windows held. The window always runs at least this many.
const DIGEST_OPS: u64 = 16;
/// Independent set-ups timed for `setup_s`: at least this many, and
/// more while they have taken under [`SETUP_SECONDS`] in all, so a
/// set-up of tens of milliseconds still gets a steady median.
const SETUPS: usize = 3;
const SETUP_SECONDS: f64 = 1.0;

/// What [`control_ms`] takes on the reference host (Intel Xeon, 2
/// vCPUs, otherwise idle) \[ms\]. Timings are reported at that host
/// speed.
const REFERENCE_CONTROL_MS: f64 = 3.5;

/// Times a fixed scalar kernel of the benchmark's own on `threads`
/// threads at once \[ms\]: sines and cosines, the arithmetic the IF
/// synthesis and the array factors spend their time in. Beyond
/// `ros_exec::scope` (`std::thread::scope` under the workspace's spawn
/// policy) it calls no library code, so no change to the program moves
/// it; only the host's speed does.
///
/// On a shared host that speed drifts by 10–80% over seconds. Each
/// timing is scaled by `REFERENCE_CONTROL_MS` over the mean of the
/// controls taken on either side of it, on the threads the timed code
/// runs on. Over ten 25 s `corridor` runs the quartile spread of the
/// median op time was about 19% raw and 3% scaled.
pub fn control_ms(threads: usize) -> f64 {
    let kernel = || {
        let (mut acc, mut phase) = (0.0f64, 0.1f64);
        for k in 0..200_000u32 {
            acc += phase.sin() * (0.5 * phase).cos();
            phase += 1e-3 + f64::from(k & 7) * 1e-6;
        }
        std::hint::black_box(acc);
    };
    let t = Instant::now();
    ros_exec::scope(|s| {
        for _ in 1..threads {
            s.spawn(kernel);
        }
        kernel();
    });
    t.elapsed().as_secs_f64() * 1e3
}

/// `ms`, measured next to a [`control_ms`] of `control`, at the
/// reference host speed.
fn at_reference(ms: f64, control: f64) -> f64 {
    ms * REFERENCE_CONTROL_MS / control
}

/// What checking one operation's output found.
#[derive(Clone, Copy, Debug)]
pub struct Checked {
    pub ok: bool,
    /// Units of work the operation did (decoding frames, or encoded
    /// words for `tag_design`): the denominator of `frame_headroom`.
    pub units: usize,
}

/// One benchmark workload: operation `i` draws its inputs from the run
/// seed and `i` alone.
pub trait Workload {
    type Output;

    /// Runs operation `i`. This call, and nothing else, is timed.
    fn run(&mut self, i: u64) -> Self::Output;

    /// Checks an output and feeds it to the digest.
    fn check(&self, out: &Self::Output, digest: &mut Fnv) -> Checked;

    /// Checks made once, after set-up and before any operation.
    fn precheck(&mut self) -> bool {
        true
    }
}

/// Everything one run measured.
#[derive(Clone, Debug)]
pub struct Record {
    pub workload: String,
    pub seed: u64,
    pub trace: bool,
    /// Executor threads the run pinned.
    pub threads: usize,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub digest: u64,
    /// Wall time of each timed operation at the reference host speed
    /// \[ms\].
    pub op_ms: Vec<f64>,
    /// The [`control_ms`] timings taken before the first and after each
    /// timed operation.
    pub control_ms: Vec<f64>,
    /// `(name, value, samples)`.
    pub metrics: Vec<(String, f64, usize)>,
}

/// Sets up `W` [`SETUPS`] times or more (once at [`Scale::Smoke`]), then runs
/// warm-up operations and a closed loop of timed operations for
/// `seconds` (at least [`DIGEST_OPS`] in all; exactly one operation at
/// [`Scale::Smoke`]). Every timing is reported at the reference host
/// speed, by the mean of the [`control_ms`] timings right before and
/// right after it.
pub fn measure<W: Workload>(
    name: &str,
    seed: u64,
    seconds: f64,
    threads: usize,
    scale: Scale,
    setup: impl Fn() -> W,
) -> Record {
    let _pin = ros_exec::ThreadGuard::pin(Some(threads));
    let (min_setups, budget) = match scale {
        Scale::Full => (SETUPS, SETUP_SECONDS),
        Scale::Smoke => (1, 0.0),
    };
    // Set-up code runs on one thread, so one thread's control scales it.
    let timed_setup = || {
        let before = control_ms(1);
        let t = Instant::now();
        let w = setup();
        let s = t.elapsed().as_secs_f64();
        (w, s, at_reference(s, (before + control_ms(1)) / 2.0))
    };
    let (mut w, mut spent, first) = timed_setup();
    let mut setup_s = vec![first];
    while setup_s.len() < min_setups || spent < budget {
        let (fresh, s, scaled) = timed_setup();
        w = fresh;
        spent += s;
        setup_s.push(scaled);
    }

    let mut correct = w.precheck();
    let mut digest = Fnv::default();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut units = Vec::new();
    let (mut wall_ms, mut controls) = (Vec::new(), Vec::new());
    let (warmup, min_ops) = match scale {
        Scale::Full => (WARMUP_OPS, DIGEST_OPS),
        Scale::Smoke => (0, 1),
    };
    let mut window: Option<Instant> = None;
    for i in 0.. {
        if i == warmup {
            controls.push(control_ms(threads));
            window = Some(Instant::now());
        }
        if let Some(start) = window {
            if i >= min_ops && (scale == Scale::Smoke || start.elapsed().as_secs_f64() >= seconds) {
                break;
            }
        }
        let t = Instant::now();
        let out = std::hint::black_box(w.run(i));
        let ms = t.elapsed().as_secs_f64() * 1e3;
        let mut sink = Fnv::default();
        let c = w.check(
            &out,
            if i < DIGEST_OPS {
                &mut digest
            } else {
                &mut sink
            },
        );
        attempted += 1;
        if !c.ok {
            failed += 1;
        }
        units.push(c.units as f64);
        if i >= warmup {
            wall_ms.push(ms);
            controls.push(control_ms(threads));
        }
    }
    let op_ms: Vec<f64> = wall_ms
        .iter()
        .zip(controls.windows(2))
        .map(|(&ms, c)| at_reference(ms, (c[0] + c[1]) / 2.0))
        .collect();
    // The work per operation is a property of the workload, not of
    // the seed or the operation index.
    correct &= failed == 0 && units.iter().all(|&u| u == units[0]);

    let n = op_ms.len();
    let p50 = median(&op_ms);
    let metrics = vec![
        ("setup_s".to_string(), median(&setup_s), setup_s.len()),
        ("op_ms_p50".to_string(), p50, n),
        ("op_ms_p90".to_string(), quantile(&op_ms, 9, 10), n),
        // 1 ms ÷ (p50 × threads ÷ units): how many times the per-frame
        // cost fits in the radar's 1 ms frame period.
        (
            "frame_headroom".to_string(),
            median(&units) / (p50 * threads as f64),
            n,
        ),
        ("peak_heap_mb".to_string(), crate::heap::peak_mb(), 1),
    ];
    Record {
        workload: name.to_string(),
        seed,
        trace: false,
        threads,
        correct,
        attempted,
        failed,
        digest: digest.0,
        op_ms,
        control_ms: controls,
        metrics,
    }
}

impl Record {
    /// A metric's value and sample count.
    pub fn metric(&self, name: &str) -> Option<(f64, usize)> {
        self.metrics
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|&(_, v, n)| (v, n))
    }

    /// Checks that the record holds exactly the metrics `specs` lists,
    /// each a finite number.
    pub fn conforms(&self, specs: &[MetricSpec]) -> Result<(), String> {
        for s in specs {
            match self.metric(&s.name) {
                Some((v, _)) if v.is_finite() => {}
                Some((v, _)) => return Err(format!("{}: {} = {v}", self.workload, s.name)),
                None => return Err(format!("{}: no value for {}", self.workload, s.name)),
            }
        }
        if let Some((extra, _, _)) = self
            .metrics
            .iter()
            .find(|(n, _, _)| !specs.iter().any(|s| &s.name == n))
        {
            return Err(format!(
                "{}: {extra} is not declared in BENCHMARK.json",
                self.workload
            ));
        }
        Ok(())
    }

    /// One line per metric, with its unit and sample count.
    pub fn human(&self, specs: &[MetricSpec]) -> String {
        let mut s = format!(
            "{}{} seed={} threads={} ops={} failed={} correct={} output_digest={:016x} \
             control_ms_p50={:.4} (reference {REFERENCE_CONTROL_MS})\n",
            self.workload,
            if self.trace { " (traced)" } else { "" },
            self.seed,
            self.threads,
            self.attempted,
            self.failed,
            self.correct,
            self.digest,
            median(&self.control_ms),
        );
        for spec in specs {
            if let Some((v, n)) = self.metric(&spec.name) {
                s.push_str(&format!(
                    "  {:<36} {:>14.4} {:<12} n={n}\n",
                    spec.name, v, spec.unit
                ));
            }
        }
        s
    }

    /// The record as one JSON object (what `target/rosbench/` holds
    /// and `compare` reads).
    pub fn to_json(&self, specs: &[MetricSpec]) -> String {
        let metrics: Vec<String> = specs
            .iter()
            .filter_map(|spec| {
                self.metric(&spec.name).map(|(v, n)| {
                    format!(
                        "{}: {{\"value\": {}, \"unit\": {}, \"n\": {n}}}",
                        quote(&spec.name),
                        num(v),
                        quote(&spec.unit)
                    )
                })
            })
            .collect();
        let list = |v: &[f64]| v.iter().map(|&x| num(x)).collect::<Vec<_>>().join(", ");
        format!(
            "{{\"workload\": {}, \"seed\": {}, \"trace\": {}, \"threads\": {}, \"correct\": {}, \
             \"attempted\": {}, \"failed\": {}, \"output_digest\": \"{:016x}\", \
             \"op_ms\": [{}], \"control_ms\": [{}], \"metrics\": {{{}}}}}",
            quote(&self.workload),
            self.seed,
            self.trace,
            self.threads,
            self.correct,
            self.attempted,
            self.failed,
            self.digest,
            list(&self.op_ms),
            list(&self.control_ms),
            metrics.join(", ")
        )
    }

    /// Reads back a record [`Record::to_json`] wrote.
    pub fn from_json(v: &Value) -> Result<Record, String> {
        let field = |k: &str| v.get(k).ok_or(format!("a record lacks `{k}`"));
        let num = |k: &str| field(k)?.as_f64().ok_or(format!("`{k}` is not a number"));
        let list = |k: &str| -> Result<Vec<f64>, String> {
            let items = field(k)?.as_array().ok_or(format!("`{k}` is not a list"))?;
            Ok(items.iter().filter_map(Value::as_f64).collect())
        };
        let Value::Obj(metrics) = field("metrics")? else {
            return Err("`metrics` is not an object".into());
        };
        let digest = field("output_digest")?.as_str().unwrap_or_default();
        Ok(Record {
            workload: field("workload")?.as_str().unwrap_or_default().to_string(),
            seed: num("seed")? as u64,
            trace: field("trace")? == &Value::Bool(true),
            threads: num("threads")? as usize,
            correct: field("correct")? == &Value::Bool(true),
            attempted: num("attempted")? as u64,
            failed: num("failed")? as u64,
            digest: u64::from_str_radix(digest, 16).map_err(|e| format!("output_digest: {e}"))?,
            op_ms: list("op_ms")?,
            control_ms: list("control_ms")?,
            metrics: metrics
                .iter()
                .map(|(name, m)| {
                    let get = |k: &str| m.get(k).and_then(Value::as_f64);
                    (
                        name.clone(),
                        get("value").unwrap_or(f64::NAN),
                        get("n").unwrap_or(0.0) as usize,
                    )
                })
                .collect(),
        })
    }
}

/// The run's result line: `correct`, `attempted`, `failed` and each
/// metric's value and unit, over one or more records (metric names are
/// prefixed with the workload when there are several).
pub fn result_line(records: &[Record], specs: &[MetricSpec]) -> String {
    let prefix = records.len() > 1;
    let mut metrics = Vec::new();
    for r in records {
        for spec in specs {
            if let Some((v, _)) = r.metric(&spec.name) {
                let name = if prefix {
                    format!("{}.{}", r.workload, spec.name)
                } else {
                    spec.name.clone()
                };
                metrics.push(format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    quote(&name),
                    num(v),
                    quote(&spec.unit)
                ));
            }
        }
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        records.iter().all(|r| r.correct),
        records.iter().map(|r| r.attempted).sum::<u64>(),
        records.iter().map(|r| r.failed).sum::<u64>(),
        metrics.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Spec;

    #[test]
    fn records_round_trip_through_json() {
        let spec = Spec::load().unwrap();
        let r = Record {
            workload: "corridor".into(),
            seed: 7,
            trace: false,
            threads: 2,
            correct: true,
            attempted: 5,
            failed: 0,
            digest: 0xfeed_0000_0000_beef,
            op_ms: vec![1.5, 2.25],
            control_ms: vec![3.5, 3.25, 3.75],
            metrics: spec
                .end_to_end
                .iter()
                .enumerate()
                .map(|(k, m)| (m.name.clone(), 0.1 + k as f64, k + 1))
                .collect(),
        };
        let text = r.to_json(&spec.end_to_end);
        let back = Record::from_json(&crate::json::parse(&text).unwrap()).unwrap();
        assert_eq!(back.to_json(&spec.end_to_end), text);
        assert_eq!((back.digest, back.seed, back.threads), (r.digest, 7, 2));
        back.conforms(&spec.end_to_end).unwrap();
    }
}
