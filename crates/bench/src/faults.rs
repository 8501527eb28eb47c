//! `bench faults` — the fault-injection conformance sweep.
//!
//! Runs the canonical fault matrix ([`FaultPlan::canonical_matrix`])
//! against a frozen full-pipeline drive-by fixture and reports how
//! each fault kind × rate degrades the link: BER against the known
//! 4-bit word, detection rate, degraded-frame counts, erasures, and
//! the typed pass verdict. Every cell is executed twice — pinned to 1
//! thread and to the sweep's high thread count — and the two runs must
//! be bit-identical (decoded bits *and* the raw RSS trace); any
//! mismatch fails the command.
//!
//! `--smoke` shrinks the matrix to four kinds at one rate with pins
//! {1, 2} so `verify.sh` can run it in seconds under `ROS_OBS=1`.

use crate::util::{f, Table};
use ros_core::encode::SpatialCode;
use ros_core::reader::{DriveBy, Outcome, ReaderConfig};
use ros_exec::ThreadGuard;
use ros_fault::{FaultPlan, TimeWindow};

/// The word encoded on the fixture tag.
const EXPECTED_BITS: [bool; 4] = [true, false, true, true];

/// Master seed of the canonical matrix (shared with the determinism
/// test suite so both sweep identical plans).
const MATRIX_SEED: u64 = 0xfa17;

/// The frozen drive-by fixture: the same 32-row tag, seed, geometry,
/// and stride as `tests/obs_trace.rs` and the `smoke` subcommand.
fn fixture() -> Option<(DriveBy, ReaderConfig)> {
    let code = SpatialCode {
        rows_per_stack: 32,
        ..SpatialCode::paper_4bit()
    };
    let Ok(tag) = code.encode(&EXPECTED_BITS) else {
        eprintln!("faults: fixture word failed to encode");
        return None;
    };
    let mut drive = DriveBy::new(tag, 3.0).with_seed(90125);
    drive.half_span_m = 3.0;
    let mut cfg = ReaderConfig::full();
    cfg.frame_stride = 8;
    Some((drive, cfg))
}

/// Runs one pass with the executor pinned to `threads`.
fn run_pinned(drive: &DriveBy, cfg: &ReaderConfig, threads: usize) -> Outcome {
    let _pin = ThreadGuard::pin(Some(threads));
    drive.run(cfg)
}

/// Bit-exact fingerprint of the spotlight trace.
fn trace_bits(o: &Outcome) -> Vec<(u64, u64)> {
    o.rss_trace
        .iter()
        .map(|s| (s.rss.re.to_bits(), s.rss.im.to_bits()))
        .collect()
}

/// Bit error rate against the fixture word; a failed decode counts as
/// all bits wrong.
fn ber(o: &Outcome) -> f64 {
    if o.bits().len() != EXPECTED_BITS.len() {
        return 1.0;
    }
    let errors = o
        .bits()
        .iter()
        .zip(&EXPECTED_BITS)
        .filter(|(a, b)| a != b)
        .count();
    errors as f64 / EXPECTED_BITS.len() as f64
}

/// Short stable label for a plan in the canonical matrix.
fn label(plan: &FaultPlan) -> String {
    match plan.specs.as_slice() {
        [] => "clean".to_string(),
        [spec] if spec.window != TimeWindow::ALWAYS => {
            format!("{}_windowed", spec.kind.name())
        }
        [spec] => spec.kind.name().to_string(),
        _ => "storm".to_string(),
    }
}

/// The fault sweep. `smoke` trims the matrix for CI.
pub fn run(smoke: bool) {
    let Some((base, cfg)) = fixture() else {
        std::process::exit(1);
    };

    let matrix = FaultPlan::canonical_matrix(MATRIX_SEED);
    let (plans, pins): (Vec<FaultPlan>, [usize; 2]) = if smoke {
        const SMOKE_KINDS: [&str; 4] = [
            "frame_drop",
            "adc_saturation",
            "interference_burst",
            "point_corruption",
        ];
        let picked = matrix
            .into_iter()
            .filter(|p| {
                p.specs.len() == 1
                    && (p.specs[0].rate - 0.2).abs() < 1e-12
                    && SMOKE_KINDS.contains(&p.specs[0].kind.name())
                    && p.specs[0].window == TimeWindow::ALWAYS
            })
            .collect();
        (picked, [1, 2])
    } else {
        (matrix, [1, 8])
    };

    let mut table = Table::new(
        if smoke {
            "bench faults --smoke: fault matrix vs frozen drive-by"
        } else {
            "bench faults: canonical fault matrix vs frozen drive-by"
        },
        &[
            "plan",
            "rate",
            "verdict",
            "ber",
            "detected",
            "frames_degraded",
            "erasures",
            "deterministic",
        ],
    );

    let mut all_deterministic = true;
    // A clean baseline row leads the table so degradation is readable
    // as a delta.
    let mut all_plans = vec![FaultPlan::new(MATRIX_SEED)];
    all_plans.extend(plans);

    for plan in &all_plans {
        let mut drive = base.clone();
        if !plan.is_empty() {
            drive = drive.with_faults(plan.clone());
        }
        let lo = run_pinned(&drive, &cfg, pins[0]);
        let hi = run_pinned(&drive, &cfg, pins[1]);
        let identical = lo.bits() == hi.bits()
            && trace_bits(&lo) == trace_bits(&hi)
            && lo.verdict == hi.verdict
            && lo.frame_verdicts == hi.frame_verdicts;
        if !identical {
            all_deterministic = false;
            eprintln!(
                "faults: plan `{}` diverges between {} and {} threads",
                label(plan),
                pins[0],
                pins[1]
            );
        }
        let degraded = lo.frame_verdicts.iter().filter(|v| v.is_degraded()).count();
        let erasures = lo.decode.as_ref().map(|d| d.erasures.len()).unwrap_or(0);
        let rate = match plan.specs.as_slice() {
            [spec] => f(spec.rate, 2),
            [] => "-".to_string(),
            _ => "mixed".to_string(),
        };
        table.row(vec![
            label(plan),
            rate,
            lo.verdict.name().to_string(),
            f(ber(&lo), 2),
            if lo.detected_center.is_some() {
                "1"
            } else {
                "0"
            }
            .to_string(),
            degraded.to_string(),
            erasures.to_string(),
            if identical { "yes" } else { "NO" }.to_string(),
        ]);
    }

    table.emit(if smoke { "faults_smoke" } else { "faults" });
    println!(
        "faults: {} plan(s), pins {{{}, {}}} threads — {}",
        all_plans.len(),
        pins[0],
        pins[1],
        if all_deterministic {
            "all bit-identical"
        } else {
            "DETERMINISM FAILURE"
        }
    );
    if !all_deterministic {
        std::process::exit(1);
    }
}
