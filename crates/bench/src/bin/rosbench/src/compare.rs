//! `rosbench compare <a.json> <b.json>`: judges run `b` against run `a`
//! with the bounds `BENCHMARK.json` fixes, workload by workload.

use crate::harness::Record;
use crate::json::{self, Value};
use crate::spec::Spec;
use crate::stats::quartiles;

/// The untraced records of a result file: one record, or a set
/// (`{"records": [...]}`) as `--workload all` writes.
fn load(path: &str) -> Result<Vec<Record>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let v = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let records = match v.get("records").and_then(Value::as_array) {
        Some(rs) => rs.to_vec(),
        None => vec![v],
    };
    let mut out = Vec::new();
    for r in &records {
        let r = Record::from_json(r).map_err(|e| format!("{path}: {e}"))?;
        if !r.trace {
            out.push(r);
        }
    }
    Ok(out)
}

/// Prints the comparison; `Ok(true)` when no metric regressed and
/// every pair of equal seeds produced equal output digests.
pub fn run(a_path: &str, b_path: &str, spec: &Spec) -> Result<bool, String> {
    let (a, b) = (load(a_path)?, load(b_path)?);
    let mut ok = true;
    for ra in &a {
        let Some(rb) = b.iter().find(|r| r.workload == ra.workload) else {
            println!("{}: missing from {b_path}", ra.workload);
            ok = false;
            continue;
        };
        println!("{}", ra.workload);
        let (qa, qb) = (quartiles(&ra.op_ms), quartiles(&rb.op_ms));
        println!(
            "  op_ms q1/median/q3   a: {:.3} / {:.3} / {:.3} (n={})   b: {:.3} / {:.3} / {:.3} (n={})",
            qa[0],
            qa[1],
            qa[2],
            ra.op_ms.len(),
            qb[0],
            qb[1],
            qb[2],
            rb.op_ms.len()
        );
        if ra.seed == rb.seed {
            let same = ra.digest == rb.digest;
            ok &= same;
            println!(
                "  output_digest        a: {:016x}   b: {:016x}   {}",
                ra.digest,
                rb.digest,
                if same {
                    "equal"
                } else {
                    "DIFFERENT (same seed)"
                }
            );
        } else {
            println!(
                "  output_digest        seeds differ ({} vs {}): not compared",
                ra.seed, rb.seed
            );
        }
        for m in &spec.end_to_end {
            let (Some((va, _)), Some((vb, _))) = (ra.metric(&m.name), rb.metric(&m.name)) else {
                println!("  {:<20} missing", m.name);
                ok = false;
                continue;
            };
            let regressed = m.regressed(va, vb);
            ok &= !regressed;
            println!(
                "  {:<20} a: {:>12.4}   b: {:>12.4} {:<6} worse by {:>+7.2}% (bound {:.0}%)  {}",
                m.name,
                va,
                vb,
                m.unit,
                m.worsening(va, vb) * 100.0,
                m.bound.unwrap_or(f64::NAN) * 100.0,
                if regressed { "REGRESSION" } else { "ok" }
            );
        }
    }
    Ok(ok)
}
