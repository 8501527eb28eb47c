//! End-to-end exercise of the ros-lint public API: build a synthetic
//! mini-workspace on disk, run the full gate against it, seed a
//! violation per rule family and watch it fail the gate, then fix it
//! and watch the gate pass — the exact workflow
//! `cargo run -p xtask -- lint` and verify.sh drive.

use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use ros_lint::engine::{load_workspace, GateOutcome};
use ros_lint::lexer::{lex, Token};
use ros_lint::{rules, scan};
use ros_lint::{run_gate, FileAnalysis, FileRole};

/// A throwaway workspace root under the target-adjacent temp dir.
struct TempWs {
    root: PathBuf,
}

impl TempWs {
    fn new(tag: &str) -> Self {
        let root = std::env::temp_dir().join(format!("ros-lint-e2e-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&root);
        fs::create_dir_all(root.join("crates/demo/src")).expect("mkdir");
        TempWs { root }
    }

    fn write(&self, rel: &str, contents: &str) {
        let path = self.root.join(rel);
        if let Some(parent) = path.parent() {
            fs::create_dir_all(parent).expect("mkdir");
        }
        fs::write(path, contents).expect("write");
    }
}

impl Drop for TempWs {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.root);
    }
}

const CLEAN_LIB: &str = "\
//! Demo crate.

/// Documented, and referenced from the test region below.
pub fn answer() -> u32 {
    41 + 1
}

#[cfg(test)]
mod tests {
    #[test]
    fn t() {
        assert_eq!(super::answer(), 42);
    }
}
";

#[test]
fn gate_passes_on_clean_tree() {
    let ws = TempWs::new("clean");
    ws.write("crates/demo/src/lib.rs", CLEAN_LIB);
    let outcome: GateOutcome = run_gate(&ws.root, None).expect("gate runs");
    assert!(outcome.passed, "clean tree must pass:\n{}", outcome.human_report);
    assert!(outcome.human_report.contains("files clean"));
    // Without an injected clock every pass time reads zero.
    assert_eq!(outcome.timings.total_ns, 0);
}

#[test]
fn new_violation_fails_gate_until_fixed() {
    let ws = TempWs::new("fresh");
    ws.write("crates/demo/src/lib.rs", CLEAN_LIB);
    ws.write(
        "crates/demo/src/conv.rs",
        "//! Conversion module.\n\n/// Steers by an angle given in degrees.\npub fn steer(az: f64) -> f64 {\n    az.to_radians().sin()\n}\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { assert_eq!(super::steer(0.0), 0.0); }\n}\n",
    );

    // Any finding fails the gate.
    let outcome = run_gate(&ws.root, None).expect("gate runs");
    assert!(!outcome.passed);
    assert!(
        outcome.human_report.contains("crates/demo/src/conv.rs:5: [typed-conversions]"),
        "{}",
        outcome.human_report
    );
    let files = load_workspace(&ws.root).expect("walk");
    assert!(files.iter().all(|f| f.role != FileRole::Reference));
    assert_eq!(ros_lint::rules::check_all(&files).len(), 1);

    // Fixed through the typed-units path: the gate goes green.
    ws.write(
        "crates/demo/src/conv.rs",
        "//! Conversion module.\n\n/// Steers by an angle.\npub fn steer(az: Degrees) -> f64 {\n    az.radians().sin()\n}\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { assert_eq!(super::steer(Degrees(0.0)), 0.0); }\n}\n",
    );
    let outcome = run_gate(&ws.root, None).expect("gate runs");
    assert!(outcome.passed, "{}", outcome.human_report);
}

#[test]
fn library_internals_compose_outside_the_gate() {
    // The pieces run_gate glues together are usable à la carte: lex a
    // source, keep its Token spans, and scan the item structure.
    let src = "//! docs\n/// D.\npub fn f() {}\n// trailing\n";
    let toks: Vec<Token> = lex(src);
    assert!(toks.last().is_some_and(Token::is_trivia));
    let facts = scan::analyze(src, &toks);
    assert_eq!(facts.items.len(), 1);
    assert!(facts.items[0].has_doc);
}

#[test]
fn alloc_findings_propagate_transitively_and_respect_allow_markers() {
    // A two-crate workspace where the hot entry lives in `alpha` and
    // the allocations live two hops away in `beta`: the call graph
    // must carry hotness across the crate boundary, name the witness
    // entry in the message, and honor `lint: allow-alloc`.
    let ws = TempWs::new("alloc");
    ws.write(
        "crates/alpha/src/lib.rs",
        "//! Alpha crate.\n\n\
         /// Steady-state entry point.\n\
         // lint: hot-path\n\
         pub fn entry(n: u32) -> u32 {\n    beta_helper(n)\n}\n\n\
         /// Cross-crate shim.\n\
         pub fn beta_helper(n: u32) -> u32 {\n    beta::helper(n)\n}\n\n\
         #[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {\n        assert_eq!(super::entry(0), 0);\n        assert_eq!(super::beta_helper(0), 0);\n    }\n}\n",
    );
    ws.write(
        "crates/beta/src/lib.rs",
        "//! Beta crate.\n\n\
         /// Allocates twice; only one allocation is sanctioned.\n\
         pub fn helper(n: u32) -> u32 {\n\
             let v: Vec<u32> = (0..n).collect();\n\
             // lint: allow-alloc(fixed-size scratch, measured negligible)\n\
             let w: Vec<u32> = Vec::new();\n\
             v.len() as u32 + w.len() as u32\n\
         }\n",
    );

    let outcome = run_gate(&ws.root, None).expect("gate runs");
    assert!(!outcome.passed, "{}", outcome.human_report);
    let alloc_lines: Vec<&str> = outcome
        .human_report
        .lines()
        .filter(|l| l.contains("[alloc-in-hot-path]"))
        .collect();
    // Exactly one finding: `.collect()` in beta::helper. The marked
    // `Vec::new()` right below it stays silent.
    assert_eq!(alloc_lines.len(), 1, "{}", outcome.human_report);
    assert!(
        alloc_lines[0].contains("crates/beta/src/lib.rs")
            && alloc_lines[0].contains("`.collect()`")
            && alloc_lines[0].contains("`helper`")
            && alloc_lines[0].contains("`entry`"),
        "unexpected finding line: {}",
        alloc_lines[0]
    );
}

/// Runs the gate and returns the `[rule-id]` finding lines from the
/// human report, plus whether the gate passed.
fn gate_rule_lines(ws: &TempWs, rule: &str) -> (bool, Vec<String>) {
    let outcome = run_gate(&ws.root, None).expect("gate runs");
    let tag = format!("[{rule}]");
    let lines = outcome
        .human_report
        .lines()
        .filter(|l| l.contains(&tag))
        .map(str::to_string)
        .collect();
    (outcome.passed, lines)
}

#[test]
fn stale_suppression_e2e_catches_dead_marker_and_passes_after_removal() {
    let ws = TempWs::new("stale");
    ws.write(
        "crates/eps/src/lib.rs",
        "//! Eps crate.\n\n\
         /// Compares within tolerance; the marker outlived its finding.\n\
         // lint: allow-dead-pub(legacy export)\n\
         pub fn close(a: f64, b: f64) -> bool {\n\
             (a - b).abs() < 1e-9\n\
         }\n\n\
         #[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { assert!(super::close(0.0, 0.0)); }\n}\n",
    );
    let (passed, lines) = gate_rule_lines(&ws, "stale-suppression");
    assert!(!passed);
    assert_eq!(lines.len(), 1, "{lines:?}");
    assert!(
        lines[0].contains("crates/eps/src/lib.rs:4") && lines[0].contains("dead-pub"),
        "{lines:?}"
    );

    // Fixed: the marker is gone.
    ws.write(
        "crates/eps/src/lib.rs",
        "//! Eps crate.\n\n\
         /// Compares within tolerance.\n\
         pub fn close(a: f64, b: f64) -> bool {\n\
             (a - b).abs() < 1e-9\n\
         }\n\n\
         #[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { assert!(super::close(0.0, 0.0)); }\n}\n",
    );
    let (passed, lines) = gate_rule_lines(&ws, "stale-suppression");
    assert!(passed, "{lines:?}");
    assert!(lines.is_empty(), "{lines:?}");
}

static TICKS: AtomicU64 = AtomicU64::new(0);

fn fake_clock() -> u64 {
    TICKS.fetch_add(7, Ordering::Relaxed)
}

#[test]
fn check_all_timed_matches_check_all_and_measures_passes() {
    let src = "//! Demo.\n\n/// D.\npub fn f(a: f64) -> f64 {\n    a.to_radians()\n}\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { super::f(0.0); }\n}\n";
    let files = || {
        [FileAnalysis::new(
            "crates/demo/src/lib.rs".to_string(),
            "demo".to_string(),
            FileRole::Library,
            src.to_string(),
        )]
    };
    let plain = rules::check_all(&files());
    let (timed, callgraph_ns, rules_ns) = rules::check_all_timed(&files(), Some(fake_clock));
    let fmt = |fs: &[ros_lint::Finding]| -> Vec<String> {
        fs.iter().map(|f| format!("{}:{}:{}", f.rule, f.file, f.line)).collect()
    };
    assert_eq!(fmt(&plain), ["typed-conversions:crates/demo/src/lib.rs:5"]);
    assert_eq!(fmt(&plain), fmt(&timed), "timing must not change the verdict");
    // The fake clock advances 7 per read, so each pass measures > 0.
    assert!(callgraph_ns > 0 && rules_ns > 0);
    // Without a clock, timings are zero (the engine never reads the
    // OS clock itself).
    let (_, cg0, r0) = rules::check_all_timed(&files(), None);
    assert_eq!((cg0, r0), (0, 0));
}
