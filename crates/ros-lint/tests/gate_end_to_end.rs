//! End-to-end exercise of the ros-lint public API: build a synthetic
//! mini-workspace on disk, run the full gate against it, seed a
//! violation per rule family and watch it fail the gate, then fix it
//! and watch the gate pass — the exact workflow
//! `cargo run -p xtask -- lint` and verify.sh drive.

use std::fs;
use std::path::PathBuf;

use ros_lint::engine::{load_workspace, GateOutcome};
use ros_lint::lexer::{lex, Token};
use ros_lint::scan;
use ros_lint::{run_gate, FileRole};

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
    let outcome: GateOutcome = run_gate(&ws.root).expect("gate runs");
    assert!(
        outcome.passed,
        "clean tree must pass:\n{}",
        outcome.human_report
    );
    assert!(outcome.human_report.contains("files clean"));
}

#[test]
fn new_violation_fails_gate_until_fixed() {
    let ws = TempWs::new("fresh");
    ws.write("crates/demo/src/lib.rs", CLEAN_LIB);
    ws.write(
        "crates/demo/src/conv.rs",
        "//! Conversion module.\n\n/// Scales by a gain given in dB.\npub fn scale(x: f64, gain: f64) -> f64 {\n    x * 10f64.powf(gain / 10.0)\n}\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { assert_eq!(super::scale(1.0, 0.0), 1.0); }\n}\n",
    );

    // Any finding fails the gate.
    let outcome = run_gate(&ws.root).expect("gate runs");
    assert!(!outcome.passed);
    assert!(
        outcome
            .human_report
            .contains("crates/demo/src/conv.rs:5: [typed-conversions]"),
        "{}",
        outcome.human_report
    );
    let files = load_workspace(&ws.root).expect("walk");
    assert!(files.iter().all(|f| f.role != FileRole::Reference));
    // The literal base and the `/ 10.0` divisor each report.
    let findings = ros_lint::rules::check_all(&files);
    assert_eq!(findings.len(), 2, "{findings:?}");
    assert!(findings
        .iter()
        .all(|f| f.rule == "typed-conversions" && f.line == 5));

    // Fixed through the typed-units path: the gate goes green.
    ws.write(
        "crates/demo/src/conv.rs",
        "//! Conversion module.\n\n/// Scales by a gain.\npub fn scale(x: f64, gain: Db) -> f64 {\n    x * gain.ratio()\n}\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { assert_eq!(super::scale(1.0, Db(0.0)), 1.0); }\n}\n",
    );
    let outcome = run_gate(&ws.root).expect("gate runs");
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
