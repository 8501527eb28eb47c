//! Workspace loading and the gate driver.
//!
//! The engine walks the repository, lexes and scans every Rust file,
//! runs the per-file and cross-crate rules, and renders the human
//! report. It never prints and never exits — `xtask` owns the terminal
//! and the exit code.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

use crate::lexer::{self, Token};
use crate::report;
use crate::rules;
use crate::scan::{self, FileFacts};

/// How a file participates in analysis.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum FileRole {
    /// `crates/<lib>/src` — every rule applies.
    Library,
    /// `crates/{bench,xtask}/src` — measurement harnesses: the
    /// crate-wide rules apply, the library-API rules do not.
    Harness,
    /// Integration tests, examples, per-crate `tests/` and `benches/`
    /// — scanned only as a reference corpus (for `dead-pub`), no rules
    /// applied.
    Reference,
}

/// Crates whose binaries are harnesses rather than library API.
pub const NON_LIBRARY_CRATES: &[&str] = &["bench", "xtask"];

/// One fully analyzed source file.
pub struct FileAnalysis {
    /// Workspace-relative path, forward slashes.
    pub rel: String,
    /// Owning crate (`ros-em`, `bench`, …; `ros-tests` / `ros-examples`
    /// for the top-level test and example trees).
    pub crate_name: String,
    /// Analysis role.
    pub role: FileRole,
    /// Raw source text.
    pub text: String,
    /// Complete token stream.
    pub tokens: Vec<Token>,
    /// Structural facts (items, test regions).
    pub facts: FileFacts,
    /// `lint: allow-…(…)` markers by 1-based line.
    pub markers: BTreeMap<usize, Vec<String>>,
    /// Marker lines that suppressed at least one rule probe this run —
    /// what `stale-suppression` subtracts from the declared markers.
    /// Interior mutability because rules hold `&FileAnalysis`.
    pub used_markers: RefCell<BTreeSet<usize>>,
}

impl FileAnalysis {
    /// Builds the analysis for one file.
    pub fn new(rel: String, crate_name: String, role: FileRole, text: String) -> Self {
        let tokens = lexer::lex(&text);
        let facts = scan::analyze(&text, &tokens);
        Self::from_parts(rel, crate_name, role, text, tokens, facts)
    }

    /// Assembles the analysis from an already lexed and scanned file
    /// (the timed loader measures those two passes separately).
    fn from_parts(
        rel: String,
        crate_name: String,
        role: FileRole,
        text: String,
        tokens: Vec<Token>,
        facts: FileFacts,
    ) -> Self {
        let mut markers: BTreeMap<usize, Vec<String>> = BTreeMap::new();
        for t in tokens.iter().filter(|t| t.is_trivia()) {
            let body = t.text(&text);
            if body.contains("lint: allow-") {
                markers.entry(t.line).or_default().push(body.to_string());
            }
        }
        FileAnalysis {
            rel,
            crate_name,
            role,
            text,
            tokens,
            facts,
            markers,
            used_markers: RefCell::new(BTreeSet::new()),
        }
    }

    /// True when `line` (or the line above it) carries a
    /// `lint: allow-<which>(` marker. A hit records the marker line as
    /// used, so rules must only probe once the finding would otherwise
    /// be reported (`stale-suppression` audits the leftovers).
    pub fn has_marker(&self, line: usize, which: &str) -> bool {
        let probe = |l: usize| {
            let hit = self
                .markers
                .get(&l)
                .is_some_and(|ms| ms.iter().any(|m| m.contains(which)));
            if hit {
                self.used_markers.borrow_mut().insert(l);
            }
            hit
        };
        let same = probe(line);
        let above = line > 1 && probe(line - 1);
        same || above
    }

    /// True for files where the library-API rules apply.
    pub fn is_library(&self) -> bool {
        self.role == FileRole::Library
    }
}

/// Walks the workspace and analyzes every relevant Rust file:
/// `crates/*/src` (rule targets) plus `crates/*/{tests,benches}`,
/// `tests/`, and `examples/` (reference corpus). Files come back
/// sorted by path.
pub fn load_workspace(root: &Path) -> std::io::Result<Vec<FileAnalysis>> {
    Ok(load_workspace_timed(root, None)?.0)
}

/// Reads `clock` when injected; a missing clock reads as a frozen zero
/// so every duration degrades to zero instead of branching everywhere.
fn now(clock: Option<fn() -> u64>) -> u64 {
    clock.map_or(0, |c| c())
}

/// [`load_workspace`] plus per-pass wall time: total nanoseconds spent
/// lexing and scanning across all files.
fn load_workspace_timed(
    root: &Path,
    clock: Option<fn() -> u64>,
) -> std::io::Result<(Vec<FileAnalysis>, u64, u64)> {
    let mut paths: Vec<(PathBuf, String, FileRole)> = Vec::new();

    let crates_dir = root.join("crates");
    for entry in std::fs::read_dir(&crates_dir)? {
        let dir = entry?.path();
        if !dir.is_dir() {
            continue;
        }
        let name = dir
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        let src = dir.join("src");
        if src.is_dir() {
            let role = if NON_LIBRARY_CRATES.contains(&name.as_str()) {
                FileRole::Harness
            } else {
                FileRole::Library
            };
            collect_rs(&src, &mut paths, &name, role)?;
        }
        for sub in ["tests", "benches"] {
            let reference = dir.join(sub);
            if reference.is_dir() {
                collect_rs(&reference, &mut paths, &name, FileRole::Reference)?;
            }
        }
    }
    for (sub, crate_name) in [("tests", "ros-tests"), ("examples", "ros-examples")] {
        let dir = root.join(sub);
        if dir.is_dir() {
            collect_rs(&dir, &mut paths, crate_name, FileRole::Reference)?;
        }
    }
    paths.sort();

    let mut out = Vec::with_capacity(paths.len());
    let (mut lex_ns, mut scan_ns) = (0u64, 0u64);
    for (path, crate_name, role) in paths {
        let text = std::fs::read_to_string(&path)?;
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        let t0 = now(clock);
        let tokens = lexer::lex(&text);
        let t1 = now(clock);
        let facts = scan::analyze(&text, &tokens);
        let t2 = now(clock);
        lex_ns += t1.saturating_sub(t0);
        scan_ns += t2.saturating_sub(t1);
        out.push(FileAnalysis::from_parts(rel, crate_name, role, text, tokens, facts));
    }
    Ok((out, lex_ns, scan_ns))
}

fn collect_rs(
    dir: &Path,
    out: &mut Vec<(PathBuf, String, FileRole)>,
    crate_name: &str,
    role: FileRole,
) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            collect_rs(&path, out, crate_name, role)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push((path.clone(), crate_name.to_string(), role));
        }
    }
    Ok(())
}

/// Wall time of each analyzer pass, nanoseconds. All zero unless the
/// driver injects a clock into [`run_gate`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
// lint: allow-dead-pub(GateOutcome::timings; the driver reads fields, never the name)
pub struct PassTimings {
    /// Lexing every workspace file.
    pub lex_ns: u64,
    /// Item/test-region scanning.
    pub scan_ns: u64,
    /// Call-graph construction.
    pub callgraph_ns: u64,
    /// Rule execution (everything else in `check_all`).
    pub rules_ns: u64,
    /// The whole gate run, load to report.
    pub total_ns: u64,
}

/// The outcome of one gate run, ready for the driver to print.
pub struct GateOutcome {
    /// The gate passed (no findings).
    pub passed: bool,
    /// Human-readable report (print as-is).
    pub human_report: String,
    /// Per-pass wall time (zeros without an injected clock).
    pub timings: PassTimings,
}

/// Runs the full gate: load → analyze → report. Any finding fails it.
///
/// `root` is the workspace root (the directory holding `crates/`).
/// `clock` is a monotonic nanosecond clock injected by the driver;
/// `None` leaves every reported pass time at zero (the engine itself
/// never reads the OS clock — that is the driver's edge).
pub fn run_gate(root: &Path, clock: Option<fn() -> u64>) -> Result<GateOutcome, String> {
    let t0 = now(clock);
    let (files, lex_ns, scan_ns) = load_workspace_timed(root, clock)
        .map_err(|e| format!("cannot walk {}: {e}", root.display()))?;
    let (findings, callgraph_ns, rules_ns) = rules::check_all_timed(&files, clock);
    let n_files = files
        .iter()
        .filter(|f| f.role != FileRole::Reference)
        .count();
    let timings = PassTimings {
        lex_ns,
        scan_ns,
        callgraph_ns,
        rules_ns,
        total_ns: now(clock).saturating_sub(t0),
    };
    Ok(GateOutcome {
        passed: findings.is_empty(),
        human_report: report::human_report(&findings, n_files),
        timings,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fa(src: &str) -> FileAnalysis {
        FileAnalysis::new(
            "crates/ros-em/src/s.rs".to_string(),
            "ros-em".to_string(),
            FileRole::Library,
            src.to_string(),
        )
    }

    #[test]
    fn marker_probes_finding_line_and_line_above() {
        let f = fa(
            "// lint: allow-alloc(above)\nlet a = v.clone();\nlet b = v.clone(); // lint: allow-alloc(same)\n\nlet c = v.clone();\n",
        );
        assert!(f.has_marker(2, "allow-alloc"));
        assert!(f.has_marker(3, "allow-alloc"));
        assert!(!f.has_marker(5, "allow-alloc"));
        // Marker names do not cross-suppress.
        assert!(!f.has_marker(2, "allow-dead-pub"));
    }

    #[test]
    fn marker_in_string_literal_is_not_a_marker() {
        let f = fa("let s = \"lint: allow-alloc(nope)\";\nlet a = v.clone();\n");
        assert!(!f.has_marker(2, "allow-alloc"));
    }

    #[test]
    fn roles_and_is_library() {
        assert!(fa("").is_library());
        let bench = FileAnalysis::new(
            "crates/bench/src/main.rs".to_string(),
            "bench".to_string(),
            FileRole::Harness,
            String::new(),
        );
        assert!(!bench.is_library());
        assert!(NON_LIBRARY_CRATES.contains(&"bench") && NON_LIBRARY_CRATES.contains(&"xtask"));
    }
}
