//! Workspace loading and the gate driver.
//!
//! The engine walks the repository, lexes and scans every Rust file,
//! runs the per-file and cross-crate rules, and renders the human
//! report. It never prints and never exits — `xtask` owns the terminal
//! and the exit code.

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
    /// Integration tests, examples and per-crate `tests/` — scanned
    /// only as a reference corpus (for `dead-pub`), no rules applied.
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
}

impl FileAnalysis {
    /// Builds the analysis for one file.
    pub fn new(rel: String, crate_name: String, role: FileRole, text: String) -> Self {
        let tokens = lexer::lex(&text);
        let facts = scan::analyze(&text, &tokens);
        FileAnalysis {
            rel,
            crate_name,
            role,
            text,
            tokens,
            facts,
        }
    }

    /// True for files where the library-API rules apply.
    pub fn is_library(&self) -> bool {
        self.role == FileRole::Library
    }
}

/// Walks the workspace and analyzes every relevant Rust file:
/// `crates/*/src` (rule targets) plus `crates/*/tests`, `tests/`, and
/// `examples/` (reference corpus). Files come back sorted by path.
pub fn load_workspace(root: &Path) -> std::io::Result<Vec<FileAnalysis>> {
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
        let reference = dir.join("tests");
        if reference.is_dir() {
            collect_rs(&reference, &mut paths, &name, FileRole::Reference)?;
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
    for (path, crate_name, role) in paths {
        let text = std::fs::read_to_string(&path)?;
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        out.push(FileAnalysis::new(rel, crate_name, role, text));
    }
    Ok(out)
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

/// The outcome of one gate run, ready for the driver to print.
pub struct GateOutcome {
    /// The gate passed (no findings).
    pub passed: bool,
    /// Human-readable report (print as-is).
    pub human_report: String,
}

/// Runs the full gate: load → analyze → report. Any finding fails it.
///
/// `root` is the workspace root (the directory holding `crates/`).
pub fn run_gate(root: &Path) -> Result<GateOutcome, String> {
    let files = load_workspace(root).map_err(|e| format!("cannot walk {}: {e}", root.display()))?;
    let findings = rules::check_all(&files);
    let n_files = files
        .iter()
        .filter(|f| f.role != FileRole::Reference)
        .count();
    Ok(GateOutcome {
        passed: findings.is_empty(),
        human_report: report::human_report(&findings, n_files),
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
