//! Workspace automation tasks, `cargo xtask` style.
//!
//! `xtask` is a thin terminal driver; all analysis lives in
//! [`ros_lint`] (see DESIGN.md §12 for the architecture and the rule
//! catalog):
//!
//! ```text
//! cargo run -p xtask -- lint                        # static-analysis gate
//! cargo run -p xtask -- lint --explain RULE-ID      # rationale + fix guidance
//! ```
//!
//! The gate exits non-zero on any finding. It complements
//! `cargo clippy --workspace`, which enforces the generic conventions.
#![allow(
    clippy::print_stdout,
    clippy::print_stderr,
    reason = "a terminal driver: printing is its job"
)]

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    match args.as_slice() {
        ["lint"] => lint(),
        ["lint", "--explain", id] => explain(id),
        _ => {
            eprintln!(
                "usage: cargo run -p xtask -- lint\n\
                        cargo run -p xtask -- lint --explain RULE-ID"
            );
            ExitCode::from(2)
        }
    }
}

/// Prints one rule's catalog entry: summary, rationale, fix guidance.
fn explain(id: &str) -> ExitCode {
    let Some(r) = ros_lint::rules::rule(id) else {
        eprintln!("xtask lint: unknown rule `{id}`; known rules:");
        for r in ros_lint::RULES {
            eprintln!("  {}", r.id);
        }
        return ExitCode::from(2);
    };
    println!("{}", r.id);
    println!("  {}", r.summary);
    println!("\nwhy:\n  {}", r.rationale);
    println!("\nfix:\n  {}", r.fix);
    ExitCode::SUCCESS
}

/// Locates the workspace root: the manifest dir of xtask is
/// `crates/xtask`, two levels below the root; fall back to the current
/// directory (the normal `cargo run` case).
fn workspace_root() -> PathBuf {
    if let Some(manifest) = std::env::var_os("CARGO_MANIFEST_DIR") {
        let p = PathBuf::from(manifest);
        if let Some(root) = p.ancestors().nth(2) {
            return root.to_path_buf();
        }
    }
    PathBuf::from(".")
}

fn lint() -> ExitCode {
    match ros_lint::run_gate(&workspace_root()) {
        Ok(outcome) => {
            print!("{}", outcome.human_report);
            if outcome.passed {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("xtask lint: {e}");
            ExitCode::from(2)
        }
    }
}
