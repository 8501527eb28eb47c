//! ros-lint — workspace static analysis for the RoS pipeline.
//!
//! rustc and clippy gate the generic conventions (no `unwrap`, no
//! `panic!`, no printing, no bare `as` casts, no raw thread spawns or
//! wall-clock reads, documented pub items) through the root
//! `[workspace.lints]` table and `clippy.toml`. This crate keeps the
//! rules those tools cannot express because they need the whole
//! workspace or this repo's own vocabulary: a cross-crate reference
//! graph (`dead-pub`), hot-path allocation reachability over a call
//! graph, unit-typed dB/angle math, and an audit of its own
//! suppression markers. Lock discipline is not analyzed here: the
//! workspace has three mutexes, and a test proves each is a leaf
//! (DESIGN.md §17). Hash-ordered iteration cannot happen in library
//! code at all: clippy bans `HashMap`/`HashSet` there.
//!
//! It is a dependency-free analyzer that lexes every workspace source
//! file into a real token stream ([`lexer`]), recovers the item
//! structure lint rules need ([`scan`]), and runs a catalog of rules
//! with stable IDs ([`rules::RULES`]). Any finding fails the gate.
//! [`engine::run_gate`] is the whole entry point;
//! `cargo run -p xtask -- lint` is the thin driver around it:
//!
//! ```text
//! cargo run -p xtask -- lint                  # gate (human report)
//! cargo run -p xtask -- lint --explain ID     # one rule's rationale and fix
//! ```
//!
//! The crate never prints and never exits — it returns strings and
//! verdicts; the driver owns the terminal.

pub mod callgraph;
pub mod engine;
pub mod lexer;
mod report;
pub mod rules;
pub mod scan;
pub mod syntax;

pub use engine::{run_gate, FileAnalysis, FileRole, GateOutcome};
pub use rules::{Finding, RuleInfo, RULES};
