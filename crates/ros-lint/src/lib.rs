//! ros-lint — workspace static analysis for the RoS pipeline.
//!
//! rustc and clippy gate the generic conventions (no `unwrap`, no
//! `panic!`, no printing, no bare `as` casts, no raw thread spawns or
//! wall-clock reads, no `f64::to_radians`/`to_degrees` outside
//! `ros_em::units`, documented pub items) through the root
//! `[workspace.lints]` table and `clippy.toml`. This crate keeps the
//! three rules those tools cannot express because they need the whole
//! workspace or this repo's own vocabulary: a cross-crate reference
//! graph that follows declarations (`dead-pub`), no inline dB-to-linear
//! `powf` formulas (`typed-conversions`), and no bare `f64` `*_db`/
//! `*_deg` parameters (`typed-db-params`). No rule takes a suppression
//! marker. Behaviour a test can measure is measured,
//! not guessed: the zero-allocation steady-state frame is
//! `tests/alloc_budget.rs`'s counting allocator (DESIGN.md §14), and
//! lock discipline is a test proving each of the workspace's three
//! mutexes is a leaf (DESIGN.md §17). Hash-ordered iteration cannot
//! happen in library code at all: clippy bans `HashMap`/`HashSet`
//! there.
//!
//! It is a dependency-free analyzer that lexes every workspace source
//! file into a real token stream ([`lexer`]), recovers the item
//! structure lint rules need ([`scan`]), and runs a catalog of rules
//! with stable IDs ([`rules::RULES`]) over a trivia-free
//! [`rules::CodeView`] of each file. Any finding fails the gate.
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

pub mod engine;
pub mod lexer;
mod report;
pub mod rules;
pub mod scan;

pub use engine::{run_gate, FileAnalysis, FileRole, GateOutcome};
pub use rules::{Finding, RuleInfo, RULES};
