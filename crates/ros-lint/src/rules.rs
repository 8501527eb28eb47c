//! The rule engine: stable rule IDs and the checks.
//!
//! Two rule shapes exist. *Per-file* rules see one analyzed file at a
//! time (`typed-conversions`, `typed-db-params`). *Workspace* rules see
//! every file at once (`dead-pub` builds a cross-crate reference graph;
//! the hot-path rule runs over the call graph). All rules work on the token
//! stream from [`crate::lexer`] — string literals, comments, and
//! `#[cfg(test)]` regions cannot fool them the way they fooled the old
//! line scanner.
//!
//! The generic conventions (unwrap, panic, print, raw casts, raw
//! spawns, wall-clock reads, hash collections, float equality, pub
//! docs) are rustc and clippy lints configured in the root `Cargo.toml`
//! and `clippy.toml`, not rules here.
//! Rule IDs are stable: they name the `lint: allow-<rule>(reason)`
//! markers and the report tags.

use std::collections::{BTreeMap, BTreeSet};

use crate::callgraph;
use crate::engine::{FileAnalysis, FileRole};
use crate::lexer::TokenKind;
use crate::scan::{Item, ItemKind, Visibility};
use crate::syntax::{self, CodeView as View};

/// Static description of one rule.
// lint: allow-dead-pub(element of RULES and returned by rule(); callers read fields, never the name)
pub struct RuleInfo {
    /// Stable identifier (report tag, `--explain` key).
    pub id: &'static str,
    /// One-line summary for reports and docs.
    pub summary: &'static str,
    /// Why the rule exists — which workspace invariant it guards
    /// (`xtask lint --explain` prints this).
    pub rationale: &'static str,
    /// How to fix a finding (including the marker escape, if any).
    pub fix: &'static str,
}

/// The rule catalog, in report order: the unit-safety and API rules
/// on the token stream, then the rules built on the semantic layer
/// ([`crate::syntax`] / [`crate::callgraph`]).
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        id: "typed-conversions",
        summary: "inline dB/angle conversion idioms forbidden outside ros_em::units",
        rationale: "Sign/factor errors in hand-rolled dB and angle math caused real \
                    regressions; one audited module owns the formulas.",
        fix: "Go through ros_em::units (Degrees/Radians, DbPower/DbAmplitude) or \
              ros_em::db.",
    },
    RuleInfo {
        id: "typed-db-params",
        summary: "public fns must not take bare f64 *_db/*_deg parameters",
        rationale: "A bare f64 named `gain_db` invites callers to pass linear gain; \
                    the typed wrappers make the unit part of the signature.",
        fix: "Take ros_em::units::Db / Degrees instead of f64.",
    },
    RuleInfo {
        id: "dead-pub",
        summary: "pub library items must be referenced from another crate, tests, or examples",
        rationale: "Unreferenced API surface rots silently — it compiles, is never \
                    exercised, and constrains refactors for no benefit. Any identifier \
                    of the same name counts as a reference to an item, except for a \
                    `pub mod`: a module counts as referenced only where its name is a \
                    path segment (`m::x`, `a::m`) or sits in a `use` declaration, so a \
                    same-named method or field cannot keep an orphan module alive.",
        fix: "Delete it, demote to pub(crate), or mark `lint: allow-dead-pub(reason)` \
              with the keep justification. A module that outside code reaches only \
              through crate-root `pub use` re-exports should be a private `mod`.",
    },
    RuleInfo {
        id: "alloc-in-hot-path",
        summary: "allocation idioms forbidden in fns reachable from `lint: hot-path` entries",
        rationale: "ROADMAP item 2 targets zero allocations per steady-state frame on \
                    the capture→detect→decode path; the call-graph closure from the \
                    annotated entry points is that path, statically.",
        fix: "Hoist the allocation into a constructor/scratch buffer, or mark \
              `lint: allow-alloc(reason)` for setup-only code.",
    },
    RuleInfo {
        id: "stale-suppression",
        summary: "a `lint: allow-*` or `lint: hot-path` marker no longer does anything",
        rationale: "A suppression that outlives its finding is a silent hole: the \
                    next real violation on that line inherits the stale excuse. \
                    Auditing markers keeps the escape hatches honest.",
        fix: "Delete the marker, or move it onto the line (or fn, for hot-path) it \
              was meant to annotate. Unknown `allow-<name>` markers are typos: fix \
              the rule name.",
    },
];

/// Looks a rule up by ID.
pub fn rule(id: &str) -> Option<&'static RuleInfo> {
    RULES.iter().find(|r| r.id == id)
}

/// One reported violation.
#[derive(Clone, Debug, PartialEq)]
pub struct Finding {
    /// Stable rule ID.
    pub rule: &'static str,
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// Human explanation.
    pub message: String,
}

/// The one file allowed to spell out raw dB/angle conversions.
const UNITS_MODULE: &str = "crates/ros-em/src/units.rs";

/// Runs every rule over the analyzed workspace; findings come back
/// sorted by (file, line, rule).
pub fn check_all(files: &[FileAnalysis]) -> Vec<Finding> {
    check_all_timed(files, None).0
}

/// [`check_all`] plus per-pass wall time: `(findings, callgraph_ns,
/// rules_ns)`. The clock is injected by the driver (see
/// [`crate::engine::run_gate`]); `None` reports zeros.
pub fn check_all_timed(
    files: &[FileAnalysis],
    clock: Option<fn() -> u64>,
) -> (Vec<Finding>, u64, u64) {
    let now = |c: Option<fn() -> u64>| c.map_or(0, |f| f());
    let t0 = now(clock);
    let graph = callgraph::build(files);
    let t1 = now(clock);

    let mut out = Vec::new();
    for fa in files.iter().filter(|f| f.role != FileRole::Reference) {
        check_file(fa, &mut out);
    }
    dead_pub(files, &mut out);
    alloc_in_hot_path(files, &graph, &mut out);
    // Must run after every other rule: it audits which markers the
    // probes above actually consumed.
    stale_suppression(files, &mut out);
    out.sort_by(|a, b| {
        (&a.file, a.line, a.rule, &a.message).cmp(&(&b.file, b.line, b.rule, &b.message))
    });
    let t2 = now(clock);
    (out, t1.saturating_sub(t0), t2.saturating_sub(t1))
}

fn push(out: &mut Vec<Finding>, id: &'static str, fa: &FileAnalysis, line: usize, message: String) {
    out.push(Finding {
        rule: id,
        file: fa.rel.clone(),
        line,
        message,
    });
}

/// Runs the per-file rules over one file (the workspace rules run
/// from [`check_all`]).
pub fn check_file(fa: &FileAnalysis, out: &mut Vec<Finding>) {
    let v = View::new(fa);
    typed_conversions(&v, out);
    typed_db_params(fa, out);
}

/// Literal receivers of `.powf(` that spell a dB-to-linear conversion.
const DB_BASE_LITERALS: &[&str] = &["10f64", "10.0f64", "10.0", "10_f64", "10."];

/// Divisors inside `powf(x / …)` that mark the dB families.
const DB_DIVISORS: &[&str] = &["10.0", "20.0", "10_f64", "20_f64", "10.0f64", "20.0f64"];

fn typed_conversions(v: &View<'_>, out: &mut Vec<Finding>) {
    if v.fa.rel == UNITS_MODULE {
        return;
    }
    for ci in 0..v.len() {
        if v.in_test(ci) {
            continue;
        }
        // `.to_radians()` / `.to_degrees()`
        if v.is_punct(ci, ".")
            && v.ident_in(ci + 1, &["to_radians", "to_degrees"])
            && v.is_punct(ci + 2, "(")
        {
            push(
                out,
                "typed-conversions",
                v.fa,
                v.line(ci + 1),
                format!(
                    "inline `.{}()` conversion; go through ros_em::units \
                     (Degrees/Radians, DbPower/DbAmplitude) or ros_em::db",
                    v.text(ci + 1)
                ),
            );
        }
        if v.is_punct(ci, ".") && v.is_ident(ci + 1, "powf") && v.is_punct(ci + 2, "(") {
            // `10f64.powf(…)`-style literal base.
            if ci > 0
                && matches!(v.kind(ci - 1), Some(TokenKind::Float | TokenKind::Int))
                && DB_BASE_LITERALS.contains(&v.text(ci - 1))
            {
                push(
                    out,
                    "typed-conversions",
                    v.fa,
                    v.line(ci + 1),
                    format!(
                        "inline `{}.powf(` conversion; go through ros_em::units or \
                         ros_em::db",
                        v.text(ci - 1)
                    ),
                );
            }
            // `powf(x / 10.0)` / `powf(x / 20.0)` dB idiom: scan the
            // argument group for `/ <10|20>)` at any nesting.
            let mut depth = 0usize;
            let mut cj = ci + 2;
            while cj < v.len() {
                if v.is_punct(cj, "(") {
                    depth += 1;
                } else if v.is_punct(cj, ")") {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                if v.is_punct(cj, "/")
                    && v.kind(cj + 1) == Some(TokenKind::Float)
                    && DB_DIVISORS.contains(&v.text(cj + 1))
                    && v.is_punct(cj + 2, ")")
                {
                    push(
                        out,
                        "typed-conversions",
                        v.fa,
                        v.line(cj),
                        "inline dB-to-linear `powf(x / 10.0|20.0)`; use \
                         ros_em::db::db_to_pow / db_to_lin or the units types"
                            .to_string(),
                    );
                }
                cj += 1;
            }
        }
    }
}

fn typed_db_params(fa: &FileAnalysis, out: &mut Vec<Finding>) {
    if !fa.is_library() {
        return;
    }
    for item in &fa.facts.items {
        if item.kind != ItemKind::Fn
            || item.vis != Visibility::Pub
            || item.in_test
            || item.in_trait_impl
        {
            continue;
        }
        let Some((sig_start, sig_end)) = item.sig else {
            continue;
        };
        // Walk the signature tokens for `<name>_db: f64` / `<name>_deg: f64`.
        let toks = &fa.tokens[sig_start..sig_end.min(fa.tokens.len())];
        for (k, t) in toks.iter().enumerate() {
            if t.kind != TokenKind::Ident {
                continue;
            }
            let name = t.text(&fa.text);
            let suffix = if name.ends_with("_db") {
                "_db"
            } else if name.ends_with("_deg") {
                "_deg"
            } else {
                continue;
            };
            // Next two non-trivia tokens must be `:` and `f64`.
            let mut rest = toks[k + 1..].iter().filter(|t| !t.is_trivia());
            let colon = rest.next();
            let ty = rest.next();
            let is_colon = colon.is_some_and(|t| {
                t.kind == TokenKind::Punct && t.text(&fa.text) == ":"
            });
            let is_f64 = ty.is_some_and(|t| {
                t.kind == TokenKind::Ident && t.text(&fa.text) == "f64"
            });
            if is_colon && is_f64 {
                push(
                    out,
                    "typed-db-params",
                    fa,
                    item.line,
                    format!(
                        "public fn takes bare `{name}: f64`; use `ros_em::units::{}`",
                        if suffix == "_deg" { "Degrees" } else { "Db" }
                    ),
                );
            }
        }
    }
}

/// Constructor owners whose associated fns allocate.
const ALLOC_OWNERS: &[&str] = &["Box", "Vec"];

/// Allocating constructor names under [`ALLOC_OWNERS`].
const ALLOC_CTORS: &[&str] = &["from", "new", "with_capacity"];

/// Allocating method names (any receiver — no inference, deliberate
/// over-approximation behind the `allow-alloc` marker).
const ALLOC_METHODS: &[&str] = &["clone", "collect", "to_vec"];

/// Call-graph-propagated allocation lint: every fn reachable from a
/// `// lint: hot-path` entry point ([`callgraph::build`]) is scanned
/// for allocation idioms. Messages name the enclosing fn and the
/// deterministic witness entry.
fn alloc_in_hot_path(files: &[FileAnalysis], graph: &callgraph::CallGraph, out: &mut Vec<Finding>) {
    for (i, node) in graph.nodes.iter().enumerate() {
        let Some(witness) = graph.hot_witness(i) else { continue };
        let Some((bs, be)) = node.body else { continue };
        let fa = &files[node.file];
        let v = View::new(fa);
        let (cs, ce) = (v.ci_at_or_after(bs), v.ci_at_or_after(be));
        let mut sites: Vec<(usize, String)> = Vec::new();
        for call in syntax::calls_in(&v, cs, ce) {
            if call.method && ALLOC_METHODS.contains(&call.name.as_str()) {
                sites.push((call.line, format!(".{}()", call.name)));
            } else if !call.method
                && ALLOC_CTORS.contains(&call.name.as_str())
                && call.qualifier.as_deref().is_some_and(|q| ALLOC_OWNERS.contains(&q))
            {
                sites.push((call.line, format!("{}::{}", call.qualifier.unwrap_or_default(), call.name)));
            }
        }
        for ci in cs..ce.min(v.len()) {
            if v.is_ident(ci, "vec") && v.is_punct(ci + 1, "!") {
                sites.push((v.line(ci), "vec![…]".to_string()));
            }
        }
        sites.sort();
        for (line, pat) in sites {
            if fa.has_marker(line, "lint: allow-alloc(") {
                continue;
            }
            push(
                out,
                "alloc-in-hot-path",
                fa,
                line,
                format!(
                    "allocation `{pat}` in `{}` on the hot path from `{}`; hoist it \
                     into a constructor/scratch buffer or mark \
                     `lint: allow-alloc(reason)`",
                    node.qualified_name(),
                    witness.qualified_name()
                ),
            );
        }
    }
}

/// Marker names the rules consult, with the owning rule id —
/// `stale-suppression`'s registry for spotting typos.
const KNOWN_MARKERS: &[(&str, &str)] = &[
    ("alloc", "alloc-in-hot-path"),
    ("dead-pub", "dead-pub"),
];

/// Audits the suppression surface: every `lint: allow-*` marker whose
/// line no rule probe consumed this run, every `allow-<name>` naming
/// no known rule, and every `lint: hot-path` marker annotating no fn.
/// Runs last in [`check_all`] (marker use is recorded by the other
/// rules' probes). Doc comments are exempt — prose *about* markers is
/// not a marker — and so are test regions.
fn stale_suppression(files: &[FileAnalysis], out: &mut Vec<Finding>) {
    for fa in files.iter().filter(|f| f.role != FileRole::Reference) {
        let used = fa.used_markers.borrow();
        for (ti, t) in fa.tokens.iter().enumerate() {
            if !matches!(t.kind, TokenKind::LineComment | TokenKind::BlockComment) {
                continue;
            }
            if fa.facts.in_test.get(ti).copied().unwrap_or(false) {
                continue;
            }
            let body = t.text(&fa.text);
            let mut rest = body;
            while let Some(at) = rest.find("lint: allow-") {
                let after = &rest[at + "lint: allow-".len()..];
                let name: String = after
                    .chars()
                    .take_while(|c| c.is_ascii_lowercase() || *c == '-')
                    .collect();
                rest = &after[name.len()..];
                match KNOWN_MARKERS.iter().find(|(m, _)| *m == name) {
                    None => push(
                        out,
                        "stale-suppression",
                        fa,
                        t.line,
                        format!(
                            "unknown suppression marker `lint: allow-{name}(…)`; no \
                             rule consults it — fix the marker name or remove it"
                        ),
                    ),
                    Some((_, rule_id)) => {
                        if !used.contains(&t.line) {
                            push(
                                out,
                                "stale-suppression",
                                fa,
                                t.line,
                                format!(
                                    "`lint: allow-{name}(…)` suppresses nothing (rule \
                                     `{rule_id}` reports no finding on this line or \
                                     the one below); remove the stale marker"
                                ),
                            );
                        }
                    }
                }
            }
            if fa.is_library() && body.contains(callgraph::HOT_PATH_MARKER) {
                let l = t.line;
                let annotates = fa.facts.items.iter().any(|it| {
                    it.kind == ItemKind::Fn
                        && !it.in_test
                        && !it.name.is_empty()
                        && (it.line == l || it.line == l + 1)
                });
                if !annotates {
                    push(
                        out,
                        "stale-suppression",
                        fa,
                        l,
                        format!(
                            "`{}` marker annotates no function (no fn on this line \
                             or the next); move it onto the entry fn or remove it",
                            callgraph::HOT_PATH_MARKER
                        ),
                    );
                }
            }
        }
    }
}

fn item_kind_str(kind: ItemKind) -> &'static str {
    match kind {
        ItemKind::Fn => "fn",
        ItemKind::Struct => "struct",
        ItemKind::Enum => "enum",
        ItemKind::Union => "union",
        ItemKind::Trait => "trait",
        ItemKind::TypeAlias => "type",
        ItemKind::Const => "const",
        ItemKind::Static => "static",
        ItemKind::Mod => "mod",
        ItemKind::Use => "use",
        ItemKind::MacroDef => "macro",
    }
}

/// Item kinds that must be referenced.
fn is_api_item(item: &Item) -> bool {
    !matches!(item.kind, ItemKind::Use)
        && !item.name.is_empty()
        && item.vis == Visibility::Pub
        && !item.in_test
        && !item.in_trait_impl
}

/// One reference set of the cross-crate graph: which identifiers occur
/// in each crate's non-test code, and which occur in test code or the
/// examples/tests trees.
#[derive(Default)]
struct Refs<'a> {
    nontest: BTreeMap<&'a str, BTreeSet<&'a str>>,
    testref: BTreeSet<&'a str>,
}

impl<'a> Refs<'a> {
    fn insert(&mut self, krate: &'a str, test: bool, ident: &'a str) {
        if test {
            self.testref.insert(ident);
        } else {
            self.nontest.entry(krate).or_default().insert(ident);
        }
    }

    /// True when `name` occurs in test code or in a crate other than
    /// `krate`.
    fn reach(&self, krate: &str, name: &str) -> bool {
        self.testref.contains(name)
            || self
                .nontest
                .iter()
                .any(|(&c, set)| c != krate && set.contains(name))
    }
}

/// Cross-crate reference graph: a `pub` item in a library crate must
/// be referenced from another crate, from test code, or from the
/// examples/tests trees — otherwise it is dead API surface. Most items
/// count any same-named identifier as a reference; a `pub mod` counts
/// only a path occurrence (next to `::`, or inside a `use`
/// declaration), so a method or field that shares its name cannot keep
/// an orphan module alive.
fn dead_pub(files: &[FileAnalysis], out: &mut Vec<Finding>) {
    let mut any = Refs::default();
    let mut paths = Refs::default();
    for fa in files {
        let v = View::new(fa);
        let mut in_use = false;
        for ci in 0..v.len() {
            if v.is_punct(ci, ";") {
                in_use = false;
            }
            if !matches!(v.kind(ci), Some(TokenKind::Ident | TokenKind::RawIdent)) {
                continue;
            }
            in_use |= v.is_ident(ci, "use");
            let i = v.tok_idx(ci);
            let ident = fa.tokens[i].text(&fa.text).trim_start_matches("r#");
            let test =
                fa.role == FileRole::Reference || fa.facts.in_test.get(i).copied().unwrap_or(false);
            any.insert(&fa.crate_name, test, ident);
            if in_use || (ci > 0 && v.is_punct(ci - 1, "::")) || v.is_punct(ci + 1, "::") {
                paths.insert(&fa.crate_name, test, ident);
            }
        }
    }

    for fa in files.iter().filter(|f| f.is_library()) {
        for item in fa.facts.items.iter().filter(|i| is_api_item(i)) {
            let refs = if matches!(item.kind, ItemKind::Mod) { &paths } else { &any };
            if refs.reach(&fa.crate_name, &item.name) {
                continue;
            }
            // Marker probe after the reference check: a marker on a
            // referenced item suppresses nothing and must read stale.
            if fa.has_marker(item.line, "lint: allow-dead-pub(") {
                continue;
            }
            push(
                out,
                "dead-pub",
                fa,
                item.line,
                format!(
                    "pub {} `{}` is never referenced outside `{}`; demote to pub(crate), \
                     delete it, or mark `lint: allow-dead-pub(reason)`",
                    item_kind_str(item.kind),
                    item.name,
                    fa.crate_name
                ),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::FileAnalysis;

    fn fa(rel: &str, src: &str) -> FileAnalysis {
        let crate_name = rel.split('/').nth(1).unwrap_or("x").to_string();
        let role = if crate::engine::NON_LIBRARY_CRATES.contains(&crate_name.as_str()) {
            FileRole::Harness
        } else if rel.starts_with("tests/") {
            FileRole::Reference
        } else {
            FileRole::Library
        };
        FileAnalysis::new(rel.to_string(), crate_name, role, src.to_string())
    }

    /// `rule:line` strings from the per-file rules, legacy-test shape.
    fn hits_in(rel: &str, src: &str) -> Vec<String> {
        let mut out = Vec::new();
        check_file(&fa(rel, src), &mut out);
        out.iter().map(|v| format!("{}:{}", v.rule, v.line)).collect()
    }

    fn scan_str(src: &str) -> Vec<String> {
        hits_in("crates/ros-em/src/sample.rs", src)
    }

    /// `rule:line` strings from the full workspace pass over a
    /// constructed file set (cross-crate rules included).
    fn all_hits(files: &[FileAnalysis]) -> Vec<String> {
        check_all(files)
            .iter()
            .map(|v| format!("{}:{}:{}", v.rule, v.file, v.line))
            .collect()
    }

    #[test]
    fn flags_db_suffixed_f64_params_across_lines() {
        let src = "pub fn g(\n    gain_db: f64,\n    az_deg: f64,\n) -> f64 { gain_db + az_deg }\n";
        let hits = scan_str(src);
        assert_eq!(hits, ["typed-db-params:1", "typed-db-params:1"]);
    }

    #[test]
    fn typed_params_pass() {
        let src = "pub fn g(gain: Db, az: Degrees, d_m: f64, x_dbsm: f64) -> f64 { 0.0 }\n";
        assert!(scan_str(src).is_empty());
    }

    #[test]
    fn flags_inline_conversions_outside_units() {
        let hits = scan_str("fn f(a: f64) -> f64 { a.to_radians() }\n");
        assert_eq!(hits, ["typed-conversions:1"]);
        let hits = scan_str("fn f(a: f64) -> f64 { 10f64.powf(a / 10.0) }\n");
        assert_eq!(hits, ["typed-conversions:1", "typed-conversions:1"]);
    }

    #[test]
    fn units_module_may_convert() {
        let src = "fn f(a: f64) -> f64 { a.to_radians() }\n";
        assert!(hits_in("crates/ros-em/src/units.rs", src).is_empty());
    }

    #[test]
    fn block_comments_span_lines() {
        let src = "/*\n a.to_radians()\n*/\nfn f() {}\n";
        assert!(scan_str(src).is_empty());
    }

    #[test]
    fn code_resumes_after_test_block() {
        let src = "#[cfg(test)]\nmod tests {\n    fn t(a: f64) -> f64 { a.to_radians() }\n}\nfn f(a: f64) -> f64 { a.to_radians() }\n";
        assert_eq!(scan_str(src), ["typed-conversions:5"]);
    }

    // ---- structural cases the old line scanner got wrong ----

    #[test]
    fn char_double_quote_regression() {
        // The old Scanner treated `'"'` as opening a string and
        // swallowed the rest of the line, hiding the conversion.
        let src = "fn f(a: f64) -> f64 { let c = '\"'; a.to_radians() }\n";
        assert_eq!(scan_str(src), ["typed-conversions:1"]);
    }

    #[test]
    fn nested_block_comment_regression() {
        // The old Scanner closed the comment at the first `*/`.
        let src = "/* outer /* inner */ a.to_radians() */\nfn f() {}\n";
        assert!(scan_str(src).is_empty());
    }

    #[test]
    fn multi_hash_raw_string_regression() {
        // The old Scanner did not recognize `r##"…"##` at all.
        let src = "fn f() { let s = r##\"a.to_radians() \"# 10f64.powf(x)\"##; }\n";
        assert!(scan_str(src).is_empty());
    }

    // ---- dead-pub ----

    #[test]
    fn dead_pub_flags_unreferenced_api() {
        let dead = fa("crates/ros-em/src/s.rs", "//! m\n/// D.\npub fn orphan() {}\n");
        let hits = all_hits(&[dead]);
        assert_eq!(hits, ["dead-pub:crates/ros-em/src/s.rs:3"]);
    }

    #[test]
    fn dead_pub_alive_via_other_crate_tests_or_reference() {
        let api = "//! m\n/// D.\npub fn used_somewhere() {}\n";
        // Another crate's non-test code.
        let dead = fa("crates/ros-em/src/s.rs", api);
        let user = fa("crates/ros-dsp/src/u.rs", "//! m\nfn f() { ros_em::used_somewhere(); }\n");
        assert!(all_hits(&[dead, user]).iter().all(|h| !h.starts_with("dead-pub")));
        // A test region in the same crate.
        let dead = fa("crates/ros-em/src/s.rs", api);
        let tests = fa(
            "crates/ros-em/src/t.rs",
            "//! m\n#[cfg(test)]\nmod tests {\n    fn t() { super::used_somewhere(); }\n}\n",
        );
        assert!(all_hits(&[dead, tests]).iter().all(|h| !h.starts_with("dead-pub")));
        // The integration-test reference corpus.
        let dead = fa("crates/ros-em/src/s.rs", api);
        let reference = fa("tests/e2e.rs", "fn t() { ros_em::used_somewhere(); }\n");
        assert!(all_hits(&[dead, reference]).iter().all(|h| !h.starts_with("dead-pub")));
    }

    #[test]
    fn dead_pub_same_crate_nontest_use_does_not_count() {
        let src = "//! m\n/// D.\npub fn self_used() {}\nfn f() { self_used(); }\n";
        let f = fa("crates/ros-em/src/s.rs", src);
        assert!(all_hits(&[f]).iter().any(|h| h.starts_with("dead-pub")));
    }

    #[test]
    fn dead_pub_module_counts_only_path_references() {
        let module = "//! m\n/// D.\npub mod taper;\n";
        let dead_pub_hits = |files: &[FileAnalysis]| -> Vec<String> {
            all_hits(files)
                .into_iter()
                .filter(|h| h.starts_with("dead-pub"))
                .collect()
        };
        // A same-named method call in another crate does not reach the module.
        let api = fa("crates/ros-antenna/src/lib.rs", module);
        let method = fa("crates/core/src/u.rs", "//! m\nfn f(x: W) { x.taper(); }\n");
        assert_eq!(
            dead_pub_hits(&[api, method]),
            ["dead-pub:crates/ros-antenna/src/lib.rs:3"]
        );
        // A `use` path does, and so does an entry in a `use` group.
        for import in ["use ros_antenna::taper;", "use ros_antenna::{shaping, taper};"] {
            let api = fa("crates/ros-antenna/src/lib.rs", module);
            let user = fa("crates/core/src/u.rs", &format!("//! m\n{import}\n"));
            assert!(dead_pub_hits(&[api, user]).is_empty(), "{import}");
        }
    }

    #[test]
    fn dead_pub_marker_suppresses() {
        let src = "//! m\n/// D.\n// lint: allow-dead-pub(API symmetry)\npub fn kept() {}\n";
        let f = fa("crates/ros-em/src/s.rs", src);
        assert!(all_hits(&[f]).iter().all(|h| !h.starts_with("dead-pub")));
    }

    #[test]
    fn rules_catalog_is_consistent() {
        // Stable IDs: every rule resolvable, no duplicates; every rule
        // carries the --explain texts.
        let mut seen = BTreeSet::new();
        for r in RULES {
            assert!(seen.insert(r.id), "duplicate rule id {}", r.id);
            assert_eq!(rule(r.id).map(|x| x.id), Some(r.id));
            assert!(!r.summary.is_empty());
            assert!(!r.rationale.is_empty(), "{} has no rationale", r.id);
            assert!(!r.fix.is_empty(), "{} has no fix guidance", r.id);
        }
        assert_eq!(RULES.len(), 5);
    }

    // ---- alloc-in-hot-path ----

    fn alloc_hits(files: &[FileAnalysis]) -> Vec<String> {
        all_hits(files)
            .into_iter()
            .filter(|h| h.starts_with("alloc-in-hot-path"))
            .collect()
    }

    #[test]
    fn alloc_flags_direct_and_transitive_sites() {
        let src = "\
//! m
// lint: hot-path
pub fn entry() { let v: Vec<u8> = Vec::new(); helper(); }
fn helper() { let b = Box::new(3); }
fn cold() { let v = vec![1, 2]; }
";
        let f = fa("crates/ros-dsp/src/s.rs", src);
        let hits = alloc_hits(&[f]);
        assert_eq!(
            hits,
            [
                "alloc-in-hot-path:crates/ros-dsp/src/s.rs:3",
                "alloc-in-hot-path:crates/ros-dsp/src/s.rs:4",
            ],
            "entry and transitive callee flagged, cold fn not"
        );
    }

    #[test]
    fn alloc_message_names_fn_and_witness_entry() {
        let src = "\
//! m
// lint: hot-path
pub fn entry() { helper(); }
fn helper() { let xs: Vec<u8> = ys.collect(); }
";
        let f = fa("crates/ros-dsp/src/s.rs", src);
        let out = check_all(&[f]);
        let finding = out
            .iter()
            .find(|v| v.rule == "alloc-in-hot-path")
            .expect("collect() on hot path");
        assert!(finding.message.contains("`.collect()`"), "{}", finding.message);
        assert!(finding.message.contains("`helper`"), "{}", finding.message);
        assert!(finding.message.contains("`entry`"), "{}", finding.message);
    }

    #[test]
    fn alloc_clean_cases() {
        // allow-alloc marker.
        let src = "\
//! m
// lint: hot-path
pub fn entry() {
    // lint: allow-alloc(setup only, not steady-state)
    let v: Vec<u8> = Vec::new();
}
";
        let f = fa("crates/ros-dsp/src/s.rs", src);
        assert!(alloc_hits(&[f]).is_empty());
        // No hot-path annotation anywhere: nothing is judged.
        let src = "//! m\npub fn f() { let v = vec![1]; }\n";
        let f = fa("crates/ros-dsp/src/s.rs", src);
        assert!(alloc_hits(&[f]).is_empty());
        // Allocation in a fn not reachable from the entry.
        let src = "\
//! m
// lint: hot-path
pub fn entry() { }
fn unrelated() { let v = Vec::with_capacity(8); }
";
        let f = fa("crates/ros-dsp/src/s.rs", src);
        assert!(alloc_hits(&[f]).is_empty());
    }

    fn rule_hits(files: &[FileAnalysis], id: &str) -> Vec<Finding> {
        check_all(files).into_iter().filter(|v| v.rule == id).collect()
    }

    // ---- stale-suppression ----

    #[test]
    fn stale_suppression_flags_unconsumed_and_unknown_markers() {
        let src = "\
//! m
// lint: allow-alloc(legacy shim)
fn quiet() {}
";
        let f = fa("crates/ros-dsp/src/s.rs", src);
        let hits = rule_hits(&[f], "stale-suppression");
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert_eq!(hits[0].line, 2);
        assert!(hits[0].message.contains("suppresses nothing"), "{}", hits[0].message);
        assert!(hits[0].message.contains("alloc-in-hot-path"), "{}", hits[0].message);

        // A typo, and rules clippy now owns or that were retired: none
        // is consulted.
        for marker in [
            "allow-pancake(typo)",
            "allow-cast(exact)",
            "allow-nondet-iter(count only)",
            "allow-lock-order(legacy)",
        ] {
            let src = format!("//! m\n// lint: {marker}\nfn f() {{}}\n");
            let f = fa("crates/ros-dsp/src/s.rs", &src);
            let hits = rule_hits(&[f], "stale-suppression");
            assert_eq!(hits.len(), 1, "{hits:?}");
            assert!(hits[0].message.contains("unknown suppression marker"), "{}", hits[0].message);
        }
    }

    #[test]
    fn stale_suppression_flags_hot_path_marker_on_nothing() {
        let src = "//! m\n// lint: hot-path\npub struct S;\n";
        let f = fa("crates/ros-dsp/src/s.rs", src);
        let hits = rule_hits(&[f], "stale-suppression");
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert!(hits[0].message.contains("annotates no function"), "{}", hits[0].message);
        // An attribute between the marker and the fn silently detaches
        // the annotation — the exact bug this rule exists to catch.
        let src = "\
//! m
// lint: hot-path
#[allow(clippy::too_many_arguments)]
pub fn entry(a: u32, b: u32) {}
";
        let f = fa("crates/ros-dsp/src/s.rs", src);
        let hits = rule_hits(&[f], "stale-suppression");
        assert_eq!(hits.len(), 1, "marker above an attribute annotates nothing: {hits:?}");
        // Below the attribute it binds.
        let src = "\
//! m
#[allow(clippy::too_many_arguments)]
// lint: hot-path
pub fn entry(a: u32, b: u32) {}
";
        let f = fa("crates/ros-dsp/src/s.rs", src);
        assert!(rule_hits(&[f], "stale-suppression").is_empty());
    }

    #[test]
    fn stale_suppression_clean_cases() {
        // A consumed marker is live, not stale (and the finding stays
        // suppressed).
        let src = "//! m\n/// D.\n// lint: allow-dead-pub(API symmetry)\npub fn kept() {}\n";
        let f = fa("crates/ros-dsp/src/s.rs", src);
        let hits = all_hits(&[f]);
        assert!(hits.is_empty(), "{hits:?}");
        // Markers in test regions are the test's business.
        let src = "\
//! m
#[cfg(test)]
mod tests {
    // lint: allow-dead-pub(never fires)
    fn t() {}
}
";
        let f = fa("crates/ros-dsp/src/s.rs", src);
        assert!(rule_hits(&[f], "stale-suppression").is_empty());
        // Reference files are not audited.
        let f = fa("tests/e2e.rs", "// lint: allow-dead-pub(stale here)\nfn t() {}\n");
        assert!(rule_hits(&[f], "stale-suppression").is_empty());
        // A hot-path marker that annotates a fn is live.
        let src = "//! m\n// lint: hot-path\npub fn entry() {}\n";
        let f = fa("crates/ros-dsp/src/s.rs", src);
        assert!(rule_hits(&[f], "stale-suppression").is_empty());
    }
}
