//! The rule engine: stable rule IDs and the checks.
//!
//! Two rule shapes exist. *Per-file* rules see one analyzed file at a
//! time (`typed-conversions`, `typed-db-params`). The *workspace* rule
//! sees every file at once (`dead-pub` builds a cross-crate reference
//! graph). All rules work on the token stream from [`crate::lexer`]
//! through [`CodeView`] — string literals, comments, and
//! `#[cfg(test)]` regions cannot fool them the way they fooled the old
//! line scanner. No rule takes a suppression marker: a finding is
//! fixed, not excused.
//!
//! The generic conventions (unwrap, panic, print, raw casts, raw
//! spawns, wall-clock reads, hash collections, float equality, pub
//! docs, `f64::to_radians`/`to_degrees`) are rustc and clippy lints
//! configured in the root `Cargo.toml` and `clippy.toml`, not rules
//! here. The zero-allocation frame is not a rule either:
//! `tests/alloc_budget.rs` measures it (DESIGN.md §14). Rule IDs are
//! stable: they are the report tags and the `--explain` keys.

use std::collections::{BTreeMap, BTreeSet};

use crate::engine::{FileAnalysis, FileRole};
use crate::lexer::TokenKind;
use crate::scan::{Item, ItemKind, Visibility};

/// A trivia-free window over one file's token stream, with the
/// helpers every token-pattern rule needs.
pub struct CodeView<'a> {
    /// The analyzed file this view reads.
    pub fa: &'a FileAnalysis,
    /// `code[ci]` = index into `fa.tokens` of the ci-th non-trivia
    /// token.
    code: Vec<usize>,
}

impl<'a> CodeView<'a> {
    /// Builds the view over `fa`'s token stream.
    pub fn new(fa: &'a FileAnalysis) -> Self {
        let code = (0..fa.tokens.len())
            .filter(|&i| !fa.tokens[i].is_trivia())
            .collect();
        CodeView { fa, code }
    }

    /// Number of code (non-trivia) tokens.
    pub fn len(&self) -> usize {
        self.code.len()
    }

    /// True when the file has no code tokens.
    pub fn is_empty(&self) -> bool {
        self.code.is_empty()
    }

    /// Kind of the ci-th code token (None past the end).
    pub fn kind(&self, ci: usize) -> Option<TokenKind> {
        self.code.get(ci).map(|&i| self.fa.tokens[i].kind)
    }

    /// Text of the ci-th code token ("" past the end).
    pub fn text(&self, ci: usize) -> &str {
        self.code
            .get(ci)
            .map(|&i| self.fa.tokens[i].text(&self.fa.text))
            .unwrap_or("")
    }

    /// 1-based line of the ci-th code token (0 past the end).
    pub fn line(&self, ci: usize) -> usize {
        self.code
            .get(ci)
            .map(|&i| self.fa.tokens[i].line)
            .unwrap_or(0)
    }

    /// True when the ci-th code token lies in a `#[cfg(test)]` region.
    pub fn in_test(&self, ci: usize) -> bool {
        self.code
            .get(ci)
            .is_some_and(|&i| self.fa.facts.in_test.get(i).copied().unwrap_or(false))
    }

    /// True when the ci-th code token is the punctuation `p`.
    pub fn is_punct(&self, ci: usize, p: &str) -> bool {
        self.kind(ci) == Some(TokenKind::Punct) && self.text(ci) == p
    }

    /// True when the ci-th code token is the identifier `id`.
    pub fn is_ident(&self, ci: usize, id: &str) -> bool {
        self.kind(ci) == Some(TokenKind::Ident) && self.text(ci) == id
    }

    /// Token index (into `fa.tokens`) of the ci-th code token.
    pub fn tok_idx(&self, ci: usize) -> usize {
        self.code.get(ci).copied().unwrap_or(0)
    }

    /// Code index of the first code token at or after raw token index
    /// `tok` (`len()` when none).
    pub fn ci_at_or_after(&self, tok: usize) -> usize {
        self.code.partition_point(|&i| i < tok)
    }
}

/// Static description of one rule.
pub struct RuleInfo {
    /// Stable identifier (report tag, `--explain` key).
    pub id: &'static str,
    /// One-line summary for reports and docs.
    pub summary: &'static str,
    /// Why the rule exists — which workspace invariant it guards
    /// (`xtask lint --explain` prints this).
    pub rationale: &'static str,
    /// How to fix a finding.
    pub fix: &'static str,
}

/// The rule catalog, in report order: the unit-safety rules, then the
/// API rule.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        id: "typed-conversions",
        summary: "inline dB-to-linear `powf` idioms forbidden outside ros_em::units",
        rationale: "Sign/factor errors in hand-rolled dB math caused real regressions; \
                    one audited module owns the formulas. Clippy cannot see the idiom \
                    (a literal base `10f64.powf(…)` or a `/ 10.0` divisor inside the \
                    exponent) and cannot ban `powf` outright, which has legitimate \
                    non-dB uses. The angle half is clippy's: `f64::to_radians` and \
                    `f64::to_degrees` are `disallowed-methods` in clippy.toml.",
        fix: "Go through ros_em::units (DbPower/DbAmplitude) or ros_em::db.",
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
                    same-named method or field cannot keep an orphan module alive. A \
                    pub type is also referenced when the declaration of a referenced \
                    pub item of its crate names it (a fn signature with its `where` \
                    clause, a struct or enum body, a const's, static's or alias's \
                    type): callers bind such a type without spelling its name.",
        fix: "Delete it or demote to pub(crate). A module that outside code reaches \
              only through crate-root `pub use` re-exports should be a private `mod`.",
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

/// The one file allowed to spell out raw dB conversions.
const UNITS_MODULE: &str = "crates/ros-em/src/units.rs";

/// Runs every rule over the analyzed workspace; findings come back
/// sorted by (file, line, rule).
pub fn check_all(files: &[FileAnalysis]) -> Vec<Finding> {
    let mut out = Vec::new();
    for fa in files.iter().filter(|f| f.role != FileRole::Reference) {
        check_file(fa, &mut out);
    }
    dead_pub(files, &mut out);
    out.sort_by(|a, b| {
        (&a.file, a.line, a.rule, &a.message).cmp(&(&b.file, b.line, b.rule, &b.message))
    });
    out
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
    let v = CodeView::new(fa);
    typed_conversions(&v, out);
    typed_db_params(fa, out);
}

/// Literal receivers of `.powf(` that spell a dB-to-linear conversion.
const DB_BASE_LITERALS: &[&str] = &["10f64", "10.0f64", "10.0", "10_f64", "10."];

/// Divisors inside `powf(x / …)` that mark the dB families.
const DB_DIVISORS: &[&str] = &["10.0", "20.0", "10_f64", "20_f64", "10.0f64", "20.0f64"];

fn typed_conversions(v: &CodeView<'_>, out: &mut Vec<Finding>) {
    if v.fa.rel == UNITS_MODULE {
        return;
    }
    for ci in 0..v.len() {
        if v.in_test(ci) {
            continue;
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
        let Some((sig_start, sig_end)) = item.decl else {
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
            let is_colon =
                colon.is_some_and(|t| t.kind == TokenKind::Punct && t.text(&fa.text) == ":");
            let is_f64 =
                ty.is_some_and(|t| t.kind == TokenKind::Ident && t.text(&fa.text) == "f64");
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
/// an orphan module alive. A pub type also counts as referenced when
/// the declaration of a referenced pub item in the same crate names it
/// (a returned struct, a field's element type, a closure's argument
/// type in a `where` clause), followed transitively.
fn dead_pub(files: &[FileAnalysis], out: &mut Vec<Finding>) {
    let mut any = Refs::default();
    let mut paths = Refs::default();
    for fa in files {
        let v = CodeView::new(fa);
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

    // Each library crate's pub API, in file order.
    let mut api: BTreeMap<&str, Vec<(&FileAnalysis, &Item)>> = BTreeMap::new();
    for fa in files.iter().filter(|f| f.is_library()) {
        for item in fa.facts.items.iter().filter(|i| is_api_item(i)) {
            api.entry(&fa.crate_name).or_default().push((fa, item));
        }
    }

    for (krate, items) in api {
        let mut live: Vec<bool> = items
            .iter()
            .map(|(_, item)| {
                let refs = if matches!(item.kind, ItemKind::Mod) {
                    &paths
                } else {
                    &any
                };
                refs.reach(krate, &item.name)
            })
            .collect();
        // Signature reach: a type that a live item's declaration names
        // is live too, and its own declaration may name further types.
        let mut work: Vec<usize> = (0..items.len()).filter(|&k| live[k]).collect();
        while let Some(k) = work.pop() {
            let (fa, item) = items[k];
            for name in decl_idents(fa, item) {
                for (j, (_, ty)) in items.iter().enumerate() {
                    if !live[j] && is_type_item(ty) && ty.name == name {
                        live[j] = true;
                        work.push(j);
                    }
                }
            }
        }

        for ((fa, item), live) in items.iter().zip(live) {
            if live {
                continue;
            }
            push(
                out,
                "dead-pub",
                fa,
                item.line,
                format!(
                    "pub {} `{}` is never referenced outside `{}`; demote to pub(crate) \
                     or delete it",
                    item_kind_str(item.kind),
                    item.name,
                    krate
                ),
            );
        }
    }
}

/// Item kinds that a declaration can name as a type.
fn is_type_item(item: &Item) -> bool {
    matches!(
        item.kind,
        ItemKind::Struct | ItemKind::Enum | ItemKind::Union | ItemKind::TypeAlias
    )
}

/// The identifiers in `item`'s declaration span.
fn decl_idents<'a>(fa: &'a FileAnalysis, item: &Item) -> impl Iterator<Item = &'a str> {
    let (start, end) = item.decl.unwrap_or((0, 0));
    fa.tokens[start..end.min(fa.tokens.len())]
        .iter()
        .filter(|t| t.kind == TokenKind::Ident)
        .map(|t| t.text(&fa.text))
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
        out.iter()
            .map(|v| format!("{}:{}", v.rule, v.line))
            .collect()
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

    /// `dead-pub` findings over `files`, as `file:line` strings.
    fn dead_pub_hits(files: &[FileAnalysis]) -> Vec<String> {
        all_hits(files)
            .into_iter()
            .filter_map(|h| h.strip_prefix("dead-pub:").map(str::to_string))
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

    /// `10f64.powf(x / 10.0)` — the probe the lexer and test-region
    /// tests use: the literal base and the `/ 10.0` divisor each report.
    const DB_PROBE: &str = "10f64.powf(x / 10.0)";

    #[test]
    fn flags_inline_conversions_outside_units() {
        let hits = scan_str(&format!("fn f(x: f64) -> f64 {{ {DB_PROBE} }}\n"));
        assert_eq!(hits, ["typed-conversions:1", "typed-conversions:1"]);
        // A non-dB `powf` is not a conversion.
        assert!(scan_str("fn f(c: f64) -> f64 { c.powf(1.5) }\n").is_empty());
    }

    #[test]
    fn units_module_may_convert() {
        let src = format!("fn f(x: f64) -> f64 {{ {DB_PROBE} }}\n");
        assert!(hits_in("crates/ros-em/src/units.rs", &src).is_empty());
    }

    #[test]
    fn block_comments_span_lines() {
        let src = format!("/*\n {DB_PROBE}\n*/\nfn f() {{}}\n");
        assert!(scan_str(&src).is_empty());
    }

    #[test]
    fn code_resumes_after_test_block() {
        let src = format!(
            "#[cfg(test)]\nmod tests {{\n    fn t(x: f64) -> f64 {{ {DB_PROBE} }}\n}}\nfn f(x: f64) -> f64 {{ {DB_PROBE} }}\n"
        );
        assert_eq!(
            scan_str(&src),
            ["typed-conversions:5", "typed-conversions:5"]
        );
    }

    // ---- structural cases the old line scanner got wrong ----

    #[test]
    fn char_double_quote_regression() {
        // The old Scanner treated `'"'` as opening a string and
        // swallowed the rest of the line, hiding the conversion.
        let src = format!("fn f(x: f64) -> f64 {{ let c = '\"'; {DB_PROBE} }}\n");
        assert_eq!(
            scan_str(&src),
            ["typed-conversions:1", "typed-conversions:1"]
        );
    }

    #[test]
    fn nested_block_comment_regression() {
        // The old Scanner closed the comment at the first `*/`.
        let src = format!("/* outer /* inner */ {DB_PROBE} */\nfn f() {{}}\n");
        assert!(scan_str(&src).is_empty());
    }

    #[test]
    fn multi_hash_raw_string_regression() {
        // The old Scanner did not recognize `r##"…"##` at all.
        let src = format!("fn f() {{ let s = r##\"{DB_PROBE} \"# 10f64.powf(x)\"##; }}\n");
        assert!(scan_str(&src).is_empty());
    }

    // ---- dead-pub ----

    #[test]
    fn dead_pub_flags_unreferenced_api() {
        let dead = fa(
            "crates/ros-em/src/s.rs",
            "//! m\n/// D.\npub fn orphan() {}\n",
        );
        let hits = all_hits(&[dead]);
        assert_eq!(hits, ["dead-pub:crates/ros-em/src/s.rs:3"]);
    }

    #[test]
    fn dead_pub_alive_via_other_crate_tests_or_reference() {
        let api = "//! m\n/// D.\npub fn used_somewhere() {}\n";
        // Another crate's non-test code.
        let dead = fa("crates/ros-em/src/s.rs", api);
        let user = fa(
            "crates/ros-dsp/src/u.rs",
            "//! m\nfn f() { ros_em::used_somewhere(); }\n",
        );
        assert!(all_hits(&[dead, user])
            .iter()
            .all(|h| !h.starts_with("dead-pub")));
        // A test region in the same crate.
        let dead = fa("crates/ros-em/src/s.rs", api);
        let tests = fa(
            "crates/ros-em/src/t.rs",
            "//! m\n#[cfg(test)]\nmod tests {\n    fn t() { super::used_somewhere(); }\n}\n",
        );
        assert!(all_hits(&[dead, tests])
            .iter()
            .all(|h| !h.starts_with("dead-pub")));
        // The integration-test reference corpus.
        let dead = fa("crates/ros-em/src/s.rs", api);
        let reference = fa("tests/e2e.rs", "fn t() { ros_em::used_somewhere(); }\n");
        assert!(all_hits(&[dead, reference])
            .iter()
            .all(|h| !h.starts_with("dead-pub")));
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
        // A same-named method call in another crate does not reach the module.
        let api = fa("crates/ros-antenna/src/lib.rs", module);
        let method = fa("crates/core/src/u.rs", "//! m\nfn f(x: W) { x.taper(); }\n");
        assert_eq!(
            dead_pub_hits(&[api, method]),
            ["crates/ros-antenna/src/lib.rs:3"]
        );
        // A `use` path does, and so does an entry in a `use` group.
        for import in [
            "use ros_antenna::taper;",
            "use ros_antenna::{shaping, taper};",
        ] {
            let api = fa("crates/ros-antenna/src/lib.rs", module);
            let user = fa("crates/core/src/u.rs", &format!("//! m\n{import}\n"));
            assert!(dead_pub_hits(&[api, user]).is_empty(), "{import}");
        }
    }

    #[test]
    fn dead_pub_type_named_by_a_referenced_signature_is_clean() {
        // `Snapshot` is only returned by `snapshot`, and `Rows` only by a
        // `where` clause; callers bind both without spelling the name.
        let api = fa(
            "crates/ros-cache/src/s.rs",
            "//! m\n/// D.\npub struct Snapshot;\n/// D.\npub struct Rows;\n\
             /// D.\npub fn snapshot() -> Snapshot { Snapshot }\n\
             /// D.\npub fn scope<F>(f: F) where F: FnOnce(&Rows) {}\n",
        );
        let user = fa(
            "crates/core/src/u.rs",
            "//! m\nfn f() { let s = ros_cache::snapshot(); ros_cache::scope(|r| {}); }\n",
        );
        assert!(dead_pub_hits(&[api, user]).is_empty());
    }

    #[test]
    fn dead_pub_field_element_of_a_referenced_struct_is_clean() {
        // `Verdict` is the element type of a referenced struct's field,
        // and `Kind` a field of `Verdict` in turn: reach iterates.
        let api = fa(
            "crates/core/src/s.rs",
            "//! m\n/// D.\npub struct Outcome {\n    /// D.\n    pub verdicts: Vec<Verdict>,\n}\n\
             /// D.\npub struct Verdict {\n    /// D.\n    pub kind: Kind,\n}\n\
             /// D.\npub enum Kind { A }\n",
        );
        let user = fa(
            "tests/e2e.rs",
            "fn t(o: ros_core::Outcome) { o.verdicts; }\n",
        );
        assert!(dead_pub_hits(&[api, user]).is_empty());
    }

    #[test]
    fn dead_pub_type_named_by_an_unreferenced_signature_is_flagged() {
        let api = fa(
            "crates/core/src/s.rs",
            "//! m\n/// D.\npub struct Orphan;\n/// D.\npub fn make() -> Orphan { Orphan }\n",
        );
        assert_eq!(
            dead_pub_hits(&[api]),
            ["crates/core/src/s.rs:3", "crates/core/src/s.rs:5"]
        );
    }

    #[test]
    fn dead_pub_type_named_only_in_a_fn_body_is_flagged() {
        // A body is not a declaration, and a private fn is not API.
        let api = fa(
            "crates/core/src/s.rs",
            "//! m\n/// D.\npub struct Hidden;\n\
             /// D.\npub fn used() { let _h = Hidden; }\nfn private() -> Hidden { Hidden }\n",
        );
        let user = fa(
            "crates/ros-serve/src/u.rs",
            "//! m\nfn f() { ros_core::used(); }\n",
        );
        assert_eq!(dead_pub_hits(&[api, user]), ["crates/core/src/s.rs:3"]);
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
        assert_eq!(RULES.len(), 3);
    }

    #[test]
    fn code_view_maps_raw_token_indices() {
        let f = fa("crates/ros-em/src/s.rs", "// comment\nfn f() {}\n");
        let v = CodeView::new(&f);
        assert!(!v.is_empty());
        assert_eq!(v.ci_at_or_after(0), 0, "first code token after the comment");
        assert_eq!(v.text(0), "fn");
        assert!(v.tok_idx(0) > 0, "comment token precedes");
    }
}
