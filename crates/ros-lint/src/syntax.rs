//! The semantic layer: path/call resolution over a trivia-free view.
//!
//! [`crate::scan`] recovers *items*; this module recovers the **call
//! sites** ([`calls_in`]) on top of them — every `f(…)`, `path::f(…)`,
//! `recv.m(…)`, and `recv.m::<T>(…)` in a token range, with the callee
//! name, its last path qualifier, and whether it is a method call (the
//! edges of [`crate::callgraph`]).
//!
//! Like the lexer and the item scanner, everything here is *total*:
//! malformed input degrades, nothing panics. [`CodeView`] is the shared
//! trivia-free window the rules iterate over.

use crate::engine::FileAnalysis;
use crate::lexer::TokenKind;

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
        self.code.get(ci).map(|&i| self.fa.tokens[i].line).unwrap_or(0)
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

    /// True when the ci-th code token is an identifier in `set`.
    pub fn ident_in(&self, ci: usize, set: &[&str]) -> bool {
        self.kind(ci) == Some(TokenKind::Ident) && set.contains(&self.text(ci))
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

/// One resolved call site.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CallSite {
    /// Callee name (last path segment): `new` for `Vec::new(…)`,
    /// `decode` for `x.decode(…)`.
    pub name: String,
    /// Last path segment before the callee, when path-qualified:
    /// `Vec` for `Vec::new(…)`, `shaping` for
    /// `ros_antenna::shaping::shaped_stack(…)`.
    pub qualifier: Option<String>,
    /// The call is a method call (`recv.name(…)`).
    pub method: bool,
    /// 1-based line of the callee name token.
    pub line: usize,
    /// Code index of the callee name token.
    pub ci: usize,
}

/// Keywords that look like `ident (` call heads but are control flow.
const NON_CALL_KEYWORDS: &[&str] = &[
    "if", "while", "for", "match", "return", "loop", "in", "as", "move", "else", "break",
    "continue", "unsafe", "ref", "mut", "await", "yield", "fn", "impl", "where", "let", "pub",
    "dyn",
];

/// Skips a turbofish `::<…>` starting at `ci` (which must sit on the
/// `::`); returns the code index one past the closing `>`, or `ci`
/// when there is no turbofish. `>>` closes two angles (maximal munch).
pub fn skip_turbofish(view: &CodeView<'_>, ci: usize) -> usize {
    if !view.is_punct(ci, "::") || !view.is_punct(ci + 1, "<") {
        return ci;
    }
    let mut depth: isize = 0;
    let mut j = ci + 1;
    while j < view.len() {
        match view.text(j) {
            "<" if view.kind(j) == Some(TokenKind::Punct) => depth += 1,
            "<<" if view.kind(j) == Some(TokenKind::Punct) => depth += 2,
            ">" if view.kind(j) == Some(TokenKind::Punct) => depth -= 1,
            ">>" if view.kind(j) == Some(TokenKind::Punct) => depth -= 2,
            _ => {}
        }
        j += 1;
        if depth <= 0 {
            return j;
        }
    }
    j
}

/// Extracts every call site in the code-index range `[start, end)`.
///
/// Recognized shapes: `f(…)`, `path::to::f(…)`, `recv.m(…)`,
/// `f::<T>(…)`, `recv.m::<T>(…)`. Macro invocations (`vec![…]`) are
/// *not* calls — the allocation scanner handles them separately.
pub fn calls_in(view: &CodeView<'_>, start: usize, end: usize) -> Vec<CallSite> {
    let mut out = Vec::new();
    let end = end.min(view.len());
    for ci in start..end {
        if view.kind(ci) != Some(TokenKind::Ident) && view.kind(ci) != Some(TokenKind::RawIdent) {
            continue;
        }
        let name = view.text(ci).trim_start_matches("r#");
        if NON_CALL_KEYWORDS.contains(&name) {
            continue;
        }
        // The callee name must be followed by `(`, optionally through
        // a turbofish.
        let after = skip_turbofish(view, ci + 1);
        if !view.is_punct(after, "(") {
            continue;
        }
        // A definition (`fn name(`) is not a call.
        if ci > 0 && view.is_ident(ci - 1, "fn") {
            continue;
        }
        let method = ci > 0 && view.is_punct(ci - 1, ".");
        let qualifier = if !method && ci >= 2 && view.is_punct(ci - 1, "::") {
            match view.kind(ci - 2) {
                Some(TokenKind::Ident | TokenKind::RawIdent) => {
                    Some(view.text(ci - 2).trim_start_matches("r#").to_string())
                }
                // `Vec::<u8>::new(…)`: walk back over the turbofish.
                Some(TokenKind::Punct) if view.text(ci - 2) == ">" || view.text(ci - 2) == ">>" => {
                    qualifier_before_generics(view, ci - 2)
                }
                _ => None,
            }
        } else {
            None
        };
        out.push(CallSite {
            name: name.to_string(),
            qualifier,
            method,
            line: view.line(ci),
            ci,
        });
    }
    out
}

/// Walks back over `<…>` ending at `close_ci` and returns the ident
/// preceding it (`Vec` in `Vec::<u8>::new`), if any.
fn qualifier_before_generics(view: &CodeView<'_>, close_ci: usize) -> Option<String> {
    let mut depth: isize = 0;
    let mut j = close_ci;
    loop {
        if view.kind(j) == Some(TokenKind::Punct) {
            match view.text(j) {
                ">" => depth += 1,
                ">>" => depth += 2,
                "<" => depth -= 1,
                "<<" => depth -= 2,
                _ => {}
            }
        }
        if depth <= 0 || j == 0 {
            break;
        }
        j -= 1;
    }
    // j sits on the opening `<`; before it: `::` then the ident.
    if j >= 2 && view.is_punct(j - 1, "::") && view.kind(j - 2) == Some(TokenKind::Ident) {
        Some(view.text(j - 2).to_string())
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{FileAnalysis, FileRole};

    fn fa(src: &str) -> FileAnalysis {
        FileAnalysis::new(
            "crates/ros-em/src/s.rs".to_string(),
            "ros-em".to_string(),
            FileRole::Library,
            src.to_string(),
        )
    }

    fn call_names(src: &str) -> Vec<(String, Option<String>, bool)> {
        let f = fa(src);
        let v = CodeView::new(&f);
        calls_in(&v, 0, v.len())
            .into_iter()
            .map(|c| (c.name, c.qualifier, c.method))
            .collect()
    }

    #[test]
    fn calls_free_qualified_method_turbofish() {
        let got = call_names("fn f() { g(); a::b::h(); x.m(); y.c::<u8>(); Vec::<u8>::new(); }\n");
        assert_eq!(
            got,
            vec![
                ("g".to_string(), None, false),
                ("h".to_string(), Some("b".to_string()), false),
                ("m".to_string(), None, true),
                ("c".to_string(), None, true),
                ("new".to_string(), Some("Vec".to_string()), false),
            ]
        );
    }

    #[test]
    fn calls_skip_keywords_and_definitions() {
        let got = call_names("fn f(x: u8) { if (x > 0) { while (x < 9) {} } match (x) { _ => {} } }\n");
        assert!(got.is_empty(), "{got:?}");
    }

    #[test]
    fn code_view_maps_raw_token_indices() {
        let f = fa("// comment\nfn f() {}\n");
        let v = CodeView::new(&f);
        assert!(!v.is_empty());
        assert_eq!(v.ci_at_or_after(0), 0, "first code token after the comment");
        assert_eq!(v.text(0), "fn");
        assert!(v.tok_idx(0) > 0, "comment token precedes");
    }
}
