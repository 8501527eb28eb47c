//! Golden corpus + property tests for the ros-lint structural layer.
//!
//! Mirrors `lexer_corpus.rs` one level up the stack: where that file
//! proves the lexer is total and lossless, this one proves what the
//! rules build on top of it — [`ros_lint::rules::CodeView`]'s
//! trivia-free window and [`ros_lint::scan`]'s item recovery — keeps
//! structure without dropping or double-counting tokens:
//!
//! 1. The `CodeView` accessors round-trip against the token stream.
//! 2. A proptest property over randomly assembled fn bodies: scanning
//!    never panics, every fn is recovered in source order, and each
//!    signature span ends on its body's opening brace.

use proptest::prelude::*;
use ros_lint::rules::CodeView;
use ros_lint::scan::ItemKind;
use ros_lint::{FileAnalysis, FileRole};

fn fa(rel: &str, src: &str) -> FileAnalysis {
    let crate_name = rel.split('/').nth(1).unwrap_or("x").to_string();
    FileAnalysis::new(
        rel.to_string(),
        crate_name,
        FileRole::Library,
        src.to_string(),
    )
}

#[test]
fn code_view_accessors_round_trip() {
    let src = "fn a() { b(); }\n#[cfg(test)]\nmod tests { fn t() { c(); } }\n";
    let f = fa("crates/x/src/lib.rs", src);
    let view = CodeView::new(&f);
    assert!(!view.is_empty());
    assert!(view.is_ident(0, "fn"));
    assert!(view.is_punct(2, "("));
    assert_eq!(view.text(1), "a");
    assert_eq!(view.line(0), 1);
    // tok_idx / ci_at_or_after are inverses on code tokens.
    for ci in 0..view.len() {
        assert_eq!(view.ci_at_or_after(view.tok_idx(ci)), ci);
    }
    // Library code is not test code; the cfg(test) mod is.
    assert!(!view.in_test(0));
    let t_ci = (0..view.len()).find(|&ci| view.is_ident(ci, "c")).unwrap();
    assert!(view.in_test(t_ci));
    // The view keeps its backing analysis reachable for rules.
    assert_eq!(view.fa.rel, "crates/x/src/lib.rs");
    assert_eq!(view.kind(0), Some(ros_lint::lexer::TokenKind::Ident));
}

/// Body-statement fragments the property test assembles fns from.
/// Each is brace-balanced on its own; several hide braces inside
/// strings, chars, and comments.
const BODY_FRAGMENTS: &[&str] = &[
    "x();",
    "let a = 1;",
    "{ inner(); }",
    "if c { y(); } else { z(); }",
    "let s = \"{ brace }\";",
    "let c = '{';",
    "// { comment\n",
    "/* } */",
    "m::<u8>(q);",
    "v.push(w);",
    "match e { _ => {} }",
    "vec![1, 2];",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Random fn soup: scanning never panics, every fn is recovered in
    /// order, and each signature runs from its `fn` keyword right up
    /// to its body's `{` — braces hidden in strings, chars, and
    /// comments inside earlier bodies never shift a later item.
    #[test]
    fn fn_items_keep_order_and_signature_spans(
        fns in prop::collection::vec(
            prop::collection::vec(0usize..BODY_FRAGMENTS.len(), 0..6),
            1..6,
        )
    ) {
        let mut src = String::new();
        for (i, picks) in fns.iter().enumerate() {
            src.push_str(&format!("fn f{i}() {{\n"));
            for p in picks {
                src.push_str("    ");
                src.push_str(BODY_FRAGMENTS[*p]);
                src.push('\n');
            }
            src.push_str("}\n");
        }
        let f = fa("crates/x/src/lib.rs", &src);

        // Every generated fn is recovered, in order.
        let items: Vec<_> = f
            .facts
            .items
            .iter()
            .filter(|it| it.kind == ItemKind::Fn)
            .collect();
        prop_assert_eq!(items.len(), fns.len());
        let mut prev_end = 0usize;
        for (i, it) in items.iter().enumerate() {
            prop_assert_eq!(&it.name, &format!("f{i}"));
            // The signature opens on `fn` and runs right up to the
            // body's `{`.
            let (ss, se) = it.decl.expect("fn sig span");
            prop_assert!(ss < se && se < f.tokens.len());
            prop_assert_eq!(f.tokens[ss].text(&src), "fn");
            prop_assert_eq!(f.tokens[se].text(&src), "{");
            // Signatures are disjoint and in source order.
            prop_assert!(ss >= prev_end);
            prev_end = se;
        }
    }
}
