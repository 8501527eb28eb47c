//! Golden corpus + property tests for the ros-lint syntax layer.
//!
//! Mirrors `lexer_corpus.rs` one level up the stack: where that file
//! proves the lexer is total and lossless, this one proves the
//! structural pass built on top of it — [`ros_lint::syntax`]'s
//! call-site extraction, [`ros_lint::scan`]'s fn-body spans, and
//! [`ros_lint::callgraph`]'s name resolution and hot-path propagation
//! — recovers structure without dropping or double-counting tokens:
//!
//! 1. Pinned call-site shapes and resolver precedence.
//! 2. A proptest property over randomly assembled fn bodies: scanning
//!    never panics, every body span is brace-matched and disjoint, and
//!    call extraction is total.

use proptest::prelude::*;
use ros_lint::callgraph::{self, CallGraph, FnNode, Resolver, HOT_PATH_MARKER};
use ros_lint::scan::ItemKind;
use ros_lint::syntax::{calls_in, skip_turbofish, CallSite, CodeView};
use ros_lint::{FileAnalysis, FileRole};

fn fa(rel: &str, src: &str) -> FileAnalysis {
    let crate_name = rel.split('/').nth(1).unwrap_or("x").to_string();
    FileAnalysis::new(rel.to_string(), crate_name, FileRole::Library, src.to_string())
}

#[test]
fn code_view_accessors_round_trip() {
    let src = "fn a() { b(); }\n#[cfg(test)]\nmod tests { fn t() { c(); } }\n";
    let f = fa("crates/x/src/lib.rs", src);
    let view = CodeView::new(&f);
    assert!(!view.is_empty());
    assert!(view.is_ident(0, "fn"));
    assert!(view.ident_in(1, &["a", "z"]));
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

#[test]
fn call_sites_cover_every_shape() {
    let src = "fn top() {\n    helper();\n    Vec::<u8>::new();\n    recv.decode::<u8>();\n    shaping::profile(2);\n    if cond { }\n}\n";
    let f = fa("crates/x/src/lib.rs", src);
    let view = CodeView::new(&f);
    let calls: Vec<CallSite> = calls_in(&view, 0, view.len());
    let names: Vec<(&str, Option<&str>, bool)> = calls
        .iter()
        .map(|c| (c.name.as_str(), c.qualifier.as_deref(), c.method))
        .collect();
    assert_eq!(
        names,
        vec![
            ("helper", None, false),
            ("new", Some("Vec"), false),
            ("decode", None, true),
            ("profile", Some("shaping"), false),
        ]
    );
    // Lines and code indices point at the callee name itself.
    assert_eq!(calls[0].line, 2);
    assert!(view.is_ident(calls[0].ci, "helper"));
}

#[test]
fn turbofish_skipping_lands_on_the_call_paren() {
    let src = "fn a() { m::<Vec<u8>>(1); }";
    let f = fa("crates/x/src/lib.rs", src);
    let view = CodeView::new(&f);
    let m = (0..view.len()).find(|&ci| view.is_ident(ci, "m")).unwrap();
    let after = skip_turbofish(&view, m + 1);
    assert!(view.is_punct(after, "("), "landed on {:?}", view.text(after));
    // No turbofish: the index is returned unchanged.
    assert_eq!(skip_turbofish(&view, m), m);
}

#[test]
fn resolver_precedence_is_owner_then_namespace() {
    let src = "\
pub fn free_fn() {}
pub struct T;
impl T { pub fn m(&self) {} }
pub struct U;
impl U { pub fn m(&self) {} }
";
    let files = [fa("crates/demo/src/lib.rs", src)];
    let g = callgraph::build(&files);
    let resolver = Resolver::new(&g.nodes);
    let call = |name: &str, qualifier: Option<&str>, method: bool| CallSite {
        name: name.to_string(),
        qualifier: qualifier.map(str::to_string),
        method,
        line: 1,
        ci: 0,
    };
    let names = |ids: &[usize]| -> Vec<String> {
        ids.iter().map(|&i| g.nodes[i].qualified_name()).collect()
    };
    assert_eq!(names(resolver.resolve(&call("free_fn", None, false))), ["free_fn"]);
    // An unqualified method call is ambiguous across impls: both.
    assert_eq!(names(resolver.resolve(&call("m", None, true))), ["T::m", "U::m"]);
    // A known-owner qualifier pins the impl.
    assert_eq!(names(resolver.resolve(&call("m", Some("T"), false))), ["T::m"]);
    // A module-ish qualifier falls back to the free namespace.
    assert_eq!(names(resolver.resolve(&call("free_fn", Some("util"), false))), ["free_fn"]);
    assert!(resolver.resolve(&call("nope", None, false)).is_empty());
}

#[test]
fn call_graph_marks_and_witnesses_hot_paths() {
    assert_eq!(HOT_PATH_MARKER, "lint: hot-path");
    let a = fa(
        "crates/core/src/a.rs",
        "// lint: hot-path\npub fn entry() { mid(); }\npub fn mid() { ros_dsp::leaf(1); }\n",
    );
    let b = fa("crates/ros-dsp/src/b.rs", "pub fn leaf(x: u32) {}\npub fn cold() {}\n");
    let g: CallGraph = callgraph::build(&[a, b]);
    assert_eq!(g.nodes.len(), g.edges.len());
    let idx = |name: &str| g.nodes.iter().position(|n| n.name == name).unwrap();
    for name in ["entry", "mid", "leaf"] {
        let w: &FnNode = g.hot_witness(idx(name)).expect(name);
        assert_eq!(w.qualified_name(), "entry");
        assert!(w.hot_entry);
    }
    assert!(g.hot_from[idx("cold")].is_none());
    assert!(g.hot_witness(idx("cold")).is_none());
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

    /// Random fn soup: body extraction never panics, spans are
    /// brace-matched and mutually disjoint, the signature ends where
    /// the body begins, and call extraction is total.
    #[test]
    fn body_extraction_is_span_lossless(
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

        // Every generated fn is recovered, in order, with a body.
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
            let (s, e) = it.body.expect("fn body span");
            // Braces included: the span opens on `{` and closes on `}`.
            prop_assert!(s < e && e <= f.tokens.len());
            prop_assert_eq!(f.tokens[s].text(&src), "{");
            prop_assert_eq!(f.tokens[e - 1].text(&src), "}");
            // The signature runs right up to the body.
            let (ss, se) = it.sig.expect("fn sig span");
            prop_assert!(ss < se && se <= s);
            // Bodies are disjoint and in source order.
            prop_assert!(s >= prev_end);
            prev_end = e;
            // Structural braces balance inside the span and never go
            // negative — string/char/comment braces are already inert
            // because the scanner works on lexed tokens.
            let view = CodeView::new(&f);
            let (cs, ce) = (view.ci_at_or_after(s), view.ci_at_or_after(e));
            let mut depth: isize = 0;
            for ci in cs..ce {
                if view.is_punct(ci, "{") {
                    depth += 1;
                } else if view.is_punct(ci, "}") {
                    depth -= 1;
                    prop_assert!(depth >= 0 || ci == ce - 1);
                }
            }
            prop_assert_eq!(depth, 0);
        }

        // Call extraction is total on the soup (no panics, indices in
        // range, every callee really is an ident at its code index).
        let view = CodeView::new(&f);
        for c in calls_in(&view, 0, view.len()) {
            prop_assert!(view.is_ident(c.ci, &c.name));
        }
    }
}
