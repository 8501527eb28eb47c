//! Golden corpus + property tests for the ros-lint lexer.
//!
//! Two layers of evidence that the lexer is *total* and *lossless*:
//!
//! 1. A golden corpus of corner-case fragments (the exact shapes that
//!    broke the old line-oriented Scanner) with pinned token-kind
//!    sequences — any classification drift fails loudly.
//! 2. A proptest property over randomly assembled fragment soups:
//!    lexing never panics, spans tile the input exactly, and
//!    re-concatenating the token slices reproduces the input's
//!    non-whitespace bytes.

use proptest::prelude::*;
use ros_lint::lexer::{lex, TokenKind};

/// Token-kind names in lexing order, whitespace elided by `lex` itself.
fn kinds(src: &str) -> Vec<&'static str> {
    lex(src)
        .iter()
        .map(|t| match t.kind {
            TokenKind::Ident => "id",
            TokenKind::RawIdent => "rawid",
            TokenKind::Lifetime => "life",
            TokenKind::Char => "char",
            TokenKind::Byte => "byte",
            TokenKind::Str => "str",
            TokenKind::RawStr => "rawstr",
            TokenKind::ByteStr => "bytestr",
            TokenKind::RawByteStr => "rawbytestr",
            TokenKind::Int => "int",
            TokenKind::Float => "float",
            TokenKind::LineComment => "line",
            TokenKind::BlockComment => "block",
            TokenKind::DocComment => "doc",
            TokenKind::Punct => "p",
            TokenKind::Unknown => "unk",
        })
        .collect()
}

/// The input minus ASCII whitespace — the invariant content a lossless
/// lexer must preserve.
fn strip_ws(s: &str) -> String {
    s.chars().filter(|c| !c.is_ascii_whitespace()).collect()
}

fn assert_lossless(src: &str) {
    let toks = lex(src);
    // Spans are in-bounds, ordered, non-overlapping, on char edges.
    let mut prev_end = 0usize;
    for t in &toks {
        assert!(
            t.start >= prev_end,
            "overlap at {}..{} in {src:?}",
            t.start,
            t.end
        );
        assert!(t.end <= src.len() && t.start < t.end);
        assert!(src.is_char_boundary(t.start) && src.is_char_boundary(t.end));
        // Inter-token gaps are pure whitespace.
        assert!(
            src[prev_end..t.start].chars().all(|c| c.is_whitespace()),
            "non-whitespace dropped before {:?} in {src:?}",
            t.text(src)
        );
        prev_end = t.end;
    }
    assert!(src[prev_end..].chars().all(|c| c.is_whitespace()));
    // Concatenated slices reproduce the non-whitespace content.
    let rebuilt: String = toks
        .iter()
        .map(|t| t.text(src))
        .collect::<Vec<_>>()
        .join(" ");
    assert_eq!(strip_ws(&rebuilt), strip_ws(src), "lossy lex of {src:?}");
}

/// The golden corpus: each entry is `(fragment, pinned kind sequence)`.
/// These are the shapes that defeat regex- or line-based scanners.
const GOLDEN: &[(&str, &[&str])] = &[
    // The '"' Scanner bug: a char literal holding a double quote used
    // to open a phantom string and swallow the rest of the line.
    (
        "let c = '\"'; x.unwrap();",
        &["id", "id", "p", "char", "p", "id", "p", "id", "p", "p", "p"],
    ),
    // Lifetime vs char: 'a is a lifetime, 'a' is a char.
    ("&'a str", &["p", "life", "id"]),
    ("'x'", &["char"]),
    ("'\\''", &["char"]),
    // Nested block comments to depth 3 are ONE token.
    ("/* a /* b /* c */ b */ a */ x", &["block", "id"]),
    // `/**/` and `/***/` are NOT doc comments; `////` is not doc.
    ("/**/ /***/ //// nope", &["block", "block", "line"]),
    ("/// outer\n//! inner", &["doc", "doc"]),
    // Raw strings with any number of hashes; quotes inside are inert.
    ("r\"plain\"", &["rawstr"]),
    ("r#\"has \" quote\"#", &["rawstr"]),
    ("r##\"ends \"# not yet\"##", &["rawstr"]),
    ("r###\"deep \"## nested\"###", &["rawstr"]),
    ("br##\"raw bytes \"# too\"##", &["rawbytestr"]),
    // Raw identifiers are not raw strings.
    ("r#type", &["rawid"]),
    ("let r#fn = 1;", &["id", "rawid", "p", "int", "p"]),
    // Byte and byte-string literals.
    ("b'x' b\"bytes\\\"esc\"", &["byte", "bytestr"]),
    // Float vs int vs range vs method call on an int literal.
    ("1..2", &["int", "p", "int"]),
    ("1.0..2.0", &["float", "p", "float"]),
    ("1.max(2)", &["int", "p", "id", "p", "int", "p"]),
    (
        "1.5e-3 0x_ff 1_000u64 2f64",
        &["float", "int", "int", "float"],
    ),
    // Maximal-munch operators.
    (
        "a..=b a::<B>::c x >>= 1",
        &[
            "id", "p", "id", "id", "p", "p", "id", "p", "p", "id", "id", "p", "int",
        ],
    ),
    // Escapes and a line continuation inside a string are one token.
    ("\"a\\\"b\\\\\" 'q'", &["str", "char"]),
    ("\"line\\\n  cont\"", &["str"]),
    // Total on garbage: unknown bytes classify, never panic. `\` is
    // no token start; non-ASCII (`§`) folds into identifiers.
    ("fn f() { \\ }", &["id", "id", "p", "p", "p", "unk", "p"]),
    ("fn f() { § }", &["id", "id", "p", "p", "p", "id", "p"]),
];

#[test]
fn golden_corpus_kinds_are_pinned() {
    for (src, want) in GOLDEN {
        assert_eq!(&kinds(src), want, "kind drift for {src:?}");
    }
}

#[test]
fn golden_corpus_is_lossless() {
    for (src, _) in GOLDEN {
        assert_lossless(src);
    }
}

#[test]
fn real_workspace_sources_are_lossless() {
    // The lexer's own source plus this test file: real Rust with raw
    // strings, doc comments, and every quoting style in this crate.
    for src in [
        include_str!("../src/lexer.rs"),
        include_str!("../src/rules.rs"),
        include_str!("lexer_corpus.rs"),
    ] {
        assert_lossless(src);
    }
}

/// Fragment table the property test assembles soups from. Mixing
/// these adjacently exercises every boundary pair (comment-then-raw,
/// char-then-string, punct-then-punct munching, …).
const FRAGMENTS: &[&str] = &[
    "fn",
    "ident",
    "r#match",
    "'a",
    "'x'",
    "'\"'",
    "b'q'",
    "0",
    "42u32",
    "1.5",
    "2e-3",
    "\"str \\\" esc\"",
    "r\"raw\"",
    "r#\"raw # \"#",
    "r##\"raw \"# deep\"##",
    "b\"bs\"",
    "br#\"rbs\"#",
    "// line\n",
    "/// doc\n",
    "//! inner\n",
    "/* blk */",
    "/* o /* i */ o */",
    "==",
    "..=",
    "::",
    "->",
    "=>",
    "<<=",
    "(",
    ")",
    "{",
    "}",
    "[",
    "]",
    ";",
    ",",
    "#",
    "?",
    "§",
    "\\",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn lexing_random_fragment_soup_is_total_and_lossless(
        picks in prop::collection::vec((0usize..38, 0u8..3), 0..64)
    ) {
        let mut src = String::new();
        for (i, sep) in &picks {
            src.push_str(FRAGMENTS[*i % FRAGMENTS.len()]);
            src.push_str(match sep {
                0 => " ",
                1 => "\n",
                _ => "\t ",
            });
        }
        // Never panics, spans tile, non-whitespace content survives.
        assert_lossless(&src);
        // Line numbers are monotone non-decreasing and 1-based.
        let toks = lex(&src);
        let mut prev = 1usize;
        for t in &toks {
            prop_assert!(t.line >= prev && t.line >= 1);
            prev = t.line;
        }
    }

    #[test]
    fn lexing_arbitrary_bytes_never_panics(
        bytes in prop::collection::vec(0u8..255, 0..200)
    ) {
        // Interpret as lossy UTF-8: any text input must lex totally.
        let src = String::from_utf8_lossy(&bytes).into_owned();
        let toks = lex(&src);
        for t in &toks {
            prop_assert!(t.end <= src.len());
        }
    }
}
