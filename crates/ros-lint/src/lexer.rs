//! A total, lossless Rust lexer.
//!
//! "Total": any byte sequence lexes — malformed input (an unterminated
//! string, a stray control byte) degrades to a token that runs to the
//! end of the file or to a one-byte [`TokenKind::Unknown`], never a
//! panic. "Lossless": every non-whitespace byte of the input lands in
//! exactly one token slice, comments included, so concatenating the
//! token slices and deleting whitespace reproduces the input with its
//! whitespace deleted (pinned by a property test).
//!
//! The lexer exists to replace the line-oriented text scanner the old
//! `xtask lint` used, whose structural blind spots produced real
//! misses (see the regression corpus in the tests: a `'"'` char
//! literal flipped its string-stripping state; nested block comments
//! closed at the first `*/`; raw strings with two or more hashes were
//! not recognized at all). Token slices borrow from the source string;
//! a [`Token`] carries byte offsets plus the 1-based line of its first
//! byte, which is what lint findings report.

/// The lexical class of one token.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TokenKind {
    /// Identifier or keyword (`fn`, `foo`, `f64`, …).
    Ident,
    /// Raw identifier (`r#type`).
    RawIdent,
    /// Lifetime or loop label (`'a`, `'static`, `'_`).
    Lifetime,
    /// Character literal (`'x'`, `'\n'`, `'"'`).
    Char,
    /// Byte literal (`b'x'`).
    Byte,
    /// String literal (`"…"`, escapes handled).
    Str,
    /// Raw string literal (`r"…"`, `r#"…"#`, `r##"…"##`, any hashes).
    RawStr,
    /// Byte-string literal (`b"…"`).
    ByteStr,
    /// Raw byte-string literal (`br#"…"#`, any hashes).
    RawByteStr,
    /// Integer literal (`42`, `0xff_u32`).
    Int,
    /// Floating-point literal (`1.0`, `2e-3`, `1f64`).
    Float,
    /// Non-doc line comment (`// …`, `//// …`).
    LineComment,
    /// Non-doc block comment (`/* … */`, nesting tracked to any depth).
    BlockComment,
    /// Doc comment: `/// …`, `//! …`, `/** … */`, or `/*! … */`.
    DocComment,
    /// Operator or punctuation, maximal munch (`==`, `..=`, `::`, `(`).
    Punct,
    /// Any byte that fits no other class (total-lexer fallback).
    Unknown,
}

/// One lexed token: a classified byte range of the source.
#[derive(Clone, Copy, Debug)]
pub struct Token {
    /// Lexical class.
    pub kind: TokenKind,
    /// Byte offset of the first byte, inclusive.
    pub start: usize,
    /// Byte offset one past the last byte.
    pub end: usize,
    /// 1-based source line of the first byte.
    pub line: usize,
}

impl Token {
    /// The token's text, sliced out of the source it was lexed from.
    pub fn text<'a>(&self, src: &'a str) -> &'a str {
        src.get(self.start..self.end).unwrap_or("")
    }

    /// True for comment tokens (doc and non-doc alike).
    pub fn is_trivia(&self) -> bool {
        matches!(
            self.kind,
            TokenKind::LineComment | TokenKind::BlockComment | TokenKind::DocComment
        )
    }
}

/// Multi-byte operators, longest first so maximal munch is a plain
/// linear scan (`<<=` must match before `<<` before `<`).
const OPERATORS: &[&str] = &[
    "<<=", ">>=", "..=", "...", "::", "->", "=>", "==", "!=", "<=", ">=", "&&", "||", "<<", ">>",
    "+=", "-=", "*=", "/=", "%=", "^=", "&=", "|=", "..",
];

/// Single-character punctuation accepted as [`TokenKind::Punct`].
const SINGLE_PUNCT: &[u8] = b"+-*/%^&|!=<>.,;:#$?@~()[]{}";

fn is_ident_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_' || b >= 0x80
}

fn is_ident_continue(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_' || b >= 0x80
}

/// Lexes `src` into its complete token stream.
pub fn lex(src: &str) -> Vec<Token> {
    Lexer::new(src).run()
}

struct Lexer<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
    line: usize,
}

impl<'a> Lexer<'a> {
    fn new(src: &'a str) -> Self {
        Lexer {
            src,
            bytes: src.as_bytes(),
            pos: 0,
            line: 1,
        }
    }

    fn run(mut self) -> Vec<Token> {
        let mut out = Vec::new();
        while self.pos < self.bytes.len() {
            let b = self.bytes[self.pos];
            if b.is_ascii_whitespace() {
                if b == b'\n' {
                    self.line += 1;
                }
                self.pos += 1;
                continue;
            }
            let start = self.pos;
            let start_line = self.line;
            let kind = self.next_kind();
            debug_assert!(self.pos > start, "lexer must always advance");
            if self.pos == start {
                // Defensive: never loop forever, even on a logic bug.
                self.pos += 1;
            }
            out.push(Token {
                kind,
                start,
                end: self.pos,
                line: start_line,
            });
        }
        out
    }

    /// Dispatches on the byte at `self.pos`, consumes one token, and
    /// returns its kind. Newlines inside the consumed range update the
    /// line counter as they are passed.
    fn next_kind(&mut self) -> TokenKind {
        let b = self.bytes[self.pos];
        match b {
            b'/' if self.peek(1) == Some(b'/') => self.line_comment(),
            b'/' if self.peek(1) == Some(b'*') => self.block_comment(),
            b'r' if self.raw_string_hashes(1).is_some() => {
                let hashes = self.raw_string_hashes(1).unwrap_or(0);
                self.raw_string(1, hashes);
                TokenKind::RawStr
            }
            b'r' if self.peek(1) == Some(b'#') && self.peek(2).is_some_and(is_ident_start) => {
                self.pos += 2;
                self.eat_ident();
                TokenKind::RawIdent
            }
            b'b' if self.peek(1) == Some(b'\'') => {
                self.pos += 2;
                self.char_body();
                TokenKind::Byte
            }
            b'b' if self.peek(1) == Some(b'"') => {
                self.pos += 2;
                self.string_body();
                TokenKind::ByteStr
            }
            b'b' if self.peek(1) == Some(b'r') && self.raw_string_hashes(2).is_some() => {
                let hashes = self.raw_string_hashes(2).unwrap_or(0);
                self.raw_string(2, hashes);
                TokenKind::RawByteStr
            }
            b'\'' => self.quote(),
            b'"' => {
                self.pos += 1;
                self.string_body();
                TokenKind::Str
            }
            _ if b.is_ascii_digit() => self.number(),
            _ if is_ident_start(b) => {
                self.eat_ident();
                TokenKind::Ident
            }
            _ => self.punct(),
        }
    }

    fn peek(&self, ahead: usize) -> Option<u8> {
        self.bytes.get(self.pos + ahead).copied()
    }

    /// If position `offset` past `self.pos` starts `#* "` (zero or
    /// more hashes then a double quote), returns the hash count —
    /// i.e. `self.pos + offset` begins a raw-string body. `r#ident`
    /// (raw identifier) returns `None` because no quote follows.
    fn raw_string_hashes(&self, offset: usize) -> Option<usize> {
        let mut n = 0;
        while self.peek(offset + n) == Some(b'#') {
            n += 1;
        }
        (self.peek(offset + n) == Some(b'"')).then_some(n)
    }

    /// Consumes a raw (byte-)string: `prefix_len` bytes of `r`/`br`,
    /// `hashes` hashes, the opening quote, then everything up to a
    /// quote followed by the same number of hashes (or EOF).
    fn raw_string(&mut self, prefix_len: usize, hashes: usize) {
        self.pos += prefix_len + hashes + 1;
        while self.pos < self.bytes.len() {
            let b = self.bytes[self.pos];
            if b == b'\n' {
                self.line += 1;
            }
            if b == b'"' {
                let mut matched = 0;
                while matched < hashes && self.bytes.get(self.pos + 1 + matched) == Some(&b'#') {
                    matched += 1;
                }
                if matched == hashes {
                    self.pos += 1 + hashes;
                    return;
                }
            }
            self.pos += 1;
        }
    }

    /// Consumes the remainder of a `"…"` body (opening quote already
    /// eaten), honouring `\"` and `\\` escapes; stops at EOF if
    /// unterminated.
    fn string_body(&mut self) {
        while self.pos < self.bytes.len() {
            match self.bytes[self.pos] {
                b'\\' => {
                    // A line-continuation escape (`\` before a newline)
                    // still advances the line counter.
                    if self.peek(1) == Some(b'\n') {
                        self.line += 1;
                    }
                    self.pos = (self.pos + 2).min(self.bytes.len());
                }
                b'"' => {
                    self.pos += 1;
                    return;
                }
                b'\n' => {
                    self.line += 1;
                    self.pos += 1;
                }
                _ => self.pos += 1,
            }
        }
    }

    /// Consumes the body of a char/byte literal after the opening
    /// quote: escapes, then the closing quote. Bounded lookahead —
    /// an unterminated literal stops at the next newline or EOF
    /// rather than swallowing the file.
    fn char_body(&mut self) {
        while self.pos < self.bytes.len() {
            match self.bytes[self.pos] {
                b'\\' => self.pos = (self.pos + 2).min(self.bytes.len()),
                b'\'' => {
                    self.pos += 1;
                    return;
                }
                b'\n' => return,
                _ => self.pos += 1,
            }
        }
    }

    /// Disambiguates `'` between a lifetime/label and a char literal.
    ///
    /// The rustc rule: after the quote, an identifier run that is
    /// *not* immediately followed by another `'` is a lifetime
    /// (`'static`, `'a`, `'_`); anything else (`'x'`, `'\n'`, `'"'`)
    /// is a char literal. The old line scanner got `'"'` wrong — the
    /// quote inside flipped its string state and mis-cleaned the rest
    /// of the line.
    fn quote(&mut self) -> TokenKind {
        let next = self.peek(1);
        if next.is_some_and(is_ident_start) && next != Some(b'\'') {
            let mut end = self.pos + 2;
            while self.bytes.get(end).copied().is_some_and(is_ident_continue) {
                end += 1;
            }
            if self.bytes.get(end) != Some(&b'\'') {
                self.pos = end;
                return TokenKind::Lifetime;
            }
        }
        self.pos += 1;
        self.char_body();
        TokenKind::Char
    }

    fn line_comment(&mut self) -> TokenKind {
        let start = self.pos;
        while self.pos < self.bytes.len() && self.bytes[self.pos] != b'\n' {
            self.pos += 1;
        }
        let text = &self.src[start..self.pos];
        // `///` and `//!` are doc comments; `////…` is plain again.
        let is_doc =
            (text.starts_with("///") && !text.starts_with("////")) || text.starts_with("//!");
        if is_doc {
            TokenKind::DocComment
        } else {
            TokenKind::LineComment
        }
    }

    /// Consumes a block comment, tracking nesting to arbitrary depth:
    /// `/* outer /* inner */ still comment */` is one token.
    fn block_comment(&mut self) -> TokenKind {
        let start = self.pos;
        self.pos += 2;
        let mut depth = 1usize;
        while self.pos < self.bytes.len() && depth > 0 {
            if self.bytes[self.pos..].starts_with(b"/*") {
                depth += 1;
                self.pos += 2;
            } else if self.bytes[self.pos..].starts_with(b"*/") {
                depth -= 1;
                self.pos += 2;
            } else {
                if self.bytes[self.pos] == b'\n' {
                    self.line += 1;
                }
                self.pos += 1;
            }
        }
        let text = &self.src[start..self.pos];
        // `/** … */` and `/*! … */` are docs; `/**/` and `/*** …` are
        // not (rustc's exact rule).
        let is_doc = text.starts_with("/*!")
            || (text.starts_with("/**") && !text.starts_with("/***") && text.len() > 4);
        if is_doc {
            TokenKind::DocComment
        } else {
            TokenKind::BlockComment
        }
    }

    fn eat_ident(&mut self) {
        while self.pos < self.bytes.len() && is_ident_continue(self.bytes[self.pos]) {
            self.pos += 1;
        }
    }

    /// Consumes a numeric literal and classifies int vs. float.
    ///
    /// Float iff: a `.` followed by a digit (or by nothing that could
    /// continue an expression, as in `1.`), a decimal exponent, or an
    /// `f32`/`f64` suffix. `1..n` and `1.max(2)` stay integers; the
    /// dot belongs to the range / method call.
    fn number(&mut self) -> TokenKind {
        let mut float = false;
        if self.bytes[self.pos] == b'0'
            && matches!(self.peek(1), Some(b'x' | b'X' | b'o' | b'O' | b'b' | b'B'))
        {
            self.pos += 2;
            while self
                .peek(0)
                .is_some_and(|c| c.is_ascii_alphanumeric() || c == b'_')
            {
                self.pos += 1;
            }
            return TokenKind::Int;
        }
        while self
            .peek(0)
            .is_some_and(|c| c.is_ascii_digit() || c == b'_')
        {
            self.pos += 1;
        }
        if self.peek(0) == Some(b'.') {
            let after = self.peek(1);
            if after.is_some_and(|c| c.is_ascii_digit()) {
                self.pos += 1;
                float = true;
                while self
                    .peek(0)
                    .is_some_and(|c| c.is_ascii_digit() || c == b'_')
                {
                    self.pos += 1;
                }
            } else if !(after == Some(b'.') || after.is_some_and(is_ident_start)) {
                // Trailing-dot float: `1.` followed by `)`, `,`, EOF…
                self.pos += 1;
                float = true;
            }
        }
        if matches!(self.peek(0), Some(b'e' | b'E')) {
            let (sign, digit) = (self.peek(1), self.peek(2));
            let has_exp = sign.is_some_and(|c| c.is_ascii_digit())
                || (matches!(sign, Some(b'+' | b'-')) && digit.is_some_and(|c| c.is_ascii_digit()));
            if has_exp {
                self.pos += if sign.is_some_and(|c| c.is_ascii_digit()) {
                    2
                } else {
                    3
                };
                float = true;
                while self
                    .peek(0)
                    .is_some_and(|c| c.is_ascii_digit() || c == b'_')
                {
                    self.pos += 1;
                }
            }
        }
        // Type suffix (`u32`, `f64`, …) is part of the literal token.
        let suffix_start = self.pos;
        while self.peek(0).is_some_and(is_ident_continue) {
            self.pos += 1;
        }
        let suffix = &self.src[suffix_start..self.pos];
        if suffix.starts_with("f32") || suffix.starts_with("f64") {
            float = true;
        }
        if float {
            TokenKind::Float
        } else {
            TokenKind::Int
        }
    }

    fn punct(&mut self) -> TokenKind {
        let rest = &self.src[self.pos..];
        for op in OPERATORS {
            if rest.starts_with(op) {
                self.pos += op.len();
                return TokenKind::Punct;
            }
        }
        let b = self.bytes[self.pos];
        self.pos += 1;
        if SINGLE_PUNCT.contains(&b) {
            TokenKind::Punct
        } else {
            // Skip the remaining bytes of a multi-byte UTF-8 char so
            // slices stay on char boundaries.
            while self.peek(0).is_some_and(|c| (0x80..0xc0).contains(&c)) {
                self.pos += 1;
            }
            TokenKind::Unknown
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// (kind, text) pairs for every token, trivia included.
    fn kinds(src: &str) -> Vec<(TokenKind, &str)> {
        lex(src).iter().map(|t| (t.kind, t.text(src))).collect()
    }

    fn strip_ws(s: &str) -> String {
        s.chars().filter(|c| !c.is_whitespace()).collect()
    }

    /// The lossless property on one input.
    fn assert_roundtrip(src: &str) {
        let toks = lex(src);
        let mut rebuilt = String::new();
        let mut prev_end = 0;
        for t in &toks {
            assert!(t.start >= prev_end, "overlapping tokens in {src:?}");
            assert!(
                src[prev_end..t.start].chars().all(char::is_whitespace),
                "non-whitespace gap before {:?} in {src:?}",
                t.text(src)
            );
            prev_end = t.end;
            rebuilt.push_str(t.text(src));
        }
        assert!(
            src[prev_end..].chars().all(char::is_whitespace),
            "non-whitespace tail in {src:?}"
        );
        assert_eq!(strip_ws(&rebuilt), strip_ws(src), "roundtrip of {src:?}");
    }

    #[test]
    fn idents_keywords_numbers() {
        let got = kinds("fn f2(_x: u32) -> f64 { 1_000 }");
        assert_eq!(got[0], (TokenKind::Ident, "fn"));
        assert_eq!(got[1], (TokenKind::Ident, "f2"));
        assert!(got.contains(&(TokenKind::Ident, "_x")));
        assert!(got.contains(&(TokenKind::Int, "1_000")));
        assert!(got.contains(&(TokenKind::Punct, "->")));
    }

    #[test]
    fn float_vs_int_classification() {
        assert!(kinds("1.0").contains(&(TokenKind::Float, "1.0")));
        assert!(kinds("2e-3").contains(&(TokenKind::Float, "2e-3")));
        assert!(kinds("1f64").contains(&(TokenKind::Float, "1f64")));
        assert!(kinds("1.").contains(&(TokenKind::Float, "1.")));
        // A range or a method call on an integer literal stays Int.
        let range = kinds("1..n");
        assert!(range.contains(&(TokenKind::Int, "1")), "{range:?}");
        assert!(range.contains(&(TokenKind::Punct, "..")));
        let call = kinds("1.max(2)");
        assert!(call.contains(&(TokenKind::Int, "1")), "{call:?}");
        assert!(kinds("0xFF_u32").contains(&(TokenKind::Int, "0xFF_u32")));
        assert!(kinds("0b10").contains(&(TokenKind::Int, "0b10")));
    }

    #[test]
    fn char_literal_with_double_quote() {
        // Regression (old Scanner bug): `'"'` flipped the string state
        // and swallowed the rest of the line.
        let got = kinds("let c = '\"'; y.unwrap();");
        assert!(got.contains(&(TokenKind::Char, "'\"'")), "{got:?}");
        assert!(got.contains(&(TokenKind::Ident, "unwrap")), "{got:?}");
    }

    #[test]
    fn lifetime_vs_char() {
        let got = kinds("&'a str");
        assert!(got.contains(&(TokenKind::Lifetime, "'a")), "{got:?}");
        assert!(kinds("'x'").contains(&(TokenKind::Char, "'x'")));
        assert!(kinds("'\\''").contains(&(TokenKind::Char, "'\\''")));
        assert!(kinds("'\\u{1F600}'").contains(&(TokenKind::Char, "'\\u{1F600}'")));
        let stat = kinds("&'static str");
        assert!(stat.contains(&(TokenKind::Lifetime, "'static")), "{stat:?}");
        // A lifetime immediately before a string must not merge.
        let adj = kinds("x::<'a>(\"s\")");
        assert!(adj.contains(&(TokenKind::Lifetime, "'a")), "{adj:?}");
        assert!(adj.contains(&(TokenKind::Str, "\"s\"")), "{adj:?}");
    }

    #[test]
    fn byte_and_byte_string_literals() {
        assert!(kinds("b'x'").contains(&(TokenKind::Byte, "b'x'")));
        assert!(kinds("b\"ab\"").contains(&(TokenKind::ByteStr, "b\"ab\"")));
        assert!(kinds("br#\"a\"#").contains(&(TokenKind::RawByteStr, "br#\"a\"#")));
    }

    #[test]
    fn raw_strings_any_hash_depth() {
        // Regression: the old scanner only understood zero or one `#`.
        assert!(kinds("r\"a\"").contains(&(TokenKind::RawStr, "r\"a\"")));
        assert!(kinds("r#\"a\"#").contains(&(TokenKind::RawStr, "r#\"a\"#")));
        let two = "r##\"has \"# inside\"##";
        assert!(kinds(two).contains(&(TokenKind::RawStr, two)));
        let three = "r###\"x\"## still open\"###";
        assert!(kinds(three).contains(&(TokenKind::RawStr, three)));
        // r#ident is a raw identifier, not a raw string.
        assert!(kinds("r#type").contains(&(TokenKind::RawIdent, "r#type")));
    }

    #[test]
    fn nested_block_comments() {
        // Regression: the old scanner closed at the first `*/`.
        let src = "/* outer /* inner */ still comment */ code";
        let got = kinds(src);
        assert_eq!(got[0].0, TokenKind::BlockComment);
        assert_eq!(got[0].1, "/* outer /* inner */ still comment */");
        assert!(got.contains(&(TokenKind::Ident, "code")));
        // Depth three.
        let deep = "/* a /* b /* c */ b */ a */";
        assert_eq!(kinds(deep), vec![(TokenKind::BlockComment, deep)]);
    }

    #[test]
    fn doc_comment_classification() {
        assert_eq!(kinds("/// doc")[0].0, TokenKind::DocComment);
        assert_eq!(kinds("//! inner doc")[0].0, TokenKind::DocComment);
        assert_eq!(kinds("/** doc */")[0].0, TokenKind::DocComment);
        assert_eq!(kinds("/*! inner */")[0].0, TokenKind::DocComment);
        // rustc's corner cases: these are NOT doc comments.
        assert_eq!(kinds("//// not doc")[0].0, TokenKind::LineComment);
        assert_eq!(kinds("// plain")[0].0, TokenKind::LineComment);
        assert_eq!(kinds("/**/")[0].0, TokenKind::BlockComment);
        assert_eq!(kinds("/***/")[0].0, TokenKind::BlockComment);
    }

    #[test]
    fn strings_with_escapes_and_continuations() {
        let s = r#""a\"b\\""#;
        assert!(kinds(s).contains(&(TokenKind::Str, s)));
        let cont = "\"a\\\n b\" x";
        let got = lex(cont);
        assert_eq!(got[0].kind, TokenKind::Str);
        // The continuation newline is inside the string; `x` is on
        // line 2.
        assert_eq!(got.last().map(|t| t.line), Some(2));
    }

    #[test]
    fn maximal_munch_operators() {
        let got = kinds("a <<= b ..= c :: d");
        assert!(got.contains(&(TokenKind::Punct, "<<=")));
        assert!(got.contains(&(TokenKind::Punct, "..=")));
        assert!(got.contains(&(TokenKind::Punct, "::")));
    }

    #[test]
    fn line_numbers_are_one_based_and_accurate() {
        let src = "a\nb\n\nc";
        let lines: Vec<usize> = lex(src).iter().map(|t| t.line).collect();
        assert_eq!(lines, [1, 2, 4]);
        // Lines inside a block comment advance the counter.
        let src = "/* x\ny */\nz";
        let got = lex(src);
        assert_eq!(got[1].line, 3);
    }

    #[test]
    fn total_on_malformed_input() {
        // Unterminated constructs run to EOF; stray bytes degrade to
        // Unknown. Nothing panics.
        for src in [
            "\"never closed",
            "r##\"never closed\"#",
            "/* never closed",
            "'",
            "b'",
            "let × = 3£;",
            "\u{0}\u{1}",
        ] {
            let toks = lex(src);
            assert!(!toks.is_empty() || src.trim().is_empty());
            assert_roundtrip(src);
        }
    }

    #[test]
    fn roundtrip_corpus() {
        for src in [
            "",
            "   \n\t ",
            "fn main() { println!(\"hi\"); }",
            "let c = '\"'; let s = \"'\"; // tricky\n",
            "/* /* */ \"not a string\" */ real()",
            "r###\"raw \"## with hashes\"### + b\"bytes\"",
            "impl<'a> Foo<'a> { fn f(&'a self) -> &'a str { self.s } }",
            "let x = 1.0e-3f64 + 0x_ff as f64;",
            "#[cfg(test)]\nmod tests { #[test]\nfn t() {} }",
        ] {
            assert_roundtrip(src);
        }
    }
}
