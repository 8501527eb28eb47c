//! A lightweight item scanner over the token stream.
//!
//! This is not a parser — it is the minimal structural recovery the
//! lint rules need: which tokens are inside `#[cfg(test)]` regions,
//! which `pub` items exist (with their names, lines, and whether a doc
//! comment is attached), and which tokens declare each item (a fn's
//! signature, a type's body, a const's type). It walks
//! item positions recursively through `mod` and `impl` blocks, skips
//! function bodies and type bodies wholesale, and recovers from
//! anything it does not understand by advancing one token — like the
//! lexer, it is total.

use crate::lexer::{Token, TokenKind};

/// Item visibility, as far as the rules care.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Visibility {
    /// `pub` — part of the crate's external API.
    Pub,
    /// `pub(crate)`, `pub(super)`, `pub(in …)`.
    Restricted,
    /// No visibility qualifier.
    Private,
}

/// The syntactic class of a recovered item.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ItemKind {
    /// `fn` (free or in an `impl` block).
    Fn,
    /// `struct`.
    Struct,
    /// `enum`.
    Enum,
    /// `union`.
    Union,
    /// `trait`.
    Trait,
    /// `type` alias.
    TypeAlias,
    /// `const` item.
    Const,
    /// `static` item.
    Static,
    /// `mod` (inline or out-of-line).
    Mod,
    /// `use` declaration.
    Use,
    /// `macro_rules!` or `macro` definition.
    MacroDef,
}

/// One recovered item.
#[derive(Clone, Debug)]
pub struct Item {
    /// Syntactic class.
    pub kind: ItemKind,
    /// Declared name (empty for `use` declarations).
    pub name: String,
    /// Visibility qualifier.
    pub vis: Visibility,
    /// 1-based line of the item keyword.
    pub line: usize,
    /// A doc comment or `#[doc …]` attribute is attached.
    pub has_doc: bool,
    /// The item sits inside a `#[cfg(test)]` region (or carries the
    /// attribute itself).
    pub in_test: bool,
    /// The item is a method of a trait `impl` block (`impl T for U`);
    /// such fns inherit the trait's API surface and docs.
    pub in_trait_impl: bool,
    /// Token-index range `[start, end)` of the declaration — the
    /// tokens that name the types an item exposes. For fns: the
    /// signature, from the `fn` keyword up to (not including) the body
    /// `{` or the terminating `;`, so a `where` clause is inside. For
    /// structs, enums and unions: the whole definition. For consts and
    /// statics: the keyword up to the `=`; for type aliases: through
    /// the `;`. `None` for traits, modules, `use` and macros.
    pub decl: Option<(usize, usize)>,
}

/// Everything the rules need to know about one file's structure.
#[derive(Debug, Default)]
pub struct FileFacts {
    /// Recovered items, in source order (all nesting levels the
    /// scanner visits: top level, `mod` blocks, `impl` blocks).
    pub items: Vec<Item>,
    /// Per-token flag: the token lies inside a `#[cfg(test)]` /
    /// `#[test]` region (the attribute tokens themselves included).
    pub in_test: Vec<bool>,
}

/// Scans the token stream of one file.
pub fn analyze(src: &str, toks: &[Token]) -> FileFacts {
    let mut facts = FileFacts {
        items: Vec::new(),
        in_test: vec![false; toks.len()],
    };
    let mut s = Scanner {
        src,
        toks,
        facts: &mut facts,
    };
    s.scan_block(0, toks.len(), &Ctx::default());
    facts
}

/// Scanning context threaded through nested blocks.
#[derive(Clone, Default)]
struct Ctx {
    in_test: bool,
    in_trait_impl: bool,
}

struct Scanner<'a> {
    src: &'a str,
    toks: &'a [Token],
    facts: &'a mut FileFacts,
}

/// Item keywords that begin a recoverable item.
const QUALIFIERS: &[&str] = &["unsafe", "async", "extern", "default"];

impl Scanner<'_> {
    fn text(&self, i: usize) -> &str {
        self.toks[i].text(self.src)
    }

    fn is_punct(&self, i: usize, p: &str) -> bool {
        i < self.toks.len() && self.toks[i].kind == TokenKind::Punct && self.text(i) == p
    }

    fn is_ident(&self, i: usize, id: &str) -> bool {
        i < self.toks.len() && self.toks[i].kind == TokenKind::Ident && self.text(i) == id
    }

    /// First non-trivia token index at or after `i`, bounded by `end`.
    fn skip_trivia(&self, mut i: usize, end: usize) -> usize {
        while i < end && self.toks[i].is_trivia() {
            i += 1;
        }
        i
    }

    /// Advances past a delimited group: `i` must sit on the opening
    /// delimiter; returns the index one past its matching closer
    /// (or `end` if unbalanced). Only tokens of the same delimiter
    /// class are counted, so `{ "}" }` nests correctly — string and
    /// comment contents are opaque token slices.
    fn skip_group(&self, mut i: usize, end: usize, open: &str, close: &str) -> usize {
        let mut depth = 0usize;
        while i < end {
            if self.is_punct(i, open) {
                depth += 1;
            } else if self.is_punct(i, close) {
                depth -= 1;
                if depth == 0 {
                    return i + 1;
                }
            }
            i += 1;
        }
        end
    }

    /// Advances to one past the terminating `;` at brace depth 0
    /// (initializer expressions may contain `{ … }` blocks).
    fn skip_to_semi(&self, mut i: usize, end: usize) -> usize {
        let mut brace = 0usize;
        while i < end {
            if self.is_punct(i, "{") {
                brace += 1;
            } else if self.is_punct(i, "}") {
                brace = brace.saturating_sub(1);
            } else if brace == 0 && self.is_punct(i, ";") {
                return i + 1;
            }
            i += 1;
        }
        end
    }

    fn mark_test(&mut self, from: usize, to: usize) {
        let to = to.min(self.facts.in_test.len());
        for f in &mut self.facts.in_test[from..to] {
            *f = true;
        }
    }

    /// Scans the item positions in `[i, end)`.
    fn scan_block(&mut self, mut i: usize, end: usize, ctx: &Ctx) {
        if ctx.in_test {
            self.mark_test(i, end);
        }
        while i < end {
            i = self.item(i, end, ctx);
        }
    }

    /// Consumes one item (or recovers by one token); returns the index
    /// of the next item position.
    fn item(&mut self, start: usize, end: usize, ctx: &Ctx) -> usize {
        let mut i = start;
        let mut has_doc = false;
        let mut cfg_test = false;

        // Pending doc comments and attributes, in any interleaving.
        loop {
            if i >= end {
                return end;
            }
            match self.toks[i].kind {
                TokenKind::DocComment => {
                    // Outer docs (`///`, `/**`) attach to the next
                    // item; inner docs (`//!`, `/*!`) document the
                    // enclosing module and attach to nothing.
                    let t = self.text(i);
                    if t.starts_with("///") || t.starts_with("/**") {
                        has_doc = true;
                    }
                    i += 1;
                }
                TokenKind::LineComment | TokenKind::BlockComment => i += 1,
                TokenKind::Punct if self.text(i) == "#" => {
                    let mut j = i + 1;
                    let inner_attr = self.is_punct(j, "!");
                    if inner_attr {
                        j += 1;
                    }
                    if !self.is_punct(j, "[") {
                        return i + 1; // stray `#`, recover
                    }
                    let attr_end = self.skip_group(j, end, "[", "]");
                    if !inner_attr {
                        let (is_test, is_doc) = self.classify_attr(j, attr_end);
                        cfg_test |= is_test;
                        has_doc |= is_doc;
                    }
                    i = attr_end;
                }
                _ => break,
            }
        }

        // Visibility qualifier.
        let mut vis = Visibility::Private;
        if self.is_ident(i, "pub") {
            vis = Visibility::Pub;
            i = self.skip_trivia(i + 1, end);
            if self.is_punct(i, "(") {
                vis = Visibility::Restricted;
                i = self.skip_trivia(self.skip_group(i, end, "(", ")"), end);
            }
        }

        // Fn qualifiers (`unsafe`, `async`, `extern "C"`, `const fn`).
        let mut saw_extern = false;
        loop {
            if QUALIFIERS.iter().any(|q| self.is_ident(i, q)) {
                saw_extern |= self.is_ident(i, "extern");
                i = self.skip_trivia(i + 1, end);
            } else if saw_extern && matches!(self.toks.get(i).map(|t| t.kind), Some(TokenKind::Str))
            {
                i = self.skip_trivia(i + 1, end);
            } else if self.is_ident(i, "const") {
                // `const` is both a qualifier (`const fn`) and an item
                // keyword (`const X: …`); peek to tell them apart.
                let next = self.skip_trivia(i + 1, end);
                if self.is_ident(next, "fn") {
                    i = next;
                } else {
                    break;
                }
            } else {
                break;
            }
        }
        if i >= end {
            return end;
        }

        let item_test = ctx.in_test || cfg_test;
        let line = self.toks[i].line;
        let kw = if self.toks[i].kind == TokenKind::Ident {
            self.text(i).to_string()
        } else {
            String::new()
        };
        let item_ctx = Ctx {
            in_test: item_test,
            ..ctx.clone()
        };
        let next = match kw.as_str() {
            "fn" => self.item_fn(i, end, vis, line, has_doc, &item_ctx),
            "mod" => self.item_mod(i, end, vis, line, has_doc, item_test),
            "impl" => self.item_impl(i, end, item_test),
            "struct" | "enum" | "union" | "trait" => {
                let kind = match kw.as_str() {
                    "struct" => ItemKind::Struct,
                    "enum" => ItemKind::Enum,
                    "union" => ItemKind::Union,
                    _ => ItemKind::Trait,
                };
                self.item_type_like(i, end, kind, vis, line, has_doc, item_test)
            }
            "type" => {
                self.item_terminated(i, end, ItemKind::TypeAlias, vis, line, has_doc, item_test)
            }
            "const" | "static" => {
                let kind = if kw == "const" {
                    ItemKind::Const
                } else {
                    ItemKind::Static
                };
                self.item_terminated(i, end, kind, vis, line, has_doc, item_test)
            }
            "use" => {
                let next = self.skip_to_semi(i, end);
                self.push(
                    ItemKind::Use,
                    String::new(),
                    vis,
                    line,
                    has_doc,
                    item_test,
                    false,
                    None,
                );
                next
            }
            "macro_rules" | "macro" => self.item_macro(i, end, vis, line, has_doc, item_test),
            _ => i + 1, // not an item position: recover one token
        };
        if item_test {
            self.mark_test(start, next);
        }
        next
    }

    /// Classifies one attribute body `[j, attr_end)` (indices of `[`
    /// … `]`): is it a test marker, does it attach docs?
    fn classify_attr(&self, j: usize, attr_end: usize) -> (bool, bool) {
        let mut idents = Vec::new();
        for k in j..attr_end {
            if self.toks[k].kind == TokenKind::Ident {
                idents.push(self.text(k));
            }
        }
        let first = idents.first().copied().unwrap_or("");
        let is_test = first == "test" || (first == "cfg" && idents.contains(&"test"));
        let is_doc = first == "doc";
        (is_test, is_doc)
    }

    #[allow(clippy::too_many_arguments)]
    fn push(
        &mut self,
        kind: ItemKind,
        name: String,
        vis: Visibility,
        line: usize,
        has_doc: bool,
        in_test: bool,
        in_trait_impl: bool,
        decl: Option<(usize, usize)>,
    ) {
        self.facts.items.push(Item {
            kind,
            name,
            vis,
            line,
            has_doc,
            in_test,
            in_trait_impl,
            decl,
        });
    }

    fn item_fn(
        &mut self,
        kw: usize,
        end: usize,
        vis: Visibility,
        line: usize,
        has_doc: bool,
        ctx: &Ctx,
    ) -> usize {
        let name_i = self.skip_trivia(kw + 1, end);
        let name = if name_i < end && self.toks[name_i].kind == TokenKind::Ident {
            self.text(name_i).to_string()
        } else {
            String::new()
        };
        // The signature runs to the body `{` or the terminating `;`.
        // Parameter defaults and where-clauses stay brace-free in this
        // codebase; the first `{` at angle-depth irrelevance is the
        // body.
        let mut i = name_i;
        while i < end && !self.is_punct(i, "{") && !self.is_punct(i, ";") {
            i += 1;
        }
        self.push(
            ItemKind::Fn,
            name,
            vis,
            line,
            has_doc,
            ctx.in_test,
            ctx.in_trait_impl,
            Some((kw, i)),
        );
        if i < end && self.is_punct(i, "{") {
            self.skip_group(i, end, "{", "}")
        } else {
            (i + 1).min(end)
        }
    }

    fn item_mod(
        &mut self,
        kw: usize,
        end: usize,
        vis: Visibility,
        line: usize,
        has_doc: bool,
        in_test: bool,
    ) -> usize {
        let name_i = self.skip_trivia(kw + 1, end);
        let name = if name_i < end && self.toks[name_i].kind == TokenKind::Ident {
            self.text(name_i).to_string()
        } else {
            String::new()
        };
        let mut i = name_i + 1;
        i = self.skip_trivia(i, end);
        self.push(
            ItemKind::Mod,
            name,
            vis,
            line,
            has_doc,
            in_test,
            false,
            None,
        );
        if i < end && self.is_punct(i, "{") {
            let body_end = self.skip_group(i, end, "{", "}");
            // Recurse into the block (sans the enclosing braces).
            let ctx = Ctx {
                in_test,
                ..Ctx::default()
            };
            self.scan_block(i + 1, body_end.saturating_sub(1), &ctx);
            body_end
        } else {
            (i + 1).min(end)
        }
    }

    fn item_impl(&mut self, kw: usize, end: usize, in_test: bool) -> usize {
        // `impl<…> Type { … }` or `impl<…> Trait for Type { … }`.
        let mut i = kw + 1;
        let mut is_trait_impl = false;
        while i < end && !self.is_punct(i, "{") && !self.is_punct(i, ";") {
            is_trait_impl |= self.is_ident(i, "for");
            i += 1;
        }
        if i < end && self.is_punct(i, "{") {
            let body_end = self.skip_group(i, end, "{", "}");
            let ctx = Ctx {
                in_test,
                in_trait_impl: is_trait_impl,
            };
            self.scan_block(i + 1, body_end.saturating_sub(1), &ctx);
            body_end
        } else {
            (i + 1).min(end)
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn item_type_like(
        &mut self,
        kw: usize,
        end: usize,
        kind: ItemKind,
        vis: Visibility,
        line: usize,
        has_doc: bool,
        in_test: bool,
    ) -> usize {
        let name_i = self.skip_trivia(kw + 1, end);
        let name = if name_i < end && self.toks[name_i].kind == TokenKind::Ident {
            self.text(name_i).to_string()
        } else {
            String::new()
        };
        // Body: `{ … }` (fields/variants/methods — skipped as item
        // positions), tuple `( … );`, or unit `;`.
        let mut i = name_i + 1;
        let next = loop {
            if i >= end {
                break end;
            }
            if self.is_punct(i, "{") {
                break self.skip_group(i, end, "{", "}");
            }
            if self.is_punct(i, "(") {
                i = self.skip_group(i, end, "(", ")");
                continue;
            }
            if self.is_punct(i, ";") {
                break i + 1;
            }
            i += 1;
        };
        let decl = (kind != ItemKind::Trait).then_some((kw, next));
        self.push(kind, name, vis, line, has_doc, in_test, false, decl);
        next
    }

    #[allow(clippy::too_many_arguments)]
    fn item_terminated(
        &mut self,
        kw: usize,
        end: usize,
        kind: ItemKind,
        vis: Visibility,
        line: usize,
        has_doc: bool,
        in_test: bool,
    ) -> usize {
        let name_i = self.skip_trivia(kw + 1, end);
        let name = if name_i < end && self.toks[name_i].kind == TokenKind::Ident {
            self.text(name_i).to_string()
        } else {
            String::new()
        };
        let next = self.skip_to_semi(kw, end);
        let decl_end = if kind == ItemKind::TypeAlias {
            next
        } else {
            (kw..next).find(|&i| self.is_punct(i, "=")).unwrap_or(next)
        };
        self.push(
            kind,
            name,
            vis,
            line,
            has_doc,
            in_test,
            false,
            Some((kw, decl_end)),
        );
        next
    }

    fn item_macro(
        &mut self,
        kw: usize,
        end: usize,
        vis: Visibility,
        line: usize,
        has_doc: bool,
        in_test: bool,
    ) -> usize {
        // `macro_rules! name { … }` (or `( … );` / `[ … ];`), or
        // `macro name { … }`.
        let mut i = self.skip_trivia(kw + 1, end);
        if self.is_punct(i, "!") {
            i = self.skip_trivia(i + 1, end);
        }
        let name = if i < end && self.toks[i].kind == TokenKind::Ident {
            self.text(i).to_string()
        } else {
            String::new()
        };
        i = self.skip_trivia(i + 1, end);
        let next = if self.is_punct(i, "{") {
            self.skip_group(i, end, "{", "}")
        } else if self.is_punct(i, "(") {
            self.skip_to_semi(self.skip_group(i, end, "(", ")"), end)
        } else if self.is_punct(i, "[") {
            self.skip_to_semi(self.skip_group(i, end, "[", "]"), end)
        } else {
            (i + 1).min(end)
        };
        self.push(
            ItemKind::MacroDef,
            name,
            vis,
            line,
            has_doc,
            in_test,
            false,
            None,
        );
        next
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer;

    fn facts(src: &str) -> FileFacts {
        analyze(src, &lexer::lex(src))
    }

    fn item<'a>(f: &'a FileFacts, name: &str) -> &'a Item {
        f.items
            .iter()
            .find(|i| i.name == name)
            .unwrap_or_else(|| panic!("no item `{name}` in {:?}", f.items))
    }

    #[test]
    fn recovers_pub_items_with_docs() {
        let src = "\
/// Documented.
pub fn yes() {}

pub fn no() {}

/// A type.
pub struct S { x: u32 }

pub(crate) const K: usize = 3;
static PRIVATE: u8 = 0;
";
        let f = facts(src);
        assert!(item(&f, "yes").has_doc);
        assert_eq!(item(&f, "yes").vis, Visibility::Pub);
        assert_eq!(item(&f, "yes").kind, ItemKind::Fn);
        assert!(!item(&f, "no").has_doc);
        assert_eq!(item(&f, "S").kind, ItemKind::Struct);
        assert_eq!(item(&f, "K").vis, Visibility::Restricted);
        assert_eq!(item(&f, "PRIVATE").vis, Visibility::Private);
        assert_eq!(item(&f, "PRIVATE").kind, ItemKind::Static);
    }

    #[test]
    fn doc_attachment_rules() {
        // Inner docs do not attach to the next item; an attribute
        // between doc and item keeps the attachment.
        let src = "\
//! module docs
pub fn first() {}

/// Documented through an attribute.
#[inline]
pub fn second() {}
";
        let f = facts(src);
        assert!(!item(&f, "first").has_doc);
        assert!(item(&f, "second").has_doc);
    }

    #[test]
    fn cfg_test_regions_are_marked() {
        let src = "\
pub fn live() {}
#[cfg(test)]
mod tests {
    fn helper() {}
}
pub fn after() {}
";
        let f = facts(src);
        assert!(!item(&f, "live").in_test);
        assert!(item(&f, "helper").in_test);
        assert!(!item(&f, "after").in_test, "test region must close");
    }

    #[test]
    fn fn_qualifiers_and_signatures() {
        let src =
            "pub async unsafe fn q(x: u32) -> u32 { x }\npub const fn c() {}\nconst N: u8 = 1;\n";
        let f = facts(src);
        assert_eq!(item(&f, "q").kind, ItemKind::Fn);
        assert_eq!(item(&f, "c").kind, ItemKind::Fn, "const fn is a fn");
        assert_eq!(item(&f, "N").kind, ItemKind::Const);
        assert!(item(&f, "q").decl.is_some());
    }

    #[test]
    fn declaration_spans_cover_signatures_bodies_and_types() {
        let src = "\
pub struct S { pub v: Vec<E> }
pub const K: &[(u8, E)] = &[(1, E::A)];
pub type A = Vec<E>;
pub fn f<F>(g: F) where F: Fn(&E) { g(&E::A) }
pub trait T { fn m(&self) -> E; }
";
        let f = facts(src);
        let toks = lexer::lex(src);
        let decl = |name: &str| -> String {
            let (s, e) = item(&f, name).decl.expect("decl span");
            toks[s..e]
                .iter()
                .map(|t| t.text(src))
                .collect::<Vec<_>>()
                .join(" ")
        };
        assert_eq!(decl("S"), "struct S { pub v : Vec < E > }");
        assert_eq!(decl("K"), "const K : & [ ( u8 , E ) ]");
        assert_eq!(decl("A"), "type A = Vec < E > ;");
        assert_eq!(decl("f"), "fn f < F > ( g : F ) where F : Fn ( & E )");
        assert!(item(&f, "T").decl.is_none());
    }

    #[test]
    fn impl_blocks_and_trait_impls() {
        let src = "\
struct S;
impl S {
    pub fn inherent(&self) {}
}
impl std::fmt::Display for S {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result { Ok(()) }
}
";
        let f = facts(src);
        assert!(!item(&f, "inherent").in_trait_impl);
        assert!(item(&f, "fmt").in_trait_impl);
    }

    #[test]
    fn nested_mods_and_out_of_line_mods() {
        let src = "\
pub mod outer {
    //! inner docs
    pub mod inner {
        pub fn deep() {}
    }
}
pub mod external;
";
        let f = facts(src);
        assert_eq!(item(&f, "outer").kind, ItemKind::Mod);
        assert_eq!(item(&f, "inner").kind, ItemKind::Mod);
        assert_eq!(item(&f, "deep").kind, ItemKind::Fn);
        assert_eq!(item(&f, "external").kind, ItemKind::Mod);
    }

    #[test]
    fn const_initializers_with_braces_do_not_confuse_nesting() {
        let src = "\
pub const T: &[(&str, u8)] = &[(\"a\", 1), (\"b\", 2)];
pub static S: fn() -> u8 = || { 42 };
pub fn after() {}
";
        let f = facts(src);
        assert_eq!(item(&f, "T").kind, ItemKind::Const);
        assert_eq!(item(&f, "after").kind, ItemKind::Fn);
    }

    #[test]
    fn macro_defs_are_recovered() {
        let src = "macro_rules! m { () => {} }\npub fn after() {}\n";
        let f = facts(src);
        assert_eq!(item(&f, "m").kind, ItemKind::MacroDef);
        assert_eq!(item(&f, "after").kind, ItemKind::Fn);
    }
}
