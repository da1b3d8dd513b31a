//! A coarse-grained recursive-descent parser over the lexer's token
//! stream.
//!
//! This is deliberately *not* a full Rust grammar: the semantic passes
//! (panic-reachability, static lock order) need item boundaries,
//! function identities and an event stream per body — calls, method
//! calls, macro invocations, index expressions, block scoping, `let`
//! bindings and `drop()` calls — and nothing else. The
//! parser therefore recognises items (`fn`, `impl`, `trait`, `mod`,
//! `struct`, `enum`, `use`, `static`/`const`), attributes it, and scans
//! each `fn` body into a flat [`Event`] list carrying brace depth and
//! statement boundaries. Everything it does not understand it skips
//! token-by-token, so pathological input degrades to fewer events, never
//! to a panic or a hang.
//!
//! Test attribution reuses [`FileAnalysis`]'s `#[cfg(test)]`/`#[test]`
//! span detection: any function whose name lies inside a test span is
//! marked `is_test` and excluded from the semantic passes.

use crate::lexer::TokKind;
use crate::rules::FileAnalysis;

/// How a method call's receiver looked at the call site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Recv {
    /// The receiver chain ends in a plain identifier (`self.queue.pop()`
    /// → `queue`), usable for field-type lookup.
    Simple(String),
    /// The receiver ends in `)`/`]`/a literal — a computed expression the
    /// resolver refuses to guess about.
    Complex,
}

/// One occurrence the semantic passes care about, in body order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event {
    /// A call through a path: `foo(…)`, `Type::method(…)`, `a::b::c(…)`.
    Call {
        /// Path segments, last one the callee name.
        path: Vec<String>,
        /// Byte offset of the callee name token.
        pos: usize,
        /// Inside a `catch_unwind(…)` argument.
        guarded: bool,
        /// Brace depth at the call site (0 = fn body top level).
        depth: u32,
        /// `let` binding the enclosing statement assigns to, if any.
        let_ident: Option<String>,
        /// The call's result is consumed by a further `.` chain — any
        /// guard it returns is a statement temporary, not a binding.
        chained: bool,
    },
    /// A method call `recv.name(…)`.
    Method {
        /// Receiver shape.
        recv: Recv,
        /// Method name.
        name: String,
        /// Byte offset of the method name token.
        pos: usize,
        /// Inside a `catch_unwind(…)` argument.
        guarded: bool,
        /// Brace depth at the call site.
        depth: u32,
        /// `let` binding the enclosing statement assigns to, if any.
        let_ident: Option<String>,
        /// The call's result is consumed by a further `.` chain — any
        /// guard it returns is a statement temporary, not a binding.
        chained: bool,
    },
    /// A macro invocation `name!(…)` / `name![…]` / `name!{…}`.
    MacroUse {
        /// Macro name.
        name: String,
        /// Byte offset of the name token.
        pos: usize,
        /// Inside a `catch_unwind(…)` argument.
        guarded: bool,
    },
    /// A postfix index expression `expr[…]` with a non-literal index.
    Index {
        /// Byte offset of the `[`.
        pos: usize,
        /// Inside a `catch_unwind(…)` argument.
        guarded: bool,
    },
    /// A `drop(ident)` call releasing a named binding.
    Drop {
        /// The dropped identifier.
        ident: String,
    },
    /// A `}` returning to `to_depth`.
    Close {
        /// Brace depth after the close.
        to_depth: u32,
    },
    /// A `;` at `depth` — releases statement-temporary guards.
    StmtEnd {
        /// Brace depth at the semicolon.
        depth: u32,
    },
}

/// One function (free or associated) with its scanned body.
#[derive(Debug, Clone)]
pub struct FnDef {
    /// Bare name.
    pub name: String,
    /// Inherent-impl / trait type head for associated fns.
    pub owner: Option<String>,
    /// Lies inside a `#[cfg(test)]` / `#[test]` span.
    pub is_test: bool,
    /// Return type text mentions `Guard` — callers inherit its locks.
    pub returns_guard: bool,
    /// Byte offset of the name token (for reporting).
    pub pos: usize,
    /// Body events in source order (empty for bodiless signatures).
    pub body: Vec<Event>,
}

impl FnDef {
    /// `Owner::name` for associated fns, bare `name` otherwise.
    pub fn qname(&self) -> String {
        match &self.owner {
            Some(o) => format!("{o}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// A `use` leaf: `alias` names `target` from crate `crate_seg`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UseAlias {
    /// The name visible in this file.
    pub alias: String,
    /// First path segment (`aq_circuits`, `crate`, `std`, …).
    pub crate_seg: String,
    /// The leaf item actually named.
    pub target: String,
}

/// A struct field and the head identifier of its declared type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FieldDecl {
    /// Field name.
    pub name: String,
    /// First identifier of the type (`DebugMutex` for
    /// `DebugMutex<Registry>`).
    pub type_head: String,
}

/// A `static`/`const` item and its type head.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StaticDecl {
    /// Item name.
    pub name: String,
    /// First identifier of the type.
    pub type_head: String,
}

/// Everything parsed out of one file.
#[derive(Debug, Clone, Default)]
pub struct ParsedFile {
    /// Workspace-relative path.
    pub rel: String,
    /// Crate directory name (`serve` for `crates/serve/src/…`, `root`
    /// for top-level `src/`/`tests/`).
    pub crate_name: String,
    /// All functions, free and associated, test ones included (flagged).
    pub fns: Vec<FnDef>,
    /// `use` aliases visible in this file.
    pub uses: Vec<UseAlias>,
    /// Struct fields (for receiver-type inference).
    pub fields: Vec<FieldDecl>,
    /// Statics and consts (for receiver-type inference).
    pub statics: Vec<StaticDecl>,
}

/// Crate directory a workspace-relative path belongs to.
pub fn crate_of(rel: &str) -> String {
    let mut parts = rel.split('/');
    if parts.next() == Some("crates") {
        if let Some(dir) = parts.next() {
            return dir.to_string();
        }
    }
    "root".to_string()
}

const KEYWORDS_NOT_CALLS: &[&str] = &[
    "if", "else", "while", "for", "loop", "match", "return", "in", "as", "move", "ref", "unsafe",
    "break", "continue", "where", "dyn", "impl", "fn", "let", "mut", "pub", "use", "mod", "struct",
    "enum", "trait", "type", "const", "static", "crate", "super", "self", "Self", "await", "async",
    "extern", "union", "box", "yield", "true", "false",
];

struct Parser<'a> {
    fa: &'a FileAnalysis<'a>,
    out: ParsedFile,
}

/// Parses one pre-analysed file into its item tree.
pub fn parse(fa: &FileAnalysis<'_>) -> ParsedFile {
    let mut p = Parser {
        fa,
        out: ParsedFile {
            rel: fa.rel.to_string(),
            crate_name: crate_of(fa.rel),
            ..ParsedFile::default()
        },
    };
    let n = fa.code.len();
    p.items(0, n, None);
    p.out
}

impl<'a> Parser<'a> {
    fn text(&self, ci: usize) -> &'a str {
        self.fa
            .code
            .get(ci)
            .map(|&i| self.fa.tokens[i].text(self.fa.src))
            .unwrap_or("")
    }

    fn kind(&self, ci: usize) -> Option<TokKind> {
        self.fa.code.get(ci).map(|&i| self.fa.tokens[i].kind)
    }

    fn start(&self, ci: usize) -> usize {
        self.fa
            .code
            .get(ci)
            .map(|&i| self.fa.tokens[i].start)
            .unwrap_or(self.fa.src.len())
    }

    fn end_byte(&self, ci: usize) -> usize {
        self.fa
            .code
            .get(ci)
            .map(|&i| self.fa.tokens[i].end)
            .unwrap_or(self.fa.src.len())
    }

    fn is_ident(&self, ci: usize) -> bool {
        matches!(self.kind(ci), Some(TokKind::Ident | TokKind::RawIdent))
    }

    /// Index just past the `]` matching the `[` at `ci + 1` (attribute
    /// form `#[…]`), or `ci + 2` on malformed input.
    fn skip_attr(&self, ci: usize) -> usize {
        let mut j = ci + 1;
        let mut depth = 0usize;
        let n = self.fa.code.len();
        while j < n {
            match self.text(j) {
                "[" => depth += 1,
                "]" => {
                    depth = depth.saturating_sub(1);
                    if depth == 0 {
                        return j + 1;
                    }
                }
                _ => {}
            }
            j += 1;
        }
        n
    }

    /// Index just past the delimiter-balanced group opening at `ci`
    /// (`(`/`[`/`{`). Saturates at end of input.
    fn skip_group(&self, ci: usize) -> usize {
        let (open, close) = match self.text(ci) {
            "(" => ("(", ")"),
            "[" => ("[", "]"),
            "{" => ("{", "}"),
            _ => return ci + 1,
        };
        let mut depth = 0usize;
        let mut j = ci;
        let n = self.fa.code.len();
        while j < n {
            let t = self.text(j);
            if t == open {
                depth += 1;
            } else if t == close {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    return j + 1;
                }
            }
            j += 1;
        }
        n
    }

    /// Index just past a generics group `<…>` starting at `ci`; counts
    /// `<`/`>` characters inside punctuation so `>>` closes two levels.
    /// `->` is ignored (function-trait bounds).
    fn skip_generics(&self, ci: usize) -> usize {
        let mut depth = 0isize;
        let mut j = ci;
        let n = self.fa.code.len();
        while j < n {
            let t = self.text(j);
            if self.kind(j) == Some(TokKind::Punct) && t != "->" && t != "=>" {
                for c in t.chars() {
                    match c {
                        '<' => depth += 1,
                        '>' => depth -= 1,
                        _ => {}
                    }
                }
            } else if matches!(t, "(" | "[") {
                j = self.skip_group(j);
                if depth <= 0 {
                    return j;
                }
                continue;
            } else if matches!(t, "{" | ";") {
                return j; // runaway generics: bail before an item boundary
            }
            j += 1;
            if depth <= 0 {
                return j;
            }
        }
        n
    }

    /// Item-level scan of the code-token range `[i, end)`.
    fn items(&mut self, mut i: usize, end: usize, owner: Option<&str>) {
        while i < end {
            match self.text(i) {
                "#" if self.text(i + 1) == "[" => i = self.skip_attr(i),
                "pub" => {
                    i += 1;
                    if self.text(i) == "(" {
                        i = self.skip_group(i);
                    }
                }
                "unsafe" | "async" | "default" => i += 1,
                "extern" => {
                    i += 1;
                    if matches!(self.kind(i), Some(TokKind::Str)) {
                        i += 1;
                    }
                }
                "use" => i = self.parse_use(i, end),
                "fn" => i = self.parse_fn(i, end, owner),
                "impl" => i = self.parse_impl(i, end),
                "trait" => i = self.parse_braced_scope(i, end, true),
                "mod" => i = self.parse_braced_scope(i, end, false),
                "struct" => i = self.parse_struct(i, end),
                "enum" | "union" => i = self.skip_item(i + 1, end),
                "static" | "const" if self.text(i + 1) != "fn" && self.text(i + 1) != "unsafe" => {
                    i = self.parse_static(i, end)
                }
                "const" => i += 1, // `const fn` qualifier
                "type" | "macro_rules" => i = self.skip_item(i + 1, end),
                "{" | "(" | "[" => i = self.skip_group(i),
                _ => i += 1,
            }
        }
    }

    /// Skips to just past the item starting after its keyword: the first
    /// top-level `;` or the matching `}` of its first brace block.
    fn skip_item(&self, mut i: usize, end: usize) -> usize {
        let mut nest = 0usize;
        while i < end {
            match self.text(i) {
                "(" | "[" => nest += 1,
                ")" | "]" => nest = nest.saturating_sub(1),
                ";" if nest == 0 => return i + 1,
                "{" if nest == 0 => return self.skip_group(i),
                _ => {}
            }
            i += 1;
        }
        end
    }

    /// `use a::b::{c, d as e};` — records leaf aliases.
    fn parse_use(&mut self, i: usize, end: usize) -> usize {
        let mut j = i + 1;
        let mut prefix: Vec<String> = Vec::new();
        let mut last: Option<String> = None;
        // walk the simple path up to `{`, `;`, or `as`
        while j < end {
            let t = self.text(j);
            if self.is_ident(j) {
                if let Some(seg) = last.take() {
                    prefix.push(seg);
                }
                last = Some(t.to_string());
                j += 1;
            } else if t == "::" {
                j += 1;
            } else {
                break;
            }
        }
        let crate_seg = prefix
            .first()
            .cloned()
            .or_else(|| last.clone())
            .unwrap_or_default();
        match self.text(j) {
            ";" => {
                if let Some(leaf) = last {
                    self.push_use(&leaf, &crate_seg, &leaf);
                }
                j + 1
            }
            "as" => {
                let alias = self.text(j + 1).to_string();
                if let Some(leaf) = last {
                    self.push_use(&alias, &crate_seg, &leaf);
                }
                self.skip_item(j, end)
            }
            "{" => {
                // one group level: entries are `leaf`, `leaf as alias`,
                // or deeper paths whose own leaf we take
                let close = self.skip_group(j);
                let mut k = j + 1;
                let mut leaf: Option<String> = None;
                while k < close.saturating_sub(1) {
                    let t = self.text(k);
                    if self.is_ident(k) && t != "as" {
                        leaf = Some(t.to_string());
                        k += 1;
                    } else if t == "as" {
                        let alias = self.text(k + 1).to_string();
                        if let Some(l) = leaf.take() {
                            self.push_use(&alias, &crate_seg, &l);
                        }
                        k += 2;
                    } else if t == "," || t == "}" {
                        if let Some(l) = leaf.take() {
                            self.push_use(&l, &crate_seg, &l);
                        }
                        k += 1;
                    } else {
                        k += 1;
                    }
                }
                if let Some(l) = leaf.take() {
                    self.push_use(&l, &crate_seg, &l);
                }
                self.skip_item(close, end)
            }
            _ => self.skip_item(j, end),
        }
    }

    fn push_use(&mut self, alias: &str, crate_seg: &str, target: &str) {
        if alias == "*" || alias.is_empty() {
            return;
        }
        self.out.uses.push(UseAlias {
            alias: alias.to_string(),
            crate_seg: crate_seg.to_string(),
            target: target.to_string(),
        });
    }

    /// `impl<T> Type { … }` / `impl Trait for Type { … }` — recurses into
    /// the body with the implemented type as owner.
    fn parse_impl(&mut self, i: usize, end: usize) -> usize {
        let mut j = i + 1;
        if self.text(j) == "<" {
            j = self.skip_generics(j);
        }
        // the type head is the last path segment before generics/`{`/`for`;
        // on a trait impl, the head after `for` wins.
        let mut head = String::new();
        while j < end {
            let t = self.text(j);
            if self.is_ident(j) && t != "for" && t != "where" {
                head = t.to_string();
                j += 1;
            } else if t == "::" {
                j += 1;
            } else if t == "<" {
                j = self.skip_generics(j);
            } else if t == "for" {
                head.clear();
                j += 1;
            } else if t == "&" || t == "'" || matches!(self.kind(j), Some(TokKind::Lifetime)) {
                j += 1;
            } else {
                break;
            }
        }
        while j < end && self.text(j) != "{" && self.text(j) != ";" {
            j += 1; // where clause
        }
        if self.text(j) != "{" {
            return j + 1;
        }
        let close = self.skip_group(j);
        let owner = if head.is_empty() { None } else { Some(head) };
        self.items(j + 1, close.saturating_sub(1), owner.as_deref());
        close
    }

    /// `trait Name { … }` (owner = trait name, for default methods) or
    /// `mod name { … }` (no owner change).
    fn parse_braced_scope(&mut self, i: usize, end: usize, named_owner: bool) -> usize {
        let name = self.text(i + 1).to_string();
        let mut j = i + 2;
        if self.text(j) == "<" {
            j = self.skip_generics(j);
        }
        while j < end && self.text(j) != "{" && self.text(j) != ";" {
            j += 1;
        }
        if self.text(j) != "{" {
            return j + 1; // `mod name;`
        }
        let close = self.skip_group(j);
        let owner = if named_owner { Some(name) } else { None };
        self.items(j + 1, close.saturating_sub(1), owner.as_deref());
        close
    }

    /// `struct Name { field: Type, … }` — records field type heads.
    fn parse_struct(&mut self, i: usize, end: usize) -> usize {
        let mut j = i + 2; // past `struct Name`
        if self.text(j) == "<" {
            j = self.skip_generics(j);
        }
        while j < end && !matches!(self.text(j), "{" | "(" | ";") {
            j += 1; // where clause
        }
        match self.text(j) {
            ";" => j + 1,
            "(" => self.skip_item(j, end), // tuple struct
            "{" => {
                let close = self.skip_group(j);
                let mut k = j + 1;
                while k + 1 < close {
                    if self.text(k) == "#" && self.text(k + 1) == "[" {
                        k = self.skip_attr(k);
                        continue;
                    }
                    if self.text(k) == "pub" {
                        k += 1;
                        if self.text(k) == "(" {
                            k = self.skip_group(k);
                        }
                        continue;
                    }
                    if self.is_ident(k) && self.text(k + 1) == ":" {
                        let name = self.text(k).to_string();
                        // type head: first ident after `:`, skipping
                        // references, lifetimes and qualifiers
                        let mut m = k + 2;
                        while m < close
                            && (matches!(self.text(m), "&" | "mut" | "dyn" | "impl")
                                || matches!(self.kind(m), Some(TokKind::Lifetime)))
                        {
                            m += 1;
                        }
                        if self.is_ident(m) {
                            self.out.fields.push(FieldDecl {
                                name,
                                type_head: self.text(m).to_string(),
                            });
                        }
                        // skip to the `,` ending this field, minding nesting
                        let mut angle = 0isize;
                        let mut nest = 0usize;
                        while m < close {
                            let t = self.text(m);
                            match t {
                                "(" | "[" => nest += 1,
                                ")" | "]" => nest = nest.saturating_sub(1),
                                "," if nest == 0 && angle <= 0 => break,
                                _ if self.kind(m) == Some(TokKind::Punct) && t != "->" => {
                                    for c in t.chars() {
                                        match c {
                                            '<' => angle += 1,
                                            '>' => angle -= 1,
                                            _ => {}
                                        }
                                    }
                                }
                                _ => {}
                            }
                            m += 1;
                        }
                        k = m + 1;
                        continue;
                    }
                    k += 1;
                }
                close
            }
            _ => j + 1,
        }
    }

    /// `static NAME: Type = …;` / `const NAME: Type = …;`.
    fn parse_static(&mut self, i: usize, end: usize) -> usize {
        let mut j = i + 1;
        if self.text(j) == "mut" {
            j += 1;
        }
        let name = self.text(j).to_string();
        if self.text(j + 1) == ":" {
            let mut m = j + 2;
            while m < end
                && (matches!(self.text(m), "&" | "mut" | "dyn" | "impl")
                    || matches!(self.kind(m), Some(TokKind::Lifetime)))
            {
                m += 1;
            }
            if self.is_ident(m) {
                self.out.statics.push(StaticDecl {
                    name,
                    type_head: self.text(m).to_string(),
                });
            }
        }
        self.skip_item(j, end)
    }

    /// `fn name<…>(…) -> Ret { body }` — signature plus body events.
    fn parse_fn(&mut self, i: usize, end: usize, owner: Option<&str>) -> usize {
        let name_ci = i + 1;
        if !self.is_ident(name_ci) {
            return i + 1;
        }
        let name = self.text(name_ci).to_string();
        let pos = self.start(name_ci);
        let mut j = name_ci + 1;
        if self.text(j) == "<" {
            j = self.skip_generics(j);
        }
        if self.text(j) == "(" {
            j = self.skip_group(j);
        }
        let mut returns_guard = false;
        if self.text(j) == "->" {
            j += 1;
            while j < end && !matches!(self.text(j), "{" | ";" | "where") {
                if self.text(j).contains("Guard") {
                    returns_guard = true;
                }
                if matches!(self.text(j), "(" | "[") {
                    j = self.skip_group(j);
                } else {
                    j += 1;
                }
            }
        }
        while j < end && !matches!(self.text(j), "{" | ";") {
            j += 1; // where clause
        }
        let (body, past) = if self.text(j) == "{" {
            let close = self.skip_group(j);
            let events = self.scan_body(j + 1, close.saturating_sub(1), owner);
            (events, close)
        } else {
            (Vec::new(), j + 1)
        };
        self.out.fns.push(FnDef {
            name,
            owner: owner.map(str::to_string),
            is_test: self.fa.in_test_code(pos),
            returns_guard,
            pos,
            body,
        });
        past
    }

    /// Flat event scan of a body's code-token range. Nested `fn` items are
    /// parsed as their own [`FnDef`]s and excluded from the outer stream.
    fn scan_body(&mut self, start: usize, end: usize, owner: Option<&str>) -> Vec<Event> {
        let mut events = Vec::new();
        let mut depth: u32 = 0;
        let mut pending_let: Option<(String, u32)> = None;
        let mut guards: Vec<(usize, usize)> = Vec::new();
        let mut j = start;
        while j < end {
            let t = self.text(j);
            let in_guard = {
                let p = self.start(j);
                guards.iter().any(|&(s, e)| p >= s && p < e)
            };
            match t {
                "{" => depth += 1,
                "}" => {
                    depth = depth.saturating_sub(1);
                    events.push(Event::Close { to_depth: depth });
                }
                ";" => {
                    events.push(Event::StmtEnd { depth });
                    if pending_let.as_ref().is_some_and(|&(_, d)| d == depth) {
                        pending_let = None;
                    }
                }
                "#" if self.text(j + 1) == "[" => {
                    j = self.skip_attr(j);
                    continue;
                }
                "let" => {
                    let mut k = j + 1;
                    if self.text(k) == "mut" {
                        k += 1;
                    }
                    if self.is_ident(k) && matches!(self.text(k + 1), "=" | ":") {
                        pending_let = Some((self.text(k).to_string(), depth));
                    }
                }
                "fn" if self.is_ident(j + 1) => {
                    j = self.parse_fn(j, end, owner);
                    continue;
                }
                "[" => {
                    // postfix index: `expr[…]` — the `[` directly follows
                    // an ident or a closing delimiter
                    let prev_ident = j > 0 && self.is_ident(j - 1);
                    let prev_close = j > 0 && matches!(self.text(j - 1), ")" | "]");
                    let prev_kw = j > 0 && KEYWORDS_NOT_CALLS.contains(&self.text(j - 1));
                    if (prev_ident || prev_close) && !prev_kw && self.text(j.wrapping_sub(2)) != "!"
                    {
                        let close = self.skip_group(j);
                        let inner = close.saturating_sub(1).saturating_sub(j + 1);
                        let literal_only =
                            inner == 1 && matches!(self.kind(j + 1), Some(TokKind::Int));
                        if !literal_only {
                            events.push(Event::Index {
                                pos: self.start(j),
                                guarded: in_guard,
                            });
                        }
                        // do NOT skip the group: index expressions nest
                        // calls (`slots[pick(x)]`) we still want to see
                    }
                }
                _ if self.is_ident(j) => {
                    let prev = if j > 0 { self.text(j - 1) } else { "" };
                    let next = self.text(j + 1);
                    if KEYWORDS_NOT_CALLS.contains(&t) && t != "self" && t != "Self" {
                        j += 1;
                        continue;
                    }
                    if prev == "." && next == "(" {
                        let recv = if j >= 2 && self.is_ident(j - 2) {
                            Recv::Simple(self.text(j - 2).to_string())
                        } else {
                            Recv::Complex
                        };
                        events.push(Event::Method {
                            recv,
                            name: t.to_string(),
                            pos: self.start(j),
                            guarded: in_guard,
                            depth,
                            let_ident: pending_let
                                .as_ref()
                                .filter(|&&(_, d)| d == depth)
                                .map(|(n, _)| n.clone()),
                            chained: self.text(self.skip_group(j + 1)) == ".",
                        });
                    } else if next == "!" && matches!(self.text(j + 2), "(" | "[" | "{") {
                        events.push(Event::MacroUse {
                            name: t.to_string(),
                            pos: self.start(j),
                            guarded: in_guard,
                        });
                        // skip the macro bang so `!(` isn't re-scanned,
                        // but keep scanning the macro body (panic!,
                        // format! args contain calls we care about)
                        j += 2;
                        continue;
                    } else if next == "(" && prev != "fn" && !KEYWORDS_NOT_CALLS.contains(&t) {
                        // path call: walk `::`-joined segments backward
                        let mut segs = vec![t.to_string()];
                        let mut k = j;
                        while k >= 2 && self.text(k - 1) == "::" && self.is_ident(k - 2) {
                            segs.insert(0, self.text(k - 2).to_string());
                            k -= 2;
                        }
                        // `Struct { .. }`-style and tuple-variant heads are
                        // capitalised too, but calls and constructors are
                        // indistinguishable here; resolution sorts it out.
                        if segs.last().map(String::as_str) == Some("catch_unwind") {
                            let close = self.skip_group(j + 1);
                            guards
                                .push((self.end_byte(j + 1), self.start(close.saturating_sub(1))));
                        }
                        if segs.last().map(String::as_str) == Some("drop")
                            && self.is_ident(j + 2)
                            && self.text(j + 3) == ")"
                        {
                            events.push(Event::Drop {
                                ident: self.text(j + 2).to_string(),
                            });
                        }
                        events.push(Event::Call {
                            path: segs,
                            pos: self.start(j),
                            guarded: in_guard,
                            depth,
                            let_ident: pending_let
                                .as_ref()
                                .filter(|&&(_, d)| d == depth)
                                .map(|(n, _)| n.clone()),
                            chained: self.text(self.skip_group(j + 1)) == ".",
                        });
                    }
                }
                _ => {}
            }
            j += 1;
        }
        events
    }
}
