//! The rule engine: file analysis (test-region detection, suppression
//! directives) plus the domain-specific rule families.
//!
//! | Rule | Guards                                                          |
//! |------|-----------------------------------------------------------------|
//! | R1   | no `unwrap`/`expect`/`panic!`/`todo!`/`unimplemented!` in non-test library code |
//! | R3   | no unbounded `HashMap`/`BTreeMap` caches in hot-path modules     |
//! | R4   | no bare `as` narrowing casts in snapshot / wire-protocol code    |
//! | R5   | no direct `f64` `==`/`!=` against float literals outside the epsilon module |
//! | R6   | no bare `thread::sleep` in serve code outside the backoff module |
//! | R7   | no unseeded randomness (`thread_rng`/`from_entropy`/`OsRng`/…) in sim/serve code |
//! | R8   | no panic source reachable from a serve entry root outside `catch_unwind` |
//! | R9   | static lock acquisition order must form a DAG                    |
//! | A0   | suppression directives must carry a justification                |
//!
//! R2 is retired: the engine API is fallible-only, so no infallible twins
//! are left to keep in sync. R10 is retired: `aq_serve::protocol` is the
//! one wire codec, its render/parse round trip is a property test, and
//! request keys are spelled once, so no second side is left to drift.
//! Retired codes stay unused so the others keep theirs.
//!
//! R1, R3–R7 and A0 are token-local; R8–R9 are the whole-workspace
//! semantic passes (see `semantic.rs`), built on the parser / resolver /
//! call graph. Every rule lives in [`REGISTRY`] — `--list-rules`, code
//! parsing, and the fixture suite all derive from that one table.
//!
//! Suppression is explicit and justified: either an inline
//! `// aq-lint: allow(R1): <reason>` on the offending line (or the line
//! above), or a per-entry-commented block in `lint-baseline.toml`.

use crate::lexer::{lex, LineIndex, TokKind, Token};

/// Identifies a rule family.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RuleId {
    /// No panic-family calls in non-test library code.
    NoPanicPath,
    /// No unbounded map caches in hot-path modules.
    UnboundedCache,
    /// No bare narrowing `as` casts in snapshot / wire code.
    NarrowingCast,
    /// No direct float-literal `==`/`!=` outside the epsilon module.
    FloatEq,
    /// No bare `thread::sleep` in serve code outside the backoff module.
    BareSleep,
    /// No unseeded randomness in sim/serve code — sampling and backoff
    /// must stay reproducible from an explicit seed.
    UnseededRandom,
    /// No panic source (panic-family macro, `panic_any`, `.unwrap()`/
    /// `.expect()`, scoped indexing) reachable from a serve entry root
    /// outside `catch_unwind` — the call-graph pass behind `.unwrap()`'s
    /// token-local R1.
    PanicReach,
    /// The static held→acquired lock graph must stay acyclic.
    StaticLockOrder,
    /// Malformed suppression directive (missing justification).
    BadSuppression,
}

/// One row of the rule registry: the single source of truth for rule
/// codes and descriptions. `--list-rules`, `RuleId::from_code`, the
/// baseline parser's error text, and the fixture-directory test all
/// derive from this table, so they cannot drift apart.
#[derive(Debug, Clone, Copy)]
pub struct RuleInfo {
    /// The rule.
    pub rule: RuleId,
    /// Stable short code (`R1`…`R9`, `A0`).
    pub code: &'static str,
    /// One-line description.
    pub describe: &'static str,
}

/// Every rule the analyzer knows, in listing order.
pub const REGISTRY: &[RuleInfo] = &[
    RuleInfo {
        rule: RuleId::NoPanicPath,
        code: "R1",
        describe: "no unwrap()/expect()/panic!/todo!/unimplemented! in non-test library code",
    },
    RuleInfo {
        rule: RuleId::UnboundedCache,
        code: "R3",
        describe: "no unbounded HashMap/BTreeMap caches in hot-path modules (direct-mapped only)",
    },
    RuleInfo {
        rule: RuleId::NarrowingCast,
        code: "R4",
        describe:
            "no bare `as` narrowing casts in snapshot/wire code (use try_from or a checked helper)",
    },
    RuleInfo {
        rule: RuleId::FloatEq,
        code: "R5",
        describe: "no direct f64 ==/!= against float literals outside the epsilon module",
    },
    RuleInfo {
        rule: RuleId::BareSleep,
        code: "R6",
        describe:
            "no bare thread::sleep in serve code outside the backoff module (use backoff::sleep)",
    },
    RuleInfo {
        rule: RuleId::UnseededRandom,
        code: "R7",
        describe:
            "no unseeded randomness (thread_rng/from_entropy/OsRng/SeedableRng::from_os_rng) \
                   in sim/serve code; draw from an explicitly seeded generator",
    },
    RuleInfo {
        rule: RuleId::PanicReach,
        code: "R8",
        describe: "no panic source reachable from a serve entry root outside catch_unwind \
                   (call-graph pass; reports the full root → panic chain)",
    },
    RuleInfo {
        rule: RuleId::StaticLockOrder,
        code: "R9",
        describe: "static DebugMutex/DebugRwLock acquisition order must form a DAG \
                   (held-set propagation through the call graph)",
    },
    RuleInfo {
        rule: RuleId::BadSuppression,
        code: "A0",
        describe: "suppression directives must carry a justification",
    },
];

impl RuleId {
    /// Stable short code (`R1`…`R9`, `A0`), from the registry.
    pub fn code(&self) -> &'static str {
        REGISTRY
            .iter()
            .find(|r| r.rule == *self)
            .map(|r| r.code)
            .unwrap_or("??")
    }

    /// Parses a short code, from the registry.
    pub fn from_code(s: &str) -> Option<RuleId> {
        REGISTRY.iter().find(|r| r.code == s).map(|r| r.rule)
    }

    /// One-line description (for `--list-rules`), from the registry.
    pub fn describe(&self) -> &'static str {
        REGISTRY
            .iter()
            .find(|r| r.rule == *self)
            .map(|r| r.describe)
            .unwrap_or("")
    }
}

/// How severe a finding is. Every built-in rule reports at `Deny`; the
/// CLI's `--deny` flag decides whether deny-level findings fail the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Advisory.
    Warn,
    /// Fails the run under `--deny`.
    Deny,
}

impl Severity {
    /// Stable lowercase name.
    pub fn as_str(&self) -> &'static str {
        match self {
            Severity::Warn => "warn",
            Severity::Deny => "deny",
        }
    }
}

/// One structured finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// The violated rule.
    pub rule: RuleId,
    /// Severity.
    pub severity: Severity,
    /// Workspace-relative path (forward slashes).
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// 1-based byte column.
    pub col: usize,
    /// What is wrong and what to do instead.
    pub message: String,
}

impl Finding {
    /// `file:line:col: RULE severity: message` — the grep-able report line.
    pub fn render(&self) -> String {
        format!(
            "{}:{}:{}: {} {}: {}",
            self.file,
            self.line,
            self.col,
            self.rule.code(),
            self.severity.as_str(),
            self.message
        )
    }
}

/// Scoping configuration for one workspace.
#[derive(Debug, Clone)]
pub struct LintConfig {
    /// Path prefixes R1 skips entirely, each with a committed justification.
    pub r1_allow_prefixes: Vec<(String, String)>,
    /// Hot-path files R3 applies to.
    pub r3_hot_files: Vec<String>,
    /// Snapshot / wire-protocol files R4 applies to.
    pub r4_wire_files: Vec<String>,
    /// Files exempt from R5 (the epsilon module itself).
    pub r5_exempt_files: Vec<String>,
    /// Directory prefixes R6 applies to (the serving stack, `src/bin/`
    /// entry points included — CLI retry loops must not busy-sleep
    /// either).
    pub r6_scope: Vec<String>,
    /// Files exempt from R6 (the backoff module: the one sanctioned
    /// `thread::sleep` call site).
    pub r6_exempt_files: Vec<String>,
    /// Directory prefixes R7 applies to: code whose randomness must be
    /// reproducible from an explicit seed (the sampler and the serving
    /// stack, `src/bin/` entry points included).
    pub r7_scope: Vec<String>,
    /// R8 entry roots: qualified (`ServeCore::handle`) or bare
    /// (`worker_loop`) function names panic-reachability starts from.
    /// Empty disables the pass.
    pub r8_roots: Vec<String>,
    /// Path prefixes whose index expressions count as R8 panic sources
    /// (the serving stack, where a stray `[i]` can kill a worker).
    pub r8_index_prefixes: Vec<String>,
    /// Files whose lock-method calls R9 ignores (the lock wrappers
    /// themselves: their internal `.lock()`s are the instrumentation,
    /// not acquisition sites).
    pub r9_exempt_files: Vec<String>,
}

impl Default for LintConfig {
    fn default() -> Self {
        LintConfig::for_workspace()
    }
}

impl LintConfig {
    /// The aqudd workspace policy.
    pub fn for_workspace() -> LintConfig {
        LintConfig {
            r1_allow_prefixes: vec![
                (
                    "crates/testutil/".into(),
                    "test harness crate: panicking assertions are its job".into(),
                ),
                (
                    "crates/bench/".into(),
                    "operator-driven figure/bench harness, not served library code".into(),
                ),
            ],
            r3_hot_files: vec![
                "crates/core/src/manager.rs".into(),
                "crates/core/src/cache.rs".into(),
                "crates/core/src/unique.rs".into(),
                "crates/core/src/ops.rs".into(),
                "crates/core/src/weight.rs".into(),
                "crates/core/src/numeric.rs".into(),
                "crates/core/src/algebraic.rs".into(),
                "crates/core/src/gates.rs".into(),
                "crates/core/src/wops.rs".into(),
            ],
            r4_wire_files: vec![
                "crates/core/src/snapshot.rs".into(),
                "crates/sim/src/checkpoint.rs".into(),
                "crates/serve/src/protocol.rs".into(),
                "crates/serve/src/json.rs".into(),
                "crates/serve/src/server.rs".into(),
            ],
            r5_exempt_files: vec!["crates/rings/src/complex.rs".into()],
            r6_scope: vec!["crates/serve/src/".into()],
            r6_exempt_files: vec!["crates/serve/src/backoff.rs".into()],
            r7_scope: vec!["crates/sim/src/".into(), "crates/serve/src/".into()],
            r8_roots: vec![
                "ServeCore::handle".into(),
                "ServeCore::supervise".into(),
                "ServeCore::poll_wait".into(),
                "ServeCore::begin_drain".into(),
                "ServeCore::try_drain".into(),
                "ServeCore::begin_shutdown".into(),
                "ServeCore::try_complete_shutdown".into(),
                "Server::run".into(),
                "worker_loop".into(),
                "run_job".into(),
            ],
            r8_index_prefixes: vec!["crates/serve/src/".into()],
            r9_exempt_files: vec!["crates/serve/src/lockaudit.rs".into()],
        }
    }

    /// Whether `rel` is test-or-tooling code exempt from library rules:
    /// integration tests, benches, examples, and `src/bin/` entry points.
    pub fn is_non_library_path(rel: &str) -> bool {
        let parts: Vec<&str> = rel.split('/').collect();
        parts.iter().any(|p| {
            matches!(*p, "tests" | "benches" | "examples") || (*p == "bin" && rel.contains("/src/"))
        })
    }
}

/// An inline suppression directive parsed from a comment.
#[derive(Debug, Clone)]
struct Allow {
    line: usize,
    rules: Vec<RuleId>,
    has_reason: bool,
}

/// A lexed file plus everything the rules need to scope themselves.
#[derive(Debug)]
pub struct FileAnalysis<'a> {
    /// Workspace-relative path, forward slashes.
    pub rel: &'a str,
    /// Source text.
    pub src: &'a str,
    /// All tokens (comments included).
    pub tokens: Vec<Token>,
    /// Indices into `tokens` of non-comment tokens.
    pub code: Vec<usize>,
    /// Byte spans of `#[cfg(test)]`-gated items and `#[test]` functions.
    pub test_spans: Vec<(usize, usize)>,
    /// Line index for reporting.
    pub lines: LineIndex,
    allows: Vec<Allow>,
}

impl<'a> FileAnalysis<'a> {
    /// Lexes and pre-analyses one file.
    pub fn new(rel: &'a str, src: &'a str) -> FileAnalysis<'a> {
        let tokens = lex(src);
        let code: Vec<usize> = (0..tokens.len())
            .filter(|&i| !tokens[i].is_comment())
            .collect();
        let lines = LineIndex::new(src);
        let mut fa = FileAnalysis {
            rel,
            src,
            tokens,
            code,
            test_spans: Vec::new(),
            lines,
            allows: Vec::new(),
        };
        fa.find_test_spans();
        fa.find_allows();
        fa
    }

    fn code_tok(&self, ci: usize) -> Option<&Token> {
        self.code.get(ci).map(|&i| &self.tokens[i])
    }

    fn code_text(&self, ci: usize) -> &str {
        self.code_tok(ci).map(|t| t.text(self.src)).unwrap_or("")
    }

    /// Detects items gated behind `#[cfg(test)]` (or annotated `#[test]`)
    /// and records their byte spans, attribute included.
    fn find_test_spans(&mut self) {
        let mut spans = Vec::new();
        let mut ci = 0;
        while ci < self.code.len() {
            if self.code_text(ci) == "#" && self.code_text(ci + 1) == "[" {
                let attr_start = self.code_tok(ci).map(|t| t.start).unwrap_or(0);
                // `#[cfg_attr(test, …)]` conditionally *adds an attribute*;
                // the item itself still compiles in non-test builds, so it
                // is not a test gate.
                let is_cfg_attr = self.code_text(ci + 2) == "cfg_attr";
                // find the matching `]`, tracking bracket depth
                let mut j = ci + 1;
                let mut depth = 0usize;
                let mut is_test = false;
                let mut prev2: [&str; 2] = ["", ""];
                while let Some(t) = self.code_tok(j) {
                    let text = t.text(self.src);
                    match text {
                        "[" => depth += 1,
                        "]" => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                    if t.kind == TokKind::Ident
                        && text == "test"
                        && !(prev2[0] == "not" && prev2[1] == "(")
                    {
                        is_test = true;
                    }
                    prev2 = [prev2[1], text];
                    j += 1;
                }
                if is_test && !is_cfg_attr {
                    // skip any further attributes, then span the item
                    let mut k = j + 1;
                    while self.code_text(k) == "#" && self.code_text(k + 1) == "[" {
                        let mut d = 0usize;
                        let mut m = k + 1;
                        while let Some(t) = self.code_tok(m) {
                            match t.text(self.src) {
                                "[" => d += 1,
                                "]" => {
                                    d -= 1;
                                    if d == 0 {
                                        break;
                                    }
                                }
                                _ => {}
                            }
                            m += 1;
                        }
                        k = m + 1;
                    }
                    if let Some(end) = self.item_end(k) {
                        spans.push((attr_start, end));
                        // continue scanning after the item
                        while ci < self.code.len()
                            && self.code_tok(ci).map(|t| t.end).unwrap_or(usize::MAX) <= end
                        {
                            ci += 1;
                        }
                        continue;
                    }
                }
                ci = j + 1;
                continue;
            }
            ci += 1;
        }
        self.test_spans = spans;
    }

    /// Byte offset one past the end of the item starting at code index
    /// `ci`: either the matching `}` of its first brace block, or the
    /// first top-level `;`.
    fn item_end(&self, ci: usize) -> Option<usize> {
        let mut j = ci;
        let mut paren = 0isize;
        while let Some(t) = self.code_tok(j) {
            match t.text(self.src) {
                "(" | "[" => paren += 1,
                ")" | "]" => paren -= 1,
                ";" if paren == 0 => return Some(t.end),
                "{" if paren == 0 => {
                    let mut depth = 0usize;
                    let mut k = j;
                    while let Some(b) = self.code_tok(k) {
                        match b.text(self.src) {
                            "{" => depth += 1,
                            "}" => {
                                depth -= 1;
                                if depth == 0 {
                                    return Some(b.end);
                                }
                            }
                            _ => {}
                        }
                        k += 1;
                    }
                    return Some(self.src.len());
                }
                _ => {}
            }
            j += 1;
        }
        None
    }

    /// Parses `aq-lint: allow(R1, R4): reason` directives out of comments.
    fn find_allows(&mut self) {
        let mut allows = Vec::new();
        for t in self.tokens.iter().filter(|t| t.is_comment()) {
            let text = t.text(self.src);
            let Some(at) = text.find("aq-lint:") else {
                continue;
            };
            let rest = &text[at + "aq-lint:".len()..];
            let rest = rest.trim_start();
            let Some(inner) = rest.strip_prefix("allow(") else {
                continue;
            };
            let Some(close) = inner.find(')') else {
                continue;
            };
            let rules: Vec<RuleId> = inner[..close]
                .split(',')
                .filter_map(|s| RuleId::from_code(s.trim()))
                .collect();
            let after = inner[close + 1..].trim_start();
            let reason = after.strip_prefix(':').map(str::trim).unwrap_or("");
            allows.push(Allow {
                line: self.lines.line(t.start),
                rules,
                has_reason: reason.len() >= 8,
            });
        }
        self.allows = allows;
    }

    /// Whether byte offset `pos` lies inside test-gated code.
    pub fn in_test_code(&self, pos: usize) -> bool {
        self.test_spans.iter().any(|&(s, e)| pos >= s && pos < e)
    }

    /// Whether `rule` is suppressed at `line` by an inline directive on
    /// the same line or the line directly above.
    pub fn allowed(&self, rule: RuleId, line: usize) -> bool {
        self.allows.iter().any(|a| {
            a.has_reason && a.rules.contains(&rule) && (a.line == line || a.line + 1 == line)
        })
    }

    fn finding(&self, rule: RuleId, pos: usize, message: String, out: &mut Vec<Finding>) {
        let (line, col) = self.lines.line_col(pos);
        if self.allowed(rule, line) {
            return;
        }
        out.push(Finding {
            rule,
            severity: Severity::Deny,
            file: self.rel.to_string(),
            line,
            col,
            message,
        });
    }
}

/// Runs every applicable rule over one analysed file.
pub fn check_file(fa: &FileAnalysis<'_>, cfg: &LintConfig) -> Vec<Finding> {
    let mut out = Vec::new();
    check_suppressions(fa, &mut out);
    let non_library = LintConfig::is_non_library_path(fa.rel);
    if !non_library {
        let r1_allowed = cfg
            .r1_allow_prefixes
            .iter()
            .any(|(p, _)| fa.rel.starts_with(p.as_str()));
        if !r1_allowed {
            check_no_panic(fa, &mut out);
        }
        if cfg.r3_hot_files.iter().any(|f| f == fa.rel) {
            check_caches(fa, &mut out);
        }
        if cfg.r4_wire_files.iter().any(|f| f == fa.rel) {
            check_narrowing(fa, &mut out);
        }
        if !cfg.r5_exempt_files.iter().any(|f| f == fa.rel) {
            check_float_eq(fa, &mut out);
        }
    }
    // R6 deliberately runs outside the non-library gate: `src/bin/`
    // entry points (aq-cli's retry loop) must route their waiting
    // through the backoff module too.
    if cfg.r6_scope.iter().any(|p| fa.rel.starts_with(p.as_str()))
        && !cfg.r6_exempt_files.iter().any(|f| f == fa.rel)
    {
        check_bare_sleep(fa, &mut out);
    }
    // R7 likewise covers `src/bin/` entry points: an aq-cli or aq-served
    // that seeds itself from the OS breaks shot reproducibility end to end.
    if cfg.r7_scope.iter().any(|p| fa.rel.starts_with(p.as_str())) {
        check_unseeded_random(fa, &mut out);
    }
    out.sort_by_key(|f| (f.line, f.col, f.rule));
    out
}

/// A0: every `aq-lint:` directive needs a substantive justification.
fn check_suppressions(fa: &FileAnalysis<'_>, out: &mut Vec<Finding>) {
    for a in &fa.allows {
        if !a.has_reason || a.rules.is_empty() {
            let pos = fa
                .lines
                .line_text(fa.src, a.line)
                .find("aq-lint")
                .unwrap_or(0);
            let start = if a.line > 0 {
                // reconstruct a byte offset on that line for reporting
                fa.src
                    .split_inclusive('\n')
                    .take(a.line - 1)
                    .map(str::len)
                    .sum::<usize>()
                    + pos
            } else {
                0
            };
            let (line, col) = fa.lines.line_col(start);
            out.push(Finding {
                rule: RuleId::BadSuppression,
                severity: Severity::Deny,
                file: fa.rel.to_string(),
                line,
                col,
                message: "suppression directive must name known rules and carry a justification: \
                          `// aq-lint: allow(R1): <why this is sound>`"
                    .to_string(),
            });
        }
    }
}

const R1_MACROS: &[&str] = &["panic", "todo", "unimplemented"];

/// R1: panic-family calls in non-test library code.
fn check_no_panic(fa: &FileAnalysis<'_>, out: &mut Vec<Finding>) {
    for ci in 0..fa.code.len() {
        let Some(tok) = fa.code_tok(ci) else {
            continue;
        };
        if tok.kind != TokKind::Ident || fa.in_test_code(tok.start) {
            continue;
        }
        let text = tok.text(fa.src);
        let next = fa.code_text(ci + 1);
        if (text == "unwrap" || text == "expect") && next == "(" {
            let prev = if ci > 0 { fa.code_text(ci - 1) } else { "" };
            if prev != "." {
                continue; // a definition or a free fn, not a call on a Result/Option
            }
            fa.finding(
                RuleId::NoPanicPath,
                tok.start,
                format!(
                    "`.{text}()` in non-test library code; propagate a structured error \
                     (EngineError/SimError) or use the try_* API"
                ),
                out,
            );
        } else if R1_MACROS.contains(&text) && next == "!" {
            fa.finding(
                RuleId::NoPanicPath,
                tok.start,
                format!("`{text}!` in non-test library code; return a structured error instead"),
                out,
            );
        }
    }
}

const MAP_TYPES: &[&str] = &["HashMap", "BTreeMap", "FxHashMap"];
const CACHE_HINTS: &[&str] = &["cache", "memo", "lut", "lookup"];

/// R3: a field or binding whose name smells like a cache must not be an
/// unbounded map in a hot-path module.
fn check_caches(fa: &FileAnalysis<'_>, out: &mut Vec<Finding>) {
    for ci in 0..fa.code.len() {
        let Some(tok) = fa.code_tok(ci) else {
            continue;
        };
        if tok.kind != TokKind::Ident
            || !MAP_TYPES.contains(&tok.text(fa.src))
            || fa.in_test_code(tok.start)
        {
            continue;
        }
        // look back a few tokens for `cacheish_name :` or `cacheish_name =`
        let mut cacheish: Option<&str> = None;
        for back in 1..=8 {
            if back > ci {
                break;
            }
            let Some(t) = fa.code_tok(ci - back) else {
                break;
            };
            let text = t.text(fa.src);
            if t.kind == TokKind::Ident {
                let lower = text.to_ascii_lowercase();
                if CACHE_HINTS.iter().any(|h| lower.contains(h)) {
                    let sep = fa.code_text(ci - back + 1);
                    if sep == ":" || sep == "=" {
                        cacheish = Some(text);
                        break;
                    }
                }
            }
            if matches!(text, ";" | "{" | "}" | ",") {
                break; // statement / field boundary
            }
        }
        if let Some(name) = cacheish {
            fa.finding(
                RuleId::UnboundedCache,
                tok.start,
                format!(
                    "`{name}` is an unbounded {} used as a cache in a hot-path module; \
                     use a direct-mapped bounded cache (see crates/core/src/cache.rs)",
                    tok.text(fa.src)
                ),
                out,
            );
        }
    }
}

const NARROW_TARGETS: &[&str] = &["u8", "u16", "u32", "i8", "i16", "i32", "usize", "isize"];

/// R4: bare `as` casts to narrower integer types in wire/snapshot code.
fn check_narrowing(fa: &FileAnalysis<'_>, out: &mut Vec<Finding>) {
    for ci in 0..fa.code.len() {
        let Some(tok) = fa.code_tok(ci) else {
            continue;
        };
        if tok.kind != TokKind::Ident || tok.text(fa.src) != "as" || fa.in_test_code(tok.start) {
            continue;
        }
        let target = fa.code_text(ci + 1);
        if NARROW_TARGETS.contains(&target) {
            fa.finding(
                RuleId::NarrowingCast,
                tok.start,
                format!(
                    "bare `as {target}` narrowing cast in wire/snapshot code; corrupted or \
                     hostile input must fail structurally — use `{target}::try_from` or a \
                     checked helper"
                ),
                out,
            );
        }
    }
}

/// R6: bare `thread::sleep` in serve code. Ad-hoc sleeps hide latency
/// from the supervisor, stall shutdown, and are invisible to the
/// lock-order audit; all timed waiting goes through `backoff::sleep` (a
/// marked blocking op) or a deadline-bearing condvar wait.
fn check_bare_sleep(fa: &FileAnalysis<'_>, out: &mut Vec<Finding>) {
    for ci in 0..fa.code.len() {
        let Some(tok) = fa.code_tok(ci) else {
            continue;
        };
        if tok.kind != TokKind::Ident || tok.text(fa.src) != "sleep" || fa.in_test_code(tok.start) {
            continue;
        }
        let prev = if ci > 0 { fa.code_text(ci - 1) } else { "" };
        let prev2 = if ci > 1 { fa.code_text(ci - 2) } else { "" };
        if prev == "::" && prev2 == "thread" {
            fa.finding(
                RuleId::BareSleep,
                tok.start,
                "bare `thread::sleep` in serve code; wait through `backoff::sleep` (a marked \
                 blocking op the lock audit and supervisor can account for) or a \
                 deadline-bearing condvar wait"
                    .to_string(),
                out,
            );
        }
    }
}

/// Entropy-drawing constructors: every way the `rand`/`getrandom`
/// ecosystem (or std's `RandomState` hasher trick) mints an OS-seeded
/// generator. None of them can replay a shot stream.
const UNSEEDED_RNG: &[&str] = &[
    "thread_rng",
    "from_entropy",
    "from_os_rng",
    "OsRng",
    "getrandom",
    "RandomState",
];

/// R7: unseeded randomness in sim/serve code. The sampler's whole
/// contract is `(circuit, scheme, shots, seed) -> histogram`, bit-stable
/// across runs and hosts; the serve result cache and the chaos suites
/// both rely on it. A single `thread_rng()` (or an OS-entropy seed)
/// anywhere in those paths silently voids that contract, so every
/// generator must be constructed from an explicit seed (`seed_from_u64`,
/// a splitmix on the job seed, …).
fn check_unseeded_random(fa: &FileAnalysis<'_>, out: &mut Vec<Finding>) {
    for ci in 0..fa.code.len() {
        let Some(tok) = fa.code_tok(ci) else {
            continue;
        };
        if tok.kind != TokKind::Ident || fa.in_test_code(tok.start) {
            continue;
        }
        let text = tok.text(fa.src);
        if UNSEEDED_RNG.contains(&text) {
            fa.finding(
                RuleId::UnseededRandom,
                tok.start,
                format!(
                    "`{text}` draws OS entropy in sim/serve code; sampling must be \
                     reproducible from the job's explicit seed — construct the generator \
                     with `seed_from_u64`/a seeded splitmix instead"
                ),
                out,
            );
        }
    }
}

/// R5: `==` / `!=` where one side is a float literal (or an f64 special
/// constant), outside the epsilon module.
fn check_float_eq(fa: &FileAnalysis<'_>, out: &mut Vec<Finding>) {
    for ci in 0..fa.code.len() {
        let Some(tok) = fa.code_tok(ci) else {
            continue;
        };
        let text = tok.text(fa.src);
        if tok.kind != TokKind::Punct
            || (text != "==" && text != "!=")
            || fa.in_test_code(tok.start)
        {
            continue;
        }
        let float_neighbor = |j: usize| -> bool {
            let Some(t) = fa.code_tok(j) else {
                return false;
            };
            if t.kind == TokKind::Float {
                return true;
            }
            // f64::NAN / f64::INFINITY style constants
            t.kind == TokKind::Ident
                && matches!(t.text(fa.src), "NAN" | "INFINITY" | "NEG_INFINITY")
        };
        // operand after: literal, or `- literal`; operand before: literal
        // at ci-1 (possibly behind a closing paren we don't chase).
        let after =
            float_neighbor(ci + 1) || (fa.code_text(ci + 1) == "-" && float_neighbor(ci + 2));
        let before = ci > 0 && float_neighbor(ci - 1);
        if after || before {
            fa.finding(
                RuleId::FloatEq,
                tok.start,
                format!(
                    "direct `{text}` against a float literal; tolerance-dependent behaviour \
                     belongs in the epsilon module (aq_rings::Tolerance) — compare through it \
                     or justify with an allow directive"
                ),
                out,
            );
        }
    }
}
