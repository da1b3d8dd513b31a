//! # aq-analyze — the workspace lint engine
//!
//! The reproduced paper's thesis is that correctness must not depend on
//! tolerance-dependent luck; this crate applies the same stance to the
//! codebase itself. Instead of trusting convention — "library crates never
//! panic", "hot paths use direct-mapped caches" — `aq-lint` walks every workspace source file
//! with a hand-rolled Rust lexer and enforces those invariants as rules
//! with structured findings (`file:line:col`, rule ID, severity).
//!
//! Std-only, like the rest of the workspace: the lexer ([`lexer`])
//! understands nested block comments, raw strings, byte strings,
//! lifetimes vs. char literals and raw identifiers, so rules operate on
//! real tokens, never on grep-able text. Scoping (which rule applies to
//! which path) lives in [`rules::LintConfig`]; legacy violations are
//! tracked in a committed `lint-baseline.toml` ([`baseline`]) so new
//! violations fail CI while old ones are paid down deliberately.
//!
//! v2 adds a semantic layer on top of the token rules: a coarse
//! recursive-descent [`parser`] produces per-file item trees, [`resolve`]
//! builds a best-effort workspace symbol index, [`callgraph`] turns the
//! two into a call graph, and [`semantic`] runs two whole-workspace
//! passes over it — R8 panic-reachability from serve entry roots and R9
//! static lock-order extraction (with a DOT graph diffable against the
//! runtime `lockaudit` graph).
//!
//! Run it as:
//!
//! ```text
//! cargo run -p aq-analyze --bin aq-lint -- --deny --baseline=lint-baseline.toml
//! ```
//!
//! Exit codes: `0` clean (or advisory mode), `1` findings at deny level
//! under `--deny`, `2` internal error (unreadable file, malformed
//! baseline) — CI distinguishes a lint failure from a broken linter.

#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]
#![warn(missing_docs)]

pub mod baseline;
pub mod callgraph;
pub mod engine;
pub mod lexer;
pub mod parser;
pub mod resolve;
pub mod rules;
pub mod semantic;

pub use baseline::{Baseline, SuppressEntry};
pub use callgraph::{snapshot, snapshot_sources, CallGraph};
pub use engine::{
    discover_sources, lint_source, run_sources, run_workspace, InternalError, Report, RunStats,
};
pub use lexer::{lex, LineIndex, TokKind, Token};
pub use parser::{parse, ParsedFile};
pub use resolve::{FnId, Workspace};
pub use rules::{check_file, FileAnalysis, Finding, LintConfig, RuleId, Severity, REGISTRY};
pub use semantic::{LockDiff, LockEdge, LockGraph, SemanticReport};
