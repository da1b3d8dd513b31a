//! The workspace runner: file discovery, rule execution, the semantic
//! passes, baseline application and the structured report.
//!
//! Token-local rules (R1–R7, A0) run per file; the semantic passes
//! (R8–R9) need every file at once — so the runner loads the whole
//! workspace into memory, analyses each file, hands the full slice to
//! [`crate::semantic::analyze`], then applies the baseline to the merged
//! finding stream.

use std::fs;
use std::path::{Path, PathBuf};
use std::time::Instant;

use crate::baseline::Baseline;
use crate::rules::{check_file, FileAnalysis, Finding, LintConfig, Severity};
use crate::semantic::{self, LockGraph};

/// Why a run could not produce a report at all. Distinct from findings:
/// the CLI maps this to exit code 2, findings at deny level to exit 1.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InternalError {
    /// Filesystem access failed.
    Io {
        /// Path involved.
        path: String,
        /// The underlying error, stringified.
        detail: String,
    },
    /// The baseline file is malformed.
    Baseline(String),
}

impl std::fmt::Display for InternalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InternalError::Io { path, detail } => write!(f, "io error on {path}: {detail}"),
            InternalError::Baseline(e) => write!(f, "malformed baseline: {e}"),
        }
    }
}

/// Analyzer throughput counters for the `--stats` line.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunStats {
    /// Files scanned.
    pub files: usize,
    /// Functions parsed across the workspace.
    pub items: usize,
    /// Resolved call-graph edges.
    pub call_edges: usize,
    /// Wall-clock time of the whole run, in milliseconds.
    pub wall_ms: u128,
}

/// The outcome of one lint run.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Unsuppressed findings, sorted by file, line, column.
    pub findings: Vec<Finding>,
    /// Files scanned.
    pub files_scanned: usize,
    /// Findings suppressed by inline `aq-lint: allow` directives — these
    /// never reach the report (counted inside the rules), so this counts
    /// only baseline suppressions for transparency.
    pub baseline_suppressed: usize,
    /// Baseline entries that matched nothing (pay-down candidates).
    pub stale_baseline: Vec<String>,
    /// Throughput counters.
    pub stats: RunStats,
    /// The static lock-order graph R9 extracted (for `--lock-dot` and
    /// the serve runtime-diff test).
    pub lock_graph: LockGraph,
}

impl Report {
    /// Whether any finding is at deny level.
    pub fn has_deny(&self) -> bool {
        self.findings.iter().any(|f| f.severity == Severity::Deny)
    }
}

/// Directories never descended into.
const SKIP_DIRS: &[&str] = &["target", ".git", ".claude", "node_modules"];

/// Recursively collects every `.rs` file under `root`, returning
/// workspace-relative forward-slash paths in deterministic order.
///
/// # Errors
///
/// [`InternalError::Io`] if a directory cannot be read.
pub fn discover_sources(root: &Path) -> Result<Vec<PathBuf>, InternalError> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let entries = fs::read_dir(&dir).map_err(|e| InternalError::Io {
            path: dir.display().to_string(),
            detail: e.to_string(),
        })?;
        for entry in entries {
            let entry = entry.map_err(|e| InternalError::Io {
                path: dir.display().to_string(),
                detail: e.to_string(),
            })?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if !SKIP_DIRS.contains(&name.as_ref()) && !name.starts_with('.') {
                    stack.push(path);
                }
            } else if name.ends_with(".rs") {
                out.push(path);
            }
        }
    }
    out.sort();
    Ok(out)
}

/// Turns an absolute path into the workspace-relative forward-slash form
/// rules and baselines use.
pub fn relative_path(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

/// Runs the full lint pass over the workspace at `root`.
///
/// # Errors
///
/// [`InternalError`] when files cannot be read — never for findings.
pub fn run_workspace(
    root: &Path,
    cfg: &LintConfig,
    baseline: Option<&Baseline>,
) -> Result<Report, InternalError> {
    let files = discover_sources(root)?;
    let mut sources: Vec<(String, String)> = Vec::with_capacity(files.len());
    for path in files {
        let rel = relative_path(root, &path);
        let src = fs::read_to_string(&path).map_err(|e| InternalError::Io {
            path: rel.clone(),
            detail: e.to_string(),
        })?;
        sources.push((rel, src));
    }
    Ok(run_sources(&sources, cfg, baseline))
}

/// Runs the full lint pass — token-local rules plus the R8–R9 semantic
/// passes — over an in-memory workspace. Fixture tests and the serve
/// lock-diff test use this directly.
pub fn run_sources(
    sources: &[(String, String)],
    cfg: &LintConfig,
    baseline: Option<&Baseline>,
) -> Report {
    let started = Instant::now();
    let analyses: Vec<FileAnalysis<'_>> = sources
        .iter()
        .map(|(rel, src)| FileAnalysis::new(rel, src))
        .collect();

    let mut all: Vec<Finding> = Vec::new();
    for fa in &analyses {
        all.extend(check_file(fa, cfg));
    }
    let sem = semantic::analyze(&analyses, cfg);
    all.extend(sem.findings);

    let mut report = Report {
        files_scanned: analyses.len(),
        stats: RunStats {
            files: analyses.len(),
            items: sem.items,
            call_edges: sem.call_edges,
            wall_ms: 0,
        },
        lock_graph: sem.lock_graph,
        ..Report::default()
    };

    let mut matched = vec![0usize; baseline.map(|b| b.entries.len()).unwrap_or(0)];
    for finding in all {
        let line_text = analyses
            .iter()
            .find(|fa| fa.rel == finding.file)
            .map(|fa| fa.lines.line_text(fa.src, finding.line))
            .unwrap_or("");
        let suppressed = baseline.map(|b| {
            let mut hit = false;
            for (i, e) in b.entries.iter().enumerate() {
                if e.matches(&finding, line_text) {
                    matched[i] += 1;
                    hit = true;
                }
            }
            hit
        });
        if suppressed == Some(true) {
            report.baseline_suppressed += 1;
        } else {
            report.findings.push(finding);
        }
    }
    if let Some(b) = baseline {
        for (i, e) in b.entries.iter().enumerate() {
            if matched[i] == 0 {
                report.stale_baseline.push(format!(
                    "stale baseline entry (line {}): {} in {} — remove it",
                    e.defined_at,
                    e.rule.code(),
                    e.file
                ));
            }
        }
    }
    report
        .findings
        .sort_by(|a, b| (&a.file, a.line, a.col).cmp(&(&b.file, b.line, b.col)));
    report.stats.wall_ms = started.elapsed().as_millis();
    report
}

/// Convenience: lints a single in-memory file with the token-local rules
/// only (fixture tests use this).
pub fn lint_source(rel: &str, src: &str, cfg: &LintConfig) -> Vec<Finding> {
    check_file(&FileAnalysis::new(rel, src), cfg)
}
