//! The whole-workspace semantic passes built on the parser, resolver and
//! call graph: R8 panic-reachability and R9 static lock-order extraction.
//!
//! Both are *best effort by construction* — resolution refuses
//! ambiguous names, so the analyses can miss edges — but every edge they
//! do report corresponds to a real syntactic site, and the serve test
//! suite cross-checks R9's static graph against the runtime `lockaudit`
//! graph to bound the gap from the other side.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use crate::callgraph::CallGraph;
use crate::lexer::TokKind;
use crate::parser::{parse, Event, ParsedFile, Recv};
use crate::resolve::{FnId, Workspace};
use crate::rules::{FileAnalysis, Finding, LintConfig, RuleId, Severity};

/// One static held→acquired edge with its earliest witness site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LockEdge {
    /// Lock held at the site.
    pub from: String,
    /// Lock acquired at the site.
    pub to: String,
    /// Workspace-relative file of the witness site.
    pub file: String,
    /// 1-based line of the witness site.
    pub line: usize,
    /// 1-based column of the witness site.
    pub col: usize,
}

/// The static lock-order graph R9 extracts.
#[derive(Debug, Clone, Default)]
pub struct LockGraph {
    /// Every named `DebugMutex`/`DebugRwLock` discovered, sorted.
    pub nodes: Vec<String>,
    /// Held→acquired edges, sorted by `(from, to)`.
    pub edges: Vec<LockEdge>,
}

/// The static-vs-runtime diff the serve suite asserts on.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LockDiff {
    /// Runtime edges the static graph misses — analyzer gaps; the serve
    /// superset test fails on any of these.
    pub missing_static: Vec<(String, String)>,
    /// Static edges no runtime run has exercised — test-coverage gaps,
    /// reported as warnings.
    pub unexercised: Vec<(String, String)>,
}

impl LockGraph {
    /// Graphviz rendering, same shape as `lockaudit::dot_graph()`.
    pub fn dot(&self) -> String {
        let mut out = String::from("digraph lock_order {\n");
        for n in &self.nodes {
            out.push_str(&format!("  \"{n}\";\n"));
        }
        for e in &self.edges {
            out.push_str(&format!("  \"{}\" -> \"{}\";\n", e.from, e.to));
        }
        out.push_str("}\n");
        out
    }

    /// Diffs against a runtime held→acquired edge list.
    pub fn diff(&self, runtime: &[(String, String)]) -> LockDiff {
        let stat: BTreeSet<(&str, &str)> = self
            .edges
            .iter()
            .map(|e| (e.from.as_str(), e.to.as_str()))
            .collect();
        let run: BTreeSet<(&str, &str)> = runtime
            .iter()
            .map(|(a, b)| (a.as_str(), b.as_str()))
            .collect();
        LockDiff {
            missing_static: run
                .difference(&stat)
                .map(|&(a, b)| (a.to_string(), b.to_string()))
                .collect(),
            unexercised: stat
                .difference(&run)
                .map(|&(a, b)| (a.to_string(), b.to_string()))
                .collect(),
        }
    }

    /// The first acquisition cycle in the graph, as a node path
    /// `a → b → … → a`, or `None` when the graph is a DAG.
    pub fn cycle(&self) -> Option<Vec<String>> {
        let mut adj: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
        for e in &self.edges {
            adj.entry(&e.from).or_default().push(&e.to);
        }
        // 0 = unvisited, 1 = on stack, 2 = done
        let mut color: BTreeMap<&str, u8> = BTreeMap::new();
        fn dfs<'a>(
            n: &'a str,
            adj: &BTreeMap<&'a str, Vec<&'a str>>,
            color: &mut BTreeMap<&'a str, u8>,
            stack: &mut Vec<&'a str>,
        ) -> Option<Vec<String>> {
            color.insert(n, 1);
            stack.push(n);
            for &m in adj.get(n).into_iter().flatten() {
                match color.get(m).copied().unwrap_or(0) {
                    1 => {
                        let start = stack.iter().position(|&s| s == m).unwrap_or(0);
                        let mut cyc: Vec<String> =
                            stack[start..].iter().map(|s| s.to_string()).collect();
                        cyc.push(m.to_string());
                        return Some(cyc);
                    }
                    0 => {
                        if let Some(c) = dfs(m, adj, color, stack) {
                            return Some(c);
                        }
                    }
                    _ => {}
                }
            }
            stack.pop();
            color.insert(n, 2);
            None
        }
        let nodes: Vec<&str> = adj.keys().copied().collect();
        for n in nodes {
            if color.get(n).copied().unwrap_or(0) == 0 {
                let mut stack = Vec::new();
                if let Some(c) = dfs(n, &adj, &mut color, &mut stack) {
                    return Some(c);
                }
            }
        }
        None
    }
}

/// The outcome of the semantic passes over one workspace.
#[derive(Debug, Default)]
pub struct SemanticReport {
    /// R8/R9 findings (allow directives already applied).
    pub findings: Vec<Finding>,
    /// Functions parsed across the workspace.
    pub items: usize,
    /// Resolved call-graph edges.
    pub call_edges: usize,
    /// The static lock-order graph (for DOT emission and the serve diff
    /// test).
    pub lock_graph: LockGraph,
}

/// Runs both semantic passes. `analyses` must hold one entry per
/// workspace file, in any order.
pub fn analyze(analyses: &[FileAnalysis<'_>], cfg: &LintConfig) -> SemanticReport {
    let parsed: Vec<ParsedFile> = analyses.iter().map(parse).collect();
    let ws = Workspace::build(&parsed);
    let graph = CallGraph::build(&ws);
    let mut report = SemanticReport {
        items: parsed.iter().map(|p| p.fns.len()).sum(),
        call_edges: graph.edges.len(),
        ..SemanticReport::default()
    };
    panic_reach(analyses, &ws, &graph, cfg, &mut report.findings);
    report.lock_graph = lock_order(analyses, &ws, &graph, cfg, &mut report.findings);
    report
}

fn push_finding(
    analyses: &[FileAnalysis<'_>],
    rel: &str,
    rule: RuleId,
    pos: usize,
    also_covered_by: Option<RuleId>,
    message: String,
    out: &mut Vec<Finding>,
) {
    let Some(fa) = analyses.iter().find(|a| a.rel == rel) else {
        return;
    };
    let (line, col) = fa.lines.line_col(pos);
    if fa.allowed(rule, line) {
        return;
    }
    if let Some(r) = also_covered_by {
        if fa.allowed(r, line) {
            return; // one justified allow covers both views of the site
        }
    }
    out.push(Finding {
        rule,
        severity: Severity::Deny,
        file: rel.to_string(),
        line,
        col,
        message,
    });
}

// ---------------------------------------------------------------- R8 --

const PANIC_MACROS: &[&str] = &["panic", "todo", "unimplemented"];

/// R8: from the configured entry roots, walk unguarded call edges and
/// report every reachable panic source (panic-family macro, `panic_any`,
/// `.unwrap()`/`.expect()`, and — in configured files — non-literal index
/// expressions) with its full call chain.
fn panic_reach(
    analyses: &[FileAnalysis<'_>],
    ws: &Workspace<'_>,
    graph: &CallGraph,
    cfg: &LintConfig,
    out: &mut Vec<Finding>,
) {
    if cfg.r8_roots.is_empty() {
        return;
    }
    let mut roots: Vec<FnId> = Vec::new();
    for (fi, file) in ws.files.iter().enumerate() {
        for (gi, f) in file.fns.iter().enumerate() {
            if f.is_test {
                continue;
            }
            let q = f.qname();
            if cfg.r8_roots.iter().any(|r| *r == q || *r == f.name) {
                roots.push((fi, gi));
            }
        }
    }
    let parent = graph.reach_unguarded(&roots);
    let mut reached: Vec<FnId> = parent.keys().copied().collect();
    reached.sort();
    for id in reached {
        let f = ws.fn_def(id);
        let rel = ws.rel_of(id);
        let index_scoped = cfg
            .r8_index_prefixes
            .iter()
            .any(|p| rel.starts_with(p.as_str()));
        for ev in &f.body {
            let (what, pos) = match ev {
                Event::MacroUse {
                    name,
                    pos,
                    guarded: false,
                } if PANIC_MACROS.contains(&name.as_str()) => (format!("`{name}!`"), *pos),
                Event::Call {
                    path,
                    pos,
                    guarded: false,
                    ..
                } if path.last().map(String::as_str) == Some("panic_any") => {
                    ("`panic_any`".to_string(), *pos)
                }
                Event::Method {
                    name,
                    pos,
                    guarded: false,
                    ..
                } if name == "unwrap" || name == "expect" => (format!("`.{name}()`"), *pos),
                Event::Index {
                    pos,
                    guarded: false,
                } if index_scoped => ("index expression".to_string(), *pos),
                _ => continue,
            };
            let chain = graph.chain(ws, &parent, id);
            let root = chain.first().cloned().unwrap_or_else(|| f.qname());
            push_finding(
                analyses,
                rel,
                RuleId::PanicReach,
                pos,
                Some(RuleId::NoPanicPath),
                format!(
                    "{what} reachable from entry root `{root}` outside catch_unwind \
                     (chain: {}); make the path fail-soft or justify with an allow directive",
                    chain.join(" → ")
                ),
                out,
            );
        }
    }
}

// ---------------------------------------------------------------- R9 --

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LockKind {
    Mutex,
    RwLock,
}

/// Scans one file's tokens for `DebugMutex::new("name", …)` /
/// `DebugRwLock::new("name", …)` bindings: `field: DebugMutex::new(…)`,
/// `let x = …`, `static X: … = …`. Test-code definitions are skipped so
/// fixture locks never pollute the workspace graph.
fn lock_defs(fa: &FileAnalysis<'_>, defs: &mut HashMap<String, Vec<(String, LockKind)>>) {
    let text = |ci: usize| -> &str {
        fa.code
            .get(ci)
            .map(|&i| fa.tokens[i].text(fa.src))
            .unwrap_or("")
    };
    let kind_of = |ci: usize| fa.code.get(ci).map(|&i| fa.tokens[i].kind);
    for ci in 0..fa.code.len() {
        let kind = match text(ci) {
            "DebugMutex" => LockKind::Mutex,
            "DebugRwLock" => LockKind::RwLock,
            _ => continue,
        };
        if fa
            .code
            .get(ci)
            .is_some_and(|&i| fa.in_test_code(fa.tokens[i].start))
        {
            continue;
        }
        if text(ci + 1) != "::" || text(ci + 2) != "new" || text(ci + 3) != "(" {
            continue;
        }
        if kind_of(ci + 4) != Some(TokKind::Str) {
            continue;
        }
        let name = text(ci + 4).trim_matches('"').to_string();
        // binding ident: `ident: DebugMutex::new(…)` (struct literal or
        // field default), `let ident = …`, or `static IDENT: … = …`
        let ident = if ci >= 2 && text(ci - 1) == ":" && kind_of(ci - 2) == Some(TokKind::Ident) {
            Some(text(ci - 2).to_string())
        } else if ci >= 1 && text(ci - 1) == "=" {
            let mut k = ci - 1;
            let mut found = None;
            for _ in 0..16 {
                if k == 0 {
                    break;
                }
                k -= 1;
                if matches!(text(k), "let" | "static" | "const") {
                    let mut m = k + 1;
                    if text(m) == "mut" {
                        m += 1;
                    }
                    if kind_of(m) == Some(TokKind::Ident) {
                        found = Some(text(m).to_string());
                    }
                    break;
                }
                if matches!(text(k), ";" | "{" | "}") {
                    break;
                }
            }
            found
        } else {
            None
        };
        if let Some(id) = ident {
            let entry = defs.entry(id).or_default();
            if !entry.contains(&(name.clone(), kind)) {
                entry.push((name, kind));
            }
        }
    }
}

/// R9: propagate held-lock sets through the call graph, build the static
/// held→acquired graph, and report acquisition cycles. Returns the graph
/// for DOT emission and the runtime diff.
fn lock_order(
    analyses: &[FileAnalysis<'_>],
    ws: &Workspace<'_>,
    graph: &CallGraph,
    cfg: &LintConfig,
    out: &mut Vec<Finding>,
) -> LockGraph {
    let mut defs: HashMap<String, Vec<(String, LockKind)>> = HashMap::new();
    for fa in analyses {
        lock_defs(fa, &mut defs);
    }
    if defs.is_empty() {
        return LockGraph::default();
    }
    let mut names: BTreeSet<String> = BTreeSet::new();
    for binds in defs.values() {
        for (n, _) in binds {
            names.insert(n.clone());
        }
    }
    let exempt = |rel: &str| cfg.r9_exempt_files.iter().any(|f| f == rel);

    // What lock names a method call on `recv.name()` acquires directly.
    let acquires_at = |file: &ParsedFile, ev: &Event| -> Vec<String> {
        let Event::Method { recv, name, .. } = ev else {
            return Vec::new();
        };
        let Recv::Simple(id) = recv else {
            return Vec::new();
        };
        if exempt(&file.rel) {
            return Vec::new();
        }
        let Some(binds) = defs.get(id) else {
            return Vec::new();
        };
        binds
            .iter()
            .filter(|(_, k)| match k {
                LockKind::Mutex => name == "lock",
                LockKind::RwLock => name == "read" || name == "write",
            })
            .map(|(n, _)| n.clone())
            .collect()
    };

    // Per-function may-acquire sets, to a fixpoint over all call edges
    // (guarded edges included: a catch_unwind'd callee still locks).
    let mut may: HashMap<FnId, BTreeSet<String>> = HashMap::new();
    for (fi, file) in ws.files.iter().enumerate() {
        for (gi, f) in file.fns.iter().enumerate() {
            if f.is_test {
                continue;
            }
            let mut set = BTreeSet::new();
            for ev in &f.body {
                for n in acquires_at(file, ev) {
                    set.insert(n);
                }
            }
            may.insert((fi, gi), set);
        }
    }
    loop {
        let mut changed = false;
        for e in &graph.edges {
            let callee_set = may.get(&e.callee).cloned().unwrap_or_default();
            if callee_set.is_empty() {
                continue;
            }
            let caller_set = may.entry(e.caller).or_default();
            for n in callee_set {
                changed |= caller_set.insert(n);
            }
        }
        if !changed {
            break;
        }
    }

    // Flow-sensitive intra-function walk: held set → edges.
    let mut edges: BTreeMap<(String, String), (String, usize)> = BTreeMap::new();
    for (fi, file) in ws.files.iter().enumerate() {
        for f in &file.fns {
            if f.is_test {
                continue;
            }
            let mut held: Vec<Held> = Vec::new();
            for ev in &f.body {
                match ev {
                    Event::Close { to_depth } => held.retain(|h| h.depth <= *to_depth),
                    Event::StmtEnd { depth } => held.retain(|h| !(h.temp && h.depth == *depth)),
                    Event::Drop { ident } => held.retain(|h| h.ident.as_deref() != Some(ident)),
                    Event::Method {
                        pos,
                        depth,
                        let_ident,
                        recv,
                        name,
                        chained,
                        ..
                    } => {
                        let direct = acquires_at(file, ev);
                        if !direct.is_empty() {
                            for n in &direct {
                                for h in &held {
                                    edges
                                        .entry((h.name.clone(), n.clone()))
                                        .or_insert_with(|| (file.rel.clone(), *pos));
                                }
                            }
                            // A chained acquisition (`x.lock().get(k)`)
                            // never binds its guard — even under `let`,
                            // the guard is a temporary dropped at the
                            // statement's end, not the binding.
                            for n in direct {
                                held.push(Held {
                                    name: n,
                                    depth: *depth,
                                    ident: let_ident.clone().filter(|_| !chained),
                                    temp: *chained || let_ident.is_none(),
                                });
                            }
                            continue;
                        }
                        let callees = ws.resolve_method(f.owner.as_deref(), recv, name);
                        call_locks(
                            ws, &may, &callees, &mut held, &mut edges, file, *pos, *depth,
                            let_ident, *chained,
                        );
                    }
                    Event::Call {
                        path,
                        pos,
                        depth,
                        let_ident,
                        chained,
                        ..
                    } => {
                        let callees = ws.resolve_call(fi, f.owner.as_deref(), path);
                        call_locks(
                            ws, &may, &callees, &mut held, &mut edges, file, *pos, *depth,
                            let_ident, *chained,
                        );
                    }
                    _ => {}
                }
            }
        }
    }

    let graph_out = LockGraph {
        nodes: names.into_iter().collect(),
        edges: edges
            .into_iter()
            .map(|((from, to), (rel, pos))| {
                let (line, col) = analyses
                    .iter()
                    .find(|a| a.rel == rel)
                    .map(|a| a.lines.line_col(pos))
                    .unwrap_or((0, 0));
                LockEdge {
                    from,
                    to,
                    file: rel,
                    line,
                    col,
                }
            })
            .collect(),
    };
    if let Some(cycle) = graph_out.cycle() {
        // report at the witness site of the edge closing the cycle
        let (a, b) = (
            cycle[cycle.len() - 2].clone(),
            cycle[cycle.len() - 1].clone(),
        );
        let site = graph_out
            .edges
            .iter()
            .find(|e| e.from == a && e.to == b)
            .cloned();
        if let Some(e) = site {
            push_finding(
                analyses,
                &e.file,
                RuleId::StaticLockOrder,
                byte_of(analyses, &e.file, e.line, e.col),
                None,
                format!(
                    "static lock-order cycle: {}; acquisition order must form a DAG \
                     (witness edge `{a}` → `{b}` here)",
                    cycle.join(" → ")
                ),
                out,
            );
        }
    }
    graph_out
}

/// Byte offset of `line:col` in `rel` (for re-reporting a stored site).
fn byte_of(analyses: &[FileAnalysis<'_>], rel: &str, line: usize, col: usize) -> usize {
    analyses
        .iter()
        .find(|a| a.rel == rel)
        .map(|a| {
            let upto: usize = a
                .src
                .split_inclusive('\n')
                .take(line.saturating_sub(1))
                .map(str::len)
                .sum();
            upto + col.saturating_sub(1)
        })
        .unwrap_or(0)
}

/// One lock currently held during the flow-sensitive walk.
#[derive(Debug)]
struct Held {
    name: String,
    depth: u32,
    ident: Option<String>,
    temp: bool,
}

/// Held × transitive-acquire edges for one resolved call; guard-returning
/// callees hand their locks to the caller's held set.
#[allow(clippy::too_many_arguments)]
fn call_locks(
    ws: &Workspace<'_>,
    may: &HashMap<FnId, BTreeSet<String>>,
    callees: &[FnId],
    held: &mut Vec<Held>,
    edges: &mut BTreeMap<(String, String), (String, usize)>,
    file: &ParsedFile,
    pos: usize,
    depth: u32,
    let_ident: &Option<String>,
    chained: bool,
) {
    for &callee in callees {
        let Some(acq) = may.get(&callee) else {
            continue;
        };
        if acq.is_empty() {
            continue;
        }
        for n in acq {
            for h in held.iter() {
                edges
                    .entry((h.name.clone(), n.clone()))
                    .or_insert_with(|| (file.rel.clone(), pos));
            }
        }
        if ws.fn_def(callee).returns_guard {
            for n in acq {
                held.push(Held {
                    name: n.clone(),
                    depth,
                    ident: let_ident.clone().filter(|_| !chained),
                    temp: chained || let_ident.is_none(),
                });
            }
        }
    }
}
