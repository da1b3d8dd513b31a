//! Fixture suite for the whole-workspace semantic passes (R8–R9), run
//! through `run_sources` over small in-memory workspaces. Each pass gets
//! one positive fixture (must fire) and one negative (must stay silent),
//! including the two contract cases the design calls out: a
//! `catch_unwind`-guarded panic that must NOT fire R8, and a two-function
//! lock inversion that must fire R9.

use aq_analyze::{run_sources, Finding, LintConfig, Report, RuleId};

/// A config with every token-local scope empty and the fixture crates
/// exempted from R1, so only the semantic pass under test can fire.
fn cfg() -> LintConfig {
    LintConfig {
        r1_allow_prefixes: vec![(
            "crates/".into(),
            "semantic fixtures exercise R8-R9 only".into(),
        )],
        r3_hot_files: Vec::new(),
        r4_wire_files: Vec::new(),
        r5_exempt_files: Vec::new(),
        r6_scope: Vec::new(),
        r6_exempt_files: Vec::new(),
        r7_scope: Vec::new(),
        r8_roots: Vec::new(),
        r8_index_prefixes: Vec::new(),
        r9_exempt_files: Vec::new(),
    }
}

fn run(sources: &[(&str, &str)], cfg: &LintConfig) -> Report {
    let owned: Vec<(String, String)> = sources
        .iter()
        .map(|(rel, src)| (rel.to_string(), src.to_string()))
        .collect();
    run_sources(&owned, cfg, None)
}

fn findings(sources: &[(&str, &str)], cfg: &LintConfig, rule: RuleId) -> Vec<Finding> {
    run(sources, cfg)
        .findings
        .into_iter()
        .filter(|f| f.rule == rule)
        .collect()
}

// ---------------------------------------------------------------- R8 --

#[test]
fn r8_reports_a_transitive_unwrap_with_its_call_chain() {
    let src = "pub fn handle(x: Option<u32>) -> u32 { risky(x) }\n\
               fn risky(x: Option<u32>) -> u32 { x.unwrap() }\n";
    let mut c = cfg();
    c.r8_roots = vec!["handle".into()];
    let found = findings(&[("crates/fix/src/lib.rs", src)], &c, RuleId::PanicReach);
    assert_eq!(found.len(), 1, "one reachable panic source: {found:?}");
    assert!(found[0].message.contains("`.unwrap()`"));
    assert!(
        found[0].message.contains("handle → risky"),
        "the finding carries the full root → panic chain: {}",
        found[0].message
    );
    assert_eq!(found[0].line, 2, "reported at the unwrap site");
}

#[test]
fn r8_covers_panic_macros_panic_any_and_scoped_index_expressions() {
    let src = "pub fn handle(v: &[u32], i: usize) -> u32 {\n    \
               if v.is_empty() { panic!(\"empty\"); }\n    \
               if i > v.len() { std::panic::panic_any(i); }\n    \
               v[i]\n}\n";
    let mut c = cfg();
    c.r8_roots = vec!["handle".into()];
    c.r8_index_prefixes = vec!["crates/fix/src/".into()];
    let found = findings(&[("crates/fix/src/lib.rs", src)], &c, RuleId::PanicReach);
    let whats: Vec<&str> = found
        .iter()
        .map(|f| f.message.split_whitespace().next().unwrap_or(""))
        .collect();
    assert_eq!(
        whats,
        ["`panic!`", "`panic_any`", "index"],
        "all three source kinds fire: {found:?}"
    );

    // Out of the index-scope prefix the same `v[i]` is silent.
    c.r8_index_prefixes = Vec::new();
    let found = findings(&[("crates/fix/src/lib.rs", src)], &c, RuleId::PanicReach);
    assert_eq!(found.len(), 2, "index expressions need explicit scoping");
}

#[test]
fn r8_does_not_cross_catch_unwind_guards() {
    // The panic lives behind `catch_unwind`, both as a direct closure
    // body and as a guarded call edge into a panicking helper: neither
    // may reach R8.
    let src = "pub fn handle(x: Option<u32>) -> u32 {\n    \
               let direct = std::panic::catch_unwind(|| x.unwrap());\n    \
               let via_call = std::panic::catch_unwind(|| risky(x));\n    \
               direct.or(via_call).unwrap_or(0)\n}\n\
               fn risky(x: Option<u32>) -> u32 { x.unwrap() }\n";
    let mut c = cfg();
    c.r8_roots = vec!["handle".into()];
    assert!(
        findings(&[("crates/fix/src/lib.rs", src)], &c, RuleId::PanicReach).is_empty(),
        "catch_unwind-guarded panics must not fire R8"
    );
}

#[test]
fn r8_ignores_unreachable_and_test_functions_and_honours_allows() {
    // `orphan` panics but nothing reaches it from a root.
    let unreachable = "pub fn handle() -> u32 { 1 }\n\
                       fn orphan(x: Option<u32>) -> u32 { x.unwrap() }\n";
    let mut c = cfg();
    c.r8_roots = vec!["handle".into()];
    assert!(findings(
        &[("crates/fix/src/lib.rs", unreachable)],
        &c,
        RuleId::PanicReach
    )
    .is_empty());

    // A justified allow directive suppresses the finding at the site.
    let allowed = "pub fn handle(x: Option<u32>) -> u32 {\n    \
                   // aq-lint: allow(R8): fixture-documented invariant\n    \
                   x.unwrap()\n}\n";
    assert!(findings(
        &[("crates/fix/src/lib.rs", allowed)],
        &c,
        RuleId::PanicReach
    )
    .is_empty());
}

// ---------------------------------------------------------------- R9 --

const LOCK_PAIR: &str = "pub struct Pair {\n    \
                         a: DebugMutex<u32>,\n    b: DebugMutex<u32>,\n}\n\
                         impl Pair {\n    \
                         pub fn new() -> Pair {\n        \
                         Pair { a: DebugMutex::new(\"fix.a\", 0), b: DebugMutex::new(\"fix.b\", 0) }\n    \
                         }\n";

#[test]
fn r9_flags_a_two_function_lock_inversion() {
    // `forward` acquires a then b; `backward` acquires b then a. The
    // static graph gains both edges and the cycle fires R9.
    let src = format!(
        "{LOCK_PAIR}    \
         pub fn forward(&self) {{ let ga = self.a.lock(); let gb = self.b.lock(); drop(gb); drop(ga); }}\n    \
         pub fn backward(&self) {{ let gb = self.b.lock(); let ga = self.a.lock(); drop(ga); drop(gb); }}\n}}\n"
    );
    let c = cfg();
    let report = run(&[("crates/fix/src/lib.rs", &src)], &c);
    let r9: Vec<&Finding> = report
        .findings
        .iter()
        .filter(|f| f.rule == RuleId::StaticLockOrder)
        .collect();
    assert_eq!(r9.len(), 1, "one cycle report: {r9:?}");
    assert!(r9[0].message.contains("static lock-order cycle"));
    assert!(
        r9[0].message.contains("fix.a") && r9[0].message.contains("fix.b"),
        "the cycle names both locks: {}",
        r9[0].message
    );
    assert_eq!(report.lock_graph.nodes, ["fix.a", "fix.b"]);
    assert!(report.lock_graph.cycle().is_some());
}

#[test]
fn r9_consistent_order_yields_an_acyclic_graph_and_no_finding() {
    let src = format!(
        "{LOCK_PAIR}    \
         pub fn forward(&self) {{ let ga = self.a.lock(); let gb = self.b.lock(); drop(gb); drop(ga); }}\n    \
         pub fn again(&self) {{ let ga = self.a.lock(); let gb = self.b.lock(); drop(gb); drop(ga); }}\n}}\n"
    );
    let c = cfg();
    let report = run(&[("crates/fix/src/lib.rs", &src)], &c);
    assert!(
        !report
            .findings
            .iter()
            .any(|f| f.rule == RuleId::StaticLockOrder),
        "a consistent order is not a cycle"
    );
    let edges: Vec<(String, String)> = report
        .lock_graph
        .edges
        .iter()
        .map(|e| (e.from.clone(), e.to.clone()))
        .collect();
    assert_eq!(edges, [("fix.a".to_string(), "fix.b".to_string())]);
    assert_eq!(report.lock_graph.cycle(), None);
    // The DOT rendering carries both nodes and the one edge.
    let dot = report.lock_graph.dot();
    assert!(dot.contains("\"fix.a\" -> \"fix.b\";"), "{dot}");
}

#[test]
fn r9_dropped_guards_do_not_create_edges() {
    // The first guard is dropped before the second acquisition: the
    // acquisitions are disjoint, never nested, so no edge may appear.
    let src = format!(
        "{LOCK_PAIR}    \
         pub fn disjoint(&self) {{ let ga = self.a.lock(); drop(ga); let gb = self.b.lock(); drop(gb); }}\n}}\n"
    );
    let c = cfg();
    let report = run(&[("crates/fix/src/lib.rs", &src)], &c);
    assert!(
        report.lock_graph.edges.is_empty(),
        "{:?}",
        report.lock_graph
    );
}

#[test]
fn r9_inversion_across_functions_via_the_call_graph() {
    // The second acquisition is hidden behind a helper call: the
    // may-acquire fixpoint must propagate `fix.b` up into `forward`'s
    // held-set walk, and the inverted `backward` closes the cycle.
    let src = format!(
        "{LOCK_PAIR}    \
         pub fn forward(&self) {{ let ga = self.a.lock(); self.take_b(); drop(ga); }}\n    \
         fn take_b(&self) {{ let gb = self.b.lock(); drop(gb); }}\n    \
         pub fn backward(&self) {{ let gb = self.b.lock(); self.take_a(); drop(gb); }}\n    \
         fn take_a(&self) {{ let ga = self.a.lock(); drop(ga); }}\n}}\n"
    );
    let c = cfg();
    let report = run(&[("crates/fix/src/lib.rs", &src)], &c);
    assert!(
        report
            .findings
            .iter()
            .any(|f| f.rule == RuleId::StaticLockOrder),
        "the cycle hides one call deep: {:?}",
        report.lock_graph
    );
}

#[test]
fn r9_ignores_locks_defined_in_test_code() {
    let src = "#[cfg(test)]\nmod tests {\n    \
               use super::*;\n    \
               #[test]\n    fn t() {\n        \
               let a = DebugMutex::new(\"test.a\", 0u32);\n        \
               let g = a.lock();\n        drop(g);\n    }\n}\n";
    let c = cfg();
    let report = run(&[("crates/fix/src/lib.rs", src)], &c);
    assert!(
        report.lock_graph.nodes.is_empty(),
        "fixture locks in test code must not pollute the graph: {:?}",
        report.lock_graph
    );
}
