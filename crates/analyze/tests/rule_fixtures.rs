//! One positive (must fire) and one negative (must stay silent) fixture
//! per rule, run through `lint_source` with a small synthetic scope so
//! the fixtures are independent of the real workspace policy.

use aq_analyze::{lint_source, LintConfig, RuleId};

fn cfg() -> LintConfig {
    LintConfig {
        r1_allow_prefixes: vec![("crates/harness/".into(), "fixture harness crate".into())],
        r3_hot_files: vec!["crates/lib/src/hot.rs".into()],
        r4_wire_files: vec!["crates/lib/src/wire.rs".into()],
        r5_exempt_files: vec!["crates/lib/src/eps.rs".into()],
        r6_scope: vec!["crates/srv/src/".into()],
        r6_exempt_files: vec!["crates/srv/src/backoff.rs".into()],
        r7_scope: vec!["crates/srv/src/".into(), "crates/smp/src/".into()],
        // the semantic passes (R8–R9) have their own fixture suite
        r8_roots: Vec::new(),
        r8_index_prefixes: Vec::new(),
        r9_exempt_files: Vec::new(),
    }
}

fn rules_at(rel: &str, src: &str) -> Vec<RuleId> {
    lint_source(rel, src, &cfg())
        .into_iter()
        .map(|f| f.rule)
        .collect()
}

// ---- R1: no panic-family calls in non-test library code ----

#[test]
fn r1_flags_unwrap_expect_and_panic_macros() {
    let src = "pub fn f(x: Option<u32>) -> u32 {\n    \
               let y = x.unwrap();\n    \
               let z = x.expect(\"present\");\n    \
               if y != z { panic!(\"mismatch\"); }\n    \
               y\n}\n";
    let found = rules_at("crates/lib/src/lib.rs", src);
    assert_eq!(
        found,
        [
            RuleId::NoPanicPath,
            RuleId::NoPanicPath,
            RuleId::NoPanicPath
        ],
        "unwrap, expect and panic! each fire once"
    );
}

#[test]
fn r1_silent_in_tests_allowed_crates_and_test_modules() {
    let src = "pub fn f(x: Option<u32>) -> u32 { x.unwrap() }\n";
    // tests/ directories are non-library code
    assert!(rules_at("crates/lib/tests/it.rs", src).is_empty());
    // crates under an r1 allow prefix are exempt wholesale
    assert!(rules_at("crates/harness/src/lib.rs", src).is_empty());
    // #[cfg(test)] modules inside library files are exempt
    let in_test_mod = "#[cfg(test)]\nmod tests {\n    \
                       fn f(x: Option<u32>) -> u32 { x.unwrap() }\n}\n";
    assert!(rules_at("crates/lib/src/lib.rs", in_test_mod).is_empty());
}

#[test]
fn r1_suppression_works_on_the_line_above_only() {
    let allowed = "pub fn f(x: Option<u32>) -> u32 {\n    \
                   // aq-lint: allow(R1): fixture-justified invariant\n    \
                   x.unwrap()\n}\n";
    assert!(rules_at("crates/lib/src/lib.rs", allowed).is_empty());

    // Two lines of distance is out of range: the finding survives.
    let too_far = "pub fn f(x: Option<u32>) -> u32 {\n    \
                   // aq-lint: allow(R1): fixture-justified invariant\n    \
                   let _ = 0;\n    \
                   x.unwrap()\n}\n";
    assert_eq!(
        rules_at("crates/lib/src/lib.rs", too_far),
        [RuleId::NoPanicPath]
    );
}

// ---- R3: no unbounded map caches in hot-path modules ----

#[test]
fn r3_flags_cache_named_map_fields_in_hot_files() {
    let src = "use std::collections::HashMap;\n\
               pub struct Engine {\n    compute_cache: HashMap<u64, u64>,\n}\n";
    assert_eq!(
        rules_at("crates/lib/src/hot.rs", src),
        [RuleId::UnboundedCache]
    );
}

#[test]
fn r3_silent_for_non_cache_maps_and_cold_files() {
    // Same shape, name does not smell like a cache: a map is fine.
    let table = "use std::collections::HashMap;\n\
                 pub struct Engine {\n    symbol_table: HashMap<u64, u64>,\n}\n";
    assert!(rules_at("crates/lib/src/hot.rs", table).is_empty());
    // Cache-named map outside the hot-file list: out of scope.
    let cache = "use std::collections::HashMap;\n\
                 pub struct Engine {\n    compute_cache: HashMap<u64, u64>,\n}\n";
    assert!(rules_at("crates/lib/src/cold.rs", cache).is_empty());
}

#[test]
fn r3_default_scope_covers_the_weight_op_cache_module() {
    // the workspace default hot-file list must include the handle-level
    // weight-op cache module, so an unbounded map can never sneak into it
    let defaults = LintConfig::default();
    assert!(
        defaults
            .r3_hot_files
            .iter()
            .any(|f| f == "crates/core/src/wops.rs"),
        "wops.rs must be R3-scoped by default"
    );
    let src = "use std::collections::HashMap;\n\
               pub struct WeightOpCache {\n    \
               pairs_cache: HashMap<(u8, u32, u32), u32>,\n}\n";
    let found: Vec<RuleId> = lint_source("crates/core/src/wops.rs", src, &defaults)
        .into_iter()
        .map(|f| f.rule)
        .collect();
    assert_eq!(found, [RuleId::UnboundedCache]);
}

// ---- R4: no bare narrowing casts in wire/snapshot code ----

#[test]
fn r4_flags_narrowing_casts_in_wire_files() {
    let src = "pub fn encode(x: u64) -> u32 { x as u32 }\n";
    assert_eq!(
        rules_at("crates/lib/src/wire.rs", src),
        [RuleId::NarrowingCast]
    );
}

#[test]
fn r4_accepts_widening_casts_and_non_wire_files() {
    let widen = "pub fn encode(x: u32) -> u64 { x as u64 }\n";
    assert!(rules_at("crates/lib/src/wire.rs", widen).is_empty());
    let narrow = "pub fn encode(x: u64) -> u32 { x as u32 }\n";
    assert!(rules_at("crates/lib/src/other.rs", narrow).is_empty());
}

// ---- R5: no direct float-literal ==/!= outside the epsilon module ----

#[test]
fn r5_flags_float_literal_equality() {
    let src = "pub fn is_zero(x: f64) -> bool { x == 0.0 }\n\
               pub fn nonzero(x: f64) -> bool { 0.0 != x }\n";
    assert_eq!(
        rules_at("crates/lib/src/math.rs", src),
        [RuleId::FloatEq, RuleId::FloatEq]
    );
}

#[test]
fn r5_silent_in_the_epsilon_module_and_for_integers() {
    let src = "pub fn is_zero(x: f64) -> bool { x == 0.0 }\n";
    assert!(rules_at("crates/lib/src/eps.rs", src).is_empty());
    let ints = "pub fn is_zero(x: u64) -> bool { x == 0 }\n";
    assert!(rules_at("crates/lib/src/math.rs", ints).is_empty());
}

// ---- R6: no bare thread::sleep in serve code outside backoff ----

#[test]
fn r6_flags_bare_thread_sleep_in_scope_including_bin_entry_points() {
    let src = "pub fn spin(d: std::time::Duration) {\n    std::thread::sleep(d);\n}\n";
    assert_eq!(
        rules_at("crates/srv/src/server.rs", src),
        [RuleId::BareSleep]
    );
    // `use std::thread;` + `thread::sleep` is the same call, differently spelt
    let via_use = "use std::thread;\n\
                   pub fn spin(d: std::time::Duration) { thread::sleep(d); }\n";
    assert_eq!(
        rules_at("crates/srv/src/server.rs", via_use),
        [RuleId::BareSleep]
    );
    // src/bin entry points are non-library code for R1 but stay in R6
    // scope: a CLI retry loop must not busy-sleep either
    assert_eq!(
        rules_at("crates/srv/src/bin/cli.rs", src),
        [RuleId::BareSleep]
    );
}

#[test]
fn r6_silent_for_backoff_module_test_code_and_out_of_scope_files() {
    let src = "pub fn spin(d: std::time::Duration) {\n    std::thread::sleep(d);\n}\n";
    // the backoff module owns the one sanctioned call site
    assert!(rules_at("crates/srv/src/backoff.rs", src).is_empty());
    // out of scope: other crates may sleep as they please
    assert!(rules_at("crates/lib/src/lib.rs", src).is_empty());
    // test modules inside scoped files are exempt
    let in_test = "#[cfg(test)]\nmod tests {\n    \
                   fn nap() { std::thread::sleep(std::time::Duration::from_millis(1)); }\n}\n";
    assert!(rules_at("crates/srv/src/server.rs", in_test).is_empty());
    // the sanctioned wrapper itself never matches (prev2 is `backoff`)
    let wrapped = "pub fn spin(d: std::time::Duration) { crate::backoff::sleep(d); }\n";
    assert!(rules_at("crates/srv/src/server.rs", wrapped).is_empty());
}

// ---- R7: no unseeded randomness in sim/serve code ----

#[test]
fn r7_flags_entropy_drawing_constructors_in_scope() {
    let src = "pub fn draw() -> u64 {\n    \
               let mut rng = rand::thread_rng();\n    rng.gen()\n}\n";
    assert_eq!(
        rules_at("crates/smp/src/sample.rs", src),
        [RuleId::UnseededRandom]
    );
    // OS-seeded constructors and the std hasher trick each fire too
    let entropy = "pub fn rng() -> SmallRng { SmallRng::from_entropy() }\n\
                   pub fn os() -> u64 { OsRng.next_u64() }\n\
                   pub fn h() -> u64 { RandomState::new().hash_one(1u64) }\n";
    assert_eq!(
        rules_at("crates/smp/src/sample.rs", entropy),
        [
            RuleId::UnseededRandom,
            RuleId::UnseededRandom,
            RuleId::UnseededRandom
        ]
    );
    // bin entry points stay in scope: a CLI seeding itself from the OS
    // breaks end-to-end shot reproducibility just as thoroughly
    assert_eq!(
        rules_at("crates/srv/src/bin/cli.rs", src),
        [RuleId::UnseededRandom]
    );
}

#[test]
fn r7_silent_for_seeded_generators_tests_and_out_of_scope_files() {
    // an explicitly seeded generator is the sanctioned construction
    let seeded = "pub fn rng(seed: u64) -> SmallRng { SmallRng::seed_from_u64(seed) }\n\
                  pub fn split(seed: u64) -> u64 { splitmix64(seed) }\n";
    assert!(rules_at("crates/smp/src/sample.rs", seeded).is_empty());
    // out of scope: other crates may draw entropy as they please
    let src = "pub fn draw() -> u64 { rand::thread_rng().gen() }\n";
    assert!(rules_at("crates/lib/src/lib.rs", src).is_empty());
    // test modules inside scoped files are exempt
    let in_test = "#[cfg(test)]\nmod tests {\n    \
                   fn f() -> u64 { rand::thread_rng().gen() }\n}\n";
    assert!(rules_at("crates/smp/src/sample.rs", in_test).is_empty());
}

// ---- A0: suppression directives need known rules and a real reason ----

#[test]
fn a0_flags_reasonless_or_unknown_suppressions() {
    let short = "// aq-lint: allow(R1): nope\npub fn f() {}\n";
    assert_eq!(
        rules_at("crates/lib/src/lib.rs", short),
        [RuleId::BadSuppression],
        "a sub-8-character reason is not a justification"
    );
    let unknown = "// aq-lint: allow(R99): rule ninety-nine does not exist\npub fn f() {}\n";
    assert_eq!(
        rules_at("crates/lib/src/lib.rs", unknown),
        [RuleId::BadSuppression]
    );
}

#[test]
fn a0_accepts_a_well_formed_directive_and_reports_positions() {
    let src = "pub fn f(x: Option<u32>) -> u32 {\n    \
               // aq-lint: allow(R1): invariant documented in the fixture\n    \
               x.unwrap()\n}\n";
    assert!(rules_at("crates/lib/src/lib.rs", src).is_empty());

    // Findings carry 1-based file:line:col coordinates.
    let bare = "pub fn f(x: Option<u32>) -> u32 { x.unwrap() }\n";
    let findings = lint_source("crates/lib/src/lib.rs", bare, &cfg());
    assert_eq!(findings.len(), 1);
    assert_eq!(findings[0].file, "crates/lib/src/lib.rs");
    assert_eq!(findings[0].line, 1);
    assert!(
        findings[0].col > 30,
        "column points into the line: {:?}",
        findings[0]
    );
}
