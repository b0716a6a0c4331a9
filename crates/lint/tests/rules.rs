//! Fixture corpus tests: every rule family is proven to fire on a
//! known-bad snippet, the allow grammar is proven to suppress (and to
//! report its own abuse), and the workspace itself is proven clean.
//!
//! Fixtures live in `crates/lint/fixtures/` — a directory the engine's
//! walker deliberately skips, so the corpus never pollutes the CI gate.

use taor_lint::{lint_source, lint_workspace, Diagnostic};

/// Lint a fixture the way the engine lints strict library code.
fn fixture(name: &str) -> Vec<Diagnostic> {
    let path = format!("{}/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    let src =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("missing fixture {path}: {e}"));
    lint_source(name, &src, true, false)
}

fn rules_of(diags: &[Diagnostic]) -> Vec<&str> {
    diags.iter().map(|d| d.rule.as_str()).collect()
}

#[track_caller]
fn assert_fires(name: &str, rule: &str, times: usize) {
    let diags = fixture(name);
    let hits = diags.iter().filter(|d| d.rule == rule).count();
    assert_eq!(hits, times, "{name}: expected {rule} x{times}, got {:?}", rules_of(&diags));
}

// ---- panic family ----------------------------------------------------

#[test]
fn panic_unwrap_fires() {
    assert_fires("panic_unwrap.rs", "panic::unwrap", 1);
}

#[test]
fn panic_expect_fires() {
    assert_fires("panic_expect.rs", "panic::expect", 1);
}

#[test]
fn panic_panic_fires() {
    assert_fires("panic_panic.rs", "panic::panic", 1);
}

#[test]
fn panic_todo_fires_for_both_macros() {
    assert_fires("panic_todo.rs", "panic::todo", 2);
}

#[test]
fn panic_index_fires_on_computed_but_not_literal_index() {
    // `v[i + 1]` fires; `v[0]` is the exempt fixed-offset form.
    assert_fires("panic_index.rs", "panic::index", 1);
}

// ---- float family ----------------------------------------------------

#[test]
fn float_partial_cmp_fires() {
    assert_fires("float_partial_cmp.rs", "float::partial-cmp", 1);
}

#[test]
fn float_eq_fires_on_both_operand_orders() {
    // `x == 1.0` and `0.0 != x`.
    assert_fires("float_eq.rs", "float::eq", 2);
}

// ---- determinism family ----------------------------------------------

#[test]
fn det_hash_iter_fires_on_map_and_set() {
    let diags = fixture("det_hash_iter.rs");
    let hits = diags.iter().filter(|d| d.rule == "det::hash-iter").count();
    // The `use` line plus every use site — at least one HashMap and one
    // HashSet mention must be flagged.
    assert!(hits >= 2, "expected >=2 det::hash-iter, got {:?}", rules_of(&diags));
}

#[test]
fn det_wall_clock_fires_on_instant_and_system_time() {
    let diags = fixture("det_wall_clock.rs");
    let hits = diags.iter().filter(|d| d.rule == "det::wall-clock").count();
    assert!(hits >= 2, "expected >=2 det::wall-clock, got {:?}", rules_of(&diags));
}

// ---- unsafe family ---------------------------------------------------

#[test]
fn unsafe_undocumented_fires_for_block_fn_and_impl() {
    assert_fires("unsafe_undocumented.rs", "unsafe::undocumented", 3);
}

// ---- atomics family --------------------------------------------------

#[test]
fn atomics_undocumented_fires() {
    assert_fires("atomics_undocumented.rs", "atomics::undocumented", 1);
}

#[test]
fn atomics_relaxed_handoff_fires_even_when_commented() {
    let diags = fixture("atomics_relaxed_handoff.rs");
    assert!(
        diags.iter().any(|d| d.rule == "atomics::relaxed-handoff"),
        "relaxed-handoff must fire despite the justifying comment: {:?}",
        rules_of(&diags)
    );
    // The comment satisfies `atomics::undocumented`, so only the
    // hand-off rule remains — a Relaxed latch release can never be
    // talked into correctness.
    assert!(!diags.iter().any(|d| d.rule == "atomics::undocumented"));
}

// ---- concurrency family ----------------------------------------------

#[test]
fn concurrency_naked_atomic_fires_outside_tests_only() {
    // The `use` line and the inline path fire; the `#[cfg(test)]` use is
    // exempt.
    assert_fires("concurrency_naked_atomic.rs", "concurrency::naked-atomic", 2);
}

// ---- err family ------------------------------------------------------

#[test]
fn err_swallowed_result_fires_on_builtin_and_workspace_fns() {
    // `send` and `join` from the builtin table, `local_fallible` from
    // the collected workspace table; the `?`-propagating and no-call
    // discards stay quiet.
    assert_fires("err_swallowed_result.rs", "err::swallowed-result", 3);
}

#[test]
fn err_swallowed_result_respects_justified_allow() {
    let diags = fixture("err_swallowed_result_allowed.rs");
    assert!(diags.is_empty(), "justified allow must suppress, got {:?}", rules_of(&diags));
}

#[test]
fn err_swallowed_result_uses_cross_file_table() {
    // A fn declared in "another file" feeds the table that flags a
    // discard here — the two-pass engine contract, driven through
    // lint_source_with.
    let table: std::collections::BTreeSet<String> =
        ["truncated_body".to_string()].into_iter().collect();
    let src = "fn f(s: &S) { let _ = truncated_body(s); }";
    let refs = taor_lint::RefTable::new();
    let diags = taor_lint::lint_source_with("x.rs", src, true, false, &table, &refs);
    assert!(
        diags.iter().any(|d| d.rule == "err::swallowed-result"),
        "cross-file Result fn must be flagged, got {:?}",
        rules_of(&diags)
    );
}

// ---- dead family -----------------------------------------------------

#[test]
fn dead_unreached_pub_fires_on_test_only_and_reexport_only_fns() {
    // `only_tested` is called from its own file's #[cfg(test)] module and
    // `only_reexported` only appears in a `pub use`; `called` has a
    // non-test caller. The reference table is the one engine pass 1
    // builds, here over the fixture alone.
    let name = "dead_unreached_pub.rs";
    let path = format!("{}/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    let src = std::fs::read_to_string(&path).expect("fixture");
    let out = taor_lint::lexer::lex(&src);
    let mask = taor_lint::regions::test_mask(&out.tokens);
    let mut refs = taor_lint::RefTable::new();
    taor_lint::rules::dead::record_references(&mut refs, name, &out.tokens, &mask);
    let diags = taor_lint::lint_source_with(name, &src, true, false, &Default::default(), &refs);
    let dead: Vec<&str> = diags
        .iter()
        .filter(|d| d.rule == "dead::unreached-pub")
        .map(|d| d.message.as_str())
        .collect();
    assert_eq!(dead.len(), 2, "{dead:?}");
    assert!(dead[0].contains("only_tested") && dead[1].contains("only_reexported"), "{dead:?}");
    // A lone file cannot see its callers: single-file linting skips the rule.
    assert!(!fixture(name).iter().any(|d| d.rule == "dead::unreached-pub"));
}

#[test]
fn dead_unreached_pub_counts_only_shipping_callers() {
    // A strict library file declares four functions; each of the other
    // files mentions one of them outside any test region. Only shipping
    // files (examples, perfbench) keep a function alive; an integration
    // test and the dev-only testkit do not.
    let lib = "pub fn by_test() {}\npub fn by_testkit() {}\n\
               pub fn by_example() {}\npub fn by_perfbench() {}\n";
    let files = [
        ("crates/x/src/lib.rs", lib),
        ("crates/x/tests/t.rs", "fn helper() { x::by_test(); }"),
        ("crates/testkit/src/lib.rs", "pub fn harness() { x::by_testkit(); }"),
        ("examples/e.rs", "fn main() { x::by_example(); }"),
        ("perfbench/src/main.rs", "fn main() { x::by_perfbench(); }"),
    ];
    let mut refs = taor_lint::RefTable::new();
    for (path, src) in files {
        let out = taor_lint::lexer::lex(src);
        let mask = taor_lint::regions::test_mask(&out.tokens);
        taor_lint::rules::dead::record_references(&mut refs, path, &out.tokens, &mask);
    }
    let (path, lib) = files[0];
    let diags = taor_lint::lint_source_with(path, lib, true, false, &Default::default(), &refs);
    let dead: Vec<&str> = diags
        .iter()
        .filter(|d| d.rule == "dead::unreached-pub")
        .map(|d| d.message.as_str())
        .collect();
    assert_eq!(dead.len(), 2, "{dead:?}");
    assert!(dead[0].contains("by_test`") && dead[1].contains("by_testkit`"), "{dead:?}");
}

// ---- allow grammar ---------------------------------------------------

#[test]
fn justified_allows_suppress_everything() {
    let diags = fixture("allowed.rs");
    assert!(diags.is_empty(), "allowed.rs must lint clean, got {:?}", rules_of(&diags));
}

#[test]
fn malformed_allow_is_its_own_diagnostic() {
    assert_fires("allow_malformed.rs", "allow::malformed", 1);
}

#[test]
fn unjustified_allow_is_reported_and_still_suppresses_nothing_extra() {
    let diags = fixture("allow_unjustified.rs");
    assert!(
        diags.iter().any(|d| d.rule == "allow::unjustified"),
        "missing allow::unjustified in {:?}",
        rules_of(&diags)
    );
}

#[test]
fn file_wide_allow_covers_only_the_named_rule() {
    let diags = fixture("file_wide_allow.rs");
    assert!(
        !diags.iter().any(|d| d.rule == "panic::index"),
        "header allow must suppress every index in the file: {:?}",
        rules_of(&diags)
    );
    assert!(
        diags.iter().any(|d| d.rule == "panic::unwrap"),
        "header allow must not leak onto other rules: {:?}",
        rules_of(&diags)
    );
}

// ---- test-region exemption -------------------------------------------

#[test]
fn test_gated_code_is_exempt_from_strict_rules() {
    let diags = fixture("test_exempt.rs");
    assert!(diags.is_empty(), "test_exempt.rs must lint clean, got {:?}", rules_of(&diags));
}

// ---- the gate itself -------------------------------------------------

/// The CI contract: the workspace this crate ships in has zero
/// unallowed diagnostics. Run from the crate dir, the workspace root is
/// two levels up.
#[test]
fn workspace_is_lint_clean() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/lint sits two levels under the workspace root")
        .to_path_buf();
    let diags = lint_workspace(&root).expect("workspace walk failed");
    let rendered: Vec<String> = diags.iter().map(|d| d.to_string()).collect();
    assert!(diags.is_empty(), "workspace not lint-clean:\n{}", rendered.join("\n"));
}
