//! Fixture-based rule tests: for every rule, one snippet that must trip,
//! one that must pass, and one exercising the `allow(...)` suppression
//! comment. Fixtures live under `tests/fixtures/` (not compiled — they are
//! data for the analyzer, and the trip ones would not even build).

use std::collections::BTreeSet;
use std::path::Path;

use switchfs_lint::lexer::{lex, strip_cfg_test};
use switchfs_lint::{
    apply_suppressions, lint_source, rules, Finding, RuleSet, RULE_BORROW, RULE_DEDUP,
    RULE_DETERMINISM, RULE_DIRECTIVE, RULE_EVENT_COVERAGE, RULE_PERSIST,
};

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// Lints a fixture and applies its suppression directives, returning
/// (kept, suppressed).
fn run(name: &str) -> (Vec<Finding>, Vec<Finding>) {
    let source = fixture(name);
    let (findings, directives) = lint_source(&source, RuleSet::all());
    apply_suppressions(findings, &directives)
}

fn rules_of(findings: &[Finding]) -> Vec<&'static str> {
    findings.iter().map(|f| f.rule).collect()
}

// ---------------------------------------------------------------- borrow ---

#[test]
fn borrow_trip_fixture_trips() {
    let (kept, _) = run("borrow_trip.rs");
    let hits: Vec<_> = kept.iter().filter(|f| f.rule == RULE_BORROW).collect();
    assert_eq!(
        hits.len(),
        3,
        "one finding per detector shape (let-bound, same-statement, scrutinee): {hits:?}"
    );
}

#[test]
fn borrow_pass_fixture_passes() {
    let (kept, suppressed) = run("borrow_pass.rs");
    assert!(kept.is_empty(), "clean fixture flagged: {kept:?}");
    assert!(
        suppressed.is_empty(),
        "nothing to suppress in a clean fixture"
    );
}

#[test]
fn borrow_allow_fixture_suppresses() {
    let (kept, suppressed) = run("borrow_allow.rs");
    assert!(kept.is_empty(), "allow directive ignored: {kept:?}");
    assert_eq!(rules_of(&suppressed), vec![RULE_BORROW]);
}

// ----------------------------------------------------------- determinism ---

#[test]
fn determinism_trip_fixture_trips() {
    let (kept, _) = run("determinism_trip.rs");
    let hits = rules_of(&kept);
    assert_eq!(
        hits.iter().filter(|r| **r == RULE_DETERMINISM).count(),
        6,
        "import + HashMap field + HashSet field + Instant + SystemTime + thread_rng: {kept:?}"
    );
}

#[test]
fn determinism_pass_fixture_passes() {
    let (kept, _) = run("determinism_pass.rs");
    assert!(kept.is_empty(), "clean fixture flagged: {kept:?}");
}

#[test]
fn determinism_allow_fixture_suppresses() {
    let (kept, suppressed) = run("determinism_allow.rs");
    assert!(kept.is_empty(), "allow directive ignored: {kept:?}");
    // One directive covers both the HashMap and the HashSet finding on the
    // following import line; the alias lines carry explicit hashers.
    assert_eq!(
        rules_of(&suppressed),
        vec![RULE_DETERMINISM, RULE_DETERMINISM]
    );
}

// ------------------------------------------------------- persist-ordering ---

#[test]
fn persist_trip_fixture_trips() {
    let (kept, _) = run("persist_trip.rs");
    let hits: Vec<_> = kept.iter().filter(|f| f.rule == RULE_PERSIST).collect();
    assert_eq!(
        hits.len(),
        2,
        "send-before-flush and never-flushed must both trip: {hits:?}"
    );
}

#[test]
fn persist_pass_fixture_passes() {
    let (kept, _) = run("persist_pass.rs");
    assert!(kept.is_empty(), "clean fixture flagged: {kept:?}");
}

#[test]
fn persist_allow_fixture_suppresses() {
    let (kept, suppressed) = run("persist_allow.rs");
    assert!(kept.is_empty(), "allow directive ignored: {kept:?}");
    assert_eq!(rules_of(&suppressed), vec![RULE_PERSIST]);
}

// ------------------------------------------------------- dedup-under-lock ---

#[test]
fn dedup_trip_fixture_trips() {
    let (kept, _) = run("dedup_trip.rs");
    let hits: Vec<_> = kept.iter().filter(|f| f.rule == RULE_DEDUP).collect();
    assert_eq!(
        hits.len(),
        2,
        "method-call and path-call checks outside the gate must both trip: {hits:?}"
    );
}

#[test]
fn dedup_pass_fixture_passes() {
    let (kept, _) = run("dedup_pass.rs");
    assert!(kept.is_empty(), "clean fixture flagged: {kept:?}");
}

#[test]
fn dedup_allow_fixture_suppresses() {
    let (kept, suppressed) = run("dedup_allow.rs");
    assert!(kept.is_empty(), "allow directive ignored: {kept:?}");
    assert_eq!(rules_of(&suppressed), vec![RULE_DEDUP]);
}

// --------------------------------------------------------- event-coverage ---

/// Runs the cross-file event-coverage rule over the enum fixture plus the
/// given emission sources, then applies the enum file's own directives.
fn run_coverage(emission_sources: &[&str]) -> (Vec<Finding>, Vec<Finding>) {
    let enum_src = fixture("event_enum.rs");
    let lexed = lex(&enum_src);
    let variants = rules::event_kind_variants(&strip_cfg_test(lexed.tokens));
    assert_eq!(variants.len(), 3, "fixture defines three variants");
    let mut used = BTreeSet::new();
    for src in emission_sources {
        let lexed = lex(src);
        rules::event_kind_uses(&strip_cfg_test(lexed.tokens), &mut used);
    }
    let mut findings = Vec::new();
    rules::event_coverage(&variants, &used, &mut findings);
    apply_suppressions(findings, &lexed_directives(&enum_src))
}

fn lexed_directives(source: &str) -> Vec<switchfs_lint::lexer::Directive> {
    lex(source).directives
}

#[test]
fn event_coverage_trips_on_unemitted_variant_and_suppresses_reserved() {
    let uses = fixture("event_uses.rs");
    let (kept, suppressed) = run_coverage(&[&uses]);
    // `NeverEmitted` trips; `Reserved` is suppressed by its justified allow;
    // `Used` is covered by the emission fixture.
    assert_eq!(rules_of(&kept), vec![RULE_EVENT_COVERAGE]);
    assert!(kept[0].message.contains("NeverEmitted"), "{:?}", kept[0]);
    assert_eq!(rules_of(&suppressed), vec![RULE_EVENT_COVERAGE]);
    assert!(suppressed[0].message.contains("Reserved"));
}

#[test]
fn event_coverage_passes_when_every_variant_is_emitted() {
    let uses = fixture("event_uses.rs");
    let extra = "fn f() { record(EventKind::NeverEmitted { shard: 0 }); }";
    let (kept, _) = run_coverage(&[&uses, extra]);
    assert!(
        kept.is_empty(),
        "all variants emitted, yet flagged: {kept:?}"
    );
}

// ------------------------------------------------------- directive health ---

#[test]
fn suppression_without_reason_is_itself_a_finding() {
    let src = "// switchfs-lint: allow(determinism)\nuse std::collections::HashMap;\n";
    let (findings, directives) = lint_source(src, RuleSet::all());
    let (kept, suppressed) = apply_suppressions(findings, &directives);
    // The reasonless directive does not suppress, and is reported itself.
    assert!(suppressed.is_empty());
    let rules = rules_of(&kept);
    assert!(rules.contains(&RULE_DIRECTIVE), "{kept:?}");
    assert!(rules.contains(&RULE_DETERMINISM), "{kept:?}");
}

#[test]
fn malformed_and_unknown_rule_directives_are_findings() {
    let src = "// switchfs-lint: disallow everything\n// switchfs-lint: allow(no-such-rule) because\nfn f() {}\n";
    let (findings, directives) = lint_source(src, RuleSet::all());
    let (kept, _) = apply_suppressions(findings, &directives);
    assert_eq!(
        rules_of(&kept),
        vec![RULE_DIRECTIVE, RULE_DIRECTIVE],
        "{kept:?}"
    );
}

#[test]
fn cfg_test_items_are_exempt() {
    let src = r#"
#[cfg(test)]
mod tests {
    use std::collections::HashMap;
    fn t() {
        let m: HashMap<u32, u32> = HashMap::new();
    }
}
"#;
    let (findings, _) = lint_source(src, RuleSet::all());
    assert!(findings.is_empty(), "test-only code flagged: {findings:?}");
}
