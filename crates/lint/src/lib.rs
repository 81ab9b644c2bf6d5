//! `switchfs-lint`: a workspace-aware static analyzer for the invariants
//! this codebase bets on but the compiler cannot check.
//!
//! The simulation's whole correctness story rests on three properties that
//! are invisible to `rustc` and `clippy`:
//!
//! - **bit-identical deterministic replay** — chaos failures reproduce from
//!   a seed only if no code path consults per-process state (randomly
//!   seeded hashers, wall clocks, OS entropy);
//! - **single-threaded `Rc<RefCell>` async servers** — a `RefCell` guard
//!   held across an `.await` is a latent `BorrowMutError` that only a rare
//!   interleaving will trigger;
//! - **WAL persist ordering at protocol barriers** — an ordering-critical
//!   record (2PC marker, migration marker, durable completion) must be
//!   flushed before its effects escape onto the network, or a torn-tail
//!   crash replays an asymmetric prefix.
//!
//! Each is a named rule producing `file:line` diagnostics. A fourth rule
//! (`event-coverage`) keeps the observability vocabulary honest by
//! requiring every `obs::EventKind` variant to be emitted somewhere outside
//! `crates/obs`, a fifth (`dedup-under-lock`) keeps the change-log
//! duplicate check inside the one directory-update gate, which runs under
//! the fp-group write lock, and a sixth (`placement-in-one-module`) keeps
//! placement decisions in the shard map: the client, core and server crates
//! ask `ShardMap` where metadata lives instead of deciding it themselves.
//! Findings are suppressible with a justified comment on the preceding (or
//! same) line:
//!
//! ```text
//! // switchfs-lint: allow(determinism) alias definition site, hasher is explicit
//! ```
//!
//! The analyzer is dependency-free (hand-rolled lexer + brace/scope
//! tracker — the build environment is offline, so no `syn`), and scans
//! every workspace crate's `src/` tree except `crates/compat` (offline
//! stand-ins for crates.io code) and `crates/lint` itself (rule fixtures
//! would trip the rules). `#[cfg(test)]` items and integration-test trees
//! are out of scope: they run on the host, not inside the simulation.

use std::collections::BTreeSet;
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

pub mod lexer;
pub mod rules;

use lexer::{lex, strip_cfg_test, Directive, Lexed};

/// Rule id: `RefCell` guards held across `.await`.
pub const RULE_BORROW: &str = "borrow-across-await";
/// Rule id: nondeterminism sources (default hashers, wall clocks, entropy).
pub const RULE_DETERMINISM: &str = "determinism";
/// Rule id: WAL flush ordering at protocol barriers.
pub const RULE_PERSIST: &str = "persist-ordering";
/// Rule id: every `EventKind` variant must be emitted outside `crates/obs`.
pub const RULE_EVENT_COVERAGE: &str = "event-coverage";
/// Rule id: the change-log duplicate check runs only inside the
/// directory-update gate.
pub const RULE_DEDUP: &str = "dedup-under-lock";
/// Rule id: placement decisions are made only in the shard map.
pub const RULE_PLACEMENT: &str = "placement-in-one-module";
/// Rule id for problems with suppression directives themselves (malformed,
/// or missing the required justification). Not suppressible.
pub const RULE_DIRECTIVE: &str = "lint-directive";

/// All six code rules, in reporting order.
pub const ALL_RULES: &[&str] = &[
    RULE_BORROW,
    RULE_DETERMINISM,
    RULE_PERSIST,
    RULE_EVENT_COVERAGE,
    RULE_DEDUP,
    RULE_PLACEMENT,
];

/// One diagnostic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative path of the file.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Rule id (one of the `RULE_*` constants).
    pub rule: &'static str,
    /// Human-readable description.
    pub message: String,
}

impl Finding {
    /// A finding without a file (the driver fills it in).
    pub fn new(rule: &'static str, line: u32, message: String) -> Finding {
        Finding {
            file: String::new(),
            line,
            rule,
            message,
        }
    }
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// The outcome of linting a workspace.
#[derive(Debug, Default)]
pub struct LintReport {
    /// Unsuppressed findings, sorted by (file, line, rule).
    pub findings: Vec<Finding>,
    /// Findings silenced by a justified `allow(...)` directive.
    pub suppressed: Vec<Finding>,
    /// Files scanned.
    pub files_scanned: usize,
}

impl LintReport {
    /// True when the workspace is clean (CI gate passes).
    pub fn clean(&self) -> bool {
        self.findings.is_empty()
    }
}

/// Which rules run for one file.
#[derive(Debug, Clone, Copy)]
pub struct RuleSet {
    /// Run [`RULE_BORROW`].
    pub borrow_across_await: bool,
    /// Run [`RULE_DETERMINISM`].
    pub determinism: bool,
    /// Run [`RULE_PERSIST`].
    pub persist_ordering: bool,
}

impl RuleSet {
    /// Everything on.
    pub fn all() -> RuleSet {
        RuleSet {
            borrow_across_await: true,
            determinism: true,
            persist_ordering: true,
        }
    }
}

/// Crates whose `src/` trees are never scanned: offline stand-ins for
/// crates.io dependencies (not our code), and the linter itself (its rule
/// fixtures intentionally trip the rules).
const EXCLUDED_CRATES: &[&str] = &["compat", "lint"];

/// Crates exempt from the determinism rule: `bench` measures *wall-clock*
/// run time of the whole sweep by design — it drives the simulator but is
/// not driven by it, so host-time reads there cannot perturb a replay.
const WALL_CLOCK_CRATES: &[&str] = &["bench"];

/// Crates that route, store and move metadata but must not decide where it
/// lives: [`RULE_PLACEMENT`] always runs on them, and only on them (the
/// shard map itself lives in `proto`, and `baselines` names each system's
/// policy).
const PLACEMENT_CALLER_CRATES: &[&str] = &["client", "core", "server"];

/// Lints a single file's source. `rules` selects the per-file rules;
/// dedup-under-lock always runs; event-coverage is workspace-level and
/// handled by [`lint_workspace`].
/// Returned findings have empty `file` fields and are not yet
/// suppression-filtered — [`apply_suppressions`] does that.
pub fn lint_source(source: &str, rules: RuleSet) -> (Vec<Finding>, Vec<Directive>) {
    let Lexed { tokens, directives } = lex(source);
    let tokens = strip_cfg_test(tokens);
    let mut findings = Vec::new();
    if rules.borrow_across_await {
        rules::borrow_across_await(&tokens, &mut findings);
    }
    if rules.determinism {
        rules::determinism(&tokens, &mut findings);
    }
    if rules.persist_ordering {
        rules::persist_ordering(&tokens, &mut findings);
    }
    rules::dedup_under_lock(&tokens, &mut findings);
    (findings, directives)
}

/// Splits `findings` into (kept, suppressed) using the file's directives,
/// and reports directive problems (malformed, missing reason) as findings.
///
/// A directive on line *N* covers findings on line *N* (trailing comment)
/// and line *N + 1* (comment on the preceding line), for the rules it
/// names.
pub fn apply_suppressions(
    findings: Vec<Finding>,
    directives: &[Directive],
) -> (Vec<Finding>, Vec<Finding>) {
    let mut kept = Vec::new();
    let mut suppressed = Vec::new();
    for d in directives {
        if !d.well_formed {
            kept.push(Finding::new(
                RULE_DIRECTIVE,
                d.line,
                format!(
                    "malformed suppression; expected `{} allow(<rule>, …) <reason>`",
                    lexer::DIRECTIVE_PREFIX
                ),
            ));
            continue;
        }
        for r in &d.rules {
            if !ALL_RULES.contains(&r.as_str()) {
                kept.push(Finding::new(
                    RULE_DIRECTIVE,
                    d.line,
                    format!("suppression names unknown rule `{r}`"),
                ));
            }
        }
        if d.reason.is_empty() {
            kept.push(Finding::new(
                RULE_DIRECTIVE,
                d.line,
                "suppression must carry a written justification after `allow(…)`".into(),
            ));
        }
    }
    for f in findings {
        let covered = directives.iter().any(|d| {
            d.well_formed
                && !d.reason.is_empty()
                && (d.line == f.line || d.line + 1 == f.line)
                && d.rules.iter().any(|r| r == f.rule)
        });
        if covered {
            suppressed.push(f);
        } else {
            kept.push(f);
        }
    }
    (kept, suppressed)
}

/// Recursively collects `.rs` files under `dir`, sorted for deterministic
/// reporting.
fn rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    if !dir.exists() {
        return Ok(());
    }
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            rs_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// The crates the analyzer walks: every `crates/<name>` with a `src/` tree
/// except [`EXCLUDED_CRATES`], plus the root umbrella crate's `src/`.
/// Returns `(crate name, src dir)` pairs, sorted by name.
pub fn workspace_targets(root: &Path) -> io::Result<Vec<(String, PathBuf)>> {
    let mut targets = Vec::new();
    let crates = root.join("crates");
    let mut names: Vec<String> = fs::read_dir(&crates)?
        .filter_map(|e| e.ok())
        .filter(|e| e.path().is_dir())
        .filter_map(|e| e.file_name().into_string().ok())
        .collect();
    names.sort();
    for name in names {
        if EXCLUDED_CRATES.contains(&name.as_str()) {
            continue;
        }
        let src = crates.join(&name).join("src");
        if src.is_dir() {
            targets.push((name, src));
        }
    }
    targets.push(("switchfs".to_string(), root.join("src")));
    Ok(targets)
}

/// Lints the whole workspace rooted at `root` (the directory holding the
/// workspace `Cargo.toml`).
pub fn lint_workspace(root: &Path) -> io::Result<LintReport> {
    let mut report = LintReport::default();
    let mut emitted: BTreeSet<String> = BTreeSet::new();
    let mut obs_variants = Vec::new();
    let mut obs_directives: Vec<(String, Vec<Directive>)> = Vec::new();

    for (crate_name, src) in workspace_targets(root)? {
        let mut files = Vec::new();
        rs_files(&src, &mut files)?;
        let rules = RuleSet {
            borrow_across_await: true,
            determinism: !WALL_CLOCK_CRATES.contains(&crate_name.as_str()),
            persist_ordering: true,
        };
        for path in files {
            let source = fs::read_to_string(&path)?;
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .to_string_lossy()
                .replace('\\', "/");
            report.files_scanned += 1;
            let (mut findings, directives) = lint_source(&source, rules);
            let Lexed { tokens, .. } = lex(&source);
            let tokens = strip_cfg_test(tokens);
            if PLACEMENT_CALLER_CRATES.contains(&crate_name.as_str()) {
                rules::placement_in_one_module(&tokens, &mut findings);
            }
            if crate_name == "obs" {
                let variants = rules::event_kind_variants(&tokens);
                if !variants.is_empty() {
                    obs_variants = variants;
                    obs_directives.push((rel.clone(), directives.clone()));
                }
            } else {
                rules::event_kind_uses(&tokens, &mut emitted);
            }
            let (kept, suppressed) = apply_suppressions(std::mem::take(&mut findings), &directives);
            for mut f in kept {
                f.file = rel.clone();
                report.findings.push(f);
            }
            for mut f in suppressed {
                f.file = rel.clone();
                report.suppressed.push(f);
            }
        }
    }

    // Workspace-level rule: event coverage. Findings anchor at the variant
    // definition; suppressions therefore live in the obs source.
    let mut coverage = Vec::new();
    rules::event_coverage(&obs_variants, &emitted, &mut coverage);
    for (file, directives) in &obs_directives {
        let (kept, suppressed) = apply_suppressions(std::mem::take(&mut coverage), directives);
        coverage = Vec::new();
        for mut f in kept {
            // Directive-health findings for obs were already reported by the
            // per-file pass; keep only the coverage findings here.
            if f.rule != RULE_EVENT_COVERAGE {
                continue;
            }
            f.file = file.clone();
            report.findings.push(f);
        }
        for mut f in suppressed {
            f.file = file.clone();
            report.suppressed.push(f);
        }
    }

    report
        .findings
        .sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    report
        .suppressed
        .sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    Ok(report)
}

/// Ascends from `start` to the directory whose `Cargo.toml` declares the
/// workspace.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if manifest.is_file() {
            if let Ok(text) = fs::read_to_string(&manifest) {
                if text.contains("[workspace]") {
                    return Some(d);
                }
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}
