//! The lint rules. Each rule consumes the (cfg(test)-stripped) token stream
//! of one file and appends [`Finding`]s; `event-coverage` additionally
//! correlates across files.

use crate::lexer::{TokKind, Token};
use crate::{
    Finding, RULE_BORROW, RULE_DEDUP, RULE_DETERMINISM, RULE_EVENT_COVERAGE, RULE_PERSIST,
};

// ---------------------------------------------------------------------------
// borrow-across-await
// ---------------------------------------------------------------------------

/// A live `RefCell` guard the scope tracker is watching.
#[derive(Debug)]
struct Guard {
    /// Binding name (`let g = x.borrow_mut();`) or a description for
    /// scrutinee temporaries (`match x.borrow() { … }`).
    name: String,
    /// Index into the scope stack of the block the guard lives in.
    scope: usize,
    /// Line the guard was taken on.
    line: u32,
}

/// One entry of the block-scope stack.
#[derive(Debug)]
struct Scope {
    /// Guards bound directly in this block die at its closing brace.
    /// (Kept implicitly via `Guard::scope`.)
    ///
    /// `barrier` cuts guard visibility: the body of a nested `fn` or an
    /// `async` block executes on its own stack frame / future, so guards
    /// from enclosing scopes are not held across its awaits *at this site*
    /// (if the enclosing guard is still live when the future is awaited,
    /// the await of that future is flagged instead).
    barrier: bool,
}

/// Header state for `match` / `if let` / `while let` / `for` scrutinees:
/// temporaries created in the scrutinee live for the whole block, so a
/// `borrow()` there is a guard over the entire body.
#[derive(Debug)]
struct Header {
    /// Paren depth when the header keyword was seen; its body `{` opens at
    /// this depth.
    paren_depth: i32,
    /// True once a `borrow()` / `borrow_mut()` call was seen in the header.
    borrowed: bool,
    /// Line of the borrow call.
    borrow_line: u32,
    /// Which construct, for the message.
    keyword: &'static str,
}

/// Tracks a `let` statement from the `let` keyword to its terminating `;`.
#[derive(Debug)]
struct LetStmt {
    /// Brace depth the statement began at (its `;` terminates there).
    brace_depth: i32,
    /// Paren depth the statement began at.
    paren_depth: i32,
    /// The bound name, when the pattern is a simple `[mut] ident`.
    name: Option<String>,
    /// Line of the `let`.
    line: u32,
    /// True once the pattern's `=` was crossed.
    seen_eq: bool,
}

/// Detects `RefCell` borrow guards held across `.await` points.
///
/// Three detectors, all scope-tracked with a brace stack:
/// - **let-bound guards**: `let g = …borrow_mut();` stays live until its
///   block closes or an explicit `drop(g)` — any `.await` in between is a
///   latent `BorrowMutError` under a rare interleaving.
/// - **same-statement temporaries**: `f(x.borrow().y).await` holds the
///   temporary `Ref` until the end of the whole statement, across the await.
/// - **scrutinee temporaries**: `match x.borrow() { … }` (and `if let` /
///   `while let` / `for` headers) keep the guard alive for every arm, so an
///   await inside the body is flagged.
pub fn borrow_across_await(tokens: &[Token], findings: &mut Vec<Finding>) {
    let mut scopes: Vec<Scope> = vec![Scope { barrier: true }];
    let mut guards: Vec<Guard> = Vec::new();
    let mut headers: Vec<Header> = Vec::new();
    let mut let_stmt: Option<LetStmt> = None;
    let mut paren_depth: i32 = 0;
    // Pending "fn body opens a barrier scope": set at `fn`, consumed by the
    // next `{` at the recorded paren depth.
    let mut fn_pending: Option<i32> = None;
    // Pending "async block opens a barrier scope".
    let mut async_pending = false;
    // Detector 2 state: a borrow call seen since the last statement
    // boundary (`;`, `{`, `}`).
    let mut stmt_borrow: Option<u32> = None;

    let is_borrow_call = |i: usize| -> bool {
        tokens[i].is_punct('.')
            && tokens
                .get(i + 1)
                .is_some_and(|t| t.is_ident("borrow") || t.is_ident("borrow_mut"))
            && tokens.get(i + 2).is_some_and(|t| t.is_punct('('))
            && tokens.get(i + 3).is_some_and(|t| t.is_punct(')'))
    };

    let mut brace_depth: i32 = 0;
    let mut i = 0;
    while i < tokens.len() {
        let t = &tokens[i];

        // ---- statement boundaries for the same-statement detector ----
        // (`{` and `}` also reset it, in the brace handling below.)
        if t.is_punct(';') {
            stmt_borrow = None;
        }

        if t.is_ident("fn") {
            fn_pending = Some(paren_depth);
        } else if t.is_ident("async") {
            // `async fn` is handled via `fn`; `async {` / `async move {`
            // opens a barrier block.
            let next = tokens.get(i + 1);
            let next2 = tokens.get(i + 2);
            if next.is_some_and(|t| t.is_punct('{'))
                || (next.is_some_and(|t| t.is_ident("move"))
                    && next2.is_some_and(|t| t.is_punct('{')))
            {
                async_pending = true;
            }
        } else if t.is_ident("match") || t.is_ident("for") {
            headers.push(Header {
                paren_depth,
                borrowed: false,
                borrow_line: 0,
                keyword: if t.is_ident("match") { "match" } else { "for" },
            });
        } else if (t.is_ident("if") || t.is_ident("while"))
            && tokens.get(i + 1).is_some_and(|t| t.is_ident("let"))
        {
            headers.push(Header {
                paren_depth,
                borrowed: false,
                borrow_line: 0,
                keyword: if t.is_ident("if") {
                    "if let"
                } else {
                    "while let"
                },
            });
            // Do not treat the scrutinee `let` as a binding statement.
            i += 2;
            // Fall through to the next token after skipping `let`.
            continue;
        } else if t.is_ident("let") && let_stmt.is_none() {
            let mut name = None;
            let mut j = i + 1;
            if tokens.get(j).is_some_and(|t| t.is_ident("mut")) {
                j += 1;
            }
            if let Some(tok) = tokens.get(j) {
                if tok.kind == TokKind::Ident && !tok.is_ident("_") {
                    name = Some(tok.text.clone());
                }
            }
            let_stmt = Some(LetStmt {
                brace_depth,
                paren_depth,
                name,
                line: t.line,
                seen_eq: false,
            });
        } else if t.is_ident("drop")
            && tokens.get(i + 1).is_some_and(|t| t.is_punct('('))
            && tokens.get(i + 2).is_some_and(|t| t.kind == TokKind::Ident)
            && tokens.get(i + 3).is_some_and(|t| t.is_punct(')'))
        {
            let victim = &tokens[i + 2].text;
            guards.retain(|g| &g.name != victim);
        }

        // ---- borrow calls feed the same-statement detector and headers ----
        if is_borrow_call(i) {
            stmt_borrow = Some(tokens[i + 1].line);
            if let Some(h) = headers.last_mut() {
                if !h.borrowed {
                    h.borrowed = true;
                    h.borrow_line = tokens[i + 1].line;
                }
            }
        }

        // ---- awaits: check every detector ----
        if t.is_punct('.') && tokens.get(i + 1).is_some_and(|t| t.is_ident("await")) {
            let line = tokens[i + 1].line;
            if let Some(bline) = stmt_borrow {
                findings.push(Finding::new(
                    RULE_BORROW,
                    line,
                    format!(
                        "RefCell guard temporary from the borrow on line {bline} is still \
                         live at this `.await` (temporaries drop at the end of the full \
                         statement); bind the borrowed value first and drop the guard \
                         before awaiting"
                    ),
                ));
                // One report per statement is enough.
                stmt_borrow = None;
            }
            // Innermost barrier bounds which guards are visible here.
            let barrier_scope = scopes.iter().rposition(|s| s.barrier).unwrap_or(0);
            for g in guards.iter().filter(|g| g.scope >= barrier_scope) {
                findings.push(Finding::new(
                    RULE_BORROW,
                    line,
                    format!(
                        "RefCell guard `{}` (taken on line {}) is held across this \
                         `.await`; end its scope or `drop()` it before awaiting",
                        g.name, g.line
                    ),
                ));
            }
        }

        // ---- braces drive scopes, headers and guard lifetimes ----
        if t.is_punct('(') {
            paren_depth += 1;
        } else if t.is_punct(')') {
            paren_depth -= 1;
        } else if t.is_punct('{') {
            stmt_borrow = None;
            brace_depth += 1;
            let barrier = async_pending || fn_pending == Some(paren_depth);
            if fn_pending == Some(paren_depth) {
                fn_pending = None;
            }
            async_pending = false;
            scopes.push(Scope { barrier });
            // A header whose body opens at its own paren depth becomes a
            // scrutinee guard over this scope.
            if let Some(h) = headers.last() {
                if h.paren_depth == paren_depth {
                    let h = headers.pop().expect("checked non-empty");
                    if h.borrowed {
                        guards.push(Guard {
                            name: format!("<{} scrutinee>", h.keyword),
                            scope: scopes.len() - 1,
                            line: h.borrow_line,
                        });
                    }
                }
            }
        } else if t.is_punct('}') {
            stmt_borrow = None;
            brace_depth -= 1;
            if scopes.len() > 1 {
                scopes.pop();
                let cut = scopes.len();
                guards.retain(|g| g.scope < cut);
            }
        }

        // ---- let-statement bookkeeping ----
        if let Some(ls) = &mut let_stmt {
            if t.is_punct('=')
                && !ls.seen_eq
                && !tokens.get(i + 1).is_some_and(|t| t.is_punct('='))
                && !tokens.get(i.wrapping_sub(1)).is_some_and(|t| {
                    t.is_punct('=') || t.is_punct('!') || t.is_punct('<') || t.is_punct('>')
                })
            {
                ls.seen_eq = true;
            }
            if t.is_punct(';') && brace_depth == ls.brace_depth && paren_depth == ls.paren_depth {
                // Statement over: does the initializer end with a borrow
                // call? Tail shape: `. borrow|borrow_mut ( ) ;`
                let ends_with_borrow = i >= 4
                    && tokens[i - 1].is_punct(')')
                    && tokens[i - 2].is_punct('(')
                    && (tokens[i - 3].is_ident("borrow") || tokens[i - 3].is_ident("borrow_mut"))
                    && tokens[i - 4].is_punct('.');
                if ends_with_borrow && ls.seen_eq {
                    if let Some(name) = ls.name.clone() {
                        guards.push(Guard {
                            name,
                            scope: scopes.len() - 1,
                            line: ls.line,
                        });
                    }
                }
                let_stmt = None;
            }
        }

        i += 1;
    }
}

// ---------------------------------------------------------------------------
// determinism
// ---------------------------------------------------------------------------

/// Flags nondeterminism-prone constructs in sim-facing code: `HashMap` /
/// `HashSet` with the default (randomly seeded) hasher, wall-clock time
/// sources, and OS-entropy RNGs. The simulation must replay bit-identically
/// from a seed; all of these smuggle per-process state into it.
pub fn determinism(tokens: &[Token], findings: &mut Vec<Finding>) {
    let mut i = 0;
    while i < tokens.len() {
        let t = &tokens[i];
        if t.kind == TokKind::Ident {
            match t.text.as_str() {
                "HashMap" | "HashSet" => {
                    let min_args = if t.text == "HashMap" { 3 } else { 2 };
                    if !has_explicit_hasher(tokens, i + 1, min_args) {
                        findings.push(Finding::new(
                            RULE_DETERMINISM,
                            t.line,
                            format!(
                                "std::collections::{} with the default RandomState hasher \
                                 is seeded per process — iteration order breaks replay \
                                 bit-identity; use FxHashMap/FxHashSet (switchfs_simnet) \
                                 or a BTree collection",
                                t.text
                            ),
                        ));
                    }
                }
                "Instant" => {
                    findings.push(Finding::new(
                        RULE_DETERMINISM,
                        t.line,
                        "std::time::Instant reads the wall clock; sim-facing code must \
                         use virtual time (SimTime / SimHandle::now)"
                            .into(),
                    ));
                }
                "SystemTime" => {
                    findings.push(Finding::new(
                        RULE_DETERMINISM,
                        t.line,
                        "SystemTime reads the wall clock; sim-facing code must use \
                         virtual time (SimTime / SimHandle::now)"
                            .into(),
                    ));
                }
                "thread_rng" | "from_entropy" => {
                    findings.push(Finding::new(
                        RULE_DETERMINISM,
                        t.line,
                        format!(
                            "`{}` draws OS entropy; sim-facing code must derive all \
                             randomness from the run's seed",
                            t.text
                        ),
                    ));
                }
                "random"
                    if i >= 2
                        && tokens[i - 1].is_punct(':')
                        && tokens[i - 2].is_punct(':')
                        && tokens
                            .get(i.wrapping_sub(3))
                            .is_some_and(|t| t.is_ident("rand")) =>
                {
                    findings.push(Finding::new(
                        RULE_DETERMINISM,
                        t.line,
                        "`rand::random` draws OS entropy; sim-facing code must derive \
                         all randomness from the run's seed"
                            .into(),
                    ));
                }
                _ => {}
            }
        }
        i += 1;
    }
}

/// True when the identifier at `start-1` is followed by `<…>` carrying at
/// least `min_args` top-level generic arguments (i.e. an explicit hasher).
fn has_explicit_hasher(tokens: &[Token], start: usize, min_args: usize) -> bool {
    let Some(t) = tokens.get(start) else {
        return false;
    };
    // `HashMap::<…>` turbofish: skip the `::`.
    let mut j = start;
    if t.is_punct(':') && tokens.get(start + 1).is_some_and(|t| t.is_punct(':')) {
        if tokens.get(start + 2).is_some_and(|t| t.is_punct('<')) {
            j = start + 2;
        } else {
            return false;
        }
    } else if !t.is_punct('<') {
        return false;
    }
    // Count top-level commas between the matching angle brackets.
    let mut angle = 0i32;
    let mut paren = 0i32;
    let mut args = 1usize;
    let mut saw_any = false;
    while j < tokens.len() {
        let t = &tokens[j];
        if t.is_punct('<')
            && !tokens
                .get(j.wrapping_sub(1))
                .is_some_and(|p| p.is_punct('-'))
        {
            angle += 1;
        } else if t.is_punct('>')
            && !tokens
                .get(j.wrapping_sub(1))
                .is_some_and(|p| p.is_punct('-'))
        {
            angle -= 1;
            if angle == 0 {
                return saw_any && args >= min_args;
            }
        } else if t.is_punct('(') {
            paren += 1;
        } else if t.is_punct(')') {
            paren -= 1;
        } else if t.is_punct(',') && angle == 1 && paren == 0 {
            args += 1;
        } else if angle >= 1 {
            saw_any = true;
        }
        j += 1;
    }
    false
}

// ---------------------------------------------------------------------------
// persist-ordering
// ---------------------------------------------------------------------------

/// Methods whose call releases information onto the network. A flush must
/// precede any of these once an ordering-critical record was appended.
const SEND_FAMILY: &[&str] = &[
    "send",
    "send_plain",
    "send_dirty",
    "send_with_ack",
    "send_to",
    "multicast_plain",
    "respond",
    "reply",
];

/// Enforces WAL persist ordering at protocol barriers: any function that
/// appends an ordering-critical record (a 2PC [`TxnMarker`], a shard
/// [`MigrationMarker`], or a durable completion) must `flush()` it before
/// any network send in the same body — otherwise a crash in the window
/// leaves remote state ahead of local durable state (the torn-tail
/// asymmetry PR 6 audited by hand).
pub fn persist_ordering(tokens: &[Token], findings: &mut Vec<Finding>) {
    let mut i = 0;
    while i < tokens.len() {
        if tokens[i].is_ident("fn") {
            if let Some((body_start, body_end)) = fn_body(tokens, i) {
                check_fn_persist(&tokens[body_start..body_end], findings);
                // Continue *inside* the body too (nested fns are rare but
                // cheap to cover) — advance past the `fn` keyword only.
            }
        }
        i += 1;
    }
}

/// Finds the body of the fn whose `fn` keyword sits at `i`; returns token
/// index range (exclusive of the braces).
fn fn_body(tokens: &[Token], i: usize) -> Option<(usize, usize)> {
    let mut j = i + 1;
    let mut paren = 0i32;
    // Scan the signature for the opening brace at paren depth 0.
    while j < tokens.len() {
        let t = &tokens[j];
        if t.is_punct('(') {
            paren += 1;
        } else if t.is_punct(')') {
            paren -= 1;
        } else if t.is_punct(';') && paren == 0 {
            return None; // trait method declaration without a body
        } else if t.is_punct('}') && paren == 0 {
            return None; // `fn` pointer type inside a struct/enum, not an item
        } else if t.is_punct('{') && paren == 0 {
            break;
        }
        j += 1;
    }
    if j >= tokens.len() {
        return None;
    }
    let start = j + 1;
    let mut depth = 1i32;
    j += 1;
    while j < tokens.len() {
        if tokens[j].is_punct('{') {
            depth += 1;
        } else if tokens[j].is_punct('}') {
            depth -= 1;
            if depth == 0 {
                return Some((start, j));
            }
        }
        j += 1;
    }
    None
}

fn check_fn_persist(body: &[Token], findings: &mut Vec<Finding>) {
    // Ordering-critical marker types present in this body?
    let critical = body.iter().enumerate().any(|(k, t)| {
        t.is_ident("TxnMarker")
            || t.is_ident("MigrationMarker")
            || (t.is_ident("WalOp")
                && body.get(k + 1).is_some_and(|t| t.is_punct(':'))
                && body.get(k + 2).is_some_and(|t| t.is_punct(':'))
                && body.get(k + 3).is_some_and(|t| {
                    t.is_ident("txn") || t.is_ident("completion") || t.is_ident("migration")
                }))
    });
    if !critical {
        return;
    }
    // Append-family calls on a WAL receiver: `…wal.append…(`.
    let appends: Vec<usize> = (0..body.len())
        .filter(|&k| {
            body[k].is_ident("wal")
                && body.get(k + 1).is_some_and(|t| t.is_punct('.'))
                && body
                    .get(k + 2)
                    .is_some_and(|t| t.kind == TokKind::Ident && t.text.starts_with("append"))
                && body.get(k + 3).is_some_and(|t| t.is_punct('('))
        })
        .collect();
    for &a in &appends {
        let flush_at = (a..body.len()).find(|&k| {
            body[k].is_punct('.')
                && body.get(k + 1).is_some_and(|t| t.is_ident("flush"))
                && body.get(k + 2).is_some_and(|t| t.is_punct('('))
        });
        let send_at = (a..body.len()).find(|&k| {
            body[k].is_punct('.')
                && body.get(k + 1).is_some_and(|t| {
                    t.kind == TokKind::Ident && SEND_FAMILY.contains(&t.text.as_str())
                })
                && body.get(k + 2).is_some_and(|t| t.is_punct('('))
        });
        match (flush_at, send_at) {
            (None, _) => findings.push(Finding::new(
                RULE_PERSIST,
                body[a].line,
                "ordering-critical WAL append (TxnMarker / MigrationMarker / durable \
                 completion) is never flushed in this function; a crash in the window \
                 can lose the record after its effects escaped"
                    .into(),
            )),
            (Some(f), Some(s)) if s < f => findings.push(Finding::new(
                RULE_PERSIST,
                body[s + 1].line,
                format!(
                    "network send before the flush of the ordering-critical WAL append \
                     on line {}; flush at the protocol barrier first",
                    body[a].line
                ),
            )),
            _ => {}
        }
    }
}

// ---------------------------------------------------------------------------
// dedup-under-lock
// ---------------------------------------------------------------------------

/// The directory-update gate: the only function allowed to consult the
/// change-log duplicate-suppression set.
pub const DEDUP_GATE_FN: &str = "apply_dir_updates";

/// The duplicate check the gate owns.
const DEDUP_CHECK_FN: &str = "entry_already_applied";

/// Keeps the change-log duplicate check inside the directory-update gate.
/// The gate's caller holds the fingerprint-group write lock, so the check,
/// the effects and the logged apply are one critical section; a check made
/// anywhere else (typically before the lock is awaited) lets a second copy
/// of an entry pass before the first is recorded — the check-then-act
/// window that re-applied duplicate remote directory updates.
pub fn dedup_under_lock(tokens: &[Token], findings: &mut Vec<Finding>) {
    // (body start, body end, fn name) of every fn with a body; nested fns
    // sit inside their parent's range, so the innermost range wins.
    let fns: Vec<(usize, usize, &str)> = (0..tokens.len())
        .filter(|&i| tokens[i].is_ident("fn"))
        .filter_map(|i| {
            let name = tokens.get(i + 1).filter(|t| t.kind == TokKind::Ident)?;
            let (start, end) = fn_body(tokens, i)?;
            Some((start, end, name.text.as_str()))
        })
        .collect();
    for k in 1..tokens.len() {
        let is_call = tokens[k].is_ident(DEDUP_CHECK_FN)
            && (tokens[k - 1].is_punct('.') || tokens[k - 1].is_punct(':'))
            && tokens.get(k + 1).is_some_and(|t| t.is_punct('('));
        if !is_call {
            continue;
        }
        let enclosing = fns
            .iter()
            .filter(|(start, end, _)| (*start..*end).contains(&k))
            .min_by_key(|(start, end, _)| end - start)
            .map(|(_, _, name)| *name);
        if enclosing != Some(DEDUP_GATE_FN) {
            findings.push(Finding::new(
                RULE_DEDUP,
                tokens[k].line,
                format!(
                    "`{DEDUP_CHECK_FN}` called outside `{DEDUP_GATE_FN}`; the duplicate \
                     check must run in the gate, under the fp-group write lock, or a \
                     second copy of an entry can pass it before the first is applied"
                ),
            ));
        }
    }
}

// ---------------------------------------------------------------------------
// event-coverage
// ---------------------------------------------------------------------------

/// One `EventKind` enum variant, by name and defining line.
#[derive(Debug, Clone)]
pub struct EventVariant {
    /// Variant name.
    pub name: String,
    /// 1-based line of the variant in the obs source.
    pub line: u32,
}

/// Extracts the variants of `pub enum EventKind { … }` from the obs crate's
/// token stream.
pub fn event_kind_variants(tokens: &[Token]) -> Vec<EventVariant> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        if tokens[i].is_ident("enum") && tokens.get(i + 1).is_some_and(|t| t.is_ident("EventKind"))
        {
            // Find the `{` (skipping generics, none expected).
            let mut j = i + 2;
            while j < tokens.len() && !tokens[j].is_punct('{') {
                j += 1;
            }
            let mut depth = 0i32;
            let mut expect_variant = true;
            while j < tokens.len() {
                let t = &tokens[j];
                if t.is_punct('{') || t.is_punct('(') || t.is_punct('[') {
                    depth += 1;
                } else if t.is_punct('}') || t.is_punct(')') || t.is_punct(']') {
                    depth -= 1;
                    if depth == 0 {
                        return out;
                    }
                    if depth == 1 {
                        // closed a struct/tuple variant's field list
                        expect_variant = false;
                    }
                } else if depth == 1 {
                    if t.is_punct(',') {
                        expect_variant = true;
                    } else if t.is_punct('#') {
                        // attribute on the next variant: skip `#[…]`
                        let mut d = 0i32;
                        while j < tokens.len() {
                            if tokens[j].is_punct('[') {
                                d += 1;
                            } else if tokens[j].is_punct(']') {
                                d -= 1;
                                if d == 0 {
                                    break;
                                }
                            }
                            j += 1;
                        }
                    } else if expect_variant && t.kind == TokKind::Ident {
                        out.push(EventVariant {
                            name: t.text.clone(),
                            line: t.line,
                        });
                        expect_variant = false;
                    }
                }
                j += 1;
            }
            return out;
        }
        i += 1;
    }
    out
}

/// Collects the set of `EventKind::Variant` constructions in a token stream
/// (an emission site, when the stream comes from outside `crates/obs`).
pub fn event_kind_uses(tokens: &[Token], into: &mut std::collections::BTreeSet<String>) {
    for k in 0..tokens.len() {
        if tokens[k].is_ident("EventKind")
            && tokens.get(k + 1).is_some_and(|t| t.is_punct(':'))
            && tokens.get(k + 2).is_some_and(|t| t.is_punct(':'))
        {
            if let Some(v) = tokens.get(k + 3) {
                if v.kind == TokKind::Ident {
                    into.insert(v.text.clone());
                }
            }
        }
    }
}

/// Reports every [`EventKind`] variant that is never constructed outside the
/// obs crate: an event vocabulary entry nobody emits is a blind spot —
/// exactly where a divergence hides (the recovery replay path taught us
/// that).
pub fn event_coverage(
    variants: &[EventVariant],
    used: &std::collections::BTreeSet<String>,
    findings: &mut Vec<Finding>,
) {
    for v in variants {
        if !used.contains(&v.name) {
            findings.push(Finding::new(
                RULE_EVENT_COVERAGE,
                v.line,
                format!(
                    "EventKind::{} is never emitted outside crates/obs; either \
                     instrument the protocol site it names or remove the variant",
                    v.name
                ),
            ));
        }
    }
}
