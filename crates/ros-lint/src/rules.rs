//! The rule engine: stable rule IDs and the checks.
//!
//! Two rule shapes exist. *Per-file* rules see one analyzed file at a
//! time (`typed-conversions`, `typed-db-params`, `nondet-iter`).
//! *Workspace* rules see every file at once (`dead-pub` builds a
//! cross-crate reference graph; the hot-path and lock rules run over
//! the call and lock graphs). All rules work on the token
//! stream from [`crate::lexer`] — string literals, comments, and
//! `#[cfg(test)]` regions cannot fool them the way they fooled the old
//! line scanner.
//!
//! The generic conventions (unwrap, panic, print, raw casts, raw
//! spawns, wall-clock reads, float equality, pub docs) are rustc and
//! clippy lints configured in the root `Cargo.toml`, not rules here.
//! Rule IDs are stable: they name the `lint: allow-<rule>(reason)`
//! markers and the report tags.

use std::collections::{BTreeMap, BTreeSet, HashSet};

use crate::callgraph;
use crate::engine::{FileAnalysis, FileRole};
use crate::lexer::TokenKind;
use crate::lockgraph;
use crate::scan::{Item, ItemKind, Visibility};
use crate::syntax::{self, CodeView as View};

/// Static description of one rule.
// lint: allow-dead-pub(element of RULES and returned by rule(); callers read fields, never the name)
pub struct RuleInfo {
    /// Stable identifier (report tag, `--explain` key).
    pub id: &'static str,
    /// One-line summary for reports and docs.
    pub summary: &'static str,
    /// Why the rule exists — which workspace invariant it guards
    /// (`xtask lint --explain` prints this).
    pub rationale: &'static str,
    /// How to fix a finding (including the marker escape, if any).
    pub fix: &'static str,
}

/// The rule catalog, in report order: the unit-safety and API rules
/// on the token stream, then the rules built on the semantic layer
/// ([`crate::syntax`] / [`crate::callgraph`] / [`crate::lockgraph`]).
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        id: "typed-conversions",
        summary: "inline dB/angle conversion idioms forbidden outside ros_em::units",
        rationale: "Sign/factor errors in hand-rolled dB and angle math caused real \
                    regressions; one audited module owns the formulas.",
        fix: "Go through ros_em::units (Degrees/Radians, DbPower/DbAmplitude) or \
              ros_em::db.",
    },
    RuleInfo {
        id: "typed-db-params",
        summary: "public fns must not take bare f64 *_db/*_deg parameters",
        rationale: "A bare f64 named `gain_db` invites callers to pass linear gain; \
                    the typed wrappers make the unit part of the signature.",
        fix: "Take ros_em::units::Db / Degrees instead of f64.",
    },
    RuleInfo {
        id: "dead-pub",
        summary: "pub library items must be referenced from another crate, tests, or examples",
        rationale: "Unreferenced API surface rots silently — it compiles, is never \
                    exercised, and constrains refactors for no benefit. Any identifier \
                    of the same name counts as a reference to an item, except for a \
                    `pub mod`: a module counts as referenced only where its name is a \
                    path segment (`m::x`, `a::m`) or sits in a `use` declaration, so a \
                    same-named method or field cannot keep an orphan module alive.",
        fix: "Delete it, demote to pub(crate), or mark `lint: allow-dead-pub(reason)` \
              with the keep justification. A module that outside code reaches only \
              through crate-root `pub use` re-exports should be a private `mod`.",
    },
    RuleInfo {
        id: "nondet-iter",
        summary: "HashMap/HashSet iteration forbidden in library crates (order is random)",
        rationale: "Hash iteration order changes run to run, so any hash-ordered loop \
                    that reaches a golden trace or accumulation order breaks \
                    bit-identical determinism (the PR 5 cache-temperature incident).",
        fix: "Use BTreeMap/BTreeSet, or collect-and-sort before iterating; mark a \
              provably order-free loop with `lint: allow-nondet-iter(reason)`.",
    },
    RuleInfo {
        id: "alloc-in-hot-path",
        summary: "allocation idioms forbidden in fns reachable from `lint: hot-path` entries",
        rationale: "ROADMAP item 2 targets zero allocations per steady-state frame on \
                    the capture→detect→decode path; the call-graph closure from the \
                    annotated entry points is that path, statically.",
        fix: "Hoist the allocation into a constructor/scratch buffer, or mark \
              `lint: allow-alloc(reason)` for setup-only code.",
    },
    RuleInfo {
        id: "lock-order",
        summary: "two locks acquired in opposite orders somewhere in the workspace",
        rationale: "Inconsistent acquisition order is the classic deadlock: each \
                    thread holds one lock and waits forever for the other. The \
                    sharded corridor workers share the geometry cache and channels at \
                    production rates, so an ordering bug that never fires under test \
                    load will fire on the road. The lock graph sees both direct \
                    nesting and locks taken inside callees (may-lock closure).",
        fix: "Pick one global acquisition order for the two locks and restructure \
              the deviating path (or release the first guard before taking the \
              second); a reviewed exception may mark \
              `lint: allow-lock-order(reason)`.",
    },
    RuleInfo {
        id: "blocking-under-lock",
        summary: "channel send/recv, Condvar wait, or a transitively-locking call \
                  while a guard from a different lock is live",
        rationale: "A bounded-channel send can block until a consumer drains; doing \
                    that while holding an unrelated guard stalls every thread queued \
                    on that lock — and if the consumer needs the same lock, the \
                    system deadlocks. Guard liveness comes from the brace tree; \
                    `Condvar::wait(g)` is exempt for `g`'s own lock because wait \
                    atomically releases it.",
        fix: "Drop the guard (end its scope or call drop) before the blocking \
              operation, or move the blocking call out of the critical section; a \
              reviewed exception may mark `lint: allow-blocking-under-lock(reason)`.",
    },
    RuleInfo {
        id: "guard-across-hot-call",
        summary: "a live lock guard spans a call into a `lint: hot-path` region",
        rationale: "The hot path is budgeted to run at hardware speed with zero \
                    steady-state allocation; entering it with a lock held serializes \
                    the parallel pipeline behind that lock and inverts the latency \
                    budget (ROADMAP item 2).",
        fix: "Copy what the critical section needs, release the guard, then call \
              into the hot region; setup-only code may mark \
              `lint: allow-guard-across-hot-call(reason)`.",
    },
    RuleInfo {
        id: "stale-suppression",
        summary: "a `lint: allow-*` or `lint: hot-path` marker no longer does anything",
        rationale: "A suppression that outlives its finding is a silent hole: the \
                    next real violation on that line inherits the stale excuse. \
                    Auditing markers keeps the escape hatches honest.",
        fix: "Delete the marker, or move it onto the line (or fn, for hot-path) it \
              was meant to annotate. Unknown `allow-<name>` markers are typos: fix \
              the rule name.",
    },
];

/// Looks a rule up by ID.
pub fn rule(id: &str) -> Option<&'static RuleInfo> {
    RULES.iter().find(|r| r.id == id)
}

/// One reported violation.
#[derive(Clone, Debug, PartialEq)]
pub struct Finding {
    /// Stable rule ID.
    pub rule: &'static str,
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// Human explanation.
    pub message: String,
}

/// The one file allowed to spell out raw dB/angle conversions.
const UNITS_MODULE: &str = "crates/ros-em/src/units.rs";

/// Runs every rule over the analyzed workspace; findings come back
/// sorted by (file, line, rule).
pub fn check_all(files: &[FileAnalysis]) -> Vec<Finding> {
    check_all_timed(files, None).0
}

/// [`check_all`] plus per-pass wall time: `(findings, callgraph_ns,
/// lockgraph_ns, rules_ns)`. The clock is injected by the driver
/// (see [`crate::engine::run_gate`]); `None` reports zeros.
pub fn check_all_timed(
    files: &[FileAnalysis],
    clock: Option<fn() -> u64>,
) -> (Vec<Finding>, u64, u64, u64) {
    let now = |c: Option<fn() -> u64>| c.map_or(0, |f| f());
    let t0 = now(clock);
    let graph = callgraph::build(files);
    let t1 = now(clock);
    let lg = lockgraph::build(files, &graph);
    let t2 = now(clock);

    let mut out = Vec::new();
    for fa in files.iter().filter(|f| f.role != FileRole::Reference) {
        check_file(fa, &mut out);
    }
    dead_pub(files, &mut out);
    alloc_in_hot_path(files, &graph, &mut out);
    lock_rules(files, &graph, &lg, &mut out);
    // Must run after every other rule: it audits which markers the
    // probes above actually consumed.
    stale_suppression(files, &mut out);
    out.sort_by(|a, b| {
        (&a.file, a.line, a.rule, &a.message).cmp(&(&b.file, b.line, b.rule, &b.message))
    });
    let t3 = now(clock);
    (
        out,
        t1.saturating_sub(t0),
        t2.saturating_sub(t1),
        t3.saturating_sub(t2),
    )
}

fn push(out: &mut Vec<Finding>, id: &'static str, fa: &FileAnalysis, line: usize, message: String) {
    out.push(Finding {
        rule: id,
        file: fa.rel.clone(),
        line,
        message,
    });
}

/// Runs the per-file rules over one file (the workspace rules run
/// from [`check_all`]).
pub fn check_file(fa: &FileAnalysis, out: &mut Vec<Finding>) {
    let v = View::new(fa);
    typed_conversions(&v, out);
    typed_db_params(fa, out);
    nondet_iter(&v, out);
}

/// Literal receivers of `.powf(` that spell a dB-to-linear conversion.
const DB_BASE_LITERALS: &[&str] = &["10f64", "10.0f64", "10.0", "10_f64", "10."];

/// Divisors inside `powf(x / …)` that mark the dB families.
const DB_DIVISORS: &[&str] = &["10.0", "20.0", "10_f64", "20_f64", "10.0f64", "20.0f64"];

fn typed_conversions(v: &View<'_>, out: &mut Vec<Finding>) {
    if v.fa.rel == UNITS_MODULE {
        return;
    }
    for ci in 0..v.len() {
        if v.in_test(ci) {
            continue;
        }
        // `.to_radians()` / `.to_degrees()`
        if v.is_punct(ci, ".")
            && v.ident_in(ci + 1, &["to_radians", "to_degrees"])
            && v.is_punct(ci + 2, "(")
        {
            push(
                out,
                "typed-conversions",
                v.fa,
                v.line(ci + 1),
                format!(
                    "inline `.{}()` conversion; go through ros_em::units \
                     (Degrees/Radians, DbPower/DbAmplitude) or ros_em::db",
                    v.text(ci + 1)
                ),
            );
        }
        if v.is_punct(ci, ".") && v.is_ident(ci + 1, "powf") && v.is_punct(ci + 2, "(") {
            // `10f64.powf(…)`-style literal base.
            if ci > 0
                && matches!(v.kind(ci - 1), Some(TokenKind::Float | TokenKind::Int))
                && DB_BASE_LITERALS.contains(&v.text(ci - 1))
            {
                push(
                    out,
                    "typed-conversions",
                    v.fa,
                    v.line(ci + 1),
                    format!(
                        "inline `{}.powf(` conversion; go through ros_em::units or \
                         ros_em::db",
                        v.text(ci - 1)
                    ),
                );
            }
            // `powf(x / 10.0)` / `powf(x / 20.0)` dB idiom: scan the
            // argument group for `/ <10|20>)` at any nesting.
            let mut depth = 0usize;
            let mut cj = ci + 2;
            while cj < v.len() {
                if v.is_punct(cj, "(") {
                    depth += 1;
                } else if v.is_punct(cj, ")") {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                if v.is_punct(cj, "/")
                    && v.kind(cj + 1) == Some(TokenKind::Float)
                    && DB_DIVISORS.contains(&v.text(cj + 1))
                    && v.is_punct(cj + 2, ")")
                {
                    push(
                        out,
                        "typed-conversions",
                        v.fa,
                        v.line(cj),
                        "inline dB-to-linear `powf(x / 10.0|20.0)`; use \
                         ros_em::db::db_to_pow / db_to_lin or the units types"
                            .to_string(),
                    );
                }
                cj += 1;
            }
        }
    }
}

fn typed_db_params(fa: &FileAnalysis, out: &mut Vec<Finding>) {
    if !fa.is_library() {
        return;
    }
    for item in &fa.facts.items {
        if item.kind != ItemKind::Fn
            || item.vis != Visibility::Pub
            || item.in_test
            || item.in_trait_impl
        {
            continue;
        }
        let Some((sig_start, sig_end)) = item.sig else {
            continue;
        };
        // Walk the signature tokens for `<name>_db: f64` / `<name>_deg: f64`.
        let toks = &fa.tokens[sig_start..sig_end.min(fa.tokens.len())];
        for (k, t) in toks.iter().enumerate() {
            if t.kind != TokenKind::Ident {
                continue;
            }
            let name = t.text(&fa.text);
            let suffix = if name.ends_with("_db") {
                "_db"
            } else if name.ends_with("_deg") {
                "_deg"
            } else {
                continue;
            };
            // Next two non-trivia tokens must be `:` and `f64`.
            let mut rest = toks[k + 1..].iter().filter(|t| !t.is_trivia());
            let colon = rest.next();
            let ty = rest.next();
            let is_colon = colon.is_some_and(|t| {
                t.kind == TokenKind::Punct && t.text(&fa.text) == ":"
            });
            let is_f64 = ty.is_some_and(|t| {
                t.kind == TokenKind::Ident && t.text(&fa.text) == "f64"
            });
            if is_colon && is_f64 {
                push(
                    out,
                    "typed-db-params",
                    fa,
                    item.line,
                    format!(
                        "public fn takes bare `{name}: f64`; use `ros_em::units::{}`",
                        if suffix == "_deg" { "Degrees" } else { "Db" }
                    ),
                );
            }
        }
    }
}

/// Iteration adaptors whose visit order follows the hash map's
/// internal state.
const NONDET_ITER_METHODS: &[&str] = &[
    "drain", "into_iter", "into_keys", "into_values", "iter", "iter_mut", "keys", "retain",
    "values", "values_mut",
];

/// Flags order-nondeterministic iteration over `HashMap`/`HashSet`
/// receivers in library code. Receivers are resolved by declared type
/// (bindings, params, statics) and by struct-field name — see
/// [`syntax::hash_bindings`] / [`syntax::hash_fields`]; no inference,
/// deliberate over-approximation with a marker escape.
fn nondet_iter(v: &View<'_>, out: &mut Vec<Finding>) {
    if !v.fa.is_library() {
        return;
    }
    let mut watched = syntax::hash_bindings(v, 0, v.len());
    watched.extend(syntax::hash_fields(v));
    if watched.is_empty() {
        return;
    }
    let flag = |out: &mut Vec<Finding>, line: usize, what: String| {
        if v.fa.has_marker(line, "lint: allow-nondet-iter(") {
            return;
        }
        push(
            out,
            "nondet-iter",
            v.fa,
            line,
            format!(
                "{what} iterates a HashMap/HashSet in hash (nondeterministic) order; \
                 use BTreeMap/BTreeSet or sort first, or mark an order-free loop with \
                 `lint: allow-nondet-iter(reason)`"
            ),
        );
    };
    for ci in 0..v.len() {
        if v.in_test(ci) {
            continue;
        }
        // `recv.iter()`-family on a watched receiver.
        if v.is_punct(ci, ".")
            && v.ident_in(ci + 1, NONDET_ITER_METHODS)
            && ci > 0
            && matches!(v.kind(ci - 1), Some(TokenKind::Ident))
            && watched.contains(v.text(ci - 1))
        {
            let after = syntax::skip_turbofish(v, ci + 2);
            if v.is_punct(after, "(") {
                flag(out, v.line(ci + 1), format!("`{}.{}()`", v.text(ci - 1), v.text(ci + 1)));
            }
        }
        // `for pat in <expr> {` whose iterated expression names a
        // watched binding.
        if v.is_ident(ci, "for") {
            // Locate `in` at bracket depth 0 (bounded by `{` / `;`).
            let mut j = ci + 1;
            let mut depth: isize = 0;
            let mut in_at = None;
            while j < v.len() {
                if v.kind(j) == Some(TokenKind::Punct) {
                    match v.text(j) {
                        "(" | "[" => depth += 1,
                        ")" | "]" => depth -= 1,
                        "{" | ";" if depth == 0 => break,
                        _ => {}
                    }
                } else if depth == 0 && v.is_ident(j, "in") {
                    in_at = Some(j);
                    break;
                }
                j += 1;
            }
            let Some(in_at) = in_at else { continue };
            // Scan the iterated expression for a watched name.
            let mut k = in_at + 1;
            let mut depth: isize = 0;
            while k < v.len() {
                if v.kind(k) == Some(TokenKind::Punct) {
                    match v.text(k) {
                        "(" | "[" => depth += 1,
                        ")" | "]" => depth -= 1,
                        "{" | ";" if depth == 0 => break,
                        _ => {}
                    }
                } else if matches!(v.kind(k), Some(TokenKind::Ident))
                    && watched.contains(v.text(k))
                {
                    flag(out, v.line(ci), format!("`for … in {}`", v.text(k)));
                    break;
                }
                k += 1;
            }
        }
    }
}

/// Constructor owners whose associated fns allocate.
const ALLOC_OWNERS: &[&str] = &["Box", "Vec"];

/// Allocating constructor names under [`ALLOC_OWNERS`].
const ALLOC_CTORS: &[&str] = &["from", "new", "with_capacity"];

/// Allocating method names (any receiver — no inference, deliberate
/// over-approximation behind the `allow-alloc` marker).
const ALLOC_METHODS: &[&str] = &["clone", "collect", "to_vec"];

/// Call-graph-propagated allocation lint: every fn reachable from a
/// `// lint: hot-path` entry point ([`callgraph::build`]) is scanned
/// for allocation idioms. Messages name the enclosing fn and the
/// deterministic witness entry.
fn alloc_in_hot_path(files: &[FileAnalysis], graph: &callgraph::CallGraph, out: &mut Vec<Finding>) {
    for (i, node) in graph.nodes.iter().enumerate() {
        let Some(witness) = graph.hot_witness(i) else { continue };
        let Some((bs, be)) = node.body else { continue };
        let fa = &files[node.file];
        let v = View::new(fa);
        let (cs, ce) = (v.ci_at_or_after(bs), v.ci_at_or_after(be));
        let mut sites: Vec<(usize, String)> = Vec::new();
        for call in syntax::calls_in(&v, cs, ce) {
            if call.method && ALLOC_METHODS.contains(&call.name.as_str()) {
                sites.push((call.line, format!(".{}()", call.name)));
            } else if !call.method
                && ALLOC_CTORS.contains(&call.name.as_str())
                && call.qualifier.as_deref().is_some_and(|q| ALLOC_OWNERS.contains(&q))
            {
                sites.push((call.line, format!("{}::{}", call.qualifier.unwrap_or_default(), call.name)));
            }
        }
        for ci in cs..ce.min(v.len()) {
            if v.is_ident(ci, "vec") && v.is_punct(ci + 1, "!") {
                sites.push((v.line(ci), "vec![…]".to_string()));
            }
        }
        sites.sort();
        for (line, pat) in sites {
            if fa.has_marker(line, "lint: allow-alloc(") {
                continue;
            }
            push(
                out,
                "alloc-in-hot-path",
                fa,
                line,
                format!(
                    "allocation `{pat}` in `{}` on the hot path from `{}`; hoist it \
                     into a constructor/scratch buffer or mark \
                     `lint: allow-alloc(reason)`",
                    node.qualified_name(),
                    witness.qualified_name()
                ),
            );
        }
    }
}

/// The three lock-graph rules — `lock-order`, `blocking-under-lock`,
/// `guard-across-hot-call` — over the events [`lockgraph::build`]
/// recovered. Messages name fns and canonical lock ids.
fn lock_rules(
    files: &[FileAnalysis],
    graph: &callgraph::CallGraph,
    lg: &lockgraph::LockGraph,
    out: &mut Vec<Finding>,
) {
    // Union of may-lock sets over a call's resolved callees.
    let callee_locks = |callees: &[usize]| -> BTreeSet<&str> {
        callees
            .iter()
            .flat_map(|&c| lg.may_lock[c].iter().map(String::as_str))
            .collect()
    };

    // lock-order: collect every directed (held, then-acquired) pair in
    // the workspace — direct nesting and acquisition inside a callee —
    // then flag the sites of any pair whose reverse also exists.
    let mut pairs: BTreeSet<(String, String)> = BTreeSet::new();
    let mut sites: BTreeSet<(usize, usize, String, String, Option<String>)> = BTreeSet::new();
    for (i, nl) in lg.per_node.iter().enumerate() {
        for acq in &nl.acquires {
            for h in &acq.held {
                if h.lock != acq.lock {
                    pairs.insert((h.lock.clone(), acq.lock.clone()));
                    sites.insert((i, acq.line, h.lock.clone(), acq.lock.clone(), None));
                }
            }
        }
        for cu in &nl.calls_under {
            for l in callee_locks(&cu.callees) {
                for h in &cu.held {
                    if h.lock != l {
                        pairs.insert((h.lock.clone(), l.to_string()));
                        sites.insert((
                            i,
                            cu.line,
                            h.lock.clone(),
                            l.to_string(),
                            Some(cu.callee.clone()),
                        ));
                    }
                }
            }
        }
    }
    for (i, line, first, second, via) in &sites {
        if !pairs.contains(&(second.clone(), first.clone())) {
            continue;
        }
        let node = &graph.nodes[*i];
        let fa = &files[node.file];
        if fa.has_marker(*line, "lint: allow-lock-order(") {
            continue;
        }
        let how = match via {
            Some(callee) => format!("may be acquired via `{callee}(…)`"),
            None => "is acquired".to_string(),
        };
        push(
            out,
            "lock-order",
            fa,
            *line,
            format!(
                "`{second}` {how} while `{first}` is held in `{}`, but the opposite \
                 order exists elsewhere in the workspace (potential deadlock); pick \
                 one global acquisition order or mark `lint: allow-lock-order(reason)`",
                node.qualified_name()
            ),
        );
    }

    // blocking-under-lock and guard-across-hot-call, per node.
    for (i, nl) in lg.per_node.iter().enumerate() {
        let node = &graph.nodes[i];
        let fa = &files[node.file];
        for b in &nl.blocking {
            // `Condvar::wait(g)` atomically releases `g`'s own lock:
            // only *other* live guards make the wait a finding.
            let held: Vec<&lockgraph::Held> = b
                .held
                .iter()
                .filter(|h| !(b.op == "wait" && b.wait_arg.is_some() && h.guard == b.wait_arg))
                .collect();
            let Some(h) = held.first() else { continue };
            if fa.has_marker(b.line, "lint: allow-blocking-under-lock(") {
                continue;
            }
            push(
                out,
                "blocking-under-lock",
                fa,
                b.line,
                format!(
                    "blocking `.{}(…)` on `{}` while a guard on `{}` is live in `{}`; \
                     the consumer may need that lock (deadlock) and every thread \
                     queued on it stalls — drop the guard first or mark \
                     `lint: allow-blocking-under-lock(reason)`",
                    b.op,
                    b.recv_name,
                    h.lock,
                    node.qualified_name()
                ),
            );
        }
        for cu in &nl.calls_under {
            let held_ids: BTreeSet<&str> = cu.held.iter().map(|h| h.lock.as_str()).collect();
            let extra: Vec<&str> = callee_locks(&cu.callees)
                .into_iter()
                .filter(|l| !held_ids.contains(l))
                .collect();
            if let (Some(first_extra), Some(h)) = (extra.first(), cu.held.first()) {
                if !fa.has_marker(cu.line, "lint: allow-blocking-under-lock(") {
                    push(
                        out,
                        "blocking-under-lock",
                        fa,
                        cu.line,
                        format!(
                            "call to `{}(…)` (which may acquire or block on \
                             `{first_extra}`) while a guard on `{}` is live in `{}`; \
                             drop the guard before the call or mark \
                             `lint: allow-blocking-under-lock(reason)`",
                            cu.callee,
                            h.lock,
                            node.qualified_name()
                        ),
                    );
                }
            }
            let hot = cu.callees.iter().find_map(|&c| graph.hot_witness(c));
            if let (Some(witness), Some(h)) = (hot, cu.held.first()) {
                if !fa.has_marker(cu.line, "lint: allow-guard-across-hot-call(") {
                    push(
                        out,
                        "guard-across-hot-call",
                        fa,
                        cu.line,
                        format!(
                            "guard on `{}` is live across a call to `{}(…)` on the \
                             hot path from `{}` in `{}`; release the guard before \
                             entering the hot region or mark \
                             `lint: allow-guard-across-hot-call(reason)`",
                            h.lock,
                            cu.callee,
                            witness.qualified_name(),
                            node.qualified_name()
                        ),
                    );
                }
            }
        }
    }
}

/// Marker names the rules consult, with the owning rule id —
/// `stale-suppression`'s registry for spotting typos.
const KNOWN_MARKERS: &[(&str, &str)] = &[
    ("alloc", "alloc-in-hot-path"),
    ("blocking-under-lock", "blocking-under-lock"),
    ("dead-pub", "dead-pub"),
    ("guard-across-hot-call", "guard-across-hot-call"),
    ("lock-order", "lock-order"),
    ("nondet-iter", "nondet-iter"),
];

/// Audits the suppression surface: every `lint: allow-*` marker whose
/// line no rule probe consumed this run, every `allow-<name>` naming
/// no known rule, and every `lint: hot-path` marker annotating no fn.
/// Runs last in [`check_all`] (marker use is recorded by the other
/// rules' probes). Doc comments are exempt — prose *about* markers is
/// not a marker — and so are test regions.
fn stale_suppression(files: &[FileAnalysis], out: &mut Vec<Finding>) {
    for fa in files.iter().filter(|f| f.role != FileRole::Reference) {
        let used = fa.used_markers.borrow();
        for (ti, t) in fa.tokens.iter().enumerate() {
            if !matches!(t.kind, TokenKind::LineComment | TokenKind::BlockComment) {
                continue;
            }
            if fa.facts.in_test.get(ti).copied().unwrap_or(false) {
                continue;
            }
            let body = t.text(&fa.text);
            let mut rest = body;
            while let Some(at) = rest.find("lint: allow-") {
                let after = &rest[at + "lint: allow-".len()..];
                let name: String = after
                    .chars()
                    .take_while(|c| c.is_ascii_lowercase() || *c == '-')
                    .collect();
                rest = &after[name.len()..];
                match KNOWN_MARKERS.iter().find(|(m, _)| *m == name) {
                    None => push(
                        out,
                        "stale-suppression",
                        fa,
                        t.line,
                        format!(
                            "unknown suppression marker `lint: allow-{name}(…)`; no \
                             rule consults it — fix the marker name or remove it"
                        ),
                    ),
                    Some((_, rule_id)) => {
                        if !used.contains(&t.line) {
                            push(
                                out,
                                "stale-suppression",
                                fa,
                                t.line,
                                format!(
                                    "`lint: allow-{name}(…)` suppresses nothing (rule \
                                     `{rule_id}` reports no finding on this line or \
                                     the one below); remove the stale marker"
                                ),
                            );
                        }
                    }
                }
            }
            if fa.is_library() && body.contains(callgraph::HOT_PATH_MARKER) {
                let l = t.line;
                let annotates = fa.facts.items.iter().any(|it| {
                    it.kind == ItemKind::Fn
                        && !it.in_test
                        && !it.name.is_empty()
                        && (it.line == l || it.line == l + 1)
                });
                if !annotates {
                    push(
                        out,
                        "stale-suppression",
                        fa,
                        l,
                        format!(
                            "`{}` marker annotates no function (no fn on this line \
                             or the next); move it onto the entry fn or remove it",
                            callgraph::HOT_PATH_MARKER
                        ),
                    );
                }
            }
        }
    }
}

fn item_kind_str(kind: ItemKind) -> &'static str {
    match kind {
        ItemKind::Fn => "fn",
        ItemKind::Struct => "struct",
        ItemKind::Enum => "enum",
        ItemKind::Union => "union",
        ItemKind::Trait => "trait",
        ItemKind::TypeAlias => "type",
        ItemKind::Const => "const",
        ItemKind::Static => "static",
        ItemKind::Mod => "mod",
        ItemKind::Use => "use",
        ItemKind::MacroDef => "macro",
    }
}

/// Item kinds that must be referenced.
fn is_api_item(item: &Item) -> bool {
    !matches!(item.kind, ItemKind::Use)
        && !item.name.is_empty()
        && item.vis == Visibility::Pub
        && !item.in_test
        && !item.in_trait_impl
}

/// One reference set of the cross-crate graph: which identifiers occur
/// in each crate's non-test code, and which occur in test code or the
/// examples/tests trees. BTree containers for the per-crate side: the
/// membership queries are order-free, but ros-lint's own `nondet-iter`
/// rule judges this crate too, and `.iter().any` over a hash map below
/// would (rightly) trip it.
#[derive(Default)]
struct Refs<'a> {
    nontest: BTreeMap<&'a str, BTreeSet<&'a str>>,
    testref: HashSet<&'a str>,
}

impl<'a> Refs<'a> {
    fn insert(&mut self, krate: &'a str, test: bool, ident: &'a str) {
        if test {
            self.testref.insert(ident);
        } else {
            self.nontest.entry(krate).or_default().insert(ident);
        }
    }

    /// True when `name` occurs in test code or in a crate other than
    /// `krate`.
    fn reach(&self, krate: &str, name: &str) -> bool {
        self.testref.contains(name)
            || self
                .nontest
                .iter()
                .any(|(&c, set)| c != krate && set.contains(name))
    }
}

/// Cross-crate reference graph: a `pub` item in a library crate must
/// be referenced from another crate, from test code, or from the
/// examples/tests trees — otherwise it is dead API surface. Most items
/// count any same-named identifier as a reference; a `pub mod` counts
/// only a path occurrence (next to `::`, or inside a `use`
/// declaration), so a method or field that shares its name cannot keep
/// an orphan module alive.
fn dead_pub(files: &[FileAnalysis], out: &mut Vec<Finding>) {
    let mut any = Refs::default();
    let mut paths = Refs::default();
    for fa in files {
        let v = View::new(fa);
        let mut in_use = false;
        for ci in 0..v.len() {
            if v.is_punct(ci, ";") {
                in_use = false;
            }
            if !matches!(v.kind(ci), Some(TokenKind::Ident | TokenKind::RawIdent)) {
                continue;
            }
            in_use |= v.is_ident(ci, "use");
            let i = v.tok_idx(ci);
            let ident = fa.tokens[i].text(&fa.text).trim_start_matches("r#");
            let test =
                fa.role == FileRole::Reference || fa.facts.in_test.get(i).copied().unwrap_or(false);
            any.insert(&fa.crate_name, test, ident);
            if in_use || (ci > 0 && v.is_punct(ci - 1, "::")) || v.is_punct(ci + 1, "::") {
                paths.insert(&fa.crate_name, test, ident);
            }
        }
    }

    for fa in files.iter().filter(|f| f.is_library()) {
        for item in fa.facts.items.iter().filter(|i| is_api_item(i)) {
            let refs = if matches!(item.kind, ItemKind::Mod) { &paths } else { &any };
            if refs.reach(&fa.crate_name, &item.name) {
                continue;
            }
            // Marker probe after the reference check: a marker on a
            // referenced item suppresses nothing and must read stale.
            if fa.has_marker(item.line, "lint: allow-dead-pub(") {
                continue;
            }
            push(
                out,
                "dead-pub",
                fa,
                item.line,
                format!(
                    "pub {} `{}` is never referenced outside `{}`; demote to pub(crate), \
                     delete it, or mark `lint: allow-dead-pub(reason)`",
                    item_kind_str(item.kind),
                    item.name,
                    fa.crate_name
                ),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::FileAnalysis;

    fn fa(rel: &str, src: &str) -> FileAnalysis {
        let crate_name = rel.split('/').nth(1).unwrap_or("x").to_string();
        let role = if crate::engine::NON_LIBRARY_CRATES.contains(&crate_name.as_str()) {
            FileRole::Harness
        } else if rel.starts_with("tests/") {
            FileRole::Reference
        } else {
            FileRole::Library
        };
        FileAnalysis::new(rel.to_string(), crate_name, role, src.to_string())
    }

    /// `rule:line` strings from the per-file rules, legacy-test shape.
    fn hits_in(rel: &str, src: &str) -> Vec<String> {
        let mut out = Vec::new();
        check_file(&fa(rel, src), &mut out);
        out.iter().map(|v| format!("{}:{}", v.rule, v.line)).collect()
    }

    fn scan_str(src: &str) -> Vec<String> {
        hits_in("crates/ros-em/src/sample.rs", src)
    }

    /// `rule:line` strings from the full workspace pass over a
    /// constructed file set (cross-crate rules included).
    fn all_hits(files: &[FileAnalysis]) -> Vec<String> {
        check_all(files)
            .iter()
            .map(|v| format!("{}:{}:{}", v.rule, v.file, v.line))
            .collect()
    }

    #[test]
    fn flags_db_suffixed_f64_params_across_lines() {
        let src = "pub fn g(\n    gain_db: f64,\n    az_deg: f64,\n) -> f64 { gain_db + az_deg }\n";
        let hits = scan_str(src);
        assert_eq!(hits, ["typed-db-params:1", "typed-db-params:1"]);
    }

    #[test]
    fn typed_params_pass() {
        let src = "pub fn g(gain: Db, az: Degrees, d_m: f64, x_dbsm: f64) -> f64 { 0.0 }\n";
        assert!(scan_str(src).is_empty());
    }

    #[test]
    fn flags_inline_conversions_outside_units() {
        let hits = scan_str("fn f(a: f64) -> f64 { a.to_radians() }\n");
        assert_eq!(hits, ["typed-conversions:1"]);
        let hits = scan_str("fn f(a: f64) -> f64 { 10f64.powf(a / 10.0) }\n");
        assert_eq!(hits, ["typed-conversions:1", "typed-conversions:1"]);
    }

    #[test]
    fn units_module_may_convert() {
        let src = "fn f(a: f64) -> f64 { a.to_radians() }\n";
        assert!(hits_in("crates/ros-em/src/units.rs", src).is_empty());
    }

    #[test]
    fn block_comments_span_lines() {
        let src = "/*\n a.to_radians()\n*/\nfn f() {}\n";
        assert!(scan_str(src).is_empty());
    }

    #[test]
    fn code_resumes_after_test_block() {
        let src = "#[cfg(test)]\nmod tests {\n    fn t(a: f64) -> f64 { a.to_radians() }\n}\nfn f(a: f64) -> f64 { a.to_radians() }\n";
        assert_eq!(scan_str(src), ["typed-conversions:5"]);
    }

    // ---- structural cases the old line scanner got wrong ----

    #[test]
    fn char_double_quote_regression() {
        // The old Scanner treated `'"'` as opening a string and
        // swallowed the rest of the line, hiding the conversion.
        let src = "fn f(a: f64) -> f64 { let c = '\"'; a.to_radians() }\n";
        assert_eq!(scan_str(src), ["typed-conversions:1"]);
    }

    #[test]
    fn nested_block_comment_regression() {
        // The old Scanner closed the comment at the first `*/`.
        let src = "/* outer /* inner */ a.to_radians() */\nfn f() {}\n";
        assert!(scan_str(src).is_empty());
    }

    #[test]
    fn multi_hash_raw_string_regression() {
        // The old Scanner did not recognize `r##"…"##` at all.
        let src = "fn f() { let s = r##\"a.to_radians() \"# 10f64.powf(x)\"##; }\n";
        assert!(scan_str(src).is_empty());
    }

    // ---- dead-pub ----

    #[test]
    fn dead_pub_flags_unreferenced_api() {
        let dead = fa("crates/ros-em/src/s.rs", "//! m\n/// D.\npub fn orphan() {}\n");
        let hits = all_hits(&[dead]);
        assert_eq!(hits, ["dead-pub:crates/ros-em/src/s.rs:3"]);
    }

    #[test]
    fn dead_pub_alive_via_other_crate_tests_or_reference() {
        let api = "//! m\n/// D.\npub fn used_somewhere() {}\n";
        // Another crate's non-test code.
        let dead = fa("crates/ros-em/src/s.rs", api);
        let user = fa("crates/ros-dsp/src/u.rs", "//! m\nfn f() { ros_em::used_somewhere(); }\n");
        assert!(all_hits(&[dead, user]).iter().all(|h| !h.starts_with("dead-pub")));
        // A test region in the same crate.
        let dead = fa("crates/ros-em/src/s.rs", api);
        let tests = fa(
            "crates/ros-em/src/t.rs",
            "//! m\n#[cfg(test)]\nmod tests {\n    fn t() { super::used_somewhere(); }\n}\n",
        );
        assert!(all_hits(&[dead, tests]).iter().all(|h| !h.starts_with("dead-pub")));
        // The integration-test reference corpus.
        let dead = fa("crates/ros-em/src/s.rs", api);
        let reference = fa("tests/e2e.rs", "fn t() { ros_em::used_somewhere(); }\n");
        assert!(all_hits(&[dead, reference]).iter().all(|h| !h.starts_with("dead-pub")));
    }

    #[test]
    fn dead_pub_same_crate_nontest_use_does_not_count() {
        let src = "//! m\n/// D.\npub fn self_used() {}\nfn f() { self_used(); }\n";
        let f = fa("crates/ros-em/src/s.rs", src);
        assert!(all_hits(&[f]).iter().any(|h| h.starts_with("dead-pub")));
    }

    #[test]
    fn dead_pub_module_counts_only_path_references() {
        let module = "//! m\n/// D.\npub mod taper;\n";
        let dead_pub_hits = |files: &[FileAnalysis]| -> Vec<String> {
            all_hits(files)
                .into_iter()
                .filter(|h| h.starts_with("dead-pub"))
                .collect()
        };
        // A same-named method call in another crate does not reach the module.
        let api = fa("crates/ros-antenna/src/lib.rs", module);
        let method = fa("crates/core/src/u.rs", "//! m\nfn f(x: W) { x.taper(); }\n");
        assert_eq!(
            dead_pub_hits(&[api, method]),
            ["dead-pub:crates/ros-antenna/src/lib.rs:3"]
        );
        // A `use` path does, and so does an entry in a `use` group.
        for import in ["use ros_antenna::taper;", "use ros_antenna::{shaping, taper};"] {
            let api = fa("crates/ros-antenna/src/lib.rs", module);
            let user = fa("crates/core/src/u.rs", &format!("//! m\n{import}\n"));
            assert!(dead_pub_hits(&[api, user]).is_empty(), "{import}");
        }
    }

    #[test]
    fn dead_pub_marker_suppresses() {
        let src = "//! m\n/// D.\n// lint: allow-dead-pub(API symmetry)\npub fn kept() {}\n";
        let f = fa("crates/ros-em/src/s.rs", src);
        assert!(all_hits(&[f]).iter().all(|h| !h.starts_with("dead-pub")));
    }

    #[test]
    fn rules_catalog_is_consistent() {
        // Stable IDs: every rule resolvable, no duplicates; every rule
        // carries the --explain texts.
        let mut seen = std::collections::HashSet::new();
        for r in RULES {
            assert!(seen.insert(r.id), "duplicate rule id {}", r.id);
            assert_eq!(rule(r.id).map(|x| x.id), Some(r.id));
            assert!(!r.summary.is_empty());
            assert!(!r.rationale.is_empty(), "{} has no rationale", r.id);
            assert!(!r.fix.is_empty(), "{} has no fix guidance", r.id);
        }
        assert_eq!(RULES.len(), 9);
    }

    // ---- nondet-iter ----

    #[test]
    fn nondet_iter_flags_hash_iteration() {
        let src = "\
fn f(m: &HashMap<u32, u32>) {
    for (k, v) in m.iter() {}
}
";
        let hits = scan_str(src);
        // Both the `for … in` shape and the `.iter()` shape fire on
        // this site; one line, two lenses.
        assert!(hits.contains(&"nondet-iter:2".to_string()), "{hits:?}");
        assert_eq!(scan_str("fn f(s: HashSet<u8>) { let n: Vec<u8> = s.drain().collect(); }\n"), ["nondet-iter:1"]);
        let field = "\
struct S { cache: HashMap<u8, u8> }
fn f(s: &S) { for k in s.cache.keys() {} }
";
        assert!(scan_str(field).iter().any(|h| h == "nondet-iter:2"));
    }

    #[test]
    fn nondet_iter_clean_cases() {
        // BTree containers are ordered.
        assert!(scan_str("fn f(m: &BTreeMap<u32, u32>) { for (k, v) in m.iter() {} }\n").is_empty());
        // Membership queries do not iterate.
        assert!(scan_str("fn f(m: &HashMap<u32, u32>) -> bool { m.contains_key(&1) }\n").is_empty());
        // Test regions are exempt.
        let src = "#[cfg(test)]\nmod tests {\n    fn t(m: HashMap<u8, u8>) { for k in m.keys() {} }\n}\n";
        assert!(scan_str(src).is_empty());
        // Marker escape.
        let src = "// lint: allow-nondet-iter(count only)\nfn f(m: &HashMap<u8, u8>) -> usize { m.values().filter(|v| **v > 0).count() }\n";
        assert!(scan_str(src).is_empty());
        // Harness crates are exempt (library rule).
        let src = "fn f(m: &HashMap<u8, u8>) { for k in m.keys() {} }\n";
        assert!(hits_in("crates/bench/src/sample.rs", src).is_empty());
    }

    // ---- alloc-in-hot-path ----

    fn alloc_hits(files: &[FileAnalysis]) -> Vec<String> {
        all_hits(files)
            .into_iter()
            .filter(|h| h.starts_with("alloc-in-hot-path"))
            .collect()
    }

    #[test]
    fn alloc_flags_direct_and_transitive_sites() {
        let src = "\
//! m
// lint: hot-path
pub fn entry() { let v: Vec<u8> = Vec::new(); helper(); }
fn helper() { let b = Box::new(3); }
fn cold() { let v = vec![1, 2]; }
";
        let f = fa("crates/ros-dsp/src/s.rs", src);
        let hits = alloc_hits(&[f]);
        assert_eq!(
            hits,
            [
                "alloc-in-hot-path:crates/ros-dsp/src/s.rs:3",
                "alloc-in-hot-path:crates/ros-dsp/src/s.rs:4",
            ],
            "entry and transitive callee flagged, cold fn not"
        );
    }

    #[test]
    fn alloc_message_names_fn_and_witness_entry() {
        let src = "\
//! m
// lint: hot-path
pub fn entry() { helper(); }
fn helper() { let xs: Vec<u8> = ys.collect(); }
";
        let f = fa("crates/ros-dsp/src/s.rs", src);
        let out = check_all(&[f]);
        let finding = out
            .iter()
            .find(|v| v.rule == "alloc-in-hot-path")
            .expect("collect() on hot path");
        assert!(finding.message.contains("`.collect()`"), "{}", finding.message);
        assert!(finding.message.contains("`helper`"), "{}", finding.message);
        assert!(finding.message.contains("`entry`"), "{}", finding.message);
    }

    #[test]
    fn alloc_clean_cases() {
        // allow-alloc marker.
        let src = "\
//! m
// lint: hot-path
pub fn entry() {
    // lint: allow-alloc(setup only, not steady-state)
    let v: Vec<u8> = Vec::new();
}
";
        let f = fa("crates/ros-dsp/src/s.rs", src);
        assert!(alloc_hits(&[f]).is_empty());
        // No hot-path annotation anywhere: nothing is judged.
        let src = "//! m\npub fn f() { let v = vec![1]; }\n";
        let f = fa("crates/ros-dsp/src/s.rs", src);
        assert!(alloc_hits(&[f]).is_empty());
        // Allocation in a fn not reachable from the entry.
        let src = "\
//! m
// lint: hot-path
pub fn entry() { }
fn unrelated() { let v = Vec::with_capacity(8); }
";
        let f = fa("crates/ros-dsp/src/s.rs", src);
        assert!(alloc_hits(&[f]).is_empty());
    }

    // ---- lock-order ----

    fn rule_hits(files: &[FileAnalysis], id: &str) -> Vec<Finding> {
        check_all(files).into_iter().filter(|v| v.rule == id).collect()
    }

    #[test]
    fn lock_order_flags_inconsistent_acquisition_order() {
        let src = "\
//! m
fn first(a: &M, b: &M) {
    let ga = a.lock();
    let gb = b.lock();
}
fn second(a: &M, b: &M) {
    let gb = b.lock();
    let ga = a.lock();
}
";
        let f = fa("crates/ros-dsp/src/s.rs", src);
        let hits = rule_hits(&[f], "lock-order");
        assert_eq!(hits.len(), 2, "both conflicting sites flagged: {hits:?}");
        assert!(hits[0].message.contains("`ros-dsp:a`"), "{}", hits[0].message);
        assert!(hits[0].message.contains("`ros-dsp:b`"), "{}", hits[0].message);
        assert!(hits[0].message.contains("in `first`"), "{}", hits[0].message);
        assert!(hits[1].message.contains("in `second`"), "{}", hits[1].message);
    }

    #[test]
    fn lock_order_clean_cases() {
        // Consistent order everywhere: no pair conflict.
        let src = "\
//! m
fn first(a: &M, b: &M) {
    let ga = a.lock();
    let gb = b.lock();
}
fn second(a: &M, b: &M) {
    let ga = a.lock();
    let gb = b.lock();
}
";
        let f = fa("crates/ros-dsp/src/s.rs", src);
        assert!(rule_hits(&[f], "lock-order").is_empty());
        // Dropping the first guard before the second acquisition means
        // no order pair at all.
        let src = "\
//! m
fn first(a: &M, b: &M) {
    let ga = a.lock();
    drop(ga);
    let gb = b.lock();
}
fn second(a: &M, b: &M) {
    let gb = b.lock();
    drop(gb);
    let ga = a.lock();
}
";
        let f = fa("crates/ros-dsp/src/s.rs", src);
        assert!(rule_hits(&[f], "lock-order").is_empty());
    }

    #[test]
    fn lock_order_marker_suppresses() {
        let src = "\
//! m
fn first(a: &M, b: &M) {
    let ga = a.lock();
    // lint: allow-lock-order(init-only path, never concurrent)
    let gb = b.lock();
}
fn second(a: &M, b: &M) {
    let gb = b.lock();
    // lint: allow-lock-order(init-only path, never concurrent)
    let ga = a.lock();
}
";
        let f = fa("crates/ros-dsp/src/s.rs", src);
        assert!(rule_hits(&[f], "lock-order").is_empty());
        // The consumed markers are not stale.
        assert!(rule_hits(&[fa("crates/ros-dsp/src/s.rs", src)], "stale-suppression").is_empty());
    }

    // ---- blocking-under-lock ----

    #[test]
    fn blocking_flags_channel_op_under_guard() {
        let src = "\
//! m
fn f(q: &Chan, m: &M) {
    let g = m.lock();
    q.tx.send(1);
}
";
        let f = fa("crates/ros-dsp/src/s.rs", src);
        let hits = rule_hits(&[f], "blocking-under-lock");
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert_eq!(hits[0].line, 4);
        assert!(hits[0].message.contains("`.send(\u{2026})`"), "{}", hits[0].message);
        assert!(hits[0].message.contains("`ros-dsp:m`"), "{}", hits[0].message);
    }

    #[test]
    fn blocking_flags_transitively_locking_call_under_guard() {
        let src = "\
//! m
fn f(m: &M, x: &X) {
    let g = m.lock();
    helper(x);
}
fn helper(x: &X) {
    let g2 = SINK.lock();
}
";
        let f = fa("crates/ros-dsp/src/s.rs", src);
        let hits = rule_hits(&[f], "blocking-under-lock");
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert_eq!(hits[0].line, 4);
        assert!(hits[0].message.contains("`helper(\u{2026})`"), "{}", hits[0].message);
        assert!(hits[0].message.contains("`ros-dsp:SINK`"), "{}", hits[0].message);
    }

    #[test]
    fn blocking_clean_cases() {
        // Condvar wait that consumes the held guard is the sanctioned
        // blocking-while-locked idiom, not a deadlock.
        let src = "\
//! m
fn f(cv: &Condvar, m: &M) {
    let g = m.lock().unwrap();
    let g = cv.wait(g);
}
";
        let f = fa("crates/ros-dsp/src/s.rs", src);
        assert!(rule_hits(&[f], "blocking-under-lock").is_empty());
        // Guard dropped before the send.
        let src = "\
//! m
fn f(q: &Chan, m: &M) {
    let g = m.lock();
    drop(g);
    q.tx.send(1);
}
";
        let f = fa("crates/ros-dsp/src/s.rs", src);
        assert!(rule_hits(&[f], "blocking-under-lock").is_empty());
        // Marker escape on the blocking line.
        let src = "\
//! m
fn f(q: &Chan, m: &M) {
    let g = m.lock();
    // lint: allow-blocking-under-lock(bounded queue, consumer never takes m)
    q.tx.send(1);
}
";
        let f = fa("crates/ros-dsp/src/s.rs", src);
        assert!(rule_hits(&[f], "blocking-under-lock").is_empty());
    }

    // ---- guard-across-hot-call ----

    #[test]
    fn guard_across_hot_call_flags_live_guard_spanning_hot_callee() {
        let src = "\
//! m
// lint: hot-path
pub fn entry() { inner(); }
fn inner() {}
fn cold(m: &M) {
    let g = m.lock();
    inner();
}
";
        let f = fa("crates/ros-dsp/src/s.rs", src);
        let hits = rule_hits(&[f], "guard-across-hot-call");
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert_eq!(hits[0].line, 7);
        assert!(hits[0].message.contains("`inner(\u{2026})`"), "{}", hits[0].message);
        assert!(hits[0].message.contains("from `entry`"), "{}", hits[0].message);
        assert!(hits[0].message.contains("`ros-dsp:m`"), "{}", hits[0].message);
    }

    #[test]
    fn guard_across_hot_call_clean_cases() {
        // Guard released before the hot call.
        let src = "\
//! m
// lint: hot-path
pub fn entry() { inner(); }
fn inner() {}
fn cold(m: &M) {
    let g = m.lock();
    drop(g);
    inner();
}
";
        let f = fa("crates/ros-dsp/src/s.rs", src);
        assert!(rule_hits(&[f], "guard-across-hot-call").is_empty());
        // Callee not on any hot path.
        let src = "\
//! m
fn inner() {}
fn cold(m: &M) {
    let g = m.lock();
    inner();
}
";
        let f = fa("crates/ros-dsp/src/s.rs", src);
        assert!(rule_hits(&[f], "guard-across-hot-call").is_empty());
        // Marker escape.
        let src = "\
//! m
// lint: hot-path
pub fn entry() { inner(); }
fn inner() {}
fn cold(m: &M) {
    let g = m.lock();
    // lint: allow-guard-across-hot-call(read-mostly lock, ns-scale hold)
    inner();
}
";
        let f = fa("crates/ros-dsp/src/s.rs", src);
        assert!(rule_hits(&[f], "guard-across-hot-call").is_empty());
    }

    // ---- stale-suppression ----

    #[test]
    fn stale_suppression_flags_unconsumed_and_unknown_markers() {
        let src = "\
//! m
// lint: allow-nondet-iter(legacy shim)
/// D.
pub fn quiet() {}
";
        let f = fa("crates/ros-dsp/src/s.rs", src);
        let hits = rule_hits(&[f], "stale-suppression");
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert_eq!(hits[0].line, 2);
        assert!(hits[0].message.contains("suppresses nothing"), "{}", hits[0].message);
        assert!(hits[0].message.contains("nondet-iter"), "{}", hits[0].message);

        // A typo, and a rule clippy now owns: neither is consulted.
        for marker in ["allow-pancake(typo)", "allow-cast(exact)"] {
            let src = format!("//! m\n// lint: {marker}\nfn f() {{}}\n");
            let f = fa("crates/ros-dsp/src/s.rs", &src);
            let hits = rule_hits(&[f], "stale-suppression");
            assert_eq!(hits.len(), 1, "{hits:?}");
            assert!(hits[0].message.contains("unknown suppression marker"), "{}", hits[0].message);
        }
    }

    #[test]
    fn stale_suppression_flags_hot_path_marker_on_nothing() {
        let src = "//! m\n// lint: hot-path\npub struct S;\n";
        let f = fa("crates/ros-dsp/src/s.rs", src);
        let hits = rule_hits(&[f], "stale-suppression");
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert!(hits[0].message.contains("annotates no function"), "{}", hits[0].message);
        // An attribute between the marker and the fn silently detaches
        // the annotation — the exact bug this rule exists to catch.
        let src = "\
//! m
// lint: hot-path
#[allow(clippy::too_many_arguments)]
pub fn entry(a: u32, b: u32) {}
";
        let f = fa("crates/ros-dsp/src/s.rs", src);
        let hits = rule_hits(&[f], "stale-suppression");
        assert_eq!(hits.len(), 1, "marker above an attribute annotates nothing: {hits:?}");
        // Below the attribute it binds.
        let src = "\
//! m
#[allow(clippy::too_many_arguments)]
// lint: hot-path
pub fn entry(a: u32, b: u32) {}
";
        let f = fa("crates/ros-dsp/src/s.rs", src);
        assert!(rule_hits(&[f], "stale-suppression").is_empty());
    }

    #[test]
    fn stale_suppression_clean_cases() {
        // A consumed marker is live, not stale (and the iteration stays
        // suppressed).
        let src = "//! m\n// lint: allow-nondet-iter(order-free count)\nfn f(m: &HashMap<u8, u8>) -> usize { m.values().count() }\n";
        let f = fa("crates/ros-dsp/src/s.rs", src);
        let hits = all_hits(&[f]);
        assert!(hits.is_empty(), "{hits:?}");
        // Markers in test regions are the test's business.
        let src = "\
//! m
#[cfg(test)]
mod tests {
    // lint: allow-dead-pub(never fires)
    fn t() {}
}
";
        let f = fa("crates/ros-dsp/src/s.rs", src);
        assert!(rule_hits(&[f], "stale-suppression").is_empty());
        // Reference files are not audited.
        let f = fa("tests/e2e.rs", "// lint: allow-dead-pub(stale here)\nfn t() {}\n");
        assert!(rule_hits(&[f], "stale-suppression").is_empty());
        // A hot-path marker that annotates a fn is live.
        let src = "//! m\n// lint: hot-path\npub fn entry() {}\n";
        let f = fa("crates/ros-dsp/src/s.rs", src);
        assert!(rule_hits(&[f], "stale-suppression").is_empty());
    }
}
