//! The lock/channel graph: which locks each fn may acquire, and what
//! happens while a guard is live.
//!
//! This pass sits on top of [`crate::callgraph`] (node set, name
//! resolution) and [`crate::syntax`] (brace tree, call sites) and
//! recovers, per library fn:
//!
//! * **acquisition sites** — zero-argument `.lock()` / `.read()` /
//!   `.write()` method calls (the zero-arg shape is what separates
//!   `RwLock::read()` from `io::Read::read(&mut buf)`);
//! * **guard liveness** — `let [mut] g = <recv>.lock()<poison-adaptors>;`
//!   binds a guard that lives to the close of its innermost enclosing
//!   brace (ended early by `drop(g)`); any other acquisition shape is a
//!   temporary whose guard dies at the end of the statement;
//! * **blocking operations** — channel `.send(…)` / `.recv(…)` and
//!   `Condvar::.wait(g)` method calls, treated as pseudo-locks;
//! * **may-lock sets** — the transitive closure of acquisitions over
//!   the call graph, with a [`UBIQUITOUS_CALLEES`] denylist so that a
//!   `.clone()` or `.len()` call does not link every caller to the one
//!   workspace impl of that name that happens to take a lock.
//!
//! Lock identity is canonicalized to `{crate}:{root}` where the root is
//! the impl owner for `self`-rooted receiver chains (so a wrapper like
//! `GeomCache::lock` calling `self.inner.lock()` and its callers'
//! `self.lock()` name the *same* lock) and the receiver ident nearest
//! the call otherwise (`SINK.lock()` → `SINK`, statics and locals).
//!
//! Known approximations, by design (each costs a marker, never a missed
//! class of bug): closure bodies are analyzed in the fn that spells
//! them, so a guard held by `with_sink` is invisible to a closure
//! *passed into* it from another fn; guard-returning wrappers not named
//! `lock`/`read`/`write` do not start a tracked guard at their call
//! sites; `Condvar::wait` on a transitive path is not a pseudo-lock
//! (only direct `.wait(` sites are checked). Everything here is total
//! over malformed input — unclosed braces degrade to end-of-file scopes.

use std::collections::BTreeSet;

use crate::callgraph::{CallGraph, Resolver};
use crate::engine::FileAnalysis;
use crate::lexer::TokenKind;
use crate::syntax::{brace_tree, calls_in, BraceNode, CodeView};

/// Zero-argument guard-producing method names.
pub const LOCK_METHODS: &[&str] = &["lock", "read", "write"];

/// Blocking channel/condvar operation names (pseudo-locks).
pub const BLOCKING_METHODS: &[&str] = &["send", "send_all", "recv", "recv_into", "wait"];

/// Method/fn names excluded from transitive lock resolution: trait and
/// std-idiom names so common that the by-name over-approximation would
/// otherwise link every `.clone()` to the one workspace `Clone` impl
/// that takes a lock. Direct acquisitions and blocking ops are *not*
/// filtered — the denylist only gates call-graph propagation.
pub const UBIQUITOUS_CALLEES: &[&str] = &[
    "all", "and_then", "any", "as_mut", "as_ref", "borrow", "borrow_mut", "clear", "clone",
    "cmp", "collect", "contains", "contains_key", "default", "deref", "deref_mut", "drain",
    "drop", "eq", "expect", "extend", "filter", "find", "flush", "fmt", "fold", "for_each",
    "from", "get", "get_mut", "hash", "index", "index_mut", "insert", "into", "into_iter",
    "is_empty", "is_finite", "is_nan", "iter",
    "iter_mut", "join", "len", "lock", "map", "map_err", "max", "min", "ne", "new", "next",
    "ok_or", "ok_or_else", "parse", "partial_cmp", "pop", "pop_front", "position", "push",
    "push_back", "push_str", "read", "recv", "recv_into", "remove", "replace", "retain", "send",
    "send_all", "sort",
    "sort_by", "sort_unstable", "split", "take", "to_owned", "to_string", "to_vec", "trim",
    "try_from", "try_into", "unwrap", "unwrap_or", "unwrap_or_else", "wait", "write",
];

/// A guard live at some event point.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Held {
    /// Canonical lock id (`{crate}:{root}`).
    pub lock: String,
    /// Binding name, for `let`-bound guards (`None`: temporary).
    pub guard: Option<String>,
}

/// One direct acquisition, with the guards already live at that point.
#[derive(Clone, Debug)]
pub struct AcquireUnder {
    /// Canonical id of the lock being acquired.
    pub lock: String,
    /// 1-based line of the acquisition method name.
    pub line: usize,
    /// Guards live at the acquisition (source order; possibly empty).
    pub held: Vec<Held>,
}

/// One blocking channel/condvar op, with the guards live at that point.
#[derive(Clone, Debug)]
pub struct BlockingUnder {
    /// `send` / `recv` / `wait`.
    pub op: String,
    /// Receiver ident nearest the call (`tx` in `self.tx.send(…)`).
    pub recv_name: String,
    /// For `wait`: the single-ident argument, when the arg is one — the
    /// guard being atomically released, which is exempt from the
    /// blocking-under-lock check.
    pub wait_arg: Option<String>,
    /// 1-based line of the op method name.
    pub line: usize,
    /// Guards live at the op (source order; possibly empty).
    pub held: Vec<Held>,
}

/// A resolved, non-denylisted call made while at least one guard is
/// live.
#[derive(Clone, Debug)]
pub struct CallUnder {
    /// Callee display name (`name` or `qualifier::name`).
    pub callee: String,
    /// Resolved callee node indices (non-empty).
    pub callees: Vec<usize>,
    /// 1-based line of the call.
    pub line: usize,
    /// Guards live at the call (source order; non-empty).
    pub held: Vec<Held>,
}

/// Per-fn lock behaviour (indices parallel `CallGraph::nodes`).
#[derive(Clone, Debug, Default)]
pub struct NodeLocks {
    /// Every direct acquisition in the body.
    pub acquires: Vec<AcquireUnder>,
    /// Every blocking op in the body.
    pub blocking: Vec<BlockingUnder>,
    /// Calls under a live guard that resolve to workspace fns.
    pub calls_under: Vec<CallUnder>,
}

/// The workspace lock graph.
pub struct LockGraph {
    /// Per-node events, parallel to `CallGraph::nodes`.
    pub per_node: Vec<NodeLocks>,
    /// `may_lock[i]` — lock and pseudo-lock ids node `i` may acquire,
    /// directly or through (denylist-filtered) calls.
    pub may_lock: Vec<BTreeSet<String>>,
}

/// One tracked guard inside a body, with its live code-index range.
struct Guard {
    lock: String,
    name: Option<String>,
    /// Code index of the acquisition method name.
    acq_ci: usize,
    /// Exclusive end: the scope-closing `}` (bound) or the statement
    /// end (temporary). An event at `ci` is under this guard iff
    /// `acq_ci < ci && ci < end`.
    end: usize,
}

/// Builds the lock graph for the library nodes of `graph`.
pub fn build(files: &[FileAnalysis], graph: &CallGraph) -> LockGraph {
    let resolver = Resolver::new(&graph.nodes);
    let n = graph.nodes.len();
    let mut per_node: Vec<NodeLocks> = Vec::with_capacity(n);
    let mut direct: Vec<BTreeSet<String>> = Vec::with_capacity(n);
    let mut lock_edges: Vec<Vec<usize>> = Vec::with_capacity(n);

    let mut cur_file = usize::MAX;
    let mut cached: Option<(CodeView, Vec<BraceNode>)> = None;
    for node_i in 0..n {
        let node = &graph.nodes[node_i];
        if node.file != cur_file {
            cur_file = node.file;
            let view = CodeView::new(&files[node.file]);
            let tree = brace_tree(&view);
            cached = Some((view, tree));
        }
        let analyzed = match (&cached, node.body) {
            (Some((view, tree)), Some(body)) => {
                analyze_body(view, tree, body, node.owner.as_deref(), &resolver)
            }
            _ => (NodeLocks::default(), BTreeSet::new(), Vec::new()),
        };
        let (nl, dl, le) = analyzed;
        per_node.push(nl);
        direct.push(dl);
        lock_edges.push(le);
    }

    // May-lock fixpoint: propagate each node's set to its callers
    // until nothing changes (sets only grow, so this terminates).
    let mut may = direct;
    let mut callers: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (i, es) in lock_edges.iter().enumerate() {
        for &j in es {
            callers[j].push(i);
        }
    }
    let mut work: Vec<usize> = (0..n).collect();
    while let Some(j) = work.pop() {
        if may[j].is_empty() {
            continue;
        }
        let add: Vec<String> = may[j].iter().cloned().collect();
        for ci in 0..callers[j].len() {
            let i = callers[j][ci];
            let before = may[i].len();
            may[i].extend(add.iter().cloned());
            if may[i].len() != before && !work.contains(&i) {
                work.push(i);
            }
        }
    }

    LockGraph { per_node, may_lock: may }
}

/// Analyzes one fn body: events, direct (pseudo-)locks, and the
/// denylist-filtered call edges used for may-lock propagation.
fn analyze_body(
    view: &CodeView<'_>,
    tree: &[BraceNode],
    body: (usize, usize),
    owner: Option<&str>,
    resolver: &Resolver<'_>,
) -> (NodeLocks, BTreeSet<String>, Vec<usize>) {
    let (bs, be) = body;
    let (cs, ce) = (view.ci_at_or_after(bs), view.ci_at_or_after(be));
    let crate_name = view.fa.crate_name.as_str();

    // Pass 1: guards (direct acquisitions with live ranges).
    let mut guards: Vec<Guard> = Vec::new();
    for ci in cs..ce.min(view.len()) {
        if !is_acquisition(view, ci) {
            continue;
        }
        let (has_self, nearest) = receiver_chain(view, ci);
        let root = match (has_self, owner) {
            (true, Some(o)) => o.to_string(),
            _ => nearest,
        };
        let lock = format!("{crate_name}:{root}");
        let (name, end) = match bound_guard_name(view, ci, cs) {
            Some(name) => (Some(name), scope_close(tree, ci, ce)),
            None => (None, stmt_end(view, ci, ce)),
        };
        guards.push(Guard { lock, name, acq_ci: ci, end });
    }
    // `drop(g)` ends a bound guard early.
    for ci in cs..ce.min(view.len()) {
        if view.is_ident(ci, "drop")
            && !(ci > 0 && view.is_punct(ci - 1, "."))
            && view.is_punct(ci + 1, "(")
            && view.kind(ci + 2) == Some(TokenKind::Ident)
            && view.is_punct(ci + 3, ")")
        {
            let dropped = view.text(ci + 2).to_string();
            for g in &mut guards {
                if g.name.as_deref() == Some(dropped.as_str()) && g.acq_ci < ci && ci < g.end {
                    g.end = ci;
                }
            }
        }
    }
    let held_at = |ci: usize| -> Vec<Held> {
        guards
            .iter()
            .filter(|g| g.acq_ci < ci && ci < g.end)
            .map(|g| Held { lock: g.lock.clone(), guard: g.name.clone() })
            .collect()
    };

    // Pass 2: events.
    let mut nl = NodeLocks::default();
    let mut direct: BTreeSet<String> = BTreeSet::new();
    let mut lock_edges: Vec<usize> = Vec::new();
    for g in &guards {
        direct.insert(g.lock.clone());
        nl.acquires.push(AcquireUnder {
            lock: g.lock.clone(),
            line: view.line(g.acq_ci),
            held: held_at(g.acq_ci),
        });
    }
    for call in calls_in(view, cs, ce) {
        if call.method && BLOCKING_METHODS.contains(&call.name.as_str()) {
            let (_, nearest) = receiver_chain(view, call.ci);
            let wait_arg = if call.name == "wait"
                && view.kind(call.ci + 2) == Some(TokenKind::Ident)
                && view.is_punct(call.ci + 3, ")")
            {
                Some(view.text(call.ci + 2).to_string())
            } else {
                None
            };
            // Channel ops are pseudo-locks for propagation; a condvar
            // wait blocks on the lock its guard argument already names.
            if call.name != "wait" {
                direct.insert(format!("{crate_name}:{nearest}"));
            }
            nl.blocking.push(BlockingUnder {
                op: call.name.clone(),
                recv_name: nearest,
                wait_arg,
                line: call.line,
                held: held_at(call.ci),
            });
            continue;
        }
        if UBIQUITOUS_CALLEES.contains(&call.name.as_str()) {
            continue;
        }
        let callees = resolver.resolve(&call);
        if callees.is_empty() {
            continue;
        }
        lock_edges.extend_from_slice(callees);
        let held = held_at(call.ci);
        if held.is_empty() {
            continue;
        }
        let display = match &call.qualifier {
            Some(q) => format!("{q}::{}", call.name),
            None => call.name.clone(),
        };
        nl.calls_under.push(CallUnder {
            callee: display,
            callees: callees.to_vec(),
            line: call.line,
            held,
        });
    }
    lock_edges.sort_unstable();
    lock_edges.dedup();
    (nl, direct, lock_edges)
}

/// True when `ci` heads a zero-argument lock-method call: `.lock()`,
/// `.read()`, `.write()`.
fn is_acquisition(view: &CodeView<'_>, ci: usize) -> bool {
    ci > 0
        && view.is_punct(ci - 1, ".")
        && view.ident_in(ci, LOCK_METHODS)
        && view.is_punct(ci + 1, "(")
        && view.is_punct(ci + 2, ")")
}

/// Walks the receiver chain of the method call at `ci` backward
/// (`a.b.c().d` shapes, path segments included) and reports whether it
/// is rooted at `self` plus the ident nearest the call — the lock's
/// display root for non-`self` chains.
fn receiver_chain(view: &CodeView<'_>, ci: usize) -> (bool, String) {
    let mut nearest: Option<String> = None;
    let mut has_self = false;
    let mut j = ci.checked_sub(2); // token before the `.`
    while let Some(ju) = j {
        if view.is_punct(ju, ")") {
            // A call group (`stderr()`): skip back to its `(`, then
            // continue with the callee ident before it. Scanning
            // starts on a `)`, so depth is ≥ 1 at every `(` test.
            let mut depth: usize = 0;
            let mut k = ju;
            loop {
                if view.is_punct(k, ")") {
                    depth += 1;
                } else if view.is_punct(k, "(") {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                match k.checked_sub(1) {
                    Some(p) => k = p,
                    None => break,
                }
            }
            j = k.checked_sub(1);
            continue;
        }
        match view.kind(ju) {
            Some(TokenKind::Ident | TokenKind::RawIdent) => {
                let t = view.text(ju).trim_start_matches("r#");
                if t == "self" {
                    has_self = true;
                } else if nearest.is_none() {
                    nearest = Some(t.to_string());
                }
                match ju.checked_sub(1) {
                    Some(p) if view.is_punct(p, ".") || view.is_punct(p, "::") => {
                        j = p.checked_sub(1);
                    }
                    _ => break,
                }
            }
            _ => break,
        }
    }
    let root = match nearest {
        Some(r) => r,
        None if has_self => "self".to_string(),
        None => "<expr>".to_string(),
    };
    (has_self, root)
}

/// Adaptors that may trail a lock call in a guard binding without
/// un-guarding it (poison handling).
const POISON_ADAPTORS: &[&str] = &["unwrap_or_else", "unwrap", "expect"];

/// When the acquisition at `acq_ci` is the `let [mut] name = …` form —
/// receiver chain preceded by `=`, `name`, optional `mut`, `let`, and
/// only poison adaptors between the `()` and the `;` — returns the
/// bound guard's name.
fn bound_guard_name(view: &CodeView<'_>, acq_ci: usize, body_start: usize) -> Option<String> {
    // Backward: find the leftmost token of the receiver chain.
    let mut root = acq_ci.checked_sub(2)?;
    loop {
        if view.is_punct(root, ")") {
            // Walk the call group back to its `(` and past the callee.
            let mut depth: isize = 0;
            let mut k = root;
            loop {
                if view.is_punct(k, ")") {
                    depth += 1;
                } else if view.is_punct(k, "(") {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                k = k.checked_sub(1)?;
            }
            root = k.checked_sub(1)?;
            continue;
        }
        if !matches!(view.kind(root), Some(TokenKind::Ident | TokenKind::RawIdent)) {
            return None;
        }
        match root.checked_sub(1) {
            Some(p) if view.is_punct(p, ".") || view.is_punct(p, "::") => {
                root = p.checked_sub(1)?;
            }
            _ => break,
        }
    }
    if root <= body_start {
        return None;
    }
    let eq = root.checked_sub(1)?;
    if !view.is_punct(eq, "=") {
        return None;
    }
    let name_ci = eq.checked_sub(1)?;
    if view.kind(name_ci) != Some(TokenKind::Ident) {
        return None;
    }
    let name = view.text(name_ci);
    if name == "mut" {
        return None;
    }
    let let_ci = name_ci.checked_sub(1)?;
    let let_ci = if view.is_ident(let_ci, "mut") { let_ci.checked_sub(1)? } else { let_ci };
    if !view.is_ident(let_ci, "let") {
        return None;
    }
    // Forward: past `()`, only poison adaptors until `;`.
    let mut j = acq_ci + 3;
    loop {
        if view.is_punct(j, ";") {
            return Some(name.to_string());
        }
        if view.is_punct(j, ".") && view.ident_in(j + 1, POISON_ADAPTORS) && view.is_punct(j + 2, "(")
        {
            let mut depth: isize = 0;
            let mut k = j + 2;
            while k < view.len() {
                if view.is_punct(k, "(") {
                    depth += 1;
                } else if view.is_punct(k, ")") {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                k += 1;
            }
            j = k + 1;
            continue;
        }
        return None;
    }
}

/// Code index of the statement end after `from`: the `;` at relative
/// depth 0, or the delimiter closing the enclosing group (expression
/// tails). Exclusive event bound for temporary guards.
fn stmt_end(view: &CodeView<'_>, from: usize, body_end: usize) -> usize {
    let mut depth: isize = 0;
    let mut j = from;
    let end = body_end.min(view.len());
    while j < end {
        if view.kind(j) == Some(TokenKind::Punct) {
            match view.text(j) {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => {
                    depth -= 1;
                    if depth < 0 {
                        return j;
                    }
                }
                ";" if depth == 0 => return j,
                _ => {}
            }
        }
        j += 1;
    }
    end
}

/// Close index of the innermost brace group containing `ci`
/// (`default` when none contains it).
fn scope_close(tree: &[BraceNode], ci: usize, default: usize) -> usize {
    let mut best = default;
    let mut nodes = tree;
    loop {
        let Some(n) = nodes.iter().find(|n| n.open < ci && ci < n.close) else {
            return best;
        };
        best = n.close;
        nodes = &n.children;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::callgraph;
    use crate::engine::{FileAnalysis, FileRole};

    fn fa(rel: &str, src: &str) -> FileAnalysis {
        let crate_name = rel.split('/').nth(1).unwrap_or("x").to_string();
        FileAnalysis::new(rel.to_string(), crate_name, FileRole::Library, src.to_string())
    }

    fn graph_and_locks(files: &[FileAnalysis]) -> (callgraph::CallGraph, LockGraph) {
        let g = callgraph::build(files);
        let lg = build(files, &g);
        (g, lg)
    }

    fn node_idx(g: &callgraph::CallGraph, name: &str) -> usize {
        g.nodes
            .iter()
            .position(|n| n.name == name)
            .unwrap_or_else(|| panic!("no node `{name}`"))
    }

    #[test]
    fn bound_guard_lives_to_scope_close_and_drop_ends_it() {
        let src = "\
pub fn f(a: M, b: M) {
    let g = a.lock().unwrap_or_else(|p| p.into_inner());
    helper();
    drop(g);
    helper();
}
pub fn helper() {}
";
        let files = [fa("crates/ros-cache/src/s.rs", src)];
        let (g, lg) = graph_and_locks(&files);
        let i = node_idx(&g, "f");
        let cu = &lg.per_node[i].calls_under;
        assert_eq!(cu.len(), 1, "only the pre-drop call is under the guard: {cu:?}");
        assert_eq!(cu[0].callee, "helper");
        assert_eq!(cu[0].held, vec![Held { lock: "ros-cache:a".into(), guard: Some("g".into()) }]);
    }

    #[test]
    fn temporary_guard_dies_at_statement_end() {
        let src = "\
pub fn f(a: M) {
    a.lock().unwrap_or_else(|p| p.into_inner()).cleanup();
    helper();
}
pub fn helper() {}
pub struct M;
impl M { pub fn cleanup(&self) {} }
";
        let files = [fa("crates/ros-cache/src/s.rs", src)];
        let (g, lg) = graph_and_locks(&files);
        let i = node_idx(&g, "f");
        let names: Vec<&str> = lg.per_node[i].calls_under.iter().map(|c| c.callee.as_str()).collect();
        // `cleanup` is called inside the acquiring statement, so the
        // temporary guard covers it; `helper` after the `;` is clear.
        assert_eq!(names, ["cleanup"], "{:?}", lg.per_node[i].calls_under);
    }

    #[test]
    fn self_rooted_chains_canonicalize_to_the_impl_owner() {
        let src = "\
pub struct Store { inner: usize }
impl Store {
    pub fn lock(&self) -> usize { self.inner.lock().unwrap_or_else(|p| p.into_inner()) }
    pub fn len(&self) -> usize { self.lock() }
}
";
        let files = [fa("crates/ros-cache/src/s.rs", src)];
        let (g, lg) = graph_and_locks(&files);
        let i = node_idx(&g, "lock");
        assert_eq!(lg.per_node[i].acquires.len(), 1);
        assert_eq!(lg.per_node[i].acquires[0].lock, "ros-cache:Store");
        let j = node_idx(&g, "len");
        assert_eq!(lg.per_node[j].acquires[0].lock, "ros-cache:Store", "wrapper and field agree");
    }

    #[test]
    fn may_lock_propagates_through_calls_but_not_denylisted_names() {
        let src = "\
pub fn outer() { mid(); }
pub fn mid() { take_lock(); }
pub fn take_lock() { let g = STATE.lock().unwrap_or_else(|p| p.into_inner()); }
pub struct W;
impl W {
    pub fn clone(&self) -> W { let g = STATE.lock().unwrap_or_else(|p| p.into_inner()); W }
}
pub fn uses_clone(w: &W) { let c = w.clone(); }
";
        let files = [fa("crates/ros-exec/src/s.rs", src)];
        let (g, lg) = graph_and_locks(&files);
        let outer = node_idx(&g, "outer");
        assert!(lg.may_lock[outer].contains("ros-exec:STATE"), "{:?}", lg.may_lock[outer]);
        let uses = node_idx(&g, "uses_clone");
        assert!(lg.may_lock[uses].is_empty(), "`.clone()` must not propagate: {:?}", lg.may_lock[uses]);
    }

    #[test]
    fn blocking_ops_record_held_guards_and_wait_arg() {
        let src = "\
pub fn f(a: M, tx: Tx, cv: Cv) {
    let st = a.lock().unwrap_or_else(|p| p.into_inner());
    tx.send(1);
    let st2 = cv.wait(st);
}
";
        let files = [fa("crates/ros-exec/src/s.rs", src)];
        let (g, lg) = graph_and_locks(&files);
        let i = node_idx(&g, "f");
        let b = &lg.per_node[i].blocking;
        assert_eq!(b.len(), 2, "{b:?}");
        assert_eq!((b[0].op.as_str(), b[0].recv_name.as_str()), ("send", "tx"));
        assert_eq!(b[0].held.len(), 1);
        assert_eq!(b[1].op, "wait");
        assert_eq!(b[1].wait_arg.as_deref(), Some("st"));
        // send/recv are pseudo-locks; wait is not.
        let i_direct = &lg.may_lock[i];
        assert!(i_direct.contains("ros-exec:tx"));
        assert!(!i_direct.contains("ros-exec:cv"));
    }

    /// `op` on channel `ch` with a guard held: recorded as blocking
    /// under that guard, and a pseudo-lock on the channel.
    fn assert_blocking_channel_op(op: &str, call: &str) {
        let src = format!(
            "pub fn f(a: M, ch: C, buf: &mut Vec<u8>) {{\n    \
             let st = a.lock().unwrap_or_else(|p| p.into_inner());\n    {call};\n}}\n"
        );
        let files = [fa("crates/ros-serve/src/s.rs", &src)];
        let (g, lg) = graph_and_locks(&files);
        let i = node_idx(&g, "f");
        let b = &lg.per_node[i].blocking;
        assert_eq!(b.len(), 1, "{b:?}");
        assert_eq!((b[0].op.as_str(), b[0].recv_name.as_str()), (op, "ch"));
        assert_eq!(b[0].held, vec![Held { lock: "ros-serve:a".into(), guard: Some("st".into()) }]);
        assert!(lg.may_lock[i].contains("ros-serve:ch"), "{:?}", lg.may_lock[i]);
    }

    #[test]
    fn send_all_is_a_blocking_channel_op() {
        assert_blocking_channel_op("send_all", "ch.send_all(buf)");
    }

    #[test]
    fn recv_into_is_a_blocking_channel_op() {
        assert_blocking_channel_op("recv_into", "ch.recv_into(buf, 8)");
    }

    #[test]
    fn io_read_with_args_is_not_an_acquisition() {
        let src = "\
pub fn f(file: F, buf: &mut [u8]) {
    file.read(buf);
    file.write(buf);
    helper();
}
pub fn helper() {}
";
        let files = [fa("crates/ros-cache/src/s.rs", src)];
        let (g, lg) = graph_and_locks(&files);
        let i = node_idx(&g, "f");
        assert!(lg.per_node[i].acquires.is_empty());
        assert!(lg.per_node[i].calls_under.is_empty());
    }

    #[test]
    fn malformed_input_degrades_without_panicking() {
        let src = "pub fn f() { let g = a.lock(\n"; // unclosed everything
        let files = [fa("crates/ros-cache/src/s.rs", src)];
        let (_, lg) = graph_and_locks(&files);
        assert_eq!(lg.per_node.len(), lg.may_lock.len());
    }
}
