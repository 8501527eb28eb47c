//! Cross-crate call graph over the scanned workspace.
//!
//! Nodes are the non-test `fn` items of library files; edges are the
//! call sites [`crate::syntax::calls_in`] recovers from each body,
//! resolved **by name** — the same deliberate over-approximation
//! `dead-pub`'s reference graph uses, with the same justification: no
//! type inference, total over malformed input, and the consuming rule
//! (`alloc-in-hot-path`) has a marker escape, so a spurious edge costs
//! an annotation, never a missed regression.
//!
//! Resolution, in decreasing specificity:
//!
//! * `Owner::name(…)` — links only to fns recorded with that impl
//!   owner. A qualifier that is no known owner (`Vec::new`,
//!   `f64::powi`, module paths) falls back to the free-fn namespace,
//!   so `shaping::standard_profile(…)` still resolves; std types
//!   simply find no node.
//! * `recv.name(…)` — links to every impl fn of that name, any owner
//!   (receiver types are unknowable without inference).
//! * `name(…)` — links to free fns (no owner) of that name.
//!
//! Hot entry points are marked in source with a `// lint: hot-path`
//! comment on the line of (or directly above) the `fn` keyword.
//! [`build`] runs a BFS from every entry and records, per reachable
//! node, a deterministic *witness* — the lexicographically first entry
//! that reaches it — so `alloc-in-hot-path` messages are stable.

use std::collections::{BTreeMap, BTreeSet};

use crate::engine::FileAnalysis;
use crate::scan::ItemKind;
use crate::syntax::{calls_in, CallSite, CodeView};

/// One `fn` node of the graph.
#[derive(Clone, Debug)]
pub struct FnNode {
    /// Index of the declaring file in the slice passed to [`build`].
    pub file: usize,
    /// Declared name.
    pub name: String,
    /// Impl-block self type, for methods.
    pub owner: Option<String>,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// Raw token range of the body (braces included), when present.
    pub body: Option<(usize, usize)>,
    /// The fn carries a `// lint: hot-path` annotation.
    pub hot_entry: bool,
}

impl FnNode {
    /// `Owner::name` / `name` — the display form reports use.
    pub fn qualified_name(&self) -> String {
        match &self.owner {
            Some(o) => format!("{o}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// The workspace call graph plus the hot-path reachability closure.
pub struct CallGraph {
    /// All nodes, in (file, source) order.
    pub nodes: Vec<FnNode>,
    /// `edges[i]` — callee node indices of node `i`, sorted, deduped.
    pub edges: Vec<Vec<usize>>,
    /// `hot_from[i]` — node index of the witness entry point whose
    /// call chain reaches node `i` (`None`: not on any hot path).
    pub hot_from: Vec<Option<usize>>,
}

impl CallGraph {
    /// The witness entry node for `i`, when `i` lies on a hot path.
    pub fn hot_witness(&self, i: usize) -> Option<&FnNode> {
        self.hot_from.get(i).copied().flatten().map(|e| &self.nodes[e])
    }
}

/// The annotation that marks a hot-path entry point.
pub const HOT_PATH_MARKER: &str = "lint: hot-path";

/// Name-based call resolution over a node set — the one implementation
/// of the over-approximation documented at the top of this module,
/// shared by [`build`] and by [`crate::lockgraph`] (which resolves the
/// same call sites a second time to propagate may-lock sets).
pub struct Resolver<'a> {
    free: BTreeMap<&'a str, Vec<usize>>,
    methods: BTreeMap<&'a str, Vec<usize>>,
    owned: BTreeMap<&'a str, BTreeMap<&'a str, Vec<usize>>>,
    known_owner: BTreeSet<&'a str>,
}

impl<'a> Resolver<'a> {
    /// Indexes `nodes` for by-name lookup.
    pub fn new(nodes: &'a [FnNode]) -> Self {
        let mut free: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        let mut methods: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        let mut owned: BTreeMap<&str, BTreeMap<&str, Vec<usize>>> = BTreeMap::new();
        for (i, n) in nodes.iter().enumerate() {
            match &n.owner {
                Some(o) => {
                    methods.entry(n.name.as_str()).or_default().push(i);
                    owned
                        .entry(o.as_str())
                        .or_default()
                        .entry(n.name.as_str())
                        .or_default()
                        .push(i);
                }
                None => free.entry(n.name.as_str()).or_default().push(i),
            }
        }
        let known_owner: BTreeSet<&str> =
            nodes.iter().filter_map(|n| n.owner.as_deref()).collect();
        Resolver { free, methods, owned, known_owner }
    }

    /// Candidate callee node indices for one call site (resolution
    /// precedence documented at the top of the module).
    pub fn resolve(&self, call: &CallSite) -> &[usize] {
        match (&call.qualifier, call.method) {
            (Some(q), _) if self.known_owner.contains(q.as_str()) => self
                .owned
                .get(q.as_str())
                .and_then(|m| m.get(call.name.as_str()))
                .map_or(&[], Vec::as_slice),
            // Module-qualified free call, or a std/external type:
            // the free namespace decides (std finds nothing).
            (Some(_), _) => self.free.get(call.name.as_str()).map_or(&[], Vec::as_slice),
            (None, true) => self.methods.get(call.name.as_str()).map_or(&[], Vec::as_slice),
            (None, false) => self.free.get(call.name.as_str()).map_or(&[], Vec::as_slice),
        }
    }
}

/// Builds the call graph over `files`. Only library files contribute
/// nodes (harness and reference code is neither annotated nor judged);
/// test-region fns are excluded outright.
pub fn build(files: &[FileAnalysis]) -> CallGraph {
    let mut nodes = Vec::new();
    for (fi, fa) in files.iter().enumerate() {
        if !fa.is_library() {
            continue;
        }
        // Lines carrying the hot-path annotation (trivia only, so a
        // string literal spelling the marker does not annotate).
        let hot_lines: Vec<usize> = fa
            .tokens
            .iter()
            .filter(|t| t.is_trivia() && t.text(&fa.text).contains(HOT_PATH_MARKER))
            .map(|t| t.line)
            .collect();
        for item in &fa.facts.items {
            if item.kind != ItemKind::Fn || item.in_test || item.name.is_empty() {
                continue;
            }
            let hot_entry = hot_lines
                .iter()
                .any(|&l| l == item.line || l + 1 == item.line);
            nodes.push(FnNode {
                file: fi,
                name: item.name.clone(),
                owner: item.owner.clone(),
                line: item.line,
                body: item.body,
                hot_entry,
            });
        }
    }

    // Name-resolution maps (BTreeMap inside: edge order must be stable).
    let resolver = Resolver::new(&nodes);

    let mut edges: Vec<Vec<usize>> = vec![Vec::new(); nodes.len()];
    for (i, n) in nodes.iter().enumerate() {
        let Some((bs, be)) = n.body else { continue };
        let view = CodeView::new(&files[n.file]);
        let (cs, ce) = (view.ci_at_or_after(bs), view.ci_at_or_after(be));
        let mut out = Vec::new();
        for call in calls_in(&view, cs, ce) {
            out.extend_from_slice(resolver.resolve(&call));
        }
        out.sort_unstable();
        out.dedup();
        edges[i] = out;
    }

    // Hot closure: BFS from each entry, entries in lexicographic
    // (name, file, line) order so the recorded witness is deterministic.
    let mut entries: Vec<usize> = (0..nodes.len()).filter(|&i| nodes[i].hot_entry).collect();
    entries.sort_by(|&a, &b| {
        let ka = (&nodes[a].name, nodes[a].file, nodes[a].line);
        let kb = (&nodes[b].name, nodes[b].file, nodes[b].line);
        ka.cmp(&kb)
    });
    let mut hot_from: Vec<Option<usize>> = vec![None; nodes.len()];
    for &entry in &entries {
        if hot_from[entry].is_some() {
            continue; // already reached by an earlier entry
        }
        let mut queue = std::collections::VecDeque::from([entry]);
        hot_from[entry] = Some(entry);
        while let Some(u) = queue.pop_front() {
            for &v in &edges[u] {
                if hot_from[v].is_none() {
                    hot_from[v] = Some(entry);
                    queue.push_back(v);
                }
            }
        }
    }

    CallGraph { nodes, edges, hot_from }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::FileRole;

    fn fa(rel: &str, src: &str) -> FileAnalysis {
        let crate_name = rel.split('/').nth(1).unwrap_or("x").to_string();
        FileAnalysis::new(rel.to_string(), crate_name, FileRole::Library, src.to_string())
    }

    fn node<'a>(g: &'a CallGraph, name: &str) -> (usize, &'a FnNode) {
        g.nodes
            .iter()
            .enumerate()
            .find(|(_, n)| n.name == name)
            .unwrap_or_else(|| panic!("no node `{name}`"))
    }

    fn calls(g: &CallGraph, from: &str) -> Vec<String> {
        let (i, _) = node(g, from);
        g.edges[i].iter().map(|&j| g.nodes[j].qualified_name()).collect()
    }

    #[test]
    fn resolves_free_qualified_and_method_calls() {
        let a = fa(
            "crates/ros-dsp/src/a.rs",
            "pub fn top() { helper(); Fft::plan(1); buf.push_frame(); Vec::new(); }\n\
             fn helper() {}\n",
        );
        let b = fa(
            "crates/ros-dsp/src/b.rs",
            "pub struct Fft;\nimpl Fft {\n    pub fn plan(n: usize) {}\n}\n\
             pub struct Buf;\nimpl Buf {\n    pub fn push_frame(&self) {}\n}\n",
        );
        let files = [a, b];
        let g = build(&files);
        assert_eq!(calls(&g, "top"), ["helper", "Fft::plan", "Buf::push_frame"]);
    }

    #[test]
    fn qualified_call_with_known_owner_does_not_leak_across_owners() {
        let src = "\
pub struct A;\nimpl A {\n    pub fn make() {}\n}\n\
pub struct B;\nimpl B {\n    pub fn make() {}\n}\n\
pub fn top() { A::make(); }\n";
        let files = [fa("crates/core/src/x.rs", src)];
        let g = build(&files);
        assert_eq!(calls(&g, "top"), ["A::make"]);
    }

    #[test]
    fn module_qualified_free_call_resolves_via_free_namespace() {
        let a = fa("crates/core/src/a.rs", "pub fn top() { shaping::profile(3); }\n");
        let b = fa("crates/ros-antenna/src/shaping.rs", "pub fn profile(n: usize) {}\n");
        let files = [a, b];
        let g = build(&files);
        assert_eq!(calls(&g, "top"), ["profile"]);
    }

    #[test]
    fn hot_propagation_is_transitive_with_deterministic_witness() {
        let src = "\
// lint: hot-path
pub fn entry_b() { mid(); }\n\
// lint: hot-path
pub fn entry_a() { mid(); }\n\
fn mid() { leaf(); }\n\
fn leaf() {}\n\
fn cold() { leaf_cold(); }\n\
fn leaf_cold() {}\n";
        let files = [fa("crates/core/src/x.rs", src)];
        let g = build(&files);
        let (leaf, _) = node(&g, "leaf");
        // entry_a sorts before entry_b, so it is the witness even
        // though entry_b appears first in the source.
        assert_eq!(g.hot_witness(leaf).map(|n| n.name.as_str()), Some("entry_a"));
        let (cold, _) = node(&g, "cold");
        assert!(g.hot_witness(cold).is_none());
        let (lc, _) = node(&g, "leaf_cold");
        assert!(g.hot_witness(lc).is_none());
    }

    #[test]
    fn hot_marker_in_string_or_test_code_does_not_annotate() {
        let src = "\
pub fn not_hot() { let s = \"lint: hot-path\"; }\n\
#[cfg(test)]\nmod tests {\n    // lint: hot-path\n    fn t() {}\n}\n";
        let files = [fa("crates/core/src/x.rs", src)];
        let g = build(&files);
        assert!(g.hot_from.iter().all(Option::is_none));
        assert!(g.nodes.iter().all(|n| n.name != "t"), "test fns excluded");
    }

    #[test]
    fn cross_crate_edges_resolve() {
        let radar = fa(
            "crates/ros-radar/src/radar.rs",
            "// lint: hot-path\npub fn capture() { ros_dsp::resample(1.0); }\n",
        );
        let dsp = fa(
            "crates/ros-dsp/src/resample.rs",
            "pub fn resample(x: f64) { grow(); }\nfn grow() {}\n",
        );
        let files = [radar, dsp];
        let g = build(&files);
        let (grow, _) = node(&g, "grow");
        assert_eq!(g.hot_witness(grow).map(|n| n.name.as_str()), Some("capture"));
    }
}
