//! Logical dataflow graphs (paper §3.1).
//!
//! A streaming computation is a directed acyclic graph `G = (V, E)` whose
//! vertices are *operators* and whose edges are data dependencies. Vertices
//! with no incoming edges are *sources*; vertices with no outgoing edges are
//! *sinks*. The logical graph is static: scaling decisions change only the
//! *physical* graph (how many instances run each operator), never `G` itself.

use std::fmt;

use crate::error::Ds2Error;

/// Identifier of a logical operator within a [`LogicalGraph`].
///
/// Ids are dense indices assigned by [`GraphBuilder::operator`] in insertion
/// order; they are only meaningful relative to the graph that created them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct OperatorId(pub usize);

impl OperatorId {
    /// Returns the dense index of this operator.
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for OperatorId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "op{}", self.0)
    }
}

/// An edge of the logical graph, with an optional routing weight.
///
/// The weight is the fraction of the upstream operator's output that flows
/// along this edge. The paper's model (Eq. 8) assumes every downstream
/// operator receives the full output of each upstream operator (`weight =
/// 1.0`, i.e. broadcast semantics on fan-out); weighted edges are a strict
/// generalisation for dataflows that split their output.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Edge {
    /// Upstream operator.
    pub from: OperatorId,
    /// Downstream operator.
    pub to: OperatorId,
    /// Fraction of `from`'s output routed to `to` (in `(0, 1]`).
    pub weight: f64,
}

/// Builder for [`LogicalGraph`].
///
/// # Examples
///
/// ```
/// use ds2_core::graph::GraphBuilder;
///
/// let mut b = GraphBuilder::new();
/// let src = b.operator("source");
/// let map = b.operator("flat_map");
/// let agg = b.operator("count");
/// b.connect(src, map);
/// b.connect(map, agg);
/// let graph = b.build().unwrap();
/// assert_eq!(graph.sources(), &[src]);
/// assert!(graph.is_sink(agg));
/// ```
#[derive(Debug, Default)]
pub struct GraphBuilder {
    names: Vec<String>,
    edges: Vec<Edge>,
}

impl GraphBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds an operator with the given human-readable name.
    pub fn operator(&mut self, name: impl Into<String>) -> OperatorId {
        let id = OperatorId(self.names.len());
        self.names.push(name.into());
        id
    }

    /// Adds a full-rate edge (`weight = 1.0`) from `from` to `to`.
    pub fn connect(&mut self, from: OperatorId, to: OperatorId) -> &mut Self {
        self.connect_weighted(from, to, 1.0)
    }

    /// Adds an edge carrying `weight` of `from`'s output to `to`.
    pub(crate) fn connect_weighted(
        &mut self,
        from: OperatorId,
        to: OperatorId,
        weight: f64,
    ) -> &mut Self {
        self.edges.push(Edge { from, to, weight });
        self
    }

    /// Validates the graph and produces an immutable [`LogicalGraph`].
    ///
    /// Fails if the graph is empty, an edge references an unknown operator,
    /// an edge weight is outside `(0, 1]`, the graph has a cycle or a
    /// self-loop, there are duplicate edges, or the graph has no source or no
    /// sink.
    pub fn build(self) -> Result<LogicalGraph, Ds2Error> {
        LogicalGraph::from_parts(self.names, self.edges)
    }
}

/// An immutable, validated logical dataflow graph.
///
/// Construction via [`GraphBuilder`] guarantees the graph is a non-empty DAG
/// with at least one source and one sink, which is what the DS2 policy
/// (paper Eq. 7–8) requires: `0 < n < m` where `n` is the number of sources
/// and `m` the number of operators.
#[derive(Debug, Clone)]
pub struct LogicalGraph {
    names: Vec<String>,
    edges: Vec<Edge>,
    /// Outgoing edge indices per operator.
    out_edges: Vec<Vec<usize>>,
    /// Incoming edge indices per operator.
    in_edges: Vec<Vec<usize>>,
    /// Operator indices in a topological order (sources first).
    topo: Vec<usize>,
    sources: Vec<OperatorId>,
}

impl LogicalGraph {
    fn from_parts(names: Vec<String>, edges: Vec<Edge>) -> Result<Self, Ds2Error> {
        let m = names.len();
        if m == 0 {
            return Err(Ds2Error::InvalidGraph("graph has no operators".into()));
        }
        let mut seen = std::collections::BTreeSet::new();
        for e in &edges {
            if e.from.0 >= m || e.to.0 >= m {
                return Err(Ds2Error::InvalidGraph(format!(
                    "edge {} -> {} references unknown operator",
                    e.from, e.to
                )));
            }
            if e.from == e.to {
                return Err(Ds2Error::InvalidGraph(format!("self-loop on {}", e.from)));
            }
            if !(e.weight > 0.0 && e.weight <= 1.0) {
                return Err(Ds2Error::InvalidGraph(format!(
                    "edge {} -> {} has weight {} outside (0, 1]",
                    e.from, e.to, e.weight
                )));
            }
            if !seen.insert((e.from.0, e.to.0)) {
                return Err(Ds2Error::InvalidGraph(format!(
                    "duplicate edge {} -> {}",
                    e.from, e.to
                )));
            }
        }

        let mut out_edges = vec![Vec::new(); m];
        let mut in_edges = vec![Vec::new(); m];
        for (idx, e) in edges.iter().enumerate() {
            out_edges[e.from.0].push(idx);
            in_edges[e.to.0].push(idx);
        }

        // Kahn's algorithm: detects cycles and yields a topological order in
        // which sources come first.
        let mut indeg: Vec<usize> = in_edges.iter().map(Vec::len).collect();
        let mut queue: std::collections::VecDeque<usize> =
            (0..m).filter(|&v| indeg[v] == 0).collect();
        let mut topo = Vec::with_capacity(m);
        while let Some(v) = queue.pop_front() {
            topo.push(v);
            for &eidx in &out_edges[v] {
                let w = edges[eidx].to.0;
                indeg[w] -= 1;
                if indeg[w] == 0 {
                    queue.push_back(w);
                }
            }
        }
        if topo.len() != m {
            return Err(Ds2Error::InvalidGraph("graph contains a cycle".into()));
        }

        let sources: Vec<OperatorId> = (0..m)
            .filter(|&v| in_edges[v].is_empty())
            .map(OperatorId)
            .collect();
        if sources.len() == m {
            return Err(Ds2Error::InvalidGraph(
                "graph has no edges: every operator is both source and sink".into(),
            ));
        }

        Ok(Self {
            names,
            edges,
            out_edges,
            in_edges,
            topo,
            sources,
        })
    }

    /// Number of operators `m` in the graph.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Returns `true` if the graph has no operators (never true post-build).
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Human-readable name of an operator.
    pub fn name(&self, id: OperatorId) -> &str {
        &self.names[id.0]
    }

    /// Looks up an operator id by its name (first match).
    pub fn by_name(&self, name: &str) -> Option<OperatorId> {
        self.names.iter().position(|n| n == name).map(OperatorId)
    }

    /// All operator ids in insertion order.
    pub fn operators(&self) -> impl Iterator<Item = OperatorId> + '_ {
        (0..self.names.len()).map(OperatorId)
    }

    /// Operator ids in a topological order, sources first.
    pub fn topological_order(&self) -> impl Iterator<Item = OperatorId> + '_ {
        self.topo.iter().map(|&v| OperatorId(v))
    }

    /// Source operators (no upstream).
    pub fn sources(&self) -> &[OperatorId] {
        &self.sources
    }

    /// Returns `true` if `id` is a source.
    pub fn is_source(&self, id: OperatorId) -> bool {
        self.in_edges[id.0].is_empty()
    }

    /// Returns `true` if `id` is a sink.
    pub fn is_sink(&self, id: OperatorId) -> bool {
        self.out_edges[id.0].is_empty()
    }

    /// All edges.
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Upstream edges of `id` (edges whose `to` is `id`).
    pub fn upstream_edges(&self, id: OperatorId) -> impl Iterator<Item = &Edge> + '_ {
        self.in_edges[id.0].iter().map(move |&e| &self.edges[e])
    }

    /// Downstream edges of `id` (edges whose `from` is `id`).
    pub fn downstream_edges(&self, id: OperatorId) -> impl Iterator<Item = &Edge> + '_ {
        self.out_edges[id.0].iter().map(move |&e| &self.edges[e])
    }

    /// Upstream operator ids of `id`.
    pub fn upstream(&self, id: OperatorId) -> Vec<OperatorId> {
        self.upstream_edges(id).map(|e| e.from).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn linear3() -> (LogicalGraph, OperatorId, OperatorId, OperatorId) {
        let mut b = GraphBuilder::new();
        let s = b.operator("src");
        let o1 = b.operator("o1");
        let o2 = b.operator("o2");
        b.connect(s, o1);
        b.connect(o1, o2);
        (b.build().unwrap(), s, o1, o2)
    }

    #[test]
    fn builds_linear_graph() {
        let (g, s, o1, o2) = linear3();
        assert_eq!(g.len(), 3);
        assert_eq!(g.sources(), &[s]);
        assert!(g.is_source(s));
        assert!(!g.is_source(o1));
        assert!(g.is_sink(o2));
        assert!(!g.is_sink(s) && !g.is_sink(o1));
        let downstream: Vec<_> = g.downstream_edges(s).map(|e| e.to).collect();
        assert_eq!(downstream, vec![o1]);
        assert_eq!(g.upstream(o2), vec![o1]);
        assert_eq!(g.name(o1), "o1");
        assert_eq!(g.by_name("o2"), Some(o2));
        assert_eq!(g.by_name("nope"), None);
    }

    #[test]
    fn topological_order_respects_edges() {
        let mut b = GraphBuilder::new();
        let s1 = b.operator("s1");
        let s2 = b.operator("s2");
        let j = b.operator("join");
        let k = b.operator("sink");
        b.connect(s2, j);
        b.connect(s1, j);
        b.connect(j, k);
        let g = b.build().unwrap();
        let order: Vec<OperatorId> = g.topological_order().collect();
        let pos = |id: OperatorId| order.iter().position(|&x| x == id).unwrap();
        assert!(pos(s1) < pos(j));
        assert!(pos(s2) < pos(j));
        assert!(pos(j) < pos(k));
    }

    #[test]
    fn rejects_cycle() {
        let mut b = GraphBuilder::new();
        let a = b.operator("a");
        let c = b.operator("b");
        b.connect(a, c);
        b.connect(c, a);
        assert!(matches!(b.build(), Err(Ds2Error::InvalidGraph(_))));
    }

    #[test]
    fn rejects_self_loop() {
        let mut b = GraphBuilder::new();
        let a = b.operator("a");
        let _ = b.operator("b");
        b.connect(a, a);
        assert!(b.build().is_err());
    }

    #[test]
    fn rejects_duplicate_edge() {
        let mut b = GraphBuilder::new();
        let a = b.operator("a");
        let c = b.operator("b");
        b.connect(a, c);
        b.connect(a, c);
        assert!(b.build().is_err());
    }

    #[test]
    fn rejects_empty_graph() {
        assert!(GraphBuilder::new().build().is_err());
    }

    #[test]
    fn rejects_edgeless_graph() {
        let mut b = GraphBuilder::new();
        b.operator("a");
        b.operator("b");
        assert!(b.build().is_err());
    }

    #[test]
    fn rejects_bad_weight() {
        for w in [0.0, -1.0, 1.5, f64::NAN] {
            let mut b = GraphBuilder::new();
            let a = b.operator("a");
            let c = b.operator("b");
            b.connect_weighted(a, c, w);
            assert!(b.build().is_err(), "weight {w} should be rejected");
        }
    }

    #[test]
    fn rejects_unknown_operator_edge() {
        let mut b = GraphBuilder::new();
        let a = b.operator("a");
        b.connect(a, OperatorId(7));
        assert!(b.build().is_err());
    }

    #[test]
    fn diamond_fanout_edges() {
        let mut b = GraphBuilder::new();
        let s = b.operator("s");
        let l = b.operator("left");
        let r = b.operator("right");
        let k = b.operator("sink");
        b.connect_weighted(s, l, 0.5);
        b.connect_weighted(s, r, 0.5);
        b.connect(l, k);
        b.connect(r, k);
        let g = b.build().unwrap();
        assert_eq!(g.downstream_edges(s).count(), 2);
        assert_eq!(g.upstream(k).len(), 2);
        let w: f64 = g.downstream_edges(s).map(|e| e.weight).sum();
        assert!((w - 1.0).abs() < 1e-12);
    }
}
