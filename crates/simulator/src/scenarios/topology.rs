//! Random dataflow topologies for the scenario matrix.
//!
//! Every shape is a DAG of 2–12 operators, mirroring the structures the
//! paper evaluates (word-count chains, Nexmark joins with fan-in,
//! multi-output pipelines with fan-out) plus layered "diamond"
//! compositions that exercise the policy's topological traversal on
//! non-trivial in/out degrees, and multi-source ingestion graphs (several
//! independent feeds merging into one pipeline — the Kafka-multi-topic
//! shape). All families except [`TopologyShape::MultiSource`] have exactly
//! one source.

use ds2_core::graph::{GraphBuilder, LogicalGraph, OperatorId};
use rand::rngs::SmallRng;
use rand::Rng;

/// The family a generated topology belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TopologyShape {
    /// `src -> op1 -> op2 -> …` — the word-count shape.
    Chain,
    /// A chain that splits into parallel branches and re-joins — the
    /// Nexmark Q3/Q8 join shape.
    Diamond,
    /// One upstream stage feeding several independent downstream chains.
    FanOut,
    /// Several parallel chains merging into one downstream stage.
    FanIn,
    /// Random layered DAG: every operator connects to one or more operators
    /// of the next layer.
    Layered,
    /// Several independent sources merging into one downstream pipeline —
    /// multi-topic ingestion, where the merge stage sees the *sum* of all
    /// feeds.
    MultiSource,
}

impl TopologyShape {
    /// All shapes, in matrix iteration order.
    pub const ALL: [TopologyShape; 6] = [
        TopologyShape::Chain,
        TopologyShape::Diamond,
        TopologyShape::FanOut,
        TopologyShape::FanIn,
        TopologyShape::Layered,
        TopologyShape::MultiSource,
    ];

    /// Short name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            TopologyShape::Chain => "chain",
            TopologyShape::Diamond => "diamond",
            TopologyShape::FanOut => "fan_out",
            TopologyShape::FanIn => "fan_in",
            TopologyShape::Layered => "layered",
            TopologyShape::MultiSource => "multi_source",
        }
    }

    /// Parses a short name as printed in reports.
    pub fn from_name(name: &str) -> Option<TopologyShape> {
        TopologyShape::ALL.into_iter().find(|s| s.name() == name)
    }
}

/// A generated topology: the logical graph plus its operators in creation
/// order (`ids` starts with the sources; every family except
/// [`TopologyShape::MultiSource`] has exactly one).
#[derive(Debug, Clone)]
pub struct Topology {
    /// The family this graph was drawn from.
    pub shape: TopologyShape,
    /// The built dataflow graph.
    pub graph: LogicalGraph,
    /// All operators, sources first.
    pub ids: Vec<OperatorId>,
}

impl Topology {
    /// Generates a topology of `n_ops` total operators (including the
    /// source; `n_ops >= 2`) of the given shape.
    pub fn generate(shape: TopologyShape, n_ops: usize, rng: &mut SmallRng) -> Topology {
        let n_ops = n_ops.max(2);
        let mut b = GraphBuilder::new();
        let src = b.operator("source");
        let mut ids = vec![src];
        let workers = n_ops - 1;

        // A shape without the operators it needs (a diamond's split, two
        // branches and join; a second lane, feed or merge) degrades to a
        // chain, so the requested operator count is honoured exactly.
        let min_workers = match shape {
            TopologyShape::Diamond => 4,
            TopologyShape::FanOut | TopologyShape::FanIn | TopologyShape::MultiSource => 2,
            TopologyShape::Chain | TopologyShape::Layered => 1,
        };
        let arm = if workers < min_workers {
            TopologyShape::Chain
        } else {
            shape
        };

        match arm {
            TopologyShape::Chain => {
                let mut prev = src;
                for i in 0..workers {
                    let op = b.operator(format!("op{i}"));
                    b.connect(prev, op);
                    ids.push(op);
                    prev = op;
                }
            }
            TopologyShape::Diamond => {
                // src -> split -> {branches…} -> join [-> tail…]
                let split = b.operator("split");
                b.connect(src, split);
                ids.push(split);
                let branch_budget = workers - 2;
                let branches = rng.gen_range(2..=branch_budget.min(3));
                let mut branch_ends = Vec::new();
                let mut used = 1; // split
                for bi in 0..branches {
                    let op = b.operator(format!("branch{bi}"));
                    b.connect(split, op);
                    ids.push(op);
                    branch_ends.push(op);
                    used += 1;
                }
                let join = b.operator("join");
                for &e in &branch_ends {
                    b.connect(e, join);
                }
                ids.push(join);
                used += 1;
                let mut prev = join;
                for i in used..workers {
                    let op = b.operator(format!("tail{i}"));
                    b.connect(prev, op);
                    ids.push(op);
                    prev = op;
                }
            }
            TopologyShape::FanOut => {
                // src -> head -> {independent chains}
                let head = b.operator("head");
                b.connect(src, head);
                ids.push(head);
                let rest = workers - 1;
                let chains = rng.gen_range(2..=rest.clamp(2, 3));
                // Distribute the remaining operators over the chains.
                let mut prev: Vec<OperatorId> = (0..chains).map(|_| head).collect();
                for i in 0..rest {
                    let lane = i % chains;
                    let op = b.operator(format!("lane{lane}_{i}"));
                    b.connect(prev[lane], op);
                    ids.push(op);
                    prev[lane] = op;
                }
            }
            TopologyShape::FanIn => {
                // src -> {parallel chains} -> merge [-> tail]
                let rest = workers - 1;
                let chains = rng.gen_range(2..=rest.clamp(2, 3));
                let mut prev: Vec<OperatorId> = (0..chains).map(|_| src).collect();
                for i in 0..rest {
                    let lane = i % chains;
                    let op = b.operator(format!("lane{lane}_{i}"));
                    b.connect(prev[lane], op);
                    ids.push(op);
                    prev[lane] = op;
                }
                let merge = b.operator("merge");
                for &p in prev.iter() {
                    if p != src {
                        b.connect(p, merge);
                    }
                }
                ids.push(merge);
            }
            TopologyShape::MultiSource => {
                // {src0, src1[, src2]} -> merge [-> tail…]. Extra sources
                // count against the operator budget; every source feeds the
                // merge stage, which therefore sees the sum of all feeds.
                let extra = rng.gen_range(1..=(workers - 1).min(2));
                let mut extra_sources = Vec::with_capacity(extra);
                for si in 0..extra {
                    let s = b.operator(format!("source{}", si + 1));
                    ids.push(s);
                    extra_sources.push(s);
                }
                let merge = b.operator("merge");
                b.connect(src, merge);
                for &s in &extra_sources {
                    b.connect(s, merge);
                }
                ids.push(merge);
                let mut prev = merge;
                for i in (extra + 1)..workers {
                    let op = b.operator(format!("tail{i}"));
                    b.connect(prev, op);
                    ids.push(op);
                    prev = op;
                }
            }
            TopologyShape::Layered => {
                // Random layer widths summing to `workers`.
                let mut layers: Vec<usize> = Vec::new();
                let mut remaining = workers;
                while remaining > 0 {
                    let w = rng.gen_range(1..=remaining.min(3));
                    layers.push(w);
                    remaining -= w;
                }
                let mut prev_layer = vec![src];
                let mut connected = std::collections::BTreeSet::new();
                for (li, &w) in layers.iter().enumerate() {
                    let mut layer = Vec::with_capacity(w);
                    for i in 0..w {
                        let op = b.operator(format!("l{li}_{i}"));
                        ids.push(op);
                        layer.push(op);
                    }
                    // Every new operator gets at least one upstream parent;
                    // every parent gets at least one child.
                    for (i, &op) in layer.iter().enumerate() {
                        let parent = prev_layer[i % prev_layer.len()];
                        if connected.insert((parent, op)) {
                            b.connect(parent, op);
                        }
                    }
                    for (i, &parent) in prev_layer.iter().enumerate() {
                        if i >= layer.len() {
                            let child = layer[i % layer.len()];
                            if connected.insert((parent, child)) {
                                b.connect(parent, child);
                            }
                        }
                    }
                    // A few extra random edges for higher in-degrees.
                    for &op in &layer {
                        if prev_layer.len() > 1 && rng.gen_bool(0.3) {
                            let extra = prev_layer[rng.gen_range(0..prev_layer.len())];
                            if connected.insert((extra, op)) {
                                b.connect(extra, op);
                            }
                        }
                    }
                    prev_layer = layer;
                }
            }
        }

        let graph = b.build().expect("generated topology is a valid DAG");
        debug_assert!(graph.sources().contains(&src));
        debug_assert!(shape == TopologyShape::MultiSource || graph.sources() == [src]);
        Topology { shape, graph, ids }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn all_shapes_build_valid_dags() {
        let mut rng = SmallRng::seed_from_u64(7);
        for shape in TopologyShape::ALL {
            for n in 2..=12 {
                let t = Topology::generate(shape, n, &mut rng);
                let n_sources = t.graph.sources().len();
                if shape == TopologyShape::MultiSource && n >= 3 {
                    assert!((2..=3).contains(&n_sources), "{shape:?} n={n}");
                } else {
                    assert_eq!(n_sources, 1, "{shape:?} n={n}");
                }
                // Sources lead the creation-order id list.
                assert_eq!(&t.ids[..n_sources], t.graph.sources(), "{shape:?} n={n}");
                assert_eq!(t.graph.len(), t.ids.len(), "{shape:?} n={n}");
                assert_eq!(t.graph.len(), n, "{shape:?} must honour n_ops exactly");
                // Every non-source operator is reachable (has upstream).
                for op in t.graph.operators() {
                    if !t.graph.is_source(op) {
                        assert!(
                            t.graph.upstream_edges(op).next().is_some(),
                            "{shape:?} n={n}: {op} unreachable"
                        );
                    }
                }
                // Topological order covers every operator (acyclic).
                assert_eq!(t.graph.topological_order().count(), t.graph.len());
            }
        }
    }

    #[test]
    fn every_shape_respects_exact_operator_count() {
        let mut rng = SmallRng::seed_from_u64(3);
        for shape in TopologyShape::ALL {
            for n in 2..=12 {
                let t = Topology::generate(shape, n, &mut rng);
                assert_eq!(t.graph.len(), n, "{shape:?} n={n}");
            }
        }
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        for shape in TopologyShape::ALL {
            for n in [3, 6, 9, 12] {
                let a = Topology::generate(shape, n, &mut SmallRng::seed_from_u64(11));
                let b = Topology::generate(shape, n, &mut SmallRng::seed_from_u64(11));
                assert_eq!(a.ids, b.ids, "{shape:?} n={n}");
                assert_eq!(a.graph.edges(), b.graph.edges(), "{shape:?} n={n}");
            }
        }
    }

    #[test]
    fn multi_source_merges_every_feed() {
        let mut rng = SmallRng::seed_from_u64(13);
        for n in 3..=12 {
            let t = Topology::generate(TopologyShape::MultiSource, n, &mut rng);
            let sources = t.graph.sources().to_vec();
            assert!(sources.len() >= 2, "n={n}");
            // Every source feeds the same merge operator.
            let merge_targets: std::collections::BTreeSet<_> = sources
                .iter()
                .flat_map(|&s| t.graph.downstream_edges(s).map(|e| e.to))
                .collect();
            assert_eq!(merge_targets.len(), 1, "n={n}: sources must share a merge");
            let merge = *merge_targets.iter().next().unwrap();
            assert_eq!(
                t.graph.upstream_edges(merge).count(),
                sources.len(),
                "n={n}"
            );
        }
    }
}
