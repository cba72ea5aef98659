//! Physical deployments: the resources assigned to each logical operator.
//!
//! Historically a deployment was a bare parallelism per operator. The
//! multi-dimensional resource model generalizes it to a
//! [`ResourceAlloc`] — `(parallelism, key_classes, state_budget)` — while
//! keeping the parallelism axis primary: every existing call site that only
//! reads [`Deployment::parallelism`] sees exactly the view it always did,
//! and the extra axes default to "off" (`key_classes = 1`,
//! `state_budget = ∞`), in which case nothing anywhere behaves differently.

use std::collections::BTreeMap;
use std::fmt;

use crate::error::Ds2Error;
use crate::graph::{LogicalGraph, OperatorId};

/// The full resource allocation of one operator: the multi-dimensional
/// generalization of a bare parallelism.
///
/// * `parallelism` — instance count, the DS2 §3 axis.
/// * `key_classes` — how many instances the operator's hottest key class is
///   spread over. `1` (the default) is classic hash partitioning: the
///   hottest key lands on a single instance. Splitting the hot class over
///   `s > 1` instances caps any instance's input share at `hot/s`, which is
///   the only remedy when no parallelism can absorb the hot share.
/// * `state_budget` — per-instance state budget in bytes
///   ([`f64::INFINITY`] = unbudgeted). Operators whose per-instance state
///   exceeds it spill, multiplying their per-record cost.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResourceAlloc {
    /// Number of parallel instances.
    pub parallelism: usize,
    /// Instances the hottest key class is split across (≥ 1).
    pub key_classes: usize,
    /// Per-instance state budget in bytes (∞ = unbudgeted).
    pub state_budget: f64,
}

/// A physical execution plan: the [`ResourceAlloc`] of every logical
/// operator.
///
/// This is the quantity DS2 controls. A deployment is valid for a graph when
/// it assigns at least one instance to every operator.
///
/// Storage is dense `Vec`s indexed by [`OperatorId::index`] — a
/// parallelism of `0` means "unassigned" (operators never legally run zero
/// instances), so lookups on the policy/simulator hot paths are plain index
/// arithmetic instead of `BTreeMap` pointer chasing. The `key_classes` and
/// `state_budget` vectors stay empty until someone sets a non-default
/// value, so parallelism-only plans cost exactly what they used to.
#[derive(Debug, Clone, Default)]
pub struct Deployment {
    parallelism: Vec<usize>,
    /// Key-class split per operator; `0` or missing means the default (1).
    key_classes: Vec<u32>,
    /// Per-instance state budget per operator; missing means ∞.
    state_budget: Vec<f64>,
}

impl Deployment {
    /// Creates a deployment assigning `p` instances to every operator.
    pub fn uniform(graph: &LogicalGraph, p: usize) -> Self {
        Self {
            parallelism: vec![p.max(1); graph.len()],
            key_classes: Vec::new(),
            state_budget: Vec::new(),
        }
    }

    /// Creates an empty deployment with `n` zeroed (unassigned) slots.
    pub fn with_len(n: usize) -> Self {
        Self {
            parallelism: vec![0; n],
            key_classes: Vec::new(),
            state_budget: Vec::new(),
        }
    }

    /// Creates a deployment from explicit per-operator parallelism.
    pub fn from_map(parallelism: BTreeMap<OperatorId, usize>) -> Self {
        let n = parallelism.keys().last().map_or(0, |op| op.index() + 1);
        let mut d = Self::with_len(n);
        for (op, p) in parallelism {
            d.set(op, p);
        }
        d
    }

    /// Validates that every operator of `graph` has at least one instance.
    pub fn validate(&self, graph: &LogicalGraph) -> Result<(), Ds2Error> {
        for op in graph.operators() {
            if self.parallelism(op) == 0 {
                return Err(Ds2Error::InvalidDeployment(format!(
                    "{op} ({}) has no instances assigned",
                    graph.name(op)
                )));
            }
        }
        Ok(())
    }

    /// Parallelism of one operator (0 if the operator is unknown).
    #[inline]
    pub fn parallelism(&self, op: OperatorId) -> usize {
        self.parallelism.get(op.index()).copied().unwrap_or(0)
    }

    /// Sets the parallelism of one operator.
    pub fn set(&mut self, op: OperatorId, p: usize) {
        let i = op.index();
        if i >= self.parallelism.len() {
            self.parallelism.resize(i + 1, 0);
        }
        self.parallelism[i] = p;
    }

    /// Key-class split of one operator (always ≥ 1; defaults to 1 — the
    /// hottest key class lands on a single instance).
    #[inline]
    pub fn key_classes(&self, op: OperatorId) -> usize {
        match self.key_classes.get(op.index()) {
            Some(&s) if s > 1 => s as usize,
            _ => 1,
        }
    }

    /// Sets the key-class split of one operator. Values ≤ 1 restore the
    /// default.
    pub fn set_key_classes(&mut self, op: OperatorId, s: usize) {
        let i = op.index();
        if s <= 1 && i >= self.key_classes.len() {
            return; // already the default
        }
        if i >= self.key_classes.len() {
            self.key_classes.resize(i + 1, 0);
        }
        self.key_classes[i] = if s <= 1 {
            0
        } else {
            s.min(u32::MAX as usize) as u32
        };
    }

    /// Per-instance state budget of one operator in bytes (∞ when
    /// unbudgeted).
    #[inline]
    pub fn state_budget(&self, op: OperatorId) -> f64 {
        match self.state_budget.get(op.index()) {
            Some(&b) if b.is_finite() && b > 0.0 => b,
            _ => f64::INFINITY,
        }
    }

    /// Sets the per-instance state budget of one operator. Non-finite or
    /// non-positive values restore the default (unbudgeted).
    pub(crate) fn set_state_budget(&mut self, op: OperatorId, bytes: f64) {
        let i = op.index();
        let default = !bytes.is_finite() || bytes <= 0.0;
        if default && i >= self.state_budget.len() {
            return;
        }
        if i >= self.state_budget.len() {
            self.state_budget.resize(i + 1, f64::INFINITY);
        }
        self.state_budget[i] = if default { f64::INFINITY } else { bytes };
    }

    /// The full resource allocation of one operator.
    pub fn alloc(&self, op: OperatorId) -> ResourceAlloc {
        ResourceAlloc {
            parallelism: self.parallelism(op),
            key_classes: self.key_classes(op),
            state_budget: self.state_budget(op),
        }
    }

    /// Sets the full resource allocation of one operator.
    pub fn set_alloc(&mut self, op: OperatorId, alloc: ResourceAlloc) {
        self.set(op, alloc.parallelism);
        self.set_key_classes(op, alloc.key_classes);
        self.set_state_budget(op, alloc.state_budget);
    }

    /// Whether the two plans differ on the key-class axis anywhere — the
    /// significance signal for class-split rescales, which may leave every
    /// parallelism unchanged.
    pub(crate) fn classes_differ(&self, other: &Deployment) -> bool {
        let n = self.key_classes.len().max(other.key_classes.len());
        (0..n).any(|i| {
            let op = OperatorId(i);
            self.key_classes(op) != other.key_classes(op)
        })
    }

    /// Resets every assignment to "unassigned" and pins the slot count to
    /// `n`, reusing the existing allocation — the [`PolicyWorkspace`]
    /// clearing path.
    ///
    /// [`PolicyWorkspace`]: crate::policy::PolicyWorkspace
    pub fn reset(&mut self, n: usize) {
        self.parallelism.clear();
        self.parallelism.resize(n, 0);
        self.key_classes.clear();
        self.state_budget.clear();
    }

    /// Iterates over assigned `(operator, parallelism)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (OperatorId, usize)> + '_ {
        self.parallelism
            .iter()
            .enumerate()
            .filter(|&(_, &p)| p > 0)
            .map(|(i, &p)| (OperatorId(i), p))
    }

    /// Total number of instances across all operators.
    pub fn total_instances(&self) -> usize {
        self.parallelism.iter().sum()
    }

    /// Largest absolute per-operator parallelism change between two plans.
    pub(crate) fn max_delta(&self, other: &Deployment) -> usize {
        let n = self.parallelism.len().max(other.parallelism.len());
        let mut delta = 0usize;
        for i in 0..n {
            let p = self.parallelism.get(i).copied().unwrap_or(0);
            let q = other.parallelism.get(i).copied().unwrap_or(0);
            delta = delta.max(p.abs_diff(q));
        }
        delta
    }
}

/// Two deployments are equal when they assign the same resource allocation
/// to the same operators — trailing/missing default slots are ignored, so
/// plans built for the same graph through different code paths compare
/// equal, and a plan that only changes an operator's key-class split or
/// state budget compares *unequal* (it is a real rescale).
impl PartialEq for Deployment {
    fn eq(&self, other: &Self) -> bool {
        let n = self
            .parallelism
            .len()
            .max(other.parallelism.len())
            .max(self.key_classes.len().max(other.key_classes.len()))
            .max(self.state_budget.len().max(other.state_budget.len()));
        (0..n).all(|i| {
            let op = OperatorId(i);
            self.parallelism(op) == other.parallelism(op)
                && self.key_classes(op) == other.key_classes(op)
                && self.state_budget(op).to_bits() == other.state_budget(op).to_bits()
        })
    }
}

impl Eq for Deployment {}

impl fmt::Display for Deployment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, (op, p)) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{op}:{p}")?;
            let s = self.key_classes(op);
            if s > 1 {
                write!(f, "×{s}")?;
            }
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;

    fn graph() -> LogicalGraph {
        let mut b = GraphBuilder::new();
        let s = b.operator("src");
        let o = b.operator("op");
        b.connect(s, o);
        b.build().unwrap()
    }

    #[test]
    fn uniform_assigns_everyone() {
        let g = graph();
        let d = Deployment::uniform(&g, 4);
        assert_eq!(d.parallelism(OperatorId(0)), 4);
        assert_eq!(d.parallelism(OperatorId(1)), 4);
        assert_eq!(d.total_instances(), 8);
        assert!(d.validate(&g).is_ok());
    }

    #[test]
    fn uniform_clamps_zero_to_one() {
        let g = graph();
        let d = Deployment::uniform(&g, 0);
        assert_eq!(d.parallelism(OperatorId(0)), 1);
    }

    #[test]
    fn validate_rejects_missing_and_zero() {
        let g = graph();
        let d = Deployment::from_map([(OperatorId(0), 1)].into());
        assert!(d.validate(&g).is_err());
        let d = Deployment::from_map([(OperatorId(0), 1), (OperatorId(1), 0)].into());
        assert!(d.validate(&g).is_err());
    }

    #[test]
    fn max_delta_is_symmetric() {
        let a = Deployment::from_map([(OperatorId(0), 2), (OperatorId(1), 10)].into());
        let b = Deployment::from_map([(OperatorId(0), 5), (OperatorId(1), 7)].into());
        assert_eq!(a.max_delta(&b), 3);
        assert_eq!(b.max_delta(&a), 3);
    }

    #[test]
    fn max_delta_counts_unassigned_as_zero() {
        let a = Deployment::from_map([(OperatorId(0), 2)].into());
        let b = Deployment::from_map([(OperatorId(0), 2), (OperatorId(2), 6)].into());
        assert_eq!(a.max_delta(&b), 6);
        assert_eq!(b.max_delta(&a), 6);
    }

    #[test]
    fn equality_ignores_trailing_unassigned_slots() {
        let mut a = Deployment::with_len(8);
        a.set(OperatorId(0), 2);
        let b = Deployment::from_map([(OperatorId(0), 2)].into());
        assert_eq!(a, b);
        a.set(OperatorId(5), 1);
        assert_ne!(a, b);
    }

    #[test]
    fn reset_clears_and_pins_len() {
        let mut d = Deployment::from_map([(OperatorId(0), 2), (OperatorId(3), 4)].into());
        d.reset(2);
        assert_eq!(d.parallelism(OperatorId(0)), 0);
        assert_eq!(d.parallelism(OperatorId(3)), 0);
        assert_eq!(d.total_instances(), 0);
        d.set(OperatorId(1), 3);
        assert_eq!(d.iter().collect::<Vec<_>>(), [(OperatorId(1), 3)]);
    }

    #[test]
    fn display_lists_assignments() {
        let d = Deployment::from_map([(OperatorId(0), 2), (OperatorId(1), 3)].into());
        assert_eq!(d.to_string(), "{op0:2, op1:3}");
    }

    #[test]
    fn default_alloc_is_parallelism_only() {
        let d = Deployment::from_map([(OperatorId(0), 3)].into());
        let a = d.alloc(OperatorId(0));
        let plain = ResourceAlloc {
            parallelism: 3,
            key_classes: 1,
            state_budget: f64::INFINITY,
        };
        assert_eq!(a, plain);
        assert_eq!(d.key_classes(OperatorId(0)), 1);
        assert_eq!(d.state_budget(OperatorId(0)), f64::INFINITY);
    }

    #[test]
    fn class_only_changes_are_unequal_but_parallelism_view_is_lossless() {
        let base = Deployment::from_map([(OperatorId(0), 2), (OperatorId(1), 4)].into());
        let mut split = base.clone();
        split.set_key_classes(OperatorId(1), 2);
        // The parallelism view is unchanged...
        assert_eq!(split.parallelism(OperatorId(1)), 4);
        assert_eq!(split.max_delta(&base), 0);
        // ...but the plans are distinguishable (a split is a real rescale).
        assert_ne!(base, split);
        assert!(split.classes_differ(&base));
        assert_eq!(split.alloc(OperatorId(1)).key_classes, 2);
        assert_eq!(split.to_string(), "{op0:2, op1:4×2}");
    }

    #[test]
    fn default_axes_compare_equal_across_representations() {
        let plain = Deployment::from_map([(OperatorId(0), 2)].into());
        let mut explicit = plain.clone();
        // Setting defaults explicitly must not make the plans unequal.
        explicit.set_key_classes(OperatorId(0), 1);
        explicit.set_state_budget(OperatorId(0), f64::INFINITY);
        assert_eq!(plain, explicit);
        assert!(!plain.classes_differ(&explicit));
        // A split set and then reverted is the default again.
        explicit.set_key_classes(OperatorId(0), 3);
        assert_ne!(plain, explicit);
        explicit.set_key_classes(OperatorId(0), 1);
        assert_eq!(plain, explicit);
    }

    #[test]
    fn state_budget_round_trips_and_resets() {
        let mut d = Deployment::from_map([(OperatorId(0), 2)].into());
        d.set_state_budget(OperatorId(0), 1e9);
        assert_eq!(d.state_budget(OperatorId(0)), 1e9);
        let other = Deployment::from_map([(OperatorId(0), 2)].into());
        assert_ne!(d, other);
        d.reset(1);
        assert_eq!(d.state_budget(OperatorId(0)), f64::INFINITY);
    }

    #[test]
    fn set_alloc_round_trips() {
        let mut d = Deployment::with_len(2);
        let alloc = ResourceAlloc {
            parallelism: 6,
            key_classes: 3,
            state_budget: 5e8,
        };
        d.set_alloc(OperatorId(1), alloc);
        assert_eq!(d.alloc(OperatorId(1)), alloc);
        assert_eq!(d.parallelism(OperatorId(1)), 6);
    }
}
