//! The Scaling Manager (paper §4.2): wraps the DS2 policy with the
//! operational machinery real deployments need.
//!
//! The manager implements the four §4.2.1 knobs — policy interval, warm-up
//! time, activation time, and target-rate ratio — plus the §4.2.2
//! practicalities: suppression of minor changes, rollback on post-deploy
//! degradation, and a decision limit that guarantees convergence under data
//! skew (§4.2.3). It trusts its inputs — snapshots are taken as reported
//! and a requested rescale is waited for until it is acknowledged; wrap it
//! in [`Hardened`](crate::hardened::Hardened) where they cannot be trusted.
//!
//! The per-window path is allocation-conscious: the manager owns one
//! [`Ds2Policy`] and one [`PolicyWorkspace`] for its whole lifetime, passes
//! the learned requirement boost as an *argument* to
//! `Ds2Policy::evaluate_boosted_into`, and keeps its offered-rate and
//! activation-combining scratch in dense reusable buffers.

use std::collections::VecDeque;

use crate::controller::{ControllerVerdict, ScalingController};
use crate::deployment::Deployment;
use crate::error::Ds2Error;
use crate::graph::LogicalGraph;
use crate::opmap::OpMap;
use crate::policy::{Ds2Policy, PolicyConfig, PolicyWorkspace};
use crate::snapshot::MetricsSnapshot;

/// Slack applied to `target_rate_ratio` comparisons, absorbing measurement
/// noise.
const RATIO_TOLERANCE: f64 = 0.02;

/// Fractional degradation of the achieved ratio after a deploy that
/// triggers a rollback to the previous configuration (§4.2.2).
const DEGRADATION_TOLERANCE: f64 = 0.1;

/// Fractional change of a source's measured offered rate beyond which the
/// pre/post-deploy ratio comparison is considered meaningless and the
/// rollback check is skipped (the degradation is explained by the load,
/// not the deploy).
const ROLLBACK_LOAD_SHIFT_TOLERANCE: f64 = 0.1;

/// Intervals the rolled-back-from plan stays suppressed after a rollback.
/// The ban must expire: when a rollback was actually caused by an exogenous
/// load change (a spike arriving mid-deploy), the banned plan is the
/// *correct* one and suppressing it forever would pin the job
/// under-provisioned. Consecutive rollbacks escalate the ban linearly
/// (2x, 3x, …) so a plan that degrades performance under *stable* load is
/// retried ever more rarely instead of cycling redeploy/degrade/rollback at
/// a fixed cadence.
const ROLLBACK_BAN_INTERVALS: u32 = 3;

/// Entries the decision log keeps; older ones are evicted, so a controller
/// that runs for the life of a job does not grow without bound.
const HISTORY_CAP: usize = 64;

/// Configuration of the [`ScalingManager`].
#[derive(Debug, Clone)]
pub struct ManagerConfig {
    /// Policy evaluation cadence in nanoseconds. The manager itself is
    /// driven externally and never reads this; it records the cadence the
    /// caller drives it at.
    pub policy_interval_ns: u64,
    /// Number of consecutive policy intervals ignored after a scaling action
    /// (and at startup), while rate measurements stabilise.
    pub warmup_intervals: u32,
    /// Number of consecutive policy decisions combined (per-operator upper
    /// median) before a scaling command is issued. `1` applies each
    /// decision immediately.
    pub activation_intervals: u32,
    /// Maximum allowed shortfall of achieved vs. target source rate, as a
    /// fraction in `(0, 1]`. With `1.0` the achieved rate must match the
    /// target exactly (up to a 2% tolerance); when it does not and the
    /// policy sees no further scaling need, the manager boosts requirements
    /// by `target/achieved` — compensating for uncaptured overheads.
    pub target_rate_ratio: f64,
    /// Per-operator parallelism changes up to this magnitude are ignored
    /// *while the job keeps up with its target rate* (noise suppression,
    /// §4.2.2). Changes are never suppressed when the target is missed.
    pub min_change: usize,
    /// Hard cap on the number of scaling actions; `None` for unlimited.
    /// §4.2.3 relies on this to guarantee convergence under skew.
    pub max_decisions: Option<u32>,
    /// Per-instance state budget in bytes, the state axis of the resource
    /// model. When finite, operators whose reported state exceeds the
    /// budget get a parallelism *floor* of `ceil(total_state / budget)` —
    /// enough instances that each holds at most a budget's worth of state —
    /// layered on top of the rate-driven Eq. 7 prescription. `∞` (default)
    /// disables the axis entirely.
    pub state_budget_per_instance: f64,
    /// Underlying policy knobs (maximum parallelism, split detection).
    pub policy: PolicyConfig,
}

impl Default for ManagerConfig {
    fn default() -> Self {
        Self {
            policy_interval_ns: 10_000_000_000, // 10 s, the Flink setting in §5.3
            warmup_intervals: 0,
            activation_intervals: 1,
            target_rate_ratio: 1.0,
            min_change: 2,
            max_decisions: None,
            state_budget_per_instance: f64::INFINITY,
            policy: PolicyConfig::default(),
        }
    }
}

/// One entry of the manager's decision log, for observability and tests.
#[derive(Debug, Clone)]
pub struct DecisionRecord {
    /// Time of the evaluation in nanoseconds.
    pub at_ns: u64,
    /// The plan the policy produced (before activation combining), if it
    /// produced one.
    pub plan: Option<Deployment>,
    /// Achieved/offered source-rate ratio at evaluation time.
    pub achieved_ratio: Option<f64>,
    /// Requirement boost in effect for this evaluation.
    pub boost: f64,
    /// Whether a scaling command was issued this interval.
    pub acted: bool,
    /// Typed reason when the interval deferred, vetoed, retried, or gave
    /// up instead of evaluating cleanly.
    pub error: Option<Ds2Error>,
}

/// The DS2 Scaling Manager: a [`ScalingController`] combining the policy of
/// §3.2 with the deployment pragmatics of §4.2.
#[derive(Debug)]
pub struct ScalingManager {
    graph: LogicalGraph,
    config: ManagerConfig,
    /// The policy, built once from `config.policy`.
    policy: Ds2Policy,
    /// Dense evaluation scratch, reused every window (and reusable across
    /// manager instances via [`ScalingManager::with_workspace`]).
    workspace: PolicyWorkspace,
    warmup_remaining: u32,
    pending: Vec<Deployment>,
    decisions_made: u32,
    awaiting_deploy: bool,
    /// Deployment active before the most recent rescale, for rollback.
    previous_deployment: Option<Deployment>,
    /// Achieved ratio observed before the most recent rescale.
    pre_deploy_ratio: Option<f64>,
    /// Per-source offered rates observed before the most recent rescale;
    /// rollback only makes sense while the load is still comparable
    /// (compared per source — opposite shifts must not cancel).
    pre_deploy_offered: Option<OpMap<f64>>,
    /// This window's per-source offered rates (dense scratch).
    offered_scratch: OpMap<f64>,
    /// Per-operator sorting scratch for activation combining.
    combine_values: Vec<usize>,
    /// Set after a rollback so the manager does not immediately re-propose
    /// the configuration it just rolled back from.
    rolled_back_from: Option<Deployment>,
    /// Intervals left before the `rolled_back_from` ban expires.
    rollback_ban_remaining: u32,
    /// Rollbacks since the last deploy that survived, scaling the ban.
    consecutive_rollbacks: u32,
    /// Requirement boost learned from past target-rate-ratio corrections
    /// (§4.2.1). Uncaptured overheads do not disappear once compensated:
    /// without persistence, the next healthy evaluation — still blind to
    /// them — would undo the correction and the deployment would flap
    /// between the raw and the corrected plan.
    sticky_boost: f64,
    history: VecDeque<DecisionRecord>,
    consecutive_stable: u32,
}

impl ScalingManager {
    /// Creates a manager for `graph` with the given configuration.
    pub fn new(graph: LogicalGraph, config: ManagerConfig) -> Self {
        Self::with_workspace(graph, config, PolicyWorkspace::new())
    }

    /// Creates a manager that evaluates into a caller-provided (typically
    /// recycled) [`PolicyWorkspace`]; recover it with
    /// [`ScalingManager::take_workspace`] when the manager retires.
    pub fn with_workspace(
        graph: LogicalGraph,
        config: ManagerConfig,
        workspace: PolicyWorkspace,
    ) -> Self {
        let warmup = config.warmup_intervals;
        let policy = Ds2Policy::with_config(config.policy);
        Self {
            graph,
            config,
            policy,
            workspace,
            warmup_remaining: warmup,
            pending: Vec::new(),
            decisions_made: 0,
            awaiting_deploy: false,
            previous_deployment: None,
            pre_deploy_ratio: None,
            pre_deploy_offered: None,
            offered_scratch: OpMap::new(),
            combine_values: Vec::new(),
            rolled_back_from: None,
            rollback_ban_remaining: 0,
            consecutive_rollbacks: 0,
            sticky_boost: 1.0,
            history: VecDeque::new(),
            consecutive_stable: 0,
        }
    }

    /// Creates a manager with default configuration.
    pub fn with_defaults(graph: LogicalGraph) -> Self {
        Self::new(graph, ManagerConfig::default())
    }

    /// Extracts the evaluation workspace (leaving a fresh one behind), so a
    /// pooled workspace can outlive this manager.
    pub fn take_workspace(&mut self) -> PolicyWorkspace {
        std::mem::take(&mut self.workspace)
    }

    /// The manager's configuration.
    pub fn config(&self) -> &ManagerConfig {
        &self.config
    }

    /// The dataflow this manager controls.
    pub fn graph(&self) -> &LogicalGraph {
        &self.graph
    }

    /// Decision log: the most recent entries, oldest first, one per
    /// `on_metrics` call that got past warm-up.
    pub fn history(&self) -> &VecDeque<DecisionRecord> {
        &self.history
    }

    /// Appends an entry to the decision log, evicting the oldest one once
    /// the log is full. Public so that a wrapping controller can log the
    /// intervals it handles itself.
    pub fn record(&mut self, record: DecisionRecord) {
        if self.history.len() == HISTORY_CAP {
            self.history.pop_front();
        }
        self.history.push_back(record);
    }

    /// Whether the next metrics window will be discarded as warm-up.
    pub(crate) fn is_warming_up(&self) -> bool {
        self.warmup_remaining > 0
    }

    /// Gives up on `plan`, a requested rescale that never landed: stops
    /// waiting for its acknowledgement, forgets the rollback baseline taken
    /// when it was issued, and bans the plan for `strikes` ×
    /// `ROLLBACK_BAN_INTERVALS` intervals so that the next evaluation does
    /// not re-open it immediately.
    pub(crate) fn abandon_plan(&mut self, plan: Deployment, strikes: u32) {
        self.rollback_ban_remaining = ROLLBACK_BAN_INTERVALS.saturating_mul(strikes);
        self.rolled_back_from = Some(plan);
        self.awaiting_deploy = false;
        self.forget_rollback_baseline();
    }

    /// Drops what was measured before the most recent rescale; without it
    /// the rollback check has nothing to compare against.
    fn forget_rollback_baseline(&mut self) {
        self.previous_deployment = None;
        self.pre_deploy_ratio = None;
        self.pre_deploy_offered = None;
    }

    /// Number of scaling commands issued so far.
    pub fn decisions_made(&self) -> u32 {
        self.decisions_made
    }

    /// `true` once the policy has proposed the current deployment (or a
    /// change within `min_change`) for `activation_intervals` consecutive
    /// evaluations — the convergence criterion of §5.4.
    pub fn is_converged(&self) -> bool {
        self.consecutive_stable >= self.config.activation_intervals.max(1)
    }

    /// Minimum achieved/offered ratio across sources, from instrumentation.
    ///
    /// Clamped to 1.0: a window can measure above the offered rate when the
    /// source drains a durable backlog or spans a rate change, and treating
    /// that as "200% achieved" would poison degradation detection.
    fn achieved_ratio(&self, snapshot: &MetricsSnapshot) -> Option<f64> {
        let mut min_ratio: Option<f64> = None;
        for &src in self.graph.sources() {
            let offered = snapshot.source_rate(src)?;
            if offered <= 0.0 {
                continue;
            }
            let achieved = snapshot.observed_source_rate(src)?;
            let r = (achieved / offered).min(1.0);
            min_ratio = Some(min_ratio.map_or(r, |m: f64| m.min(r)));
        }
        min_ratio
    }

    /// Fills the dense offered-rate scratch from instrumentation; returns
    /// `false` when no source reported.
    fn fill_offered_scratch(&mut self, snapshot: &MetricsSnapshot) -> bool {
        self.offered_scratch.clear();
        let mut any = false;
        for &src in self.graph.sources() {
            if let Some(offered) = snapshot.source_rate(src) {
                self.offered_scratch.insert(src, offered);
                any = true;
            }
        }
        any
    }

    /// Combines pending decisions into their per-operator upper median
    /// (§4.2.1 "Activation time"): robust to outlier intervals, and for an
    /// even count preferring the larger value — erring towards keeping up
    /// rather than under-provisioning.
    ///
    /// # Errors
    ///
    /// Returns [`Ds2Error::InvalidMetrics`] if there are no pending
    /// decisions to combine — a malformed-input condition that must defer
    /// the interval, never panic the controller.
    fn combine_pending(&mut self) -> Result<Deployment, Ds2Error> {
        if self.pending.is_empty() {
            return Err(Ds2Error::InvalidMetrics(
                "no pending decisions to combine".into(),
            ));
        }
        let mut combined = Deployment::with_len(self.graph.len());
        let mut values = std::mem::take(&mut self.combine_values);
        for op in self.graph.operators() {
            values.clear();
            values.extend(self.pending.iter().map(|d| d.parallelism(op)));
            values.sort_unstable();
            combined.set(op, values[values.len() / 2]);
        }
        self.combine_values = values;
        Ok(combined)
    }

    /// Folds the non-parallelism axes into a freshly combined plan.
    ///
    /// [`ScalingManager::combine_pending`] only writes the parallelism
    /// vector, so first carry the current class splits and budgets forward
    /// (a rescale must not silently merge a hot class back together). Then
    /// turn this window's [`SplitHint`]s into class-split deployments —
    /// multiplying the operator's current split, capped at its parallelism
    /// and at 64 classes — and raise any stateful operator's parallelism to
    /// the floor its reported state demands under the configured budget.
    ///
    /// With split detection off and no budget configured this reduces to
    /// copying defaults onto defaults: the combined plan is bitwise what the
    /// parallelism-only manager produced.
    ///
    /// Returns whether the state floor pushed some operator above its
    /// *current* parallelism — a budget violation in the running deployment,
    /// which must never be suppressed as a minor change.
    ///
    /// [`SplitHint`]: crate::policy::SplitHint
    fn apply_multi_dim(
        &self,
        combined: &mut Deployment,
        current: &Deployment,
        snapshot: &MetricsSnapshot,
    ) -> bool {
        for op in self.graph.operators() {
            let mut alloc = current.alloc(op);
            alloc.parallelism = combined.parallelism(op);
            combined.set_alloc(op, alloc);
        }
        for hint in &self.workspace.output().splits {
            let p = combined.parallelism(hint.op).max(1);
            let cur = current.key_classes(hint.op);
            let new = cur.saturating_mul(hint.classes).min(p).min(64);
            if new > cur {
                combined.set_key_classes(hint.op, new);
            }
        }
        let mut floor_binding = false;
        let budget = self.config.state_budget_per_instance;
        if budget.is_finite() && budget > 0.0 {
            for op in self.graph.operators() {
                if self.graph.is_source(op) {
                    continue;
                }
                if let Some(per_instance) = snapshot.state_bytes(op) {
                    let total = per_instance * current.parallelism(op).max(1) as f64;
                    let floor = ((total / budget) - 1e-9).ceil().max(1.0) as usize;
                    let floor = match self.config.policy.max_parallelism {
                        Some(max) => floor.min(max),
                        None => floor,
                    };
                    if floor > combined.parallelism(op) {
                        combined.set(op, floor);
                    }
                    if floor > current.parallelism(op) {
                        floor_binding = true;
                    }
                    combined.set_state_budget(op, budget);
                }
            }
        }
        floor_binding
    }
}

impl ScalingController for ScalingManager {
    fn name(&self) -> &str {
        "ds2"
    }

    fn on_metrics(
        &mut self,
        now_ns: u64,
        snapshot: &MetricsSnapshot,
        current: &Deployment,
    ) -> ControllerVerdict {
        if self.awaiting_deploy {
            // A requested rescale is in flight: wait for `on_deployed`,
            // however long it takes.
            return ControllerVerdict::NoAction;
        }
        if self.warmup_remaining > 0 {
            self.warmup_remaining -= 1;
            return ControllerVerdict::NoAction;
        }
        self.decide(now_ns, snapshot, current)
    }

    fn on_deployed(&mut self, _now_ns: u64, _deployment: &Deployment) {
        self.awaiting_deploy = false;
        self.warmup_remaining = self.config.warmup_intervals;
        self.decisions_made += 1;
        self.pending.clear();
    }
}

impl ScalingManager {
    /// One policy-interval decision:
    /// rollback check, policy evaluation, target-rate-ratio boost,
    /// activation combining, and the significance gates of §4.2.2.
    fn decide(
        &mut self,
        now_ns: u64,
        snapshot: &MetricsSnapshot,
        current: &Deployment,
    ) -> ControllerVerdict {
        let achieved_ratio = self.achieved_ratio(snapshot);
        let have_offered = self.fill_offered_scratch(snapshot);

        // Expire the post-rollback suppression: the banned plan may be
        // exactly what a changed workload needs (see
        // `ROLLBACK_BAN_INTERVALS`).
        if self.rolled_back_from.is_some() {
            if self.rollback_ban_remaining == 0 {
                self.rolled_back_from = None;
            } else {
                self.rollback_ban_remaining -= 1;
            }
        }

        // Rollback check (§4.2.2): performance degraded after the last
        // deploy — return to the previous configuration. Only meaningful
        // while the offered load is comparable to the pre-deploy
        // measurement: a rate change between the two windows explains the
        // degradation exogenously, and rolling back would punish a correct
        // plan.
        let load_shifted = match &self.pre_deploy_offered {
            Some(before) if have_offered => self.graph.sources().iter().any(|&src| {
                match (before.get(src), self.offered_scratch.get(src)) {
                    (Some(&b), Some(&n)) => {
                        (n - b).abs() > ROLLBACK_LOAD_SHIFT_TOLERANCE * b.max(1e-9)
                    }
                    // A source appearing or vanishing from the metrics
                    // is itself a load shift.
                    (b, n) => b.is_some() != n.is_some(),
                }
            }),
            _ => false,
        };
        if load_shifted {
            self.forget_rollback_baseline();
        } else if let (Some(prev), Some(pre), Some(post)) = (
            self.previous_deployment.clone(),
            self.pre_deploy_ratio,
            achieved_ratio,
        ) {
            if post < pre * (1.0 - DEGRADATION_TOLERANCE) && prev != *current {
                self.record(DecisionRecord {
                    at_ns: now_ns,
                    plan: Some(prev.clone()),
                    achieved_ratio,
                    boost: 1.0,
                    acted: true,
                    error: None,
                });
                self.rolled_back_from = Some(current.clone());
                self.consecutive_rollbacks = self.consecutive_rollbacks.saturating_add(1);
                self.rollback_ban_remaining =
                    ROLLBACK_BAN_INTERVALS.saturating_mul(self.consecutive_rollbacks);
                // The rolled-back plan may have been a boost artefact;
                // drop the learned correction and re-learn from scratch.
                self.sticky_boost = 1.0;
                self.forget_rollback_baseline();
                self.pending.clear();
                self.awaiting_deploy = true;
                return ControllerVerdict::Rescale(prev);
            }
        }
        // A deploy that did not degrade performance clears rollback state
        // and forgives past rollbacks.
        if self.previous_deployment.take().is_some() {
            self.consecutive_rollbacks = 0;
        }

        // Evaluate the policy with the boost learned so far (1.0 until a
        // correction fires).
        if let Err(e) = self.policy.evaluate_boosted_into(
            &self.graph,
            snapshot,
            current,
            self.sticky_boost,
            &mut self.workspace,
        ) {
            // Rates undefined this interval (e.g. an operator saw no
            // input yet): defer, as warm-up would, recording why.
            self.record(DecisionRecord {
                at_ns: now_ns,
                plan: None,
                achieved_ratio,
                boost: 1.0,
                acted: false,
                error: Some(e),
            });
            return ControllerVerdict::NoAction;
        }
        let mut boost = self.sticky_boost;

        // Target-rate-ratio correction (§4.2.1): the policy sees no need to
        // add capacity anywhere, yet the achieved source rate falls short of
        // the target — overheads invisible to instrumentation are consuming
        // capacity. Estimate the extra resources from the achieved/target
        // ratio, on top of what previous corrections already learned.
        let threshold = self.config.target_rate_ratio - RATIO_TOLERANCE;
        if let Some(ratio) = achieved_ratio {
            let no_increase = {
                let plan = &self.workspace.output().plan;
                self.graph
                    .operators()
                    .all(|op| plan.parallelism(op) <= current.parallelism(op))
            };
            if no_increase && ratio < threshold && ratio > 0.0 {
                boost = (self.sticky_boost * self.config.target_rate_ratio / ratio).min(4.0);
                // Cannot fail: the same inputs evaluated cleanly above and
                // the boost is finite and positive by construction. Restore
                // the unboosted output defensively if it ever does.
                if self
                    .policy
                    .evaluate_boosted_into(
                        &self.graph,
                        snapshot,
                        current,
                        boost,
                        &mut self.workspace,
                    )
                    .is_err()
                {
                    let _ = self.policy.evaluate_boosted_into(
                        &self.graph,
                        snapshot,
                        current,
                        self.sticky_boost,
                        &mut self.workspace,
                    );
                }
            }
        }

        let plan = self.workspace.output().plan.clone();
        self.pending.push(plan.clone());
        if self.pending.len() > self.config.activation_intervals.max(1) as usize {
            self.pending.remove(0);
        }

        let keeping_up = achieved_ratio.is_some_and(|r| r >= threshold);

        let mut acted = false;
        let mut verdict = ControllerVerdict::NoAction;
        if self.pending.len() == self.config.activation_intervals.max(1) as usize {
            let mut combined = match self.combine_pending() {
                Ok(combined) => combined,
                Err(e) => {
                    self.record(DecisionRecord {
                        at_ns: now_ns,
                        plan: Some(plan),
                        achieved_ratio,
                        boost,
                        acted: false,
                        error: Some(e),
                    });
                    return ControllerVerdict::NoAction;
                }
            };
            let floor_binding = self.apply_multi_dim(&mut combined, current, snapshot);
            let delta = combined.max_delta(current);
            // A plan that only removes instances cannot fix a rate
            // shortfall: while the job is behind target such a plan is
            // built on measurements the shortfall itself contradicts, so
            // never act on it (the boost path handles the shortfall).
            let pure_scale_down = delta > 0
                && self
                    .graph
                    .operators()
                    .all(|op| combined.parallelism(op) <= current.parallelism(op));
            // A class split may leave every parallelism unchanged; it is
            // still a real deployment change (the hot class stops pinning
            // one instance), so it counts as significant on its own — as
            // does a binding state floor, which marks a budget violation in
            // the deployment that is running right now.
            let significant = (delta > self.config.min_change
                || (!keeping_up && delta > 0)
                || combined.classes_differ(current)
                || floor_binding)
                && (keeping_up || !pure_scale_down);
            let budget_ok = self
                .config
                .max_decisions
                .is_none_or(|max| self.decisions_made < max);
            let not_rolled_back = self.rolled_back_from.as_ref() != Some(&combined);
            if significant && budget_ok && not_rolled_back {
                self.previous_deployment = Some(current.clone());
                self.pre_deploy_ratio = achieved_ratio;
                self.pre_deploy_offered = have_offered.then(|| self.offered_scratch.clone());
                self.awaiting_deploy = true;
                self.pending.clear();
                self.consecutive_stable = 0;
                self.sticky_boost = boost;
                acted = true;
                verdict = ControllerVerdict::Rescale(combined);
            } else if !significant && (keeping_up || !pure_scale_down) {
                // No meaningful change wanted: genuinely stable. A decision
                // budget exhausted by `max_decisions` also counts — §4.2.3
                // uses the cap precisely to declare convergence under skew.
                self.consecutive_stable += 1;
            } else if significant && !budget_ok {
                self.consecutive_stable += 1;
            } else {
                // A wanted change was suppressed (while-behind gate or
                // rollback ban): the policy still wants something the
                // manager rejected — that is not convergence.
                self.consecutive_stable = 0;
            }
        }

        self.record(DecisionRecord {
            at_ns: now_ns,
            plan: Some(plan),
            achieved_ratio,
            boost,
            acted,
            error: None,
        });
        verdict
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::ControllerFaultStats;
    use crate::graph::{GraphBuilder, OperatorId};
    use crate::hardened::Hardened;
    use crate::rates::InstanceMetrics;

    fn inst(capacity: f64, selectivity: f64, util: f64) -> InstanceMetrics {
        let window_ns = 1_000_000_000u64;
        let useful_ns = (window_ns as f64 * util) as u64;
        InstanceMetrics {
            records_in: (capacity * util) as u64,
            records_out: (capacity * selectivity * util) as u64,
            useful_ns,
            window_ns,
            ..Default::default()
        }
    }

    fn wordcount() -> (LogicalGraph, OperatorId, OperatorId, OperatorId) {
        let mut b = GraphBuilder::new();
        let s = b.operator("source");
        let f = b.operator("flat_map");
        let c = b.operator("count");
        b.connect(s, f);
        b.connect(f, c);
        (b.build().unwrap(), s, f, c)
    }

    /// Snapshot where flat_map (cap 100/s/inst, sel 2) and count (cap
    /// 100/s/inst) face a 400/s source; the job keeps up iff parallelism
    /// suffices.
    fn snapshot(
        graph_ops: (OperatorId, OperatorId, OperatorId),
        current: &Deployment,
        achieved_frac: f64,
    ) -> MetricsSnapshot {
        let (s, f, c) = graph_ops;
        let offered = 400.0;
        let mut snap = MetricsSnapshot::new();
        snap.set_source_rate(s, offered);
        // The source must *observe* `offered * achieved_frac` output over the
        // window: with utilization 0.5 its true capacity is twice that.
        let out_per_inst = offered * achieved_frac / current.parallelism(s) as f64;
        snap.insert_instances(
            s,
            vec![inst(out_per_inst * 2.0, 1.0, 0.5); current.parallelism(s)],
        );
        let fp = current.parallelism(f);
        let f_in = offered * achieved_frac / fp as f64;
        snap.insert_instances(f, vec![inst(100.0, 2.0, (f_in / 100.0).min(1.0)); fp]);
        let cp = current.parallelism(c);
        let c_in = 2.0 * offered * achieved_frac / cp as f64;
        snap.insert_instances(c, vec![inst(100.0, 1.0, (c_in / 100.0).min(1.0)); cp]);
        snap
    }

    #[test]
    fn scales_up_underprovisioned_job_in_one_decision() {
        let (g, s, f, c) = wordcount();
        let mut mgr = ScalingManager::new(g, ManagerConfig::default());
        let current = Deployment::uniform(&mgr.graph, 1);
        // Under-provisioned: only 25% of the offered rate achieved.
        let snap = snapshot((s, f, c), &current, 0.25);
        let v = mgr.on_metrics(0, &snap, &current);
        let plan = v.rescale().expect("must rescale");
        assert_eq!(plan.parallelism(f), 4); // 400 / 100
        assert_eq!(plan.parallelism(c), 8); // 800 / 100
    }

    #[test]
    fn warmup_defers_decisions() {
        let (g, s, f, c) = wordcount();
        let mut mgr = ScalingManager::new(
            g,
            ManagerConfig {
                warmup_intervals: 2,
                ..Default::default()
            },
        );
        let current = Deployment::uniform(&mgr.graph, 1);
        let snap = snapshot((s, f, c), &current, 0.25);
        assert!(!mgr.on_metrics(0, &snap, &current).is_rescale());
        assert!(!mgr.on_metrics(1, &snap, &current).is_rescale());
        assert!(mgr.on_metrics(2, &snap, &current).is_rescale());
    }

    #[test]
    fn activation_combines_median() {
        let (g, s, f, c) = wordcount();
        let mut mgr = ScalingManager::new(
            g,
            ManagerConfig {
                activation_intervals: 3,
                ..Default::default()
            },
        );
        let current = Deployment::uniform(&mgr.graph, 1);
        let snap = snapshot((s, f, c), &current, 0.25);
        assert!(!mgr.on_metrics(0, &snap, &current).is_rescale());
        assert!(!mgr.on_metrics(1, &snap, &current).is_rescale());
        let v = mgr.on_metrics(2, &snap, &current);
        assert!(v.is_rescale(), "third interval completes activation");
    }

    #[test]
    fn suppresses_minor_change_when_keeping_up() {
        let (g, s, f, c) = wordcount();
        let mut mgr = ScalingManager::new(
            g,
            ManagerConfig {
                min_change: 2,
                ..Default::default()
            },
        );
        // Current deployment: 5 flat_map (optimal 4), achieving full rate.
        let mut current = Deployment::uniform(&mgr.graph, 1);
        current.set(f, 5);
        current.set(c, 8);
        let snap = snapshot((s, f, c), &current, 1.0);
        let v = mgr.on_metrics(0, &snap, &current);
        assert!(
            !v.is_rescale(),
            "a -1 change while keeping up must be suppressed"
        );
    }

    #[test]
    fn applies_minor_change_when_missing_target() {
        let (g, s, f, c) = wordcount();
        let mut mgr = ScalingManager::new(
            g,
            ManagerConfig {
                min_change: 2,
                ..Default::default()
            },
        );
        // 3 flat_map instances (need 4), 7 count (need 8): deltas of 1.
        let mut current = Deployment::uniform(&mgr.graph, 1);
        current.set(f, 3);
        current.set(c, 7);
        let snap = snapshot((s, f, c), &current, 0.75);
        let v = mgr.on_metrics(0, &snap, &current);
        let plan = v.rescale().expect("must act when target is missed");
        assert_eq!(plan.parallelism(f), 4);
    }

    #[test]
    fn boost_kicks_in_when_stuck_below_target() {
        let (g, s, f, c) = wordcount();
        let mut mgr = ScalingManager::new(g, ManagerConfig::default());
        // The policy's unboosted answer equals the current deployment, but
        // only 80% of the target is achieved (uncaptured overheads).
        let mut current = Deployment::uniform(&mgr.graph, 1);
        current.set(f, 4);
        current.set(c, 8);
        // Craft a snapshot where capacity*parallelism exactly matches target
        // (so unboosted plan == current) but achieved is 0.8.
        let mut snap = MetricsSnapshot::new();
        snap.set_source_rate(s, 400.0);
        // Observed source output must be 320/s (=0.8 of 400): capacity 640
        // at 50% utilization.
        snap.insert_instances(s, vec![inst(640.0, 1.0, 0.5)]);
        snap.insert_instances(f, vec![inst(100.0, 2.0, 0.8); 4]);
        snap.insert_instances(c, vec![inst(100.0, 1.0, 0.8); 8]);
        let v = mgr.on_metrics(0, &snap, &current);
        let plan = v.rescale().expect("boost must trigger a rescale");
        // Boost = 1/0.8 = 1.25: flat_map 400*1.25/100 = 5, count 10.
        assert_eq!(plan.parallelism(f), 5);
        assert_eq!(plan.parallelism(c), 10);
        let last = mgr.history().back().unwrap();
        assert!(last.boost > 1.2 && last.boost < 1.3);
    }

    /// The plan a boosted decision issues is the policy's own evaluation at
    /// the boost the decision log reports.
    #[test]
    fn boost_path_matches_cloned_config_evaluation() {
        let (g, s, f, c) = wordcount();
        let mut mgr = ScalingManager::new(g.clone(), ManagerConfig::default());
        let mut current = Deployment::uniform(&g, 1);
        current.set(f, 4);
        current.set(c, 8);
        let mut snap = MetricsSnapshot::new();
        snap.set_source_rate(s, 400.0);
        snap.insert_instances(s, vec![inst(640.0, 1.0, 0.5)]);
        snap.insert_instances(f, vec![inst(100.0, 2.0, 0.8); 4]);
        snap.insert_instances(c, vec![inst(100.0, 1.0, 0.8); 8]);
        let v = mgr.on_metrics(0, &snap, &current);
        let plan = v.rescale().expect("boost must trigger a rescale").clone();

        let boost = mgr.history().back().unwrap().boost;
        let mut ws = PolicyWorkspace::new();
        let reference = Ds2Policy::new()
            .evaluate_boosted_into(&g, &snap, &current, boost, &mut ws)
            .unwrap();
        assert_eq!(plan, reference.plan, "decision output changed");
    }

    #[test]
    fn max_decisions_limits_actions() {
        let (g, s, f, c) = wordcount();
        let mut mgr = ScalingManager::new(
            g,
            ManagerConfig {
                max_decisions: Some(1),
                ..Default::default()
            },
        );
        let current = Deployment::uniform(&mgr.graph, 1);
        let snap = snapshot((s, f, c), &current, 0.25);
        let v = mgr.on_metrics(0, &snap, &current);
        let plan = v.rescale().unwrap().clone();
        mgr.on_deployed(1, &plan);
        // Still under-provisioned per the (stale) snapshot, but the budget
        // is exhausted: no further action.
        let v = mgr.on_metrics(2, &snap, &current);
        assert!(!v.is_rescale());
    }

    #[test]
    fn rollback_on_degradation() {
        let (g, s, f, c) = wordcount();
        let mut mgr = ScalingManager::new(
            g,
            ManagerConfig {
                min_change: 0,
                ..Default::default()
            },
        );
        let current = Deployment::uniform(&mgr.graph, 1);
        let snap = snapshot((s, f, c), &current, 0.5);
        let v = mgr.on_metrics(0, &snap, &current);
        let plan = v.rescale().unwrap().clone();
        mgr.on_deployed(1, &plan);
        // After the deploy, achieved collapses to 20%: roll back.
        let snap2 = snapshot((s, f, c), &plan, 0.2);
        let v2 = mgr.on_metrics(2, &snap2, &plan);
        assert_eq!(v2.rescale(), Some(&current));
    }

    #[test]
    fn convergence_counter() {
        let (g, s, f, c) = wordcount();
        let mut mgr = ScalingManager::new(
            g,
            ManagerConfig {
                activation_intervals: 2,
                ..Default::default()
            },
        );
        let mut current = Deployment::uniform(&mgr.graph, 1);
        current.set(f, 4);
        current.set(c, 8);
        let snap = snapshot((s, f, c), &current, 1.0);
        assert!(!mgr.is_converged());
        mgr.on_metrics(0, &snap, &current);
        mgr.on_metrics(1, &snap, &current);
        mgr.on_metrics(2, &snap, &current);
        assert!(mgr.is_converged());
    }

    #[test]
    fn undefined_rates_defer() {
        let (g, s, f, c) = wordcount();
        let mut mgr = ScalingManager::new(g, ManagerConfig::default());
        let current = Deployment::uniform(&mgr.graph, 1);
        let mut snap = MetricsSnapshot::new();
        snap.set_source_rate(s, 400.0);
        snap.insert_instances(s, vec![inst(400.0, 1.0, 0.5)]);
        // flat_map and count have windows but no useful time yet.
        snap.insert_instances(
            f,
            vec![InstanceMetrics {
                window_ns: 1_000_000_000,
                ..Default::default()
            }],
        );
        snap.insert_instances(
            c,
            vec![InstanceMetrics {
                window_ns: 1_000_000_000,
                ..Default::default()
            }],
        );
        let v = mgr.on_metrics(0, &snap, &current);
        assert!(!v.is_rescale());
        assert!(mgr.history().back().unwrap().plan.is_none());
    }

    /// src(1000/s) -> op at p=4, each op instance fully utilized at
    /// 250/s capacity, with one instance pulling 70% of the input: the
    /// Eq. 7 plan is unchanged (delta 0) but the hot class pins an
    /// instance, so the split hint must drive a class-split rescale.
    fn skewed_op_setup() -> (
        LogicalGraph,
        OperatorId,
        OperatorId,
        Deployment,
        MetricsSnapshot,
    ) {
        let mut b = GraphBuilder::new();
        let s = b.operator("src");
        let o = b.operator("op");
        b.connect(s, o);
        let g = b.build().unwrap();
        let mut current = Deployment::uniform(&g, 1);
        current.set(o, 4);
        let mut snap = MetricsSnapshot::new();
        snap.set_source_rate(s, 1000.0);
        snap.insert_instances(s, vec![inst(2000.0, 1.0, 0.5)]);
        let mk = |records_in: u64| InstanceMetrics {
            records_in,
            records_out: records_in,
            useful_ns: 1_000_000_000,
            window_ns: 1_000_000_000,
            ..Default::default()
        };
        snap.insert_instances(o, vec![mk(700), mk(100), mk(100), mk(100)]);
        (g, s, o, current, snap)
    }

    #[test]
    fn split_hint_drives_class_split_rescale() {
        let (g, _s, o, current, snap) = skewed_op_setup();
        let mut mgr = ScalingManager::new(
            g,
            ManagerConfig {
                policy: PolicyConfig {
                    detect_splits: true,
                    ..Default::default()
                },
                ..Default::default()
            },
        );
        let v = mgr.on_metrics(0, &snap, &current);
        let plan = v.rescale().expect("class split must be significant");
        // Parallelism untouched; the hot class spreads over ceil(700/250)=3.
        assert_eq!(plan.parallelism(o), 4);
        assert_eq!(plan.key_classes(o), 3);
        assert!(plan.classes_differ(&current));
    }

    #[test]
    fn split_detection_off_leaves_skewed_plan_alone() {
        let (g, _s, _o, current, snap) = skewed_op_setup();
        let mut mgr = ScalingManager::new(g, ManagerConfig::default());
        let v = mgr.on_metrics(0, &snap, &current);
        assert!(!v.is_rescale(), "parallelism-only manager sees delta 0");
    }

    #[test]
    fn rollback_restores_class_splits() {
        let (g, s, o, mut current, snap) = skewed_op_setup();
        // The running deployment already carries a split; a later rescale
        // that degrades performance must roll back to it, split included.
        current.set_key_classes(o, 2);
        let mut mgr = ScalingManager::new(
            g,
            ManagerConfig {
                min_change: 0,
                ..Default::default()
            },
        );
        // Push the offered rate up so the policy wants more instances.
        let mut snap2 = snap.clone();
        snap2.set_source_rate(s, 2000.0);
        let v = mgr.on_metrics(0, &snap2, &current);
        let plan = v.rescale().expect("must scale up").clone();
        assert_eq!(plan.key_classes(o), 2, "split carried into new plan");
        mgr.on_deployed(1, &plan);
        // Achieved collapses post-deploy at unchanged offered load: rollback.
        let mut degraded = snap2.clone();
        degraded.insert_instances(s, vec![inst(800.0, 1.0, 0.5)]);
        let v2 = mgr.on_metrics(2, &degraded, &plan);
        let back = v2.rescale().expect("must roll back");
        assert_eq!(back, &current, "rollback restores the full allocation");
        assert_eq!(back.key_classes(o), 2);
    }

    #[test]
    fn state_floor_raises_parallelism_and_records_budget() {
        let mut b = GraphBuilder::new();
        let s = b.operator("src");
        let o = b.operator("op");
        b.connect(s, o);
        let g = b.build().unwrap();
        let mut current = Deployment::uniform(&g, 1);
        current.set(o, 2);
        let mut snap = MetricsSnapshot::new();
        snap.set_source_rate(s, 400.0);
        snap.insert_instances(s, vec![inst(800.0, 1.0, 0.5)]);
        // Rate-wise 2 instances suffice (200/s capacity each)…
        snap.insert_instances(o, vec![inst(200.0, 1.0, 1.0); 2]);
        // …but 6e8 bytes of state per instance breaks a 4e8 budget:
        // total 1.2e9 / 4e8 -> floor of 3 instances.
        snap.set_state_bytes(o, 6e8);
        let mut mgr = ScalingManager::new(
            g,
            ManagerConfig {
                state_budget_per_instance: 4e8,
                ..Default::default()
            },
        );
        let v = mgr.on_metrics(0, &snap, &current);
        let plan = v.rescale().expect("binding state floor must act");
        assert_eq!(plan.parallelism(o), 3);
        assert_eq!(plan.state_budget(o), 4e8);
    }

    // The `Hardened` wrapper's unit tests live here because they share this
    // module's word-count fixtures.

    #[test]
    fn hardened_repairs_broken_operator_from_last_good() {
        let (g, s, f, c) = wordcount();
        let mut current = Deployment::uniform(&g, 1);
        let mut mgr = Hardened::new(ScalingManager::with_defaults(g));
        current.set(f, 4);
        current.set(c, 8);
        // A healthy window captures the last-good snapshot.
        let snap_ok = snapshot((s, f, c), &current, 1.0);
        assert!(!mgr.on_metrics(0, &snap_ok, &current).is_rescale());
        // flat_map's slots vanish: the vanilla path would defer, the
        // hardened path repairs from last-good and evaluates cleanly.
        let mut broken = snap_ok.clone();
        broken.remove_operator(f);
        assert!(!mgr.on_metrics(1, &broken, &current).is_rescale());
        let last = mgr.manager().history().back().unwrap();
        assert!(last.plan.is_some(), "repaired window must evaluate");
        assert!(last.error.is_none());
        assert_eq!(mgr.fault_stats().repaired_windows, 1);
    }

    #[test]
    fn hardened_vetoes_majority_invalid_snapshot() {
        let (g, s, f, c) = wordcount();
        let current = Deployment::uniform(&g, 1);
        let mut mgr = Hardened::new(ScalingManager::with_defaults(g));
        let mut snap = snapshot((s, f, c), &current, 0.25);
        snap.remove_operator(f);
        snap.remove_operator(c);
        // No last-good yet and 2 of 3 operators invalid: veto, hold.
        assert!(!mgr.on_metrics(0, &snap, &current).is_rescale());
        assert_eq!(mgr.fault_stats().vetoed_windows, 1);
        assert!(matches!(
            mgr.manager().history().back().unwrap().error,
            Some(Ds2Error::DegradedTelemetry {
                invalid: 2,
                total: 3
            })
        ));
    }

    /// A window the manager discards as warm-up passes through the wrapper
    /// untouched: however broken, it is neither vetoed nor counted.
    #[test]
    fn hardened_ignores_broken_snapshot_during_warmup() {
        let (g, s, f, c) = wordcount();
        let current = Deployment::uniform(&g, 1);
        let mut mgr = Hardened::new(ScalingManager::new(
            g,
            ManagerConfig {
                warmup_intervals: 1,
                ..Default::default()
            },
        ));
        let mut snap = snapshot((s, f, c), &current, 0.25);
        snap.remove_operator(f);
        snap.remove_operator(c);
        assert!(!mgr.on_metrics(0, &snap, &current).is_rescale());
        assert_eq!(mgr.fault_stats(), ControllerFaultStats::default());
        assert!(mgr.manager().history().is_empty());
        // The same window after warm-up is vetoed.
        assert!(!mgr.on_metrics(1, &snap, &current).is_rescale());
        assert_eq!(mgr.fault_stats().vetoed_windows, 1);
    }

    #[test]
    fn hardened_retries_unacknowledged_rescale_and_gives_up_at_cap() {
        let (g, s, f, c) = wordcount();
        let current = Deployment::uniform(&g, 1);
        let mut mgr = Hardened::new(ScalingManager::with_defaults(g));
        let snap = snapshot((s, f, c), &current, 0.25);
        let plan = mgr
            .on_metrics(0, &snap, &current)
            .rescale()
            .expect("must act")
            .clone();
        // The acknowledgement never arrives and the deployment never
        // changes: the manager may retry up to the cap (after 1, 2 and 4
        // intervals of back-off), always with the same plan, then must give
        // up and stay quiet while the abandoned plan is banned.
        let mut issued = 0;
        for t in 1..=14 {
            if let Some(p) = mgr.on_metrics(t, &snap, &current).rescale() {
                assert_eq!(p, &plan, "retries must re-issue the same plan");
                issued += 1;
            }
        }
        assert_eq!(issued, 3, "retry cap bounds re-issues");
        assert_eq!(mgr.fault_stats().retries, 3);
        assert_eq!(mgr.fault_stats().abandoned_rescales, 1);
        assert!(matches!(
            mgr.manager()
                .history()
                .iter()
                .filter_map(|r| r.error.as_ref())
                .next_back(),
            Some(Ds2Error::RescaleRetriesExhausted { retries: 3 })
        ));
    }

    #[test]
    fn hardened_self_acknowledges_landed_rescale() {
        let (g, s, f, c) = wordcount();
        let current = Deployment::uniform(&g, 1);
        let mut mgr = Hardened::new(ScalingManager::with_defaults(g));
        let snap = snapshot((s, f, c), &current, 0.25);
        let plan = mgr
            .on_metrics(0, &snap, &current)
            .rescale()
            .expect("must act")
            .clone();
        // The rescale landed (the live deployment equals the plan) but the
        // acknowledgement was lost: the verify step must self-acknowledge
        // instead of re-issuing.
        let snap2 = snapshot((s, f, c), &plan, 1.0);
        assert!(!mgr.on_metrics(1, &snap2, &plan).is_rescale());
        assert!(!mgr.on_metrics(2, &snap2, &plan).is_rescale());
        assert_eq!(mgr.manager().decisions_made(), 1);
        assert_eq!(mgr.fault_stats().retries, 0);
    }

    #[test]
    fn outlier_rejection_ignores_straggler_instance() {
        let (g, s, f, c) = wordcount();
        let mut current = Deployment::uniform(&g, 1);
        current.set(f, 4);
        current.set(c, 8);
        // Keeping up, but one flat_map instance's counters claim a true
        // rate 20x below its siblings (a straggler / broken counter).
        let mut snap = snapshot((s, f, c), &current, 1.0);
        snap.operator_mut(f).unwrap().instances[0].records_in = 5;
        let config = ManagerConfig {
            min_change: 0,
            ..Default::default()
        };
        let mut vanilla = ScalingManager::new(g.clone(), config.clone());
        let mut hardened = Hardened::new(ScalingManager::new(g, config));
        assert!(
            vanilla.on_metrics(0, &snap, &current).is_rescale(),
            "the straggler drags vanilla's capacity estimate into churn"
        );
        assert!(
            !hardened.on_metrics(0, &snap, &current).is_rescale(),
            "median rejection must neutralize the straggler"
        );
        assert!(hardened.fault_stats().outliers_rejected >= 1);
    }

    #[test]
    fn history_keeps_only_the_most_recent_entries() {
        let (g, s, f, c) = wordcount();
        let mut mgr = ScalingManager::with_defaults(g);
        let mut current = Deployment::uniform(&mgr.graph, 1);
        current.set(f, 4);
        current.set(c, 8);
        let snap = snapshot((s, f, c), &current, 1.0);
        for t in 0..1_000 {
            mgr.on_metrics(t, &snap, &current);
        }
        assert_eq!(mgr.history().len(), HISTORY_CAP);
        assert_eq!(mgr.history().back().unwrap().at_ns, 999);
    }

    #[test]
    fn unbudgeted_state_report_changes_nothing() {
        let (g, _s, _o, current, snap) = skewed_op_setup();
        let mut with_state = snap.clone();
        with_state.set_state_bytes(OperatorId(1), 1e12);
        let mut a = ScalingManager::new(g.clone(), ManagerConfig::default());
        let mut b = ScalingManager::new(g, ManagerConfig::default());
        let va = a.on_metrics(0, &snap, &current);
        let vb = b.on_metrics(0, &with_state, &current);
        assert!(!va.is_rescale() && !vb.is_rescale());
    }
}
