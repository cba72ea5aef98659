//! A Dhalion-style scaling controller (Floratou et al., PVLDB 2017), the
//! state-of-the-art baseline the paper compares against (§5.2, Figures 1
//! and 6).
//!
//! Dhalion is a rule-based *symptom → diagnosis → resolution* loop:
//!
//! * **Symptom detection** — backpressure (the achieved source rate falls
//!   short of the target) and operator saturation (instances busy nearly the
//!   whole window).
//! * **Diagnosis** — the bottleneck is the most saturated operator;
//!   earlier-in-topology operators win ties because they initiate the
//!   backpressure chain.
//! * **Resolution** — scale *one* operator per action, by a factor derived
//!   from the observed backpressure fraction, then wait out a cooldown while
//!   queues drain. Actions that did not improve the symptom are
//!   blacklisted.
//!
//! These are exactly the traits §2 criticises: observed (not true) rates,
//! one operator per step, speculative factors — which is why Dhalion needs
//! six steps and ends over-provisioned where DS2 needs one (Fig. 6). The
//! over-provisioning emerges from queue draining: after a scale-up the
//! accumulated backlog keeps the operator saturated, so Dhalion keeps
//! scaling it past the steady-state need.

use std::collections::BTreeSet;

use ds2_core::controller::{ControllerVerdict, ScalingController};
use ds2_core::deployment::Deployment;
use ds2_core::graph::{LogicalGraph, OperatorId};
use ds2_core::snapshot::MetricsSnapshot;

/// Dhalion controller configuration.
#[derive(Debug, Clone)]
pub struct DhalionConfig {
    /// Utilization above which an operator counts as saturated.
    pub saturation_threshold: f64,
    /// Achieved/target source ratio below which backpressure is diagnosed.
    pub backpressure_threshold: f64,
    /// Utilization below which an operator is a scale-down candidate.
    pub underutilization_threshold: f64,
    /// Intervals to wait after an action before acting again.
    pub cooldown_intervals: u32,
    /// Upper bound on the per-action scale factor.
    pub max_scale_factor: f64,
    /// Maximum parallelism per operator.
    pub max_parallelism: usize,
    /// Enable the scale-down resolver.
    pub scale_down_enabled: bool,
    /// Consecutive healthy intervals required before scaling down.
    pub healthy_intervals_for_scale_down: u32,
}

impl Default for DhalionConfig {
    fn default() -> Self {
        Self {
            saturation_threshold: 0.95,
            backpressure_threshold: 0.98,
            underutilization_threshold: 0.4,
            cooldown_intervals: 2,
            max_scale_factor: 2.0,
            max_parallelism: 1_000,
            scale_down_enabled: false,
            healthy_intervals_for_scale_down: 5,
        }
    }
}

/// The Dhalion-style controller.
#[derive(Debug)]
pub struct DhalionController {
    graph: LogicalGraph,
    config: DhalionConfig,
    cooldown: u32,
    awaiting_deploy: bool,
    healthy_streak: u32,
    /// `(operator, parallelism)` targets that failed to improve the symptom.
    blacklist: BTreeSet<(OperatorId, usize)>,
    /// The action we are waiting to judge, plus the pre-action ratio.
    last_action: Option<(OperatorId, usize, f64)>,
}

impl DhalionController {
    /// Creates a Dhalion controller for `graph`.
    pub fn new(graph: LogicalGraph, config: DhalionConfig) -> Self {
        Self {
            graph,
            config,
            cooldown: 0,
            awaiting_deploy: false,
            healthy_streak: 0,
            blacklist: BTreeSet::new(),
            last_action: None,
        }
    }

    /// Creates a controller with default configuration.
    pub fn with_defaults(graph: LogicalGraph) -> Self {
        Self::new(graph, DhalionConfig::default())
    }

    fn achieved_ratio(&self, snapshot: &MetricsSnapshot) -> Option<f64> {
        let mut min_ratio: Option<f64> = None;
        for &src in self.graph.sources() {
            let offered = snapshot.source_rate(src)?;
            if offered <= 0.0 {
                continue;
            }
            let achieved = snapshot.observed_source_rate(src)?;
            let r = achieved / offered;
            min_ratio = Some(min_ratio.map_or(r, |m: f64| m.min(r)));
        }
        min_ratio
    }

    /// The most saturated non-source operator (ties: earliest in topology,
    /// since that operator initiates the backpressure chain).
    fn find_bottleneck(&self, snapshot: &MetricsSnapshot) -> Option<(OperatorId, f64)> {
        let mut best: Option<(OperatorId, f64)> = None;
        for op in self.graph.topological_order() {
            if self.graph.is_source(op) {
                continue;
            }
            let util = snapshot.operator(op)?.mean_utilization();
            let better = match best {
                None => true,
                // Strictly-greater keeps the earliest operator on ties.
                Some((_, u)) => util > u + 1e-9,
            };
            if better {
                best = Some((op, util));
            }
        }
        best
    }
}

impl ScalingController for DhalionController {
    fn name(&self) -> &str {
        "dhalion"
    }

    fn on_metrics(
        &mut self,
        _now_ns: u64,
        snapshot: &MetricsSnapshot,
        current: &Deployment,
    ) -> ControllerVerdict {
        if self.awaiting_deploy {
            return ControllerVerdict::NoAction;
        }
        if self.cooldown > 0 {
            self.cooldown -= 1;
            return ControllerVerdict::NoAction;
        }

        let ratio = self.achieved_ratio(snapshot).unwrap_or(1.0);

        // Judge the previous action: a configuration that *degraded* the
        // achieved rate is blacklisted. (Mere lack of improvement is not
        // enough: under Heron's on/off spout behaviour a single window is
        // too noisy to condemn an otherwise-good scale-up.)
        if let Some((op, p, pre_ratio)) = self.last_action.take() {
            if ratio < pre_ratio - 0.05 {
                self.blacklist.insert((op, p));
            }
        }

        let backpressured = ratio < self.config.backpressure_threshold;

        if backpressured {
            self.healthy_streak = 0;
            let Some((bottleneck, util)) = self.find_bottleneck(snapshot) else {
                return ControllerVerdict::NoAction;
            };
            if util < self.config.saturation_threshold {
                // Backpressure without a saturated operator: wait for the
                // signal to develop (Dhalion's detection latency).
                return ControllerVerdict::NoAction;
            }
            // Scale-up factor from the backpressure fraction: the source is
            // suppressed for (1 - ratio) of the time, so the bottleneck
            // needs roughly 1/(ratio) times its capacity.
            let bp_fraction = 1.0 - ratio;
            let factor = (1.0 + bp_fraction).min(self.config.max_scale_factor);
            let p = current.parallelism(bottleneck);
            let mut target = ((p as f64) * factor).ceil() as usize;
            if target <= p {
                target = p + 1;
            }
            target = target.min(self.config.max_parallelism);
            if target == p || self.blacklist.contains(&(bottleneck, target)) {
                return ControllerVerdict::NoAction;
            }
            let mut plan = current.clone();
            plan.set(bottleneck, target);
            self.last_action = Some((bottleneck, target, ratio));
            self.awaiting_deploy = true;
            return ControllerVerdict::Rescale(plan);
        }

        // Healthy: consider the conservative scale-down resolver.
        self.healthy_streak += 1;
        if self.config.scale_down_enabled
            && self.healthy_streak >= self.config.healthy_intervals_for_scale_down
        {
            for op in self.graph.topological_order() {
                if self.graph.is_source(op) {
                    continue;
                }
                let Some(metrics) = snapshot.operator(op) else {
                    continue;
                };
                let util = metrics.mean_utilization();
                let p = current.parallelism(op);
                if util < self.config.underutilization_threshold && p > 1 {
                    let target = (p - 1).max(1);
                    if self.blacklist.contains(&(op, target)) {
                        continue;
                    }
                    let mut plan = current.clone();
                    plan.set(op, target);
                    self.last_action = Some((op, target, ratio));
                    self.awaiting_deploy = true;
                    self.healthy_streak = 0;
                    return ControllerVerdict::Rescale(plan);
                }
            }
        }
        ControllerVerdict::NoAction
    }

    fn on_deployed(&mut self, _now_ns: u64, _deployment: &Deployment) {
        self.awaiting_deploy = false;
        self.cooldown = self.config.cooldown_intervals;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ds2_core::graph::GraphBuilder;
    use ds2_core::rates::InstanceMetrics;

    fn graph() -> (LogicalGraph, OperatorId, OperatorId, OperatorId) {
        let mut b = GraphBuilder::new();
        let s = b.operator("source");
        let f = b.operator("flat_map");
        let c = b.operator("count");
        b.connect(s, f);
        b.connect(f, c);
        (b.build().unwrap(), s, f, c)
    }

    fn inst(rate_in: f64, rate_out: f64, util: f64) -> InstanceMetrics {
        let window_ns = 1_000_000_000u64;
        InstanceMetrics {
            records_in: rate_in as u64,
            records_out: rate_out as u64,
            useful_ns: (window_ns as f64 * util) as u64,
            window_ns,
            ..Default::default()
        }
    }

    /// Backpressure + saturated flat_map: Dhalion scales flat_map only.
    #[test]
    fn scales_single_bottleneck() {
        let (g, s, f, c) = graph();
        let mut d = DhalionController::with_defaults(g.clone());
        let current = Deployment::uniform(&g, 1);
        let mut snap = MetricsSnapshot::new();
        snap.set_source_rate(s, 1000.0);
        snap.insert_instances(s, vec![inst(0.0, 100.0, 0.1)]); // 10% achieved
        snap.insert_instances(f, vec![inst(100.0, 200.0, 1.0)]); // saturated
        snap.insert_instances(c, vec![inst(200.0, 200.0, 0.4)]);
        let v = d.on_metrics(0, &snap, &current);
        let plan = v.rescale().expect("must scale up");
        // Factor capped at 2x from p=1, one operator per action.
        assert_eq!([s, f, c].map(|op| plan.parallelism(op)), [1, 2, 1]);
    }

    #[test]
    fn cooldown_after_action() {
        let (g, s, f, c) = graph();
        let mut d = DhalionController::with_defaults(g.clone());
        let current = Deployment::uniform(&g, 1);
        let mut snap = MetricsSnapshot::new();
        snap.set_source_rate(s, 1000.0);
        snap.insert_instances(s, vec![inst(0.0, 100.0, 0.1)]);
        snap.insert_instances(f, vec![inst(100.0, 200.0, 1.0)]);
        snap.insert_instances(c, vec![inst(200.0, 200.0, 0.4)]);
        let v = d.on_metrics(0, &snap, &current);
        let plan = v.rescale().unwrap().clone();
        d.on_deployed(1, &plan);
        // Two cooldown intervals pass without action.
        assert!(!d.on_metrics(2, &snap, &plan).is_rescale());
        assert!(!d.on_metrics(3, &snap, &plan).is_rescale());
        assert!(d.on_metrics(4, &snap, &plan).is_rescale());
    }

    #[test]
    fn no_action_when_healthy() {
        let (g, s, f, c) = graph();
        let mut d = DhalionController::with_defaults(g.clone());
        let current = Deployment::uniform(&g, 1);
        let mut snap = MetricsSnapshot::new();
        snap.set_source_rate(s, 1000.0);
        snap.insert_instances(s, vec![inst(0.0, 1000.0, 0.5)]);
        snap.insert_instances(f, vec![inst(1000.0, 2000.0, 0.7)]);
        snap.insert_instances(c, vec![inst(2000.0, 2000.0, 0.6)]);
        assert!(!d.on_metrics(0, &snap, &current).is_rescale());
    }

    #[test]
    fn blacklists_failed_action() {
        let (g, s, f, c) = graph();
        let mut d = DhalionController::new(
            g.clone(),
            DhalionConfig {
                cooldown_intervals: 0,
                ..Default::default()
            },
        );
        let current = Deployment::uniform(&g, 1);
        let mut snap = MetricsSnapshot::new();
        snap.set_source_rate(s, 1000.0);
        snap.insert_instances(s, vec![inst(0.0, 100.0, 0.1)]);
        snap.insert_instances(f, vec![inst(100.0, 200.0, 1.0)]);
        snap.insert_instances(c, vec![inst(200.0, 200.0, 0.4)]);
        let plan = d.on_metrics(0, &snap, &current).rescale().unwrap().clone();
        assert_eq!(plan.parallelism(f), 2);
        d.on_deployed(1, &plan);
        // The achieved ratio *degraded* after the deploy (10% -> 2%): the
        // action is condemned and (f, 2) blacklisted; the next proposal
        // must differ.
        let mut worse = MetricsSnapshot::new();
        worse.set_source_rate(s, 1000.0);
        worse.insert_instances(s, vec![inst(0.0, 20.0, 0.02)]);
        worse.insert_instances(f, vec![inst(100.0, 200.0, 1.0); 2]);
        worse.insert_instances(c, vec![inst(200.0, 200.0, 0.4)]);
        let v = d.on_metrics(2, &worse, &plan);
        let plan2 = v.rescale().unwrap();
        assert!(plan2.parallelism(f) > 2);
        assert!(d.blacklist.contains(&(f, 2)));
    }

    #[test]
    fn scale_down_when_enabled_and_healthy() {
        let (g, s, f, c) = graph();
        let mut d = DhalionController::new(
            g.clone(),
            DhalionConfig {
                scale_down_enabled: true,
                healthy_intervals_for_scale_down: 2,
                ..Default::default()
            },
        );
        let mut current = Deployment::uniform(&g, 1);
        current.set(f, 8);
        let mut snap = MetricsSnapshot::new();
        snap.set_source_rate(s, 1000.0);
        snap.insert_instances(s, vec![inst(0.0, 1000.0, 0.5)]);
        snap.insert_instances(f, vec![inst(125.0, 250.0, 0.2); 8]);
        snap.insert_instances(c, vec![inst(2000.0, 2000.0, 0.6)]);
        assert!(!d.on_metrics(0, &snap, &current).is_rescale());
        let v = d.on_metrics(1, &snap, &current);
        let plan = v.rescale().expect("scale down after healthy streak");
        assert_eq!(plan.parallelism(f), 7, "one instance at a time");
    }

    #[test]
    fn waits_for_saturation_signal() {
        // Backpressure reported but no operator saturated yet (queues still
        // filling): Dhalion waits — its reaction depends on queue fill.
        let (g, s, f, c) = graph();
        let mut d = DhalionController::with_defaults(g.clone());
        let current = Deployment::uniform(&g, 1);
        let mut snap = MetricsSnapshot::new();
        snap.set_source_rate(s, 1000.0);
        snap.insert_instances(s, vec![inst(0.0, 500.0, 0.3)]);
        snap.insert_instances(f, vec![inst(500.0, 1000.0, 0.8)]);
        snap.insert_instances(c, vec![inst(1000.0, 1000.0, 0.5)]);
        assert!(!d.on_metrics(0, &snap, &current).is_rescale());
    }
}
