//! A queueing-theory predictive controller, in the style of Nephele
//! (Lohrmann et al.) and DRS (Fu et al.) — Table 1's "queueing theory
//! model, predictive, multi-operator" family.
//!
//! Each operator is modelled as an M/M/c station: arrival rate `λ` is the
//! operator's *observed* input rate, service rate `μ` is the per-instance
//! true processing rate, and the controller picks the smallest `c` with
//! utilization `ρ = λ/(c·μ)` below a target. Two known weaknesses (both
//! noted in §2) fall out of this construction:
//!
//! * under backpressure, `λ` is the *throttled* arrival rate, so the
//!   controller under-estimates the true demand and needs several rounds
//!   (the target utilization headroom partially masks this);
//! * keeping `ρ < ρ_target` over-provisions by `1/ρ_target` once demand is
//!   visible — permanent temporary over-provisioning relative to DS2.

use ds2_core::controller::{ControllerVerdict, ScalingController};
use ds2_core::deployment::Deployment;
use ds2_core::graph::LogicalGraph;
use ds2_core::snapshot::MetricsSnapshot;

/// Queueing controller configuration.
#[derive(Debug, Clone)]
pub struct QueueingConfig {
    /// Target station utilization `ρ` (e.g. 0.8 keeps queues bounded).
    pub target_utilization: f64,
    /// Intervals to wait after an action.
    pub cooldown_intervals: u32,
    /// Maximum parallelism per operator.
    pub max_parallelism: usize,
}

impl Default for QueueingConfig {
    fn default() -> Self {
        Self {
            target_utilization: 0.8,
            cooldown_intervals: 1,
            max_parallelism: 1_000,
        }
    }
}

/// The queueing-theory controller.
#[derive(Debug)]
pub struct QueueingController {
    graph: LogicalGraph,
    config: QueueingConfig,
    cooldown: u32,
    awaiting_deploy: bool,
}

impl QueueingController {
    /// Creates a queueing-theory controller for `graph`.
    pub fn new(graph: LogicalGraph, config: QueueingConfig) -> Self {
        Self {
            graph,
            config,
            cooldown: 0,
            awaiting_deploy: false,
        }
    }

    /// Creates a controller with default configuration (`ρ = 0.8`).
    pub fn with_defaults(graph: LogicalGraph) -> Self {
        Self::new(graph, QueueingConfig::default())
    }
}

impl ScalingController for QueueingController {
    fn name(&self) -> &str {
        "queueing"
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

        let mut plan = current.clone();
        let mut changed = false;
        for op in self.graph.topological_order() {
            if self.graph.is_source(op) {
                continue;
            }
            let Some(metrics) = snapshot.operator(op) else {
                continue;
            };
            // λ: observed (possibly throttled) arrival rate at the station.
            let Some(lambda) = metrics.aggregate_observed_processing_rate() else {
                continue;
            };
            // μ: per-instance service rate from true processing rates.
            let Some(mu) = metrics.average_true_processing_rate() else {
                continue;
            };
            if mu <= 0.0 {
                continue;
            }
            let c = ((lambda / (mu * self.config.target_utilization)).ceil() as usize)
                .clamp(1, self.config.max_parallelism);
            if c != current.parallelism(op) {
                plan.set(op, c);
                changed = true;
            }
        }

        if changed {
            self.awaiting_deploy = true;
            ControllerVerdict::Rescale(plan)
        } else {
            ControllerVerdict::NoAction
        }
    }

    fn on_deployed(&mut self, _now_ns: u64, _deployment: &Deployment) {
        self.awaiting_deploy = false;
        self.cooldown = self.config.cooldown_intervals;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ds2_core::graph::{GraphBuilder, OperatorId};
    use ds2_core::rates::InstanceMetrics;

    fn graph() -> (LogicalGraph, OperatorId, OperatorId) {
        let mut b = GraphBuilder::new();
        let s = b.operator("src");
        let a = b.operator("a");
        b.connect(s, a);
        (b.build().unwrap(), s, a)
    }

    /// Instance observing `lambda` arrivals with capacity `mu`.
    fn inst(lambda: f64, mu: f64) -> InstanceMetrics {
        let window_ns = 1_000_000_000u64;
        let util = (lambda / mu).min(1.0);
        InstanceMetrics {
            records_in: lambda as u64,
            records_out: lambda as u64,
            useful_ns: (window_ns as f64 * util) as u64,
            window_ns,
            ..Default::default()
        }
    }

    #[test]
    fn provisions_for_target_utilization() {
        let (g, s, a) = graph();
        let mut q = QueueingController::with_defaults(g.clone());
        let current = Deployment::uniform(&g, 1);
        let mut snap = MetricsSnapshot::new();
        snap.set_source_rate(s, 800.0);
        snap.insert_instances(s, vec![inst(0.0, 1.0)]);
        // λ = 800 observed, μ = 1000: DS2 would say 1; M/M/c with ρ=0.8
        // says exactly 1... use λ=900 to see the headroom: c = ceil(900/800)
        // = 2 — the over-provisioning bias.
        snap.insert_instances(a, vec![inst(900.0, 1000.0)]);
        let v = q.on_metrics(0, &snap, &current);
        let plan = v.rescale().unwrap();
        assert_eq!(plan.parallelism(a), 2);
    }

    #[test]
    fn underestimates_under_backpressure() {
        let (g, s, a) = graph();
        let mut q = QueueingController::with_defaults(g.clone());
        let current = Deployment::uniform(&g, 1);
        // True demand is 4000/s but the observed (throttled) arrival is
        // only 1000/s: the queueing model provisions for 1000.
        let mut snap = MetricsSnapshot::new();
        snap.set_source_rate(s, 4000.0);
        snap.insert_instances(s, vec![inst(0.0, 1.0)]);
        snap.insert_instances(a, vec![inst(1000.0, 1000.0)]);
        let v = q.on_metrics(0, &snap, &current);
        let plan = v.rescale().unwrap();
        // ceil(1000 / 800) = 2, far below the 5 actually needed.
        assert_eq!(plan.parallelism(a), 2);
    }

    #[test]
    fn no_change_when_within_target() {
        let (g, s, a) = graph();
        let mut q = QueueingController::with_defaults(g.clone());
        let mut current = Deployment::uniform(&g, 1);
        current.set(a, 2);
        let mut snap = MetricsSnapshot::new();
        snap.set_source_rate(s, 1000.0);
        snap.insert_instances(s, vec![inst(0.0, 1.0)]);
        snap.insert_instances(a, vec![inst(500.0, 1000.0); 2]);
        assert!(!q.on_metrics(0, &snap, &current).is_rescale());
    }

    #[test]
    fn cooldown_respected() {
        let (g, s, a) = graph();
        let mut q = QueueingController::with_defaults(g.clone());
        let current = Deployment::uniform(&g, 1);
        let mut snap = MetricsSnapshot::new();
        snap.set_source_rate(s, 4000.0);
        snap.insert_instances(s, vec![inst(0.0, 1.0)]);
        snap.insert_instances(a, vec![inst(1000.0, 1000.0)]);
        let plan = q.on_metrics(0, &snap, &current).rescale().unwrap().clone();
        q.on_deployed(1, &plan);
        assert!(!q.on_metrics(2, &snap, &plan).is_rescale());
        // After cooldown it acts again (observed λ still drives it up).
        let mut snap2 = MetricsSnapshot::new();
        snap2.set_source_rate(s, 4000.0);
        snap2.insert_instances(s, vec![inst(0.0, 1.0)]);
        snap2.insert_instances(a, vec![inst(1000.0, 1000.0); 2]);
        assert!(q.on_metrics(3, &snap2, &plan).is_rescale());
    }
}
