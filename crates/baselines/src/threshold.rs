//! A CPU-utilization threshold controller, in the style of StreamCloud
//! (Gulisano et al.) and Seep (Fernandez et al.) — Table 1's
//! "threshold-based, speculative" family.
//!
//! Policy: if an operator's mean utilization exceeds the high threshold,
//! add a fixed number of instances; below the low threshold, remove one.
//! This is the §2 cautionary tale in executable form: thresholds need
//! continuous tuning, utilization conflates queue-draining with steady
//! load, and single-instance steps converge slowly and oscillate around
//! the thresholds.

use ds2_core::controller::{ControllerVerdict, ScalingController};
use ds2_core::deployment::Deployment;
use ds2_core::graph::{LogicalGraph, OperatorId};
use ds2_core::snapshot::MetricsSnapshot;

/// Threshold controller configuration.
#[derive(Debug, Clone)]
pub struct ThresholdConfig {
    /// Utilization above which an operator scales up.
    pub high: f64,
    /// Utilization below which an operator scales down.
    pub low: f64,
    /// Instances added per scale-up action.
    pub step_up: usize,
    /// Instances removed per scale-down action.
    pub step_down: usize,
    /// Intervals to wait after an action.
    pub cooldown_intervals: u32,
    /// Maximum parallelism per operator.
    pub max_parallelism: usize,
    /// Scale every operator that violates a threshold in the same action
    /// (`true`) or only the worst violator (`false`, the common design).
    pub multi_operator: bool,
}

impl Default for ThresholdConfig {
    fn default() -> Self {
        Self {
            high: 0.8,
            low: 0.3,
            step_up: 1,
            step_down: 1,
            cooldown_intervals: 1,
            max_parallelism: 1_000,
            multi_operator: false,
        }
    }
}

/// The threshold-based controller.
#[derive(Debug)]
pub struct ThresholdController {
    graph: LogicalGraph,
    config: ThresholdConfig,
    cooldown: u32,
    awaiting_deploy: bool,
}

impl ThresholdController {
    /// Creates a threshold controller for `graph`.
    pub fn new(graph: LogicalGraph, config: ThresholdConfig) -> Self {
        Self {
            graph,
            config,
            cooldown: 0,
            awaiting_deploy: false,
        }
    }

    /// Creates a controller with default thresholds (80%/30%).
    pub fn with_defaults(graph: LogicalGraph) -> Self {
        Self::new(graph, ThresholdConfig::default())
    }

    fn violation(&self, util: f64) -> Option<bool> {
        if util > self.config.high {
            Some(true) // scale up
        } else if util < self.config.low {
            Some(false) // scale down
        } else {
            None
        }
    }
}

impl ScalingController for ThresholdController {
    fn name(&self) -> &str {
        "threshold"
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
        let mut worst: Option<(OperatorId, f64, bool)> = None;

        for op in self.graph.topological_order() {
            if self.graph.is_source(op) {
                continue;
            }
            let Some(metrics) = snapshot.operator(op) else {
                continue;
            };
            let util = metrics.mean_utilization();
            let Some(up) = self.violation(util) else {
                continue;
            };
            let p = current.parallelism(op);
            let target = if up {
                (p + self.config.step_up).min(self.config.max_parallelism)
            } else {
                p.saturating_sub(self.config.step_down).max(1)
            };
            if target == p {
                continue;
            }
            if self.config.multi_operator {
                plan.set(op, target);
                changed = true;
            } else {
                // Track the worst violator: largest distance from band.
                let severity = if up {
                    util - self.config.high
                } else {
                    self.config.low - util
                };
                let better = worst.is_none_or(|(_, s, _)| severity > s);
                if better {
                    worst = Some((op, severity, up));
                }
            }
        }

        if !self.config.multi_operator {
            if let Some((op, _, up)) = worst {
                let p = current.parallelism(op);
                let target = if up {
                    (p + self.config.step_up).min(self.config.max_parallelism)
                } else {
                    p.saturating_sub(self.config.step_down).max(1)
                };
                if target != p {
                    plan.set(op, target);
                    changed = true;
                }
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
    use ds2_core::graph::GraphBuilder;
    use ds2_core::rates::InstanceMetrics;

    fn graph() -> (LogicalGraph, OperatorId, OperatorId, OperatorId) {
        let mut b = GraphBuilder::new();
        let s = b.operator("src");
        let a = b.operator("a");
        let c = b.operator("b");
        b.connect(s, a);
        b.connect(a, c);
        (b.build().unwrap(), s, a, c)
    }

    fn inst(util: f64) -> InstanceMetrics {
        InstanceMetrics {
            records_in: 100,
            records_out: 100,
            useful_ns: (1e9 * util) as u64,
            window_ns: 1_000_000_000,
            ..Default::default()
        }
    }

    fn snap(s: OperatorId, a: OperatorId, c: OperatorId, ua: f64, uc: f64) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::new();
        snap.set_source_rate(s, 100.0);
        snap.insert_instances(s, vec![inst(0.5)]);
        snap.insert_instances(a, vec![inst(ua)]);
        snap.insert_instances(c, vec![inst(uc)]);
        snap
    }

    #[test]
    fn scales_up_one_step() {
        let (g, s, a, c) = graph();
        let mut t = ThresholdController::with_defaults(g.clone());
        let current = Deployment::uniform(&g, 2);
        let v = t.on_metrics(0, &snap(s, a, c, 0.95, 0.5), &current);
        let plan = v.rescale().unwrap();
        assert_eq!(plan.parallelism(a), 3, "single-step increase");
        assert_eq!(plan.parallelism(c), 2);
    }

    #[test]
    fn scales_down_when_idle() {
        let (g, s, a, c) = graph();
        let mut t = ThresholdController::with_defaults(g.clone());
        let current = Deployment::uniform(&g, 4);
        let v = t.on_metrics(0, &snap(s, a, c, 0.5, 0.1), &current);
        let plan = v.rescale().unwrap();
        assert_eq!(plan.parallelism(c), 3);
    }

    #[test]
    fn worst_violator_only() {
        let (g, s, a, c) = graph();
        let mut t = ThresholdController::with_defaults(g.clone());
        let current = Deployment::uniform(&g, 2);
        // Both violate; `a` is further above the band.
        let v = t.on_metrics(0, &snap(s, a, c, 0.99, 0.85), &current);
        let plan = v.rescale().unwrap();
        assert_eq!(plan.parallelism(a), 3);
        assert_eq!(plan.parallelism(c), 2);
    }

    #[test]
    fn multi_operator_mode() {
        let (g, s, a, c) = graph();
        let mut t = ThresholdController::new(
            g.clone(),
            ThresholdConfig {
                multi_operator: true,
                ..Default::default()
            },
        );
        let current = Deployment::uniform(&g, 2);
        let v = t.on_metrics(0, &snap(s, a, c, 0.99, 0.85), &current);
        let plan = v.rescale().unwrap();
        assert_eq!(plan.parallelism(a), 3);
        assert_eq!(plan.parallelism(c), 3);
    }

    #[test]
    fn in_band_no_action() {
        let (g, s, a, c) = graph();
        let mut t = ThresholdController::with_defaults(g.clone());
        let current = Deployment::uniform(&g, 2);
        assert!(!t
            .on_metrics(0, &snap(s, a, c, 0.5, 0.6), &current)
            .is_rescale());
    }

    #[test]
    fn never_scales_below_one() {
        let (g, s, a, c) = graph();
        let mut t = ThresholdController::with_defaults(g.clone());
        let current = Deployment::uniform(&g, 1);
        let v = t.on_metrics(0, &snap(s, a, c, 0.1, 0.1), &current);
        assert!(!v.is_rescale());
    }
}
