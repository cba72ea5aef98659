//! The controller abstraction shared by DS2 and every baseline.
//!
//! The experiment harness drives any [`ScalingController`] against any engine
//! in a closed loop: once per policy interval it hands the controller a
//! [`MetricsSnapshot`] and the current [`Deployment`], and applies whatever
//! rescaling the controller requests (after the engine's redeployment
//! latency). This is how the paper's Figure 1 (Dhalion) and Figure 6 (DS2 vs
//! Dhalion) runs share all code except the controller.

use crate::deployment::Deployment;
use crate::snapshot::MetricsSnapshot;

/// A scaling action requested by a controller.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ControllerVerdict {
    /// Keep the current deployment.
    NoAction,
    /// Redeploy the dataflow with the given parallelism plan.
    Rescale(Deployment),
}

impl ControllerVerdict {
    /// Returns the requested deployment, if any.
    pub fn rescale(&self) -> Option<&Deployment> {
        match self {
            ControllerVerdict::NoAction => None,
            ControllerVerdict::Rescale(d) => Some(d),
        }
    }

    /// Returns `true` if the verdict requests a rescale.
    pub fn is_rescale(&self) -> bool {
        matches!(self, ControllerVerdict::Rescale(_))
    }
}

/// Counters a hardened controller exposes about degraded-input handling.
///
/// All counters stay zero for controllers without hardening, so harnesses can
/// harvest this unconditionally via [`ScalingController::fault_stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ControllerFaultStats {
    /// Metric windows where at least one operator's slots were repaired from
    /// the last-good snapshot.
    pub(crate) repaired_windows: u32,
    /// Per-instance samples replaced by the operator median as rate outliers.
    pub(crate) outliers_rejected: u32,
    /// Metric windows vetoed outright (majority-invalid telemetry): the
    /// controller held the last-good deployment instead of acting.
    pub vetoed_windows: u32,
    /// Rescale requests re-issued after a deploy acknowledgement timed out.
    pub retries: u32,
    /// Rescales abandoned after the retry cap was exhausted.
    pub abandoned_rescales: u32,
}

/// A scaling controller in the sense of the paper's §1: a component that
/// decides *whether* and *how much* to scale each operator.
pub trait ScalingController {
    /// Short name used in experiment output (e.g. `"ds2"`, `"dhalion"`).
    fn name(&self) -> &str;

    /// Considers the metrics of one policy interval and possibly requests a
    /// rescale. `now_ns` is the current (virtual or wall-clock) time.
    fn on_metrics(
        &mut self,
        now_ns: u64,
        snapshot: &MetricsSnapshot,
        current: &Deployment,
    ) -> ControllerVerdict;

    /// Notifies the controller that a requested rescale finished deploying.
    fn on_deployed(&mut self, _now_ns: u64, _deployment: &Deployment) {}

    /// Degraded-input handling counters; all-zero unless the controller is
    /// hardened against telemetry/actuation faults.
    fn fault_stats(&self) -> ControllerFaultStats {
        ControllerFaultStats::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::OperatorId;

    #[test]
    fn verdict_accessors() {
        let v = ControllerVerdict::NoAction;
        assert!(!v.is_rescale());
        assert!(v.rescale().is_none());
        let d = Deployment::from_map([(OperatorId(0), 2)].into());
        let v = ControllerVerdict::Rescale(d.clone());
        assert!(v.is_rescale());
        assert_eq!(v.rescale(), Some(&d));
    }
}
