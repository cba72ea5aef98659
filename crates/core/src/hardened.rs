//! Hardening for the Scaling Manager: a wrapper controller for deployments
//! whose telemetry and actuation cannot be trusted.
//!
//! [`ScalingManager`] is the paper's controller and assumes the paper's
//! clean setting: every snapshot describes the running deployment and every
//! requested rescale lands and is acknowledged. [`Hardened`] owns a manager
//! and stands between it and a faulty plant:
//!
//! * **Snapshot validation and repair.** Each operator's slots are checked
//!   against the graph and the deployed parallelism
//!   (`MetricsSnapshot::validate_operator`); broken operators are repaired
//!   from the last fully valid snapshot while it is fresh enough.
//! * **Degraded-telemetry veto.** A window in which a majority of operators
//!   is invalid is never shown to the manager: the deployment is held.
//! * **Outlier rejection.** Per-instance samples whose true processing rate
//!   is far from the operator median are replaced by the median instance's.
//! * **Verify-then-retry.** A requested rescale that is not acknowledged by
//!   the next policy interval is checked against the live deployment and
//!   re-issued with exponential back-off; after a bounded number of retries
//!   the plan is abandoned and banned for an escalating cool-off.
//!
//! On fault-free input the wrapper is transparent: it emits the verdicts
//! the bare manager would and its [`ControllerFaultStats`] stay zero.

use crate::controller::{ControllerFaultStats, ControllerVerdict, ScalingController};
use crate::deployment::Deployment;
use crate::error::Ds2Error;
use crate::manager::{DecisionRecord, ScalingManager};
use crate::snapshot::MetricsSnapshot;

/// Maximum age, in policy intervals, of the last-good snapshot used for
/// repairs. Beyond it a broken operator stays broken and the policy defers
/// on it instead.
const MAX_STALE_WINDOWS: u32 = 3;

/// Multiplicative distance from the per-operator median rate beyond which
/// an instance sample counts as an outlier.
const OUTLIER_FACTOR: f64 = 3.0;

/// Times an unacknowledged rescale is re-issued before it is abandoned.
const MAX_RESCALE_RETRIES: u32 = 3;

/// A [`ScalingManager`] hardened against telemetry and actuation faults
/// (see the [module docs](self)).
#[derive(Debug)]
pub struct Hardened {
    inner: ScalingManager,
    /// Last snapshot that validated cleanly, for repairs.
    last_good: MetricsSnapshot,
    /// Policy intervals since `last_good` was captured; `u32::MAX` until a
    /// first valid snapshot is seen.
    last_good_age: u32,
    /// Sanitized copy of the incoming snapshot (scratch).
    sanitize_buf: MetricsSnapshot,
    /// `(rate, instance index)` sorting scratch for outlier rejection.
    rate_scratch: Vec<(f64, usize)>,
    /// The plan whose deploy acknowledgement is outstanding. `Some` exactly
    /// while the inner manager awaits a deployment: every `Rescale` it
    /// returns passes through [`Hardened::on_metrics`], which arms this.
    requested_plan: Option<Deployment>,
    /// Retries already spent on the outstanding plan.
    retries_used: u32,
    /// Intervals left before the next retry may fire (exponential backoff).
    backoff_remaining: u32,
    /// Consecutive abandoned rescales, scaling the post-give-up ban.
    failed_deploy_streak: u32,
    fault_stats: ControllerFaultStats,
}

impl Hardened {
    /// Wraps `manager`.
    pub fn new(manager: ScalingManager) -> Self {
        Self {
            inner: manager,
            last_good: MetricsSnapshot::new(),
            last_good_age: u32::MAX,
            sanitize_buf: MetricsSnapshot::new(),
            rate_scratch: Vec::new(),
            requested_plan: None,
            retries_used: 0,
            backoff_remaining: 0,
            failed_deploy_streak: 0,
            fault_stats: ControllerFaultStats::default(),
        }
    }

    /// The wrapped manager (decision log, convergence state).
    pub fn manager(&self) -> &ScalingManager {
        &self.inner
    }

    /// Unwraps the manager, e.g. to recover a pooled workspace.
    pub fn into_inner(self) -> ScalingManager {
        self.inner
    }

    /// Copies `snapshot` into `buf`, repairing implausible operators from
    /// the last-good snapshot (bounded staleness) and rejecting per-instance
    /// rate outliers.
    ///
    /// # Errors
    ///
    /// Returns [`Ds2Error::DegradedTelemetry`] when a majority of operators
    /// is invalid before repair — such a window must be held, not acted on.
    fn sanitize_snapshot(
        &mut self,
        buf: &mut MetricsSnapshot,
        snapshot: &MetricsSnapshot,
        current: &Deployment,
    ) -> Result<(), Ds2Error> {
        buf.clone_from(snapshot);
        let graph = self.inner.graph();
        let mut invalid = 0usize;
        let mut repaired_any = false;
        let fresh_enough = self.last_good_age <= MAX_STALE_WINDOWS;
        for op in graph.operators() {
            let p = current.parallelism(op);
            if buf.validate_operator(graph, op, p).is_ok() {
                continue;
            }
            invalid += 1;
            // Fall back to the operator's last-good slots, but only when
            // they still describe the deployed parallelism.
            if !fresh_enough || self.last_good.validate_operator(graph, op, p).is_err() {
                continue;
            }
            if let Some(good) = self.last_good.operator(op) {
                buf.insert_instances(op, good.instances.clone());
            }
            if let Some(rate) = self.last_good.source_rate(op) {
                buf.set_source_rate(op, rate);
            }
            repaired_any = true;
        }
        if invalid == 0 {
            self.last_good.clone_from(snapshot);
            self.last_good_age = 0;
        } else {
            // Saturating: `u32::MAX` (no valid snapshot seen yet) stays put.
            self.last_good_age = self.last_good_age.saturating_add(1);
        }
        if repaired_any {
            self.fault_stats.repaired_windows += 1;
        }
        if invalid * 2 > graph.len() {
            return Err(Ds2Error::DegradedTelemetry {
                invalid,
                total: graph.len(),
            });
        }
        self.reject_outliers(buf);
        Ok(())
    }

    /// Replaces instance samples whose true processing rate is further than
    /// `OUTLIER_FACTOR`× from the operator median with the median instance's
    /// sample. This extends the §4.2.1 median idea from the activation axis
    /// to the instance axis: one straggler with inflated useful time (or a
    /// noisy counter) otherwise drags the whole aggregate capacity estimate.
    fn reject_outliers(&mut self, buf: &mut MetricsSnapshot) {
        let mut scratch = std::mem::take(&mut self.rate_scratch);
        for op in self.inner.graph().operators() {
            let Some(m) = buf.operator_mut(op) else {
                continue;
            };
            if m.instances.len() < 3 {
                continue;
            }
            scratch.clear();
            for (k, i) in m.instances.iter().enumerate() {
                if let Some(r) = i.true_processing_rate() {
                    if r.is_finite() && r > 0.0 {
                        scratch.push((r, k));
                    }
                }
            }
            if scratch.len() < 3 {
                continue;
            }
            scratch.sort_unstable_by(|a, b| a.0.total_cmp(&b.0));
            let (median_rate, median_idx) = scratch[scratch.len() / 2];
            let median_sample = m.instances[median_idx];
            for &(r, k) in scratch.iter() {
                if r > median_rate * OUTLIER_FACTOR || r * OUTLIER_FACTOR < median_rate {
                    m.instances[k] = median_sample;
                    self.fault_stats.outliers_rejected += 1;
                }
            }
        }
        self.rate_scratch = scratch;
    }

    /// Handles an interval that arrives while `requested`'s acknowledgement
    /// is outstanding: verifies the live deployment and re-issues the plan
    /// with exponential backoff, up to the retry cap.
    fn handle_awaiting(
        &mut self,
        now_ns: u64,
        requested: Deployment,
        current: &Deployment,
    ) -> ControllerVerdict {
        if *current == requested {
            // The rescale landed but its acknowledgement was lost: verify
            // succeeded, acknowledge it ourselves.
            self.on_deployed(now_ns, &requested);
            return ControllerVerdict::NoAction;
        }
        if self.backoff_remaining > 0 {
            self.backoff_remaining -= 1;
            return ControllerVerdict::NoAction;
        }
        if self.retries_used < MAX_RESCALE_RETRIES {
            self.retries_used += 1;
            self.fault_stats.retries += 1;
            // 1, 2, 4, ... intervals between successive retries.
            self.backoff_remaining = 1 << (self.retries_used - 1);
            self.inner.record(DecisionRecord {
                at_ns: now_ns,
                plan: Some(requested.clone()),
                achieved_ratio: None,
                boost: 1.0,
                acted: true,
                error: Some(Ds2Error::RescaleTimedOut(format!(
                    "deploy unacknowledged (retry {} of {MAX_RESCALE_RETRIES})",
                    self.retries_used
                ))),
            });
            return ControllerVerdict::Rescale(requested);
        }
        // Retry cap exhausted: abandon the plan, hold the deployment that is
        // actually running, and ban the abandoned plan with an escalating
        // cool-off so the next evaluation does not restart the cycle
        // immediately.
        self.fault_stats.abandoned_rescales += 1;
        self.failed_deploy_streak = self.failed_deploy_streak.saturating_add(1);
        self.inner
            .abandon_plan(requested, self.failed_deploy_streak);
        self.inner.record(DecisionRecord {
            at_ns: now_ns,
            plan: None,
            achieved_ratio: None,
            boost: 1.0,
            acted: false,
            error: Some(Ds2Error::RescaleRetriesExhausted {
                retries: self.retries_used,
            }),
        });
        self.requested_plan = None;
        self.retries_used = 0;
        self.backoff_remaining = 0;
        ControllerVerdict::NoAction
    }
}

impl ScalingController for Hardened {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn on_metrics(
        &mut self,
        now_ns: u64,
        snapshot: &MetricsSnapshot,
        current: &Deployment,
    ) -> ControllerVerdict {
        if let Some(requested) = self.requested_plan.clone() {
            return self.handle_awaiting(now_ns, requested, current);
        }
        let verdict = if self.inner.is_warming_up() {
            // The manager discards this window unseen: nothing to sanitize,
            // and a window nobody acts on neither refreshes nor ages the
            // last-good snapshot.
            self.inner.on_metrics(now_ns, snapshot, current)
        } else {
            let mut buf = std::mem::take(&mut self.sanitize_buf);
            let verdict = match self.sanitize_snapshot(&mut buf, snapshot, current) {
                Ok(()) => self.inner.on_metrics(now_ns, &buf, current),
                Err(e) => {
                    // Majority-invalid telemetry: hold the last-good
                    // deployment, never act on this window.
                    self.fault_stats.vetoed_windows += 1;
                    self.inner.record(DecisionRecord {
                        at_ns: now_ns,
                        plan: None,
                        achieved_ratio: None,
                        boost: 1.0,
                        acted: false,
                        error: Some(e),
                    });
                    ControllerVerdict::NoAction
                }
            };
            self.sanitize_buf = buf;
            verdict
        };
        if let ControllerVerdict::Rescale(plan) = &verdict {
            self.requested_plan = Some(plan.clone());
            self.retries_used = 0;
            self.backoff_remaining = 0;
        }
        verdict
    }

    fn on_deployed(&mut self, now_ns: u64, deployment: &Deployment) {
        if self
            .requested_plan
            .as_ref()
            .is_some_and(|requested| requested != deployment)
        {
            // Partial landing: something deployed, but not the plan that was
            // asked for. Keep waiting; the next interval verifies the live
            // deployment and re-issues the plan.
            return;
        }
        self.requested_plan = None;
        self.retries_used = 0;
        self.backoff_remaining = 0;
        self.failed_deploy_streak = 0;
        self.inner.on_deployed(now_ns, deployment);
    }

    fn fault_stats(&self) -> ControllerFaultStats {
        self.fault_stats
    }
}
