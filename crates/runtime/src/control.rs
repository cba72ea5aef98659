//! The live control loop: a [`ScalingController`] driving a [`RunningJob`]
//! over wall-clock time — the real-system counterpart of the simulator
//! harness (paper Fig. 5).
//!
//! The loop is *self-healing*: a failed rescale (wedged worker blowing the
//! halt deadline) or a worker panic no longer ends the run. Failures are
//! recorded as typed events, the job is redeployed from the last good
//! deployment plus the latest checkpoint, and the controller keeps being
//! driven — up to a bounded number of recoveries with exponential backoff,
//! after which the loop gives up with
//! [`Ds2Error::RecoveryExhausted`](ds2_core::error::Ds2Error).
//!
//! Ticks are scheduled against absolute deadlines (`start + k * interval`),
//! not relative sleeps, so time spent snapshotting, rescaling, or healing
//! does not stretch the policy interval. When one tick overruns, the loop
//! fires the latest missed deadline once and skips the rest — it never
//! bursts to catch up.

use std::time::{Duration, Instant};

use ds2_core::controller::{ControllerVerdict, ScalingController};
use ds2_core::deployment::Deployment;
use ds2_core::error::Ds2Error;
use ds2_core::snapshot::MetricsSnapshot;

use crate::engine::RunningJob;

/// Control-loop configuration.
#[derive(Debug, Clone)]
pub struct ControlConfig {
    /// Policy interval between snapshots.
    pub interval: Duration,
    /// Total run time.
    pub duration: Duration,
    /// Full redeploys the loop may perform after failed rescales before
    /// giving up. Instance-level panic restarts are budgeted separately
    /// (per instance, in
    /// [`SupervisionConfig`](crate::supervisor::SupervisionConfig)).
    pub max_recoveries: u32,
    /// Delay before the first redeploy after a failed rescale; doubles per
    /// recovery, capped at `interval`.
    pub recovery_backoff: Duration,
}

impl Default for ControlConfig {
    fn default() -> Self {
        Self {
            interval: Duration::from_secs(1),
            duration: Duration::from_secs(10),
            max_recoveries: 3,
            recovery_backoff: Duration::from_millis(50),
        }
    }
}

/// One control-loop event.
#[derive(Debug, Clone)]
pub struct ControlEvent {
    /// Time since the loop started.
    pub at: Duration,
    /// The plan applied, if the controller rescaled.
    pub rescaled_to: Option<Deployment>,
    /// Redeployment downtime, if a rescale happened.
    pub downtime: Option<Duration>,
    /// The typed failure this event records, if any: a contained worker
    /// panic or wedge that was healed, an aborted rescale, or the final
    /// give-up.
    pub error: Option<Ds2Error>,
    /// `true` when the failure in `error` was recovered from (instance
    /// restarted or job redeployed) and the loop kept running.
    pub recovered: bool,
}

impl ControlEvent {
    fn tick(at: Duration) -> Self {
        Self {
            at,
            rescaled_to: None,
            downtime: None,
            error: None,
            recovered: false,
        }
    }
}

/// Runs `controller` against `job` for the configured duration, applying
/// rescales through the engine's stop-the-world mechanism and healing
/// worker failures as they surface. Returns the event log.
pub fn run_control_loop<R, C>(
    job: &mut RunningJob<R>,
    controller: &mut C,
    config: &ControlConfig,
) -> Vec<ControlEvent>
where
    R: Clone + Send + 'static,
    C: ScalingController,
{
    let start = Instant::now();
    let mut events = Vec::new();
    // One snapshot reused across every tick: `collect_snapshot_into`
    // recycles its operator slots, so the per-interval metrics path stops
    // allocating once the instance vectors have grown.
    let mut snapshot = MetricsSnapshot::new();
    // Align the metrics window with the loop start.
    job.collect_snapshot_into(&mut snapshot);
    let interval_ns = config.interval.as_nanos().max(1) as u64;
    let mut tick: u64 = 0;
    let mut recoveries: u32 = 0;
    loop {
        // Absolute-deadline schedule: tick k fires at start + k * interval.
        // If the previous tick overran, jump to the latest missed deadline
        // (fired late, once) instead of bursting through the backlog.
        tick += 1;
        let behind = (start.elapsed().as_nanos() as u64) / interval_ns;
        if behind > tick {
            tick = behind;
        }
        let deadline = Duration::from_nanos(interval_ns.saturating_mul(tick));
        if deadline > config.duration {
            break;
        }
        if let Some(wait) = (start + deadline).checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }

        let _ = job.maybe_checkpoint();

        // Heal contained worker failures before reading metrics, so the
        // snapshot reflects a fully deployed job.
        let heal = job.heal();
        for error in heal.healed {
            events.push(ControlEvent {
                error: Some(error),
                recovered: true,
                ..ControlEvent::tick(start.elapsed())
            });
        }
        if let Some(error) = heal.gave_up {
            events.push(ControlEvent {
                error: Some(error),
                ..ControlEvent::tick(start.elapsed())
            });
            break;
        }

        job.collect_snapshot_into(&mut snapshot);
        let now_ns = job.elapsed().as_nanos() as u64;
        let current = job.deployment().clone();
        match controller.on_metrics(now_ns, &snapshot, &current) {
            ControllerVerdict::NoAction => events.push(ControlEvent::tick(start.elapsed())),
            ControllerVerdict::Rescale(plan) => match job.rescale(plan.clone()) {
                Ok(downtime) => {
                    controller.on_deployed(job.elapsed().as_nanos() as u64, &plan);
                    // Discard metrics accumulated across the downtime.
                    job.collect_snapshot_into(&mut snapshot);
                    events.push(ControlEvent {
                        rescaled_to: Some(plan),
                        downtime: Some(downtime),
                        ..ControlEvent::tick(start.elapsed())
                    });
                }
                Err(e) => {
                    // The rescale aborted and the job is halted — or a new
                    // instance panicked restoring its state, the job runs
                    // and `recover` below leaves it to the next `heal`. The
                    // controller is NOT told the plan deployed — a
                    // verify-then-retry manager will re-issue it once the
                    // job is healthy again.
                    if recoveries >= config.max_recoveries {
                        events.push(ControlEvent {
                            error: Some(e),
                            ..ControlEvent::tick(start.elapsed())
                        });
                        events.push(ControlEvent {
                            error: Some(Ds2Error::RecoveryExhausted {
                                attempts: recoveries,
                            }),
                            ..ControlEvent::tick(start.elapsed())
                        });
                        break;
                    }
                    recoveries += 1;
                    let backoff = config
                        .recovery_backoff
                        .saturating_mul(1 << (recoveries - 1).min(16))
                        .min(config.interval);
                    std::thread::sleep(backoff);
                    job.recover();
                    // Discard the window spanning the outage.
                    job.collect_snapshot_into(&mut snapshot);
                    events.push(ControlEvent {
                        error: Some(e),
                        recovered: true,
                        ..ControlEvent::tick(start.elapsed())
                    });
                }
            },
        }
    }
    events
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobSpec;
    use crate::logic::CostedLogic;
    use ds2_core::graph::{GraphBuilder, OperatorId};
    use ds2_core::manager::{ManagerConfig, ScalingManager};
    use ds2_core::snapshot::MetricsSnapshot;

    /// End-to-end on real threads: a deliberately slow operator (2 ms per
    /// record => ~500 rec/s per instance) facing a 1200 rec/s source must
    /// be scaled up by DS2 to 3 instances.
    #[test]
    fn ds2_scales_live_job() {
        let mut b = GraphBuilder::new();
        let s = b.operator("src");
        let slow = b.operator("slow");
        b.connect(s, slow);
        let g = b.build().unwrap();

        let mut spec: JobSpec<u64> = JobSpec::new(g.clone());
        spec.batch_size = 32;
        spec.source(s, 1_200.0, |n| n, |&r| r);
        spec.operator(
            slow,
            || {
                Box::new(CostedLogic::new(
                    Duration::from_millis(2),
                    |_r: u64, _out: &mut Vec<u64>| {},
                ))
            },
            |&r| r,
        );

        let mut job = RunningJob::deploy(spec, Deployment::uniform(&g, 1));
        let mut manager = ScalingManager::new(
            g,
            ManagerConfig {
                warmup_intervals: 1,
                min_change: 0,
                ..Default::default()
            },
        );
        let events = run_control_loop(
            &mut job,
            &mut manager,
            &ControlConfig {
                interval: Duration::from_millis(500),
                duration: Duration::from_secs(6),
                ..Default::default()
            },
        );
        let final_p = job.deployment().parallelism(OperatorId(1));
        job.shutdown();
        let rescales: Vec<_> = events.iter().filter(|e| e.rescaled_to.is_some()).collect();
        assert!(!rescales.is_empty(), "DS2 must act on the bottleneck");
        assert!(
            (3..=4).contains(&final_p),
            "expected ~3 instances for 1200/s at 500/s per instance, got {final_p}"
        );
    }

    /// A controller that burns real time inside `on_metrics` — with the old
    /// relative-sleep scheduling, that work time stretched every interval.
    struct SleepyController;

    impl ScalingController for SleepyController {
        fn name(&self) -> &str {
            "sleepy"
        }

        fn on_metrics(
            &mut self,
            _now_ns: u64,
            _snapshot: &MetricsSnapshot,
            _current: &Deployment,
        ) -> ControllerVerdict {
            std::thread::sleep(Duration::from_millis(40));
            ControllerVerdict::NoAction
        }
    }

    /// Interval drift pin: with a 100 ms interval over ~1.05 s and 40 ms of
    /// controller work per tick, absolute-deadline scheduling still fires
    /// ~10 ticks. The old `sleep(interval)`-after-work loop drifted to
    /// ~interval+work per tick (~7 events here).
    #[test]
    fn control_loop_does_not_drift_under_slow_ticks() {
        let mut b = GraphBuilder::new();
        let s = b.operator("src");
        let o = b.operator("op");
        b.connect(s, o);
        let g = b.build().unwrap();
        let mut spec: JobSpec<u64> = JobSpec::new(g.clone());
        spec.source(s, 500.0, |n| n, |&r| r);
        spec.operator(
            o,
            || {
                Box::new(crate::logic::FnLogic::new(
                    |_r: u64, _out: &mut Vec<u64>| {},
                ))
            },
            |&r| r,
        );
        let mut job = RunningJob::deploy(spec, Deployment::uniform(&g, 1));
        let events = run_control_loop(
            &mut job,
            &mut SleepyController,
            &ControlConfig {
                interval: Duration::from_millis(100),
                duration: Duration::from_millis(1_050),
                ..Default::default()
            },
        );
        job.shutdown();
        assert!(
            (9..=10).contains(&events.len()),
            "expected ~10 undrifted ticks in 1.05s at 100ms, got {}",
            events.len()
        );
    }
}
