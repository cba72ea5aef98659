//! The closed control loop: engine + metrics + controller (paper Fig. 5).
//!
//! Once per policy interval the harness closes the instrumentation window,
//! hands the snapshot to the [`ScalingController`], and applies any
//! requested rescale through the engine's redeployment mechanism. All paper
//! experiments (Figures 1, 6, 7 and Tables 3–4) are runs of this loop with
//! different controllers, engine personalities and workloads.
//!
//! The loop steps the engine with [`FluidEngine::advance`] up to its next
//! interaction (timeline sample or policy tick) and adds the step's source
//! statistics once per tick advanced, as tick-by-tick driving would.

use std::sync::Arc;

use ds2_core::controller::{ControllerFaultStats, ControllerVerdict, ScalingController};
use ds2_core::deployment::Deployment;
use ds2_core::graph::OperatorId;
use ds2_core::snapshot::MetricsSnapshot;

use crate::engine::{EngineMode, FluidEngine};
use crate::faults::{ActuationOutcome, FaultInjector, FaultPlan, FaultTally};

/// Harness configuration.
#[derive(Debug, Clone)]
pub struct HarnessConfig {
    /// Policy interval: metrics window length between controller calls.
    pub policy_interval_ns: u64,
    /// Total simulated run time.
    pub run_duration_ns: u64,
    /// Deterministic fault plan injected into metric snapshots and rescale
    /// actuation; `None` (default) runs the loop fault-free.
    pub faults: Option<FaultPlan>,
}

impl Default for HarnessConfig {
    fn default() -> Self {
        Self {
            policy_interval_ns: 10_000_000_000,
            run_duration_ns: 600_000_000_000,
            faults: None,
        }
    }
}

/// Timeline sampling resolution: one [`TimelinePoint`] per simulated
/// second (scorers count timeline points as seconds).
const TIMELINE_RESOLUTION_NS: u64 = 1_000_000_000;

/// One timeline sample.
#[derive(Debug, Clone, PartialEq)]
pub struct TimelinePoint {
    /// Sample time (end of the bucket), nanoseconds.
    pub t_ns: u64,
    /// Total offered source rate over the bucket, records/s.
    pub offered_rate: f64,
    /// Total achieved (emitted) source rate over the bucket, records/s.
    pub observed_rate: f64,
    /// Parallelism per operator at sample time, dense by
    /// [`OperatorId::index`]. Consecutive samples share one allocation while
    /// the deployment is unchanged; equality compares the contents.
    pub parallelism: Arc<[usize]>,
    /// Timely worker-pool size at sample time.
    pub timely_workers: usize,
    /// Whether Heron backpressure was active at sample time.
    pub backpressure: bool,
    /// Whether the job was down (redeploying) at sample time.
    pub halted: bool,
    /// Total queued records across operators.
    pub(crate) total_queued: f64,
}

/// One applied scaling decision.
#[derive(Debug, Clone, PartialEq)]
pub struct DecisionPoint {
    /// Time the controller issued the command.
    pub at_ns: u64,
    /// The plan it requested.
    pub plan: Deployment,
    /// The worker count it mapped to (Timely mode only).
    pub timely_workers: Option<usize>,
}

/// The outcome of a closed-loop run.
///
/// Equality is exact (bitwise on every float): the fast-forward
/// equivalence guarantee is that a run with macro-tick replay enabled
/// produces a `RunResult` *equal* to the same run executed tick by tick.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Periodic samples.
    pub timeline: Vec<TimelinePoint>,
    /// Scaling commands applied, in order.
    pub decisions: Vec<DecisionPoint>,
    /// Deployment at the end of the run.
    pub final_deployment: Deployment,
    /// Worker-pool size at the end of the run (Timely mode).
    pub final_workers: usize,
    /// Faults injected into the run (all-zero for fault-free runs).
    pub faults: FaultTally,
    /// The controller's degraded-input counters (all-zero for controllers
    /// without hardening).
    pub controller_faults: ControllerFaultStats,
}

impl RunResult {
    /// Time of the last scaling decision, if any — after it the
    /// configuration was stable to the end of the run.
    pub fn last_decision_ns(&self) -> Option<u64> {
        self.decisions.last().map(|d| d.at_ns)
    }

    /// Parallelism sequence of one operator: initial value plus the value
    /// after each decision.
    pub fn parallelism_steps(&self, op: OperatorId, initial: usize) -> Vec<usize> {
        let mut steps = vec![initial];
        for d in &self.decisions {
            let p = d.plan.parallelism(op);
            if *steps.last().unwrap() != p {
                steps.push(p);
            }
        }
        steps
    }

    /// Mean observed/offered ratio over the last `n` timeline points.
    pub fn final_achieved_ratio(&self, n: usize) -> f64 {
        let pts: Vec<&TimelinePoint> = self.timeline.iter().rev().take(n).collect();
        let offered: f64 = pts.iter().map(|p| p.offered_rate).sum();
        let observed: f64 = pts.iter().map(|p| p.observed_rate).sum();
        if offered <= 0.0 {
            1.0
        } else {
            observed / offered
        }
    }
}

/// Drives a [`ScalingController`] against a [`FluidEngine`].
pub struct ClosedLoop<C: ScalingController> {
    engine: FluidEngine,
    controller: C,
    cfg: HarnessConfig,
}

impl<C: ScalingController> ClosedLoop<C> {
    /// Creates a closed loop.
    pub fn new(engine: FluidEngine, controller: C, cfg: HarnessConfig) -> Self {
        Self {
            engine,
            controller,
            cfg,
        }
    }

    /// Read access to the engine (e.g. for post-run inspection).
    pub fn engine(&self) -> &FluidEngine {
        &self.engine
    }

    /// Read access to the controller.
    pub fn controller(&self) -> &C {
        &self.controller
    }

    /// Consumes the loop, yielding the controller (e.g. to recover a pooled
    /// [`PolicyWorkspace`](ds2_core::policy::PolicyWorkspace) after a run).
    pub(crate) fn into_controller(self) -> C {
        self.controller
    }

    /// The engine's current per-operator parallelism, dense by operator id.
    fn dense_parallelism(&self) -> Arc<[usize]> {
        let deployment = self.engine.deployment();
        self.engine
            .graph()
            .operators()
            .map(|op| deployment.parallelism(op))
            .collect()
    }

    /// Runs the loop for the configured duration and reports the outcome.
    pub fn run(&mut self) -> RunResult {
        let mut snapshot = MetricsSnapshot::with_len(self.engine.graph().len());
        self.run_reusing(&mut snapshot)
    }

    /// Like [`ClosedLoop::run`], collecting metrics windows into a
    /// caller-owned snapshot buffer. The buffer is cleared (epoch-stamped)
    /// and refilled each policy interval, so a loop driven this way closes
    /// windows without heap allocation — and matrix runners can recycle one
    /// buffer across many runs.
    ///
    /// On a Timely engine a per-operator plan becomes one global worker
    /// count (the §4.3 summation rule) and rescales the worker pool.
    pub(crate) fn run_reusing(&mut self, snapshot: &mut MetricsSnapshot) -> RunResult {
        let timely = self.engine.config().mode == EngineMode::Timely;
        let mut timeline = Vec::new();
        let mut decisions = Vec::new();
        let mut injector = self
            .cfg
            .faults
            .map(|plan| FaultInjector::new(plan, self.cfg.run_duration_ns));

        let start = self.engine.now_ns();
        let end = start + self.cfg.run_duration_ns;
        let mut next_policy = start + self.cfg.policy_interval_ns;
        let mut next_sample = start + TIMELINE_RESOLUTION_NS;
        let mut bucket_offered = 0.0f64;
        let mut bucket_emitted = 0.0f64;
        let mut bucket_start = start;
        let mut parallelism = self.dense_parallelism();

        while self.engine.now_ns() < end {
            // Event horizon: the engine may fast-forward provably steady
            // ticks, but the harness promises no external interaction —
            // metrics-window close, control decision — before this time.
            // Workload phase boundaries are derived by the engine itself
            // from the source schedules it owns. While the job is down no
            // policy tick can happen (one that comes due is skipped until
            // the deployment lands, which re-bases `next_policy`), so a
            // stale `next_policy` must not pin the horizon in the past.
            let next_interaction = if self.engine.is_halted() {
                next_sample
            } else {
                next_policy.min(next_sample)
            };
            let horizon = next_interaction.min(end);

            // One step: a replayed batch of ticks or one full tick. The
            // per-tick stats are constants during a replay, so the bucket
            // sums repeat exactly the additions tick-by-tick driving would
            // have performed.
            let events = self.engine.advance(horizon);
            let stats = self.engine.last_tick();
            let (offered, emitted) = (stats.total_offered(), stats.total_emitted());
            let (backpressure, halted) = (stats.backpressure, stats.halted);
            for _ in 0..events.ticks {
                bucket_offered += offered;
                bucket_emitted += emitted;
            }
            if let Some(deployment) = events.deployed {
                parallelism = self.dense_parallelism();
                self.controller
                    .on_deployed(self.engine.now_ns(), &deployment);
                // Metrics accumulated while the job was down describe no
                // useful execution: drop them so the first post-deploy
                // window is clean.
                self.engine.collect_snapshot_into(snapshot);
                next_policy = self.engine.now_ns() + self.cfg.policy_interval_ns;
            }

            let now = self.engine.now_ns();

            if now >= next_sample {
                let bucket_s = (now - bucket_start) as f64 / 1e9;
                let total_queued = self
                    .engine
                    .graph()
                    .operators()
                    .map(|op| self.engine.queue_len(op))
                    .sum();
                timeline.push(TimelinePoint {
                    t_ns: now,
                    offered_rate: if bucket_s > 0.0 {
                        bucket_offered / bucket_s
                    } else {
                        0.0
                    },
                    observed_rate: if bucket_s > 0.0 {
                        bucket_emitted / bucket_s
                    } else {
                        0.0
                    },
                    parallelism: Arc::clone(&parallelism),
                    timely_workers: self.engine.timely_workers(),
                    backpressure,
                    halted,
                    total_queued,
                });
                bucket_offered = 0.0;
                bucket_emitted = 0.0;
                bucket_start = now;
                next_sample += TIMELINE_RESOLUTION_NS;
            }

            if now >= next_policy && !self.engine.is_halted() {
                self.engine.collect_snapshot_into(snapshot);
                // Metric faults mutate only the collected snapshot, never
                // the engine, so fast-forward replay stays valid.
                if let Some(inj) = injector.as_mut() {
                    inj.apply_metrics(
                        snapshot,
                        self.engine.graph(),
                        self.engine.deployment(),
                        now - start,
                    );
                }
                // The deployment is borrowed, not cloned: on the steady
                // path (no action, or a plan equal to the current one) the
                // policy interval allocates nothing here.
                let verdict = self
                    .controller
                    .on_metrics(now, snapshot, self.engine.deployment());
                match verdict {
                    ControllerVerdict::NoAction => {}
                    ControllerVerdict::Rescale(plan) => {
                        if timely {
                            let workers: usize = self
                                .engine
                                .graph()
                                .operators()
                                .filter(|op| !self.engine.graph().is_source(*op))
                                .map(|op| plan.parallelism(op))
                                .sum::<usize>()
                                .max(1);
                            if workers == self.engine.timely_workers() {
                                // No effective change: acknowledge without
                                // a redeploy so the controller can proceed.
                                self.controller.on_deployed(now, self.engine.deployment());
                            } else {
                                decisions.push(DecisionPoint {
                                    at_ns: now,
                                    plan: plan.clone(),
                                    timely_workers: Some(workers),
                                });
                                self.engine.request_worker_rescale(workers);
                            }
                        } else if plan == *self.engine.deployment() {
                            self.controller.on_deployed(now, self.engine.deployment());
                        } else {
                            // Without faults the plan lands as requested.
                            let outcome = match injector.as_mut() {
                                Some(inj) => inj.actuation(
                                    &plan,
                                    self.engine.deployment(),
                                    self.engine.graph(),
                                    now - start,
                                ),
                                None => ActuationOutcome::Land(plan),
                            };
                            match outcome {
                                ActuationOutcome::Silent => {
                                    // The command vanishes: no redeploy, no
                                    // acknowledgement, nothing recorded.
                                }
                                ActuationOutcome::Timeout => {
                                    // The job pays the redeploy downtime but
                                    // comes back on its old configuration;
                                    // the acknowledgement reports that.
                                    let old = self.engine.deployment().clone();
                                    self.engine.request_rescale(old);
                                }
                                ActuationOutcome::Land(landed) => {
                                    decisions.push(DecisionPoint {
                                        at_ns: now,
                                        plan: landed.clone(),
                                        timely_workers: None,
                                    });
                                    self.engine.request_rescale(landed);
                                }
                            }
                        }
                    }
                }
                next_policy = now + self.cfg.policy_interval_ns;
            }
        }

        RunResult {
            timeline,
            decisions,
            final_deployment: self.engine.deployment().clone(),
            final_workers: self.engine.timely_workers(),
            faults: injector.map(|i| i.tally()).unwrap_or_default(),
            controller_faults: self.controller.fault_stats(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{EngineConfig, EngineMode, InstrumentationConfig};
    use crate::fastforward::FastForwardStats;
    use crate::profile::{OperatorProfile, ProfileMap};
    use crate::source::{RateSchedule, SourceSpec};
    use ds2_core::graph::GraphBuilder;
    use ds2_core::manager::{ManagerConfig, ScalingManager};
    use ds2_core::policy::PolicyConfig;
    use std::collections::BTreeMap;

    fn wordcount_engine(
        rate: f64,
        fm_cap: f64,
        cnt_cap: f64,
        init: (usize, usize),
        cfg: EngineConfig,
    ) -> (FluidEngine, OperatorId, OperatorId, OperatorId) {
        wordcount_engine_from(SourceSpec::constant(rate), fm_cap, cnt_cap, init, cfg)
    }

    fn wordcount_engine_from(
        source: SourceSpec,
        fm_cap: f64,
        cnt_cap: f64,
        init: (usize, usize),
        cfg: EngineConfig,
    ) -> (FluidEngine, OperatorId, OperatorId, OperatorId) {
        let mut b = GraphBuilder::new();
        let src = b.operator("source");
        let fm = b.operator("flat_map");
        let cnt = b.operator("count");
        b.connect(src, fm);
        b.connect(fm, cnt);
        let graph = b.build().unwrap();
        let mut profiles = ProfileMap::new();
        profiles.insert(fm, OperatorProfile::with_capacity(fm_cap, 2.0));
        profiles.insert(cnt, OperatorProfile::with_capacity(cnt_cap, 1.0));
        let mut sources = BTreeMap::new();
        sources.insert(src, source);
        let mut d = Deployment::uniform(&graph, 1);
        d.set(fm, init.0);
        d.set(cnt, init.1);
        let cfg = EngineConfig {
            instrumentation: InstrumentationConfig::disabled(),
            ..cfg
        };
        let engine = FluidEngine::new(graph, profiles, sources, d, cfg);
        (engine, src, fm, cnt)
    }

    /// End-to-end: DS2 over the harness scales an under-provisioned
    /// word count to the optimal configuration in one decision.
    #[test]
    fn ds2_scales_wordcount_in_one_decision() {
        let (engine, _src, fm, cnt) = wordcount_engine(
            1_000.0,
            100.0,
            500.0,
            (1, 1),
            EngineConfig {
                reconfig_latency_ns: 5_000_000_000,
                ..Default::default()
            },
        );
        let manager = ScalingManager::new(
            engine.graph().clone(),
            ManagerConfig {
                warmup_intervals: 1,
                ..Default::default()
            },
        );
        let mut the_loop = ClosedLoop::new(
            engine,
            manager,
            HarnessConfig {
                policy_interval_ns: 10_000_000_000,
                run_duration_ns: 120_000_000_000,
                ..Default::default()
            },
        );
        let result = the_loop.run();
        assert_eq!(result.decisions.len(), 1, "one decision expected");
        // 1000/s / 100 = 10 flat_map; 2000/s / 500 = 4 count.
        assert_eq!(result.final_deployment.parallelism(fm), 10);
        assert_eq!(result.final_deployment.parallelism(cnt), 4);
        // After convergence the job keeps up.
        assert!(result.final_achieved_ratio(20) > 0.95);
    }

    /// Scale-down: an over-provisioned job shrinks without undershooting.
    #[test]
    fn ds2_scales_down_overprovisioned() {
        let (engine, _src, fm, cnt) = wordcount_engine(
            1_000.0,
            100.0,
            500.0,
            (30, 12),
            EngineConfig {
                reconfig_latency_ns: 5_000_000_000,
                ..Default::default()
            },
        );
        let manager = ScalingManager::new(
            engine.graph().clone(),
            ManagerConfig {
                warmup_intervals: 1,
                ..Default::default()
            },
        );
        let mut the_loop = ClosedLoop::new(
            engine,
            manager,
            HarnessConfig {
                policy_interval_ns: 10_000_000_000,
                run_duration_ns: 180_000_000_000,
                ..Default::default()
            },
        );
        let result = the_loop.run();
        assert_eq!(result.final_deployment.parallelism(fm), 10);
        assert_eq!(result.final_deployment.parallelism(cnt), 4);
        assert!(result.final_achieved_ratio(20) > 0.95, "no undershoot");
    }

    /// Timely mode: the harness converts the plan into a worker count.
    #[test]
    fn ds2_timely_worker_scaling() {
        let (engine, _src, _fm, _cnt) = wordcount_engine(
            1_000.0,
            1_000.0,
            1_000.0,
            (1, 1),
            EngineConfig {
                mode: EngineMode::Timely,
                timely_workers: 1,
                reconfig_latency_ns: 5_000_000_000,
                ..Default::default()
            },
        );
        // Timely has no backpressure, so the achieved-ratio signal is always
        // 1.0: minor-change suppression must be disabled (min_change 0).
        let manager = ScalingManager::new(
            engine.graph().clone(),
            ManagerConfig {
                warmup_intervals: 1,
                min_change: 0,
                policy: PolicyConfig::default(),
                ..Default::default()
            },
        );
        let mut the_loop = ClosedLoop::new(
            engine,
            manager,
            HarnessConfig {
                policy_interval_ns: 10_000_000_000,
                run_duration_ns: 120_000_000_000,
                ..Default::default()
            },
        );
        let result = the_loop.run();
        // flat_map needs 1 worker (1000/s at 1000/s cap), count needs 2
        // (2000/s at 1000/s cap): 3 workers total.
        assert_eq!(result.final_workers, 3);
        assert!(!result.decisions.is_empty());
        assert_eq!(result.decisions[0].timely_workers, Some(3));
    }
    /// Runs DS2 over an under-provisioned word count whose converged
    /// capacity sits 3 % above the offered rate (so the backlog a rescale
    /// leaves behind drains slowly), with fast-forward on and off, and
    /// checks that both engines recorded the same latency samples and
    /// epochs.
    fn run_fast_and_exact(
        source: SourceSpec,
        cfg: EngineConfig,
        harness: HarnessConfig,
    ) -> (RunResult, RunResult, FastForwardStats) {
        let run = |fast_forward: bool| {
            let cfg = EngineConfig {
                fast_forward,
                ..cfg.clone()
            };
            let (engine, ..) = wordcount_engine_from(source.clone(), 103.0, 515.0, (1, 1), cfg);
            let manager = ScalingManager::new(
                engine.graph().clone(),
                ManagerConfig {
                    warmup_intervals: 1,
                    ..Default::default()
                },
            );
            let mut the_loop = ClosedLoop::new(engine, manager, harness.clone());
            (the_loop.run(), the_loop)
        };
        let (fast, fast_loop) = run(true);
        let (exact, exact_loop) = run(false);
        let (a, b) = (fast_loop.engine(), exact_loop.engine());
        assert_eq!(a.latency().is_empty(), !cfg.track_record_latency);
        assert_eq!(a.latency().samples(), b.latency().samples());
        assert_eq!(a.epochs().completed(), b.epochs().completed());
        (fast, exact, a.fastforward_stats())
    }

    /// A redeployment longer than the policy interval: policy ticks come
    /// due while the job is down and are skipped, so `next_policy` is stale
    /// for most of the halt and must not stop the halted stretch from
    /// replaying. The source is durable and changes rate inside the halt at
    /// a time that is not a multiple of the tick, so the replayed backlog
    /// addend has to change with it.
    #[test]
    fn long_halt_with_unaligned_rate_change_matches_exact() {
        let source = SourceSpec::durable(0.0).with_schedule(RateSchedule::steps(vec![
            (0, 1_000.0),
            (13_333_700_000, 1_400.0),
        ]));
        let (fast, exact, stats) = run_fast_and_exact(
            source,
            EngineConfig {
                reconfig_latency_ns: 12_000_000_000,
                ..Default::default()
            },
            HarnessConfig {
                policy_interval_ns: 5_000_000_000,
                run_duration_ns: 90_000_000_000,
                ..Default::default()
            },
        );
        assert_eq!(fast, exact, "fast-forward diverged from exact execution");
        let at = |t_ns: u64| fast.timeline.iter().find(|p| p.t_ns >= t_ns).unwrap();
        assert!(
            at(13_000_000_000).halted && at(15_000_000_000).halted,
            "the rate change and a policy tick must fall inside a halt: {:?}",
            fast.decisions
        );
        assert!(
            stats.halted_ticks > 1_100,
            "a 1200-tick halt should replay: {stats:?}"
        );
    }

    /// Latency-tracking engines never probe: the slow post-rescale drain
    /// that untracked Flink replays as drift runs tick by tick there, in
    /// Flink and Heron mode alike, and only the halts replay. The
    /// `RunResult`, the latency samples and the epochs equal tick-by-tick
    /// execution.
    #[test]
    fn tracked_and_heron_runs_never_drift_and_match_exact() {
        let harness = HarnessConfig {
            policy_interval_ns: 10_000_000_000,
            run_duration_ns: 150_000_000_000,
            ..Default::default()
        };
        for (mode, track) in [
            (EngineMode::Flink, false),
            (EngineMode::Flink, true),
            (EngineMode::Heron, true),
        ] {
            let cfg = EngineConfig {
                mode,
                track_record_latency: track,
                heron_per_instance_queue: 5_000.0,
                reconfig_latency_ns: 5_000_000_000,
                ..Default::default()
            };
            let (fast, exact, stats) =
                run_fast_and_exact(SourceSpec::constant(1_000.0), cfg, harness.clone());
            assert_eq!(fast, exact, "{mode:?}/{track} diverged from exact");
            assert!(
                !fast.decisions.is_empty(),
                "{mode:?}/{track} never rescaled"
            );
            if track {
                assert_eq!(stats.probes, 0, "{mode:?}: {stats:?}");
                assert!(stats.halted_ticks > 0, "{mode:?}: {stats:?}");
            } else {
                // The control: this run does have a drain to replay.
                assert!(stats.drift_ticks > 1_000, "untracked Flink: {stats:?}");
            }
        }
    }
}
