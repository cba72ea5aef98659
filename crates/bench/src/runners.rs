//! Shared experiment plumbing: canonical manager configurations and
//! closed-loop runners.

use ds2_core::manager::{ManagerConfig, ScalingManager};
use ds2_core::policy::PolicyConfig;
use ds2_simulator::engine::FluidEngine;
use ds2_simulator::harness::{ClosedLoop, HarnessConfig, RunResult};

use ds2_core::controller::ScalingController;

/// The §5.2 Heron settings: 60 s decision interval, no warm-up, one
/// interval activation, 1.0 target ratio.
pub(crate) fn heron_manager_config() -> ManagerConfig {
    ManagerConfig {
        policy_interval_ns: 60_000_000_000,
        warmup_intervals: 0,
        activation_intervals: 1,
        target_rate_ratio: 1.0,
        min_change: 1,
        policy: PolicyConfig {
            max_parallelism: Some(64),
            ..Default::default()
        },
        ..Default::default()
    }
}

/// The §5.3 Flink settings: 10 s decision interval, 30 s warm-up (three
/// intervals), one interval activation, 1.0 target ratio.
pub(crate) fn flink_dynamic_manager_config() -> ManagerConfig {
    ManagerConfig {
        policy_interval_ns: 10_000_000_000,
        warmup_intervals: 3,
        activation_intervals: 1,
        target_rate_ratio: 1.0,
        min_change: 1,
        policy: PolicyConfig {
            max_parallelism: Some(36),
            ..Default::default()
        },
        ..Default::default()
    }
}

/// The §5.4 convergence settings: 30 s decision interval, 30 s warm-up
/// (one interval), 1.0 target ratio.
pub(crate) fn convergence_manager_config() -> ManagerConfig {
    ManagerConfig {
        policy_interval_ns: 30_000_000_000,
        warmup_intervals: 1,
        activation_intervals: 1,
        target_rate_ratio: 1.0,
        min_change: 1,
        policy: PolicyConfig {
            max_parallelism: Some(36),
            ..Default::default()
        },
        ..Default::default()
    }
}

/// Runs DS2 (the Scaling Manager) against an engine.
pub(crate) fn run_ds2(
    engine: FluidEngine,
    manager_config: ManagerConfig,
    duration_ns: u64,
) -> RunResult {
    let interval = manager_config.policy_interval_ns;
    let manager = ScalingManager::new(engine.graph().clone(), manager_config);
    run_controller(engine, manager, interval, duration_ns)
}

/// Runs an arbitrary controller against an engine.
pub(crate) fn run_controller<C: ScalingController>(
    engine: FluidEngine,
    controller: C,
    interval_ns: u64,
    duration_ns: u64,
) -> RunResult {
    let mut the_loop = ClosedLoop::new(
        engine,
        controller,
        HarnessConfig {
            policy_interval_ns: interval_ns,
            run_duration_ns: duration_ns,
            faults: None,
        },
    );
    the_loop.run()
}
