//! # ds2-simulator — deterministic streaming-engine simulation
//!
//! The DS2 paper evaluates its controller against three real stream
//! processors (Apache Flink, Apache Heron, Timely Dataflow) on a cluster.
//! This crate substitutes those engines with a deterministic, virtual-time
//! *fluid queueing simulation* that reproduces every observable DS2 and the
//! baseline controllers consume: observed/true rates, useful vs. waiting
//! time, backpressure, queue growth, record latency, epoch latency, and
//! stop-the-world rescaling.
//!
//! * [`profile`] — per-operator cost models (instrumented cost, hidden
//!   overhead, sub-linear scaling curves, skew, windowed output);
//! * [`queue`] — FIFO fluid queues stamped with source emission intervals;
//! * [`source`] — offered-rate schedules and source specs;
//! * [`engine`] — the fluid engine with Flink/Heron/Timely personalities;
//! * [`fastforward`] — macro-tick steady-state detection and exact replay
//!   (the engine skips provably identical ticks between workload phases
//!   and control decisions);
//! * [`latency`] — record-latency and epoch-latency accounting;
//! * [`harness`] — the closed control loop driving any
//!   [`ScalingController`](ds2_core::controller::ScalingController) against
//!   the engine;
//! * [`faults`] — deterministic, seeded fault injection (degraded metric
//!   snapshots, failed/partial/timed-out rescales) layered onto the loop;
//! * [`scenarios`] — seeded random scenario generation (topologies,
//!   workloads, profiles) and the scenario-matrix runner scoring
//!   steps-to-convergence, provisioning accuracy and stability for DS2 and
//!   every baseline controller.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod fastforward;
pub mod faults;
pub mod harness;
pub mod latency;
pub mod profile;
pub mod queue;
pub mod scenarios;
pub mod source;

pub use engine::{
    EngineConfig, EngineMode, FluidEngine, InstrumentationConfig, TickEvents, TickStats,
};
pub use fastforward::FastForwardStats;
pub use faults::{
    ActuationOutcome, FaultInjector, FaultParams, FaultPlan, FaultProfile, FaultTally,
};
pub use harness::{ClosedLoop, HarnessConfig, RunResult, TimelinePoint};
pub use latency::{EpochTracker, LatencyRecorder};
pub use profile::{OperatorProfile, OutputMode, ProfileMap, ScalingCurve};
pub use queue::{EpochQueue, Span};
pub use scenarios::{
    ControllerKind, GeneratorConfig, MatrixConfig, MatrixReport, ScenarioMatrix, ScenarioSpec,
    TopologyShape, WorkloadShape,
};
pub use source::{RateSchedule, SourceSpec};
