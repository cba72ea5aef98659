//! # ds2-runtime — a real threaded mini streaming engine under DS2 control
//!
//! The simulator (`ds2-simulator`) reproduces the paper's experiments at
//! paper-scale rates in virtual time. This crate complements it with a
//! *real* engine in miniature: operator instances are OS threads, channels
//! are bounded crossbeam queues (blocking on empty input / full output,
//! exactly the Flink behaviour §3.2 describes), records are hash-partitioned
//! by key, instrumentation uses the lock-free §4.1 counters over wall-clock
//! time, and rescaling is stop-the-world with keyed state migration.
//!
//! It exists to demonstrate — and test — the controller end to end against
//! genuine measurements rather than modelled ones, at laptop-scale rates.
//!
//! Workers are supervised (panics are contained, reported as typed events,
//! and healed by bounded restarts), keyed state is periodically
//! checkpointed so even instances that die without salvage recover their
//! key range, and a deterministic chaos layer injects crashes and wedges to
//! prove it — the live counterpart of the simulator's fault model.
//!
//! * `logic` — the operator `Logic` trait plus adapters;
//! * `job` — job specification (graph + code + rates);
//! * `engine` — deployment, execution, rescaling, metrics collection;
//! * `control` — the self-healing control loop driving any
//!   `ScalingController`;
//! * `supervisor` — restart budgets, backoff, wedge detection;
//! * [`checkpoint`] — in-memory savepoints with per-instance key slices;
//! * `chaos` — seeded fault injection for the runtime.

#![forbid(unsafe_code)]
#![warn(unnameable_types)]
#![warn(missing_docs)]

pub(crate) mod chaos;
pub mod checkpoint;
pub(crate) mod control;
pub(crate) mod engine;
pub(crate) mod job;
pub(crate) mod logic;
pub(crate) mod supervisor;

pub use chaos::{ChaosEvent, ChaosSpec};
pub use checkpoint::{partition_state, CheckpointStats, CheckpointStore};
pub use control::{run_control_loop, ControlConfig, ControlEvent};
pub use engine::{HealOutcome, RunningJob};
pub use job::{JobSpec, OperatorSpec, SourceOpSpec};
pub use logic::{CostedLogic, FnLogic, Logic, StateEntry, StateValue};
pub use supervisor::SupervisionConfig;
