//! Scenario matrix: seeded generation of random dataflow scenarios and a
//! runner that drives every controller over every scenario.
//!
//! The paper's headline claim — convergence to the optimal parallelism in
//! at most **three scaling steps** — is easy to demonstrate on a
//! hand-picked word count and easy to break on an adversarial topology.
//! This module makes the claim falsifiable at scale:
//!
//! * [`topology`] — random DAG shapes (chains, diamonds, fan-in/fan-out,
//!   layered, multi-source ingestion) of 2–12 operators;
//! * [`workload`] — offered-rate shapes (constant, step, diurnal sine,
//!   spike, sawtooth ramp cycles, flash crowds) plus hot-key skew, alone
//!   and correlated with a rate spike;
//! * [`generator`] — seeded assembly of complete scenarios with analytic
//!   ground-truth optimal parallelism;
//! * [`nexmark`] — the paper's real query dataflows (Nexmark Q1/Q2/Q3/Q5/
//!   Q8/Q11, §5.1) lowered into matrix scenarios: windowed mains, keyed
//!   hot-key classes, multi-feed ingestion at Table 3 rate ratios;
//! * [`matrix`] — the cross-product runner scoring steps-to-convergence,
//!   over/under-provisioning and SASO-style stability for DS2 and each
//!   baseline controller, sharded over worker threads with bit-identical
//!   results for any thread count, reported overall and per family.
//!
//! Everything is a pure function of the seed: scenario `i` of a matrix
//! uses seed `base_seed + i`, each cell's engine RNG derives from that
//! seed, and a failing scenario is reported as its seed and regenerates
//! bit-for-bit.
//!
//! ```
//! use ds2_simulator::scenarios::{
//!     ControllerKind, GeneratorConfig, MatrixConfig, ScenarioMatrix,
//! };
//!
//! let report = ScenarioMatrix::new(MatrixConfig {
//!     scenarios: 2,
//!     controllers: vec![ControllerKind::Ds2],
//!     generator: GeneratorConfig {
//!         operators: (2, 4),
//!         run_duration_ns: 120_000_000_000,
//!         ..Default::default()
//!     },
//!     ..Default::default()
//! })
//! .run();
//! assert_eq!(report.outcomes.len(), 2);
//! let summary = report.summary(ControllerKind::Ds2);
//! assert_eq!(summary.runs, 2);
//! ```

pub mod generator;
pub mod matrix;
pub mod nexmark;
pub mod topology;
pub mod workload;

pub use crate::faults::FaultProfile;
pub use generator::{GeneratorConfig, ScenarioSpec};
pub use matrix::{
    CellArena, ControllerKind, ControllerSummary, MatrixConfig, MatrixReport, ScenarioMatrix,
    ScenarioOutcome,
};
pub use nexmark::{NexmarkQuery, ScenarioFamily};
pub use topology::{Topology, TopologyShape};
pub use workload::{Workload, WorkloadShape};
