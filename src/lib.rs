//! # DS2 — fast, accurate, automatic scaling decisions for distributed
//! # streaming dataflows
//!
//! A comprehensive Rust reproduction of *"Three steps is all you need:
//! fast, accurate, automatic scaling decisions for distributed streaming
//! dataflows"* (Kalavri et al., OSDI 2018), including every substrate the
//! evaluation depends on.
//!
//! ## Crates
//!
//! * [`core`] — the DS2 model and controller: true rates, the
//!   Eq. 7–8 policy, and the Scaling Manager;
//! * [`metrics`] — §4.1 instrumentation: per-instance
//!   counters;
//! * [`simulator`] — a deterministic fluid queueing
//!   simulation of the Flink / Heron / Timely execution models;
//! * [`nexmark`] — the Nexmark workload: generator, the six
//!   evaluated queries, calibrated simulator profiles;
//! * [`runtime`] — a real threaded mini streaming engine under
//!   live DS2 control;
//! * [`baselines`] — Dhalion-style, threshold, and
//!   queueing-theory controllers.
//!
//! ## Quick start
//!
//! ```
//! use ds2::prelude::*;
//!
//! // A word-count dataflow.
//! let mut b = GraphBuilder::new();
//! let src = b.operator("source");
//! let fm = b.operator("flat_map");
//! let cnt = b.operator("count");
//! b.connect(src, fm);
//! b.connect(fm, cnt);
//! let graph = b.build().unwrap();
//!
//! // Instrumentation for one window: flat_map can truly process 100 rec/s
//! // per instance (selectivity 2), count 150 rec/s; the source offers
//! // 1000 rec/s.
//! let mut snap = MetricsSnapshot::new();
//! snap.set_source_rate(src, 1000.0);
//! snap.insert_instances(src, vec![InstanceMetrics {
//!     records_out: 250, useful_ns: 250_000_000, window_ns: 1_000_000_000,
//!     ..Default::default()
//! }]);
//! snap.insert_instances(fm, vec![InstanceMetrics {
//!     records_in: 100, records_out: 200,
//!     useful_ns: 1_000_000_000, window_ns: 1_000_000_000,
//!     ..Default::default()
//! }]);
//! snap.insert_instances(cnt, vec![InstanceMetrics {
//!     records_in: 150, records_out: 150,
//!     useful_ns: 1_000_000_000, window_ns: 1_000_000_000,
//!     ..Default::default()
//! }]);
//!
//! // One traversal gives the optimal parallelism for every operator.
//! let mut ws = PolicyWorkspace::new();
//! let out = Ds2Policy::new()
//!     .evaluate_into(&graph, &snap, &Deployment::uniform(&graph, 1), &mut ws)
//!     .unwrap();
//! assert_eq!(out.plan.parallelism(fm), 10);
//! assert_eq!(out.plan.parallelism(cnt), 14);
//! ```

#![forbid(unsafe_code)]

pub use ds2_baselines as baselines;
pub use ds2_core as core;
pub use ds2_metrics as metrics;
pub use ds2_nexmark as nexmark;
pub use ds2_runtime as runtime;
pub use ds2_simulator as simulator;

/// The most used types across the workspace.
pub mod prelude {
    pub use ds2_baselines::{DhalionController, QueueingController, ThresholdController};
    pub use ds2_core::prelude::*;
    pub use ds2_metrics::SharedCounters;
    pub use ds2_nexmark::{EventGenerator, QueryId, Target};
    pub use ds2_simulator::{
        ClosedLoop, EngineConfig, EngineMode, FluidEngine, HarnessConfig, OperatorProfile,
        RateSchedule, SourceSpec,
    };
}
