//! # ds2-core — the DS2 scaling model and controller
//!
//! This crate implements the core contribution of *"Three steps is all you
//! need: fast, accurate, automatic scaling decisions for distributed
//! streaming dataflows"* (Kalavri et al., OSDI 2018):
//!
//! * the **performance model** of §3.2 — *useful time*, *true* vs *observed*
//!   processing/output rates of operator instances ([`rates`]);
//! * the **scaling policy** of Eq. 7–8 — optimal parallelism for *every*
//!   operator of a dataflow in a single topological traversal ([`policy`]);
//! * the **Scaling Manager** of §4.2 — policy interval, warm-up, activation
//!   time, target-rate ratio, minor-change suppression, rollback and
//!   decision limiting ([`manager`]) — and a wrapper that hardens it against
//!   faulty telemetry and lost rescales ([`hardened`]);
//! * the engine-agnostic **controller interface** shared with the baseline
//!   controllers ([`controller`]).
//!
//! The model is mechanism-agnostic: anything able to report, per operator
//! instance and time window, the records pulled/pushed and the useful time
//! (deserialization + processing + serialization) can be controlled by DS2.
//!
//! ## Quick start
//!
//! ```
//! use ds2_core::prelude::*;
//!
//! // Logical dataflow: source -> flat_map -> count.
//! let mut b = GraphBuilder::new();
//! let src = b.operator("source");
//! let fm = b.operator("flat_map");
//! let cnt = b.operator("count");
//! b.connect(src, fm);
//! b.connect(fm, cnt);
//! let graph = b.build().unwrap();
//!
//! // One window of instrumentation: the source offers 1000 rec/s; each
//! // flat_map instance can truly process 100 rec/s, emitting 2 records per
//! // input; each count instance can truly process 150 rec/s.
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
//! let current = Deployment::uniform(&graph, 1);
//! let mut ws = PolicyWorkspace::new();
//! let out = Ds2Policy::new()
//!     .evaluate_into(&graph, &snap, &current, &mut ws)
//!     .unwrap();
//! assert_eq!(out.plan.parallelism(fm), 10); // 1000 / 100
//! assert_eq!(out.plan.parallelism(cnt), 14); // 2000 / 150, ceiled
//! ```

#![forbid(unsafe_code)]
#![warn(unnameable_types)]
#![warn(missing_docs)]

pub mod controller;
pub mod deployment;
pub mod error;
pub mod graph;
pub mod hardened;
pub mod manager;
pub mod opmap;
pub mod policy;
pub mod rates;
pub mod snapshot;

/// Convenient re-exports of the most used types.
pub mod prelude {
    pub use crate::controller::{ControllerFaultStats, ControllerVerdict, ScalingController};
    pub use crate::deployment::{Deployment, ResourceAlloc};
    pub use crate::error::Ds2Error;
    pub use crate::graph::{Edge, GraphBuilder, LogicalGraph, OperatorId};
    pub use crate::manager::{ManagerConfig, ScalingManager};
    pub use crate::opmap::{OpMap, OpSet};
    pub use crate::policy::{
        Ds2Policy, OperatorEstimate, PolicyConfig, PolicyOutput, PolicyWorkspace, SplitHint,
    };
    pub use crate::rates::{InstanceMetrics, OperatorMetrics};
    pub use crate::snapshot::MetricsSnapshot;
}

pub use prelude::*;
