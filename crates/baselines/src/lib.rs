//! # ds2-baselines — the scaling controllers DS2 is compared against
//!
//! Re-implementations of the controller families from the paper's Table 1,
//! all behind the same [`ScalingController`](ds2_core::controller)
//! interface as DS2 so the experiment harness can swap them freely:
//!
//! * [`dhalion`] — the rule-based, single-operator-per-step Dhalion
//!   resolver with blacklisting (Heron's state of the art; Figures 1 & 6);
//! * [`threshold`] — CPU-utilization threshold scaling
//!   (StreamCloud/Seep-style);
//! * [`queueing`] — M/M/c queueing-theory provisioning
//!   (Nephele/DRS-style).

#![forbid(unsafe_code)]
#![warn(unnameable_types)]
#![warn(missing_docs)]

pub mod dhalion;
pub mod queueing;
pub mod threshold;

pub use dhalion::{DhalionConfig, DhalionController};
pub use queueing::{QueueingConfig, QueueingController};
pub use threshold::{ThresholdConfig, ThresholdController};
