//! # ds2-metrics — instrumentation substrate for DS2 (paper §4.1)
//!
//! DS2 requires the stream processor to periodically report, per operator
//! instance: records processed, records produced, and useful time
//! (serialization + deserialization + processing, measured as one timed
//! span) or, equivalently, waiting time. This crate provides that machinery:
//!
//! * [`counters`] — lock-free per-instance counters
//!   ([`counters::SharedCounters`]) and their windowed readings.
//!
//! Gathering and reporting in intervals — the paper's metrics manager and
//! repository (Fig. 5) — is the engine's `collect_snapshot_into` feeding the
//! Scaling Manager directly.

#![forbid(unsafe_code)]
#![warn(unnameable_types)]
#![warn(missing_docs)]

pub mod counters;

pub use counters::{CounterTotals, SharedCounters};
