//! One module per paper table/figure, plus ablations.
//!
//! Each module exposes a `run`-style function taking a simulated duration
//! and returning structured results plus a printable report, so the
//! `ds2-bench` subcommands and the integration tests share the same code
//! paths (tests use shortened durations).

pub(crate) mod ablations;
pub(crate) mod accuracy;
pub(crate) mod flink_dynamic;
pub mod heron;
pub(crate) mod overhead;
pub(crate) mod skew;
pub mod table4;
