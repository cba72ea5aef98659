//! # ds2-bench — the experiment harness
//!
//! Regenerates every table and figure of the paper's evaluation (§5) on
//! the simulator substrate, plus ablations of the design choices, behind
//! one binary, `ds2-bench <subcommand>` ([`cli`]):
//!
//! | Paper result | Module | Subcommand |
//! |---|---|---|
//! | Fig. 1 (Dhalion alone) | [`experiments::heron`] | `fig1` |
//! | Fig. 6 (DS2 vs Dhalion) | [`experiments::heron`] | `fig6` |
//! | Fig. 7 (Flink dynamic) | `experiments::flink_dynamic` | `fig7` |
//! | Table 4 (convergence) | [`experiments::table4`] | `table4` |
//! | Fig. 8 (Flink accuracy) | `experiments::accuracy` | `fig8` |
//! | Fig. 9 (Timely accuracy) | `experiments::accuracy` | `fig9` |
//! | Fig. 10 (overhead) | `experiments::overhead` | `fig10` |
//! | §4.2.3 (skew) | `experiments::skew` | `skew` |
//! | ablations | `experiments::ablations` | `ablations` |
//! | scenario matrix | `ds2_simulator::scenarios` | `matrix` |
//!
//! Each experiment prints the paper-style rows and writes CSV series under
//! `results/` (override with `DS2_RESULTS_DIR`). `ds2-bench all` executes
//! the whole suite.

#![forbid(unsafe_code)]
#![warn(unnameable_types)]
#![warn(missing_docs)]

pub mod cli;
pub mod experiments;
pub(crate) mod output;
pub(crate) mod runners;
pub(crate) mod wordcount;
