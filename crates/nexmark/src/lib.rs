//! # ds2-nexmark — the Nexmark benchmark suite for DS2
//!
//! The paper evaluates DS2 on six queries from the Nexmark suite (§5.1):
//! stateless transformations (Q1 map, Q2 filter), a stateful incremental
//! two-input join (Q3), and window operators (Q5 sliding, Q8 tumbling
//! join, Q11 session). This crate provides:
//!
//! * [`model`] — the Person/Auction/Bid event model;
//! * [`generator`] — a deterministic event generator with Beam's 1:3:46
//!   person:auction:bid proportions and hot-key biases;
//! * [`queries`] — executable operator logic for all six queries: state
//!   machines checked by the correctness tests, not yet run on
//!   `ds2-runtime`;
//! * [`profiles`] — calibrated simulator setups, built from the scenario
//!   matrix's one plan per query, reproducing the paper's Table 3 rates
//!   and Table 4 / Figures 8–9 optimal configurations.

#![forbid(unsafe_code)]
#![warn(unnameable_types)]
#![warn(missing_docs)]

pub mod generator;
pub mod model;
pub mod profiles;
pub mod queries;

pub use generator::{EventGenerator, GeneratorConfig};
pub use model::{Auction, Bid, Event, Person};
pub use profiles::{setup, QueryId, QuerySetup, Target};
