//! Simulator setups for the Nexmark queries: each query's one plan
//! ([`QueryId::plan`], shared with the scenario matrix), cost profiles and
//! Table 3 source rates, calibrated so that the optimal main-operator
//! parallelism at the paper's rates matches the paper's reported
//! configurations (Table 4 / Figure 8 for Flink, Figure 9 for Timely).
//!
//! ## Calibration scheme
//!
//! The main operator's per-instance capacity at the optimal parallelism
//! `p*` is set to `rate / (p* - margin)` ([`safety_margin`]), so Eq. 7
//! lands exactly on `p*` with a small safety margin. Its instrumented cost
//! follows a [`ScalingCurve::Sigmoid`] (overhead step around `0.6 p*`, the
//! machine-boundary knee), which reproduces the paper's §5.4 behaviour:
//! one step when starting near the optimum, two to three steps from
//! far-below starts, and a single step from over-provisioned starts (the
//! curve is flat above the knee, so the fixed point is unique from above).
//! A small *hidden* (uninstrumented) per-record overhead exercises the
//! target-rate-ratio machinery without flipping the optimum.

use std::collections::BTreeMap;

use ds2_core::graph::{LogicalGraph, OperatorId};
use ds2_simulator::profile::{OperatorProfile, ProfileMap, ScalingCurve};
use ds2_simulator::scenarios::nexmark::{safety_margin, QueryPlan};
use ds2_simulator::source::SourceSpec;

pub use ds2_simulator::scenarios::NexmarkQuery as QueryId;

/// Reference system the setup targets (Table 3 has separate rate columns).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Target {
    /// Apache Flink: per-operator parallelism, ≤36 slots.
    Flink,
    /// Timely Dataflow: global worker pool.
    Timely,
}

/// A ready-to-run simulator scenario for one query.
#[derive(Debug)]
pub struct QuerySetup {
    /// Query identifier.
    pub query: QueryId,
    /// The logical dataflow.
    pub graph: LogicalGraph,
    /// Cost profiles per non-source operator.
    pub profiles: ProfileMap,
    /// Source specs (Table 3 rates).
    pub sources: BTreeMap<OperatorId, SourceSpec>,
    /// The operator whose parallelism the paper reports.
    pub main_operator: OperatorId,
    /// The paper's reported optimal parallelism for the main operator
    /// (Flink) or total workers (Timely).
    pub expected: usize,
}

/// Asymptotic overhead fraction of the main-operator sigmoid curve.
const ALPHA: f64 = 0.35;

/// Hidden (uninstrumented) overhead as a fraction of instrumented cost.
const HIDDEN_FRACTION: f64 = 0.015;

/// Table 3 — target source rates (records/s) of `query` on `target`, one
/// per feed in plan order.
pub(crate) fn table3_rates(query: QueryId, target: Target) -> &'static [f64] {
    match (query, target) {
        (QueryId::Q1 | QueryId::Q2, Target::Flink) => &[4_000_000.0],
        (QueryId::Q1 | QueryId::Q2, Target::Timely) => &[5_000_000.0],
        (QueryId::Q3, Target::Flink) => &[500_000.0, 100_000.0],
        (QueryId::Q3, Target::Timely) => &[3_000_000.0, 800_000.0],
        (QueryId::Q5, Target::Flink) => &[500_000.0],
        (QueryId::Q5, Target::Timely) => &[2_000_000.0],
        (QueryId::Q8, Target::Flink) => &[420_000.0, 120_000.0],
        (QueryId::Q8, Target::Timely) => &[4_000_000.0, 4_000_000.0],
        (QueryId::Q11, Target::Flink) => &[1_000_000.0],
        (QueryId::Q11, Target::Timely) => &[9_000_000.0],
    }
}

/// The paper's indicated optimal total workers on Timely (Fig. 9): 4 for
/// every query.
pub const EXPECTED_TIMELY_WORKERS: usize = 4;

/// Main-operator profile calibrated for optimal parallelism `p_star` at
/// aggregate input `rate`.
fn main_profile(rate: f64, p_star: usize, selectivity: f64) -> OperatorProfile {
    let p = p_star as f64;
    let curve = ScalingCurve::Sigmoid {
        alpha: ALPHA,
        knee: 0.6 * p,
        width: (0.075 * p).max(0.5),
    };
    let cap_at_star = rate / (p - safety_margin(p_star));
    let cost_at_star = 1e9 / cap_at_star;
    let base_cost = cost_at_star / curve.multiplier(p_star);
    OperatorProfile::simple(base_cost, selectivity)
        .with_scaling(curve)
        .with_hidden(base_cost * HIDDEN_FRACTION, ScalingCurve::Linear)
}

/// Builds the simulator setup for `query` on `target` at Table 3 rates.
pub fn setup(query: QueryId, target: Target) -> QuerySetup {
    let QueryPlan { graph, ids, main } = query.plan();
    let rates = table3_rates(query, target);
    let (feeds, operators) = ids.split_at(rates.len());
    let mut profiles = ProfileMap::new();
    let (expected, window_ns) = match target {
        Target::Flink => {
            let p_star = query.reference_parallelism();
            let rate = query.main_input_fraction() * rates.iter().sum::<f64>();
            profiles.insert(main, main_profile(rate, p_star, query.main_selectivity()));
            // Light supporting operators with linear scaling: per-instance
            // capacity (records/s) of the sink, or of Q3's two filters.
            let (capacities, selectivity): (&[f64], f64) = match query {
                QueryId::Q1 => (&[rates[0] / 6.0], 0.0),
                QueryId::Q2 => (&[50_000.0], 0.0),
                QueryId::Q3 => (
                    &[rates[0] / 3.0, rates[1] / 1.5],
                    QueryId::Q3_FILTER_SELECTIVITY,
                ),
                QueryId::Q5 => (&[20_000.0], 0.0),
                QueryId::Q8 => (&[], 0.0),
                QueryId::Q11 => (&[10_000.0], 0.0),
            };
            let support = operators.iter().filter(|&&op| op != main);
            for (&op, &capacity) in support.zip(capacities) {
                profiles.insert(op, OperatorProfile::with_capacity(capacity, selectivity));
            }
            let window_ns = match query {
                QueryId::Q5 => Some(2_000_000_000),
                QueryId::Q8 | QueryId::Q11 => Some(1_000_000_000),
                _ => None,
            };
            (p_star, window_ns)
        }
        Target::Timely => {
            // Timely per-record costs are far lower than the JVM engine's;
            // the worker demands below are calibrated so the per-operator
            // requirements sum to 4 (Fig. 9: optimal p = 4 for every
            // query). Per operator in plan order: (µs/record, selectivity).
            let (costs, window_ns): (&[(f64, f64)], _) = match query {
                // 5M/s × 0.52 µs = 2.6 workers -> 3; sink 5M × 0.14 µs = 0.7 -> 1.
                QueryId::Q1 => (&[(0.52, 1.0), (0.14, 0.0)], None),
                // 5M × 0.52 µs = 2.6 -> 3; sink: 0.5M × 1.0 µs = 0.5 -> 1.
                QueryId::Q2 => (&[(0.52, 0.1), (1.0, 0.0)], None),
                // fa: 3M × 0.266 µs = 0.8 -> 1; fp: 0.8M × 0.625 µs = 0.5 -> 1;
                // join: 0.25×(3M + 0.8M) = 950K × 1.79 µs = 1.7 -> 2. Σ = 4.
                QueryId::Q3 => (&[(0.266, 0.25), (0.625, 0.25), (1.79, 0.2)], None),
                // win: 2M × 1.3 µs = 2.6 -> 3; sink: 20K × 40 µs = 0.8 -> 1.
                QueryId::Q5 => (&[(1.3, 0.01), (40.0, 0.0)], Some(900_000_000)),
                // 8M × 0.45 µs = 3.6 -> 4. Σ = 4.
                QueryId::Q8 => (&[(0.45, 0.05)], Some(900_000_000)),
                // sess: 9M × 0.3 µs = 2.7 -> 3; sink: 180K × 2.8 µs = 0.5 -> 1.
                QueryId::Q11 => (&[(0.3, 0.02), (2.8, 0.0)], Some(450_000_000)),
            };
            for (&op, &(cost_us, selectivity)) in operators.iter().zip(costs) {
                profiles.insert(op, OperatorProfile::simple(cost_us * 1_000.0, selectivity));
            }
            (EXPECTED_TIMELY_WORKERS, window_ns)
        }
    };
    if let Some(period_ns) = window_ns {
        let windowed = profiles[&main].clone().windowed(period_ns);
        profiles.insert(main, windowed);
    }
    QuerySetup {
        query,
        graph,
        profiles,
        sources: feeds
            .iter()
            .zip(rates)
            .map(|(&src, &rate)| (src, SourceSpec::constant(rate)))
            .collect(),
        main_operator: main,
        expected,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_flink_setups_build() {
        for q in QueryId::ALL {
            let s = setup(q, Target::Flink);
            assert_eq!(s.query, q);
            assert!(!s.graph.is_source(s.main_operator));
            assert!(s.profiles.contains_key(&s.main_operator));
            for src in s.graph.sources() {
                assert!(s.sources.contains_key(src), "{q:?} missing source spec");
            }
            assert_eq!(s.expected, q.reference_parallelism());
        }
    }

    #[test]
    fn all_timely_setups_build() {
        for q in QueryId::ALL {
            let s = setup(q, Target::Timely);
            assert_eq!(s.expected, EXPECTED_TIMELY_WORKERS);
        }
    }

    /// Every setup, graph, profiles and rates included, pinned bit for bit:
    /// `Debug` prints each f64 in shortest round-trip form and the setup
    /// holds only ordered maps, so the FNV-1a hash of the `Debug` form
    /// changes whenever any calibrated number does.
    #[test]
    fn setups_are_pinned_bit_for_bit() {
        let pinned: [(QueryId, Target, u64); 12] = [
            (QueryId::Q1, Target::Flink, 0xfb35_f990_5912_dae6),
            (QueryId::Q2, Target::Flink, 0xfa6d_390d_5c70_d589),
            (QueryId::Q3, Target::Flink, 0x37e4_9042_c770_e33f),
            (QueryId::Q5, Target::Flink, 0xb59c_744b_9b0a_4577),
            (QueryId::Q8, Target::Flink, 0x251e_0ed8_2627_60d9),
            (QueryId::Q11, Target::Flink, 0xd0d2_49a3_4c65_34f8),
            (QueryId::Q1, Target::Timely, 0x2975_c2fe_d215_869c),
            (QueryId::Q2, Target::Timely, 0x12d2_fa1c_cbae_1313),
            (QueryId::Q3, Target::Timely, 0x0faa_3f09_3c12_1f10),
            (QueryId::Q5, Target::Timely, 0x65ed_970a_7193_d543),
            (QueryId::Q8, Target::Timely, 0xaa64_7207_fe6f_1101),
            (QueryId::Q11, Target::Timely, 0x5df6_7206_017a_7bf1),
        ];
        for (q, t, expected) in pinned {
            let hash = format!("{:?}", setup(q, t))
                .bytes()
                .fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
                    (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
                });
            assert_eq!(hash, expected, "{q:?} on {t:?}: {hash:#018x}");
        }
    }

    /// The calibration invariant: at the paper's rate, the main operator's
    /// measured capacity at `p*` instances yields requirement exactly `p*`,
    /// and one fewer instance would not suffice.
    #[test]
    fn flink_main_operator_calibration() {
        for q in QueryId::ALL {
            let s = setup(q, Target::Flink);
            let p_star = s.expected;
            let profile = &s.profiles[&s.main_operator];
            // Aggregate input rate at the main operator under optimal
            // upstream provisioning.
            let target: f64 = s
                .graph
                .upstream_edges(s.main_operator)
                .map(|e| {
                    let up = e.from;
                    if s.graph.is_source(up) {
                        s.sources[&up].schedule.rate_at(0)
                    } else {
                        let sel = s.profiles[&up].output.average_selectivity();
                        let src = s.graph.upstream(up)[0];
                        sel * s.sources[&src].schedule.rate_at(0)
                    }
                })
                .sum();
            let cap = profile.measured_capacity(p_star);
            let req = (target / cap - 1e-9).ceil() as usize;
            assert_eq!(req, p_star, "{q:?}: requirement {req} != {p_star}");
            assert!(
                cap * (p_star as f64 - 1.0) < target,
                "{q:?}: p*-1 must not suffice"
            );
            // Real capacity (with hidden overhead) still sustains the rate.
            assert!(
                profile.real_capacity(p_star) * p_star as f64 >= target,
                "{q:?}: hidden overhead must not break the optimum"
            );
        }
    }

    /// Timely calibration: per-operator worker demands sum to 4.
    #[test]
    fn timely_worker_sum_is_four() {
        for q in QueryId::ALL {
            let s = setup(q, Target::Timely);
            // Compute each operator's demand: input rate × cost.
            let mut out_rate: BTreeMap<OperatorId, f64> = BTreeMap::new();
            let mut total = 0usize;
            for op in s.graph.topological_order() {
                if s.graph.is_source(op) {
                    out_rate.insert(op, s.sources[&op].schedule.rate_at(0));
                    continue;
                }
                let input: f64 = s
                    .graph
                    .upstream_edges(op)
                    .map(|e| out_rate[&e.from] * e.weight)
                    .sum();
                let profile = &s.profiles[&op];
                let demand = input / profile.measured_capacity(1);
                total += demand.ceil() as usize;
                out_rate.insert(op, input * profile.output.average_selectivity());
            }
            assert_eq!(total, 4, "{q:?}: worker demand should sum to 4");
        }
    }

    #[test]
    fn windowed_mains_are_windowed() {
        for q in [QueryId::Q5, QueryId::Q8, QueryId::Q11] {
            let s = setup(q, Target::Flink);
            let profile = &s.profiles[&s.main_operator];
            assert!(
                matches!(
                    profile.output,
                    ds2_simulator::profile::OutputMode::Windowed { .. }
                ),
                "{q:?} main operator must be windowed"
            );
        }
    }
}
