//! The Nexmark scenario family: the paper's real query dataflows lowered
//! into matrix scenarios.
//!
//! DS2's headline evaluation (§5/§6) is not synthetic DAGs — it is Nexmark
//! queries on Flink. This module lowers each evaluated query (Q1, Q2, Q3,
//! Q5, Q8, Q11) into the same substrate the synthetic families use — a
//! [`Topology`], per-operator [`OperatorProfile`]s and per-source
//! [`SourceSpec`](crate::source::SourceSpec)s with an analytic ground-truth optimum — so the
//! 5000-scenario convergence matrix can score steps-to-convergence and
//! provisioning accuracy on the paper's own workloads.
//!
//! ## Lowering rules
//!
//! * **Topology** is the query's one plan, [`NexmarkQuery::plan`], which
//!   `ds2-nexmark`'s Flink and Timely setups build from too. Single-input
//!   queries are `chain`-shaped; Q3/Q8 ingest two feeds (auctions +
//!   persons) and are labelled `multi_source`.
//! * **Workload**: the scenario draws one of the matrix workload shapes
//!   (constant, step, spike, …) for the *total* offered rate; multi-source
//!   queries split every phase of the schedule across their feeds at the
//!   paper's Table 3 rate ratios (Q3 auctions:persons = 5:1, Q8 = 7:2).
//! * **Main operator**: calibrated like `ds2-nexmark::profiles` — a
//!   sigmoid scaling curve (machine-boundary knee at `0.6 p*`) plus a
//!   small hidden overhead, sized so the analytic optimum at the
//!   workload's final rate lands on `p*`, a seed-drawn scaling of the
//!   paper's reported parallelism ([`NexmarkQuery::reference_parallelism`]).
//! * **Windows**: Q5 (hopping), Q8 (tumbling) and Q11 (session) mains use
//!   [`OutputMode::Windowed`](crate::profile::OutputMode::Windowed) with a
//!   seed-drawn period that divides the matrix's 10 s policy interval and
//!   is a whole number of its 25 ms ticks, so these scenarios fast-forward
//!   by whole window cycles ([`crate::fastforward`]).
//! * **Skew**: keyed mains (Q3 seller join, Q5 per-auction counts, Q8
//!   person join, Q11 per-bidder sessions) accept the workload's hot-key
//!   fraction as a two-class partition (hot instance + uniform rest);
//!   stateless Q1/Q2 ignore it, as rebalancing makes skew a non-event.
//!
//! Everything is a pure function of the scenario seed, exactly like the
//! synthetic generator: a failing nexmark scenario is reported as its seed
//! and family and regenerates bit-for-bit.

use ds2_core::graph::{GraphBuilder, LogicalGraph, OperatorId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::profile::{OperatorProfile, ProfileMap, ScalingCurve};

use super::generator::{initial_deployment, GeneratorConfig, ScenarioSpec};
use super::topology::{Topology, TopologyShape};
use super::workload::{Workload, WorkloadShape};

/// The six queries the paper evaluates, as matrix scenario families.
///
/// `ds2_nexmark` re-exports this type as `QueryId`: its setups and the
/// matrix lowering share one query list and one [`plan`](Self::plan).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NexmarkQuery {
    /// Currency conversion (stateless map).
    Q1,
    /// Selection (stateless filter, selectivity 1/123).
    Q2,
    /// Local item suggestion (incremental two-input join, keyed by seller).
    Q3,
    /// Hot items (hopping window, keyed by auction).
    Q5,
    /// Monitor new users (tumbling window join, keyed by person).
    Q8,
    /// User sessions (session window, keyed by bidder).
    Q11,
}

impl NexmarkQuery {
    /// All evaluated queries, in paper order.
    pub const ALL: [NexmarkQuery; 6] = [
        NexmarkQuery::Q1,
        NexmarkQuery::Q2,
        NexmarkQuery::Q3,
        NexmarkQuery::Q5,
        NexmarkQuery::Q8,
        NexmarkQuery::Q11,
    ];

    /// The paper's label (`Q1` … `Q11`).
    pub fn name(&self) -> &'static str {
        match self {
            NexmarkQuery::Q1 => "Q1",
            NexmarkQuery::Q2 => "Q2",
            NexmarkQuery::Q3 => "Q3",
            NexmarkQuery::Q5 => "Q5",
            NexmarkQuery::Q8 => "Q8",
            NexmarkQuery::Q11 => "Q11",
        }
    }

    /// The paper's reported optimal Flink parallelism for the query's main
    /// operator (Fig. 8 captions / Table 4 finals): the Flink setups'
    /// optimum and the reference point matrix calibration scales around.
    pub fn reference_parallelism(&self) -> usize {
        match self {
            NexmarkQuery::Q1 => 16,
            NexmarkQuery::Q2 => 14,
            NexmarkQuery::Q3 => 20,
            NexmarkQuery::Q5 => 16,
            NexmarkQuery::Q8 => 10,
            NexmarkQuery::Q11 => 28,
        }
    }

    /// Whether the query's main operator emits at window boundaries.
    pub fn is_windowed(&self) -> bool {
        matches!(
            self,
            NexmarkQuery::Q5 | NexmarkQuery::Q8 | NexmarkQuery::Q11
        )
    }

    /// Whether the main operator is keyed (hot-key skew can concentrate
    /// load on one instance). Stateless Q1/Q2 rebalance freely.
    pub fn keyed_main(&self) -> bool {
        !matches!(self, NexmarkQuery::Q1 | NexmarkQuery::Q2)
    }

    /// The name of the query's main operator in the lowered graph (the
    /// operator whose parallelism the paper reports).
    pub fn main_operator_name(&self) -> &'static str {
        match self {
            NexmarkQuery::Q1 => "currency_map",
            NexmarkQuery::Q2 => "filter",
            NexmarkQuery::Q3 => "incremental_join",
            NexmarkQuery::Q5 => "hot_items_window",
            NexmarkQuery::Q8 => "window_join",
            NexmarkQuery::Q11 => "session_window",
        }
    }

    /// `(feed_name, share)` of the total offered rate per source, at the
    /// paper's Table 3 rate ratios.
    pub(crate) fn source_shares(&self) -> &'static [(&'static str, f64)] {
        match self {
            NexmarkQuery::Q3 => &[("auctions", 5.0 / 6.0), ("persons", 1.0 / 6.0)],
            NexmarkQuery::Q8 => &[("auctions", 7.0 / 9.0), ("persons", 2.0 / 9.0)],
            _ => &[("bids", 1.0)],
        }
    }

    /// Window periods (ns) the lowering draws from; all divide the matrix's
    /// 10 s policy interval so windowed metrics windows see a whole number
    /// of firings. Empty for the non-windowed queries.
    pub fn window_periods(&self) -> &'static [u64] {
        match self {
            // Q5 hops every 1–2.5 s (the paper's sliding hot-items window).
            NexmarkQuery::Q5 => &[1_000_000_000, 2_000_000_000, 2_500_000_000],
            // Q8 tumbles every 1–2 s.
            NexmarkQuery::Q8 => &[1_000_000_000, 2_000_000_000],
            // Q11 session gaps close sessions every 0.5–2 s on average.
            NexmarkQuery::Q11 => &[500_000_000, 1_000_000_000, 2_000_000_000],
            _ => &[],
        }
    }

    /// Selectivity of the Q3 pre-join filters (auction category / person
    /// state predicates).
    pub const Q3_FILTER_SELECTIVITY: f64 = 0.25;

    /// The main operator's aggregate input rate as a fraction of the total
    /// offered rate, under optimally provisioned upstreams: 1 for every
    /// query whose main consumes the feeds directly, the filter
    /// selectivity for Q3 (both feeds pass a selectivity-0.25 filter).
    pub fn main_input_fraction(&self) -> f64 {
        match self {
            NexmarkQuery::Q3 => Self::Q3_FILTER_SELECTIVITY,
            _ => 1.0,
        }
    }

    /// Average selectivity of the main operator (outputs per input record).
    pub fn main_selectivity(&self) -> f64 {
        match self {
            NexmarkQuery::Q1 => 1.0,
            NexmarkQuery::Q2 => 1.0 / 123.0,
            NexmarkQuery::Q3 => 0.2,
            NexmarkQuery::Q5 => 0.01,
            NexmarkQuery::Q8 => 0.05,
            NexmarkQuery::Q11 => 0.02,
        }
    }

    /// The query's dataflow. Operators are created feeds first (in
    /// `source_shares` order), then Q3's
    /// `filter_auctions`, `filter_persons` and join, Q8's window join, or
    /// every other query's main and `sink`; ids follow that order. Ids
    /// set map iteration order and topological tie-breaks, so reordering
    /// the creation changes every generated scenario and setup.
    pub fn plan(&self) -> QueryPlan {
        let mut b = GraphBuilder::new();
        let mut ids: Vec<OperatorId> = self
            .source_shares()
            .iter()
            .map(|&(feed, _)| b.operator(feed))
            .collect();
        let main = match self {
            NexmarkQuery::Q3 => {
                // auctions -> filter_auctions -> join <- filter_persons <- persons.
                let fa = b.operator("filter_auctions");
                let fp = b.operator("filter_persons");
                let join = b.operator(self.main_operator_name());
                b.connect(ids[0], fa);
                b.connect(ids[1], fp);
                b.connect(fa, join);
                b.connect(fp, join);
                ids.extend([fa, fp, join]);
                join
            }
            NexmarkQuery::Q8 => {
                // auctions + persons -> window_join (also the sink).
                let join = b.operator(self.main_operator_name());
                b.connect(ids[0], join);
                b.connect(ids[1], join);
                ids.push(join);
                join
            }
            _ => {
                // bids -> main -> sink.
                let main = b.operator(self.main_operator_name());
                let sink = b.operator("sink");
                b.connect(ids[0], main);
                b.connect(main, sink);
                ids.extend([main, sink]);
                main
            }
        };
        let graph = b.build().expect("nexmark query plans are valid DAGs");
        QueryPlan { graph, ids, main }
    }
}

/// One query's dataflow: the single definition the matrix lowering and
/// `ds2-nexmark`'s setups build from.
#[derive(Debug)]
pub struct QueryPlan {
    /// The logical dataflow.
    pub graph: LogicalGraph,
    /// All operators in creation order, feeds first.
    pub ids: Vec<OperatorId>,
    /// The operator whose parallelism the paper reports.
    pub main: OperatorId,
}

/// Safety margin in instances of a main operator calibrated for optimum
/// `p_star`: capacity is set so the requirement lands at `p* - margin`.
/// Proportional to `p*` so the relative headroom covers hidden overhead,
/// but below one instance so the ceiling still lands exactly on `p*`.
pub fn safety_margin(p_star: usize) -> f64 {
    (0.04 * p_star as f64).clamp(0.3, 0.75)
}

/// The scenario family axis: the synthetic generator or one Nexmark query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScenarioFamily {
    /// Seeded random topology × workload × profiles (the original matrix).
    Synthetic,
    /// One of the paper's Nexmark query dataflows.
    Nexmark(NexmarkQuery),
    /// Synthetic topologies where one operator's key distribution pins a
    /// single instance: a splittable hot class whose rate exceeds any one
    /// instance's capacity, so no parallelism alone can absorb it.
    HotKey,
    /// Synthetic topologies where one stateful operator's per-instance
    /// state outgrows its memory budget as the workload ramps, forcing a
    /// spill (and a state-driven parallelism floor) unless the controller
    /// scales for state.
    StatePressure,
}

impl ScenarioFamily {
    /// Every Nexmark query family, in paper order.
    pub const ALL_NEXMARK: [ScenarioFamily; 6] = [
        ScenarioFamily::Nexmark(NexmarkQuery::Q1),
        ScenarioFamily::Nexmark(NexmarkQuery::Q2),
        ScenarioFamily::Nexmark(NexmarkQuery::Q3),
        ScenarioFamily::Nexmark(NexmarkQuery::Q5),
        ScenarioFamily::Nexmark(NexmarkQuery::Q8),
        ScenarioFamily::Nexmark(NexmarkQuery::Q11),
    ];

    /// Short name used in outcomes and reports (`synthetic`, `nexmark_q5`).
    pub fn name(&self) -> &'static str {
        match self {
            ScenarioFamily::Synthetic => "synthetic",
            ScenarioFamily::Nexmark(NexmarkQuery::Q1) => "nexmark_q1",
            ScenarioFamily::Nexmark(NexmarkQuery::Q2) => "nexmark_q2",
            ScenarioFamily::Nexmark(NexmarkQuery::Q3) => "nexmark_q3",
            ScenarioFamily::Nexmark(NexmarkQuery::Q5) => "nexmark_q5",
            ScenarioFamily::Nexmark(NexmarkQuery::Q8) => "nexmark_q8",
            ScenarioFamily::Nexmark(NexmarkQuery::Q11) => "nexmark_q11",
            ScenarioFamily::HotKey => "hotkey",
            ScenarioFamily::StatePressure => "state_pressure",
        }
    }

    /// Parses a short name as printed in reports.
    pub fn from_name(name: &str) -> Option<ScenarioFamily> {
        match name {
            "synthetic" => return Some(ScenarioFamily::Synthetic),
            "hotkey" => return Some(ScenarioFamily::HotKey),
            "state_pressure" => return Some(ScenarioFamily::StatePressure),
            _ => {}
        }
        ScenarioFamily::ALL_NEXMARK
            .into_iter()
            .find(|f| f.name() == name)
    }

    /// The headline-matrix family mix: synthetic and nexmark weighted
    /// 50/50 (six `Synthetic` entries + the six query families). The
    /// single definition shared by `tests/scenario_matrix.rs`, the
    /// fast-forward equivalence tests and the bin's `--family mixed`.
    pub fn headline_mix() -> Vec<ScenarioFamily> {
        let mut families = vec![ScenarioFamily::Synthetic; 6];
        families.extend(ScenarioFamily::ALL_NEXMARK);
        families
    }

    /// The salt XORed into the scenario seed before generating the
    /// scenario *body*: each family generates from its own derived RNG
    /// stream, so a `(seed, family)` pair produces the identical scenario
    /// under ANY family list — a failing cell of a multi-family matrix
    /// regenerates bit-exactly from `--seed <seed> --family <family>`.
    /// Synthetic's salt is 0: synthetic bodies read the raw seed stream,
    /// exactly as they did before the family axis existed.
    pub(crate) fn scenario_salt(&self) -> u64 {
        match self {
            ScenarioFamily::Synthetic => 0,
            ScenarioFamily::Nexmark(q) => {
                let index = NexmarkQuery::ALL.iter().position(|x| x == q).unwrap() as u64;
                (index + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
            }
            // Slots 7 and 8, continuing the Nexmark sequence (1..=6).
            ScenarioFamily::HotKey => 7u64.wrapping_mul(0x9E37_79B9_7F4A_7C15),
            ScenarioFamily::StatePressure => 8u64.wrapping_mul(0x9E37_79B9_7F4A_7C15),
        }
    }
}

/// Calibrates the main operator's profile so the analytic optimum at
/// aggregate input `rate` lands exactly on `p_star` (before skew).
///
/// The instrumented and hidden costs share one sigmoid curve, so the
/// *real* per-record cost is exactly `base · multiplier(p)`: the
/// per-instance real capacity at `p*` is `rate / (p* - margin)` with
/// `margin < 1`, which makes `p*` sufficient, and the near-flat curve
/// above the knee keeps `p* - 1` insufficient (the golden tests assert
/// both). Configurations far below the knee measure optimistic capacities
/// and need the paper's second/third refinement step (§5.4).
fn calibrated_main(
    rate: f64,
    p_star: usize,
    selectivity: f64,
    rng: &mut SmallRng,
) -> OperatorProfile {
    let p = p_star as f64;
    let alpha = rng.gen_range(0.2..0.3);
    let curve = ScalingCurve::Sigmoid {
        alpha,
        knee: 0.6 * p,
        width: (0.1 * p).max(0.5),
    };
    let real_cost_at_star = 1e9 / (rate / (p - safety_margin(p_star)));
    let base_real = real_cost_at_star / curve.multiplier(p_star);
    let hidden_fraction = rng.gen_range(0.01..0.03);
    OperatorProfile::simple(base_real * (1.0 - hidden_fraction), selectivity)
        .with_scaling(curve)
        .with_hidden(base_real * hidden_fraction, curve)
}

/// A light supporting operator (filter/sink) with linear scaling whose
/// analytic optimum at input `rate` is exactly `p_opt`.
fn support_profile(rate: f64, p_opt: usize, selectivity: f64) -> OperatorProfile {
    let capacity = rate / (p_opt as f64 - 0.5);
    OperatorProfile::with_capacity(capacity, selectivity)
}

/// Lowers `query` into a complete scenario.
///
/// Called by [`ScenarioSpec::generate`] with the scenario's seeded RNG;
/// all randomness (workload, parallelism scale, window period,
/// support-operator sizing, initial deployment) flows from it.
pub(crate) fn lower(
    seed: u64,
    query: NexmarkQuery,
    config: &GeneratorConfig,
    mut rng: SmallRng,
) -> ScenarioSpec {
    let workload_shape = config.workloads[rng.gen_range(0..config.workloads.len())];
    let workload = Workload::generate(
        workload_shape,
        config.run_duration_ns,
        config.rate_range,
        &mut rng,
    );
    let QueryPlan { graph, ids, main } = query.plan();
    let shares = query.source_shares();
    let sources = ids
        .iter()
        .zip(shares)
        .map(|(&src, &(_, share))| (src, workload.spec.scaled(share)))
        .collect();
    let shape = match shares.len() {
        1 => TopologyShape::Chain,
        _ => TopologyShape::MultiSource,
    };

    // p* scaled around the paper's reported parallelism, bounded well
    // inside the matrix's parallelism budget.
    let scale = rng.gen_range(0.7..1.3);
    let p_star = ((query.reference_parallelism() as f64 * scale).round() as usize).clamp(2, 48);
    let total_rate = workload.final_rate;
    let sel = query.main_selectivity();

    // Size the support operators (the sink, or Q3's filters).
    let mut profiles = ProfileMap::new();
    let main_input = match query {
        NexmarkQuery::Q3 => {
            let filter_sel = NexmarkQuery::Q3_FILTER_SELECTIVITY;
            let (ra, rp) = (total_rate * shares[0].1, total_rate * shares[1].1);
            let (fa, fp) = (ids[2], ids[3]);
            profiles.insert(fa, support_profile(ra, rng.gen_range(2..=6), filter_sel));
            profiles.insert(fp, support_profile(rp, rng.gen_range(1..=3), filter_sel));
            filter_sel * (ra + rp)
        }
        NexmarkQuery::Q8 => total_rate,
        _ => {
            let p_sink = match query {
                NexmarkQuery::Q1 | NexmarkQuery::Q2 => rng.gen_range(1..=4),
                _ => rng.gen_range(1..=3),
            };
            profiles.insert(ids[2], support_profile(total_rate * sel, p_sink, 0.0));
            total_rate
        }
    };

    let mut main_profile = calibrated_main(main_input, p_star, sel, &mut rng);
    let periods = query.window_periods();
    if !periods.is_empty() {
        main_profile = main_profile.windowed(periods[rng.gen_range(0..periods.len())]);
    }
    if let (Some(hot), true) = (workload.skew_hot_fraction, query.keyed_main()) {
        main_profile = main_profile.with_skew(hot);
    }
    profiles.insert(main, main_profile);

    let initial = initial_deployment(&graph, config, &mut rng);
    ScenarioSpec {
        seed,
        family: ScenarioFamily::Nexmark(query),
        topology: Topology { shape, graph, ids },
        workload,
        profiles,
        sources,
        initial,
    }
}

/// The reference scenario for `query`: the exact paper configuration (no
/// seed variation) at a given total offered `rate` — `p*` equals
/// [`NexmarkQuery::reference_parallelism`], the median window period, no
/// skew, and a minimal initial deployment. The golden-shape and ordering
/// tests run DS2 on these.
pub fn reference_spec(query: NexmarkQuery, rate: f64, run_duration_ns: u64) -> ScenarioSpec {
    let config = GeneratorConfig {
        families: vec![ScenarioFamily::Nexmark(query)],
        workloads: vec![WorkloadShape::Constant],
        rate_range: (rate, rate + 1e-6),
        initial_parallelism: (1, 1),
        run_duration_ns,
        ..Default::default()
    };
    let mut spec = ScenarioSpec::generate(0, &config);
    // Strip the seed variation: recalibrate the main operator at exactly
    // the paper's parallelism with the median window period.
    let mut rng = SmallRng::seed_from_u64(0);
    let main = spec
        .topology
        .graph
        .by_name(query.main_operator_name())
        .expect("main operator present");
    let mut profile = calibrated_main(
        main_input_rate(&spec, query),
        query.reference_parallelism(),
        query.main_selectivity(),
        &mut rng,
    );
    let periods = query.window_periods();
    if !periods.is_empty() {
        profile = profile.windowed(periods[periods.len() / 2]);
    }
    spec.profiles.insert(main, profile);
    spec
}

/// Aggregate input rate of the query's main operator at the workload's
/// final rate (the calibration target).
fn main_input_rate(spec: &ScenarioSpec, query: NexmarkQuery) -> f64 {
    query.main_input_fraction() * spec.workload.final_rate
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::OutputMode;
    use ds2_core::snapshot::MetricsSnapshot;

    fn nexmark_config(query: NexmarkQuery) -> GeneratorConfig {
        GeneratorConfig {
            families: vec![ScenarioFamily::Nexmark(query)],
            ..Default::default()
        }
    }

    #[test]
    fn lowering_is_deterministic_per_seed() {
        for q in NexmarkQuery::ALL {
            let cfg = nexmark_config(q);
            for seed in 0..8 {
                let a = ScenarioSpec::generate(seed, &cfg);
                let b = ScenarioSpec::generate(seed, &cfg);
                assert_eq!(a.family, ScenarioFamily::Nexmark(q));
                // The feeds lead the creation-order ids, like every topology.
                assert_eq!(
                    &a.topology.ids[..q.source_shares().len()],
                    a.topology.graph.sources(),
                    "{q:?}"
                );
                assert_eq!(a.topology.ids, b.topology.ids, "{q:?}");
                assert_eq!(a.topology.graph.edges(), b.topology.graph.edges(), "{q:?}");
                assert_eq!(a.profiles, b.profiles, "{q:?}");
                assert_eq!(a.initial, b.initial, "{q:?}");
                assert_eq!(a.sources, b.sources, "{q:?}");
            }
        }
    }

    #[test]
    fn windowed_queries_lower_to_windowed_mains() {
        for q in NexmarkQuery::ALL {
            let cfg = nexmark_config(q);
            let spec = ScenarioSpec::generate(3, &cfg);
            let main = spec
                .topology
                .graph
                .by_name(q.main_operator_name())
                .expect("main operator");
            let windowed = matches!(spec.profiles[&main].output, OutputMode::Windowed { .. });
            assert_eq!(windowed, q.is_windowed(), "{q:?}");
            if let OutputMode::Windowed { period_ns, .. } = spec.profiles[&main].output {
                assert!(q.window_periods().contains(&period_ns), "{q:?}");
                // Windows divide the matrix's 10 s policy interval.
                assert_eq!(10_000_000_000 % period_ns, 0, "{q:?}");
            }
        }
    }

    #[test]
    fn source_shares_sum_to_one_and_scale_the_schedule() {
        for q in NexmarkQuery::ALL {
            let total: f64 = q.source_shares().iter().map(|&(_, s)| s).sum();
            assert!((total - 1.0).abs() < 1e-12, "{q:?}");
            let cfg = nexmark_config(q);
            let spec = ScenarioSpec::generate(11, &cfg);
            let offered: f64 = spec
                .sources
                .values()
                .map(|s| s.schedule.rate_at(u64::MAX))
                .sum();
            assert!(
                (offered - spec.workload.final_rate).abs() < 1e-6 * spec.workload.final_rate,
                "{q:?}: feeds sum {offered} != total {}",
                spec.workload.final_rate
            );
        }
    }

    #[test]
    fn reference_optimum_is_the_paper_parallelism() {
        for q in NexmarkQuery::ALL {
            let spec = reference_spec(q, 2_000.0, 200_000_000_000);
            let main = spec.topology.graph.by_name(q.main_operator_name()).unwrap();
            let optimal = spec.optimal_parallelism();
            assert_eq!(
                optimal[&main],
                q.reference_parallelism(),
                "{q:?}: analytic optimum off the paper's reported parallelism"
            );
        }
    }

    #[test]
    fn skew_applies_only_to_keyed_mains() {
        for q in NexmarkQuery::ALL {
            let cfg = GeneratorConfig {
                families: vec![ScenarioFamily::Nexmark(q)],
                workloads: vec![WorkloadShape::KeySkew],
                ..Default::default()
            };
            let spec = ScenarioSpec::generate(5, &cfg);
            let main = spec.topology.graph.by_name(q.main_operator_name()).unwrap();
            assert_eq!(
                spec.profiles[&main].skew_hot_fraction.is_some(),
                q.keyed_main(),
                "{q:?}"
            );
            // Support operators never carry the hot key.
            for (&op, profile) in &spec.profiles {
                if op != main {
                    assert!(profile.skew_hot_fraction.is_none(), "{q:?} {op}");
                }
            }
        }
    }

    /// A lowered windowed query is a cycle of its window period: an
    /// engine built from the spec without latency tracking arms it and replays most of the
    /// run, staying bitwise on a twin driven tick by tick.
    #[test]
    fn windowed_query_engines_replay_their_cycles() {
        use crate::engine::tests::advance_one;
        use crate::engine::{EngineConfig, FluidEngine, InstrumentationConfig};
        for q in [NexmarkQuery::Q5, NexmarkQuery::Q8, NexmarkQuery::Q11] {
            let spec = ScenarioSpec::generate(7, &nexmark_config(q));
            let mk = || {
                FluidEngine::new(
                    spec.topology.graph.clone(),
                    spec.profiles.clone(),
                    spec.sources.clone(),
                    spec.initial.clone(),
                    EngineConfig {
                        instrumentation: InstrumentationConfig::disabled(),
                        fast_forward: true,
                        track_record_latency: false,
                        ..Default::default()
                    },
                )
            };
            let (mut exact, mut fast) = (mk(), mk());
            for _ in 0..4_000 {
                exact.tick();
                advance_one(&mut fast);
            }
            let stats = fast.fastforward_stats();
            assert!(stats.cycle_ticks > 2_000, "{q:?}: {stats:?}");
            assert_eq!(stats.cycle_ticks, stats.replayed_ticks, "{q:?}");
            for op in spec.topology.graph.operators() {
                assert_eq!(
                    exact.queue_len(op).to_bits(),
                    fast.queue_len(op).to_bits(),
                    "{q:?} {op}"
                );
            }
            let (mut sa, mut sb) = (MetricsSnapshot::new(), MetricsSnapshot::new());
            exact.collect_snapshot_into(&mut sa);
            fast.collect_snapshot_into(&mut sb);
            assert_eq!(sa, sb, "{q:?}");
        }
    }

    #[test]
    fn optimum_respects_generated_scale_range() {
        for q in NexmarkQuery::ALL {
            let cfg = nexmark_config(q);
            for seed in 0..20 {
                let spec = ScenarioSpec::generate(seed, &cfg);
                if spec.workload.skew_hot_fraction.is_some() {
                    continue; // skew plateaus are scored, not calibrated
                }
                let main = spec.topology.graph.by_name(q.main_operator_name()).unwrap();
                let p = spec.optimal_parallelism()[&main];
                let reference = q.reference_parallelism() as f64;
                assert!(
                    (p as f64) >= (0.7 * reference - 1.5) && (p as f64) <= (1.3 * reference + 1.5),
                    "{q:?} seed {seed}: optimum {p} outside the drawn scale range"
                );
            }
        }
    }
}
