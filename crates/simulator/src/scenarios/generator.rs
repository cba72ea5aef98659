//! Seeded generation of complete scenarios: topology × workload × operator
//! profiles × initial deployment.
//!
//! A [`ScenarioSpec`] is everything needed to run one closed-loop
//! experiment, plus the analytic ground truth (optimal parallelism per
//! operator) the matrix scores outcomes against. Generation is a pure
//! function of the seed, which is what makes the matrix reproducible: a
//! failing scenario is reported as its seed and can be regenerated
//! bit-for-bit.
//!
//! Every generated family has one skeleton: the family function makes its
//! own draws first (topology, workload, victim operator, …), then the shared
//! `assemble` step draws selectivities, calls the family's profile closure
//! per operator and draws the initial deployment.

use std::collections::BTreeMap;
use std::ops::Range;

use ds2_core::deployment::Deployment;
use ds2_core::graph::{LogicalGraph, OperatorId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::profile::{OperatorProfile, ProfileMap, ScalingCurve, StateProfile};
use crate::source::SourceSpec;

use super::nexmark::{self, ScenarioFamily};
use super::topology::{Topology, TopologyShape};
use super::workload::{Workload, WorkloadShape};

/// Knobs for scenario generation.
#[derive(Debug, Clone)]
pub struct GeneratorConfig {
    /// Scenario families to draw from: the synthetic generator and/or
    /// Nexmark query dataflows. Repetition weights the draw (e.g.
    /// [`ScenarioFamily::headline_mix`] — six `Synthetic` entries plus
    /// [`ScenarioFamily::ALL_NEXMARK`] — yields a 50/50 synthetic/nexmark
    /// mix). The family draw runs on its own RNG stream and the scenario
    /// body on a `(seed, family)`-derived one, so a `(seed, family)` pair
    /// generates bit-identically under any list — and synthetic-only
    /// configs generate bit-identical scenarios to configs predating the
    /// family axis.
    pub families: Vec<ScenarioFamily>,
    /// Topology families to draw from (synthetic, hot-key and
    /// state-pressure scenarios; Nexmark queries bring their own plan).
    pub shapes: Vec<TopologyShape>,
    /// Workload families to draw from.
    pub workloads: Vec<WorkloadShape>,
    /// Inclusive range of total operator counts (including the source).
    pub operators: (usize, usize),
    /// Offered-rate range in records/second.
    pub rate_range: (f64, f64),
    /// Initial parallelism range for non-source operators.
    pub initial_parallelism: (usize, usize),
    /// Run length the workload schedule is laid out over.
    pub run_duration_ns: u64,
}

impl Default for GeneratorConfig {
    fn default() -> Self {
        Self {
            families: vec![ScenarioFamily::Synthetic],
            shapes: TopologyShape::ALL.to_vec(),
            workloads: WorkloadShape::ALL.to_vec(),
            operators: (2, 12),
            rate_range: (600.0, 4_000.0),
            initial_parallelism: (1, 8),
            run_duration_ns: 300_000_000_000,
        }
    }
}

/// Per-instance capacity range in records/second.
const CAPACITY_RANGE: Range<f64> = 400.0..2_500.0;

/// Per-operator selectivity range (clamped so the cumulative product along
/// any path stays within [0.2, 4]).
const SELECTIVITY_RANGE: Range<f64> = 0.3..2.0;

/// Probability that an operator's cost grows with parallelism (saturating
/// or sigmoid curve) rather than scaling perfectly.
const NONLINEAR_PROBABILITY: f64 = 0.3;

/// Probability that an operator carries hidden (uninstrumented) overhead,
/// the paper's third-step driver.
const HIDDEN_PROBABILITY: f64 = 0.25;

/// Seed salt of the family-draw RNG stream (distinct from every scenario
/// body stream).
const FAMILY_DRAW_SALT: u64 = 0xFA31_11D8_2B5C_6E93;

/// One fully specified experiment.
#[derive(Debug, Clone)]
pub struct ScenarioSpec {
    /// The seed this scenario was generated from (reproduces it exactly).
    pub seed: u64,
    /// The family this scenario was drawn from.
    pub family: ScenarioFamily,
    /// The generated topology.
    pub topology: Topology,
    /// The generated workload.
    pub workload: Workload,
    /// Per-operator cost profiles (non-source operators).
    pub profiles: ProfileMap,
    /// Source specifications.
    pub sources: BTreeMap<OperatorId, SourceSpec>,
    /// Initial deployment the controller starts from.
    pub initial: Deployment,
}

impl ScenarioSpec {
    /// Generates the scenario for `seed` under `config`.
    ///
    /// The family is drawn on its own RNG stream and the scenario *body*
    /// generates from a `(seed, family)`-derived stream, so a given pair
    /// produces the identical scenario under **any** family list: a
    /// failing cell of a multi-family matrix regenerates bit-exactly from
    /// a single-family config (`--seed <seed> --family <family>`, with
    /// matching workload/duration knobs). Synthetic bodies read the raw
    /// seed stream — salt 0 — exactly as before the family axis existed.
    pub fn generate(seed: u64, config: &GeneratorConfig) -> ScenarioSpec {
        let family = match config.families.len() {
            0 => ScenarioFamily::Synthetic,
            1 => config.families[0],
            // The draw's own stream: consuming it must not shift the body.
            n => {
                let mut family_rng = SmallRng::seed_from_u64(seed ^ FAMILY_DRAW_SALT);
                config.families[family_rng.gen_range(0..n)]
            }
        };
        let rng = SmallRng::seed_from_u64(seed ^ family.scenario_salt());
        match family {
            ScenarioFamily::Synthetic => Self::generate_synthetic(seed, config, rng),
            ScenarioFamily::Nexmark(query) => nexmark::lower(seed, query, config, rng),
            ScenarioFamily::HotKey => Self::generate_hot_key(seed, config, rng),
            ScenarioFamily::StatePressure => Self::generate_state_pressure(seed, config, rng),
        }
    }

    /// The original synthetic generator: random topology × workload ×
    /// profiles × initial deployment.
    fn generate_synthetic(seed: u64, config: &GeneratorConfig, mut rng: SmallRng) -> ScenarioSpec {
        let shape = config.shapes[rng.gen_range(0..config.shapes.len())];
        let workload_shape = config.workloads[rng.gen_range(0..config.workloads.len())];
        let n_ops = rng.gen_range(config.operators.0..=config.operators.1);
        let topology = Topology::generate(shape, n_ops, &mut rng);
        let workload = Workload::generate(
            workload_shape,
            config.run_duration_ns,
            config.rate_range,
            &mut rng,
        );
        // One randomly chosen non-source operator carries the hot key in
        // skewed scenarios (KeySkew, SpikeSkew).
        let skew_victim = pick_victim(&topology, &mut rng);
        let skew = workload.skew_hot_fraction;
        let profile = |op, _flow: f64, sel, rng: &mut SmallRng| {
            let capacity = rng.gen_range(CAPACITY_RANGE);
            let mut profile = OperatorProfile::with_capacity(capacity, sel);
            if rng.gen_bool(NONLINEAR_PROBABILITY) {
                profile = profile.with_scaling(if rng.gen_bool(0.5) {
                    ScalingCurve::Saturating {
                        alpha: rng.gen_range(0.05..0.3),
                        knee: rng.gen_range(2.0..8.0),
                    }
                } else {
                    ScalingCurve::Sigmoid {
                        alpha: rng.gen_range(0.05..0.25),
                        knee: rng.gen_range(4.0..12.0),
                        width: rng.gen_range(1.0..3.0),
                    }
                });
            }
            if rng.gen_bool(HIDDEN_PROBABILITY) {
                // Hidden overhead up to 15% of the instrumented cost.
                let hidden = profile.instrumented_cost_ns(1) * rng.gen_range(0.03..0.15);
                profile = profile.with_hidden(hidden, ScalingCurve::Linear);
            }
            match skew {
                Some(hot) if op == skew_victim => profile.with_skew(hot),
                _ => profile,
            }
        };
        let family = ScenarioFamily::Synthetic;
        assemble(seed, family, config, topology, workload, rng, profile)
    }

    /// Hot-key family: one operator carries a *splittable* hot key class
    /// whose rate is 2–6× a single instance's capacity, so no parallelism
    /// alone keeps up (the hot instance saturates at any p) — but splitting
    /// the hot class across instances does. Parallelism-only controllers
    /// plateau; the multi-dimensional controller converges.
    fn generate_hot_key(seed: u64, config: &GeneratorConfig, mut rng: SmallRng) -> ScenarioSpec {
        let shape = config.shapes[rng.gen_range(0..config.shapes.len())];
        let n_ops = rng.gen_range(config.operators.0..=config.operators.1);
        let topology = Topology::generate(shape, n_ops, &mut rng);
        let base = rng.gen_range(config.rate_range.0..config.rate_range.1);
        let hot = rng.gen_range(0.4..0.7);
        let workload =
            Workload::from_steps(WorkloadShape::KeySkew, vec![(0, base)], base, Some(hot));
        let victim = pick_victim(&topology, &mut rng);
        // How many single-instance capacities the hot class alone offers:
        // the skew plateau sits this far below the victim's target rate.
        let overload = rng.gen_range(2.0..6.0);
        let profile = |op, flow: f64, sel, rng: &mut SmallRng| {
            if op == victim {
                // Pin the hot class at `overload` instance-capacities of the
                // victim's target rate; the profile stays linear so the
                // plateau is purely the key distribution's fault.
                let capacity = (hot * (flow * base) / overload).max(30.0);
                OperatorProfile::with_capacity(capacity, sel).with_splittable_skew(hot)
            } else {
                OperatorProfile::with_capacity(rng.gen_range(CAPACITY_RANGE), sel)
            }
        };
        let family = ScenarioFamily::HotKey;
        assemble(seed, family, config, topology, workload, rng, profile)
    }

    /// State-pressure family: one stateful operator's total state grows
    /// with the offered rate, and as a `state_ramp`/`state_spike` workload
    /// elevates the rate, the per-instance state at the rate-optimal
    /// parallelism overshoots the memory budget by 1.5–3×. Running over
    /// budget spills (a 2–4× cost multiplier), so the true optimum is the
    /// state floor `ceil(total_state / budget)`, above the rate optimum.
    fn generate_state_pressure(
        seed: u64,
        config: &GeneratorConfig,
        mut rng: SmallRng,
    ) -> ScenarioSpec {
        let shape = config.shapes[rng.gen_range(0..config.shapes.len())];
        let n_ops = rng.gen_range(config.operators.0..=config.operators.1);
        let topology = Topology::generate(shape, n_ops, &mut rng);
        let workload_shape = if rng.gen_bool(0.5) {
            WorkloadShape::StateRamp
        } else {
            WorkloadShape::StateSpike
        };
        let workload = Workload::generate(
            workload_shape,
            config.run_duration_ns,
            config.rate_range,
            &mut rng,
        );
        let victim = pick_victim(&topology, &mut rng);
        // The victim's rate-optimal parallelism is drawn, not derived:
        // capacity is set so `p_rate` instances exactly sustain the final
        // rate, keeping the state floor (`pressure × p_rate`) under the
        // matrix's parallelism cap.
        let p_rate = rng.gen_range(2usize..=8);
        let pressure = rng.gen_range(1.5..3.0);
        let spill = rng.gen_range(2.0..4.0);
        let budget = rng.gen_range(1.0e8..4.0e8);
        let final_rate = workload.final_rate;
        let total_final = topology.graph.sources().len() as f64 * final_rate;
        let profile = |op, flow: f64, sel, rng: &mut SmallRng| {
            if op == victim {
                let capacity = (flow * final_rate / p_rate as f64).max(30.0);
                // Total state at the final rate lands `pressure` budgets
                // above what `p_rate` instances can hold.
                let total_bytes = budget * p_rate as f64 * pressure;
                OperatorProfile::with_capacity(capacity, sel).with_state(StateProfile {
                    bytes_per_source_rate: total_bytes / total_final,
                    spill_cost_multiplier: spill,
                    budget_per_instance_bytes: budget,
                })
            } else {
                OperatorProfile::with_capacity(rng.gen_range(CAPACITY_RANGE), sel)
            }
        };
        let family = ScenarioFamily::StatePressure;
        assemble(seed, family, config, topology, workload, rng, profile)
    }

    /// The per-instance state budget this scenario's stateful operators
    /// were generated against: the tightest finite
    /// `StateProfile::budget_per_instance_bytes` across profiles, or
    /// `None` for stateless scenarios. The multi-dimensional controller is
    /// configured with this value (the machine limit is knowable; *when*
    /// state crosses it is not).
    pub fn state_budget(&self) -> Option<f64> {
        self.profiles
            .values()
            .filter_map(|p| p.state.as_ref())
            .map(|s| s.budget_per_instance_bytes)
            .filter(|b| b.is_finite() && *b > 0.0)
            .min_by(|a, b| a.partial_cmp(b).unwrap())
    }

    /// Analytic target input rate per operator when every upstream keeps up
    /// with a total workload rate of `source_rate` (the ground truth of
    /// Eq. 8). Each source offers `source_rate` scaled by its share of the
    /// workload's final rate: generated sources all run the full schedule
    /// (share about 1 — the merge stage of a multi-source topology sees the
    /// sum), while nexmark feeds split one schedule at fixed ratios.
    pub(crate) fn target_rates(&self, source_rate: f64) -> BTreeMap<OperatorId, f64> {
        let graph = &self.topology.graph;
        let mut out_rate: BTreeMap<OperatorId, f64> = BTreeMap::new();
        let mut targets = BTreeMap::new();
        for op in graph.topological_order().collect::<Vec<_>>() {
            if graph.is_source(op) {
                // `share == 1.0` exactly whenever the schedule tail *is*
                // the workload's final rate, keeping pre-family-axis targets
                // bit-identical. A `state_ramp` tail, `base + (top - base)`,
                // can sit one ulp off its final rate `top`, and so can its
                // share off 1.
                let share = self.sources[&op].schedule.rate_at(u64::MAX) / self.workload.final_rate;
                let rate = source_rate * share;
                out_rate.insert(op, rate);
                targets.insert(op, rate);
                continue;
            }
            let rt: f64 = graph
                .upstream_edges(op)
                .map(|e| out_rate[&e.from] * e.weight)
                .sum();
            let sel = self.profiles[&op].output.average_selectivity();
            targets.insert(op, rt);
            out_rate.insert(op, rt * sel);
        }
        targets
    }

    /// The minimum parallelism per non-source operator that sustains the
    /// workload's final rate, accounting for scaling curves, hidden
    /// overhead and skew (the matrix's provisioning ground truth).
    ///
    /// With a non-splittable hot key, aggregate capacity plateaus at
    /// `capacity / hot_share` no matter the parallelism (§4.2.3: skew is
    /// not fixable by scaling); in that case the reported optimum is the
    /// smallest parallelism reaching the plateau. A *splittable* hot key
    /// is scored at full class split (uniform shares), and a stateful
    /// operator with a finite budget additionally takes the state floor
    /// `ceil(total_state / budget)` — both paths are inert for profiles
    /// without those dimensions, keeping pre-refactor optima bit-identical.
    pub fn optimal_parallelism(&self) -> BTreeMap<OperatorId, usize> {
        let targets = self.target_rates(self.workload.final_rate);
        let graph = &self.topology.graph;
        let mut optimal = BTreeMap::new();
        for op in graph.operators() {
            if graph.is_source(op) {
                continue;
            }
            let rt = targets[&op];
            let profile = &self.profiles[&op];
            // A profile whose hot key is indivisible ignores the split.
            let cap_at = |p: usize| profile.effective_capacity_split(p, p);
            // Effective capacity is monotone in p for the generated curve
            // parameters (alpha well below 1) until a skew plateau, so the
            // first sufficient p is the optimum; past 8 non-improving steps
            // the capacity has plateaued below the target.
            let mut best = 1usize;
            let mut best_cap = cap_at(1);
            let mut p = 1usize;
            while p < 1_024 && best_cap < rt * (1.0 - 1e-9) {
                p += 1;
                let cap = cap_at(p);
                if cap > best_cap * (1.0 + 1e-9) {
                    best = p;
                    best_cap = cap;
                } else if p >= best + 8 {
                    break;
                }
            }
            if let Some(state) = &profile.state {
                if state.budget_per_instance_bytes.is_finite()
                    && state.budget_per_instance_bytes > 0.0
                {
                    let total_rate: f64 = self
                        .sources
                        .values()
                        .map(|s| s.schedule.rate_at(u64::MAX))
                        .sum();
                    let total_bytes = state.total_bytes(total_rate);
                    let floor = ((total_bytes / state.budget_per_instance_bytes) - 1e-9)
                        .ceil()
                        .max(1.0) as usize;
                    best = best.max(floor);
                }
            }
            optimal.insert(op, best);
        }
        optimal
    }
}

/// The shared tail of every generated family, after the family's own
/// draws: per operator in topological order, the selectivity draw and then
/// `profile(op, upstream_flow, selectivity, rng)`; every source running the
/// full workload spec; the initial deployment.
///
/// `upstream_flow` is the operator's input as a multiple of the per-source
/// rate. Fan-in *sums* parent flows (a max-path bound would still let flow
/// compound through deep layered graphs), so selectivity is clamped to keep
/// every operator's output flow within [0.25, 2] source rates: target rates
/// (hence optimal parallelism and simulation cost) stay within the matrix
/// budget. Every source runs the full schedule, so a multi-source
/// topology's merge stage sees `n_sources` times the per-feed rate, which
/// is exactly what `target_rates` assumes.
fn assemble(
    seed: u64,
    family: ScenarioFamily,
    config: &GeneratorConfig,
    topology: Topology,
    workload: Workload,
    mut rng: SmallRng,
    mut profile: impl FnMut(OperatorId, f64, f64, &mut SmallRng) -> OperatorProfile,
) -> ScenarioSpec {
    let graph = &topology.graph;
    let mut cum_sel: BTreeMap<OperatorId, f64> = BTreeMap::new();
    let mut profiles = ProfileMap::new();
    for op in graph.topological_order() {
        if graph.is_source(op) {
            cum_sel.insert(op, 1.0);
            continue;
        }
        let upstream_cum = graph
            .upstream_edges(op)
            .map(|e| cum_sel[&e.from])
            .sum::<f64>()
            .max(1e-6);
        let sel = rng
            .gen_range(SELECTIVITY_RANGE)
            .clamp(0.25 / upstream_cum, 2.0 / upstream_cum)
            .clamp(0.05, 8.0);
        cum_sel.insert(op, upstream_cum * sel);
        profiles.insert(op, profile(op, upstream_cum, sel, &mut rng));
    }
    let sources = graph
        .sources()
        .iter()
        .map(|&src| (src, workload.spec.clone()))
        .collect();
    let initial = initial_deployment(graph, config, &mut rng);
    ScenarioSpec {
        seed,
        family,
        topology,
        workload,
        profiles,
        sources,
        initial,
    }
}

/// One uniform draw over the non-source operators, in id order.
fn pick_victim(topology: &Topology, rng: &mut SmallRng) -> OperatorId {
    let graph = &topology.graph;
    let non_source = graph.len() - graph.sources().len();
    let pick = rng.gen_range(0..non_source);
    graph
        .operators()
        .filter(|&op| !graph.is_source(op))
        .nth(pick)
        .expect("pick is below the non-source count")
}

/// Every source at parallelism 1, every other operator at a parallelism
/// drawn from `config.initial_parallelism`, in id order.
pub(crate) fn initial_deployment(
    graph: &LogicalGraph,
    config: &GeneratorConfig,
    rng: &mut SmallRng,
) -> Deployment {
    let mut initial = Deployment::uniform(graph, 1);
    let (plo, phi) = config.initial_parallelism;
    for op in graph.operators().filter(|&op| !graph.is_source(op)) {
        initial.set(op, rng.gen_range(plo..=phi));
    }
    initial
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn multi_family_cells_reproduce_from_single_family_configs() {
        // The reproduction guarantee behind `describe_failures`: a cell of
        // a multi-family matrix regenerates bit-exactly from a config
        // whose family list contains only that cell's family — the family
        // draw must not perturb the scenario body.
        let mut mixed = GeneratorConfig {
            families: ScenarioFamily::headline_mix(),
            ..Default::default()
        };
        // Also with a restricted workload list, like the headline config.
        mixed.workloads = vec![
            WorkloadShape::Constant,
            WorkloadShape::Step,
            WorkloadShape::Spike,
        ];
        let mut seen_nexmark = 0;
        for seed in 0..60 {
            let a = ScenarioSpec::generate(seed, &mixed);
            let single = GeneratorConfig {
                families: vec![a.family],
                ..mixed.clone()
            };
            let b = ScenarioSpec::generate(seed, &single);
            assert_eq!(a.family, b.family, "seed {seed}");
            assert_eq!(a.topology.ids, b.topology.ids, "seed {seed}");
            assert_eq!(
                a.topology.graph.edges(),
                b.topology.graph.edges(),
                "seed {seed}"
            );
            assert_eq!(a.profiles, b.profiles, "seed {seed}");
            assert_eq!(a.sources, b.sources, "seed {seed}");
            assert_eq!(a.initial, b.initial, "seed {seed}");
            assert_eq!(a.workload.spec, b.workload.spec, "seed {seed}");
            if a.family != ScenarioFamily::Synthetic {
                seen_nexmark += 1;
            }
        }
        assert!(seen_nexmark >= 15, "mix drew only {seen_nexmark} nexmark");
    }

    #[test]
    fn synthetic_cells_of_a_mix_match_the_synthetic_only_stream() {
        // Synthetic bodies use salt 0: a synthetic cell of a mixed matrix
        // equals the plain synthetic-only generation of the same seed
        // (which itself is the pre-family-axis stream).
        let mixed = GeneratorConfig {
            families: ScenarioFamily::headline_mix(),
            ..Default::default()
        };
        let synthetic_only = GeneratorConfig::default();
        let mut checked = 0;
        for seed in 0..40 {
            let a = ScenarioSpec::generate(seed, &mixed);
            if a.family != ScenarioFamily::Synthetic {
                continue;
            }
            let b = ScenarioSpec::generate(seed, &synthetic_only);
            assert_eq!(a.topology.ids, b.topology.ids, "seed {seed}");
            assert_eq!(a.profiles, b.profiles, "seed {seed}");
            assert_eq!(a.initial, b.initial, "seed {seed}");
            assert_eq!(a.workload.spec, b.workload.spec, "seed {seed}");
            checked += 1;
        }
        assert!(checked >= 10, "only {checked} synthetic cells in the mix");
    }

    #[test]
    fn generation_is_deterministic() {
        let cfg = GeneratorConfig::default();
        for seed in 0..40 {
            let a = ScenarioSpec::generate(seed, &cfg);
            let b = ScenarioSpec::generate(seed, &cfg);
            assert_eq!(a.topology.ids, b.topology.ids);
            assert_eq!(a.profiles, b.profiles);
            assert_eq!(a.initial, b.initial);
            assert_eq!(a.workload.spec, b.workload.spec);
        }
    }

    #[test]
    fn generation_is_deterministic_for_every_family() {
        // Every topology × workload family, not just whatever the default
        // config happens to draw: restrict the generator to one pair and
        // check same seed → same spec.
        for shape in TopologyShape::ALL {
            for workload in WorkloadShape::ALL {
                let cfg = GeneratorConfig {
                    shapes: vec![shape],
                    workloads: vec![workload],
                    ..Default::default()
                };
                for seed in 0..6 {
                    let a = ScenarioSpec::generate(seed, &cfg);
                    let b = ScenarioSpec::generate(seed, &cfg);
                    assert_eq!(a.topology.shape, shape);
                    assert_eq!(a.workload.shape, workload);
                    assert_eq!(a.topology.ids, b.topology.ids, "{shape:?}/{workload:?}");
                    assert_eq!(
                        a.topology.graph.edges(),
                        b.topology.graph.edges(),
                        "{shape:?}/{workload:?}"
                    );
                    assert_eq!(a.profiles, b.profiles, "{shape:?}/{workload:?}");
                    assert_eq!(a.initial, b.initial, "{shape:?}/{workload:?}");
                    assert_eq!(a.workload.spec, b.workload.spec, "{shape:?}/{workload:?}");
                }
            }
        }
    }

    #[test]
    fn scenarios_are_well_formed() {
        let cfg = GeneratorConfig::default();
        for seed in 0..120 {
            let s = ScenarioSpec::generate(seed, &cfg);
            let graph = &s.topology.graph;
            let n_sources = graph.sources().len();
            if s.topology.shape == TopologyShape::MultiSource {
                assert!((1..=3).contains(&n_sources), "seed {seed}");
            } else {
                assert_eq!(n_sources, 1, "seed {seed}");
            }
            assert!(graph.len() >= 2, "seed {seed}");
            // Profiles for every non-source operator; none for sources.
            for op in graph.operators() {
                assert_eq!(
                    s.profiles.contains_key(&op),
                    !graph.is_source(op),
                    "seed {seed}: {op}"
                );
            }
            // Every source (one, or several for MultiSource) carries the
            // workload's spec.
            assert_eq!(s.sources.len(), graph.sources().len(), "seed {seed}");
            assert!(!s.sources.is_empty(), "seed {seed}");
            for spec in s.sources.values() {
                assert_eq!(*spec, s.workload.spec, "seed {seed}");
            }
            assert!(s.initial.validate(graph).is_ok(), "seed {seed}");
        }
    }

    #[test]
    fn cumulative_selectivity_is_bounded() {
        let cfg = GeneratorConfig::default();
        for seed in 0..120 {
            let s = ScenarioSpec::generate(seed, &cfg);
            let targets = s.target_rates(1_000.0);
            for (&op, &rt) in &targets {
                // Per-path cumulative selectivity within [0.25, 2], at most
                // 4 fan-in paths.
                assert!(
                    rt > 100.0 && rt < 1_000.0 * 8.0 + 1.0,
                    "seed {seed}: {op} target {rt} out of bounds"
                );
            }
        }
    }

    #[test]
    fn optimal_parallelism_is_minimal_and_sufficient() {
        // The default config plus one restricted config per workload family
        // (so the analytic-optimum invariant is exercised on every
        // `WorkloadShape`, including the skew-plateau cases).
        let mut configs = vec![GeneratorConfig::default()];
        for workload in WorkloadShape::ALL {
            configs.push(GeneratorConfig {
                workloads: vec![workload],
                ..Default::default()
            });
        }
        for shape in TopologyShape::ALL {
            configs.push(GeneratorConfig {
                shapes: vec![shape],
                ..Default::default()
            });
        }
        for cfg in &configs {
            for seed in 0..20 {
                check_optimum_minimal_and_sufficient(seed, cfg);
            }
        }
        for seed in 20..60 {
            check_optimum_minimal_and_sufficient(seed, &configs[0]);
        }
    }

    #[test]
    fn hot_key_scenarios_need_class_splits() {
        let cfg = GeneratorConfig {
            families: vec![ScenarioFamily::HotKey],
            ..Default::default()
        };
        for seed in 0..40 {
            let a = ScenarioSpec::generate(seed, &cfg);
            let b = ScenarioSpec::generate(seed, &cfg);
            assert_eq!(a.profiles, b.profiles, "seed {seed}");
            assert_eq!(a.initial, b.initial, "seed {seed}");
            assert_eq!(a.family, ScenarioFamily::HotKey);
            assert_eq!(a.state_budget(), None, "hotkey scenarios are stateless");
            let victims: Vec<_> = a
                .profiles
                .iter()
                .filter(|(_, p)| p.skew_splittable)
                .map(|(&op, p)| (op, p.clone()))
                .collect();
            assert_eq!(victims.len(), 1, "seed {seed}: exactly one hot operator");
            let (op, profile) = &victims[0];
            let rt = a.target_rates(a.workload.final_rate)[op];
            let optimal = a.optimal_parallelism();
            let p = optimal[op];
            // Parallelism alone plateaus below the target; the full class
            // split at the reported optimum sustains it.
            assert!(
                profile.effective_capacity_split(64, 1) < rt * (1.0 - 1e-9),
                "seed {seed}: {op} keeps up without splitting"
            );
            assert!(
                profile.effective_capacity_split(p, p) >= rt * (1.0 - 1e-9),
                "seed {seed}: {op} optimum p={p} insufficient even split"
            );
            assert!(p <= 64, "seed {seed}: optimum {p} above the matrix cap");
        }
    }

    #[test]
    fn state_pressure_optima_sit_on_the_state_floor() {
        let cfg = GeneratorConfig {
            families: vec![ScenarioFamily::StatePressure],
            ..Default::default()
        };
        for seed in 0..40 {
            let a = ScenarioSpec::generate(seed, &cfg);
            let b = ScenarioSpec::generate(seed, &cfg);
            assert_eq!(a.profiles, b.profiles, "seed {seed}");
            assert_eq!(a.family, ScenarioFamily::StatePressure);
            assert!(
                matches!(
                    a.workload.shape,
                    WorkloadShape::StateRamp | WorkloadShape::StateSpike
                ),
                "seed {seed}: {:?}",
                a.workload.shape
            );
            let budget = a.state_budget().expect("a stateful operator");
            let stateful: Vec<_> = a
                .profiles
                .iter()
                .filter(|(_, p)| p.state.is_some())
                .map(|(&op, p)| (op, p.clone()))
                .collect();
            assert_eq!(stateful.len(), 1, "seed {seed}: exactly one stateful op");
            let (op, profile) = &stateful[0];
            let p = a.optimal_parallelism()[op];
            let total_rate = a.topology.graph.sources().len() as f64 * a.workload.final_rate;
            // The optimum is the smallest parallelism whose per-instance
            // state fits the budget, and it still sustains the rate.
            assert!(
                profile.state_bytes(p, total_rate) <= budget * (1.0 + 1e-9),
                "seed {seed}: {op} over budget at its optimum p={p}"
            );
            assert!(
                profile.state_bytes(p - 1, total_rate) > budget,
                "seed {seed}: {op} optimum p={p} not the state floor"
            );
            let rt = a.target_rates(a.workload.final_rate)[op];
            assert!(
                profile.effective_capacity_split(p, 1) >= rt * (1.0 - 1e-9),
                "seed {seed}: {op} optimum p={p} cannot sustain the rate"
            );
            assert!(p <= 64, "seed {seed}: optimum {p} above the matrix cap");
        }
    }

    /// The configs the spec pin covers: the default and headline mixes,
    /// every topology × workload pair, each Nexmark query, and the hot-key
    /// and state-pressure families under each topology shape.
    fn pinned_configs() -> Vec<GeneratorConfig> {
        let mut configs = vec![
            GeneratorConfig::default(),
            GeneratorConfig {
                families: ScenarioFamily::headline_mix(),
                ..Default::default()
            },
        ];
        for shape in TopologyShape::ALL {
            for workload in WorkloadShape::ALL {
                configs.push(GeneratorConfig {
                    shapes: vec![shape],
                    workloads: vec![workload],
                    ..Default::default()
                });
            }
        }
        for family in ScenarioFamily::ALL_NEXMARK {
            configs.push(GeneratorConfig {
                families: vec![family],
                ..Default::default()
            });
        }
        for family in [ScenarioFamily::HotKey, ScenarioFamily::StatePressure] {
            for shape in TopologyShape::ALL {
                configs.push(GeneratorConfig {
                    families: vec![family],
                    shapes: vec![shape],
                    ..Default::default()
                });
            }
        }
        configs
    }

    /// Every generated spec over seeds 0..50 of each pinned config, bit for
    /// bit: `Debug` prints each f64 in shortest round-trip form and specs
    /// hold only ordered maps, so the FNV-1a hash of the `Debug` text
    /// changes whenever any draw moves.
    #[test]
    fn generated_specs_are_pinned_bit_for_bit() {
        const PINNED: [u64; 68] = [
            0x9c0f_d796_11bf_3c6a,
            0x093c_9832_c217_74c3,
            0x984b_0e2a_2e8d_c125,
            0x590d_db82_8c71_9260,
            0x5b44_7bcb_1a70_ad8d,
            0xcf06_426c_b48c_af22,
            0x734a_40b8_ae60_ee94,
            0xd1c1_f16e_e322_d558,
            0xe7ea_4d9c_8e20_dd9b,
            0x8f07_f2d1_c179_9360,
            0x4708_d9c8_327d_6e73,
            0x5ca0_a86b_6fae_d502,
            0x8925_9173_d3f6_c050,
            0x4a53_d89c_e535_ab0d,
            0xd33c_06ce_ec60_a2ff,
            0x28bc_a24e_e2de_549f,
            0x6d1c_f450_883c_37cc,
            0x167d_1d95_866a_7048,
            0xd2e8_304a_fb06_fbff,
            0xf564_1084_cd1c_8992,
            0x7d50_9f01_c646_1ee5,
            0x4201_5b7e_6430_48e2,
            0x7fa5_4261_a22e_b518,
            0x8f16_d10c_6081_83d4,
            0x74ff_38a7_1a84_7e10,
            0x446e_b83f_05a7_a0f9,
            0x9e21_8a95_e0b5_70bf,
            0x57c5_c298_63e4_6479,
            0x04cf_39f8_f0c5_6ae4,
            0x4826_c866_7a76_bb41,
            0xc0d2_4756_e0a0_7643,
            0x48f3_f8e8_152a_88e7,
            0xf2a9_9321_b0b8_3bf2,
            0x5f75_8172_c1bc_6ab4,
            0x5d23_df4f_0e8b_f226,
            0x9643_8266_fa6c_0f17,
            0xbc1d_c031_0046_2459,
            0x9a54_dd47_2be5_cf12,
            0x6d8d_5d35_98a1_c225,
            0x4441_a2ae_96d8_2554,
            0x9ba5_01a0_f382_7162,
            0x7c18_5111_df15_d591,
            0xdd63_370e_b971_9887,
            0x77dc_96ab_ab81_f734,
            0xc95d_d7bb_37e7_77af,
            0xf02b_3eb7_c5c5_873a,
            0x2194_aee5_3c41_bce6,
            0x446b_8142_40a2_70a4,
            0x628a_b020_7ce7_fa2a,
            0x0507_08e5_14af_5e8a,
            0x64e9_24bc_e4fc_2cc3,
            0x4358_d876_6cfb_9051,
            0xdf87_a549_34e0_7ddd,
            0xa467_fa31_3b77_3b63,
            0x57bd_7ea5_454f_b01e,
            0x630e_3990_e979_d531,
            0xcc01_eeee_cddc_df52,
            0xfadd_b199_cd65_f85e,
            0x73b2_78a8_8be3_a825,
            0x3626_22dd_1646_9271,
            0xc4ee_4dd8_b9aa_2a64,
            0x17fe_a27d_8857_c85a,
            0x9953_269d_8066_9eb5,
            0xe51f_4e0a_bf5b_85a3,
            0xfab0_c8b0_4fc4_40f3,
            0xae25_65f3_8a02_17a8,
            0xe0ad_e4e6_4a46_2cce,
            0x3424_0473_3fbf_ef8b,
        ];
        let configs = pinned_configs();
        assert_eq!(configs.len(), PINNED.len());
        for (i, (cfg, expected)) in configs.iter().zip(PINNED).enumerate() {
            let hash = (0..50).fold(0xcbf2_9ce4_8422_2325u64, |h, seed| {
                let s = ScenarioSpec::generate(seed, cfg);
                let w = &s.workload;
                let text = format!(
                    "{:?}",
                    (
                        s.family,
                        s.topology.shape,
                        &s.topology.ids,
                        &s.topology.graph,
                        &s.profiles,
                        &s.sources,
                        &s.initial,
                        w.shape,
                        &w.spec,
                        w.final_rate,
                        w.last_change_ns,
                        w.skew_hot_fraction,
                    )
                );
                text.bytes()
                    .fold(h, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
            });
            assert_eq!(
                hash, expected,
                "config {i} ({:?} / {:?} / {:?}): {hash:#018x}",
                cfg.families, cfg.shapes, cfg.workloads
            );
        }
    }

    fn check_optimum_minimal_and_sufficient(seed: u64, cfg: &GeneratorConfig) {
        {
            let s = ScenarioSpec::generate(seed, cfg);
            let targets = s.target_rates(s.workload.final_rate);
            for (&op, &p) in &s.optimal_parallelism() {
                let profile = &s.profiles[&op];
                let rt = targets[&op];
                let sufficient = profile.effective_capacity_split(p, 1) >= rt * (1.0 - 1e-9);
                if !sufficient {
                    // Only a skew plateau justifies an insufficient optimum:
                    // more parallelism must not help.
                    assert!(
                        profile.effective_capacity_split(p + 16, 1)
                            <= profile.effective_capacity_split(p, 1) * (1.0 + 1e-6),
                        "seed {seed}: {op} p={p} insufficient but not plateaued"
                    );
                    continue;
                }
                if p > 1 {
                    assert!(
                        profile.effective_capacity_split(p - 1, 1) < rt,
                        "seed {seed}: {op} p={p} not minimal"
                    );
                }
            }
        }
    }
}
