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
    /// [`StateProfile::budget_per_instance_bytes`] across profiles, or
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
    pub fn target_rates(&self, source_rate: f64) -> BTreeMap<OperatorId, f64> {
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
            0x89ba_7a1e_4916_8638,
            0xd90b_9bbc_dd88_d36d,
            0xf77e_25d2_b2de_650d,
            0x2fd6_b0ea_6966_095c,
            0x4109_5e31_3bfe_714f,
            0x1aa4_226a_5403_42d8,
            0x90a9_9054_13c2_2b58,
            0xe864_1319_89b1_2348,
            0x51b5_4291_903d_e96d,
            0xc3d0_469e_7512_7218,
            0x1ca0_e43d_82cc_ff05,
            0xd2e7_4068_f6e1_15da,
            0x5323_a49a_81ea_f4da,
            0x5589_68c3_81d9_ef93,
            0xccc7_d666_97aa_04af,
            0x3483_caef_392b_4009,
            0xa34b_1d67_2d94_80ca,
            0xb21a_ac57_7f36_1310,
            0xfd62_8fb2_3f3f_836c,
            0xeee7_5323_a3ca_0e25,
            0x8762_af26_d4bc_536c,
            0x5866_6956_ec6f_b683,
            0xe82c_c191_fb44_4523,
            0x7d9b_4b7f_3ab5_1b39,
            0xa2b7_d067_264f_5c81,
            0x6ad0_ad51_4f66_3c7e,
            0x2580_7711_fea7_2b79,
            0xc742_ff6d_4bc0_9a4d,
            0xff3e_4b5a_5297_000c,
            0xdc4d_1ed6_cba7_827d,
            0x606b_737d_f96b_b847,
            0xd331_0f7a_7d3e_f6c1,
            0x5b56_4578_f3ec_e884,
            0x529b_415e_ad1a_cf9a,
            0xbe41_25cd_b587_b28e,
            0x678d_12df_58d6_54fb,
            0xb694_d710_e1aa_b9e9,
            0x8200_ac57_2003_0bf2,
            0x040b_1c35_f2f1_5489,
            0x3a58_f45f_59d6_01e8,
            0x3960_8c79_b5af_4314,
            0xba45_a99f_65cb_91dd,
            0x97b6_a47d_f1fc_9297,
            0xf46a_25af_a8fb_ad44,
            0x2bc3_2ec1_529a_c8ef,
            0x1719_798c_435e_7f44,
            0x624f_fb9a_d581_3f20,
            0x7b08_63fe_9f49_77d0,
            0xba93_752b_173f_2f50,
            0x5a84_dd01_9e8b_747e,
            0xa4fb_8f6e_325c_d6b9,
            0xf446_9140_8fd7_0233,
            0x03e2_2ac3_b3ff_889b,
            0xdacd_afc2_c82d_8a1b,
            0x54ba_bfa0_2a0e_e588,
            0x3411_5d20_bc27_4469,
            0xcd12_f36c_0ad8_f45d,
            0x5849_3d2c_b189_ff39,
            0x61c1_5219_ec99_183d,
            0xba1c_861a_0c32_8d16,
            0x5401_759f_233b_1941,
            0xea4d_e231_0627_aa2e,
            0xffb6_0f41_4878_faa8,
            0xea13_be73_a75a_707a,
            0x695a_8c7b_8293_e6c1,
            0x4582_d49b_3817_4275,
            0x1f6d_bcdf_4410_a502,
            0x252b_5106_2b95_f771,
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
