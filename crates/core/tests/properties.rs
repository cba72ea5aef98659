//! Property-based tests of the DS2 policy (paper §3.4, Properties 1–2).
//!
//! Under the model's "perfect scaling" assumption (true rates change
//! linearly with the number of instances), the policy must prescribe, for
//! every operator, the *minimum* parallelism that sustains the target rate:
//! no overshoot when scaling up, no undershoot when scaling down, and a
//! fixed point (no oscillation) when re-evaluated at the prescribed
//! configuration.
//!
//! Synthetic instrumentation is *canonical*: every instance of an operator
//! reports the same integer counters regardless of deployment, so the
//! capacity the policy measures is bit-for-bit identical across snapshots
//! and the properties are checked against exactly what the policy saw.

use ds2_core::hardened::Hardened;
use ds2_core::prelude::*;
use proptest::prelude::*;

/// A randomly generated layered dataflow with per-operator capacity and
/// selectivity, plus an initial uniform parallelism.
#[derive(Debug, Clone)]
struct Scenario {
    /// Number of operators per layer; layer 0 is the single source layer.
    layers: Vec<usize>,
    /// Per-operator per-instance true processing capacity (records/s).
    capacities: Vec<f64>,
    /// Per-operator selectivity (output records per input record).
    selectivities: Vec<f64>,
    /// Offered source rate (records/s).
    source_rate: f64,
    /// Initial parallelism for every operator.
    initial_parallelism: usize,
}

impl Scenario {
    /// Canonical per-instance counters for operator `idx`: `records_in` over
    /// exactly one second of useful time, so the measured true processing
    /// rate is the integer `records_in` and the measured selectivity is the
    /// exact ratio `records_out / records_in`.
    fn canonical_counters(&self, idx: usize) -> (u64, u64) {
        let rin = self.capacities[idx].round().max(1.0) as u64;
        let rout = (rin as f64 * self.selectivities[idx]).round() as u64;
        (rin, rout)
    }

    /// The capacity and selectivity the policy will measure for `idx`.
    fn measured(&self, idx: usize) -> (f64, f64) {
        let (rin, rout) = self.canonical_counters(idx);
        (rin as f64, rout as f64 / rin as f64)
    }
}

fn scenario_strategy() -> impl Strategy<Value = Scenario> {
    proptest::collection::vec(1usize..=3, 1..=3)
        .prop_flat_map(|hidden_layers| {
            let mut layers = vec![1usize];
            layers.extend(hidden_layers);
            let n_ops = layers.iter().sum::<usize>();
            (
                Just(layers),
                proptest::collection::vec(10.0f64..10_000.0, n_ops),
                proptest::collection::vec(0.05f64..5.0, n_ops),
                100.0f64..100_000.0,
                1usize..=6,
            )
        })
        .prop_map(
            |(layers, capacities, selectivities, source_rate, initial_parallelism)| Scenario {
                layers,
                capacities,
                selectivities,
                source_rate,
                initial_parallelism,
            },
        )
}

/// Builds the layered graph: every operator connects to every operator of
/// the next layer (paper semantics: each downstream receives the full
/// upstream output, `weight = 1`).
fn build_graph(sc: &Scenario) -> (LogicalGraph, Vec<OperatorId>) {
    let mut b = GraphBuilder::new();
    let mut ids = Vec::new();
    for (l, &n) in sc.layers.iter().enumerate() {
        for i in 0..n {
            ids.push(b.operator(format!("l{l}_{i}")));
        }
    }
    let mut offset = 0usize;
    for w in sc.layers.windows(2) {
        let (a, bn) = (w[0], w[1]);
        for i in 0..a {
            for j in 0..bn {
                b.connect(ids[offset + i], ids[offset + a + j]);
            }
        }
        offset += a;
    }
    (b.build().unwrap(), ids)
}

/// Ideal-linear-scaling targets, replicating Eq. 7/8 arithmetic from the
/// *measured* capacities and selectivities: an independent expectation of
/// each operator's input rate under optimal upstream provisioning.
fn ground_truth_targets(sc: &Scenario, graph: &LogicalGraph, ids: &[OperatorId]) -> Vec<f64> {
    let mut out_rate = vec![0.0f64; ids.len()];
    let mut targets = vec![0.0f64; ids.len()];
    for (idx, &op) in ids.iter().enumerate() {
        if graph.is_source(op) {
            out_rate[idx] = sc.source_rate;
            targets[idx] = sc.source_rate;
        } else {
            let rt: f64 = graph
                .upstream_edges(op)
                .map(|e| out_rate[e.from.index()])
                .sum();
            let (_, sel) = sc.measured(idx);
            targets[idx] = rt;
            out_rate[idx] = rt * sel;
        }
    }
    targets
}

/// Builds a snapshot in which every instance of every operator reports its
/// canonical counters: measured rates are deployment-independent, which is
/// precisely the paper's linear-scaling assumption.
fn build_snapshot(
    sc: &Scenario,
    graph: &LogicalGraph,
    ids: &[OperatorId],
    deployment: &Deployment,
) -> MetricsSnapshot {
    let mut snap = MetricsSnapshot::new();
    for (idx, &op) in ids.iter().enumerate() {
        let p = deployment.parallelism(op);
        if graph.is_source(op) {
            snap.set_source_rate(op, sc.source_rate);
            let inst = InstanceMetrics {
                records_in: 0,
                records_out: (sc.source_rate / p as f64).round() as u64,
                useful_ns: 500_000_000,
                window_ns: 1_000_000_000,
                ..Default::default()
            };
            snap.insert_instances(op, vec![inst; p]);
            continue;
        }
        let (rin, rout) = sc.canonical_counters(idx);
        let inst = InstanceMetrics {
            records_in: rin,
            records_out: rout,
            useful_ns: 1_000_000_000,
            window_ns: 2_000_000_000,
            ..Default::default()
        };
        snap.insert_instances(op, vec![inst; p]);
    }
    snap
}

/// The default policy's plan for one window, in a fresh workspace.
fn evaluate(graph: &LogicalGraph, snap: &MetricsSnapshot, current: &Deployment) -> PolicyOutput {
    Ds2Policy::new()
        .evaluate_into(graph, snap, current, &mut PolicyWorkspace::new())
        .unwrap()
        .clone()
}

const TOL: f64 = 1e-6;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Properties 1 & 2: the prescribed parallelism sustains the target rate
    /// and is minimal — `π·c >= rt` and `(π-1)·c < rt` (unless clamped at 1).
    #[test]
    fn plan_is_minimal_and_sufficient(sc in scenario_strategy()) {
        let (graph, ids) = build_graph(&sc);
        let deployment = Deployment::uniform(&graph, sc.initial_parallelism);
        let snap = build_snapshot(&sc, &graph, &ids, &deployment);
        let out = evaluate(&graph, &snap, &deployment);
        let targets = ground_truth_targets(&sc, &graph, &ids);

        for (idx, &op) in ids.iter().enumerate() {
            if graph.is_source(op) { continue; }
            let pi = out.plan.parallelism(op) as f64;
            let (c, _) = sc.measured(idx);
            let rt = targets[idx];
            if rt <= TOL {
                prop_assert_eq!(out.plan.parallelism(op), 1);
                continue;
            }
            // No undershoot: the plan sustains the target.
            prop_assert!(
                pi * c >= rt * (1.0 - TOL),
                "op {}: {} instances x {} < target {}", idx, pi, c, rt
            );
            // No overshoot: one fewer instance would miss the target.
            if out.plan.parallelism(op) > 1 {
                prop_assert!(
                    (pi - 1.0) * c < rt * (1.0 + TOL),
                    "op {}: {} instances overshoot target {} at capacity {}", idx, pi, rt, c
                );
            }
        }
    }

    /// Stability: with perfect linear scaling, re-measuring at the
    /// prescribed configuration reproduces the same plan (a fixed point,
    /// hence no oscillation — §3.4).
    #[test]
    fn plan_is_fixed_point(sc in scenario_strategy()) {
        let (graph, ids) = build_graph(&sc);
        let deployment = Deployment::uniform(&graph, sc.initial_parallelism);
        let snap = build_snapshot(&sc, &graph, &ids, &deployment);
        let first = evaluate(&graph, &snap, &deployment);

        let snap2 = build_snapshot(&sc, &graph, &ids, &first.plan);
        let second = evaluate(&graph, &snap2, &first.plan);

        for &op in &ids {
            if graph.is_source(op) { continue; }
            prop_assert_eq!(
                first.plan.parallelism(op),
                second.plan.parallelism(op),
                "oscillation on {}", op
            );
        }
    }

    /// Accuracy is independent of the starting point: severely under- and
    /// over-provisioned starts both land on the same plan in one step,
    /// because true rates expose per-instance capacity either way (§5.5).
    #[test]
    fn start_point_does_not_matter(sc in scenario_strategy()) {
        let (graph, ids) = build_graph(&sc);
        let d1 = Deployment::uniform(&graph, 1);
        let snap1 = build_snapshot(&sc, &graph, &ids, &d1);
        let from_below = evaluate(&graph, &snap1, &d1);

        let d_big = Deployment::uniform(&graph, 64);
        let snap_big = build_snapshot(&sc, &graph, &ids, &d_big);
        let from_above = evaluate(&graph, &snap_big, &d_big);

        for &op in &ids {
            if graph.is_source(op) { continue; }
            prop_assert_eq!(
                from_below.plan.parallelism(op),
                from_above.plan.parallelism(op),
                "under- and over-provisioned starts disagree on {}", op
            );
        }
    }

    /// Rate arithmetic invariant: observed rates never exceed true rates,
    /// for arbitrary counter values with `Wu <= W`.
    #[test]
    fn observed_bounded_by_true(
        records_in in 0u64..1_000_000,
        records_out in 0u64..1_000_000,
        useful in 1u64..1_000_000_000,
        slack in 0u64..1_000_000_000,
    ) {
        let m = InstanceMetrics {
            records_in,
            records_out,
            useful_ns: useful,
            window_ns: useful + slack,
            ..Default::default()
        };
        let tp = m.true_processing_rate().unwrap();
        let op_ = m.observed_processing_rate().unwrap();
        let to = m.true_output_rate().unwrap();
        let oo = m.observed_output_rate().unwrap();
        prop_assert!(op_ <= tp * (1.0 + 1e-12));
        prop_assert!(oo <= to * (1.0 + 1e-12));
        prop_assert!(m.validate().is_ok());
    }

    /// Merging windows preserves totals and keeps rates between the merged
    /// windows' rates.
    #[test]
    fn merge_preserves_rate_bounds(
        a_in in 1u64..100_000, a_useful in 1u64..1_000_000_000,
        b_in in 1u64..100_000, b_useful in 1u64..1_000_000_000,
    ) {
        let a = InstanceMetrics {
            records_in: a_in, useful_ns: a_useful, window_ns: 1_000_000_000,
            ..Default::default()
        };
        let b = InstanceMetrics {
            records_in: b_in, useful_ns: b_useful, window_ns: 1_000_000_000,
            ..Default::default()
        };
        let mut m = a;
        m.merge(&b);
        let ra = a.true_processing_rate().unwrap();
        let rb = b.true_processing_rate().unwrap();
        let rm = m.true_processing_rate().unwrap();
        let (lo, hi) = if ra <= rb { (ra, rb) } else { (rb, ra) };
        prop_assert!(rm >= lo * (1.0 - 1e-12) && rm <= hi * (1.0 + 1e-12),
            "merged rate {} outside [{}, {}]", rm, lo, hi);
    }

    /// Idempotence: a deployment the policy itself prescribed is a fixed
    /// point — evaluated *at* the prescribed configuration (with metrics
    /// re-measured there), the policy prescribes exactly that
    /// configuration again. This is the §3.4 no-oscillation guarantee
    /// stated directly on the converged deployment.
    #[test]
    fn converged_deployment_prescribes_itself(sc in scenario_strategy()) {
        let (graph, ids) = build_graph(&sc);
        let start = Deployment::uniform(&graph, sc.initial_parallelism);
        let snap = build_snapshot(&sc, &graph, &ids, &start);
        let converged = evaluate(&graph, &snap, &start).plan;

        let snap_at = build_snapshot(&sc, &graph, &ids, &converged);
        let again = evaluate(&graph, &snap_at, &converged)
            .plan;
        for &op in &ids {
            if graph.is_source(op) { continue; }
            prop_assert_eq!(
                again.parallelism(op),
                converged.parallelism(op),
                "policy is not idempotent on {}", op
            );
        }
    }

    /// Monotonicity: raising the offered source rate never prescribes
    /// *fewer* instances for any operator (Property 1's practical
    /// consequence — more load can only need more capacity).
    #[test]
    fn higher_rate_never_prescribes_fewer_instances(
        sc in scenario_strategy(),
        factor in 1.01f64..16.0,
    ) {
        let (graph, ids) = build_graph(&sc);
        let deployment = Deployment::uniform(&graph, sc.initial_parallelism);
        let snap = build_snapshot(&sc, &graph, &ids, &deployment);
        let base = evaluate(&graph, &snap, &deployment);

        let mut boosted_sc = sc.clone();
        boosted_sc.source_rate *= factor;
        let snap_hi = build_snapshot(&boosted_sc, &graph, &ids, &deployment);
        let boosted = evaluate(&graph, &snap_hi, &deployment);

        for &op in &ids {
            if graph.is_source(op) { continue; }
            prop_assert!(
                boosted.plan.parallelism(op) >= base.plan.parallelism(op),
                "rate x{} shrank {} from {} to {}",
                factor, op,
                base.plan.parallelism(op),
                boosted.plan.parallelism(op)
            );
        }
    }

    /// Scaling the source rate by an integer factor scales every target
    /// rate by the same factor (linearity of Eq. 8).
    #[test]
    fn targets_scale_linearly_with_source_rate(sc in scenario_strategy(), k in 2u32..=8) {
        let (graph, ids) = build_graph(&sc);
        let deployment = Deployment::uniform(&graph, sc.initial_parallelism);
        let snap = build_snapshot(&sc, &graph, &ids, &deployment);
        let base = evaluate(&graph, &snap, &deployment);

        let mut scaled = sc.clone();
        scaled.source_rate *= k as f64;
        let snap_k = build_snapshot(&scaled, &graph, &ids, &deployment);
        let boosted = evaluate(&graph, &snap_k, &deployment);

        for &op in &ids {
            if graph.is_source(op) { continue; }
            let a = base.estimates[&op].target_rate;
            let b = boosted.estimates[&op].target_rate;
            prop_assert!((b - a * k as f64).abs() <= (a * k as f64).abs() * 1e-9 + 1e-9,
                "target for {} not linear: {} vs {}x{}", op, b, a, k);
        }
    }

    /// Fault-free `Hardened` ≡ bare `ScalingManager`: over any sequence of
    /// valid snapshots — load changes, achieved-rate dips that provoke
    /// boosts and rollbacks — with every rescale landing and acknowledged
    /// before the next interval, both emit the identical verdict sequence
    /// and the wrapper counts no fault. Sequences cross warm-up, the
    /// awaiting state and activation windows, which pins the wrapper's
    /// ordering: nothing is sanitised, aged or vetoed on a window the
    /// manager would not have decided on.
    #[test]
    fn fault_free_hardened_equals_bare_manager(
        sc in scenario_strategy(),
        warmup_intervals in 0u32..=2,
        activation_intervals in 1u32..=3,
        min_change in 0usize..=2,
        steps in proptest::collection::vec((0.25f64..4.0, 0.3f64..1.0), 30),
    ) {
        let (graph, ids) = build_graph(&sc);
        let config = ManagerConfig {
            warmup_intervals,
            activation_intervals,
            min_change,
            policy: PolicyConfig { max_parallelism: Some(64), ..Default::default() },
            ..Default::default()
        };
        let mut bare = ScalingManager::new(graph.clone(), config.clone());
        let mut hardened = Hardened::new(ScalingManager::new(graph.clone(), config));
        let mut current = Deployment::uniform(&graph, sc.initial_parallelism);

        for (t, &(load, achieved)) in steps.iter().enumerate() {
            let mut step = sc.clone();
            step.source_rate *= load;
            let mut snap = build_snapshot(&step, &graph, &ids, &current);
            for &src in graph.sources() {
                for inst in &mut snap.operator_mut(src).unwrap().instances {
                    inst.records_out = (inst.records_out as f64 * achieved) as u64;
                }
            }
            prop_assert!(snap.validate(&graph, &current).is_ok());

            let t = t as u64;
            let verdict = bare.on_metrics(t, &snap, &current);
            prop_assert_eq!(&hardened.on_metrics(t, &snap, &current), &verdict, "interval {}", t);
            if let ControllerVerdict::Rescale(plan) = verdict {
                current = plan;
                bare.on_deployed(t, &current);
                hardened.on_deployed(t, &current);
            }
        }
        prop_assert_eq!(hardened.fault_stats(), ControllerFaultStats::default());
        prop_assert_eq!(hardened.manager().decisions_made(), bare.decisions_made());
        prop_assert_eq!(hardened.manager().is_converged(), bare.is_converged());
    }
}
