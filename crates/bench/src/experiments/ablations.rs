//! Ablations beyond the paper's figures, probing the design choices
//! DESIGN.md calls out:
//!
//! 1. **Overhead model off** — with perfectly linear scaling curves DS2
//!    converges in a single step (the paper's Property 1/2 ideal); the 2–3
//!    step behaviour of Table 4 is entirely attributable to sub-linear
//!    scaling and hidden overheads.
//! 2. **Heron queue size** — Dhalion's reaction time scales with operator
//!    queue capacity (§5.2's explanation of its slowness).
//! 3. **Baseline shoot-out** — threshold and queueing-theory controllers on
//!    the word count, versus DS2 (Table 1's policy families, executable).
//! 4. **Timely summation rule** — §4.3's worker count (sum of per-operator
//!    requirements) versus the naive maximum.

use std::collections::BTreeMap;

use ds2_baselines::dhalion::{DhalionConfig, DhalionController};
use ds2_baselines::queueing::QueueingController;
use ds2_baselines::threshold::ThresholdController;
use ds2_core::deployment::Deployment;
use ds2_core::policy::{Ds2Policy, PolicyWorkspace};
use ds2_core::snapshot::MetricsSnapshot;
use ds2_nexmark::profiles::{setup, QueryId, Target};
use ds2_simulator::engine::{EngineConfig, EngineMode, FluidEngine, InstrumentationConfig};
use ds2_simulator::profile::ScalingCurve;

use crate::output::render_table;
use crate::runners::{convergence_manager_config, run_controller, run_ds2};

/// Ablation 1: Table 4 cells with the overhead model disabled (linear
/// scaling, no hidden cost). Returns `(query, initial, steps)` rows.
pub(crate) fn linear_scaling_ablation(duration_ns: u64) -> (Vec<(QueryId, usize, usize)>, String) {
    let mut rows = Vec::new();
    for q in [QueryId::Q1, QueryId::Q3, QueryId::Q11] {
        for &init in &[8usize, 28] {
            let s = setup(q, Target::Flink);
            let mut profiles = s.profiles.clone();
            // Strip overheads: linear curves, no hidden cost. Recalibrate
            // the base cost to the capacity at p* so the optimum is
            // unchanged.
            for (_, p) in profiles.iter_mut() {
                let at_star = p.instrumented_cost_ns(s.expected);
                p.scaling = ScalingCurve::Linear;
                p.hidden_ns = 0.0;
                p.proc_ns = at_star;
            }
            let deployment = Deployment::uniform(&s.graph, init);
            let cfg = EngineConfig {
                mode: EngineMode::Flink,
                tick_ns: 25_000_000,
                per_instance_queue: 20_000.0,
                reconfig_latency_ns: 30_000_000_000,
                ..Default::default()
            };
            let engine = FluidEngine::new(s.graph, profiles, s.sources, deployment, cfg);
            let result = run_ds2(engine, convergence_manager_config(), duration_ns);
            let steps = result.parallelism_steps(s.main_operator, init).len() - 1;
            rows.push((q, init, steps));
        }
    }
    let table_rows: Vec<Vec<String>> = rows
        .iter()
        .map(|(q, i, s)| vec![q.name().into(), i.to_string(), s.to_string()])
        .collect();
    let report = format!(
        "Ablation 1 — linear scaling (overhead model off): steps collapse to <=1\n{}",
        render_table(&["query", "initial", "steps"], &table_rows)
    );
    (rows, report)
}

/// Ablation 2: Dhalion reaction time vs Heron queue capacity.
pub(crate) fn heron_queue_ablation(duration_ns: u64) -> (Vec<(f64, Option<f64>)>, String) {
    let mut rows = Vec::new();
    for &queue in &[250_000.0f64, 1_000_000.0, 4_000_000.0] {
        let (graph, ops) = crate::wordcount::wordcount_graph();
        let per_sec = 1.0 / 60.0;
        let mut profiles = ds2_simulator::profile::ProfileMap::new();
        profiles.insert(
            ops.flat_map,
            ds2_simulator::profile::OperatorProfile::with_capacity(100_000.0 * per_sec, 20.0),
        );
        profiles.insert(
            ops.count,
            ds2_simulator::profile::OperatorProfile::with_capacity(1_000_000.0 * per_sec, 1.0),
        );
        let mut sources = BTreeMap::new();
        sources.insert(
            ops.source,
            ds2_simulator::source::SourceSpec::constant(1_000_000.0 * per_sec),
        );
        let mut deployment = Deployment::uniform(&graph, 1);
        deployment.set(ops.flat_map, 1);
        deployment.set(ops.count, 1);
        let cfg = EngineConfig {
            mode: EngineMode::Heron,
            heron_per_instance_queue: queue,
            reconfig_latency_ns: 40_000_000_000,
            tick_ns: 50_000_000,
            instrumentation: InstrumentationConfig::disabled(),
            ..Default::default()
        };
        let engine = FluidEngine::new(graph.clone(), profiles, sources, deployment, cfg);
        let controller = DhalionController::new(graph, DhalionConfig::default());
        let result = run_controller(engine, controller, 60_000_000_000, duration_ns);
        let first = result.decisions.first().map(|d| d.at_ns as f64 / 1e9);
        rows.push((queue, first));
    }
    let table_rows: Vec<Vec<String>> = rows
        .iter()
        .map(|(q, t)| {
            vec![
                format!("{:.0}K", q / 1e3),
                t.map(|t| format!("{t:.0}s")).unwrap_or("never".into()),
            ]
        })
        .collect();
    let report = format!(
        "Ablation 2 — Dhalion first reaction vs Heron queue capacity\n{}",
        render_table(&["queue/instance (records)", "first decision"], &table_rows)
    );
    (rows, report)
}

/// Ablation 3: controller shoot-out on the Flink word count.
pub(crate) fn controller_shootout(duration_ns: u64) -> String {
    let mk_engine = || {
        let (engine, ops) = crate::wordcount::skewed_flink_benchmark(0.0, (1, 1));
        (engine, ops)
    };

    let mut rows = Vec::new();
    // DS2.
    {
        let (engine, ops) = mk_engine();
        let cfg = ds2_core::manager::ManagerConfig {
            policy_interval_ns: 10_000_000_000,
            warmup_intervals: 1,
            min_change: 1,
            ..Default::default()
        };
        let result = run_ds2(engine, cfg, duration_ns);
        rows.push(vec![
            "ds2".to_string(),
            result.decisions.len().to_string(),
            result
                .final_deployment
                .parallelism(ops.flat_map)
                .to_string(),
            result.final_deployment.parallelism(ops.count).to_string(),
            format!("{:.2}", result.final_achieved_ratio(20)),
        ]);
    }
    // Threshold.
    {
        let (engine, ops) = mk_engine();
        let controller = ThresholdController::with_defaults(engine.graph().clone());
        let result = run_controller(engine, controller, 10_000_000_000, duration_ns);
        rows.push(vec![
            "threshold".to_string(),
            result.decisions.len().to_string(),
            result
                .final_deployment
                .parallelism(ops.flat_map)
                .to_string(),
            result.final_deployment.parallelism(ops.count).to_string(),
            format!("{:.2}", result.final_achieved_ratio(20)),
        ]);
    }
    // Queueing theory.
    {
        let (engine, ops) = mk_engine();
        let controller = QueueingController::with_defaults(engine.graph().clone());
        let result = run_controller(engine, controller, 10_000_000_000, duration_ns);
        rows.push(vec![
            "queueing".to_string(),
            result.decisions.len().to_string(),
            result
                .final_deployment
                .parallelism(ops.flat_map)
                .to_string(),
            result.final_deployment.parallelism(ops.count).to_string(),
            format!("{:.2}", result.final_achieved_ratio(20)),
        ]);
    }
    format!(
        "Ablation 3 — controller shoot-out (Flink word count, 1M/s; optimal fm=10, cnt=16)\n{}",
        render_table(
            &["controller", "decisions", "flat_map", "count", "achieved"],
            &rows
        )
    )
}

/// Ablation 4: the §4.3 summation rule vs the naive per-operator maximum
/// on Timely.
pub(crate) fn timely_rule_ablation(duration_ns: u64) -> String {
    let mut rows = Vec::new();
    for q in [QueryId::Q3, QueryId::Q5] {
        // Indicated plan from a generous run.
        let s = setup(q, Target::Timely);
        let graph = s.graph.clone();
        let cfg = EngineConfig {
            mode: EngineMode::Timely,
            timely_workers: 16,
            tick_ns: 10_000_000,
            ..Default::default()
        };
        let mut engine = FluidEngine::new(
            s.graph,
            s.profiles,
            s.sources,
            Deployment::uniform(&graph, 1),
            cfg,
        );
        engine.run_for(10_000_000_000);
        let mut snap = MetricsSnapshot::new();
        engine.collect_snapshot_into(&mut snap);
        engine.run_for(20_000_000_000);
        engine.collect_snapshot_into(&mut snap);
        let mut ws = PolicyWorkspace::new();
        let out = Ds2Policy::new()
            .evaluate_into(&graph, &snap, engine.deployment(), &mut ws)
            .expect("policy evaluates");
        let sum_rule = out.timely_total_workers(&graph);
        let max_rule = graph
            .operators()
            .filter(|op| !graph.is_source(*op))
            .map(|op| out.plan.parallelism(op))
            .max()
            .unwrap_or(1);

        // Run both configurations and compare epoch completion.
        let frac_within = |workers: usize| {
            let s = setup(q, Target::Timely);
            let cfg = EngineConfig {
                mode: EngineMode::Timely,
                timely_workers: workers,
                tick_ns: 10_000_000,
                ..Default::default()
            };
            let mut engine = FluidEngine::new(
                s.graph.clone(),
                s.profiles,
                s.sources,
                Deployment::uniform(&s.graph, 1),
                cfg,
            );
            engine.run_for(duration_ns);
            1.0 - engine.epochs().recorder().fraction_above(1_000_000_000)
        };
        rows.push(vec![
            q.name().to_string(),
            format!("{sum_rule} ({:.0}% <=1s)", frac_within(sum_rule) * 100.0),
            format!("{max_rule} ({:.0}% <=1s)", frac_within(max_rule) * 100.0),
        ]);
    }
    format!(
        "Ablation 4 — Timely worker count: §4.3 summation vs naive max\n{}",
        render_table(&["query", "sum rule", "max rule"], &rows)
    )
}
