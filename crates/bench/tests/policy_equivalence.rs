//! Workspace-reuse guard for the dense policy: on metrics windows produced
//! by real simulated runs of generated scenarios, `evaluate_into` with ONE
//! workspace recycled across all of them must produce **bit-identical**
//! plans and estimates to a fresh workspace per window — same floats, same
//! ceilings, same errors.

use ds2_core::deployment::Deployment;
use ds2_core::policy::{Ds2Policy, PolicyConfig, PolicyWorkspace};
use ds2_core::snapshot::MetricsSnapshot;
use ds2_simulator::engine::{EngineConfig, FluidEngine, InstrumentationConfig};
use ds2_simulator::scenarios::{GeneratorConfig, ScenarioSpec};

#[test]
fn reused_workspace_matches_a_fresh_one_on_generated_scenarios() {
    let generator = GeneratorConfig::default();
    let policy = Ds2Policy::with_config(PolicyConfig {
        max_parallelism: Some(64),
        ..Default::default()
    });
    // One workspace across every scenario: cross-scenario reuse must not
    // leak state between windows of *different* graphs either.
    let mut ws = PolicyWorkspace::new();

    let mut evaluated = 0usize;
    for seed in 0..80u64 {
        let spec = ScenarioSpec::generate(seed, &generator);
        let graph = spec.topology.graph.clone();
        let mut engine = FluidEngine::new(
            graph.clone(),
            spec.profiles.clone(),
            spec.sources.clone(),
            spec.initial.clone(),
            EngineConfig {
                instrumentation: InstrumentationConfig::disabled(),
                seed,
                tick_ns: 25_000_000,
                ..Default::default()
            },
        );
        // Two windows: the first warms rates up, the second is evaluated.
        engine.run_for(10_000_000_000);
        let mut snap = MetricsSnapshot::new();
        engine.collect_snapshot_into(&mut snap);
        engine.run_for(10_000_000_000);
        engine.collect_snapshot_into(&mut snap);
        let current: &Deployment = engine.deployment();

        let mut fresh_ws = PolicyWorkspace::new();
        let fresh = policy.evaluate_into(&graph, &snap, current, &mut fresh_ws);
        let reused = policy.evaluate_into(&graph, &snap, current, &mut ws);

        match (fresh, reused) {
            (Ok(a), Ok(b)) => {
                assert_eq!(a.plan, b.plan, "seed {seed}: plans diverged");
                for op in graph.operators() {
                    // OperatorEstimate compares f64 fields exactly: this is
                    // the bit-identity claim, not an approximate one.
                    assert_eq!(
                        a.estimates.get(op),
                        b.estimates.get(op),
                        "seed {seed}: estimates diverged at {op}"
                    );
                }
                evaluated += 1;
            }
            (Err(a), Err(b)) => assert_eq!(a, b, "seed {seed}: errors diverged"),
            (a, b) => panic!("seed {seed}: one workspace failed: {a:?} vs {b:?}"),
        }
    }
    assert!(
        evaluated >= 50,
        "only {evaluated} scenarios produced evaluable windows (need >= 50)"
    );
}
