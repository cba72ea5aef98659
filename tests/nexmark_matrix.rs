//! Golden-shape tests for the nexmark scenario family: the simulator's
//! lowering (`ds2_simulator::scenarios::nexmark`) keeps each query's
//! windows and hot-key classes, and DS2's converged parallelism on the
//! reference scenarios is consistent with the paper's reported per-query
//! configurations (`NexmarkQuery::reference_parallelism`). The lowering
//! and `ds2_nexmark::profiles::setup` build from the same
//! `NexmarkQuery::plan`, so their topologies agree by construction.

use ds2::nexmark::profiles::{setup, Target};
use ds2::simulator::profile::OutputMode;
use ds2::simulator::scenarios::nexmark::reference_spec;
use ds2::simulator::scenarios::{
    CellArena, ControllerKind, GeneratorConfig, MatrixConfig, NexmarkQuery, ScenarioFamily,
    ScenarioMatrix, ScenarioSpec, WorkloadShape,
};

fn family_config(q: NexmarkQuery) -> GeneratorConfig {
    GeneratorConfig {
        families: vec![ScenarioFamily::Nexmark(q)],
        run_duration_ns: 200_000_000_000,
        ..Default::default()
    }
}

/// Golden windows and skew classes: windowed queries lower to windowed
/// mains (period drawn from the pinned per-query set, dividing the 10 s
/// policy interval) and match the nexmark crate's windowing; keyed mains
/// carry the hot-key class under skewed workloads, stateless ones never.
#[test]
fn lowered_windows_and_skew_classes_are_pinned() {
    let expected_periods: [(NexmarkQuery, &[u64]); 6] = [
        (NexmarkQuery::Q1, &[]),
        (NexmarkQuery::Q2, &[]),
        (NexmarkQuery::Q3, &[]),
        (
            NexmarkQuery::Q5,
            &[1_000_000_000, 2_000_000_000, 2_500_000_000],
        ),
        (NexmarkQuery::Q8, &[1_000_000_000, 2_000_000_000]),
        (
            NexmarkQuery::Q11,
            &[500_000_000, 1_000_000_000, 2_000_000_000],
        ),
    ];
    for (q, periods) in expected_periods {
        assert_eq!(q.window_periods(), periods, "{q:?}: period set drifted");
        let reference = setup(q, Target::Flink);
        let reference_windowed = matches!(
            reference.profiles[&reference.main_operator].output,
            OutputMode::Windowed { .. }
        );
        assert_eq!(q.is_windowed(), reference_windowed, "{q:?}");

        for seed in 0..6 {
            let spec = ScenarioSpec::generate(seed, &family_config(q));
            let main = spec
                .topology
                .graph
                .by_name(q.main_operator_name())
                .expect("main operator present");
            match spec.profiles[&main].output {
                OutputMode::Windowed { period_ns, .. } => {
                    assert!(q.is_windowed(), "{q:?} seed {seed}: unexpectedly windowed");
                    assert!(periods.contains(&period_ns), "{q:?} seed {seed}");
                    assert_eq!(10_000_000_000 % period_ns, 0, "{q:?} seed {seed}");
                }
                OutputMode::PerRecord { .. } => {
                    assert!(!q.is_windowed(), "{q:?} seed {seed}: should be windowed");
                }
            }
        }

        // Skew classes under a hot-key workload.
        let skew_config = GeneratorConfig {
            families: vec![ScenarioFamily::Nexmark(q)],
            workloads: vec![WorkloadShape::KeySkew],
            ..Default::default()
        };
        let spec = ScenarioSpec::generate(2, &skew_config);
        let main = spec.topology.graph.by_name(q.main_operator_name()).unwrap();
        assert_eq!(
            spec.profiles[&main].skew_hot_fraction.is_some(),
            q.keyed_main(),
            "{q:?}: hot-key class on the wrong operator kind"
        );
    }
}

/// DS2's converged parallelism on the reference scenarios is consistent
/// with the paper's reported ordering: queries the paper provisions higher
/// converge higher (strictly, across distinct expected values), ties stay
/// within one instance, and every converged main lands within one instance
/// of the paper's reported parallelism.
#[test]
fn ds2_convergence_is_consistent_with_expected_flink_ordering() {
    let matrix = ScenarioMatrix::new(MatrixConfig {
        controllers: vec![ControllerKind::Ds2],
        generator: GeneratorConfig {
            run_duration_ns: 200_000_000_000,
            ..Default::default()
        },
        ..Default::default()
    });
    let mut arena = CellArena::new();
    let mut converged = Vec::new();
    for q in NexmarkQuery::ALL {
        let spec = reference_spec(q, 2_000.0, 200_000_000_000);
        let main = spec.topology.graph.by_name(q.main_operator_name()).unwrap();
        // The analytic optimum of the reference scenario *is* the paper's
        // reported configuration.
        assert_eq!(
            spec.optimal_parallelism()[&main],
            q.reference_parallelism(),
            "{q:?}: reference optimum off the paper's parallelism"
        );
        let result = matrix.run_one_raw(&spec, ControllerKind::Ds2, &mut arena);
        let p = result.final_deployment.parallelism(main);
        let expected = q.reference_parallelism();
        assert!(
            (p as i64 - expected as i64).abs() <= 1,
            "{q:?}: converged {p}, paper reports {expected}"
        );
        converged.push((q, expected, p));
    }
    for &(qa, ea, pa) in &converged {
        for &(qb, eb, pb) in &converged {
            if ea < eb {
                assert!(
                    pa < pb,
                    "{qa:?} (expected {ea}, converged {pa}) not below \
                     {qb:?} (expected {eb}, converged {pb})"
                );
            } else if ea == eb {
                assert!(
                    (pa as i64 - pb as i64).abs() <= 1,
                    "{qa:?}/{qb:?}: tied expectations diverged ({pa} vs {pb})"
                );
            }
        }
    }
}
