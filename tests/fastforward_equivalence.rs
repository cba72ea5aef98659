//! The fast-forward equivalence guarantee, end to end: a closed-loop run
//! with macro-tick fast-forward enabled produces a `RunResult` — timeline,
//! decisions, final deployment, faults — **equal** (every float with exact
//! `f64` equality) to the same run executed tick by tick. The matrix runs
//! engines that track no latency, the only ones that probe; tracking
//! engines replay nothing but halts, and the harness's own tests compare
//! their latency samples and epochs.
//!
//! Fast-forward only ever replays transitions it *proved* repeat exactly
//! (see `ds2_simulator::fastforward`), so any divergence here is a bug in
//! the proof obligations, not an accuracy trade-off. The property is
//! checked across generated scenarios from every topology family and all
//! of the matrix workload families — including runs with multiple
//! rescales, which exercise invalidation (`request_rescale` cancels
//! replay), halt windows and post-deploy re-probing.

use ds2::simulator::scenarios::{
    CellArena, ControllerKind, FaultProfile, GeneratorConfig, MatrixConfig, NexmarkQuery,
    ScenarioFamily, ScenarioMatrix, ScenarioSpec, TopologyShape, WorkloadShape,
};

fn matrix(fast_forward: bool, generator: GeneratorConfig) -> ScenarioMatrix {
    faulted_matrix(fast_forward, generator, FaultProfile::None)
}

fn faulted_matrix(
    fast_forward: bool,
    generator: GeneratorConfig,
    faults: FaultProfile,
) -> ScenarioMatrix {
    ScenarioMatrix::new(MatrixConfig {
        scenarios: 1,
        controllers: vec![ControllerKind::Ds2],
        generator,
        fast_forward,
        faults,
        ..Default::default()
    })
}

/// Fast-forward on vs off (`--exact`) is bit-identical across ≥50
/// generated scenarios covering every topology and workload family.
#[test]
fn fastforward_runresults_are_bit_identical_across_scenarios() {
    let generator = GeneratorConfig {
        shapes: TopologyShape::ALL.to_vec(),
        workloads: WorkloadShape::ALL.to_vec(),
        run_duration_ns: 200_000_000_000,
        ..Default::default()
    };
    let fast = matrix(true, generator.clone());
    let exact = matrix(false, generator.clone());
    let mut arena_fast = CellArena::new();
    let mut arena_exact = CellArena::new();

    let mut with_rescales = 0usize;
    for seed in 0..60u64 {
        let spec = ScenarioSpec::generate(seed, &generator);
        let a = fast.run_one_raw(&spec, ControllerKind::Ds2, &mut arena_fast);
        let b = exact.run_one_raw(&spec, ControllerKind::Ds2, &mut arena_exact);
        assert_eq!(
            a,
            b,
            "seed {} ({} / {}): fast-forward diverged from exact execution",
            seed,
            spec.topology.shape.name(),
            spec.workload.shape.name(),
        );
        if !a.decisions.is_empty() {
            with_rescales += 1;
        }
    }
    // The property is only meaningful if the sample exercises rescales
    // (fast-forward invalidation + halt windows + re-probing).
    assert!(
        with_rescales >= 20,
        "only {with_rescales}/60 scenarios rescaled — sample too tame"
    );
    // Equality alone cannot tell a guard that never arms from one that
    // works. Over this sample the fixed-point test by itself replays 39 %
    // of all ticks (what the engine did before it had drift and halted
    // steps); with them it replays 94 %, each kind contributing.
    let stats = arena_fast.fastforward_stats();
    let ticks = (stats.full_ticks + stats.replayed_ticks) as f64;
    assert!(
        stats.replayed_ticks as f64 > 0.85 * ticks
            && stats.drift_ticks as f64 > 0.25 * ticks
            && stats.halted_ticks as f64 > 0.08 * ticks,
        "replayed share fell: {stats:?}"
    );
    assert_eq!(arena_exact.fastforward_stats().replayed_ticks, 0);
}

/// The equivalence holds for the nexmark scenario families too, across
/// every workload shape: the windowed queries (Q5/Q8/Q11) replay whole
/// window cycles, with the main operator's input queue drifting when it is
/// under-provisioned, and the stateless queries (Q1/Q2) their steady and
/// drift steps; either way the `RunResult` is bitwise identical to
/// `--exact`. Equality alone cannot tell a cycle that never arms from one
/// that works, so every windowed query must replay more ticks than it
/// executes, all of them as cycle ticks or halts.
#[test]
fn fastforward_is_exact_for_nexmark_families() {
    for query in NexmarkQuery::ALL {
        let generator = GeneratorConfig {
            families: vec![ScenarioFamily::Nexmark(query)],
            workloads: WorkloadShape::ALL.to_vec(),
            run_duration_ns: 150_000_000_000,
            ..Default::default()
        };
        let fast = matrix(true, generator.clone());
        let exact = matrix(false, generator.clone());
        let mut arena_fast = CellArena::new();
        let mut arena_exact = CellArena::new();
        for seed in 0..10u64 {
            let spec = ScenarioSpec::generate(seed, &generator);
            let a = fast.run_one_raw(&spec, ControllerKind::Ds2, &mut arena_fast);
            let b = exact.run_one_raw(&spec, ControllerKind::Ds2, &mut arena_exact);
            assert_eq!(
                a,
                b,
                "seed {seed} ({} / {}): fast-forward diverged from exact execution",
                spec.family.name(),
                spec.workload.shape.name(),
            );
        }
        let stats = arena_fast.fastforward_stats();
        assert!(
            stats.replayed_ticks > stats.full_ticks,
            "{query:?} mostly ran in full: {stats:?}"
        );
        if query.window_periods().is_empty() {
            assert_eq!(stats.cycle_ticks, 0, "{query:?}: {stats:?}");
        } else {
            assert_eq!(
                stats.cycle_ticks + stats.halted_ticks,
                stats.replayed_ticks,
                "{query:?}: {stats:?}"
            );
            assert!(stats.cycle_ticks > stats.full_ticks, "{query:?}: {stats:?}");
        }
    }
}

/// The multi-dimensional resource model keeps the equivalence: hot-key
/// scenarios split key classes mid-run (a class-topology change deploys
/// through the rescale path, cancelling any armed replay and re-probing),
/// and state-pressure scenarios flip the spill multiplier as workload
/// phases move the offered rate across the budget. Both must stay bitwise
/// identical to `--exact` — and the sample must actually exercise class
/// splits, or the property is vacuous.
#[test]
fn fastforward_is_exact_for_multidim_stress_families() {
    let mut with_splits = 0usize;
    for family in [ScenarioFamily::HotKey, ScenarioFamily::StatePressure] {
        let generator = GeneratorConfig {
            families: vec![family],
            run_duration_ns: 150_000_000_000,
            ..Default::default()
        };
        let fast = matrix(true, generator.clone());
        let exact = matrix(false, generator.clone());
        let mut arena_fast = CellArena::new();
        let mut arena_exact = CellArena::new();
        for seed in 0..12u64 {
            let spec = ScenarioSpec::generate(seed, &generator);
            for kind in [ControllerKind::Ds2, ControllerKind::Ds2MultiDim] {
                let a = fast.run_one_raw(&spec, kind, &mut arena_fast);
                let b = exact.run_one_raw(&spec, kind, &mut arena_exact);
                assert_eq!(
                    a,
                    b,
                    "seed {seed} ({} / {kind:?}): fast-forward diverged from exact execution",
                    spec.family.name(),
                );
                let split = spec
                    .topology
                    .graph
                    .operators()
                    .any(|op| a.final_deployment.key_classes(op) > 1);
                if split {
                    with_splits += 1;
                    assert_eq!(kind, ControllerKind::Ds2MultiDim, "only multi-dim splits");
                }
            }
        }
    }
    assert!(
        with_splits >= 8,
        "only {with_splits} runs split a key class — sample too tame"
    );
}

/// The equivalence also holds for the baseline controllers (different
/// decision cadences stress different steady-state windows).
#[test]
fn fastforward_is_exact_for_baseline_controllers() {
    let generator = GeneratorConfig {
        run_duration_ns: 150_000_000_000,
        ..Default::default()
    };
    let fast = matrix(true, generator.clone());
    let exact = matrix(false, generator.clone());
    let mut arena = CellArena::new();
    for seed in 100..112u64 {
        let spec = ScenarioSpec::generate(seed, &generator);
        for kind in [
            ControllerKind::Dhalion,
            ControllerKind::Threshold,
            ControllerKind::Queueing,
        ] {
            let a = fast.run_one_raw(&spec, kind, &mut arena);
            let b = exact.run_one_raw(&spec, kind, &mut arena);
            assert_eq!(a, b, "seed {seed} {kind:?} diverged");
        }
    }
}

/// The equivalence survives fault injection, for every fault profile and
/// for vanilla and hardened DS2 alike: metric faults mutate only the
/// collected snapshot (never the engine, so replay proofs stay valid) and
/// actuation faults are a pure function of the decision index — the
/// faulted run must therefore stay bitwise identical to `--exact`, and
/// reproduce bit-exactly from the same seed. The sample must actually
/// exercise injected faults and hardened recovery, or the property is
/// vacuous.
#[test]
fn fastforward_is_exact_under_fault_injection() {
    let mut faulted_runs = 0usize;
    let mut recoveries = 0usize;
    for faults in [FaultProfile::Mild, FaultProfile::Harsh] {
        for generator in [
            GeneratorConfig {
                run_duration_ns: 150_000_000_000,
                ..Default::default()
            },
            GeneratorConfig {
                families: vec![ScenarioFamily::Nexmark(NexmarkQuery::Q5)],
                run_duration_ns: 150_000_000_000,
                ..Default::default()
            },
            GeneratorConfig {
                families: vec![ScenarioFamily::HotKey],
                run_duration_ns: 150_000_000_000,
                ..Default::default()
            },
        ] {
            let fast = faulted_matrix(true, generator.clone(), faults);
            let exact = faulted_matrix(false, generator.clone(), faults);
            let mut arena_fast = CellArena::new();
            let mut arena_exact = CellArena::new();
            for seed in 0..6u64 {
                let spec = ScenarioSpec::generate(seed, &generator);
                for kind in [ControllerKind::Ds2, ControllerKind::Ds2Hardened] {
                    let a = fast.run_one_raw(&spec, kind, &mut arena_fast);
                    let b = exact.run_one_raw(&spec, kind, &mut arena_exact);
                    assert_eq!(
                        a,
                        b,
                        "seed {seed} ({} / {kind:?} / {faults:?}): \
                         fast-forward diverged from exact execution",
                        spec.family.name(),
                    );
                    // Same seed, same mode: bit-exact reproduction.
                    let c = fast.run_one_raw(&spec, kind, &mut arena_fast);
                    assert_eq!(a, c, "seed {seed} did not reproduce bit-exactly");
                    if a.faults.faulted_windows > 0 {
                        faulted_runs += 1;
                    }
                    recoveries += a.controller_faults.retries as usize;
                }
            }
        }
    }
    assert!(
        faulted_runs >= 30,
        "only {faulted_runs} runs saw injected faults — sample too tame"
    );
    assert!(
        recoveries > 0,
        "no hardened retry fired — actuation faults never exercised recovery"
    );
}

/// Scored outcomes (the matrix report) are equal too — the report-level
/// restatement of the guarantee the CI determinism job enforces on the
/// full fixed-seed matrix.
#[test]
fn matrix_outcomes_match_between_modes() {
    // The headline mix: synthetic and nexmark families together.
    let mut cfg = MatrixConfig {
        scenarios: 24,
        controllers: vec![ControllerKind::Ds2, ControllerKind::Threshold],
        generator: GeneratorConfig {
            families: ScenarioFamily::headline_mix(),
            run_duration_ns: 150_000_000_000,
            ..Default::default()
        },
        ..Default::default()
    };
    cfg.fast_forward = true;
    let fast = ScenarioMatrix::new(cfg.clone()).run();
    cfg.fast_forward = false;
    let exact = ScenarioMatrix::new(cfg).run();
    assert_eq!(fast.outcomes, exact.outcomes);
}
