//! Property-based tests of the fluid engine: conservation laws, ordering,
//! backpressure monotonicity and fast-forward exactness over randomized
//! dataflows.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

use ds2_core::deployment::Deployment;
use ds2_core::graph::{GraphBuilder, LogicalGraph, OperatorId};
use ds2_core::snapshot::MetricsSnapshot;
use ds2_simulator::engine::{EngineConfig, FluidEngine, InstrumentationConfig, TickEvents};
use ds2_simulator::profile::{OperatorProfile, ProfileMap};
use ds2_simulator::queue::{EpochQueue, Span};
use ds2_simulator::scenarios::{
    ControllerKind, ControllerSummary, GeneratorConfig, MatrixConfig, NexmarkQuery, ScenarioFamily,
    ScenarioMatrix,
};
use ds2_simulator::source::SourceSpec;
use ds2_simulator::FastForwardStats;
use proptest::prelude::*;

#[derive(Debug, Clone)]
struct ChainScenario {
    /// `(capacity, selectivity, parallelism)` per operator.
    stages: Vec<(f64, f64, usize)>,
    source_rate: f64,
}

fn chain_strategy() -> impl Strategy<Value = ChainScenario> {
    (
        proptest::collection::vec((100.0f64..5_000.0, 0.25f64..3.0, 1usize..=4), 1..=3),
        200.0f64..5_000.0,
    )
        .prop_map(|(stages, source_rate)| ChainScenario {
            stages,
            source_rate,
        })
}

fn build(sc: &ChainScenario) -> (FluidEngine, LogicalGraph, Vec<OperatorId>) {
    let mut b = GraphBuilder::new();
    let src = b.operator("src");
    let mut ids = vec![src];
    for i in 0..sc.stages.len() {
        let op = b.operator(format!("op{i}"));
        b.connect(*ids.last().unwrap(), op);
        ids.push(op);
    }
    let graph = b.build().unwrap();
    let mut profiles = ProfileMap::new();
    let mut deployment = Deployment::uniform(&graph, 1);
    for (i, &(cap, sel, p)) in sc.stages.iter().enumerate() {
        profiles.insert(ids[i + 1], OperatorProfile::with_capacity(cap, sel));
        deployment.set(ids[i + 1], p);
    }
    let mut sources = BTreeMap::new();
    sources.insert(src, SourceSpec::constant(sc.source_rate));
    let engine = FluidEngine::new(
        graph.clone(),
        profiles,
        sources,
        deployment,
        EngineConfig {
            instrumentation: InstrumentationConfig::disabled(),
            // Small queues so backpressure reaches the source well within
            // each property's warm-up even for adversarial chains.
            per_instance_queue: 500.0,
            ..Default::default()
        },
    );
    (engine, graph, ids)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Record conservation: everything a source emitted is either queued,
    /// buffered, or was processed by the first operator.
    #[test]
    fn records_are_conserved(sc in chain_strategy()) {
        let (mut engine, _graph, ids) = build(&sc);
        let mut emitted_total = 0.0f64;
        for _ in 0..2_000 {
            engine.tick();
            emitted_total += engine.last_tick().emitted.values().sum::<f64>();
        }
        let mut snap = MetricsSnapshot::new();
        engine.collect_snapshot_into(&mut snap);
        let first = snap.operator(ids[1]).unwrap();
        let processed = first.total_records_in() as f64;
        let queued = engine.queue_len(ids[1]);
        let diff = (emitted_total - processed - queued).abs();
        prop_assert!(
            diff <= emitted_total * 0.01 + 2.0,
            "emitted {} != processed {} + queued {}",
            emitted_total, processed, queued
        );
    }

    /// Selectivity conservation: downstream receives upstream output times
    /// selectivity (within rounding), regardless of backpressure.
    #[test]
    fn selectivity_is_respected(sc in chain_strategy()) {
        prop_assume!(sc.stages.len() >= 2);
        let (mut engine, _graph, ids) = build(&sc);
        engine.run_for(20_000_000_000);
        let mut snap = MetricsSnapshot::new();
        engine.collect_snapshot_into(&mut snap);
        let up = snap.operator(ids[1]).unwrap();
        let down = snap.operator(ids[2]).unwrap();
        let produced = up.total_records_out() as f64;
        let received = down.total_records_in() as f64 + engine.queue_len(ids[2]);
        prop_assert!(
            (produced - received).abs() <= produced * 0.01 + 2.0,
            "produced {} vs received {}", produced, received
        );
    }

    /// Throughput is bounded by the weakest stage: the observed source rate
    /// never exceeds offered, and never exceeds any stage's cumulative
    /// capacity limit (adjusted for upstream selectivities).
    #[test]
    fn bottleneck_bounds_throughput(sc in chain_strategy()) {
        let (mut engine, _graph, ids) = build(&sc);
        // Long warm-up so queues reach steady state.
        engine.run_for(120_000_000_000);
        let mut snap = MetricsSnapshot::new();
        engine.collect_snapshot_into(&mut snap);
        engine.run_for(20_000_000_000);
        engine.collect_snapshot_into(&mut snap);
        let obs = snap
            .operator(ids[0])
            .unwrap()
            .aggregate_observed_output_rate()
            .unwrap();
        prop_assert!(obs <= sc.source_rate * 1.02 + 1.0);

        // Effective source-rate cap per stage: capacity / product of
        // selectivities upstream of the stage.
        let mut sel_product = 1.0;
        for &(cap, sel, p) in &sc.stages {
            let cap_total = cap * p as f64;
            let stage_cap_in_source_units = cap_total / sel_product;
            prop_assert!(
                obs <= stage_cap_in_source_units * 1.05 + 2.0,
                "obs {} exceeds stage cap {}",
                obs, stage_cap_in_source_units
            );
            sel_product *= sel;
        }
    }

    /// Adding parallelism to the bottleneck never reduces throughput
    /// (monotonicity — the physical basis for DS2's Property 1).
    #[test]
    fn more_parallelism_never_hurts(sc in chain_strategy(), extra in 1usize..=3) {
        let (mut base_engine, _g, ids) = build(&sc);
        base_engine.run_for(90_000_000_000);
        let mut snap = MetricsSnapshot::new();
        base_engine.collect_snapshot_into(&mut snap);
        base_engine.run_for(20_000_000_000);
        base_engine.collect_snapshot_into(&mut snap);
        let base_obs = snap
            .operator(ids[0])
            .unwrap()
            .aggregate_observed_output_rate()
            .unwrap();

        let mut boosted = sc.clone();
        for stage in &mut boosted.stages {
            stage.2 += extra;
        }
        let (mut boosted_engine, _g, ids2) = build(&boosted);
        boosted_engine.run_for(90_000_000_000);
        boosted_engine.collect_snapshot_into(&mut snap);
        boosted_engine.run_for(20_000_000_000);
        boosted_engine.collect_snapshot_into(&mut snap);
        let boosted_obs = snap
            .operator(ids2[0])
            .unwrap()
            .aggregate_observed_output_rate()
            .unwrap();
        prop_assert!(
            boosted_obs >= base_obs * 0.98 - 1.0,
            "throughput dropped from {} to {} after adding parallelism",
            base_obs, boosted_obs
        );
    }

    /// Every snapshot the engine produces satisfies the model invariants
    /// (`Wu <= W`, waits bounded) for every instance of every operator.
    #[test]
    fn snapshots_always_valid(sc in chain_strategy()) {
        let (mut engine, graph, _ids) = build(&sc);
        let mut snap = MetricsSnapshot::new();
        for _ in 0..5 {
            engine.run_for(7_000_000_000);
            engine.collect_snapshot_into(&mut snap);
            for op in graph.operators() {
                let m = snap.operator(op).unwrap();
                for inst in &m.instances {
                    prop_assert!(inst.validate().is_ok(), "{op}: {inst:?}");
                }
            }
        }
    }

    /// FIFO queues: a sequence of pops tiles the queued emission interval
    /// — each chunk starts where the one before it ended, never runs
    /// backwards and stays inside what was pushed — and conserves mass.
    #[test]
    fn queue_fifo_and_mass(
        pushes in proptest::collection::vec((0u64..1_000, 0u64..500, 0.1f64..100.0), 1..50),
        pops in proptest::collection::vec(0.0f64..60.0, 1..40),
    ) {
        let mut q = EpochQueue::new(f64::INFINITY);
        let (mut total, mut t) = (0.0, 0u64);
        let (mut lo, mut hi) = (u64::MAX, 0u64);
        for (dt, width, records) in pushes {
            t += dt;
            q.push(Span { born_ns: t, head_ns: t, tail_ns: t + width, records });
            total += records;
            lo = lo.min(t);
            hi = hi.max(t + width);
        }
        let (mut popped, mut last_tail) = (0.0, None);
        for amount in pops.into_iter().chain([f64::INFINITY]) {
            let Some(chunk) = q.pop::<true>(amount) else {
                continue;
            };
            prop_assert!(chunk.head_ns <= chunk.tail_ns, "{chunk:?}");
            prop_assert!(lo <= chunk.head_ns && chunk.tail_ns <= hi, "{chunk:?} outside [{lo}, {hi}]");
            if let Some(tail) = last_tail {
                prop_assert_eq!(chunk.head_ns, tail, "pops must tile the interval");
            }
            last_tail = Some(chunk.tail_ns);
            popped += chunk.records;
        }
        prop_assert!(q.is_empty(), "popping everything empties the queue");
        prop_assert!((popped + q.len() - total).abs() < 1e-9 * total);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Key-class split weights are a mass-conserving refinement of the
    /// classic skewed weights: for any parallelism, hot share and split
    /// degree the weights sum to 1 (every record lands on exactly one
    /// instance), split 1 reproduces the classic hot-instance weights
    /// **bitwise**, non-splittable profiles ignore the split dimension
    /// entirely, and deepening a split never *raises* the hottest
    /// instance's share (splits only relieve — the merge direction is the
    /// same statement read right to left).
    #[test]
    fn class_splits_conserve_share_mass_and_weights(
        p in 1usize..=64,
        split in 1usize..=96,
        hot in 0.05f64..0.95,
        cap in 100.0f64..5_000.0,
    ) {
        let splittable = OperatorProfile::with_capacity(cap, 1.0).with_splittable_skew(hot);
        let weights = splittable.instance_weights_split(p, split);
        prop_assert_eq!(weights.len(), p);
        let mass: f64 = weights.iter().sum();
        prop_assert!((mass - 1.0).abs() < 1e-9, "mass {} != 1", mass);
        for &w in &weights {
            prop_assert!(w > 0.0, "dead instance in {:?}", weights);
        }

        // Split 1 *is* the classic model, bit for bit: the hot instance
        // receives max(hot, fair share), the rest split the remainder.
        let classic: Vec<u64> = if p == 1 {
            vec![1.0f64.to_bits()]
        } else {
            let h = hot.max(1.0 / p as f64);
            let mut w = vec![(1.0 - h) / (p as f64 - 1.0); p];
            w[0] = h;
            w.iter().map(|w| w.to_bits()).collect()
        };
        let at_one: Vec<u64> = splittable
            .instance_weights_split(p, 1)
            .iter()
            .map(|w| w.to_bits())
            .collect();
        prop_assert_eq!(&at_one, &classic);

        // A non-splittable hot key cannot be split by decree.
        let pinned = OperatorProfile::with_capacity(cap, 1.0).with_skew(hot);
        let pinned_split: Vec<u64> = pinned
            .instance_weights_split(p, split)
            .iter()
            .map(|w| w.to_bits())
            .collect();
        prop_assert_eq!(pinned_split, classic);

        // Splitting deeper is monotone: max share never grows, so the
        // effective capacity never shrinks.
        let max_share = |s: usize| -> f64 {
            splittable
                .instance_weights_split(p, s)
                .iter()
                .cloned()
                .fold(0.0, f64::max)
        };
        let deeper = split.saturating_mul(2);
        prop_assert!(
            max_share(deeper) <= max_share(split) + 1e-12,
            "split {} -> {} raised the max share",
            split,
            deeper
        );
        prop_assert!(
            splittable.effective_capacity_split(p, deeper)
                >= splittable.effective_capacity_split(p, split) - 1e-9,
            "deeper split lost capacity"
        );
    }
}

/// A dataflow provisioned on the knife edge DS2 leaves it on: every
/// operator's capacity within ±5 % of the rate it is offered, so queues
/// fill or drain by a sliver per tick — the drifting-queue regime of
/// fast-forward — and scripted rescales move operators across the edge.
#[derive(Debug, Clone)]
struct EdgeScenario {
    /// `(capacity / offered, hot-key fraction or 0, parallelism)` per
    /// non-source operator.
    ops: Vec<(f64, f64, usize)>,
    /// Operators 1 and 2 both read operator 0 and feed operator 3 (needs at
    /// least four operators); otherwise a chain.
    diamond: bool,
    durable: bool,
    queue: f64,
    /// `(tick, operator, new parallelism)` rescale requests.
    rescales: Vec<(usize, usize, usize)>,
    /// Window period in ticks per non-source operator (`0` = per-record
    /// output; shorter than `ops` = none for the rest).
    windows: Vec<u64>,
}

fn edge_strategy() -> impl Strategy<Value = EdgeScenario> {
    (
        // Every other operator, on average, carries a hot key.
        proptest::collection::vec((0.95f64..1.05, -0.6f64..0.6, 1usize..=4), 3..=6),
        0u8..2,
        0u8..2,
        200.0f64..5_000.0,
        proptest::collection::vec((50usize..3_500, 0usize..6, 1usize..=5), 0..=3),
    )
        .prop_map(|(ops, diamond, durable, queue, rescales)| EdgeScenario {
            diamond: diamond == 1 && ops.len() >= 4,
            ops: ops
                .into_iter()
                .map(|(ratio, hot, p)| (ratio, if hot >= 0.2 { hot } else { 0.0 }, p))
                .collect(),
            durable: durable == 1,
            queue,
            rescales,
            windows: Vec::new(),
        })
}

/// Knife-edge dataflows in which about every other operator buffers its
/// output in a window of 10, 20 or 30 ticks, so ticks repeat only as whole
/// cycles of up to 60.
fn windowed_edge_strategy() -> impl Strategy<Value = EdgeScenario> {
    (edge_strategy(), proptest::collection::vec(0u64..6, 6)).prop_map(|(sc, windows)| {
        EdgeScenario {
            windows: windows
                .into_iter()
                .map(|w| 10 * w.saturating_sub(2))
                .collect(),
            ..sc
        }
    })
}

fn build_edge(sc: &EdgeScenario, fast_forward: bool) -> (FluidEngine, Vec<OperatorId>) {
    const RATE: f64 = 1_000.0;
    let mut b = GraphBuilder::new();
    let src = b.operator("src");
    let ids: Vec<OperatorId> = (0..sc.ops.len())
        .map(|i| b.operator(format!("op{i}")))
        .collect();
    // Rate offered to each operator (selectivity 1; a diamond's join sees
    // both branches).
    let mut offered = vec![RATE; ids.len()];
    b.connect(src, ids[0]);
    for i in 1..ids.len() {
        match (sc.diamond, i) {
            (true, 2) => {
                b.connect(ids[0], ids[2]);
            }
            (true, 3) => {
                b.connect(ids[1], ids[3]);
                b.connect(ids[2], ids[3]);
                offered[3..].fill(2.0 * RATE);
            }
            _ => {
                b.connect(ids[i - 1], ids[i]);
            }
        }
    }
    let graph = b.build().unwrap();
    let mut profiles = ProfileMap::new();
    let mut deployment = Deployment::uniform(&graph, 1);
    for (i, &(ratio, hot, p)) in sc.ops.iter().enumerate() {
        let mut profile = OperatorProfile::with_capacity(offered[i] * ratio / p as f64, 1.0);
        if hot > 0.0 {
            profile = profile.with_skew(hot);
        }
        if let Some(&ticks) = sc.windows.get(i).filter(|&&ticks| ticks > 0) {
            profile = profile.windowed(ticks * 10_000_000);
        }
        profiles.insert(ids[i], profile);
        deployment.set(ids[i], p);
    }
    let mut sources = BTreeMap::new();
    let source = if sc.durable {
        SourceSpec::durable(RATE)
    } else {
        SourceSpec::constant(RATE)
    };
    sources.insert(src, source);
    let engine = FluidEngine::new(
        graph,
        profiles,
        sources,
        deployment,
        EngineConfig {
            instrumentation: InstrumentationConfig::disabled(),
            per_instance_queue: sc.queue,
            reconfig_latency_ns: 1_500_000_000,
            fast_forward,
            track_record_latency: false,
            ..Default::default()
        },
    );
    let mut all = vec![src];
    all.extend(ids);
    (engine, all)
}

/// Running totals over the cases of the property below.
static CASES: AtomicU64 = AtomicU64::new(0);
static REPLAYED: AtomicU64 = AtomicU64::new(0);
static DRIFT: AtomicU64 = AtomicU64::new(0);
static WINDOWED_CASES: AtomicU64 = AtomicU64::new(0);
static CYCLE: AtomicU64 = AtomicU64::new(0);

/// One tick through `FluidEngine::advance`: the horizon is one tick out
/// while a transition is armed, so a replay takes exactly one tick, and
/// unbounded otherwise, so a probe may start (it needs two ticks before the
/// horizon).
fn advance_one(e: &mut FluidEngine) -> TickEvents {
    let horizon = if e.fastforward_active() {
        e.now_ns() + e.config().tick_ns
    } else {
        u64::MAX
    };
    let events = e.advance(horizon);
    assert_eq!(events.ticks, 1, "a lock-step advance takes one tick");
    events
}

/// Drives a `tick` loop and an `advance` loop over `sc` side by side for
/// 4 000 ticks, through its scripted rescales, and fails unless after every
/// tick queue lengths, backlogs and what the source reports emitted are
/// bitwise the same — and, every 100 ticks and at the end, the metrics
/// window both close. Returns the fast side's counters.
fn lockstep_edge(sc: &EdgeScenario) -> Result<FastForwardStats, TestCaseError> {
    let (mut exact, ids) = build_edge(sc, false);
    let (mut fast, _) = build_edge(sc, true);
    let (mut sa, mut sb) = (MetricsSnapshot::new(), MetricsSnapshot::new());
    for tick in 0..4_000usize {
        for &(at, op, p) in &sc.rescales {
            if at == tick && !exact.is_halted() {
                let mut plan = exact.deployment().clone();
                plan.set(ids[1 + op % sc.ops.len()], p);
                exact.request_rescale(plan.clone());
                fast.request_rescale(plan);
            }
        }
        let ea = exact.tick();
        let eb = advance_one(&mut fast);
        prop_assert_eq!(ea.deployed, eb.deployed);
        prop_assert_eq!(
            exact.last_tick().total_emitted().to_bits(),
            fast.last_tick().total_emitted().to_bits(),
            "emitted diverged at tick {}",
            tick
        );
        for &op in &ids {
            prop_assert_eq!(
                exact.queue_len(op).to_bits(),
                fast.queue_len(op).to_bits(),
                "queue {} diverged at tick {}: {} vs {}",
                op,
                tick,
                exact.queue_len(op),
                fast.queue_len(op)
            );
            prop_assert_eq!(
                exact.backlog(op).to_bits(),
                fast.backlog(op).to_bits(),
                "backlog {} diverged at tick {}",
                op,
                tick
            );
        }
        // A metrics window closes every 100 ticks, probe or no probe.
        if tick % 100 == 99 {
            exact.collect_snapshot_into(&mut sa);
            fast.collect_snapshot_into(&mut sb);
            prop_assert_eq!(&sa, &sb);
        }
    }
    Ok(fast.fastforward_stats())
}

/// Found by the windowed property below: a float state that repeats after a
/// window period while the tags of a hot-key operator's two class queues do
/// not yet stand as they will (both were filled by the run's first flush;
/// one is re-created by every later flush, the other never empties). The
/// probe cycle merged their drained spans into one push where every later
/// cycle makes two, an ulp apart — such a cycle must not arm.
#[test]
fn a_cycle_with_unsettled_class_tags_does_not_arm() {
    let sc = EdgeScenario {
        ops: vec![
            (1.0053032072219306, 0.3730534506086193, 2),
            (0.9772232728915706, 0.0, 3),
            (1.0154760853421378, 0.0, 2),
            (0.9979733867393558, 0.0, 1),
            (1.046998231734523, 0.5797971342653222, 2),
            (0.9734167430905359, 0.0, 3),
        ],
        diamond: true,
        durable: true,
        queue: 4701.9520576872765,
        rescales: vec![],
        windows: vec![0, 0, 0, 20, 0, 0],
    };
    let stats = lockstep_edge(&sc).expect("bitwise on tick-by-tick execution");
    assert!(
        stats.cycle_ticks > 2_000,
        "the settled cycle does arm: {stats:?}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Fast-forward is exact on knife-edge dataflows: an `advance` loop
    /// leaves bitwise the queue lengths and backlogs of a `tick` loop after
    /// every tick — through drifting queues, both guard exits, hot-key
    /// classes, halts and repartitioning — and the same snapshots.
    #[test]
    fn fastforward_is_bitwise_exact_on_knife_edge_dataflows(sc in edge_strategy()) {
        let stats = lockstep_edge(&sc)?;
        // Not vacuous: single cases may legitimately run in full (a growing
        // durable backlog, a period-2 oscillation behind a diamond), but
        // over the cases so far most ticks must have been replayed, many
        // of them as drift.
        let replayed =
            REPLAYED.fetch_add(stats.replayed_ticks, Ordering::Relaxed) + stats.replayed_ticks;
        let drift = DRIFT.fetch_add(stats.drift_ticks, Ordering::Relaxed) + stats.drift_ticks;
        let cases = CASES.fetch_add(1, Ordering::Relaxed) + 1;
        prop_assert!(
            cases < 16 || (replayed > cases * 2_000 && drift > cases * 1_000),
            "after {} cases only {} ticks replayed, {} as drift", cases, replayed, drift
        );
    }

    /// The same with windows in the dataflow: whole window cycles replay,
    /// with queues drifting under them, windows flushing into drifting
    /// queues, flushes that spill and retry, rescales that cancel a probe
    /// half-way — and every tick leaves bitwise the state of the `tick`
    /// loop.
    #[test]
    fn fastforward_is_bitwise_exact_on_windowed_knife_edge_dataflows(
        sc in windowed_edge_strategy()
    ) {
        let stats = lockstep_edge(&sc)?;
        // Not vacuous: over the cases so far a good share of all ticks
        // must have been replayed as cycles.
        let cycle = CYCLE.fetch_add(stats.cycle_ticks, Ordering::Relaxed) + stats.cycle_ticks;
        let cases = WINDOWED_CASES.fetch_add(1, Ordering::Relaxed) + 1;
        prop_assert!(
            cases < 16 || cycle > cases * 1_000,
            "after {} cases only {} ticks replayed as cycles", cases, cycle
        );
    }
}

/// The family-mix pool the partition property draws from: the synthetic
/// family and every nexmark query family.
const FAMILY_POOL: [ScenarioFamily; 7] = [
    ScenarioFamily::Synthetic,
    ScenarioFamily::Nexmark(NexmarkQuery::Q1),
    ScenarioFamily::Nexmark(NexmarkQuery::Q2),
    ScenarioFamily::Nexmark(NexmarkQuery::Q3),
    ScenarioFamily::Nexmark(NexmarkQuery::Q5),
    ScenarioFamily::Nexmark(NexmarkQuery::Q8),
    ScenarioFamily::Nexmark(NexmarkQuery::Q11),
];

proptest! {
    // Matrix runs are whole closed-loop simulations; a handful of randomized
    // mixes suffices to catch a summary that double-counts or drops a slice.
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Per-family `MatrixReport` summaries partition the overall summary:
    /// for any family mix (with repetition-weighted draws) and any thread
    /// count, the per-family counts and score sums add up exactly to the
    /// overall `summary()` — no outcome is dropped, duplicated, or
    /// attributed to two families.
    #[test]
    fn family_summaries_partition_the_overall_summary(
        family_picks in proptest::collection::vec(0usize..FAMILY_POOL.len(), 1..6),
        scenarios in 3usize..8,
        threads in 1usize..4,
        seed_offset in 0u64..1_000,
    ) {
        let families: Vec<ScenarioFamily> =
            family_picks.into_iter().map(|i| FAMILY_POOL[i]).collect();
        let config = MatrixConfig {
            scenarios,
            base_seed: 0x9A37 + seed_offset,
            threads,
            controllers: vec![ControllerKind::Ds2, ControllerKind::Threshold],
            generator: GeneratorConfig {
                families,
                run_duration_ns: 120_000_000_000,
                ..Default::default()
            },
            ..Default::default()
        };
        let report = ScenarioMatrix::new(config.clone()).run();
        prop_assert_eq!(report.outcomes.len(), scenarios * 2);

        let families = report.families();
        // Every outcome's family is one of the listed families, and the
        // list is duplicate-free.
        for pair in families.windows(2) {
            prop_assert_ne!(pair[0], pair[1]);
        }
        for kind in [ControllerKind::Ds2, ControllerKind::Threshold] {
            let overall = report.summary(kind);
            let slices: Vec<ControllerSummary> = families
                .iter()
                .map(|f| report.summary_for_family(kind, f))
                .collect();
            // Counts partition exactly.
            prop_assert_eq!(slices.iter().map(|s| s.runs).sum::<usize>(), overall.runs);
            prop_assert_eq!(
                slices.iter().map(|s| s.converged).sum::<usize>(),
                overall.converged
            );
            prop_assert_eq!(
                slices.iter().map(|s| s.within_three_steps).sum::<usize>(),
                overall.within_three_steps
            );
            prop_assert_eq!(
                slices.iter().map(|s| s.underprovisioned_runs).sum::<usize>(),
                overall.underprovisioned_runs
            );
            prop_assert_eq!(
                slices.iter().map(|s| s.total_decisions).sum::<usize>(),
                overall.total_decisions
            );
            prop_assert_eq!(
                slices.iter().map(|s| s.max_steps).max().unwrap_or(0),
                overall.max_steps
            );
            // Score sums partition (means recombine through their weights).
            let steps_sum: f64 = slices
                .iter()
                .map(|s| s.mean_steps * s.converged as f64)
                .sum();
            prop_assert!(
                (steps_sum - overall.mean_steps * overall.converged as f64).abs() < 1e-9,
                "steps sum {} != overall {}",
                steps_sum,
                overall.mean_steps * overall.converged as f64
            );
            let over_sum: f64 = slices
                .iter()
                .map(|s| s.mean_overprovision * s.converged as f64)
                .sum();
            prop_assert!(
                (over_sum - overall.mean_overprovision * overall.converged as f64).abs() < 1e-9,
                "overprovision sum diverged"
            );
            let reversal_sum: f64 = slices
                .iter()
                .map(|s| s.mean_reversals * s.runs as f64)
                .sum();
            prop_assert!(
                (reversal_sum - overall.mean_reversals * overall.runs as f64).abs() < 1e-9,
                "reversal sum diverged"
            );
            // And the fraction recombines from the partitioned counts.
            if overall.runs > 0 {
                prop_assert!(
                    (overall.fraction_within_three
                        - overall.within_three_steps as f64 / overall.runs as f64)
                        .abs()
                        < 1e-12
                );
            }
        }
    }
}
