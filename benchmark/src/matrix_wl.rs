//! The three `ScenarioMatrix` workloads (the headline claim configuration of
//! `tests/scenario_matrix.rs`, always one thread) and the simulator probes.

use std::collections::BTreeMap;
use std::time::Instant;

use ds2_core::controller::{ControllerVerdict, ScalingController};
use ds2_core::deployment::Deployment;
use ds2_core::graph::GraphBuilder;
use ds2_core::manager::{ManagerConfig, ScalingManager};
use ds2_core::snapshot::MetricsSnapshot;
use ds2_simulator::engine::{EngineConfig, FluidEngine, InstrumentationConfig};
use ds2_simulator::harness::{ClosedLoop, HarnessConfig};
use ds2_simulator::profile::{OperatorProfile, ProfileMap};
use ds2_simulator::scenarios::{
    ControllerKind, FaultProfile, GeneratorConfig, MatrixConfig, MatrixReport, ScenarioFamily,
    ScenarioMatrix, ScenarioSpec, WorkloadShape,
};
use ds2_simulator::source::{RateSchedule, SourceSpec};

use crate::probes::host_speed;
use crate::stats::{fast_quartile, median, quantile};
use crate::trace::{now_ns, Tracer};
use crate::{peak_rss_mb, Outcome, Scale};

/// Scenarios per requested second: the work is a pure function of
/// `(seed, seconds)`, so counts repeat exactly and a faster simulator shows
/// as a shorter run, not as different work. (10 000 / 6 000 / 8 000
/// scenarios at the benchmark's 10 s.)
fn scenarios_per_second(name: &str) -> f64 {
    match name {
        "matrix_mixed" => 1000.0,
        "matrix_exact" => 600.0,
        "matrix_faulted" => 800.0,
        other => unreachable!("not a matrix workload: {other}"),
    }
}

fn controller(name: &str) -> ControllerKind {
    if name == "matrix_faulted" {
        ControllerKind::Ds2Hardened
    } else {
        ControllerKind::Ds2
    }
}

fn config(name: &str, base_seed: u64, scenarios: usize) -> MatrixConfig {
    MatrixConfig {
        scenarios,
        base_seed,
        controllers: vec![controller(name)],
        generator: GeneratorConfig {
            families: ScenarioFamily::headline_mix(),
            workloads: vec![
                WorkloadShape::Constant,
                WorkloadShape::Step,
                WorkloadShape::Spike,
                WorkloadShape::Sawtooth,
                WorkloadShape::FlashCrowd,
            ],
            run_duration_ns: 200_000_000_000,
            ..Default::default()
        },
        threads: 1,
        fast_forward: name != "matrix_exact",
        faults: if name == "matrix_faulted" {
            FaultProfile::Harsh
        } else {
            FaultProfile::None
        },
        ..Default::default()
    }
}

/// Cells per chunk. Throughput and cell-time quantiles are taken per chunk,
/// in calibrated time — wall time multiplied by [`host_speed`], sampled at
/// every chunk boundary — and reported as the favourable quartile over chunks
/// ([`fast_quartile`]), so that neither a slow stretch of a noisy host nor a
/// whole run in its slow mode moves the result.
const CHUNK_CELLS: usize = 250;

/// One timed pass over the matrix.
struct Pass {
    report: MatrixReport,
    seconds: f64,
    /// Wall time of each cell in µs, in matrix order, and whether the cell
    /// was a synthetic scenario (else a Nexmark query).
    cell_us: Vec<f64>,
    synthetic: Vec<bool>,
    /// [`host_speed`] at every chunk boundary: one more than there are chunks.
    speed: Vec<f64>,
}

impl Pass {
    /// `f` of every chunk's calibrated cell times (sorted ascending).
    fn per_chunk(&self, f: impl Fn(&[f64]) -> f64) -> Vec<f64> {
        self.cell_us
            .chunks(CHUNK_CELLS)
            .zip(self.speed.windows(2))
            .map(|(chunk, speed)| {
                let speed = (speed[0] + speed[1]) / 2.0;
                let mut sorted: Vec<f64> = chunk.iter().map(|us| us * speed).collect();
                sorted.sort_by(f64::total_cmp);
                f(&sorted)
            })
            .collect()
    }

    /// Scenarios per second of every chunk.
    fn chunk_throughput(&self) -> Vec<f64> {
        self.per_chunk(|cells| cells.len() as f64 / cells.iter().sum::<f64>() * 1e6)
    }

    /// Median cell time of one family.
    fn family_p50(&self, synthetic: bool) -> f64 {
        let mut cells: Vec<f64> = self
            .cell_us
            .iter()
            .zip(&self.synthetic)
            .filter(|(_, s)| **s == synthetic)
            .map(|(us, _)| *us)
            .collect();
        median(&mut cells)
    }
}

/// Runs the matrix once, timing every cell from the observer callback
/// (one thread, so the observer sees cells back to back in matrix order).
/// With `tracer` on, the cells of every other chunk get a span each; the
/// chunks between are the untraced reference.
fn timed_pass(matrix: &ScenarioMatrix, tracer: &mut Tracer) -> Pass {
    let (mut cell_us, mut synthetic) = (Vec::new(), Vec::new());
    let mut speed = vec![host_speed()];
    let root = tracer.begin("simulator.matrix.run_with");
    let t0 = Instant::now();
    let mut previous = now_ns();
    let report = matrix.run_with(|spec, _| {
        let now = now_ns();
        let is_synthetic = spec.family == ScenarioFamily::Synthetic;
        let name = if is_synthetic {
            "simulator.matrix.cell.synthetic"
        } else {
            "simulator.matrix.cell.nexmark"
        };
        if (cell_us.len() / CHUNK_CELLS) % 2 == 1 {
            tracer.add(name, root, previous, now);
        }
        cell_us.push((now - previous) as f64 / 1e3);
        synthetic.push(is_synthetic);
        if cell_us.len() % CHUNK_CELLS == 0 {
            speed.push(host_speed());
        }
        // After the calibration: its time belongs to no cell.
        previous = now_ns();
    });
    let seconds = t0.elapsed().as_secs_f64();
    tracer.end();
    if cell_us.len() % CHUNK_CELLS != 0 {
        speed.push(host_speed());
    }
    Pass {
        report,
        seconds,
        cell_us,
        synthetic,
        speed,
    }
}

pub fn run(name: &str, seed: u64, scale: &Scale, trace: bool) -> Outcome {
    let mut out = Outcome::default();
    let kind = controller(name);
    let full = (scenarios_per_second(name) * scale.seconds) as usize;
    let scenarios = if trace { full * 6 / 10 } else { full }.max(8);

    // Set-up, several times over: build the configuration and run a short
    // warm-up matrix on seeds outside the measured range.
    let warm = ((scenarios_per_second(name) * 0.3 * scale.warm_frac) as usize).max(8);
    let mut setup_s = Vec::new();
    let mut matrix = None;
    // (`setup_s` is an end-to-end metric: a traced run sets up once.)
    for _ in 0..if trace { 1 } else { scale.setup_reps } {
        let speed_before = host_speed();
        let t0 = Instant::now();
        let warm_report = ScenarioMatrix::new(config(name, seed ^ (1 << 40), warm)).run();
        std::hint::black_box(&warm_report);
        matrix = Some(ScenarioMatrix::new(config(name, seed, scenarios)));
        let wall_s = t0.elapsed().as_secs_f64();
        setup_s.push(wall_s * (speed_before + host_speed()) / 2.0);
    }
    let matrix = matrix.expect("setup_reps >= 1");
    out.check(
        matrix.effective_threads() == 1,
        "the matrix runs on one thread",
    );

    let mut tracer = Tracer::new(trace);
    let pass = timed_pass(&matrix, &mut tracer);

    out.attempted = scenarios as u64;
    out.failed = (scenarios - pass.report.outcomes.len().min(scenarios)) as u64;
    out.check(out.failed == 0, "every cell has an outcome");
    if name == "matrix_exact" {
        // The oracle: tick-by-tick outcomes equal the fast-forward outcomes
        // of the same scenarios — matrix_mixed's first ones.
        let fast = ScenarioMatrix::new(config("matrix_mixed", seed, scenarios)).run();
        out.check(
            fast.outcomes == pass.report.outcomes,
            "exact outcomes == fast-forward outcomes",
        );
    }

    let summary = pass.report.summary(kind);
    let chunk_throughput = pass.chunk_throughput();
    let throughput = fast_quartile(&mut chunk_throughput.clone(), true);
    if !trace {
        out.set("throughput_per_s", throughput);
        out.set(
            "latency_p90_us",
            fast_quartile(&mut pass.per_chunk(|c| quantile(c, 0.9)), false),
        );
        out.set("setup_s", median(&mut setup_s));
        out.note(format!(
            "latency_p50_us {} peak_rss_mb {} scenarios {scenarios} chunks {} wall_s {:.3} host_speed {:.3} within3_frac {}",
            fast_quartile(&mut pass.per_chunk(|c| quantile(c, 0.5)), false),
            peak_rss_mb(),
            chunk_throughput.len(),
            pass.seconds,
            median(&mut pass.speed.clone()),
            summary.fraction_within_three,
        ));
        return out;
    }
    let mut cells = pass.cell_us.clone();
    cells.sort_by(f64::total_cmp);

    // Odd chunks were traced, even ones not.
    let parity = |odd: bool| -> Vec<f64> {
        let of_parity = chunk_throughput.iter().enumerate();
        of_parity
            .filter(|(i, _)| (i % 2 == 1) == odd)
            .map(|(_, v)| *v)
            .collect()
    };
    out.set("process.peak_rss_mb", peak_rss_mb());
    out.set(
        "trace_overhead_frac",
        fast_quartile(&mut parity(false), true) / fast_quartile(&mut parity(true), true) - 1.0,
    );
    out.set("trace.throughput_per_s", throughput);
    out.set("host.speed", median(&mut pass.speed.clone()));
    out.set(
        "simulator.matrix.within3_frac",
        summary.fraction_within_three,
    );
    out.set("simulator.matrix.cell_us_p50", quantile(&cells, 0.5));
    out.set("simulator.matrix.cell_us_p99", quantile(&cells, 0.99));
    out.set(
        "simulator.matrix.synthetic_cell_us_p50",
        pass.family_p50(true),
    );
    out.set(
        "simulator.matrix.nexmark_cell_us_p50",
        pass.family_p50(false),
    );
    let t0 = Instant::now();
    let rendered = (pass.report.summary(kind), pass.report.render(&[kind]));
    out.set(
        "simulator.matrix.render_ms",
        t0.elapsed().as_secs_f64() * 1e3,
    );
    std::hint::black_box(&rendered);

    let sum = |f: fn(&ds2_simulator::scenarios::matrix::ScenarioOutcome) -> u64| -> f64 {
        pass.report.outcomes.iter().map(f).sum::<u64>() as f64
    };
    out.set(
        "simulator.faults.fault_windows",
        sum(|o| o.fault_windows as u64),
    );
    out.set(
        "core.manager.vetoed_windows",
        sum(|o| o.vetoed_windows as u64),
    );
    out.set("core.manager.retries", sum(|o| o.retries as u64));
    out.set(
        "core.manager.total_decisions",
        sum(|o| o.decisions_total as u64),
    );

    let generator = matrix.config().generator.clone();
    let t0 = Instant::now();
    for s in 0..2_000u64 {
        std::hint::black_box(ScenarioSpec::generate(seed + s, &generator));
    }
    out.set(
        "simulator.scenarios.generate_us_per_spec",
        t0.elapsed().as_secs_f64() * 1e6 / 2_000.0,
    );
    probe_engine(&mut out);

    out.tracer = Some(tracer);
    out
}

/// A `ScalingController` that times the controller it wraps.
struct Timed<C> {
    inner: C,
    calls: u64,
    ns: u64,
}

impl<C: ScalingController> ScalingController for Timed<C> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn on_metrics(
        &mut self,
        now: u64,
        snapshot: &MetricsSnapshot,
        current: &Deployment,
    ) -> ControllerVerdict {
        let t0 = Instant::now();
        let verdict = self.inner.on_metrics(now, snapshot, current);
        self.ns += t0.elapsed().as_nanos() as u64;
        self.calls += 1;
        verdict
    }

    fn on_deployed(&mut self, now: u64, deployment: &Deployment) {
        self.inner.on_deployed(now, deployment)
    }
}

const PROBE_TICK_NS: u64 = 25_000_000;
const PROBE_RUN_NS: u64 = 240_000_000_000;

/// The probe dataflow: the 4-operator word-count chain under a three-phase
/// schedule (base -> surge -> recede) that `benches/engine_fastforward.rs`
/// uses — each constant phase settles into a replayable steady state.
fn probe_parts(fast_forward: bool) -> (FluidEngine, ScalingManager) {
    let mut b = GraphBuilder::new();
    let src = b.operator("source");
    let fm = b.operator("flat_map");
    let cnt = b.operator("count");
    let sink = b.operator("sink");
    b.connect(src, fm);
    b.connect(fm, cnt);
    b.connect(cnt, sink);
    let graph = b.build().expect("a chain is a valid graph");

    let mut profiles = ProfileMap::new();
    profiles.insert(fm, OperatorProfile::with_capacity(800.0, 2.0));
    profiles.insert(cnt, OperatorProfile::with_capacity(1_500.0, 0.5));
    profiles.insert(sink, OperatorProfile::with_capacity(2_000.0, 1.0));
    let schedule = RateSchedule::steps(vec![
        (0, 1_000.0),
        (80_000_000_000, 2_500.0),
        (160_000_000_000, 1_500.0),
    ]);
    let mut sources = BTreeMap::new();
    sources.insert(src, SourceSpec::constant(1_000.0).with_schedule(schedule));
    let mut deployment = Deployment::uniform(&graph, 1);
    deployment.set(fm, 2);

    let engine = FluidEngine::new(
        graph.clone(),
        profiles,
        sources,
        deployment,
        EngineConfig {
            tick_ns: PROBE_TICK_NS,
            reconfig_latency_ns: 10_000_000_000,
            instrumentation: InstrumentationConfig::disabled(),
            fast_forward,
            track_record_latency: false,
            ..Default::default()
        },
    );
    let manager = ScalingManager::new(
        graph,
        ManagerConfig {
            warmup_intervals: 1,
            ..Default::default()
        },
    );
    (engine, manager)
}

/// Tick cost, fast-forward yield, snapshot cost and controller cost on the
/// probe dataflow.
fn probe_engine(out: &mut Outcome) {
    // Exact tick cost: a bare engine, no controller, tick by tick.
    let mut tick_ns: Vec<f64> = (0..7)
        .map(|_| {
            let (mut engine, _) = probe_parts(false);
            let t0 = Instant::now();
            engine.run_for(PROBE_RUN_NS);
            t0.elapsed().as_nanos() as f64 / (PROBE_RUN_NS / PROBE_TICK_NS) as f64
        })
        .collect();
    out.set("simulator.engine.tick_ns", median(&mut tick_ns));

    let (mut engine, _) = probe_parts(false);
    let mut snapshot = MetricsSnapshot::new();
    let mut collect_us: Vec<f64> = (0..200)
        .map(|_| {
            engine.run_for(PROBE_TICK_NS * 4);
            let t0 = Instant::now();
            engine.collect_snapshot_into(&mut snapshot);
            t0.elapsed().as_nanos() as f64 / 1e3
        })
        .collect();
    out.set(
        "simulator.engine.collect_snapshot_us",
        median(&mut collect_us),
    );

    // The closed loop with fast-forward on: how much of the run is replayed,
    // how many probes are wasted, what the controller costs per interval.
    let mut controller_us = Vec::new();
    let mut stats = Default::default();
    for _ in 0..7 {
        let (engine, manager) = probe_parts(true);
        let timed = Timed {
            inner: manager,
            calls: 0,
            ns: 0,
        };
        let mut the_loop = ClosedLoop::new(
            engine,
            timed,
            HarnessConfig {
                policy_interval_ns: 10_000_000_000,
                run_duration_ns: PROBE_RUN_NS,
                ..Default::default()
            },
        );
        std::hint::black_box(the_loop.run());
        stats = the_loop.engine().fastforward_stats();
        let c = the_loop.controller();
        controller_us.push(c.ns as f64 / 1e3 / c.calls.max(1) as f64);
    }
    out.set(
        "simulator.harness.controller_us_per_interval",
        median(&mut controller_us),
    );
    let ticks = (stats.full_ticks + stats.replayed_ticks).max(1);
    out.set(
        "simulator.fastforward.replayed_frac",
        stats.replayed_ticks as f64 / ticks as f64,
    );
    out.set(
        "simulator.fastforward.probe_failure_frac",
        stats.probe_failures as f64 / stats.probes.max(1) as f64,
    );
}
