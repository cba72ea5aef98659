//! The scenario matrix: every generated scenario × every controller, run
//! through the closed loop and scored against the analytic ground truth.
//!
//! This is the substrate behind the repo's headline regression test: DS2
//! must converge within **three scaling steps** (paper §3.4, §5.4) on the
//! overwhelming majority of randomly generated scenarios, while the
//! baselines (Dhalion rules, CPU thresholds, M/M/c queueing) are scored on
//! the same runs for comparison. Outcomes also record SASO-style stability
//! (direction reversals, post-convergence actions) and final over/under
//! provisioning, which future accuracy and ablation experiments reuse.
//!
//! # Parallel sharded execution
//!
//! The matrix is embarrassingly parallel: each *cell* — one
//! `(scenario, controller)` pair — is a pure function of
//! `(base_seed + scenario_index, controller)`. Both runners execute the
//! same per-scenario body: generate the scenario once, then run every
//! controller on it in order. With one thread that body runs inline on
//! the caller's thread; with several, [`ScenarioMatrix::run`] fans
//! scenario indices out over a work-queue of worker threads (the vendored
//! `crossbeam` channel/scope primitives) and merges each scenario's row
//! of outcomes back **by scenario index**, so the report is bit-identical
//! to the one-thread runner regardless of thread count or scheduling
//! order. Every cell drives its own engine RNG — no state is shared
//! between cells beyond the immutable config and the scenario itself.
//!
//! # Macro-tick fast-forward
//!
//! Cell engines run with steady-state fast-forward on by default
//! ([`MatrixConfig::fast_forward`], see [`crate::fastforward`]): provably
//! identical ticks between workload phases and control decisions are
//! replayed instead of re-executed, and engines record no latency (the
//! report never reads it). Outcomes are **bit-identical** with
//! fast-forward on or off — `tests/fastforward_equivalence.rs` and the CI
//! `--exact` report diff enforce it.

use ds2_baselines::{
    DhalionConfig, DhalionController, QueueingConfig, QueueingController, ThresholdConfig,
    ThresholdController,
};
use ds2_core::controller::ScalingController;
use ds2_core::deployment::Deployment;
use ds2_core::hardened::Hardened;
use ds2_core::manager::{ManagerConfig, ScalingManager};
use ds2_core::policy::{PolicyConfig, PolicyWorkspace};
use ds2_core::snapshot::MetricsSnapshot;

use crate::engine::{EngineConfig, FluidEngine, InstrumentationConfig};
use crate::fastforward::FastForwardStats;
use crate::faults::{FaultPlan, FaultProfile};
use crate::harness::{ClosedLoop, HarnessConfig, RunResult};

use super::generator::{GeneratorConfig, ScenarioSpec};

/// Reusable per-worker scratch for matrix cells: the policy-evaluation
/// workspace and the metrics-snapshot buffer a closed-loop run fills every
/// policy interval. One arena is allocated per worker thread (or one for
/// the sequential runner) and recycled across all of that worker's cells —
/// the buffers are cleared by epoch-stamping between windows, so thousands
/// of cells share a handful of allocations. Outcomes must be (and are,
/// guarded by tests) bit-identical to fresh-arena runs.
#[derive(Debug, Default)]
pub struct CellArena {
    /// Metrics-window buffer handed to [`ClosedLoop::run_reusing`].
    snapshot: MetricsSnapshot,
    /// DS2 policy evaluation workspace, threaded through the manager.
    policy_ws: PolicyWorkspace,
    /// Fast-forward work of every cell run through this arena, summed.
    /// Kept here — not in [`RunResult`] or the report, which must be equal
    /// with fast-forward on and off — so a throughput change can be
    /// attributed to a replay regime.
    ff_stats: FastForwardStats,
}

impl CellArena {
    /// Creates an empty arena (buffers grow on first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// Full, probed and replayed tick counts (by kind) summed over every
    /// cell this arena has run.
    pub fn fastforward_stats(&self) -> FastForwardStats {
        self.ff_stats
    }
}

/// The controller families the matrix can drive.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ControllerKind {
    /// The DS2 Scaling Manager (Eq. 7–8 policy + §4.2 pragmatics).
    Ds2,
    /// Rule-based Dhalion resolver (Heron's state of the art).
    Dhalion,
    /// CPU-utilization threshold scaling.
    Threshold,
    /// M/M/c queueing-theory provisioning.
    Queueing,
    /// The DS2 manager behind the [`Hardened`] wrapper: snapshot validation
    /// with last-good repair, median outlier rejection, and
    /// verify-then-retry on unacknowledged rescales. On a fault-free matrix
    /// it decides identically to vanilla. Not in
    /// [`ControllerKind::ALL`] — the headline matrix stays vanilla; this
    /// kind is opted into by the robustness comparison runs.
    Ds2Hardened,
    /// The DS2 manager on the multi-dimensional resource model: key-class
    /// split detection plus the scenario's per-instance state budget. Not
    /// in [`ControllerKind::ALL`] — the headline matrix (and its golden
    /// report) stays parallelism-only; this kind is opted into by the
    /// multi-dim comparison runs.
    Ds2MultiDim,
}

impl ControllerKind {
    /// The headline controllers, DS2 first ([`ControllerKind::Ds2MultiDim`]
    /// is opt-in and deliberately absent).
    pub const ALL: [ControllerKind; 4] = [
        ControllerKind::Ds2,
        ControllerKind::Dhalion,
        ControllerKind::Threshold,
        ControllerKind::Queueing,
    ];

    /// Short name used in outcomes and reports.
    pub fn name(&self) -> &'static str {
        match self {
            ControllerKind::Ds2 => "ds2",
            ControllerKind::Dhalion => "dhalion",
            ControllerKind::Threshold => "threshold",
            ControllerKind::Queueing => "queueing",
            ControllerKind::Ds2Hardened => "ds2_hardened",
            ControllerKind::Ds2MultiDim => "ds2_multidim",
        }
    }
}

/// Matrix configuration.
#[derive(Debug, Clone)]
pub struct MatrixConfig {
    /// Number of scenarios (seeds `base_seed..base_seed + scenarios`).
    pub scenarios: usize,
    /// Base seed of the matrix; scenario `i` uses `base_seed + i`.
    pub base_seed: u64,
    /// Controllers to drive over every scenario.
    pub controllers: Vec<ControllerKind>,
    /// Scenario generation knobs.
    pub generator: GeneratorConfig,
    /// Metrics window / decision interval.
    pub policy_interval_ns: u64,
    /// Stop-the-world redeployment latency.
    pub reconfig_latency_ns: u64,
    /// Simulation step.
    pub tick_ns: u64,
    /// Parallelism cap handed to the DS2 policy.
    pub max_parallelism: usize,
    /// Worker threads for the sharded runner; `0` = one per available CPU.
    /// Results are bit-identical for every value (including `1`, the
    /// sequential path).
    pub threads: usize,
    /// Macro-tick fast-forward in the engine (default on). Reports are
    /// bit-identical either way — `false` is the `--exact` escape hatch
    /// that forces tick-by-tick execution, and CI diffs the two.
    pub fast_forward: bool,
    /// Fault-injection profile layered onto every cell
    /// ([`FaultProfile::None`] by default — the fault-free matrix is
    /// byte-identical to its pre-fault self). Fault draws are a pure
    /// function of `(scenario seed, profile)`, so faulted matrices keep
    /// every determinism guarantee (thread count, fast-forward, reruns).
    pub faults: FaultProfile,
}

impl Default for MatrixConfig {
    fn default() -> Self {
        Self {
            scenarios: 5_000,
            base_seed: 0xD52,
            controllers: ControllerKind::ALL.to_vec(),
            generator: GeneratorConfig::default(),
            policy_interval_ns: 10_000_000_000,
            reconfig_latency_ns: 10_000_000_000,
            tick_ns: 25_000_000,
            max_parallelism: 64,
            threads: 0,
            fast_forward: true,
            faults: FaultProfile::None,
        }
    }
}

/// The scored outcome of one scenario × controller run.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioOutcome {
    /// Seed regenerating the scenario exactly.
    pub seed: u64,
    /// Controller that produced this outcome.
    pub controller: &'static str,
    /// Scenario family (`synthetic` or a `nexmark_q*` query).
    pub family: &'static str,
    /// Topology family of the scenario.
    pub topology: &'static str,
    /// Workload family of the scenario.
    pub workload: &'static str,
    /// Operators in the dataflow (including the source).
    pub operators: usize,
    /// Scaling commands applied over the whole run.
    pub decisions_total: usize,
    /// Scaling commands applied while responding to the final workload
    /// phase (at or after the last rate change).
    pub steps_final_phase: usize,
    /// Whether the run settled: no scaling action over the last three
    /// policy intervals *and* the job kept up with the offered rate.
    pub converged: bool,
    /// Mean achieved/offered ratio over the final 30 timeline seconds.
    pub final_achieved_ratio: f64,
    /// Final non-source instances divided by the analytic optimum.
    pub(crate) overprovision_factor: f64,
    /// Non-source operators left below their optimal parallelism.
    pub(crate) underprovisioned_ops: usize,
    /// Per-operator scaling direction reversals (up→down or down→up), the
    /// SASO oscillation count.
    pub(crate) reversals: usize,
    /// Scaling commands issued after the deployment first reached its
    /// final configuration in the final workload phase (0 = no churn).
    pub decisions_after_convergence: usize,
    /// Total non-source instances at the end of the run.
    pub final_instances: usize,
    /// Analytic optimal non-source instances for the final rate.
    pub(crate) optimal_instances: usize,
    /// Non-source instance-hours held over the run (parallelism integrated
    /// over virtual time between scaling commands) — the parallelism
    /// dimension's resource bill.
    pub(crate) instance_hours: f64,
    /// Instance-hours held by operators carrying a finite per-instance
    /// state budget (memory-slot-hours) — the state dimension's resource
    /// bill. `0` for stateless scenarios.
    pub(crate) state_budget_hours: f64,
    /// The scenario's hot-class share (the largest `skew_hot_fraction`
    /// across profiles; `0` without skew), echoed into failure reports.
    pub hot_share: f64,
    /// Whether the controller ran on the multi-dimensional resource model
    /// (key-class splits + state budgets). Reports grow per-dimension
    /// columns only when at least one outcome sets this.
    pub multidim: bool,
    /// Whether the run had fault injection enabled. Reports grow the
    /// robustness columns only when at least one outcome sets this.
    pub(crate) faulted: bool,
    /// Metric windows the injector touched (dropped, noised, staled or
    /// straggled at least one sample). `0` without faults.
    pub fault_windows: u32,
    /// Decision windows the controller vetoed as degraded beyond repair
    /// (hardened DS2 only; vanilla controllers never veto).
    pub vetoed_windows: u32,
    /// Rescale retries the controller spent on unacknowledged deployments
    /// (hardened DS2 only).
    pub retries: u32,
}

/// All outcomes of a matrix run.
#[derive(Debug, Clone)]
pub struct MatrixReport {
    /// One entry per scenario × controller, scenario-major order.
    pub outcomes: Vec<ScenarioOutcome>,
}

/// Aggregated statistics for one controller across the matrix.
#[derive(Debug, Clone)]
pub struct ControllerSummary {
    /// Controller name.
    pub controller: &'static str,
    /// Runs scored.
    pub runs: usize,
    /// Runs that settled (see [`ScenarioOutcome::converged`]).
    pub converged: usize,
    /// Runs that settled within three scaling steps — the paper's claim.
    pub within_three_steps: usize,
    /// `within_three_steps / runs`.
    pub fraction_within_three: f64,
    /// Mean steps over converged runs.
    pub mean_steps: f64,
    /// Maximum final-phase steps over all runs.
    pub max_steps: usize,
    /// Mean overprovision factor over converged runs.
    pub mean_overprovision: f64,
    /// Runs leaving at least one operator under-provisioned.
    pub underprovisioned_runs: usize,
    /// Mean direction reversals per run (SASO stability; lower is better).
    pub mean_reversals: f64,
    /// Total scaling commands across all runs.
    pub total_decisions: usize,
    /// Mean non-source instance-hours per run (parallelism dimension).
    pub(crate) mean_instance_hours: f64,
    /// Mean budgeted-operator instance-hours per run (state dimension).
    pub(crate) mean_state_budget_hours: f64,
    /// Mean injector-touched metric windows per run (fault exposure; `0`
    /// on fault-free matrices).
    pub(crate) mean_fault_windows: f64,
    /// Total decision windows vetoed as degraded across all runs.
    pub total_vetoed: usize,
    /// Total rescale retries spent across all runs.
    pub total_retries: usize,
}

impl MatrixReport {
    /// Outcomes of one controller.
    pub fn for_controller<'a>(
        &'a self,
        name: &'a str,
    ) -> impl Iterator<Item = &'a ScenarioOutcome> + 'a {
        self.outcomes.iter().filter(move |o| o.controller == name)
    }

    /// Seeds of runs (for `controller`) that failed the three-step claim,
    /// for reproduction.
    pub fn failing_seeds(&self, controller: &str) -> Vec<u64> {
        self.failing_runs(controller).map(|o| o.seed).collect()
    }

    /// Runs (for `controller`) that failed the three-step claim.
    pub(crate) fn failing_runs<'a>(
        &'a self,
        controller: &'a str,
    ) -> impl Iterator<Item = &'a ScenarioOutcome> + 'a {
        self.for_controller(controller)
            .filter(|o| !o.converged || o.steps_final_phase > 3)
    }

    /// Human-readable reproduction lines for every run that failed the
    /// three-step claim: the scenario's seed *and* its family/topology/
    /// workload, so a matrix regression is reproducible from the test
    /// output alone — `--seed <seed> --scenarios 1 --family <family>`
    /// regenerates the cell bit-exactly under the original run's workload
    /// list and duration (`DS2_MATRIX_WORKLOADS`/`DS2_MATRIX_DURATION_S`),
    /// because scenario bodies generate from the `(seed, family)` pair.
    pub fn describe_failures(&self, controller: &str) -> String {
        let mut out = String::new();
        for o in self.failing_runs(controller) {
            out.push_str(&format!(
                "  seed={} family={} topology={} workload={} steps={} converged={} ratio={:.3} hot_share={:.2}\n",
                o.seed,
                o.family,
                o.topology,
                o.workload,
                o.steps_final_phase,
                o.converged,
                o.final_achieved_ratio,
                o.hot_share,
            ));
        }
        if out.is_empty() {
            out.push_str("  (none)\n");
        }
        out
    }

    /// The distinct scenario families in this report, in first-appearance
    /// order (deterministic: outcomes are in matrix order).
    pub fn families(&self) -> Vec<&'static str> {
        let mut families = Vec::new();
        for o in &self.outcomes {
            if !families.contains(&o.family) {
                families.push(o.family);
            }
        }
        families
    }

    /// Aggregates one controller's outcomes across the whole matrix.
    pub fn summary(&self, kind: ControllerKind) -> ControllerSummary {
        self.summarize(kind, None)
    }

    /// Aggregates one controller's outcomes within one scenario family.
    /// The per-family summaries partition the overall [`summary`]
    /// (`crates/simulator/tests/properties.rs` proves counts and score
    /// sums add up for arbitrary family mixes).
    ///
    /// [`summary`]: MatrixReport::summary
    pub fn summary_for_family(&self, kind: ControllerKind, family: &str) -> ControllerSummary {
        self.summarize(kind, Some(family))
    }

    fn summarize(&self, kind: ControllerKind, family: Option<&str>) -> ControllerSummary {
        let name = kind.name();
        let outcomes: Vec<&ScenarioOutcome> = self
            .for_controller(name)
            .filter(|o| family.is_none_or(|f| o.family == f))
            .collect();
        let runs = outcomes.len();
        let converged_runs: Vec<&&ScenarioOutcome> =
            outcomes.iter().filter(|o| o.converged).collect();
        let converged = converged_runs.len();
        let within = outcomes
            .iter()
            .filter(|o| o.converged && o.steps_final_phase <= 3)
            .count();
        let mean = |xs: &[f64]| {
            if xs.is_empty() {
                0.0
            } else {
                xs.iter().sum::<f64>() / xs.len() as f64
            }
        };
        let steps: Vec<f64> = converged_runs
            .iter()
            .map(|o| o.steps_final_phase as f64)
            .collect();
        let over: Vec<f64> = converged_runs
            .iter()
            .map(|o| o.overprovision_factor)
            .collect();
        let reversals: Vec<f64> = outcomes.iter().map(|o| o.reversals as f64).collect();
        let instance_hours: Vec<f64> = outcomes.iter().map(|o| o.instance_hours).collect();
        let state_hours: Vec<f64> = outcomes.iter().map(|o| o.state_budget_hours).collect();
        ControllerSummary {
            controller: name,
            runs,
            converged,
            within_three_steps: within,
            fraction_within_three: if runs == 0 {
                0.0
            } else {
                within as f64 / runs as f64
            },
            mean_steps: mean(&steps),
            max_steps: outcomes
                .iter()
                .map(|o| o.steps_final_phase)
                .max()
                .unwrap_or(0),
            mean_overprovision: mean(&over),
            underprovisioned_runs: outcomes
                .iter()
                .filter(|o| o.underprovisioned_ops > 0)
                .count(),
            mean_reversals: mean(&reversals),
            total_decisions: outcomes.iter().map(|o| o.decisions_total).sum(),
            mean_instance_hours: mean(&instance_hours),
            mean_state_budget_hours: mean(&state_hours),
            mean_fault_windows: mean(
                &outcomes
                    .iter()
                    .map(|o| o.fault_windows as f64)
                    .collect::<Vec<f64>>(),
            ),
            total_vetoed: outcomes.iter().map(|o| o.vetoed_windows as usize).sum(),
            total_retries: outcomes.iter().map(|o| o.retries as usize).sum(),
        }
    }

    /// Whether any outcome ran on the multi-dimensional resource model —
    /// when true, the rendered tables grow the per-dimension resource
    /// columns (`inst_hrs`, `state_hrs`). Parallelism-only reports render
    /// byte-identically to the pre-multi-dim format.
    pub fn is_multidim(&self) -> bool {
        self.outcomes.iter().any(|o| o.multidim)
    }

    /// Whether any outcome ran with fault injection — when true, the
    /// rendered tables grow the robustness columns (`faultw`, `vetoed`,
    /// `retries`). Fault-free reports render byte-identically to the
    /// pre-fault format.
    pub fn is_faulted(&self) -> bool {
        self.outcomes.iter().any(|o| o.faulted)
    }

    /// Renders a per-controller comparison table.
    ///
    /// Multi-dimensional reports (see [`is_multidim`](Self::is_multidim))
    /// append two resource columns: `inst_hrs` — mean non-source
    /// instance-hours per run (the parallelism bill) — and `state_hrs` —
    /// mean instance-hours of budgeted stateful operators (the state
    /// bill).
    pub fn render(&self, controllers: &[ControllerKind]) -> String {
        self.render_table(controllers, None)
    }

    /// Renders the per-family breakdown: one row per scenario family ×
    /// controller, in first-appearance family order. Deterministic for any
    /// thread count (the report is). Multi-dimensional reports grow the
    /// same per-dimension resource columns as [`render`](Self::render).
    pub fn render_families(&self, controllers: &[ControllerKind]) -> String {
        self.render_table(controllers, Some(&self.families()))
    }

    /// The table both renderers print: a row per controller, or with
    /// `families` a family column and a row per family × controller.
    fn render_table(&self, controllers: &[ControllerKind], families: Option<&[&str]>) -> String {
        let multidim = self.is_multidim();
        let faulted = self.is_faulted();
        // Faulted reports widen the name column for `ds2_hardened`;
        // fault-free reports keep the classic widths byte-for-byte.
        let w = if faulted { 12 } else { 10 };
        let mut out = String::from(if families.is_some() {
            "family       "
        } else {
            ""
        });
        out.push_str(&format!(
            "{:<w$}  runs  conv  <=3steps  frac    mean_steps  max  over    under  reversals  decisions",
            "controller",
        ));
        if multidim {
            out.push_str("  inst_hrs  state_hrs");
        }
        if faulted {
            out.push_str("  faultw  vetoed  retries");
        }
        out.push('\n');
        let rows: Vec<Option<&str>> = match families {
            Some(families) => families.iter().copied().map(Some).collect(),
            None => vec![None],
        };
        for family in rows {
            for &kind in controllers {
                let s = self.summarize(kind, family);
                if let Some(family) = family {
                    out.push_str(&format!("{family:<11}  "));
                }
                out.push_str(&format!(
                    "{:<w$}  {:>4}  {:>4}  {:>8}  {:>5.2}  {:>10.2}  {:>3}  {:>6.2}  {:>5}  {:>9.2}  {:>9}",
                    s.controller,
                    s.runs,
                    s.converged,
                    s.within_three_steps,
                    s.fraction_within_three,
                    s.mean_steps,
                    s.max_steps,
                    s.mean_overprovision,
                    s.underprovisioned_runs,
                    s.mean_reversals,
                    s.total_decisions,
                ));
                if multidim {
                    out.push_str(&format!(
                        "  {:>8.3}  {:>9.3}",
                        s.mean_instance_hours, s.mean_state_budget_hours,
                    ));
                }
                if faulted {
                    out.push_str(&format!(
                        "  {:>6.1}  {:>6}  {:>7}",
                        s.mean_fault_windows, s.total_vetoed, s.total_retries,
                    ));
                }
                out.push('\n');
            }
        }
        out
    }
}

/// Runs one closed loop on `arena`'s snapshot buffer, adds the engine's
/// fast-forward counters to the arena's, and hands the controller back.
fn drive<C: ScalingController>(
    engine: FluidEngine,
    controller: C,
    harness: HarnessConfig,
    arena: &mut CellArena,
) -> (RunResult, C) {
    let mut the_loop = ClosedLoop::new(engine, controller, harness);
    let result = the_loop.run_reusing(&mut arena.snapshot);
    arena.ff_stats += the_loop.engine().fastforward_stats();
    (result, the_loop.into_controller())
}

/// Drives the scenario × controller cross-product.
#[derive(Debug, Clone, Default)]
pub struct ScenarioMatrix {
    config: MatrixConfig,
}

impl ScenarioMatrix {
    /// Creates a matrix runner.
    pub fn new(config: MatrixConfig) -> Self {
        Self { config }
    }

    /// The matrix configuration.
    pub fn config(&self) -> &MatrixConfig {
        &self.config
    }

    /// The number of worker threads the runner will actually use: never
    /// more than there are scenarios.
    pub fn effective_threads(&self) -> usize {
        let threads = if self.config.threads == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            self.config.threads
        };
        threads.clamp(1, self.config.scenarios.max(1))
    }

    /// Runs the full cross-product and scores every run.
    ///
    /// Scenarios are sharded over
    /// [`effective_threads`](Self::effective_threads) workers; the report
    /// is bit-identical for any thread count.
    pub fn run(&self) -> MatrixReport {
        self.run_with(|_, _| {})
    }

    /// Like [`run`](Self::run), invoking `observer` with each scenario and
    /// its freshly scored outcome (progress reporting, per-run logging).
    ///
    /// With one worker thread the observer sees cells in matrix order
    /// (scenario-major); with several it sees each scenario's cells in
    /// controller order and the scenarios in completion order. The returned
    /// report is ordered and bit-identical either way.
    pub fn run_with<F>(&self, observer: F) -> MatrixReport
    where
        F: FnMut(&ScenarioSpec, &ScenarioOutcome),
    {
        self.run_with_stats(observer).0
    }

    /// Like [`run_with`](Self::run_with), also returning the engines'
    /// fast-forward tick counters summed over every worker's arena — how
    /// many ticks ran in full and how many were replayed, by kind. The
    /// counters describe *how* the matrix was computed, not its result:
    /// they differ between fast-forward and exact runs whose reports are
    /// equal.
    pub fn run_with_stats<F>(&self, mut observer: F) -> (MatrixReport, FastForwardStats)
    where
        F: FnMut(&ScenarioSpec, &ScenarioOutcome),
    {
        let scenarios = self.config.scenarios;
        let threads = self.effective_threads();

        if threads <= 1 {
            // One worker: the cells run inline on the caller's thread, in
            // matrix order, through one arena.
            let mut outcomes = Vec::with_capacity(scenarios * self.config.controllers.len());
            let mut arena = CellArena::new();
            for i in 0..scenarios {
                self.run_scenario(i, &mut arena, |spec, outcome| {
                    observer(spec, &outcome);
                    outcomes.push(outcome);
                });
            }
            return (MatrixReport { outcomes }, arena.fastforward_stats());
        }

        // Several workers: a work queue of scenario indices fanned out over
        // scoped workers, each running the same per-scenario body. A row
        // is a pure function of `(base_seed, scenario_index)`, so it is
        // independent of which worker ran it and when; rows are merged into
        // their scenario's slot, reproducing matrix order exactly.
        let mut rows: Vec<Option<Vec<ScenarioOutcome>>> = (0..scenarios).map(|_| None).collect();
        let mut ff_stats = FastForwardStats::default();
        std::thread::scope(|scope| {
            let (work_tx, work_rx) = crossbeam::channel::unbounded();
            let (result_tx, result_rx) = crossbeam::channel::bounded(threads * 2);
            for i in 0..scenarios {
                work_tx.send(i).expect("queue open");
            }
            drop(work_tx);

            let mut workers = Vec::with_capacity(threads);
            for _ in 0..threads {
                let work_rx = work_rx.clone();
                let result_tx = result_tx.clone();
                workers.push(scope.spawn(move || {
                    // One arena per worker, recycled across all of its cells.
                    let mut arena = CellArena::new();
                    while let Ok(i) = work_rx.recv() {
                        let mut row = Vec::with_capacity(self.config.controllers.len());
                        let spec = self.run_scenario(i, &mut arena, |_, o| row.push(o));
                        if result_tx.send((i, spec, row)).is_err() {
                            // Collector gone (panic unwinding); stop early.
                            break;
                        }
                    }
                    arena.fastforward_stats()
                }));
            }
            drop(result_tx);

            while let Ok((i, spec, row)) = result_rx.recv() {
                for outcome in &row {
                    observer(&spec, outcome);
                }
                rows[i] = Some(row);
            }
            for worker in workers {
                ff_stats += worker.join().expect("matrix worker panicked");
            }
        });

        let outcomes = rows
            .into_iter()
            .flat_map(|row| row.expect("every scenario ran exactly once"))
            .collect();
        (MatrixReport { outcomes }, ff_stats)
    }

    /// The cell body both runners share: generates scenario `i` once, runs
    /// every configured controller on it through `arena` in controller
    /// order, hands each outcome to `emit` as soon as it is scored, and
    /// returns the scenario.
    fn run_scenario(
        &self,
        i: usize,
        arena: &mut CellArena,
        mut emit: impl FnMut(&ScenarioSpec, ScenarioOutcome),
    ) -> ScenarioSpec {
        let spec = ScenarioSpec::generate(self.config.base_seed + i as u64, &self.config.generator);
        for &kind in &self.config.controllers {
            emit(&spec, self.run_one_with(&spec, kind, arena));
        }
        spec
    }

    /// Runs one scenario under one controller using `arena`'s recycled
    /// buffers, and scores the result. Outcomes are independent of the
    /// arena's history (buffers are fully cleared between uses); the
    /// `arena_reuse_is_bit_identical` test guards that.
    pub(crate) fn run_one_with(
        &self,
        spec: &ScenarioSpec,
        kind: ControllerKind,
        arena: &mut CellArena,
    ) -> ScenarioOutcome {
        let result = self.run_one_raw(spec, kind, arena);
        self.score(spec, kind, &result)
    }

    /// Runs one scenario under one controller and returns the raw
    /// [`RunResult`] (timeline, decisions, final deployment, faults) without
    /// scoring it — the substrate of the fast-forward equivalence tests,
    /// which compare whole results bitwise between engine modes.
    pub fn run_one_raw(
        &self,
        spec: &ScenarioSpec,
        kind: ControllerKind,
        arena: &mut CellArena,
    ) -> RunResult {
        let engine = self.build_engine(spec);
        let harness = HarnessConfig {
            policy_interval_ns: self.config.policy_interval_ns,
            run_duration_ns: self.config.generator.run_duration_ns,
            // Fault draws are keyed on the scenario seed alone, so every
            // controller in a cell row faces the *same* fault sequence.
            faults: FaultPlan::new(spec.seed, self.config.faults),
        };
        let graph = spec.topology.graph.clone();
        match kind {
            ControllerKind::Ds2 | ControllerKind::Ds2Hardened | ControllerKind::Ds2MultiDim => {
                let config = match kind {
                    ControllerKind::Ds2MultiDim => self.ds2_multidim_config(spec),
                    _ => self.ds2_config(),
                };
                // Thread the arena's policy workspace through the manager
                // and recover it for the worker's next cell.
                let manager = ScalingManager::with_workspace(
                    graph,
                    config,
                    std::mem::take(&mut arena.policy_ws),
                );
                let (result, mut manager) = if kind == ControllerKind::Ds2Hardened {
                    let (result, hardened) = drive(engine, Hardened::new(manager), harness, arena);
                    (result, hardened.into_inner())
                } else {
                    drive(engine, manager, harness, arena)
                };
                arena.policy_ws = manager.take_workspace();
                result
            }
            ControllerKind::Dhalion => {
                // All controllers share the matrix's parallelism budget so
                // no baseline can blow up the simulation's instance count.
                let c = DhalionController::new(
                    graph,
                    DhalionConfig {
                        max_parallelism: self.config.max_parallelism,
                        ..Default::default()
                    },
                );
                drive(engine, c, harness, arena).0
            }
            ControllerKind::Threshold => {
                let c = ThresholdController::new(
                    graph,
                    ThresholdConfig {
                        max_parallelism: self.config.max_parallelism,
                        ..Default::default()
                    },
                );
                drive(engine, c, harness, arena).0
            }
            ControllerKind::Queueing => {
                let c = QueueingController::new(
                    graph,
                    QueueingConfig {
                        max_parallelism: self.config.max_parallelism,
                        ..Default::default()
                    },
                );
                drive(engine, c, harness, arena).0
            }
        }
    }

    /// The DS2 manager configuration the matrix uses (the §5.4 convergence
    /// settings, adapted to the matrix interval).
    pub(crate) fn ds2_config(&self) -> ManagerConfig {
        ManagerConfig {
            policy_interval_ns: self.config.policy_interval_ns,
            warmup_intervals: 1,
            activation_intervals: 1,
            target_rate_ratio: 1.0,
            min_change: 1,
            policy: PolicyConfig {
                max_parallelism: Some(self.config.max_parallelism),
                ..Default::default()
            },
            ..Default::default()
        }
    }

    /// The multi-dimensional DS2 configuration: [`ds2_config`] plus
    /// key-class split detection and the scenario's per-instance state
    /// budget (the machine limit is knowable configuration; *when* state
    /// crosses it is what the controller must detect from the reported
    /// state sizes).
    ///
    /// [`ds2_config`]: ScenarioMatrix::ds2_config
    pub(crate) fn ds2_multidim_config(&self, spec: &ScenarioSpec) -> ManagerConfig {
        let mut config = self.ds2_config();
        config.policy.detect_splits = true;
        if let Some(budget) = spec.state_budget() {
            config.state_budget_per_instance = budget;
        }
        config
    }

    fn build_engine(&self, spec: &ScenarioSpec) -> FluidEngine {
        FluidEngine::new(
            spec.topology.graph.clone(),
            spec.profiles.clone(),
            spec.sources.clone(),
            spec.initial.clone(),
            EngineConfig {
                tick_ns: self.config.tick_ns,
                reconfig_latency_ns: self.config.reconfig_latency_ns,
                seed: spec.seed,
                instrumentation: InstrumentationConfig::disabled(),
                fast_forward: self.config.fast_forward,
                // The matrix report never reads per-record latency or
                // epochs, so the engines record neither: no sample
                // bookkeeping on the hot path, and fast-forward may probe.
                track_record_latency: false,
                ..Default::default()
            },
        )
    }

    fn score(
        &self,
        spec: &ScenarioSpec,
        kind: ControllerKind,
        result: &RunResult,
    ) -> ScenarioOutcome {
        let graph = &spec.topology.graph;
        let optimal = spec.optimal_parallelism();
        let run_end = self.config.generator.run_duration_ns + self.config.policy_interval_ns;

        // Decisions responding to the final workload phase.
        let final_phase: Vec<_> = result
            .decisions
            .iter()
            .filter(|d| d.at_ns >= spec.workload.last_change_ns)
            .collect();
        let steps_final_phase = final_phase.len();

        // Settled: no action over the last three policy intervals, and the
        // job keeps up with the offered rate at the end.
        let settle_ns = 3 * self.config.policy_interval_ns;
        let quiet_tail = result
            .last_decision_ns()
            .map(|t| t + settle_ns <= run_end)
            .unwrap_or(true);
        let final_achieved_ratio = result.final_achieved_ratio(30);
        let converged = quiet_tail && final_achieved_ratio >= 0.9;

        // Provisioning score against the analytic optimum.
        let final_deployment = &result.final_deployment;
        let mut final_instances = 0usize;
        let mut optimal_instances = 0usize;
        let mut underprovisioned_ops = 0usize;
        for op in graph.operators() {
            if graph.is_source(op) {
                continue;
            }
            let p = final_deployment.parallelism(op);
            let o = optimal[&op];
            final_instances += p;
            optimal_instances += o;
            if p < o {
                underprovisioned_ops += 1;
            }
        }

        // SASO stability: per-operator direction reversals across the whole
        // decision sequence.
        let mut reversals = 0usize;
        for op in graph.operators() {
            if graph.is_source(op) {
                continue;
            }
            let mut last = spec.initial.parallelism(op);
            let mut last_dir = 0i8;
            for d in &result.decisions {
                let p = d.plan.parallelism(op);
                if p == last {
                    continue;
                }
                let dir = if p > last { 1 } else { -1 };
                if last_dir != 0 && dir != last_dir {
                    reversals += 1;
                }
                last_dir = dir;
                last = p;
            }
        }

        // Churn after first reaching the final configuration.
        let decisions_after_convergence = final_phase
            .iter()
            .position(|d| plans_equal_non_source(graph, &d.plan, final_deployment))
            .map(|i| steps_final_phase - i - 1)
            .unwrap_or(0);

        // Per-dimension resource bills: parallelism integrated over virtual
        // time between scaling commands (every controller is billed the
        // same way, so parallelism-only and multi-dim runs compare on one
        // scale). Budgeted stateful operators additionally bill their
        // memory slots.
        let budgeted: Vec<_> = graph
            .operators()
            .filter(|&op| {
                !graph.is_source(op)
                    && spec.profiles.get(&op).is_some_and(|p| {
                        p.state.as_ref().is_some_and(|s| {
                            s.budget_per_instance_bytes.is_finite()
                                && s.budget_per_instance_bytes > 0.0
                        })
                    })
            })
            .collect();
        let count = |dep: &Deployment| -> (usize, usize) {
            let total = graph
                .operators()
                .filter(|&op| !graph.is_source(op))
                .map(|op| dep.parallelism(op))
                .sum();
            let state = budgeted.iter().map(|&op| dep.parallelism(op)).sum();
            (total, state)
        };
        const NS_PER_HOUR: f64 = 3.6e12;
        let mut instance_hours = 0.0;
        let mut state_budget_hours = 0.0;
        let (mut cur_total, mut cur_state) = count(&spec.initial);
        let mut t_ns = 0u64;
        for d in &result.decisions {
            let at = d.at_ns.min(run_end);
            let seg = at.saturating_sub(t_ns) as f64 / NS_PER_HOUR;
            instance_hours += cur_total as f64 * seg;
            state_budget_hours += cur_state as f64 * seg;
            (cur_total, cur_state) = count(&d.plan);
            t_ns = at.max(t_ns);
        }
        let seg = run_end.saturating_sub(t_ns) as f64 / NS_PER_HOUR;
        instance_hours += cur_total as f64 * seg;
        state_budget_hours += cur_state as f64 * seg;

        let hot_share = spec
            .profiles
            .values()
            .filter_map(|p| p.skew_hot_fraction)
            .fold(0.0, f64::max);

        ScenarioOutcome {
            seed: spec.seed,
            controller: kind.name(),
            family: spec.family.name(),
            topology: spec.topology.shape.name(),
            workload: spec.workload.shape.name(),
            operators: graph.len(),
            decisions_total: result.decisions.len(),
            steps_final_phase,
            converged,
            final_achieved_ratio,
            overprovision_factor: if optimal_instances == 0 {
                1.0
            } else {
                final_instances as f64 / optimal_instances as f64
            },
            underprovisioned_ops,
            reversals,
            decisions_after_convergence,
            final_instances,
            optimal_instances,
            instance_hours,
            state_budget_hours,
            hot_share,
            multidim: kind == ControllerKind::Ds2MultiDim,
            faulted: !self.config.faults.is_none(),
            fault_windows: result.faults.faulted_windows,
            vetoed_windows: result.controller_faults.vetoed_windows,
            retries: result.controller_faults.retries,
        }
    }
}

/// Compares two plans on non-source operators only (sources are never
/// rescaled by the harness).
fn plans_equal_non_source(
    graph: &ds2_core::graph::LogicalGraph,
    a: &Deployment,
    b: &Deployment,
) -> bool {
    graph
        .operators()
        .filter(|&op| !graph.is_source(op))
        .all(|op| a.parallelism(op) == b.parallelism(op))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenarios::workload::WorkloadShape;
    use crate::scenarios::TopologyShape;

    fn small_config(scenarios: usize) -> MatrixConfig {
        MatrixConfig {
            scenarios,
            generator: GeneratorConfig {
                operators: (2, 6),
                run_duration_ns: 180_000_000_000,
                ..Default::default()
            },
            ..Default::default()
        }
    }

    #[test]
    fn ds2_converges_on_a_small_matrix() {
        let mut cfg = small_config(6);
        cfg.controllers = vec![ControllerKind::Ds2];
        // Rate-reachable workloads only: a hot key can make the optimum
        // non-existent and a diurnal curve keeps moving the target, so
        // those shapes are exercised separately without a convergence bar.
        cfg.generator.workloads = vec![
            WorkloadShape::Constant,
            WorkloadShape::Step,
            WorkloadShape::Spike,
        ];
        let report = ScenarioMatrix::new(cfg).run();
        assert_eq!(report.outcomes.len(), 6);
        let s = report.summary(ControllerKind::Ds2);
        assert!(
            s.converged >= 5,
            "DS2 should settle on nearly all small scenarios: {s:?}\nfailing: {:?}",
            report.failing_seeds("ds2")
        );
    }

    #[test]
    fn matrix_runs_every_controller() {
        let mut cfg = small_config(2);
        cfg.controllers = ControllerKind::ALL.to_vec();
        let report = ScenarioMatrix::new(cfg).run();
        assert_eq!(report.outcomes.len(), 8);
        for kind in ControllerKind::ALL {
            assert_eq!(report.summary(kind).runs, 2, "{kind:?}");
        }
        // The table renders without panicking and mentions every controller.
        let table = report.render(&ControllerKind::ALL);
        for kind in ControllerKind::ALL {
            assert!(table.contains(kind.name()));
        }
    }

    #[test]
    fn matrix_is_deterministic() {
        let mut cfg = small_config(3);
        cfg.controllers = vec![ControllerKind::Ds2, ControllerKind::Threshold];
        let a = ScenarioMatrix::new(cfg.clone()).run();
        let b = ScenarioMatrix::new(cfg).run();
        assert_eq!(a.outcomes.len(), b.outcomes.len());
        for (x, y) in a.outcomes.iter().zip(&b.outcomes) {
            assert_eq!(x.seed, y.seed);
            assert_eq!(x.controller, y.controller);
            assert_eq!(x.decisions_total, y.decisions_total);
            assert_eq!(x.steps_final_phase, y.steps_final_phase);
            assert_eq!(x.converged, y.converged);
            assert_eq!(x.final_instances, y.final_instances);
            assert!((x.final_achieved_ratio - y.final_achieved_ratio).abs() < 1e-12);
        }
    }

    #[test]
    fn parallel_outcomes_equal_sequential_bit_for_bit() {
        // The determinism guard of the sharded runner: the same config run
        // sequentially and with several workers must produce *identical*
        // `ScenarioOutcome`s in identical order.
        let mut cfg = small_config(4);
        cfg.controllers = vec![ControllerKind::Ds2, ControllerKind::Dhalion];
        cfg.threads = 1;
        let sequential = ScenarioMatrix::new(cfg.clone()).run();
        for threads in [2, 3, 8] {
            cfg.threads = threads;
            let parallel = ScenarioMatrix::new(cfg.clone()).run();
            assert_eq!(
                sequential.outcomes, parallel.outcomes,
                "threads={threads} diverged from sequential"
            );
        }
    }

    #[test]
    fn arena_reuse_is_bit_identical() {
        // The cross-cell leak guard: driving many different cells through
        // ONE dirty arena must produce exactly the outcomes of fresh arenas
        // — reused snapshot buffers and policy workspaces carry no state
        // between cells.
        let cfg = MatrixConfig {
            scenarios: 5,
            generator: GeneratorConfig {
                operators: (2, 10),
                run_duration_ns: 150_000_000_000,
                ..Default::default()
            },
            ..Default::default()
        };
        let matrix = ScenarioMatrix::new(cfg.clone());
        let mut shared = CellArena::new();
        for i in 0..cfg.scenarios {
            let spec = ScenarioSpec::generate(cfg.base_seed + i as u64, &cfg.generator);
            for kind in [ControllerKind::Ds2, ControllerKind::Dhalion] {
                let fresh = matrix.run_one_with(&spec, kind, &mut CellArena::new());
                let reused = matrix.run_one_with(&spec, kind, &mut shared);
                assert_eq!(fresh, reused, "seed {} {kind:?}", spec.seed);
            }
        }
    }

    #[test]
    fn parallel_observer_sees_every_cell_once() {
        let mut cfg = small_config(5);
        cfg.controllers = vec![ControllerKind::Ds2];
        cfg.threads = 4;
        let mut seen = Vec::new();
        let report = ScenarioMatrix::new(cfg.clone()).run_with(|spec, o| {
            assert_eq!(spec.seed, o.seed);
            seen.push(o.seed);
        });
        seen.sort_unstable();
        let expected: Vec<u64> = (0..5).map(|i| cfg.base_seed + i).collect();
        assert_eq!(seen, expected, "observer missed or duplicated cells");
        assert_eq!(report.outcomes.len(), 5);
        // Report stays in matrix order regardless of completion order.
        for (i, o) in report.outcomes.iter().enumerate() {
            assert_eq!(o.seed, cfg.base_seed + i as u64);
        }
    }

    #[test]
    fn effective_threads_bounds() {
        let mut cfg = small_config(2);
        cfg.controllers = vec![ControllerKind::Ds2];
        cfg.threads = 64;
        // Never more workers than scenarios.
        assert_eq!(ScenarioMatrix::new(cfg.clone()).effective_threads(), 2);
        cfg.threads = 1;
        assert_eq!(ScenarioMatrix::new(cfg.clone()).effective_threads(), 1);
        cfg.threads = 0;
        assert!(ScenarioMatrix::new(cfg).effective_threads() >= 1);
    }

    #[test]
    fn new_families_run_through_the_matrix() {
        // Sawtooth / flash-crowd / spike+skew workloads and multi-source
        // topologies flow through generation, simulation and scoring.
        let cfg = MatrixConfig {
            scenarios: 8,
            controllers: vec![ControllerKind::Ds2],
            threads: 2,
            generator: GeneratorConfig {
                workloads: vec![
                    WorkloadShape::Sawtooth,
                    WorkloadShape::FlashCrowd,
                    WorkloadShape::SpikeSkew,
                ],
                shapes: vec![TopologyShape::MultiSource, TopologyShape::Chain],
                operators: (3, 8),
                run_duration_ns: 180_000_000_000,
                ..Default::default()
            },
            ..Default::default()
        };
        let report = ScenarioMatrix::new(cfg).run();
        assert_eq!(report.outcomes.len(), 8);
        for o in &report.outcomes {
            assert!(o.operators >= 3);
            assert!(
                o.optimal_instances > 0,
                "seed {}: no analytic optimum",
                o.seed
            );
        }
    }

    #[test]
    fn multidim_ds2_beats_parallelism_only_on_stress_families() {
        // The refactor's claim in miniature: on hot-key and state-pressure
        // scenarios the multi-dimensional DS2 converges within the paper's
        // three steps strictly more often than parallelism-only DS2, and
        // the report grows the per-dimension resource columns.
        use crate::scenarios::nexmark::ScenarioFamily;
        for family in [ScenarioFamily::HotKey, ScenarioFamily::StatePressure] {
            let cfg = MatrixConfig {
                scenarios: 8,
                controllers: vec![ControllerKind::Ds2, ControllerKind::Ds2MultiDim],
                threads: 2,
                generator: GeneratorConfig {
                    families: vec![family],
                    operators: (2, 6),
                    run_duration_ns: 180_000_000_000,
                    ..Default::default()
                },
                ..Default::default()
            };
            let report = ScenarioMatrix::new(cfg).run();
            assert!(report.is_multidim());
            let ds2 = report.summary(ControllerKind::Ds2);
            let multi = report.summary(ControllerKind::Ds2MultiDim);
            assert!(
                multi.within_three_steps > ds2.within_three_steps,
                "{family:?}: multidim {multi:?} not better than {ds2:?}\n{}",
                report.describe_failures("ds2_multidim"),
            );
            let table = report.render(&[ControllerKind::Ds2, ControllerKind::Ds2MultiDim]);
            assert!(table.contains("inst_hrs") && table.contains("state_hrs"));
            assert!(table.contains("ds2_multidim"));
        }
    }

    #[test]
    fn parallelism_only_reports_keep_the_classic_columns() {
        let mut cfg = small_config(2);
        cfg.controllers = vec![ControllerKind::Ds2];
        let report = ScenarioMatrix::new(cfg).run();
        assert!(!report.is_multidim());
        let table = report.render(&[ControllerKind::Ds2]);
        assert!(
            !table.contains("inst_hrs"),
            "parallelism-only report grew multi-dim columns:\n{table}"
        );
        // Every run still bills instance-hours (the column is hidden, the
        // bookkeeping is not): 180 virtual seconds at >=1 instance is at
        // least 0.05 instance-hours.
        for o in &report.outcomes {
            assert!(
                o.instance_hours > 0.04,
                "seed {}: {}",
                o.seed,
                o.instance_hours
            );
            assert_eq!(o.state_budget_hours, 0.0, "stateless scenario billed state");
        }
    }

    #[test]
    fn skew_scenarios_provision_for_the_hot_instance() {
        // A skewed scenario's optimum must exceed the uniform optimum for
        // the skewed operator — for the pure hot-key family and for the
        // correlated spike+skew family alike.
        for workload in [WorkloadShape::KeySkew, WorkloadShape::SpikeSkew] {
            let cfg = GeneratorConfig {
                workloads: vec![workload],
                shapes: vec![TopologyShape::Chain],
                ..Default::default()
            };
            let mut found = false;
            for seed in 0..80 {
                let spec = ScenarioSpec::generate(seed, &cfg);
                let optimal = spec.optimal_parallelism();
                for (op, profile) in &spec.profiles {
                    let Some(hot) = profile.skew_hot_fraction else {
                        continue;
                    };
                    let p = optimal[op];
                    // Skew only binds once the hot share exceeds the fair
                    // share; below that the weights degrade to uniform.
                    if p > 1 && hot > 1.0 / p as f64 {
                        assert!(
                            profile.effective_capacity_split(p, 1)
                                < profile.real_capacity(p) * p as f64
                        );
                        found = true;
                    }
                }
            }
            assert!(
                found,
                "{workload:?}: no skewed operator needed parallelism > 1"
            );
        }
    }

    #[test]
    fn multi_source_optimum_accounts_for_summed_feeds() {
        // In a multi-source topology every feed runs the full schedule, so
        // the merge operator's analytic target is `n_sources × final_rate`
        // and its optimum reflects the summed load.
        let cfg = GeneratorConfig {
            workloads: vec![WorkloadShape::Constant],
            shapes: vec![TopologyShape::MultiSource],
            operators: (4, 10),
            ..Default::default()
        };
        let mut checked = 0;
        for seed in 0..40 {
            let spec = ScenarioSpec::generate(seed, &cfg);
            let graph = &spec.topology.graph;
            let n_sources = graph.sources().len();
            if n_sources < 2 {
                continue;
            }
            let targets = spec.target_rates(spec.workload.final_rate);
            // The merge operator: the unique downstream of every source.
            let merge = graph
                .downstream_edges(graph.sources()[0])
                .next()
                .unwrap()
                .to;
            assert!(
                (targets[&merge] - n_sources as f64 * spec.workload.final_rate).abs() < 1e-6,
                "seed {seed}: merge target {} != {n_sources} × {}",
                targets[&merge],
                spec.workload.final_rate
            );
            // And the optimum is enough for the summed feeds.
            let p = spec.optimal_parallelism()[&merge];
            assert!(
                spec.profiles[&merge].effective_capacity_split(p, 1)
                    >= targets[&merge] * (1.0 - 1e-9),
                "seed {seed}: optimum {p} insufficient for summed feeds"
            );
            checked += 1;
        }
        assert!(checked >= 10, "only {checked} multi-source scenarios seen");
    }
}
