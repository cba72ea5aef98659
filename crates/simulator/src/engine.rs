//! The fluid queueing engine: a deterministic, virtual-time simulation of a
//! distributed streaming dataflow.
//!
//! The engine advances in fixed ticks. Each tick, operator instances drain
//! their input queues subject to (a) per-instance service capacity derived
//! from their [`OperatorProfile`], (b)
//! skewed key partitioning across instances, and (c) the execution-model
//! personality:
//!
//! * **Flink** — bounded *per-instance* input queues; an upstream operator
//!   blocks on output as soon as any receiving instance's queue is full
//!   (credit-based flow control preserves FIFO order, so one full channel
//!   stalls the sender); rescaling is stop-the-world savepoint-and-restore.
//! * **Heron** — the same partitioned queues but much larger (the paper's
//!   100 MiB operator queues), plus a backpressure *signal*: when any queue
//!   crosses its high watermark the sources stop entirely until every queue
//!   drains below the low watermark (Heron's spout-pausing behaviour, which
//!   is why Dhalion's reaction time depends on queue fill, §5.2).
//! * **Timely** — a global worker pool shared by all operators round-robin,
//!   one unbounded queue per operator, no backpressure: when
//!   under-provisioned the queues simply grow (§5.5).
//!
//! Each queue holds one run of records stamped with the interval of source
//! emission times they are taken to be spread over uniformly, which gives
//! end-to-end record latency and epoch-completion tracking at O(1) per
//! queue ([`crate::queue`]). Per-instance §4.1 counters
//! (records in/out, useful time, waits) are maintained in virtual time and
//! exported as [`MetricsSnapshot`]s.
//!
//! All per-operator runtime structures are dense arenas indexed by
//! [`OperatorId::index`](ds2_core::graph::OperatorId::index); see
//! [`FluidEngine`] for the allocation discipline of the tick path.
//! Partitions with equal input shares are simulated as one representative
//! *class* scaled by its count — they are bitwise clones of each other,
//! so a uniform 64-wide operator ticks at the cost of a 1-wide one — and
//! provably steady ticks are replayed rather than re-executed
//! ([`crate::fastforward`], [`FluidEngine::tick_within`]).

use std::collections::BTreeMap;

use ds2_core::deployment::Deployment;
use ds2_core::graph::{LogicalGraph, OperatorId};
use ds2_core::opmap::OpMap;
use ds2_core::rates::InstanceMetrics;
use ds2_core::snapshot::MetricsSnapshot;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::fastforward::{
    self, cycle_length, DriftQueue, FastForward, FastForwardStats, OpMark, QueueLog,
};
use crate::latency::{EpochTracker, LatencyRecorder};
use crate::profile::{OperatorProfile, OutputMode, ProfileMap};
use crate::queue::{EpochQueue, Span};
use crate::source::SourceSpec;

/// Execution-model personality (§4.3 and §5).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineMode {
    /// Per-operator parallelism, bounded queues, blocking backpressure.
    Flink,
    /// Per-operator parallelism, large queues, spout-pausing backpressure.
    Heron,
    /// Global worker pool, unbounded queues, no backpressure.
    Timely,
}

/// Instrumentation cost model (Fig. 10).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InstrumentationConfig {
    /// Whether §4.1 instrumentation is active.
    pub enabled: bool,
    /// Extra per-record cost of maintaining counters, in nanoseconds. Added
    /// to the *measured* (and real) processing cost when enabled — the
    /// counters run inside the instance's processing loop.
    pub per_record_cost_ns: f64,
}

impl InstrumentationConfig {
    /// Instrumentation disabled (the Fig. 10 "vanilla" baseline).
    pub fn disabled() -> Self {
        Self {
            enabled: false,
            per_record_cost_ns: 0.0,
        }
    }
}

impl Default for InstrumentationConfig {
    fn default() -> Self {
        Self {
            enabled: true,
            per_record_cost_ns: 25.0,
        }
    }
}

/// Engine configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineConfig {
    /// Execution-model personality.
    pub mode: EngineMode,
    /// Simulation step in nanoseconds (default 10 ms).
    pub tick_ns: u64,
    /// Per-instance input queue capacity in records (Flink mode).
    pub per_instance_queue: f64,
    /// Per-instance queue capacity in records for Heron mode (the paper's
    /// 100 MiB operator queues).
    pub heron_per_instance_queue: f64,
    /// Stop-the-world redeployment latency in nanoseconds.
    pub reconfig_latency_ns: u64,
    /// RNG seed for service-noise sampling.
    pub seed: u64,
    /// Standard deviation of multiplicative service-rate noise (0 = exact).
    pub service_noise: f64,
    /// Instrumentation cost model.
    pub instrumentation: InstrumentationConfig,
    /// Initial worker count in Timely mode.
    pub timely_workers: usize,
    /// Macro-tick fast-forward: when the engine can prove that ticks
    /// repeat — a steady state, queues drifting inside their linear regime,
    /// a halt for redeployment (see [`crate::fastforward`]) — it replays
    /// the recorded per-tick operations instead of re-executing the
    /// ticks. Results are bitwise identical to exact execution; disable
    /// (the `--exact` escape hatch) to force tick-by-tick execution.
    pub fast_forward: bool,
    /// Per-record latency and epoch recording. A recording engine never
    /// starts a fast-forward probe: it executes every tick except those of
    /// a halt. When disabled, [`FluidEngine::latency`] and
    /// [`FluidEngine::epochs`] stay empty. The queue model is the same
    /// either way, so the switch changes nothing else the engine reports.
    /// The scenario matrix runs with it off.
    pub track_record_latency: bool,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            mode: EngineMode::Flink,
            tick_ns: 10_000_000, // 10 ms
            per_instance_queue: 5_000.0,
            heron_per_instance_queue: 1_000_000.0,
            reconfig_latency_ns: 30_000_000_000, // 30 s, the §5.3 Flink savepoint time
            seed: 42,
            service_noise: 0.0,
            instrumentation: InstrumentationConfig::default(),
            timely_workers: 1,
            fast_forward: true,
            track_record_latency: true,
        }
    }
}

/// Epoch length for completion-latency tracking: the paper's 1 s of data
/// per epoch (§5.5).
const EPOCH_NS: u64 = 1_000_000_000;

/// Per-instance accumulation between snapshots (virtual-time counters).
/// Also the unit of fast-forward delta capture: a probe tick runs with the
/// accumulators zeroed, so the values left behind are exactly the tick's
/// addends (see [`crate::fastforward`]).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub(crate) struct InstanceAcc {
    pub(crate) records_in: f64,
    pub(crate) records_out: f64,
    pub(crate) useful_ns: f64,
    pub(crate) wait_input_ns: f64,
    pub(crate) wait_output_ns: f64,
}

impl InstanceAcc {
    /// Adds one tick's addends, field by field.
    #[inline]
    fn add(&mut self, d: &InstanceAcc) {
        self.records_in += d.records_in;
        self.records_out += d.records_out;
        self.useful_ns += d.useful_ns;
        self.wait_input_ns += d.wait_input_ns;
        self.wait_output_ns += d.wait_output_ns;
    }
}

/// One *class* of identical partitions.
///
/// Partitions of an operator that carry the same input share are bitwise
/// clones of each other for the whole simulation: they start empty, every
/// push hands each of them `records × share`, and every drain takes
/// `min(len, capacity)` of identical lengths — so by induction their queue
/// states never diverge. The engine therefore simulates **one
/// representative partition per distinct share** and scales the aggregates
/// by `count`. Uniform operators collapse to a single class; a hot-key
/// operator to two (the hot instance and the cold rest) — which is what
/// turns the former `O(parallelism)` tick cost into `O(1)` per operator.
#[derive(Debug)]
struct PartitionClass {
    /// The representative partition's input queue.
    queue: EpochQueue,
    /// Input share of *each* partition in the class.
    share: f64,
    /// How many identical partitions this class represents.
    count: usize,
}

/// One class of identical instances: the representative's accumulator plus
/// the instance count it stands for. Snapshot collection expands it back
/// into `count` identical per-instance rows.
#[derive(Debug, Clone, Copy)]
struct AccClass {
    acc: InstanceAcc,
    count: usize,
}

/// Per-operator runtime state.
#[derive(Debug)]
struct OpState {
    /// Partition classes (Flink/Heron: instance partitions grouped by
    /// share; Timely: one class for the shared queue; sources: none).
    classes: Vec<PartitionClass>,
    /// Instance-accumulator classes. For Flink/Heron non-sources these are
    /// parallel to `classes` (instance k owns partition k); sources and
    /// Timely workers collapse to a single class.
    accs: Vec<AccClass>,
    /// Buffered output of a windowed operator awaiting the next firing:
    /// its records, the earliest stamp and the union of the emission
    /// intervals of the chunks it absorbed (see [`absorb`]).
    window: Option<Span>,
    /// Time of the next window firing.
    next_fire_ns: u64,
}

impl OpState {
    /// Total queued records across all partitions.
    fn queued(&self) -> f64 {
        self.classes
            .iter()
            .map(|c| c.queue.len() * c.count as f64)
            .sum()
    }

    /// Total reporting instances.
    fn instances(&self) -> usize {
        self.accs.iter().map(|a| a.count).sum()
    }

    /// Maximum total emission the partitioned queues accept: the first full
    /// partition stalls the sender.
    fn accept_limit(&self) -> f64 {
        let mut limit = f64::INFINITY;
        for c in &self.classes {
            if c.share > 0.0 {
                limit = limit.min(c.queue.space() / c.share);
            }
        }
        limit
    }

    /// Pushes `chunk` split across partitions by share: one representative
    /// push per class, each carrying the chunk's stamps.
    fn push_partitioned(&mut self, chunk: Span) {
        self.push_partitioned_with(chunk, |_, _| {});
    }

    /// [`OpState::push_partitioned`], reporting each `(class index, records)`
    /// to `observe` just before it is pushed (the fast-forward probe logs
    /// them; the plain path passes a no-op that compiles away).
    #[inline]
    fn push_partitioned_with(&mut self, chunk: Span, mut observe: impl FnMut(usize, f64)) {
        for (k, c) in self.classes.iter_mut().enumerate() {
            if c.share > 0.0 {
                let records = chunk.records * c.share;
                observe(k, records);
                c.queue.push(Span { records, ..chunk });
            }
        }
    }
}

/// Adds `chunk` to a window buffer: the records are summed, the earliest
/// stamp and the union of the emission intervals kept.
fn absorb(buffer: &mut Option<Span>, chunk: Span) {
    match buffer {
        Some(b) => {
            b.records += chunk.records;
            b.born_ns = b.born_ns.min(chunk.born_ns);
            b.cover(&chunk);
        }
        None => *buffer = Some(chunk),
    }
}

/// Statistics of the most recent tick, for timelines.
///
/// The per-source maps are dense [`OpMap`] arenas the engine recycles
/// across ticks (epoch-stamped clear), so reading them per tick is
/// allocation-free; use [`TickStats::total_offered`] /
/// [`TickStats::total_emitted`] for the common aggregate.
#[derive(Debug, Clone, Default)]
pub struct TickStats {
    /// Records each source offered this tick.
    pub offered: OpMap<f64>,
    /// Records each source actually emitted this tick.
    pub emitted: OpMap<f64>,
    /// Whether the Heron backpressure signal was active.
    pub backpressure: bool,
    /// Whether the engine was halted for redeployment.
    pub halted: bool,
}

impl TickStats {
    /// Total records offered by all sources this tick.
    pub fn total_offered(&self) -> f64 {
        self.offered.values().sum()
    }

    /// Total records emitted by all sources this tick.
    pub fn total_emitted(&self) -> f64 {
        self.emitted.values().sum()
    }

    fn clear(&mut self) {
        self.offered.clear();
        self.emitted.clear();
        self.backpressure = false;
        self.halted = false;
    }
}

/// Events produced by a tick.
#[derive(Debug, Clone, Default)]
pub struct TickEvents {
    /// A pending rescale finished deploying this tick.
    pub deployed: Option<Deployment>,
}

/// The fluid queueing engine.
///
/// All per-operator runtime structures are dense arenas indexed by
/// [`OperatorId::index`] — operator state, source backlog, cached downstream
/// edges, per-record cost cache and the per-tick scratch buffers — so the
/// tick loop is pure index arithmetic over contiguous memory and performs no
/// heap allocation in steady state.
#[derive(Debug)]
pub struct FluidEngine {
    graph: LogicalGraph,
    /// Operator cost profiles, dense by operator id (sources have none).
    profiles: OpMap<OperatorProfile>,
    /// Source specifications, dense by operator id.
    sources: OpMap<SourceSpec>,
    cfg: EngineConfig,
    deployment: Deployment,
    timely_workers: usize,
    /// Per-operator runtime state, indexed by operator id.
    states: Vec<OpState>,
    /// Durable backlog per operator id (records offered but not yet
    /// emitted; non-zero only for sources).
    backlog: Vec<f64>,
    now_ns: u64,
    snapshot_start_ns: u64,
    rng: SmallRng,
    pending_rescale: Option<(u64, Deployment, usize)>,
    heron_backpressure: bool,
    latency: LatencyRecorder,
    epochs: EpochTracker,
    last_tick: TickStats,
    /// Reverse topological order (sinks first), cached.
    reverse_topo: Vec<OperatorId>,
    /// Non-source operators in topological order (Timely water-filling).
    non_source_topo: Vec<OperatorId>,
    /// Downstream `(to, weight)` edges per operator id, cached at
    /// construction (the graph never changes; collecting these per tick
    /// dominated the allocator profile of large matrix runs).
    down_edges: Vec<Vec<(OperatorId, f64)>>,
    /// Per-operator `(instrumented, real)` cost per record at the current
    /// deployment, in ns, indexed by operator id (`(0, 0)` for sources).
    /// Rebuilt on every redeployment — the scaling-curve multipliers
    /// involve `exp()` and only change when parallelism does.
    cost_cache: Vec<(f64, f64)>,
    /// Output mode per operator id (`None` for sources), cached so the tick
    /// path never chases the profile map.
    output_modes: Vec<Option<OutputMode>>,
    /// Window firing period per operator id, cached from the profiles.
    window_periods: Vec<Option<u64>>,
    /// Per-partition drain scratch (operator_process).
    takes_scratch: Vec<f64>,
    /// Drained-chunk scratch of `operator_process` (one per class).
    span_scratch: Vec<Span>,
    /// Timely water-filling scratch: eligible records per operator id.
    eligible_scratch: Vec<f64>,
    /// Timely water-filling scratch: per-operator noise factors.
    noise_scratch: Vec<f64>,
    /// Macro-tick fast-forward state machine (probe/replay bookkeeping).
    ff: FastForward,
    /// Whether any operator uses windowed output (window firings are tied
    /// to absolute time, so replay must carry `next_fire_ns` along).
    has_windowed: bool,
    /// Length in ticks of the cycle a fast-forward probe records — the
    /// least common multiple of the window periods, `1` without windows —
    /// or `0` when the engine never probes: latency tracking, service noise,
    /// Timely mode, or windows off the tick grid or too long a cycle.
    probe_cycle: u32,
    /// Whether any operator carries a [`StateProfile`]. Gates the whole
    /// spill path: stateless dataflows never compute spill factors and take
    /// the exact historical float path through the cost cache.
    has_state: bool,
    /// Bit pattern of the total offered source rate the current spill
    /// factors were computed at; `None` until the first refresh. Spill
    /// factors are phase-constant (source schedules are piecewise
    /// constant), which is what keeps them fast-forward-safe.
    spill_rate_bits: Option<u64>,
    /// The rate behind `spill_rate_bits`, for cost-cache rebuilds.
    spill_total_rate: f64,
    /// Cached Timely-mode deployment view (every operator at the worker
    /// pool size), rebuilt when the pool rescales, so
    /// [`FluidEngine::deployment`] can lend it without allocating.
    timely_deployment: Deployment,
}

/// Pushes `chunk` into operator `to`'s partition queues; the `LOG`
/// instantiation also appends every positive per-class push to the probe
/// log, under the queue's walk-order index.
#[inline]
fn route<const LOG: bool>(states: &mut [OpState], log: &mut QueueLog, to: OperatorId, chunk: Span) {
    let st = &mut states[to.index()];
    if LOG {
        let base = log.class_base[to.index()];
        st.push_partitioned_with(chunk, |k, x| {
            // `push` ignores non-positive amounts.
            if x > 0.0 {
                log.pushes.push((base + k as u32, x));
            }
        });
    } else {
        st.push_partitioned(chunk);
    }
}

impl FluidEngine {
    /// Creates an engine for `graph` with the given profiles, sources,
    /// initial deployment and configuration.
    ///
    /// # Panics
    ///
    /// Panics if a non-source operator lacks a profile, a source lacks a
    /// spec, or the deployment misses an operator — these are programming
    /// errors in experiment setup.
    pub fn new(
        graph: LogicalGraph,
        profiles: ProfileMap,
        sources: BTreeMap<OperatorId, SourceSpec>,
        deployment: Deployment,
        cfg: EngineConfig,
    ) -> Self {
        deployment.validate(&graph).expect("invalid deployment");
        for op in graph.operators() {
            if graph.is_source(op) {
                assert!(sources.contains_key(&op), "missing SourceSpec for {op}");
            } else {
                assert!(profiles.contains_key(&op), "missing profile for {op}");
            }
        }
        let m = graph.len();
        let reverse_topo: Vec<OperatorId> = {
            let mut t: Vec<OperatorId> = graph.topological_order().collect();
            t.reverse();
            t
        };
        let non_source_topo: Vec<OperatorId> = graph
            .topological_order()
            .filter(|&op| !graph.is_source(op))
            .collect();
        let down_edges: Vec<Vec<(OperatorId, f64)>> = graph
            .operators()
            .map(|op| {
                graph
                    .downstream_edges(op)
                    .map(|e| (e.to, e.weight))
                    .collect()
            })
            .collect();
        let profiles: OpMap<OperatorProfile> = profiles.into_iter().collect();
        let sources: OpMap<SourceSpec> = sources.into_iter().collect();
        let output_modes: Vec<Option<OutputMode>> = (0..m)
            .map(|i| profiles.get(OperatorId(i)).map(|p| p.output))
            .collect();
        let window_periods: Vec<Option<u64>> = output_modes
            .iter()
            .map(|mode| match mode {
                Some(OutputMode::Windowed { period_ns, .. }) => Some(*period_ns),
                _ => None,
            })
            .collect();
        let timely_workers = cfg.timely_workers.max(1);
        let seed = cfg.seed;
        let has_windowed = window_periods.iter().any(|w| w.is_some());
        let probe_cycle = if cfg.mode == EngineMode::Timely
            || cfg.service_noise > 0.0
            || cfg.track_record_latency
        {
            0
        } else {
            cycle_length(cfg.tick_ns, window_periods.iter().flatten().copied()).unwrap_or(0)
        };
        let has_state = (0..m).any(|i| {
            profiles
                .get(OperatorId(i))
                .is_some_and(|p| p.state.is_some())
        });
        let mut engine = Self {
            graph,
            profiles,
            sources,
            cfg,
            deployment,
            timely_workers,
            states: Vec::new(),
            backlog: vec![0.0; m],
            now_ns: 0,
            snapshot_start_ns: 0,
            rng: SmallRng::seed_from_u64(seed),
            pending_rescale: None,
            heron_backpressure: false,
            latency: LatencyRecorder::new(),
            epochs: EpochTracker::new(EPOCH_NS),
            last_tick: TickStats::default(),
            reverse_topo,
            non_source_topo,
            down_edges,
            cost_cache: vec![(0.0, 0.0); m],
            output_modes,
            window_periods,
            takes_scratch: Vec::new(),
            span_scratch: Vec::new(),
            eligible_scratch: vec![0.0; m],
            noise_scratch: vec![0.0; m],
            ff: FastForward::default(),
            has_windowed,
            probe_cycle,
            has_state,
            spill_rate_bits: None,
            spill_total_rate: 0.0,
            timely_deployment: Deployment::with_len(m),
        };
        engine.init_states();
        engine.rebuild_cost_cache();
        engine.refresh_spill();
        engine.rebuild_timely_deployment();
        engine
    }

    /// Rebuilds the cached Timely-mode deployment view (every operator at
    /// the current worker-pool size).
    fn rebuild_timely_deployment(&mut self) {
        self.timely_deployment.reset(self.graph.len());
        for op in self.graph.operators() {
            self.timely_deployment.set(op, self.timely_workers);
        }
    }

    /// Recomputes the per-record cost of every non-source operator at the
    /// current parallelism (instrumented and real, ns per record).
    fn rebuild_cost_cache(&mut self) {
        for op in self.graph.operators() {
            let i = op.index();
            if self.graph.is_source(op) {
                self.cost_cache[i] = (0.0, 0.0);
                continue;
            }
            let p = match self.cfg.mode {
                EngineMode::Timely => self.timely_workers,
                _ => self.deployment.parallelism(op).max(1),
            };
            let (instr, real) = {
                let profile = &self.profiles[op];
                (
                    self.effective_instr_cost(profile, p),
                    self.effective_real_cost(profile, p),
                )
            };
            // Spill penalty: strictly skipped at factor 1.0 so stateless
            // operators (and stateful ones within budget) keep the exact
            // historical cost bits.
            let spill = self.spill_factor(op, p);
            self.cost_cache[i] = if spill != 1.0 {
                (instr * spill, real * spill)
            } else {
                (instr, real)
            };
        }
    }

    /// Per-record cost multiplier from state spill: when an operator's
    /// per-instance state at the current offered rate exceeds its profile's
    /// per-instance budget, every record pays the spill multiplier (state
    /// accesses go through secondary storage). `1.0` for stateless
    /// operators and stateful ones within budget.
    fn spill_factor(&self, op: OperatorId, p: usize) -> f64 {
        if !self.has_state {
            return 1.0;
        }
        let profile = &self.profiles[op];
        match &profile.state {
            Some(s)
                if s.spill_cost_multiplier > 1.0
                    && profile.state_bytes(p, self.spill_total_rate)
                        > s.budget_per_instance_bytes =>
            {
                s.spill_cost_multiplier
            }
            _ => 1.0,
        }
    }

    /// Total offered rate across all sources at the current virtual time.
    fn total_offered_rate(&self) -> f64 {
        self.sources
            .iter()
            .map(|(_, spec)| spec.schedule.rate_at(self.now_ns))
            .sum()
    }

    /// Recomputes spill factors when the offered source rate changed
    /// (bitwise comparison — schedules are piecewise constant, so this
    /// fires once per phase, not per tick). No-op for stateless dataflows.
    fn refresh_spill(&mut self) {
        if !self.has_state {
            return;
        }
        let rate = self.total_offered_rate();
        if self.spill_rate_bits == Some(rate.to_bits()) {
            return;
        }
        self.spill_rate_bits = Some(rate.to_bits());
        self.spill_total_rate = rate;
        self.rebuild_cost_cache();
    }

    /// Number of metric-reporting instances of an operator.
    fn instances_of(&self, op: OperatorId) -> usize {
        match self.cfg.mode {
            EngineMode::Timely => self.timely_workers,
            _ => self.deployment.parallelism(op).max(1),
        }
    }

    /// Number of partitioned input queues for a non-source operator.
    fn partitions_of(&self, op: OperatorId) -> usize {
        match self.cfg.mode {
            EngineMode::Timely => 1,
            _ => self.deployment.parallelism(op).max(1),
        }
    }

    fn per_partition_capacity(&self) -> f64 {
        match self.cfg.mode {
            EngineMode::Flink => self.cfg.per_instance_queue,
            EngineMode::Heron => self.cfg.heron_per_instance_queue,
            EngineMode::Timely => f64::INFINITY,
        }
    }

    fn partition_shares(&self, op: OperatorId) -> Vec<f64> {
        match self.cfg.mode {
            EngineMode::Timely => vec![1.0],
            // The key-class axis of the deployment flows in here: a plan
            // with `key_classes > 1` spreads the hot class over that many
            // instances. At the default split of 1 this is bitwise the
            // classic single-hot-instance weighting.
            _ => self.profiles[op]
                .instance_weights_split(self.partitions_of(op), self.deployment.key_classes(op)),
        }
    }

    fn make_op_state(&self, op: OperatorId) -> OpState {
        let classes = if self.graph.is_source(op) {
            Vec::new()
        } else {
            let cap = self.per_partition_capacity();
            let mut classes: Vec<PartitionClass> = Vec::new();
            // Group consecutive partitions with bitwise-equal shares into
            // one class (uniform weights: one class; hot-key weights: the
            // hot instance plus one class for the cold rest).
            for share in self.partition_shares(op) {
                match classes.last_mut() {
                    Some(c) if c.share.to_bits() == share.to_bits() => c.count += 1,
                    _ => classes.push(PartitionClass {
                        queue: EpochQueue::new(cap),
                        share,
                        count: 1,
                    }),
                }
            }
            classes
        };
        let instances = self.instances_of(op);
        let accs = if self.graph.is_source(op) || self.cfg.mode == EngineMode::Timely {
            // Source instances (and Timely workers) all do identical work:
            // one accumulator class covers them.
            vec![AccClass {
                acc: InstanceAcc::default(),
                count: instances,
            }]
        } else {
            // Flink/Heron: instance k owns partition k, so accumulator
            // classes mirror the partition classes.
            classes
                .iter()
                .map(|c| AccClass {
                    acc: InstanceAcc::default(),
                    count: c.count,
                })
                .collect()
        };
        OpState {
            classes,
            accs,
            window: None,
            next_fire_ns: self.window_period(op).map_or(u64::MAX, |p| self.now_ns + p),
        }
    }

    fn init_states(&mut self) {
        self.states = self
            .graph
            .operators()
            .map(|op| self.make_op_state(op))
            .collect();
    }

    fn window_period(&self, op: OperatorId) -> Option<u64> {
        self.window_periods.get(op.index()).copied().flatten()
    }

    /// Current virtual time in nanoseconds.
    pub fn now_ns(&self) -> u64 {
        self.now_ns
    }

    /// The engine configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.cfg
    }

    /// The logical graph the engine executes.
    pub fn graph(&self) -> &LogicalGraph {
        &self.graph
    }

    /// The current deployment, borrowed (the closed-loop harness reads it
    /// every policy interval and every timeline sample; a caller wanting
    /// its own copy clones it). In Timely mode this lends a cached
    /// deployment where every operator's parallelism is the worker-pool
    /// size (each worker runs every operator).
    pub fn deployment(&self) -> &Deployment {
        match self.cfg.mode {
            EngineMode::Timely => &self.timely_deployment,
            _ => &self.deployment,
        }
    }

    /// Current Timely worker count.
    pub fn timely_workers(&self) -> usize {
        self.timely_workers
    }

    /// Record latency distribution observed at the sinks so far.
    pub fn latency(&self) -> &LatencyRecorder {
        &self.latency
    }

    /// Epoch completion tracker.
    pub fn epochs(&self) -> &EpochTracker {
        &self.epochs
    }

    /// Statistics of the most recent tick.
    pub fn last_tick(&self) -> &TickStats {
        &self.last_tick
    }

    /// Whether the Heron backpressure signal is currently raised.
    pub fn backpressure_active(&self) -> bool {
        self.heron_backpressure
    }

    /// Current total input-queue length of an operator, in records.
    pub fn queue_len(&self, op: OperatorId) -> f64 {
        self.states.get(op.index()).map_or(0.0, |s| s.queued())
    }

    /// Durable backlog of a source, in records.
    pub fn backlog(&self, op: OperatorId) -> f64 {
        self.backlog.get(op.index()).copied().unwrap_or(0.0)
    }

    /// Requests a rescale to `plan` (Flink/Heron) taking effect after the
    /// configured redeployment latency, during which the job is down.
    pub fn request_rescale(&mut self, plan: Deployment) {
        plan.validate(&self.graph).expect("invalid rescale plan");
        self.ff.invalidate();
        let workers = self.timely_workers;
        self.pending_rescale = Some((self.now_ns + self.cfg.reconfig_latency_ns, plan, workers));
    }

    /// Requests a Timely worker-pool rescale.
    pub fn request_worker_rescale(&mut self, workers: usize) {
        self.ff.invalidate();
        let plan = self.deployment.clone();
        self.pending_rescale = Some((
            self.now_ns + self.cfg.reconfig_latency_ns,
            plan,
            workers.max(1),
        ));
    }

    /// `true` while a redeployment is in progress.
    pub fn is_halted(&self) -> bool {
        self.pending_rescale.is_some()
    }

    fn noise_factor(&mut self) -> f64 {
        if self.cfg.service_noise <= 0.0 {
            return 1.0;
        }
        // Box-Muller transform for a Gaussian factor, clamped to stay
        // positive and bounded.
        let u1: f64 = self.rng.gen_range(1e-12..1.0f64);
        let u2: f64 = self.rng.gen_range(0.0..1.0f64);
        let g = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        (1.0 + self.cfg.service_noise * g).clamp(0.25, 4.0)
    }

    /// Advances the simulation by one tick, always executing it in full.
    ///
    /// Drops any fast-forward state first: external tick-by-tick driving is
    /// the exact reference semantics. Harness loops that want macro-tick
    /// fast-forward call [`FluidEngine::tick_within`] instead.
    pub fn tick(&mut self) -> TickEvents {
        self.ff.invalidate();
        self.full_tick()
    }

    /// Advances the simulation by one tick, replaying an armed transition
    /// (a cycle of ticks, with or without drifting queues, or a halted
    /// step) when possible.
    ///
    /// `horizon_ns` is the caller's *event horizon*: a promise that no
    /// external interaction (metrics-window close acted upon, rescale
    /// request, workload reconfiguration) happens for ticks ending at or
    /// before it. The engine derives the hard correctness boundaries —
    /// source phase changes, pending redeployments, window firings —
    /// itself; the horizon only stops it from starting probe work right
    /// before the caller is going to perturb the dataflow anyway. A probe
    /// that spans several ticks carries on across horizons: closing a
    /// metrics window does not disturb it, and a rescale request cancels
    /// it.
    ///
    /// The outcome is bitwise identical to calling [`FluidEngine::tick`]
    /// in a loop: a replayed tick performs the same queue, accumulator and
    /// backlog arithmetic the full tick would, and anything the engine
    /// cannot prove keeps executing in full. Replay records no latency
    /// samples and advances no epochs: only engines that record neither
    /// probe, and a halted tick does neither. See [`crate::fastforward`]
    /// for the proof obligations.
    pub fn tick_within(&mut self, horizon_ns: u64) -> TickEvents {
        if !self.cfg.fast_forward {
            return self.full_tick();
        }
        if self.ff.can_replay(self.now_ns) && self.replay_batch(1) == 1 {
            return TickEvents::default();
        }
        if self.ff.is_armed() {
            // Armed but unable to replay: the transition's window ended.
            self.ff.invalidate();
        }
        if self.ff.probing() || (self.probe_eligible(horizon_ns) && self.ff.should_probe()) {
            return self.probe_tick();
        }
        let events = self.full_tick();
        self.arm_halted_step();
        events
    }

    /// Cumulative fast-forward work counters (probes, replayed ticks).
    pub fn fastforward_stats(&self) -> FastForwardStats {
        self.ff.stats
    }

    /// `true` while the engine holds a confirmed transition it can replay.
    pub fn fastforward_active(&self) -> bool {
        self.ff.is_armed()
    }

    /// Whether a probe is worth starting this tick.
    fn probe_eligible(&self, horizon_ns: u64) -> bool {
        let tick_ns = self.cfg.tick_ns;
        self.probe_cycle != 0
            && self.pending_rescale.is_none()
            // The first probe tick plus at least one more must fit before
            // the caller's next interaction...
            && self.now_ns + 2 * tick_ns <= horizon_ns
            // ...and the whole cycle plus one replayed tick before the next
            // source phase boundary (a rate change inside or right after
            // the probe would make the captured transition unsound).
            && self
                .next_phase_change()
                .is_none_or(|c| self.now_ns + (self.probe_cycle as u64 + 1) * tick_ns <= c)
    }

    /// Whether this engine can accept drifting queues: only Flink mode reads
    /// queue lengths in nothing but the guarded comparisons (see
    /// [`crate::fastforward`]).
    fn drift_capable(&self) -> bool {
        self.cfg.mode == EngineMode::Flink
    }

    /// The earliest source-schedule rate change strictly after `now`.
    fn next_phase_change(&self) -> Option<u64> {
        self.sources
            .iter()
            .filter_map(|(_, spec)| spec.schedule.next_change_after(self.now_ns))
            .min()
    }

    /// Appends one row of the structural fluid state to the fingerprint.
    /// The `first` row of a probe also lays the queue log out in the same
    /// walk order. A queue's copy — its counts and its run's stamp — fully
    /// determines what later ticks do with it.
    fn capture_state(&mut self, first: bool) {
        let FastForward {
            fingerprint: fp,
            log,
            ..
        } = &mut self.ff;
        if first {
            fp.clear();
            log.clear();
            fp.heron_backpressure = self.heron_backpressure;
        }
        let row = fp.queues.len();
        for (i, st) in self.states.iter().enumerate() {
            fp.ops.push(OpMark {
                backlog: self.backlog[i],
                window: st.window,
                fire_in: match self.window_periods[i] {
                    Some(_) => st.next_fire_ns.wrapping_sub(self.now_ns),
                    None => 0,
                },
            });
            if first {
                log.class_base.push(fp.queues.len() as u32);
            }
            fp.queues.extend(st.classes.iter().map(|c| c.queue));
        }
        fp.width = fp.queues.len() - row;
    }

    /// Whether the cycle a probe just finished recording repeats.
    ///
    /// It does when the last fingerprint row equals the first — queue and
    /// operator marks bitwise, firing times by their distance from now:
    /// the fixed-point test, lifted to the map of the whole cycle. On a
    /// `drift_capable` engine a queue whose mark did change is accepted if
    /// every tick's logged operations keep it inside its linear regime from
    /// the state before that tick, and the first tick's from the state
    /// after the last; such queues and their per-phase operations are left
    /// in `ff.drifting` / `ff.drift`. All comparisons are bitwise:
    /// fast-forward replays only what it can prove exactly.
    fn confirm_cycle(&mut self, drift_capable: bool) -> bool {
        let FastForward {
            fingerprint: fp,
            log,
            drifting,
            drift,
            drift_pushes,
            cycle,
            ..
        } = &mut self.ff;
        drifting.clear();
        drift.clear();
        drift_pushes.clear();
        let (cycle, width, ops) = (*cycle as usize, fp.width, self.states.len());
        if fp.heron_backpressure != self.heron_backpressure
            || !(0..ops).all(|i| fp.ops[i].repeats(&fp.ops[cycle * ops + i]))
        {
            return false;
        }
        let mut qi = 0usize;
        for (i, st) in self.states.iter().enumerate() {
            if !fp.class_tags_settled(log, drift_capable, qi, st.classes.len()) {
                return false;
            }
            for k in 0..st.classes.len() {
                let index = qi;
                qi += 1;
                if fastforward::same(&fp.queues[index], &fp.queues[cycle * width + index]) {
                    continue;
                }
                if !drift_capable {
                    return false;
                }
                drifting.push((index as u32, i as u32, k as u32));
            }
        }
        for phase in 0..cycle {
            for &(index, i, k) in drifting.iter() {
                let capacity = self.states[i as usize].classes[k as usize].queue.capacity();
                let Some(d) =
                    DriftQueue::from_log(log, phase, index, (i, k), capacity, drift_pushes)
                else {
                    return false;
                };
                let before = &fp.queues[phase * width + index as usize];
                if !d.admits(before.run.map(|r| r.records), before.len()) {
                    return false;
                }
                drift.push(d);
            }
        }
        // The state the cycle ends in must admit its first tick again.
        drifting.iter().zip(drift.iter()).all(|(&(index, ..), d)| {
            let after = &fp.queues[cycle * width + index as usize];
            d.admits(after.run.map(|r| r.records), after.len())
        })
    }

    /// Whether the tick just executed offered, emitted and signalled what
    /// the `first` tick of the probe did (whose values it records): callers
    /// read [`FluidEngine::last_tick`] once per replayed batch.
    fn source_stats_repeat(&mut self, first: bool) -> bool {
        let stats = &self.last_tick;
        let bits = self
            .sources
            .iter()
            .map(|(op, _)| (stats.offered[op].to_bits(), stats.emitted[op].to_bits()))
            .chain(std::iter::once((stats.backpressure as u64, 0)));
        let seen = &mut self.ff.source_stats;
        if first {
            seen.clear();
            seen.extend(bits);
            return true;
        }
        seen.iter().copied().eq(bits)
    }

    /// One tick of a probe: a full tick run with delta capture.
    /// Accumulators start from zero so the values they end with are exactly
    /// this tick's addends, then get restored as `saved + addend` — the
    /// identical float operation an unprobed tick performs. Drift-capable
    /// engines run the logging instantiation of the tick body. A probe
    /// records `probe_cycle` consecutive ticks this way, one per call, and
    /// the state after each; the last call arms the cycle if it repeats.
    /// Out of line and cold: the plain tick path must compile as if probes
    /// did not exist.
    #[cold]
    #[inline(never)]
    fn probe_tick(&mut self) -> TickEvents {
        self.ff.stats.full_ticks += 1;
        let first = self.ff.pos == 0;
        if first {
            self.ff.stats.probes += 1;
            self.capture_state(true);
            self.ff.cycle = self.probe_cycle;
            self.ff.deltas.clear();
        }

        let mut saved = std::mem::take(&mut self.ff.saved);
        saved.clear();
        for st in &mut self.states {
            for class in &mut st.accs {
                saved.push(std::mem::take(&mut class.acc));
            }
        }

        let drift_capable = self.drift_capable();
        self.ff.log.begin_tick(self.ff.fingerprint.width);
        let events = if drift_capable {
            self.tick_core::<true>()
        } else {
            self.tick_core::<false>()
        };
        self.ff.log.end_tick();

        let mut saved_it = saved.iter();
        for st in &mut self.states {
            for class in &mut st.accs {
                let d = class.acc;
                // Restore `saved + addend`, the identical float operation
                // the unprobed tick would have performed in place.
                class.acc = *saved_it.next().expect("class count stable within a tick");
                class.acc.add(&d);
                self.ff.deltas.push(d);
            }
        }
        self.ff.saved = saved;
        self.capture_state(false);
        self.ff.pos += 1;

        // (A one-tick cycle has no second tick to differ from the first.)
        if self.ff.cycle > 1 && !self.source_stats_repeat(first) {
            self.ff.probe_failed();
        } else if self.ff.pos == self.ff.cycle {
            if self.confirm_cycle(drift_capable) {
                // No rate changed during the probe, so this is the phase
                // boundary that was next when it started.
                self.ff
                    .arm(false, self.next_phase_change().unwrap_or(u64::MAX));
            } else {
                self.ff.probe_failed();
            }
        }
        events
    }

    /// After a fully executed halted tick that did not deploy: arms the
    /// halted step — `wait_input_ns += tick_ns` per accumulator class and
    /// `backlog += offered` per durable source — for ticks that end before
    /// the deployment lands and start before the next schedule change. A
    /// rate change inside the executed tick (schedules need not be
    /// tick-aligned) leaves it offering the old rate, so the step is armed
    /// only if the next tick offers bitwise the same.
    fn arm_halted_step(&mut self) {
        let Some(resume_at) = self.pending_rescale.as_ref().map(|p| p.0) else {
            return;
        };
        let tick_ns = self.cfg.tick_ns;
        let executed_at = self.now_ns - tick_ns;
        let same_offer = self.sources.iter().all(|(_, spec)| {
            spec.schedule.rate_at(executed_at).to_bits()
                == spec.schedule.rate_at(self.now_ns).to_bits()
        });
        let valid_until = self
            .next_phase_change()
            .unwrap_or(u64::MAX)
            .min(resume_at.saturating_sub(tick_ns));
        if !same_offer || self.now_ns >= valid_until {
            return;
        }
        let ff = &mut self.ff;
        ff.deltas.clear();
        let waiting = InstanceAcc {
            wait_input_ns: tick_ns as f64,
            ..InstanceAcc::default()
        };
        for st in &self.states {
            ff.deltas.extend(st.accs.iter().map(|_| waiting));
        }
        ff.backlog_addends.clear();
        for (op, spec) in self.sources.iter() {
            if spec.durable_backlog {
                ff.backlog_addends
                    .push((op.index(), self.last_tick.offered[op]));
            }
        }
        ff.arm(true, valid_until);
    }

    /// Replays as many armed ticks as fit before `horizon_ns`, returning
    /// how many were replayed (zero when no transition is armed or
    /// fast-forward is disabled; fewer than fit when a drift guard ended
    /// the replay early). The engine-side effects are bitwise identical to
    /// calling [`FluidEngine::tick`] that many times; callers with per-tick
    /// aggregation of their own (the closed-loop harness sums each tick's
    /// offered/emitted counts into timeline buckets) replicate it for the
    /// returned count — the per-tick values are constants, read once from
    /// [`FluidEngine::last_tick`].
    pub fn replay_steady(&mut self, horizon_ns: u64) -> u64 {
        if !self.cfg.fast_forward {
            return 0;
        }
        let ticks = self
            .ff
            .replayable_ticks(self.now_ns, self.cfg.tick_ns, horizon_ns);
        self.replay_batch(ticks)
    }

    /// Advances the drifting queues of the armed cycle by up to `ticks`
    /// ticks from the current phase, returning how many were applied.
    /// Before each tick every drifting queue's guards for that phase are
    /// re-checked on its current state — a tick is replayed for all queues
    /// or for none — and then that phase's recorded drain and pushes are
    /// applied verbatim. Cycles without drifting queues admit every tick.
    fn replay_drift(&mut self, ticks: u64) -> u64 {
        let ff = &self.ff;
        let queues = ff.drifting.len();
        if queues == 0 {
            return ticks;
        }
        let states = &mut self.states;
        let cycle = ff.cycle as usize;
        let mut phase = ff.pos as usize;
        let mut drift = &ff.drift[phase * queues..][..queues];
        for done in 0..ticks {
            let admitted = drift.iter().all(|d| {
                let q = &states[d.op as usize].classes[d.class as usize].queue;
                d.admits(q.run.map(|r| r.records), q.len())
            });
            if !admitted {
                return done;
            }
            for d in drift {
                let (from, to) = d.pushes;
                states[d.op as usize].classes[d.class as usize]
                    .queue
                    .replay_linear(d.take, &ff.drift_pushes[from as usize..to as usize]);
            }
            // A one-tick cycle repeats the same operations.
            if cycle > 1 {
                phase = if phase + 1 == cycle { 0 } else { phase + 1 };
                drift = &ff.drift[phase * queues..][..queues];
            }
        }
        ticks
    }

    /// Replays the armed transition for up to `ticks` ticks from the
    /// current phase of its cycle and returns how many it replayed: per
    /// tick the recorded queue drift and that phase's accumulator and
    /// backlog additions the full ticks would perform — and nothing else
    /// (no latency samples, no epoch advances: replayed engines record
    /// neither, or are halted); the state that merely cycles is set once,
    /// to what the probe recorded after the last replayed phase. A drift guard
    /// that fails ends the replay before the tick it refused and drops the
    /// transition (that tick then runs in full). Sums are built by repeated
    /// addition of the recorded addends — the exact float operations of
    /// tick-by-tick execution, not a multiplied approximation — with the
    /// five per-instance fields interleaved so the dependency chains
    /// pipeline.
    #[inline(never)]
    fn replay_batch(&mut self, requested: u64) -> u64 {
        if requested == 0 {
            // Nothing armed, or no room before the horizon.
            return 0;
        }
        let ticks = self.replay_drift(requested);
        if ticks == 0 {
            self.ff.invalidate();
            return 0;
        }
        let cycle = self.ff.cycle as usize;

        let deltas = &self.ff.deltas;
        // The phase the tick after this batch repeats.
        let mut phase = self.ff.pos as usize;
        if cycle == 1 {
            // One addend per class for every tick: it stays in registers.
            let mut di = 0usize;
            for st in &mut self.states {
                for class in &mut st.accs {
                    let d = deltas[di];
                    di += 1;
                    // `x += 0.0` is the identity on these non-negative sums,
                    // so wholly idle classes are skipped without changing
                    // the result (and zero addends inside the loop are cheap
                    // pipelined adds, not worth branching over).
                    if d == InstanceAcc::default() {
                        continue;
                    }
                    for _ in 0..ticks {
                        class.acc.add(&d);
                    }
                }
            }
        } else {
            // Tick by tick, each phase's row of addends in turn.
            let classes: usize = self.states.iter().map(|st| st.accs.len()).sum();
            for _ in 0..ticks {
                let addends = &deltas[phase * classes..][..classes];
                let accs = self.states.iter_mut().flat_map(|st| &mut st.accs);
                for (class, d) in accs.zip(addends) {
                    class.acc.add(d);
                }
                phase = if phase + 1 == cycle { 0 } else { phase + 1 };
            }
        }
        for &(i, offered) in &self.ff.backlog_addends {
            for _ in 0..ticks {
                self.backlog[i] += offered;
            }
        }
        self.now_ns += ticks * self.cfg.tick_ns;
        if self.has_windowed && !self.ff.halted {
            // Row `p + 1` holds the state after phase `p`.
            self.restore_cycling_state(if phase == 0 { cycle } else { phase });
        }
        self.ff.pos = phase as u32;
        self.ff.count_replayed(ticks);
        if ticks < requested {
            self.ff.invalidate();
        }
        ticks
    }

    /// Sets what a windowed cycle moves without drifting — backlogs, window
    /// buffers, firing times (by their distance from now) and the queues
    /// that are not drifting — to fingerprint row `row`, the state the probe
    /// recorded at this point of the cycle.
    fn restore_cycling_state(&mut self, row: usize) {
        let fp = &self.ff.fingerprint;
        let now = self.now_ns;
        let mut drifting = self.ff.drifting.iter().map(|d| d.0 as usize).peekable();
        let op_marks = &fp.ops[row * self.states.len()..];
        let queue_marks = &fp.queues[row * fp.width..];
        let mut qi = 0usize;
        for (i, st) in self.states.iter_mut().enumerate() {
            let mark = &op_marks[i];
            self.backlog[i] = mark.backlog;
            st.window = mark.window;
            if self.window_periods[i].is_some() {
                st.next_fire_ns = now.wrapping_add(mark.fire_in);
            }
            for c in &mut st.classes {
                if drifting.next_if_eq(&qi).is_none() {
                    c.queue = queue_marks[qi];
                }
                qi += 1;
            }
        }
    }

    /// A fully executed tick.
    fn full_tick(&mut self) -> TickEvents {
        self.ff.stats.full_ticks += 1;
        self.tick_core::<false>()
    }

    /// The tick body: one full simulation step. The `LOG` instantiation
    /// additionally records every partition-queue drain and push in
    /// `ff.log` for the fast-forward probe; plain ticks run the `false`
    /// instantiation, which carries no logging code at all.
    fn tick_core<const LOG: bool>(&mut self) -> TickEvents {
        self.refresh_spill();
        let mut events = TickEvents::default();
        let tick_ns = self.cfg.tick_ns;
        let tick_end = self.now_ns + tick_ns;
        // Recycle last tick's stats buffers (O(1) epoch-stamped clear).
        let mut stats = std::mem::take(&mut self.last_tick);
        stats.clear();

        // Redeployment window: the job is down. Sources accumulate durable
        // backlog; every instance only waits.
        if let Some(resume_at) = self.pending_rescale.as_ref().map(|p| p.0) {
            if tick_end < resume_at {
                self.halted_tick(&mut stats, tick_ns);
                self.now_ns = tick_end;
                self.last_tick = stats;
                return events;
            }
            // Deploy now: apply the plan, redistribute queued records into
            // the new partitioning (the savepoint restored operator state),
            // resize accumulators.
            let (_, plan, workers) = self.pending_rescale.take().expect("checked above");
            self.halted_tick(&mut stats, tick_ns);
            self.deployment = plan;
            self.timely_workers = workers;
            self.rebuild_timely_deployment();
            self.apply_new_partitioning();
            self.heron_backpressure = false;
            events.deployed = Some(self.deployment().clone());
            self.now_ns = tick_end;
            stats.halted = true;
            self.last_tick = stats;
            return events;
        }

        match self.cfg.mode {
            EngineMode::Flink | EngineMode::Heron => self.tick_blocking::<LOG>(&mut stats, tick_ns),
            EngineMode::Timely => self.tick_timely(&mut stats, tick_ns),
        }

        // Heron spout-pausing signal update: driven by the fullest partition
        // anywhere in the dataflow.
        if self.cfg.mode == EngineMode::Heron {
            // Queue fill fractions at which Heron pauses the sources and
            // below which it resumes them.
            const HERON_HIGH_WATERMARK: f64 = 0.9;
            const HERON_LOW_WATERMARK: f64 = 0.3;
            let max_fill = self
                .states
                .iter()
                .flat_map(|s| s.classes.iter())
                .map(|c| c.queue.fill_fraction())
                .fold(0.0f64, f64::max);
            if self.heron_backpressure {
                if max_fill < HERON_LOW_WATERMARK {
                    self.heron_backpressure = false;
                }
            } else if max_fill > HERON_HIGH_WATERMARK {
                self.heron_backpressure = true;
            }
        }
        stats.backpressure = self.heron_backpressure;

        self.now_ns = tick_end;

        // Epoch tracking: the frontier is the oldest emission time still
        // queued or buffered anywhere, the head of some run.
        if self.cfg.track_record_latency {
            let frontier = self
                .states
                .iter()
                .flat_map(|st| {
                    let queued = st.classes.iter().filter_map(|c| c.queue.oldest_ns());
                    queued.chain(st.window.map(|w| w.head_ns))
                })
                .min();
            self.epochs.advance(self.now_ns, frontier);
        }

        self.last_tick = stats;
        events
    }

    /// Rebuilds queue partitioning after a rescale, preserving contents.
    fn apply_new_partitioning(&mut self) {
        for op in self.graph.operators() {
            let new_state = self.make_op_state(op);
            let old = std::mem::replace(&mut self.states[op.index()], new_state);
            // Collect the old runs (each class's representative queue scaled
            // by its partition count, oldest stamp first) and repartition
            // them into the new classes.
            let mut runs: Vec<Span> = Vec::new();
            for mut class in old.classes {
                if let Some(mut run) = class.queue.pop(f64::INFINITY) {
                    if class.count > 1 {
                        run.records *= class.count as f64;
                    }
                    runs.push(run);
                }
            }
            runs.sort_by_key(|s| s.born_ns);
            let st = &mut self.states[op.index()];
            st.window = old.window;
            st.next_fire_ns = old.next_fire_ns;
            for run in runs {
                st.push_partitioned(run);
            }
        }
        self.rebuild_cost_cache();
    }

    /// A tick during which the job is down: only wait time accumulates and
    /// durable sources build backlog.
    fn halted_tick(&mut self, stats: &mut TickStats, tick_ns: u64) {
        stats.halted = true;
        let tick_s = tick_ns as f64 / 1e9;
        for (op, spec) in self.sources.iter() {
            let offered = spec.schedule.rate_at(self.now_ns) * tick_s;
            stats.offered.insert(op, offered);
            stats.emitted.insert(op, 0.0);
            if spec.durable_backlog {
                self.backlog[op.index()] += offered;
            }
        }
        for st in &mut self.states {
            for class in &mut st.accs {
                class.acc.wait_input_ns += tick_ns as f64;
            }
        }
    }

    /// One tick of the blocking (Flink) or signal-based (Heron) personality.
    fn tick_blocking<const LOG: bool>(&mut self, stats: &mut TickStats, tick_ns: u64) {
        let tick_s = tick_ns as f64 / 1e9;
        for i in 0..self.reverse_topo.len() {
            let op = self.reverse_topo[i];
            if self.graph.is_source(op) {
                self.source_emit::<LOG>(op, stats, tick_s);
            } else {
                let noise = self.noise_factor();
                self.operator_process::<LOG>(op, tick_ns, noise);
            }
        }
    }

    /// One tick of the Timely personality: a shared worker pool is
    /// water-filled across operators with pending work; queues are
    /// unbounded and sources are never delayed.
    fn tick_timely(&mut self, stats: &mut TickStats, tick_ns: u64) {
        let tick_s = tick_ns as f64 / 1e9;
        // Sources emit first and fully.
        for i in 0..self.graph.sources().len() {
            let op = self.graph.sources()[i];
            self.source_emit::<false>(op, stats, tick_s);
        }

        // Fair-share allocation of `workers × tick` nanoseconds.
        let mut budget = self.timely_workers as f64 * tick_ns as f64;
        // Only work queued at tick start is eligible (one-tick pipeline
        // latency per hop, matching the blocking personality).
        let mut eligible = std::mem::take(&mut self.eligible_scratch);
        let mut noises = std::mem::take(&mut self.noise_scratch);
        eligible.clear();
        eligible.resize(self.graph.len(), 0.0);
        noises.clear();
        noises.resize(self.graph.len(), 0.0);
        for i in 0..self.non_source_topo.len() {
            let op = self.non_source_topo[i];
            eligible[op.index()] = self.states[op.index()].queued();
        }
        for i in 0..self.non_source_topo.len() {
            let op = self.non_source_topo[i];
            noises[op.index()] = self.noise_factor();
        }

        for _round in 0..4 {
            let active = self
                .non_source_topo
                .iter()
                .filter(|op| eligible[op.index()] > 1e-9)
                .count();
            if active == 0 || budget <= 1.0 {
                break;
            }
            let share = budget / active as f64;
            for i in 0..self.non_source_topo.len() {
                let op = self.non_source_topo[i];
                // Eligibility was fixed when the round's share was computed:
                // an operator's own entry only changes when it is processed,
                // exactly once per round.
                if eligible[op.index()] <= 1e-9 {
                    continue;
                }
                let real_cost = self.cost_cache[op.index()].1 * noises[op.index()];
                let want_records = eligible[op.index()];
                let afford = share / real_cost;
                let n = want_records.min(afford);
                if n <= 1e-12 {
                    continue;
                }
                let used_ns = n * real_cost;
                budget -= used_ns;
                eligible[op.index()] -= n;
                self.timely_drain(op, n, used_ns);
            }
        }
        self.eligible_scratch = eligible;
        self.noise_scratch = noises;

        // Remaining budget is spinning time: in Timely, workers burn it
        // polling empty queues. Spread it as input-wait across operators.
        if budget > 0.0 {
            let n_ops = self.non_source_topo.len().max(1) as f64;
            for i in 0..self.non_source_topo.len() {
                let op = self.non_source_topo[i];
                let st = &mut self.states[op.index()];
                let per_inst = budget / n_ops / st.instances().max(1) as f64;
                for class in &mut st.accs {
                    class.acc.wait_input_ns += per_inst;
                }
            }
        }
    }

    /// Effective instrumented cost per record including the instrumentation
    /// overhead itself.
    fn effective_instr_cost(&self, profile: &OperatorProfile, p: usize) -> f64 {
        let mut c = profile.instrumented_cost_ns(p);
        if self.cfg.instrumentation.enabled {
            c += self.cfg.instrumentation.per_record_cost_ns;
        }
        c.max(1e-3)
    }

    /// Effective real (wall) cost per record.
    fn effective_real_cost(&self, profile: &OperatorProfile, p: usize) -> f64 {
        self.effective_instr_cost(profile, p) + profile.hidden_cost_ns(p)
    }

    /// Source emission for one tick (blocking personalities consult
    /// downstream queue space; Timely never blocks).
    fn source_emit<const LOG: bool>(&mut self, op: OperatorId, stats: &mut TickStats, tick_s: f64) {
        let (offered, durable_backlog) = {
            let spec = &self.sources[op];
            (
                spec.schedule.rate_at(self.now_ns) * tick_s,
                spec.durable_backlog,
            )
        };
        stats.offered.insert(op, offered);

        let tick_ns = self.cfg.tick_ns as f64;
        let mut budget = offered + self.backlog[op.index()];

        // Heron: a raised backpressure signal pauses the spout entirely.
        if self.cfg.mode == EngineMode::Heron && self.heron_backpressure {
            budget = 0.0;
        }

        // Blocking personalities: cannot emit past downstream queue space.
        let mut emit = budget;
        if self.cfg.mode != EngineMode::Timely {
            for &(to, weight) in &self.down_edges[op.index()] {
                let limit = self.states[to.index()].accept_limit();
                if weight > 0.0 {
                    emit = emit.min(limit / weight);
                }
            }
        }
        emit = emit.max(0.0);

        {
            let now = self.now_ns;
            let edges = &self.down_edges[op.index()];
            let states = &mut self.states;
            let log = &mut self.ff.log;
            for &(to, weight) in edges {
                route::<LOG>(states, log, to, Span::at(now, emit * weight));
            }
        }

        // Backlog bookkeeping.
        let leftover = (offered + self.backlog[op.index()]) - emit;
        self.backlog[op.index()] = if durable_backlog {
            leftover.max(0.0)
        } else {
            0.0
        };

        stats.emitted.insert(op, emit);

        // Source instance counters: emission is useful output work.
        let st = &mut self.states[op.index()];
        let n_inst = st.instances().max(1) as f64;
        // Generators are costless: model a nominal utilization proportional
        // to achieved vs offered so rates stay defined.
        let frac = if offered > 0.0 {
            (emit / offered).min(1.0)
        } else {
            0.0
        };
        let busy_per_inst = frac * tick_ns * 0.5;
        for class in &mut st.accs {
            class.acc.records_out += emit / n_inst;
            class.acc.useful_ns += busy_per_inst.min(tick_ns);
            class.acc.wait_output_ns += (tick_ns - busy_per_inst).max(0.0);
        }
    }

    /// The output-space limit for an operator about to emit through
    /// per-record output: total input records it may process such that
    /// every downstream partition accepts its share.
    fn output_space_limit(&self, op: OperatorId, selectivity: f64) -> f64 {
        if selectivity <= 0.0 {
            return f64::INFINITY;
        }
        let mut limit = f64::INFINITY;
        for &(to, weight) in &self.down_edges[op.index()] {
            let accept = self.states[to.index()].accept_limit();
            if weight > 0.0 {
                limit = limit.min(accept / (selectivity * weight));
            }
        }
        limit
    }

    /// Processes one non-source operator for one tick of the blocking
    /// personalities.
    fn operator_process<const LOG: bool>(&mut self, op: OperatorId, tick_ns: u64, noise: f64) {
        let i = op.index();
        let (instr_base, real_base) = self.cost_cache[i];
        let instr_cost = instr_base * noise;
        let real_cost = real_base * noise;
        let cap_inst = tick_ns as f64 / real_cost;
        let output = self.output_modes[i].expect("non-source operators have profiles");

        // Per-instance desired drains from their own partitions, one entry
        // per partition class; the total scales each class by its count.
        let mut takes = std::mem::take(&mut self.takes_scratch);
        takes.clear();
        takes.extend(
            self.states[i]
                .classes
                .iter()
                .map(|c| c.queue.len().min(cap_inst)),
        );
        let want_total: f64 = takes
            .iter()
            .zip(&self.states[i].classes)
            .map(|(t, c)| t * c.count as f64)
            .sum();

        // Output-space constraint (windowed operators buffer internally, so
        // only their flush is space-limited).
        let sel = output.average_selectivity();
        let mut out_limited = false;
        if want_total > 0.0 && matches!(output, OutputMode::PerRecord { .. }) {
            let limit = self.output_space_limit(op, sel);
            if want_total > limit {
                let factor = limit / want_total;
                for t in &mut takes {
                    *t *= factor;
                }
                out_limited = true;
            }
        }
        if LOG {
            let base = self.ff.log.row + self.ff.log.class_base[i] as usize;
            for (k, take) in takes.iter().enumerate() {
                self.ff.log.drains[base + k] = (cap_inst, *take);
            }
        }

        // Drain each partition and route the output. Sink latency is the
        // only consumer of `is_sink` here; untracked runs skip it.
        let is_sink = self.graph.is_sink(op) && self.cfg.track_record_latency;
        let tick_end = self.now_ns + self.cfg.tick_ns;

        let mut out_total = 0.0f64;
        let mut drained = std::mem::take(&mut self.span_scratch);
        drained.clear();
        {
            let st = &mut self.states[i];
            for (k, take) in takes.iter().enumerate() {
                if *take <= 0.0 {
                    continue;
                }
                let class = &mut st.classes[k];
                if let Some(mut chunk) = class.queue.pop(*take) {
                    // The representative queue drained one partition's
                    // worth; routing and latency work on class totals.
                    if class.count > 1 {
                        chunk.records *= class.count as f64;
                    }
                    drained.push(chunk);
                }
            }
        }
        // Coalesce chunks with equal stamps before routing: the classes
        // drain fragments of the same pushes, and routing them as one keeps
        // the pushes per tick at one per distinct stamp. The merged chunk
        // covers the union of its parts' intervals.
        if drained.len() > 1 {
            drained.sort_unstable_by_key(|s| s.born_ns);
            let mut w = 0usize;
            for r in 1..drained.len() {
                let chunk = drained[r];
                if chunk.born_ns == drained[w].born_ns {
                    drained[w].records += chunk.records;
                    drained[w].cover(&chunk);
                } else {
                    w += 1;
                    drained[w] = chunk;
                }
            }
            drained.truncate(w + 1);
        }
        let mut windowed = None;
        match output {
            OutputMode::PerRecord { selectivity } => {
                for chunk in &drained {
                    if is_sink {
                        self.latency
                            .record(tick_end.saturating_sub(chunk.mid_ns()), chunk.records);
                    }
                    let out = chunk.records * selectivity;
                    out_total += out;
                    let edges = &self.down_edges[i];
                    let states = &mut self.states;
                    let log = &mut self.ff.log;
                    for &(to, weight) in edges {
                        let routed = Span {
                            records: out * weight,
                            ..*chunk
                        };
                        route::<LOG>(states, log, to, routed);
                    }
                }
            }
            OutputMode::Windowed { selectivity, .. } => {
                for chunk in &drained {
                    let records = chunk.records * selectivity;
                    absorb(&mut windowed, Span { records, ..*chunk });
                }
            }
        }

        // Instance accounting: every instance of class k processed
        // takes[k] (the per-partition drain).
        {
            let st = &mut self.states[i];
            let n_inst = st.instances();
            let n_out_share = if n_inst == 0 {
                0.0
            } else {
                out_total / n_inst as f64
            };
            for (k, class) in st.accs.iter_mut().enumerate() {
                let share = takes.get(k).copied().unwrap_or(0.0);
                let busy = (share * instr_cost).min(tick_ns as f64);
                let hidden = share * (real_cost - instr_cost);
                let wait = (tick_ns as f64 - busy - hidden).max(0.0);
                let acc = &mut class.acc;
                acc.records_in += share;
                acc.records_out += n_out_share;
                acc.useful_ns += busy;
                if out_limited {
                    acc.wait_output_ns += wait;
                } else {
                    acc.wait_input_ns += wait;
                }
            }
            if let Some(out) = windowed.filter(|w| w.records > 0.0) {
                absorb(&mut st.window, out);
            }
        }
        self.takes_scratch = takes;
        self.span_scratch = drained;

        self.maybe_fire_window::<LOG>(op);
    }

    /// Timely drain path: `n` records off the operator's shared queue,
    /// `used_ns` of worker time spent.
    fn timely_drain(&mut self, op: OperatorId, n: f64, used_ns: f64) {
        let i = op.index();
        let output = self.output_modes[i].expect("non-source operators have profiles");
        let chunk = self.states[i]
            .classes
            .first_mut()
            .and_then(|c| c.queue.pop(n));

        // Busy time spread over worker-instances; only the instrumented
        // fraction counts as useful.
        let instr_fraction = {
            let (instr, real) = self.cost_cache[i];
            instr / real
        };
        {
            let st = &mut self.states[i];
            let w = st.instances().max(1) as f64;
            let drained = chunk.map_or(0.0, |c| c.records);
            for class in &mut st.accs {
                class.acc.records_in += drained / w;
                class.acc.useful_ns += used_ns * instr_fraction / w;
            }
        }

        let is_sink = self.graph.is_sink(op) && self.cfg.track_record_latency;
        let tick_end = self.now_ns + self.cfg.tick_ns;

        match output {
            OutputMode::PerRecord { selectivity } => {
                let mut out_total = 0.0;
                if let Some(chunk) = chunk {
                    if is_sink {
                        self.latency
                            .record(tick_end.saturating_sub(chunk.mid_ns()), chunk.records);
                    }
                    let out = chunk.records * selectivity;
                    out_total += out;
                    let edges = &self.down_edges[i];
                    let states = &mut self.states;
                    for &(to, weight) in edges {
                        states[to.index()].push_partitioned(Span {
                            records: out * weight,
                            ..chunk
                        });
                    }
                }
                let st = &mut self.states[i];
                let w = st.instances().max(1) as f64;
                for class in &mut st.accs {
                    class.acc.records_out += out_total / w;
                }
            }
            OutputMode::Windowed { selectivity, .. } => {
                if let Some(chunk) = chunk {
                    let records = chunk.records * selectivity;
                    absorb(&mut self.states[i].window, Span { records, ..chunk });
                }
            }
        }

        self.maybe_fire_window::<false>(op);
    }

    /// Fires a windowed operator's buffered output when its period elapses.
    /// The flush is routed like any other output, so the `LOG` instantiation
    /// records it for the fast-forward probe.
    fn maybe_fire_window<const LOG: bool>(&mut self, op: OperatorId) {
        let Some(period) = self.window_period(op) else {
            return;
        };
        let i = op.index();
        let tick_end = self.now_ns + self.cfg.tick_ns;
        let flushed = {
            let st = &mut self.states[i];
            if st.next_fire_ns == u64::MAX {
                st.next_fire_ns = tick_end + period;
            }
            if tick_end >= st.next_fire_ns {
                st.next_fire_ns += period;
                st.window.take()
            } else {
                None
            }
        };
        let Some(flushed) = flushed.filter(|w| w.records > 0.0) else {
            return;
        };
        let pending = flushed.records;
        let n_inst = self.states[i].instances().max(1) as f64;
        if self.graph.is_sink(op) {
            if self.cfg.track_record_latency {
                self.latency
                    .record(tick_end.saturating_sub(flushed.mid_ns()), pending);
            }
            let st = &mut self.states[i];
            for class in &mut st.accs {
                class.acc.records_out += pending / n_inst;
            }
            return;
        }
        let mut spilled = 0.0f64;
        {
            let edges = &self.down_edges[i];
            let states = &mut self.states;
            let log = &mut self.ff.log;
            for &(to, weight) in edges {
                // Window flushes are bursts: a bounded receiving queue may not
                // absorb everything; the spill stays pending for the next tick.
                let accept = states[to.index()].accept_limit();
                let send = (pending * weight).min(accept);
                let routed = Span {
                    records: send,
                    ..flushed
                };
                route::<LOG>(states, log, to, routed);
                spilled = spilled.max(pending - send / weight.max(1e-12));
            }
        }
        if spilled > 0.0 {
            let st = &mut self.states[i];
            let rest = Span {
                records: spilled,
                ..flushed
            };
            absorb(&mut st.window, rest);
            // Retry the remainder at the next tick rather than next period.
            st.next_fire_ns = tick_end + self.cfg.tick_ns;
        }
        let emitted = pending - spilled;
        if emitted > 0.0 {
            let st = &mut self.states[i];
            for class in &mut st.accs {
                class.acc.records_out += emitted / n_inst;
            }
        }
    }

    /// Closes the instrumentation window into `snap` (cleared first):
    /// per-instance metrics since the previous snapshot, plus the offered
    /// rate of every source. Reusing one snapshot buffer across windows
    /// recycles its per-operator instance vectors, so the steady-state
    /// metrics path performs no heap allocation.
    ///
    /// Record counts are rounded to integers; useful time is scaled by the
    /// same rounding factor so the *measured true rates* equal the fluid
    /// model's exact rates (no quantization bias at ceiling boundaries).
    pub fn collect_snapshot_into(&mut self, snap: &mut MetricsSnapshot) {
        let window_ns = self.now_ns - self.snapshot_start_ns;
        snap.clear();
        for i in 0..self.states.len() {
            let op = OperatorId(i);
            let is_source = self.graph.is_source(op);
            let st = &mut self.states[i];
            let metrics = snap.operator_slot(op);
            for class in &st.accs {
                let acc = &class.acc;
                let dominant = if is_source {
                    acc.records_out
                } else {
                    acc.records_in
                };
                let rounded = dominant.round();
                // Scale every field by the dominant count's rounding
                // factor so measured rates *and selectivity* equal the
                // fluid model's exact values.
                let factor = if dominant > 0.0 {
                    rounded / dominant
                } else {
                    0.0
                };
                // Clamp sequentially so `useful + waits <= window` (the
                // scaling factor can push useful a hair past the exact
                // complement of the accumulated waits).
                let useful_ns = ((acc.useful_ns * factor).round() as u64).min(window_ns);
                let wait_input_ns = (acc.wait_input_ns.round() as u64).min(window_ns - useful_ns);
                let wait_output_ns =
                    (acc.wait_output_ns.round() as u64).min(window_ns - useful_ns - wait_input_ns);
                let row = InstanceMetrics {
                    records_in: (acc.records_in * factor).round() as u64,
                    records_out: (acc.records_out * factor).round() as u64,
                    useful_ns,
                    window_ns,
                    wait_input_ns,
                    wait_output_ns,
                };
                // Every instance of the class did identical work: emit the
                // row once per represented instance.
                for _ in 0..class.count {
                    metrics.instances.push(row);
                }
            }
            for class in &mut st.accs {
                class.acc = InstanceAcc::default();
            }
        }
        for (op, spec) in self.sources.iter() {
            snap.set_source_rate(op, spec.schedule.rate_at(self.now_ns));
        }
        // State dimension: stateful operators report their per-instance
        // state size at the current rate and parallelism. Stateless
        // pipelines leave the map empty, so their snapshots stay bitwise
        // what they were before the state model existed.
        if self.has_state {
            let rate = self.total_offered_rate();
            for op in self.graph.operators() {
                if self.graph.is_source(op) {
                    continue;
                }
                let profile = &self.profiles[op];
                if profile.state.is_some() {
                    snap.set_state_bytes(op, profile.state_bytes(self.instances_of(op), rate));
                }
            }
        }
        self.snapshot_start_ns = self.now_ns;
    }

    /// Runs the engine for `duration_ns`, ignoring events.
    pub fn run_for(&mut self, duration_ns: u64) {
        let end = self.now_ns + duration_ns;
        while self.now_ns < end {
            let _ = self.tick();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::StateProfile;
    use crate::source::RateSchedule;
    use ds2_core::graph::GraphBuilder;

    fn chain(caps: &[(f64, f64)]) -> (LogicalGraph, Vec<OperatorId>) {
        let mut b = GraphBuilder::new();
        let src = b.operator("src");
        let mut ids = vec![src];
        for (i, _) in caps.iter().enumerate() {
            let op = b.operator(format!("op{i}"));
            b.connect(*ids.last().unwrap(), op);
            ids.push(op);
        }
        (b.build().unwrap(), ids)
    }

    fn engine_with(
        caps: &[(f64, f64)],
        rate: f64,
        parallelism: &[usize],
        cfg: EngineConfig,
    ) -> (FluidEngine, Vec<OperatorId>) {
        let (graph, ids) = chain(caps);
        let mut profiles = ProfileMap::new();
        for (i, &(cap, sel)) in caps.iter().enumerate() {
            profiles.insert(ids[i + 1], OperatorProfile::with_capacity(cap, sel));
        }
        let mut sources = BTreeMap::new();
        sources.insert(ids[0], SourceSpec::constant(rate));
        let mut d = Deployment::uniform(&graph, 1);
        for (i, &p) in parallelism.iter().enumerate() {
            d.set(ids[i], p);
        }
        let cfg = EngineConfig {
            instrumentation: InstrumentationConfig::disabled(),
            ..cfg
        };
        let e = FluidEngine::new(graph, profiles, sources, d, cfg);
        (e, ids)
    }

    /// A window buffer sums what it absorbs, keeps the earliest `born_ns`
    /// stamp (the flush's stamp, which the class-chunk merge downstream
    /// compares) and widens to the union of the emission intervals.
    #[test]
    fn window_buffers_keep_the_earliest_stamp_and_the_union_interval() {
        let mut buffer = None;
        absorb(&mut buffer, Span::at(50, 2.0));
        absorb(
            &mut buffer,
            Span {
                born_ns: 40,
                head_ns: 45,
                tail_ns: 60,
                records: 0.5,
            },
        );
        absorb(&mut buffer, Span::at(70, 1.0));
        assert_eq!(
            buffer,
            Some(Span {
                born_ns: 40,
                head_ns: 45,
                tail_ns: 70,
                records: 3.5,
            })
        );
    }

    /// Little's law on a backpressured steady Flink chain: a non-durable
    /// source offers twice what the operator serves, so the operator's
    /// queue sits full and the sink drains at the operator's capacity. The
    /// mean sink latency then equals the mean number of queued records
    /// divided by the sink throughput, up to the discretisation of the tick
    /// (a record pays up to one tick per hop before the next tick sees it,
    /// and a sink samples at tick end): within two ticks.
    #[test]
    fn sink_latency_obeys_littles_law_on_a_backpressured_chain() {
        let cfg = EngineConfig::default();
        let tick_ns = cfg.tick_ns;
        let (mut e, ids) = engine_with(
            &[(1_000.0, 1.0), (100_000.0, 1.0)],
            2_000.0,
            &[1, 1, 1],
            cfg,
        );
        e.run_for(20_000_000_000);
        assert!(
            e.queue_len(ids[1]) > 4_999.0,
            "the operator's queue is full"
        );
        let from = e.latency().samples().len();
        let (ticks, mut queued) = (2_000u64, 0.0);
        for _ in 0..ticks {
            e.tick();
            queued += ids.iter().map(|&op| e.queue_len(op)).sum::<f64>();
        }
        let samples = &e.latency().samples()[from..];
        let drained: f64 = samples.iter().map(|&(_, w)| w).sum();
        let latency_ns = samples.iter().map(|&(l, w)| l as f64 * w).sum::<f64>() / drained;
        let throughput_per_ns = drained / (ticks * tick_ns) as f64;
        let little_ns = queued / ticks as f64 / throughput_per_ns;
        assert!(
            (throughput_per_ns * 1e9 - 1_000.0).abs() < 1.0,
            "the sink drains at the bottleneck's capacity: {}",
            throughput_per_ns * 1e9
        );
        assert!(
            (latency_ns - little_ns).abs() <= 2.0 * tick_ns as f64,
            "mean latency {latency_ns} ns vs queued / throughput {little_ns} ns"
        );
    }

    #[test]
    fn wellprovisioned_chain_keeps_up() {
        // Source 1000/s, op capacity 2000/s: everything flows, queue small.
        let (mut e, ids) =
            engine_with(&[(2_000.0, 1.0)], 1_000.0, &[1, 1], EngineConfig::default());
        e.run_for(10_000_000_000);
        assert!(e.queue_len(ids[1]) < 100.0);
        let mut snap = MetricsSnapshot::new();
        e.collect_snapshot_into(&mut snap);
        let m = snap.operator(ids[1]).unwrap();
        let rate = m.aggregate_observed_processing_rate().unwrap();
        assert!((rate - 1_000.0).abs() < 50.0, "observed {rate}");
        // True rate reveals the 2000/s capacity despite only 1000/s load.
        let true_rate = m.aggregate_true_processing_rate().unwrap();
        assert!((true_rate - 2_000.0).abs() < 100.0, "true {true_rate}");
    }

    #[test]
    fn bottleneck_limits_observed_source_rate_flink() {
        // Source 1000/s, op capacity 400/s: Flink backpressure throttles the
        // source to ~400/s once queues fill.
        let (mut e, ids) = engine_with(&[(400.0, 1.0)], 1_000.0, &[1, 1], EngineConfig::default());
        e.run_for(60_000_000_000);
        let mut snap = MetricsSnapshot::new();
        e.collect_snapshot_into(&mut snap);
        e.run_for(10_000_000_000);
        e.collect_snapshot_into(&mut snap);
        let src = snap.operator(ids[0]).unwrap();
        let obs = src.aggregate_observed_output_rate().unwrap();
        assert!((obs - 400.0).abs() < 40.0, "observed source rate {obs}");
        // The bottleneck's true processing rate equals its capacity.
        let m = snap.operator(ids[1]).unwrap();
        let tr = m.aggregate_true_processing_rate().unwrap();
        assert!((tr - 400.0).abs() < 40.0, "true {tr}");
    }

    #[test]
    fn downstream_of_bottleneck_sees_starved_input() {
        // src 1000/s -> a(cap 400) -> b(cap 2000): b only sees 400/s but its
        // true rate still measures ~2000/s.
        let (mut e, ids) = engine_with(
            &[(400.0, 1.0), (2_000.0, 1.0)],
            1_000.0,
            &[1, 1, 1],
            EngineConfig::default(),
        );
        e.run_for(60_000_000_000);
        let mut snap = MetricsSnapshot::new();
        e.collect_snapshot_into(&mut snap);
        e.run_for(10_000_000_000);
        e.collect_snapshot_into(&mut snap);
        let m = snap.operator(ids[2]).unwrap();
        let obs = m.aggregate_observed_processing_rate().unwrap();
        let true_rate = m.aggregate_true_processing_rate().unwrap();
        assert!((obs - 400.0).abs() < 40.0, "observed {obs}");
        assert!((true_rate - 2_000.0).abs() < 200.0, "true {true_rate}");
    }

    #[test]
    fn parallelism_scales_throughput() {
        // op capacity 400/s but 3 instances: sustains 1000/s.
        let (mut e, ids) = engine_with(&[(400.0, 1.0)], 1_000.0, &[1, 3], EngineConfig::default());
        e.run_for(20_000_000_000);
        let mut snap = MetricsSnapshot::new();
        e.collect_snapshot_into(&mut snap);
        e.run_for(10_000_000_000);
        e.collect_snapshot_into(&mut snap);
        let src = snap.operator(ids[0]).unwrap();
        let obs = src.aggregate_observed_output_rate().unwrap();
        assert!((obs - 1_000.0).abs() < 50.0, "observed source rate {obs}");
    }

    #[test]
    fn selectivity_multiplies_downstream_load() {
        // src 100/s -> a(cap 1000, sel 5) -> b(cap 300): b needs 500/s but
        // caps at 300/s, so backpressure throttles the source to 60/s.
        let cfg = EngineConfig {
            per_instance_queue: 500.0,
            ..Default::default()
        };
        let (mut e, ids) = engine_with(&[(1_000.0, 5.0), (300.0, 1.0)], 100.0, &[1, 1, 1], cfg);
        e.run_for(120_000_000_000);
        let mut snap = MetricsSnapshot::new();
        e.collect_snapshot_into(&mut snap);
        e.run_for(20_000_000_000);
        e.collect_snapshot_into(&mut snap);
        let src = snap.operator(ids[0]).unwrap();
        let obs = src.aggregate_observed_output_rate().unwrap();
        assert!((obs - 60.0).abs() < 10.0, "observed source rate {obs}");
    }

    #[test]
    fn heron_spout_pausing_oscillates() {
        // Heron with small queues for test speed: the spout pauses when the
        // bottleneck queue crosses the high watermark and resumes below the
        // low watermark, producing on/off source behaviour.
        let cfg = EngineConfig {
            mode: EngineMode::Heron,
            heron_per_instance_queue: 2_000.0,
            ..Default::default()
        };
        let (mut e, ids) = engine_with(&[(400.0, 1.0)], 1_000.0, &[1, 1], cfg);
        let mut paused_ticks = 0;
        let mut running_ticks = 0;
        for _ in 0..6_000 {
            e.tick();
            if e.backpressure_active() {
                paused_ticks += 1;
            } else {
                running_ticks += 1;
            }
        }
        assert!(paused_ticks > 100, "spout never paused");
        assert!(running_ticks > 100, "spout never resumed");
        // Long-run throughput still matches the bottleneck capacity.
        let mut snap = MetricsSnapshot::new();
        e.collect_snapshot_into(&mut snap);
        let m = snap.operator(ids[1]).unwrap();
        let obs = m.aggregate_observed_processing_rate().unwrap();
        assert!((obs - 400.0).abs() < 60.0, "observed {obs}");
    }

    #[test]
    fn timely_queues_grow_without_backpressure() {
        let cfg = EngineConfig {
            mode: EngineMode::Timely,
            timely_workers: 1,
            ..Default::default()
        };
        // op needs 1000/s * 2.5ms = 2.5 workers; with 1 worker queues grow.
        let (mut e, ids) = engine_with(&[(400.0, 1.0)], 1_000.0, &[1, 1], cfg);
        e.run_for(10_000_000_000);
        assert!(
            e.queue_len(ids[1]) > 4_000.0,
            "queue should grow unboundedly"
        );
        // Source was never throttled.
        let mut snap = MetricsSnapshot::new();
        e.collect_snapshot_into(&mut snap);
        let src = snap.operator(ids[0]).unwrap();
        let obs = src.aggregate_observed_output_rate().unwrap();
        assert!(
            (obs - 1_000.0).abs() < 10.0,
            "source must not be delayed, got {obs}"
        );
    }

    #[test]
    fn timely_enough_workers_keep_up() {
        let cfg = EngineConfig {
            mode: EngineMode::Timely,
            timely_workers: 4,
            ..Default::default()
        };
        let (mut e, ids) = engine_with(&[(400.0, 1.0)], 1_000.0, &[1, 1], cfg);
        e.run_for(10_000_000_000);
        assert!(e.queue_len(ids[1]) < 100.0);
        // Epochs complete promptly.
        assert!(e.epochs().completed().len() >= 8);
        let r = e.epochs().recorder();
        assert!(r.quantile(0.9).unwrap() < 1_000_000_000);
    }

    #[test]
    fn rescale_halts_then_applies() {
        let cfg = EngineConfig {
            reconfig_latency_ns: 1_000_000_000,
            ..Default::default()
        };
        let (mut e, ids) = engine_with(&[(400.0, 1.0)], 1_000.0, &[1, 1], cfg);
        e.run_for(2_000_000_000);
        let mut plan = e.deployment().clone();
        plan.set(ids[1], 3);
        e.request_rescale(plan.clone());
        assert!(e.is_halted());
        let mut deployed = None;
        for _ in 0..200 {
            let ev = e.tick();
            if ev.deployed.is_some() {
                deployed = ev.deployed;
                break;
            }
        }
        let d = deployed.expect("deploy completes");
        assert_eq!(d.parallelism(ids[1]), 3);
        assert!(!e.is_halted());
        assert_eq!(e.deployment().parallelism(ids[1]), 3);
    }

    #[test]
    fn rescale_preserves_queued_records() {
        let cfg = EngineConfig {
            reconfig_latency_ns: 500_000_000,
            ..Default::default()
        };
        // Bottleneck builds a queue, then we rescale: queued records must
        // survive repartitioning.
        let (mut e, ids) = engine_with(&[(100.0, 1.0)], 1_000.0, &[1, 1], cfg);
        e.run_for(5_000_000_000);
        let before = e.queue_len(ids[1]);
        assert!(before > 1_000.0);
        let mut plan = e.deployment().clone();
        plan.set(ids[1], 4);
        e.request_rescale(plan);
        for _ in 0..100 {
            if e.tick().deployed.is_some() {
                break;
            }
        }
        let after = e.queue_len(ids[1]);
        assert!(
            (after - before).abs() < before * 0.05,
            "queued records lost: {before} -> {after}"
        );
    }

    #[test]
    fn durable_source_accumulates_backlog_during_halt() {
        let (graph, ids) = chain(&[(4_000.0, 1.0)]);
        let mut profiles = ProfileMap::new();
        profiles.insert(ids[1], OperatorProfile::with_capacity(4_000.0, 1.0));
        let mut sources = BTreeMap::new();
        sources.insert(ids[0], SourceSpec::durable(1_000.0));
        let d = Deployment::uniform(&graph, 1);
        let cfg = EngineConfig {
            reconfig_latency_ns: 2_000_000_000,
            instrumentation: InstrumentationConfig::disabled(),
            ..Default::default()
        };
        let mut e = FluidEngine::new(graph, profiles, sources, d.clone(), cfg);
        e.run_for(1_000_000_000);
        e.request_rescale(d);
        // During the 2 s halt, 2000 records accumulate.
        e.run_for(1_900_000_000);
        assert!(e.backlog(ids[0]) > 1_500.0);
        e.run_for(5_000_000_000);
        // Backlog drains once the job is back up (capacity 4000 > 1000).
        assert!(e.backlog(ids[0]) < 100.0, "backlog {}", e.backlog(ids[0]));
    }

    #[test]
    fn sink_latency_recorded() {
        let (mut e, _) = engine_with(&[(2_000.0, 1.0)], 1_000.0, &[1, 1], EngineConfig::default());
        e.run_for(5_000_000_000);
        assert!(!e.latency().is_empty());
        // Well-provisioned: latency within a couple of ticks.
        let p99 = e.latency().quantile(0.99).unwrap();
        assert!(p99 <= 5 * e.config().tick_ns, "p99 {p99}");
    }

    #[test]
    fn underprovisioned_latency_grows() {
        let (mut e, _) = engine_with(&[(500.0, 1.0)], 1_000.0, &[1, 1], EngineConfig::default());
        e.run_for(30_000_000_000);
        let p50 = e.latency().median().unwrap();
        assert!(
            p50 > 1_000_000_000,
            "median latency should exceed 1 s, got {p50}"
        );
    }

    #[test]
    fn skew_limits_effective_capacity() {
        // 4 instances of cap 300 with 50% hot share: effective 600/s, below
        // the 1000/s offered. The hot partition's bounded queue fills and
        // throttles the source even though the cold instances idle.
        let (graph, ids) = chain(&[(300.0, 1.0)]);
        let mut profiles = ProfileMap::new();
        profiles.insert(
            ids[1],
            OperatorProfile::with_capacity(300.0, 1.0).with_skew(0.5),
        );
        let mut sources = BTreeMap::new();
        sources.insert(ids[0], SourceSpec::constant(1_000.0));
        let mut d = Deployment::uniform(&graph, 1);
        d.set(ids[1], 4);
        let cfg = EngineConfig {
            instrumentation: InstrumentationConfig::disabled(),
            per_instance_queue: 1_000.0,
            ..Default::default()
        };
        let mut e = FluidEngine::new(graph, profiles, sources, d, cfg);
        e.run_for(60_000_000_000);
        let mut snap = MetricsSnapshot::new();
        e.collect_snapshot_into(&mut snap);
        e.run_for(10_000_000_000);
        e.collect_snapshot_into(&mut snap);
        let src = snap.operator(ids[0]).unwrap();
        let obs = src.aggregate_observed_output_rate().unwrap();
        assert!((obs - 600.0).abs() < 60.0, "skew-limited rate {obs}");
        // The hot instance is saturated; the others are not.
        let m = snap.operator(ids[1]).unwrap();
        let hot_util = m.instances[0].utilization();
        let cold_util = m.instances[1].utilization();
        assert!(hot_util > 0.9, "hot {hot_util}");
        assert!(cold_util < 0.5, "cold {cold_util}");
    }

    /// The skew scenario above, but with a splittable hot class and a
    /// deployment that splits it in two: the weights become uniform
    /// (0.25 each), the effective capacity reaches 1200/s, and the
    /// offered 1000/s flows without throttling — same parallelism.
    #[test]
    fn class_split_relieves_hot_key() {
        let (graph, ids) = chain(&[(300.0, 1.0)]);
        let mut profiles = ProfileMap::new();
        profiles.insert(
            ids[1],
            OperatorProfile::with_capacity(300.0, 1.0).with_splittable_skew(0.5),
        );
        let mut sources = BTreeMap::new();
        sources.insert(ids[0], SourceSpec::constant(1_000.0));
        let mut d = Deployment::uniform(&graph, 1);
        d.set(ids[1], 4);
        d.set_key_classes(ids[1], 2);
        let cfg = EngineConfig {
            instrumentation: InstrumentationConfig::disabled(),
            per_instance_queue: 1_000.0,
            ..Default::default()
        };
        let mut e = FluidEngine::new(graph, profiles, sources, d, cfg);
        e.run_for(60_000_000_000);
        let mut snap = MetricsSnapshot::new();
        e.collect_snapshot_into(&mut snap);
        e.run_for(10_000_000_000);
        e.collect_snapshot_into(&mut snap);
        let obs = snap
            .operator(ids[0])
            .unwrap()
            .aggregate_observed_output_rate()
            .unwrap();
        assert!((obs - 1_000.0).abs() < 50.0, "split rate {obs}");
    }

    /// A rescale that only changes the key-class split (same parallelism
    /// everywhere) must go through the normal redeploy machinery and take
    /// effect: throughput recovers from the skew-limited 600/s to the full
    /// offered rate.
    #[test]
    fn class_split_deploys_via_rescale_path() {
        let (graph, ids) = chain(&[(300.0, 1.0)]);
        let mut profiles = ProfileMap::new();
        profiles.insert(
            ids[1],
            OperatorProfile::with_capacity(300.0, 1.0).with_splittable_skew(0.5),
        );
        let mut sources = BTreeMap::new();
        sources.insert(ids[0], SourceSpec::constant(1_000.0));
        let mut d = Deployment::uniform(&graph, 1);
        d.set(ids[1], 4);
        let cfg = EngineConfig {
            instrumentation: InstrumentationConfig::disabled(),
            per_instance_queue: 1_000.0,
            ..Default::default()
        };
        let mut e = FluidEngine::new(graph, profiles, sources, d.clone(), cfg);
        e.run_for(30_000_000_000);
        let mut snap = MetricsSnapshot::new();
        e.collect_snapshot_into(&mut snap);
        e.run_for(10_000_000_000);
        e.collect_snapshot_into(&mut snap);
        let before = snap
            .operator(ids[0])
            .unwrap()
            .aggregate_observed_output_rate()
            .unwrap();
        assert!((before - 600.0).abs() < 60.0, "pre-split rate {before}");

        let mut plan = d;
        plan.set_key_classes(ids[1], 2);
        assert_ne!(&plan, e.deployment(), "split plans must compare unequal");
        e.request_rescale(plan.clone());
        e.run_for(30_000_000_000);
        assert_eq!(e.deployment().key_classes(ids[1]), 2);
        let mut snap = MetricsSnapshot::new();
        e.collect_snapshot_into(&mut snap);
        e.run_for(10_000_000_000);
        e.collect_snapshot_into(&mut snap);
        let after = snap
            .operator(ids[0])
            .unwrap()
            .aggregate_observed_output_rate()
            .unwrap();
        assert!((after - 1_000.0).abs() < 50.0, "post-split rate {after}");
    }

    /// An over-budget stateful operator pays the spill multiplier: capacity
    /// halves and the source is throttled to it; the snapshot reports the
    /// per-instance state size.
    #[test]
    fn spill_penalty_throttles_and_state_is_reported() {
        let (graph, ids) = chain(&[(1_000.0, 1.0)]);
        let mut profiles = ProfileMap::new();
        // 1e6 bytes per rec/s: 8e8 bytes at 800/s, over the 2e8 budget on
        // one instance -> every record costs 2x -> 500/s effective.
        profiles.insert(
            ids[1],
            OperatorProfile::with_capacity(1_000.0, 1.0).with_state(StateProfile {
                bytes_per_source_rate: 1e6,
                spill_cost_multiplier: 2.0,
                budget_per_instance_bytes: 2e8,
            }),
        );
        let mut sources = BTreeMap::new();
        sources.insert(ids[0], SourceSpec::constant(800.0));
        let d = Deployment::uniform(&graph, 1);
        let cfg = EngineConfig {
            instrumentation: InstrumentationConfig::disabled(),
            per_instance_queue: 1_000.0,
            ..Default::default()
        };
        let mut e = FluidEngine::new(graph, profiles, sources, d, cfg);
        e.run_for(30_000_000_000);
        let mut snap = MetricsSnapshot::new();
        e.collect_snapshot_into(&mut snap);
        e.run_for(10_000_000_000);
        e.collect_snapshot_into(&mut snap);
        let obs = snap
            .operator(ids[0])
            .unwrap()
            .aggregate_observed_output_rate()
            .unwrap();
        assert!((obs - 500.0).abs() < 50.0, "spill-limited rate {obs}");
        assert_eq!(snap.state_bytes(ids[1]), Some(8e8));

        // Four instances bring per-instance state to 2e8 = budget (not
        // over): no spill, and the offered 800/s flows.
        let mut plan = e.deployment().clone();
        plan.set(ids[1], 4);
        e.request_rescale(plan);
        e.run_for(30_000_000_000);
        let mut snap = MetricsSnapshot::new();
        e.collect_snapshot_into(&mut snap);
        e.run_for(10_000_000_000);
        e.collect_snapshot_into(&mut snap);
        let obs = snap
            .operator(ids[0])
            .unwrap()
            .aggregate_observed_output_rate()
            .unwrap();
        assert!((obs - 800.0).abs() < 50.0, "in-budget rate {obs}");
        assert_eq!(snap.state_bytes(ids[1]), Some(2e8));
    }

    /// A stateful operator that never exceeds its budget behaves bitwise
    /// like its stateless twin — the spill machinery must not perturb a
    /// single float on the in-budget path.
    #[test]
    fn in_budget_state_is_bitwise_inert() {
        let build = |stateful: bool| {
            let (graph, ids) = chain(&[(500.0, 1.2), (700.0, 1.0)]);
            let mut profiles = ProfileMap::new();
            let mut p1 = OperatorProfile::with_capacity(500.0, 1.2);
            if stateful {
                p1 = p1.with_state(StateProfile {
                    bytes_per_source_rate: 1e5,
                    spill_cost_multiplier: 3.0,
                    budget_per_instance_bytes: f64::INFINITY,
                });
            }
            profiles.insert(ids[1], p1);
            profiles.insert(ids[2], OperatorProfile::with_capacity(700.0, 1.0));
            let mut sources = BTreeMap::new();
            sources.insert(ids[0], SourceSpec::constant(900.0));
            let mut d = Deployment::uniform(&graph, 1);
            d.set(ids[1], 2);
            d.set(ids[2], 2);
            let cfg = EngineConfig {
                instrumentation: InstrumentationConfig::disabled(),
                ..Default::default()
            };
            (FluidEngine::new(graph, profiles, sources, d, cfg), ids)
        };
        let (mut a, ids) = build(false);
        let (mut b, _) = build(true);
        a.run_for(20_000_000_000);
        b.run_for(20_000_000_000);
        let mut sa = MetricsSnapshot::new();
        a.collect_snapshot_into(&mut sa);
        let mut sb = MetricsSnapshot::new();
        b.collect_snapshot_into(&mut sb);
        for &op in &ids {
            assert_eq!(
                sa.operator(op),
                sb.operator(op),
                "{op}: in-budget state must not change metrics"
            );
        }
        assert_eq!(sa.state_bytes(ids[1]), None);
        // 1e5 B per record/s × 900 records/s, over 2 instances.
        assert_eq!(sb.state_bytes(ids[1]), Some(4.5e7));
    }

    #[test]
    fn windowed_operator_bursts() {
        // Windowed operator with 1 s period: output arrives in bursts.
        let (graph, ids) = chain(&[(10_000.0, 1.0), (10_000.0, 1.0)]);
        let mut profiles = ProfileMap::new();
        profiles.insert(
            ids[1],
            OperatorProfile::with_capacity(10_000.0, 1.0).windowed(1_000_000_000),
        );
        profiles.insert(ids[2], OperatorProfile::with_capacity(10_000.0, 1.0));
        let mut sources = BTreeMap::new();
        sources.insert(ids[0], SourceSpec::constant(1_000.0));
        let d = Deployment::uniform(&graph, 1);
        let cfg = EngineConfig {
            instrumentation: InstrumentationConfig::disabled(),
            ..Default::default()
        };
        let mut e = FluidEngine::new(graph, profiles, sources, d, cfg);
        let mut max_push = 0.0f64;
        let mut nonzero_ticks = 0;
        for _ in 0..500 {
            let before = e.queue_len(ids[2]);
            e.tick();
            let after = e.queue_len(ids[2]);
            let delta = after - before;
            if delta > 1.0 {
                nonzero_ticks += 1;
                max_push = max_push.max(delta);
            }
        }
        // Bursts: few pushes, each carrying ~1 s of records.
        assert!(
            nonzero_ticks <= 10,
            "expected bursts, got {nonzero_ticks} push ticks"
        );
        assert!(max_push > 500.0, "burst size {max_push}");
    }

    #[test]
    fn deterministic_with_seed() {
        let cfg = EngineConfig {
            service_noise: 0.1,
            ..Default::default()
        };
        let run = |cfg: EngineConfig| {
            let (mut e, ids) = engine_with(&[(800.0, 1.0)], 1_000.0, &[1, 1], cfg);
            e.run_for(10_000_000_000);
            (e.queue_len(ids[1]), e.latency().median())
        };
        let a = run(cfg.clone());
        let b = run(cfg);
        assert_eq!(a.0, b.0);
        assert_eq!(a.1, b.1);
    }

    #[test]
    fn phased_schedule_changes_load() {
        let (graph, ids) = chain(&[(3_000.0, 1.0)]);
        let mut profiles = ProfileMap::new();
        profiles.insert(ids[1], OperatorProfile::with_capacity(3_000.0, 1.0));
        let mut sources = BTreeMap::new();
        sources.insert(
            ids[0],
            SourceSpec::constant(0.0).with_schedule(RateSchedule::steps(vec![
                (0, 2_000.0),
                (5_000_000_000, 500.0),
            ])),
        );
        let d = Deployment::uniform(&graph, 1);
        let cfg = EngineConfig {
            instrumentation: InstrumentationConfig::disabled(),
            ..Default::default()
        };
        let mut e = FluidEngine::new(graph, profiles, sources, d, cfg);
        e.run_for(5_000_000_000);
        let mut snap = MetricsSnapshot::new();
        e.collect_snapshot_into(&mut snap);
        let obs1 = snap
            .operator(ids[0])
            .unwrap()
            .aggregate_observed_output_rate()
            .unwrap();
        e.run_for(5_000_000_000);
        let mut snap = MetricsSnapshot::new();
        e.collect_snapshot_into(&mut snap);
        let obs2 = snap
            .operator(ids[0])
            .unwrap()
            .aggregate_observed_output_rate()
            .unwrap();
        assert!((obs1 - 2_000.0).abs() < 100.0);
        assert!((obs2 - 500.0).abs() < 50.0);
        assert_eq!(snap.source_rate(ids[0]), Some(500.0));
    }

    #[test]
    fn hidden_overhead_invisible_to_instrumentation() {
        // Real capacity 500/s (2ms real cost: 1ms instrumented + 1ms
        // hidden); instrumentation believes 1000/s.
        let (graph, ids) = chain(&[(1_000.0, 1.0)]);
        let mut profiles = ProfileMap::new();
        profiles.insert(
            ids[1],
            OperatorProfile::with_capacity(1_000.0, 1.0)
                .with_hidden(1_000_000.0, crate::profile::ScalingCurve::Linear),
        );
        let mut sources = BTreeMap::new();
        sources.insert(ids[0], SourceSpec::constant(2_000.0));
        let d = Deployment::uniform(&graph, 1);
        let cfg = EngineConfig {
            instrumentation: InstrumentationConfig::disabled(),
            ..Default::default()
        };
        let mut e = FluidEngine::new(graph, profiles, sources, d, cfg);
        e.run_for(30_000_000_000);
        let mut snap = MetricsSnapshot::new();
        e.collect_snapshot_into(&mut snap);
        e.run_for(10_000_000_000);
        e.collect_snapshot_into(&mut snap);
        let m = snap.operator(ids[1]).unwrap();
        let true_rate = m.aggregate_true_processing_rate().unwrap();
        let obs = m.aggregate_observed_processing_rate().unwrap();
        // Throughput is 500/s but instrumentation-measured capacity ~1000/s.
        assert!((obs - 500.0).abs() < 50.0, "observed {obs}");
        assert!((true_rate - 1_000.0).abs() < 100.0, "true {true_rate}");
    }

    /// Drives `a` with plain exact ticks and `b` through the fast-forward
    /// path, asserting every observable stays bitwise identical.
    fn assert_engines_agree(a: &mut FluidEngine, b: &mut FluidEngine, ids: &[OperatorId]) {
        assert_eq!(a.now_ns(), b.now_ns());
        for &op in ids {
            assert_eq!(
                a.queue_len(op).to_bits(),
                b.queue_len(op).to_bits(),
                "queue {op} diverged"
            );
            assert_eq!(a.backlog(op).to_bits(), b.backlog(op).to_bits());
        }
        assert_eq!(a.latency().samples(), b.latency().samples());
        assert_eq!(a.epochs().completed(), b.epochs().completed());
        let mut sa = MetricsSnapshot::new();
        a.collect_snapshot_into(&mut sa);
        let mut sb = MetricsSnapshot::new();
        b.collect_snapshot_into(&mut sb);
        assert_eq!(sa, sb, "snapshots diverged");
    }

    #[test]
    fn fastforward_matches_exact_on_steady_chain() {
        let mk = || {
            engine_with(
                &[(2_000.0, 1.3), (4_000.0, 1.0)],
                1_000.0,
                &[1, 1, 1],
                untracked(EngineConfig::default()),
            )
        };
        let (mut exact, ids) = mk();
        let (mut fast, _) = mk();
        for _ in 0..4_000 {
            exact.tick();
            fast.tick_within(u64::MAX);
        }
        let stats = fast.fastforward_stats();
        assert!(
            stats.replayed_ticks > 3_000,
            "steady chain should mostly replay: {stats:?}"
        );
        assert_engines_agree(&mut exact, &mut fast, &ids);
    }

    /// A rescale requested mid-interval cancels fast-forward immediately,
    /// and the halt + redeploy + recovery still match exact execution.
    #[test]
    fn request_rescale_cancels_fastforward() {
        let cfg = untracked(EngineConfig {
            reconfig_latency_ns: 1_000_000_000,
            ..Default::default()
        });
        let mk = || engine_with(&[(600.0, 1.0)], 1_000.0, &[1, 2], cfg.clone());
        let (mut exact, ids) = mk();
        let (mut fast, _) = mk();
        for _ in 0..2_000 {
            exact.tick();
            fast.tick_within(u64::MAX);
        }
        assert!(fast.fastforward_active(), "steady state should be armed");
        let mut plan = fast.deployment().clone();
        plan.set(ids[1], 4);
        fast.request_rescale(plan.clone());
        exact.request_rescale(plan);
        assert!(
            !fast.fastforward_active(),
            "request_rescale must cancel fast-forward"
        );
        let mut deployed = false;
        for _ in 0..2_000 {
            let ea = exact.tick();
            let eb = fast.tick_within(u64::MAX);
            assert_eq!(ea.deployed.is_some(), eb.deployed.is_some());
            deployed |= eb.deployed.is_some();
        }
        assert!(deployed, "redeploy completed");
        assert_eq!(fast.deployment().parallelism(ids[1]), 4);
        assert_engines_agree(&mut exact, &mut fast, &ids);
    }

    /// Phase boundaries in the source schedule bound replay validity: the
    /// engine re-probes in each phase and stays bitwise exact across the
    /// rate changes.
    #[test]
    fn fastforward_respects_phase_boundaries() {
        let mk = || {
            let (graph, ids) = chain(&[(3_000.0, 1.0)]);
            let mut profiles = ProfileMap::new();
            profiles.insert(ids[1], OperatorProfile::with_capacity(3_000.0, 1.0));
            let mut sources = BTreeMap::new();
            sources.insert(
                ids[0],
                SourceSpec::constant(0.0).with_schedule(RateSchedule::steps(vec![
                    (0, 2_000.0),
                    (10_000_000_000, 500.0),
                    (20_000_000_000, 2_500.0),
                ])),
            );
            let d = Deployment::uniform(&graph, 1);
            let cfg = untracked(EngineConfig {
                instrumentation: InstrumentationConfig::disabled(),
                ..Default::default()
            });
            (FluidEngine::new(graph, profiles, sources, d, cfg), ids)
        };
        let (mut exact, ids) = mk();
        let (mut fast, _) = mk();
        for _ in 0..3_500 {
            exact.tick();
            fast.tick_within(u64::MAX);
        }
        let stats = fast.fastforward_stats();
        assert!(
            stats.replayed_ticks > 2_000,
            "every constant phase should replay: {stats:?}"
        );
        assert!(stats.probes >= 3, "re-probed per phase: {stats:?}");
        assert_engines_agree(&mut exact, &mut fast, &ids);
    }

    /// Drives `exact` with plain ticks and `fast` through the fast-forward
    /// path for `ticks` ticks, asserting queue lengths, backlogs, window
    /// buffers, firing times and the reported source statistics stay
    /// bitwise identical after *every* tick
    /// (a replayed tick must leave the exact state behind, not just the
    /// right totals later).
    fn assert_lockstep(
        exact: &mut FluidEngine,
        fast: &mut FluidEngine,
        ids: &[OperatorId],
        ticks: usize,
    ) {
        for t in 0..ticks {
            let ea = exact.tick();
            let eb = fast.tick_within(u64::MAX);
            assert_eq!(ea.deployed.is_some(), eb.deployed.is_some(), "tick {t}");
            // Replay leaves `last_tick` alone: it must hold what every
            // replayed tick would have reported.
            let (sa, sb) = (exact.last_tick(), fast.last_tick());
            assert_eq!(
                (sa.total_offered().to_bits(), sa.total_emitted().to_bits()),
                (sb.total_offered().to_bits(), sb.total_emitted().to_bits()),
                "source stats diverged at tick {t}"
            );
            assert_eq!(
                (sa.backpressure, sa.halted),
                (sb.backpressure, sb.halted),
                "tick {t}"
            );
            for &op in ids {
                assert_eq!(
                    exact.queue_len(op).to_bits(),
                    fast.queue_len(op).to_bits(),
                    "queue {op} diverged at tick {t}: {} vs {}",
                    exact.queue_len(op),
                    fast.queue_len(op),
                );
                assert_eq!(
                    exact.backlog(op).to_bits(),
                    fast.backlog(op).to_bits(),
                    "backlog {op} diverged at tick {t}"
                );
                let (a, b) = (&exact.states[op.index()], &fast.states[op.index()]);
                let records = |st: &OpState| st.window.map(|w| w.records.to_bits());
                assert_eq!(
                    (records(a), a.next_fire_ns),
                    (records(b), b.next_fire_ns),
                    "window of {op} diverged at tick {t}"
                );
            }
        }
    }

    fn untracked(cfg: EngineConfig) -> EngineConfig {
        EngineConfig {
            track_record_latency: false,
            ..cfg
        }
    }

    /// A scale-up leaves the bottleneck's full queues behind; with capacity
    /// just above the offered rate they drain a few records per tick for
    /// thousands of ticks. Fast-forward replays that drain as a drift step,
    /// leaves the regime when the queue falls to one tick's service, and
    /// stays bitwise on tick-by-tick execution through the exit into the
    /// steady state that follows.
    #[test]
    fn drift_replays_post_rescale_drain_through_the_drain_guard() {
        let cfg = untracked(EngineConfig {
            reconfig_latency_ns: 1_000_000_000,
            ..Default::default()
        });
        let mk = || engine_with(&[(520.0, 1.0)], 1_000.0, &[1, 1], cfg.clone());
        let (mut exact, ids) = mk();
        let (mut fast, _) = mk();
        // Under-provisioned: the queue fills to its 5000-record capacity.
        assert_lockstep(&mut exact, &mut fast, &ids, 1_500);
        assert!(exact.queue_len(ids[1]) > 4_900.0, "queue filled");
        let mut plan = fast.deployment().clone();
        plan.set(ids[1], 2);
        exact.request_rescale(plan.clone());
        fast.request_rescale(plan);
        let before = fast.fastforward_stats();
        // 2 x 5.2 records of service against 10 offered per tick: each
        // partition sheds 0.2 records per tick.
        assert_lockstep(&mut exact, &mut fast, &ids, 14_000);
        let stats = fast.fastforward_stats();
        assert!(
            stats.drift_ticks - before.drift_ticks > 10_000,
            "the drain should replay as drift: {stats:?}"
        );
        assert!(
            exact.queue_len(ids[1]) < 20.0,
            "drained to the steady state"
        );
        assert!(
            fast.fastforward_active(),
            "steady state re-armed after the exit"
        );
        assert_lockstep(&mut exact, &mut fast, &ids, 500);
        assert_engines_agree(&mut exact, &mut fast, &ids);
    }

    /// An operator merges the chunks it drains from its class queues iff
    /// their `born_ns` stamps agree, so a one-tick probe that starts with
    /// the hot class holding an older run than the cold one — and
    /// re-creates both together — records a tick no later tick repeats,
    /// although every queue's counts are back where they were. The probe
    /// must refuse, run the tick in full, and arm on a later tick whose
    /// stamps stand.
    #[test]
    fn one_tick_probe_refuses_class_tags_that_have_not_settled() {
        let mk = || {
            // The operator is the sink: what it drains reaches no other
            // queue, so merged or not, every mark repeats.
            let (graph, ids) = chain(&[(600.0, 0.7)]);
            let mut profiles = ProfileMap::new();
            profiles.insert(
                ids[1],
                OperatorProfile::with_capacity(600.0, 0.7).with_skew(0.4),
            );
            let mut sources = BTreeMap::new();
            sources.insert(ids[0], SourceSpec::constant(1_000.0));
            let mut d = Deployment::uniform(&graph, 1);
            d.set(ids[1], 4);
            let cfg = untracked(EngineConfig {
                instrumentation: InstrumentationConfig::disabled(),
                ..Default::default()
            });
            (FluidEngine::new(graph, profiles, sources, d, cfg), ids)
        };
        let (mut exact, ids) = mk();
        let (mut fast, _) = mk();
        // Both classes are drained whole and re-created by the same push
        // every tick: their stamps agree and the fixed point arms.
        assert_lockstep(&mut exact, &mut fast, &ids, 50);
        assert!(fast.fastforward_active());

        // The same float state with an older run left in the hot class.
        for engine in [&mut exact, &mut fast] {
            let classes = &mut engine.states[ids[1].index()].classes;
            assert_eq!(classes.len(), 2, "a hot class and a cold one");
            let hot = classes[0]
                .queue
                .run
                .as_mut()
                .expect("holds this tick's push");
            hot.born_ns -= 1;
        }
        fast.ff.invalidate();
        let before = fast.fastforward_stats();
        assert_lockstep(&mut exact, &mut fast, &ids, 1);
        let after = fast.fastforward_stats();
        assert_eq!(after.probes, before.probes + 1, "the tick was a probe");
        assert_eq!(after.probe_failures, before.probe_failures + 1);
        assert_eq!(after.full_ticks, before.full_ticks + 1);
        assert!(!fast.fastforward_active(), "unsettled tags must not arm");

        assert_lockstep(&mut exact, &mut fast, &ids, 50);
        assert!(fast.fastforward_active(), "re-armed once the tags agree");
        assert_engines_agree(&mut exact, &mut fast, &ids);
    }

    /// The other way out: a queue filling 0.1 records per tick drifts until
    /// the next push would clamp, saturates, and backpressure then makes the
    /// queue upstream of it drift (with an output-limited drain) until that
    /// one clamps too and the source is throttled. Both drift stretches and
    /// both exits stay bitwise on tick-by-tick execution.
    #[test]
    fn drift_replays_a_filling_queue_up_to_the_space_guard() {
        let cfg = untracked(EngineConfig {
            per_instance_queue: 200.0,
            ..Default::default()
        });
        let mk = || {
            engine_with(
                &[(2_000.0, 1.0), (990.0, 1.0)],
                1_000.0,
                &[1, 1, 1],
                cfg.clone(),
            )
        };
        let (mut exact, ids) = mk();
        let (mut fast, _) = mk();
        assert_lockstep(&mut exact, &mut fast, &ids, 1_000);
        let filling = fast.fastforward_stats();
        assert!(filling.drift_ticks > 500, "filling replays: {filling:?}");
        assert!(exact.queue_len(ids[2]) < 150.0, "not yet full");
        assert_lockstep(&mut exact, &mut fast, &ids, 5_000);
        let stats = fast.fastforward_stats();
        assert!(
            stats.drift_ticks > 3_000,
            "both queues should fill by replay: {stats:?}"
        );
        for &op in &ids[1..] {
            assert!(exact.queue_len(op) > 199.0, "{op} saturated");
        }
        assert!(fast.fastforward_active(), "saturated fixed point armed");
        let throttled = exact.last_tick().total_emitted();
        assert!(throttled < 9.95, "source throttled: {throttled}");
        assert_engines_agree(&mut exact, &mut fast, &ids);
    }

    /// Latency-tracking engines (which never probe) and Heron mode (its
    /// watermark comparisons read the fill level) never arm a drift step:
    /// the same post-rescale drain runs in full there, halts still replay,
    /// and it all matches tick-by-tick execution.
    #[test]
    fn tagged_and_heron_engines_never_drift() {
        for (mode, track) in [
            (EngineMode::Flink, true),
            (EngineMode::Heron, false),
            (EngineMode::Heron, true),
        ] {
            let cfg = EngineConfig {
                mode,
                track_record_latency: track,
                heron_per_instance_queue: 5_000.0,
                reconfig_latency_ns: 1_000_000_000,
                ..Default::default()
            };
            let mk = || engine_with(&[(520.0, 1.0)], 1_000.0, &[1, 1], cfg.clone());
            let (mut exact, ids) = mk();
            let (mut fast, _) = mk();
            assert_lockstep(&mut exact, &mut fast, &ids, 1_500);
            let mut plan = fast.deployment().clone();
            plan.set(ids[1], 2);
            exact.request_rescale(plan.clone());
            fast.request_rescale(plan);
            assert_lockstep(&mut exact, &mut fast, &ids, 3_000);
            let stats = fast.fastforward_stats();
            assert_eq!(stats.drift_ticks, 0, "{mode:?}/{track}: {stats:?}");
            assert!(stats.halted_ticks > 0, "halts replay in every mode");
            assert_engines_agree(&mut exact, &mut fast, &ids);
        }
    }

    /// A halted stretch replays `wait_input_ns` and durable-backlog addends
    /// only — and a rate change that is not tick-aligned falls *inside* a
    /// halted tick, which still offers the old rate. Whether that tick is
    /// replayed from the old phase (halt begins well before the change) or
    /// is the first halted tick and runs in full (halt begins with it — the
    /// step must then not be armed with the old offer), the backlog stays
    /// bitwise on tick-by-tick execution.
    #[test]
    fn halted_replay_respects_an_unaligned_rate_change() {
        let mk = || {
            let (graph, ids) = chain(&[(3_000.0, 1.0)]);
            let mut profiles = ProfileMap::new();
            profiles.insert(ids[1], OperatorProfile::with_capacity(3_000.0, 1.0));
            let mut sources = BTreeMap::new();
            // 3.3337 s is 333.37 ticks: the change falls inside tick 333.
            sources.insert(
                ids[0],
                SourceSpec::durable(0.0).with_schedule(RateSchedule::steps(vec![
                    (0, 1_000.0),
                    (3_333_700_000, 1_700.0),
                ])),
            );
            let d = Deployment::uniform(&graph, 1);
            let cfg = EngineConfig {
                instrumentation: InstrumentationConfig::disabled(),
                reconfig_latency_ns: 6_000_000_000,
                ..Default::default()
            };
            (FluidEngine::new(graph, profiles, sources, d, cfg), ids)
        };
        for halt_at_tick in [100, 333] {
            let (mut exact, ids) = mk();
            let (mut fast, _) = mk();
            assert_lockstep(&mut exact, &mut fast, &ids, halt_at_tick);
            let mut plan = fast.deployment().clone();
            plan.set(ids[1], 2);
            exact.request_rescale(plan.clone());
            fast.request_rescale(plan);
            // Down for 600 ticks, across the change.
            assert_lockstep(&mut exact, &mut fast, &ids, 590);
            assert!(fast.is_halted());
            let stats = fast.fastforward_stats();
            assert!(
                stats.halted_ticks > 550,
                "halt from tick {halt_at_tick} should replay: {stats:?}"
            );
            assert_lockstep(&mut exact, &mut fast, &ids, 1_000);
            assert!(!fast.is_halted());
            assert_engines_agree(&mut exact, &mut fast, &ids);
        }
    }

    /// `src -> op0 -> op1 -> ...` at `rate` records/s, every operator one
    /// instance of `(capacity, window period)`; `None` emits per record.
    fn windowed_chain(
        ops: &[(f64, Option<u64>)],
        rate: SourceSpec,
        cfg: EngineConfig,
    ) -> (FluidEngine, Vec<OperatorId>) {
        let caps: Vec<(f64, f64)> = ops.iter().map(|&(cap, _)| (cap, 1.0)).collect();
        let (graph, ids) = chain(&caps);
        let mut profiles = ProfileMap::new();
        for (i, &(cap, period)) in ops.iter().enumerate() {
            let profile = OperatorProfile::with_capacity(cap, 1.0);
            profiles.insert(
                ids[i + 1],
                match period {
                    Some(period_ns) => profile.windowed(period_ns),
                    None => profile,
                },
            );
        }
        let mut sources = BTreeMap::new();
        sources.insert(ids[0], rate);
        let d = Deployment::uniform(&graph, 1);
        let cfg = EngineConfig {
            instrumentation: InstrumentationConfig::disabled(),
            ..cfg
        };
        (FluidEngine::new(graph, profiles, sources, d, cfg), ids)
    }

    const MS: u64 = 1_000_000;

    /// A well-provisioned windowed chain is a pure cycle of one window
    /// period (100 ticks). The probe that starts at time zero sees the
    /// pipeline fill and the second one the short first window (99 ticks of
    /// input) drain; the third arms, and from then on nothing runs in full.
    #[test]
    fn cycle_replays_a_wellprovisioned_windowed_chain() {
        let mk = || {
            windowed_chain(
                &[(10_000.0, Some(1_000 * MS)), (10_000.0, None)],
                SourceSpec::constant(1_000.0),
                untracked(EngineConfig::default()),
            )
        };
        let (mut exact, ids) = mk();
        let (mut fast, _) = mk();
        assert_lockstep(&mut exact, &mut fast, &ids, 303);
        assert!(fast.fastforward_active(), "armed by the third probe");
        assert_lockstep(&mut exact, &mut fast, &ids, 2_697);
        let stats = fast.fastforward_stats();
        assert_eq!(
            stats.full_ticks, 303,
            "three probes, 1 + 2 ticks of cooldown"
        );
        assert_eq!(stats.cycle_ticks, stats.replayed_ticks);
        assert_eq!(stats.cycle_ticks + stats.full_ticks, 3_000);
        assert_eq!((stats.probes, stats.probe_failures), (3, 2));
        assert_engines_agree(&mut exact, &mut fast, &ids);
    }

    /// An under-provisioned windowed main: its input queue gains 0.1 records
    /// per tick while everything else cycles every 20 ticks. The cycle arms
    /// with that queue drifting, replays it up to the space guard, and the
    /// guard stops the replay in the *middle* of a cycle — the tick it
    /// refused runs in full from the state replay left behind.
    #[test]
    fn cycle_with_a_drifting_queue_ends_mid_cycle_at_the_space_guard() {
        let cfg = untracked(EngineConfig {
            per_instance_queue: 300.0,
            ..Default::default()
        });
        let mk = || {
            windowed_chain(
                &[(990.0, Some(200 * MS)), (10_000.0, None)],
                SourceSpec::constant(1_000.0),
                cfg.clone(),
            )
        };
        let (mut exact, ids) = mk();
        let (mut fast, _) = mk();
        let mut stretch = 0u64;
        let mut ended = None;
        for t in 0..6_000 {
            let before = fast.fastforward_stats();
            assert_lockstep(&mut exact, &mut fast, &ids, 1);
            let after = fast.fastforward_stats();
            if after.cycle_ticks > before.cycle_ticks {
                stretch += 1;
            } else if stretch > 0 && ended.is_none() {
                ended = Some((t, stretch));
                assert_eq!(
                    after.full_ticks,
                    before.full_ticks + 1,
                    "refused tick ran in full"
                );
            }
        }
        let (t, stretch) = ended.expect("the space guard ends the drift");
        assert!(stretch > 2_000, "most of the fill is replayed: {stretch}");
        assert_ne!(stretch % 20, 0, "replay ended at tick {t}, mid-cycle");
        assert!(exact.queue_len(ids[1]) > 299.0, "input queue saturated");
        assert!(exact.last_tick().total_emitted() < 10.0, "source throttled");
        assert_engines_agree(&mut exact, &mut fast, &ids);
    }

    /// The drifting queue can be the one a window flushes into: a slow
    /// operator behind a well-provisioned window receives 200 records every
    /// 20 ticks and serves 198 of them. The flush is one of the cycle's
    /// logged pushes — replayed without it the queue would only drain — and
    /// the space guard binds in the flush's phase alone, so that is where
    /// the replay ends.
    #[test]
    fn a_flush_into_a_drifting_queue_is_replayed_with_its_push() {
        let cfg = untracked(EngineConfig {
            per_instance_queue: 300.0,
            ..Default::default()
        });
        let mk = || {
            windowed_chain(
                &[(10_000.0, Some(200 * MS)), (990.0, None)],
                SourceSpec::constant(1_000.0),
                cfg.clone(),
            )
        };
        let (mut exact, ids) = mk();
        let (mut fast, _) = mk();
        assert_lockstep(&mut exact, &mut fast, &ids, 600);
        assert!(fast.fastforward_active(), "armed with the queue drifting");
        assert!(!fast.ff.drifting.is_empty());
        let flush_phase = (0..20)
            .find(|phase| fast.ff.drift[*phase].pushes.0 != fast.ff.drift[*phase].pushes.1)
            .expect("one phase of the cycle carries the flush");
        let armed_at = fast.fastforward_stats().full_ticks;
        let mut t = 600;
        while fast.fastforward_active() {
            assert_lockstep(&mut exact, &mut fast, &ids, 1);
            t += 1;
        }
        // `t` ticks ran, the last of them the one replay refused.
        assert_eq!((t - 1 - armed_at) % 20, flush_phase as u64);
        assert!(t > 1_000, "hundreds of ticks of drift replayed: {t}");
        assert_lockstep(&mut exact, &mut fast, &ids, 2_000);
        assert_engines_agree(&mut exact, &mut fast, &ids);
    }

    /// A flush larger than the receiving queue spills: the remainder stays
    /// buffered and the window retries every tick (`next_fire_ns` is set
    /// one tick past the tick's end), which moves every later firing.
    /// Whatever fast-forward makes of that, it stays on tick-by-tick
    /// execution.
    #[test]
    fn a_spilling_flush_and_its_retries_stay_exact() {
        let cfg = untracked(EngineConfig {
            per_instance_queue: 300.0,
            ..Default::default()
        });
        let mk = || {
            windowed_chain(
                &[(10_000.0, Some(1_000 * MS)), (2_000.0, None)],
                SourceSpec::constant(1_000.0),
                cfg.clone(),
            )
        };
        let (mut exact, ids) = mk();
        let (mut fast, _) = mk();
        let mut retries = 0;
        for _ in 0..4_000 {
            assert_lockstep(&mut exact, &mut fast, &ids, 1);
            let st = &exact.states[ids[1].index()];
            retries += (st.next_fire_ns == exact.now_ns() + exact.config().tick_ns) as u32;
        }
        assert!(retries > 100, "flushes spilled and retried: {retries}");
        assert!(fast.fastforward_stats().probes > 0);
        assert_engines_agree(&mut exact, &mut fast, &ids);
    }

    /// Two windows cycle together at the least common multiple of their
    /// periods: 0.5 s and 2 s repeat every 200 ticks, 0.5 s and 0.75 s every
    /// 150 — longer than either period.
    #[test]
    fn two_windows_cycle_at_the_lcm_of_their_periods() {
        for (first, second, cycle) in [(500, 2_000, 200), (500, 750, 150)] {
            let mk = || {
                windowed_chain(
                    &[
                        (10_000.0, Some(first * MS)),
                        (10_000.0, Some(second * MS)),
                        (10_000.0, None),
                    ],
                    SourceSpec::constant(1_000.0),
                    untracked(EngineConfig::default()),
                )
            };
            let (mut exact, ids) = mk();
            let (mut fast, _) = mk();
            assert_eq!(fast.probe_cycle, cycle);
            assert_lockstep(&mut exact, &mut fast, &ids, 3_000);
            let stats = fast.fastforward_stats();
            assert!(fast.fastforward_active(), "{cycle}: {stats:?}");
            assert_eq!(
                stats.full_ticks,
                stats.probes * cycle as u64 + (1 << stats.probe_failures) - 1,
                "{cycle}: whole probes, and cooldowns of 1, 2, .. ticks between: {stats:?}"
            );
            assert!(stats.cycle_ticks > 2_000, "{cycle}: {stats:?}");
            assert_engines_agree(&mut exact, &mut fast, &ids);
        }
    }

    /// Heron mode with a queue the size of one flush: every flush lifts the
    /// sink's queue over the high watermark, the spout pauses until it has
    /// drained, and the whole pattern repeats with the window. The state
    /// does return after 100 ticks, but the source emits in some of them
    /// and not in others — a caller reading `last_tick` once per replayed
    /// batch would be told the wrong thing, so such a cycle must not arm.
    #[test]
    fn a_cycle_whose_source_statistics_vary_never_arms() {
        let cfg = untracked(EngineConfig {
            mode: EngineMode::Heron,
            heron_per_instance_queue: 1_000.0,
            ..Default::default()
        });
        let mk = || {
            windowed_chain(
                &[(10_000.0, Some(1_000 * MS)), (10_000.0, None)],
                SourceSpec::constant(1_000.0),
                cfg.clone(),
            )
        };
        let (mut exact, ids) = mk();
        let (mut fast, _) = mk();
        let mut paused = 0;
        for _ in 0..3_000 {
            assert_lockstep(&mut exact, &mut fast, &ids, 1);
            paused += exact.backpressure_active() as u32;
        }
        assert!(
            paused > 100 && paused < 1_000,
            "pauses come and go: {paused}"
        );
        let stats = fast.fastforward_stats();
        assert!(stats.probes > 5, "{stats:?}");
        assert_eq!(stats.replayed_ticks, 0, "{stats:?}");
    }

    /// What a probe cannot prove, it does not start: a window period off the
    /// tick grid, latency tracking with or without a window, Timely mode and
    /// service noise all keep executing full ticks.
    #[test]
    fn unprovable_engines_never_start_a_probe() {
        let windowed = |period_ns: Option<u64>, cfg: EngineConfig| {
            windowed_chain(
                &[(10_000.0, period_ns), (10_000.0, None)],
                SourceSpec::constant(1_000.0),
                cfg,
            )
            .0
        };
        let flink = untracked(EngineConfig::default());
        let engines = [
            ("off-grid period", windowed(Some(1_005 * MS), flink.clone())),
            (
                "tracking",
                windowed(Some(1_000 * MS), EngineConfig::default()),
            ),
            (
                "tracking, non-windowed Flink",
                windowed(None, EngineConfig::default()),
            ),
            (
                "timely",
                windowed(
                    Some(1_000 * MS),
                    EngineConfig {
                        mode: EngineMode::Timely,
                        timely_workers: 4,
                        ..flink.clone()
                    },
                ),
            ),
            (
                "noisy",
                windowed(
                    Some(1_000 * MS),
                    EngineConfig {
                        service_noise: 0.05,
                        ..flink
                    },
                ),
            ),
        ];
        for (what, mut e) in engines {
            for _ in 0..500 {
                e.tick_within(u64::MAX);
            }
            let stats = e.fastforward_stats();
            assert_eq!(
                (stats.probes, stats.replayed_ticks, stats.full_ticks),
                (0, 0, 500),
                "{what}"
            );
        }
    }

    /// A probe that spans a hundred ticks lives through what happens between
    /// them: closing a metrics window zeroes the accumulators and leaves it
    /// running — it arms on the same tick as an undisturbed twin — while a
    /// rescale request cancels it, without counting a failure.
    #[test]
    fn a_running_probe_survives_a_snapshot_and_yields_to_a_rescale() {
        let cfg = untracked(EngineConfig {
            reconfig_latency_ns: 300 * MS,
            ..Default::default()
        });
        let mk = || {
            windowed_chain(
                &[(10_000.0, Some(1_000 * MS)), (10_000.0, None)],
                SourceSpec::constant(1_000.0),
                cfg.clone(),
            )
        };
        let (mut exact, ids) = mk();
        let (mut fast, _) = mk();
        let (mut undisturbed, _) = mk();
        let run = |exact: &mut FluidEngine, fast: &mut FluidEngine, twin: &mut FluidEngine, n| {
            for _ in 0..n {
                assert_lockstep(exact, fast, &ids, 1);
                twin.tick_within(u64::MAX);
                assert_eq!(fast.fastforward_active(), twin.fastforward_active());
            }
        };
        run(&mut exact, &mut fast, &mut undisturbed, 250);
        assert!(fast.ff.probing(), "third probe under way");
        let (mut sa, mut sb) = (MetricsSnapshot::new(), MetricsSnapshot::new());
        exact.collect_snapshot_into(&mut sa);
        fast.collect_snapshot_into(&mut sb);
        assert_eq!(&sa, &sb);
        assert!(fast.ff.probing(), "a snapshot leaves the probe alone");
        run(&mut exact, &mut fast, &mut undisturbed, 100);
        assert!(fast.fastforward_active());
        exact.collect_snapshot_into(&mut sa);
        fast.collect_snapshot_into(&mut sb);
        assert_eq!(&sa, &sb);

        // Drop the armed cycle, then cancel the probe that follows it.
        fast.ff.invalidate();
        assert_lockstep(&mut exact, &mut fast, &ids, 30);
        assert!(fast.ff.probing());
        let failures = fast.fastforward_stats().probe_failures;
        let mut plan = fast.deployment().clone();
        plan.set(ids[1], 2);
        exact.request_rescale(plan.clone());
        fast.request_rescale(plan);
        assert!(!fast.ff.probing(), "a rescale request cancels the probe");
        assert_lockstep(&mut exact, &mut fast, &ids, 1_000);
        let stats = fast.fastforward_stats();
        assert_eq!(fast.deployment().parallelism(ids[1]), 2);
        assert!(
            stats.halted_ticks > 0 && fast.fastforward_active(),
            "{stats:?}"
        );
        assert!(
            stats.probe_failures <= failures + 1,
            "the cancelled probe is no failure (the pipeline refilling after \
             the deploy may cost one): {stats:?}"
        );
        assert_engines_agree(&mut exact, &mut fast, &ids);
    }

    /// A probe starts only if its whole cycle and one replayed tick fit in
    /// the source phase. With the rate changing at tick 304, the probe that
    /// starts at tick 203 (the two before it fail on the filling pipeline)
    /// ends at 303 and buys exactly one replayed tick; with the change one
    /// tick earlier it must not start at all.
    #[test]
    fn a_rate_change_right_after_the_cycle_bounds_probe_and_replay() {
        for (change_tick, probes, replayed) in [(304u64, 3, 1), (303, 2, 0)] {
            let mk = || {
                let schedule =
                    RateSchedule::steps(vec![(0, 1_000.0), (change_tick * 10 * MS, 1_500.0)]);
                windowed_chain(
                    &[(10_000.0, Some(1_000 * MS)), (10_000.0, None)],
                    SourceSpec::constant(0.0).with_schedule(schedule),
                    untracked(EngineConfig::default()),
                )
            };
            let (mut exact, ids) = mk();
            let (mut fast, _) = mk();
            assert_lockstep(&mut exact, &mut fast, &ids, change_tick as usize);
            let stats = fast.fastforward_stats();
            assert_eq!(
                (stats.probes, stats.cycle_ticks),
                (probes, replayed),
                "change at tick {change_tick}: {stats:?}"
            );
            assert_lockstep(&mut exact, &mut fast, &ids, 1_000);
            let stats = fast.fastforward_stats();
            assert!(stats.cycle_ticks > 500, "new phase replays: {stats:?}");
            assert_engines_agree(&mut exact, &mut fast, &ids);
        }
    }

    #[test]
    fn fastforward_disabled_runs_full_ticks() {
        let cfg = EngineConfig {
            fast_forward: false,
            ..Default::default()
        };
        let (mut e, _) = engine_with(&[(2_000.0, 1.0)], 1_000.0, &[1, 1], cfg);
        for _ in 0..200 {
            e.tick_within(u64::MAX);
        }
        let stats = e.fastforward_stats();
        assert_eq!(stats.replayed_ticks, 0);
        assert_eq!(stats.probes, 0);
        assert_eq!(stats.full_ticks, 200);
    }

    #[test]
    fn measured_capacity_has_no_quantization_bias() {
        // Capacity exactly 100/s, load 1000/s over 30 instances: the
        // snapshot's rounding must not bias the measured rate below 100,
        // which would flip ceil(1000/100) from 10 to 11.
        let (mut e, ids) = engine_with(&[(100.0, 1.0)], 1_000.0, &[1, 30], EngineConfig::default());
        e.run_for(10_000_000_000);
        let mut snap = MetricsSnapshot::new();
        e.collect_snapshot_into(&mut snap);
        e.run_for(10_000_000_000);
        e.collect_snapshot_into(&mut snap);
        let m = snap.operator(ids[1]).unwrap();
        let avg = m.average_true_processing_rate().unwrap();
        let requirement = (1_000.0 / avg - 1e-9).ceil() as usize;
        assert_eq!(requirement, 10, "avg capacity measured {avg}");
    }
}
