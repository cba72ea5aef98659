//! The four `ds2-runtime` workloads: a `src -> map -> count` chain driven by
//! the runtime's own deadline-paced source (the open-loop generator: fixed
//! schedule, bounded only by backpressure), measured from outside — the
//! harness owns the record type, the `generate` closure and the `count`
//! logic, and timestamps inside those; everything between them is product.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use ds2_core::controller::{ControllerVerdict, ScalingController};
use ds2_core::deployment::Deployment;
use ds2_core::graph::{GraphBuilder, LogicalGraph, OperatorId};
use ds2_core::manager::{ManagerConfig, ScalingManager};
use ds2_core::snapshot::MetricsSnapshot;
use ds2_runtime::{FnLogic, JobSpec, Logic, RunningJob, StateEntry, StateValue};

use crate::affinity::OneCpu;
use crate::probes;
use crate::stats::{fast_quartile, median, Histogram};
use crate::trace::{now_ns, Tracer};
use crate::{peak_rss_mb, Outcome, Scale};

/// 16-byte record. `t_ns` is the generation timestamp on 1 record in
/// [`STAMP_EVERY`] and 0 on the rest, so stamping costs well under 1 ns per
/// record amortised.
#[derive(Clone, Copy)]
pub struct Rec {
    key: u64,
    t_ns: u64,
}

const STAMP_EVERY: u64 = 64;
const BATCH_SIZE: usize = 1024;
const CHANNEL_CAPACITY: usize = 64;

/// Span name of each rescale phase, in order (the per-layer metric is the
/// span name plus `_ms`); the phases tile the time from the `rescale` call to
/// the first batch processed on the new deployment.
const RESCALE_PHASES: [&str; 5] = [
    "runtime.engine.rescale.halt",
    "runtime.engine.rescale.drain",
    "runtime.engine.rescale.repartition_spawn",
    "runtime.engine.rescale.restore",
    "runtime.engine.rescale.resume",
];

/// What the control thread does at each interval.
#[derive(Clone, Copy, PartialEq)]
enum Control {
    /// Nothing but the snapshot that closes the window.
    None,
    /// A real `ScalingManager` decides; the job sustains its rate, so every
    /// verdict must be `NoAction`.
    Passive,
    /// The manager decides (timed), then the scripted plan — `count`
    /// alternating 1 <-> 2 — overrides it, so the rescale count is fixed.
    Scripted,
}

struct ChainWorkload {
    /// Offered source rate, records/s.
    rate: f64,
    /// Distinct keys (a power of two) = keyed-state entries of `count`.
    keys: u64,
    /// Length of one chunk of the measured window: the control interval, or
    /// the whole window where there is no control. Throughput and latency
    /// quantiles are taken per chunk and reported as the favourable quartile
    /// over chunks ([`fast_quartile`]), so stretches of interference from a
    /// noisy host move some chunks, not the result.
    chunk: Duration,
    control: Control,
    /// Run every thread of the job on one CPU. Three mostly idle workers on
    /// a 2-vCPU guest are either packed on one vCPU or spread over both; the
    /// kernel decides from the load of the seconds before the job started
    /// and keeps it that way for the life of the job. Spread, every hop wakes
    /// a halted vCPU through the hypervisor and the p90 reads 135-150 us
    /// instead of 36. (A rescale re-spawns the workers, so the rescale
    /// workloads leave a bad placement within an interval or two.)
    one_cpu: bool,
    /// Records through the sink before the measured window opens.
    warm_records: u64,
}

fn workload(name: &str, scale: &Scale) -> ChainWorkload {
    let (rate, keys, chunk, control) = match name {
        "chain_saturated" => (
            1e12,
            1 << 10,
            Duration::from_secs_f64(scale.seconds),
            Control::None,
        ),
        // The rate of the rescale workloads: theirs is this chain plus rescales.
        "chain_paced" => (2e6, 1 << 10, Duration::from_millis(500), Control::Passive),
        "rescale_small_state" => (2e6, 1 << 10, Duration::from_millis(500), Control::Scripted),
        "rescale_large_state" => (
            2e6,
            if scale.quick { 1 << 17 } else { 1 << 20 },
            Duration::from_millis(700),
            Control::Scripted,
        ),
        other => unreachable!("not a runtime workload: {other}"),
    };
    // Half a second of the offered rate (64 Mi records where the source is
    // unbounded), and at least one full pass over the key space so every
    // state entry exists before the first rescale.
    let half_second = if rate > 1e9 {
        64.0 * 1048576.0
    } else {
        rate * 0.5
    };
    let warm = (half_second * scale.warm_frac) as u64;
    ChainWorkload {
        rate,
        keys,
        chunk,
        control,
        one_cpu: name == "chain_paced",
        warm_records: warm.max(keys + keys / 8),
    }
}

/// [`Shared::chunk`] outside the measured window: no latency samples.
const NOT_RECORDING: u64 = u64::MAX;

/// State the harness shares with its `generate` closure and `count` logic.
#[derive(Default)]
struct Shared {
    /// Records `count` has processed.
    sink: AtomicU64,
    /// Index of the chunk latency samples currently belong to.
    chunk: AtomicU64,
    /// One latency histogram per chunk, filled by the `count` instances
    /// whenever they notice the chunk index moved (and when they retire).
    latency: Mutex<Vec<Histogram>>,
    /// Records generated by source incarnations that have ended, and by the
    /// live one (the runtime restarts `n` at 0 on every deployment).
    generated_before: AtomicU64,
    generated_now: AtomicU64,
    /// State entries handed to the engine by `drain_state`.
    drained_entries: AtomicU64,
    // Timestamps of the current rescale, taken inside the harness's `Logic`
    // callbacks on whichever thread the engine calls them from.
    drain_start: AtomicU64,
    drain_end: AtomicU64,
    restore_start: AtomicU64,
    restore_end: AtomicU64,
    first_batch: AtomicU64,
}

impl Shared {
    fn new() -> Arc<Self> {
        let shared = Self::default();
        shared.chunk.store(NOT_RECORDING, Relaxed);
        Arc::new(shared)
    }

    fn generated(&self) -> u64 {
        self.generated_before.load(Relaxed) + self.generated_now.load(Relaxed)
    }

    fn reset_phase_stamps(&self) {
        for first in [&self.drain_start, &self.restore_start, &self.first_batch] {
            first.store(u64::MAX, Relaxed);
        }
        for last in [&self.drain_end, &self.restore_end] {
            last.store(0, Relaxed);
        }
    }
}

/// The harness's own keyed counter: dense per-key counts (the state that
/// migrates), the sink counter, latency samples and phase timestamps.
struct Count {
    counts: Vec<u64>,
    mask: u64,
    shared: Arc<Shared>,
    latency: Histogram,
    /// The chunk `latency` holds samples of.
    latency_chunk: u64,
    stamps: Vec<u64>,
    fresh: bool,
}

impl Count {
    fn new(keys: u64, shared: Arc<Shared>) -> Self {
        Self {
            counts: vec![0; keys as usize],
            mask: keys - 1,
            shared,
            latency: Histogram::default(),
            latency_chunk: NOT_RECORDING,
            stamps: Vec::with_capacity(BATCH_SIZE / STAMP_EVERY as usize + 1),
            fresh: true,
        }
    }

    /// Hands the samples of the chunk that just ended to the harness.
    fn flush_latency(&mut self) {
        if self.latency.total() == 0 {
            return;
        }
        if let Ok(mut chunks) = self.shared.latency.lock() {
            let slot = self.latency_chunk as usize;
            if chunks.len() <= slot {
                chunks.resize_with(slot + 1, Histogram::default);
            }
            chunks[slot].merge(&self.latency);
        }
        self.latency = Histogram::default();
    }
}

impl Logic<Rec> for Count {
    fn process(&mut self, r: Rec, _out: &mut Vec<Rec>) {
        self.process_batch(&mut vec![r], _out);
    }

    fn process_batch(&mut self, batch: &mut Vec<Rec>, _out: &mut Vec<Rec>) {
        for r in batch.iter() {
            self.counts[(r.key & self.mask) as usize] += 1;
            if r.t_ns != 0 {
                self.stamps.push(r.t_ns);
            }
        }
        let now = now_ns();
        if self.fresh {
            self.fresh = false;
            self.shared.first_batch.fetch_min(now, Relaxed);
        }
        let chunk = self.shared.chunk.load(Relaxed);
        if chunk != self.latency_chunk {
            self.flush_latency();
            self.latency_chunk = chunk;
        }
        if chunk != NOT_RECORDING {
            for &t in &self.stamps {
                self.latency.record(now.saturating_sub(t));
            }
        }
        self.stamps.clear();
        self.shared.sink.fetch_add(batch.len() as u64, Relaxed);
        batch.clear();
    }

    fn drain_state(&mut self) -> Vec<StateEntry> {
        self.shared.drain_start.fetch_min(now_ns(), Relaxed);
        let entries: Vec<StateEntry> = self
            .counts
            .iter_mut()
            .enumerate()
            .filter(|(_, c)| **c > 0)
            .map(|(k, c)| (k as u64, Box::new(std::mem::take(c)) as Box<dyn StateValue>))
            .collect();
        self.shared
            .drained_entries
            .fetch_add(entries.len() as u64, Relaxed);
        self.shared.drain_end.fetch_max(now_ns(), Relaxed);
        entries
    }

    fn restore_state(&mut self, entries: Vec<StateEntry>) {
        self.shared.restore_start.fetch_min(now_ns(), Relaxed);
        for (k, v) in entries {
            self.counts[(k & self.mask) as usize] += state_count(v);
        }
        self.shared.restore_end.fetch_max(now_ns(), Relaxed);
    }
}

impl Drop for Count {
    fn drop(&mut self) {
        self.flush_latency();
    }
}

fn state_count(v: Box<dyn StateValue>) -> u64 {
    *v.into_any().downcast::<u64>().expect("count state is u64")
}

fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The chain's operators, in graph (and snapshot) order.
struct Chain {
    graph: LogicalGraph,
    src: OperatorId,
    map: OperatorId,
    count: OperatorId,
}

fn chain() -> Chain {
    let mut b = GraphBuilder::new();
    let src = b.operator("src");
    let map = b.operator("map");
    let count = b.operator("count");
    b.connect(src, map);
    b.connect(map, count);
    Chain {
        graph: b.build().expect("a chain is a valid graph"),
        src,
        map,
        count,
    }
}

/// Builds the job spec. The key stream is a pure function of `(seed, n)`:
/// an odd multiplier walks the power-of-two key space as a permutation, so
/// any `keys` consecutive records touch every key exactly once.
fn job_spec(wl: &ChainWorkload, chain: &Chain, seed: u64, shared: &Arc<Shared>) -> JobSpec<Rec> {
    let mut spec: JobSpec<Rec> = JobSpec::new(chain.graph.clone());
    spec.batch_size = BATCH_SIZE;
    spec.channel_capacity = CHANNEL_CAPACITY;
    let (mult, offset, mask) = (splitmix64(seed) | 1, splitmix64(seed ^ 1), wl.keys - 1);
    let gen = Arc::clone(shared);
    spec.source(
        chain.src,
        wl.rate,
        move |n| {
            if n == 0 {
                // A new source incarnation: bank the previous one's count.
                gen.generated_before
                    .fetch_add(gen.generated_now.swap(0, Relaxed), Relaxed);
            }
            gen.generated_now.store(n + 1, Relaxed);
            Rec {
                key: n.wrapping_mul(mult).wrapping_add(offset) & mask,
                t_ns: if n % STAMP_EVERY == 0 { now_ns() } else { 0 },
            }
        },
        |r| r.key,
    );
    spec.operator(
        chain.map,
        || Box::new(FnLogic::new(|r: Rec, out: &mut Vec<Rec>| out.push(r))),
        |r| r.key,
    );
    let (keys, sink) = (wl.keys, Arc::clone(shared));
    spec.operator(
        chain.count,
        move || Box::new(Count::new(keys, Arc::clone(&sink))),
        |r| r.key,
    );
    spec
}

/// Useful/wait/record totals of one operator over the measured window.
#[derive(Default, Clone, Copy)]
struct StageTotals {
    useful_ns: u64,
    wait_input_ns: u64,
    wait_output_ns: u64,
    window_ns: u64,
    records_in: u64,
    records_out: u64,
}

/// What one measured window produced.
#[derive(Default)]
struct Window {
    seconds: f64,
    generated: u64,
    /// Sink records per second of each chunk (pauses included), and whether
    /// the chunk's control interval was traced.
    chunk_throughput: Vec<(bool, f64)>,
    /// State entries `drain_state` handed over during the window.
    drained_entries: u64,
    stages: [StageTotals; 3],
    dropped: u64,
    verdicts_not_noaction: u64,
    rescales_tried: u64,
    rescales_failed: u64,
    pause_ms: Vec<f64>,
    /// Window closes -> first batch on the new deployment, per rescale, and
    /// whether that interval was traced.
    reconfig_ms: Vec<(bool, f64)>,
}

/// The values of `pairs` whose flag equals `traced`.
fn where_traced(pairs: &[(bool, f64)], traced: bool) -> Vec<f64> {
    pairs
        .iter()
        .filter(|(t, _)| *t == traced)
        .map(|(_, v)| *v)
        .collect()
}

impl Window {
    fn throughput(&self) -> f64 {
        let mut all: Vec<f64> = self.chunk_throughput.iter().map(|(_, v)| *v).collect();
        fast_quartile(&mut all, true)
    }
}

/// A deployed chain plus the control-thread state that drives it.
struct Driver {
    wl: ChainWorkload,
    chain: Chain,
    shared: Arc<Shared>,
    job: RunningJob<Rec>,
    manager: ScalingManager,
    snapshot: MetricsSnapshot,
}

impl Driver {
    /// Builds the spec, deploys at parallelism 1/1/1 and waits until the
    /// warm-up volume is through the sink. Returns the driver and the time
    /// `RunningJob::deploy` took.
    fn deploy(name: &str, scale: &Scale, seed: u64) -> (Driver, Duration) {
        let wl = workload(name, scale);
        let chain = chain();
        let shared = Shared::new();
        let spec = job_spec(&wl, &chain, seed, &shared);
        let t0 = Instant::now();
        let job = RunningJob::deploy(spec, Deployment::uniform(&chain.graph, 1));
        let deploy_took = t0.elapsed();
        while shared.sink.load(Relaxed) < wl.warm_records {
            std::thread::sleep(Duration::from_millis(1));
        }
        let manager = ScalingManager::new(
            chain.graph.clone(),
            ManagerConfig {
                policy_interval_ns: wl.chunk.as_nanos() as u64,
                // A scripted rescale lands every interval; a warm-up
                // interval after each would leave `decide` unmeasured.
                warmup_intervals: if wl.control == Control::Scripted {
                    0
                } else {
                    1
                },
                ..Default::default()
            },
        );
        let driver = Driver {
            wl,
            chain,
            shared,
            job,
            manager,
            snapshot: MetricsSnapshot::new(),
        };
        (driver, deploy_took)
    }

    /// Measures `seconds` as back-to-back chunks on absolute deadlines; at
    /// every chunk boundary the control interval runs (where the workload
    /// has control). With `tracer` on, every other pair of intervals is traced
    /// — spans around every call into the product — and the pairs between are
    /// the untraced reference the tracing overhead is judged against.
    fn run_window(&mut self, seconds: f64, tracer: &mut Tracer) -> Window {
        let alternate = tracer.enabled();
        let longest = seconds / if alternate { 2.0 } else { 1.0 };
        let chunk = self.wl.chunk.min(Duration::from_secs_f64(longest));
        let chunks = (seconds / chunk.as_secs_f64()).floor().max(1.0) as u32;
        let mut w = Window::default();
        // Open the metrics window with the measured one.
        self.job.collect_snapshot_into(&mut self.snapshot);
        let (gen0, drained0) = (
            self.shared.generated(),
            self.shared.drained_entries.load(Relaxed),
        );
        let t0 = Instant::now();
        let (mut t_prev, mut sink_prev) = (t0, self.shared.sink.load(Relaxed));
        for k in 1..=chunks {
            self.shared.chunk.store(k as u64 - 1, Relaxed);
            // In pairs, so that each side sees both rescale directions.
            tracer.set_enabled(alternate && (k / 2) % 2 == 1);
            std::thread::sleep((t0 + chunk * k).saturating_duration_since(Instant::now()));
            self.control_interval(&mut w, tracer);
            let (t, sink) = (Instant::now(), self.shared.sink.load(Relaxed));
            let throughput = (sink - sink_prev) as f64 / (t - t_prev).as_secs_f64();
            w.chunk_throughput.push((tracer.enabled(), throughput));
            (t_prev, sink_prev) = (t, sink);
        }
        self.shared.chunk.store(NOT_RECORDING, Relaxed);
        tracer.set_enabled(alternate);
        w.seconds = t0.elapsed().as_secs_f64();
        w.generated = self.shared.generated() - gen0;
        w.drained_entries = self.shared.drained_entries.load(Relaxed) - drained0;
        w
    }

    fn control_interval(&mut self, w: &mut Window, tracer: &mut Tracer) {
        let root = tracer.begin("control.interval");
        let window_closed = now_ns();
        tracer.begin("runtime.engine.collect_snapshot");
        self.job.collect_snapshot_into(&mut self.snapshot);
        tracer.end();
        self.absorb_snapshot(w);

        if self.wl.control != Control::None {
            tracer.begin("core.manager.on_metrics");
            let verdict = self
                .manager
                .on_metrics(now_ns(), &self.snapshot, self.job.deployment());
            tracer.end();
            if self.wl.control == Control::Passive && verdict != ControllerVerdict::NoAction {
                w.verdicts_not_noaction += 1;
            }
        }

        if self.wl.control == Control::Scripted {
            let mut plan = self.job.deployment().clone();
            plan.set(self.chain.count, 3 - plan.parallelism(self.chain.count));
            self.shared.reset_phase_stamps();
            w.rescales_tried += 1;
            let rescale = tracer.begin("runtime.engine.rescale");
            let called = now_ns();
            let result = self.job.rescale(plan);
            tracer.end();
            match result {
                Ok(pause) => {
                    w.pause_ms.push(pause.as_secs_f64() * 1e3);
                    self.manager.on_deployed(now_ns(), self.job.deployment());
                    let s = &self.shared;
                    // The new deployment is "processing records" when its
                    // `count` has finished a first batch; the worker stamps
                    // that itself, so polling coarsely costs no precision
                    // (and leaves both CPUs to the workers).
                    let give_up = Instant::now() + Duration::from_secs(5);
                    while s.first_batch.load(Relaxed) == u64::MAX && Instant::now() < give_up {
                        std::thread::sleep(Duration::from_micros(100));
                    }
                    let first_batch = s.first_batch.load(Relaxed);
                    if first_batch == u64::MAX {
                        w.rescales_failed += 1;
                    } else {
                        let reconfig_ms = (first_batch - window_closed) as f64 / 1e6;
                        w.reconfig_ms.push((tracer.enabled(), reconfig_ms));
                        let (ds, de) = (s.drain_start.load(Relaxed), s.drain_end.load(Relaxed));
                        let (rs, re) = (s.restore_start.load(Relaxed), s.restore_end.load(Relaxed));
                        let edges = [called, ds, de, rs, re, first_batch];
                        for (i, span) in RESCALE_PHASES.into_iter().enumerate() {
                            // The last phase outlives the `rescale` call.
                            let parent = if i < 4 { rescale } else { root };
                            tracer.add(span, parent, edges[i], edges[i + 1]);
                        }
                    }
                }
                Err(_) => w.rescales_failed += 1,
            }
        }
        tracer.end();
    }

    /// Folds the just-collected metrics window into the stage totals.
    fn absorb_snapshot(&self, w: &mut Window) {
        for (stage, op) in [self.chain.src, self.chain.map, self.chain.count]
            .into_iter()
            .enumerate()
        {
            let Some(metrics) = self.snapshot.operator(op) else {
                continue;
            };
            let t = &mut w.stages[stage];
            for i in &metrics.instances {
                t.useful_ns += i.useful_ns;
                t.wait_input_ns += i.wait_input_ns;
                t.wait_output_ns += i.wait_output_ns;
                t.window_ns += i.window_ns;
                t.records_in += i.records_in;
                t.records_out += i.records_out;
            }
        }
        w.dropped += self
            .snapshot
            .records_dropped_iter()
            .map(|(_, n)| n)
            .sum::<u64>();
    }

    /// Shuts the job down and checks conservation: every generated record
    /// was counted exactly once and survived every state migration.
    fn finish(mut self) -> Finished {
        self.job.collect_snapshot_into(&mut self.snapshot);
        let mut tail = Window::default();
        self.absorb_snapshot(&mut tail);
        let rescales_done = self.job.rescales() as u64;
        let t0 = Instant::now();
        let mut state = self.job.shutdown();
        let shutdown_took = t0.elapsed();
        let state_total: u64 = state
            .remove(&self.chain.count)
            .unwrap_or_default()
            .into_iter()
            .map(|(_, v)| state_count(v))
            .sum();
        let generated = self.shared.generated();
        let sink = self.shared.sink.load(Relaxed);
        let latency = std::mem::take(
            &mut *self
                .shared
                .latency
                .lock()
                .expect("no count instance panicked"),
        );
        Finished {
            generated,
            lost: generated.abs_diff(sink) + sink.abs_diff(state_total),
            dropped: tail.dropped,
            rescales_done,
            shutdown_took,
            latency,
        }
    }
}

struct Finished {
    generated: u64,
    lost: u64,
    dropped: u64,
    rescales_done: u64,
    shutdown_took: Duration,
    /// Latency histogram of each chunk of the recorded window.
    latency: Vec<Histogram>,
}

/// Runs one runtime workload: untraced for the end-to-end metrics, traced
/// for the per-layer ones.
pub fn run(name: &str, seed: u64, scale: &Scale, trace: bool) -> Outcome {
    let mut out = Outcome::default();
    // Held until the job is shut down.
    let _one_cpu = if workload(name, scale).one_cpu {
        let pin = OneCpu::pin();
        out.note(match &pin {
            Some(pin) => format!("every thread of the job runs on cpu {}", pin.cpu),
            None => "could not pin the job to one cpu".to_string(),
        });
        pin
    } else {
        None
    };

    // Set-up, several times over: spec + deploy + warm-up. The last
    // deployment is the one measured.
    let mut setup_s = Vec::new();
    let mut deploy_ms = Vec::new();
    let mut driver = None;
    // (`setup_s` is an end-to-end metric: a traced run sets up once.)
    for _ in 0..if trace { 1 } else { scale.setup_reps } {
        if let Some(previous) = driver.take() {
            Driver::finish(previous);
        }
        let t0 = Instant::now();
        let (d, deploy_took) = Driver::deploy(name, scale, seed);
        setup_s.push(t0.elapsed().as_secs_f64());
        deploy_ms.push(deploy_took.as_secs_f64() * 1e3);
        driver = Some(d);
    }
    let mut driver = driver.expect("setup_reps >= 1");

    let mut tracer = Tracer::new(trace);
    let measured = driver.run_window(scale.seconds * if trace { 0.9 } else { 1.0 }, &mut tracer);
    // Before the checkpoint and the probes below allocate anything.
    let peak_rss_mb = peak_rss_mb();

    let mut checkpoint = None;
    if trace && name == "rescale_large_state" {
        let stats = driver.job.checkpoint();
        checkpoint = Some((stats.took.as_secs_f64() * 1e3, stats.entries as f64));
    }
    let last_snapshot = driver.snapshot.clone();
    let (graph, keys, control) = (
        driver.chain.graph.clone(),
        driver.wl.keys,
        driver.wl.control,
    );
    let rate = driver.wl.rate;
    let fin = driver.finish();

    // Output checks.
    let tried = measured.rescales_tried;
    let rescale_failures = measured.rescales_failed;
    let dropped = fin.dropped + measured.dropped;
    let surprises = measured.verdicts_not_noaction;
    out.attempted = fin.generated + tried;
    out.failed = fin.lost + dropped + rescale_failures;
    out.check(
        fin.lost == 0,
        "generated == sink counter == sum of per-key counts",
    );
    out.check(dropped == 0, "records_dropped == 0");
    out.check(rescale_failures == 0, "every rescale is Ok and resumes");
    out.check(surprises == 0, "every passive interval returns NoAction");
    out.check(
        fin.rescales_done == tried,
        "exactly the scripted rescales ran",
    );

    let latency_us = |q: f64| -> f64 {
        let mut per_chunk: Vec<f64> = fin.latency.iter().map(|h| h.quantile(q) / 1e3).collect();
        fast_quartile(&mut per_chunk, false)
    };
    let latency_samples: u64 = fin.latency.iter().map(Histogram::total).sum();
    if !trace {
        out.set("throughput_per_s", measured.throughput());
        out.set("latency_p90_us", latency_us(0.9));
        out.set("setup_s", median(&mut setup_s));
        out.note(format!(
            "latency_p50_us {} latency_p99_us {} latency_samples {latency_samples} peak_rss_mb {} chunks {} window_s {:.3} rescales {tried}",
            latency_us(0.5),
            latency_us(0.99),
            peak_rss_mb,
            measured.chunk_throughput.len(),
            measured.seconds,
        ));
        return out;
    }

    // Traced intervals against the untraced ones between them.
    let overhead = if control == Control::Scripted {
        median(&mut where_traced(&measured.reconfig_ms, true))
            / median(&mut where_traced(&measured.reconfig_ms, false))
            - 1.0
    } else {
        1.0 - fast_quartile(&mut where_traced(&measured.chunk_throughput, true), true)
            / fast_quartile(&mut where_traced(&measured.chunk_throughput, false), true)
    };
    out.set("process.peak_rss_mb", peak_rss_mb);
    out.set("trace_overhead_frac", overhead);
    out.set("trace.throughput_per_s", measured.throughput());
    out.set("runtime.latency.p50_us", latency_us(0.5));
    out.set("runtime.latency.p99_us", latency_us(0.99));
    out.set("runtime.latency.samples", latency_samples as f64);

    for (stage, t) in ["src", "map", "count"].into_iter().zip(&measured.stages) {
        let window = t.window_ns.max(1) as f64;
        out.set(
            &format!("runtime.engine.{stage}.busy_frac"),
            t.useful_ns as f64 / window,
        );
        out.set(
            &format!("runtime.engine.{stage}.wait_input_frac"),
            t.wait_input_ns as f64 / window,
        );
        out.set(
            &format!("runtime.engine.{stage}.wait_output_frac"),
            t.wait_output_ns as f64 / window,
        );
        if stage != "src" {
            out.set(
                &format!("runtime.engine.{stage}.useful_ns_per_record"),
                t.useful_ns as f64 / t.records_in.max(1) as f64,
            );
        }
    }
    out.set(
        "runtime.engine.source_shortfall_frac",
        1.0 - measured.generated as f64 / (rate * measured.seconds),
    );
    out.set("runtime.engine.records_dropped", dropped as f64);
    out.set(
        "runtime.engine.state_entries_migrated",
        measured.drained_entries as f64,
    );
    out.set("runtime.engine.deploy_ms", median(&mut deploy_ms));
    out.set(
        "runtime.engine.shutdown_ms",
        fin.shutdown_took.as_secs_f64() * 1e3,
    );
    out.set_median(
        "runtime.engine.collect_snapshot_us",
        &tracer,
        "runtime.engine.collect_snapshot",
        1e3,
    );
    out.set_median(
        "core.manager.on_metrics_ns",
        &tracer,
        "core.manager.on_metrics",
        1.0,
    );

    if control == Control::Scripted {
        let mut pauses = measured.pause_ms.clone();
        out.set("runtime.engine.rescale.pause_ms", median(&mut pauses));
        out.set(
            "runtime.engine.rescale.pause_max_ms",
            pauses.last().copied().unwrap_or(0.0),
        );
        out.set(
            "runtime.control.reconfig_ms",
            median(
                &mut measured
                    .reconfig_ms
                    .iter()
                    .map(|(_, ms)| *ms)
                    .collect::<Vec<_>>(),
            ),
        );
        for span in RESCALE_PHASES {
            out.set_median(&format!("{span}_ms"), &tracer, span, 1e6);
        }
    }

    // Direct-call probes of the layers this workload's numbers decompose
    // into (see the README's interaction table).
    match name {
        "chain_saturated" => {
            let logic = Count::new(keys, Shared::new());
            out.set(
                "runtime.logic.process_batch_ns_per_record",
                probes::process_batch_ns_per_record(logic, |n| Rec { key: n, t_ns: 0 }, BATCH_SIZE),
            );
            let (add_ns, window_us) = probes::counters();
            out.set("metrics.counters.add_ns", add_ns);
            out.set("metrics.counters.window_us", window_us);
        }
        "rescale_small_state" => {
            out.set(
                "core.policy.evaluate_into_ns",
                probes::evaluate_into_ns(&graph, &last_snapshot),
            );
            out.set(
                "core.policy.evaluate_into_ns_100ops",
                probes::evaluate_into_ns_100ops(),
            );
        }
        "rescale_large_state" => {
            out.set(
                "runtime.checkpoint.partition_state_ns_per_entry",
                probes::partition_state_ns_per_entry(keys as usize),
            );
            if let Some((ms, entries)) = checkpoint {
                out.set("runtime.engine.checkpoint_ms", ms);
                out.set("runtime.engine.checkpoint_entries", entries);
            }
        }
        _ => {}
    }

    out.tracer = Some(tracer);
    out
}
