//! The threaded execution engine: one OS thread per operator instance,
//! bounded crossbeam channels between instances, hash partitioning on the
//! producer's key function, and stop-the-world rescaling with keyed state
//! migration — a miniature of the Flink mechanism §4.2 describes
//! (savepoint, halt, redeploy with new parallelism).
//!
//! Every instance maintains the §4.1 counters through
//! [`SharedCounters`]: records in/out, processing time, and input/output
//! wait time, measured with wall-clock precision around the blocking
//! channel operations.
//!
//! A hop costs one consumer wake-up per *burst*, not per batch: a producer
//! that is turning out cheap batches leaves a parked consumer asleep until
//! the queue is half full or the producer itself stops (the `owed` field
//! of `OutputRoute` lists when it pays).
//!
//! Workers are *supervised*: operator logic runs inside `catch_unwind`, so
//! a panicking instance reports a typed event (salvaging its keyed state on
//! the way out) instead of poisoning the job, and [`RunningJob::heal`]
//! restarts it — reattaching the replacement to the same input queue —
//! under a bounded per-instance budget. Periodic savepoints
//! ([`RunningJob::checkpoint`]) clone keyed state into a
//! [`CheckpointStore`] so even an instance that dies without salvage (or
//! wedges in user code) recovers its key range.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel::{bounded, unbounded, Receiver, RecvTimeoutError, Sender, TrySendError};
use ds2_core::deployment::Deployment;
use ds2_core::error::Ds2Error;
use ds2_core::graph::OperatorId;
use ds2_core::snapshot::MetricsSnapshot;
use ds2_metrics::counters::{CounterTotals, SharedCounters};

use crate::chaos::{ChaosAction, ChaosRuntime, InstanceChaos};
use crate::checkpoint::{partition_parts, CheckpointStats, CheckpointStore};
use crate::job::{JobSpec, KeyFn, LogicFactory};
use crate::logic::{Logic, StateEntry};
use crate::supervisor::{self, RestartDecision, Supervisor, SupervisorEvent, WorkerCmd};

/// Batches flowing through channels. The data plane never ships an empty
/// one, so a zero-record batch is the engine's wake token: it ends a
/// worker's blocking receive and is dropped before it reaches the `Logic`.
type Batch<R> = Vec<R>;

/// Keyed state between deployments: per operator, one part per drained
/// instance (or salvage, or checkpoint slice), never concatenated.
type StateParts = BTreeMap<OperatorId, Vec<Vec<StateEntry>>>;

/// How long a chaos-wedged worker blocks in "user code".
const WEDGE_SLEEP: Duration = Duration::from_secs(3600);

/// A shared free-list of spent batch buffers. Consumers return drained
/// `Vec`s here and producers refill from it, so the steady-state pipeline
/// recycles the same allocations around the ring instead of allocating a
/// fresh `Vec` per batch. (A consumer that emits keeps its drained input
/// as its next output buffer instead; see `run_batch`.) Lock granularity
/// is one batch (hundreds to thousands of records), so the mutex is
/// contended at kHz, not MHz.
pub(crate) struct BatchPool<R> {
    free: std::sync::Mutex<Vec<Batch<R>>>,
    capacity: usize,
    /// Records a fresh buffer is allocated for.
    batch_size: usize,
}

impl<R> BatchPool<R> {
    /// Creates a pool retaining at most `capacity` spare buffers; beyond
    /// that, returned buffers are simply dropped.
    pub(crate) fn new(capacity: usize, batch_size: usize) -> Arc<Self> {
        Arc::new(Self {
            free: std::sync::Mutex::new(Vec::with_capacity(capacity.min(1024))),
            capacity,
            batch_size,
        })
    }

    /// Takes a spare empty buffer, or — if the pool is dry, because more
    /// buffers are in flight than ever before — a fresh one sized for a
    /// whole batch, so filling it costs one allocation, not a doubling
    /// series of them.
    pub(crate) fn get(&self) -> Batch<R> {
        self.free
            .lock()
            .expect("pool lock")
            .pop()
            .unwrap_or_else(|| Vec::with_capacity(self.batch_size))
    }

    /// Returns a spent buffer to the pool, clearing it first.
    pub(crate) fn put(&self, mut batch: Batch<R>) {
        batch.clear();
        let mut free = self.free.lock().expect("pool lock");
        if free.len() < self.capacity {
            free.push(batch);
        }
    }

    /// Spare buffers currently pooled (test introspection).
    #[cfg(test)]
    fn spares(&self) -> usize {
        self.free.lock().expect("pool lock").len()
    }
}

/// A batch that took its producer less than this to make is *cheap*: the
/// next one is likely to follow as fast, so its send may leave a parked
/// consumer asleep (see [`OutputRoute::owed`]). A slower producer wakes its
/// consumer for every batch — a consumer that would wait this long for the
/// next batch may as well start on this one.
const CHEAP_BATCH: Duration = Duration::from_micros(50);

/// A route from one instance to all instances of one downstream operator.
///
/// The per-instance buckets are a reusable arena: they are allocated once
/// per route and refilled from the [`BatchPool`] as they are shipped, so a
/// steady-state `send_*` call performs zero allocations. Partitioning uses
/// a bitmask instead of `%` whenever the downstream parallelism is a power
/// of two (`k & (p-1) == k % p` exactly then, so routing stays consistent
/// with [`partition_state`]'s `key % p` rule).
struct OutputRoute<R> {
    senders: Vec<Sender<Batch<R>>>,
    key_fn: KeyFn<R>,
    /// `Some(p - 1)` when `senders.len()` is a power of two.
    mask: Option<u64>,
    /// Reusable per-instance buckets, always `senders.len()` long.
    buckets: Vec<Batch<R>>,
    /// The queues of the producer's *other* routes, woken with this one's
    /// before a send blocks.
    siblings: Vec<Sender<Batch<R>>>,
    /// A cheap batch was queued behind a parked consumer without waking it
    /// (the queue is under half full, and a consumer woken per batch
    /// preempts this producer, drains the one batch and parks again): this
    /// route owes its consumers a wake-up. The channel wakes them itself
    /// once a queue is half full, so a batch waits for at most
    /// `capacity / 2` cheap successors; sooner than that, [`pay`](Self::pay)
    /// runs before the producer stops producing for any reason:
    ///
    /// * its input is empty (`worker_loop`, ahead of the blocking receive);
    /// * an output queue is full ([`ship`](Self::ship), ahead of the
    ///   blocking send — siblings included);
    /// * a source is ahead of its schedule (`source_loop`, ahead of
    ///   `park_timeout`);
    /// * the thread exits, unwinding included (`Drop`).
    ///
    /// What is not covered is a cheap batch followed by one slow batch,
    /// whose cost is only known afterwards: there, and if a payment were
    /// ever missed, an engine consumer finds the batch at its own 5 ms
    /// input poll. Nothing above relies on that poll.
    owed: bool,
}

impl<R> OutputRoute<R> {
    fn new(senders: Vec<Sender<Batch<R>>>, key_fn: KeyFn<R>) -> Self {
        let p = senders.len();
        let mask = (p.is_power_of_two()).then(|| p as u64 - 1);
        let buckets = (0..p).map(|_| Batch::new()).collect();
        Self {
            senders,
            key_fn,
            mask,
            buckets,
            siblings: Vec::new(),
            owed: false,
        }
    }

    /// Bucket index for a partition key.
    #[inline]
    fn bucket_of(&self, key: u64) -> usize {
        match self.mask {
            Some(m) => (key & m) as usize,
            None => (key % self.senders.len() as u64) as usize,
        }
    }

    /// Pays the wake-up this route owes, if any.
    fn pay(&mut self) {
        if std::mem::take(&mut self.owed) {
            self.senders.iter().for_each(Sender::wake);
        }
    }

    /// Ships one full bucket to instance `k`. A `cheap` batch goes out
    /// without blocking and without waking a parked consumer of a queue
    /// under half full; if the queue is full instead, every wake-up the
    /// producer may owe is paid before the send blocks.
    ///
    /// Blocked time is charged to `wait_output` only when the send lands: a
    /// send error means every receiver of that instance's queue is gone.
    /// During teardown that is expected; any other time it is data loss —
    /// either way the drop is counted (and *not* charged as wait, which
    /// would inflate the blocked-time ratio DS2 derives true rates from),
    /// so degraded routing shows up in the metrics snapshot instead of
    /// disappearing silently.
    fn ship(
        &mut self,
        k: usize,
        bucket: Batch<R>,
        cheap: bool,
        counters: &SharedCounters,
        pool: &BatchPool<R>,
    ) {
        let n = bucket.len() as u64;
        let t0 = Instant::now();
        let sender = &self.senders[k];
        let attempt = if cheap {
            sender.try_send_deferred(bucket)
        } else {
            sender.try_send(bucket).map(|()| false)
        };
        let sent = match attempt {
            Ok(owed) => {
                self.owed |= owed;
                Ok(())
            }
            Err(TrySendError::Full(bucket)) => {
                self.pay();
                self.siblings.iter().for_each(Sender::wake);
                self.senders[k].send(bucket).map_err(|err| err.0)
            }
            Err(TrySendError::Disconnected(bucket)) => Err(bucket),
        };
        match sent {
            Ok(()) => counters.add_wait_output(t0.elapsed().as_nanos() as u64),
            Err(bucket) => {
                counters.add_records_dropped(n);
                pool.put(bucket);
            }
        }
    }

    /// Ships every non-empty bucket of the arena.
    fn flush(&mut self, cheap: bool, counters: &SharedCounters, pool: &BatchPool<R>) {
        for k in 0..self.buckets.len() {
            if self.buckets[k].is_empty() {
                continue;
            }
            let full = std::mem::replace(&mut self.buckets[k], pool.get());
            self.ship(k, full, cheap, counters, pool);
        }
    }

    /// Partitions an owned batch by key and sends the per-instance batches,
    /// accounting blocked time to `counters`. With a single downstream
    /// instance the batch is forwarded as-is — no per-record work, no
    /// clone, no partitioning.
    fn send_owned(
        &mut self,
        mut records: Batch<R>,
        cheap: bool,
        counters: &SharedCounters,
        pool: &BatchPool<R>,
    ) {
        if records.is_empty() || self.senders.is_empty() {
            pool.put(records);
            return;
        }
        if self.senders.len() == 1 {
            self.ship(0, records, cheap, counters, pool);
            return;
        }
        for r in records.drain(..) {
            let k = self.bucket_of((self.key_fn)(&r));
            self.buckets[k].push(r);
        }
        pool.put(records);
        self.flush(cheap, counters, pool);
    }
}

impl<R> Drop for OutputRoute<R> {
    fn drop(&mut self) {
        self.pay();
    }
}

impl<R: Clone> OutputRoute<R> {
    /// Like [`send_owned`](Self::send_owned) for a borrowed batch: records
    /// are cloned into the arena buckets (the caller still owns `records`,
    /// e.g. because another route consumes it afterwards).
    fn send_all(
        &mut self,
        records: &[R],
        cheap: bool,
        counters: &SharedCounters,
        pool: &BatchPool<R>,
    ) {
        if records.is_empty() || self.senders.is_empty() {
            return;
        }
        if self.senders.len() == 1 {
            let mut batch = pool.get();
            batch.extend_from_slice(records);
            self.ship(0, batch, cheap, counters, pool);
            return;
        }
        for r in records {
            let k = self.bucket_of((self.key_fn)(r));
            self.buckets[k].push(r.clone());
        }
        self.flush(cheap, counters, pool);
    }
}

/// Sends one batch of a producer's output along every route: earlier routes
/// clone from the borrowed buffer, the last consumes it outright, so the
/// common single-route topology never clones a record and — with one
/// downstream instance — never touches one.
fn send_out<R: Clone>(
    routes: &mut [OutputRoute<R>],
    records: Batch<R>,
    cheap: bool,
    counters: &SharedCounters,
    pool: &BatchPool<R>,
) {
    let Some((last, rest)) = routes.split_last_mut() else {
        pool.put(records);
        return;
    };
    for route in rest {
        route.send_all(&records, cheap, counters, pool);
    }
    last.send_owned(records, cheap, counters, pool);
}

/// One deployed instance.
struct InstanceHandle {
    /// Instance index within the operator (stable across restarts).
    instance: usize,
    /// Monotone spawn counter; supervisor events from older incarnations of
    /// this slot are stale and ignored.
    incarnation: u64,
    counters: Arc<SharedCounters>,
    last_totals: CounterTotals,
    /// Control-command channel into the worker (`None` for sources).
    cmd_tx: Option<Sender<WorkerCmd>>,
    /// The thread holds the only sender: a worker acknowledges its restored
    /// state with one `()`, and every thread drops the sender on its way
    /// out — disconnection is the exit event a deadline can wait on.
    alive: Receiver<()>,
    /// A halted worker returns the keyed state it drained from its own
    /// logic (`None` for sources, and after a panic — see `report_panic`).
    join: JoinHandle<Option<Vec<StateEntry>>>,
}

impl InstanceHandle {
    /// Spawns the instance's thread; `body` is handed the `alive` sender.
    fn spawn(
        name: String,
        (instance, incarnation): (usize, u64),
        counters: Arc<SharedCounters>,
        cmd_tx: Option<Sender<WorkerCmd>>,
        body: impl FnOnce(Sender<()>) -> Option<Vec<StateEntry>> + Send + 'static,
    ) -> Self {
        let (alive_tx, alive) = bounded(1);
        let join = std::thread::Builder::new()
            .name(name)
            .spawn(move || body(alive_tx))
            .expect("spawn instance thread");
        Self {
            instance,
            incarnation,
            counters,
            last_totals: CounterTotals::default(),
            cmd_tx,
            alive,
            join,
        }
    }

    /// Waits until the thread is on its way out or `limit` passes.
    fn exited_by(&self, limit: Instant) -> bool {
        loop {
            let left = limit.saturating_duration_since(Instant::now());
            match self.alive.recv_timeout(left) {
                Ok(()) => {} // a restore acknowledgement nobody waited for
                Err(e) => return e == RecvTimeoutError::Disconnected,
            }
        }
    }
}

/// The channel endpoints of one operator's input queues. The engine retains
/// both sides: senders to rebuild routes, receivers so a restarted instance
/// can reattach to the *same* queue (no in-flight records are lost).
struct OpChannels<R> {
    senders: Vec<Sender<Batch<R>>>,
    receivers: Vec<Receiver<Batch<R>>>,
    /// Halt release: set once every upstream producer has exited, telling
    /// the workers to finish their queue and stop. (The retained sender
    /// clones mean receivers never observe disconnection while the job is
    /// alive, so halting is flag-based, not disconnect-based.)
    upstream_done: Arc<AtomicBool>,
}

/// Outcome of one [`RunningJob::heal`] pass.
#[derive(Debug, Default)]
pub struct HealOutcome {
    /// Failures handled this pass — one typed error per instance that was
    /// restarted (panic) or replaced (wedge).
    pub healed: Vec<Ds2Error>,
    /// Set when a restart budget was exhausted: the job is degraded beyond
    /// the configured tolerance and the caller should stop driving it.
    pub gave_up: Option<Ds2Error>,
}

/// A running job: deployed threads plus the control-plane state.
pub struct RunningJob<R> {
    spec: JobSpec<R>,
    deployment: Deployment,
    instances: BTreeMap<OperatorId, Vec<InstanceHandle>>,
    channels: BTreeMap<OperatorId, OpChannels<R>>,
    stop: Arc<AtomicBool>,
    sup_tx: Sender<SupervisorEvent>,
    sup_rx: Receiver<SupervisorEvent>,
    supervisor: Supervisor,
    /// Failure events deferred by restart backoff, retried next heal pass.
    pending_failures: Vec<SupervisorEvent>,
    /// Instances that missed enough checkpoint deadlines to be presumed
    /// wedged, awaiting replacement: `(op, instance, incarnation)`.
    suspect_wedged: Vec<(OperatorId, usize, u64)>,
    /// Instances abandoned by a timed-out halt: `(op, instance,
    /// parallelism-at-halt)`, used by `recover` to restore
    /// their key ranges from the latest checkpoint.
    wedged_at_halt: Vec<(OperatorId, usize, usize)>,
    checkpoints: CheckpointStore,
    last_checkpoint_at: Duration,
    chaos: ChaosRuntime,
    /// Shared batch-buffer free-list: spent `Vec`s flow back here from
    /// consumers and are reissued to producers, so the steady-state hot
    /// path allocates nothing.
    pool: Arc<BatchPool<R>>,
    next_incarnation: u64,
    epoch: Instant,
    last_snapshot: Duration,
    rescales: u32,
    restarts: u32,
    recoveries: u32,
    /// State drained from instances that halted cleanly during a rescale
    /// that then timed out. Kept so [`shutdown`](Self::shutdown) still
    /// returns everything salvageable after an aborted rescale.
    salvaged: StateParts,
}

impl<R: Clone + Send + 'static> RunningJob<R> {
    /// Deploys `spec` with the given initial parallelism.
    pub fn deploy(mut spec: JobSpec<R>, deployment: Deployment) -> Self {
        spec.validate();
        // A zero-capacity queue never accepts a batch and a zero-record
        // batch is never shipped: either would deploy a job that moves
        // nothing.
        spec.channel_capacity = spec.channel_capacity.max(1);
        spec.batch_size = spec.batch_size.max(1);
        deployment
            .validate(&spec.graph)
            .expect("invalid deployment");
        let (sup_tx, sup_rx) = unbounded();
        let supervisor = Supervisor::new(spec.supervision.clone());
        let chaos = ChaosRuntime::new(&spec.chaos);
        // Spares for every channel slot plus a margin for in-flight
        // buffers held by the workers themselves.
        let pool = BatchPool::new(spec.channel_capacity.max(16) * 8, spec.batch_size);
        let mut job = Self {
            spec,
            deployment,
            instances: BTreeMap::new(),
            channels: BTreeMap::new(),
            stop: Arc::new(AtomicBool::new(false)),
            sup_tx,
            sup_rx,
            supervisor,
            pending_failures: Vec::new(),
            suspect_wedged: Vec::new(),
            wedged_at_halt: Vec::new(),
            checkpoints: CheckpointStore::new(),
            last_checkpoint_at: Duration::ZERO,
            chaos,
            pool,
            next_incarnation: 0,
            epoch: Instant::now(),
            last_snapshot: Duration::ZERO,
            rescales: 0,
            restarts: 0,
            recoveries: 0,
            salvaged: BTreeMap::new(),
        };
        job.spawn_all(BTreeMap::new());
        job
    }

    /// Current deployment.
    pub fn deployment(&self) -> &Deployment {
        &self.deployment
    }

    /// Time since the job was first deployed.
    pub fn elapsed(&self) -> Duration {
        self.epoch.elapsed()
    }

    /// Number of rescales performed.
    pub fn rescales(&self) -> u32 {
        self.rescales
    }

    /// Instance restarts performed by supervision (panic or wedge).
    pub fn restarts(&self) -> u32 {
        self.restarts
    }

    /// Full redeploys performed by `recover`.
    pub fn recoveries(&self) -> u32 {
        self.recoveries
    }

    /// Spawns all instances. Each worker is handed its share of `state`,
    /// partitioned by key straight from the parts, and restores it on its
    /// own thread; sources start without waiting for that — the bounded
    /// channels absorb the intake while state restores.
    fn spawn_all(&mut self, mut state: StateParts) {
        supervisor::install_quiet_panic_hook();
        self.stop = Arc::new(AtomicBool::new(false));
        self.wedged_at_halt.clear();
        self.suspect_wedged.clear();
        self.supervisor.clear_missed();
        self.channels.clear();

        let graph = &self.spec.graph;
        let ops: Vec<OperatorId> = graph
            .operators()
            .filter(|&op| !graph.is_source(op))
            .collect();

        // Create input channels for every non-source instance, retaining
        // both endpoints (see `OpChannels`).
        for &op in &ops {
            let (senders, receivers) = (0..self.deployment.parallelism(op))
                .map(|_| bounded(self.spec.channel_capacity))
                .unzip();
            let upstream_done = Arc::new(AtomicBool::new(false));
            let channels = OpChannels {
                senders,
                receivers,
                upstream_done,
            };
            self.channels.insert(op, channels);
        }

        // Workers first, so every record a source sends finds a consumer;
        // what their restores have not caught up with waits in the queues.
        let mut instances: BTreeMap<OperatorId, Vec<InstanceHandle>> = BTreeMap::new();
        for &op in &ops {
            let p = self.deployment.parallelism(op);
            let buckets = partition_parts(state.remove(&op).unwrap_or_default(), p);
            let mut handles = Vec::with_capacity(p);
            for (k, bucket) in buckets.into_iter().enumerate() {
                handles.push(self.spawn_worker(op, k, bucket, SharedCounters::new()));
            }
            instances.insert(op, handles);
        }

        let source_ids: Vec<OperatorId> = self.spec.sources.keys().copied().collect();
        for op in source_ids {
            let src = self.spec.sources[&op].clone();
            let p = self.deployment.parallelism(op);
            let mut handles = Vec::with_capacity(p);
            for k in 0..p {
                let counters = SharedCounters::new();
                let routes = self.routes_for(op);
                let c = Arc::clone(&counters);
                let stop = Arc::clone(&self.stop);
                let generate = Arc::clone(&src.generate);
                let rate = src.rate / p as f64;
                let batch = self.spec.batch_size;
                let pool = Arc::clone(&self.pool);
                let name = format!("{}-src-{k}", self.spec.graph.name(op));
                let body = move |_alive| {
                    source_loop(generate, rate, batch, routes, c, stop, pool);
                    None
                };
                handles.push(InstanceHandle::spawn(name, (k, 0), counters, None, body));
            }
            instances.insert(op, handles);
        }

        self.instances = instances;
    }

    /// Routes from `op` to every downstream operator's current queues.
    fn routes_for(&self, op: OperatorId) -> Vec<OutputRoute<R>> {
        let key_fn = if self.spec.graph.is_source(op) {
            Arc::clone(&self.spec.sources[&op].key_fn)
        } else {
            Arc::clone(&self.spec.operators[&op].key_fn)
        };
        let consumers: Vec<OperatorId> = (self.spec.graph.downstream_edges(op))
            .map(|e| e.to)
            .collect();
        let route = |to: &OperatorId| {
            let mut route = OutputRoute::new(self.channels[to].senders.clone(), key_fn.clone());
            let others = consumers.iter().filter(|&other| other != to);
            route.siblings = others
                .flat_map(|other| self.channels[other].senders.iter().cloned())
                .collect();
            route
        };
        consumers.iter().map(route).collect()
    }

    /// Spawns one supervised worker for `(op, instance)`, attached to the
    /// operator's retained input queue. The worker builds its logic and
    /// restores `restore` into it on its own thread.
    fn spawn_worker(
        &mut self,
        op: OperatorId,
        instance: usize,
        restore: Vec<StateEntry>,
        counters: Arc<SharedCounters>,
    ) -> InstanceHandle {
        self.next_incarnation += 1;
        let incarnation = self.next_incarnation;
        // Unbounded so the control plane never blocks sending a command
        // into a wedged worker's queue.
        let (cmd_tx, cmd_rx) = unbounded();
        let ctx = WorkerCtx {
            op,
            instance,
            incarnation,
            rx: self.channels[&op].receivers[instance].clone(),
            cmd_rx,
            routes: self.routes_for(op),
            counters: Arc::clone(&counters),
            upstream_done: Arc::clone(&self.channels[&op].upstream_done),
            sup_tx: self.sup_tx.clone(),
            chaos: self.chaos.hook(op, instance),
            pool: Arc::clone(&self.pool),
            out_buf: Vec::new(),
        };
        let factory = Arc::clone(&self.spec.operators[&op].factory);
        let name = format!("{}-{instance}", self.spec.graph.name(op));
        let body = move |alive| worker_loop(ctx, factory, restore, alive);
        InstanceHandle::spawn(name, (instance, incarnation), counters, Some(cmd_tx), body)
    }

    /// Stops every thread and returns the keyed state each worker drained
    /// from its own logic, one part per instance. Sources stop on the stop
    /// flag; an operator is released the moment all of its upstream
    /// producers have exited: its workers finish their queue and drain.
    ///
    /// With a `deadline`, an instance still running when it passes — wedged
    /// in user code, or never released because a producer wedged — is
    /// abandoned: its thread detaches, and its key range is recorded so
    /// `recover` can restore it from the latest checkpoint.
    /// The halt then fails, with the state of the instances that did halt
    /// stashed for recovery or [`shutdown`](Self::shutdown).
    fn halt(&mut self, deadline: Option<Duration>) -> Result<StateParts, Ds2Error> {
        self.stop.store(true, Ordering::SeqCst);
        // Only sources ever park (between batches): wake them to the flag.
        for h in self.instances.values().flatten() {
            h.join.thread().unpark();
        }
        let (graph, channels) = (&self.spec.graph, &self.channels);
        let ready = |op, done: &[OperatorId]| graph.upstream(op).iter().all(|u| done.contains(u));
        // `upstream_done` plus a wake token per instance, so an idle worker
        // sees the flag now, not at its next poll. A full queue refuses the
        // token: its worker is busy and checks the flag after the batch.
        let release = |op| {
            // (No queues: the job is already halted.)
            if let Some(queues) = channels.get(&op) {
                queues.upstream_done.store(true, Ordering::SeqCst);
                for s in &queues.senders {
                    let _ = s.try_send(Batch::new());
                }
            }
        };
        let limit = deadline.map(|d| Instant::now() + d);
        let mut state = std::mem::take(&mut self.salvaged);
        let mut wedged: Vec<String> = Vec::new();
        let mut exited: Vec<OperatorId> = Vec::new();
        for op in graph.topological_order() {
            let released = ready(op, &exited);
            let mut clean = released;
            for h in self.instances.remove(&op).unwrap_or_default() {
                // (Without a deadline the `join` does the waiting.)
                if released && limit.is_none_or(|at| h.exited_by(at)) {
                    if let Some(entries) = h.join.join().expect("instance thread panicked") {
                        state.entry(op).or_default().push(entries);
                    }
                } else {
                    wedged.push(h.join.thread().name().unwrap_or("<unnamed>").to_string());
                    self.wedged_at_halt
                        .push((op, h.instance, self.deployment.parallelism(op)));
                    clean = false;
                }
            }
            if clean {
                exited.push(op);
                let consumers = graph.downstream_edges(op).map(|e| e.to);
                consumers.filter(|&c| ready(c, &exited)).for_each(release);
            }
        }
        self.drain_failure_salvage(&mut state);
        self.channels.clear();
        if wedged.is_empty() {
            return Ok(state);
        }
        self.salvaged = state;
        Err(Ds2Error::RescaleTimedOut(format!(
            "{} instance(s) failed to halt within {:?}: {}",
            wedged.len(),
            deadline.unwrap_or_default(),
            wedged.join(", ")
        )))
    }

    /// Folds the salvage carried by unconsumed panic events into `state`.
    /// An unconsumed event's thread exited without being restarted, so the
    /// event holds the only copy of its keyed state (a panicked worker's
    /// join returns `None`).
    fn drain_failure_salvage(&mut self, state: &mut StateParts) {
        let pending = std::mem::take(&mut self.pending_failures);
        let fresh = std::iter::from_fn(|| self.sup_rx.try_recv().ok());
        for event in pending.into_iter().chain(fresh) {
            let SupervisorEvent::Panicked { op, salvaged, .. } = event;
            if let Some(entries) = salvaged {
                state.entry(op).or_default().push(entries);
            }
        }
    }

    /// Blocks until every new worker has restored its state. One that
    /// exits without acknowledging panicked while building or restoring.
    fn await_restored(&self) -> Result<(), Ds2Error> {
        for (&op, handles) in &self.instances {
            for h in handles.iter().filter(|h| h.cmd_tx.is_some()) {
                let instance = h.instance;
                (h.alive.recv()).map_err(|_| Ds2Error::WorkerPanicked { op, instance })?;
            }
        }
        Ok(())
    }

    /// Stop-the-world rescale: halt, drain state, redeploy with `plan`.
    ///
    /// Returns the downtime (the paper's savepoint-and-restore latency),
    /// up to the last new instance's restored state; sources run by then.
    ///
    /// # Errors
    ///
    /// [`Ds2Error::InvalidDeployment`] if `plan` does not match the graph,
    /// or — with [`JobSpec::rescale_timeout`] set — [`Ds2Error::RescaleTimedOut`]
    /// if a worker fails to halt before the deadline. A timed-out rescale
    /// halts the job: no new instances are deployed, the rescale counter
    /// is untouched, and the state salvaged from the workers that did halt
    /// is either redeployed by `recover` or returned by
    /// the next [`shutdown`](Self::shutdown).
    ///
    /// [`Ds2Error::WorkerPanicked`] if a new instance panicked building its
    /// logic or restoring its state: `plan` is deployed and counted, the
    /// supervisor holds the salvage and [`heal`](Self::heal) restarts it.
    pub fn rescale(&mut self, plan: Deployment) -> Result<Duration, Ds2Error> {
        plan.validate(&self.spec.graph)?;
        let t0 = Instant::now();
        let state = self.halt(self.spec.rescale_timeout)?;
        self.deployment = plan;
        self.spawn_all(state);
        self.rescales += 1;
        self.await_restored()?;
        Ok(t0.elapsed())
    }

    /// Redeploys a job that a timed-out rescale left halted: respawns the
    /// last-good deployment, restoring everything salvaged from the
    /// cleanly halted instances plus the latest checkpoint's key ranges
    /// for the instances that wedged (their live state is unreachable —
    /// the delta since that checkpoint is the bounded loss a wedge costs).
    /// Returns `false` without touching anything when the job is still
    /// running.
    pub(crate) fn recover(&mut self) -> bool {
        if !self.instances.is_empty() {
            return false;
        }
        let mut state = std::mem::take(&mut self.salvaged);
        for (op, instance, parallelism) in std::mem::take(&mut self.wedged_at_halt) {
            state
                .entry(op)
                .or_default()
                .push(self.checkpoints.key_slice(op, instance, parallelism));
        }
        self.recoveries += 1;
        self.spawn_all(state);
        true
    }

    /// One supervision pass: restarts panicked instances (restoring their
    /// salvaged state, or their checkpointed key range when even the
    /// salvage drain panicked) and replaces wedge suspects from the latest
    /// checkpoint — each under the per-instance restart budget with
    /// backoff. Cheap when nothing failed; call it once per control
    /// interval.
    pub fn heal(&mut self) -> HealOutcome {
        let mut outcome = HealOutcome::default();
        let mut events = std::mem::take(&mut self.pending_failures);
        while let Ok(e) = self.sup_rx.try_recv() {
            events.push(e);
        }
        for event in events {
            let SupervisorEvent::Panicked {
                op,
                instance,
                incarnation,
                salvaged,
                message,
            } = event;
            let live = self
                .instances
                .get(&op)
                .and_then(|hs| hs.get(instance))
                .is_some_and(|h| h.incarnation == incarnation);
            if !live {
                // A stale incarnation (slot already replaced, or job
                // halted): its state was already restored elsewhere.
                continue;
            }
            match self.supervisor.decide(op, instance, Instant::now()) {
                RestartDecision::Defer => self.pending_failures.push(SupervisorEvent::Panicked {
                    op,
                    instance,
                    incarnation,
                    salvaged,
                    message,
                }),
                RestartDecision::GiveUp { attempts } => {
                    // The slot stays dead; keep its state for shutdown.
                    if let Some(entries) = salvaged {
                        self.salvaged.entry(op).or_default().push(entries);
                    }
                    outcome.gave_up = Some(Ds2Error::RecoveryExhausted { attempts });
                }
                RestartDecision::Restart => {
                    self.respawn(op, instance, salvaged, false);
                    outcome
                        .healed
                        .push(Ds2Error::WorkerPanicked { op, instance });
                }
            }
        }
        // Wedge suspects flagged by missed checkpoint deadlines.
        let suspects = std::mem::take(&mut self.suspect_wedged);
        for (op, instance, incarnation) in suspects {
            let live = self
                .instances
                .get(&op)
                .and_then(|hs| hs.get(instance))
                .is_some_and(|h| h.incarnation == incarnation && !h.join.is_finished());
            if !live {
                // Exited after all (the panic path owns it) or replaced.
                continue;
            }
            match self.supervisor.decide(op, instance, Instant::now()) {
                RestartDecision::Defer => self.suspect_wedged.push((op, instance, incarnation)),
                RestartDecision::GiveUp { attempts } => {
                    outcome.gave_up = Some(Ds2Error::RecoveryExhausted { attempts });
                }
                RestartDecision::Restart => {
                    self.respawn(op, instance, None, true);
                    outcome.healed.push(Ds2Error::WorkerWedged { op, instance });
                }
            }
        }
        outcome
    }

    /// Respawns `(op, instance)` in its slot, reattached to the same input
    /// queue, restoring `salvaged` or — without one — the checkpointed key
    /// range. A panicked thread is dead, so its counters carry over and the
    /// metrics window stays continuous. A `wedged` one is abandoned alive
    /// (its dropped handle detaches it; it holds only clones of the channel
    /// endpoints, so it cannot close the queues), and fresh counters keep
    /// its late accounting out of the replacement's metrics.
    fn respawn(
        &mut self,
        op: OperatorId,
        instance: usize,
        salvaged: Option<Vec<StateEntry>>,
        wedged: bool,
    ) {
        let parallelism = self.deployment.parallelism(op);
        let restore =
            salvaged.unwrap_or_else(|| self.checkpoints.key_slice(op, instance, parallelism));
        let old = &self.instances[&op][instance];
        let (counters, last_totals) = if wedged {
            (SharedCounters::new(), CounterTotals::default())
        } else {
            (Arc::clone(&old.counters), old.last_totals)
        };
        let mut h = self.spawn_worker(op, instance, restore, counters);
        h.last_totals = last_totals;
        self.restarts += 1;
        self.instances.get_mut(&op).expect("op deployed")[instance] = h;
    }

    /// One savepoint cycle: asks every live non-source instance for a clone
    /// of its keyed state ([`Logic::snapshot_state`]) and commits the cycle
    /// only if *all* of them answer within [`JobSpec::checkpoint_timeout`]
    /// — a partial savepoint (a hole where an instance missed the deadline)
    /// is worse than keeping the previous complete one. Instances that miss
    /// repeatedly become wedge suspects for [`heal`](Self::heal).
    pub fn checkpoint(&mut self) -> CheckpointStats {
        let t0 = Instant::now();
        let deadline = t0 + self.spec.checkpoint_timeout;
        if self.instances.is_empty() {
            return CheckpointStats {
                entries: 0,
                took: t0.elapsed(),
                unresponsive: Vec::new(),
            };
        }
        let mut replies = Vec::new();
        let mut dead = false;
        for (&op, handles) in &self.instances {
            for h in handles {
                let Some(cmd_tx) = &h.cmd_tx else {
                    continue; // sources have no keyed state
                };
                if h.join.is_finished() {
                    // Dead and awaiting heal: a cycle without it would
                    // commit a hole over its key range.
                    dead = true;
                    continue;
                }
                let (reply_tx, reply_rx) = bounded(1);
                let _ = cmd_tx.send(WorkerCmd::Snapshot(reply_tx));
                replies.push((op, h.instance, h.incarnation, reply_rx));
            }
        }
        let mut gathered: BTreeMap<OperatorId, Vec<StateEntry>> = BTreeMap::new();
        let mut unresponsive = Vec::new();
        for (op, instance, incarnation, reply_rx) in replies {
            let budget = deadline.saturating_duration_since(Instant::now());
            match reply_rx.recv_timeout(budget) {
                Ok(entries) => {
                    self.supervisor.note_checkpoint_ok(op, instance);
                    gathered.entry(op).or_default().extend(entries);
                }
                Err(_) => {
                    unresponsive.push((op, instance));
                    if self.supervisor.note_checkpoint_miss(op, instance) {
                        self.suspect_wedged.push((op, instance, incarnation));
                    }
                }
            }
        }
        if unresponsive.is_empty() && !dead {
            self.checkpoints.commit(gathered);
        }
        CheckpointStats {
            entries: self.checkpoints.total_entries(),
            took: t0.elapsed(),
            unresponsive,
        }
    }

    /// Runs a checkpoint cycle if [`JobSpec::checkpoint_interval`] is set
    /// and due; `None` otherwise. Driven by the control loop.
    pub(crate) fn maybe_checkpoint(&mut self) -> Option<CheckpointStats> {
        let interval = self.spec.checkpoint_interval?;
        let now = self.epoch.elapsed();
        if now.saturating_sub(self.last_checkpoint_at) < interval {
            return None;
        }
        self.last_checkpoint_at = now;
        Some(self.checkpoint())
    }

    /// Shuts the job down, returning the final drained state (including
    /// anything salvaged from panics or an aborted rescale).
    pub fn shutdown(mut self) -> BTreeMap<OperatorId, Vec<StateEntry>> {
        let state = self
            .halt(None)
            .unwrap_or_else(|_| std::mem::take(&mut self.salvaged));
        // One instance is handed every part: the parts of each operator
        // joined (a lone part untouched).
        state
            .into_iter()
            .map(|(op, parts)| (op, partition_parts(parts, 1).remove(0)))
            .collect()
    }

    /// Closes the instrumentation window, filling `snap` in place. The
    /// snapshot's recycled operator slots make the per-interval metrics
    /// path allocation-free once the instance vectors have grown — the
    /// control loop reuses one snapshot across its whole run.
    pub fn collect_snapshot_into(&mut self, snap: &mut MetricsSnapshot) {
        let now = self.epoch.elapsed();
        let window_start = self.last_snapshot;
        self.last_snapshot = now;
        snap.clear();
        for (&op, handles) in self.instances.iter_mut() {
            let mut dropped = 0u64;
            {
                let slot = snap.operator_slot(op);
                for h in handles.iter_mut() {
                    let totals = h.counters.totals();
                    dropped += totals.dropped_since(&h.last_totals);
                    slot.instances.push(totals.window_since(
                        &h.last_totals,
                        window_start.as_nanos() as u64,
                        now.as_nanos() as u64,
                    ));
                    h.last_totals = totals;
                }
            }
            if dropped > 0 {
                snap.set_records_dropped(op, dropped);
            }
        }
        for (&op, src) in &self.spec.sources {
            snap.set_source_rate(op, src.rate);
        }
    }
}

/// Everything one supervised worker thread owns besides its logic.
struct WorkerCtx<R> {
    op: OperatorId,
    instance: usize,
    incarnation: u64,
    rx: Receiver<Batch<R>>,
    cmd_rx: Receiver<WorkerCmd>,
    routes: Vec<OutputRoute<R>>,
    counters: Arc<SharedCounters>,
    upstream_done: Arc<AtomicBool>,
    sup_tx: Sender<SupervisorEvent>,
    chaos: Option<Arc<InstanceChaos>>,
    pool: Arc<BatchPool<R>>,
    /// Collects one batch's outputs; once they are sent, the spent input
    /// batch takes its place.
    out_buf: Vec<R>,
}

/// What a logic still holds after a panic unwound out of one of its
/// methods (the value itself survived): `None` when draining it panics
/// too, which falls back to checkpoint recovery.
fn salvage<R: 'static>(logic: &mut dyn Logic<R>) -> Option<Vec<StateEntry>> {
    catch_unwind(AssertUnwindSafe(|| logic.drain_state())).ok()
}

/// Reports a contained panic to the supervisor, with the keyed state that
/// could be rescued. Returns what the worker's thread then exits with.
fn report_panic<R>(
    ctx: &WorkerCtx<R>,
    salvaged: Option<Vec<StateEntry>>,
    payload: Box<dyn std::any::Any + Send>,
) -> Option<Vec<StateEntry>> {
    let _ = ctx.sup_tx.send(SupervisorEvent::Panicked {
        op: ctx.op,
        instance: ctx.instance,
        incarnation: ctx.incarnation,
        salvaged,
        message: supervisor::panic_message(payload.as_ref()),
    });
    None
}

/// Processes one batch inside the unwind boundary. Returns `false` when
/// the logic panicked (the worker must exit; the supervisor was told).
fn run_batch<R: Clone + Send + 'static>(
    ctx: &mut WorkerCtx<R>,
    logic: &mut dyn Logic<R>,
    mut batch: Batch<R>,
) -> bool {
    if batch.is_empty() {
        return true; // a wake token, not data: the logic never sees it
    }
    let n_in = batch.len() as u64;
    let t0 = Instant::now();
    let (chaos, out_buf) = (&ctx.chaos, &mut ctx.out_buf);
    let result = catch_unwind(AssertUnwindSafe(|| match chaos {
        // Fault-free fast path: the logic consumes the whole batch in one
        // call (overridable for vectorized operators).
        None => logic.process_batch(&mut batch, out_buf),
        Some(hook) => {
            for r in batch.drain(..) {
                match hook.before_record() {
                    Some(ChaosAction::Crash) => panic!("chaos: injected crash"),
                    Some(ChaosAction::Wedge) => std::thread::sleep(WEDGE_SLEEP),
                    None => {}
                }
                logic.process(r, out_buf);
            }
        }
    }));
    let took = t0.elapsed();
    ctx.counters.add_processing(took.as_nanos() as u64);
    match result {
        Ok(()) => {
            ctx.counters.add_records_in(n_in);
            let n_out = out_buf.len() as u64;
            if n_out > 0 {
                // The spent input collects the next batch's outputs: no
                // pool round trip for either buffer.
                batch.clear();
                let owned = std::mem::replace(out_buf, batch);
                let cheap = took < CHEAP_BATCH;
                send_out(&mut ctx.routes, owned, cheap, &ctx.counters, &ctx.pool);
            } else {
                ctx.pool.put(batch);
            }
            ctx.counters.add_records_out(n_out);
            true
        }
        Err(payload) => {
            // Mid-batch panic: outputs of the half-processed batch are not
            // forwarded and its unprocessed tail is not re-queued —
            // at-most-once for the failing batch, exactly once for
            // everything before it.
            out_buf.clear();
            report_panic(ctx, salvage(logic), payload);
            false
        }
    }
}

/// Thread body of a non-source instance. Builds the logic and restores its
/// share of the migrated state here — inside the unwind boundary, off the
/// control thread — then processes batches until every upstream producer
/// has exited, and returns the keyed state drained from the logic (`None`
/// if a panic took it). Restore and drain are charged to none of the
/// useful/wait counters DS2 reads.
fn worker_loop<R: Clone + Send + 'static>(
    mut ctx: WorkerCtx<R>,
    factory: LogicFactory<R>,
    restore: Vec<StateEntry>,
    alive: Sender<()>,
) -> Option<Vec<StateEntry>> {
    supervisor::mark_supervised();
    let mut logic = match catch_unwind(AssertUnwindSafe(|| factory())) {
        Ok(logic) => logic,
        // Nothing consumed the entries: they are the salvage.
        Err(payload) => return report_panic(&ctx, Some(restore), payload),
    };
    if let Err(payload) = catch_unwind(AssertUnwindSafe(|| logic.restore_state(restore))) {
        return report_panic(&ctx, salvage(logic.as_mut()), payload);
    }
    let _ = alive.send(());
    loop {
        while let Ok(WorkerCmd::Snapshot(reply)) = ctx.cmd_rx.try_recv() {
            match catch_unwind(AssertUnwindSafe(|| logic.snapshot_state())) {
                // The collector may have timed out and left.
                Ok(entries) => drop(reply.send(entries)),
                Err(payload) => return report_panic(&ctx, salvage(logic.as_mut()), payload),
            }
        }
        // The timeout bounds how long a command waits for an idle worker;
        // a halt does not wait for it (`RunningJob::halt` sends a token).
        let t_wait = Instant::now();
        let received = ctx.rx.try_recv().or_else(|_| {
            ctx.routes.iter_mut().for_each(OutputRoute::pay);
            ctx.rx.recv_timeout(Duration::from_millis(5))
        });
        ctx.counters
            .add_wait_input(t_wait.elapsed().as_nanos() as u64);
        match received {
            Ok(batch) => {
                if !run_batch(&mut ctx, logic.as_mut(), batch) {
                    return None;
                }
            }
            Err(RecvTimeoutError::Timeout) => {}
            // Backstop: all senders gone (a dropped job tears down this
            // way; a live engine retains sender clones, so this cannot
            // fire while the job is running).
            Err(RecvTimeoutError::Disconnected) => break,
        }
        if ctx.upstream_done.load(Ordering::SeqCst) {
            // Every upstream producer has exited, so nothing can follow
            // what is queued now: finish it and halt.
            while let Ok(batch) = ctx.rx.try_recv() {
                if !run_batch(&mut ctx, logic.as_mut(), batch) {
                    return None;
                }
            }
            break;
        }
    }
    match catch_unwind(AssertUnwindSafe(|| logic.drain_state())) {
        Ok(entries) => Some(entries),
        Err(payload) => report_panic(&ctx, None, payload),
    }
}

/// Source loop: rate-limited generation in batches, scheduled on absolute
/// deadlines — batch `k` fires at `start + k * interval`, the discipline
/// [`run_control_loop`](crate::control::run_control_loop) uses for policy
/// ticks. Sleep overshoot and transiently blocked sends do not accumulate:
/// a source that falls behind fires its overdue batches back to back until
/// it is on schedule again, so the observed aggregate rate holds the
/// configured `rate` exactly instead of drifting below it. Sustained
/// overload still bounds production through channel backpressure: the
/// source cannot outrun its blocked sends.
fn source_loop<R: Clone + Send + 'static>(
    generate: crate::job::SourceFn<R>,
    rate: f64,
    batch_size: usize,
    mut routes: Vec<OutputRoute<R>>,
    counters: Arc<SharedCounters>,
    stop: Arc<AtomicBool>,
    pool: Arc<BatchPool<R>>,
) {
    if rate <= 0.0 {
        return;
    }
    let interval_ns = (batch_size as f64 / rate * 1e9) as u64;
    let start = Instant::now();
    let mut seq = 0u64;
    let mut fired = 0u64;
    while !stop.load(Ordering::Relaxed) {
        let t0 = Instant::now();
        let mut batch = pool.get();
        generate(seq, batch_size, &mut batch);
        seq += batch_size as u64;
        let took = t0.elapsed();
        counters.add_processing(took.as_nanos() as u64);
        let n = batch.len() as u64;
        send_out(&mut routes, batch, took < CHEAP_BATCH, &counters, &pool);
        counters.add_records_out(n);

        fired += 1;
        let due = start + Duration::from_nanos(interval_ns.saturating_mul(fired));
        let t_wait = Instant::now();
        if t_wait < due {
            // Parked, not asleep: a halt unparks the thread, so a slow
            // source (a batch a second) stops now, not at its next batch.
            routes.iter_mut().for_each(OutputRoute::pay);
            let mut now = t_wait;
            while now < due && !stop.load(Ordering::Relaxed) {
                std::thread::park_timeout(due - now);
                now = Instant::now();
            }
            counters.add_wait_input((now - t_wait).as_nanos() as u64);
        }
        // Behind schedule: fire the next batch immediately. The absolute
        // deadline stays put, so the backlog is worked off rather than
        // forgotten.
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::ChaosSpec;
    use crate::logic::{CostedLogic, FnLogic, StateValue};
    use ds2_core::graph::GraphBuilder;
    use std::collections::HashMap;
    use std::sync::Mutex;

    type Shared = Arc<Mutex<HashMap<u64, u64>>>;

    /// A keyed counting logic with migratable state.
    struct CountLogic {
        counts: HashMap<u64, u64>,
        sink: Shared,
    }

    impl Logic<u64> for CountLogic {
        fn process(&mut self, record: u64, _out: &mut Vec<u64>) {
            *self.counts.entry(record).or_insert(0) += 1;
            *self.sink.lock().unwrap().entry(record).or_insert(0) += 1;
        }

        fn drain_state(&mut self) -> Vec<StateEntry> {
            self.counts
                .drain()
                .map(|(k, v)| (k, Box::new(v) as Box<dyn StateValue>))
                .collect()
        }

        fn restore_state(&mut self, entries: Vec<StateEntry>) {
            for (k, v) in entries {
                let v = *v.into_any().downcast::<u64>().expect("state is u64");
                *self.counts.entry(k).or_insert(0) += v;
            }
        }
    }

    fn pipeline(rate: f64) -> (JobSpec<u64>, OperatorId, OperatorId, OperatorId, Shared) {
        let mut b = GraphBuilder::new();
        let s = b.operator("src");
        let m = b.operator("double");
        let c = b.operator("count");
        b.connect(s, m);
        b.connect(m, c);
        let g = b.build().unwrap();
        let sink: Shared = Arc::new(Mutex::new(HashMap::new()));
        let mut spec = JobSpec::new(g);
        spec.source(s, rate, |n| n % 64, |&r| r);
        spec.operator(
            m,
            || {
                Box::new(FnLogic::new(|r: u64, out: &mut Vec<u64>| {
                    out.push(r);
                    out.push(r);
                }))
            },
            |&r| r,
        );
        let sink2 = Arc::clone(&sink);
        spec.operator(
            c,
            move || {
                Box::new(CountLogic {
                    counts: HashMap::new(),
                    sink: Arc::clone(&sink2),
                })
            },
            |&r| r,
        );
        (spec, s, m, c, sink)
    }

    #[test]
    fn records_flow_end_to_end() {
        let (spec, _s, m, _c, sink) = pipeline(20_000.0);
        let g = spec.graph.clone();
        let mut job = RunningJob::deploy(spec, Deployment::uniform(&g, 2));
        std::thread::sleep(Duration::from_millis(600));
        let mut snap = MetricsSnapshot::new();
        job.collect_snapshot_into(&mut snap);
        let state = job.shutdown();
        let total: u64 = sink.lock().unwrap().values().sum();
        assert!(total > 5_000, "only {total} records reached the sink");
        // The doubling operator emits 2 records per input.
        let m_metrics = snap.operator(m).unwrap();
        let sel = m_metrics.total_records_out() as f64 / m_metrics.total_records_in() as f64;
        assert!((sel - 2.0).abs() < 0.01, "selectivity {sel}");
        // Count state drained on shutdown matches the sink totals.
        let drained: usize = state.values().map(Vec::len).sum();
        assert!(drained > 0);
    }

    #[test]
    fn snapshot_reports_all_instances() {
        let (spec, s, m, c, _sink) = pipeline(5_000.0);
        let g = spec.graph.clone();
        let mut d = Deployment::uniform(&g, 1);
        d.set(m, 3);
        let mut job = RunningJob::deploy(spec, d);
        std::thread::sleep(Duration::from_millis(300));
        let mut snap = MetricsSnapshot::new();
        job.collect_snapshot_into(&mut snap);
        assert_eq!(snap.operator(s).unwrap().parallelism(), 1);
        assert_eq!(snap.operator(m).unwrap().parallelism(), 3);
        assert_eq!(snap.operator(c).unwrap().parallelism(), 1);
        assert_eq!(snap.source_rate(s), Some(5_000.0));
        // Wu <= W for every instance.
        for (_, om) in snap.operators() {
            for i in &om.instances {
                assert!(i.validate().is_ok());
            }
        }
        job.shutdown();
    }

    #[test]
    fn rescale_preserves_counts() {
        let (spec, _s, _m, c, sink) = pipeline(20_000.0);
        let g = spec.graph.clone();
        let mut job = RunningJob::deploy(spec, Deployment::uniform(&g, 1));
        std::thread::sleep(Duration::from_millis(400));
        let mut plan = job.deployment().clone();
        plan.set(c, 4);
        let downtime = job.rescale(plan).expect("rescale");
        assert!(downtime < Duration::from_secs(5));
        assert_eq!(job.rescales(), 1);
        std::thread::sleep(Duration::from_millis(400));
        let mut state = job.shutdown();
        // Every record that reached the sink is still accounted for in the
        // migrated state: aggregate drained counts equal sink totals.
        let sink_total: u64 = sink.lock().unwrap().values().sum();
        let mut drained_total = 0u64;
        for (_k, v) in state.remove(&c).unwrap_or_default() {
            drained_total += *v.into_any().downcast::<u64>().unwrap();
        }
        assert_eq!(
            drained_total, sink_total,
            "state lost or duplicated across rescale"
        );
    }

    /// State conservation through *up then down* rescales, including the
    /// scale-down case where the restored key space (64 keys) far exceeds
    /// the new instance count: every key's migrated count must equal its
    /// sink total — exactly the invariant an unrescaled run satisfies
    /// trivially (see `records_flow_end_to_end`).
    #[test]
    fn rescale_up_then_down_conserves_keyed_state() {
        let (spec, _s, _m, c, sink) = pipeline(20_000.0);
        let g = spec.graph.clone();
        let mut d = Deployment::uniform(&g, 1);
        d.set(c, 2);
        let mut job = RunningJob::deploy(spec, d);
        std::thread::sleep(Duration::from_millis(300));

        // Scale up: 2 -> 5 instances; restored keys re-partition across
        // more instances than before.
        let mut plan = job.deployment().clone();
        plan.set(c, 5);
        job.rescale(plan).expect("rescale up");
        std::thread::sleep(Duration::from_millis(300));

        // Scale down: 5 -> 1 instance; all 64 restored keys must land on
        // the single remaining instance.
        let mut plan = job.deployment().clone();
        plan.set(c, 1);
        job.rescale(plan).expect("rescale down");
        std::thread::sleep(Duration::from_millis(300));
        assert_eq!(job.rescales(), 2);

        let mut state = job.shutdown();
        let mut drained: HashMap<u64, u64> = HashMap::new();
        for (k, v) in state.remove(&c).unwrap_or_default() {
            *drained.entry(k).or_insert(0) += *v.into_any().downcast::<u64>().unwrap();
        }
        let sink_counts = sink.lock().unwrap().clone();
        assert!(
            sink_counts.keys().len() > 32,
            "expected a wide key space, got {}",
            sink_counts.keys().len()
        );
        // Per-key equality: nothing lost, nothing duplicated, across both
        // migrations.
        assert_eq!(
            drained, sink_counts,
            "keyed state diverged from sink totals across up+down rescale"
        );
    }

    /// A worker wedged in user code must not hang the control plane: with
    /// a rescale deadline set, the rescale fails with the typed
    /// [`Ds2Error::RescaleTimedOut`], the deployment and rescale counter
    /// are untouched, and the keyed state drained from the workers that
    /// *did* halt survives through shutdown — nothing beyond the wedged
    /// instance's own state is lost.
    #[test]
    fn rescale_timeout_on_wedged_worker_salvages_state() {
        let mut b = GraphBuilder::new();
        let s = b.operator("src");
        let stall = b.operator("stall");
        let c = b.operator("count");
        b.connect(s, stall);
        b.connect(s, c);
        let g = b.build().unwrap();

        let sink: Shared = Arc::new(Mutex::new(HashMap::new()));
        let sink2 = Arc::clone(&sink);
        let mut spec: JobSpec<u64> = JobSpec::new(g.clone());
        // Large channel capacity so the wedged instance never backpressures
        // the source; the counting branch keeps flowing.
        spec.channel_capacity = 4096;
        spec.rescale_timeout = Some(Duration::from_millis(300));
        spec.source(s, 20_000.0, |n| n % 64, |&r| r);
        // Wedges on the first record: stuck in user code for an hour.
        spec.operator(
            stall,
            || {
                Box::new(FnLogic::new(|_r: u64, _out: &mut Vec<u64>| {
                    std::thread::sleep(Duration::from_secs(3600));
                }))
            },
            |&r| r,
        );
        spec.operator(
            c,
            move || {
                Box::new(CountLogic {
                    counts: HashMap::new(),
                    sink: Arc::clone(&sink2),
                })
            },
            |&r| r,
        );

        let mut job = RunningJob::deploy(spec, Deployment::uniform(&g, 1));
        std::thread::sleep(Duration::from_millis(400));

        let mut plan = job.deployment().clone();
        plan.set(c, 2);
        let err = job.rescale(plan).expect_err("wedged worker must time out");
        assert!(
            matches!(err, Ds2Error::RescaleTimedOut(_)),
            "expected RescaleTimedOut, got {err:?}"
        );
        assert!(
            err.to_string().contains("stall"),
            "error names the wedged instance: {err}"
        );
        assert_eq!(job.rescales(), 0, "aborted rescale must not count");
        assert!(
            job.instances.is_empty(),
            "timed-out rescale leaves the job halted"
        );

        // The counting operator halted cleanly during the aborted rescale;
        // its salvaged state must come back intact on shutdown.
        let mut state = job.shutdown();
        let mut drained: HashMap<u64, u64> = HashMap::new();
        for (k, v) in state.remove(&c).unwrap_or_default() {
            *drained.entry(k).or_insert(0) += *v.into_any().downcast::<u64>().unwrap();
        }
        assert_eq!(
            drained,
            sink.lock().unwrap().clone(),
            "state salvaged across the aborted rescale diverged from sink totals"
        );
    }

    /// The halt is event-driven: on an idle-ish chain a whole rescale —
    /// halt, migrate 64 keys, respawn, restore acknowledged — takes well
    /// under the 10 ms the two 5 ms input polls of the staged halt used to
    /// cost, with and without a deadline (the two share one halt). The
    /// fastest of five takes 0.3–0.8 ms on a 2-CPU machine; the bound is
    /// 2 ms because a single sleep of the old 2 ms `is_finished` poll loop
    /// must fail it (that loop, put back, makes the fastest 4.6 ms).
    #[test]
    fn idle_chain_rescales_below_the_old_poll_floor() {
        for timeout in [None, Some(Duration::from_secs(2))] {
            let (mut spec, _s, _m, c, sink) = pipeline(2_000.0);
            spec.rescale_timeout = timeout;
            let g = spec.graph.clone();
            let mut job = RunningJob::deploy(spec, Deployment::uniform(&g, 1));
            std::thread::sleep(Duration::from_millis(150));
            // The fastest of a few: a loaded test machine may preempt one.
            let mut fastest = Duration::MAX;
            for p in [2, 1, 2, 1, 2] {
                let mut plan = job.deployment().clone();
                plan.set(c, p);
                fastest = fastest.min(job.rescale(plan).expect("rescale"));
                std::thread::sleep(Duration::from_millis(20));
            }
            assert!(
                fastest < Duration::from_millis(2),
                "rescale_timeout {timeout:?}: fastest of 5 rescales took {fastest:?}"
            );
            let drained: u64 = (job.shutdown().remove(&c).unwrap_or_default().into_iter())
                .map(|(_, v)| *v.into_any().downcast::<u64>().unwrap())
                .sum();
            assert_eq!(drained, sink.lock().unwrap().values().sum::<u64>());
        }
    }

    /// A paced source waits for its next batch parked, not asleep: at 100
    /// rec/s a 128-record batch is due every 1.28 s, and neither a rescale
    /// nor a shutdown may wait that long for the source to notice.
    #[test]
    fn halt_interrupts_a_slow_sources_pacing_wait() {
        let (spec, _s, _m, c, _sink) = pipeline(100.0);
        let g = spec.graph.clone();
        let mut job = RunningJob::deploy(spec, Deployment::uniform(&g, 1));
        std::thread::sleep(Duration::from_millis(100)); // first batch sent, now waiting
        let mut plan = job.deployment().clone();
        plan.set(c, 2);
        let pause = job.rescale(plan).expect("rescale");
        assert!(pause < Duration::from_millis(100), "rescale took {pause:?}");
        std::thread::sleep(Duration::from_millis(100));
        let t0 = Instant::now();
        job.shutdown();
        assert!(t0.elapsed() < Duration::from_millis(100));
    }

    /// The wake token is the engine's business: a logic that refuses empty
    /// batches survives 20 rescales and a shutdown, and the input counter
    /// only ever reports records the logic was given.
    #[test]
    fn wake_tokens_never_reach_the_logic() {
        use std::sync::atomic::AtomicU64;
        struct NoEmptyBatches(Arc<AtomicBool>, Arc<AtomicU64>);
        impl Logic<u64> for NoEmptyBatches {
            fn process(&mut self, _r: u64, _out: &mut Vec<u64>) {}
            fn process_batch(&mut self, batch: &mut Vec<u64>, _out: &mut Vec<u64>) {
                if batch.is_empty() {
                    self.0.store(true, Ordering::SeqCst);
                }
                self.1.fetch_add(batch.len() as u64, Ordering::SeqCst);
                batch.clear();
            }
        }
        let mut b = GraphBuilder::new();
        let s = b.operator("src");
        let o = b.operator("op");
        b.connect(s, o);
        let g = b.build().unwrap();
        let saw_empty = Arc::new(AtomicBool::new(false));
        let given = Arc::new(AtomicU64::new(0));
        let (flag, count) = (Arc::clone(&saw_empty), Arc::clone(&given));
        let mut spec: JobSpec<u64> = JobSpec::new(g.clone());
        spec.batch_size = 16;
        spec.source(s, 3_200.0, |n| n, |&r| r);
        spec.operator(
            o,
            move || Box::new(NoEmptyBatches(Arc::clone(&flag), Arc::clone(&count))),
            |&r| r,
        );
        let mut job = RunningJob::deploy(spec, Deployment::uniform(&g, 1));
        let mut snap = MetricsSnapshot::new();
        job.collect_snapshot_into(&mut snap);
        let mut records_in = 0;
        for i in 0..20 {
            std::thread::sleep(Duration::from_millis(10));
            job.collect_snapshot_into(&mut snap);
            records_in += snap.operator(o).unwrap().total_records_in();
            let mut plan = job.deployment().clone();
            plan.set(o, 1 + i % 3);
            job.rescale(plan).expect("rescale");
        }
        assert_eq!(job.rescales(), 20);
        job.shutdown();
        assert!(
            !saw_empty.load(Ordering::SeqCst),
            "a token reached the logic"
        );
        let given = given.load(Ordering::SeqCst);
        assert!(
            0 < records_in && records_in <= given,
            "{records_in} > {given}"
        );
    }

    /// A `restore_state` that panics on a new instance is a contained
    /// worker panic, not a control-thread panic: `rescale` returns the typed
    /// error with the plan deployed, the state the logic had taken in is
    /// salvaged, `heal` restarts the instance with it, and nothing is lost.
    #[test]
    fn restore_panic_surfaces_as_typed_error_with_salvage() {
        struct FragileCount(CountLogic, Arc<AtomicBool>);
        impl Logic<u64> for FragileCount {
            fn process(&mut self, r: u64, out: &mut Vec<u64>) {
                self.0.process(r, out);
            }
            fn drain_state(&mut self) -> Vec<StateEntry> {
                self.0.drain_state()
            }
            fn restore_state(&mut self, entries: Vec<StateEntry>) {
                let poisoned = !entries.is_empty() && self.1.swap(false, Ordering::SeqCst);
                self.0.restore_state(entries);
                assert!(!poisoned, "injected restore failure");
            }
        }
        let (mut spec, _s, _m, c, sink) = pipeline(20_000.0);
        let poison = Arc::new(AtomicBool::new(false));
        let (sink2, poison2) = (Arc::clone(&sink), Arc::clone(&poison));
        spec.operator(
            c,
            move || {
                let counts = CountLogic {
                    counts: HashMap::new(),
                    sink: Arc::clone(&sink2),
                };
                Box::new(FragileCount(counts, Arc::clone(&poison2)))
            },
            |&r| r,
        );
        let g = spec.graph.clone();
        let mut job = RunningJob::deploy(spec, Deployment::uniform(&g, 1));
        std::thread::sleep(Duration::from_millis(200));

        poison.store(true, Ordering::SeqCst);
        let mut plan = job.deployment().clone();
        plan.set(c, 2);
        let err = job.rescale(plan.clone()).expect_err("one restore panics");
        assert!(
            matches!(err, Ds2Error::WorkerPanicked { op, .. } if op == c),
            "expected WorkerPanicked on count, got {err:?}"
        );
        assert_eq!(job.deployment(), &plan, "the plan is deployed");
        assert!(!job.instances.is_empty(), "the job is running");

        // The supervisor path takes it from here.
        let mut healed = Vec::new();
        for _ in 0..20 {
            std::thread::sleep(Duration::from_millis(10));
            healed.extend(job.heal().healed);
        }
        assert_eq!(healed.len(), 1, "one restart: {healed:?}");
        assert!(matches!(healed[0], Ds2Error::WorkerPanicked { op, .. } if op == c));
        std::thread::sleep(Duration::from_millis(100));

        let mut drained: HashMap<u64, u64> = HashMap::new();
        for (k, v) in job.shutdown().remove(&c).unwrap_or_default() {
            *drained.entry(k).or_insert(0) += *v.into_any().downcast::<u64>().unwrap();
        }
        assert_eq!(
            drained,
            sink.lock().unwrap().clone(),
            "salvage lost across the panic"
        );
    }

    #[test]
    fn rates_reflect_load() {
        let (spec, s, _m, _c, _sink) = pipeline(10_000.0);
        let g = spec.graph.clone();
        let mut job = RunningJob::deploy(spec, Deployment::uniform(&g, 2));
        std::thread::sleep(Duration::from_millis(250));
        let mut snap = MetricsSnapshot::new();
        job.collect_snapshot_into(&mut snap);
        std::thread::sleep(Duration::from_millis(750));
        job.collect_snapshot_into(&mut snap);
        let src = snap.operator(s).unwrap();
        let out_rate = src.aggregate_observed_output_rate().unwrap();
        assert!(
            (out_rate - 10_000.0).abs() < 2_500.0,
            "source rate {out_rate} should be ~10k/s"
        );
        job.shutdown();
    }

    /// The `send_all` drop counter: a dead receiver no longer loses records
    /// silently — the drop lands in `SharedCounters::records_dropped`.
    #[test]
    fn send_all_counts_drops_when_receiver_is_gone() {
        let (alive_tx, _alive_rx) = bounded::<Batch<u64>>(4);
        let (dead_tx, dead_rx) = bounded::<Batch<u64>>(4);
        drop(dead_rx);
        let mut route = OutputRoute::new(
            vec![alive_tx, dead_tx],
            Arc::new(|&r: &u64| r) as KeyFn<u64>,
        );
        let counters = SharedCounters::new();
        let pool = BatchPool::new(8, 0);
        // Keys 0..6: evens to the live instance, odds to the dead one.
        route.send_all(&[0, 1, 2, 3, 4, 5], true, &counters, &pool);
        assert_eq!(counters.totals().records_dropped, 3);
    }

    /// The wait-accounting bugfix next to the drop counter: a *failed* send
    /// must not add to `wait_output`. Before the fix, every dropped batch
    /// still charged `t0.elapsed()` to blocked time, so degraded routing
    /// inflated exactly the wait ratio DS2 subtracts when computing true
    /// rates. After many failed sends the wait counter must be exactly
    /// zero; the successful sends alone may charge wait.
    #[test]
    fn send_all_charges_wait_only_for_successful_sends() {
        let (dead_tx, dead_rx) = bounded::<Batch<u64>>(4);
        drop(dead_rx);
        let mut route = OutputRoute::new(vec![dead_tx], Arc::new(|&r: &u64| r) as KeyFn<u64>);
        let counters = SharedCounters::new();
        let pool = BatchPool::new(8, 0);
        for _ in 0..1_000 {
            route.send_all(&[1, 2, 3], true, &counters, &pool);
        }
        let totals = counters.totals();
        assert_eq!(totals.records_dropped, 3_000);
        assert_eq!(
            totals.wait_output_ns, 0,
            "failed sends must not count as blocked output time"
        );

        // A successful send does charge wait (possibly 0ns on a fast path,
        // so only the drop-path invariant is exact).
        let (alive_tx, alive_rx) = bounded::<Batch<u64>>(4);
        let mut alive = OutputRoute::new(vec![alive_tx], Arc::new(|&r: &u64| r) as KeyFn<u64>);
        alive.send_all(&[7], true, &counters, &pool);
        assert_eq!(alive_rx.recv().unwrap(), vec![7]);
        assert_eq!(counters.totals().records_dropped, 3_000);
    }

    /// A route to one queue of capacity 8 whose only receiver is blocked in
    /// `recv()` — no poll to rescue a lost wake-up — by the time this
    /// returns; the thread hands back the first data batch it receives.
    /// The retained sender keeps the queue connected, so nothing but a
    /// wake-up ends that sleep.
    fn route_to_parked_receiver() -> (OutputRoute<u64>, Sender<Batch<u64>>, JoinHandle<Batch<u64>>)
    {
        let (tx, rx) = bounded::<Batch<u64>>(8);
        let consumer = std::thread::spawn(move || loop {
            let batch = rx.recv().unwrap();
            if !batch.is_empty() {
                return batch;
            }
        });
        // Parked once a probe (an empty batch, dropped on receipt) reports
        // its wake-up owed; that probe stays queued and the receiver asleep.
        while !matches!(tx.try_send_deferred(Batch::new()), Ok(true)) {
            std::thread::yield_now();
        }
        let route = OutputRoute::new(vec![tx.clone()], Arc::new(|&r: &u64| r) as KeyFn<u64>);
        (route, tx, consumer)
    }

    /// A cheap batch leaves a parked consumer asleep and the route owing;
    /// `pay` — what `worker_loop` and `source_loop` call before they wait —
    /// delivers it, and an expensive batch never defers in the first place.
    #[test]
    fn cheap_batches_defer_the_wake_up_and_pay_delivers_it() {
        let counters = SharedCounters::new();
        let pool = BatchPool::new(8, 0);
        let (mut route, _tx, consumer) = route_to_parked_receiver();
        route.send_all(&[1], true, &counters, &pool);
        assert!(route.owed);
        std::thread::sleep(Duration::from_millis(20));
        assert!(!consumer.is_finished(), "a cheap batch woke its consumer");
        route.pay();
        assert!(!route.owed);
        assert_eq!(consumer.join().unwrap(), vec![1]);

        let (mut route, _tx, consumer) = route_to_parked_receiver();
        route.send_all(&[2], false, &counters, &pool);
        assert!(!route.owed);
        assert_eq!(consumer.join().unwrap(), vec![2]);
    }

    /// Thread exit pays: a producer that returns, or unwinds out of a
    /// panic, while owing a wake-up leaves no batch stranded behind its
    /// parked consumer.
    #[test]
    fn a_producer_that_exits_or_panics_pays_the_wake_up_it_owes() {
        supervisor::install_quiet_panic_hook();
        for panics in [false, true] {
            let (mut route, _tx, consumer) = route_to_parked_receiver();
            let producer = std::thread::spawn(move || {
                supervisor::mark_supervised();
                route.send_all(&[7], true, &SharedCounters::new(), &BatchPool::new(8, 0));
                assert!(route.owed);
                assert!(!panics, "injected producer panic");
            });
            assert_eq!(producer.join().is_err(), panics);
            assert_eq!(consumer.join().unwrap(), vec![7]);
        }
    }

    /// A full queue pays every route: a producer about to block on one
    /// consumer first wakes the others it owes, which may otherwise sleep
    /// for as long as the full one takes to drain.
    #[test]
    fn a_full_queue_pays_every_route_before_the_send_blocks() {
        let (owing, owing_tx, consumer) = route_to_parked_receiver();
        let (full_tx, full_rx) = bounded::<Batch<u64>>(1);
        full_tx.send(vec![0]).unwrap();
        let mut full = OutputRoute::new(vec![full_tx], Arc::new(|&r: &u64| r) as KeyFn<u64>);
        full.siblings = vec![owing_tx];
        let mut routes = [owing, full];
        let producer = std::thread::spawn(move || {
            let (counters, pool) = (SharedCounters::new(), BatchPool::new(8, 0));
            send_out(&mut routes, vec![9], true, &counters, &pool);
            // Blocked until the test drains `full`; still owing, had it not
            // paid: keep the exit payment from masking that.
            routes.into_iter().for_each(std::mem::forget);
        });
        assert_eq!(consumer.join().unwrap(), vec![9]);
        assert_eq!(full_rx.recv().unwrap(), vec![0]);
        assert_eq!(full_rx.recv().unwrap(), vec![9]);
        producer.join().unwrap();
    }

    /// `src -> op -> sink` with 7-record batches, every record an `epoch`
    /// timestamp: `op` is built by `stamping_op`, and the sink reports, per
    /// batch, how long after its newest stamp the batch was delivered. A
    /// consumer nobody wakes finds its batch at its next 5 ms input poll —
    /// up to 5 ms late, under 1 ms only by the luck of the phase (batches
    /// here are ~7 ms apart, so that is one in five) — and a woken one in
    /// tens of microseconds. Returns the share delivered in under 1 ms.
    fn share_delivered_promptly(
        rate: f64,
        epoch: Instant,
        stamping_op: impl Fn() -> Box<dyn Logic<u64>> + Send + Sync + 'static,
    ) -> f64 {
        struct DelaySink(Instant, Arc<Mutex<Vec<u64>>>);
        impl Logic<u64> for DelaySink {
            fn process(&mut self, _r: u64, _out: &mut Vec<u64>) {}
            fn process_batch(&mut self, batch: &mut Vec<u64>, _out: &mut Vec<u64>) {
                let now = self.0.elapsed().as_nanos() as u64;
                let newest = batch.drain(..).max().expect("never an empty batch");
                self.1.lock().unwrap().push(now.saturating_sub(newest));
            }
        }
        let mut b = GraphBuilder::new();
        let s = b.operator("src");
        let o = b.operator("op");
        let k = b.operator("sink");
        b.connect(s, o);
        b.connect(o, k);
        let g = b.build().unwrap();
        let delays = Arc::new(Mutex::new(Vec::new()));
        let delays2 = Arc::clone(&delays);
        let mut spec: JobSpec<u64> = JobSpec::new(g.clone());
        spec.batch_size = 7;
        spec.source(s, rate, move |_| epoch.elapsed().as_nanos() as u64, |&r| r);
        spec.operator(o, stamping_op, |&r| r);
        spec.operator(
            k,
            move || Box::new(DelaySink(epoch, Arc::clone(&delays2))),
            |&r| r,
        );
        let job = RunningJob::deploy(spec, Deployment::uniform(&g, 1));
        std::thread::sleep(Duration::from_millis(400));
        job.shutdown();
        let delays = delays.lock().unwrap();
        assert!(delays.len() > 20, "only {} batches arrived", delays.len());
        delays.iter().filter(|&&d| d < 1_000_000).count() as f64 / delays.len() as f64
    }

    /// A producer that runs dry pays before it waits: the source ahead of
    /// its schedule (a batch every 7 ms), the operator on an empty input.
    /// Either payment missing leaves that hop's consumer to its poll.
    #[test]
    fn a_paced_chain_wakes_each_consumer_for_each_batch() {
        let epoch = Instant::now();
        let forward = || Box::new(FnLogic::new(|r: u64, out: &mut Vec<u64>| out.push(r))) as _;
        let prompt = share_delivered_promptly(1_000.0, epoch, forward);
        assert!(
            prompt > 0.6,
            "{prompt:.2} of the batches took two hops in 1 ms"
        );
    }

    /// The cheap-batch guard: an operator that is never idle (its input is
    /// backlogged) but takes 7 ms a batch wakes its consumer for every one
    /// of them — deferring would hold each batch until the consumer's poll
    /// or, with no poll, for 32 batches.
    #[test]
    fn expensive_batches_wake_their_consumer_per_batch() {
        let epoch = Instant::now();
        let prompt = share_delivered_promptly(50_000.0, epoch, move || {
            let restamp = move |_r: u64, out: &mut Vec<u64>| {
                out.push(epoch.elapsed().as_nanos() as u64);
            };
            Box::new(CostedLogic::new(Duration::from_millis(1), restamp))
        });
        assert!(
            prompt > 0.6,
            "{prompt:.2} of the batches arrived within 1 ms"
        );
    }

    /// Zero is not a queue capacity or a batch size a job can run with:
    /// `bounded(0)` never accepts a batch and a zero-record batch is never
    /// shipped. Both are clamped to 1 at deploy.
    #[test]
    fn zero_capacity_and_zero_batch_size_still_move_records() {
        let (mut spec, _s, _m, c, sink) = pipeline(20_000.0);
        spec.channel_capacity = 0;
        spec.batch_size = 0;
        let g = spec.graph.clone();
        let job = RunningJob::deploy(spec, Deployment::uniform(&g, 1));
        std::thread::sleep(Duration::from_millis(200));
        let drained: u64 = (job.shutdown().remove(&c).unwrap_or_default().into_iter())
            .map(|(_, v)| *v.into_any().downcast::<u64>().unwrap())
            .sum();
        assert!(drained > 1_000, "only {drained} records reached the sink");
        assert_eq!(drained, sink.lock().unwrap().values().sum::<u64>());
    }

    /// Power-of-two downstream parallelism routes through the bitmask path;
    /// the bucket assignment must equal the `% p` rule `partition_state`
    /// uses, or keyed state would migrate to instances that never see the
    /// key's records.
    #[test]
    fn pow2_mask_routing_matches_modulo() {
        let (txs, rxs): (Vec<_>, Vec<_>) = (0..4).map(|_| bounded::<Batch<u64>>(16)).unzip();
        let mut route = OutputRoute::new(txs, Arc::new(|&r: &u64| r) as KeyFn<u64>);
        assert_eq!(route.mask, Some(3));
        let counters = SharedCounters::new();
        let pool = BatchPool::new(8, 0);
        let records: Vec<u64> = (0..64).collect();
        route.send_all(&records, true, &counters, &pool);
        for (k, rx) in rxs.iter().enumerate() {
            let mut got: Vec<u64> = Vec::new();
            while let Ok(batch) = rx.try_recv() {
                got.extend(batch);
            }
            assert_eq!(got.len(), 16);
            assert!(
                got.iter().all(|r| *r as usize % 4 == k),
                "instance {k} received keys outside its % 4 residue: {got:?}"
            );
        }
        // Non-power-of-two parallelism takes the modulo path.
        let (txs3, _rxs3): (Vec<_>, Vec<_>) = (0..3).map(|_| bounded::<Batch<u64>>(16)).unzip();
        let route3 = OutputRoute::new(txs3, Arc::new(|&r: &u64| r) as KeyFn<u64>);
        assert_eq!(route3.mask, None);
        assert_eq!(route3.bucket_of(7), 1);
    }

    /// The single-downstream-instance fast path forwards the owned batch
    /// without touching a record: a record type whose `Clone` panics flows
    /// through `send_owned` untouched.
    #[test]
    fn send_owned_single_instance_never_clones() {
        struct PoisonClone(u64);
        impl Clone for PoisonClone {
            fn clone(&self) -> Self {
                panic!("record cloned on the single-instance fast path");
            }
        }
        let (tx, rx) = bounded::<Batch<PoisonClone>>(4);
        let mut route = OutputRoute::new(vec![tx], Arc::new(|r: &PoisonClone| r.0));
        let counters = SharedCounters::new();
        let pool: Arc<BatchPool<PoisonClone>> = BatchPool::new(8, 0);
        route.send_owned(vec![PoisonClone(1), PoisonClone(2)], true, &counters, &pool);
        let got = rx.recv().unwrap();
        assert_eq!(got.len(), 2);
        assert_eq!(got[1].0, 2);
    }

    /// Batch recycling: buffers returned to the pool are reissued, and the
    /// pool never retains more than its capacity.
    #[test]
    fn batch_pool_recycles_and_caps() {
        let pool: Arc<BatchPool<u64>> = BatchPool::new(2, 0);
        let mut a = pool.get();
        a.reserve(64);
        let ptr = a.as_ptr() as usize;
        pool.put(a);
        assert_eq!(pool.spares(), 1);
        let b = pool.get();
        assert_eq!(b.as_ptr() as usize, ptr, "pooled buffer must be reissued");
        assert_eq!(b.capacity(), 64);
        assert!(b.is_empty(), "reissued buffers arrive cleared");
        pool.put(b);
        pool.put(Vec::with_capacity(8));
        pool.put(Vec::with_capacity(8)); // over capacity: dropped
        assert_eq!(pool.spares(), 2);
    }

    /// A source fills each batch with one generator call: `|n| n` in
    /// 100-record batches (not a power of two, so no length is a round
    /// number by luck) at an unbounded rate reaches the sink as `0..N` —
    /// every batch whole, ascending and consecutive, with no gap and no
    /// duplicate between batches.
    #[test]
    fn source_batches_are_consecutive_runs_of_the_sequence() {
        /// Per received batch: first record, length, and whether each
        /// record is its predecessor plus one.
        type Runs = Arc<Mutex<Vec<(u64, usize, bool)>>>;
        struct Collect(Runs);
        impl Logic<u64> for Collect {
            fn process(&mut self, _r: u64, _out: &mut Vec<u64>) {}
            fn process_batch(&mut self, batch: &mut Vec<u64>, _out: &mut Vec<u64>) {
                let consecutive = batch.windows(2).all(|w| w[1] == w[0] + 1);
                self.0
                    .lock()
                    .unwrap()
                    .push((batch[0], batch.len(), consecutive));
                batch.clear();
            }
        }
        let mut b = GraphBuilder::new();
        let s = b.operator("src");
        let k = b.operator("sink");
        b.connect(s, k);
        let g = b.build().unwrap();
        let runs: Runs = Arc::new(Mutex::new(Vec::new()));
        let runs2 = Arc::clone(&runs);
        let mut spec: JobSpec<u64> = JobSpec::new(g.clone());
        spec.batch_size = 100;
        spec.source(s, f64::INFINITY, |n| n, |&r| r);
        spec.operator(k, move || Box::new(Collect(Arc::clone(&runs2))), |&r| r);
        let job = RunningJob::deploy(spec, Deployment::uniform(&g, 1));
        std::thread::sleep(Duration::from_millis(20));
        job.shutdown();
        let runs = runs.lock().unwrap();
        assert!(runs.len() > 10, "only {} batches arrived", runs.len());
        let mut next = 0;
        for &(first, len, consecutive) in runs.iter() {
            assert_eq!(first, next, "a gap or a duplicate before record {first}");
            assert_eq!(len, 100, "batch at {first}");
            assert!(consecutive, "batch at {first} is not consecutive");
            next += len as u64;
        }
    }

    /// Useful time is the logic's time and nothing else: in a paced
    /// `src → CostedLogic(20 µs) → sink` job at a fifth of its capacity,
    /// with 256-record batches, every record costs the operator at least
    /// 20 µs of useful time and, in the best of three 400 ms windows, at
    /// most 5 % more. Hop time is charged to the wait counters; if it leaked
    /// into useful time, DS2's true rates would read low. (A loaded machine
    /// wakes a sleeping logic late, and the wall clock counts that as
    /// useful: hence the best window, not every window.)
    #[test]
    fn useful_time_per_record_is_the_logic_cost() {
        const COST: Duration = Duration::from_micros(20);
        let mut b = GraphBuilder::new();
        let s = b.operator("src");
        let o = b.operator("costed");
        let k = b.operator("sink");
        b.connect(s, o);
        b.connect(o, k);
        let g = b.build().unwrap();
        let mut spec: JobSpec<u64> = JobSpec::new(g.clone());
        spec.batch_size = 256;
        spec.source(s, 10_000.0, |n| n, |&r| r);
        let forward = |r: u64, out: &mut Vec<u64>| out.push(r);
        spec.operator(o, move || Box::new(CostedLogic::new(COST, forward)), |&r| r);
        let sink = || Box::new(FnLogic::new(|_r: u64, _out: &mut Vec<u64>| {})) as _;
        spec.operator(k, sink, |&r| r);
        let mut job = RunningJob::deploy(spec, Deployment::uniform(&g, 1));
        let mut snap = MetricsSnapshot::new();
        job.collect_snapshot_into(&mut snap);
        let cost = COST.as_nanos() as f64;
        let mut best = f64::INFINITY;
        for _ in 0..3 {
            std::thread::sleep(Duration::from_millis(400));
            job.collect_snapshot_into(&mut snap);
            let instances = &snap.operator(o).unwrap().instances;
            let useful_ns: u64 = instances.iter().map(|i| i.useful_ns).sum();
            let records: u64 = instances.iter().map(|i| i.records_in).sum();
            assert!(records >= 8 * 256, "only {records} records processed");
            let per_record = useful_ns as f64 / records as f64;
            assert!(per_record >= cost, "{per_record:.0} ns per record");
            best = best.min(per_record);
        }
        job.shutdown();
        assert!(
            best <= cost * 1.05,
            "{best:.0} ns of useful time per record for a {cost} ns logic"
        );
    }

    /// Deadline-scheduled pacing: over a 2-second run the source must hold
    /// the configured rate within 2%, even when a mid-run stall blocks its
    /// sends for ~150 ms. The old relative-sleep pacing reset its clock on
    /// every overrun, so a stall (or just accumulated sleep overshoot)
    /// permanently lowered the observed rate; absolute deadlines work the
    /// backlog off and converge back onto the schedule.
    #[test]
    fn source_holds_configured_rate_within_two_percent() {
        let mut b = GraphBuilder::new();
        let s = b.operator("src");
        let o = b.operator("op");
        b.connect(s, o);
        let g = b.build().unwrap();
        let mut spec: JobSpec<u64> = JobSpec::new(g.clone());
        // Small channel so the stall actually backpressures the source.
        spec.channel_capacity = 8;
        let rate = 50_000.0;
        spec.source(s, rate, |n| n, |&r| r);
        let stalled = Arc::new(AtomicBool::new(false));
        let stalled2 = Arc::clone(&stalled);
        spec.operator(
            o,
            move || {
                let stalled = Arc::clone(&stalled2);
                let mut seen = 0u64;
                Box::new(FnLogic::new(move |_r: u64, _out: &mut Vec<u64>| {
                    seen += 1;
                    // One 150ms stall a quarter of the way in.
                    if seen == 25_000 && !stalled.swap(true, Ordering::SeqCst) {
                        std::thread::sleep(Duration::from_millis(150));
                    }
                }))
            },
            |&r| r,
        );
        let mut job = RunningJob::deploy(spec, Deployment::uniform(&g, 1));
        // Align the window, run 2s, read the source's observed output rate.
        let mut snap = MetricsSnapshot::new();
        job.collect_snapshot_into(&mut snap);
        std::thread::sleep(Duration::from_secs(2));
        job.collect_snapshot_into(&mut snap);
        job.shutdown();
        let src = snap.operator(s).unwrap();
        let observed = src.aggregate_observed_output_rate().unwrap();
        assert!(stalled.load(Ordering::SeqCst), "the stall must have fired");
        assert!(
            (observed - rate).abs() / rate < 0.02,
            "observed source rate {observed:.0}/s drifted more than 2% from spec {rate}/s"
        );
    }

    /// Tentpole part 1 at the engine level: a chaos-crashed instance is
    /// restarted by `heal` with its salvaged state, and conservation holds
    /// exactly (drained == sink per key) because the panic is contained
    /// before the triggering record reaches the logic.
    #[test]
    fn heal_restarts_panicked_instance_with_salvage() {
        let (mut spec, _s, _m, c, sink) = pipeline(10_000.0);
        spec.chaos = ChaosSpec::new().crash(c, 0, 500);
        let g = spec.graph.clone();
        let mut job = RunningJob::deploy(spec, Deployment::uniform(&g, 1));

        let mut healed = Vec::new();
        for _ in 0..40 {
            std::thread::sleep(Duration::from_millis(25));
            let outcome = job.heal();
            assert!(outcome.gave_up.is_none(), "one crash is within budget");
            healed.extend(outcome.healed);
        }
        assert_eq!(
            healed,
            vec![Ds2Error::WorkerPanicked { op: c, instance: 0 }],
            "exactly one contained crash"
        );
        assert_eq!(job.restarts(), 1);

        let mut state = job.shutdown();
        let mut drained: HashMap<u64, u64> = HashMap::new();
        for (k, v) in state.remove(&c).unwrap_or_default() {
            *drained.entry(k).or_insert(0) += *v.into_any().downcast::<u64>().unwrap();
        }
        assert_eq!(
            drained,
            sink.lock().unwrap().clone(),
            "salvage-restored state diverged from sink totals"
        );
    }

    /// A savepoint cycle quiesces instances, commits a complete epoch, and
    /// leaves the running state in place (checkpoint == later drain).
    #[test]
    fn checkpoint_commits_full_epochs_without_stealing_state() {
        let (mut spec, _s, _m, c, sink) = pipeline(10_000.0);
        spec.checkpoint_timeout = Duration::from_millis(500);
        let g = spec.graph.clone();
        let mut job = RunningJob::deploy(spec, Deployment::uniform(&g, 2));
        std::thread::sleep(Duration::from_millis(300));

        let stats = job.checkpoint();
        assert!(stats.unresponsive.is_empty(), "{:?}", stats.unresponsive);
        assert_eq!(job.checkpoints.epoch(), 1, "the cycle committed epoch 1");
        assert!(stats.entries > 0, "keyed state must be captured");

        // The checkpoint took copies: the live run keeps counting, and the
        // final drain still matches the sink exactly.
        std::thread::sleep(Duration::from_millis(200));
        let mut state = job.shutdown();
        let mut drained: HashMap<u64, u64> = HashMap::new();
        for (k, v) in state.remove(&c).unwrap_or_default() {
            *drained.entry(k).or_insert(0) += *v.into_any().downcast::<u64>().unwrap();
        }
        assert_eq!(drained, sink.lock().unwrap().clone());
    }
}
