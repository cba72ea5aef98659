//! Chaos suite for the threaded runtime: injected crashes, wedges, and
//! failed rescales against a keyed stateful job, asserting the supervised
//! engine and self-healing control loop recover with the promised state
//! guarantees — and that DS2 still converges to the same parallelism a
//! fault-free run reaches.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use ds2_core::controller::{ControllerVerdict, ScalingController};
use ds2_core::deployment::Deployment;
use ds2_core::error::Ds2Error;
use ds2_core::graph::{GraphBuilder, LogicalGraph, OperatorId};
use ds2_core::hardened::Hardened;
use ds2_core::manager::{ManagerConfig, ScalingManager};
use ds2_core::snapshot::MetricsSnapshot;
use ds2_runtime::{
    run_control_loop, ChaosSpec, ControlConfig, JobSpec, Logic, RunningJob, StateEntry, StateValue,
};

type Shared = Arc<Mutex<HashMap<u64, u64>>>;

/// Keyed counting logic: every processed record bumps both the instance's
/// migratable state and a shared sink, so conservation is checkable as
/// `drained state == sink totals` per key. Optionally sleeps a fixed cost
/// per record to emulate a slow operator DS2 must scale.
struct CountLogic {
    counts: HashMap<u64, u64>,
    sink: Shared,
    cost: Option<Duration>,
}

impl Logic<u64> for CountLogic {
    fn process(&mut self, record: u64, _out: &mut Vec<u64>) {
        if let Some(cost) = self.cost {
            std::thread::sleep(cost);
        }
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

/// src -> count pipeline over 64 keys; `cost` emulates per-record work.
fn counting_job(rate: f64, cost: Option<Duration>) -> (JobSpec<u64>, LogicalGraph, Shared) {
    let mut b = GraphBuilder::new();
    let s = b.operator("src");
    let c = b.operator("count");
    b.connect(s, c);
    let g = b.build().unwrap();
    let sink: Shared = Arc::new(Mutex::new(HashMap::new()));
    let mut spec = JobSpec::new(g.clone());
    spec.batch_size = 32;
    spec.source(s, rate, |n| n % 64, |&r| r);
    let sink2 = Arc::clone(&sink);
    spec.operator(
        c,
        move || {
            Box::new(CountLogic {
                counts: HashMap::new(),
                sink: Arc::clone(&sink2),
                cost,
            })
        },
        |&r| r,
    );
    (spec, g, sink)
}

const COUNT: OperatorId = OperatorId(1);

fn drained_counts(
    state: &mut std::collections::BTreeMap<OperatorId, Vec<StateEntry>>,
) -> HashMap<u64, u64> {
    let mut out = HashMap::new();
    for (k, v) in state.remove(&COUNT).unwrap_or_default() {
        *out.entry(k).or_insert(0) += *v.into_any().downcast::<u64>().unwrap();
    }
    out
}

/// A do-nothing controller: keeps the control loop (and its healing /
/// checkpoint driving) running without ever rescaling.
struct NoopController;

impl ScalingController for NoopController {
    fn name(&self) -> &str {
        "noop"
    }

    fn on_metrics(
        &mut self,
        _now_ns: u64,
        _snapshot: &MetricsSnapshot,
        _current: &Deployment,
    ) -> ControllerVerdict {
        ControllerVerdict::NoAction
    }
}

/// Tentpole headline #1: three injected crashes on a keyed stateful job —
/// the supervisor restarts every one, the control loop runs to its full
/// duration, and the final drained state equals the sink exactly (zero
/// keyed-state loss despite three dead workers).
#[test]
fn survives_crashes_with_zero_state_loss() {
    let (mut spec, g, sink) = counting_job(4_000.0, None);
    spec.checkpoint_interval = Some(Duration::from_millis(300));
    spec.supervision.max_restarts_per_instance = 5;
    spec.supervision.restart_backoff = Duration::from_millis(10);
    spec.chaos = ChaosSpec::new()
        .crash(COUNT, 0, 400)
        .crash(COUNT, 0, 1_200)
        .crash(COUNT, 0, 2_500);

    let mut job = RunningJob::deploy(spec, Deployment::uniform(&g, 1));
    let config = ControlConfig {
        interval: Duration::from_millis(250),
        duration: Duration::from_secs(4),
        ..Default::default()
    };
    let events = run_control_loop(&mut job, &mut NoopController, &config);

    let panics_healed = events
        .iter()
        .filter(|e| e.recovered && matches!(e.error, Some(Ds2Error::WorkerPanicked { .. })))
        .count();
    assert!(
        panics_healed >= 3,
        "all 3 injected crashes must surface as healed events, got {panics_healed}"
    );
    assert!(
        !events
            .iter()
            .any(|e| matches!(e.error, Some(Ds2Error::RecoveryExhausted { .. }))),
        "restart budget must cover 3 crashes"
    );
    assert!(
        events.last().unwrap().at >= Duration::from_secs(3),
        "the loop must run its full duration despite crashes"
    );
    assert!(job.restarts() >= 3, "got {} restarts", job.restarts());

    let mut state = job.shutdown();
    let drained = drained_counts(&mut state);
    assert_eq!(
        drained,
        sink.lock().unwrap().clone(),
        "keyed state diverged from sink totals after 3 crash recoveries"
    );
}

/// Tentpole headline #2: crashes before, around, and after DS2's rescale
/// of a slow operator — including an instance that only exists after the
/// scale-up — must not cost state or change the policy outcome. A
/// fault-free twin run pins the expected final parallelism.
#[test]
fn chaos_with_rescale_converges_and_conserves() {
    let run = |chaos: ChaosSpec| {
        // ~2 ms per record => ~500 rec/s per instance; at 1200 rec/s DS2
        // wants 3 instances.
        let (mut spec, g, sink) = counting_job(1_200.0, Some(Duration::from_millis(2)));
        spec.checkpoint_interval = Some(Duration::from_millis(300));
        spec.supervision.max_restarts_per_instance = 5;
        spec.supervision.restart_backoff = Duration::from_millis(10);
        spec.chaos = chaos;
        let mut job = RunningJob::deploy(spec, Deployment::uniform(&g, 1));
        let mut manager = ScalingManager::new(
            g,
            ManagerConfig {
                warmup_intervals: 1,
                min_change: 0,
                ..Default::default()
            },
        );
        let config = ControlConfig {
            interval: Duration::from_millis(500),
            duration: Duration::from_secs(6),
            ..Default::default()
        };
        let events = run_control_loop(&mut job, &mut manager, &config);
        let final_p = job.deployment().parallelism(COUNT);
        let mut state = job.shutdown();
        let drained = drained_counts(&mut state);
        let sunk = sink.lock().unwrap().clone();
        (events, final_p, drained, sunk)
    };

    let chaos = ChaosSpec::new()
        .crash(COUNT, 0, 300) // before the first rescale
        .crash(COUNT, 0, 900) // around the rescale window
        .crash(COUNT, 1, 400); // instance 1 exists only after scale-up
    let (events, final_p, drained, sink) = run(chaos);
    let (_, final_p_clean, drained_clean, sink_clean) = run(ChaosSpec::new());

    // Zero keyed-state loss in both runs.
    assert_eq!(drained, sink, "chaos run lost or duplicated keyed state");
    assert_eq!(drained_clean, sink_clean, "fault-free run must be exact");

    // The supervisor path was actually exercised. Not every injected crash
    // surfaces as a healed event: a trigger whose record is consumed while
    // a rescale is draining panics *inside* the halt, where the engine
    // salvages its state directly (the conservation assert above covers
    // that path) — only the crash before the first rescale is guaranteed
    // to be healed by the control loop.
    let healed = events
        .iter()
        .filter(|e| e.recovered && e.error.is_some())
        .count();
    assert!(healed >= 1, "expected healed crash events, got {healed}");

    // DS2 converges to the same parallelism as the fault-free twin.
    assert_eq!(
        final_p, final_p_clean,
        "chaos must not change the policy outcome"
    );
    assert!(
        (2..=4).contains(&final_p),
        "expected ~3 instances for 1200/s at ~500/s each, got {final_p}"
    );
}

/// A wedged worker (stuck in user code, unkillable) is detected through
/// missed checkpoint deadlines and replaced from the latest checkpoint:
/// flow resumes, and the loss is bounded by the checkpoint delta — the
/// drained state is a subset of the sink, never more, never empty.
#[test]
fn wedge_detected_and_replaced_from_checkpoint() {
    let (mut spec, g, sink) = counting_job(4_000.0, None);
    spec.checkpoint_interval = Some(Duration::from_millis(200));
    spec.checkpoint_timeout = Duration::from_millis(150);
    spec.supervision.wedge_after_missed_checkpoints = 2;
    spec.supervision.restart_backoff = Duration::from_millis(10);
    spec.chaos = ChaosSpec::new().wedge(COUNT, 0, 1_000);

    let mut job = RunningJob::deploy(spec, Deployment::uniform(&g, 1));
    let config = ControlConfig {
        interval: Duration::from_millis(250),
        duration: Duration::from_secs(4),
        ..Default::default()
    };
    let events = run_control_loop(&mut job, &mut NoopController, &config);

    assert!(
        events
            .iter()
            .any(|e| { e.recovered && matches!(e.error, Some(Ds2Error::WorkerWedged { .. })) }),
        "the wedge must be detected and healed"
    );
    assert!(
        events.last().unwrap().at >= Duration::from_secs(3),
        "the loop must survive the wedge"
    );

    let sink_before_shutdown: u64 = sink.lock().unwrap().values().sum();
    let mut state = job.shutdown();
    let drained = drained_counts(&mut state);
    let drained_total: u64 = drained.values().sum();
    let sink_total: u64 = sink.lock().unwrap().values().sum();
    // Flow resumed after the replacement: far more records than the 1000
    // that preceded the wedge.
    assert!(
        sink_before_shutdown > 3_000,
        "flow must resume after the wedge, sink={sink_before_shutdown}"
    );
    // Bounded loss: the wedged instance's post-checkpoint delta is gone
    // (it died holding it), but everything checkpointed or processed by
    // live instances is intact.
    assert!(
        drained_total > 0,
        "recovery must restore checkpointed state"
    );
    assert!(
        drained_total <= sink_total,
        "restored state can never exceed what was processed"
    );
}

/// A rescale that times out on a wedged worker no longer ends the run: the
/// loop records the typed error, redeploys from the last good deployment
/// plus checkpoint, and the verify-then-retry manager re-issues the plan —
/// reaching the scale-up eventually.
#[test]
fn failed_rescale_self_heals() {
    // Slow stateless operator DS2 must scale from 2 to 3 instances, with
    // one instance wedged via chaos so the *first* rescale's halt hits the
    // deadline. Starting at p=2 keeps the healthy instance flowing (and
    // the metrics meaningful) while instance 0 is wedged — a lone wedged
    // instance would backpressure the source into silence and DS2 would
    // never see a bottleneck to act on.
    let sunk = Arc::new(AtomicU64::new(0));
    let mut b = GraphBuilder::new();
    let s = b.operator("src");
    let slow = b.operator("slow");
    b.connect(s, slow);
    let g = b.build().unwrap();
    let mut spec: JobSpec<u64> = JobSpec::new(g.clone());
    spec.batch_size = 32;
    // Small queues: backpressure bounds the backlog, so a *healthy*
    // instance always drains well inside the halt deadline — only the
    // wedge can blow it.
    spec.channel_capacity = 6;
    spec.rescale_timeout = Some(Duration::from_millis(900));
    spec.source(s, 1_200.0, |n| n % 64, |&r| r);
    let sunk2 = Arc::clone(&sunk);
    spec.operator(
        slow,
        move || {
            let sunk = Arc::clone(&sunk2);
            Box::new(ds2_runtime::CostedLogic::new(
                Duration::from_millis(2),
                move |_r: u64, _out: &mut Vec<u64>| {
                    sunk.fetch_add(1, Ordering::Relaxed);
                },
            ))
        },
        |&r| r,
    );
    // Wedge instance 0 after 450 records (~0.75s at its ~600 rec/s
    // share): inside DS2's first metrics window but before its first
    // decision, so the first rescale's halt blows the deadline and aborts.
    spec.chaos = ChaosSpec::new().wedge(OperatorId(1), 0, 450);

    let mut job = RunningJob::deploy(spec, Deployment::uniform(&g, 2));
    let mut manager = Hardened::new(ScalingManager::new(
        g,
        ManagerConfig {
            warmup_intervals: 1,
            min_change: 0,
            ..Default::default()
        },
    ));
    let config = ControlConfig {
        interval: Duration::from_millis(500),
        duration: Duration::from_secs(8),
        max_recoveries: 3,
        recovery_backoff: Duration::from_millis(50),
    };
    let events = run_control_loop(&mut job, &mut manager, &config);
    let final_p = job.deployment().parallelism(OperatorId(1));
    job.shutdown();

    let aborted_and_recovered = events
        .iter()
        .any(|e| e.recovered && matches!(e.error, Some(Ds2Error::RescaleTimedOut(_))));
    assert!(
        aborted_and_recovered,
        "the wedged rescale must abort and be recovered from, events: {events:?}"
    );
    assert!(
        events
            .iter()
            .any(|e| e.rescaled_to.is_some() && e.error.is_none()),
        "a later rescale must succeed after recovery, events: {events:?}"
    );
    assert!(
        events.last().unwrap().at >= Duration::from_secs(7),
        "the loop must run to its full duration"
    );
    assert!(
        final_p >= 3,
        "DS2 must eventually reach the scale-up past the initial p=2, got {final_p}"
    );
    assert!(
        sunk.load(Ordering::Relaxed) > 1_000,
        "records must keep flowing after recovery"
    );
}

/// Seeded chaos is deterministic (same seed, same fault plan) and every
/// seed in the CI set survives with exact conservation.
#[test]
fn seeded_chaos_is_deterministic_and_survivable() {
    let targets = [(COUNT, 0)];
    for seed in [0xDEAD_BEEFu64, 42, 7] {
        let plan_a = ChaosSpec::seeded(seed, &targets, 2, 200, 2_000);
        let plan_b = ChaosSpec::seeded(seed, &targets, 2, 200, 2_000);
        assert_eq!(plan_a, plan_b, "seed {seed} must reproduce its fault plan");

        let (mut spec, g, sink) = counting_job(4_000.0, None);
        spec.checkpoint_interval = Some(Duration::from_millis(250));
        spec.supervision.max_restarts_per_instance = 5;
        spec.supervision.restart_backoff = Duration::from_millis(10);
        spec.chaos = plan_a;
        let mut job = RunningJob::deploy(spec, Deployment::uniform(&g, 1));
        let config = ControlConfig {
            interval: Duration::from_millis(250),
            duration: Duration::from_secs(3),
            ..Default::default()
        };
        let events = run_control_loop(&mut job, &mut NoopController, &config);
        assert!(
            !events
                .iter()
                .any(|e| matches!(e.error, Some(Ds2Error::RecoveryExhausted { .. }))),
            "seed {seed} must stay within the restart budget"
        );
        let mut state = job.shutdown();
        let drained = drained_counts(&mut state);
        assert_eq!(
            drained,
            sink.lock().unwrap().clone(),
            "seed {seed} lost keyed state"
        );
    }
}
