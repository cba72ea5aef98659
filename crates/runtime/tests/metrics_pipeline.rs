//! Integration tests for the counters → snapshot path: the windowed
//! per-instance metrics DS2 consumes must stay truthful across live
//! rescales and worker restarts. Every instance handle carries
//! `last_totals` across incarnations, so a snapshot window must never
//! re-count records already reported in an earlier window — and never
//! lose the slice processed between the last snapshot and a redeploy.
//!
//! The accounting oracle: `records_in` is charged once per *completed*
//! batch, after the logic ran, so the summed windows are bounded above by
//! the logic's own atomic record count and below by it minus the batches
//! in flight. Double-counting a pre-rescale window (thousands of records)
//! blows the upper bound; dropping a carried counter blows the lower one.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use ds2_core::deployment::Deployment;
use ds2_core::graph::{GraphBuilder, LogicalGraph, OperatorId};
use ds2_core::snapshot::MetricsSnapshot;
use ds2_runtime::{ChaosSpec, FnLogic, JobSpec, Logic, RunningJob, StateEntry, StateValue};

const OP: OperatorId = OperatorId(1);

/// src -> op pipeline where the operator bumps a shared atomic per record,
/// giving the tests an incarnation-independent count of records actually
/// processed.
fn counted_job(rate: f64) -> (JobSpec<u64>, LogicalGraph, Arc<AtomicU64>) {
    let mut b = GraphBuilder::new();
    let s = b.operator("src");
    let o = b.operator("op");
    b.connect(s, o);
    let g = b.build().unwrap();
    let processed = Arc::new(AtomicU64::new(0));
    let mut spec = JobSpec::new(g.clone());
    spec.batch_size = 64;
    spec.source(s, rate, |n| n % 64, |&r| r);
    let p2 = Arc::clone(&processed);
    spec.operator(
        o,
        move || {
            let p3 = Arc::clone(&p2);
            Box::new(FnLogic::new(move |_r: u64, _out: &mut Vec<u64>| {
                p3.fetch_add(1, Ordering::Relaxed);
            }))
        },
        |&r| r,
    );
    (spec, g, processed)
}

/// Per-snapshot sanity plus window accumulation shared by both tests.
/// Returns the operator's summed `records_in` and `records_dropped`
/// across all windows, asserting each window validates against the live
/// deployment and respects `useful <= window` per instance.
struct WindowSums {
    records_in: u64,
    dropped: u64,
}

fn accumulate(
    snap: &MetricsSnapshot,
    g: &LogicalGraph,
    job: &RunningJob<u64>,
    sums: &mut WindowSums,
) {
    snap.validate(g, job.deployment())
        .expect("snapshot must validate against the live deployment");
    let metrics = snap.operator(OP).expect("operator metrics present");
    assert_eq!(
        metrics.instances.len(),
        job.deployment().parallelism(OP),
        "one metrics window per deployed instance"
    );
    for inst in &metrics.instances {
        assert!(inst.window_ns > 0, "windows advance wall-clock time");
        assert!(
            inst.useful_ns + inst.wait_input_ns + inst.wait_output_ns
                <= inst.window_ns + inst.window_ns / 2,
            "useful + wait cannot wildly exceed the window"
        );
        sums.records_in += inst.records_in;
    }
    sums.dropped += snap.records_dropped(OP).unwrap_or(0);
}

/// Bounds `sums.records_in` against the logic's own atomic count read just
/// after the final snapshot: above by the processed total (records_in is
/// charged after the batch completes), below by processed minus in-flight
/// batches and snapshot-to-read skew.
fn assert_no_double_counting(sums: &WindowSums, processed: u64, rate: f64, batch: u64, p: u64) {
    let skew = (rate * 0.25) as u64; // generous snapshot -> atomic-read lag
    assert!(
        sums.records_in <= processed + batch,
        "windows double-counted: summed {} > processed {}",
        sums.records_in,
        processed
    );
    assert!(
        sums.records_in + batch * p + skew >= processed,
        "windows lost a carried counter: summed {} << processed {}",
        sums.records_in,
        processed
    );
}

/// A live rescale (1 -> 3 -> 2 instances) must not double-count or lose
/// any window: old incarnations' final slices are carried via
/// `last_totals`, new incarnations start from zero. The healthy pipeline
/// must also report zero drops — a rescale is not data loss.
#[test]
fn windows_survive_live_rescale_without_double_counting() {
    let rate = 20_000.0;
    let (spec, g, processed) = counted_job(rate);
    let mut job = RunningJob::deploy(spec, Deployment::uniform(&g, 1));
    let mut snap = MetricsSnapshot::new();
    let mut sums = WindowSums {
        records_in: 0,
        dropped: 0,
    };

    let mut plan = Deployment::uniform(&g, 1);
    for (tick, p_next) in [(0, None), (1, Some(3)), (2, None), (3, Some(2)), (4, None)] {
        let _ = tick;
        std::thread::sleep(Duration::from_millis(300));
        job.collect_snapshot_into(&mut snap);
        accumulate(&snap, &g, &job, &mut sums);
        if let Some(p) = p_next {
            plan.set(OP, p);
            let pause = job
                .rescale(plan.clone())
                .expect("healthy rescale must succeed");
            assert!(pause < Duration::from_secs(2), "rescale pause bounded");
        }
    }
    // Final slice: everything since the last snapshot, read before the
    // atomic so the processed total is an upper bound.
    std::thread::sleep(Duration::from_millis(200));
    job.collect_snapshot_into(&mut snap);
    accumulate(&snap, &g, &job, &mut sums);
    let total = processed.load(Ordering::Relaxed);
    let rescales = job.rescales();
    job.shutdown();

    assert_eq!(rescales, 2, "both planned rescales must have applied");
    assert_eq!(sums.dropped, 0, "a healthy rescale must not drop records");
    assert!(
        total > 10_000,
        "pipeline must have moved real volume, got {total}"
    );
    assert_no_double_counting(&sums, total, rate, 64, 3);
}

/// A chaos-injected worker panic plus `heal` restart (a new incarnation of
/// the same instance slot) must keep the windows truthful: the restarted
/// incarnation's counters start at zero while the handle's `last_totals`
/// is reset, so the crash window is reported once, not twice — and the
/// at-most-once batch abandoned by the panic surfaces in `records_dropped`
/// at most once.
#[test]
fn windows_survive_incarnation_restart_without_double_counting() {
    let rate = 20_000.0;
    let (mut spec, g, processed) = counted_job(rate);
    spec.chaos = ChaosSpec::new().crash(OP, 0, 4_000);
    let mut job = RunningJob::deploy(spec, Deployment::uniform(&g, 2));
    let mut snap = MetricsSnapshot::new();
    let mut sums = WindowSums {
        records_in: 0,
        dropped: 0,
    };

    let mut healed = false;
    for _ in 0..6 {
        std::thread::sleep(Duration::from_millis(250));
        let outcome = job.heal();
        healed |= !outcome.healed.is_empty();
        assert!(outcome.gave_up.is_none(), "restart budget must hold");
        job.collect_snapshot_into(&mut snap);
        accumulate(&snap, &g, &job, &mut sums);
    }
    let total = processed.load(Ordering::Relaxed);
    let restarts = job.restarts();
    job.shutdown();

    assert!(healed, "the injected crash must surface through heal()");
    assert_eq!(restarts, 1, "exactly one incarnation restart");
    assert!(
        sums.dropped <= 64,
        "at most the one in-flight batch may drop, got {}",
        sums.dropped
    );
    assert!(
        total > 10_000,
        "pipeline must keep moving volume across the restart, got {total}"
    );
    assert_no_double_counting(&sums, total, rate, 64, 2);
}

/// State hand-off happens on the workers' own threads, and DS2 divides by
/// what those threads report: time spent draining or restoring state must
/// reach neither the useful nor the wait counters. A logic whose drain and
/// restore each take 40 ms (against microseconds per record) makes a
/// mischarge unmissable in the first window after a rescale.
#[test]
fn state_hand_off_is_not_charged_to_the_first_window_after_a_rescale() {
    const HAND_OFF: Duration = Duration::from_millis(40);
    /// Far above what one `fetch_add` record costs, even unoptimised.
    const PER_RECORD_NS: u64 = 5_000;

    struct SlowState(Arc<AtomicU64>);
    impl Logic<u64> for SlowState {
        fn process(&mut self, _r: u64, _out: &mut Vec<u64>) {
            self.0.fetch_add(1, Ordering::Relaxed);
        }
        fn drain_state(&mut self) -> Vec<StateEntry> {
            std::thread::sleep(HAND_OFF);
            (0..8u64)
                .map(|k| (k, Box::new(k) as Box<dyn StateValue>))
                .collect()
        }
        fn restore_state(&mut self, _entries: Vec<StateEntry>) {
            std::thread::sleep(HAND_OFF);
        }
    }

    let (mut spec, g, processed) = counted_job(20_000.0);
    spec.operator(
        OP,
        move || Box::new(SlowState(Arc::clone(&processed))),
        |&r| r,
    );
    let mut job = RunningJob::deploy(spec, Deployment::uniform(&g, 1));
    let mut snap = MetricsSnapshot::new();
    std::thread::sleep(Duration::from_millis(150));
    job.collect_snapshot_into(&mut snap);

    let mut plan = Deployment::uniform(&g, 1);
    plan.set(OP, 2);
    let pause = job.rescale(plan).expect("healthy rescale must succeed");
    assert!(
        pause >= 2 * HAND_OFF,
        "drain and restore both ran: {pause:?}"
    );
    std::thread::sleep(Duration::from_millis(150));
    job.collect_snapshot_into(&mut snap);
    let metrics = snap.operator(OP).expect("operator metrics present").clone();
    job.shutdown();

    assert_eq!(metrics.instances.len(), 2);
    for inst in &metrics.instances {
        assert!(inst.records_in > 0, "the new instance processed records");
        assert!(
            inst.useful_ns <= inst.records_in * PER_RECORD_NS,
            "useful {} ns for {} records: the restore was charged as work",
            inst.useful_ns,
            inst.records_in
        );
        // The window opened before the rescale, so it spans the old
        // instance's drain and this one's restore; neither is accounted.
        let accounted = inst.useful_ns + inst.wait_input_ns + inst.wait_output_ns;
        let hand_off_ns = 2 * HAND_OFF.as_nanos() as u64;
        assert!(
            accounted + hand_off_ns <= inst.window_ns,
            "accounted {accounted} ns of a {} ns window that holds {hand_off_ns} ns of hand-off",
            inst.window_ns
        );
    }
}

/// A saturated `src -> map -> count` chain (the source never waits, every
/// queue runs full or empty in bursts, wake-ups are deferred wherever they
/// may be) rescaled mid-run: every instance's window still splits into
/// useful + wait_input + wait_output without exceeding it — time spent
/// trying a full queue, paying wake-ups and blocking is all `wait_output`,
/// charged once — and every generated record reaches the sink.
#[test]
fn a_saturated_chain_accounts_its_time_and_loses_nothing_across_a_rescale() {
    let mut b = GraphBuilder::new();
    let s = b.operator("src");
    let m = b.operator("map");
    let c = b.operator("count");
    b.connect(s, m);
    b.connect(m, c);
    let g = b.build().unwrap();
    let generated = Arc::new(AtomicU64::new(0));
    let sunk = Arc::new(AtomicU64::new(0));
    let mut spec: JobSpec<u64> = JobSpec::new(g.clone());
    let gen = Arc::clone(&generated);
    spec.source(
        s,
        1e12,
        move |n| {
            gen.fetch_add(1, Ordering::Relaxed);
            n
        },
        |&r| r,
    );
    spec.operator(
        m,
        || Box::new(FnLogic::new(|r: u64, out: &mut Vec<u64>| out.push(r))),
        |&r| r,
    );
    let sink = Arc::clone(&sunk);
    spec.operator(
        c,
        move || {
            let sink = Arc::clone(&sink);
            Box::new(FnLogic::new(move |_r: u64, _out: &mut Vec<u64>| {
                sink.fetch_add(1, Ordering::Relaxed);
            }))
        },
        |&r| r,
    );
    let mut job = RunningJob::deploy(spec, Deployment::uniform(&g, 1));
    let mut snap = MetricsSnapshot::new();
    let mut plan = Deployment::uniform(&g, 1);
    for p_next in [None, Some(2), None, Some(1), None] {
        std::thread::sleep(Duration::from_millis(150));
        job.collect_snapshot_into(&mut snap);
        snap.validate(&g, job.deployment())
            .expect("snapshot must validate against the live deployment");
        for (op, metrics) in snap.operators() {
            for inst in &metrics.instances {
                inst.validate()
                    .unwrap_or_else(|e| panic!("{op}: {e} in {inst:?}"));
                assert!(
                    inst.useful_ns + inst.wait_input_ns + inst.wait_output_ns <= inst.window_ns,
                    "{op}: accounted more than the window: {inst:?}"
                );
            }
            assert_eq!(snap.records_dropped(op), None, "{op} dropped records");
        }
        if let Some(p) = p_next {
            plan.set(c, p);
            job.rescale(plan.clone()).expect("healthy rescale");
        }
    }
    assert_eq!(job.rescales(), 2);
    job.shutdown();
    let (generated, sunk) = (
        generated.load(Ordering::Relaxed),
        sunk.load(Ordering::Relaxed),
    );
    assert!(
        sunk > 1_000_000,
        "a saturated chain moved only {sunk} records"
    );
    assert_eq!(generated, sunk, "records lost or duplicated");
}
