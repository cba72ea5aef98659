//! Macro-tick fast-forward: detection and replay bookkeeping for ticks the
//! [`FluidEngine`](crate::engine::FluidEngine) can prove repeat.
//!
//! The scenario matrix's workloads are piecewise-constant, so between
//! workload phases and control decisions almost every tick performs the same
//! float operations as the one before it. The engine *arms* a transition
//! when it has proved that, and from then on replays only the operations
//! whose results accumulate. One armed transition is a set of recorded,
//! replayable operations — accumulator addends, sink latency samples, the
//! epoch-frontier offset, backlog addends and per-queue drift operations —
//! and one function replays all of it; a fixed point is the case with no
//! backlog and no queue operations.
//!
//! # Proof obligations
//!
//! A tick is a pure function of the fluid state (queues, durable backlogs,
//! window buffers, the Heron signal) and of inputs that are frozen while a
//! transition is armed: no pending rescale (or, for the halted step, the
//! same one), no windowed operators, zero service noise, every source
//! schedule inside a constant phase (which also freezes the spill factors).
//! All comparisons below are bitwise; nothing is tolerance-based, and
//! anything unproven keeps executing full ticks.
//!
//! * **Fixed point** (`StepKind::Steady`). The post-tick state equals the
//!   pre-tick state with every queued span's emission tag advanced by one
//!   tick (untagged engines have no observable tags and compare totals
//!   only). The tick function is shift-equivariant, so one confirmed shift
//!   step proves every later tick of the phase repeats it.
//!
//! * **Drifting queues** (`StepKind::Drift`; untagged Flink-mode engines).
//!   Everything is bitwise unchanged *except* the lengths of some queues.
//!   A tick reads a queue's length in exactly these places:
//!   1. the drain `len.min(cap_inst)` and `amount.min(total)` in
//!      `pop_into` — equal to `cap_inst` resp. the requested amount while
//!      `total > cap_inst`;
//!   2. the pop branch `front.records <= remaining + 1e-12` — the partial
//!      branch while the single span's `records > cap_inst >= take`;
//!   3. `space()` in the upstream `emit.min(limit / weight)` /
//!      `want_total > limit` flow control — not the binding term while the
//!      space left after the drain exceeds everything the tick pushes;
//!   4. `records >= space` in `push` — unclamped under the same condition.
//!
//!   The *drain guard* (1, 2) and the *space guard* (3, 4), each with a
//!   slack of `GUARD_SLACK` × capacity — ten orders of magnitude above the
//!   rounding error of the quantities compared, so a guard that passes
//!   decides every one of those comparisons the way the probe tick did —
//!   therefore make the tick independent of the drifting lengths: all
//!   flows, addends and pushes repeat bitwise, and the queue itself sees
//!   `records -= take; total -= take` followed by `records += x;
//!   total += x` per push. The probe tick logs exactly those operands
//!   (`QueueLog`); the engine arms when both guards hold on the state
//!   before *and* after the probe tick, and replay re-checks them on the
//!   current state before every replayed tick, then applies the logged
//!   operations verbatim. Queue lengths (and so every timeline sample and
//!   later full tick) are bitwise those of tick-by-tick execution; there is
//!   no closed-form horizon and no rounding argument. The first failing
//!   guard ends the replay and the tick it refused runs in full.
//!   Tagged engines stay on the fixed-point test (a tagged drifting queue
//!   grows a span per tick), as does Heron mode (its watermark comparisons
//!   read the fill level too).
//!
//! * **Halted stretch** (`StepKind::Halted`; every engine mode). While a
//!   redeployment is pending a tick touches nothing but `wait_input_ns +=
//!   tick_ns` per accumulator class and `backlog += offered` per durable
//!   source, and performs no epoch advance. After one fully executed halted
//!   tick those addends are armed for ticks that end before the deployment
//!   lands (the deploy tick always runs in full) and start before the next
//!   schedule change. `offered` is taken from the executed tick, so the
//!   engine arms only if the next tick offers bitwise the same: a rate
//!   change that is not tick-aligned falls *inside* a tick, which then
//!   still offers the old rate while `next_change_after` already reports
//!   the change after it.
//!
//! Replay builds every sum by repeated addition of the recorded addends —
//! the float operations of tick-by-tick execution, never a multiplied
//! approximation. Rescale requests invalidate any armed transition; a class
//! split or a spill-phase flip deploys through the rescale path or happens
//! at a phase boundary, so neither can occur inside a replayed window.

use crate::engine::InstanceAcc;
use crate::queue::Span;

/// Counters describing how much work fast-forward saved (and spent).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FastForwardStats {
    /// Fully executed ticks (including probe ticks).
    pub full_ticks: u64,
    /// Probe attempts (full ticks run with delta capture enabled).
    pub probes: u64,
    /// Probes whose post-state was neither a shift of the pre-state nor a
    /// guarded drift step.
    pub probe_failures: u64,
    /// Ticks replayed from an armed transition, of every kind.
    pub replayed_ticks: u64,
    /// Of `replayed_ticks`, those replayed from a drift step.
    pub drift_ticks: u64,
    /// Of `replayed_ticks`, those replayed while halted for redeployment.
    pub halted_ticks: u64,
}

impl std::ops::AddAssign for FastForwardStats {
    fn add_assign(&mut self, other: Self) {
        self.full_ticks += other.full_ticks;
        self.probes += other.probes;
        self.probe_failures += other.probe_failures;
        self.replayed_ticks += other.replayed_ticks;
        self.drift_ticks += other.drift_ticks;
        self.halted_ticks += other.halted_ticks;
    }
}

/// What kind of repeating tick an armed transition replays.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) enum StepKind {
    /// Post-state == pre-state (shifted by one tick).
    #[default]
    Steady,
    /// Post-state == pre-state except guarded, linearly drifting queues.
    Drift,
    /// The job is down: only waits and durable backlogs accumulate, and
    /// virtual time passes without an epoch advance.
    Halted,
}

/// One queue's structural state before a probe tick.
#[derive(Debug, Clone, Copy)]
pub(crate) struct QueueMark {
    pub(crate) spans: u32,
    pub(crate) total: f64,
    /// Records of the only span (`None` unless the queue held exactly one).
    pub(crate) sole_records: Option<f64>,
}

/// Compact copy of the engine's structural fluid state, captured before a
/// probe tick and compared (shifted) against the state after it.
///
/// Buffers are recycled across probes; a capture never allocates once the
/// vectors have grown to the dataflow's size.
#[derive(Debug, Default)]
pub(crate) struct Fingerprint {
    /// One mark per queue, in engine walk order.
    pub(crate) queues: Vec<QueueMark>,
    /// All spans, concatenated in the same walk order.
    pub(crate) spans: Vec<Span>,
    /// Durable backlog per operator id.
    pub(crate) backlog: Vec<f64>,
    /// Buffered window output per operator id.
    pub(crate) window_pending: Vec<f64>,
    /// Heron spout-pausing signal.
    pub(crate) heron_backpressure: bool,
}

impl Fingerprint {
    pub(crate) fn clear(&mut self) {
        self.queues.clear();
        self.spans.clear();
        self.backlog.clear();
        self.window_pending.clear();
        self.heron_backpressure = false;
    }
}

/// What a probe tick did to the partition-class queues: the drain each was
/// asked for and every push it received, in execution order. Written only by
/// the probe instantiation of the tick path — plain ticks carry no logging
/// code at all.
#[derive(Debug, Default)]
pub(crate) struct QueueLog {
    /// Walk-order index of each operator's first class queue.
    pub(crate) class_base: Vec<u32>,
    /// `(cap_inst, take)` per queue, by walk-order index.
    pub(crate) drains: Vec<(f64, f64)>,
    /// `(queue, records)` per positive push, in execution order.
    pub(crate) pushes: Vec<(u32, f64)>,
}

impl QueueLog {
    /// Empties the log for a dataflow whose queues were just fingerprinted.
    pub(crate) fn reset(&mut self, queues: usize) {
        self.drains.clear();
        self.drains.resize(queues, (0.0, 0.0));
        self.pushes.clear();
    }
}

/// Guard slack as a fraction of the queue capacity: rounding error in the
/// guarded comparisons is below `1e-15` × capacity.
const GUARD_SLACK: f64 = 1e-6;

/// The recorded per-tick operations of one drifting queue, with the bounds
/// inside which they are the operations a full tick performs.
#[derive(Debug, Clone, Copy)]
pub(crate) struct DriftQueue {
    /// Operator id index and class index of the queue.
    pub(crate) op: u32,
    pub(crate) class: u32,
    /// Records drained per tick (`0.0` when the tick drained none).
    pub(crate) take: f64,
    /// This queue's pushes, as a range of [`FastForward::drift_pushes`].
    pub(crate) pushes: (u32, u32),
    /// Drain guard: `total` and the span's `records` must exceed this.
    floor: f64,
    /// Space guard: `total` must stay below this.
    ceiling: f64,
}

impl DriftQueue {
    /// Builds the drift operations of queue `index` (`class` of `op`) from
    /// the probe log, appending its pushes to `pushes_out`. `None` when the
    /// logged drain is one `pop_into` might skip as dust.
    pub(crate) fn from_log(
        log: &QueueLog,
        index: u32,
        (op, class): (usize, usize),
        capacity: f64,
        pushes_out: &mut Vec<f64>,
    ) -> Option<Self> {
        let slack = GUARD_SLACK * capacity;
        let (cap_inst, take) = log.drains[index as usize];
        // A non-positive take pops nothing; in between, `pop_into`'s own
        // dust threshold decides — not a case worth proving.
        let take = if take > 0.0 { take } else { 0.0 };
        if take != 0.0 && take <= slack {
            return None;
        }
        let from = pushes_out.len();
        pushes_out.extend(
            log.pushes
                .iter()
                .filter(|(queue, _)| *queue == index)
                .map(|(_, x)| x),
        );
        let pushed: f64 = pushes_out[from..].iter().sum();
        Some(Self {
            op: op as u32,
            class: class as u32,
            take,
            pushes: (from as u32, pushes_out.len() as u32),
            floor: cap_inst + slack,
            // capacity - (total - take) - pushed > slack
            ceiling: capacity + take - pushed - slack,
        })
    }

    /// Whether a tick starting from the single-span state `(records,
    /// total)` performs exactly the recorded operations.
    pub(crate) fn admits(&self, records: Option<f64>, total: f64) -> bool {
        records.is_some_and(|r| r > self.floor) && total > self.floor && total < self.ceiling
    }
}

/// Total-span budget for one fingerprint: a capture walking more spans
/// than this aborts. Well-provisioned fixed points keep one span per
/// upstream path; *saturated* fixed points (a permanently backpressured
/// queue in equilibrium pops exactly one span per tick and appends one) sit
/// at the queue's 256-span merge bound, so the budget must admit a few
/// full queues while still bounding the cost of hopeless probes.
pub(crate) const MAX_FINGERPRINT_SPANS: usize = 8_192;

/// Failed probes back off exponentially up to this many ticks, bounding
/// detection overhead during transients to a few percent while costing at
/// most this many full ticks of missed replay once a steady state forms.
pub(crate) const MAX_PROBE_COOLDOWN: u32 = 32;

/// The fast-forward state machine owned by the engine.
#[derive(Debug, Default)]
pub(crate) struct FastForward {
    /// `true` when a transition has been confirmed and not yet invalidated.
    armed: bool,
    /// Which kind of step is armed.
    pub(crate) kind: StepKind,
    /// First tick *start* time at which the armed transition no longer
    /// applies (the next source-schedule phase boundary, or one tick before
    /// a pending deployment lands).
    valid_until_ns: u64,
    /// Per-class accumulator addends, flat in engine walk order (a probe
    /// tick runs with accumulators zeroed, so each addend is exactly what
    /// the tick applied).
    pub(crate) deltas: Vec<InstanceAcc>,
    /// Accumulator values saved while a probe tick runs from zero.
    pub(crate) saved: Vec<InstanceAcc>,
    /// Latency samples the probe tick appended (one tick's worth).
    pub(crate) latency: Vec<(u64, f64)>,
    /// `now - frontier` at the probe tick's end; `None` when the dataflow
    /// was fully drained. The offset is shift-invariant, so the replayed
    /// frontier is `now - offset` each tick.
    pub(crate) frontier_offset: Option<u64>,
    /// Durable-backlog addends `(operator id index, records)`; non-empty
    /// only for a halted step.
    pub(crate) backlog_addends: Vec<(usize, f64)>,
    /// Drifting queues of a drift step (empty otherwise).
    pub(crate) drift: Vec<DriftQueue>,
    /// The drifting queues' pushes, concatenated.
    pub(crate) drift_pushes: Vec<f64>,
    /// Pre-probe structural state (recycled buffer).
    pub(crate) fingerprint: Fingerprint,
    /// Queue operations of the probe tick (recycled buffer).
    pub(crate) log: QueueLog,
    /// Full ticks to wait before the next probe attempt.
    cooldown: u32,
    /// Next cooldown on failure (exponential, capped).
    next_cooldown: u32,
    /// Work counters.
    pub(crate) stats: FastForwardStats,
}

impl FastForward {
    /// Whether an armed transition covers a tick starting at `now_ns`.
    pub(crate) fn can_replay(&self, now_ns: u64) -> bool {
        self.armed && now_ns < self.valid_until_ns
    }

    /// How many consecutive ticks starting at `now_ns` are replayable: each
    /// must *end* at or before `horizon_ns` and *start* inside the armed
    /// window (strictly before `valid_until_ns`).
    pub(crate) fn replayable_ticks(&self, now_ns: u64, tick_ns: u64, horizon_ns: u64) -> u64 {
        if !self.can_replay(now_ns) {
            return 0;
        }
        let by_horizon = horizon_ns.saturating_sub(now_ns) / tick_ns;
        let by_phase = (self.valid_until_ns - now_ns).div_ceil(tick_ns);
        by_horizon.min(by_phase)
    }

    /// Whether the engine should attempt a probe this tick. Counts down
    /// the failure cooldown as a side effect.
    pub(crate) fn should_probe(&mut self) -> bool {
        if self.armed {
            return false;
        }
        if self.cooldown > 0 {
            self.cooldown -= 1;
            return false;
        }
        true
    }

    /// Arms replay of the recorded `kind` of step, valid for ticks starting
    /// before `valid_until_ns`. Operations only the other kinds record are
    /// dropped, so one replay path serves all of them.
    pub(crate) fn arm(&mut self, kind: StepKind, valid_until_ns: u64) {
        match kind {
            StepKind::Halted => self.drift.clear(),
            StepKind::Steady | StepKind::Drift => self.backlog_addends.clear(),
        }
        self.armed = true;
        self.kind = kind;
        self.valid_until_ns = valid_until_ns;
        self.cooldown = 0;
        self.next_cooldown = 1;
    }

    /// Records a failed probe and backs off.
    pub(crate) fn probe_failed(&mut self) {
        self.stats.probe_failures += 1;
        let cooldown = self.next_cooldown.max(1);
        self.cooldown = cooldown;
        self.next_cooldown = (cooldown * 2).min(MAX_PROBE_COOLDOWN);
    }

    /// Drops any armed transition (rescale requested, phase boundary
    /// reached, a drift guard failed, or an externally driven exact tick).
    /// Probing restarts immediately: invalidation means the world changed,
    /// not that the search was failing.
    pub(crate) fn invalidate(&mut self) {
        self.armed = false;
        self.cooldown = 0;
        self.next_cooldown = 1;
    }

    /// `true` while replay is armed (for tests and diagnostics).
    pub(crate) fn is_armed(&self) -> bool {
        self.armed
    }

    /// Counts `ticks` replayed ticks of the armed kind.
    pub(crate) fn count_replayed(&mut self, ticks: u64) {
        self.stats.replayed_ticks += ticks;
        match self.kind {
            StepKind::Steady => {}
            StepKind::Drift => self.stats.drift_ticks += ticks,
            StepKind::Halted => self.stats.halted_ticks += ticks,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cooldown_backs_off_and_caps() {
        let mut ff = FastForward::default();
        assert!(ff.should_probe(), "first probe is immediate");
        ff.probe_failed();
        assert!(!ff.should_probe(), "cooldown 1 blocks the next tick");
        assert!(ff.should_probe());
        ff.probe_failed(); // cooldown 2
        assert!(!ff.should_probe());
        assert!(!ff.should_probe());
        assert!(ff.should_probe());
        for _ in 0..10 {
            ff.probe_failed();
        }
        let mut blocked = 0;
        while !ff.should_probe() {
            blocked += 1;
        }
        assert_eq!(blocked, MAX_PROBE_COOLDOWN, "cooldown capped");
    }

    #[test]
    fn arm_and_invalidate() {
        let mut ff = FastForward::default();
        ff.arm(StepKind::Steady, 1_000);
        assert!(ff.can_replay(999));
        assert!(!ff.can_replay(1_000), "valid_until is exclusive");
        assert!(!ff.should_probe(), "armed state never probes");
        ff.invalidate();
        assert!(!ff.can_replay(0));
        assert!(ff.should_probe(), "invalidation resets the cooldown");
    }

    /// The two drift guards bound the linear regime from both sides, and a
    /// dust-sized drain is refused outright.
    #[test]
    fn drift_guards_bound_the_linear_regime() {
        let log = QueueLog {
            class_base: vec![0],
            drains: vec![(700.0, 600.0)],
            pushes: vec![(0, 400.0), (1, 9.0), (0, 290.0)],
        };
        let mut pushes = Vec::new();
        let d = DriftQueue::from_log(&log, 0, (3, 1), 5_000.0, &mut pushes).unwrap();
        assert_eq!((d.op, d.class, d.take), (3, 1, 600.0));
        assert_eq!(pushes, vec![400.0, 290.0], "only this queue's pushes");
        assert!(d.admits(Some(2_000.0), 2_000.0));
        assert!(!d.admits(None, 2_000.0), "not a single span");
        assert!(
            !d.admits(Some(700.0), 2_000.0),
            "span at one tick's service"
        );
        assert!(
            !d.admits(Some(2_000.0), 700.0),
            "total at one tick's service"
        );
        // After the drain 5000 - (total - 600) must exceed the 690 pushed.
        assert!(d.admits(Some(4_909.0), 4_909.0));
        assert!(!d.admits(Some(4_910.0), 4_910.0), "a push would clamp");

        let dust = QueueLog {
            class_base: vec![0],
            drains: vec![(700.0, 1e-9)],
            pushes: vec![],
        };
        assert!(DriftQueue::from_log(&dust, 0, (0, 0), 5_000.0, &mut pushes).is_none());
    }
}
