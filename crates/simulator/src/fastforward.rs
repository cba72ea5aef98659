//! Macro-tick fast-forward: detection and replay bookkeeping for ticks the
//! [`FluidEngine`](crate::engine::FluidEngine) can prove repeat.
//!
//! The scenario matrix's workloads are piecewise-constant, so between
//! workload phases and control decisions the engine does the same float
//! operations over and over: every tick when nothing is windowed, every
//! window period when something is. The engine *arms* a transition when it
//! has proved that, and from then on replays only the operations whose
//! results accumulate. One armed transition is a **cycle** of `k` recorded
//! ticks — per phase the accumulator addends and the drifting queues'
//! operations, plus backlog addends — and one function replays all of it.
//! `k` is the least common multiple of the window periods in ticks; a
//! dataflow without windows is the case `k = 1`, a fixed point the case
//! with no queue operations, a halted stretch the case with nothing but
//! waits.
//!
//! One call takes every decision,
//! [`FluidEngine::advance`](crate::engine::FluidEngine::advance): it
//! replays an armed transition up to the caller's horizon (at least one
//! tick), or else runs one full or probe tick and arms a halted step.
//!
//! Only engines that record neither latency nor epochs probe: an engine
//! that records them executes every tick except those of a halt, so replay
//! never records a latency sample or advances an epoch, and nothing a probed
//! engine reports reads the emission intervals of its queues' runs.
//!
//! # Proof obligations
//!
//! A tick is a pure function of the fluid state (queues, durable backlogs,
//! window buffers and firing times, the Heron signal) and of inputs that
//! are frozen while a transition is armed: no pending rescale (or, for the
//! halted step, the same one), zero service noise, every source schedule
//! inside a constant phase (which also freezes the spill factors). All
//! comparisons below are bitwise; nothing is tolerance-based, and anything
//! unproven keeps executing full ticks.
//!
//! * **Cycle.** A probe records `k` consecutive ticks — each with its
//!   accumulators started from zero, so what they hold afterwards is that
//!   tick's addends — and the structural state before the first and after
//!   every one of them (`Fingerprint`, one row per tick boundary). If the
//!   last row equals the first, the `k`-tick map has a fixed point there:
//!   the inputs are time-invariant, so the trajectory repeats tick for
//!   tick, phase `j` of every later cycle doing what probe tick `j` did.
//!   "Equals" means: every queue's `total` and run's `records` (or its
//!   lack of one), every backlog and window buffer bitwise; every window's
//!   firing time by its distance from now (`next_fire_ns - now_ns`, which
//!   is why a window period must be a whole number of ticks); and whether
//!   a window buffer holds a run.
//!
//!   The runs' `born_ns` stamps are not compared, yet one thing a tick
//!   does depends on them: the chunks an operator drains from its *class*
//!   queues are merged before routing iff their stamps agree, and a push of
//!   `a + b` rounds differently from two. A float state can repeat before
//!   those relations have settled — a window flush re-creates queues in
//!   bursts, and a run can outlive a drain by less than the next push
//!   rounds away — so `Fingerprint::class_tags_settled` refuses such a
//!   cycle, whatever its length. Replay of a longer cycle restores each
//!   row's queues, stamps included; a one-tick cycle keeps the stamps its
//!   probe ended with, which stand to each other as those of every later
//!   tick would.
//!
//! * **Constant `TickStats`.** The sources must have offered and emitted
//!   bitwise the same, and the backpressure flag read the same, in all `k`
//!   ticks. Nothing in the engine needs that — the addends are per phase —
//!   but callers aggregate per tick from [`last_tick`] and read it once
//!   per replayed batch, and that contract is kept rather than widened.
//!
//! * **Drifting queues** (Flink-mode engines). Everything cycles
//!   *except* the lengths of some queues. A tick reads a queue's length in
//!   exactly these places:
//!   1. the drain `len.min(cap_inst)` and `amount.min(total)` in `pop` —
//!      equal to `cap_inst` resp. the requested amount while
//!      `total > cap_inst`;
//!   2. the pop branch `run.records <= remaining + 1e-12` — the partial
//!      branch while the run's `records > cap_inst >= take`;
//!   3. `space()` in the upstream `emit.min(limit / weight)` /
//!      `want_total > limit` flow control and in a window flush's
//!      `(pending * weight).min(accept)` — not the binding term while the
//!      space left after the drain exceeds everything the tick pushes;
//!   4. `records >= space` in `push` — unclamped under the same condition;
//!   5. `space()` in `output_fits`, the multiply-only test ahead of 3 — it
//!      changes no float result: it only chooses whether 3's limit is
//!      computed, and says "fits" only where that limit cannot bind.
//!
//!   The *drain guard* (1, 2) and the *space guard* (3, 4), each with a
//!   slack of `GUARD_SLACK` × capacity — ten orders of magnitude above the
//!   rounding error of the quantities compared, so a guard that passes
//!   decides every one of those comparisons the way the probe tick did —
//!   therefore make the tick independent of the drifting lengths: all
//!   flows, addends and pushes repeat bitwise, and the queue itself sees
//!   `records -= take; total -= take` followed by `records += x;
//!   total += x` per push. The probe logs exactly those operands per tick
//!   (`QueueLog`; a window flush is routed and logged like any other
//!   push). **The guards are per phase**: phase `j`'s are built from probe
//!   tick `j`'s drain and pushes — the tick that receives a flush has a
//!   much lower ceiling than the nineteen that do not — and must hold on
//!   the state before probe tick `j`; the state the cycle ends in must
//!   admit phase 0 again. Replay re-checks phase `j`'s guards on the
//!   current state before every replayed tick of phase `j`, then applies
//!   that tick's logged operations verbatim. Queue lengths (and so every
//!   timeline sample and later full tick) are bitwise those of
//!   tick-by-tick execution; there is no closed-form horizon and no
//!   rounding argument. The first failing guard ends the replay — in the
//!   middle of a cycle if need be — and the tick it refused runs in full.
//!   Heron mode stays on the fixed-point test (its watermark comparisons
//!   read the fill level too).
//!
//! * **Marks per batch, drift per tick.** What cycles is a function of the
//!   phase alone, so replay does not walk it through the ticks: once per
//!   batch it sets queues, backlogs and window buffers to the row recorded
//!   after the last replayed phase and the firing times to `now` plus
//!   their recorded distance. What drifts is a function of how many ticks
//!   were replayed, and its guards read it, so it is advanced tick by
//!   tick. The accumulator sums are order-sensitive floats and get every
//!   phase's addend in phase order.
//!
//! * **Halted stretch** (every engine mode). While a redeployment is
//!   pending a tick touches nothing but `wait_input_ns += tick_ns` per
//!   accumulator class and `backlog += offered` per durable source, and
//!   performs no epoch advance and no window firing. After one fully
//!   executed halted tick those addends are armed as a one-tick cycle for
//!   ticks that end before the deployment lands (the deploy tick always
//!   runs in full) and start before the next schedule change. `offered` is
//!   taken from the executed tick, so the engine arms only if the next
//!   tick offers bitwise the same: a rate change that is not tick-aligned
//!   falls *inside* a tick, which then still offers the old rate while
//!   `next_change_after` already reports the change after it.
//!
//! A probe starts only if its `k` ticks and one replayed tick fit before
//! the next schedule change, and spans whatever the caller does between
//! ticks that leaves the dataflow alone: closing a metrics window zeroes
//! the accumulators, which the per-tick save and restore never notices.
//! Replay builds every sum by repeated addition of the recorded addends —
//! the float operations of tick-by-tick execution, never a multiplied
//! approximation. Rescale requests cancel a running probe and invalidate
//! any armed transition; a class split or a spill-phase flip deploys
//! through the rescale path or happens at a phase boundary, so neither can
//! occur inside a probed or replayed window.
//!
//! [`last_tick`]: crate::engine::FluidEngine::last_tick

use crate::engine::InstanceAcc;
use crate::queue::{EpochQueue, Span};

/// Counters describing how much work fast-forward saved (and spent).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FastForwardStats {
    /// Fully executed ticks (including probe ticks).
    pub full_ticks: u64,
    /// Probe attempts (one per cycle recorded, however many ticks it spans).
    pub probes: u64,
    /// Probes whose cycle neither returned to its starting state nor
    /// differed from it by guarded drift only.
    pub probe_failures: u64,
    /// Ticks replayed from an armed transition, of every kind.
    pub replayed_ticks: u64,
    /// Of `replayed_ticks`, those replayed from a one-tick cycle with
    /// drifting queues.
    pub drift_ticks: u64,
    /// Of `replayed_ticks`, those replayed while halted for redeployment.
    pub halted_ticks: u64,
    /// Of `replayed_ticks`, those replayed from a cycle longer than one
    /// tick (windowed dataflows), drifting queues or not.
    pub cycle_ticks: u64,
}

impl std::ops::AddAssign for FastForwardStats {
    fn add_assign(&mut self, other: Self) {
        self.full_ticks += other.full_ticks;
        self.probes += other.probes;
        self.probe_failures += other.probe_failures;
        self.replayed_ticks += other.replayed_ticks;
        self.drift_ticks += other.drift_ticks;
        self.halted_ticks += other.halted_ticks;
        self.cycle_ticks += other.cycle_ticks;
    }
}

/// Whether two copies of a queue hold bitwise the same counts. `total`
/// alone is not enough: a clamped push sets `total` to the capacity while
/// the run accumulates `records`, so the two can part ways, and `pop`
/// branches on `records`. The stamps are not compared: see
/// [`Fingerprint::class_tags_settled`].
pub(crate) fn same(a: &EpochQueue, b: &EpochQueue) -> bool {
    let records = |q: &EpochQueue| q.run.map(|r| r.records.to_bits());
    a.len().to_bits() == b.len().to_bits() && records(a) == records(b)
}

/// One operator's structural state outside its queues at a tick boundary.
#[derive(Debug, Clone, Copy)]
pub(crate) struct OpMark {
    /// Durable backlog (sources).
    pub(crate) backlog: f64,
    /// Buffered window output.
    pub(crate) window: Option<Span>,
    /// `next_fire_ns - now_ns`, wrapping (`0` for operators without a
    /// window).
    pub(crate) fire_in: u64,
}

impl OpMark {
    /// Whether a tick starting from `later` does what one starting from
    /// `self` did: everything bitwise equal, the firing time by its
    /// distance from now, the window buffer by its presence and records
    /// (its stamps only label what a flush pushes).
    pub(crate) fn repeats(&self, later: &Self) -> bool {
        let window = |m: &Self| m.window.map(|w| w.records.to_bits());
        self.backlog.to_bits() == later.backlog.to_bits()
            && window(self) == window(later)
            && self.fire_in == later.fire_in
    }
}

/// Compact copies of the engine's structural fluid state: row 0 is the
/// state before a probe's first tick, row `j + 1` the state after its tick
/// `j`. The cycle test compares the last row against row 0, drift guards
/// are checked on every pair of adjacent rows, and replay restores the row
/// of the last replayed phase.
///
/// Buffers are recycled across probes; a capture never allocates once the
/// vectors have grown to the dataflow's size times the cycle length.
#[derive(Debug, Default)]
pub(crate) struct Fingerprint {
    /// One copy of each queue, in engine walk order, row after row.
    pub(crate) queues: Vec<EpochQueue>,
    /// Queues per row.
    pub(crate) width: usize,
    /// One mark per operator id, row after row.
    pub(crate) ops: Vec<OpMark>,
    /// Heron spout-pausing signal before the probe.
    pub(crate) heron_backpressure: bool,
}

impl Fingerprint {
    pub(crate) fn clear(&mut self) {
        self.queues.clear();
        self.ops.clear();
    }

    /// Whether the `born_ns` stamps of one operator's class queues —
    /// `classes` queues from walk-order index `first` — stand to each
    /// other, in every row, in a way every later cycle keeps (a tick merges
    /// the chunks it drains from them iff their stamps agree; see the module
    /// docs). Two classes do when their stamps agree in every row where
    /// both hold a run (they are always re-created together, by the same
    /// push), or when the one with the smaller stamp keeps its run through
    /// every tick of the cycle — its stamp then never changes, and the
    /// other's only grows. Whether a run survives a tick is read off the
    /// `logged` drains; without a log only agreement counts.
    pub(crate) fn class_tags_settled(
        &self,
        log: &QueueLog,
        logged: bool,
        first: usize,
        classes: usize,
    ) -> bool {
        let rows = self.queues.len() / self.width;
        let mark = |row: usize, class: usize| &self.queues[row * self.width + first + class];
        let keeps_its_span = |class: usize| {
            logged
                && (0..rows - 1).all(|phase| {
                    let (_, take) = log.drain(phase, first + class);
                    // The partial-pop branch of `pop`.
                    mark(phase, class)
                        .run
                        .is_some_and(|run| run.records > take + 1e-12)
                })
        };
        (0..classes).all(|c| {
            (c + 1..classes).all(|d| {
                let (mut agree, mut c_older, mut d_older) = (true, true, true);
                for row in 0..rows {
                    if let (Some(a), Some(b)) = (mark(row, c).run, mark(row, d).run) {
                        agree &= a.born_ns == b.born_ns;
                        c_older &= a.born_ns < b.born_ns;
                        d_older &= b.born_ns < a.born_ns;
                    }
                }
                agree
                    || (c_older && keeps_its_span(c))
                    || (d_older && keeps_its_span(d))
                    || (keeps_its_span(c) && keeps_its_span(d))
            })
        })
    }
}

/// What the ticks of a probe did to the partition-class queues: the drain
/// each was asked for and every push it received, in execution order.
/// Written only by the probe instantiation of the tick path — plain ticks
/// carry no logging code at all.
#[derive(Debug, Default)]
pub(crate) struct QueueLog {
    /// Walk-order index of each operator's first class queue.
    pub(crate) class_base: Vec<u32>,
    /// `(cap_inst, take)` per queue by walk-order index, one row per tick.
    pub(crate) drains: Vec<(f64, f64)>,
    /// Queues per row, and where the running tick's row starts.
    queues: usize,
    pub(crate) row: usize,
    /// `(queue, records)` per positive push, in execution order.
    pub(crate) pushes: Vec<(u32, f64)>,
    /// Length of `pushes` at the end of each finished tick.
    push_ends: Vec<usize>,
}

impl QueueLog {
    /// Empties the log for a new probe.
    pub(crate) fn clear(&mut self) {
        self.class_base.clear();
        self.drains.clear();
        self.pushes.clear();
        self.push_ends.clear();
    }

    /// Opens the row of a tick over `queues` queues.
    pub(crate) fn begin_tick(&mut self, queues: usize) {
        self.queues = queues;
        self.row = self.drains.len();
        self.drains.resize(self.row + queues, (0.0, 0.0));
    }

    pub(crate) fn end_tick(&mut self) {
        self.push_ends.push(self.pushes.len());
    }

    /// The `(cap_inst, take)` logged for queue `index` in finished tick
    /// `phase`.
    fn drain(&self, phase: usize, index: usize) -> (f64, f64) {
        self.drains[phase * self.queues + index]
    }

    /// The pushes of finished tick `phase`.
    fn pushes(&self, phase: usize) -> &[(u32, f64)] {
        let from = phase.checked_sub(1).map_or(0, |p| self.push_ends[p]);
        &self.pushes[from..self.push_ends[phase]]
    }
}

/// Guard slack as a fraction of the queue capacity: rounding error in the
/// guarded comparisons is below `1e-15` × capacity.
const GUARD_SLACK: f64 = 1e-6;

/// The recorded operations of one drifting queue in one phase of the
/// cycle, with the bounds inside which they are the operations a full tick
/// performs.
#[derive(Debug, Clone, Copy)]
pub(crate) struct DriftQueue {
    /// Operator id index and class index of the queue.
    pub(crate) op: u32,
    pub(crate) class: u32,
    /// Records drained (`0.0` when the tick drained none).
    pub(crate) take: f64,
    /// This queue's pushes, as a range of [`FastForward::drift_pushes`].
    pub(crate) pushes: (u32, u32),
    /// Drain guard: `total` and the run's `records` must exceed this.
    floor: f64,
    /// Space guard: `total` must stay below this.
    ceiling: f64,
}

impl DriftQueue {
    /// Builds the drift operations of queue `index` from tick `phase` of
    /// the probe log, appending its pushes to `pushes_out`. `None` when the
    /// logged drain is one `pop` might skip as dust.
    pub(crate) fn from_log(
        log: &QueueLog,
        phase: usize,
        index: u32,
        (op, class): (u32, u32),
        capacity: f64,
        pushes_out: &mut Vec<f64>,
    ) -> Option<Self> {
        let slack = GUARD_SLACK * capacity;
        let (cap_inst, take) = log.drain(phase, index as usize);
        // A non-positive take pops nothing; in between, `pop`'s own
        // dust threshold decides — not a case worth proving.
        let take = if take > 0.0 { take } else { 0.0 };
        if take != 0.0 && take <= slack {
            return None;
        }
        let from = pushes_out.len();
        pushes_out.extend(
            log.pushes(phase)
                .iter()
                .filter(|(queue, _)| *queue == index)
                .map(|(_, x)| x),
        );
        let pushed: f64 = pushes_out[from..].iter().sum();
        Some(Self {
            op,
            class,
            take,
            pushes: (from as u32, pushes_out.len() as u32),
            floor: cap_inst + slack,
            // capacity - (total - take) - pushed > slack
            ceiling: capacity + take - pushed - slack,
        })
    }

    /// Whether a tick starting from a queue whose run holds `records`
    /// (`None`: no run) and whose `total` is given performs exactly the
    /// recorded operations.
    pub(crate) fn admits(&self, records: Option<f64>, total: f64) -> bool {
        records.is_some_and(|r| r > self.floor) && total > self.floor && total < self.ceiling
    }
}

/// Failed probes back off exponentially up to this many ticks, bounding
/// detection overhead during transients to a few percent while costing at
/// most this many full ticks of missed replay once a steady state forms.
pub(crate) const MAX_PROBE_COOLDOWN: u32 = 32;

/// Longest cycle a probe records, in ticks: bounds the fingerprint rows and
/// the full ticks one hopeless probe can cost.
const MAX_CYCLE_TICKS: u64 = 512;

/// The number of ticks after which windows firing every `periods` repeat
/// their pattern: the least common multiple of the periods in ticks (`1`
/// without windows). `None` when a period is not a whole number of ticks
/// or the cycle is longer than a probe records.
pub(crate) fn cycle_length(tick_ns: u64, periods: impl Iterator<Item = u64>) -> Option<u32> {
    let mut cycle = 1u64;
    for period in periods {
        let ticks = period / tick_ns;
        if ticks == 0 || period % tick_ns != 0 || ticks > MAX_CYCLE_TICKS {
            return None;
        }
        let (mut a, mut b) = (cycle, ticks);
        while b != 0 {
            (a, b) = (b, a % b);
        }
        cycle = cycle / a * ticks;
        if cycle > MAX_CYCLE_TICKS {
            return None;
        }
    }
    Some(cycle as u32)
}

/// The fast-forward state machine owned by the engine.
#[derive(Debug, Default)]
pub(crate) struct FastForward {
    /// `true` when a transition has been confirmed and not yet invalidated.
    armed: bool,
    /// Whether the armed transition is a halted step (no cycling state).
    pub(crate) halted: bool,
    /// First tick *start* time at which the armed transition no longer
    /// applies (the next source-schedule phase boundary, or one tick before
    /// a pending deployment lands).
    valid_until_ns: u64,
    /// Ticks per cycle of the transition being probed or armed.
    pub(crate) cycle: u32,
    /// While probing: ticks recorded so far (`0` when no probe is running).
    /// While armed: the phase of the cycle the next replayed tick repeats.
    pub(crate) pos: u32,
    /// Per-class accumulator addends, phase after phase, each flat in
    /// engine walk order (a probe tick runs with accumulators zeroed, so
    /// each addend is exactly what the tick applied).
    pub(crate) deltas: Vec<InstanceAcc>,
    /// Accumulator values saved while a probe tick runs from zero.
    pub(crate) saved: Vec<InstanceAcc>,
    /// Durable-backlog addends `(operator id index, records)`; non-empty
    /// only for a halted step.
    pub(crate) backlog_addends: Vec<(usize, f64)>,
    /// `(walk-order index, operator id index, class index)` of the queues
    /// that drift, in walk order (empty for a pure cycle).
    pub(crate) drifting: Vec<(u32, u32, u32)>,
    /// The drifting queues' operations, phase after phase, each in the
    /// order of `drifting`.
    pub(crate) drift: Vec<DriftQueue>,
    /// The drifting queues' pushes, concatenated.
    pub(crate) drift_pushes: Vec<f64>,
    /// Structural state before the probe and after each of its ticks
    /// (recycled buffer).
    pub(crate) fingerprint: Fingerprint,
    /// Queue operations of the probe's ticks (recycled buffer).
    pub(crate) log: QueueLog,
    /// What the sources offered and emitted (bit patterns, per source) and
    /// the backpressure flag of the probe's first tick.
    pub(crate) source_stats: Vec<(u64, u64)>,
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

    /// Whether a probe has recorded some of its cycle's ticks and not all.
    pub(crate) fn probing(&self) -> bool {
        !self.armed && self.pos > 0
    }

    /// Whether the engine should start a probe this tick. Counts down the
    /// failure cooldown as a side effect.
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

    /// Arms replay of the recorded cycle (or halted step) from its first
    /// phase, valid for ticks starting before `valid_until_ns`. Operations
    /// only the other kind records are dropped, so one replay path serves
    /// both.
    pub(crate) fn arm(&mut self, halted: bool, valid_until_ns: u64) {
        if halted {
            self.cycle = 1;
            self.drifting.clear();
        } else {
            self.backlog_addends.clear();
        }
        self.armed = true;
        self.halted = halted;
        self.pos = 0;
        self.valid_until_ns = valid_until_ns;
        self.cooldown = 0;
        self.next_cooldown = 1;
    }

    /// Records a failed probe and backs off.
    pub(crate) fn probe_failed(&mut self) {
        self.stats.probe_failures += 1;
        self.pos = 0;
        let cooldown = self.next_cooldown.max(1);
        self.cooldown = cooldown;
        self.next_cooldown = (cooldown * 2).min(MAX_PROBE_COOLDOWN);
    }

    /// Drops any armed transition and any running probe (rescale requested,
    /// phase boundary reached, a drift guard failed, or an externally
    /// driven exact tick). Probing restarts immediately: invalidation means
    /// the world changed, not that the search was failing.
    pub(crate) fn invalidate(&mut self) {
        self.armed = false;
        self.pos = 0;
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
        if self.halted {
            self.stats.halted_ticks += ticks;
        } else if self.cycle > 1 {
            self.stats.cycle_ticks += ticks;
        } else if !self.drifting.is_empty() {
            self.stats.drift_ticks += ticks;
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
        ff.arm(false, 1_000);
        assert!(ff.can_replay(999));
        assert!(!ff.can_replay(1_000), "valid_until is exclusive");
        assert!(!ff.should_probe(), "armed state never probes");
        ff.invalidate();
        assert!(!ff.can_replay(0));
        assert!(ff.should_probe(), "invalidation resets the cooldown");
    }

    /// The two drift guards bound the linear regime from both sides, and a
    /// dust-sized drain is refused outright. The log holds two ticks; each
    /// phase reads its own row of drains and its own pushes.
    #[test]
    fn drift_guards_bound_the_linear_regime() {
        let mut log = QueueLog {
            class_base: vec![0],
            ..Default::default()
        };
        log.begin_tick(1);
        log.drains[log.row] = (700.0, 1e-9);
        log.pushes.push((0, 5.0));
        log.end_tick();
        log.begin_tick(1);
        log.drains[log.row] = (700.0, 600.0);
        log.pushes.extend([(0, 400.0), (1, 9.0), (0, 290.0)]);
        log.end_tick();

        let mut pushes = Vec::new();
        let d = DriftQueue::from_log(&log, 1, 0, (3, 1), 5_000.0, &mut pushes).unwrap();
        assert_eq!((d.op, d.class, d.take), (3, 1, 600.0));
        assert_eq!(pushes, vec![400.0, 290.0], "only this queue's pushes");
        assert!(d.admits(Some(2_000.0), 2_000.0));
        assert!(!d.admits(None, 2_000.0), "no run");
        assert!(!d.admits(Some(700.0), 2_000.0), "run at one tick's service");
        assert!(
            !d.admits(Some(2_000.0), 700.0),
            "total at one tick's service"
        );
        // After the drain 5000 - (total - 600) must exceed the 690 pushed.
        assert!(d.admits(Some(4_909.0), 4_909.0));
        assert!(!d.admits(Some(4_910.0), 4_910.0), "a push would clamp");

        assert!(DriftQueue::from_log(&log, 0, 0, (3, 1), 5_000.0, &mut pushes).is_none());
    }

    /// A saturated queue's `total` returns to the capacity with every
    /// clamped push while its run's `records` — `records + (capacity -
    /// total)`, rounded — need not: the copies must differ, or the cycle
    /// test would call a state repeated that `pop` can tell apart.
    #[test]
    fn marks_compare_the_span_records_not_only_the_total() {
        let mut q = EpochQueue::new(1_742.7);
        q.push(Span::at(0, 354.64));
        q.push(Span::at(0, 5_000.0));
        let before = q;
        q.pop::<false>(705.92);
        q.push(Span::at(0, 5_000.0));
        let after = q;
        let records = |q: &EpochQueue| q.run.map(|r| r.records.to_bits());
        assert!(records(&before).is_some() && records(&after).is_some());
        assert_eq!(before.len().to_bits(), after.len().to_bits());
        assert_ne!(
            records(&before),
            records(&after),
            "premise: the run drifted off the total"
        );
        assert!(same(&before, &before));
        assert!(!same(&before, &after), "the probe must refuse this cycle");
    }

    /// An operator's state repeats only if its window fires at the same
    /// distance from now; which stamps its buffer carries does not matter,
    /// whether it holds a run does.
    #[test]
    fn operator_marks_compare_firing_distance_and_tag_presence() {
        let mark = OpMark {
            backlog: 3.5,
            window: Some(Span::at(40, 120.0)),
            fire_in: 70,
        };
        assert!(mark.repeats(&OpMark {
            window: Some(Span::at(1_040, 120.0)),
            ..mark
        }));
        assert!(!mark.repeats(&OpMark {
            window: None,
            ..mark
        }));
        let unbuffered = OpMark {
            window: None,
            ..mark
        };
        assert!(!unbuffered.repeats(&OpMark {
            window: Some(Span::at(40, 0.0)),
            ..mark
        }));
        assert!(!mark.repeats(&OpMark {
            fire_in: 80,
            ..mark
        }));
        assert!(!mark.repeats(&OpMark {
            window: Some(Span::at(40, 120.00000000000001)),
            ..mark
        }));
        assert!(!mark.repeats(&OpMark {
            backlog: 0.0,
            ..mark
        }));
    }

    /// Two class queues keep the relation of their stamps when the stamps
    /// agree wherever both hold a run, or when the older one provably
    /// never empties; a cycle that starts with equal tags and ends with
    /// different ones (the younger class was re-created on the way) is the
    /// one whose next round merges differently.
    #[test]
    fn class_tags_must_stand_as_later_cycles_keep_them() {
        // Two queues, a cycle of two ticks (three rows); queue 0 is drained
        // of 10 records per tick, queue 1 of 30.
        let mut log = QueueLog::default();
        for _ in 0..2 {
            log.begin_tick(2);
            log.drains[log.row] = (10.0, 10.0);
            log.drains[log.row + 1] = (30.0, 30.0);
            log.end_tick();
        }
        let fingerprint = |rows: [[(f64, u64); 2]; 3]| Fingerprint {
            queues: rows
                .iter()
                .flatten()
                .map(|&(records, tag)| {
                    let mut q = EpochQueue::new(f64::INFINITY);
                    q.push(Span::at(tag, records));
                    q
                })
                .collect(),
            width: 2,
            ..Default::default()
        };
        let settled = |rows, logged| fingerprint(rows).class_tags_settled(&log, logged, 0, 2);

        // Always filled by the same push.
        let together = [
            [(50.0, 7), (20.0, 7)],
            [(50.0, 8), (20.0, 8)],
            [(50.0, 9), (20.0, 9)],
        ];
        assert!(settled(together, false));
        // Equal, then the second is re-created: the relation already moved.
        let parted = [
            [(50.0, 7), (20.0, 7)],
            [(50.0, 7), (20.0, 8)],
            [(50.0, 7), (20.0, 9)],
        ];
        assert!(!settled(parted, true));
        // The first holds 50 > 10 records before every tick: it keeps its
        // run and its older stamp for good — if the drains are known.
        let older = [
            [(50.0, 3), (20.0, 7)],
            [(50.0, 3), (20.0, 8)],
            [(50.0, 3), (20.0, 9)],
        ];
        assert!(settled(older, true));
        assert!(!settled(older, false), "no log, no proof that it persists");
        // Down to its last 10 records, the next drain takes the whole run.
        let drained = [
            [(50.0, 3), (20.0, 7)],
            [(10.0, 3), (20.0, 8)],
            [(50.0, 3), (20.0, 9)],
        ];
        assert!(!settled(drained, true));
        // Rows in which one of them is empty compare nothing.
        let apart = [
            [(50.0, 7), (20.0, 7)],
            [(50.0, 7), (0.0, 0)],
            [(50.0, 7), (20.0, 7)],
        ];
        assert!(settled(apart, false));
    }

    /// A window period maps to a cycle only on the tick grid, and several
    /// windows to the least common multiple of theirs.
    #[test]
    fn cycle_is_the_lcm_of_the_periods_in_ticks() {
        let tick = 25_000_000;
        assert_eq!(cycle_length(tick, [].into_iter()), Some(1));
        assert_eq!(cycle_length(tick, [2_500_000_000].into_iter()), Some(100));
        assert_eq!(
            cycle_length(tick, [500_000_000, 2_000_000_000, 750_000_000].into_iter()),
            Some(240)
        );
        assert_eq!(cycle_length(tick, [tick].into_iter()), Some(1));
        assert_eq!(cycle_length(tick, [1_010_000_000].into_iter()), None);
        assert_eq!(cycle_length(tick, [tick / 2].into_iter()), None);
        assert_eq!(
            cycle_length(tick, [(MAX_CYCLE_TICKS + 1) * tick].into_iter()),
            None
        );
        assert_eq!(
            cycle_length(tick, [511 * tick, 2 * tick].into_iter()),
            None,
            "each period fits, their lcm does not"
        );
    }
}
