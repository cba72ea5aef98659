//! Deterministic fault injection for scenario runs.
//!
//! DS2's three-step claim rests on clean instrumentation: every operator
//! reports accurate useful-time metrics and every rescale lands atomically.
//! This module breaks both assumptions on purpose — and does so
//! *deterministically*, so faulted runs stay reproducible and bitwise
//! identical between the fast-forward and `--exact` execution modes.
//!
//! A [`FaultPlan`] is derived from the scenario seed under its own salt
//! (`FAULT_PLAN_SALT`), separated from the family-draw and scenario-body
//! streams exactly like the family axis: enabling faults never perturbs the
//! workload, topology, or noise draws of the underlying scenario. Every
//! individual fault decision is a pure function of
//! `(seed, stream, window/decision index, operator, instance)` via a
//! splitmix64 hash — no stateful RNG, so injection is independent of
//! evaluation order and of how the simulator advanced time between windows.
//!
//! Two fault classes are injected:
//!
//! * **Metric faults**, applied to each collected [`MetricsSnapshot`] right
//!   after the window closes: whole-operator dropout (all slots missing),
//!   per-slot dropout, multiplicative counter noise, stale samples (the
//!   previous window's rows delivered again), and sticky stragglers whose
//!   useful time is inflated for the whole run.
//! * **Actuation faults**, applied when the controller's rescale command is
//!   carried out: the command can time out (the job pays the redeploy
//!   downtime but lands back on the old configuration), land partially
//!   (some operators keep their old allocation), or fail silently (nothing
//!   happens — and no acknowledgement ever arrives).
//!
//! Fast-forward equivalence holds by construction: metric faults mutate the
//! snapshot *after* collection, never the engine, and actuation faults are a
//! pure function of the decision index — so as long as the unfaulted
//! snapshot/decision sequence is bitwise identical between modes (the PR 4
//! guarantee), the faulted sequence is too.

use ds2_core::deployment::Deployment;
use ds2_core::graph::LogicalGraph;
use ds2_core::snapshot::MetricsSnapshot;

/// Salt separating the fault stream from the family-draw stream
/// (`FAMILY_DRAW_SALT`) and every family's scenario-body stream.
pub(crate) const FAULT_PLAN_SALT: u64 = 0x7A11_5EED_FAB1_0C37;

/// Intensity of the injected faults.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FaultProfile {
    /// No faults: the paper's clean-instrumentation setting.
    #[default]
    None,
    /// Occasional dropouts, mild noise, few stragglers, rare actuation
    /// failures — a well-run production cluster on a bad day.
    Mild,
    /// Frequent dropouts, heavy noise, many stragglers, common actuation
    /// failures — degraded telemetry as the operating regime.
    Harsh,
}

impl FaultProfile {
    /// CLI name of the profile.
    pub fn name(self) -> &'static str {
        match self {
            FaultProfile::None => "none",
            FaultProfile::Mild => "mild",
            FaultProfile::Harsh => "harsh",
        }
    }

    /// Parses a CLI name.
    pub fn from_name(s: &str) -> Option<Self> {
        match s {
            "none" => Some(FaultProfile::None),
            "mild" => Some(FaultProfile::Mild),
            "harsh" => Some(FaultProfile::Harsh),
            _ => None,
        }
    }

    /// `true` for the fault-free profile.
    pub fn is_none(self) -> bool {
        self == FaultProfile::None
    }

    /// Fault intensities of this profile, `None` for the fault-free one.
    pub(crate) fn params(self) -> Option<FaultParams> {
        match self {
            FaultProfile::None => None,
            FaultProfile::Mild => Some(FaultParams::MILD),
            FaultProfile::Harsh => Some(FaultParams::HARSH),
        }
    }
}

/// Per-window / per-decision fault probabilities and magnitudes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct FaultParams {
    /// Probability per operator-window that *all* of an operator's slots
    /// (and, for sources, the offered rate) go missing.
    pub(crate) op_drop: f64,
    /// Probability per instance-window that one slot goes missing.
    pub(crate) slot_drop: f64,
    /// Probability per instance-window of multiplicative counter noise.
    pub(crate) noise_prob: f64,
    /// Maximum relative amplitude of the counter noise (`0.25` = ±25%).
    pub(crate) noise_amp: f64,
    /// Probability per operator-window that the previous window's rows are
    /// delivered again (a stale/delayed sample).
    pub(crate) stale_prob: f64,
    /// Fraction of instances that are stragglers for the whole run.
    pub(crate) straggler_frac: f64,
    /// Maximum useful-time inflation factor of a straggler.
    pub(crate) straggler_mult: f64,
    /// Probability per rescale that the command fails silently (no landing,
    /// no acknowledgement).
    pub(crate) act_silent: f64,
    /// Probability per rescale that the command times out: the job pays the
    /// redeploy downtime but stays on the old configuration.
    pub(crate) act_timeout: f64,
    /// Probability per rescale of a partial landing (some operators keep
    /// their old allocation).
    pub(crate) act_partial: f64,
    /// Fraction of the run, at the end, left fault-free — the recovery
    /// tail. Faults that strike in the last seconds are unrecoverable by
    /// construction (a redeploy's downtime lands inside the scoring
    /// window), so the tail is what makes "converges once faults clear"
    /// a measurable property rather than a coin flip on fault timing.
    pub(crate) tail_frac: f64,
}

impl FaultParams {
    /// The `mild` profile's intensities.
    pub(crate) const MILD: FaultParams = FaultParams {
        op_drop: 0.02,
        slot_drop: 0.02,
        noise_prob: 0.08,
        noise_amp: 0.20,
        stale_prob: 0.02,
        straggler_frac: 0.08,
        straggler_mult: 3.0,
        act_silent: 0.04,
        act_timeout: 0.02,
        act_partial: 0.02,
        tail_frac: 0.25,
    };

    /// The `harsh` profile's intensities.
    pub(crate) const HARSH: FaultParams = FaultParams {
        op_drop: 0.08,
        slot_drop: 0.10,
        noise_prob: 0.20,
        noise_amp: 0.50,
        stale_prob: 0.08,
        straggler_frac: 0.15,
        straggler_mult: 5.0,
        act_silent: 0.12,
        act_timeout: 0.10,
        act_partial: 0.10,
        tail_frac: 0.25,
    };
}

// Stream discriminators keeping the per-fault hash draws independent.
const STREAM_OP_DROP: u64 = 1;
const STREAM_SLOT_DROP: u64 = 2;
const STREAM_NOISE: u64 = 3;
const STREAM_NOISE_AMP: u64 = 4;
const STREAM_STALE: u64 = 5;
const STREAM_STRAGGLER: u64 = 6;
const STREAM_STRAGGLER_MULT: u64 = 7;
const STREAM_ACTUATION: u64 = 8;
const STREAM_PARTIAL: u64 = 9;

fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Uniform draw in `[0, 1)` from a hash (53 mantissa bits).
fn unit(h: u64) -> f64 {
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// A seeded, profile-scaled description of the faults one scenario run
/// experiences. Cheap to copy; all draws are stateless hashes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    profile: FaultProfile,
    params: FaultParams,
}

impl FaultPlan {
    /// Derives the fault plan of one scenario; `None` for the fault-free
    /// profile so the unfaulted path stays untouched.
    pub fn new(scenario_seed: u64, profile: FaultProfile) -> Option<Self> {
        profile.params().map(|params| Self {
            seed: scenario_seed,
            profile,
            params,
        })
    }

    /// The profile this plan was derived from.
    pub fn profile(&self) -> FaultProfile {
        self.profile
    }

    /// Stateless draw: a pure function of the plan seed, the stream, and
    /// two context indices (window/decision, operator/instance).
    fn mix(&self, stream: u64, a: u64, b: u64) -> u64 {
        let mut h =
            splitmix64(self.seed ^ FAULT_PLAN_SALT ^ stream.wrapping_mul(0xA24B_AED4_963E_E407));
        h = splitmix64(h ^ a.wrapping_mul(0x9FB2_1C65_1E98_DF25));
        splitmix64(h ^ b)
    }

    fn chance(&self, stream: u64, a: u64, b: u64, p: f64) -> bool {
        p > 0.0 && unit(self.mix(stream, a, b)) < p
    }
}

/// What actually happens when a rescale command is carried out.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum ActuationOutcome {
    /// The given plan lands (possibly a partial version of the request).
    Land(Deployment),
    /// The command times out: the job pays the redeploy downtime but comes
    /// back on its old configuration.
    Timeout,
    /// The command fails silently: nothing happens, nothing is acknowledged.
    Silent,
}

/// Tallies of the faults injected into one run. All-zero when no fault
/// plan is active, so fault-free [`RunResult`]s are unaffected.
///
/// [`RunResult`]: crate::harness::RunResult
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultTally {
    /// Metric windows where at least one fault was injected.
    pub faulted_windows: u32,
    /// Whole-operator dropouts injected.
    pub(crate) dropped_ops: u32,
    /// Individual slot dropouts injected.
    pub(crate) dropped_slots: u32,
    /// Instance samples perturbed by counter noise.
    pub(crate) noisy_slots: u32,
    /// Operator-windows replaced by the previous window's rows.
    pub(crate) stale_ops: u32,
    /// Straggler instance-windows (useful time inflated).
    pub(crate) straggler_slots: u32,
    /// Rescale commands that failed silently.
    pub(crate) silent_rescales: u32,
    /// Rescale commands that timed out.
    pub(crate) timeout_rescales: u32,
    /// Rescale commands that landed partially.
    pub(crate) partial_rescales: u32,
}

/// Per-run injector: applies a [`FaultPlan`] to metric snapshots and
/// rescale commands, keeping the window/decision counters and the previous
/// window's pre-fault rows (for stale replay).
#[derive(Debug, Clone)]
pub(crate) struct FaultInjector {
    plan: FaultPlan,
    window: u64,
    decisions: u64,
    /// Virtual time after which no new faults are injected (the recovery
    /// tail, [`FaultParams::tail_frac`] of the run).
    cutoff_ns: u64,
    /// Pre-fault rows of the previous window, for stale replay.
    prev: MetricsSnapshot,
    /// Staging buffer for the current window's pre-fault rows.
    prev_scratch: MetricsSnapshot,
    have_prev: bool,
    tally: FaultTally,
}

impl FaultInjector {
    /// Creates an injector for one run of `run_duration_ns` virtual time
    /// (the duration fixes where the fault-free recovery tail starts).
    pub fn new(plan: FaultPlan, run_duration_ns: u64) -> Self {
        let tail = (run_duration_ns as f64 * plan.params.tail_frac.clamp(0.0, 1.0)) as u64;
        Self {
            plan,
            window: 0,
            decisions: 0,
            cutoff_ns: run_duration_ns.saturating_sub(tail),
            prev: MetricsSnapshot::new(),
            prev_scratch: MetricsSnapshot::new(),
            have_prev: false,
            tally: FaultTally::default(),
        }
    }

    /// Faults injected so far.
    pub(crate) fn tally(&self) -> FaultTally {
        self.tally
    }

    /// Applies this window's metric faults to a freshly collected snapshot
    /// closed at virtual time `now_ns`. Mutates only the snapshot — the
    /// engine's state is untouched, which is what keeps fast-forward replay
    /// valid under faults. Windows inside the recovery tail pass through
    /// unfaulted.
    pub(crate) fn apply_metrics(
        &mut self,
        snapshot: &mut MetricsSnapshot,
        graph: &LogicalGraph,
        deployment: &Deployment,
        now_ns: u64,
    ) {
        self.window += 1;
        if now_ns > self.cutoff_ns {
            return;
        }
        let w = self.window;
        let plan = self.plan;
        let params = plan.params;
        // Keep this window's pre-fault rows: a stale fault next window
        // replays the *true* previous sample, not the faulted one.
        self.prev_scratch.clone_from(snapshot);
        let mut touched = false;
        for op in graph.operators() {
            let oi = op.index() as u64;
            let p = deployment.parallelism(op);
            // Whole-operator dropout: all slots (and the offered rate of a
            // source) vanish from this window.
            if plan.chance(STREAM_OP_DROP, w, oi, params.op_drop) {
                let removed = snapshot.remove_operator(op).is_some();
                let removed_rate = graph.is_source(op) && snapshot.remove_source_rate(op).is_some();
                if removed || removed_rate {
                    self.tally.dropped_ops += 1;
                    touched = true;
                }
                continue;
            }
            // Stale sample: the previous window's rows are delivered again.
            if self.have_prev && plan.chance(STREAM_STALE, w, oi, params.stale_prob) {
                if let Some(old) = self.prev.operator(op) {
                    if old.instances.len() == p {
                        snapshot.insert_instances(op, old.instances.clone());
                        if graph.is_source(op) {
                            if let Some(r) = self.prev.source_rate(op) {
                                snapshot.set_source_rate(op, r);
                            }
                        }
                        self.tally.stale_ops += 1;
                        touched = true;
                        continue;
                    }
                }
            }
            let Some(metrics) = snapshot.operator_mut(op) else {
                continue;
            };
            // Sticky stragglers (window index 0 in the draw: the same
            // instances straggle all run) and per-window counter noise.
            for (k, inst) in metrics.instances.iter_mut().enumerate() {
                let key = (oi << 32) | k as u64;
                if plan.chance(STREAM_STRAGGLER, 0, key, params.straggler_frac) {
                    let f = 1.0
                        + unit(plan.mix(STREAM_STRAGGLER_MULT, 0, key))
                            * (params.straggler_mult - 1.0);
                    inst.useful_ns = (((inst.useful_ns as f64) * f) as u64).min(inst.window_ns);
                    // Keep the sample internally consistent (waits must fit
                    // the non-useful remainder) so stragglers are plausible
                    // — only rate statistics can expose them.
                    let slack = inst.window_ns - inst.useful_ns;
                    inst.wait_input_ns = inst.wait_input_ns.min(slack);
                    inst.wait_output_ns = inst.wait_output_ns.min(slack - inst.wait_input_ns);
                    self.tally.straggler_slots += 1;
                    touched = true;
                }
                if plan.chance(STREAM_NOISE, w, key, params.noise_prob) {
                    let f = 1.0
                        + (unit(plan.mix(STREAM_NOISE_AMP, w, key)) * 2.0 - 1.0) * params.noise_amp;
                    inst.records_in = ((inst.records_in as f64) * f).max(0.0) as u64;
                    inst.records_out = ((inst.records_out as f64) * f).max(0.0) as u64;
                    self.tally.noisy_slots += 1;
                    touched = true;
                }
            }
            // Per-slot dropout: individual rows vanish, leaving the
            // operator's reported parallelism short.
            let mut k = 0u64;
            let before = metrics.instances.len();
            metrics.instances.retain(|_| {
                let key = (oi << 32) | k;
                k += 1;
                !plan.chance(STREAM_SLOT_DROP, w, key, params.slot_drop)
            });
            let dropped = before - metrics.instances.len();
            if dropped > 0 {
                self.tally.dropped_slots += dropped as u32;
                touched = true;
            }
        }
        std::mem::swap(&mut self.prev, &mut self.prev_scratch);
        self.have_prev = true;
        if touched {
            self.tally.faulted_windows += 1;
        }
    }

    /// Decides the fate of one rescale command issued at virtual time
    /// `now_ns`. `requested` is the plan the controller asked for, `current`
    /// the deployment it would replace. Commands inside the recovery tail
    /// always land as requested.
    pub fn actuation(
        &mut self,
        requested: &Deployment,
        current: &Deployment,
        graph: &LogicalGraph,
        now_ns: u64,
    ) -> ActuationOutcome {
        self.decisions += 1;
        if now_ns > self.cutoff_ns {
            return ActuationOutcome::Land(requested.clone());
        }
        let d = self.decisions;
        let plan = self.plan;
        let params = plan.params;
        let u = unit(plan.mix(STREAM_ACTUATION, d, 0));
        if u < params.act_silent {
            self.tally.silent_rescales += 1;
            return ActuationOutcome::Silent;
        }
        if u < params.act_silent + params.act_timeout {
            self.tally.timeout_rescales += 1;
            return ActuationOutcome::Timeout;
        }
        if u < params.act_silent + params.act_timeout + params.act_partial {
            // Partial landing: each changed operator independently keeps its
            // old allocation with probability 1/2.
            let mut landed = requested.clone();
            let mut reverted = false;
            for op in graph.operators() {
                if requested.alloc(op) != current.alloc(op)
                    && plan.chance(STREAM_PARTIAL, d, op.index() as u64, 0.5)
                {
                    landed.set_alloc(op, current.alloc(op));
                    reverted = true;
                }
            }
            if reverted {
                self.tally.partial_rescales += 1;
                return ActuationOutcome::Land(landed);
            }
        }
        ActuationOutcome::Land(requested.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ds2_core::graph::GraphBuilder;
    use ds2_core::rates::InstanceMetrics;

    fn graph3() -> LogicalGraph {
        let mut b = GraphBuilder::new();
        let s = b.operator("src");
        let f = b.operator("map");
        let c = b.operator("agg");
        b.connect(s, f);
        b.connect(f, c);
        b.build().unwrap()
    }

    fn snapshot_for(graph: &LogicalGraph, deployment: &Deployment) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::new();
        for op in graph.operators() {
            let p = deployment.parallelism(op);
            let rows = vec![
                InstanceMetrics {
                    records_in: 1_000,
                    records_out: 1_000,
                    useful_ns: 500_000_000,
                    window_ns: 1_000_000_000,
                    ..Default::default()
                };
                p
            ];
            snap.insert_instances(op, rows);
            if graph.is_source(op) {
                snap.set_source_rate(op, 1_000.0);
            }
        }
        snap
    }

    #[test]
    fn none_profile_yields_no_plan() {
        assert!(FaultPlan::new(42, FaultProfile::None).is_none());
        assert!(FaultPlan::new(42, FaultProfile::Mild).is_some());
    }

    #[test]
    fn profile_names_round_trip() {
        for p in [FaultProfile::None, FaultProfile::Mild, FaultProfile::Harsh] {
            assert_eq!(FaultProfile::from_name(p.name()), Some(p));
        }
        assert_eq!(FaultProfile::from_name("bogus"), None);
    }

    #[test]
    fn injection_is_deterministic() {
        let graph = graph3();
        let deployment = Deployment::uniform(&graph, 4);
        let run = |seed: u64| {
            let mut inj =
                FaultInjector::new(FaultPlan::new(seed, FaultProfile::Harsh).unwrap(), 1_000);
            let mut snaps = Vec::new();
            for _ in 0..50 {
                let mut snap = snapshot_for(&graph, &deployment);
                inj.apply_metrics(&mut snap, &graph, &deployment, 0);
                snaps.push(snap);
            }
            (snaps, inj.tally())
        };
        let (a, ta) = run(7);
        let (b, tb) = run(7);
        assert_eq!(a, b, "same seed must regenerate bit-exactly");
        assert_eq!(ta, tb);
        let (c, tc) = run(8);
        assert!(a != c || ta != tc, "different seeds must diverge");
    }

    #[test]
    fn harsh_injects_every_fault_class() {
        let graph = graph3();
        let deployment = Deployment::uniform(&graph, 8);
        let mut inj = FaultInjector::new(FaultPlan::new(3, FaultProfile::Harsh).unwrap(), 1_000);
        for _ in 0..200 {
            let mut snap = snapshot_for(&graph, &deployment);
            inj.apply_metrics(&mut snap, &graph, &deployment, 0);
        }
        let t = inj.tally();
        assert!(t.faulted_windows > 0);
        assert!(t.dropped_ops > 0);
        assert!(t.dropped_slots > 0);
        assert!(t.noisy_slots > 0);
        assert!(t.stale_ops > 0);
        assert!(t.straggler_slots > 0);
    }

    #[test]
    fn faulted_samples_stay_individually_valid_unless_dropped() {
        // Noise and stragglers must keep each surviving sample internally
        // consistent (useful <= window, waits fit): hardening detects them
        // by rate statistics, not by trivially broken invariants.
        let graph = graph3();
        let deployment = Deployment::uniform(&graph, 6);
        let mut inj = FaultInjector::new(FaultPlan::new(11, FaultProfile::Harsh).unwrap(), 1_000);
        for _ in 0..100 {
            let mut snap = snapshot_for(&graph, &deployment);
            inj.apply_metrics(&mut snap, &graph, &deployment, 0);
            for (_, m) in snap.operators() {
                for inst in &m.instances {
                    inst.validate().expect("faulted sample must stay valid");
                }
            }
        }
    }

    #[test]
    fn recovery_tail_is_fault_free() {
        // With tail_frac 0.25 of a 1000 ns run, nothing after 750 ns is
        // faulted: metric windows pass through untouched and every rescale
        // lands as requested.
        let graph = graph3();
        let deployment = Deployment::uniform(&graph, 6);
        let requested = Deployment::uniform(&graph, 9);
        let mut inj = FaultInjector::new(FaultPlan::new(11, FaultProfile::Harsh).unwrap(), 1_000);
        for _ in 0..100 {
            let mut snap = snapshot_for(&graph, &deployment);
            let clean = snap.clone();
            inj.apply_metrics(&mut snap, &graph, &deployment, 800);
            assert_eq!(snap, clean, "tail window was faulted");
            assert_eq!(
                inj.actuation(&requested, &deployment, &graph, 800),
                ActuationOutcome::Land(requested.clone()),
                "tail rescale did not land cleanly"
            );
        }
        assert_eq!(inj.tally(), FaultTally::default());
        // The same injector still faults windows before the tail.
        let mut snap = snapshot_for(&graph, &deployment);
        inj.apply_metrics(&mut snap, &graph, &deployment, 0);
        let mut more = 0;
        for _ in 0..50 {
            let mut snap = snapshot_for(&graph, &deployment);
            inj.apply_metrics(&mut snap, &graph, &deployment, 0);
            more += 1;
        }
        assert!(more > 0 && inj.tally().faulted_windows > 0);
    }

    #[test]
    fn actuation_outcomes_are_deterministic_and_cover_all_kinds() {
        let graph = graph3();
        let current = Deployment::uniform(&graph, 2);
        let requested = Deployment::uniform(&graph, 6);
        let run = || {
            let mut inj =
                FaultInjector::new(FaultPlan::new(5, FaultProfile::Harsh).unwrap(), 1_000);
            (0..400)
                .map(|_| inj.actuation(&requested, &current, &graph, 0))
                .collect::<Vec<_>>()
        };
        let a = run();
        assert_eq!(a, run(), "actuation stream must be reproducible");
        assert!(a.iter().any(|o| matches!(o, ActuationOutcome::Silent)));
        assert!(a.iter().any(|o| matches!(o, ActuationOutcome::Timeout)));
        assert!(a
            .iter()
            .any(|o| matches!(o, ActuationOutcome::Land(p) if *p != requested)));
        assert!(a
            .iter()
            .any(|o| matches!(o, ActuationOutcome::Land(p) if *p == requested)));
        // A partial landing only ever reverts operators towards `current`.
        for o in &a {
            if let ActuationOutcome::Land(p) = o {
                for op in graph.operators() {
                    assert!(
                        p.parallelism(op) == requested.parallelism(op)
                            || p.parallelism(op) == current.parallelism(op)
                    );
                }
            }
        }
    }
}
