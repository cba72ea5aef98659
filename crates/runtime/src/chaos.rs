//! Deterministic chaos injection for the threaded runtime — the live
//! counterpart of `ds2_simulator::faults`.
//!
//! A [`ChaosSpec`] attached to a [`JobSpec`](crate::job::JobSpec) names, per
//! (operator, instance), record counts at which the worker thread crashes
//! (panics mid-batch) or wedges (goes to sleep in "user code"). Record
//! counts are cumulative across restarts and every trigger fires at most
//! once, so a restarted instance does not re-fire the fault that killed it.
//!
//! Like the simulator's fault plans, seeded generation
//! ([`ChaosSpec::seeded`]) is a pure function of the seed — stateless
//! splitmix64 draws — so the same seed always injects the same faults and
//! crash-recovery runs are reproducible enough to gate in CI.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use ds2_core::graph::OperatorId;

/// What happens to the targeted instance when its trigger fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ChaosAction {
    /// The worker panics mid-batch (contained by the supervisor).
    Crash,
    /// The worker blocks in "user code" effectively forever.
    Wedge,
}

/// One injected fault: instance `instance` of `op` performs `action` just
/// before processing the record after its `after_records`-th.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaosEvent {
    /// Target operator.
    pub op: OperatorId,
    /// Target instance index.
    pub instance: usize,
    /// Cumulative records the instance processes before the trigger fires
    /// (counted across restarts).
    pub(crate) after_records: u64,
    /// The fault injected.
    pub(crate) action: ChaosAction,
}

/// A chaos schedule for one job. The default (empty) spec injects nothing
/// and adds no per-record overhead to untargeted instances.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChaosSpec {
    /// The scheduled faults.
    pub events: Vec<ChaosEvent>,
}

impl ChaosSpec {
    /// Creates an empty (fault-free) spec.
    pub fn new() -> Self {
        Self::default()
    }

    /// `true` when no faults are scheduled.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Schedules a crash of `(op, instance)` after `after_records` records.
    pub fn crash(mut self, op: OperatorId, instance: usize, after_records: u64) -> Self {
        self.events.push(ChaosEvent {
            op,
            instance,
            after_records,
            action: ChaosAction::Crash,
        });
        self
    }

    /// Schedules a wedge of `(op, instance)` after `after_records` records.
    pub fn wedge(mut self, op: OperatorId, instance: usize, after_records: u64) -> Self {
        self.events.push(ChaosEvent {
            op,
            instance,
            after_records,
            action: ChaosAction::Wedge,
        });
        self
    }

    /// Draws `crashes` crash events over `targets`, with trigger thresholds
    /// uniform in `[min_after, max_after)` — a pure function of `seed`, so
    /// equal seeds always produce equal specs.
    pub fn seeded(
        seed: u64,
        targets: &[(OperatorId, usize)],
        crashes: usize,
        min_after: u64,
        max_after: u64,
    ) -> Self {
        let mut events = Vec::with_capacity(crashes);
        if targets.is_empty() {
            return Self { events };
        }
        let span = max_after.saturating_sub(min_after).max(1);
        for i in 0..crashes as u64 {
            let (op, instance) = targets[(mix(seed, STREAM_TARGET, i) as usize) % targets.len()];
            events.push(ChaosEvent {
                op,
                instance,
                after_records: min_after + mix(seed, STREAM_THRESHOLD, i) % span,
                action: ChaosAction::Crash,
            });
        }
        Self { events }
    }
}

// Stream discriminators keeping the per-draw hashes independent (the
// simulator faults.rs idiom).
const CHAOS_SPEC_SALT: u64 = 0xC4A0_55BE_C57A_11ED;
const STREAM_TARGET: u64 = 1;
const STREAM_THRESHOLD: u64 = 2;

fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Stateless draw: a pure function of (seed, stream, index).
fn mix(seed: u64, stream: u64, i: u64) -> u64 {
    let h = splitmix64(seed ^ CHAOS_SPEC_SALT ^ stream.wrapping_mul(0xA24B_AED4_963E_E407));
    splitmix64(h ^ i.wrapping_mul(0x9FB2_1C65_1E98_DF25))
}

/// One instance's armed triggers, shared between the engine (which keeps
/// the cumulative record count across restarts) and the worker thread.
pub(crate) struct InstanceChaos {
    records: AtomicU64,
    triggers: Vec<ChaosTrigger>,
}

struct ChaosTrigger {
    after: u64,
    action: ChaosAction,
    fired: AtomicBool,
}

impl InstanceChaos {
    /// Advances the record count and returns an action if a trigger fires.
    /// Each trigger fires at most once over the job's lifetime.
    pub(crate) fn before_record(&self) -> Option<ChaosAction> {
        let n = self.records.fetch_add(1, Ordering::Relaxed);
        for t in &self.triggers {
            if n >= t.after && !t.fired.swap(true, Ordering::Relaxed) {
                return Some(t.action);
            }
        }
        None
    }
}

/// The runtime side of a chaos spec: per-target trigger state, persistent
/// across instance restarts and rescales.
pub(crate) struct ChaosRuntime {
    hooks: BTreeMap<(OperatorId, usize), Arc<InstanceChaos>>,
}

impl ChaosRuntime {
    pub(crate) fn new(spec: &ChaosSpec) -> Self {
        let mut grouped: BTreeMap<(OperatorId, usize), Vec<ChaosTrigger>> = BTreeMap::new();
        for e in &spec.events {
            grouped
                .entry((e.op, e.instance))
                .or_default()
                .push(ChaosTrigger {
                    after: e.after_records,
                    action: e.action,
                    fired: AtomicBool::new(false),
                });
        }
        Self {
            hooks: grouped
                .into_iter()
                .map(|(k, triggers)| {
                    (
                        k,
                        Arc::new(InstanceChaos {
                            records: AtomicU64::new(0),
                            triggers,
                        }),
                    )
                })
                .collect(),
        }
    }

    /// The trigger state for `(op, instance)`, if it is targeted. Untargeted
    /// instances get `None`: zero per-record overhead on fault-free paths.
    pub(crate) fn hook(&self, op: OperatorId, instance: usize) -> Option<Arc<InstanceChaos>> {
        self.hooks.get(&(op, instance)).cloned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_specs_are_deterministic() {
        let targets = [(OperatorId(1), 0), (OperatorId(1), 1), (OperatorId(2), 0)];
        let a = ChaosSpec::seeded(42, &targets, 4, 100, 1000);
        let b = ChaosSpec::seeded(42, &targets, 4, 100, 1000);
        assert_eq!(a, b, "same seed must draw the same faults");
        assert_eq!(a.events.len(), 4);
        for e in &a.events {
            assert!((100..1000).contains(&e.after_records));
            assert_eq!(e.action, ChaosAction::Crash);
        }
        let c = ChaosSpec::seeded(43, &targets, 4, 100, 1000);
        assert_ne!(a, c, "different seeds should differ");
    }

    #[test]
    fn triggers_fire_once_at_threshold() {
        let spec = ChaosSpec::new().crash(OperatorId(1), 0, 3);
        let rt = ChaosRuntime::new(&spec);
        assert!(rt.hook(OperatorId(1), 1).is_none(), "untargeted instance");
        let hook = rt.hook(OperatorId(1), 0).unwrap();
        // Records 0, 1, 2 pass; the 4th record (count 3) trips the crash.
        assert_eq!(hook.before_record(), None);
        assert_eq!(hook.before_record(), None);
        assert_eq!(hook.before_record(), None);
        assert_eq!(hook.before_record(), Some(ChaosAction::Crash));
        // Fired once: the restarted instance does not crash again.
        assert_eq!(hook.before_record(), None);
    }
}
