//! Property-based tests of the [`Hardened`] Scaling Manager's fault paths.
//!
//! The robustness contract, stated as properties over randomly generated
//! jobs and fault patterns:
//!
//! 1. **Bounded retries, no oscillation.** Under a *persistent* actuation
//!    failure (rescales are issued but never land and never acknowledge),
//!    the manager issues one scaling command plus at most `RETRY_CAP`
//!    retries per attempt, every one of them for the *same* plan, and after
//!    giving up for the `k`-th time it goes quiet for `k` ban periods — it
//!    never cycles between plans and re-opens the abandoned one ever more
//!    rarely.
//! 2. **Convergence once faults clear.** A job whose telemetry is degraded
//!    for an arbitrary prefix of windows must not be acted on blindly; once
//!    clean snapshots resume and deploys acknowledge normally, the manager
//!    converges to a deployment that sustains the offered rate, in the
//!    paper's handful of steps.
//!
//! These mirror, at the unit level, what the faulted scenario matrix
//! (`tests/scenario_matrix.rs` in the workspace root) measures end to end.

use ds2_core::hardened::Hardened;
use ds2_core::prelude::*;
use proptest::prelude::*;

/// `Hardened`'s retry cap and the manager's base ban, both private
/// constants of `ds2-core`.
const RETRY_CAP: usize = 3;
const BAN_INTERVALS: u64 = 3;

/// A random two-stage job: `src -> flat_map -> count`, with per-instance
/// capacities and an offered rate chosen so the optimum stays small.
#[derive(Debug, Clone)]
struct Job {
    offered: f64,
    cap_f: f64,
    cap_c: f64,
}

impl Job {
    /// Parallelism that sustains the offered rate (selectivity 1).
    fn needed(&self, cap: f64) -> usize {
        (self.offered / cap).ceil().max(1.0) as usize
    }
}

fn job_strategy() -> impl Strategy<Value = Job> {
    (100.0f64..5_000.0, 50.0f64..1_000.0, 50.0f64..1_000.0).prop_map(|(offered, cap_f, cap_c)| {
        Job {
            offered,
            cap_f,
            cap_c,
        }
    })
}

fn wordcount() -> (LogicalGraph, OperatorId, OperatorId, OperatorId) {
    let mut b = GraphBuilder::new();
    let s = b.operator("source");
    let f = b.operator("flat_map");
    let c = b.operator("count");
    b.connect(s, f);
    b.connect(f, c);
    (b.build().unwrap(), s, f, c)
}

fn inst(capacity: f64, util: f64) -> InstanceMetrics {
    let window_ns = 1_000_000_000u64;
    let useful_ns = ((window_ns as f64 * util) as u64).max(1);
    InstanceMetrics {
        records_in: (capacity * util).max(1.0) as u64,
        records_out: (capacity * util).max(1.0) as u64,
        useful_ns,
        window_ns,
        ..Default::default()
    }
}

/// Snapshot of `job` running at `current`: the achieved fraction is the
/// linear-scaling prediction (capacity x parallelism vs. offered rate),
/// and every instance reports its true capacity — the same canonical
/// instrumentation the policy property tests use.
fn snapshot(
    job: &Job,
    ops: (OperatorId, OperatorId, OperatorId),
    current: &Deployment,
) -> MetricsSnapshot {
    let (s, f, c) = ops;
    let pf = current.parallelism(f) as f64;
    let pc = current.parallelism(c) as f64;
    let achieved = (pf * job.cap_f / job.offered)
        .min(pc * job.cap_c / job.offered)
        .min(1.0);
    let mut snap = MetricsSnapshot::new();
    snap.set_source_rate(s, job.offered);
    let out_per_inst = job.offered * achieved / current.parallelism(s) as f64;
    snap.insert_instances(
        s,
        vec![inst(out_per_inst * 2.0, 0.5); current.parallelism(s)],
    );
    let f_util = (job.offered * achieved / pf / job.cap_f).min(1.0);
    snap.insert_instances(f, vec![inst(job.cap_f, f_util); pf as usize]);
    let c_util = (job.offered * achieved / pc / job.cap_c).min(1.0);
    snap.insert_instances(c, vec![inst(job.cap_c, c_util); pc as usize]);
    snap
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Property 1: persistent actuation failure. The acknowledgement never
    /// arrives and the live deployment never changes; across any horizon
    /// every command is for the same plan, each attempt stays within the
    /// retry cap, and the `k`-th give-up is followed by `k` ban periods of
    /// silence.
    #[test]
    fn persistent_actuation_failure_is_bounded_and_stable(job in job_strategy()) {
        let (g, s, f, c) = wordcount();
        prop_assume!(job.needed(job.cap_f).max(job.needed(job.cap_c)) > 3);
        let mut mgr = Hardened::new(ScalingManager::with_defaults(g.clone()));
        // Permanently under-provisioned at p=1 and the rescale never lands.
        let current = Deployment::uniform(&g, 1);
        let snap = snapshot(&job, (s, f, c), &current);

        let mut issued: Vec<Deployment> = Vec::new();
        // Commands since the last give-up, give-ups so far, and the interval
        // until which the latest one bans the plan.
        let mut attempt = 0usize;
        let mut gave_up = 0u32;
        let mut quiet_until: Option<u64> = None;
        for t in 0..120u64 {
            if let Some(plan) = mgr.on_metrics(t, &snap, &current).rescale() {
                prop_assert!(
                    quiet_until.is_none_or(|q| t > q),
                    "rescale at {t}, banned until {quiet_until:?} by give-up {gave_up}"
                );
                issued.push(plan.clone());
                attempt += 1;
            }
            if mgr.fault_stats().abandoned_rescales > gave_up {
                prop_assert!(
                    attempt <= 1 + RETRY_CAP,
                    "{attempt} commands in one attempt, cap allows {}", 1 + RETRY_CAP
                );
                gave_up += 1;
                attempt = 0;
                quiet_until = Some(t + BAN_INTERVALS * gave_up as u64);
            }
        }
        prop_assert!(!issued.is_empty(), "an under-provisioned job must be acted on");
        prop_assert!(
            issued.iter().all(|p| p == &issued[0]),
            "retries must re-issue the identical plan"
        );
        prop_assert!(gave_up >= 2, "120 intervals hold more than one attempt");
        prop_assert!(mgr.fault_stats().retries as usize <= RETRY_CAP * (gave_up as usize + 1));
    }

    /// Property 2: convergence once faults clear. An arbitrary prefix of
    /// majority-degraded windows (flat_map and count telemetry gone) is
    /// never acted on; once telemetry heals and deploys acknowledge, the
    /// manager reaches a sustaining deployment within the paper's step
    /// budget and then stays put.
    #[test]
    fn converges_after_telemetry_faults_clear(
        job in job_strategy(),
        faulty_windows in 1usize..=20,
    ) {
        let (g, s, f, c) = wordcount();
        // Meaningful only when p=1 is genuinely under-provisioned (beyond
        // the default min_change suppression).
        prop_assume!(job.needed(job.cap_f).max(job.needed(job.cap_c)) > 3);
        let mut mgr = Hardened::new(ScalingManager::with_defaults(g.clone()));
        let mut current = Deployment::uniform(&g, 1);
        let mut t = 0u64;

        // Fault phase: both non-source operators vanish from telemetry
        // (2 of 3 invalid — a majority) with no last-good to repair from.
        for _ in 0..faulty_windows {
            let mut broken = snapshot(&job, (s, f, c), &current);
            broken.remove_operator(f);
            broken.remove_operator(c);
            let v = mgr.on_metrics(t, &broken, &current);
            prop_assert!(!v.is_rescale(), "acted on majority-degraded telemetry");
            t += 1;
        }
        prop_assert_eq!(mgr.fault_stats().vetoed_windows as usize, faulty_windows);

        // Clean phase: healthy snapshots, acknowledged deploys.
        let mut rescales = 0usize;
        for _ in 0..40 {
            let snap = snapshot(&job, (s, f, c), &current);
            if let Some(plan) = mgr.on_metrics(t, &snap, &current).rescale() {
                current = plan.clone();
                t += 1;
                mgr.on_deployed(t, &current);
                rescales += 1;
            }
            t += 1;
        }
        prop_assert!(
            (1..=3).contains(&rescales),
            "expected 1-3 steps to converge, took {rescales}"
        );
        // The final deployment sustains the offered rate under the linear
        // model used to build the snapshots.
        let pf = current.parallelism(f) as f64;
        let pc = current.parallelism(c) as f64;
        prop_assert!(
            pf * job.cap_f >= job.offered * 0.999 && pc * job.cap_c >= job.offered * 0.999,
            "converged deployment ({pf}, {pc}) does not sustain {} at ({}, {})",
            job.offered, job.cap_f, job.cap_c
        );
        // And it is a fixed point: further healthy windows change nothing.
        let snap = snapshot(&job, (s, f, c), &current);
        for _ in 0..5 {
            prop_assert!(!mgr.on_metrics(t, &snap, &current).is_rescale());
            t += 1;
        }
        prop_assert!(mgr.manager().is_converged());
    }
}
