//! Operator cost profiles: how much virtual time an operator instance
//! spends per record, and how that cost changes with parallelism.
//!
//! A profile models three cost components:
//!
//! * **instrumented cost** — deserialization + processing + serialization
//!   per record. This is what the §4.1 counters see, i.e. what contributes
//!   to *useful time* and therefore to the true rates DS2 measures.
//! * **scaling overhead** — growth of the instrumented cost with
//!   parallelism (state repartitioning, more channels, coordination). This
//!   makes true rates *sub-linear* in the instance count, which is why DS2
//!   sometimes needs a second step that "refines the decision with a more
//!   accurate measurement" (§3.4, §5.4).
//! * **hidden overhead** — per-record cost *invisible* to instrumentation
//!   (network stack, channel selection outside the measured sections). DS2
//!   compensates for it through the Scaling Manager's target-rate-ratio
//!   mechanism (§4.2.1), which is the paper's typical third step.

use ds2_core::graph::OperatorId;
use std::collections::BTreeMap;

/// How the per-record instrumented cost grows with operator parallelism.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ScalingCurve {
    /// Perfect scaling: cost independent of parallelism (the model's ideal).
    Linear,
    /// Cost multiplier `1 + alpha * (1 - exp(-(p-1)/knee))`: overhead that
    /// saturates at `1 + alpha`, modelling coordination costs that stop
    /// growing once the communication fabric is saturated.
    Saturating {
        /// Asymptotic fractional cost growth.
        alpha: f64,
        /// Parallelism scale over which the overhead develops.
        knee: f64,
    },
    /// Cost multiplier `1 + alpha / (1 + exp(-(p - knee) / width))`: a
    /// logistic step developing around `knee`, modelling the overhead jump
    /// when instances spill across a machine/NUMA boundary (local exchange
    /// becomes network shuffle). Flat well above the knee — so the policy
    /// has a unique fixed point approached identically from above — while
    /// configurations far below the knee measure optimistic capacities and
    /// need an extra refinement step, reproducing the paper's 2–3 step
    /// convergence for far-from-optimal starts (§5.4).
    Sigmoid {
        /// Asymptotic fractional cost growth.
        alpha: f64,
        /// Parallelism at the centre of the step.
        knee: f64,
        /// Width of the step.
        width: f64,
    },
}

impl ScalingCurve {
    /// Cost multiplier at parallelism `p >= 1`.
    pub fn multiplier(&self, p: usize) -> f64 {
        let p = p.max(1) as f64;
        match *self {
            ScalingCurve::Linear => 1.0,
            ScalingCurve::Saturating { alpha, knee } => {
                1.0 + alpha * (1.0 - (-(p - 1.0) / knee.max(1e-9)).exp())
            }
            ScalingCurve::Sigmoid { alpha, knee, width } => {
                1.0 + alpha / (1.0 + (-(p - knee) / width.max(1e-9)).exp())
            }
        }
    }
}

/// Output behaviour of an operator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum OutputMode {
    /// Emits `selectivity` records per input record, continuously.
    PerRecord {
        /// Output records per input record.
        selectivity: f64,
    },
    /// Buffers input and emits at window boundaries (naive tumbling window,
    /// §4.2.1 "non-incremental tumbling windows"): between firings the
    /// operator emits nothing, at each firing it flushes the accumulated
    /// output in a burst. `selectivity` applies to the buffered volume.
    Windowed {
        /// Output records per buffered input record at firing time.
        selectivity: f64,
        /// Window length in nanoseconds.
        period_ns: u64,
    },
}

impl OutputMode {
    /// The long-run average selectivity.
    pub fn average_selectivity(&self) -> f64 {
        match *self {
            OutputMode::PerRecord { selectivity } => selectivity,
            OutputMode::Windowed { selectivity, .. } => selectivity,
        }
    }
}

/// The state-size model of one operator: how many bytes of operator state
/// the instances carry as a function of the offered source rate, and what
/// happens when an instance's share exceeds its budget.
///
/// Total operator state is `bytes_per_source_rate × rate`
/// (rate = total offered source rate in records/s), divided evenly across
/// the instances. When the per-instance share exceeds the budget the
/// operator *spills*: its per-record cost is multiplied by
/// `spill_cost_multiplier` — the Justin-style memory-pressure failure mode
/// a rate-only model cannot see.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StateProfile {
    /// Additional state per unit of offered source rate, in bytes per
    /// (record/second). Any dataflow dilution (selectivity of upstream
    /// operators) is folded in by the generator, so the engine only needs
    /// the total offered source rate.
    pub bytes_per_source_rate: f64,
    /// Per-record cost multiplier while spilling (> 1).
    pub spill_cost_multiplier: f64,
    /// Default per-instance budget in bytes when the deployment does not
    /// set one (∞ = unbudgeted).
    pub budget_per_instance_bytes: f64,
}

impl Default for StateProfile {
    fn default() -> Self {
        Self {
            bytes_per_source_rate: 0.0,
            spill_cost_multiplier: 1.0,
            budget_per_instance_bytes: f64::INFINITY,
        }
    }
}

impl StateProfile {
    /// Total operator state at offered source rate `rate`, in bytes.
    pub fn total_bytes(&self, rate: f64) -> f64 {
        self.bytes_per_source_rate * rate
    }
}

/// The full cost model of one logical operator.
#[derive(Debug, Clone, PartialEq)]
pub struct OperatorProfile {
    /// Deserialization cost per input record, in nanoseconds (instrumented).
    pub deser_ns: f64,
    /// Processing cost per input record, in nanoseconds (instrumented).
    pub proc_ns: f64,
    /// Serialization cost per *output* record, in nanoseconds (instrumented).
    pub ser_ns: f64,
    /// Output behaviour (selectivity and windowing).
    pub output: OutputMode,
    /// Growth of the instrumented cost with parallelism.
    pub scaling: ScalingCurve,
    /// Per-record cost invisible to instrumentation, in nanoseconds.
    pub hidden_ns: f64,
    /// Growth of the hidden cost with parallelism.
    pub hidden_scaling: ScalingCurve,
    /// Fraction of input routed to instance 0 (hot key), `None` for uniform
    /// distribution. Models the §4.2.3 skew experiment: with `Some(0.5)` at
    /// parallelism 4, instance 0 receives 50% of the records and the rest
    /// share the remainder evenly.
    pub skew_hot_fraction: Option<f64>,
    /// Whether the hot key class can be split across instances
    /// (`key_classes > 1` in a [`ResourceAlloc`]): true when the skew comes
    /// from a *class* of keys rather than one indivisible key. Splitting an
    /// unsplittable hot key is a no-op.
    ///
    /// [`ResourceAlloc`]: ds2_core::deployment::ResourceAlloc
    pub skew_splittable: bool,
    /// State-size model (`None` = stateless: no bytes, no spill).
    pub state: Option<StateProfile>,
}

impl Default for OperatorProfile {
    fn default() -> Self {
        Self {
            deser_ns: 0.0,
            proc_ns: 1_000.0,
            ser_ns: 0.0,
            output: OutputMode::PerRecord { selectivity: 1.0 },
            scaling: ScalingCurve::Linear,
            hidden_ns: 0.0,
            hidden_scaling: ScalingCurve::Linear,
            skew_hot_fraction: None,
            skew_splittable: false,
            state: None,
        }
    }
}

impl OperatorProfile {
    /// A simple profile: `proc_ns` per record, fixed `selectivity`.
    pub fn simple(proc_ns: f64, selectivity: f64) -> Self {
        Self {
            proc_ns,
            output: OutputMode::PerRecord { selectivity },
            ..Default::default()
        }
    }

    /// A profile sized by capacity: `capacity` records/second per instance.
    pub fn with_capacity(capacity: f64, selectivity: f64) -> Self {
        Self::simple(1e9 / capacity, selectivity)
    }

    /// Adds (de)serialization costs.
    pub fn with_serde(mut self, deser_ns: f64, ser_ns: f64) -> Self {
        self.deser_ns = deser_ns;
        self.ser_ns = ser_ns;
        self
    }

    /// Sets the instrumented scaling curve.
    pub fn with_scaling(mut self, scaling: ScalingCurve) -> Self {
        self.scaling = scaling;
        self
    }

    /// Sets the hidden per-record overhead and its scaling curve.
    pub fn with_hidden(mut self, hidden_ns: f64, scaling: ScalingCurve) -> Self {
        self.hidden_ns = hidden_ns;
        self.hidden_scaling = scaling;
        self
    }

    /// Sets a hot-key skew fraction.
    pub fn with_skew(mut self, hot_fraction: f64) -> Self {
        self.skew_hot_fraction = Some(hot_fraction);
        self
    }

    /// Sets a *splittable* hot-key skew fraction: the hot share comes from
    /// a class of keys a `key_classes` split can spread across instances.
    pub fn with_splittable_skew(mut self, hot_fraction: f64) -> Self {
        self.skew_hot_fraction = Some(hot_fraction);
        self.skew_splittable = true;
        self
    }

    /// Sets the state-size model.
    pub fn with_state(mut self, state: StateProfile) -> Self {
        self.state = Some(state);
        self
    }

    /// Makes the output windowed with the given period.
    pub fn windowed(mut self, period_ns: u64) -> Self {
        let sel = self.output.average_selectivity();
        self.output = OutputMode::Windowed {
            selectivity: sel,
            period_ns,
        };
        self
    }

    /// Instrumented cost per input record at parallelism `p`, in ns.
    ///
    /// Serialization cost is charged per output record and folded in via
    /// the average selectivity.
    pub fn instrumented_cost_ns(&self, p: usize) -> f64 {
        let base = self.deser_ns + self.proc_ns + self.ser_ns * self.output.average_selectivity();
        base * self.scaling.multiplier(p)
    }

    /// Hidden (uninstrumented) cost per input record at parallelism `p`.
    pub fn hidden_cost_ns(&self, p: usize) -> f64 {
        self.hidden_ns * self.hidden_scaling.multiplier(p)
    }

    /// Real cost per record at parallelism `p`: instrumented + hidden.
    pub fn real_cost_ns(&self, p: usize) -> f64 {
        self.instrumented_cost_ns(p) + self.hidden_cost_ns(p)
    }

    /// True per-instance processing capacity at parallelism `p`, records/s,
    /// as instrumentation would measure it (excluding hidden overheads).
    pub fn measured_capacity(&self, p: usize) -> f64 {
        1e9 / self.instrumented_cost_ns(p)
    }

    /// Real per-instance processing capacity at parallelism `p`, records/s.
    pub fn real_capacity(&self, p: usize) -> f64 {
        1e9 / self.real_cost_ns(p)
    }

    /// Per-instance input shares at parallelism `p` (sums to 1).
    pub fn instance_weights(&self, p: usize) -> Vec<f64> {
        self.instance_weights_split(p, 1)
    }

    /// Per-instance input shares at parallelism `p` with the hot key class
    /// split across `split` instances (sums to 1).
    ///
    /// `split = 1` is classic hash partitioning and reproduces
    /// [`OperatorProfile::instance_weights`] bitwise. With `split = s > 1`
    /// the hot share is spread evenly over instances `0..s` (each receives
    /// `hot/s`) and the remaining `p - s` instances split the cold share
    /// evenly; `s >= p` degenerates to the uniform distribution. Profiles
    /// without [`OperatorProfile::skew_splittable`] ignore the split — the
    /// hot key is a single indivisible key.
    pub fn instance_weights_split(&self, p: usize, split: usize) -> Vec<f64> {
        let p = p.max(1);
        let s = if self.skew_splittable || split <= 1 {
            split.max(1)
        } else {
            1
        };
        match self.skew_hot_fraction {
            None => vec![1.0 / p as f64; p],
            Some(hot) => {
                if p == 1 {
                    return vec![1.0];
                }
                if s >= p {
                    return vec![1.0 / p as f64; p];
                }
                // The hot class receives max(hot, its fair share) spread
                // over s instances; the rest split the remainder evenly.
                // At s = 1 every operation below is bitwise identical to
                // the classic single-hot-instance formula.
                let hot = hot.clamp(0.0, 1.0).max(s as f64 / p as f64);
                let mut w = vec![(1.0 - hot) / ((p - s) as f64); p];
                let hot_each = hot / s as f64;
                for wi in w.iter_mut().take(s) {
                    *wi = hot_each;
                }
                w
            }
        }
    }

    /// Maximum sustainable aggregate input rate at parallelism `p` given the
    /// skew-adjusted instance shares: `R` such that the hottest instance
    /// processes `max_share * R <= real_capacity`.
    pub fn effective_capacity(&self, p: usize) -> f64 {
        self.effective_capacity_split(p, 1)
    }

    /// [`OperatorProfile::effective_capacity`] with the hot class split
    /// across `split` instances.
    pub fn effective_capacity_split(&self, p: usize, split: usize) -> f64 {
        let max_share = self
            .instance_weights_split(p, split)
            .into_iter()
            .fold(0.0f64, f64::max);
        self.real_capacity(p) / max_share
    }

    /// Per-instance state size at parallelism `p` and offered source rate
    /// `rate`, in bytes (0 for stateless operators).
    pub fn state_bytes(&self, p: usize, rate: f64) -> f64 {
        match &self.state {
            None => 0.0,
            Some(s) => s.total_bytes(rate) / p.max(1) as f64,
        }
    }
}

/// A profile set for a whole dataflow.
pub type ProfileMap = BTreeMap<OperatorId, OperatorProfile>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_curve_is_flat() {
        for p in [1, 2, 16, 100] {
            assert_eq!(ScalingCurve::Linear.multiplier(p), 1.0);
        }
    }

    #[test]
    fn saturating_curve_caps() {
        let c = ScalingCurve::Saturating {
            alpha: 0.5,
            knee: 4.0,
        };
        assert_eq!(c.multiplier(1), 1.0);
        assert!(c.multiplier(8) < 1.5);
        assert!(c.multiplier(1000) <= 1.5 + 1e-9);
        assert!(c.multiplier(4) < c.multiplier(8));
    }

    #[test]
    fn sigmoid_curve_steps_at_knee() {
        let c = ScalingCurve::Sigmoid {
            alpha: 0.4,
            knee: 11.0,
            width: 1.5,
        };
        assert!(c.multiplier(2) < 1.01);
        assert!((c.multiplier(11) - 1.2).abs() < 1e-9);
        assert!(c.multiplier(20) > 1.39);
        // Flat above the knee: unique fixed point from above.
        assert!((c.multiplier(36) - c.multiplier(20)).abs() < 0.01);
    }

    #[test]
    fn capacity_roundtrip() {
        let p = OperatorProfile::with_capacity(2_000.0, 1.5);
        assert!((p.measured_capacity(1) - 2_000.0).abs() < 1e-6);
        assert!((p.real_capacity(1) - 2_000.0).abs() < 1e-6);
    }

    #[test]
    fn serde_costs_fold_selectivity() {
        let p = OperatorProfile::simple(100.0, 2.0).with_serde(10.0, 20.0);
        // 10 deser + 100 proc + 2*20 ser = 150 ns.
        assert!((p.instrumented_cost_ns(1) - 150.0).abs() < 1e-12);
    }

    #[test]
    fn hidden_cost_reduces_real_capacity_only() {
        let p = OperatorProfile::simple(100.0, 1.0).with_hidden(50.0, ScalingCurve::Linear);
        assert!((p.measured_capacity(1) - 1e7).abs() < 1.0);
        assert!((p.real_capacity(1) - 1e9 / 150.0).abs() < 1.0);
    }

    #[test]
    fn sublinear_scaling_reduces_measured_capacity() {
        let p = OperatorProfile::simple(100.0, 1.0).with_scaling(ScalingCurve::Saturating {
            alpha: 0.5,
            knee: 4.0,
        });
        assert!(p.measured_capacity(10) < p.measured_capacity(1));
        // Multiplier at p = 10: 1 + 0.5 * (1 - e^(-9/4)).
        let expected = 1e9 / (100.0 * (1.0 + 0.5 * (1.0 - (-2.25f64).exp())));
        assert!((p.measured_capacity(10) - expected).abs() < 1e-6);
    }

    #[test]
    fn uniform_weights_sum_to_one() {
        let p = OperatorProfile::default();
        for n in 1..10 {
            let w = p.instance_weights(n);
            assert_eq!(w.len(), n);
            assert!((w.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn skewed_weights() {
        let p = OperatorProfile::default().with_skew(0.5);
        let w = p.instance_weights(4);
        assert!((w[0] - 0.5).abs() < 1e-12);
        assert!((w[1] - 0.5 / 3.0).abs() < 1e-12);
        assert!((w.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        // Skew below the fair share degrades to uniform.
        let p = OperatorProfile::default().with_skew(0.1);
        let w = p.instance_weights(4);
        assert!((w[0] - 0.25).abs() < 1e-12);
    }

    #[test]
    fn effective_capacity_limited_by_hot_instance() {
        let p = OperatorProfile::with_capacity(100.0, 1.0).with_skew(0.5);
        // 4 instances, hot share 0.5: R_max = 100 / 0.5 = 200, not 400.
        assert!((p.effective_capacity(4) - 200.0).abs() < 1e-9);
        let uniform = OperatorProfile::with_capacity(100.0, 1.0);
        assert!((uniform.effective_capacity(4) - 400.0).abs() < 1e-9);
    }

    #[test]
    fn split_one_is_bitwise_identical_to_classic_weights() {
        for hot in [0.05, 0.3, 0.5, 0.9] {
            let p = OperatorProfile::default().with_splittable_skew(hot);
            for n in 1..=16 {
                let classic = p.instance_weights(n);
                let split = p.instance_weights_split(n, 1);
                assert_eq!(classic.len(), split.len());
                for (a, b) in classic.iter().zip(&split) {
                    assert_eq!(a.to_bits(), b.to_bits(), "hot={hot} p={n}");
                }
            }
        }
    }

    #[test]
    fn split_spreads_hot_share_and_conserves_mass() {
        let p = OperatorProfile::default().with_splittable_skew(0.6);
        let w = p.instance_weights_split(6, 3);
        assert!((w[0] - 0.2).abs() < 1e-12);
        assert!((w[1] - 0.2).abs() < 1e-12);
        assert!((w[2] - 0.2).abs() < 1e-12);
        assert!((w[3] - 0.4 / 3.0).abs() < 1e-12);
        assert!((w.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        // Splitting over every instance is uniform.
        let w = p.instance_weights_split(4, 4);
        assert!(w.iter().all(|x| (x - 0.25).abs() < 1e-12));
        // Splitting over more instances than exist is also uniform.
        let w = p.instance_weights_split(4, 9);
        assert!(w.iter().all(|x| (x - 0.25).abs() < 1e-12));
    }

    #[test]
    fn unsplittable_skew_ignores_the_split() {
        let p = OperatorProfile::default().with_skew(0.5);
        let w1 = p.instance_weights_split(4, 1);
        let w2 = p.instance_weights_split(4, 2);
        assert_eq!(w1, w2, "an indivisible hot key cannot be split");
    }

    #[test]
    fn split_raises_effective_capacity() {
        let p = OperatorProfile::with_capacity(100.0, 1.0).with_splittable_skew(0.5);
        // Unsplit: hot instance takes 0.5 → R_max = 200 regardless of p.
        assert!((p.effective_capacity_split(8, 1) - 200.0).abs() < 1e-9);
        // Split over 2: hottest share 0.25 → R_max = 400.
        assert!((p.effective_capacity_split(8, 2) - 400.0).abs() < 1e-9);
        // Full split: uniform → R_max = 800.
        assert!((p.effective_capacity_split(8, 8) - 800.0).abs() < 1e-9);
    }

    #[test]
    fn state_bytes_divides_across_instances() {
        let p = OperatorProfile::default().with_state(StateProfile {
            bytes_per_source_rate: 1.5e3,
            spill_cost_multiplier: 3.0,
            budget_per_instance_bytes: f64::INFINITY,
        });
        // 1.5e3 * 2000 = 3e6 total, over 4 instances.
        assert!((p.state_bytes(4, 2_000.0) - 7.5e5).abs() < 1e-6);
        let stateless = OperatorProfile::default();
        assert_eq!(stateless.state_bytes(4, 2_000.0), 0.0);
    }

    #[test]
    fn windowed_output_mode() {
        let p = OperatorProfile::simple(10.0, 0.1).windowed(1_000_000_000);
        match p.output {
            OutputMode::Windowed {
                selectivity,
                period_ns,
            } => {
                assert!((selectivity - 0.1).abs() < 1e-12);
                assert_eq!(period_ns, 1_000_000_000);
            }
            _ => panic!("expected windowed output"),
        }
        assert!((p.output.average_selectivity() - 0.1).abs() < 1e-12);
    }
}
