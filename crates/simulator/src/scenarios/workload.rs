//! Workload shapes for the scenario matrix: offered-rate schedules over
//! the run, mirroring the paper's evaluation conditions (§5.2 constant
//! rates, §5.3 step changes, production-style diurnal curves, transient
//! spikes) plus hot-key skew (§4.2.3), which stresses the policy through
//! uneven per-instance load rather than through the rate, and three
//! production-style composites: sawtooth ramp cycles, flash crowds that
//! recede to an elevated plateau, and rate spikes correlated with a hot
//! key.

use crate::source::{RateSchedule, SourceSpec};
use rand::rngs::SmallRng;
use rand::Rng;

/// The family a generated workload belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WorkloadShape {
    /// Fixed offered rate for the whole run.
    Constant,
    /// One rate change partway through the run (up or down).
    Step,
    /// A day-curve approximated by a piecewise-constant sine.
    DiurnalSine,
    /// Short burst at an elevated rate, then back to base.
    Spike,
    /// Constant rate with a hot key concentrating load on one instance of a
    /// randomly chosen operator.
    KeySkew,
    /// Repeated ramp cycles: the rate climbs in small increments, drops
    /// sharply back to base, and climbs again (batch-ingest or compaction
    /// cycles); the final phase is back at the base rate.
    Sawtooth,
    /// A sudden jump to a multiple of the base rate that recedes to an
    /// elevated plateau instead of returning to base (a viral event whose
    /// audience partly sticks around) — the final phase is the plateau.
    FlashCrowd,
    /// A transient rate spike *correlated with* a hot key on one operator:
    /// the rate stress and the skew stress arrive together, the way real
    /// flash events concentrate on one entity.
    SpikeSkew,
    /// A sustained staircase climb to a multiple of the base rate that
    /// never recedes — rate-proportional operator state grows with every
    /// step, so a state budget that fit at the base rate stops fitting
    /// partway up (state-pressure families). Not part of
    /// [`WorkloadShape::ALL`]: the headline matrix mix is unchanged.
    StateRamp,
    /// A step to a persistently elevated rate: the state footprint jumps
    /// with it and *stays* high, unlike [`WorkloadShape::Spike`] whose
    /// burst recedes. Not part of [`WorkloadShape::ALL`].
    StateSpike,
}

impl WorkloadShape {
    /// All shapes, in matrix iteration order.
    pub const ALL: [WorkloadShape; 8] = [
        WorkloadShape::Constant,
        WorkloadShape::Step,
        WorkloadShape::DiurnalSine,
        WorkloadShape::Spike,
        WorkloadShape::KeySkew,
        WorkloadShape::Sawtooth,
        WorkloadShape::FlashCrowd,
        WorkloadShape::SpikeSkew,
    ];

    /// Short name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            WorkloadShape::Constant => "constant",
            WorkloadShape::Step => "step",
            WorkloadShape::DiurnalSine => "diurnal",
            WorkloadShape::Spike => "spike",
            WorkloadShape::KeySkew => "key_skew",
            WorkloadShape::Sawtooth => "sawtooth",
            WorkloadShape::FlashCrowd => "flash_crowd",
            WorkloadShape::SpikeSkew => "spike_skew",
            WorkloadShape::StateRamp => "state_ramp",
            WorkloadShape::StateSpike => "state_spike",
        }
    }

    /// Parses a short name as printed in reports.
    pub fn from_name(name: &str) -> Option<WorkloadShape> {
        match name {
            // The state shapes live outside `ALL` (they only appear in the
            // state-pressure scenario family) but still parse.
            "state_ramp" => Some(WorkloadShape::StateRamp),
            "state_spike" => Some(WorkloadShape::StateSpike),
            _ => WorkloadShape::ALL.into_iter().find(|s| s.name() == name),
        }
    }
}

/// A concrete workload: the source spec plus the facts the matrix needs to
/// score a run against it.
#[derive(Debug, Clone)]
pub struct Workload {
    /// The family this workload was drawn from.
    pub shape: WorkloadShape,
    /// The source specification (schedule + backlog semantics).
    pub spec: SourceSpec,
    /// The offered rate over the final phase of the run — the rate the
    /// final deployment must sustain.
    pub final_rate: f64,
    /// Start of the last phase: decisions after this point respond to the
    /// final rate (convergence is judged from here).
    pub last_change_ns: u64,
    /// Hot-key fraction to apply to one operator's profile (KeySkew only).
    pub skew_hot_fraction: Option<f64>,
}

impl Workload {
    /// A workload whose schedule is the `(from_ns, rate)` `steps`, given in
    /// time order: the last step starts the final phase.
    pub(crate) fn from_steps(
        shape: WorkloadShape,
        steps: Vec<(u64, f64)>,
        final_rate: f64,
        skew_hot_fraction: Option<f64>,
    ) -> Workload {
        let last_change_ns = steps.last().map_or(0, |&(t, _)| t);
        Workload {
            shape,
            spec: SourceSpec::constant(final_rate).with_schedule(RateSchedule::steps(steps)),
            final_rate,
            last_change_ns,
            skew_hot_fraction,
        }
    }

    /// Generates a workload of the given shape for a run of
    /// `run_duration_ns`, with base rates drawn from `rate_range`.
    pub fn generate(
        shape: WorkloadShape,
        run_duration_ns: u64,
        rate_range: (f64, f64),
        rng: &mut SmallRng,
    ) -> Workload {
        let (lo, hi) = rate_range;
        let base = rng.gen_range(lo..hi);
        let mut skew_hot_fraction = None;
        let (steps, final_rate) = match shape {
            WorkloadShape::Constant => (vec![(0, base)], base),
            WorkloadShape::Step => {
                // Change between 35% and 65% of the run, by a 1.5–3x factor
                // in either direction.
                let at = (run_duration_ns as f64 * rng.gen_range(0.35..0.65)) as u64;
                let factor = rng.gen_range(1.5..3.0);
                let second = if rng.gen_bool(0.5) {
                    (base * factor).min(hi * 3.0)
                } else {
                    base / factor
                };
                (vec![(0, base), (at, second)], second)
            }
            WorkloadShape::DiurnalSine => {
                // One full sine period over the run, piecewise-constant in
                // 16 segments, amplitude 25–60% of the base rate. The final
                // segment is the rate convergence is judged against.
                let segments = 16u64;
                let amplitude = rng.gen_range(0.25..0.6) * base;
                let phase = rng.gen_range(0.0..std::f64::consts::TAU);
                let seg_ns = (run_duration_ns / segments).max(1);
                let steps: Vec<(u64, f64)> = (0..segments)
                    .map(|s| {
                        let x = phase + std::f64::consts::TAU * (s as f64 + 0.5) / segments as f64;
                        (s * seg_ns, (base + amplitude * x.sin()).max(lo * 0.25))
                    })
                    .collect();
                let final_rate = steps[steps.len() - 1].1;
                (steps, final_rate)
            }
            WorkloadShape::Spike | WorkloadShape::SpikeSkew => {
                // A 2.5–4x burst covering ~12% of the run, ending before the
                // last third so the controller can settle back down. The
                // skewed variant correlates it with a hot key: 25–50% of one
                // operator's input concentrates on instance 0 for the whole
                // run, testing the policy under both stresses at once.
                let start = (run_duration_ns as f64 * rng.gen_range(0.25..0.45)) as u64;
                let len = (run_duration_ns as f64 * 0.12) as u64;
                let burst = base * rng.gen_range(2.5..4.0);
                if shape == WorkloadShape::SpikeSkew {
                    skew_hot_fraction = Some(rng.gen_range(0.25..0.5));
                }
                (vec![(0, base), (start, burst), (start + len, base)], base)
            }
            WorkloadShape::KeySkew => {
                // Constant rate; the stress comes from a hot key that
                // concentrates 30–60% of one operator's input on instance 0.
                skew_hot_fraction = Some(rng.gen_range(0.3..0.6));
                (vec![(0, base)], base)
            }
            WorkloadShape::Sawtooth => {
                // 2–3 ramp cycles over the first ~70% of the run: each tooth
                // climbs from base towards `peak` in 4 increments and then
                // drops sharply back to base. The final drop is the last
                // change, so convergence is judged against the base rate
                // with plenty of tail left to settle.
                let teeth = rng.gen_range(2..=3u64);
                let ramp_steps = 4u64;
                let peak = base * rng.gen_range(1.8..2.8);
                let active_ns = (run_duration_ns as f64 * 0.7) as u64;
                let tooth_ns = (active_ns / teeth).max(1);
                let seg_ns = (tooth_ns / (ramp_steps + 1)).max(1);
                let mut steps = Vec::new();
                for tooth in 0..teeth {
                    let t0 = tooth * tooth_ns;
                    for s in 0..ramp_steps {
                        let frac = s as f64 / (ramp_steps - 1) as f64;
                        steps.push((t0 + s * seg_ns, base + (peak - base) * frac));
                    }
                    // Sharp drop back to base.
                    steps.push((t0 + ramp_steps * seg_ns, base));
                }
                (steps, base)
            }
            WorkloadShape::FlashCrowd => {
                // Sudden 3–5x jump at 30–50% of the run, a short peak, then
                // recession to a plateau well above base (part of the crowd
                // stays). The plateau is the rate the final deployment must
                // sustain.
                let t0 = (run_duration_ns as f64 * rng.gen_range(0.3..0.5)) as u64;
                let factor = rng.gen_range(3.0..5.0);
                let peak = (base * factor).min(hi * 3.0);
                let peak_len = (run_duration_ns as f64 * rng.gen_range(0.08..0.12)) as u64;
                let plateau = base + (peak - base) * rng.gen_range(0.3..0.5);
                (
                    vec![(0, base), (t0, peak), (t0 + peak_len, plateau)],
                    plateau,
                )
            }
            WorkloadShape::StateRamp => {
                // Staircase from base to 2–3x over the first ~60% of the
                // run, in 5 equal increments that never recede: each step
                // adds rate-proportional state, so a budget sized for the
                // base rate starts spilling partway up the stairs. The last
                // stair, `base + (top - base) * 1.0`, can sit one ulp off
                // `top`, which stays the final rate.
                let steps_n = 5u64;
                let top = base * rng.gen_range(2.0..3.0);
                let active_ns = (run_duration_ns as f64 * 0.6) as u64;
                let seg_ns = (active_ns / steps_n).max(1);
                let mut steps = vec![(0, base)];
                for s in 1..=steps_n {
                    let frac = s as f64 / steps_n as f64;
                    steps.push((s * seg_ns, base + (top - base) * frac));
                }
                (steps, top)
            }
            WorkloadShape::StateSpike => {
                // One step to a 2.5–4x rate at 30–50% of the run that
                // *stays*: the state footprint jumps with the rate and never
                // comes back down.
                let at = (run_duration_ns as f64 * rng.gen_range(0.3..0.5)) as u64;
                let high = (base * rng.gen_range(2.5..4.0)).min(hi * 3.0);
                (vec![(0, base), (at, high)], high)
            }
        };
        Workload::from_steps(shape, steps, final_rate, skew_hot_fraction)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    const RUN: u64 = 300_000_000_000;

    #[test]
    fn final_rate_matches_schedule_tail() {
        let mut rng = SmallRng::seed_from_u64(5);
        for shape in WorkloadShape::ALL {
            for _ in 0..50 {
                let w = Workload::generate(shape, RUN, (500.0, 5_000.0), &mut rng);
                let tail = w.spec.schedule.rate_at(RUN);
                assert!(
                    (tail - w.final_rate).abs() < 1e-9,
                    "{shape:?}: tail {tail} != final {}",
                    w.final_rate
                );
                assert!(
                    w.spec.schedule.peak_rate() >= w.final_rate - 1e-9,
                    "{shape:?}"
                );
                assert!(w.last_change_ns < RUN, "{shape:?}");
            }
        }
    }

    #[test]
    fn skew_only_on_skewed_shapes() {
        let mut rng = SmallRng::seed_from_u64(6);
        for shape in WorkloadShape::ALL {
            let w = Workload::generate(shape, RUN, (500.0, 5_000.0), &mut rng);
            let skewed = matches!(w.shape, WorkloadShape::KeySkew | WorkloadShape::SpikeSkew);
            assert_eq!(w.skew_hot_fraction.is_some(), skewed, "{shape:?}");
        }
    }

    #[test]
    fn sawtooth_ramps_and_resets() {
        let mut rng = SmallRng::seed_from_u64(21);
        for _ in 0..30 {
            let w = Workload::generate(WorkloadShape::Sawtooth, RUN, (500.0, 5_000.0), &mut rng);
            // Ends back at base with the peak strictly above it.
            let peak = w.spec.schedule.peak_rate();
            assert!(peak > w.final_rate * 1.5, "peak {peak}");
            // The final drop leaves at least the last 30% of the run to
            // settle.
            assert!(w.last_change_ns <= (RUN as f64 * 0.7) as u64 + 1);
            // At least two distinct climbs: the rate right before the last
            // drop is above base.
            let before_drop = w.spec.schedule.rate_at(w.last_change_ns - 1);
            assert!(before_drop > w.final_rate * 1.5, "no ramp before drop");
        }
    }

    #[test]
    fn flash_crowd_recedes_to_elevated_plateau() {
        let mut rng = SmallRng::seed_from_u64(22);
        for _ in 0..30 {
            let w = Workload::generate(WorkloadShape::FlashCrowd, RUN, (500.0, 5_000.0), &mut rng);
            let base = w.spec.schedule.rate_at(0);
            // Plateau strictly between base and peak: the crowd partly
            // stays.
            assert!(
                w.final_rate > base * 1.2,
                "plateau {} base {base}",
                w.final_rate
            );
            assert!(
                w.spec.schedule.peak_rate() > w.final_rate * 1.2,
                "peak not above plateau"
            );
            assert!(w.last_change_ns < (RUN as f64 * 0.7) as u64);
        }
    }

    #[test]
    fn spike_skew_combines_burst_and_hot_key() {
        let mut rng = SmallRng::seed_from_u64(23);
        for _ in 0..30 {
            let w = Workload::generate(WorkloadShape::SpikeSkew, RUN, (500.0, 5_000.0), &mut rng);
            let hot = w.skew_hot_fraction.expect("correlated skew present");
            assert!((0.25..0.5).contains(&hot));
            // The burst is transient: the schedule returns to the base rate.
            assert!(w.spec.schedule.peak_rate() > w.final_rate * 2.0);
            assert!((w.spec.schedule.rate_at(RUN) - w.final_rate).abs() < 1e-9);
        }
    }

    #[test]
    fn state_shapes_stay_out_of_all_but_parse_and_hold_invariants() {
        assert_eq!(WorkloadShape::ALL.len(), 8, "headline mix must not grow");
        let mut rng = SmallRng::seed_from_u64(31);
        for shape in [WorkloadShape::StateRamp, WorkloadShape::StateSpike] {
            assert!(!WorkloadShape::ALL.contains(&shape));
            assert_eq!(WorkloadShape::from_name(shape.name()), Some(shape));
            for _ in 0..30 {
                let w = Workload::generate(shape, RUN, (500.0, 5_000.0), &mut rng);
                let base = w.spec.schedule.rate_at(0);
                // The elevated rate persists to the end of the run.
                assert!((w.spec.schedule.rate_at(RUN) - w.final_rate).abs() < 1e-9);
                assert!(w.final_rate > base * 1.5, "rate must stay elevated");
                assert!((w.spec.schedule.peak_rate() - w.final_rate).abs() < 1e-9);
                assert!(w.last_change_ns < (RUN as f64 * 0.65) as u64);
                assert!(w.skew_hot_fraction.is_none());
            }
        }
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let a = Workload::generate(
            WorkloadShape::DiurnalSine,
            RUN,
            (500.0, 5_000.0),
            &mut SmallRng::seed_from_u64(9),
        );
        let b = Workload::generate(
            WorkloadShape::DiurnalSine,
            RUN,
            (500.0, 5_000.0),
            &mut SmallRng::seed_from_u64(9),
        );
        assert_eq!(a.spec, b.spec);
        assert_eq!(a.final_rate, b.final_rate);
    }
}
