//! Source rate schedules.
//!
//! The offered rate of a source is defined by the application (sensors,
//! market feeds); experiments drive it through a piecewise-constant
//! schedule, e.g. the two-phase word-count workload of §5.3 (2M records/s
//! for ten minutes, then 1M records/s).

/// A piecewise-constant offered-rate schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct RateSchedule {
    /// `(from_ns, records_per_second)` steps, sorted by `from_ns`.
    steps: Vec<(u64, f64)>,
}

impl RateSchedule {
    /// A constant rate from time zero.
    pub fn constant(rate: f64) -> Self {
        Self {
            steps: vec![(0, rate)],
        }
    }

    /// Builds a schedule from `(from_ns, rate)` steps.
    ///
    /// Steps are sorted by start time; the rate before the first step is 0.
    pub fn steps(mut steps: Vec<(u64, f64)>) -> Self {
        steps.sort_by_key(|&(t, _)| t);
        Self { steps }
    }

    /// The offered rate at time `now_ns`, in records/second.
    pub fn rate_at(&self, now_ns: u64) -> f64 {
        let mut rate = 0.0;
        for &(from, r) in &self.steps {
            if from <= now_ns {
                rate = r;
            } else {
                break;
            }
        }
        rate
    }

    /// The maximum rate anywhere in the schedule.
    pub fn peak_rate(&self) -> f64 {
        self.steps.iter().map(|&(_, r)| r).fold(0.0, f64::max)
    }

    /// The first phase boundary strictly after `now_ns`, if any — the time
    /// the offered rate next changes. Fast-forward uses this to bound how
    /// far a steady-state transition remains valid; `None` means the
    /// schedule is constant from `now_ns` on.
    pub fn next_change_after(&self, now_ns: u64) -> Option<u64> {
        self.steps.iter().map(|&(t, _)| t).find(|&t| t > now_ns)
    }

    /// The same phase boundaries with every rate multiplied by `factor` —
    /// how a multi-feed scenario splits one workload schedule across its
    /// sources at fixed rate ratios.
    pub fn scaled(&self, factor: f64) -> RateSchedule {
        RateSchedule {
            steps: self.steps.iter().map(|&(t, r)| (t, r * factor)).collect(),
        }
    }
}

/// Configuration of one source operator in a simulated scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct SourceSpec {
    /// Offered-rate schedule.
    pub schedule: RateSchedule,
    /// When `true`, records the source could not emit (backpressure, or the
    /// job being down during redeployment) accumulate in an external
    /// durable buffer — Kafka-style — and are replayed as capacity allows.
    /// When `false`, unemitted offers are simply lost (a rate-limited
    /// generator, as in the Dhalion benchmark).
    pub durable_backlog: bool,
}

impl SourceSpec {
    /// A constant-rate generator without durable backlog.
    pub fn constant(rate: f64) -> Self {
        Self {
            schedule: RateSchedule::constant(rate),
            durable_backlog: false,
        }
    }

    /// A constant-rate durable (replayable) source.
    pub fn durable(rate: f64) -> Self {
        Self {
            schedule: RateSchedule::constant(rate),
            durable_backlog: true,
        }
    }

    /// Sets a phased schedule.
    pub fn with_schedule(mut self, schedule: RateSchedule) -> Self {
        self.schedule = schedule;
        self
    }

    /// This spec with every schedule rate multiplied by `factor` (backlog
    /// semantics unchanged).
    pub fn scaled(&self, factor: f64) -> SourceSpec {
        SourceSpec {
            schedule: self.schedule.scaled(factor),
            ..self.clone()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_rate() {
        let s = RateSchedule::constant(100.0);
        assert_eq!(s.rate_at(0), 100.0);
        assert_eq!(s.rate_at(u64::MAX), 100.0);
        assert_eq!(s.peak_rate(), 100.0);
    }

    #[test]
    fn phased_schedule() {
        // The §5.3 two-phase workload: 2M/s then 1M/s at t = 800 s.
        let s = RateSchedule::steps(vec![(800_000_000_000, 1e6), (0, 2e6)]);
        assert_eq!(s.rate_at(0), 2e6);
        assert_eq!(s.rate_at(799_999_999_999), 2e6);
        assert_eq!(s.rate_at(800_000_000_000), 1e6);
        assert_eq!(s.peak_rate(), 2e6);
    }

    #[test]
    fn rate_before_first_step_is_zero() {
        let s = RateSchedule::steps(vec![(1_000, 5.0)]);
        assert_eq!(s.rate_at(0), 0.0);
        assert_eq!(s.rate_at(1_000), 5.0);
    }

    #[test]
    fn spec_builders() {
        let s = SourceSpec::constant(10.0);
        assert!(!s.durable_backlog);
        let d = SourceSpec::durable(10.0);
        assert!(d.durable_backlog);
    }
}
