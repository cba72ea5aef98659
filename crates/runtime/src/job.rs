//! Job specification: a logical dataflow plus the code and configuration
//! needed to run it on the threaded engine.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

use ds2_core::graph::{LogicalGraph, OperatorId};

use crate::chaos::ChaosSpec;
use crate::logic::Logic;
use crate::supervisor::SupervisionConfig;

/// Factory producing fresh logic instances for an operator (one per
/// parallel instance, re-created on every rescale).
pub(crate) type LogicFactory<R> = Arc<dyn Fn() -> Box<dyn Logic<R>> + Send + Sync>;

/// Key extractor used to partition records among downstream instances.
pub(crate) type KeyFn<R> = Arc<dyn Fn(&R) -> u64 + Send + Sync>;

/// Generator invoked by source instances once per batch: `generate(n, len,
/// out)` appends records `n..n + len` of the instance's sequence to `out`.
pub(crate) type SourceFn<R> = Arc<dyn Fn(u64, usize, &mut Vec<R>) + Send + Sync>;

/// Specification of one non-source operator.
pub struct OperatorSpec<R> {
    /// Creates the per-instance logic.
    pub(crate) factory: LogicFactory<R>,
    /// Extracts the partitioning key from an *output* record.
    pub key_fn: KeyFn<R>,
}

impl<R> Clone for OperatorSpec<R> {
    fn clone(&self) -> Self {
        Self {
            factory: Arc::clone(&self.factory),
            key_fn: Arc::clone(&self.key_fn),
        }
    }
}

/// Specification of one source operator.
pub struct SourceOpSpec<R> {
    /// Appends a batch of an instance's records, numbered by a counter
    /// per instance that starts at 0 on every deployment and never skips.
    pub generate: SourceFn<R>,
    /// Extracts the partitioning key from a generated record.
    pub key_fn: KeyFn<R>,
    /// Aggregate offered rate across instances, records/second. Each
    /// instance paces its batches against absolute deadlines
    /// (`start + k * interval`), so the rate is held exactly over any
    /// window: time lost to a blocked send is worked off by firing the
    /// backlog, not silently donated. A rate above what the hardware can
    /// move saturates the pipeline (the source never sleeps).
    pub rate: f64,
}

impl<R> Clone for SourceOpSpec<R> {
    fn clone(&self) -> Self {
        Self {
            generate: Arc::clone(&self.generate),
            key_fn: Arc::clone(&self.key_fn),
            rate: self.rate,
        }
    }
}

/// A complete job: graph, operator code, source drivers, engine knobs.
pub struct JobSpec<R> {
    /// The logical dataflow.
    pub graph: LogicalGraph,
    /// Logic for every non-source operator.
    pub operators: BTreeMap<OperatorId, OperatorSpec<R>>,
    /// Drivers for every source operator.
    pub sources: BTreeMap<OperatorId, SourceOpSpec<R>>,
    /// Records per channel batch (Flink-style buffer granularity). Batch
    /// buffers are recycled through the job's free-list
    /// (`BatchPool`, sized from `channel_capacity`), so
    /// larger batches amortize per-batch channel and dispatch costs
    /// without adding steady-state allocation. Deployed as at least 1.
    pub batch_size: usize,
    /// Bounded channel capacity, in batches, per receiving instance.
    /// Deployed as at least 1. A producer of cheap batches lets a sleeping
    /// consumer sleep until half of this is queued (or until it stops
    /// producing), so a larger queue means fewer, longer consumer bursts.
    pub channel_capacity: usize,
    /// Deadline for the stop-the-world halt during a rescale. `None` waits
    /// forever (the pre-hardening behaviour); with a deadline set, a worker
    /// that fails to halt in time — wedged in user code — aborts the
    /// rescale with [`Ds2Error::RescaleTimedOut`](ds2_core::error::Ds2Error)
    /// instead of hanging the control plane.
    pub rescale_timeout: Option<Duration>,
    /// Interval between background savepoint cycles
    /// (`RunningJob::maybe_checkpoint`).
    /// `None` (the default) disables checkpointing: fault-free runs keep
    /// the pre-chaos behaviour with zero snapshot overhead.
    pub checkpoint_interval: Option<Duration>,
    /// Deadline for one savepoint cycle: instances that do not reply with
    /// their state copy in time abort the cycle (the previous complete
    /// checkpoint is kept) and start counting toward wedge detection.
    pub checkpoint_timeout: Duration,
    /// Restart budgets and wedge thresholds for supervised workers.
    pub supervision: SupervisionConfig,
    /// Deterministic fault injection; empty (the default) injects nothing.
    pub chaos: ChaosSpec,
}

impl<R> JobSpec<R> {
    /// Creates a job spec with default batching (128-record batches, 64
    /// batches of channel capacity).
    pub fn new(graph: LogicalGraph) -> Self {
        Self {
            graph,
            operators: BTreeMap::new(),
            sources: BTreeMap::new(),
            batch_size: 128,
            channel_capacity: 64,
            rescale_timeout: None,
            checkpoint_interval: None,
            checkpoint_timeout: Duration::from_secs(1),
            supervision: SupervisionConfig::default(),
            chaos: ChaosSpec::default(),
        }
    }

    /// Registers a non-source operator.
    pub fn operator(
        &mut self,
        op: OperatorId,
        factory: impl Fn() -> Box<dyn Logic<R>> + Send + Sync + 'static,
        key_fn: impl Fn(&R) -> u64 + Send + Sync + 'static,
    ) -> &mut Self {
        self.operators.insert(
            op,
            OperatorSpec {
                factory: Arc::new(factory),
                key_fn: Arc::new(key_fn),
            },
        );
        self
    }

    /// Registers a source driver; `generate(n)` makes an instance's `n`-th
    /// record. It is called from a loop over the batch, one virtual call
    /// per batch, so the per-record call can be inlined.
    pub fn source(
        &mut self,
        op: OperatorId,
        rate: f64,
        generate: impl Fn(u64) -> R + Send + Sync + 'static,
        key_fn: impl Fn(&R) -> u64 + Send + Sync + 'static,
    ) -> &mut Self {
        self.sources.insert(
            op,
            SourceOpSpec {
                generate: Arc::new(move |n, len, out: &mut Vec<R>| {
                    out.extend((n..n + len as u64).map(&generate));
                }),
                key_fn: Arc::new(key_fn),
                rate,
            },
        );
        self
    }

    /// Validates that every operator of the graph has code attached.
    ///
    /// # Panics
    ///
    /// Panics on a missing registration — a programming error in job setup.
    pub fn validate(&self) {
        for op in self.graph.operators() {
            if self.graph.is_source(op) {
                assert!(
                    self.sources.contains_key(&op),
                    "source {op} has no driver registered"
                );
            } else {
                assert!(
                    self.operators.contains_key(&op),
                    "operator {op} has no logic registered"
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::logic::FnLogic;
    use ds2_core::graph::GraphBuilder;

    #[test]
    fn builds_and_validates() {
        let mut b = GraphBuilder::new();
        let s = b.operator("src");
        let o = b.operator("op");
        b.connect(s, o);
        let g = b.build().unwrap();
        let mut spec: JobSpec<u64> = JobSpec::new(g);
        spec.source(s, 100.0, |n| n, |&r| r);
        spec.operator(
            o,
            || Box::new(FnLogic::new(|r: u64, out: &mut Vec<u64>| out.push(r))),
            |&r| r,
        );
        spec.validate();
    }

    #[test]
    #[should_panic(expected = "no logic registered")]
    fn missing_operator_panics() {
        let mut b = GraphBuilder::new();
        let s = b.operator("src");
        let o = b.operator("op");
        b.connect(s, o);
        let g = b.build().unwrap();
        let mut spec: JobSpec<u64> = JobSpec::new(g);
        spec.source(s, 100.0, |n| n, |&r| r);
        spec.validate();
    }
}
