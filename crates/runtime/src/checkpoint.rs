//! In-memory checkpoint store for the threaded engine.
//!
//! A checkpoint is the §4.2 savepoint taken *without* halting the job: each
//! instance briefly quiesces, clones its keyed state
//! ([`Logic::snapshot_state`](crate::logic::Logic::snapshot_state)), and
//! ships the copy to the store. Because keys are disjoint across the
//! instances of one operator (hash partitioning), per-instance snapshots
//! compose into a consistent operator savepoint without barriers. Crash
//! recovery restores exactly the failed instance's key range
//! ([`CheckpointStore::key_slice`]) — the other instances keep running.

use std::collections::BTreeMap;
use std::time::Duration;

use ds2_core::graph::OperatorId;

use crate::logic::StateEntry;

/// Partitions keyed state entries across `parallelism` instances by
/// `key % parallelism` — the same rule the engine's hash router uses, so
/// entry `(k, v)` lands on the instance that receives records for key `k`.
pub fn partition_state(entries: Vec<StateEntry>, parallelism: usize) -> Vec<Vec<StateEntry>> {
    partition_parts(vec![entries], parallelism)
}

/// [`partition_state`] over state that arrives in several parts — one per
/// drained instance — without concatenating them first. A counting pass
/// sizes every bucket exactly, so the fill pass never regrows one; state
/// bound for a single instance is handed through without a pass.
pub fn partition_parts(parts: Vec<Vec<StateEntry>>, parallelism: usize) -> Vec<Vec<StateEntry>> {
    if parallelism == 0 {
        return Vec::new();
    }
    if parallelism == 1 {
        // Everything goes to one instance: a lone part as it is, several
        // joined by whole-vector moves — no key is looked at.
        if parts.len() == 1 {
            return parts;
        }
        let mut all = Vec::with_capacity(parts.iter().map(Vec::len).sum());
        parts.into_iter().for_each(|part| all.extend(part));
        return vec![all];
    }
    let p = parallelism as u64;
    // `k & (p-1) == k % p` for a power of two, as in the router.
    let mask = parallelism.is_power_of_two().then(|| p - 1);
    let bucket_of = |key: u64| match mask {
        Some(m) => (key & m) as usize,
        None => (key % p) as usize,
    };
    let mut sizes = vec![0usize; parallelism];
    for (key, _) in parts.iter().flatten() {
        sizes[bucket_of(*key)] += 1;
    }
    let mut buckets: Vec<Vec<StateEntry>> = sizes.into_iter().map(Vec::with_capacity).collect();
    for (key, value) in parts.into_iter().flatten() {
        buckets[bucket_of(key)].push((key, value));
    }
    buckets
}

/// The latest committed savepoint of a running job: one epoch counter plus
/// the cloned keyed state of every stateful operator. Only complete cycles
/// commit — a cycle where any instance missed the deadline is discarded, so
/// the store never holds a savepoint with a hole in its key space.
#[derive(Default)]
pub struct CheckpointStore {
    epoch: u64,
    state: BTreeMap<OperatorId, Vec<StateEntry>>,
}

impl CheckpointStore {
    /// Creates an empty store (epoch 0, nothing restorable).
    pub fn new() -> Self {
        Self::default()
    }

    /// The epoch of the latest committed checkpoint; 0 before the first.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// `true` until the first checkpoint commits.
    pub fn is_empty(&self) -> bool {
        self.epoch == 0
    }

    /// Replaces the stored savepoint with `state`, returning the new epoch.
    pub fn commit(&mut self, state: BTreeMap<OperatorId, Vec<StateEntry>>) -> u64 {
        self.epoch += 1;
        self.state = state;
        self.epoch
    }

    /// All entries checkpointed for `op` (empty if none).
    pub fn operator(&self, op: OperatorId) -> &[StateEntry] {
        self.state.get(&op).map(Vec::as_slice).unwrap_or(&[])
    }

    /// A copy of the checkpointed entries in instance `instance`'s key range
    /// at parallelism `parallelism` (`key % parallelism == instance`) — the
    /// restore set for one failed instance.
    pub fn key_slice(
        &self,
        op: OperatorId,
        instance: usize,
        parallelism: usize,
    ) -> Vec<StateEntry> {
        if parallelism == 0 {
            return Vec::new();
        }
        self.operator(op)
            .iter()
            .filter(|(k, _)| *k as usize % parallelism == instance)
            .map(|(k, v)| (*k, v.clone()))
            .collect()
    }

    /// Total entries across all operators in the latest checkpoint.
    pub(crate) fn total_entries(&self) -> usize {
        self.state.values().map(Vec::len).sum()
    }
}

/// Outcome of one savepoint cycle.
#[derive(Debug, Clone)]
pub struct CheckpointStats {
    /// Keyed entries captured by a committed cycle.
    pub entries: usize,
    /// Wall-clock time the cycle took.
    pub took: Duration,
    /// Instances that failed to answer before the deadline.
    pub unresponsive: Vec<(OperatorId, usize)>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::logic::StateValue;

    fn entry(k: u64, v: u64) -> StateEntry {
        (k, Box::new(v) as Box<dyn StateValue>)
    }

    fn value(e: &StateEntry) -> u64 {
        *e.1.as_ref().as_any().downcast_ref::<u64>().unwrap()
    }

    #[test]
    fn partition_routes_by_key_residue() {
        let buckets = partition_state(vec![entry(0, 10), entry(1, 11), entry(5, 15)], 3);
        assert_eq!(buckets.len(), 3);
        assert_eq!(buckets[0].len(), 1);
        assert_eq!(buckets[1].len(), 1);
        assert_eq!(buckets[2].len(), 1);
        assert_eq!(value(&buckets[2][0]), 15);
    }

    #[test]
    fn commit_bumps_epoch_and_key_slice_filters() {
        let op = OperatorId(1);
        let mut store = CheckpointStore::new();
        assert!(store.is_empty());
        let mut state = BTreeMap::new();
        state.insert(
            op,
            vec![entry(0, 10), entry(1, 11), entry(2, 12), entry(3, 13)],
        );
        assert_eq!(store.commit(state), 1);
        assert!(!store.is_empty());
        assert_eq!(store.total_entries(), 4);
        // Key range of instance 1 at p=2: odd keys.
        let slice = store.key_slice(op, 1, 2);
        let keys: Vec<u64> = slice.iter().map(|e| e.0).collect();
        assert_eq!(keys, vec![1, 3]);
        // Slices are copies: the store still holds everything.
        assert_eq!(store.operator(op).len(), 4);
        // Union of slices covers the operator exactly.
        let total: usize = (0..2).map(|k| store.key_slice(op, k, 2).len()).sum();
        assert_eq!(total, 4);
    }
}
