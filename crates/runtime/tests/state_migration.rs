//! Property tests for keyed-state migration: the drain → partition-by-key
//! → restore cycle the engine runs on every rescale (and the checkpoint
//! key-slice machinery built on the same `key % parallelism` rule) must
//! conserve every entry exactly once, for arbitrary old/new parallelism
//! pairs.

use std::collections::BTreeMap;

use ds2_core::graph::OperatorId;
use ds2_runtime::checkpoint::{partition_parts, partition_state, CheckpointStore};
use ds2_runtime::{Logic, StateEntry, StateValue};
use proptest::prelude::*;

fn entries_from(pairs: &[(u64, u64)]) -> Vec<StateEntry> {
    pairs
        .iter()
        .map(|&(k, v)| (k, Box::new(v) as Box<dyn StateValue>))
        .collect()
}

fn to_pairs(entries: &[StateEntry]) -> Vec<(u64, u64)> {
    entries
        .iter()
        .map(|(k, v)| (*k, *v.as_ref().as_any().downcast_ref::<u64>().unwrap()))
        .collect()
}

proptest! {
    /// Partitioning conserves every entry exactly once, each in the bucket
    /// its key hashes to — for any parallelism.
    #[test]
    fn partition_conserves_every_entry_exactly_once(
        pairs in proptest::collection::vec((0u64..10_000, 0u64..1_000_000), 0..200),
        parallelism in 1usize..16,
    ) {
        let buckets = partition_state(entries_from(&pairs), parallelism);
        prop_assert_eq!(buckets.len(), parallelism);
        let mut seen: Vec<(u64, u64)> = Vec::new();
        for (i, bucket) in buckets.iter().enumerate() {
            for (k, v) in to_pairs(bucket) {
                prop_assert_eq!(k as usize % parallelism, i, "entry in wrong bucket");
                seen.push((k, v));
            }
        }
        let mut expect = pairs.clone();
        expect.sort_unstable();
        seen.sort_unstable();
        prop_assert_eq!(seen, expect, "entries lost or duplicated");
    }

    /// The engine partitions the per-instance parts of a drained operator
    /// directly; that must fill every bucket with exactly the entries
    /// `partition_state` puts there for the concatenated state — for any
    /// old and new parallelism, including the hand-through cases.
    #[test]
    fn partitioning_parts_equals_partitioning_their_concatenation(
        pairs in proptest::collection::vec((0u64..10_000, 0u64..1_000_000), 0..200),
        p_old in 1usize..8,
        p_new in 1usize..8,
    ) {
        let mut parts: Vec<Vec<(u64, u64)>> = vec![Vec::new(); p_old];
        for &(k, v) in &pairs {
            parts[k as usize % p_old].push((k, v));
        }
        let from_parts = partition_parts(parts.iter().map(|p| entries_from(p)).collect(), p_new);
        let from_concat = partition_state(entries_from(&parts.concat()), p_new);
        prop_assert_eq!(from_parts.len(), p_new);
        prop_assert_eq!(from_concat.len(), p_new);
        for (i, (a, b)) in from_parts.iter().zip(&from_concat).enumerate() {
            let (mut a, mut b) = (to_pairs(a), to_pairs(b));
            a.sort_unstable();
            b.sort_unstable();
            prop_assert_eq!(a, b, "bucket {} differs", i);
        }
    }

    /// The full rescale round-trip — drain at parallelism `p_old`,
    /// re-partition to `p_new`, restore, drain again — conserves the keyed
    /// aggregate per key for arbitrary parallelism pairs (up, down, equal).
    #[test]
    fn rescale_round_trip_conserves_keyed_aggregates(
        pairs in proptest::collection::vec((0u64..64, 1u64..1_000), 0..200),
        p_old in 1usize..8,
        p_new in 1usize..8,
    ) {
        // A minimal keyed logic mirroring the engine tests' CountLogic.
        struct Agg(BTreeMap<u64, u64>);
        impl Logic<u64> for Agg {
            fn process(&mut self, r: u64, _out: &mut Vec<u64>) {
                *self.0.entry(r).or_insert(0) += 1;
            }
            fn drain_state(&mut self) -> Vec<StateEntry> {
                std::mem::take(&mut self.0)
                    .into_iter()
                    .map(|(k, v)| (k, Box::new(v) as Box<dyn StateValue>))
                    .collect()
            }
            fn restore_state(&mut self, entries: Vec<StateEntry>) {
                for (k, v) in entries {
                    *self.0.entry(k).or_insert(0) +=
                        *v.into_any().downcast::<u64>().unwrap();
                }
            }
        }

        // Old deployment: route each (key, count) to its owning instance.
        let mut old: Vec<Agg> = (0..p_old).map(|_| Agg(BTreeMap::new())).collect();
        let mut expected: BTreeMap<u64, u64> = BTreeMap::new();
        for &(k, n) in &pairs {
            *old[k as usize % p_old].0.entry(k).or_insert(0) += n;
            *expected.entry(k).or_insert(0) += n;
        }

        // Drain all old instances, re-partition, restore into new ones.
        let mut drained: Vec<StateEntry> = Vec::new();
        for inst in &mut old {
            drained.extend(inst.drain_state());
        }
        let buckets = partition_state(drained, p_new);
        let mut new: Vec<Agg> = (0..p_new).map(|_| Agg(BTreeMap::new())).collect();
        for (i, bucket) in buckets.into_iter().enumerate() {
            new[i].restore_state(bucket);
        }

        // Every key's aggregate survived, on the instance that owns it.
        let mut merged: BTreeMap<u64, u64> = BTreeMap::new();
        for (i, inst) in new.iter_mut().enumerate() {
            for (k, v) in to_pairs(&inst.drain_state()) {
                prop_assert_eq!(k as usize % p_new, i, "key on wrong new instance");
                *merged.entry(k).or_insert(0) += v;
            }
        }
        prop_assert_eq!(merged, expected, "aggregates diverged across migration");
    }

    /// `snapshot_state` (the checkpoint path) observes exactly what
    /// `drain_state` would, without consuming it: snapshot == later drain.
    #[test]
    fn snapshot_equals_drain_without_consuming(
        pairs in proptest::collection::vec((0u64..64, 1u64..1_000), 0..100),
    ) {
        struct Agg(BTreeMap<u64, u64>);
        impl Logic<u64> for Agg {
            fn process(&mut self, _r: u64, _out: &mut Vec<u64>) {}
            fn drain_state(&mut self) -> Vec<StateEntry> {
                std::mem::take(&mut self.0)
                    .into_iter()
                    .map(|(k, v)| (k, Box::new(v) as Box<dyn StateValue>))
                    .collect()
            }
            fn restore_state(&mut self, entries: Vec<StateEntry>) {
                for (k, v) in entries {
                    *self.0.entry(k).or_insert(0) +=
                        *v.into_any().downcast::<u64>().unwrap();
                }
            }
        }
        let mut agg = Agg(BTreeMap::new());
        for &(k, n) in &pairs {
            *agg.0.entry(k).or_insert(0) += n;
        }
        let mut snap = to_pairs(&agg.snapshot_state());
        let mut drained = to_pairs(&agg.drain_state());
        snap.sort_unstable();
        drained.sort_unstable();
        prop_assert_eq!(snap, drained, "snapshot must equal a later drain");
    }

    /// The union of a checkpoint's per-instance key slices is exactly the
    /// operator's full state — recovery of all instances restores
    /// everything, and slices are disjoint.
    #[test]
    fn key_slices_partition_the_checkpoint(
        pairs in proptest::collection::vec((0u64..10_000, 0u64..1_000_000), 0..150),
        parallelism in 1usize..12,
    ) {
        let op = OperatorId(1);
        let mut store = CheckpointStore::new();
        let mut state = BTreeMap::new();
        state.insert(op, entries_from(&pairs));
        store.commit(state);

        let mut union: Vec<(u64, u64)> = Vec::new();
        for i in 0..parallelism {
            for (k, v) in to_pairs(&store.key_slice(op, i, parallelism)) {
                prop_assert_eq!(k as usize % parallelism, i, "slice leaked a foreign key");
                union.push((k, v));
            }
        }
        let mut expect = pairs.clone();
        expect.sort_unstable();
        union.sort_unstable();
        prop_assert_eq!(union, expect, "slices must partition the checkpoint");
    }
}
