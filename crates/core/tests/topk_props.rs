//! Property tests for the space-saving top-K table: the classic error
//! bound (an estimate never under-counts and over-counts by at most
//! `N/K`), heavy hitters are always monitored, and a replayed stream
//! yields the same table (what the simulator's byte-stable replay
//! relies on).

use mvcc_core::obs::SpaceSaving;
use proptest::prelude::*;
use std::collections::HashMap;

fn fed(cap: usize, streams: &[&[u64]]) -> SpaceSaving {
    let mut table = SpaceSaving::new(cap);
    for &k in streams.iter().flat_map(|s| s.iter()) {
        table.record(k, 0, false);
    }
    table
}

fn true_counts(keys: &[u64]) -> HashMap<u64, u64> {
    let mut m = HashMap::new();
    for &k in keys {
        *m.entry(k).or_insert(0) += 1;
    }
    m
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Space-saving guarantee: for every key, `true ≤ estimate` when
    /// monitored, and `estimate ≤ true + N/K` (N = stream length,
    /// K = capacity). Unmonitored keys have true count ≤ N/K.
    #[test]
    fn estimate_within_space_saving_bound(
        keys in proptest::collection::vec(0u64..32, 1..400),
        cap in 1usize..16,
    ) {
        let table = fed(cap, &[&keys]);
        let n = keys.len() as u64;
        let bound = n / table.capacity() as u64;
        for (&key, &count) in &true_counts(&keys) {
            match table.estimate(key) {
                Some(est) => {
                    prop_assert!(est >= count,
                        "estimate {est} under-counts true {count} for key {key}");
                    prop_assert!(est <= count + bound,
                        "estimate {est} > true {count} + bound {bound} for key {key}");
                }
                None => prop_assert!(count <= bound,
                    "unmonitored key {key} has true count {count} > bound {bound}"),
            }
        }
        prop_assert_eq!(table.total_hits(), n);
    }

    /// Any key whose true frequency exceeds N/K is guaranteed to be
    /// monitored (the heavy-hitter property of space saving).
    #[test]
    fn heavy_hitters_always_monitored(
        keys in proptest::collection::vec(0u64..16, 1..300),
        cap in 2usize..12,
    ) {
        let table = fed(cap, &[&keys]);
        let bound = keys.len() as u64 / table.capacity() as u64;
        for (&key, &count) in &true_counts(&keys) {
            if count > bound {
                prop_assert!(table.estimate(key).is_some(),
                    "heavy hitter {key} (count {count} > {bound}) evicted");
            }
        }
    }

    /// Replaying the same stream into a fresh table reproduces it
    /// exactly (single-threaded determinism).
    #[test]
    fn replay_is_deterministic(
        a in proptest::collection::vec(0u64..24, 0..150),
        b in proptest::collection::vec(0u64..24, 0..150),
        cap in 1usize..10,
    ) {
        let once = fed(cap, &[&a, &b]);
        let again = fed(cap, &[&a, &b]);
        prop_assert_eq!(once.top(usize::MAX), again.top(usize::MAX));
    }
}
