//! Timestamp ordering's reservation table, checked two ways: a
//! model-based property test of reserve, release, read marks, the wait
//! condition and pruning against a `BTreeMap` model, and a long TO run
//! over a large key space whose table must stay bounded by the active
//! window.

use mvcc_cc::pending::PendingTable;
use mvcc_cc::presets;
use mvcc_core::DbConfig;
use mvcc_model::ObjectId;
use mvcc_storage::Value;
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use std::time::Duration;

/// Reference state of one object.
#[derive(Default, Clone, Debug)]
struct Entry {
    reserved: BTreeSet<u64>,
    /// Every `(version, ts)` read since the entry was created.
    reads: Vec<(u64, u64)>,
}

impl Entry {
    /// `r-ts` of `newest`: the largest reader of exactly that version.
    /// Reads only ever select versions at or below the newest.
    fn read_ts(&self, newest: u64) -> u64 {
        self.reads
            .iter()
            .filter(|&&(v, _)| v == newest)
            .map(|&(_, ts)| ts)
            .max()
            .unwrap_or(0)
    }

    /// No reservation, and no live `r-ts`: every read of the newest
    /// version read so far is at or below `floor`.
    fn prunable(&self, floor: u64) -> bool {
        let top = self.reads.iter().map(|&(v, _)| v).max().unwrap_or(0);
        self.reserved.is_empty() && self.read_ts(top) <= floor
    }
}

/// Drop `obj`'s entry if it is prunable at `floor`.
fn prune(model: &mut BTreeMap<u64, Entry>, obj: u64, floor: u64) {
    if model.get(&obj).is_some_and(|e| e.prunable(floor)) {
        model.remove(&obj);
    }
}

/// Everything a poll can observe about an entry.
fn observe(
    e: &mvcc_cc::pending::Reservations,
    id: u64,
    bound: u64,
    newest: u64,
) -> (bool, bool, Option<u64>, Option<u64>, u64, u64) {
    (
        e.any(),
        e.holds(id),
        e.oldest_in(0, bound),
        e.oldest_in(bound / 2, bound),
        e.newest(),
        e.read_ts(newest),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Steps over 6 objects and ids 1–8; `floor` (vtnc) only grows and
    /// each object's newest store version only grows, as in a running
    /// engine. Fewer objects than a shard holds before it sweeps, so
    /// entries are pruned only when they are touched.
    #[test]
    fn table_matches_model(
        steps in proptest::collection::vec((0u8..6, 0u64..6, 1u64..9, 0u64..12), 1..120),
    ) {
        let table = PendingTable::default();
        let mut model: BTreeMap<u64, Entry> = BTreeMap::new();
        let mut newest = [0u64; 6];
        let mut floor = 0u64;

        for (kind, o, id, arg) in steps {
            let obj = ObjectId(o);
            match kind {
                0 => {
                    table.reserve(obj, id);
                    model.entry(o).or_default().reserved.insert(id);
                }
                1 => {
                    table.release(obj, id, floor);
                    if let Some(e) = model.get_mut(&o) {
                        e.reserved.remove(&id);
                    }
                    prune(&mut model, o, floor);
                }
                2 => {
                    // A read at `id` of some version up to the newest.
                    let version = arg.min(newest[o as usize]);
                    let got = table.wait_until(obj, floor, Duration::ZERO, |e| {
                        e.mark_read(version, id);
                        Some(())
                    });
                    prop_assert_eq!(got, (Some(()), false));
                    model.entry(o).or_default().reads.push((version, id));
                    prune(&mut model, o, floor);
                }
                3 => {
                    // The TO wait condition: park while an older
                    // reservation's version is not installed; a zero
                    // bound fails fast.
                    let installed = newest[o as usize];
                    let got = table.wait_until(obj, floor, Duration::ZERO, |e| {
                        match e.oldest_in(installed, id) {
                            Some(_) => None,
                            None => Some(()),
                        }
                    });
                    let entry = model.entry(o).or_default();
                    let blocked = entry.reserved.iter().any(|&r| installed < r && r < id);
                    prop_assert_eq!(got, (if blocked { None } else { Some(()) }, false));
                    prune(&mut model, o, floor);
                }
                4 => {
                    // Install a newer version of `obj` in the "store".
                    newest[o as usize] += 1 + arg % 3;
                }
                _ => floor += arg % 4,
            }

            // Every observation of every object agrees with the model.
            for p in 0..6u64 {
                let n = newest[p as usize];
                let want = {
                    let e = model.get(&p).cloned().unwrap_or_default();
                    let ids = || e.reserved.iter().copied();
                    (
                        !e.reserved.is_empty(),
                        e.reserved.contains(&id),
                        ids().filter(|&r| r < arg).min(),
                        ids().filter(|&r| arg / 2 < r && r < arg).min(),
                        ids().max().unwrap_or(0),
                        e.read_ts(n),
                    )
                };
                let got = table
                    .wait_until(ObjectId(p), floor, Duration::ZERO, |e| {
                        Some(observe(e, id, arg, n))
                    })
                    .0
                    .unwrap();
                prop_assert_eq!(got, want, "object {}", p);
                // The observing poll touched the entry: it prunes too.
                prune(&mut model, p, floor);
            }
            prop_assert_eq!(table.entries(), model.len());
            let reservations: usize = model.values().map(|e| e.reserved.len()).sum();
            prop_assert_eq!(table.reservations(), reservations as u64);
        }
    }
}

/// 100k TO transactions, each reading 4 and incrementing 4 of 200k
/// uniformly drawn keys: every one leaves `r-ts` entries behind, yet
/// the table never holds more than a few per shard.
#[test]
fn table_stays_bounded_by_the_active_window() {
    const TXNS: u64 = 100_000;
    const KEYS: u64 = 200_000;
    // 64 shards × the 32 entries a shard reaches before it sweeps.
    const BOUND: usize = 64 * 32;
    let db = presets::vc_to(DbConfig::default());
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut key = || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        ObjectId(x % KEYS)
    };
    let mut most = 0;
    for i in 0..TXNS {
        let mut t = db.begin_read_write().unwrap();
        for _ in 0..4 {
            t.read(key()).unwrap();
        }
        for _ in 0..4 {
            let k = key();
            let n = t.read_for_update(k).unwrap().as_u64().unwrap_or(0);
            t.write(k, Value::from_u64(n + 1)).unwrap();
        }
        t.commit().unwrap();
        if i % 1_000 == 0 {
            most = most.max(db.cc().table().entries());
        }
    }
    most = most.max(db.cc().table().entries());
    assert!(most <= BOUND, "table grew to {most} entries");
    assert_eq!(db.cc().table().reservations(), 0);
    assert!(
        db.store_stats().objects > 100_000,
        "the run spread its writes"
    );
}
