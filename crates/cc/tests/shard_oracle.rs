//! Differential tests for the sharded lock manager.
//!
//! 1. A concurrent stress where worker threads hammer a many-shard
//!    manager with immediate-mode acquires while a recorder serializes
//!    the *decision points* into a schedule; the schedule is then
//!    replayed against a single-shard manager (the pre-sharding
//!    "global mutex" configuration) and every grant/deny decision must
//!    match. Divergence would mean sharding changed lock semantics —
//!    e.g. an object mapped to two shards, or per-shard state leaking.
//! 2. A proptest that a deadlock ring whose objects are spread across
//!    *different* shards is still detected by the global waits-for
//!    graph, and exactly one victim is chosen.

use mvcc_cc::{LockError, LockManager, LockMode};
use mvcc_model::ObjectId;
use mvcc_storage::shard::shard_index;
use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Duration;

/// One recorded decision: who asked for what, and what the sharded
/// manager answered.
#[derive(Debug, Clone, Copy)]
enum Event {
    Acquire {
        token: u64,
        obj: u64,
        mode: LockMode,
        granted: bool,
    },
    Release {
        token: u64,
        obj: u64,
    },
}

/// Concurrent threads drive the sharded manager; the recorder mutex is
/// held across each manager call so the recorded schedule is exactly
/// the order in which decisions were made. Replaying it on a
/// single-shard manager must reproduce every decision: with
/// `Duration::ZERO` timeouts each acquire is a pure try-acquire whose
/// outcome depends only on the table state, which the schedule fully
/// determines.
#[test]
fn concurrent_schedule_replays_identically_on_single_shard_oracle() {
    const THREADS: u64 = 8;
    const OPS: usize = 400;
    const OBJECTS: u64 = 16;

    let sharded = Arc::new(LockManager::with_shards(64));
    assert_eq!(sharded.shard_count(), 64);
    let log: Arc<parking_lot::Mutex<Vec<Event>>> = Arc::new(parking_lot::Mutex::new(Vec::new()));

    let mut handles = Vec::new();
    for t in 0..THREADS {
        let lm = Arc::clone(&sharded);
        let log = Arc::clone(&log);
        handles.push(std::thread::spawn(move || {
            // Simple xorshift so the schedule differs per thread but the
            // test stays deterministic-in-distribution.
            let mut state = 0x9E37_79B9u64 ^ (t + 1);
            let mut rng = move || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state
            };
            let mut held: Vec<u64> = Vec::new();
            for _ in 0..OPS {
                let r = rng();
                let obj = r % OBJECTS;
                if r % 3 == 0 && !held.is_empty() {
                    let obj = held.swap_remove((r as usize / 7) % held.len());
                    let mut log = log.lock();
                    lm.release(t, ObjectId(obj));
                    log.push(Event::Release { token: t, obj });
                } else {
                    let mode = if r % 5 < 2 {
                        LockMode::Exclusive
                    } else {
                        LockMode::Shared
                    };
                    let mut log = log.lock();
                    let got = lm.acquire(t, ObjectId(obj), mode, Duration::ZERO, true);
                    let granted = match got {
                        Ok(_) => true,
                        Err(LockError::Timeout) => false,
                        Err(e) => panic!("unexpected immediate-mode error: {e}"),
                    };
                    log.push(Event::Acquire {
                        token: t,
                        obj,
                        mode,
                        granted,
                    });
                    if granted && !held.contains(&obj) {
                        held.push(obj);
                    }
                }
            }
            // Drain: release everything so the final table state is empty.
            for obj in held {
                let mut log = log.lock();
                lm.release(t, ObjectId(obj));
                log.push(Event::Release { token: t, obj });
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(
        sharded.waits_for_edges(),
        0,
        "waits-for graph must be empty when nothing is blocked"
    );

    // Replay on the single-shard oracle.
    let oracle = LockManager::with_shards(1);
    assert_eq!(oracle.shard_count(), 1);
    let log = log.lock();
    assert!(log.len() >= OPS, "recorder lost events");
    for (i, ev) in log.iter().enumerate() {
        match *ev {
            Event::Acquire {
                token,
                obj,
                mode,
                granted,
            } => {
                let got = oracle.acquire(token, ObjectId(obj), mode, Duration::ZERO, true);
                let oracle_granted = got.is_ok();
                assert_eq!(
                    oracle_granted, granted,
                    "event {i}: oracle diverged on token {token} obj {obj} {mode:?}: \
                     sharded granted={granted}, oracle {got:?}"
                );
            }
            Event::Release { token, obj } => {
                oracle.release(token, ObjectId(obj));
            }
        }
    }
    for obj in 0..OBJECTS {
        for t in 0..THREADS {
            assert_eq!(
                oracle.held_mode(t, ObjectId(obj)),
                None,
                "oracle table not empty after full replay"
            );
        }
    }
}

/// Find `k` object ids that land on pairwise-distinct shards of a
/// `n_shards`-shard manager, so a deadlock ring genuinely crosses
/// shard boundaries.
fn spread_objects(k: usize, n_shards: usize) -> Vec<u64> {
    let mut objs = Vec::with_capacity(k);
    let mut used = std::collections::HashSet::new();
    for id in 0..10_000u64 {
        if used.insert(shard_index(id, n_shards)) {
            objs.push(id);
            if objs.len() == k {
                return objs;
            }
        }
    }
    panic!("could not spread {k} objects over {n_shards} shards");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// A ring of `k` tokens, each holding X on its own object (every
    /// object on a different shard) and requesting X on its neighbour's,
    /// closes a waits-for cycle spanning multiple shards. Detection must
    /// fire, exactly one token must be chosen as victim, and once the
    /// victim backs off everyone else must make progress.
    #[test]
    fn multi_shard_deadlock_ring_picks_exactly_one_victim(k in 2usize..6) {
        const SHARDS: usize = 16;
        let objs = spread_objects(k, SHARDS);
        // Sanity: the ring really spans several shards.
        let distinct: std::collections::HashSet<usize> =
            objs.iter().map(|&o| shard_index(o, SHARDS)).collect();
        prop_assert_eq!(distinct.len(), k);

        let lm = Arc::new(LockManager::with_shards(SHARDS));
        let barrier = Arc::new(Barrier::new(k));
        let deadlocks = Arc::new(AtomicUsize::new(0));
        let grants = Arc::new(AtomicUsize::new(0));

        let mut handles = Vec::new();
        for i in 0..k {
            let lm = Arc::clone(&lm);
            let barrier = Arc::clone(&barrier);
            let deadlocks = Arc::clone(&deadlocks);
            let grants = Arc::clone(&grants);
            let mine = ObjectId(objs[i]);
            let next = ObjectId(objs[(i + 1) % k]);
            handles.push(std::thread::spawn(move || {
                let token = i as u64;
                lm.acquire(token, mine, LockMode::Exclusive, Duration::from_secs(5), true)
                    .expect("own object must grant immediately");
                barrier.wait();
                match lm.acquire(token, next, LockMode::Exclusive, Duration::from_secs(5), true) {
                    Ok(_) => {
                        grants.fetch_add(1, Ordering::SeqCst);
                        lm.release(token, next);
                        lm.release(token, mine);
                    }
                    Err(LockError::Deadlock) => {
                        deadlocks.fetch_add(1, Ordering::SeqCst);
                        // Victim backs off: drop the held lock so the
                        // rest of the ring can drain.
                        lm.release(token, mine);
                    }
                    Err(LockError::Timeout) => panic!("ring wedged: deadlock not detected"),
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }

        prop_assert_eq!(deadlocks.load(Ordering::SeqCst), 1, "exactly one victim");
        prop_assert_eq!(grants.load(Ordering::SeqCst), k - 1, "survivors all progress");
        prop_assert_eq!(lm.waits_for_edges(), 0);
        for &o in &objs {
            for t in 0..k as u64 {
                prop_assert_eq!(lm.held_mode(t, ObjectId(o)), None);
            }
        }
    }
}
