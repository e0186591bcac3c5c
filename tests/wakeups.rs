//! No lost wake-ups: one stress case per condition-variable wait site.
//!
//! A notify with nobody parked costs one load and no system call: the
//! `parking_lot` `Condvar` counts its parked waiters and returns at once
//! when there are none. That is sound only because every notifier
//! changes the waited-on state under the mutex its waiter holds (the
//! argument is in the shim's `Condvar` docs). Each case below races
//! notifies against parks at one wait site, alternating rounds where
//! the waiter is made to park first with rounds where the notify races
//! its condition check. The lock table and TO's pending table spin for
//! [`SPIN_BUDGET`] before they park, so their park rounds hold past it
//! and each case asserts that it parked at least once; two more cases
//! release near the end of that spin, where the switch from spinning to
//! parking races the notify. Every wait is bounded by [`BOUND`] and re-checks
//! its condition when the bound expires, so a lost wake-up turns into a
//! wait of the whole bound; each case fails on any wait longer than
//! [`SLOW`], so a lost wake-up fails the test within one bound instead
//! of hanging it.
//!
//! Run it in release too (`cargo test --release --test wakeups`): the
//! benchmark measures the optimised build, where the races are tighter.

use mvdb::cc::wait::SPIN_BUDGET;
use mvdb::cc::{presets, LockManager, LockMode, PendingTable};
use mvdb::core::prelude::*;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::thread;
use std::time::{Duration, Instant};

/// Bound on every wait under test.
const BOUND: Duration = Duration::from_secs(10);

/// A woken wait returns in microseconds; one this slow sat out its bound.
const SLOW: Duration = Duration::from_secs(1);

/// Spin (yielding) until `cond` holds; fails instead of hanging.
fn spin_until(what: &str, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + BOUND;
    while !cond() {
        assert!(Instant::now() < deadline, "{what} never happened");
        thread::yield_now();
    }
}

/// Give a just-started waiter time to park (odd rounds skip this and let
/// the notify race the waiter's condition check instead). The checks
/// hold under any interleaving; the sleep only biases the mix toward
/// parks where no public probe can confirm one.
fn maybe_let_park(round: u64) {
    if round.is_multiple_of(2) {
        thread::sleep(Duration::from_micros(50));
    }
}

/// Busy-wait for `d`: a sleep is too coarse to end near the spin bound.
fn hold(d: Duration) {
    let end = Instant::now() + d;
    while Instant::now() < end {
        std::hint::spin_loop();
    }
}

/// A hold ending between half and one and a half spin budgets after the
/// waiter blocked, varying by round.
fn near_bound(round: u64) -> Duration {
    SPIN_BUDGET / 2 + SPIN_BUDGET * (round % 11) as u32 / 10
}

/// `LockManager::acquire` parks on its shard's condvar; `release_all`
/// wakes it.
#[test]
fn exclusive_lock_ping_pong_loses_no_wakeup() {
    const GRANTS_PER_THREAD: u64 = 10_000;
    let lm = LockManager::new();
    let x = ObjectId(1);
    let holder = AtomicU64::new(0);
    let waits = AtomicU64::new(0);
    let parks = AtomicU64::new(0);
    thread::scope(|s| {
        for token in 1..=2u64 {
            let (lm, holder, waits, parks) = (&lm, &holder, &waits, &parks);
            s.spawn(move || {
                for grant in 0..GRANTS_PER_THREAD {
                    let a = lm
                        .acquire(token, x, LockMode::Exclusive, BOUND, true)
                        .unwrap_or_else(|e| panic!("token {token}: {e}"));
                    assert!(
                        a.waited_ns < SLOW.as_nanos() as u64,
                        "waited {} ns",
                        a.waited_ns
                    );
                    if a.waited {
                        waits.fetch_add(1, Ordering::Relaxed);
                    }
                    if a.parked {
                        parks.fetch_add(1, Ordering::Relaxed);
                    }
                    assert_eq!(holder.swap(token, Ordering::Relaxed), 0, "two holders");
                    // Every 8th grant holds past the spin bound so the
                    // other thread parks; the rest hold across a yield.
                    if grant % 8 == 0 {
                        thread::sleep(2 * SPIN_BUDGET);
                    } else {
                        thread::yield_now();
                    }
                    holder.store(0, Ordering::Relaxed);
                    lm.release_all(token, &[x]);
                }
            });
        }
    });
    assert!(waits.load(Ordering::Relaxed) > 0, "no acquire ever waited");
    assert!(parks.load(Ordering::Relaxed) > 0, "no acquire ever parked");
    assert_eq!(lm.waits_for_edges(), 0);
    assert_eq!(lm.locked_objects(), 0);
}

/// A TO read behind an older pending write parks in the protocol's
/// `PendingTable::wait_until`; the writer's commit wakes it through
/// `PendingTable::release`, which `end(T)` calls after the install.
#[test]
fn to_read_wakes_when_older_writer_commits() {
    to_wakes_behind_older_writer(Resolve::Commit, Op::Read);
}

/// The same read, woken when the older writer aborts instead: it then
/// reads the version the aborted write would have superseded.
#[test]
fn to_read_wakes_when_older_writer_aborts() {
    to_wakes_behind_older_writer(Resolve::Abort, Op::Read);
}

/// A TO write behind an older reservation parks at the same site and is
/// woken by the older writer's abort; it then reserves and commits.
#[test]
fn to_write_wakes_when_older_writer_aborts() {
    to_wakes_behind_older_writer(Resolve::Abort, Op::Write);
}

#[derive(Clone, Copy, PartialEq)]
enum Resolve {
    Commit,
    Abort,
}

#[derive(Clone, Copy, PartialEq)]
enum Op {
    Read,
    Write,
}

/// Each round an older transaction reserves `x`, a younger one reads or
/// writes `x` and parks behind it, and the older one commits or aborts.
fn to_wakes_behind_older_writer(resolve: Resolve, op: Op) {
    const ROUNDS: u64 = 2_000;
    let db = presets::vc_to(DbConfig::default().with_read_wait_timeout(BOUND));
    let x = ObjectId(7);
    db.seed(x, Value::from_u64(0));
    let mut latest = 0;
    for round in 1..=ROUNDS {
        let mut older = db.begin_read_write().unwrap();
        older.write(x, Value::from_u64(round)).unwrap();
        let blocks = db.metrics().rw_blocks;
        let started = AtomicBool::new(false);
        thread::scope(|s| {
            let younger = s.spawn(|| {
                // Registers after `older`, so it must wait out its write.
                let mut younger = db.begin_read_write().unwrap();
                started.store(true, Ordering::Release);
                let t0 = Instant::now();
                let v = match op {
                    Op::Read => younger.read_u64(x).unwrap(),
                    Op::Write => younger
                        .write(x, Value::from_u64(ROUNDS + round))
                        .map(|()| None)
                        .unwrap(),
                };
                let waited = t0.elapsed();
                younger.commit().unwrap();
                (v, waited)
            });
            spin_until("younger start", || started.load(Ordering::Acquire));
            if round.is_multiple_of(2) {
                // The younger transaction counts its block under the
                // table shard's lock at its first failed poll, then spins
                // for at most the budget before it parks: holding past
                // that makes this round a park-then-notify.
                spin_until("younger block", || db.metrics().rw_blocks > blocks);
                thread::sleep(2 * SPIN_BUDGET);
            }
            match resolve {
                Resolve::Commit => {
                    older.commit().unwrap();
                    latest = round;
                }
                Resolve::Abort => older.abort(),
            }
            let (v, waited) = younger.join().unwrap();
            assert!(waited < SLOW, "round {round}: waited {waited:?}");
            match op {
                Op::Read => assert_eq!(v, Some(latest), "round {round}"),
                Op::Write => latest = ROUNDS + round,
            }
            assert_eq!(db.peek_latest(x).as_u64(), Some(latest), "round {round}");
        });
    }
    assert!(db.metrics().rw_blocks >= ROUNDS / 2);
    assert!(db.metrics().rw_parks > 0, "no wait ever parked");
    assert_eq!(db.metrics().aborts_timeout, 0);
    assert_eq!(db.sample_gauges().pending_versions, 0);
}

/// A lock released between half and one and a half spin budgets after
/// the waiter blocked: the waiter's last failed poll and its park race the
/// release and its notify.
#[test]
fn lock_release_near_the_spin_bound_loses_no_wakeup() {
    const ROUNDS: u64 = 2_000;
    let lm = LockManager::new();
    let x = ObjectId(1);
    let mut parks = 0;
    for round in 0..ROUNDS {
        lm.acquire(1, x, LockMode::Exclusive, BOUND, true).unwrap();
        thread::scope(|s| {
            let waiter = s.spawn(|| lm.acquire(2, x, LockMode::Exclusive, BOUND, true));
            // The waiter writes its waits-for edge at its first failed grant.
            spin_until("waiter's block", || lm.waits_for_edges() == 1);
            hold(near_bound(round));
            lm.release(1, x);
            let a = waiter.join().unwrap().unwrap();
            let waited = Duration::from_nanos(a.waited_ns);
            assert!(waited < SLOW, "round {round}: waited {waited:?}");
            parks += a.parked as u64;
        });
        lm.release(2, x);
    }
    assert!(parks > 0, "no acquire ever parked");
    assert_eq!(lm.waits_for_edges(), 0);
}

/// The same race at TO's pending table: a reservation dropped near the
/// end of the spin of a request waiting behind it.
#[test]
fn pending_release_near_the_spin_bound_loses_no_wakeup() {
    const ROUNDS: u64 = 2_000;
    let table = PendingTable::default();
    let x = ObjectId(7);
    let mut parks = 0;
    for round in 0..ROUNDS {
        table.reserve(x, 1);
        let blocked = AtomicBool::new(false);
        thread::scope(|s| {
            let waiter = s.spawn(|| {
                let t0 = Instant::now();
                let got = table.wait_until(x, 0, BOUND, |e| {
                    if !e.holds(1) {
                        return Some(());
                    }
                    blocked.store(true, Ordering::Release);
                    None
                });
                (got, t0.elapsed())
            });
            spin_until("waiter's block", || blocked.load(Ordering::Acquire));
            hold(near_bound(round));
            table.release(x, 1, 0);
            let ((got, parked), waited) = waiter.join().unwrap();
            assert_eq!(got, Some(()), "round {round}");
            assert!(waited < SLOW, "round {round}: waited {waited:?}");
            parks += parked as u64;
        });
    }
    assert!(parks > 0, "no wait ever parked");
    assert_eq!(table.entries(), 0);
}

/// `VersionControl::wait_visible` parks on the visibility condvar;
/// `complete` wakes it.
#[test]
fn wait_visible_wakes_on_complete() {
    const ROUNDS: u64 = 2_000;
    let vc = VersionControl::new();
    for round in 0..ROUNDS {
        let tn = vc.register();
        let started = AtomicBool::new(false);
        thread::scope(|s| {
            let waiter = s.spawn(|| {
                started.store(true, Ordering::Release);
                let t0 = Instant::now();
                (vc.wait_visible(tn, BOUND), t0.elapsed())
            });
            spin_until("waiter start", || started.load(Ordering::Acquire));
            maybe_let_park(round);
            vc.complete(tn);
            let (visible, waited) = waiter.join().unwrap();
            assert!(
                waited < SLOW,
                "round {round}: wait_visible waited {waited:?}"
            );
            assert_eq!(visible, Some(tn), "round {round}");
        });
    }
}

/// `complete` notifies only when a waiter has counted itself under the
/// version-control mutex. One waiter races a stream of commits from
/// another thread: each round it waits for the next number, which the
/// committer registers and completes either right away (racing the
/// waiter's count and check) or after letting it park.
#[test]
fn wait_visible_is_woken_by_a_commit_stream() {
    const ROUNDS: u64 = 10_000;
    let vc = VersionControl::new();
    // The number the waiter is about to wait for.
    let asked = AtomicU64::new(0);
    thread::scope(|s| {
        s.spawn(|| {
            for round in 1..=ROUNDS {
                let tn = vc.register();
                assert_eq!(tn, round);
                spin_until("waiter's next round", || {
                    asked.load(Ordering::Acquire) >= tn
                });
                maybe_let_park(round);
                vc.complete(tn);
            }
        });
        for round in 1..=ROUNDS {
            asked.store(round, Ordering::Release);
            let t0 = Instant::now();
            let visible = vc.wait_visible(round, BOUND);
            let waited = t0.elapsed();
            assert!(
                waited < SLOW,
                "round {round}: wait_visible waited {waited:?}"
            );
            assert_eq!(visible, Some(round), "round {round}");
        }
    });
}

/// The same race at a distributed site, which runs core's
/// `VersionControl` under Lamport numbering: a commit's `complete_as`
/// notifies only a waiter counted under the site's mutex. Site 1 proposes
/// `(round, 1)` each round when nothing else moves its clock.
#[test]
fn dist_wait_visible_is_woken_by_a_commit_stream() {
    use mvdb::dist::{Gtn, Site, SiteId};
    const ROUNDS: u64 = 10_000;
    let site = Site::new(SiteId(1));
    // The round the waiter is about to wait for.
    let asked = AtomicU64::new(0);
    thread::scope(|s| {
        s.spawn(|| {
            for round in 1..=ROUNDS {
                let p = site.prepare(round, site.begin().unwrap()).unwrap();
                assert_eq!(p, Gtn::new(round, 1));
                spin_until("waiter's next round", || {
                    asked.load(Ordering::Acquire) >= round
                });
                maybe_let_park(round);
                site.commit(round, p).unwrap();
            }
        });
        for round in 1..=ROUNDS {
            asked.store(round, Ordering::Release);
            let t0 = Instant::now();
            let visible = site.ro_catch_up(Gtn::new(round, 1), BOUND);
            let waited = t0.elapsed();
            assert!(
                waited < SLOW,
                "round {round}: dist wait_visible waited {waited:?}"
            );
            assert_eq!(visible, Ok(Gtn::new(round, 1)), "round {round}");
        }
    });
}
