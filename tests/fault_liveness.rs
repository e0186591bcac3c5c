//! End-to-end liveness under stalled clients.
//!
//! The visibility counter `vtnc` advances only because every registered
//! transaction eventually completes or discards its registration. These
//! tests break that assumption with a stalled client and verify that the
//! registration TTL + stall reaper restore liveness — and that a reaped
//! transaction's late commit is refused, so its writes never surface.
//!
//! Registration ages are measured on an injected [`SimClock`], so TTL
//! expiry is exact: "too early" really is too early no matter how slowly
//! the test host schedules these threads, and expiry happens the moment
//! the test advances virtual time — no `thread::sleep` races.

use mvdb::cc::presets;
use mvdb::core::prelude::*;
use mvdb::core::{FaultConfig, FaultPoint, RetryPolicy};
use std::sync::Barrier;
use std::thread;
use std::time::{Duration, Instant};

const TTL: Duration = Duration::from_millis(10);

fn stall_all() -> FaultConfig {
    FaultConfig {
        seed: 7,
        stall_after_register: 1.0,
        ..Default::default()
    }
}

/// A client that stalls right after registering pins `vtnc`; once its
/// TTL expires, `reap_stalled` force-discards the registration and the
/// lag drains to zero.
#[test]
fn stalled_client_pins_vtnc_until_reaped() {
    let sim = SimClock::new();
    let db = presets::vc_to(
        DbConfig::default()
            .with_register_ttl(TTL)
            .with_fault(stall_all())
            .with_clock(sim.clone()),
    );
    db.seed(ObjectId(0), Value::from_u64(0));

    let err = db
        .run_read_write(&[OpSpec::Write(ObjectId(0), Value::from_u64(1))])
        .unwrap_err();
    assert!(
        matches!(err, DbError::Internal(_)),
        "stall is not retryable: {err:?}"
    );
    assert_eq!(db.faults().injected(FaultPoint::StallAfterRegister), 1);
    assert_eq!(db.vc().lag(), 1, "the stalled registration pins vtnc");

    // Too early: virtual time has not moved, so the registration cannot
    // have expired — deterministically, not just on a fast machine.
    assert!(db.reap_stalled().is_empty());
    assert_eq!(db.vc().lag(), 1);

    // One tick short of the TTL: still alive.
    sim.advance(TTL - Duration::from_millis(1));
    assert!(db.reap_stalled().is_empty());
    assert_eq!(db.vc().lag(), 1);

    sim.advance(Duration::from_millis(2));
    let reaped = db.reap_stalled();
    assert_eq!(reaped.len(), 1);
    assert_eq!(db.vc().queue_len(), 0, "the stalled registration is gone");
    assert_eq!(db.metrics().reaper_force_discards, 1);
    assert_eq!(
        db.peek_latest(ObjectId(0)).as_u64(),
        Some(0),
        "the stalled write never lands"
    );

    // Liveness restored: the next commit drains straight past the gap
    // the discarded registration left, and new snapshots see it.
    db.run_rw(1, |t| t.write(ObjectId(1), Value::from_u64(7)))
        .unwrap();
    assert_eq!(db.vc().lag(), 0, "vtnc advances again after reaping");
    let mut r = db.begin_read_only();
    assert_eq!(r.read_u64(ObjectId(1)).unwrap(), Some(7));
    r.finish();
}

/// Without a TTL the paper's implicit liveness assumption really does
/// fail: one stalled client freezes `vtnc` forever and the reaper is a
/// deliberate no-op.
#[test]
fn without_a_ttl_vtnc_freezes() {
    let sim = SimClock::new();
    let db = presets::vc_to(
        DbConfig::default()
            .with_fault(stall_all())
            .with_clock(sim.clone()),
    );
    let _ = db.run_read_write(&[OpSpec::Write(ObjectId(0), Value::from_u64(1))]);
    assert_eq!(db.vc().lag(), 1);

    // However much time passes, nothing is ever considered stale.
    sim.advance(TTL * 1000);
    assert!(
        db.reap_stalled().is_empty(),
        "no TTL: nothing is ever stale"
    );
    assert_eq!(db.vc().lag(), 1, "vtnc is frozen for good");
    assert_eq!(db.metrics().reaper_force_discards, 0);

    // Even a committed transaction stays invisible behind the frozen
    // frontier: the stalled Active entry blocks the drain forever.
    db.run_rw(1, |t| t.write(ObjectId(1), Value::from_u64(7)))
        .unwrap();
    assert_eq!(db.vc().lag(), 2, "the commit queues up behind the stall");
    let mut r = db.begin_read_only();
    assert_eq!(
        r.read_u64(ObjectId(1)).unwrap(),
        None,
        "committed but invisible"
    );
    r.finish();
}

/// Full scenario with the background reaper thread: a slow transaction
/// pins `vtnc`, committed data stays invisible to new readers until the
/// reaper fires, and the slow transaction's own late commit is refused
/// with `AbortReason::Reaped`. The reaper thread polls on real time, but
/// the TTL it enforces is virtual: the registration expires exactly when
/// the test advances the clock, never because the host was slow.
#[test]
fn background_reaper_restores_freshness_and_refuses_late_commit() {
    let sim = SimClock::new();
    let db = presets::vc_to(
        DbConfig::default()
            .with_register_ttl(TTL)
            .with_clock(sim.clone()),
    );
    db.seed(ObjectId(0), Value::from_u64(0));
    db.seed(ObjectId(1), Value::from_u64(0));

    let registered = Barrier::new(2);
    let release = Barrier::new(2);

    thread::scope(|scope| {
        let slow = scope.spawn(|| {
            db.run_rw(1, |t| {
                t.write(ObjectId(0), Value::from_u64(99))?;
                registered.wait();
                release.wait(); // held open well past the TTL
                Ok(())
            })
        });

        registered.wait();
        // The slow transaction registered first, so even a completed
        // commit after it cannot advance vtnc: new snapshots are stale.
        let (_, _) = db
            .run_rw(8, |t| t.write(ObjectId(1), Value::from_u64(5)))
            .unwrap();
        assert!(db.vc().lag() >= 1);
        {
            let mut r = db.begin_read_only();
            assert_eq!(
                r.read_u64(ObjectId(1)).unwrap(),
                Some(0),
                "stale: commit is pinned"
            );
            r.finish();
        }

        let reaper = db.spawn_reaper(Duration::from_millis(1));
        // The reaper is already running, but virtual time stands still:
        // it must not fire yet.
        thread::sleep(Duration::from_millis(5));
        assert!(db.vc().lag() >= 1, "reaper fired before the TTL expired");

        // Expire the registration in virtual time; the reaper notices on
        // its next (real-time) poll.
        sim.advance(TTL + Duration::from_millis(2));
        let deadline = Instant::now() + Duration::from_secs(5);
        while db.vc().lag() != 0 {
            assert!(Instant::now() < deadline, "reaper thread never caught up");
            thread::sleep(Duration::from_millis(1));
        }
        {
            let mut r = db.begin_read_only();
            assert_eq!(
                r.read_u64(ObjectId(1)).unwrap(),
                Some(5),
                "fresh after reaping"
            );
            r.finish();
        }
        reaper.stop();

        release.wait();
        let err = slow.join().unwrap().unwrap_err();
        assert!(
            matches!(err, DbError::Aborted(AbortReason::Reaped)),
            "late commit must be refused: {err:?}"
        );
    });

    assert_eq!(
        db.peek_latest(ObjectId(0)).as_u64(),
        Some(0),
        "reaped write never surfaces"
    );
    assert!(db.metrics().reaper_force_discards >= 1);
    assert_eq!(db.metrics().aborts_reaped, 1);
}

/// Table-driven audit of [`AbortReason`] retryability, covering **every**
/// variant. Retrying is only sound when a fresh attempt can observe a
/// different interleaving (conflicts, timeouts); it is actively harmful
/// for durability failures (the disk is still full) and deadline misses
/// (the budget is gone). Pinning each variant here means
/// adding a new one forces a conscious decision: `AbortReason::ALL` and
/// this table must both grow, and a mismatch in either direction fails.
#[test]
fn abort_reason_retryability_audit_covers_every_variant() {
    let expected: &[(AbortReason, bool)] = &[
        (AbortReason::TimestampConflict, true),
        (AbortReason::Deadlock, true),
        (AbortReason::ValidationFailed, true),
        (AbortReason::WaitTimeout, true),
        (AbortReason::BaselineConflict, true),
        (AbortReason::Reaped, true),
        (AbortReason::UserRequested, false),
        (AbortReason::LogFailed, false),
        (AbortReason::DeadlineExceeded, false),
    ];
    assert_eq!(
        expected.len(),
        AbortReason::ALL.len(),
        "audit table out of sync with AbortReason::ALL"
    );
    for reason in AbortReason::ALL {
        let row = expected
            .iter()
            .find(|(r, _)| *r == reason)
            .unwrap_or_else(|| panic!("no audit row for {reason:?}"));
        let err = DbError::Aborted(reason);
        assert_eq!(
            err.is_retryable(),
            row.1,
            "{reason:?}: expected retryable={}, got {}",
            row.1,
            err.is_retryable()
        );
    }
    // Non-abort errors are never retryable.
    assert!(!DbError::Internal("x".into()).is_retryable());
}

/// Under protocols that register at commit (2PL here), a stalled client
/// never reaches version control at all — vtnc cannot be pinned and the
/// reaper has nothing to do. The modularity consequence, end to end.
#[test]
fn commit_time_registration_is_immune_to_stalls() {
    let sim = SimClock::new();
    let db = presets::vc_2pl(
        DbConfig::default()
            .with_register_ttl(TTL)
            .with_fault(stall_all())
            .with_clock(sim.clone()),
    );
    db.seed(ObjectId(0), Value::from_u64(0));
    let _ = db.run_read_write(&[OpSpec::Write(ObjectId(0), Value::from_u64(1))]);
    assert_eq!(db.faults().injected(FaultPoint::StallAfterRegister), 1);
    assert_eq!(db.vc().lag(), 0, "2PL registers at commit: nothing to pin");
    sim.advance(TTL + Duration::from_millis(2));
    assert!(db.reap_stalled().is_empty());
    assert_eq!(db.metrics().reaper_force_discards, 0);
}

/// Stalls under load, for every protocol: 5 % of read-write clients
/// stall right after registering while a seeded workload runs in chunks,
/// each chunk followed by a TTL's worth of virtual time and one
/// `maintenance()` tick. Every stall gives up exactly once, the reaper
/// drains every one (`vtnc` lag back to 0), and the history stays
/// one-copy serializable. Only timestamp ordering registers at begin,
/// so only its stalls reach version control: the reaper force-discards
/// exactly that many there and none under 2PL or OCC.
#[test]
fn reaper_drains_every_stall_under_load() {
    use mvdb::model::mvsg;
    use mvdb::workload::{driver, WorkloadSpec};

    let spec = WorkloadSpec {
        n_objects: 32,
        ro_fraction: 0.4,
        use_increments: true,
        seed: 13,
        ..Default::default()
    };
    fn check<C: ConcurrencyControl>(
        make: fn(DbConfig) -> MvDatabase<C>,
        spec: &WorkloadSpec,
        registers_at_begin: bool,
    ) {
        let sim = SimClock::new();
        let db = make(
            DbConfig::traced()
                .with_register_ttl(TTL)
                .with_fault(FaultConfig {
                    seed: 0xE13,
                    stall_after_register: 0.05,
                    ..Default::default()
                })
                .with_clock(sim.clone()),
        );
        driver::seed_zeroes(&db, spec.n_objects);
        let mut gave_up = 0;
        for _ in 0..4 {
            gave_up += driver::run_fixed_count(&db, spec, 100, 8).gave_up;
            sim.advance(TTL + Duration::from_millis(1));
            db.maintenance();
        }
        let name = db.name();
        let stalls = db.faults().injected(FaultPoint::StallAfterRegister);
        assert!(stalls > 0, "{name}: a 5% stall rate must fire");
        assert_eq!(gave_up, stalls, "{name}: every stall gives up once");
        assert_eq!(db.vc().lag(), 0, "{name}: the reaper must drain all stalls");
        let discards = db.metrics().reaper_force_discards;
        if registers_at_begin {
            assert_eq!(discards, stalls, "{name}: every stall needs the reaper");
        } else {
            assert_eq!(discards, 0, "{name}: stalls never reach version control");
        }
        let history = db.trace_history().expect("traced");
        assert!(mvsg::check_tn_order(&history).acyclic, "{name} not 1SR");
    }
    check(presets::vc_to, &spec, true);
    check(presets::vc_2pl, &spec, false);
    check(presets::vc_occ, &spec, false);
}

/// Contended increments through the backoff runner: four threads hold a
/// read of one counter open while the others write it, so timestamp
/// ordering must retry. Every increment still lands exactly once, and
/// the per-reason retry counters partition the total.
#[test]
fn contended_increments_retry_until_every_one_lands() {
    let db = presets::vc_to(DbConfig::default());
    db.seed(ObjectId(0), Value::from_u64(0));
    let policy = RetryPolicy {
        max_attempts: 64,
        base_backoff: Duration::from_micros(20),
        max_backoff: Duration::from_millis(1),
        ..Default::default()
    };
    let (threads, per_thread) = (4, 50);
    thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                for _ in 0..per_thread {
                    db.run_rw_with(&policy, |t| {
                        let v = t.read_u64(ObjectId(0))?.unwrap();
                        thread::sleep(Duration::from_micros(30));
                        t.write(ObjectId(0), Value::from_u64(v + 1))
                    })
                    .expect("64 backoff attempts must suffice");
                }
            });
        }
    });
    assert_eq!(
        db.peek_latest(ObjectId(0)).as_u64(),
        Some(threads * per_thread)
    );
    let m = db.metrics();
    assert!(m.rw_retries > 0, "contended increments must retry");
    assert_eq!(m.rw_retries, m.retries_ts_conflict + m.retries_timeout);
}
