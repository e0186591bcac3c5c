//! Cross-crate invariant tests: the two counter properties of Section 4.1
//! observed through real engine behaviour, snapshot stability, GC safety,
//! and post-chaos cleanliness of every shared structure.

use mvdb::cc::presets;
use mvdb::core::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicBool, Ordering};
use std::thread;
use std::time::Duration;

/// Transaction Visibility Property, observed end-to-end: whatever start
/// number a read-only transaction gets, every read below it must be
/// fully committed data — concurrently running writers can never surface
/// inside a snapshot, and re-reading an object must be stable.
#[test]
fn snapshots_are_stable_under_concurrent_updates() {
    let db = presets::vc_to(DbConfig::default());
    let obj = ObjectId(0);
    db.seed(obj, Value::from_u64(0));
    let stop = AtomicBool::new(false);

    thread::scope(|scope| {
        for t in 0..3u64 {
            let db = &db;
            let stop = &stop;
            scope.spawn(move || {
                let mut rng = SmallRng::seed_from_u64(t);
                while !stop.load(Ordering::Relaxed) {
                    let _ = db.run_rw(100, |txn| {
                        let v = txn.read_u64(obj)?.unwrap();
                        txn.write(obj, Value::from_u64(v + 1))
                    });
                    if rng.random_bool(0.01) {
                        thread::sleep(Duration::from_micros(50));
                    }
                }
            });
        }
        let db = &db;
        let stop = &stop;
        scope.spawn(move || {
            for _ in 0..300 {
                let mut r = db.begin_read_only();
                let first = r.read_u64(obj).unwrap();
                thread::yield_now();
                let second = r.read_u64(obj).unwrap();
                assert_eq!(first, second, "snapshot read must be repeatable");
                r.finish();
            }
            stop.store(true, Ordering::Relaxed);
        });
    });
}

/// The `vtnc < tnc` requirement and queue consistency hold at every
/// observable moment during a concurrent run.
#[test]
fn counter_properties_hold_under_load() {
    let db = presets::vc_2pl(DbConfig::default());
    let stop = AtomicBool::new(false);
    thread::scope(|scope| {
        for t in 0..4u64 {
            let db = &db;
            let stop = &stop;
            scope.spawn(move || {
                let mut rng = SmallRng::seed_from_u64(t + 50);
                while !stop.load(Ordering::Relaxed) {
                    let obj = ObjectId(rng.random_range(0..8));
                    let _ = db.run_rw(10, |txn| {
                        let v = txn.read_u64(obj)?.unwrap_or(0);
                        txn.write(obj, Value::from_u64(v + 1))
                    });
                }
            });
        }
        let db = &db;
        let stop = &stop;
        scope.spawn(move || {
            for _ in 0..2000 {
                db.vc().validate().expect("VC invariant violated mid-run");
                assert!(db.vc().vtnc() < db.vc().tnc());
            }
            stop.store(true, Ordering::Relaxed);
        });
    });
    // quiesced: everything registered has completed
    assert_eq!(db.vc().queue_len(), 0);
    assert_eq!(db.vc().lag(), 0);
}

/// GC safety as a property: run updates + GC concurrently with many
/// snapshot readers; no reader may ever observe `VersionPruned` as long
/// as the watermark honors the registry.
#[test]
fn gc_never_breaks_live_snapshots() {
    let db = presets::vc_occ(DbConfig::default());
    for o in 0..16u64 {
        db.seed(ObjectId(o), Value::from_u64(1));
    }
    let stop = AtomicBool::new(false);
    thread::scope(|scope| {
        // writers
        for t in 0..2u64 {
            let db = &db;
            let stop = &stop;
            scope.spawn(move || {
                let mut rng = SmallRng::seed_from_u64(t + 99);
                while !stop.load(Ordering::Relaxed) {
                    let obj = ObjectId(rng.random_range(0..16));
                    let _ = db.run_rw(50, |txn| {
                        let v = txn.read_u64(obj)?.unwrap_or(0);
                        txn.write(obj, Value::from_u64(v + 1))
                    });
                }
            });
        }
        // aggressive GC loop
        {
            let db = &db;
            let stop = &stop;
            scope.spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    db.collect_garbage();
                }
            });
        }
        // snapshot readers — never an error
        for t in 0..3u64 {
            let db = &db;
            let stop = &stop;
            scope.spawn(move || {
                let mut rng = SmallRng::seed_from_u64(t + 7);
                let mut count = 0;
                while count < 400 {
                    let mut r = db.begin_read_only();
                    for _ in 0..4 {
                        let obj = ObjectId(rng.random_range(0..16));
                        r.read(obj).expect("GC must never break a live snapshot");
                    }
                    r.finish();
                    count += 1;
                }
                stop.store(true, Ordering::Relaxed);
            });
        }
    });
}

/// After a run mixing commits, aborts, and handle drops, all shared
/// structures are clean under every protocol: no pending write (TO's
/// reservations), no held lock, no queue entry, and the data equals the
/// number of successful increments.
#[test]
fn chaos_then_clean_state() {
    chaos(presets::vc_2pl(DbConfig::default()));
    chaos(presets::vc_to(DbConfig::default()));
    chaos(presets::vc_occ(DbConfig::default()));
}

fn chaos<C: ConcurrencyControl>(db: MvDatabase<C>) {
    let name = db.cc().name();
    let obj = ObjectId(0);
    db.seed(obj, Value::from_u64(0));
    let committed = std::sync::atomic::AtomicU64::new(0);

    thread::scope(|scope| {
        for t in 0..6u64 {
            let db = &db;
            let committed = &committed;
            scope.spawn(move || {
                let mut rng = SmallRng::seed_from_u64(t + 1000);
                for _ in 0..200 {
                    match rng.random_range(0..3) {
                        0 => {
                            // normal increment (with retries)
                            if db
                                .run_rw(200, |txn| {
                                    let v = txn.read_u64(obj)?.unwrap();
                                    txn.write(obj, Value::from_u64(v + 1))
                                })
                                .is_ok()
                            {
                                committed.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                        1 => {
                            // explicit abort after writing
                            if let Ok(mut txn) = db.begin_read_write() {
                                let _ = txn.write(obj, Value::from_u64(777));
                                txn.abort();
                            }
                        }
                        _ => {
                            // drop without terminal call
                            if let Ok(mut txn) = db.begin_read_write() {
                                let _ = txn.write(obj, Value::from_u64(888));
                            }
                        }
                    }
                }
            });
        }
    });

    assert_eq!(
        db.peek_latest(obj).as_u64(),
        Some(committed.load(Ordering::Relaxed)),
        "{name}: aborted/dropped transactions must leave no effect"
    );
    assert_eq!(db.vc().queue_len(), 0, "{name}: VCQueue must drain");
    let g = db.sample_gauges();
    assert_eq!(g.pending_versions, 0, "{name}: no pending write may leak");
    assert_eq!(g.locked_objects, 0, "{name}: no lock may leak");
    // all clear: an immediate writer succeeds without waiting
    let mut t = db.begin_read_write().unwrap();
    t.write(obj, Value::from_u64(0)).unwrap();
    t.commit().unwrap();
}

/// Read-only transactions never interact with the protocol even when the
/// protocol is wedged: start a writer that holds locks indefinitely and
/// verify snapshots proceed instantly.
#[test]
fn ro_progress_despite_wedged_writers() {
    let db = presets::vc_2pl(DbConfig::default());
    db.seed(ObjectId(0), Value::from_u64(5));
    // Wedge: hold an exclusive lock on the object forever.
    let mut wedge = db.begin_read_write().unwrap();
    wedge.write(ObjectId(0), Value::from_u64(6)).unwrap();

    let started = std::time::Instant::now();
    for _ in 0..100 {
        let mut r = db.begin_read_only();
        assert_eq!(r.read_u64(ObjectId(0)).unwrap(), Some(5));
        r.finish();
    }
    assert!(
        started.elapsed() < Duration::from_millis(500),
        "read-only transactions must not queue behind the wedged writer"
    );
    assert_eq!(db.metrics().ro_blocks, 0);
    wedge.abort();
}

/// Drive a mixed contended workload on `db` with `threads` workers and
/// return its metrics at quiescence (all worker threads joined, nothing
/// in flight).
fn churn(db: &dyn mvdb::core::Engine, threads: usize) -> mvdb::core::MetricsSnapshot {
    use mvdb::workload::{driver, DriverConfig, KeyDist, WorkloadSpec};
    let spec = WorkloadSpec {
        n_objects: 16,
        ro_fraction: 0.3,
        ro_ops: 4,
        rw_ops: 4,
        rw_write_fraction: 0.6,
        use_increments: false,
        distribution: KeyDist::Zipf { theta: 0.9 },
        seed: 77,
    };
    driver::seed_zeroes(db, spec.n_objects);
    let cfg = DriverConfig {
        threads,
        duration: Duration::from_millis(120),
        max_retries: 500,
        ..Default::default()
    };
    driver::run(db, &spec, &cfg);
    db.metrics()
}

/// Paper Section 3: a read-only transaction performs exactly one
/// synchronization action — `VCstart` — regardless of which read-write
/// protocol the engine runs. The counters must agree exactly under all
/// three integrations, summed over the counters' per-thread stripes, with
/// two workers (the `contended` shape) and with four.
#[test]
fn ro_sync_actions_equal_ro_begun_under_all_protocols() {
    for threads in [2, 4] {
        let engines: [(&str, Box<dyn mvdb::core::Engine>); 3] = [
            ("vc+2pl", Box::new(presets::vc_2pl(DbConfig::default()))),
            ("vc+to", Box::new(presets::vc_to(DbConfig::default()))),
            ("vc+occ", Box::new(presets::vc_occ(DbConfig::default()))),
        ];
        for (name, db) in engines {
            let m = churn(db.as_ref(), threads);
            assert!(
                m.ro_begun > 0,
                "{name}/{threads}: workload started no RO txns"
            );
            assert_eq!(
                m.ro_sync_actions, m.ro_begun,
                "{name}/{threads}: RO must pay exactly one sync action (VCstart) each"
            );
            assert_eq!(m.vc_start_calls, m.ro_begun, "{name}/{threads}");
            assert_eq!(m.ro_finished, m.ro_begun, "{name}/{threads}");
        }
    }
}

/// Every `VCregister` is balanced by exactly one `VCcomplete` (commit)
/// or `VCdiscard` (abort) once the system is quiescent — the VCQueue
/// bookkeeping can neither leak nor double-settle a registration.
#[test]
fn vc_registrations_balance_at_quiescence() {
    let engines: [(&str, Box<dyn mvdb::core::Engine>); 3] = [
        ("vc+2pl", Box::new(presets::vc_2pl(DbConfig::default()))),
        ("vc+to", Box::new(presets::vc_to(DbConfig::default()))),
        ("vc+occ", Box::new(presets::vc_occ(DbConfig::default()))),
    ];
    for (name, db) in engines {
        let m = churn(db.as_ref(), 4);
        assert!(m.vc_register_calls > 0, "{name}: nothing registered");
        assert_eq!(
            m.vc_register_calls,
            m.vc_complete_calls + m.vc_discard_calls,
            "{name}: registrations must settle as complete xor discard"
        );
    }
}

/// Every read-write abort carries exactly one root-cause label: the
/// per-reason counters partition `rw_aborted`. (`aborts_due_to_ro` is an
/// attribution overlay, not a reason, and stays out of the sum.)
#[test]
fn abort_reason_counters_partition_rw_aborted() {
    let engines: [(&str, Box<dyn mvdb::core::Engine>); 3] = [
        ("vc+2pl", Box::new(presets::vc_2pl(DbConfig::default()))),
        ("vc+to", Box::new(presets::vc_to(DbConfig::default()))),
        ("vc+occ", Box::new(presets::vc_occ(DbConfig::default()))),
    ];
    for (name, db) in engines {
        let m = churn(db.as_ref(), 4);
        let by_reason = m.aborts_ts_conflict
            + m.aborts_deadlock
            + m.aborts_validation
            + m.aborts_timeout
            + m.aborts_baseline
            + m.aborts_user
            + m.aborts_reaped;
        assert_eq!(
            by_reason, m.rw_aborted,
            "{name}: abort reasons must partition rw_aborted"
        );
        assert!(
            m.rw_aborted > 0,
            "{name}: contended workload should produce some aborts"
        );
    }
}

// ---- counter exactness under sampling tiers ---------------------------

/// Drive a small contended increment workload and return
/// `(metrics, event counts)` at quiescence.
fn sampled_churn<C: mvdb::core::ConcurrencyControl>(
    db: mvdb::core::MvDatabase<C>,
) -> (mvdb::core::MetricsSnapshot, mvdb::core::obs::EventCounts) {
    let obj = ObjectId(0);
    db.seed(obj, Value::from_u64(0));
    thread::scope(|scope| {
        for t in 0..2u64 {
            let db = &db;
            scope.spawn(move || {
                let mut rng = SmallRng::seed_from_u64(t + 31);
                for i in 0..40u64 {
                    if i % 8 == 7 {
                        // explicit abort: exercises VCdiscard
                        if let Ok(mut txn) = db.begin_read_write() {
                            let _ = txn.write(obj, Value::from_u64(999));
                            txn.abort();
                        }
                    } else {
                        let _ = db.run_rw(200, |txn| {
                            let v = txn.read_u64(obj)?.unwrap();
                            txn.write(obj, Value::from_u64(v + 1))
                        });
                    }
                    if rng.random_bool(0.05) {
                        thread::yield_now();
                    }
                }
            });
        }
    });
    (db.metrics(), db.obs().event_counts())
}

proptest::proptest! {
    #![proptest_config(proptest::prelude::ProptestConfig::with_cases(12))]

    /// The per-kind event counters are EXACT regardless of the sampling
    /// tier configuration: sampling only thins what is *published* to the
    /// bus, never what is *counted*. The paper's registration-balance
    /// invariant must therefore hold on the event counters at every
    /// `(event_shift, span_shift)` — and agree with the engine metrics.
    #[test]
    fn counter_invariants_hold_under_sampled_tiers(
        event_shift in 0u8..7,
        span_shift in 0u8..13,
        proto in 0u8..3,
    ) {
        use mvdb::core::obs::{EventKind, ObsConfig};
        let cfg = DbConfig::default().with_obs(
            ObsConfig::default()
                .with_events(true)
                .with_sample_shift(event_shift)
                .with_span_sample_shift(span_shift),
        );
        let (m, ec) = match proto {
            0 => sampled_churn(presets::vc_2pl(cfg)),
            1 => sampled_churn(presets::vc_to(cfg)),
            _ => sampled_churn(presets::vc_occ(cfg)),
        };
        // Metric-level balance (the existing quiescence invariant)...
        proptest::prop_assert_eq!(
            m.vc_register_calls,
            m.vc_complete_calls + m.vc_discard_calls
        );
        // ...and the same balance on the always-exact event counters.
        let reg = ec.counts[EventKind::Register as usize];
        let done = ec.counts[EventKind::Complete as usize]
            + ec.counts[EventKind::Discard as usize];
        proptest::prop_assert_eq!(reg, done, "event counters must balance");
        proptest::prop_assert_eq!(
            reg, m.vc_register_calls,
            "event counter and metric must agree exactly under sampling"
        );
        proptest::prop_assert!(m.rw_committed > 0);
        // What reached the ring is at most what was counted, and at the
        // keep-everything shift it is exactly what was counted.
        let total: u64 = ec.counts.iter().sum();
        if event_shift == 0 {
            proptest::prop_assert_eq!(ec.published, total);
        } else {
            proptest::prop_assert!(ec.published <= total);
        }
    }
}

/// At the keep-everything shift every counted event reaches the ring,
/// under each protocol (the sampled-tier property above draws shift 0
/// for only some protocols).
#[test]
fn every_counted_event_is_published_at_shift_zero() {
    use mvdb::core::obs::ObsConfig;
    let cfg = || {
        DbConfig::default().with_obs(ObsConfig::default().with_events(true).with_sample_shift(0))
    };
    for (name, (_, ec)) in [
        ("2pl", sampled_churn(presets::vc_2pl(cfg()))),
        ("to", sampled_churn(presets::vc_to(cfg()))),
        ("occ", sampled_churn(presets::vc_occ(cfg()))),
    ] {
        let total: u64 = ec.counts.iter().sum();
        assert!(total > 0, "{name}: nothing counted");
        assert_eq!(ec.published, total, "{name}: published != counted");
    }
}

/// A thread that exits right after emitting loses nothing: its events
/// are in the ring and its counts in the bus's counters.
#[test]
fn thread_exit_with_undrained_buffer_loses_no_events() {
    use mvdb::core::clock::real_clock;
    use mvdb::core::obs::{EventKind, Obs, ObsConfig};
    let obs = Obs::with_clock(
        &ObsConfig::default().with_events(true).with_sample_shift(0),
        real_clock(),
    );
    thread::scope(|scope| {
        scope.spawn(|| {
            for i in 0..10u64 {
                obs.emit(EventKind::Complete, i, 0);
            }
        });
    });
    let ec = obs.event_counts();
    assert_eq!(ec.published, 10);
    assert_eq!(ec.counts[EventKind::Complete as usize], 10);
}
