//! Crash-point recovery harness: kill the WAL byte stream at **every**
//! byte boundary of a seeded run and prove the recovered store is a
//! transaction-consistent prefix.
//!
//! The invariant under test is the write-before-visible argument of
//! DESIGN.md §9: a commit record reaches the log before the commit's
//! updates reach the store, and a transaction appends after everything
//! it read — so *any* byte-prefix of the log (which is all a crash can
//! leave behind) recovers to a state some prefix of the serial order
//! produced. For bank transfers that means the total never tears, no
//! writeset is half-applied, and the version counters resume with
//! `tnc > vtnc ≥` the last replayed transaction number.

use mvdb::cc::{Optimistic, TimestampOrdering, TwoPhaseLocking};
use mvdb::core::prelude::*;
use mvdb::core::{FaultConfig, FaultPoint};
use mvdb::storage::wal::scan;
use proptest::prelude::*;

const ACCOUNTS: u64 = 8;
const INITIAL: u64 = 100;

/// Fund every account in one transaction (tn 1): the first record in the
/// log, so every non-empty recovered prefix holds the whole bank.
fn fund<C: mvdb::core::ConcurrencyControl>(db: &MvDatabase<C>) {
    db.run_rw(1, |t| {
        for a in 0..ACCOUNTS {
            t.write(ObjectId(a), Value::from_u64(INITIAL))?;
        }
        Ok(())
    })
    .unwrap();
}

/// Run `n` deterministic transfers (amount 1..=5, never overdrafting).
fn transfers<C: mvdb::core::ConcurrencyControl>(db: &MvDatabase<C>, n: u64, salt: u64) {
    for i in 0..n {
        let from = ObjectId((i * 7 + salt) % ACCOUNTS);
        let to = ObjectId((i * 13 + salt + 3) % ACCOUNTS);
        if from == to {
            continue;
        }
        let amount = i % 5 + 1;
        let _ = db.run_rw(20, |t| {
            let f = t.read_u64(from)?.unwrap();
            if f < amount {
                return Ok(());
            }
            let g = t.read_u64(to)?.unwrap();
            t.write(from, Value::from_u64(f - amount))?;
            t.write(to, Value::from_u64(g + amount))
        });
    }
}

/// Sum of all account balances in a recovered engine, via a real
/// read-only transaction (exercising the resumed `vtnc`).
fn bank_total<C: mvdb::core::ConcurrencyControl>(db: &MvDatabase<C>) -> u64 {
    let mut r = db.begin_read_only();
    (0..ACCOUNTS)
        .map(|a| r.read_u64(ObjectId(a)).unwrap().unwrap_or(0))
        .sum()
}

/// The core assertion battery for one crash offset.
fn assert_consistent_recovery(bytes: &[u8], cut: usize, run_followup_commit: bool) {
    let (db, stats) = MvDatabase::recover(
        TwoPhaseLocking::new(),
        DbConfig::default(),
        None,
        &bytes[..cut],
        None,
    )
    .unwrap_or_else(|e| panic!("recover at cut {cut} failed: {e}"));

    // Counters resume correctly: tnc > vtnc ≥ last replayed tn.
    assert_eq!(db.vc().vtnc(), stats.last_tn, "cut {cut}");
    assert_eq!(db.vc().tnc(), stats.last_tn + 1, "cut {cut}");

    // Transaction consistency: a non-empty prefix always includes the
    // funding transaction, so the bank must balance exactly.
    if stats.replayed > 0 {
        assert_eq!(
            bank_total(&db),
            ACCOUNTS * INITIAL,
            "torn bank state at cut {cut} ({} records)",
            stats.replayed
        );
    } else {
        assert_eq!(bank_total(&db), 0, "cut {cut}");
    }

    // No partial writeset: for every record in the *full* log, the
    // recovered store holds every write of that tn iff the record
    // survived the cut. Log order is not tn order under concurrent
    // commits, so a tn below `last_tn` may be missing from the prefix:
    // it was never durable and counts as discarded (DESIGN.md §9).
    let (all_records, _) = scan(bytes).unwrap();
    let (survivors, _) = scan(&bytes[..cut]).unwrap();
    let survived: std::collections::HashSet<u64> = survivors.iter().map(|r| r.tn).collect();
    assert_eq!(survived.len(), stats.replayed, "cut {cut}");
    for record in &all_records {
        let applied = survived.contains(&record.tn);
        for (obj, value) in &record.writes {
            let at = db.store().read_at(*obj, record.tn);
            if applied {
                let (number, stored) = at.unwrap_or_else(|| {
                    panic!("cut {cut}: tn {} write to {obj:?} missing", record.tn)
                });
                assert_eq!(number, record.tn, "cut {cut}");
                assert_eq!(&stored, value, "cut {cut}");
            } else if let Some((number, _)) = at {
                assert_ne!(
                    number, record.tn,
                    "cut {cut}: unreplayed tn {} partially applied",
                    record.tn
                );
            }
        }
    }

    // The recovered engine is live: a new commit gets the next number.
    if run_followup_commit {
        let (tn, ()) = db
            .run_rw(1, |t| t.write(ObjectId(0), Value::from_u64(4242)))
            .unwrap();
        assert_eq!(tn, stats.last_tn + 1, "cut {cut}");
        assert_eq!(db.peek_latest(ObjectId(0)).as_u64(), Some(4242));
    }
}

/// Tentpole: a seeded single-threaded run, killed at every byte.
#[test]
fn crash_at_every_byte_recovers_consistent_prefix() {
    let mem = MemWal::new();
    let db = MvDatabase::with_wal(
        TwoPhaseLocking::new(),
        DbConfig::default(),
        Box::new(mem.clone()),
    )
    .unwrap();
    fund(&db);
    transfers(&db, 30, 0);
    drop(db);
    let bytes = mem.bytes();
    assert!(bytes.len() > 500, "run too small to be interesting");
    for cut in 0..=bytes.len() {
        // Exercise the post-recovery commit on a sample of offsets (it
        // triples the cost and adds no coverage at adjacent cuts).
        assert_consistent_recovery(&bytes, cut, cut % 97 == 0 || cut == bytes.len());
    }
}

/// Concurrent commits interleave appends; the prefix property must
/// survive real thread interleavings too (sampled stride — the full
/// sweep above is deterministic, this one varies run to run).
#[test]
fn crash_points_hold_under_concurrent_load() {
    let mem = MemWal::new();
    let db = std::sync::Arc::new(
        MvDatabase::with_wal(
            TwoPhaseLocking::new(),
            DbConfig::default(),
            Box::new(mem.clone()),
        )
        .unwrap(),
    );
    fund(&db);
    std::thread::scope(|scope| {
        for t in 0..4u64 {
            let db = std::sync::Arc::clone(&db);
            scope.spawn(move || transfers(&db, 25, t * 11));
        }
    });
    let bytes = mem.bytes();
    for cut in (0..=bytes.len()).step_by(7) {
        assert_consistent_recovery(&bytes, cut, cut % 203 == 0);
    }
    assert_consistent_recovery(&bytes, bytes.len(), true);
}

/// A log whose append order differs from tn order (tn 1, 3, 2 — what
/// concurrent commits produce): at every cut, recovery replays exactly
/// the surviving records, resumes `vtnc` at their largest tn, and hands
/// the next commit that number plus one.
#[test]
fn out_of_order_log_recovers_exact_prefix_at_every_cut() {
    use mvdb::storage::wal::WalWriter;
    let mem = MemWal::new();
    let mut w = WalWriter::create(Box::new(mem.clone()), FsyncPolicy::Always).unwrap();
    for tn in [1u64, 3, 2] {
        w.append_commit(tn, &[(ObjectId(tn), Value::from_u64(tn * 10))])
            .unwrap();
    }
    drop(w);
    let bytes = mem.bytes();
    let mut seen_prefixes = std::collections::BTreeSet::new();
    for cut in 0..=bytes.len() {
        let (survivors, _) = scan(&bytes[..cut]).unwrap();
        let tns: Vec<u64> = survivors.iter().map(|r| r.tn).collect();
        let max = tns.iter().copied().max().unwrap_or(0);
        let (db, stats) = MvDatabase::recover(
            TwoPhaseLocking::new(),
            DbConfig::default(),
            None,
            &bytes[..cut],
            None,
        )
        .unwrap();
        assert_eq!(stats.replayed, tns.len(), "cut {cut}");
        assert_eq!(stats.last_tn, max, "cut {cut}");
        assert_eq!(db.vc().vtnc(), max, "cut {cut}");
        for tn in 1..=3u64 {
            let expected = tns.contains(&tn).then_some(tn * 10);
            assert_eq!(
                db.peek_latest(ObjectId(tn)).as_u64(),
                expected,
                "cut {cut}: tn {tn}"
            );
        }
        let (next, ()) = db
            .run_rw(1, |t| t.write(ObjectId(9), Value::from_u64(1)))
            .unwrap();
        assert_eq!(next, max + 1, "cut {cut}");
        seen_prefixes.insert(tns);
    }
    // Every prefix of the append order was exercised, including the one
    // with a hole below its largest tn ([1, 3]).
    assert_eq!(
        seen_prefixes.into_iter().collect::<Vec<_>>(),
        vec![vec![], vec![1], vec![1, 3], vec![1, 3, 2]]
    );
}

/// Everything committed (and synced) before the crash is fully readable
/// after recovery — per protocol, since each integrates the log at a
/// different commit shape.
#[test]
fn committed_before_crash_fully_readable_all_protocols() {
    fn check<C: mvdb::core::ConcurrencyControl>(make: impl Fn() -> C) {
        let mem = MemWal::new();
        let db = MvDatabase::with_wal(make(), DbConfig::default(), Box::new(mem.clone())).unwrap();
        for v in 1..=20u64 {
            db.run_rw(5, |t| t.write(ObjectId(v % 4), Value::from_u64(v * 10)))
                .unwrap();
        }
        let live: Vec<_> = (0..4u64)
            .map(|o| db.peek_latest(ObjectId(o)).as_u64())
            .collect();
        drop(db); // crash: only the durable bytes survive (fsync Always)
        let (db2, stats) = MvDatabase::recover(
            make(),
            DbConfig::default(),
            None,
            &mem.durable_bytes(),
            None,
        )
        .unwrap();
        assert_eq!(stats.replayed, 20);
        assert!(stats.clean_end);
        let recovered: Vec<_> = (0..4u64)
            .map(|o| db2.peek_latest(ObjectId(o)).as_u64())
            .collect();
        assert_eq!(recovered, live, "recovered state must equal live state");
    }
    check(TwoPhaseLocking::new);
    check(TimestampOrdering::new);
    check(Optimistic::new);
}

/// Checkpoint + rotation: recovery = restore checkpoint, replay only the
/// records the rotation kept (`tn >` watermark).
#[test]
fn checkpoint_rotation_then_crash() {
    let mem = MemWal::new();
    let db = MvDatabase::with_wal(
        TimestampOrdering::new(),
        DbConfig::default(),
        Box::new(mem.clone()),
    )
    .unwrap();
    fund(&db);
    transfers(&db, 15, 2);
    let mut ckpt = Vec::new();
    let ckpt_stats = db.checkpoint_and_rotate(&mut ckpt).unwrap();
    let committed_at_ckpt = ckpt_stats.watermark;
    transfers(&db, 15, 5);
    let last_tn = db.vc().vtnc();
    drop(db);

    // The rotated log holds only post-checkpoint records.
    let (records, _) = scan(&mem.bytes()).unwrap();
    assert!(records.iter().all(|r| r.tn > committed_at_ckpt));

    let (db2, stats) = MvDatabase::recover(
        TimestampOrdering::new(),
        DbConfig::default(),
        Some(&ckpt),
        &mem.bytes(),
        None,
    )
    .unwrap();
    assert_eq!(stats.checkpoint_watermark, committed_at_ckpt);
    assert_eq!(stats.skipped, 0, "rotation already dropped covered records");
    assert_eq!(stats.last_tn, last_tn);
    assert_eq!(bank_total(&db2), ACCOUNTS * INITIAL);

    // Torn tails still recover on top of a checkpoint.
    let bytes = mem.bytes();
    for cut in (8..bytes.len()).step_by(13) {
        let (db3, stats3) = MvDatabase::recover(
            TimestampOrdering::new(),
            DbConfig::default(),
            Some(&ckpt),
            &bytes[..cut],
            None,
        )
        .unwrap();
        assert!(stats3.last_tn >= committed_at_ckpt);
        assert_eq!(bank_total(&db3), ACCOUNTS * INITIAL, "cut {cut}");
    }
}

/// Double crash: recover onto a fresh sink, commit more, crash again —
/// the second recovery must see both generations of commits.
#[test]
fn recovery_is_itself_durable() {
    let gen1 = MemWal::new();
    let db = MvDatabase::with_wal(
        TwoPhaseLocking::new(),
        DbConfig::default(),
        Box::new(gen1.clone()),
    )
    .unwrap();
    fund(&db);
    transfers(&db, 10, 1);
    drop(db); // first crash

    let gen2 = MemWal::new();
    let (db2, stats1) = MvDatabase::recover(
        TwoPhaseLocking::new(),
        DbConfig::default(),
        None,
        &gen1.bytes(),
        Some(Box::new(gen2.clone())),
    )
    .unwrap();
    assert!(stats1.replayed > 0);
    transfers(&db2, 10, 4);
    let expected_last = db2.vc().vtnc();
    drop(db2); // second crash

    let (db3, stats2) = MvDatabase::recover(
        TwoPhaseLocking::new(),
        DbConfig::default(),
        None,
        &gen2.bytes(),
        None,
    )
    .unwrap();
    assert_eq!(stats2.last_tn, expected_last);
    assert_eq!(bank_total(&db3), ACCOUNTS * INITIAL);
}

/// A log whose tail was corrupted in place (not truncated) replays the
/// intact prefix and stops cleanly at the first bad CRC.
#[test]
fn in_place_corruption_recovers_prefix() {
    let mem = MemWal::new();
    let db = MvDatabase::with_wal(
        TwoPhaseLocking::new(),
        DbConfig::default(),
        Box::new(mem.clone()),
    )
    .unwrap();
    fund(&db);
    transfers(&db, 20, 3);
    drop(db);
    let clean = mem.bytes();
    for pos in (8..clean.len()).step_by(11) {
        let mut corrupt = clean.clone();
        corrupt[pos] ^= 0x40;
        let (db2, stats) = MvDatabase::recover(
            TwoPhaseLocking::new(),
            DbConfig::default(),
            None,
            &corrupt,
            None,
        )
        .unwrap();
        // Whatever survived is a consistent prefix with a rejected tail.
        assert!(!stats.clean_end, "corruption at {pos} must stop the scan");
        if stats.replayed > 0 {
            assert_eq!(bank_total(&db2), ACCOUNTS * INITIAL, "pos {pos}");
        }
        assert_eq!(db2.vc().vtnc(), stats.last_tn);
    }
}

/// A commit aborted by a failed fsync (`AbortReason::LogFailed`) must
/// stay aborted across recovery: the writer rewinds the frame whose
/// sync failed, so no later successful sync can make it durable and no
/// replay can resurrect it.
#[test]
fn partial_fsync_abort_never_resurrects() {
    let mem = MemWal::new();
    let cfg = DbConfig::default().with_fault(FaultConfig {
        seed: 0xF5C,
        wal_partial_fsync: 0.3,
        ..Default::default()
    });
    let db = MvDatabase::with_wal(TwoPhaseLocking::new(), cfg, Box::new(mem.clone())).unwrap();
    // Each attempt writes a distinct (object, value); record what the
    // engine acknowledged so recovery can be checked record-for-record.
    let mut committed = std::collections::BTreeMap::new();
    let mut aborted = 0u64;
    for i in 1..=200u64 {
        match db.run_rw(1, |t| t.write(ObjectId(i % 8), Value::from_u64(i))) {
            Ok((tn, ())) => {
                committed.insert(tn, (ObjectId(i % 8), i));
            }
            Err(DbError::Aborted(AbortReason::LogFailed)) => aborted += 1,
            Err(e) => panic!("unexpected error: {e}"),
        }
    }
    assert!(
        aborted > 0,
        "wal_partial_fsync = 0.3 must abort some commits"
    );
    assert!(db.faults().injected(FaultPoint::WalPartialFsync) > 0);
    drop(db); // crash

    // Recover from *everything* the sink ever saw (not just the durable
    // prefix): the failed-fsync frames were rewound at abort time, so
    // even the full byte stream must hold no aborted transaction.
    let (db2, stats) = MvDatabase::recover(
        TwoPhaseLocking::new(),
        DbConfig::default(),
        None,
        &mem.bytes(),
        None,
    )
    .unwrap();
    assert!(stats.clean_end, "rewound log must scan clean");
    assert_eq!(
        stats.replayed,
        committed.len(),
        "replay = exactly the acknowledged commits, no resurrected aborts"
    );
    let (records, _) = scan(&mem.bytes()).unwrap();
    for r in &records {
        assert!(
            committed.contains_key(&r.tn),
            "aborted tn {} resurrected by replay",
            r.tn
        );
    }
    // And every acknowledged commit survived with its exact write.
    for (&tn, &(obj, val)) in &committed {
        let (number, value) = db2
            .store()
            .read_at(obj, tn)
            .unwrap_or_else(|| panic!("committed tn {tn} lost"));
        assert_eq!(number, tn);
        assert_eq!(value.as_u64(), Some(val));
    }
}

/// The checkpoint→rotation durability barrier: if the checkpoint sink
/// cannot attest durability (`CheckpointSink::sync` fails), rotation
/// must not run — otherwise a crash before the checkpoint bytes landed
/// would lose every rotated record.
#[test]
fn checkpoint_sync_failure_blocks_rotation() {
    struct NoBarrier(Vec<u8>);
    impl std::io::Write for NoBarrier {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }
    impl CheckpointSink for NoBarrier {
        fn sync(&mut self) -> std::io::Result<()> {
            Err(std::io::Error::other("checkpoint fsync failed (injected)"))
        }
    }

    let mem = MemWal::new();
    let db = MvDatabase::with_wal(
        TwoPhaseLocking::new(),
        DbConfig::default(),
        Box::new(mem.clone()),
    )
    .unwrap();
    fund(&db);
    transfers(&db, 10, 6);
    let live_before = db.wal().unwrap().live_records();
    assert!(live_before > 0);

    let mut sink = NoBarrier(Vec::new());
    db.checkpoint_and_rotate(&mut sink)
        .expect_err("unsyncable checkpoint must fail");
    assert_eq!(
        db.wal().unwrap().live_records(),
        live_before,
        "rotation must not run when the checkpoint cannot be made durable"
    );
    // The engine is unharmed: commits continue and the full log replays.
    transfers(&db, 5, 9);
    drop(db);
    let (db2, _) = MvDatabase::recover(
        TwoPhaseLocking::new(),
        DbConfig::default(),
        None,
        &mem.bytes(),
        None,
    )
    .unwrap();
    assert_eq!(bank_total(&db2), ACCOUNTS * INITIAL);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random workloads, random crash offsets: the invariant battery
    /// must hold everywhere, not just at hand-picked cut points.
    #[test]
    fn random_run_random_crash(
        ops in proptest::collection::vec((0u64..ACCOUNTS, 0u64..ACCOUNTS, 1u64..6), 1..40),
        cut_bps in 0u64..10_001,
    ) {
        let mem = MemWal::new();
        let db = MvDatabase::with_wal(
            TwoPhaseLocking::new(),
            DbConfig::default(),
            Box::new(mem.clone()),
        )
        .unwrap();
        fund(&db);
        for &(from, to, amount) in &ops {
            if from == to {
                continue;
            }
            let (from, to) = (ObjectId(from), ObjectId(to));
            let _ = db.run_rw(10, |t| {
                let f = t.read_u64(from)?.unwrap();
                if f < amount {
                    return Ok(());
                }
                let g = t.read_u64(to)?.unwrap();
                t.write(from, Value::from_u64(f - amount))?;
                t.write(to, Value::from_u64(g + amount))
            });
        }
        drop(db);
        let bytes = mem.bytes();
        let cut = (bytes.len() as u64 * cut_bps / 10_000) as usize;
        assert_consistent_recovery(&bytes, cut.min(bytes.len()), true);
    }
}
