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
use mvdb::storage::wal::{scan, WalSink};
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

/// The core assertion battery for one crash offset of the log `bytes`,
/// recovered on top of `checkpoint` if there is one.
fn assert_consistent_recovery(
    checkpoint: Option<&[u8]>,
    bytes: &[u8],
    cut: usize,
    run_followup_commit: bool,
) {
    let (db, stats) = MvDatabase::recover(
        TwoPhaseLocking::new(),
        DbConfig::default(),
        checkpoint,
        &bytes[..cut],
        None,
    )
    .unwrap_or_else(|e| panic!("recover at cut {cut} failed: {e}"));

    // Counters resume correctly: tnc > vtnc ≥ last replayed tn.
    assert_eq!(db.vc().vtnc(), stats.last_tn, "cut {cut}");
    assert_eq!(db.vc().tnc(), stats.last_tn + 1, "cut {cut}");

    // Transaction consistency: a checkpoint or a non-empty prefix always
    // includes the funding transaction, so the bank must balance exactly.
    if stats.replayed > 0 || checkpoint.is_some() {
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
        assert_consistent_recovery(None, &bytes, cut, cut % 97 == 0 || cut == bytes.len());
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
        assert_consistent_recovery(None, &bytes, cut, cut % 203 == 0);
    }
    assert_consistent_recovery(None, &bytes, bytes.len(), true);
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

/// A crash anywhere around a rotation recovers a consistent state. The
/// checkpoint is durable before the new log replaces the old one, so a
/// crash before the switch leaves the new checkpoint beside the whole old
/// log, whose covered records recovery skips; a crash after it leaves the
/// checkpoint beside some byte prefix of the new log.
#[test]
fn crash_at_every_byte_across_rotation() {
    let mem = MemWal::new();
    let db = MvDatabase::with_wal(
        TwoPhaseLocking::new(),
        DbConfig::default(),
        Box::new(mem.clone()),
    )
    .unwrap();
    fund(&db);
    transfers(&db, 20, 1);
    let old = mem.bytes();
    let mut ckpt = Vec::new();
    let watermark = db.checkpoint_and_rotate(&mut ckpt).unwrap().watermark;
    assert_eq!(
        mem.bytes(),
        b"MVDBWAL1",
        "no record lies above the watermark"
    );
    transfers(&db, 20, 4);
    let last_tn = db.vc().vtnc();
    drop(db);

    let (before, stats) = MvDatabase::recover(
        TwoPhaseLocking::new(),
        DbConfig::default(),
        Some(&ckpt),
        &old,
        None,
    )
    .unwrap();
    assert_eq!(stats.replayed, 0);
    assert_eq!(stats.skipped, scan(&old).unwrap().0.len());
    assert_eq!(stats.last_tn, watermark);
    assert_eq!(bank_total(&before), ACCOUNTS * INITIAL);

    let new = mem.bytes();
    for cut in 0..=new.len() {
        assert_consistent_recovery(Some(&ckpt), &new, cut, cut % 97 == 0);
    }
    let (_, stats) = MvDatabase::recover(
        TwoPhaseLocking::new(),
        DbConfig::default(),
        Some(&ckpt),
        &new,
        None,
    )
    .unwrap();
    assert_eq!(stats.last_tn, last_tn);
}

/// A rotation racing live commits keeps exactly the records above its
/// watermark, and every sampled crash point of the log that follows
/// recovers consistently on top of the checkpoint.
#[test]
fn crash_points_hold_across_a_concurrent_rotation() {
    let mem = MemWal::new();
    let db = MvDatabase::with_wal(
        TwoPhaseLocking::new(),
        DbConfig::default(),
        Box::new(mem.clone()),
    )
    .unwrap();
    fund(&db);
    let started = std::sync::Barrier::new(3);
    let mut ckpt = Vec::new();
    let watermark = std::thread::scope(|scope| {
        for t in 0..2u64 {
            let (db, started) = (&db, &started);
            scope.spawn(move || {
                transfers(db, 10, t * 11);
                started.wait();
                transfers(db, 30, t * 11 + 5);
            });
        }
        started.wait();
        db.checkpoint_and_rotate(&mut ckpt).unwrap().watermark
    });
    drop(db);
    let bytes = mem.bytes();
    let (records, _) = scan(&bytes).unwrap();
    assert!(records.iter().all(|r| r.tn > watermark));
    for cut in (0..=bytes.len()).step_by(7) {
        assert_consistent_recovery(Some(&ckpt), &bytes, cut, cut % 203 == 0);
    }
    assert_consistent_recovery(Some(&ckpt), &bytes, bytes.len(), true);
}

/// Every account's latest value.
fn balances<C: mvdb::core::ConcurrencyControl>(db: &MvDatabase<C>) -> Vec<Option<u64>> {
    (0..ACCOUNTS)
        .map(|a| db.peek_latest(ObjectId(a)).as_u64())
        .collect()
}

/// A rotation with a record above its watermark keeps that record. TO
/// takes its number at `begin`, so a transaction A left open holds
/// `vtnc` below a later transaction B that commits: B's frame is in the
/// log with `tn >` the checkpoint's watermark, and rotation must copy it
/// into the new log rather than drop it.
#[test]
fn rotation_keeps_a_record_above_a_held_back_watermark() {
    let mem = MemWal::new();
    let db = MvDatabase::with_wal(
        TimestampOrdering::new(),
        DbConfig::default(),
        Box::new(mem.clone()),
    )
    .unwrap();
    fund(&db);
    let mut a = db.begin_read_write().unwrap();
    let b_tn = db
        .run_rw(1, |t| t.write(ObjectId(0), Value::from_u64(INITIAL - 7)))
        .unwrap()
        .0;
    db.run_rw(1, |t| t.write(ObjectId(1), Value::from_u64(INITIAL + 7)))
        .unwrap();
    assert!(db.vc().vtnc() < b_tn, "A holds vtnc below B");

    let mut ckpt = Vec::new();
    let watermark = db.checkpoint_and_rotate(&mut ckpt).unwrap().watermark;
    assert!(watermark < b_tn);
    let kept: Vec<u64> = scan(&mem.bytes()).unwrap().0.iter().map(|r| r.tn).collect();
    assert_eq!(kept, vec![b_tn, b_tn + 1], "the records above w survive");
    assert_eq!(db.wal().unwrap().live_records(), 2);

    a.write(ObjectId(2), Value::from_u64(INITIAL)).unwrap();
    a.commit().unwrap();
    let live = balances(&db);
    drop(db);
    let (recovered, stats) = MvDatabase::recover(
        TimestampOrdering::new(),
        DbConfig::default(),
        Some(&ckpt),
        &mem.bytes(),
        None,
    )
    .unwrap();
    assert_eq!(stats.skipped, 0);
    assert_eq!(stats.replayed, 3);
    assert_eq!(balances(&recovered), live);
    assert_eq!(bank_total(&recovered), ACCOUNTS * INITIAL);
}

/// A sink whose atomic replace fails, either before it writes anything
/// or after it wrote the whole new log aside (a failed rename).
struct FailingReplace {
    log: MemWal,
    staged: MemWal,
    write_first: bool,
}

impl WalSink for FailingReplace {
    fn append(&mut self, buf: &[u8]) -> std::io::Result<()> {
        self.log.append(buf)
    }
    fn sync(&mut self) -> std::io::Result<()> {
        self.log.sync()
    }
    fn truncate_to(&mut self, len: u64) -> std::io::Result<()> {
        self.log.truncate_to(len)
    }
    fn read_all(&mut self) -> std::io::Result<Vec<u8>> {
        self.log.read_all()
    }
    fn replace(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        if self.write_first {
            self.staged.replace(bytes)?;
        }
        Err(std::io::Error::other("rename failed (injected)"))
    }
}

/// A rotation whose replace fails leaves the old log whole and the
/// writer usable: commits go on, and recovery — from the log alone or
/// from the checkpoint beside it — returns exactly the live store.
#[test]
fn failed_replace_leaves_the_old_log_and_recovery_exact() {
    for write_first in [false, true] {
        let log = MemWal::new();
        let staged = MemWal::new();
        let sink = FailingReplace {
            log: log.clone(),
            staged: staged.clone(),
            write_first,
        };
        let db = MvDatabase::with_wal(TwoPhaseLocking::new(), DbConfig::default(), Box::new(sink))
            .unwrap();
        fund(&db);
        transfers(&db, 20, 2);
        let live_before = db.wal().unwrap().live_records();
        let mut ckpt = Vec::new();
        db.checkpoint_and_rotate(&mut ckpt)
            .expect_err("the replace fails");
        assert_eq!(staged.is_empty(), !write_first);
        assert_eq!(db.wal().unwrap().live_records(), live_before);
        transfers(&db, 10, 5);
        db.wal()
            .unwrap()
            .sync()
            .expect("the writer is not poisoned");
        let live = balances(&db);
        let last_tn = db.vc().vtnc();
        drop(db);

        let (records, stats) = scan(&log.bytes()).unwrap();
        assert!(stats.clean_end());
        assert_eq!(records.iter().map(|r| r.tn).max(), Some(last_tn));
        for checkpoint in [None, Some(ckpt.as_slice())] {
            let (recovered, stats) = MvDatabase::recover(
                TwoPhaseLocking::new(),
                DbConfig::default(),
                checkpoint,
                &log.bytes(),
                None,
            )
            .unwrap();
            assert_eq!(stats.last_tn, last_tn, "write_first {write_first}");
            assert_eq!(balances(&recovered), live, "write_first {write_first}");
        }
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
/// intact prefix and stops cleanly at the first bad CRC, so a flip later
/// in the log keeps at least as many records. A flipped magic byte
/// rejects the whole log.
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
    let records = scan(&clean).unwrap().0.len();
    let recover = |bytes: &[u8]| {
        MvDatabase::recover(
            TwoPhaseLocking::new(),
            DbConfig::default(),
            None,
            bytes,
            None,
        )
    };
    let mut corrupt = clean.clone();
    corrupt[2] ^= 0x01;
    assert!(recover(&corrupt).is_err(), "bad magic must be rejected");
    let mut previous = 0;
    for pos in (8..clean.len()).step_by(11) {
        let mut corrupt = clean.clone();
        corrupt[pos] ^= 0x40;
        let (db2, stats) = recover(&corrupt).unwrap();
        // Whatever survived is a consistent prefix with a rejected tail.
        assert!(!stats.clean_end, "corruption at {pos} must stop the scan");
        assert!(stats.torn_bytes > 0, "pos {pos}");
        assert!(stats.replayed < records, "pos {pos}");
        assert!(
            stats.replayed >= previous,
            "pos {pos}: later flip, longer prefix"
        );
        previous = stats.replayed;
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
        assert_consistent_recovery(None, &bytes, cut.min(bytes.len()), true);
    }
}

/// Exact log accounting under a driven workload (25 % read-only), for
/// every protocol and fsync policy: one frame per read-write commit and
/// none per read-only transaction, syncs exactly as the policy
/// prescribes, header plus frames equal to the log's bytes, and a log
/// that scans clean to exactly the committed transactions.
#[test]
fn log_accounting_matches_the_fsync_policy_under_every_protocol() {
    use mvdb::workload::{driver, WorkloadSpec};

    fn check<C: mvdb::core::ConcurrencyControl>(make: fn() -> C) {
        let spec = WorkloadSpec {
            n_objects: 64,
            ro_fraction: 0.25,
            use_increments: true,
            seed: 14,
            ..Default::default()
        };
        let db = MvDatabase::with_config(make(), DbConfig::default());
        driver::seed_zeroes(&db, spec.n_objects);
        driver::run_fixed_count(&db, &spec, 300, 16);
        assert_eq!(db.metrics().wal_appends, 0, "no log, no appends");

        for policy in [
            FsyncPolicy::Always,
            FsyncPolicy::EveryN(8),
            FsyncPolicy::Never,
        ] {
            let mem = MemWal::new();
            let config = DbConfig::default().with_wal_fsync(policy);
            let db = MvDatabase::with_wal(make(), config, Box::new(mem.clone())).unwrap();
            driver::seed_zeroes(&db, spec.n_objects);
            driver::run_fixed_count(&db, &spec, 300, 16);
            let m = db.metrics();
            let name = format!("{} {policy}", db.name());
            assert!(m.ro_begun > 0, "{name}: the mix has read-only txns");
            assert_eq!(
                m.wal_appends, m.rw_committed,
                "{name}: one frame per commit"
            );
            let syncs = match policy {
                FsyncPolicy::Always => m.wal_appends,
                FsyncPolicy::EveryN(n) => m.wal_appends / n,
                FsyncPolicy::Never => 0,
            };
            assert_eq!(m.wal_syncs, syncs, "{name}: sync contract");
            assert_eq!(mem.len() as u64, 8 + m.wal_bytes, "{name}: header + frames");
            let (records, stats) = scan(&mem.bytes()).unwrap();
            assert_eq!(records.len() as u64, m.rw_committed, "{name}");
            assert!(stats.clean_end(), "{name}");
        }
    }
    check(TwoPhaseLocking::new);
    check(TimestampOrdering::new);
    check(Optimistic::new);
}

/// Injected disk-full faults on a quarter of the appends: each one
/// aborts its commit with `LogFailed`, and nothing else fails. `vtnc`
/// never wedges, the latest committed value survives, and the log holds
/// exactly the commits that succeeded.
#[test]
fn disk_full_faults_abort_exactly_the_failed_commits() {
    let mem = MemWal::new();
    let config = DbConfig::default().with_fault(FaultConfig {
        seed: 0xE14,
        wal_disk_full: 0.25,
        ..Default::default()
    });
    let db = MvDatabase::with_wal(TimestampOrdering::new(), config, Box::new(mem.clone())).unwrap();
    let (mut committed, mut failed, mut last_ok) = (0u64, 0u64, 0u64);
    for i in 1..=80 {
        match db.run_rw(0, |t| t.write(ObjectId(0), Value::from_u64(i))) {
            Ok(_) => {
                committed += 1;
                last_ok = i;
            }
            Err(_) => failed += 1,
        }
    }
    assert!(
        committed > 0 && failed > 0,
        "25% must produce both outcomes"
    );
    assert_eq!(
        failed,
        db.metrics().aborts_wal,
        "every failure is LogFailed"
    );
    assert_eq!(failed, db.faults().injected(FaultPoint::WalDiskFull));
    assert_eq!(db.vc().vtnc(), db.vc().tnc() - 1);
    assert_eq!(db.peek_latest(ObjectId(0)).as_u64(), Some(last_ok));
    let (records, stats) = scan(&mem.bytes()).unwrap();
    assert_eq!(records.len() as u64, committed);
    assert!(stats.clean_end());
}
