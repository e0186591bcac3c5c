//! Version control + timestamp ordering (paper Figure 3).
//!
//! The serial order is fixed a priori: `begin(T)` calls `VCregister`,
//! so `tn(T)` doubles as the timestamp and `sn(T) = tn(T)`.
//!
//! * `read(x)` — raise `r-ts(x)` to `tn(T)`, return the version with the
//!   largest number `≤ sn(T)`; **blocked** while a pending write by an
//!   older transaction exists (its version, if committed, is the one to
//!   read).
//! * `write(x)` — rejected (transaction aborted, `VCdiscard`) if
//!   `r-ts(x) > tn(T)` or `w-ts(x) > tn(T)`; blocked behind an older
//!   pending write; otherwise reserves `x` at `tn(T)` and buffers the
//!   value in the transaction's write set.
//! * `end(T)` — install the buffered writes as versions numbered `tn(T)`
//!   ("perform database updates"), drop the reservations ("clear pending
//!   read actions"), then `VCcomplete(T)`.
//!
//! The reservations and `r-ts` live in the protocol's own
//! [`PendingTable`], not in the store (see [`crate::pending`] for its
//! rules). Blocking is deadlock-free: a transaction only ever waits on
//! *older* transactions, so the waits-for relation follows the total
//! order of transaction numbers.

use crate::pending::{PendingTable, Reservations};
use mvcc_core::{
    AbortReason, CcContext, ConcurrencyControl, DbError, Deadline, EventKind, TxnOptions, TxnPhase,
    WaitPoint, WriteSet,
};
use mvcc_model::ObjectId;
use mvcc_storage::Value;
use std::sync::atomic::Ordering;
use std::time::Duration;

/// Multiversion timestamp ordering behind the version-control interface.
#[derive(Default)]
pub struct TimestampOrdering {
    /// Figure 3's reservations and `r-ts`, per object.
    table: PendingTable,
}

/// Per-transaction TO state.
pub struct ToTxn {
    /// Transaction number = timestamp, assigned at begin.
    tn: u64,
    /// Writes, buffered until `end`; each object in it is reserved at
    /// `tn` in the table.
    writes: WriteSet,
    /// Deadline budget, when begun with one: every pending-write wait is
    /// bounded by the remaining budget.
    deadline: Option<Deadline>,
}

impl TimestampOrdering {
    /// Fresh protocol instance.
    pub fn new() -> Self {
        Self::default()
    }

    /// The reservation table, for tests.
    pub fn table(&self) -> &PendingTable {
        &self.table
    }

    /// Drop `txn`'s reservations, after `end` installed its writes or on
    /// abort, waking whoever waits behind them.
    fn release(&self, ctx: &CcContext, txn: &ToTxn) {
        let floor = ctx.vtnc();
        for (obj, _) in txn.writes.as_slice() {
            self.table.release(*obj, txn.tn, floor);
        }
        if let Some(attr) = ctx.obs.attr() {
            attr.blame().clear_phase(txn.tn);
        }
    }

    /// Poll `obj`'s table entry with `f` until it returns `Ok`. `f`
    /// returns `Err(older)` while transaction `older` has a write pending
    /// on `obj` that the request must wait out (Fig 3: "may be delayed due
    /// to the pending writes as per TO protocol"); the request then spins
    /// and parks for up to `timeout`, and the wait is blamed on `older`.
    fn when_unblocked<R>(
        &self,
        ctx: &CcContext,
        txn: &ToTxn,
        obj: ObjectId,
        timeout: Duration,
        mut f: impl FnMut(&mut Reservations) -> Result<R, u64>,
    ) -> Result<R, DbError> {
        let tn = txn.tn;
        let mut blocker = None;
        // Attribution clocks the wait from first block, not from entry:
        // the unblocked fast path must stay free of clock reads.
        let mut attr_started = None;
        // Speculative trace leaf, finished only when the request blocked.
        let span = mvcc_core::obs::trace::leaf("blocked");
        let (result, parked) = self.table.wait_until(obj, ctx.vtnc(), timeout, |e| {
            let older = match f(e) {
                Ok(r) => return Some(r),
                Err(older) => older,
            };
            if blocker.is_none() {
                blocker = Some(older);
                attr_started = ctx.obs.attr_timer();
                ctx.metrics
                    .local()
                    .rw_blocks
                    .fetch_add(1, Ordering::Relaxed);
                ctx.obs.emit(EventKind::Blocked, tn, obj.get());
            }
            None
        });
        if let Some(blocker) = blocker {
            if parked {
                ctx.metrics.local().rw_parks.fetch_add(1, Ordering::Relaxed);
            }
            if let (Some(attr), Some(started)) = (ctx.obs.attr(), attr_started) {
                let ns = ctx.obs.since(started).as_nanos() as u64;
                attr.topk().record_key(obj.get(), ns, result.is_none());
                attr.blame()
                    .record(WaitPoint::PendingWait, obj.get(), blocker, ns);
            }
            if let Some(mut span) = span {
                span.attr("object", obj.get());
                span.finish();
            }
        }
        result.ok_or_else(|| DbError::Aborted(self.timeout_reason(ctx, txn)))
    }

    /// The wait bound for `txn`'s blocking reads/writes: the configured
    /// timeout, clipped to the remaining deadline budget. `Err` when the
    /// budget is already spent — the wait must not start at all.
    fn wait_bound(&self, ctx: &CcContext, txn: &ToTxn) -> Result<Duration, DbError> {
        match txn.deadline {
            Some(d) => {
                if d.expired(&*ctx.config.clock) {
                    return Err(DbError::Aborted(AbortReason::DeadlineExceeded));
                }
                Ok(d.bound(&*ctx.config.clock, ctx.config.read_wait_timeout))
            }
            None => Ok(ctx.config.read_wait_timeout),
        }
    }

    /// Map a wait timeout to its abort reason: a wait clipped by the
    /// deadline is a deadline miss, not storage contention.
    fn timeout_reason(&self, ctx: &CcContext, txn: &ToTxn) -> AbortReason {
        if txn.deadline.is_some_and(|d| d.expired(&*ctx.config.clock)) {
            AbortReason::DeadlineExceeded
        } else {
            AbortReason::WaitTimeout
        }
    }
}

impl ConcurrencyControl for TimestampOrdering {
    type Txn = ToTxn;

    fn name(&self) -> &'static str {
        "to"
    }

    fn begin(&self, ctx: &CcContext) -> Result<ToTxn, DbError> {
        // Serial order known a priori: register now.
        let tn = ctx.register();
        if let Some(attr) = ctx.obs.attr() {
            attr.blame().set_phase(tn, TxnPhase::Execute);
        }
        Ok(ToTxn {
            tn,
            writes: WriteSet::new(),
            deadline: None,
        })
    }

    fn begin_with(&self, ctx: &CcContext, opts: &TxnOptions) -> Result<ToTxn, DbError> {
        let mut txn = self.begin(ctx)?;
        txn.deadline = opts
            .deadline
            .map(|budget| Deadline::within(&*ctx.config.clock, budget));
        Ok(txn)
    }

    fn read(
        &self,
        ctx: &CcContext,
        txn: &mut ToTxn,
        obj: ObjectId,
    ) -> Result<(u64, Value), DbError> {
        let tn = txn.tn;
        let timeout = self.wait_bound(ctx, txn)?;
        ctx.metrics
            .local()
            .rw_sync_actions
            .fetch_add(1, Ordering::Relaxed);
        // Own write shadows everything.
        if let Some(v) = txn.writes.get(obj) {
            return Ok((tn, v.clone()));
        }
        let read = self.when_unblocked(ctx, txn, obj, timeout, |e| {
            // GC prunes a version this transaction selects only once
            // `vtnc` passed its `tn`: the stall reaper discarded it, and
            // its commit would fail the claim anyway.
            let Some((n, v)) = ctx.store.read_at(obj, tn) else {
                return Ok(None);
            };
            // An older write not installed yet would be the version to
            // read: wait it out.
            if let Some(older) = e.oldest_in(n, tn) {
                return Err(older);
            }
            // r-ts(x) ← MAX(r-ts(x), tn(T))
            e.mark_read(n, tn);
            Ok(Some((n, v)))
        })?;
        read.ok_or(DbError::Aborted(AbortReason::Reaped))
    }

    fn write(
        &self,
        ctx: &CcContext,
        txn: &mut ToTxn,
        obj: ObjectId,
        value: Value,
    ) -> Result<(), DbError> {
        let tn = txn.tn;
        let timeout = self.wait_bound(ctx, txn)?;
        ctx.metrics
            .local()
            .rw_sync_actions
            .fetch_add(1, Ordering::Relaxed);
        // Rewrite of an object we already reserved: always fine.
        if txn.writes.get(obj).is_none() {
            let granted = self.when_unblocked(ctx, txn, obj, timeout, |e| {
                let newest = ctx.store.latest_number(obj);
                // Blocked behind an older write not installed yet.
                if let Some(older) = e.oldest_in(newest, tn) {
                    return Err(older);
                }
                // IF r-ts(x) > tn(T) OR w-ts(x) > tn(T) THEN abort(T), with
                // w-ts(x) counting a younger writer's reservation.
                let late = e.read_ts(newest) > tn || newest.max(e.newest()) > tn;
                if !late {
                    e.reserve(tn);
                }
                Ok(!late)
            })?;
            if !granted {
                // TO-rejection abort, charged to the contended key —
                // recorded here, after the table shard's lock is gone.
                if let Some(attr) = ctx.obs.attr() {
                    attr.topk().record_key(obj.get(), 0, true);
                }
                return Err(DbError::Aborted(AbortReason::TimestampConflict));
            }
        }
        txn.writes.put(obj, value);
        Ok(())
    }

    fn commit(&self, ctx: &CcContext, txn: ToTxn) -> Result<u64, DbError> {
        if let Some(attr) = ctx.obs.attr() {
            attr.blame().set_phase(txn.tn, TxnPhase::Commit);
        }
        // Registered at begin. end(T) claims the entry before touching
        // the store, so a transaction the stall reaper force-discarded
        // while it sat between begin and commit aborts instead: its
        // writes must never become visible. Its reservations go in the
        // release step, after the install.
        ctx.end(txn.tn, &txn.writes, || self.release(ctx, &txn))
    }

    fn abort(&self, ctx: &CcContext, txn: ToTxn) {
        ctx.discard(txn.tn);
        self.release(ctx, &txn);
    }

    fn txn_obs_id(&self, txn: &ToTxn) -> u64 {
        txn.tn
    }

    fn gauges(&self) -> Vec<(&'static str, u64)> {
        vec![("pending_versions", self.table.reservations())]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvcc_core::{DbConfig, MvDatabase};
    use std::sync::Arc;
    use std::thread;
    use std::time::Duration;

    fn db() -> MvDatabase<TimestampOrdering> {
        MvDatabase::with_config(TimestampOrdering::new(), DbConfig::traced())
    }

    fn obj(n: u64) -> ObjectId {
        ObjectId(n)
    }

    #[test]
    fn figure3_lifecycle() {
        let db = db();
        let mut t = db.begin_read_write().unwrap();
        // begin(T) registered immediately: tn known a priori
        assert_eq!(db.vc().tnc(), 2);
        assert_eq!(t.read(obj(0)).unwrap(), Value::empty());
        t.write(obj(1), Value::from_u64(3)).unwrap();
        let tn = t.commit().unwrap();
        assert_eq!(tn, 1);
        assert_eq!(db.vc().vtnc(), 1);
        assert_eq!(db.peek_latest(obj(1)).as_u64(), Some(3));
    }

    #[test]
    fn late_write_aborts_on_read_timestamp() {
        let db = db();
        // T1 (older) and T2 (younger); T2 reads x, then T1 writes x → too late.
        let mut t1 = db.begin_read_write().unwrap();
        let mut t2 = db.begin_read_write().unwrap();
        let _ = t2.read(obj(0)).unwrap(); // r-ts(x) = 2
        let err = t1.write(obj(0), Value::from_u64(1)).unwrap_err();
        assert_eq!(err, DbError::Aborted(AbortReason::TimestampConflict));
        t2.commit().unwrap();
        assert_eq!(db.metrics().aborts_ts_conflict, 1);
    }

    #[test]
    fn late_write_aborts_on_write_timestamp() {
        let db = db();
        let mut t1 = db.begin_read_write().unwrap();
        let mut t2 = db.begin_read_write().unwrap();
        t2.write(obj(0), Value::from_u64(2)).unwrap();
        t2.commit().unwrap(); // w-ts(x) = 2
        let err = t1.write(obj(0), Value::from_u64(1)).unwrap_err();
        assert_eq!(err, DbError::Aborted(AbortReason::TimestampConflict));
    }

    #[test]
    fn read_blocks_on_older_pending_write() {
        let db = Arc::new(db());
        let mut t1 = db.begin_read_write().unwrap(); // tn 1
        t1.write(obj(0), Value::from_u64(11)).unwrap(); // pending
        let db2 = Arc::clone(&db);
        let h = thread::spawn(move || {
            let mut t2 = db2.begin_read_write().unwrap(); // tn 2
                                                          // must block until T1 resolves, then read T1's version
            t2.read_u64(obj(0)).inspect(|_| {
                t2.commit().unwrap();
            })
        });
        thread::sleep(Duration::from_millis(40));
        t1.commit().unwrap();
        assert_eq!(h.join().unwrap().unwrap(), Some(11));
        assert!(db.metrics().rw_blocks >= 1);
    }

    #[test]
    fn read_unblocks_when_older_writer_aborts() {
        let db = Arc::new(db());
        db.seed(obj(0), Value::from_u64(7));
        let mut t1 = db.begin_read_write().unwrap();
        t1.write(obj(0), Value::from_u64(11)).unwrap();
        let db2 = Arc::clone(&db);
        let h = thread::spawn(move || {
            let mut t2 = db2.begin_read_write().unwrap();
            t2.read_u64(obj(0))
        });
        thread::sleep(Duration::from_millis(40));
        t1.abort();
        // reader falls back to the initial version
        assert_eq!(h.join().unwrap().unwrap(), Some(7));
    }

    #[test]
    fn younger_pending_write_aborts_older_writer() {
        let db = db();
        let mut t1 = db.begin_read_write().unwrap(); // tn 1
        let mut t2 = db.begin_read_write().unwrap(); // tn 2
        t2.write(obj(0), Value::from_u64(2)).unwrap(); // pending, reserved 2
                                                       // w-ts(x) = 2 > 1 → T1's write is too late even though T2 is pending
        let err = t1.write(obj(0), Value::from_u64(1)).unwrap_err();
        assert_eq!(err, DbError::Aborted(AbortReason::TimestampConflict));
        t2.commit().unwrap();
    }

    #[test]
    fn reads_never_rejected() {
        // "Read requests are never rejected" — even arbitrarily old
        // transactions can read (they get old versions).
        let db = db();
        let mut t1 = db.begin_read_write().unwrap(); // tn 1
        for v in 2..6u64 {
            db.run_rw(1, |t| t.write(obj(0), Value::from_u64(v)))
                .unwrap();
        }
        // T1 is the oldest; reads version ≤ 1 → initial
        assert_eq!(t1.read(obj(0)).unwrap(), Value::empty());
        t1.commit().unwrap();
    }

    #[test]
    fn out_of_order_commit_delays_visibility() {
        let db = db();
        let t1 = db.begin_read_write().unwrap(); // tn 1, stays active
        let mut t2 = db.begin_read_write().unwrap(); // tn 2
        t2.write(obj(0), Value::from_u64(2)).unwrap();
        t2.commit().unwrap();
        // T2 committed but T1 still active → vtnc stays 0 → RO sees nothing
        assert_eq!(db.vc().vtnc(), 0);
        let mut r = db.begin_read_only();
        assert_eq!(r.read(obj(0)).unwrap(), Value::empty());
        r.finish();
        t1.commit().unwrap();
        assert_eq!(db.vc().vtnc(), 2);
        let mut r2 = db.begin_read_only();
        assert_eq!(r2.read_u64(obj(0)).unwrap(), Some(2));
    }

    #[test]
    fn concurrent_increments_serializable_with_retries() {
        let db = Arc::new(db());
        db.seed(obj(0), Value::from_u64(0));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let db = Arc::clone(&db);
            handles.push(thread::spawn(move || {
                let mut done = 0;
                while done < 30 {
                    if db
                        .run_rw(1000, |t| {
                            let v = t.read_u64(obj(0))?.unwrap();
                            t.write(obj(0), Value::from_u64(v + 1))
                        })
                        .is_ok()
                    {
                        done += 1;
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(db.peek_latest(obj(0)).as_u64(), Some(240));
        let h = db.trace_history().unwrap();
        let report = mvcc_model::mvsg::check_tn_order(&h);
        assert!(
            report.acyclic,
            "TO trace not 1SR (cycle {:?})",
            report.cycle
        );
    }

    #[test]
    fn wal_torn_write_aborts_and_rewinds_log() {
        use mvcc_core::FaultConfig;
        let mem = mvcc_storage::MemWal::new();
        let cfg = DbConfig::default().with_fault(FaultConfig {
            wal_torn_write: 1.0,
            ..Default::default()
        });
        let db =
            MvDatabase::with_wal(TimestampOrdering::new(), cfg, Box::new(mem.clone())).unwrap();
        let mut t = db.begin_read_write().unwrap();
        t.write(obj(0), Value::from_u64(1)).unwrap();
        let err = t.commit().unwrap_err();
        assert_eq!(err, DbError::Aborted(AbortReason::LogFailed));
        // The torn frame was rewound: the log is a clean (empty) prefix,
        // and the aborted transaction left nothing pending.
        let (records, stats) = mvcc_storage::scan(&mem.bytes()).unwrap();
        assert!(records.is_empty());
        assert!(stats.clean_end(), "torn frame must be truncated away");
        assert_eq!(db.peek_latest(obj(0)), Value::empty());
        assert_eq!(db.cc().table().reservations(), 0);
        assert_eq!(db.metrics().aborts_wal, 1);
    }

    #[test]
    fn ro_txns_unaffected_by_pending_writes() {
        let db = db();
        db.seed(obj(0), Value::from_u64(7));
        let mut t = db.begin_read_write().unwrap();
        t.write(obj(0), Value::from_u64(8)).unwrap(); // pending
                                                      // RO does not block on the pending write (unlike Reed's MVTO!)
        let mut r = db.begin_read_only();
        assert_eq!(r.read_u64(obj(0)).unwrap(), Some(7));
        r.finish();
        t.commit().unwrap();
        // and the RO transaction did not bump r-ts → no aborts caused
        assert_eq!(db.metrics().aborts_due_to_ro, 0);
        assert_eq!(db.metrics().rw_aborted, 0);
    }

    /// A transaction the stall reaper discarded no longer holds `vtnc`
    /// below its `tn`, so installs may prune the version it selects: its
    /// next read aborts as `Reaped` (its commit would fail the claim
    /// anyway) instead of finding nothing.
    #[test]
    fn reaped_reader_whose_version_was_pruned_aborts() {
        let clock = mvcc_core::SimClock::new();
        let db = MvDatabase::with_config(
            TimestampOrdering::new(),
            DbConfig::default()
                .with_clock(clock.clone())
                .with_register_ttl(Duration::from_millis(1)),
        );
        db.seed(obj(0), Value::from_u64(0));
        let mut stalled = db.begin_read_write().unwrap();
        clock.advance(Duration::from_millis(5));
        assert_eq!(db.reap_stalled(), vec![1]);
        for v in 1..=2 {
            db.run_rw(1, |t| t.write(obj(0), Value::from_u64(v)))
                .unwrap();
        }
        db.collect_garbage();
        // Version 0, the one `stalled` (tn 1) selects, is gone.
        assert!(db.store().read_at(obj(0), 1).is_none());
        assert_eq!(
            stalled.read(obj(0)),
            Err(DbError::Aborted(AbortReason::Reaped))
        );
    }
}
