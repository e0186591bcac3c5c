//! Version control + optimistic concurrency control (paper refs \[1, 2\]).
//!
//! The paper's own multiversion optimistic protocol motivated the
//! version-control mechanism ("the mechanism presented in this paper is
//! based on the version management scheme of the multiversion optimistic
//! concurrency control protocol"), so this integration closes the loop:
//!
//! * **Read phase** — reads observe the latest committed versions with no
//!   synchronization; writes are buffered privately.
//! * **Validation phase** — serial backward validation under a global
//!   critical section: the transaction commits iff no object it read has
//!   a newer committed version. `VCregister` happens *inside* validation,
//!   making validation order = transaction-number order = serial order.
//! * **Write phase** — buffered writes become committed versions stamped
//!   with `tn(T)`, then `VCcomplete`.
//!
//! Read-only transactions never validate — the version-control mechanism
//! eliminates exactly the "validation overhead of read-only transactions"
//! that refs \[1, 2\] targeted.

use mvcc_core::{AbortReason, CcContext, ConcurrencyControl, DbError, EventKind, WriteSet};
use mvcc_model::ObjectId;
use mvcc_storage::Value;
use parking_lot::Mutex;
use std::sync::atomic::Ordering;

/// Backward-validation optimistic concurrency control.
#[derive(Default)]
pub struct Optimistic {
    /// Global validation critical section: validation + write phase are
    /// atomic with respect to each other (classic serial validation).
    validation: Mutex<()>,
}

/// Per-transaction OCC state: read and write sets.
pub struct OccTxn {
    /// `(object, version number observed)` — first read per object.
    read_set: Vec<(ObjectId, u64)>,
    /// Buffered writes, last value per object wins.
    writes: WriteSet,
}

impl Optimistic {
    /// Fresh protocol instance.
    pub fn new() -> Self {
        Self::default()
    }
}

impl ConcurrencyControl for Optimistic {
    type Txn = OccTxn;

    fn name(&self) -> &'static str {
        "occ"
    }

    fn begin(&self, _ctx: &CcContext) -> Result<OccTxn, DbError> {
        Ok(OccTxn {
            read_set: Vec::new(),
            writes: WriteSet::new(),
        })
    }

    fn read(
        &self,
        ctx: &CcContext,
        txn: &mut OccTxn,
        obj: ObjectId,
    ) -> Result<(u64, Value), DbError> {
        // Own buffered write shadows the store.
        if let Some(v) = txn.writes.get(obj) {
            return Ok((u64::MAX, v.clone()));
        }
        let (version, value) = ctx.store.read_latest(obj);
        if !txn.read_set.iter().any(|&(o, _)| o == obj) {
            txn.read_set.push((obj, version));
        }
        Ok((version, value))
    }

    fn write(
        &self,
        _ctx: &CcContext,
        txn: &mut OccTxn,
        obj: ObjectId,
        value: Value,
    ) -> Result<(), DbError> {
        txn.writes.put(obj, value);
        Ok(())
    }

    fn commit(&self, ctx: &CcContext, txn: OccTxn) -> Result<u64, DbError> {
        let m = ctx.metrics.local();
        // Speculative trace leaf spanning the validation critical section.
        let mut span = mvcc_core::obs::trace::leaf("validate");
        let crit = self.validation.lock();

        // Backward validation: every read must still be current.
        for &(obj, seen) in &txn.read_set {
            m.rw_sync_actions.fetch_add(1, Ordering::Relaxed);
            // The read-only probe: an object nobody wrote stays
            // unmaterialized, the map never rehashes in this section, and
            // no value is cloned just to compare its number.
            let current = ctx.store.latest_number(obj);
            if current != seen {
                // id 0: the loser has no transaction number (it never
                // registers); aux names the conflicting object.
                ctx.obs.emit(EventKind::Validate, 0, obj.get());
                // Hot-key attribution: a validation failure is an abort
                // charged to the object whose version moved underneath us.
                if let Some(attr) = ctx.obs.attr() {
                    attr.topk().record_key(obj.get(), 0, true);
                }
                if let Some(mut span) = span {
                    span.attr("failed_object", obj.get());
                    span.finish();
                }
                return Err(DbError::Aborted(AbortReason::ValidationFailed));
            }
        }

        // Serial order fixed here: registering inside the critical section
        // makes validation order = tn order.
        let tn = ctx.register();
        if let Some(mut span) = span.take() {
            span.attr("tn", tn);
            span.attr("read_set", txn.read_set.len() as u64);
            span.finish();
        }
        // Write phase: the buffered writes become versions numbered tn
        // before the critical section ends, then VCcomplete.
        let res = ctx.end(tn, &txn.writes, || drop(crit));
        if res.is_ok() {
            // Emitted outside the critical section, which a notification
            // must never extend.
            ctx.obs
                .emit(EventKind::Validate, tn, txn.read_set.len() as u64);
        }
        res
    }

    fn abort(&self, _ctx: &CcContext, _txn: OccTxn) {
        // Nothing installed anywhere; buffered state just drops. A
        // transaction that failed validation was never registered.
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvcc_core::{DbConfig, MvDatabase};
    use std::sync::Arc;
    use std::thread;

    fn db() -> MvDatabase<Optimistic> {
        MvDatabase::with_config(Optimistic::new(), DbConfig::traced())
    }

    fn obj(n: u64) -> ObjectId {
        ObjectId(n)
    }

    #[test]
    fn read_validate_write_lifecycle() {
        let db = db();
        let mut t = db.begin_read_write().unwrap();
        assert_eq!(t.read(obj(0)).unwrap(), Value::empty());
        t.write(obj(1), Value::from_u64(4)).unwrap();
        let tn = t.commit().unwrap();
        assert_eq!(tn, 1);
        assert_eq!(db.peek_latest(obj(1)).as_u64(), Some(4));
        assert_eq!(db.vc().vtnc(), 1);
    }

    #[test]
    fn stale_read_fails_validation() {
        let db = db();
        let mut t1 = db.begin_read_write().unwrap();
        let _ = t1.read(obj(0)).unwrap(); // sees version 0
                                          // concurrent commit bumps the object
        db.run_rw(1, |t| t.write(obj(0), Value::from_u64(1)))
            .unwrap();
        t1.write(obj(1), Value::from_u64(9)).unwrap();
        let err = t1.commit().unwrap_err();
        assert_eq!(err, DbError::Aborted(AbortReason::ValidationFailed));
        assert_eq!(db.metrics().aborts_validation, 1);
        // the failed txn installed nothing
        assert_eq!(db.peek_latest(obj(1)), Value::empty());
    }

    #[test]
    fn blind_writes_never_fail_validation() {
        let db = db();
        let mut t1 = db.begin_read_write().unwrap();
        let mut t2 = db.begin_read_write().unwrap();
        t1.write(obj(0), Value::from_u64(1)).unwrap();
        t2.write(obj(0), Value::from_u64(2)).unwrap();
        let tn1 = t1.commit().unwrap();
        let tn2 = t2.commit().unwrap();
        assert!(tn1 < tn2);
        // version order = tn order: latest is t2's
        assert_eq!(db.peek_latest(obj(0)).as_u64(), Some(2));
    }

    #[test]
    fn read_own_buffered_write() {
        let db = db();
        let mut t = db.begin_read_write().unwrap();
        t.write(obj(0), Value::from_u64(5)).unwrap();
        assert_eq!(t.read_u64(obj(0)).unwrap(), Some(5));
        // own-write read did not poison the read set
        t.commit().unwrap();
    }

    #[test]
    fn write_skew_prevented() {
        // T1 reads y writes x; T2 reads x writes y. Serial validation
        // must abort the later one.
        let db = db();
        db.seed(obj(0), Value::from_u64(1)); // x
        db.seed(obj(1), Value::from_u64(1)); // y
        let mut t1 = db.begin_read_write().unwrap();
        let mut t2 = db.begin_read_write().unwrap();
        let _ = t1.read(obj(1)).unwrap();
        let _ = t2.read(obj(0)).unwrap();
        t1.write(obj(0), Value::from_u64(0)).unwrap();
        t2.write(obj(1), Value::from_u64(0)).unwrap();
        let r1 = t1.commit();
        let r2 = t2.commit();
        assert!(r1.is_ok());
        assert_eq!(
            r2.unwrap_err(),
            DbError::Aborted(AbortReason::ValidationFailed)
        );
    }

    #[test]
    fn concurrent_increments_serializable() {
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
            "OCC trace not 1SR (cycle {:?})",
            report.cycle
        );
    }

    #[test]
    fn wal_bit_flip_is_silent_until_scanned() {
        use mvcc_core::FaultConfig;
        let mem = mvcc_storage::MemWal::new();
        let cfg = DbConfig::default().with_fault(FaultConfig {
            wal_bit_flip: 1.0,
            ..Default::default()
        });
        let db = MvDatabase::with_wal(Optimistic::new(), cfg, Box::new(mem.clone())).unwrap();
        // Commits succeed — corruption on the way to the platter is
        // invisible at write time.
        for v in 1..=3u64 {
            db.run_rw(1, |t| t.write(obj(0), Value::from_u64(v)))
                .unwrap();
        }
        assert_eq!(db.metrics().rw_committed, 3);
        // The scan stops at the first corrupt CRC: the flipped first
        // frame kills everything (one flipped bit per append ⇒ no frame
        // is intact).
        let (records, stats) = mvcc_storage::scan(&mem.bytes()).unwrap();
        assert!(records.is_empty());
        assert!(!stats.clean_end());
        assert!(stats.torn_bytes > 0);
    }

    #[test]
    fn wal_group_commit_batches_syncs() {
        use mvcc_core::FsyncPolicy;
        let mem = mvcc_storage::MemWal::new();
        let cfg = DbConfig::default().with_wal_fsync(FsyncPolicy::EveryN(4));
        let db = MvDatabase::with_wal(Optimistic::new(), cfg, Box::new(mem.clone())).unwrap();
        for v in 1..=8u64 {
            db.run_rw(1, |t| t.write(obj(0), Value::from_u64(v)))
                .unwrap();
        }
        let m = db.metrics();
        assert_eq!(m.wal_appends, 8);
        assert_eq!(m.wal_syncs, 2, "8 commits at n=4 → 2 syncs");
        // All 8 are appended; only the synced prefix is durable.
        assert_eq!(mvcc_storage::scan(&mem.bytes()).unwrap().0.len(), 8);
        assert_eq!(mvcc_storage::scan(&mem.durable_bytes()).unwrap().0.len(), 8);
        db.wal().unwrap().sync().unwrap();
    }

    #[test]
    fn ro_txns_skip_validation() {
        let db = db();
        db.seed(obj(0), Value::from_u64(7));
        let mut t = db.begin_read_write().unwrap();
        t.write(obj(0), Value::from_u64(8)).unwrap(); // buffered
        let before = db.metrics().rw_sync_actions;
        let mut r = db.begin_read_only();
        assert_eq!(r.read_u64(obj(0)).unwrap(), Some(7));
        r.finish();
        // the read-only transaction performed zero validation actions
        assert_eq!(db.metrics().rw_sync_actions, before);
        t.commit().unwrap();
    }
}
