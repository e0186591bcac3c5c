//! Rectifications for *delayed visibility* (paper Section 6).
//!
//! The one cost of the version-control mechanism is that a read-only
//! transaction sees the database as of `vtnc`, which can lag behind the
//! newest commits while older transactions are still active. The paper
//! names two remedies, both implemented here:
//!
//! 1. **Temporal rectification** — "this problem can be rectified by
//!    ensuring that `R` be executed with a value of `sn(R)` which is at
//!    least as large as `tn(T)`": [`CurrencyMode::AtLeast`] waits for
//!    `vtnc ≥ tn` before starting, and [`Session`] automates it for
//!    read-your-writes ordering within one client session.
//! 2. **Pseudo read-write execution** — "such transactions can be dealt
//!    with by executing them as pseudo read-write transactions":
//!    [`LatestTxn`] wraps a read-write transaction that is only allowed to
//!    read, paying full concurrency-control cost in exchange for currency.

use crate::cc_api::ConcurrencyControl;
use crate::db::MvDatabase;
use crate::error::DbError;
use crate::txn::{RoTxn, RwTxn};
use mvcc_model::ObjectId;
use mvcc_storage::Value;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// How current a read-only transaction's snapshot must be.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CurrencyMode {
    /// Plain `VCstart()` snapshot — may lag (the default of Figure 2).
    Snapshot,
    /// Wait until `vtnc ≥ tn`, guaranteeing transaction `tn`'s updates
    /// (and those of everything serialized before it) are visible.
    AtLeast(u64),
    /// Observe the most recent state by running as a pseudo read-write
    /// transaction.
    Latest,
}

/// A pseudo read-write transaction that can only read (Section 6's
/// currency escape hatch). It is synchronized by the concurrency-control
/// protocol like any read-write transaction, so it always observes the
/// most recent committed state — and, unlike a true read-only transaction,
/// it can block, be blocked, and abort.
pub struct LatestTxn<'db, C: ConcurrencyControl> {
    inner: RwTxn<'db, C>,
}

impl<'db, C: ConcurrencyControl> LatestTxn<'db, C> {
    pub(crate) fn new(inner: RwTxn<'db, C>) -> Self {
        LatestTxn { inner }
    }

    /// Read the current value of `obj` under full concurrency control.
    pub fn read(&mut self, obj: ObjectId) -> Result<Value, DbError> {
        self.inner.read(obj)
    }

    /// Read and decode as `u64`.
    pub fn read_u64(&mut self, obj: ObjectId) -> Result<Option<u64>, DbError> {
        self.inner.read_u64(obj)
    }

    /// Finish. Commit is what releases protocol resources (e.g. read
    /// locks under 2PL); a read-set-only transaction always passes
    /// validation-style protocols. Returns the transaction number.
    pub fn finish(self) -> Result<u64, DbError> {
        self.inner.commit()
    }
}

/// A client session providing *monotonic reads* and *read-your-writes*
/// across transactions: read-only transactions started through the
/// session wait until everything the session previously committed (or
/// observed) is visible.
pub struct Session<'db, C: ConcurrencyControl> {
    db: &'db MvDatabase<C>,
    /// Highest transaction number this session must observe.
    high_water: AtomicU64,
    /// Bound on visibility waits.
    timeout: Duration,
}

impl<'db, C: ConcurrencyControl> Session<'db, C> {
    /// New session against `db` with the given visibility-wait bound.
    pub fn new(db: &'db MvDatabase<C>, timeout: Duration) -> Self {
        Session {
            db,
            high_water: AtomicU64::new(0),
            timeout,
        }
    }

    /// Current high-water mark (largest `tn` this session depends on).
    pub fn high_water(&self) -> u64 {
        self.high_water.load(Ordering::Acquire)
    }

    /// Raise the high-water mark (e.g. after observing a foreign commit).
    pub fn observe(&self, tn: u64) {
        self.high_water.fetch_max(tn, Ordering::AcqRel);
    }

    /// Begin a read-only transaction that sees all of this session's
    /// prior writes (paper's first rectification).
    pub fn begin_read_only(&self) -> Result<RoTxn<'db>, DbError> {
        let hw = self.high_water();
        self.db
            .begin_read_only_with(CurrencyMode::AtLeast(hw), self.timeout)
    }

    /// Run a read-write transaction through the session, recording its
    /// transaction number as the new high-water mark.
    pub fn run_rw<R>(
        &self,
        max_attempts: u32,
        body: impl FnMut(&mut RwTxn<'_, C>) -> Result<R, DbError>,
    ) -> Result<(u64, R), DbError> {
        let (tn, r) = self.db.run_rw(max_attempts, body)?;
        self.observe(tn);
        Ok((tn, r))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cc_api::testing::SerialCc;
    use crate::db::MvDatabase;
    use crate::error::DbError;
    use mvcc_storage::Value;

    fn db() -> MvDatabase<SerialCc> {
        MvDatabase::new(SerialCc)
    }

    #[test]
    fn snapshot_mode_equals_plain_begin() {
        let db = db();
        db.run_rw(1, |t| t.write(ObjectId(0), Value::from_u64(1)))
            .unwrap();
        let r = db
            .begin_read_only_with(CurrencyMode::Snapshot, Duration::from_secs(1))
            .unwrap();
        assert_eq!(r.sn(), db.vc().vtnc());
    }

    #[test]
    fn at_least_waits_and_times_out() {
        let db = db();
        // tn 1 stays active → AtLeast(1) cannot be satisfied
        let pending = db.begin_read_write().unwrap();
        let err = db
            .begin_read_only_with(CurrencyMode::AtLeast(1), Duration::from_millis(20))
            .unwrap_err();
        assert!(matches!(err, DbError::Aborted(_)));
        pending.commit().unwrap();
        let r = db
            .begin_read_only_with(CurrencyMode::AtLeast(1), Duration::from_millis(20))
            .unwrap();
        assert!(r.sn() >= 1);
    }

    #[test]
    fn latest_mode_rejected_on_ro_entry() {
        let db = db();
        let err = db
            .begin_read_only_with(CurrencyMode::Latest, Duration::from_secs(1))
            .unwrap_err();
        assert!(matches!(err, DbError::Internal(_)));
    }

    #[test]
    fn latest_txn_reads_pending_currency() {
        let db = db();
        db.run_rw(1, |t| t.write(ObjectId(0), Value::from_u64(5)))
            .unwrap();
        // Straggler pins vtnc below the next commit.
        let straggler = db.begin_read_write().unwrap();
        db.run_rw(1, |t| t.write(ObjectId(0), Value::from_u64(6)))
            .unwrap();
        // Plain snapshot lags; Latest sees the newest committed value.
        let mut snap = db.begin_read_only();
        assert_eq!(snap.read_u64(ObjectId(0)).unwrap(), Some(5));
        let mut latest = db.begin_latest_read().unwrap();
        assert_eq!(latest.read_u64(ObjectId(0)).unwrap(), Some(6));
        latest.finish().unwrap();
        straggler.commit().unwrap();
    }

    #[test]
    fn session_observe_raises_high_water() {
        let db = db();
        let session = Session::new(&db, Duration::from_secs(1));
        assert_eq!(session.high_water(), 0);
        session.observe(5);
        session.observe(3); // max semantics
        assert_eq!(session.high_water(), 5);
    }

    #[test]
    fn session_read_your_writes() {
        let db = db();
        let session = Session::new(&db, Duration::from_secs(1));
        let (tn, ()) = session
            .run_rw(1, |t| t.write(ObjectId(7), Value::from_u64(42)))
            .unwrap();
        assert_eq!(session.high_water(), tn);
        let mut r = session.begin_read_only().unwrap();
        assert_eq!(r.read_u64(ObjectId(7)).unwrap(), Some(42));
    }
}
