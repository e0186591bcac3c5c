//! A database site: multiversion storage + lock manager + core's
//! [`VersionControl`] with Lamport numbering (paper §6). Methods on
//! [`Site`] are the "RPC handlers" of the simulation; the
//! [`crate::cluster::Cluster`] counts each invocation as a network
//! message.

use crate::gtn::{Gtn, SITE_BITS};
use mvcc_cc::{LockError, LockManager, LockMode};
use mvcc_core::clock::{real_clock, SharedClock};
use mvcc_core::{AbortReason, DbError, Metrics, VersionControl, WriteSet};
use mvcc_model::ObjectId;
use mvcc_storage::{MvStore, StoreStats, Value};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

/// Site identifier (also the low bits of every [`Gtn`] it proposes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SiteId(pub u16);

/// A participant's record of a prepared (in-doubt) transaction: enough
/// state to finish phase 2 locally if the coordinator's decision message
/// never arrives and the transaction must be resolved by peer query or
/// presumed abort.
struct Prepared {
    proposal: Gtn,
    locked: Vec<ObjectId>,
    /// The transaction's writes here ("version φ", Figure 4), installed
    /// with the final number in phase 2. Its exclusive locks hide them
    /// from other RW transactions, and RO reads see committed versions
    /// only.
    writes: WriteSet,
    since: Instant,
}

/// One database site.
pub struct Site {
    id: SiteId,
    store: MvStore,
    locks: LockManager,
    vc: VersionControl,
    metrics: Metrics,
    lock_timeout: Duration,
    /// Time source for in-doubt age stamps (simulated under the DST
    /// harness, real otherwise).
    clock: SharedClock,
    /// Prepared-but-undecided transactions, keyed by coordinator token.
    /// Doubles as the phase-2 idempotence filter: the first commit or
    /// rollback delivery removes the entry; duplicates are no-ops.
    in_doubt: Mutex<HashMap<u64, Prepared>>,
}

impl Site {
    /// Fresh site with default timeouts.
    pub fn new(id: SiteId) -> Self {
        Self::with_lock_timeout(id, Duration::from_secs(2))
    }

    /// Fresh site with an explicit lock-wait timeout.
    pub fn with_lock_timeout(id: SiteId, lock_timeout: Duration) -> Self {
        Self::with_clock(id, lock_timeout, real_clock())
    }

    /// Fresh site with an explicit lock-wait timeout and time source.
    pub fn with_clock(id: SiteId, lock_timeout: Duration, clock: SharedClock) -> Self {
        let vc = VersionControl::for_site(SITE_BITS, id.0);
        // Visibility waits measure their deadline against the site clock,
        // so a simulated cluster replays them deterministically.
        vc.attach_clock(clock.clone());
        Site {
            id,
            store: MvStore::new(),
            locks: LockManager::new(),
            vc,
            metrics: Metrics::new(),
            lock_timeout,
            clock,
            in_doubt: Mutex::new(HashMap::new()),
        }
    }

    /// This site's id.
    pub fn id(&self) -> SiteId {
        self.id
    }

    /// The site's version-control module. Its numbers are encoded
    /// [`Gtn`]s.
    pub fn vc(&self) -> &VersionControl {
        &self.vc
    }

    /// The site's storage (tests/experiments).
    pub fn store(&self) -> &MvStore {
        &self.store
    }

    /// The site's counters.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Load an initial value.
    pub fn seed(&self, obj: ObjectId, value: Value) {
        self.store.seed(obj, value);
    }

    /// Storage statistics.
    pub fn store_stats(&self) -> StoreStats {
        self.store.stats()
    }

    // ---- read-write transaction handlers (per-site strict 2PL) ----------

    /// `read(x)` under a shared lock: the newest committed version. The
    /// coordinator answers reads of the transaction's own writes.
    pub fn rw_read(&self, token: u64, obj: ObjectId) -> Result<(u64, Value), DbError> {
        self.lock(token, obj, LockMode::Shared)?;
        Ok(self.store.read_latest(obj))
    }

    /// `write(x)`: take the exclusive lock. The coordinator buffers the
    /// value and hands it over at [`prepare`](Self::prepare).
    pub fn rw_write(&self, token: u64, obj: ObjectId) -> Result<(), DbError> {
        self.lock(token, obj, LockMode::Exclusive)
    }

    /// Two-phase commit, phase 1: this participant is past its lock
    /// point; register a proposal with distributed version control and
    /// record the in-doubt state needed to resolve the transaction if
    /// the decision message never arrives, `writes` included.
    pub fn prepare(&self, token: u64, locked: &[ObjectId], writes: WriteSet) -> Gtn {
        self.metrics
            .local()
            .vc_register_calls
            .fetch_add(1, Ordering::Relaxed);
        let p = Gtn(self.vc.register());
        self.in_doubt.lock().insert(
            token,
            Prepared {
                proposal: p,
                locked: locked.to_vec(),
                writes,
                since: self.clock.now(),
            },
        );
        p
    }

    /// Two-phase commit, phase 2: install the prepared writes with the
    /// final global number, release locks, complete version control.
    /// **Idempotent**: only the delivery that removes the in-doubt record
    /// applies; a duplicated decision message (or one arriving after
    /// peer-query resolution) is a no-op.
    pub fn commit(
        &self,
        token: u64,
        proposal: Gtn,
        fin: Gtn,
        locked: &[ObjectId],
    ) -> Result<(), DbError> {
        let Some(e) = self.in_doubt.lock().remove(&token) else {
            return Ok(());
        };
        self.apply_commit(token, proposal, fin, locked, &e.writes)
    }

    fn apply_commit(
        &self,
        token: u64,
        proposal: Gtn,
        fin: Gtn,
        locked: &[ObjectId],
        writes: &WriteSet,
    ) -> Result<(), DbError> {
        for (obj, value) in writes.as_slice() {
            self.store
                .with(*obj, |c| c.insert_committed(fin.encoded(), value.clone()))
                .map_err(|e| DbError::Internal(format!("site {} commit: {e}", self.id.0)))?;
        }
        self.locks.release_all(token, locked.iter());
        self.vc.complete_as(proposal.encoded(), fin.encoded());
        self.metrics
            .local()
            .vc_complete_calls
            .fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Abort/rollback at this participant. If the transaction was
    /// prepared here, its in-doubt record supplies the proposal to
    /// discard (and the record's removal makes duplicates no-ops).
    pub fn rollback(&self, token: u64, proposal: Option<Gtn>, locked: &[ObjectId]) {
        let p = self
            .in_doubt
            .lock()
            .remove(&token)
            .map(|e| e.proposal)
            .or(proposal);
        self.apply_abort(token, p, locked);
    }

    fn apply_abort(&self, token: u64, proposal: Option<Gtn>, locked: &[ObjectId]) {
        self.locks.release_all(token, locked.iter());
        if let Some(p) = proposal {
            self.vc.discard(p.encoded());
            self.metrics
                .local()
                .vc_discard_calls
                .fetch_add(1, Ordering::Relaxed);
        }
    }

    // ---- in-doubt resolution and crash recovery ---------------------------

    /// Tokens of prepared transactions still awaiting a decision, with
    /// how long each has been in doubt.
    pub fn in_doubt_tokens(&self) -> Vec<(u64, Duration)> {
        let now = self.clock.now();
        self.in_doubt
            .lock()
            .iter()
            .map(|(&t, e)| (t, now.saturating_duration_since(e.since)))
            .collect()
    }

    /// Number of in-doubt transactions.
    pub fn in_doubt_len(&self) -> usize {
        self.in_doubt.lock().len()
    }

    /// Resolve an in-doubt transaction as committed with final number
    /// `fin` (learned by querying the coordinator's decision log).
    /// Returns `false` if the token is no longer in doubt.
    pub fn resolve_commit(&self, token: u64, fin: Gtn) -> Result<bool, DbError> {
        let Some(e) = self.in_doubt.lock().remove(&token) else {
            return Ok(false);
        };
        self.apply_commit(token, e.proposal, fin, &e.locked, &e.writes)?;
        Ok(true)
    }

    /// Resolve an in-doubt transaction as aborted (decision log says
    /// abort, or presumed abort after a timeout — safe because the
    /// coordinator logs its decision *before* sending any phase-2
    /// message, so an undecided transaction can never have committed
    /// anywhere). Returns `false` if the token is no longer in doubt.
    pub fn resolve_abort(&self, token: u64) -> bool {
        let Some(e) = self.in_doubt.lock().remove(&token) else {
            return false;
        };
        self.apply_abort(token, Some(e.proposal), &e.locked);
        true
    }

    /// Simulate a site crash: every piece of volatile state vanishes —
    /// locks, in-doubt 2PC records with their writes, and the
    /// version-control queue. Committed versions are durable and survive.
    ///
    /// **Limitation (documented in DESIGN.md):** prepared state is
    /// volatile in this simulation (no write-ahead log), so a crash is
    /// only faithful at points where no 2PC involving this site is in
    /// flight; a coordinator's later commit for a crashed participant is
    /// silently ignored by the idempotence filter.
    pub fn crash(&self) {
        self.in_doubt.lock().clear();
        self.locks.clear_all();
    }

    /// Recover after a [`crash`](Self::crash): rebuild the distributed
    /// version-control watermark from durable state — the largest
    /// committed version number in the store. Returns the watermark.
    pub fn recover(&self) -> Gtn {
        let watermark = self
            .store
            .objects()
            .into_iter()
            .map(|o| self.store.with(o, |c| c.latest().number))
            .max()
            .unwrap_or(0);
        let watermark = Gtn(watermark);
        self.vc.resume(watermark.encoded());
        watermark
    }

    // ---- read-only transaction handlers ----------------------------------

    /// `VCstart` at this site.
    pub fn ro_start(&self) -> Gtn {
        let m = self.metrics.local();
        m.vc_start_calls.fetch_add(1, Ordering::Relaxed);
        m.ro_sync_actions.fetch_add(1, Ordering::Relaxed);
        Gtn(self.vc.start())
    }

    /// Snapshot read at a global start number. Never blocks.
    pub fn ro_read(&self, obj: ObjectId, sn: Gtn) -> Result<(u64, Value), DbError> {
        self.metrics
            .local()
            .ro_reads
            .fetch_add(1, Ordering::Relaxed);
        self.store
            .read_at(obj, sn.encoded())
            .ok_or(DbError::VersionPruned {
                obj,
                sn: sn.encoded(),
            })
    }

    /// Wait until this site's visibility covers `sn` (lazy contact in a
    /// distributed read-only transaction).
    pub fn ro_catch_up(&self, sn: Gtn, timeout: Duration) -> Result<Gtn, DbError> {
        let vtnc = Gtn(self.vc.vtnc());
        if vtnc >= sn {
            return Ok(vtnc);
        }
        self.metrics
            .local()
            .ro_blocks
            .fetch_add(1, Ordering::Relaxed);
        self.vc
            .wait_visible(sn.encoded(), timeout)
            .map(Gtn)
            .ok_or(DbError::Aborted(AbortReason::WaitTimeout))
    }

    fn lock(&self, token: u64, obj: ObjectId, mode: LockMode) -> Result<(), DbError> {
        self.metrics
            .local()
            .rw_sync_actions
            .fetch_add(1, Ordering::Relaxed);
        match self
            .locks
            .acquire(token, obj, mode, self.lock_timeout, true)
        {
            Ok(a) => {
                if a.waited {
                    self.metrics
                        .local()
                        .rw_blocks
                        .fetch_add(1, Ordering::Relaxed);
                }
                Ok(())
            }
            Err(LockError::Deadlock) => Err(DbError::Aborted(AbortReason::Deadlock)),
            // Distributed deadlocks span sites and are invisible to a
            // single site's waits-for graph; the timeout breaks them.
            Err(LockError::Timeout) => Err(DbError::Aborted(AbortReason::WaitTimeout)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obj(n: u64) -> ObjectId {
        ObjectId(n)
    }

    /// Write `x := v` at `s` under `token`'s lock; returns the write set
    /// the coordinator would hand to `prepare`.
    fn write(s: &Site, token: u64, x: ObjectId, v: u64) -> WriteSet {
        s.rw_write(token, x).unwrap();
        let mut ws = WriteSet::new();
        ws.put(x, Value::from_u64(v));
        ws
    }

    #[test]
    fn single_site_rw_lifecycle() {
        let s = Site::new(SiteId(1));
        let ws = write(&s, 7, obj(0), 5);
        let p = s.prepare(7, &[obj(0)], ws);
        s.commit(7, p, p, &[obj(0)]).unwrap();
        assert_eq!(Gtn(s.vc().vtnc()), p);
        assert_eq!(s.in_doubt_len(), 0);
        let (n, v) = s.ro_read(obj(0), s.ro_start()).unwrap();
        assert_eq!(n, p.encoded());
        assert_eq!(v.as_u64(), Some(5));
    }

    #[test]
    fn rollback_leaves_clean_state() {
        let s = Site::new(SiteId(1));
        let ws = write(&s, 7, obj(0), 5);
        let p = s.prepare(7, &[obj(0)], ws);
        s.rollback(7, Some(p), &[obj(0)]);
        assert_eq!(s.ro_read(obj(0), s.ro_start()).unwrap().0, 0);
        // locks free again
        s.rw_write(8, obj(0)).unwrap();
        s.rollback(8, None, &[obj(0)]);
    }

    #[test]
    fn ro_read_ignores_in_doubt_commit() {
        // Version installed with a final number, but the
        // site's vtnc has not advanced past an older in-doubt proposal:
        // the RO snapshot (taken at vtnc) must not include it.
        let s = Site::new(SiteId(1));
        let _blocker = s.prepare(98, &[], WriteSet::new()); // older in-doubt proposal
        let ws = write(&s, 99, obj(0), 9);
        let p = s.prepare(99, &[obj(0)], ws);
        s.commit(99, p, p, &[obj(0)]).unwrap();
        let sn = s.ro_start();
        assert_eq!(sn, Gtn::ZERO, "in-doubt blocker must pin visibility");
        assert_eq!(s.ro_read(obj(0), sn).unwrap().0, 0);
    }

    #[test]
    fn catch_up_immediate_when_visible() {
        let s = Site::new(SiteId(1));
        let p = s.prepare(1, &[], WriteSet::new());
        s.commit(1, p, p, &[]).unwrap();
        assert_eq!(s.ro_catch_up(p, Duration::from_millis(5)).unwrap(), p);
    }

    #[test]
    fn duplicate_commit_delivery_is_a_no_op() {
        let s = Site::new(SiteId(1));
        let ws = write(&s, 7, obj(0), 5);
        let p = s.prepare(7, &[obj(0)], ws);
        s.commit(7, p, p, &[obj(0)]).unwrap();
        // the duplicate must not re-promote or double-complete
        s.commit(7, p, p, &[obj(0)]).unwrap();
        assert_eq!(Gtn(s.vc().vtnc()), p);
        assert_eq!(s.metrics().snapshot().vc_complete_calls, 1);
    }

    #[test]
    fn resolve_commit_finishes_in_doubt_txn() {
        let s = Site::new(SiteId(1));
        let ws = write(&s, 7, obj(0), 5);
        let p = s.prepare(7, &[obj(0)], ws);
        // decision message lost; resolver learns Commit(fin) from the log
        assert!(s.resolve_commit(7, p).unwrap());
        assert_eq!(Gtn(s.vc().vtnc()), p);
        assert_eq!(s.ro_read(obj(0), s.ro_start()).unwrap().1.as_u64(), Some(5));
        // a straggling duplicate decision is ignored
        assert!(!s.resolve_commit(7, p).unwrap());
    }

    #[test]
    fn resolve_abort_presumes_abort_for_undecided() {
        let s = Site::new(SiteId(1));
        let ws = write(&s, 7, obj(0), 5);
        let _p = s.prepare(7, &[obj(0)], ws);
        assert_eq!(s.in_doubt_len(), 1);
        assert!(s.resolve_abort(7));
        assert_eq!(s.in_doubt_len(), 0);
        // buffered write dropped, visibility unpinned, locks released
        assert_eq!(s.ro_read(obj(0), s.ro_start()).unwrap().0, 0);
        s.rw_write(8, obj(0)).unwrap();
        s.rollback(8, None, &[obj(0)]);
    }

    #[test]
    fn crash_recover_rebuilds_watermark_from_store() {
        let s = Site::new(SiteId(1));
        let ws = write(&s, 1, obj(0), 5);
        let p1 = s.prepare(1, &[obj(0)], ws);
        s.commit(1, p1, p1, &[obj(0)]).unwrap();
        // a second txn crashes the site while prepared
        let ws = write(&s, 2, obj(1), 9);
        let _p2 = s.prepare(2, &[obj(1)], ws);
        s.crash();
        assert_eq!(s.in_doubt_len(), 0);
        let watermark = s.recover();
        assert_eq!(watermark, p1, "watermark = largest committed version");
        assert_eq!(Gtn(s.vc().vtnc()), p1);
        s.vc().validate().unwrap();
        // the crashed txn's buffered write is gone; its lock is free
        assert_eq!(s.ro_read(obj(1), s.ro_start()).unwrap().0, 0);
        let ws = write(&s, 3, obj(1), 7);
        let p3 = s.prepare(3, &[obj(1)], ws);
        s.commit(3, p3, p3, &[obj(1)]).unwrap();
        assert!(
            Gtn(s.vc().vtnc()) > watermark,
            "visibility advances past recovery"
        );
    }
}
