//! A database site: core's engine seam ([`CcContext`]) running strict
//! two-phase locking ([`TwoPhaseLocking`]), numbered in Lamport pairs by
//! [`VersionControl::for_site`] (paper §6). Methods on [`Site`] are the
//! "RPC handlers" of the simulation; the [`crate::cluster::Cluster`]
//! counts each invocation as a network message.
//!
//! Two-phase commit is `end(T)` cut in two: [`TwoPhaseLocking::prepare`]
//! votes, [`TwoPhaseLocking::finish`] installs at the coordinator's final
//! number. Between the two the transaction waits here, in doubt.

use crate::gtn::{Gtn, SITE_BITS};
use mvcc_cc::{TplTxn, TwoPhaseLocking};
use mvcc_core::{AbortReason, CcContext, ConcurrencyControl, DbConfig, DbError, VersionControl};
use mvcc_model::ObjectId;
use mvcc_storage::{MvStore, RoScanRegistry, StoreStats, Value};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Site identifier (also the low bits of every [`Gtn`] it proposes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SiteId(pub u16);

/// A prepared (in-doubt) transaction: enough to finish phase 2 locally
/// when the decision arrives by message, peer query or presumed abort.
/// Its exclusive locks hide its buffered writes ("version φ", Figure 4)
/// from other RW transactions; RO reads see committed versions only.
struct Prepared {
    /// Its proposal.
    tn: Gtn,
    txn: TplTxn,
    since: Instant,
}

/// One database site.
pub struct Site {
    id: SiteId,
    ctx: CcContext,
    tpl: TwoPhaseLocking,
    /// The version control inside `ctx`.
    vc: Arc<VersionControl>,
    /// Prepared-but-undecided transactions, keyed by coordinator token.
    /// Doubles as the phase-2 idempotence filter: the first commit or
    /// rollback delivery removes the entry; duplicates are no-ops.
    in_doubt: Mutex<HashMap<u64, Prepared>>,
}

/// The sites `1..=n` of one cluster on `config`, sharing one GC registry
/// whose floor is the minimum `vtnc` over all of them, so no site prunes
/// a version a distributed snapshot can select (DESIGN.md §21).
pub(crate) fn cluster_sites(n: u16, config: &DbConfig) -> Vec<Arc<Site>> {
    let new = |i| Site::with_config(SiteId(i), config.clone());
    let mut sites: Vec<Site> = (1..=n).map(new).collect();
    let vcs: Arc<[_]> = sites.iter().map(|s| Arc::clone(&s.vc)).collect();
    let readers = Arc::new(RoScanRegistry::new());
    for s in &mut sites {
        s.ctx.share_floor(Arc::clone(&readers), Arc::clone(&vcs));
    }
    sites.into_iter().map(Arc::new).collect()
}

impl Site {
    /// Fresh standalone site on the default configuration.
    pub fn new(id: SiteId) -> Self {
        Self::with_config(id, DbConfig::default())
    }

    /// Fresh standalone site on `config`: its lock-wait timeout breaks
    /// distributed deadlocks (no site's waits-for graph sees them), and
    /// its clock stamps in-doubt ages and bounds visibility waits.
    pub fn with_config(id: SiteId, config: DbConfig) -> Self {
        let vc = Arc::new(VersionControl::for_site(SITE_BITS, id.0));
        Site {
            id,
            ctx: CcContext::with_parts(config, Arc::new(MvStore::new()), Arc::clone(&vc)),
            tpl: TwoPhaseLocking::new(),
            vc,
            in_doubt: Mutex::new(HashMap::new()),
        }
    }

    /// This site's id.
    pub fn id(&self) -> SiteId {
        self.id
    }

    /// The site's version control; its numbers are encoded [`Gtn`]s.
    pub fn vc(&self) -> &VersionControl {
        &self.vc
    }

    /// The site's engine context: its store, counters and GC registry.
    pub fn ctx(&self) -> &CcContext {
        &self.ctx
    }

    /// Storage statistics.
    pub fn store_stats(&self) -> StoreStats {
        self.ctx.store.stats()
    }

    /// `begin(T)` here: the 2PL state the coordinator keeps until
    /// [`prepare`](Self::prepare).
    pub fn begin(&self) -> Result<TplTxn, DbError> {
        self.tpl.begin(&self.ctx)
    }

    /// `read(x)` under a shared lock: the newest committed version, or
    /// the transaction's own write (numbered `u64::MAX`).
    pub fn rw_read(&self, txn: &mut TplTxn, obj: ObjectId) -> Result<(u64, Value), DbError> {
        self.tpl.read(&self.ctx, txn, obj)
    }

    /// `write(x)`: the exclusive lock, and `value` buffered in `txn`.
    pub fn rw_write(&self, txn: &mut TplTxn, obj: ObjectId, value: Value) -> Result<(), DbError> {
        self.tpl.write(&self.ctx, txn, obj, value)
    }

    /// Phase 1: `txn` is past its lock point; register its proposal and
    /// keep it in doubt under the coordinator's `token`. On `Err` its
    /// locks are released.
    pub fn prepare(&self, token: u64, txn: TplTxn) -> Result<Gtn, DbError> {
        let tn = Gtn(self.tpl.prepare(&self.ctx, &txn)?);
        let since = self.ctx.config.clock.now();
        self.in_doubt
            .lock()
            .insert(token, Prepared { tn, txn, since });
        Ok(tn)
    }

    /// Phase 2: finish the prepared transaction with the final global
    /// number. **Idempotent**: only the delivery that removes the in-doubt
    /// record applies; a duplicate (or one arriving after peer-query
    /// resolution) is a no-op.
    pub fn commit(&self, token: u64, fin: Gtn) -> Result<(), DbError> {
        self.resolve_commit(token, fin).map(drop)
    }

    /// Abort a transaction that never prepared here: release its locks.
    pub fn rollback(&self, txn: TplTxn) {
        self.tpl.abort(&self.ctx, txn);
    }

    /// Tokens of prepared transactions still awaiting a decision, with
    /// how long each has been in doubt.
    pub fn in_doubt_tokens(&self) -> Vec<(u64, Duration)> {
        let now = self.ctx.config.clock.now();
        let in_doubt = self.in_doubt.lock();
        in_doubt
            .iter()
            .map(|(&t, e)| (t, now.saturating_duration_since(e.since)))
            .collect()
    }

    /// Number of in-doubt transactions.
    pub fn in_doubt_len(&self) -> usize {
        self.in_doubt.lock().len()
    }

    /// Resolve an in-doubt transaction as committed with final number
    /// `fin` (learned from the coordinator's decision log). `false` if
    /// the token is no longer in doubt.
    pub fn resolve_commit(&self, token: u64, fin: Gtn) -> Result<bool, DbError> {
        let Some(e) = self.in_doubt.lock().remove(&token) else {
            return Ok(false);
        };
        self.tpl.finish(&self.ctx, e.tn.0, fin.0, e.txn)?;
        Ok(true)
    }

    /// Resolve an in-doubt transaction as aborted: the decision log says
    /// so, or presumed abort (the coordinator logs its decision *before*
    /// any phase-2 message). `false` if the token is no longer in doubt.
    pub fn resolve_abort(&self, token: u64) -> bool {
        let Some(e) = self.in_doubt.lock().remove(&token) else {
            return false;
        };
        self.tpl.abort(&self.ctx, e.txn);
        self.ctx.discard(e.tn.0);
        true
    }

    /// Simulate a crash: locks and in-doubt records with their writes
    /// vanish; committed versions survive. Prepared state is volatile
    /// (DESIGN.md §8), so a crash is faithful only where no 2PC involving
    /// this site is in flight.
    pub fn crash(&self) {
        self.in_doubt.lock().clear();
        self.tpl.lock_manager().clear_all();
    }

    /// Recover after a [`crash`](Self::crash): resume version control at
    /// the largest committed version number in the store, and return it.
    pub fn recover(&self) -> Gtn {
        let store = &self.ctx.store;
        let latest = store
            .objects()
            .into_iter()
            .map(|o| store.with(o, |c| c.latest().number));
        let watermark = latest.max().unwrap_or(0);
        self.vc.resume(watermark);
        Gtn(watermark)
    }

    /// `VCstart` at this site.
    pub fn ro_start(&self) -> Gtn {
        Gtn(self.vc.start())
    }

    /// Snapshot read at a global start number. Never blocks.
    pub fn ro_read(&self, obj: ObjectId, sn: Gtn) -> Result<(u64, Value), DbError> {
        let sn = sn.0;
        let got = self.ctx.store.read_at(obj, sn);
        got.ok_or(DbError::VersionPruned { obj, sn })
    }

    /// Wait until this site's visibility covers `sn` (lazy contact in a
    /// distributed read-only transaction).
    pub fn ro_catch_up(&self, sn: Gtn, timeout: Duration) -> Result<Gtn, DbError> {
        let visible = self.vc.wait_visible(sn.0, timeout).map(Gtn);
        visible.ok_or(DbError::Aborted(AbortReason::WaitTimeout))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obj(n: u64) -> ObjectId {
        ObjectId(n)
    }

    /// Begin at `s` and write `x := v`: the participant state the
    /// coordinator would hand to `prepare`.
    fn write(s: &Site, x: ObjectId, v: u64) -> TplTxn {
        let mut txn = s.begin().unwrap();
        s.rw_write(&mut txn, x, Value::from_u64(v)).unwrap();
        txn
    }

    #[test]
    fn single_site_rw_lifecycle() {
        let s = Site::new(SiteId(1));
        let p = s.prepare(7, write(&s, obj(0), 5)).unwrap();
        s.commit(7, p).unwrap();
        assert_eq!(Gtn(s.vc().vtnc()), p);
        assert_eq!(s.in_doubt_len(), 0);
        let (n, v) = s.ro_read(obj(0), s.ro_start()).unwrap();
        assert_eq!(n, p.encoded());
        assert_eq!(v.as_u64(), Some(5));
    }

    #[test]
    fn rollback_leaves_clean_state() {
        let s = Site::new(SiteId(1));
        let _p = s.prepare(7, write(&s, obj(0), 5)).unwrap();
        assert!(s.resolve_abort(7));
        assert_eq!(s.ro_read(obj(0), s.ro_start()).unwrap().0, 0);
        // locks free again
        s.rollback(write(&s, obj(0), 6));
    }

    #[test]
    fn ro_read_ignores_in_doubt_commit() {
        // Version installed with a final number, but the
        // site's vtnc has not advanced past an older in-doubt proposal:
        // the RO snapshot (taken at vtnc) must not include it.
        let s = Site::new(SiteId(1));
        let _blocker = s.prepare(98, s.begin().unwrap()).unwrap(); // older in-doubt proposal
        let p = s.prepare(99, write(&s, obj(0), 9)).unwrap();
        s.commit(99, p).unwrap();
        let sn = s.ro_start();
        assert_eq!(sn, Gtn::ZERO, "in-doubt blocker must pin visibility");
        assert_eq!(s.ro_read(obj(0), sn).unwrap().0, 0);
    }

    #[test]
    fn catch_up_immediate_when_visible() {
        let s = Site::new(SiteId(1));
        let p = s.prepare(1, s.begin().unwrap()).unwrap();
        s.commit(1, p).unwrap();
        assert_eq!(s.ro_catch_up(p, Duration::from_millis(5)).unwrap(), p);
    }

    #[test]
    fn duplicate_commit_delivery_is_a_no_op() {
        let s = Site::new(SiteId(1));
        let p = s.prepare(7, write(&s, obj(0), 5)).unwrap();
        s.commit(7, p).unwrap();
        // the duplicate must not re-promote or double-complete
        s.commit(7, p).unwrap();
        assert_eq!(Gtn(s.vc().vtnc()), p);
        assert_eq!(s.ctx().metrics.snapshot().vc_complete_calls, 1);
    }

    #[test]
    fn resolve_commit_finishes_in_doubt_txn() {
        let s = Site::new(SiteId(1));
        let p = s.prepare(7, write(&s, obj(0), 5)).unwrap();
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
        let _p = s.prepare(7, write(&s, obj(0), 5)).unwrap();
        assert_eq!(s.in_doubt_len(), 1);
        assert!(s.resolve_abort(7));
        assert_eq!(s.in_doubt_len(), 0);
        // buffered write dropped, visibility unpinned, locks released
        assert_eq!(s.ro_read(obj(0), s.ro_start()).unwrap().0, 0);
        s.rollback(write(&s, obj(0), 6));
    }

    #[test]
    fn crash_recover_rebuilds_watermark_from_store() {
        let s = Site::new(SiteId(1));
        let p1 = s.prepare(1, write(&s, obj(0), 5)).unwrap();
        s.commit(1, p1).unwrap();
        // a second txn crashes the site while prepared
        let _p2 = s.prepare(2, write(&s, obj(1), 9)).unwrap();
        s.crash();
        assert_eq!(s.in_doubt_len(), 0);
        let watermark = s.recover();
        assert_eq!(watermark, p1, "watermark = largest committed version");
        assert_eq!(Gtn(s.vc().vtnc()), p1);
        s.vc().validate().unwrap();
        // the crashed txn's buffered write is gone; its lock is free
        assert_eq!(s.ro_read(obj(1), s.ro_start()).unwrap().0, 0);
        let p3 = s.prepare(3, write(&s, obj(1), 7)).unwrap();
        s.commit(3, p3).unwrap();
        assert!(
            Gtn(s.vc().vtnc()) > watermark,
            "visibility advances past recovery"
        );
    }
}
