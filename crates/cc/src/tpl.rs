//! Version control + strict two-phase locking (paper Figure 4).
//!
//! The protocol of Figure 4, action for action:
//!
//! * `begin(T)` — `sn(T) = ∞` "for uniformity": a read-write transaction
//!   always reads the latest version.
//! * `read(x)` — `r-lock(x)` (may wait), then read the largest version,
//!   which the lock guarantees is the latest committed one.
//! * `write(y)` — `w-lock(y)` (may wait), then create `y` with
//!   **version φ**: a version with no number, because the transaction has
//!   no number before its lock point. Nobody but its writer can see it —
//!   the X lock keeps every read-write reader out, and a read-only
//!   reader never selects an uncommitted version — so φ is simply the
//!   transaction's buffered write, as in OCC's read phase; nothing is
//!   staged in the store. A read of `y` by its writer returns it.
//! * `end(T)` — `VCregister(T)` *at the lock point* (all locks held, none
//!   released), then commit: insert every buffered write as a committed
//!   version numbered `tn(T)` while its X lock is still held, clear
//!   locks, `VCcomplete(T)`. Locks are released only after the insert,
//!   so version order on every object is `tn` order.
//!
//! The paper's observation that "the version control mechanism is not
//! affected by deadlocks … since the transactions that interact with the
//! version control have gone past their lock-point" holds structurally
//! here: `VCregister` is only reached once every lock is held, so a
//! registered transaction can never be waiting.

use crate::lock::{LockError, LockManager, LockMode};
use mvcc_core::obs::event::{thread_ordinal, Striped, STRIPES};
use mvcc_core::{
    AbortReason, CcContext, ConcurrencyControl, DbError, Deadline, DumpContext, EventKind,
    FlightTrigger, TxnOptions, TxnPhase, WaitPoint, WriteSet,
};
use mvcc_model::ObjectId;
use mvcc_storage::Value;
use std::sync::atomic::{AtomicU64, Ordering};

/// Strict two-phase locking over the shared [`LockManager`].
pub struct TwoPhaseLocking {
    locks: LockManager,
    /// Tokens handed out per thread group (see [`Self::next_token`]).
    tokens: Striped<AtomicU64>,
}

/// Per-transaction 2PL state.
pub struct TplTxn {
    /// Lock-requester token: the transaction's identity in the lock table
    /// and in observability events (it has no number before `end`).
    token: u64,
    /// Every object this transaction holds a lock on, each once, in
    /// grant order.
    locked: Vec<ObjectId>,
    /// The object this transaction was last granted `Exclusive` on. Its
    /// lock covers any later request on that object (a `write` after a
    /// `read_for_update`), which then skips the lock table.
    last_exclusive: Option<ObjectId>,
    /// Buffered writes (the φ versions), inserted by `end`.
    writes: WriteSet,
    /// Deadline budget, when begun with one: every lock wait is bounded
    /// by the remaining budget, never just the configured timeout.
    deadline: Option<Deadline>,
    /// Contention-attribution samples buffered until the transaction's
    /// locks are gone. Recording a sketch or ledger entry between two
    /// lock acquisitions perturbs the lock-handoff dynamics the layer is
    /// supposed to *observe* (measured as a mode flip from fast
    /// deadlock-retry churn into parked convoys, costing most of the
    /// cell's throughput), so every sample waits here — a txn-private
    /// push — and flushes after `release_all`.
    pending_attr: Vec<AttrSample>,
}

/// One deferred attribution sample from the lock slow path.
struct AttrSample {
    obj: u64,
    shard: u64,
    /// First conflicting holder observed (`0` = unknown).
    blocker: u64,
    /// Nanoseconds blocked (`0` for fail-fast deadlock victims).
    ns: u64,
    /// Whether the encounter killed the transaction.
    abort: bool,
}

impl Default for TwoPhaseLocking {
    fn default() -> Self {
        Self::new()
    }
}

impl TwoPhaseLocking {
    /// Fresh protocol instance with its own lock manager.
    pub fn new() -> Self {
        Self::with_shards(64)
    }

    /// Protocol instance whose lock table has `n` shards (rounded up to a
    /// power of two; `1` reproduces a global-mutex lock manager).
    pub fn with_shards(n: usize) -> Self {
        TwoPhaseLocking {
            locks: LockManager::with_shards(n),
            tokens: Striped::default(),
        }
    }

    /// A fresh lock-requester token, drawn without a shared write: stripe
    /// `s` of the calling thread hands out `s + 1`, `s + 1 + STRIPES`, …
    /// Tokens only need to be unique among this manager's requesters (a
    /// deadlock's victim is the requester that closes the cycle, not the
    /// youngest), and threads that share a stripe share its counter.
    fn next_token(&self) -> u64 {
        let stripe = thread_ordinal() % STRIPES as u64;
        let n = self.tokens.local().fetch_add(1, Ordering::Relaxed);
        n * STRIPES as u64 + stripe + 1
    }

    /// The lock manager (exposed for tests and experiments).
    pub fn lock_manager(&self) -> &LockManager {
        &self.locks
    }

    fn lock(
        &self,
        ctx: &CcContext,
        txn: &mut TplTxn,
        obj: ObjectId,
        mode: LockMode,
    ) -> Result<(), DbError> {
        let m = ctx.metrics.local();
        m.rw_sync_actions.fetch_add(1, Ordering::Relaxed);
        if txn.last_exclusive == Some(obj) {
            return Ok(());
        }
        // A deadline caps the wait at the remaining budget; an already
        // expired budget never reaches the lock table at all.
        let timeout = match txn.deadline {
            Some(d) => {
                if d.expired(&*ctx.config.clock) {
                    return Err(DbError::Aborted(AbortReason::DeadlineExceeded));
                }
                d.bound(&*ctx.config.clock, ctx.config.lock_wait_timeout)
            }
            None => ctx.config.lock_wait_timeout,
        };
        let timer = ctx.obs.timer();
        let attr_on = ctx.obs.attr().is_some();
        if let Some(attr) = ctx.obs.attr() {
            attr.blame().set_phase(txn.token, TxnPhase::LockWait);
        }
        // Speculative trace leaf: finished only when the acquire actually
        // waited, discarded on the uncontended fast path.
        let span = mvcc_core::obs::trace::leaf("lock_wait");
        let res = self.locks.acquire(txn.token, obj, mode, timeout, true);
        if let Some(attr) = ctx.obs.attr() {
            attr.blame().set_phase(txn.token, TxnPhase::Execute);
        }
        match res {
            Ok(a) => {
                if a.waited {
                    m.rw_blocks.fetch_add(1, Ordering::Relaxed);
                    if a.parked {
                        m.rw_parks.fetch_add(1, Ordering::Relaxed);
                    }
                    if let Some(started) = timer {
                        ctx.obs.phases().lock_wait.record(ctx.obs.since(started));
                        ctx.obs.emit(EventKind::LockWait, txn.token, obj.get());
                    }
                    if attr_on {
                        // Deferred: the wait duration comes from the lock
                        // manager's own clocking, the sample flushes after
                        // this transaction's locks are released.
                        txn.pending_attr.push(AttrSample {
                            obj: obj.get(),
                            shard: self.locks.shard_of(obj),
                            blocker: a.blocker,
                            ns: a.waited_ns,
                            abort: false,
                        });
                    }
                    if let Some(mut span) = span {
                        span.attr("object", obj.get());
                        span.finish();
                    }
                }
                if a.waited || a.contended {
                    m.lock_shard_waits.fetch_add(1, Ordering::Relaxed);
                }
                if a.fresh {
                    txn.locked.push(obj);
                }
                if mode == LockMode::Exclusive {
                    txn.last_exclusive = Some(obj);
                }
                Ok(())
            }
            Err(LockError::Deadlock) => {
                // The fatal request never returns with `waited`, so record
                // it explicitly — and unsampled: the victim's timeline
                // must show the lock wait that closed the cycle.
                ctx.obs
                    .emit_always(EventKind::LockWait, txn.token, obj.get());
                if attr_on {
                    txn.pending_attr.push(AttrSample {
                        obj: obj.get(),
                        shard: self.locks.shard_of(obj),
                        blocker: 0,
                        ns: 0,
                        abort: true,
                    });
                }
                if let Some(mut span) = span {
                    span.attr("object", obj.get());
                    span.attr("deadlock", 1);
                    span.finish();
                }
                // Victimization is the flight-recorder moment: capture the
                // waits-for graph as it stood when the cycle closed (the
                // victim's own edges are already cleared by the manager).
                ctx.obs.dump(
                    FlightTrigger::Deadlock,
                    &DumpContext {
                        victim: Some(txn.token),
                        detail: format!(
                            "deadlock: token {} victimized requesting {mode:?} on object {}",
                            txn.token,
                            obj.get()
                        ),
                        waits_for: Some(self.locks.waits_for_snapshot()),
                        vc: Some(ctx.vc_view()),
                        // Joins this post-mortem to the victim's span tree
                        // when the victim is being traced.
                        trace_id: mvcc_core::obs::trace::current_trace_id(),
                    },
                );
                Err(DbError::Aborted(AbortReason::Deadlock))
            }
            Err(LockError::Timeout) => {
                // The full timeout was spent blocked on this key; the
                // blocker is unknown (the request never granted), so the
                // blame lands unattributed but the hot-key charge is real.
                if attr_on {
                    txn.pending_attr.push(AttrSample {
                        obj: obj.get(),
                        shard: self.locks.shard_of(obj),
                        blocker: 0,
                        ns: timeout.as_nanos() as u64,
                        abort: true,
                    });
                }
                // A wait clipped by the deadline (rather than the plain
                // lock timeout) is a deadline miss, not lock contention.
                if txn.deadline.is_some_and(|d| d.expired(&*ctx.config.clock)) {
                    return Err(DbError::Aborted(AbortReason::DeadlineExceeded));
                }
                Err(DbError::Aborted(AbortReason::WaitTimeout))
            }
        }
    }

    /// Flush the deferred attribution samples. Must only run once the
    /// transaction holds no locks — see [`TplTxn::pending_attr`].
    fn flush_attr(&self, ctx: &CcContext, txn: &TplTxn) {
        if txn.pending_attr.is_empty() {
            return;
        }
        let Some(attr) = ctx.obs.attr() else { return };
        for s in &txn.pending_attr {
            attr.topk().record_key(s.obj, s.ns, s.abort);
            attr.topk().record_shard(s.shard, s.ns);
            if s.ns > 0 {
                attr.blame()
                    .record(WaitPoint::LockWait, s.obj, s.blocker, s.ns);
            }
        }
    }

    /// The value `read(obj)` returns once the lock is held: the
    /// transaction's own write (φ, not yet numbered), else the latest
    /// committed version, which the lock keeps latest.
    fn latest(ctx: &CcContext, txn: &TplTxn, obj: ObjectId) -> (u64, Value) {
        match txn.writes.get(obj) {
            Some(v) => (u64::MAX, v.clone()),
            None => ctx.store.read_latest(obj),
        }
    }

    /// Clear locks: release every lock `txn` holds.
    fn release(&self, ctx: &CcContext, txn: &TplTxn) {
        self.locks.release_all(txn.token, txn.locked.iter());
        if let Some(attr) = ctx.obs.attr() {
            attr.blame().clear_phase(txn.token);
        }
    }
}

impl ConcurrencyControl for TwoPhaseLocking {
    type Txn = TplTxn;

    fn name(&self) -> &'static str {
        "2pl"
    }

    fn begin(&self, ctx: &CcContext) -> Result<TplTxn, DbError> {
        // sn(T) = ∞: no snapshot is taken; reads follow locks.
        let token = self.next_token();
        if let Some(attr) = ctx.obs.attr() {
            attr.blame().set_phase(token, TxnPhase::Execute);
        }
        Ok(TplTxn {
            token,
            // Room for a typical lock set in one allocation.
            locked: Vec::with_capacity(8),
            last_exclusive: None,
            writes: WriteSet::new(),
            deadline: None,
            pending_attr: Vec::new(),
        })
    }

    fn begin_with(&self, ctx: &CcContext, opts: &TxnOptions) -> Result<TplTxn, DbError> {
        let mut txn = self.begin(ctx)?;
        txn.deadline = opts
            .deadline
            .map(|budget| Deadline::within(&*ctx.config.clock, budget));
        Ok(txn)
    }

    fn read(
        &self,
        ctx: &CcContext,
        txn: &mut TplTxn,
        obj: ObjectId,
    ) -> Result<(u64, Value), DbError> {
        self.lock(ctx, txn, obj, LockMode::Shared)?;
        Ok(Self::latest(ctx, txn, obj))
    }

    fn read_for_update(
        &self,
        ctx: &CcContext,
        txn: &mut TplTxn,
        obj: ObjectId,
    ) -> Result<(u64, Value), DbError> {
        // Take the exclusive lock immediately: no shared→exclusive
        // upgrade later, hence no upgrade deadlocks on read-modify-write.
        self.lock(ctx, txn, obj, LockMode::Exclusive)?;
        Ok(Self::latest(ctx, txn, obj))
    }

    fn write(
        &self,
        ctx: &CcContext,
        txn: &mut TplTxn,
        obj: ObjectId,
        value: Value,
    ) -> Result<(), DbError> {
        self.lock(ctx, txn, obj, LockMode::Exclusive)?;
        txn.writes.put(obj, value);
        Ok(())
    }

    fn commit(&self, ctx: &CcContext, txn: TplTxn) -> Result<u64, DbError> {
        if let Some(attr) = ctx.obs.attr() {
            attr.blame().set_phase(txn.token, TxnPhase::Commit);
        }
        // end(T): the lock point — every lock is held. Serial order fixed.
        let tn = ctx.register();
        // Insert the φ versions as tn(T) under their X locks, clear
        // locks, VCcomplete(T).
        let res = ctx.end(tn, &txn.writes, || self.release(ctx, &txn));
        // Locks are gone and the outcome is published: the deferred
        // attribution samples can no longer perturb anyone's waits.
        self.flush_attr(ctx, &txn);
        res
    }

    fn abort(&self, ctx: &CcContext, txn: TplTxn) {
        // Never registered (aborts happen before the lock point), so no
        // VCdiscard — exactly the paper's point about deadlocks being
        // invisible to version control. Nothing was staged: the buffered
        // writes just drop.
        self.release(ctx, &txn);
        self.flush_attr(ctx, &txn);
    }

    fn txn_obs_id(&self, txn: &TplTxn) -> u64 {
        txn.token
    }

    fn waits_for_snapshot(&self) -> Option<Vec<(u64, Vec<u64>)>> {
        Some(self.locks.waits_for_snapshot())
    }

    fn gauges(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("locked_objects", self.locks.locked_objects()),
            ("occupied_lock_shards", self.locks.occupied_shards()),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvcc_core::{DbConfig, MvDatabase, RetryPolicy};
    use std::sync::Arc;
    use std::thread;

    fn db() -> MvDatabase<TwoPhaseLocking> {
        MvDatabase::with_config(TwoPhaseLocking::new(), DbConfig::traced())
    }

    fn obj(n: u64) -> ObjectId {
        ObjectId(n)
    }

    #[test]
    fn figure4_lifecycle() {
        let db = db();
        let mut t = db.begin_read_write().unwrap();
        // read(x): r-lock + latest version
        assert_eq!(t.read(obj(0)).unwrap(), Value::empty());
        // write(y): w-lock + version φ
        t.write(obj(1), Value::from_u64(5)).unwrap();
        // pending invisible to a concurrent snapshot
        assert_eq!(db.store().read_latest(obj(1)).0, 0);
        // end(T): register at lock point, stamp with tn, complete
        let tn = t.commit().unwrap();
        assert_eq!(tn, 1);
        assert_eq!(db.store().read_latest(obj(1)), (1, Value::from_u64(5)));
        assert_eq!(db.vc().vtnc(), 1);
    }

    #[test]
    fn read_own_pending_write() {
        let db = db();
        let mut t = db.begin_read_write().unwrap();
        t.write(obj(0), Value::from_u64(9)).unwrap();
        assert_eq!(t.read_u64(obj(0)).unwrap(), Some(9));
        t.commit().unwrap();
    }

    #[test]
    fn abort_discards_pending_and_releases_locks() {
        let db = db();
        let mut t = db.begin_read_write().unwrap();
        t.write(obj(0), Value::from_u64(9)).unwrap();
        t.abort();
        assert_eq!(db.peek_latest(obj(0)), Value::empty());
        // lock is free again
        let mut t2 = db.begin_read_write().unwrap();
        t2.write(obj(0), Value::from_u64(1)).unwrap();
        t2.commit().unwrap();
    }

    #[test]
    fn writer_blocks_writer() {
        let db = Arc::new(db());
        let mut t1 = db.begin_read_write().unwrap();
        t1.write(obj(0), Value::from_u64(1)).unwrap();
        let db2 = Arc::clone(&db);
        let h = thread::spawn(move || {
            let mut t2 = db2.begin_read_write().unwrap();
            t2.write(obj(0), Value::from_u64(2)).unwrap();
            t2.commit().unwrap()
        });
        thread::sleep(std::time::Duration::from_millis(30));
        let tn1 = t1.commit().unwrap();
        let tn2 = h.join().unwrap();
        assert!(tn1 < tn2, "lock-point order must equal tn order");
        assert_eq!(db.peek_latest(obj(0)).as_u64(), Some(2));
    }

    #[test]
    fn deadlock_victim_aborts_and_other_commits() {
        let db = Arc::new(db());
        db.seed(obj(0), Value::from_u64(0));
        db.seed(obj(1), Value::from_u64(0));
        let barrier = Arc::new(std::sync::Barrier::new(2));
        let mut handles = Vec::new();
        for (first, second) in [(obj(0), obj(1)), (obj(1), obj(0))] {
            let db = Arc::clone(&db);
            let barrier = Arc::clone(&barrier);
            handles.push(thread::spawn(move || {
                let mut t = db.begin_read_write().unwrap();
                t.write(first, Value::from_u64(1)).unwrap();
                barrier.wait();
                match t.write(second, Value::from_u64(2)) {
                    Ok(()) => t.commit().map(|_| true),
                    Err(e) => Err(e),
                }
            }));
        }
        let results: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        let oks = results.iter().filter(|r| r.is_ok()).count();
        let deadlocks = results
            .iter()
            .filter(|r| matches!(r, Err(DbError::Aborted(AbortReason::Deadlock))))
            .count();
        assert_eq!(oks, 1, "results: {results:?}");
        assert_eq!(deadlocks, 1, "results: {results:?}");
        assert_eq!(db.metrics().aborts_deadlock, 1);
    }

    #[test]
    fn concurrent_increments_are_serializable() {
        let db = Arc::new(db());
        db.seed(obj(0), Value::from_u64(0));
        let mut handles = Vec::new();
        for i in 0..8u64 {
            let db = Arc::clone(&db);
            handles.push(thread::spawn(move || {
                // Every attempt is a shared→exclusive upgrade on one key,
                // so concurrent attempts deadlock each other. Retried with
                // no pause the victims re-take their shared locks at once
                // and livelock; a jittered exponential back-off, seeded per
                // thread so the threads do not back off in step, lets one
                // upgrade through at a time.
                let policy = RetryPolicy {
                    max_attempts: 100,
                    base_backoff: std::time::Duration::from_micros(20),
                    max_backoff: std::time::Duration::from_millis(2),
                    jitter: 1.0,
                    seed: i + 1,
                };
                let mut done = 0;
                while done < 50 {
                    let r = db.run_rw_with(&policy, |t| {
                        let v = t.read_u64(obj(0))?.unwrap();
                        t.write(obj(0), Value::from_u64(v + 1))
                    });
                    if r.is_ok() {
                        done += 1;
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(db.peek_latest(obj(0)).as_u64(), Some(400));
        let h = db.trace_history().unwrap();
        let report = mvcc_model::mvsg::check_tn_order(&h);
        assert!(
            report.acyclic,
            "2PL trace not 1SR (cycle {:?})",
            report.cycle
        );
    }

    #[test]
    fn wal_records_commit_before_visibility() {
        let mem = mvcc_storage::MemWal::new();
        let db = MvDatabase::with_wal(
            TwoPhaseLocking::new(),
            DbConfig::default(),
            Box::new(mem.clone()),
        )
        .unwrap();
        db.run_rw(1, |t| {
            t.write(obj(0), Value::from_u64(7))?;
            t.write(obj(0), Value::from_u64(8))?; // last write wins
            t.write(obj(1), Value::from_u64(9))
        })
        .unwrap();
        let (records, stats) = mvcc_storage::scan(&mem.bytes()).unwrap();
        assert!(stats.clean_end());
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].tn, 1);
        assert_eq!(
            records[0].writes,
            vec![(obj(0), Value::from_u64(8)), (obj(1), Value::from_u64(9)),]
        );
        // Always policy: the commit is durable, not just appended.
        assert_eq!(mvcc_storage::scan(&mem.durable_bytes()).unwrap().0.len(), 1);
        assert_eq!(db.metrics().wal_appends, 1);
        assert!(db.metrics().wal_syncs >= 1);
    }

    #[test]
    fn wal_disk_full_aborts_cleanly_and_releases_everything() {
        use mvcc_core::FaultConfig;
        let mem = mvcc_storage::MemWal::new();
        let cfg = DbConfig::default().with_fault(FaultConfig {
            wal_disk_full: 1.0,
            ..Default::default()
        });
        let db = MvDatabase::with_wal(TwoPhaseLocking::new(), cfg, Box::new(mem.clone())).unwrap();
        let mut t = db.begin_read_write().unwrap();
        t.write(obj(0), Value::from_u64(1)).unwrap();
        let err = t.commit().unwrap_err();
        assert_eq!(err, DbError::Aborted(AbortReason::LogFailed));
        assert!(!err.is_retryable(), "durability faults must not spin");
        // Nothing became visible, nothing leaked: locks are free, the
        // pending version is gone, and version control shows no commit.
        assert_eq!(db.peek_latest(obj(0)), Value::empty());
        assert_eq!(db.vc().vtnc(), 0);
        assert_eq!(db.metrics().aborts_wal, 1);
        let mut t2 = db.begin_read_write().unwrap();
        t2.write(obj(0), Value::from_u64(2)).unwrap(); // lock acquirable
        assert!(t2.commit().is_err()); // disk still full, but no deadlock
                                       // The log contains only the clean header.
        let (records, stats) = mvcc_storage::scan(&mem.bytes()).unwrap();
        assert!(records.is_empty());
        assert!(stats.clean_end());
    }

    #[test]
    fn ro_txns_ignore_locks_entirely() {
        let db = Arc::new(db());
        db.seed(obj(0), Value::from_u64(7));
        // An RW transaction holds an exclusive lock + pending write...
        let mut t = db.begin_read_write().unwrap();
        t.write(obj(0), Value::from_u64(8)).unwrap();
        // ...but a read-only transaction is neither blocked nor sees it.
        let mut r = db.begin_read_only();
        assert_eq!(r.read_u64(obj(0)).unwrap(), Some(7));
        r.finish();
        t.commit().unwrap();
        let mut r2 = db.begin_read_only();
        assert_eq!(r2.read_u64(obj(0)).unwrap(), Some(8));
    }
}
