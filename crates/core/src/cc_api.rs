//! The uniform concurrency-control interface (the paper's central
//! abstraction).
//!
//! A [`ConcurrencyControl`] implementation owns *only* conflict
//! bookkeeping for read-write transactions — locks, timestamps, or
//! validation state. Version control, the commit log and version
//! installation belong to the engine. A protocol reaches them through
//! three calls on [`CcContext`], and through nothing else:
//!
//! | call | paper | when the protocol makes it |
//! |---|---|---|
//! | [`register`](CcContext::register) | `VCregister(T)` | exactly once, when the serial position is fixed: at `begin` for timestamp ordering, at the lock point (`commit` entry) for two-phase locking, inside validation for optimistic schemes |
//! | [`end`](CcContext::end) | `end(T)` | at commit, with the registered number |
//! | [`discard`](CcContext::discard) | abort + `VCdiscard(T)` | on abort |
//!
//! `end(T)` is written once, in [`CcContext::end`], for every protocol:
//! claim the version-control entry, append the commit record to the log,
//! install every write as a committed version numbered `tn(T)` (so
//! version order equals transaction-number order), let the protocol
//! release what it holds, then `VCcomplete(T)`. A transaction's writes
//! travel in a [`WriteSet`], buffered there until `end` installs them:
//! no protocol stages an uncommitted version in the store, so the store
//! holds committed versions only and read-only reads and garbage
//! collection never touch protocol state.
//!
//! The protocol never sees read-only transactions at all.

use crate::config::DbConfig;
use crate::durability::CommitLog;
use crate::error::{AbortReason, DbError};
use crate::fault::FaultInjector;
use crate::metrics::Metrics;
use crate::obs::{EventKind, Obs, VcView};
use crate::txn::TxnOptions;
use crate::vc::VersionControl;
use mvcc_model::ObjectId;
use mvcc_storage::{MvStore, RoScanRegistry, Value};
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// A read-write transaction's writes: the last value per object, in
/// first-write order, held here until [`CcContext::end`] logs and
/// installs them. Whatever a protocol must publish before commit to make
/// other transactions wait — locks, timestamp ordering's reservations —
/// it keeps in its own tables, so an abort has nothing in the store to
/// undo.
#[derive(Default)]
pub struct WriteSet {
    writes: Vec<(ObjectId, Value)>,
}

impl WriteSet {
    /// An empty write set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record `value` as the write of `obj`, replacing an earlier one.
    pub fn put(&mut self, obj: ObjectId, value: Value) {
        match self.writes.iter_mut().find(|(o, _)| *o == obj) {
            Some(slot) => slot.1 = value,
            None => self.writes.push((obj, value)),
        }
    }

    /// This transaction's write of `obj`, if any.
    pub fn get(&self, obj: ObjectId) -> Option<&Value> {
        self.writes.iter().find(|(o, _)| *o == obj).map(|(_, v)| v)
    }

    /// The writes, in first-write order.
    pub fn as_slice(&self) -> &[(ObjectId, Value)] {
        &self.writes
    }
}

/// Everything a protocol needs from the engine: storage, configuration,
/// counters, and the version-control seam.
#[derive(Clone)]
pub struct CcContext {
    /// The multiversion store. Protocols only read it; versions are
    /// installed only by [`end`](Self::end).
    pub store: Arc<MvStore>,
    /// The version-control module (Figure 1), reached by protocols only
    /// through [`register`](Self::register), [`end`](Self::end) and
    /// [`discard`](Self::discard).
    pub(crate) vc: Arc<VersionControl>,
    /// Engine configuration.
    pub config: Arc<DbConfig>,
    /// Shared counters.
    pub metrics: Arc<Metrics>,
    /// Fault injection (disabled unless configured).
    pub faults: Arc<FaultInjector>,
    /// The write-ahead log, if this engine is durable
    /// (see [`crate::MvDatabase::with_wal`]). `None` costs nothing on
    /// the commit path.
    pub(crate) wal: Option<Arc<CommitLog>>,
    /// Observability hub (events, phase latencies, flight recorder).
    /// Shared with version control; disabled unless configured.
    pub obs: Arc<Obs>,
    /// The snapshots garbage collection must not break (read-only
    /// transactions and checkpoints) and the published GC floor.
    pub(crate) readers: Arc<RoScanRegistry>,
}

/// An install that would leave a chain holding more than
/// `max(INSTALL_BOUND, gc_keep_versions + 1)` versions rescans the GC
/// floor first, once per commit: the two newest versions sit inline in
/// the chain's store slot, and a third would start a heap history.
const INSTALL_BOUND: usize = 2;

impl CcContext {
    /// Build a context with fresh storage, version control and metrics.
    pub fn new(config: DbConfig) -> Self {
        Self::with_parts(
            config.clone(),
            Arc::new(MvStore::with_shards(config.store_shards)),
            Arc::new(VersionControl::from_config(&config)),
        )
    }

    /// Build a context around existing storage and version control
    /// (checkpoint restore).
    pub fn with_parts(config: DbConfig, store: Arc<MvStore>, vc: Arc<VersionControl>) -> Self {
        vc.set_register_ttl(config.register_ttl);
        vc.attach_clock(config.clock.clone());
        // With an injected shared stream, fault coins come from the
        // simulation seed; otherwise from the fault config's own seed.
        let faults = Arc::new(match &config.rng {
            Some(rng) => FaultInjector::with_rng(config.fault.clone(), Arc::clone(rng)),
            None => FaultInjector::new(config.fault.clone()),
        });
        // First attachment wins; share whichever hub the instance ends up
        // with so `ctx.obs` and the version-control emitter agree. The
        // injected rng (if any) drives sampling decisions, which is what
        // keeps simulated traces byte-stable per seed.
        let obs = vc.attach_obs(Arc::new(Obs::with_parts(
            &config.obs,
            config.clock.clone(),
            config.rng.clone(),
        )));
        CcContext {
            store,
            vc,
            config: Arc::new(config),
            metrics: Arc::new(Metrics::new()),
            faults,
            wal: None,
            obs,
            readers: Arc::new(RoScanRegistry::new()),
        }
    }

    /// `VCregister(T)`: assign the transaction its number and enqueue it.
    /// Call exactly once per transaction, at the moment its serial
    /// position is fixed; numbers increase in the real-time order of the
    /// calls, so a transaction registered after its conflicts is ordered
    /// after them.
    pub fn register(&self) -> u64 {
        let tn = self.vc.register();
        self.metrics
            .local()
            .vc_register_calls
            .fetch_add(1, Ordering::Relaxed);
        tn
    }

    /// `end(T)` for the transaction registered as `tn`, the same for every
    /// protocol (paper Figures 3 and 4: "perform database updates with
    /// version number tn(T); clear locks; VCcomplete(T)"):
    ///
    /// 1. claim the entry, which fences it against the stall reaper (§8
    ///    of DESIGN.md); an entry the reaper already discarded aborts with
    ///    [`AbortReason::Reaped`];
    /// 2. append the commit record to the log, if one is attached, before
    ///    anything is applied (write-before-visible, see
    ///    [`crate::durability`]); a failed append aborts with
    ///    [`AbortReason::LogFailed`];
    /// 3. install each write as a committed version numbered `tn`, first
    ///    pruning its chain against the published GC floor (rescanned at
    ///    most once per commit, when a chain would outgrow its inline
    ///    pair); the floor is at most `vtnc`, below `tn`, and no live
    ///    reader's start number, so no version a reader or an active
    ///    transaction can select is pruned;
    /// 4. `release()`: the protocol frees what it holds (locks, its
    ///    validation section, its reservations), so whoever it wakes
    ///    finds the versions already installed;
    /// 5. `VCcomplete(tn)`.
    ///
    /// On `Err` nothing became visible: `release` has run, and the entry
    /// is discarded (unless the reaper already did). `release` runs
    /// exactly once on every path, so the caller's only remaining duty is
    /// to return the error.
    pub fn end(&self, tn: u64, writes: &WriteSet, release: impl FnOnce()) -> Result<u64, DbError> {
        if !self.vc.start_complete(tn) {
            release();
            return Err(DbError::Aborted(AbortReason::Reaped));
        }
        if let Err(e) = self
            .log(tn, writes.as_slice())
            .and_then(|()| self.install(tn, writes))
        {
            release();
            self.discard(tn);
            return Err(e);
        }
        release();
        self.vc.complete(tn);
        self.metrics
            .local()
            .vc_complete_calls
            .fetch_add(1, Ordering::Relaxed);
        Ok(tn)
    }

    /// Abort of a transaction registered as `tn`: `VCdiscard(tn)`. Its
    /// buffered writes never reached the store, so nothing else is
    /// undone; the protocol releases its own resources after this
    /// returns.
    pub fn discard(&self, tn: u64) {
        self.vc.discard(tn);
        self.metrics
            .local()
            .vc_discard_calls
            .fetch_add(1, Ordering::Relaxed);
    }

    /// `vtnc`, one atomic load. Every transaction numbered at or below it
    /// has finished; timestamp ordering prunes the `r-ts` entries at or
    /// below it.
    pub fn vtnc(&self) -> u64 {
        self.vc.vtnc()
    }

    /// One-shot snapshot of version-control state, for flight-recorder
    /// dumps.
    pub fn vc_view(&self) -> VcView {
        self.vc.view()
    }

    /// Announce a reader (a read-only transaction or a checkpoint) to
    /// garbage collection, then `VCstart`: returns its announcement slot
    /// and its start number.
    pub(crate) fn announce(&self) -> (usize, u64) {
        self.readers.announce(|| self.vc.start())
    }

    /// Raise the published GC floor to `min(vtnc, oldest announced start
    /// number)` and return it.
    pub(crate) fn publish_floor(&self) -> u64 {
        self.readers.publish(|| self.vc.start())
    }

    /// Make every write a committed version numbered `tn`, pruning each
    /// chain against the GC floor first. Everything here runs under the
    /// object's shard lock and touches only atomics besides the chain.
    fn install(&self, tn: u64, writes: &WriteSet) -> Result<(), DbError> {
        let keep = self.config.gc_keep_versions;
        let mut floor = self.readers.floor();
        let mut rescanned = false;
        let mut pruned = 0;
        for (obj, value) in writes.as_slice() {
            self.store
                .with(*obj, |c| {
                    pruned += c.prune_keep_recent(floor, keep);
                    if !rescanned && c.committed_len() >= INSTALL_BOUND.max(keep + 1) {
                        rescanned = true;
                        floor = self.publish_floor();
                        pruned += c.prune_keep_recent(floor, keep);
                    }
                    c.insert_committed(tn, value.clone())
                })
                // Unreachable while the protocol is correct: `tn` is fresh.
                .map_err(|e| DbError::Internal(format!("installing tn {tn}: {e}")))?;
        }
        if pruned != 0 {
            self.metrics
                .local()
                .gc_install_pruned
                .fetch_add(pruned as u64, Ordering::Relaxed);
        }
        Ok(())
    }

    /// Append `tn`'s writeset to the write-ahead log, if one is attached.
    fn log(&self, tn: u64, writes: &[(ObjectId, Value)]) -> Result<(), DbError> {
        let Some(wal) = &self.wal else {
            return Ok(());
        };
        // Sampled phase timer (the per-kind counter stays exact) plus a
        // trace leaf when the committing thread is being traced.
        let timer = self.obs.phase_timer(EventKind::WalAppend);
        let span = crate::obs::trace::leaf("wal_append");
        let res = wal
            .append(tn, writes)
            .map_err(|_| DbError::Aborted(AbortReason::LogFailed));
        if let Some(started) = timer {
            self.obs.phases().wal_append.record(self.obs.since(started));
            if let Ok(info) = &res {
                self.obs
                    .publish(EventKind::WalAppend, tn, info.bytes as u64);
            }
        }
        if let Some(mut span) = span {
            span.attr("tn", tn);
            if let Ok(info) = &res {
                span.attr("bytes", info.bytes as u64);
            }
            span.finish();
        }
        res.map(|_| ())
    }
}

/// A conflict-based concurrency-control protocol for read-write
/// transactions.
///
/// Implementations in `mvcc-cc`: strict two-phase locking (Figure 4),
/// timestamp ordering (Figure 3), and backward-validation optimistic
/// concurrency control (references \[1, 2\] of the paper).
///
/// Version control is out of a protocol's reach except through the
/// [`CcContext`] seam:
///
/// ```compile_fail
/// fn bypass(ctx: &mvcc_core::CcContext) -> u64 {
///     ctx.vc.register()
/// }
/// ```
pub trait ConcurrencyControl: Send + Sync + 'static {
    /// Per-transaction protocol state (lock set, read/write sets, …).
    type Txn: Send;

    /// Protocol name for reports.
    fn name(&self) -> &'static str;

    /// `begin(T)` for a read-write transaction. Timestamp ordering
    /// registers with version control here.
    fn begin(&self, ctx: &CcContext) -> Result<Self::Txn, DbError>;

    /// `begin(T)` with per-transaction options (deadline, trace).
    /// Protocols with blocking points override this to capture the
    /// deadline and bound every wait by the remaining budget; the default
    /// ignores the options (correct for protocols that never block, like
    /// OCC — the engine still enforces the deadline at operation entry).
    fn begin_with(&self, ctx: &CcContext, _opts: &TxnOptions) -> Result<Self::Txn, DbError> {
        self.begin(ctx)
    }

    /// `read(x)`: perform the protocol's synchronization and return the
    /// version read `(version number, value)`. May block (lock wait,
    /// pending-write wait). On `Err`, the transaction is doomed but the
    /// implementation must **not** release its resources yet — the engine
    /// follows up with [`abort`](Self::abort). If the transaction
    /// previously wrote `x`, its own write is returned with its reserved
    /// number (or `u64::MAX` when the number is not yet known, under 2PL
    /// and OCC — such reads never enter the oracle trace).
    fn read(
        &self,
        ctx: &CcContext,
        txn: &mut Self::Txn,
        obj: ObjectId,
    ) -> Result<(u64, Value), DbError>;

    /// `read(x)` with *update intent*: protocols that lock may acquire
    /// the exclusive lock up front, avoiding the classic shared→exclusive
    /// upgrade deadlock of read-modify-write transactions. Semantics are
    /// otherwise identical to [`read`](Self::read); the default simply
    /// delegates.
    fn read_for_update(
        &self,
        ctx: &CcContext,
        txn: &mut Self::Txn,
        obj: ObjectId,
    ) -> Result<(u64, Value), DbError> {
        self.read(ctx, txn, obj)
    }

    /// `write(x)`: perform the protocol's synchronization (a lock, a
    /// reservation) and record the new value in the transaction's
    /// [`WriteSet`]; nothing reaches the store before `end`. The same
    /// `Err` contract as [`read`](Self::read) applies.
    fn write(
        &self,
        ctx: &CcContext,
        txn: &mut Self::Txn,
        obj: ObjectId,
        value: Value,
    ) -> Result<(), DbError>;

    /// `end(T)` + `commit(T)`: fix the serial order if not yet fixed
    /// (2PL/OCC register here), then hand the write set to
    /// [`CcContext::end`]. Returns the transaction number.
    ///
    /// On `Err`, the implementation must have fully cleaned up (as if
    /// [`abort`](Self::abort) ran).
    fn commit(&self, ctx: &CcContext, txn: Self::Txn) -> Result<u64, DbError>;

    /// `abort(T)`: [`CcContext::discard`] the registration, if any, then
    /// release protocol resources.
    fn abort(&self, ctx: &CcContext, txn: Self::Txn);

    // ---- observability hooks (all optional) ------------------------------

    /// A stable id for `txn`'s lifecycle events: whatever the protocol
    /// uses to identify the transaction internally (lock token under 2PL,
    /// transaction number under TO). `0` when the protocol has none.
    fn txn_obs_id(&self, _txn: &Self::Txn) -> u64 {
        0
    }

    /// Snapshot of the waits-for graph as `(waiter, holders)` edges, for
    /// protocols that maintain one (2PL with deadlock detection). `None`
    /// when the protocol has no such graph.
    fn waits_for_snapshot(&self) -> Option<Vec<(u64, Vec<u64>)>> {
        None
    }

    /// Protocol-specific gauges (e.g. locked objects, occupied lock
    /// shards), read by
    /// [`MvDatabase::sample_gauges`](crate::MvDatabase::sample_gauges).
    fn gauges(&self) -> Vec<(&'static str, u64)> {
        Vec::new()
    }
}

/// The smallest protocol that plugs into the seam, for the engine's own
/// single-threaded tests (the real protocols live in `mvcc-cc`, which
/// depends on this crate).
#[cfg(test)]
pub(crate) mod testing {
    use super::{CcContext, ConcurrencyControl, WriteSet};
    use crate::error::DbError;
    use mvcc_model::ObjectId;
    use mvcc_storage::Value;

    /// Registers at begin, reads the latest committed version, buffers
    /// writes. Correct only without concurrency.
    pub(crate) struct SerialCc;

    pub(crate) struct SerialTxn {
        tn: u64,
        writes: WriteSet,
    }

    impl ConcurrencyControl for SerialCc {
        type Txn = SerialTxn;

        fn name(&self) -> &'static str {
            "serial"
        }

        fn begin(&self, ctx: &CcContext) -> Result<SerialTxn, DbError> {
            Ok(SerialTxn {
                tn: ctx.register(),
                writes: WriteSet::new(),
            })
        }

        fn read(
            &self,
            ctx: &CcContext,
            txn: &mut SerialTxn,
            obj: ObjectId,
        ) -> Result<(u64, Value), DbError> {
            match txn.writes.get(obj) {
                Some(v) => Ok((u64::MAX, v.clone())),
                None => Ok(ctx.store.read_latest(obj)),
            }
        }

        fn write(
            &self,
            _ctx: &CcContext,
            txn: &mut SerialTxn,
            obj: ObjectId,
            value: Value,
        ) -> Result<(), DbError> {
            txn.writes.put(obj, value);
            Ok(())
        }

        fn commit(&self, ctx: &CcContext, txn: SerialTxn) -> Result<u64, DbError> {
            ctx.end(txn.tn, &txn.writes, || ())
        }

        fn abort(&self, ctx: &CcContext, txn: SerialTxn) {
            ctx.discard(txn.tn);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::SimClock;
    use crate::fault::{FaultConfig, FaultyFile};
    use mvcc_storage::wal::{FsyncPolicy, MemWal, WalWriter};
    use std::cell::Cell;
    use std::time::Duration;

    fn obj(n: u64) -> ObjectId {
        ObjectId(n)
    }

    fn v(n: u64) -> Value {
        Value::from_u64(n)
    }

    /// A context whose every log append fails, as on a full disk.
    fn full_disk_ctx() -> CcContext {
        let mut ctx = CcContext::new(DbConfig::default().with_fault(FaultConfig {
            wal_disk_full: 1.0,
            ..Default::default()
        }));
        let (sink, arm) = FaultyFile::gated(MemWal::new(), Arc::clone(&ctx.faults));
        let writer = WalWriter::create(Box::new(sink), FsyncPolicy::Always).unwrap();
        arm.store(true, Ordering::Relaxed);
        ctx.wal = Some(Arc::new(CommitLog::new(writer, Arc::clone(&ctx.metrics))));
        ctx
    }

    /// `register == complete + discard`, and each call counted once.
    fn assert_counts(ctx: &CcContext, register: u64, complete: u64, discard: u64) {
        let m = ctx.metrics.snapshot();
        assert_eq!(
            (m.vc_register_calls, m.vc_complete_calls, m.vc_discard_calls),
            (register, complete, discard)
        );
    }

    #[test]
    fn write_set_keeps_last_value_in_first_write_order() {
        let mut ws = WriteSet::new();
        ws.put(obj(2), v(1));
        ws.put(obj(1), v(2));
        ws.put(obj(2), v(3));
        assert_eq!(ws.as_slice(), &[(obj(2), v(3)), (obj(1), v(2))]);
        assert_eq!(ws.get(obj(2)), Some(&v(3)));
        assert_eq!(ws.get(obj(3)), None);
    }

    #[test]
    fn end_inserts_buffered_writes_then_completes() {
        let ctx = CcContext::new(DbConfig::default());
        let tn = ctx.register();
        let mut ws = WriteSet::new();
        ws.put(obj(0), v(7));
        ws.put(obj(1), v(8));
        let released = Cell::new(0);
        // Release comes after the versions are installed, before
        // VCcomplete makes them visible.
        let res = ctx.end(tn, &ws, || {
            assert_eq!(ctx.store.read_latest(obj(1)), (tn, v(8)));
            assert_eq!(ctx.vc.vtnc(), 0);
            released.set(released.get() + 1);
        });
        assert_eq!(res, Ok(tn));
        assert_eq!(released.get(), 1);
        assert_eq!(ctx.store.read_latest(obj(0)), (tn, v(7)));
        assert_eq!(ctx.vtnc(), tn);
        assert_counts(&ctx, 1, 1, 0);
    }

    #[test]
    fn failed_log_releases_and_discards() {
        let ctx = full_disk_ctx();
        let mut ws = WriteSet::new();
        ws.put(obj(0), v(1));
        let tn = ctx.register();
        let released = Cell::new(0);
        let res = ctx.end(tn, &ws, || released.set(released.get() + 1));
        assert_eq!(res, Err(DbError::Aborted(AbortReason::LogFailed)));
        assert_eq!(released.get(), 1);
        assert_eq!(ctx.store.read_latest(obj(0)).0, 0);
        assert_eq!(ctx.store.stats().objects, 0);
        // The claimed entry is gone: a later commit becomes visible.
        assert_eq!(ctx.vc.queue_len(), 0);
        assert_counts(&ctx, 1, 0, 1);
    }

    #[test]
    fn reaped_entry_aborts_without_a_second_discard() {
        let clock = SimClock::new();
        let ctx = CcContext::new(
            DbConfig::default()
                .with_clock(clock.clone())
                .with_register_ttl(Duration::from_millis(1)),
        );
        let mut ws = WriteSet::new();
        ws.put(obj(0), v(1));
        let tn = ctx.register();
        clock.advance(Duration::from_millis(5));
        assert_eq!(ctx.vc.reap(), vec![tn]);
        let released = Cell::new(0);
        let res = ctx.end(tn, &ws, || released.set(released.get() + 1));
        assert_eq!(res, Err(DbError::Aborted(AbortReason::Reaped)));
        assert_eq!(released.get(), 1);
        assert_eq!(ctx.store.read_latest(obj(0)).0, 0);
        assert_counts(&ctx, 1, 0, 0);
    }

    #[test]
    fn discard_drops_the_registration() {
        let ctx = CcContext::new(DbConfig::default());
        let tn = ctx.register();
        ctx.discard(tn);
        assert_eq!(ctx.vc.queue_len(), 0);
        assert_counts(&ctx, 1, 0, 1);
    }
}
