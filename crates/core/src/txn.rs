//! Transaction handles.
//!
//! [`RoTxn`] is the paper's Figure 2: one `VCstart()` call at begin, then
//! pure snapshot reads (`largest version ≤ sn`). It is deliberately **not
//! generic over the concurrency-control protocol** — the type system
//! enforces the paper's claim that "the execution of read-only
//! transactions is completely independent of the chosen concurrency
//! control protocol".
//!
//! [`RwTxn`] wraps the protocol's per-transaction state and forwards
//! reads/writes through the [`ConcurrencyControl`] trait.
//!
//! Both handles record a [`TxnTrace`] for the serializability oracle only
//! under [`DbConfig::trace`](crate::DbConfig::trace): otherwise the trace
//! does not exist, and an RO read is exactly Figure 2's — one snapshot
//! read, counted into `ro_reads` once at finish.

use crate::cc_api::{CcContext, ConcurrencyControl};
use crate::clock::Clock;
use crate::db::DbCore;
use crate::error::{AbortReason, DbError};
use crate::obs::trace::{self, AttemptGuard};
use crate::obs::{abort_reason_code, EventKind};
use crate::trace::TxnTrace;
use mvcc_model::ObjectId;
use mvcc_storage::Value;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

/// Per-transaction options accepted by the `begin_*_with` entry points.
#[derive(Debug, Clone, Default)]
pub struct TxnOptions {
    /// Total latency budget for the transaction, including blocking
    /// waits and retries. `None` means unbounded.
    pub deadline: Option<Duration>,
    /// End-to-end trace to join (from
    /// [`MvDatabase::start_trace`](crate::db::MvDatabase::start_trace)).
    /// `None` leaves tracing to the spans-tier sampler.
    pub trace: Option<crate::obs::TraceCtx>,
}

impl TxnOptions {
    /// Give the transaction `budget` of total latency.
    pub fn with_deadline(mut self, budget: Duration) -> Self {
        self.deadline = Some(budget);
        self
    }

    /// Join an explicit end-to-end trace.
    pub fn with_trace(mut self, trace: crate::obs::TraceCtx) -> Self {
        self.trace = Some(trace);
        self
    }
}

/// An absolute deadline, measured on the engine's (possibly simulated)
/// clock. Copyable plain data: protocols stash it in their per-txn state
/// and bound every wait by [`remaining`](Self::remaining).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Deadline {
    at: Instant,
}

impl Deadline {
    /// A deadline `budget` from now on `clock`.
    pub fn within(clock: &dyn Clock, budget: Duration) -> Deadline {
        Deadline {
            at: clock.now() + budget,
        }
    }

    /// A deadline at an explicit instant.
    pub fn at(at: Instant) -> Deadline {
        Deadline { at }
    }

    /// The absolute expiry instant.
    pub fn instant(&self) -> Instant {
        self.at
    }

    /// Budget left on `clock` (zero once expired).
    pub fn remaining(&self, clock: &dyn Clock) -> Duration {
        self.at.saturating_duration_since(clock.now())
    }

    /// Whether the budget is gone.
    pub fn expired(&self, clock: &dyn Clock) -> bool {
        self.remaining(clock).is_zero()
    }

    /// Bound a configured wait `timeout` by the remaining budget: the
    /// effective wait a blocking point may use. Expired deadlines yield
    /// `Duration::ZERO`, which every wait primitive treats as fail-fast.
    pub fn bound(&self, clock: &dyn Clock, timeout: Duration) -> Duration {
        timeout.min(self.remaining(clock))
    }
}

/// Trace ids for transactions that never receive a transaction number
/// (read-only transactions, and read-write transactions aborted before
/// registration) start here; real transaction numbers stay far below.
pub(crate) const ANON_TRACE_BASE: u64 = 1 << 48;

/// A read-only transaction (paper Figure 2).
pub struct RoTxn<'db> {
    core: &'db DbCore,
    sn: u64,
    /// GC-registry slot the begin-time registration landed in.
    gc_slot: usize,
    /// Reads served so far; added to `ro_reads` once, at finish/drop, so
    /// the read path touches no shared counter.
    reads: u64,
    /// Oracle trace, present only when the database records one.
    trace: Option<TxnTrace>,
    finished: bool,
}

impl<'db> RoTxn<'db> {
    pub(crate) fn begin(core: &'db DbCore, sn: u64) -> Self {
        let gc_slot = core.ro_registry.register(sn);
        let m = core.ctx.metrics.local();
        m.ro_begun.fetch_add(1, Ordering::Relaxed);
        m.vc_start_calls.fetch_add(1, Ordering::Relaxed);
        // The single synchronization action of a read-only transaction.
        m.ro_sync_actions.fetch_add(1, Ordering::Relaxed);
        RoTxn {
            core,
            sn,
            gc_slot,
            reads: 0,
            trace: core.new_trace(),
            finished: false,
        }
    }

    /// The start number `sn(T)` (also its `tn(T)` for proof purposes).
    pub fn sn(&self) -> u64 {
        self.sn
    }

    /// `read(x)`: return the value of the version of `x` with the largest
    /// version number `≤ sn(T)`. Never blocks; fails only if garbage
    /// collection pruned the needed version.
    pub fn read(&mut self, obj: ObjectId) -> Result<Value, DbError> {
        Ok(self.read_versioned(obj)?.1)
    }

    /// Like [`read`](Self::read), also returning the version number that
    /// was read (= the creator's transaction number).
    pub fn read_versioned(&mut self, obj: ObjectId) -> Result<(u64, Value), DbError> {
        // Sampled phase timer: the per-kind counter advances on every
        // read, but only surviving samples read the clock and publish.
        let timer = self.core.ctx.obs.phase_timer(EventKind::RoRead);
        let read = self.core.ctx.store.read_at(obj, self.sn);
        if let Some(started) = timer {
            let obs = &self.core.ctx.obs;
            obs.phases().ro_read.record(obs.since(started));
            obs.publish(EventKind::RoRead, obj.0, self.sn);
        }
        match read {
            Some((version, value)) => {
                self.reads += 1;
                if let Some(trace) = &mut self.trace {
                    trace.read(obj, version);
                }
                Ok((version, value))
            }
            None => {
                let m = self.core.ctx.metrics.local();
                m.ro_pruned_reads.fetch_add(1, Ordering::Relaxed);
                Err(DbError::VersionPruned { obj, sn: self.sn })
            }
        }
    }

    /// Read and decode as `u64` (convenience for counters/balances).
    pub fn read_u64(&mut self, obj: ObjectId) -> Result<Option<u64>, DbError> {
        Ok(self.read(obj)?.as_u64())
    }

    /// `end(T)`: deregister from GC bookkeeping and flush the trace.
    /// (The paper's figure shows `φ` — there is nothing to synchronize.)
    pub fn finish(mut self) {
        self.finish_inner();
    }

    fn finish_inner(&mut self) {
        if self.finished {
            return;
        }
        self.finished = true;
        self.core.ro_registry.deregister(self.gc_slot, self.sn);
        let m = self.core.ctx.metrics.local();
        m.ro_reads.fetch_add(self.reads, Ordering::Relaxed);
        m.ro_finished.fetch_add(1, Ordering::Relaxed);
        self.core.flush_trace(self.trace.as_ref(), None, true);
    }
}

impl Drop for RoTxn<'_> {
    fn drop(&mut self) {
        self.finish_inner();
    }
}

impl std::fmt::Debug for RoTxn<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RoTxn")
            .field("sn", &self.sn)
            .field("finished", &self.finished)
            .finish()
    }
}

/// A read-write transaction executed under protocol `C`.
pub struct RwTxn<'db, C: ConcurrencyControl> {
    core: &'db DbCore,
    cc: &'db C,
    state: Option<C::Txn>,
    /// Oracle trace, present only when the database records one.
    trace: Option<TxnTrace>,
    /// Protocol actor id captured at begin, so lifecycle events can be
    /// stamped even after `state` has been consumed by commit/abort.
    obs_id: u64,
    /// Absolute latency budget, checked at every operation entry (the
    /// protocol additionally bounds its blocking waits by it).
    deadline: Option<Deadline>,
    /// End-to-end trace attempt (explicit via [`TxnOptions::with_trace`]
    /// or spans-tier sampled). While held, instrumented sites deeper in
    /// the engine parent their spans on it through the thread-local
    /// frame; dropping it records the `attempt` span.
    tspan: Option<AttemptGuard>,
}

impl<'db, C: ConcurrencyControl> RwTxn<'db, C> {
    pub(crate) fn begin_with(
        core: &'db DbCore,
        cc: &'db C,
        opts: &TxnOptions,
    ) -> Result<Self, DbError> {
        // Open the trace frame *before* the protocol's begin, so a
        // protocol that registers with version control at begin gets its
        // VCQueue residency span parented correctly.
        let obs = &core.ctx.obs;
        let tspan = match opts.trace {
            Some(t) => Some(trace::attempt(obs.tracer().activate(t.trace_id))),
            None if obs.span_sampled() => {
                let id = obs.tracer().auto_id();
                Some(trace::attempt(obs.tracer().activate(id)))
            }
            None => None,
        };
        let state = cc.begin_with(&core.ctx, opts)?;
        core.ctx
            .metrics
            .local()
            .rw_begun
            .fetch_add(1, Ordering::Relaxed);
        let obs_id = if core.ctx.obs.on() {
            let id = cc.txn_obs_id(&state);
            core.ctx.obs.emit(EventKind::Begin, id, 0);
            id
        } else {
            0
        };
        let deadline = opts
            .deadline
            .map(|budget| Deadline::within(&*core.ctx.config.clock, budget));
        Ok(RwTxn {
            core,
            cc,
            state: Some(state),
            trace: core.new_trace(),
            obs_id,
            deadline,
            tspan,
        })
    }

    /// The end-to-end trace id this transaction reports into, if any.
    pub fn trace_id(&self) -> Option<u64> {
        self.tspan.as_ref().map(|g| g.trace().trace_id())
    }

    fn ctx(&self) -> &CcContext {
        &self.core.ctx
    }

    /// The transaction's absolute deadline, if one was set.
    pub fn deadline(&self) -> Option<Deadline> {
        self.deadline
    }

    /// Fail fast when the budget is gone: abort the protocol state and
    /// surface `DeadlineExceeded`. Called at every operation entry so a
    /// transaction that overran its budget inside one blocking point
    /// cannot silently keep consuming resources in the next.
    fn check_deadline(&mut self) -> Result<(), DbError> {
        let Some(d) = self.deadline else {
            return Ok(());
        };
        if !d.expired(&*self.core.ctx.config.clock) {
            return Ok(());
        }
        let e = DbError::Aborted(AbortReason::DeadlineExceeded);
        if let Some(state) = self.state.take() {
            self.cc.abort(&self.core.ctx, state);
        }
        self.record_abort(&e);
        Err(e)
    }

    /// `read(x)` under the protocol's synchronization. An error means the
    /// transaction has been aborted by the protocol; the handle is then
    /// unusable except for dropping.
    pub fn read(&mut self, obj: ObjectId) -> Result<Value, DbError> {
        self.check_deadline()?;
        let state = self.state.as_mut().ok_or(DbError::TxnFinished)?;
        match self.cc.read(&self.core.ctx, state, obj) {
            Ok((version, value)) => {
                if let Some(trace) = &mut self.trace {
                    trace.read(obj, version);
                }
                Ok(value)
            }
            Err(e) => {
                self.on_protocol_abort(&e);
                Err(e)
            }
        }
    }

    /// Read and decode as `u64`.
    pub fn read_u64(&mut self, obj: ObjectId) -> Result<Option<u64>, DbError> {
        Ok(self.read(obj)?.as_u64())
    }

    /// `read(x)` with update intent (see
    /// [`ConcurrencyControl::read_for_update`]): read-modify-write
    /// transactions should prefer this to avoid lock-upgrade deadlocks
    /// under locking protocols.
    pub fn read_for_update(&mut self, obj: ObjectId) -> Result<Value, DbError> {
        self.check_deadline()?;
        let state = self.state.as_mut().ok_or(DbError::TxnFinished)?;
        match self.cc.read_for_update(&self.core.ctx, state, obj) {
            Ok((version, value)) => {
                if let Some(trace) = &mut self.trace {
                    trace.read(obj, version);
                }
                Ok(value)
            }
            Err(e) => {
                self.on_protocol_abort(&e);
                Err(e)
            }
        }
    }

    /// `write(x)` under the protocol's synchronization.
    pub fn write(&mut self, obj: ObjectId, value: Value) -> Result<(), DbError> {
        self.check_deadline()?;
        let state = self.state.as_mut().ok_or(DbError::TxnFinished)?;
        match self.cc.write(&self.core.ctx, state, obj, value) {
            Ok(()) => {
                if let Some(trace) = &mut self.trace {
                    trace.write(obj);
                }
                Ok(())
            }
            Err(e) => {
                self.on_protocol_abort(&e);
                Err(e)
            }
        }
    }

    /// `end(T)`: run the protocol's commit (which registers with version
    /// control at the serialization point if it has not already), apply
    /// updates, and make them (eventually) visible. Returns `tn(T)`.
    pub fn commit(mut self) -> Result<u64, DbError> {
        // Commit-entry deadline check: an expired transaction must not
        // enter group commit / WAL / version-control completion.
        self.check_deadline()?;
        let state = self.state.take().ok_or(DbError::TxnFinished)?;
        match self.cc.commit(&self.core.ctx, state) {
            Ok(tn) => {
                if let Some(g) = self.tspan.as_mut() {
                    g.attr("committed", 1);
                    g.attr("tn", tn);
                }
                self.ctx()
                    .metrics
                    .local()
                    .rw_committed
                    .fetch_add(1, Ordering::Relaxed);
                self.core.flush_trace(self.trace.as_ref(), Some(tn), true);
                Ok(tn)
            }
            Err(e) => {
                self.record_abort(&e);
                Err(e)
            }
        }
    }

    /// Voluntarily abort.
    pub fn abort(mut self) {
        if let Some(state) = self.state.take() {
            self.cc.abort(&self.core.ctx, state);
            self.record_abort(&DbError::Aborted(AbortReason::UserRequested));
        }
    }

    /// Simulate the client vanishing (fault injection): drop the protocol
    /// state **without** running the protocol's abort path, exactly as if
    /// the thread had died. Whatever the transaction registered, locked,
    /// or left pending stays behind, to be reclaimed by the stall reaper
    /// and the wait timeouts. The trace is flushed as uncommitted.
    pub fn stall(mut self) {
        if self.state.take().is_some() {
            self.core.flush_trace(self.trace.as_ref(), None, false);
        }
    }

    /// The protocol aborted the transaction inside read/write: it has
    /// already cleaned up its own resources; drop our state and record.
    fn on_protocol_abort(&mut self, e: &DbError) {
        if e.abort_reason().is_some() {
            if let Some(state) = self.state.take() {
                self.cc.abort(&self.core.ctx, state);
            }
            self.record_abort(e);
        }
    }

    fn record_abort(&mut self, e: &DbError) {
        // Borrow through the 'db reference (not &self) so the trace-span
        // attr writes below can take &mut self.tspan concurrently.
        let m = self.core.ctx.metrics.local();
        m.rw_aborted.fetch_add(1, Ordering::Relaxed);
        if let Some(reason) = e.abort_reason() {
            self.core
                .ctx
                .obs
                .emit(EventKind::Abort, self.obs_id, abort_reason_code(&reason));
            if let Some(g) = self.tspan.as_mut() {
                g.attr("committed", 0);
                g.attr("abort_reason", abort_reason_code(&reason));
            }
        }
        match e.abort_reason() {
            Some(AbortReason::TimestampConflict) => {
                m.aborts_ts_conflict.fetch_add(1, Ordering::Relaxed);
            }
            Some(AbortReason::Deadlock) => {
                m.aborts_deadlock.fetch_add(1, Ordering::Relaxed);
            }
            Some(AbortReason::ValidationFailed) => {
                m.aborts_validation.fetch_add(1, Ordering::Relaxed);
            }
            Some(AbortReason::WaitTimeout) => {
                m.aborts_timeout.fetch_add(1, Ordering::Relaxed);
            }
            Some(AbortReason::BaselineConflict) => {
                m.aborts_baseline.fetch_add(1, Ordering::Relaxed);
            }
            Some(AbortReason::UserRequested) => {
                m.aborts_user.fetch_add(1, Ordering::Relaxed);
            }
            Some(AbortReason::Reaped) => {
                m.aborts_reaped.fetch_add(1, Ordering::Relaxed);
            }
            Some(AbortReason::LogFailed) => {
                m.aborts_wal.fetch_add(1, Ordering::Relaxed);
            }
            Some(AbortReason::DeadlineExceeded) => {
                m.aborts_deadline.fetch_add(1, Ordering::Relaxed);
            }
            None => {}
        }
        self.core.flush_trace(self.trace.as_ref(), None, false);
    }
}

impl<C: ConcurrencyControl> Drop for RwTxn<'_, C> {
    fn drop(&mut self) {
        if let Some(state) = self.state.take() {
            self.cc.abort(&self.core.ctx, state);
            self.record_abort(&DbError::Aborted(AbortReason::UserRequested));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::SimClock;

    #[test]
    fn deadline_arithmetic_on_sim_clock() {
        let clock = SimClock::new();
        let d = Deadline::within(clock.as_ref(), Duration::from_millis(10));
        assert!(!d.expired(clock.as_ref()));
        assert_eq!(
            d.bound(clock.as_ref(), Duration::from_secs(1)),
            Duration::from_millis(10)
        );
        clock.advance(Duration::from_millis(4));
        assert_eq!(d.remaining(clock.as_ref()), Duration::from_millis(6));
        assert_eq!(
            d.bound(clock.as_ref(), Duration::from_millis(2)),
            Duration::from_millis(2)
        );
        clock.advance(Duration::from_millis(7));
        assert!(d.expired(clock.as_ref()));
        assert_eq!(
            d.bound(clock.as_ref(), Duration::from_secs(1)),
            Duration::ZERO
        );
    }
}
