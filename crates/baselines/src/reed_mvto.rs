//! Reed's multiversion timestamp ordering \[14\] — the baseline whose
//! read-only behaviour the paper's Section 2 criticizes:
//!
//! 1. read operations of read-only transactions "must be synchronized
//!    with the operations of read-write transactions, i.e., read
//!    operations may be blocked due to a pending write";
//! 2. they "have a significant concurrency control overhead since they
//!    must update certain information associated with the versions"
//!    (per-version read timestamps), and this "may result in a read-only
//!    transaction causing an abort of a read-write transaction";
//! 3. distributed read-only transactions would need two-phase commit
//!    (they write r-ts state) — surfaced here as the non-zero
//!    `ro_sync_actions` write count.
//!
//! The protocol: every transaction gets a timestamp at begin. A read of
//! `x` returns the version with the largest write timestamp `≤ ts(T)` and
//! raises that version's read timestamp to `ts(T)`; it blocks while a
//! pending write could still produce that version. A write of `x` is
//! rejected (transaction aborted) if the version it would supersede has
//! already been read by a younger transaction.

use crate::clock::LogicalClock;
use mvcc_cc::pending::PendingTable;
use mvcc_core::trace::TxnTrace;
use mvcc_core::{
    AbortReason, DbError, Engine, Metrics, MetricsSnapshot, OpSpec, RoOutcome, RoRead, RwOutcome,
    Tracer, WriteSet,
};
use mvcc_model::{ObjectId, TxnId};
use mvcc_storage::{MvStore, StoreStats, Value};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

/// Reed-style multiversion timestamp ordering.
pub struct ReedMvto {
    store: Arc<MvStore>,
    clock: LogicalClock,
    metrics: Metrics,
    tracer: Option<Tracer>,
    /// Pending writes, reserved at their writer's timestamp: what reads
    /// (read-only ones included) wait on.
    pending: PendingTable,
    /// `(object, version) → (r-ts, whether the read that set it came from
    /// a read-only transaction)`. Reed's per-version read timestamps; the
    /// flag attributes writer aborts to read-only interference (the
    /// paper's claim about this protocol).
    read_marks: Mutex<HashMap<(ObjectId, u64), (u64, bool)>>,
    wait_timeout: Duration,
}

impl Default for ReedMvto {
    fn default() -> Self {
        Self::new()
    }
}

impl ReedMvto {
    /// Fresh engine, tracing disabled.
    pub fn new() -> Self {
        Self::build(false)
    }

    /// Fresh engine with execution tracing for the oracle.
    pub fn traced() -> Self {
        Self::build(true)
    }

    fn build(trace: bool) -> Self {
        ReedMvto {
            store: Arc::new(MvStore::new()),
            clock: LogicalClock::new(),
            metrics: Metrics::new(),
            tracer: trace.then(Tracer::new),
            pending: PendingTable::default(),
            read_marks: Mutex::new(HashMap::new()),
            wait_timeout: Duration::from_secs(10),
        }
    }

    /// The recorded history, if tracing is on.
    pub fn trace_history(&self) -> Option<mvcc_model::History> {
        self.tracer.as_ref().map(|t| t.history())
    }

    /// MVTO read: candidate = largest committed version `≤ ts`; wait out
    /// any pending write whose reserved number falls in
    /// `(candidate, ts]` (it would become the candidate); then stamp the
    /// candidate's r-ts. The transaction's own writes are not here:
    /// `run_read_write` answers those from its buffer.
    fn read(
        &self,
        obj: ObjectId,
        ts: u64,
        is_ro: bool,
        trace: &mut TxnTrace,
    ) -> Result<(u64, Value), DbError> {
        let m = self.metrics.local();
        let mut blocked = false;
        let (res, _) = self.pending.wait_until(obj, 0, self.wait_timeout, |e| {
            let (cand, value) = self
                .store
                .read_at(obj, ts)
                .expect("initial version present");
            if e.oldest_in(cand, ts).is_some() {
                if !blocked {
                    blocked = true;
                    if is_ro {
                        m.ro_blocks.fetch_add(1, Ordering::Relaxed);
                    } else {
                        m.rw_blocks.fetch_add(1, Ordering::Relaxed);
                    }
                }
                return None;
            }
            // Raise the candidate's read timestamp — a *write* to shared
            // concurrency-control state, performed even by read-only
            // transactions. This is the paper's cited overhead.
            let mut marks = self.read_marks.lock();
            let mark = marks.entry((obj, cand)).or_default();
            if ts > mark.0 {
                *mark = (ts, is_ro);
            }
            Some((cand, value))
        });
        if is_ro {
            m.ro_sync_actions.fetch_add(1, Ordering::Relaxed);
        } else {
            m.rw_sync_actions.fetch_add(1, Ordering::Relaxed);
        }
        match res {
            Some((n, v)) => {
                trace.read(obj, n);
                Ok((n, v))
            }
            None => Err(DbError::Aborted(AbortReason::WaitTimeout)),
        }
    }

    /// MVTO write: reserve `obj` at `ts`, unless a younger transaction
    /// already read the version this write would supersede. The caller
    /// buffers the value and skips objects it already reserved.
    fn write(&self, obj: ObjectId, ts: u64) -> Result<(), DbError> {
        let m = self.metrics.local();
        m.rw_sync_actions.fetch_add(1, Ordering::Relaxed);
        let mut blocked = false;
        let (res, _) = self.pending.wait_until(obj, 0, self.wait_timeout, |e| {
            let (cand, _) = self
                .store
                .read_at(obj, ts)
                .expect("initial version present");
            if e.oldest_in(cand, ts).is_some() {
                if !blocked {
                    blocked = true;
                    m.rw_blocks.fetch_add(1, Ordering::Relaxed);
                }
                return None;
            }
            let (read_ts, by_ro) = self
                .read_marks
                .lock()
                .get(&(obj, cand))
                .copied()
                .unwrap_or((0, false));
            if read_ts > ts {
                // A younger transaction already read the state this write
                // would change: abort (Reed's rule). Attribute the abort
                // if the offending reader was read-only.
                if by_ro {
                    m.aborts_due_to_ro.fetch_add(1, Ordering::Relaxed);
                }
                return Some(Err(DbError::Aborted(AbortReason::TimestampConflict)));
            }
            e.reserve(ts);
            Some(Ok(()))
        });
        res.unwrap_or(Err(DbError::Aborted(AbortReason::WaitTimeout)))
    }

    /// Drop `ts`'s reservations, waking whoever waits behind them.
    fn release(&self, ts: u64, written: &WriteSet) {
        for (obj, _) in written.as_slice() {
            self.pending.release(*obj, ts, 0);
        }
    }
}

impl Engine for ReedMvto {
    fn name(&self) -> String {
        "reed-mvto".into()
    }

    fn run_read_only(&self, keys: &[ObjectId]) -> Result<RoOutcome, DbError> {
        let m = self.metrics.local();
        m.ro_begun.fetch_add(1, Ordering::Relaxed);
        // Timestamp acquisition is itself a synchronization action.
        let ts = self.clock.tick();
        m.ro_sync_actions.fetch_add(1, Ordering::Relaxed);
        let mut trace = TxnTrace::new();
        let mut out = RoOutcome {
            sn: ts,
            reads: Vec::with_capacity(keys.len()),
            lag_at_start: 0, // MVTO read-only txns see the latest state
        };
        for &k in keys {
            match self.read(k, ts, true, &mut trace) {
                Ok((n, v)) => out.reads.push(RoRead::new(k, n, v)),
                Err(e) => {
                    m.ro_aborts.fetch_add(1, Ordering::Relaxed);
                    if let Some(t) = &self.tracer {
                        t.flush(TxnId(ts), &trace, false);
                    }
                    return Err(e);
                }
            }
        }
        m.ro_finished.fetch_add(1, Ordering::Relaxed);
        if let Some(t) = &self.tracer {
            t.flush(TxnId(ts), &trace, true);
        }
        Ok(out)
    }

    fn run_read_write(&self, ops: &[OpSpec]) -> Result<RwOutcome, DbError> {
        let m = self.metrics.local();
        m.rw_begun.fetch_add(1, Ordering::Relaxed);
        let ts = self.clock.tick();
        let mut trace = TxnTrace::new();
        // Buffered writes, each reserved at `ts` until commit or abort.
        let mut written = WriteSet::new();
        let fail = |e: DbError, written: &WriteSet, trace: &TxnTrace| {
            self.release(ts, written);
            m.rw_aborted.fetch_add(1, Ordering::Relaxed);
            if e.abort_reason() == Some(AbortReason::TimestampConflict) {
                m.aborts_ts_conflict.fetch_add(1, Ordering::Relaxed);
            }
            if let Some(t) = &self.tracer {
                t.flush(TxnId(ts), trace, false);
            }
            Err(e)
        };
        // The transaction's own writes shadow the store; a read or
        // rewrite of one still counts as a synchronization action.
        let read = |k: ObjectId, written: &WriteSet, trace: &mut TxnTrace| match written.get(k) {
            Some(v) => {
                m.rw_sync_actions.fetch_add(1, Ordering::Relaxed);
                trace.read(k, ts);
                Ok(v.clone())
            }
            None => self.read(k, ts, false, trace).map(|(_, v)| v),
        };
        let write = |k: ObjectId, v: Value, written: &mut WriteSet, trace: &mut TxnTrace| {
            if written.get(k).is_some() {
                m.rw_sync_actions.fetch_add(1, Ordering::Relaxed);
            } else {
                self.write(k, ts)?;
            }
            written.put(k, v);
            trace.write(k);
            Ok(())
        };
        for op in ops {
            let step: Result<(), DbError> = match op {
                OpSpec::Read(k) => read(*k, &written, &mut trace).map(drop),
                OpSpec::Write(k, v) => write(*k, v.clone(), &mut written, &mut trace),
                OpSpec::Increment(k, d) => read(*k, &written, &mut trace).and_then(|v| {
                    let next = v.as_u64().unwrap_or(0).wrapping_add(*d);
                    write(*k, Value::from_u64(next), &mut written, &mut trace)
                }),
            };
            if let Err(e) = step {
                return fail(e, &written, &trace);
            }
        }
        // Commit: install every buffered write, then drop its reservation.
        for (obj, v) in written.as_slice() {
            let r = self.store.with(*obj, |c| c.insert_committed(ts, v.clone()));
            if let Err(e) = r {
                return fail(
                    DbError::Internal(format!("mvto install: {e}")),
                    &written,
                    &trace,
                );
            }
        }
        self.release(ts, &written);
        m.rw_committed.fetch_add(1, Ordering::Relaxed);
        if let Some(t) = &self.tracer {
            t.flush(TxnId(ts), &trace, true);
        }
        Ok(RwOutcome { tn: ts })
    }

    fn seed(&self, obj: ObjectId, value: Value) {
        self.store.seed(obj, value);
    }

    fn metrics(&self) -> MetricsSnapshot {
        self.metrics.snapshot()
    }

    fn reset_metrics(&self) {
        self.metrics.reset();
        // Forget who set each r-ts, not the r-ts itself: that is
        // protocol state, which a metrics reset must not change.
        for (_, by_ro) in self.read_marks.lock().values_mut() {
            *by_ro = false;
        }
    }

    fn store_stats(&self) -> StoreStats {
        self.store.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obj(n: u64) -> ObjectId {
        ObjectId(n)
    }

    fn w(k: u64, v: u64) -> OpSpec {
        OpSpec::Write(obj(k), Value::from_u64(v))
    }

    #[test]
    fn basic_write_then_read() {
        let e = ReedMvto::new();
        e.run_read_write(&[w(0, 7)]).unwrap();
        let out = e.run_read_only(&[obj(0)]).unwrap();
        assert_eq!(out.reads.len(), 1);
        assert_eq!(out.reads[0].version, 1);
    }

    #[test]
    fn ro_read_can_doom_older_writer() {
        // The paper's headline complaint about MVTO: an RO transaction's
        // read timestamp aborts a slower read-write transaction.
        let e = ReedMvto::new();
        // Writer takes ts 1 but "is slow": we simulate by issuing the RO
        // (ts 2) read of x before the writer's write reaches x.
        let ro_ts = {
            // Start the RW first so its ts is older.
            // We drive the primitive calls directly to control timing.
            let rw_ts = e.clock.tick(); // 1
            let ro = e.run_read_only(&[obj(0)]).unwrap(); // ts 2, reads v0, r-ts(v0)=2
            let err = e.write(obj(0), rw_ts).unwrap_err();
            assert_eq!(err, DbError::Aborted(AbortReason::TimestampConflict));
            ro.sn
        };
        assert_eq!(ro_ts, 2);
        assert_eq!(e.metrics().aborts_due_to_ro, 1);
    }

    #[test]
    fn ro_blocks_on_pending_write() {
        use std::thread;
        let e = Arc::new(ReedMvto::new());
        let rw_ts = e.clock.tick(); // 1
        e.write(obj(0), rw_ts).unwrap(); // pending
        let e2 = Arc::clone(&e);
        let h = thread::spawn(move || e2.run_read_only(&[obj(0)]).unwrap());
        thread::sleep(Duration::from_millis(40));
        // commit the writer manually: install, then release
        e.store
            .with(obj(0), |c| c.insert_committed(rw_ts, Value::from_u64(5)))
            .unwrap();
        e.pending.release(obj(0), rw_ts, 0);
        let out = h.join().unwrap();
        assert_eq!(out.reads.len(), 1);
        assert_eq!(out.reads[0].version, 1);
        assert!(e.metrics().ro_blocks >= 1, "RO must have blocked");
    }

    #[test]
    fn late_write_after_young_rw_read_aborts() {
        let e = ReedMvto::new();
        let t1 = e.clock.tick();
        // Younger RW reads x
        e.run_read_write(&[OpSpec::Read(obj(0)), w(1, 1)]).unwrap(); // ts 2
        let err = e.write(obj(0), t1).unwrap_err();
        assert_eq!(err, DbError::Aborted(AbortReason::TimestampConflict));
        // but this one was caused by an RW reader, not an RO
        assert_eq!(e.metrics().aborts_due_to_ro, 0);
    }

    #[test]
    fn write_into_the_past_allowed_when_unread() {
        let e = ReedMvto::new();
        let t1 = e.clock.tick(); // 1
        e.run_read_write(&[w(0, 20)]).unwrap(); // ts 2 commits version 2
                                                // T1 writes x "into the past" — nobody read version 0 with ts > 1.
        e.write(obj(0), t1).unwrap();
        e.store
            .with(obj(0), |c| c.insert_committed(t1, Value::from_u64(10)))
            .unwrap();
        // Chain now has versions 0, 1, 2; a reader at ts 1 sees version 1.
        let v = e.store.read_at(obj(0), 1).unwrap();
        assert_eq!(v, (1, Value::from_u64(10)));
        assert_eq!(e.store.read_latest(obj(0)).0, 2);
    }

    #[test]
    fn reads_materialize_no_chain() {
        let e = ReedMvto::new();
        e.seed(obj(0), Value::from_u64(1));
        let objects = e.store_stats().objects;
        // obj(1) was never written: neither read creates its chain.
        e.run_read_only(&[obj(1)]).unwrap();
        e.run_read_write(&[OpSpec::Read(obj(1)), w(0, 2)]).unwrap();
        assert_eq!(e.store_stats().objects, objects);
        assert_eq!(e.pending.entries(), 0, "no reservation outlives its writer");
    }

    #[test]
    fn ro_sync_actions_grow_with_reads() {
        let e = ReedMvto::new();
        e.run_read_write(&[w(0, 1), w(1, 2), w(2, 3)]).unwrap();
        e.reset_metrics();
        e.run_read_only(&[obj(0), obj(1), obj(2)]).unwrap();
        let m = e.metrics();
        // 1 for the timestamp + 1 per read (r-ts update)
        assert_eq!(m.ro_sync_actions, 4);
    }

    #[test]
    fn trace_is_serializable() {
        let e = ReedMvto::traced();
        for i in 0..10u64 {
            let _ = e.run_read_write(&[
                OpSpec::Read(obj(i % 3)),
                OpSpec::Increment(obj((i + 1) % 3), 1),
            ]);
            let _ = e.run_read_only(&[obj(0), obj(1)]);
        }
        let h = e.trace_history().unwrap();
        let rep = mvcc_model::mvsg::check_tn_order(&h);
        assert!(rep.acyclic, "MVTO trace not 1SR: {:?}", rep.cycle);
    }
}
