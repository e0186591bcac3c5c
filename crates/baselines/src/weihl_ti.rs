//! Weihl's timestamps-and-initiation protocol \[17\] (simplified).
//!
//! Paper Section 2: "a completed transaction list is not required;
//! however, a read-only transaction has to perform synchronization
//! actions with a concurrent read-write transaction to avoid inconsistent
//! views. The synchronization is performed on timestamps associated with
//! the objects, and in some cases, this may lead to a race condition
//! where neither transaction may proceed with useful work."
//!
//! This implementation keeps the protocol's observable structure:
//!
//! * Read-write transactions run strict 2PL; at commit they choose a
//!   timestamp that dominates (a) the logical clock, (b) the write
//!   timestamps of everything they touched, and (c) the per-object
//!   **timestamp floors** raised by read-only transactions.
//! * A read-only transaction takes a timestamp at initiation. Each read
//!   must **synchronize with concurrent writers**: if the object has an
//!   uncommitted (pending) write, the reader cannot tell whether that
//!   write will serialize before or after it, so it waits — the mutual-
//!   waiting behaviour the paper criticizes. It then raises the object's
//!   floor to its own timestamp (a write to shared state) and reads the
//!   largest version `≤ ts`.
//!
//! Substitution note (recorded in DESIGN.md): Weihl's original
//! presentation covers several protocol variants with garbage-collection
//! integration; we implement the synchronization skeleton the 1989 paper
//! actually compares against — object-timestamp synchronization by
//! read-only transactions, no CTL, possible reader/writer waiting.

use crate::clock::LogicalClock;
use mvcc_cc::pending::PendingTable;
use mvcc_cc::{LockError, LockManager, LockMode};
use mvcc_core::trace::TxnTrace;
use mvcc_core::{
    AbortReason, DbError, Engine, Metrics, MetricsSnapshot, OpSpec, RoOutcome, RoRead, RwOutcome,
    Tracer, WriteSet,
};
use mvcc_model::{ObjectId, TxnId};
use mvcc_storage::{MvStore, StoreStats, Value};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Simplified Weihl timestamps + initiation.
pub struct WeihlTi {
    store: Arc<MvStore>,
    locks: LockManager,
    /// Objects with an uncommitted write, reserved by the writer's token:
    /// what read-only readers wait on.
    pending: PendingTable,
    clock: LogicalClock,
    /// Per-object read floors raised by read-only transactions: any
    /// future committed version of the object must carry a timestamp
    /// above its floor.
    floors: Mutex<HashMap<ObjectId, u64>>,
    /// Serializes commit-timestamp choice + version installation.
    commit_mu: Mutex<()>,
    next_token: AtomicU64,
    metrics: Metrics,
    tracer: Option<Tracer>,
    timeout: Duration,
}

impl Default for WeihlTi {
    fn default() -> Self {
        Self::new()
    }
}

impl WeihlTi {
    /// Fresh engine, tracing disabled.
    pub fn new() -> Self {
        Self::build(false)
    }

    /// Fresh engine with oracle tracing.
    pub fn traced() -> Self {
        Self::build(true)
    }

    /// Set the lock/reader-writer wait timeout (builder). The default
    /// (10 s) is effectively "wait forever" for benchmarks; fault
    /// experiments shrink it so stalled writers cannot wedge readers.
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.timeout = timeout;
        self
    }

    fn build(trace: bool) -> Self {
        WeihlTi {
            store: Arc::new(MvStore::new()),
            locks: LockManager::new(),
            pending: PendingTable::default(),
            clock: LogicalClock::new(),
            floors: Mutex::new(HashMap::new()),
            commit_mu: Mutex::new(()),
            next_token: AtomicU64::new(1),
            metrics: Metrics::new(),
            tracer: trace.then(Tracer::new),
            timeout: Duration::from_secs(10),
        }
    }

    /// The recorded history, if tracing is on.
    pub fn trace_history(&self) -> Option<mvcc_model::History> {
        self.tracer.as_ref().map(|t| t.history())
    }

    fn lock(&self, token: u64, obj: ObjectId, mode: LockMode) -> Result<(), DbError> {
        let m = self.metrics.local();
        m.rw_sync_actions.fetch_add(1, Ordering::Relaxed);
        match self.locks.acquire(token, obj, mode, self.timeout, true) {
            Ok(a) => {
                if a.waited {
                    m.rw_blocks.fetch_add(1, Ordering::Relaxed);
                }
                Ok(())
            }
            Err(LockError::Deadlock) => Err(DbError::Aborted(AbortReason::Deadlock)),
            Err(LockError::Timeout) => Err(DbError::Aborted(AbortReason::WaitTimeout)),
        }
    }
}

impl Engine for WeihlTi {
    fn name(&self) -> String {
        "weihl-ti".into()
    }

    fn run_read_only(&self, keys: &[ObjectId]) -> Result<RoOutcome, DbError> {
        let m = self.metrics.local();
        m.ro_begun.fetch_add(1, Ordering::Relaxed);
        let ts = self.clock.tick(); // initiation timestamp
        m.ro_sync_actions.fetch_add(1, Ordering::Relaxed);
        let mut trace = TxnTrace::new();
        let mut out = RoOutcome {
            sn: ts,
            reads: Vec::with_capacity(keys.len()),
            lag_at_start: 0, // sees all commits with ts' ≤ ts
        };
        for &k in keys {
            let mut blocked = false;
            let (res, _) = self.pending.wait_until(k, 0, self.timeout, |e| {
                // Synchronize with concurrent writers: an uncommitted
                // write's eventual timestamp is unknown — wait it out.
                if e.any() {
                    if !blocked {
                        blocked = true;
                        m.ro_blocks.fetch_add(1, Ordering::Relaxed);
                    }
                    return None;
                }
                Some(self.store.read_at(k, ts).expect("initial version present"))
            });
            match res {
                Some((n, v)) => {
                    // Raise the floor so no writer can commit a version
                    // at or below our timestamp for this object.
                    let mut floors = self.floors.lock();
                    let f = floors.entry(k).or_insert(0);
                    *f = (*f).max(ts);
                    drop(floors);
                    m.ro_sync_actions.fetch_add(1, Ordering::Relaxed);
                    m.ro_reads.fetch_add(1, Ordering::Relaxed);
                    trace.read(k, n);
                    out.reads.push(RoRead::new(k, n, v));
                }
                None => {
                    m.ro_aborts.fetch_add(1, Ordering::Relaxed);
                    if let Some(t) = &self.tracer {
                        t.flush(TxnId((1 << 48) | ts), &trace, false);
                    }
                    return Err(DbError::Aborted(AbortReason::WaitTimeout));
                }
            }
        }
        m.ro_finished.fetch_add(1, Ordering::Relaxed);
        if let Some(t) = &self.tracer {
            let id = (1 << 48) | self.next_token.fetch_add(1, Ordering::Relaxed);
            t.flush(TxnId(id), &trace, true);
        }
        Ok(out)
    }

    fn run_read_write(&self, ops: &[OpSpec]) -> Result<RwOutcome, DbError> {
        let m = self.metrics.local();
        m.rw_begun.fetch_add(1, Ordering::Relaxed);
        let token = self.next_token.fetch_add(1, Ordering::Relaxed);
        let mut locked: Vec<ObjectId> = Vec::new();
        // Buffered writes, each reserved by `token` until commit or abort.
        let mut written = WriteSet::new();
        let mut trace = TxnTrace::new();

        let fail = |e: DbError, locked: &[ObjectId], written: &WriteSet, trace: &TxnTrace| {
            for (k, _) in written.as_slice() {
                self.pending.release(*k, token, 0);
            }
            self.locks.release_all(token, locked.iter());
            m.rw_aborted.fetch_add(1, Ordering::Relaxed);
            if e.abort_reason() == Some(AbortReason::Deadlock) {
                m.aborts_deadlock.fetch_add(1, Ordering::Relaxed);
            }
            if let Some(t) = &self.tracer {
                t.flush(TxnId((1 << 49) | token), trace, false);
            }
            Err(e)
        };

        let read_here = |k: ObjectId, written: &WriteSet, trace: &mut TxnTrace| {
            if let Some(v) = written.get(k) {
                return v.clone();
            }
            let (n, v) = self.store.read_latest(k);
            trace.read(k, n);
            v
        };
        let write_here = |k: ObjectId, v: Value, written: &mut WriteSet, trace: &mut TxnTrace| {
            if written.get(k).is_none() {
                self.pending.reserve(k, token);
            }
            written.put(k, v);
            trace.write(k);
        };

        for op in ops {
            let step: Result<(), DbError> = (|| {
                match op {
                    OpSpec::Read(k) => {
                        self.lock(token, *k, LockMode::Shared)?;
                        if !locked.contains(k) {
                            locked.push(*k);
                        }
                        let _ = read_here(*k, &written, &mut trace);
                    }
                    OpSpec::Write(k, v) => {
                        self.lock(token, *k, LockMode::Exclusive)?;
                        if !locked.contains(k) {
                            locked.push(*k);
                        }
                        write_here(*k, v.clone(), &mut written, &mut trace);
                    }
                    OpSpec::Increment(k, d) => {
                        self.lock(token, *k, LockMode::Exclusive)?;
                        if !locked.contains(k) {
                            locked.push(*k);
                        }
                        let cur = read_here(*k, &written, &mut trace).as_u64().unwrap_or(0);
                        write_here(
                            *k,
                            Value::from_u64(cur.wrapping_add(*d)),
                            &mut written,
                            &mut trace,
                        );
                    }
                }
                Ok(())
            })();
            if let Err(e) = step {
                return fail(e, &locked, &written, &trace);
            }
        }

        // Commit: pick a timestamp above the clock, every floor, and every
        // write timestamp of touched objects; install versions.
        let tn = {
            let _crit = self.commit_mu.lock();
            let floors = self.floors.lock();
            let mut need = 0u64;
            for k in &locked {
                need = need.max(floors.get(k).copied().unwrap_or(0));
                m.rw_sync_actions.fetch_add(1, Ordering::Relaxed);
            }
            for (k, _) in written.as_slice() {
                need = need.max(self.store.latest_number(*k));
            }
            drop(floors);
            let tn = self.clock.tick_above(need);
            for (k, v) in written.as_slice() {
                let r = self.store.with(*k, |c| c.insert_committed(tn, v.clone()));
                if let Err(e) = r {
                    return fail(
                        DbError::Internal(format!("weihl install: {e}")),
                        &locked,
                        &written,
                        &trace,
                    );
                }
                self.pending.release(*k, token, 0);
            }
            tn
        };

        self.locks.release_all(token, locked.iter());
        m.rw_committed.fetch_add(1, Ordering::Relaxed);
        if let Some(t) = &self.tracer {
            t.flush(TxnId(tn), &trace, true);
        }
        Ok(RwOutcome { tn })
    }

    fn seed(&self, obj: ObjectId, value: Value) {
        self.store.seed(obj, value);
    }

    fn metrics(&self) -> MetricsSnapshot {
        self.metrics.snapshot()
    }

    fn reset_metrics(&self) {
        self.metrics.reset();
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
    fn write_then_read() {
        let e = WeihlTi::new();
        let out_w = e.run_read_write(&[w(0, 7)]).unwrap();
        let out_r = e.run_read_only(&[obj(0)]).unwrap();
        assert_eq!(out_r.reads[0].version, out_w.tn);
    }

    #[test]
    fn commit_timestamp_dominates_ro_floor() {
        let e = WeihlTi::new();
        // RO with a high timestamp raises the floor on x.
        for _ in 0..5 {
            e.clock.tick();
        }
        let ro = e.run_read_only(&[obj(0)]).unwrap(); // ts 6, floor(x)=6
        assert_eq!(ro.sn, 6);
        // a later writer must commit above the floor
        let rw = e.run_read_write(&[w(0, 1)]).unwrap();
        assert!(rw.tn > 6, "tn {} must exceed the RO floor 6", rw.tn);
        // so a re-run of the same RO snapshot still reads version 0
        let v = e.store.read_at(obj(0), 6).unwrap();
        assert_eq!(v.0, 0);
    }

    #[test]
    fn ro_waits_for_concurrent_writer() {
        use std::thread;
        let e = Arc::new(WeihlTi::new());
        // a writer holds a pending write on x
        let token = e.next_token.fetch_add(1, Ordering::Relaxed);
        e.pending.reserve(obj(0), token);
        let e2 = Arc::clone(&e);
        let h = thread::spawn(move || e2.run_read_only(&[obj(0)]).unwrap());
        thread::sleep(Duration::from_millis(40));
        // writer resolves (aborts here): reader proceeds
        e.pending.release(obj(0), token, 0);
        let out = h.join().unwrap();
        assert_eq!(out.reads[0].version, 0);
        assert!(e.metrics().ro_blocks >= 1, "RO must have synchronized");
    }

    #[test]
    fn concurrent_increments_correct() {
        use std::thread;
        let e = Arc::new(WeihlTi::new());
        e.seed(obj(0), Value::from_u64(0));
        let mut hs = Vec::new();
        for _ in 0..6 {
            let e = Arc::clone(&e);
            hs.push(thread::spawn(move || {
                let mut done = 0;
                while done < 30 {
                    match e.run_read_write(&[OpSpec::Increment(obj(0), 1)]) {
                        Ok(_) => done += 1,
                        Err(err) if err.is_retryable() => {}
                        Err(err) => panic!("{err}"),
                    }
                }
            }));
        }
        for h in hs {
            h.join().unwrap();
        }
        assert_eq!(e.store.read_latest(obj(0)).1.as_u64(), Some(180));
    }

    #[test]
    fn trace_is_serializable() {
        let e = WeihlTi::traced();
        for i in 0..12u64 {
            let _ = e.run_read_write(&[
                OpSpec::Read(obj(i % 3)),
                OpSpec::Increment(obj((i + 1) % 3), 1),
            ]);
            let _ = e.run_read_only(&[obj(0), obj(1), obj(2)]);
        }
        let h = e.trace_history().unwrap();
        let rep = mvcc_model::mvsg::check_tn_order(&h);
        assert!(rep.acyclic, "Weihl trace not 1SR: {:?}", rep.cycle);
    }
}
