//! Single-version strict two-phase locking — the **no-multiversioning**
//! control. One committed value per object; read-only transactions take
//! shared locks like everyone else, so they block writers, are blocked by
//! writers, and can be chosen as deadlock victims. This is the
//! monoversion world whose read/write interference multiversion schemes
//! exist to remove (paper Section 1).

use mvcc_cc::{LockError, LockManager, LockMode};
use mvcc_core::trace::TxnTrace;
use mvcc_core::{
    AbortReason, DbError, Engine, Metrics, MetricsSnapshot, OpSpec, RoOutcome, RoRead, RwOutcome,
    Tracer,
};
use mvcc_model::{ObjectId, TxnId};
use mvcc_storage::{StoreStats, Value};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Single-version strict 2PL engine.
pub struct SingleVersion2pl {
    /// `object → (committing transaction number, value)`.
    data: Mutex<HashMap<ObjectId, (u64, Value)>>,
    locks: LockManager,
    next_token: AtomicU64,
    next_tn: AtomicU64,
    metrics: Metrics,
    tracer: Option<Tracer>,
    lock_timeout: Duration,
}

impl Default for SingleVersion2pl {
    fn default() -> Self {
        Self::new()
    }
}

impl SingleVersion2pl {
    /// Fresh engine, tracing disabled.
    pub fn new() -> Self {
        Self::build(false)
    }

    /// Fresh engine with oracle tracing.
    pub fn traced() -> Self {
        Self::build(true)
    }

    fn build(trace: bool) -> Self {
        SingleVersion2pl {
            data: Mutex::new(HashMap::new()),
            locks: LockManager::new(),
            next_token: AtomicU64::new(1),
            next_tn: AtomicU64::new(1),
            metrics: Metrics::new(),
            tracer: trace.then(Tracer::new),
            lock_timeout: Duration::from_secs(10),
        }
    }

    /// The recorded history, if tracing is on.
    pub fn trace_history(&self) -> Option<mvcc_model::History> {
        self.tracer.as_ref().map(|t| t.history())
    }

    fn lock(&self, token: u64, obj: ObjectId, mode: LockMode, is_ro: bool) -> Result<(), DbError> {
        let m = self.metrics.local();
        if is_ro {
            m.ro_sync_actions.fetch_add(1, Ordering::Relaxed);
        } else {
            m.rw_sync_actions.fetch_add(1, Ordering::Relaxed);
        }
        match self
            .locks
            .acquire(token, obj, mode, self.lock_timeout, true)
        {
            Ok(a) => {
                if a.waited {
                    if is_ro {
                        m.ro_blocks.fetch_add(1, Ordering::Relaxed);
                    } else {
                        m.rw_blocks.fetch_add(1, Ordering::Relaxed);
                    }
                }
                Ok(())
            }
            Err(LockError::Deadlock) => Err(DbError::Aborted(AbortReason::Deadlock)),
            Err(LockError::Timeout) => Err(DbError::Aborted(AbortReason::WaitTimeout)),
        }
    }

    fn current(&self, obj: ObjectId) -> (u64, Value) {
        self.data
            .lock()
            .get(&obj)
            .cloned()
            .unwrap_or((0, Value::empty()))
    }
}

impl Engine for SingleVersion2pl {
    fn name(&self) -> String {
        "sv-2pl".into()
    }

    fn run_read_only(&self, keys: &[ObjectId]) -> Result<RoOutcome, DbError> {
        let m = self.metrics.local();
        m.ro_begun.fetch_add(1, Ordering::Relaxed);
        let token = self.next_token.fetch_add(1, Ordering::Relaxed);
        let mut locked: Vec<ObjectId> = Vec::new();
        let mut trace = TxnTrace::new();
        let mut out = RoOutcome {
            sn: 0,
            reads: Vec::with_capacity(keys.len()),
            lag_at_start: 0, // reads current state — at the price of locks
        };
        for &k in keys {
            if let Err(e) = self.lock(token, k, LockMode::Shared, true) {
                self.locks.release_all(token, locked.iter());
                m.ro_aborts.fetch_add(1, Ordering::Relaxed);
                if let Some(t) = &self.tracer {
                    t.flush(TxnId((1 << 48) | token), &trace, false);
                }
                return Err(e);
            }
            locked.push(k);
            let (n, v) = self.current(k);
            m.ro_reads.fetch_add(1, Ordering::Relaxed);
            trace.read(k, n);
            out.reads.push(RoRead::new(k, n, v));
        }
        // strictness: hold every lock until the end
        self.locks.release_all(token, locked.iter());
        m.ro_finished.fetch_add(1, Ordering::Relaxed);
        if let Some(t) = &self.tracer {
            t.flush(TxnId((1 << 48) | token), &trace, true);
        }
        Ok(out)
    }

    fn run_read_write(&self, ops: &[OpSpec]) -> Result<RwOutcome, DbError> {
        let m = self.metrics.local();
        m.rw_begun.fetch_add(1, Ordering::Relaxed);
        let token = self.next_token.fetch_add(1, Ordering::Relaxed);
        let mut locked: Vec<ObjectId> = Vec::new();
        let mut writes: Vec<(ObjectId, Value)> = Vec::new();
        let mut trace = TxnTrace::new();

        let fail = |e: DbError, locked: &[ObjectId], trace: &TxnTrace| {
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

        for op in ops {
            let step: Result<(), DbError> = (|| {
                let buffered = |k: &ObjectId, writes: &[(ObjectId, Value)]| {
                    writes
                        .iter()
                        .rev()
                        .find(|(o, _)| o == k)
                        .map(|(_, v)| v.clone())
                };
                match op {
                    OpSpec::Read(k) => {
                        self.lock(token, *k, LockMode::Shared, false)?;
                        if !locked.contains(k) {
                            locked.push(*k);
                        }
                        if buffered(k, &writes).is_none() {
                            let (n, _) = self.current(*k);
                            trace.read(*k, n);
                        }
                    }
                    OpSpec::Write(k, v) => {
                        self.lock(token, *k, LockMode::Exclusive, false)?;
                        if !locked.contains(k) {
                            locked.push(*k);
                        }
                        if let Some(slot) = writes.iter_mut().find(|(o, _)| *o == *k) {
                            slot.1 = v.clone();
                        } else {
                            writes.push((*k, v.clone()));
                        }
                        trace.write(*k);
                    }
                    OpSpec::Increment(k, d) => {
                        self.lock(token, *k, LockMode::Exclusive, false)?;
                        if !locked.contains(k) {
                            locked.push(*k);
                        }
                        let cur = match buffered(k, &writes) {
                            Some(v) => v.as_u64().unwrap_or(0),
                            None => {
                                let (n, v) = self.current(*k);
                                trace.read(*k, n);
                                v.as_u64().unwrap_or(0)
                            }
                        };
                        let newv = Value::from_u64(cur.wrapping_add(*d));
                        if let Some(slot) = writes.iter_mut().find(|(o, _)| *o == *k) {
                            slot.1 = newv;
                        } else {
                            writes.push((*k, newv));
                        }
                        trace.write(*k);
                    }
                }
                Ok(())
            })();
            if let Err(e) = step {
                return fail(e, &locked, &trace);
            }
        }

        let tn = self.next_tn.fetch_add(1, Ordering::Relaxed);
        {
            let mut data = self.data.lock();
            for (k, v) in &writes {
                data.insert(*k, (tn, v.clone()));
            }
        }
        self.locks.release_all(token, locked.iter());
        m.rw_committed.fetch_add(1, Ordering::Relaxed);
        if let Some(t) = &self.tracer {
            t.flush(TxnId(tn), &trace, true);
        }
        Ok(RwOutcome { tn })
    }

    fn seed(&self, obj: ObjectId, value: Value) {
        self.data.lock().insert(obj, (0, value));
    }

    fn metrics(&self) -> MetricsSnapshot {
        self.metrics.snapshot()
    }

    fn reset_metrics(&self) {
        self.metrics.reset();
    }

    fn store_stats(&self) -> StoreStats {
        let data = self.data.lock();
        StoreStats {
            objects: data.len(),
            committed_versions: data.len(),
            payload_bytes: data.values().map(|(_, v)| v.len()).sum(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    fn obj(n: u64) -> ObjectId {
        ObjectId(n)
    }

    fn w(k: u64, v: u64) -> OpSpec {
        OpSpec::Write(obj(k), Value::from_u64(v))
    }

    #[test]
    fn write_then_read() {
        let e = SingleVersion2pl::new();
        let rw = e.run_read_write(&[w(0, 7)]).unwrap();
        let ro = e.run_read_only(&[obj(0)]).unwrap();
        assert_eq!(ro.reads[0].version, rw.tn);
    }

    #[test]
    fn only_one_version_is_kept() {
        let e = SingleVersion2pl::new();
        for v in 1..=5u64 {
            e.run_read_write(&[w(0, v)]).unwrap();
        }
        let stats = e.store_stats();
        assert_eq!(stats.committed_versions, 1);
        assert_eq!(e.current(obj(0)).1.as_u64(), Some(5));
    }

    #[test]
    fn ro_blocks_writer() {
        // The monoversion pathology the paper's Section 1 motivates
        // against: a reader's shared lock delays a writer.
        let e = Arc::new(SingleVersion2pl::new());
        e.seed(obj(0), Value::from_u64(1));
        // hold an S lock via a raw token to control timing
        let token = e.next_token.fetch_add(1, Ordering::Relaxed);
        e.locks
            .acquire(
                token,
                obj(0),
                LockMode::Shared,
                Duration::from_secs(1),
                true,
            )
            .unwrap();
        let e2 = Arc::clone(&e);
        let h = thread::spawn(move || e2.run_read_write(&[w(0, 2)]));
        thread::sleep(Duration::from_millis(40));
        assert!(!h.is_finished(), "writer must be blocked by the reader");
        e.locks.release_all(token, &[obj(0)]);
        h.join().unwrap().unwrap();
        assert!(e.metrics().rw_blocks >= 1);
    }

    #[test]
    fn ro_can_deadlock() {
        // RO ↔ RW deadlock: impossible under the paper's scheme, routine
        // under single-version 2PL.
        let e = Arc::new(SingleVersion2pl::new());
        let barrier = Arc::new(std::sync::Barrier::new(2));
        let e1 = Arc::clone(&e);
        let b1 = Arc::clone(&barrier);
        let ro = thread::spawn(move || {
            // reads x then y
            let token = e1.next_token.fetch_add(1, Ordering::Relaxed);
            e1.lock(token, obj(0), LockMode::Shared, true).unwrap();
            b1.wait();
            let r = e1.lock(token, obj(1), LockMode::Shared, true);
            e1.locks.release_all(token, &[obj(0), obj(1)]);
            r
        });
        let e2 = Arc::clone(&e);
        let b2 = Arc::clone(&barrier);
        let rw = thread::spawn(move || {
            let token = e2.next_token.fetch_add(1, Ordering::Relaxed);
            e2.lock(token, obj(1), LockMode::Exclusive, false).unwrap();
            b2.wait();
            let r = e2.lock(token, obj(0), LockMode::Exclusive, false);
            e2.locks.release_all(token, &[obj(0), obj(1)]);
            r
        });
        let r1 = ro.join().unwrap();
        let r2 = rw.join().unwrap();
        assert!(r1.is_err() || r2.is_err(), "one side must be victimized");
    }

    #[test]
    fn trace_is_serializable() {
        let e = SingleVersion2pl::traced();
        for i in 0..12u64 {
            let _ = e.run_read_write(&[
                OpSpec::Read(obj(i % 3)),
                OpSpec::Increment(obj((i + 1) % 3), 1),
            ]);
            let _ = e.run_read_only(&[obj(0), obj(1), obj(2)]);
        }
        let h = e.trace_history().unwrap();
        let rep = mvcc_model::mvsg::check_tn_order(&h);
        assert!(rep.acyclic, "SV-2PL trace not 1SR: {:?}", rep.cycle);
    }
}
