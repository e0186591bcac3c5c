//! Chan et al.'s multiversion two-phase locking \[7\] — the baseline with
//! the **completed transaction list (CTL)**.
//!
//! Read-write transactions run under strict 2PL; commit timestamps are
//! drawn from a counter at commit time, so the timestamp order equals the
//! serialization (lock-point) order. Each read-only transaction receives
//! a *start timestamp* and a **copy of the CTL** — "a list of all
//! read-write transactions that have committed successfully until that
//! time" — and each of its reads must find "the largest version of an
//! object smaller than the start timestamp of the transaction, and
//! ensur\[e\] that the creator of this version appears in the copy of the
//! completed transaction list". The paper calls this "cumbersome and
//! complex to deal with"; the costs this implementation surfaces are the
//! CTL copy at begin (O(recent commits), under a mutex) and the
//! per-read membership scan down the version chain.
//!
//! The CTL is pruned with a low-water mark (every timestamp below it is
//! committed), as the original protocol's deletion rule allows —
//! otherwise the copy cost would grow without bound.

use mvcc_cc::{LockError, LockManager, LockMode};
use mvcc_core::trace::TxnTrace;
use mvcc_core::{
    AbortReason, DbError, Engine, Metrics, MetricsSnapshot, OpSpec, RoOutcome, RoRead, RwOutcome,
    Tracer,
};
use mvcc_model::{ObjectId, TxnId};
use mvcc_storage::{MvStore, StoreStats, Value};
use parking_lot::Mutex;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// CTL state guarded by one mutex (the contention the paper hints at).
#[derive(Debug, Default)]
struct CtlState {
    /// Next commit timestamp.
    next_tn: u64,
    /// Commit timestamps handed out but not yet in the CTL.
    in_flight: BTreeSet<u64>,
    /// Committed timestamps ≥ `low_water`.
    ctl: BTreeSet<u64>,
    /// Every timestamp `< low_water` is committed or abandoned.
    low_water: u64,
}

impl CtlState {
    fn new() -> Self {
        CtlState {
            next_tn: 1,
            low_water: 1,
            ..Default::default()
        }
    }

    fn issue(&mut self) -> u64 {
        let tn = self.next_tn;
        self.next_tn += 1;
        self.in_flight.insert(tn);
        tn
    }

    fn complete(&mut self, tn: u64) {
        self.in_flight.remove(&tn);
        self.ctl.insert(tn);
        self.advance();
    }

    fn abandon(&mut self, tn: u64) {
        self.in_flight.remove(&tn);
        self.advance();
    }

    fn advance(&mut self) {
        let bound = self.in_flight.first().copied().unwrap_or(self.next_tn);
        self.low_water = bound;
        // Drop CTL entries below the low-water mark — they are implied.
        self.ctl = self.ctl.split_off(&bound);
    }
}

/// A read-only transaction's snapshot of the CTL.
#[derive(Debug, Clone)]
struct CtlCopy {
    start_ts: u64,
    low_water: u64,
    members: BTreeSet<u64>,
}

impl CtlCopy {
    fn contains(&self, creator: u64) -> bool {
        creator < self.low_water || self.members.contains(&creator)
    }
}

/// Chan-style multiversion two-phase locking with a CTL.
pub struct ChanMv2pl {
    store: Arc<MvStore>,
    locks: LockManager,
    ctl: Mutex<CtlState>,
    next_token: AtomicU64,
    metrics: Metrics,
    tracer: Option<Tracer>,
    lock_timeout: Duration,
}

impl Default for ChanMv2pl {
    fn default() -> Self {
        Self::new()
    }
}

impl ChanMv2pl {
    /// Fresh engine, tracing disabled.
    pub fn new() -> Self {
        Self::build(false)
    }

    /// Fresh engine with oracle tracing.
    pub fn traced() -> Self {
        Self::build(true)
    }

    fn build(trace: bool) -> Self {
        ChanMv2pl {
            store: Arc::new(MvStore::new()),
            locks: LockManager::new(),
            ctl: Mutex::new(CtlState::new()),
            next_token: AtomicU64::new(1),
            metrics: Metrics::new(),
            tracer: trace.then(Tracer::new),
            lock_timeout: Duration::from_secs(10),
        }
    }

    /// The recorded history, if tracing is on.
    pub fn trace_history(&self) -> Option<mvcc_model::History> {
        self.tracer.as_ref().map(|t| t.history())
    }

    /// Size of the live CTL (members above the low-water mark).
    pub fn ctl_len(&self) -> usize {
        self.ctl.lock().ctl.len()
    }

    fn lock(&self, token: u64, obj: ObjectId, mode: LockMode) -> Result<(), DbError> {
        let m = self.metrics.local();
        m.rw_sync_actions.fetch_add(1, Ordering::Relaxed);
        match self
            .locks
            .acquire(token, obj, mode, self.lock_timeout, true)
        {
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

impl Engine for ChanMv2pl {
    fn name(&self) -> String {
        "chan-mv2pl".into()
    }

    fn run_read_only(&self, keys: &[ObjectId]) -> Result<RoOutcome, DbError> {
        let m = self.metrics.local();
        m.ro_begun.fetch_add(1, Ordering::Relaxed);
        // Start timestamp + CTL copy, under the CTL mutex. The copy cost
        // is proportional to the live CTL size.
        let copy = {
            let state = self.ctl.lock();
            CtlCopy {
                start_ts: state.next_tn,
                low_water: state.low_water,
                members: state.ctl.clone(),
            }
        };
        m.ro_sync_actions
            .fetch_add(1 + copy.members.len() as u64, Ordering::Relaxed);

        let mut trace = TxnTrace::new();
        let mut out = RoOutcome {
            sn: copy.start_ts,
            reads: Vec::with_capacity(keys.len()),
            lag_at_start: self.ctl.lock().in_flight.len() as u64,
        };
        for &k in keys {
            // Scan the chain downward for the newest version < start_ts
            // whose creator is in the CTL copy. Each membership test is a
            // synchronization action.
            let mut scanned = 0u64;
            let found = self.store.with(k, |c| {
                for v in c.committed().rev() {
                    if v.number >= copy.start_ts {
                        continue;
                    }
                    scanned += 1;
                    if copy.contains(v.number) {
                        return Some((v.number, v.value.clone()));
                    }
                }
                None
            });
            m.ro_sync_actions.fetch_add(scanned, Ordering::Relaxed);
            m.ro_reads.fetch_add(1, Ordering::Relaxed);
            match found {
                Some((n, v)) => {
                    trace.read(k, n);
                    out.reads.push(RoRead::new(k, n, v));
                }
                None => {
                    m.ro_pruned_reads.fetch_add(1, Ordering::Relaxed);
                    if let Some(t) = &self.tracer {
                        t.flush(TxnId(1 << 48 | copy.start_ts), &trace, false);
                    }
                    return Err(DbError::VersionPruned {
                        obj: k,
                        sn: copy.start_ts,
                    });
                }
            }
        }
        m.ro_finished.fetch_add(1, Ordering::Relaxed);
        if let Some(t) = &self.tracer {
            // Unique anon id: RO transactions have no commit timestamp.
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
        let mut writes: Vec<(ObjectId, Value)> = Vec::new();
        let mut trace = TxnTrace::new();

        let read_latest = |k: ObjectId, writes: &[(ObjectId, Value)]| -> (u64, Value) {
            if let Some((_, v)) = writes.iter().rev().find(|(o, _)| *o == k) {
                return (u64::MAX, v.clone());
            }
            self.store.read_latest(k)
        };

        let fail = |e: DbError, token: u64, locked: &[ObjectId], trace: &TxnTrace| {
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
                match op {
                    OpSpec::Read(k) => {
                        self.lock(token, *k, LockMode::Shared)?;
                        if !locked.contains(k) {
                            locked.push(*k);
                        }
                        let (n, _) = read_latest(*k, &writes);
                        if n != u64::MAX {
                            trace.read(*k, n);
                        }
                    }
                    OpSpec::Write(k, v) => {
                        self.lock(token, *k, LockMode::Exclusive)?;
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
                        self.lock(token, *k, LockMode::Exclusive)?;
                        if !locked.contains(k) {
                            locked.push(*k);
                        }
                        let (n, v) = read_latest(*k, &writes);
                        if n != u64::MAX {
                            trace.read(*k, n);
                        }
                        let cur = v.as_u64().unwrap_or(0);
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
                return fail(e, token, &locked, &trace);
            }
        }

        // Commit: timestamp at lock point, install versions, append to CTL.
        let tn = self.ctl.lock().issue();
        for (k, v) in &writes {
            let r = self.store.with(*k, |c| c.insert_committed(tn, v.clone()));
            if let Err(e) = r {
                self.ctl.lock().abandon(tn);
                return fail(
                    DbError::Internal(format!("chan install: {e}")),
                    token,
                    &locked,
                    &trace,
                );
            }
        }
        self.ctl.lock().complete(tn);
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
    fn write_then_read_only() {
        let e = ChanMv2pl::new();
        e.run_read_write(&[w(0, 7)]).unwrap();
        let out = e.run_read_only(&[obj(0)]).unwrap();
        assert_eq!(out.reads[0].version, 1);
        assert_eq!(out.sn, 2);
    }

    #[test]
    fn ctl_skips_in_flight_commits() {
        // A commit timestamp has been issued but the CTL entry not yet
        // added: a concurrent RO must not read that version.
        let e = ChanMv2pl::new();
        e.seed(obj(0), Value::from_u64(7));
        let tn = e.ctl.lock().issue(); // simulate in-flight committer
        e.store
            .with(obj(0), |c| c.insert_committed(tn, Value::from_u64(8)))
            .unwrap();
        let out = e.run_read_only(&[obj(0)]).unwrap();
        // reads the initial version, not the in-flight one
        assert_eq!(out.reads[0].version, 0);
        e.ctl.lock().complete(tn);
        let out2 = e.run_read_only(&[obj(0)]).unwrap();
        assert_eq!(out2.reads[0].version, tn);
    }

    #[test]
    fn ctl_low_water_prunes() {
        let e = ChanMv2pl::new();
        for i in 0..20u64 {
            e.run_read_write(&[w(i % 3, i)]).unwrap();
        }
        // all committed in order → everything below next_tn implied
        assert_eq!(e.ctl_len(), 0);
        let s = e.ctl.lock();
        assert_eq!(s.low_water, s.next_tn);
    }

    #[test]
    fn ro_sync_cost_includes_ctl_copy() {
        let e = ChanMv2pl::new();
        // leave a gap: issue a tn that stays in flight
        let _hole = e.ctl.lock().issue(); // tn 1 never completes
        for i in 0..5u64 {
            e.run_read_write(&[w(0, i)]).unwrap(); // tns 2..6 → CTL={2..6}
        }
        assert_eq!(e.ctl_len(), 5);
        e.reset_metrics();
        e.run_read_only(&[obj(0)]).unwrap();
        let m = e.metrics();
        // 1 (start) + 5 (CTL copy) + ≥1 scan steps
        assert!(m.ro_sync_actions >= 7, "got {}", m.ro_sync_actions);
    }

    #[test]
    fn rw_conflicts_handled_by_locks() {
        use std::thread;
        let e = Arc::new(ChanMv2pl::new());
        e.seed(obj(0), Value::from_u64(0));
        let mut hs = Vec::new();
        for _ in 0..6 {
            let e = Arc::clone(&e);
            hs.push(thread::spawn(move || {
                let mut done = 0;
                while done < 40 {
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
        let out = e.run_read_only(&[obj(0)]).unwrap();
        let v = e.store.read_at(obj(0), out.sn).unwrap().1;
        assert_eq!(v.as_u64(), Some(240));
    }

    #[test]
    fn trace_is_serializable() {
        let e = ChanMv2pl::traced();
        for i in 0..12u64 {
            let _ = e.run_read_write(&[
                OpSpec::Read(obj(i % 3)),
                OpSpec::Increment(obj((i + 1) % 3), 1),
            ]);
            let _ = e.run_read_only(&[obj(0), obj(1), obj(2)]);
        }
        let h = e.trace_history().unwrap();
        let rep = mvcc_model::mvsg::check_tn_order(&h);
        assert!(rep.acyclic, "Chan trace not 1SR: {:?}", rep.cycle);
    }
}
