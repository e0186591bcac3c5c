//! Execution tracing into `mvcc-model` histories.
//!
//! Engines buffer each transaction's operations locally and flush them to
//! the shared trace at the transaction's terminal operation, once the
//! transaction number is known (under 2PL the number does not exist before
//! the lock point, so writes cannot be traced online).
//!
//! Flushing whole transactions means the trace's *interleaving* is the
//! flush order, not the true wall-clock order of individual operations.
//! That is sufficient for the oracle: MVSG construction depends only on
//! which version each read returned (explicit in [`Op::Read`]), who wrote
//! what, and commit status — not on operation interleaving. Single-threaded
//! traces additionally satisfy `History::validate`'s ordering checks.

use mvcc_model::{History, ObjectId, Op, TxnId};
use mvcc_storage::shard::ObjectMap;
use parking_lot::Mutex;

/// [`TxnTrace::seen`] flag: the object's read is recorded.
const READ: u8 = 1;
/// [`TxnTrace::seen`] flag: the object's write is recorded.
const WRITTEN: u8 = 2;

/// Buffered operations of one in-flight transaction.
#[derive(Debug, Default, Clone)]
pub struct TxnTrace {
    reads: Vec<(ObjectId, u64)>,
    writes: Vec<ObjectId>,
    /// Which operations are already recorded per object (`READ` |
    /// `WRITTEN`), so de-duplication is one probe, not a scan.
    seen: ObjectMap<u8>,
}

impl TxnTrace {
    /// Fresh empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a read of `obj` that returned version `version`. Only the
    /// first read of each object is kept, and reads after the
    /// transaction's own write of the object are dropped — enforcing the
    /// model restriction "at most one `r_i[x]`, at most one `w_i[x]`, and
    /// `r_i[x] <_i w_i[x]`".
    pub fn read(&mut self, obj: ObjectId, version: u64) {
        let seen = self.seen.entry(obj).or_insert(0);
        if *seen == 0 {
            *seen = READ;
            self.reads.push((obj, version));
        }
    }

    /// Record a write of `obj` (idempotent per object).
    pub fn write(&mut self, obj: ObjectId) {
        let seen = self.seen.entry(obj).or_insert(0);
        if *seen & WRITTEN == 0 {
            *seen |= WRITTEN;
            self.writes.push(obj);
        }
    }

    /// Whether anything was recorded.
    pub fn is_empty(&self) -> bool {
        self.reads.is_empty() && self.writes.is_empty()
    }
}

/// Shared, append-only execution trace.
#[derive(Default)]
pub struct Tracer {
    history: Mutex<History>,
}

impl Tracer {
    /// Empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Flush a finished transaction: `b`, reads, writes, then `c`/`a`.
    pub fn flush(&self, tn: TxnId, trace: &TxnTrace, committed: bool) {
        let mut h = self.history.lock();
        h.push(Op::Begin { txn: tn });
        for &(obj, version) in &trace.reads {
            h.push(Op::Read {
                txn: tn,
                obj,
                version: TxnId(version),
            });
        }
        for &obj in &trace.writes {
            h.push(Op::Write { txn: tn, obj });
        }
        h.push(if committed {
            Op::Commit { txn: tn }
        } else {
            Op::Abort { txn: tn }
        });
    }

    /// Copy the accumulated history.
    pub fn history(&self) -> History {
        self.history.lock().clone()
    }

    /// Number of operations recorded so far.
    pub fn len(&self) -> usize {
        self.history.lock().len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.history.lock().is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvcc_model::mvsg;

    #[test]
    fn first_read_per_object_wins() {
        let mut t = TxnTrace::new();
        t.read(ObjectId(1), 0);
        t.read(ObjectId(1), 5); // dropped
        assert_eq!(t.reads, vec![(ObjectId(1), 0)]);
    }

    #[test]
    fn read_after_own_write_dropped() {
        let mut t = TxnTrace::new();
        t.write(ObjectId(1));
        t.read(ObjectId(1), 3); // reading own write — not an MV read
        assert!(t.reads.is_empty());
        assert_eq!(t.writes, vec![ObjectId(1)]);
    }

    #[test]
    fn duplicate_writes_collapse() {
        let mut t = TxnTrace::new();
        t.write(ObjectId(2));
        t.write(ObjectId(2));
        assert_eq!(t.writes.len(), 1);
    }

    /// The three rules above, interleaved over many objects: per object,
    /// the first read wins, a read after the own write is dropped, a
    /// write after a read is kept once — and recording order survives.
    #[test]
    fn dedup_rules_hold_interleaved_over_many_objects() {
        let mut t = TxnTrace::new();
        let n = 1000u64;
        for o in 0..n {
            match o % 3 {
                0 => t.read(ObjectId(o), o),     // read, then write
                1 => t.write(ObjectId(o)),       // write, then read
                _ => t.read(ObjectId(o), o + 1), // read twice
            }
        }
        for o in (0..n).rev() {
            match o % 3 {
                0 => t.write(ObjectId(o)),
                1 => t.read(ObjectId(o), 7),
                _ => t.read(ObjectId(o), 7),
            }
            t.write(ObjectId(o / 3 * 3)); // repeated writes collapse
        }
        let want_reads: Vec<(ObjectId, u64)> = (0..n)
            .filter_map(|o| match o % 3 {
                0 => Some((ObjectId(o), o)),
                1 => None,
                _ => Some((ObjectId(o), o + 1)),
            })
            .collect();
        assert_eq!(t.reads, want_reads);
        let mut want_writes: Vec<ObjectId> = (0..n).filter(|o| o % 3 == 1).map(ObjectId).collect();
        want_writes.extend((0..n).rev().filter(|o| o % 3 == 0).map(ObjectId));
        assert_eq!(t.writes, want_writes);
    }

    #[test]
    fn flush_produces_checkable_history() {
        let tracer = Tracer::new();
        let mut t1 = TxnTrace::new();
        t1.write(ObjectId(0));
        tracer.flush(TxnId(1), &t1, true);

        let mut t2 = TxnTrace::new();
        t2.read(ObjectId(0), 1);
        tracer.flush(TxnId(2), &t2, true);

        let h = tracer.history();
        assert!(h.validate().is_ok(), "{h}");
        assert!(mvsg::is_one_copy_serializable(&h));
        assert_eq!(h.len(), 6);
    }

    #[test]
    fn aborted_flush_records_abort() {
        let tracer = Tracer::new();
        let mut t = TxnTrace::new();
        t.write(ObjectId(0));
        tracer.flush(TxnId(1), &t, false);
        let h = tracer.history();
        assert_eq!(h.status(TxnId(1)), mvcc_model::TxnStatus::Aborted);
    }

    #[test]
    fn empty_tracker_state() {
        let tracer = Tracer::new();
        assert!(tracer.is_empty());
        assert_eq!(tracer.len(), 0);
        assert!(TxnTrace::new().is_empty());
    }
}
