//! Spans recorded by the benchmark around each public engine call.
//!
//! The driver's transaction executor is generic over [`Rec`]: the untraced
//! pass instantiates it with [`Off`] (every call compiles to nothing), the
//! traced pass with [`Spans`] (two clock reads and one push into a
//! pre-allocated per-thread buffer per span). Both passes therefore run the
//! same code around the engine, and the rate difference between them is the
//! tracing overhead.

use std::fmt::Write as _;
use std::time::Instant;

/// What a span covers. Roots are `TxnRo`/`TxnRw`; an `Attempt` is one trip
/// through the retry loop; the rest are single calls into `mvcc-core`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum Kind {
    TxnRo,
    TxnRw,
    Attempt,
    RoBegin,
    RoRead,
    RoFinish,
    RwBegin,
    RwRead,
    RwRfu,
    RwWrite,
    RwCommit,
}

impl Kind {
    pub const COUNT: usize = 11;

    pub fn name(self) -> &'static str {
        match self {
            Kind::TxnRo => "txn_ro",
            Kind::TxnRw => "txn_rw",
            Kind::Attempt => "attempt",
            Kind::RoBegin => "begin_read_only",
            Kind::RoRead => "RoTxn::read",
            Kind::RoFinish => "RoTxn::finish",
            Kind::RwBegin => "begin_read_write",
            Kind::RwRead => "RwTxn::read",
            Kind::RwRfu => "RwTxn::read_for_update",
            Kind::RwWrite => "RwTxn::write",
            Kind::RwCommit => "RwTxn::commit",
        }
    }

    /// A direct call into the engine (no child spans).
    pub fn is_engine_call(self) -> bool {
        !matches!(self, Kind::TxnRo | Kind::TxnRw | Kind::Attempt)
    }
}

/// Index of the parent of a root span.
pub const NO_PARENT: u32 = u32::MAX;

/// One recorded interval. `start`/`end` are nanoseconds since the run's
/// epoch; `parent` indexes the same buffer; spans of one transaction share
/// `txn`.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub kind: Kind,
    /// Set on an `Attempt` that ended in an abort.
    pub aborted: bool,
    pub parent: u32,
    pub txn: u32,
    pub start: u64,
    pub end: u64,
}

impl Span {
    pub fn dur(&self) -> u64 {
        self.end - self.start
    }
}

/// Span recorder interface of the executor.
pub trait Rec {
    /// Whether this recorder records (lets the executor skip trace-only
    /// sampling in the untraced pass at compile time).
    const ON: bool;
    fn open(&mut self, kind: Kind) -> u32;
    fn close(&mut self, id: u32);
    /// Close an `Attempt` that aborted.
    fn close_aborted(&mut self, id: u32);
}

/// The untraced recorder.
pub struct Off;

impl Rec for Off {
    const ON: bool = false;
    #[inline(always)]
    fn open(&mut self, _: Kind) -> u32 {
        0
    }
    #[inline(always)]
    fn close(&mut self, _: u32) {}
    #[inline(always)]
    fn close_aborted(&mut self, _: u32) {}
}

/// The traced recorder: an in-memory buffer, folded and cleared by the
/// driver between rounds.
pub struct Spans {
    pub buf: Vec<Span>,
    epoch: Instant,
    cur: u32,
    txn: u32,
}

impl Spans {
    pub fn new(epoch: Instant, capacity: usize) -> Self {
        Spans {
            buf: Vec::with_capacity(capacity),
            epoch,
            cur: NO_PARENT,
            txn: 0,
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn clear(&mut self) {
        self.buf.clear();
        self.cur = NO_PARENT;
    }
}

impl Rec for Spans {
    const ON: bool = true;

    #[inline]
    fn open(&mut self, kind: Kind) -> u32 {
        if self.cur == NO_PARENT {
            self.txn = self.txn.wrapping_add(1);
        }
        let id = self.buf.len() as u32;
        let start = self.now();
        self.buf.push(Span {
            kind,
            aborted: false,
            parent: self.cur,
            txn: self.txn,
            start,
            end: start,
        });
        self.cur = id;
        id
    }

    #[inline]
    fn close(&mut self, id: u32) {
        let end = self.now();
        let span = &mut self.buf[id as usize];
        span.end = end;
        self.cur = span.parent;
    }

    #[inline]
    fn close_aborted(&mut self, id: u32) {
        self.close(id);
        self.buf[id as usize].aborted = true;
    }
}

/// Self time of every span: its duration minus the part covered by its
/// direct children. Parents precede children in `spans`.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut out: Vec<u64> = spans.iter().map(Span::dur).collect();
    for s in spans {
        if s.parent != NO_PARENT {
            let p = &mut out[s.parent as usize];
            *p = p.saturating_sub(s.dur());
        }
    }
    out
}

/// Append `spans` to a Chrome-trace event list (`ph:"X"`, microseconds).
/// `pid` names the protocol arm, `tid` the client thread.
pub fn push_chrome_events(out: &mut String, spans: &[Span], pid: &str, tid: usize) {
    for (i, s) in spans.iter().enumerate() {
        if !out.is_empty() {
            out.push_str(",\n");
        }
        let parent = if s.parent == NO_PARENT {
            -1
        } else {
            s.parent as i64
        };
        write!(
            out,
            "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":\"{pid}\",\"tid\":{tid},\
             \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"parent\":{parent},\
             \"txn\":{},\"aborted\":{}}}}}",
            s.kind.name(),
            s.start as f64 / 1e3,
            s.dur() as f64 / 1e3,
            s.txn,
            s.aborted
        )
        .expect("write to String");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(kind: Kind, parent: u32, start: u64, end: u64) -> Span {
        Span {
            kind,
            aborted: false,
            parent,
            txn: 1,
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // txn [0,100] ⊃ attempt [10,90] ⊃ begin [10,20], read [30,50], commit [60,90]
        let spans = [
            span(Kind::TxnRw, NO_PARENT, 0, 100),
            span(Kind::Attempt, 0, 10, 90),
            span(Kind::RwBegin, 1, 10, 20),
            span(Kind::RwRead, 1, 30, 50),
            span(Kind::RwCommit, 1, 60, 90),
        ];
        assert_eq!(self_times(&spans), vec![20, 20, 10, 20, 30]);
        // Self times of a tree add up to the root's duration.
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn recorder_links_parents_and_numbers_transactions() {
        let mut r = Spans::new(Instant::now(), 16);
        let root = r.open(Kind::TxnRw);
        let a = r.open(Kind::Attempt);
        let b = r.open(Kind::RwBegin);
        r.close(b);
        r.close_aborted(a);
        r.close(root);
        let root2 = r.open(Kind::TxnRo);
        r.close(root2);
        let parents: Vec<u32> = r.buf.iter().map(|s| s.parent).collect();
        assert_eq!(parents, vec![NO_PARENT, 0, 1, NO_PARENT]);
        assert!(r.buf[1].aborted && !r.buf[0].aborted);
        assert_eq!(r.buf[0].txn, r.buf[2].txn);
        assert_ne!(r.buf[0].txn, r.buf[3].txn);
        assert!(r.buf.iter().all(|s| s.end >= s.start));
    }

    #[test]
    fn chrome_events_are_one_object_per_span() {
        let mut out = String::new();
        push_chrome_events(
            &mut out,
            &[span(Kind::RoRead, NO_PARENT, 1500, 2500)],
            "2pl",
            1,
        );
        assert_eq!(
            out,
            "{\"name\":\"RoTxn::read\",\"ph\":\"X\",\"pid\":\"2pl\",\"tid\":1,\"ts\":1.500,\
             \"dur\":1.000,\"args\":{\"id\":0,\"parent\":-1,\"txn\":1,\"aborted\":false}}"
        );
    }
}
