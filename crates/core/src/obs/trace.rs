//! End-to-end transaction tracing: per-transaction span trees.
//!
//! A trace follows one logical transaction across every layer the paper
//! modularizes apart: retry attempts, lock waits (2PL), blocks (TO), VC
//! queue residency (`VCregister` → `VCcomplete`), WAL appends, backoff
//! sleeps, and in `mvcc-dist` the 2PC prepare/decide/commit legs. The
//! result is a tree of [`Span`]s under one implicit root (span id 1,
//! named `txn`), exportable as Chrome `trace_event` JSON (see
//! [`super::export`]).
//!
//! **Propagation rules.**
//!
//! 1. A trace starts explicitly ([`SpanRegistry::start`], carried on
//!    [`crate::TxnOptions::with_trace`]) or is auto-sampled at begin
//!    (1 in `2^span_sample_shift` when events are on).
//! 2. Each begin pushes an *attempt* frame onto a thread-local stack;
//!    retries of the same options reuse the same trace id, so the tree
//!    shows every attempt side by side under the root.
//! 3. Instrumented sites deeper in the engine ([`leaf`]) parent
//!    themselves on the innermost frame of the current thread. No frame
//!    → no span → near-zero cost: one TLS read.
//! 4. The `VCregister`→`VCcomplete` interval outlives any single call
//!    frame, so it is carried as a *pending* span keyed by tn inside the
//!    trace itself, closed by `VCcomplete`/`VCdiscard` — from any thread
//!    (the reaper closes reaped registrations' spans).
//!
//! The registry is bounded: oldest traces are evicted once `cap` traces
//! are live, and each trace caps its span count (excess spans increment
//! `dropped_spans` rather than growing without bound). The registry's
//! trace list and each trace's spans sit behind leaf mutexes: nothing
//! else is locked while one is held.

use crate::clock::SharedClock;
use parking_lot::Mutex;
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Trace ids below this are explicit (admin-started); at or above,
/// auto-sampled.
pub const AUTO_TRACE_BASE: u64 = 1 << 32;

/// Root span id of every trace (implicit `txn` span).
pub const ROOT_SPAN: u64 = 1;

/// Maximum spans kept per trace.
const SPAN_CAP: usize = 512;

/// Maximum live traces per registry (oldest evicted beyond this).
const TRACE_CAP: usize = 128;

/// The trace context carried on [`crate::TxnOptions`] and across 2PC
/// messages: just an id, resolved against a [`SpanRegistry`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceCtx {
    /// Registry-unique trace id.
    pub trace_id: u64,
}

/// One finished span of a trace.
#[derive(Debug, Clone)]
pub struct Span {
    /// Trace-unique id (root = [`ROOT_SPAN`]).
    pub span_id: u64,
    /// Parent span id (0 only for the root).
    pub parent: u64,
    /// Static site name (`attempt`, `lock_wait`, `vc_queue`, …).
    pub name: &'static str,
    /// Start, nanoseconds since the registry base.
    pub start_ns: u64,
    /// End, nanoseconds since the registry base.
    pub end_ns: u64,
    /// Thread ordinal that opened the span.
    pub thread: u64,
    /// Small key/value payload (object ids, byte counts, reason codes).
    pub attrs: Vec<(&'static str, u64)>,
}

/// A finished, exportable copy of one trace.
#[derive(Debug, Clone)]
pub struct TraceSnapshot {
    /// The trace id.
    pub trace_id: u64,
    /// All spans, root first, then in start order.
    pub spans: Vec<Span>,
    /// Spans lost to the per-trace cap.
    pub dropped_spans: u64,
}

impl TraceSnapshot {
    /// Check well-formedness: exactly one root, unique span ids, every
    /// parent exists and starts no later than its child.
    pub fn validate(&self) -> Result<(), String> {
        let mut roots = 0usize;
        let mut ids = std::collections::BTreeMap::new();
        for s in &self.spans {
            if s.parent == 0 {
                roots += 1;
                if s.span_id != ROOT_SPAN {
                    return Err(format!("root span has id {} != {ROOT_SPAN}", s.span_id));
                }
            }
            if ids.insert(s.span_id, (s.start_ns, s.end_ns)).is_some() {
                return Err(format!("duplicate span id {}", s.span_id));
            }
            if s.end_ns < s.start_ns {
                return Err(format!("span {} ends before it starts", s.span_id));
            }
        }
        if roots != 1 {
            return Err(format!("expected exactly one root span, found {roots}"));
        }
        for s in &self.spans {
            if s.parent == 0 {
                continue;
            }
            let Some(&(p_start, _)) = ids.get(&s.parent) else {
                return Err(format!("span {} has orphan parent {}", s.span_id, s.parent));
            };
            if p_start > s.start_ns {
                return Err(format!(
                    "span {} starts at {} before its parent {} at {}",
                    s.span_id, s.start_ns, s.parent, p_start
                ));
            }
        }
        Ok(())
    }
}

/// A pending span that outlives call frames (the VCQueue residency
/// interval), keyed by tn inside its trace.
struct PendingVc {
    tn: u64,
    span_id: u64,
    parent: u64,
    start_ns: u64,
    thread: u64,
}

/// One live trace: span id allocator + finished and pending spans.
pub(crate) struct ActiveTrace {
    trace_id: u64,
    start_ns: u64,
    clock: SharedClock,
    base: Instant,
    next_span: AtomicU64,
    spans: Mutex<Vec<Span>>,
    pending_vc: Mutex<Vec<PendingVc>>,
    dropped: AtomicU64,
    /// Registry-wide count of open `vc_queue` spans, shared by every
    /// trace — the fast path that lets `VCcomplete`/`VCdiscard` on
    /// untraced transactions skip the registry scan with one load.
    vc_open: Arc<AtomicU64>,
}

impl ActiveTrace {
    /// The trace id.
    pub(crate) fn trace_id(&self) -> u64 {
        self.trace_id
    }

    /// Nanoseconds since the registry base, on the registry clock.
    #[inline]
    pub(crate) fn now_ns(&self) -> u64 {
        self.clock
            .now()
            .saturating_duration_since(self.base)
            .as_nanos() as u64
    }

    fn alloc_span(&self) -> u64 {
        self.next_span.fetch_add(1, Ordering::Relaxed)
    }

    fn record(&self, span: Span) {
        let mut spans = self.spans.lock();
        if spans.len() >= SPAN_CAP {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        spans.push(span);
    }

    /// Open the `vc_queue` pending span for `tn` under `parent`.
    fn open_vc(&self, tn: u64, parent: u64) {
        let span_id = self.alloc_span();
        let start_ns = self.now_ns();
        self.vc_open.fetch_add(1, Ordering::Relaxed);
        self.pending_vc.lock().push(PendingVc {
            tn,
            span_id,
            parent,
            start_ns,
            thread: super::event::thread_ordinal(),
        });
    }

    /// Record a closed span directly — runner-level sites (backoff
    /// sleeps) that have no frame on the stack while they run.
    pub(crate) fn record_closed(
        &self,
        parent: u64,
        name: &'static str,
        start_ns: u64,
        attrs: Vec<(&'static str, u64)>,
    ) {
        let span_id = self.alloc_span();
        self.record(Span {
            span_id,
            parent,
            name,
            start_ns,
            end_ns: self.now_ns(),
            thread: super::event::thread_ordinal(),
            attrs,
        });
    }

    /// Close the pending `vc_queue` span for `tn`, if any. `outcome` is
    /// recorded as an attr (0 complete, 1 discard, 2 reaped).
    fn close_vc(&self, tn: u64, outcome: u64) -> bool {
        let pending = {
            let mut p = self.pending_vc.lock();
            match p.iter().position(|x| x.tn == tn) {
                Some(i) => p.swap_remove(i),
                None => return false,
            }
        };
        self.vc_open.fetch_sub(1, Ordering::Relaxed);
        self.record(Span {
            span_id: pending.span_id,
            parent: pending.parent,
            name: "vc_queue",
            start_ns: pending.start_ns,
            end_ns: self.now_ns(),
            thread: pending.thread,
            attrs: vec![("tn", tn), ("outcome", outcome)],
        });
        true
    }
}

/// Owns every live trace of one engine (or one cluster).
pub struct SpanRegistry {
    clock: SharedClock,
    base: Instant,
    next_explicit: AtomicU64,
    next_auto: AtomicU64,
    traces: Mutex<Vec<Arc<ActiveTrace>>>,
    /// Open `vc_queue` spans across all traces (see [`ActiveTrace::vc_open`]).
    vc_open: Arc<AtomicU64>,
}

impl std::fmt::Debug for SpanRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpanRegistry")
            .field("traces", &self.traces.lock().len())
            .finish()
    }
}

impl SpanRegistry {
    /// Registry stamping spans from `clock`. The engine owns one inside
    /// [`Obs`](super::Obs); a distributed `Cluster` owns its own so 2PC
    /// legs across sites land in a single trace.
    pub fn new(clock: SharedClock) -> SpanRegistry {
        let base = clock.now();
        SpanRegistry {
            clock,
            base,
            next_explicit: AtomicU64::new(1),
            next_auto: AtomicU64::new(AUTO_TRACE_BASE),
            traces: Mutex::new(Vec::new()),
            vc_open: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Start an explicit trace; pass the returned context on
    /// [`crate::TxnOptions::with_trace`].
    pub fn start(&self) -> TraceCtx {
        let id = self.next_explicit.fetch_add(1, Ordering::Relaxed);
        self.activate(id);
        TraceCtx { trace_id: id }
    }

    /// Next auto-sampled trace id.
    pub(crate) fn auto_id(&self) -> u64 {
        self.next_auto.fetch_add(1, Ordering::Relaxed)
    }

    /// The live trace for `trace_id`, creating it if unknown (retries and
    /// remote 2PC legs share one trace this way).
    pub(crate) fn activate(&self, trace_id: u64) -> Arc<ActiveTrace> {
        let mut traces = self.traces.lock();
        if let Some(t) = traces.iter().find(|t| t.trace_id == trace_id) {
            return t.clone();
        }
        let t = Arc::new(ActiveTrace {
            trace_id,
            start_ns: self
                .clock
                .now()
                .saturating_duration_since(self.base)
                .as_nanos() as u64,
            clock: self.clock.clone(),
            base: self.base,
            next_span: AtomicU64::new(ROOT_SPAN + 1),
            spans: Mutex::new(Vec::new()),
            pending_vc: Mutex::new(Vec::new()),
            dropped: AtomicU64::new(0),
            vc_open: Arc::clone(&self.vc_open),
        });
        if traces.len() >= TRACE_CAP {
            traces.remove(0);
        }
        traces.push(t.clone());
        t
    }

    /// Close the pending `vc_queue` span for `tn` in whichever trace
    /// holds it (the reaper closes spans with no frame on its stack).
    /// One relaxed load when no `vc_queue` span is open anywhere — the
    /// common case on untraced `VCcomplete`/`VCdiscard` calls.
    pub(crate) fn close_vc_any(&self, tn: u64, outcome: u64) {
        if self.vc_open.load(Ordering::Relaxed) == 0 {
            return;
        }
        let traces: Vec<Arc<ActiveTrace>> = self.traces.lock().clone();
        for t in traces {
            if t.close_vc(tn, outcome) {
                return;
            }
        }
    }

    /// Nanoseconds since the registry base, on the registry clock. Pairs
    /// with [`record_root_span`](Self::record_root_span).
    pub fn now_ns(&self) -> u64 {
        self.clock
            .now()
            .saturating_duration_since(self.base)
            .as_nanos() as u64
    }

    /// Record a closed span directly under `trace_id`'s root — for
    /// cross-crate sites that have no frame on the stack while they run
    /// (the 2PC prepare/decide/commit legs in `mvcc-dist`).
    pub fn record_root_span(
        &self,
        trace_id: u64,
        name: &'static str,
        start_ns: u64,
        attrs: Vec<(&'static str, u64)>,
    ) {
        self.activate(trace_id)
            .record_closed(ROOT_SPAN, name, start_ns, attrs);
    }

    /// Export a finished copy of `trace_id`: the implicit root (whose end
    /// is the latest child end) plus every recorded span, start-ordered.
    /// `None` for an unknown trace.
    pub fn snapshot(&self, trace_id: u64) -> Option<TraceSnapshot> {
        let trace = {
            let traces = self.traces.lock();
            traces.iter().find(|t| t.trace_id == trace_id)?.clone()
        };
        let mut spans = trace.spans.lock().clone();
        spans.sort_by_key(|s| (s.start_ns, s.span_id));
        let end_ns = spans
            .iter()
            .map(|s| s.end_ns)
            .max()
            .unwrap_or(trace.start_ns);
        let mut all = Vec::with_capacity(spans.len() + 1);
        all.push(Span {
            span_id: ROOT_SPAN,
            parent: 0,
            name: "txn",
            start_ns: trace.start_ns,
            end_ns: end_ns.max(trace.start_ns),
            thread: 0,
            attrs: vec![("trace_id", trace_id)],
        });
        all.extend(spans);
        Some(TraceSnapshot {
            trace_id,
            spans: all,
            dropped_spans: trace.dropped.load(Ordering::Relaxed),
        })
    }
}

// --- Thread-local frame stack ------------------------------------------

/// One attempt frame: innermost wins as the parent for [`leaf`] spans.
struct Frame {
    trace: Arc<ActiveTrace>,
    attempt_span: u64,
    token: u64,
}

thread_local! {
    static FRAMES: RefCell<Vec<Frame>> = const { RefCell::new(Vec::new()) };
}

/// Whether the calling thread currently has an active trace frame.
#[cfg(test)]
pub(crate) fn active() -> bool {
    FRAMES.with(|f| !f.borrow().is_empty())
}

/// The trace id of the calling thread's innermost frame, if any (stamped
/// into flight-recorder post-mortems).
pub fn current_trace_id() -> Option<u64> {
    FRAMES.with(|f| f.borrow().last().map(|fr| fr.trace.trace_id))
}

fn next_token() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

/// Guard for one transaction attempt: pushes a frame, records an
/// `attempt` span on drop. Held by the transaction handle.
pub struct AttemptGuard {
    trace: Arc<ActiveTrace>,
    span_id: u64,
    start_ns: u64,
    token: u64,
    attrs: Vec<(&'static str, u64)>,
}

impl AttemptGuard {
    /// Attach an attribute reported on the attempt span (abort reason,
    /// commit tn, …). Last write wins per key.
    pub(crate) fn attr(&mut self, key: &'static str, value: u64) {
        if let Some(slot) = self.attrs.iter_mut().find(|(k, _)| *k == key) {
            slot.1 = value;
        } else {
            self.attrs.push((key, value));
        }
    }

    /// The trace this attempt belongs to.
    pub(crate) fn trace(&self) -> &Arc<ActiveTrace> {
        &self.trace
    }
}

impl Drop for AttemptGuard {
    fn drop(&mut self) {
        FRAMES.with(|f| {
            let mut frames = f.borrow_mut();
            if let Some(i) = frames.iter().rposition(|fr| fr.token == self.token) {
                frames.remove(i);
            }
        });
        self.trace.record(Span {
            span_id: self.span_id,
            parent: ROOT_SPAN,
            name: "attempt",
            start_ns: self.start_ns,
            end_ns: self.trace.now_ns(),
            thread: super::event::thread_ordinal(),
            attrs: std::mem::take(&mut self.attrs),
        });
    }
}

/// Open an attempt frame on the calling thread for `trace`.
pub(crate) fn attempt(trace: Arc<ActiveTrace>) -> AttemptGuard {
    let span_id = trace.alloc_span();
    let start_ns = trace.now_ns();
    let token = next_token();
    FRAMES.with(|f| {
        f.borrow_mut().push(Frame {
            trace: trace.clone(),
            attempt_span: span_id,
            token,
        })
    });
    AttemptGuard {
        trace,
        span_id,
        start_ns,
        token,
        attrs: Vec::new(),
    }
}

/// A leaf span opened under the innermost frame. Recorded only by an
/// explicit [`finish`](LeafSpan::finish); dropping it without finishing
/// discards it (sites that open a leaf speculatively — e.g. a lock
/// acquire that never waits — just let it fall away).
pub struct LeafSpan {
    trace: Arc<ActiveTrace>,
    parent: u64,
    name: &'static str,
    start_ns: u64,
    attrs: Vec<(&'static str, u64)>,
}

impl LeafSpan {
    /// Attach an attribute.
    pub fn attr(&mut self, key: &'static str, value: u64) {
        self.attrs.push((key, value));
    }

    /// Record the span, ending now.
    pub fn finish(self) {
        let span_id = self.trace.alloc_span();
        self.trace.record(Span {
            span_id,
            parent: self.parent,
            name: self.name,
            start_ns: self.start_ns,
            end_ns: self.trace.now_ns(),
            thread: super::event::thread_ordinal(),
            attrs: self.attrs,
        });
    }
}

/// Open a leaf span under the calling thread's innermost frame, or
/// `None` when the thread is not tracing (one TLS read).
pub fn leaf(name: &'static str) -> Option<LeafSpan> {
    FRAMES.with(|f| {
        let frames = f.borrow();
        let top = frames.last()?;
        Some(LeafSpan {
            trace: top.trace.clone(),
            parent: top.attempt_span,
            name,
            start_ns: top.trace.now_ns(),
            attrs: Vec::new(),
        })
    })
}

/// Open the pending `vc_queue` span for `tn` under the innermost frame's
/// attempt (no-op when the thread is not tracing).
pub(crate) fn vc_register(tn: u64) {
    FRAMES.with(|f| {
        let frames = f.borrow();
        if let Some(top) = frames.last() {
            top.trace.open_vc(tn, top.attempt_span);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::real_clock;

    fn registry() -> SpanRegistry {
        SpanRegistry::new(real_clock())
    }

    #[test]
    fn empty_trace_snapshots_to_root_only() {
        let reg = registry();
        let ctx = reg.start();
        let snap = reg.snapshot(ctx.trace_id).unwrap();
        assert_eq!(snap.spans.len(), 1);
        assert_eq!(snap.spans[0].name, "txn");
        snap.validate().unwrap();
        assert!(reg.snapshot(999_999).is_none());
    }

    #[test]
    fn attempt_and_leaf_spans_nest() {
        let reg = registry();
        let ctx = reg.start();
        {
            let mut g = attempt(reg.activate(ctx.trace_id));
            g.attr("committed", 1);
            assert!(active());
            assert_eq!(current_trace_id(), Some(ctx.trace_id));
            let mut l = leaf("lock_wait").expect("frame is active");
            l.attr("object", 7);
            l.finish();
            // A speculative leaf dropped unfinished records nothing.
            let _ = leaf("lock_wait");
        }
        assert!(!active());
        let snap = reg.snapshot(ctx.trace_id).unwrap();
        snap.validate().unwrap();
        assert_eq!(snap.spans.len(), 3, "root + attempt + one leaf");
        let attempt_span = snap.spans.iter().find(|s| s.name == "attempt").unwrap();
        assert_eq!(attempt_span.parent, ROOT_SPAN);
        assert!(attempt_span.attrs.contains(&("committed", 1)));
        let lock = snap.spans.iter().find(|s| s.name == "lock_wait").unwrap();
        assert_eq!(lock.parent, attempt_span.span_id);
    }

    #[test]
    fn retries_share_one_trace() {
        let reg = registry();
        let ctx = reg.start();
        for i in 0..3u64 {
            let mut g = attempt(reg.activate(ctx.trace_id));
            g.attr("attempt", i);
        }
        let snap = reg.snapshot(ctx.trace_id).unwrap();
        snap.validate().unwrap();
        assert_eq!(
            snap.spans.iter().filter(|s| s.name == "attempt").count(),
            3,
            "three attempts under one root"
        );
    }

    #[test]
    fn vc_pending_span_closes_from_any_thread() {
        let reg = registry();
        let ctx = reg.start();
        {
            let _g = attempt(reg.activate(ctx.trace_id));
            vc_register(42);
        }
        // Reaper path: no frame on this (or any) thread.
        assert!(!active());
        reg.close_vc_any(42, 2);
        let snap = reg.snapshot(ctx.trace_id).unwrap();
        snap.validate().unwrap();
        let vc = snap.spans.iter().find(|s| s.name == "vc_queue").unwrap();
        assert!(vc.attrs.contains(&("tn", 42)));
        assert!(vc.attrs.contains(&("outcome", 2)));
    }

    #[test]
    fn registry_and_trace_are_bounded() {
        let reg = registry();
        for _ in 0..(TRACE_CAP + 10) {
            reg.start();
        }
        assert!(reg.traces.lock().len() <= TRACE_CAP);
        let ctx = reg.start();
        let t = reg.activate(ctx.trace_id);
        for _ in 0..(SPAN_CAP + 5) {
            let _ = attempt(t.clone());
        }
        let snap = reg.snapshot(ctx.trace_id).unwrap();
        assert_eq!(snap.dropped_spans, 5);
        assert_eq!(snap.spans.len(), SPAN_CAP + 1);
    }

    #[test]
    fn validate_rejects_malformed_trees() {
        let mk = |spans: Vec<Span>| TraceSnapshot {
            trace_id: 1,
            spans,
            dropped_spans: 0,
        };
        let root = Span {
            span_id: ROOT_SPAN,
            parent: 0,
            name: "txn",
            start_ns: 0,
            end_ns: 10,
            thread: 0,
            attrs: vec![],
        };
        assert!(mk(vec![]).validate().is_err(), "no root");
        let orphan = Span {
            span_id: 2,
            parent: 99,
            name: "attempt",
            start_ns: 1,
            end_ns: 2,
            thread: 0,
            attrs: vec![],
        };
        assert!(mk(vec![root.clone(), orphan]).validate().is_err());
        let early_child = Span {
            span_id: 2,
            parent: ROOT_SPAN,
            name: "attempt",
            start_ns: 0,
            end_ns: 2,
            thread: 0,
            attrs: vec![],
        };
        let mut late_root = root.clone();
        late_root.start_ns = 5;
        assert!(
            mk(vec![late_root, early_child.clone()]).validate().is_err(),
            "parent must precede child"
        );
        assert!(mk(vec![root, early_child]).validate().is_ok());
    }
}
