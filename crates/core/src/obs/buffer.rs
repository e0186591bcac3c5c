//! Per-thread SPSC event buffers: the buffered publish path.
//!
//! Publishing every recorded event straight into the global ring would
//! pay one contended `fetch_add` on the ring head, a seqlock slot write
//! and a clock read per event. At ~25 instrumentation points per
//! transaction that was measured at 16–31% of a short transaction's
//! budget. The buffered path splits the cost:
//!
//! * **Emit (owner thread only).** Bump a per-kind counter on a
//!   thread-owned cache line, make the sampling decision, and — only for
//!   events that survive sampling — read the clock and write one slot of
//!   a thread-local SPSC ring. No shared-write contention, no clock read
//!   on the dropped path.
//! * **Drain (one thread at a time, rare).** Collect every ring's
//!   pending events, merge-sort them by `(t_ns, thread, local seq)`, and
//!   republish them into the global seqlock ring so every existing
//!   reader (flight recorder, exporters, the simulator's canonical
//!   trace) sees one time-ordered stream exactly as before.
//!
//! Drains are triggered by readers (`recent`/`emitted` flush first) and
//! by an owner whose ring fills (`try_lock` on the drain mutex; if
//! another drain is in flight or a test holds [`DrainPause`], the event
//! is dropped and the ring's `dropped` counter — which is exact, not a
//! sample — records it).
//!
//! **Lifecycle.** Rings are `Arc`-shared between the owning thread's TLS
//! slot and the registry. Thread exit drops the TLS slot, which marks
//! the ring *retired*; the next drain flushes whatever the thread left
//! behind and then prunes the ring. An `Obs` dropped before its writer
//! threads exit is handled by the same `Weak` back-reference: the TLS
//! slot notices the dead registry and frees the ring on next use.

use super::event::{thread_ordinal, EventBus, EventKind, KIND_COUNT};
use crate::clock::SharedRng;
use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, Weak};

/// Per-thread ring capacity (slots) of every engine's registry.
pub(crate) const THREAD_RING_SLOTS: usize = 1024;

/// One SPSC slot: plain payload words, ordered by the ring's head/tail.
#[derive(Default)]
struct BufSlot {
    t_ns: AtomicU64,
    kind: AtomicU64,
    id: AtomicU64,
    aux: AtomicU64,
}

/// A single-producer (owning thread) / single-consumer (whoever holds
/// the drain mutex) ring, plus the owner's counters and sampling state.
pub(crate) struct ThreadRing {
    /// Ordinal of the owning thread, stamped into drained events.
    thread: u64,
    mask: u64,
    /// Next slot to write; owner stores with Release, drainer loads with
    /// Acquire (so the drainer sees the payload of every published slot).
    head: AtomicU64,
    /// Next slot to read; drainer stores with Release, owner loads with
    /// Acquire (so the owner never overwrites a slot still being read).
    tail: AtomicU64,
    slots: Box<[BufSlot]>,
    /// Counter tier: exact per-kind emit counts, bumped on every emit
    /// regardless of sampling. Owner-written, anyone-read.
    kind_counts: [AtomicU64; KIND_COUNT],
    /// Events lost to a full ring while the drain mutex was unavailable.
    /// Exact by construction: only the owner increments it, and only
    /// after a failed push → failed drain → failed re-push sequence.
    dropped: AtomicU64,
    /// Owner-only sampling sequence for the events ladder (per-thread, so
    /// the decision costs one uncontended relaxed RMW).
    sample_seq: AtomicU64,
    /// Owner-only sampling sequence for auto-started trace spans.
    span_seq: AtomicU64,
    /// Set when the owning thread's TLS slot drops; the next drain
    /// flushes and prunes this ring.
    retired: AtomicBool,
}

impl ThreadRing {
    fn new(thread: u64, capacity: usize) -> ThreadRing {
        let cap = capacity.max(64).next_power_of_two();
        let mut slots = Vec::with_capacity(cap);
        slots.resize_with(cap, BufSlot::default);
        ThreadRing {
            thread,
            mask: (cap - 1) as u64,
            head: AtomicU64::new(0),
            tail: AtomicU64::new(0),
            slots: slots.into_boxed_slice(),
            kind_counts: std::array::from_fn(|_| AtomicU64::new(0)),
            dropped: AtomicU64::new(0),
            sample_seq: AtomicU64::new(0),
            span_seq: AtomicU64::new(0),
            retired: AtomicBool::new(false),
        }
    }

    /// Bump the counter-tier count for `kind` (every emit, sampled or not).
    /// Owner-only writer, so a plain load+store replaces the atomic RMW —
    /// this runs on every instrumentation point, and a relaxed `fetch_add`
    /// is still a full locked RMW on x86.
    #[inline]
    pub(crate) fn count(&self, kind: EventKind) {
        let c = &self.kind_counts[kind as usize];
        c.store(c.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
    }

    /// Events-ladder sampling decision: keep 1 in `2^shift`. Determinism
    /// note: with no injected rng the decision is a per-thread modular
    /// counter (stable under any thread interleaving); with one — the
    /// simulator's seeded stream — it is a draw, so replaying a seed
    /// replays the exact same keep/drop pattern.
    #[inline]
    pub(crate) fn sample(&self, shift: u8, rng: Option<&SharedRng>) -> bool {
        if shift == 0 {
            return true;
        }
        if shift >= 64 {
            return false;
        }
        let mask = (1u64 << shift) - 1;
        match rng {
            Some(rng) => rng.next_u64() & mask == 0,
            None => {
                // Owner-only sequence: load+store, not an RMW.
                let seq = self.sample_seq.load(Ordering::Relaxed);
                self.sample_seq.store(seq + 1, Ordering::Relaxed);
                seq & mask == 0
            }
        }
    }

    /// Spans-ladder sampling decision (separate sequence, same scheme).
    #[inline]
    pub(crate) fn span_sample(&self, shift: u8, rng: Option<&SharedRng>) -> bool {
        if shift == 0 {
            return true;
        }
        if shift >= 64 {
            return false;
        }
        let mask = (1u64 << shift) - 1;
        match rng {
            Some(rng) => rng.next_u64() & mask == 0,
            None => {
                let seq = self.span_seq.load(Ordering::Relaxed);
                self.span_seq.store(seq + 1, Ordering::Relaxed);
                seq & mask == 0
            }
        }
    }

    /// Owner-only push. `false` when the ring is full.
    #[inline]
    pub(crate) fn push(&self, t_ns: u64, kind: EventKind, id: u64, aux: u64) -> bool {
        let head = self.head.load(Ordering::Relaxed);
        let tail = self.tail.load(Ordering::Acquire);
        if head.wrapping_sub(tail) > self.mask {
            return false;
        }
        let slot = &self.slots[(head & self.mask) as usize];
        slot.t_ns.store(t_ns, Ordering::Relaxed);
        slot.kind.store(kind as u64, Ordering::Relaxed);
        slot.id.store(id, Ordering::Relaxed);
        slot.aux.store(aux, Ordering::Relaxed);
        self.head.store(head.wrapping_add(1), Ordering::Release);
        true
    }

    /// Record one event lost to overflow.
    #[inline]
    pub(crate) fn drop_one(&self) {
        self.dropped.fetch_add(1, Ordering::Relaxed);
    }

    /// Drain-side: move every pending slot into `out`. Caller must hold
    /// the registry drain mutex (single consumer).
    fn collect(&self, out: &mut Vec<Pending>) {
        let head = self.head.load(Ordering::Acquire);
        let tail = self.tail.load(Ordering::Relaxed);
        for ticket in tail..head {
            let slot = &self.slots[(ticket & self.mask) as usize];
            let kind = EventKind::from_u8(slot.kind.load(Ordering::Relaxed) as u8);
            if let Some(kind) = kind {
                out.push(Pending {
                    t_ns: slot.t_ns.load(Ordering::Relaxed),
                    thread: self.thread,
                    local_seq: ticket,
                    kind,
                    id: slot.id.load(Ordering::Relaxed),
                    aux: slot.aux.load(Ordering::Relaxed),
                });
            }
        }
        self.tail.store(head, Ordering::Release);
    }

    fn is_empty(&self) -> bool {
        self.head.load(Ordering::Acquire) == self.tail.load(Ordering::Acquire)
    }

    fn retired(&self) -> bool {
        self.retired.load(Ordering::Acquire)
    }
}

/// An event pulled out of a thread ring, awaiting merge + republish.
struct Pending {
    t_ns: u64,
    thread: u64,
    local_seq: u64,
    kind: EventKind,
    id: u64,
    aux: u64,
}

/// All thread rings feeding one event bus.
pub(crate) struct BufferRegistry {
    /// Process-unique id keying the TLS ring cache.
    id: u64,
    thread_capacity: usize,
    rings: Mutex<Vec<Arc<ThreadRing>>>,
    /// Serializes drains; [`DrainPause`] holds it to force overflow in
    /// tests. Drains `try_lock` so an emit path never blocks on it.
    drain: Mutex<()>,
    /// Exact counters folded in from pruned rings, so counts survive the
    /// threads that produced them ("every ring that EVER fed this bus").
    pruned_counts: [AtomicU64; KIND_COUNT],
    /// Overflow drops folded in from pruned rings.
    pruned_dropped: AtomicU64,
}

/// Holding this guard blocks all drains (including drain-on-full, which
/// then drops events and counts them exactly). Test hook.
pub struct DrainPause<'a> {
    _guard: MutexGuard<'a, ()>,
}

impl BufferRegistry {
    pub(crate) fn new(thread_capacity: usize) -> Arc<BufferRegistry> {
        static NEXT_ID: AtomicU64 = AtomicU64::new(1);
        Arc::new(BufferRegistry {
            id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
            thread_capacity,
            rings: Mutex::new(Vec::new()),
            drain: Mutex::new(()),
            pruned_counts: std::array::from_fn(|_| AtomicU64::new(0)),
            pruned_dropped: AtomicU64::new(0),
        })
    }

    /// Block drains until the guard drops (test hook for exact-overflow
    /// accounting).
    pub(crate) fn pause(&self) -> DrainPause<'_> {
        DrainPause {
            _guard: self.drain.lock().unwrap_or_else(|e| e.into_inner()),
        }
    }

    /// Flush every ring into `bus`, merged into one time-ordered stream.
    /// Returns without doing anything if another drain is in flight or
    /// drains are paused.
    pub(crate) fn drain_into(&self, bus: &EventBus) {
        let Ok(_g) = self.drain.try_lock() else {
            return;
        };
        let rings: Vec<Arc<ThreadRing>> =
            self.rings.lock().unwrap_or_else(|e| e.into_inner()).clone();
        let mut batch: Vec<Pending> = Vec::new();
        for ring in &rings {
            ring.collect(&mut batch);
        }
        // One global stream ordered by emit time; (thread, local_seq)
        // tie-breaks equal stamps deterministically, and local_seq alone
        // preserves per-thread program order.
        batch.sort_by_key(|p| (p.t_ns, p.thread, p.local_seq));
        for p in batch {
            bus.publish_raw(p.t_ns, p.kind, p.thread, p.id, p.aux);
        }
        if rings.iter().any(|r| r.retired() && r.is_empty()) {
            // Fold the pruned rings' exact counters into the registry so
            // the counter tier keeps its "never loses an emit" guarantee
            // past the lifetime of the thread that produced it.
            self.rings
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .retain(|r| {
                    if !(r.retired() && r.is_empty()) {
                        return true;
                    }
                    for (dst, src) in self.pruned_counts.iter().zip(r.kind_counts.iter()) {
                        dst.fetch_add(src.load(Ordering::Relaxed), Ordering::Relaxed);
                    }
                    self.pruned_dropped
                        .fetch_add(r.dropped.load(Ordering::Relaxed), Ordering::Relaxed);
                    false
                });
        }
    }

    /// Sum of a kind's counter across every ring that ever fed this bus
    /// (counter tier: exact, sampling-independent).
    pub(crate) fn count(&self, kind: EventKind) -> u64 {
        self.pruned_counts[kind as usize].load(Ordering::Relaxed)
            + self
                .rings
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .iter()
                .map(|r| r.kind_counts[kind as usize].load(Ordering::Relaxed))
                .sum::<u64>()
    }

    /// All per-kind counters at once.
    pub(crate) fn counts(&self) -> [u64; KIND_COUNT] {
        let mut out = [0u64; KIND_COUNT];
        for (dst, src) in out.iter_mut().zip(self.pruned_counts.iter()) {
            *dst = src.load(Ordering::Relaxed);
        }
        for r in self.rings.lock().unwrap_or_else(|e| e.into_inner()).iter() {
            for (dst, src) in out.iter_mut().zip(r.kind_counts.iter()) {
                *dst += src.load(Ordering::Relaxed);
            }
        }
        out
    }

    /// Total events lost to ring overflow (exact).
    pub(crate) fn dropped(&self) -> u64 {
        self.pruned_dropped.load(Ordering::Relaxed)
            + self
                .rings
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .iter()
                .map(|r| r.dropped.load(Ordering::Relaxed))
                .sum::<u64>()
    }

    /// Number of live rings (registered writer threads not yet pruned).
    #[cfg(test)]
    pub(crate) fn ring_count(&self) -> usize {
        self.rings.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    fn register(self: &Arc<Self>) -> Arc<ThreadRing> {
        let ring = Arc::new(ThreadRing::new(thread_ordinal(), self.thread_capacity));
        self.rings
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(ring.clone());
        ring
    }
}

/// One TLS cache entry: this thread's ring for one registry. Dropping it
/// (thread exit, or pruning after the registry died) retires the ring.
struct TlsEntry {
    registry_id: u64,
    registry: Weak<BufferRegistry>,
    ring: Arc<ThreadRing>,
}

impl Drop for TlsEntry {
    fn drop(&mut self) {
        self.ring.retired.store(true, Ordering::Release);
    }
}

thread_local! {
    static RINGS: RefCell<Vec<TlsEntry>> = const { RefCell::new(Vec::new()) };
}

/// Run `f` against the calling thread's ring for `registry`, creating
/// and registering the ring on first use. Entries for dead registries
/// are pruned in passing. The closure form keeps the hot path free of
/// `Arc` refcount traffic — this runs on every counter bump, so a pair
/// of atomic RMWs per call is a measurable share of a cheap emit.
#[inline]
pub(crate) fn with_ring<R>(registry: &Arc<BufferRegistry>, f: impl FnOnce(&ThreadRing) -> R) -> R {
    RINGS.with(|cell| {
        let mut entries = cell.borrow_mut();
        if let Some(e) = entries.iter().find(|e| e.registry_id == registry.id) {
            return f(&e.ring);
        }
        entries.retain(|e| e.registry.strong_count() > 0);
        let ring = registry.register();
        entries.push(TlsEntry {
            registry_id: registry.id,
            registry: Arc::downgrade(registry),
            ring: ring.clone(),
        });
        f(&ring)
    })
}

/// The calling thread's ring for `registry` as an owned handle (tests
/// and cold paths; hot paths use [`with_ring`]).
#[cfg(test)]
pub(crate) fn ring_for(registry: &Arc<BufferRegistry>) -> Arc<ThreadRing> {
    with_ring(registry, |_| ());
    RINGS.with(|cell| {
        cell.borrow()
            .iter()
            .find(|e| e.registry_id == registry.id)
            .map(|e| e.ring.clone())
            .expect("with_ring just registered this ring")
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::real_clock;

    fn bus_with(registry: &Arc<BufferRegistry>, cap: usize) -> EventBus {
        let mut bus = EventBus::with_clock(cap, true, real_clock());
        bus.attach_buffers(registry.clone());
        bus
    }

    #[test]
    fn push_drain_republishes_in_order() {
        let reg = BufferRegistry::new(64);
        let bus = bus_with(&reg, 256);
        let ring = ring_for(&reg);
        for i in 0..10u64 {
            assert!(ring.push(i * 100, EventKind::Register, i, i * 2));
        }
        let evs = bus.recent(64);
        assert_eq!(evs.len(), 10);
        for (i, ev) in evs.iter().enumerate() {
            assert_eq!(ev.kind, EventKind::Register);
            assert_eq!(ev.id, i as u64);
            assert_eq!(ev.t_ns, i as u64 * 100);
        }
    }

    #[test]
    fn full_ring_rejects_until_drained() {
        let reg = BufferRegistry::new(64);
        let bus = bus_with(&reg, 256);
        let ring = ring_for(&reg);
        for i in 0..64u64 {
            assert!(ring.push(i, EventKind::Begin, i, 0));
        }
        assert!(!ring.push(64, EventKind::Begin, 64, 0), "ring is full");
        reg.drain_into(&bus);
        assert!(ring.push(64, EventKind::Begin, 64, 0), "drain freed space");
        assert_eq!(bus.recent(256).len(), 65);
    }

    #[test]
    fn paused_drain_is_a_noop_and_overflow_is_exact() {
        let reg = BufferRegistry::new(64);
        let bus = bus_with(&reg, 256);
        let ring = ring_for(&reg);
        let pause = reg.pause();
        for i in 0..80u64 {
            if !ring.push(i, EventKind::Complete, i, 0) {
                reg.drain_into(&bus); // no-op: drains are paused
                if !ring.push(i, EventKind::Complete, i, 0) {
                    ring.drop_one();
                }
            }
        }
        assert_eq!(reg.dropped(), 16, "64 fit, 16 dropped, exactly");
        assert_eq!(bus.emitted(), 0, "nothing published while paused");
        drop(pause);
        assert_eq!(bus.recent(256).len(), 64);
        assert_eq!(reg.dropped(), 16);
    }

    #[test]
    fn retired_ring_is_flushed_then_pruned() {
        let reg = BufferRegistry::new(64);
        let bus = bus_with(&reg, 256);
        // A plain join, not a scope: a scoped thread counts as finished
        // before its thread-locals drop, so the ring might not be retired
        // yet when the drain below runs.
        let r = reg.clone();
        std::thread::spawn(move || {
            let ring = ring_for(&r);
            for i in 0..5u64 {
                assert!(ring.push(i, EventKind::Abort, i, 0));
            }
            // Thread exits with 5 undrained events in its buffer.
        })
        .join()
        .unwrap();
        assert_eq!(reg.ring_count(), 1);
        let evs = bus.recent(64);
        assert_eq!(evs.len(), 5, "exit did not lose buffered events");
        assert_eq!(reg.ring_count(), 0, "empty retired ring pruned");
        // Counters survive only while the ring does; exporters snapshot
        // through Obs, which drains before the ring can be pruned.
    }

    #[test]
    fn merge_is_time_ordered_across_threads() {
        let reg = BufferRegistry::new(64);
        let bus = bus_with(&reg, 256);
        std::thread::scope(|s| {
            for t in 0..3u64 {
                let reg = &reg;
                s.spawn(move || {
                    let ring = ring_for(reg);
                    for i in 0..10u64 {
                        // Interleaved stamps: thread t emits at t + 3*i.
                        assert!(ring.push(t + 3 * i, EventKind::LockWait, t, i));
                    }
                });
            }
        });
        let evs = bus.recent(64);
        assert_eq!(evs.len(), 30);
        for w in evs.windows(2) {
            assert!(w[0].t_ns <= w[1].t_ns, "drained stream is time-ordered");
        }
    }

    #[test]
    fn counter_tier_counts_are_exact_and_sampling_independent() {
        let reg = BufferRegistry::new(64);
        let ring = ring_for(&reg);
        let mut kept = 0;
        for _ in 0..1000 {
            ring.count(EventKind::RoRead);
            if ring.sample(4, None) {
                kept += 1;
            }
        }
        assert_eq!(reg.count(EventKind::RoRead), 1000);
        // Sequences 0, 16, 32, … 992 are kept: ceil(1000 / 16) of them.
        assert_eq!(kept, 63, "counter sampling keeps exactly 1 in 16");
    }

    #[test]
    fn rng_sampling_draws_from_the_injected_stream() {
        use crate::clock::SplitMixRng;
        let reg = BufferRegistry::new(64);
        let ring = ring_for(&reg);
        let rng: SharedRng = SplitMixRng::shared(7);
        let kept: Vec<bool> = (0..64).map(|_| ring.sample(2, Some(&rng))).collect();
        // Replaying the same seed replays the same keep/drop pattern.
        let rng2: SharedRng = SplitMixRng::shared(7);
        let replay: Vec<bool> = (0..64).map(|_| rng2.next_u64() & 3 == 0).collect();
        assert_eq!(kept, replay);
    }
}
