//! Lock-free MPSC ring-buffer event bus for structured lifecycle events.
//!
//! Writers (transaction threads, the reaper, GC) claim a slot with one
//! `fetch_add` on a global head ticket and publish the event fields with
//! a per-slot sequence pair (`start`/`done`) — a seqlock written entirely
//! with safe atomics (the workspace denies `unsafe`). Readers are rare
//! (flight-recorder dumps, tests): a slot is accepted only when both
//! sequence words equal the expected ticket, so a slot being overwritten
//! concurrently is *skipped*, never misread. Under an extreme wrap race
//! (a writer lapping the ring mid-read) an event could in principle carry
//! fields from two different writes of the *same slot*; the ring is sized
//! far above any burst the dump window needs, and post-mortem output is
//! best-effort by design, so this is documented rather than prevented.
//!
//! The disabled path — the common case, and the one the tentpole budget
//! is written against — is a single load of the `enabled` flag, fixed
//! when the bus is built.

use crate::clock::{real_clock, SharedClock};
use crate::error::AbortReason;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Number of event kinds (array size for per-kind counters).
pub const KIND_COUNT: usize = 13;

/// Which rung of the sampling ladder an event kind sits on.
///
/// * `Counter` — only the per-kind counter is bumped; no ring write ever.
/// * `Sampled` — counted always, published 1 in `2^event_sample_shift`.
/// * `Always` — counted and published on every emit (rare, load-bearing
///   events: aborts, GC, reaper, discards).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// Counter only; never published to the ring.
    Counter,
    /// Counted always; published 1 in `2^event_sample_shift`.
    Sampled,
    /// Counted and published unconditionally.
    Always,
}

/// What happened. Encoded as one byte inside a packed slot word.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum EventKind {
    /// A read-write transaction began (`id` = protocol actor id).
    Begin = 0,
    /// `VCregister` assigned a transaction number (`id` = tn).
    Register = 1,
    /// A lock acquisition had to wait (`id` = lock token, `aux` = object).
    LockWait = 2,
    /// A read/write blocked on a pending write or wound wait
    /// (`id` = tn or token, `aux` = object).
    Blocked = 3,
    /// OCC validation ran (`id` = actor, `aux` = 1 pass / 0 fail).
    Validate = 4,
    /// A commit record was appended to the WAL (`id` = tn, `aux` = bytes).
    WalAppend = 5,
    /// `VCcomplete` made a transaction visible (`id` = tn, `aux` = new vtnc).
    Complete = 6,
    /// A transaction aborted (`id` = actor, `aux` = [`abort_reason_code`]).
    Abort = 7,
    /// `vtnc` advanced (`id` = new vtnc, `aux` = previous vtnc).
    VtncAdvance = 8,
    /// GC pruned versions (`id` = watermark, `aux` = versions pruned).
    GcPrune = 9,
    /// The stall reaper force-discarded expired registrations
    /// (`id` = discarded count, `aux` = new vtnc).
    ReaperFire = 10,
    /// `VCdiscard` dropped a registration (`id` = tn, `aux` = new vtnc).
    Discard = 11,
    /// A read-only snapshot read completed (`id` = snapshot tn,
    /// `aux` = object). Sampled — RO reads are the highest-frequency
    /// instrumentation point in the engine.
    RoRead = 12,
}

impl EventKind {
    /// Decode from the byte stored in a slot. `None` for garbage (torn
    /// slot that slipped past the sequence check; callers drop it).
    pub fn from_u8(b: u8) -> Option<EventKind> {
        Some(match b {
            0 => EventKind::Begin,
            1 => EventKind::Register,
            2 => EventKind::LockWait,
            3 => EventKind::Blocked,
            4 => EventKind::Validate,
            5 => EventKind::WalAppend,
            6 => EventKind::Complete,
            7 => EventKind::Abort,
            8 => EventKind::VtncAdvance,
            9 => EventKind::GcPrune,
            10 => EventKind::ReaperFire,
            11 => EventKind::Discard,
            12 => EventKind::RoRead,
            _ => return None,
        })
    }

    /// Default sampling tier. Lifecycle events that fire once (or more)
    /// per transaction are `Sampled`; rare, diagnosis-critical events are
    /// `Always`. No kind defaults to `Counter`, but [`crate::obs::Obs`]
    /// treats a sample shift of 255 as "counters only" for any kind.
    pub fn tier(self) -> Tier {
        match self {
            EventKind::Begin
            | EventKind::Register
            | EventKind::LockWait
            | EventKind::Blocked
            | EventKind::Validate
            | EventKind::WalAppend
            | EventKind::Complete
            | EventKind::VtncAdvance
            | EventKind::RoRead => Tier::Sampled,
            EventKind::Abort | EventKind::GcPrune | EventKind::ReaperFire | EventKind::Discard => {
                Tier::Always
            }
        }
    }

    /// Stable lower-snake name used in post-mortem JSON.
    pub fn name(self) -> &'static str {
        match self {
            EventKind::Begin => "begin",
            EventKind::Register => "register",
            EventKind::LockWait => "lock_wait",
            EventKind::Blocked => "blocked",
            EventKind::Validate => "validate",
            EventKind::WalAppend => "wal_append",
            EventKind::Complete => "complete",
            EventKind::Abort => "abort",
            EventKind::VtncAdvance => "vtnc_advance",
            EventKind::GcPrune => "gc_prune",
            EventKind::ReaperFire => "reaper_fire",
            EventKind::Discard => "discard",
            EventKind::RoRead => "ro_read",
        }
    }

    /// All kinds, in numeric order (used by exporters and counters).
    pub fn all() -> [EventKind; KIND_COUNT] {
        [
            EventKind::Begin,
            EventKind::Register,
            EventKind::LockWait,
            EventKind::Blocked,
            EventKind::Validate,
            EventKind::WalAppend,
            EventKind::Complete,
            EventKind::Abort,
            EventKind::VtncAdvance,
            EventKind::GcPrune,
            EventKind::ReaperFire,
            EventKind::Discard,
            EventKind::RoRead,
        ]
    }
}

/// Stable numeric code for an abort reason, stored in `Abort` event `aux`.
/// Codes 9 and 11 belonged to removed variants and are never reused.
pub fn abort_reason_code(r: &AbortReason) -> u64 {
    match r {
        AbortReason::TimestampConflict => 1,
        AbortReason::Deadlock => 2,
        AbortReason::ValidationFailed => 3,
        AbortReason::WaitTimeout => 4,
        AbortReason::BaselineConflict => 5,
        AbortReason::UserRequested => 6,
        AbortReason::Reaped => 7,
        AbortReason::LogFailed => 8,
        AbortReason::DeadlineExceeded => 10,
    }
}

/// Reverse of [`abort_reason_code`] for rendering dumps.
pub fn abort_reason_name(code: u64) -> &'static str {
    match code {
        1 => "timestamp_conflict",
        2 => "deadlock",
        3 => "validation_failed",
        4 => "wait_timeout",
        5 => "baseline_conflict",
        6 => "user_requested",
        7 => "reaped",
        8 => "log_failed",
        10 => "deadline_exceeded",
        _ => "unknown",
    }
}

/// A decoded event read back out of the ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Global sequence number (ring ticket); strictly increasing.
    pub seq: u64,
    /// Nanoseconds since the bus was created.
    pub t_ns: u64,
    /// What happened.
    pub kind: EventKind,
    /// Small per-thread ordinal (assigned on first emit from a thread).
    pub thread: u64,
    /// Primary actor id — tn for version-control events, lock token for
    /// 2PL, snapshot number for RO reads. Kind-dependent; see [`EventKind`].
    pub id: u64,
    /// Kind-dependent auxiliary payload (object id, reason code, vtnc…).
    pub aux: u64,
}

/// One ring slot: a `start`/`done` sequence pair around the payload words.
#[derive(Default)]
struct Slot {
    start: AtomicU64,
    done: AtomicU64,
    t_ns: AtomicU64,
    kind_thread: AtomicU64,
    id: AtomicU64,
    aux: AtomicU64,
}

/// Monotonic per-thread ordinal (std's `ThreadId::as_u64` is unstable).
pub(crate) fn thread_ordinal() -> u64 {
    use std::cell::Cell;
    static NEXT: AtomicU64 = AtomicU64::new(1);
    thread_local! {
        static ORDINAL: Cell<u64> = const { Cell::new(0) };
    }
    ORDINAL.with(|c| {
        let v = c.get();
        if v != 0 {
            v
        } else {
            let v = NEXT.fetch_add(1, Ordering::Relaxed);
            c.set(v);
            v
        }
    })
}

/// The ring-buffer event bus. See the module docs for the protocol.
pub struct EventBus {
    enabled: bool,
    head: AtomicU64,
    mask: u64,
    slots: Box<[Slot]>,
    base: Instant,
    /// Stamp source: `t_ns` is this clock's now minus `base`. Under a
    /// simulated clock, event timestamps are virtual — which is what
    /// makes a replayed run's trace byte-equal.
    clock: SharedClock,
    /// Per-thread buffer registry feeding this bus (buffered publish
    /// mode). Readers flush it before snapshotting so `recent` and
    /// `emitted` reflect everything emitted so far.
    buffers: Option<Arc<super::buffer::BufferRegistry>>,
}

impl std::fmt::Debug for EventBus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventBus")
            .field("enabled", &self.enabled)
            .field("capacity", &self.slots.len())
            .field("head", &self.head.load(Ordering::Relaxed))
            .finish()
    }
}

impl EventBus {
    /// Create a bus with at least `capacity` slots (rounded up to a power
    /// of two, minimum 64), initially `enabled` per the flag.
    pub fn new(capacity: usize, enabled: bool) -> EventBus {
        Self::with_clock(capacity, enabled, real_clock())
    }

    /// [`new`](Self::new) stamping timestamps from an injected clock.
    pub fn with_clock(capacity: usize, enabled: bool, clock: SharedClock) -> EventBus {
        let cap = capacity.max(64).next_power_of_two();
        let mut slots = Vec::with_capacity(cap);
        slots.resize_with(cap, Slot::default);
        EventBus {
            enabled,
            head: AtomicU64::new(0),
            mask: (cap - 1) as u64,
            slots: slots.into_boxed_slice(),
            base: clock.now(),
            clock,
            buffers: None,
        }
    }

    /// Attach the per-thread buffer registry whose events drain into this
    /// bus (called once at [`super::Obs`] construction).
    pub(crate) fn attach_buffers(&mut self, registry: Arc<super::buffer::BufferRegistry>) {
        self.buffers = Some(registry);
    }

    /// Nanoseconds since bus creation on the bus clock — the timestamp
    /// domain of every event's `t_ns`.
    #[inline]
    pub(crate) fn now_ns(&self) -> u64 {
        self.clock
            .now()
            .saturating_duration_since(self.base)
            .as_nanos() as u64
    }

    /// Flush any undrained per-thread buffers into the ring.
    pub fn drain(&self) {
        if let Some(b) = &self.buffers {
            b.drain_into(self);
        }
    }

    /// Whether events are being recorded. One load — this is the
    /// entire cost of every instrumentation point when tracing is off.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Total events ever published into the ring (including overwritten
    /// ones). Flushes pending per-thread buffers first.
    pub fn emitted(&self) -> u64 {
        self.drain();
        self.head.load(Ordering::Relaxed)
    }

    /// Record an event if the bus is enabled. Engine code records
    /// through [`Obs`](super::Obs), which buffers per thread; this
    /// direct publish exists for the ring's own tests.
    #[cfg(test)]
    pub(crate) fn emit(&self, kind: EventKind, id: u64, aux: u64) {
        if !self.enabled() {
            return;
        }
        self.emit_always(kind, id, aux);
    }

    /// Record an event regardless of the enabled flag.
    #[cfg(test)]
    pub(crate) fn emit_always(&self, kind: EventKind, id: u64, aux: u64) {
        self.publish_raw(self.now_ns(), kind, thread_ordinal(), id, aux);
    }

    /// Publish an already-stamped event into the ring: the buffer
    /// drainer republishes events with the timestamp and thread captured
    /// at emit time.
    pub(crate) fn publish_raw(&self, t_ns: u64, kind: EventKind, thread: u64, id: u64, aux: u64) {
        let ticket = self.head.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[(ticket & self.mask) as usize];
        let seq = ticket.wrapping_add(1);
        // Seqlock write: start first, payload, done last (Release so a
        // reader that sees `done == seq` also sees the payload stores).
        slot.start.store(seq, Ordering::Release);
        slot.t_ns.store(t_ns, Ordering::Relaxed);
        let packed = (thread << 8) | kind as u64;
        slot.kind_thread.store(packed, Ordering::Relaxed);
        slot.id.store(id, Ordering::Relaxed);
        slot.aux.store(aux, Ordering::Relaxed);
        slot.done.store(seq, Ordering::Release);
    }

    /// Try to read the event at global ticket `ticket`. `None` if the slot
    /// was overwritten, is mid-write, or decodes to garbage.
    fn read_ticket(&self, ticket: u64) -> Option<Event> {
        let slot = &self.slots[(ticket & self.mask) as usize];
        let seq = ticket.wrapping_add(1);
        if slot.done.load(Ordering::Acquire) != seq {
            return None;
        }
        let t_ns = slot.t_ns.load(Ordering::Relaxed);
        let kind_thread = slot.kind_thread.load(Ordering::Relaxed);
        let id = slot.id.load(Ordering::Relaxed);
        let aux = slot.aux.load(Ordering::Relaxed);
        if slot.start.load(Ordering::Acquire) != seq {
            return None; // a writer began overwriting while we read
        }
        let kind = EventKind::from_u8((kind_thread & 0xff) as u8)?;
        Some(Event {
            seq: ticket,
            t_ns,
            kind,
            thread: kind_thread >> 8,
            id,
            aux,
        })
    }

    /// Snapshot the most recent `n` events, oldest first. Flushes pending
    /// per-thread buffers first; slots that are mid-write or already
    /// lapped are skipped (best-effort by design).
    pub fn recent(&self, n: usize) -> Vec<Event> {
        self.drain();
        let head = self.head.load(Ordering::Acquire);
        let n = (n as u64).min(head).min(self.slots.len() as u64);
        let mut out = Vec::with_capacity(n as usize);
        for ticket in (head - n)..head {
            if let Some(ev) = self.read_ticket(ticket) {
                out.push(ev);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_bus_records_nothing() {
        let bus = EventBus::new(64, false);
        bus.emit(EventKind::Begin, 1, 0);
        assert_eq!(bus.emitted(), 0);
        assert!(bus.recent(10).is_empty());
    }

    #[test]
    fn records_and_reads_back_in_order() {
        let bus = EventBus::new(64, true);
        for i in 0..10u64 {
            bus.emit(EventKind::Register, i, i * 2);
        }
        let evs = bus.recent(10);
        assert_eq!(evs.len(), 10);
        for (i, ev) in evs.iter().enumerate() {
            assert_eq!(ev.kind, EventKind::Register);
            assert_eq!(ev.id, i as u64);
            assert_eq!(ev.aux, i as u64 * 2);
            assert_eq!(ev.seq, i as u64);
        }
        // Timestamps are monotone non-decreasing in emission order.
        for w in evs.windows(2) {
            assert!(w[0].t_ns <= w[1].t_ns);
        }
    }

    #[test]
    fn ring_overwrites_oldest() {
        let bus = EventBus::new(64, true);
        for i in 0..200u64 {
            bus.emit(EventKind::Complete, i, 0);
        }
        let evs = bus.recent(1000);
        assert_eq!(evs.len(), 64, "only the last capacity events survive");
        assert_eq!(evs.first().unwrap().id, 200 - 64);
        assert_eq!(evs.last().unwrap().id, 199);
    }

    #[test]
    fn emit_always_ignores_disabled() {
        let bus = EventBus::new(64, false);
        bus.emit_always(EventKind::ReaperFire, 3, 7);
        let evs = bus.recent(10);
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].kind, EventKind::ReaperFire);
    }

    #[test]
    fn concurrent_writers_never_yield_garbage() {
        let bus = std::sync::Arc::new(EventBus::new(128, true));
        std::thread::scope(|s| {
            for t in 0..4 {
                let bus = bus.clone();
                s.spawn(move || {
                    for i in 0..5_000u64 {
                        bus.emit(EventKind::LockWait, t * 10_000 + i, i);
                    }
                });
            }
            for _ in 0..50 {
                for ev in bus.recent(128) {
                    // Every accepted event must decode to a valid kind and
                    // a coherent (id, aux) pair from a single writer.
                    assert_eq!(ev.kind, EventKind::LockWait);
                    assert_eq!(ev.id % 10_000, ev.aux);
                }
            }
        });
        assert_eq!(bus.emitted(), 20_000);
    }

    #[test]
    fn kind_roundtrip_and_names() {
        for (i, k) in EventKind::all().into_iter().enumerate() {
            assert_eq!(k as usize, i, "EventKind::all() must be numeric order");
            assert_eq!(EventKind::from_u8(k as u8), Some(k));
            assert!(!k.name().is_empty());
        }
        assert_eq!(EventKind::from_u8(KIND_COUNT as u8), None);
        assert_eq!(EventKind::from_u8(200), None);
    }

    #[test]
    fn tier_table_covers_every_kind() {
        // Rare diagnosis-critical kinds publish always; per-txn lifecycle
        // kinds are sampled. (No kind is counter-only by default.)
        for k in EventKind::all() {
            match k {
                EventKind::Abort
                | EventKind::GcPrune
                | EventKind::ReaperFire
                | EventKind::Discard => assert_eq!(k.tier(), Tier::Always),
                _ => assert_eq!(k.tier(), Tier::Sampled),
            }
        }
    }
}
