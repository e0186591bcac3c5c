//! The event taxonomy and the bus that records events.
//!
//! Recording uses two primitives and nothing else:
//!
//! * **Relaxed atomics for numbers.** Exact per-kind counts and the two
//!   sampling sequences (events, spans) live in `STRIPES` cache-line
//!   padded stripes; a thread bumps the stripe `thread_ordinal() %
//!   STRIPES`, and readers sum the stripes.
//! * **One leaf mutex for records.** An event that survives sampling is
//!   stamped and appended under the lock to a bounded ring that
//!   overwrites its oldest entry. Stamping under the lock keeps the ring
//!   in time order, and a reader copies whole events, never a half-written
//!   one. The lock is a leaf: while it is held the bus reads the clock
//!   and pushes, and takes no other lock and emits nothing.
//!
//! The disabled path — the common case — is a single load of the
//! `enabled` flag, fixed when the bus is built, and a disabled bus
//! allocates no ring.

use super::ObsConfig;
use crate::clock::{real_clock, SharedClock, SharedRng};
use crate::error::AbortReason;
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Number of event kinds (array size for per-kind counters).
pub const KIND_COUNT: usize = 13;

/// Which rung of the sampling ladder an event kind sits on. Every kind
/// is counted exactly on every emit; the tier decides what reaches the
/// ring. ("Counters only" is a sample shift of 64 or more.)
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// Published 1 in `2^event_sample_shift`.
    Sampled,
    /// Published on every emit (rare, load-bearing events: aborts, GC,
    /// reaper, discards).
    Always,
}

/// What happened.
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
    /// Default sampling tier. Lifecycle events that fire once (or more)
    /// per transaction are `Sampled`; rare, diagnosis-critical events are
    /// `Always`.
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
    /// Bus-wide sequence number (the count of events pushed before this
    /// one); strictly increasing.
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

/// Monotonic per-thread ordinal, from 1 (std's `ThreadId::as_u64` is
/// unstable).
pub fn thread_ordinal() -> u64 {
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

/// Counter stripes. Eight keep threads on separate lines at the thread
/// counts the engine targets; readers sum them.
pub const STRIPES: usize = 8;

/// A value alone on its 64-byte line(s): one stripe of [`Striped`], or a
/// hot field kept off its neighbours' lines.
#[derive(Default)]
#[repr(align(64))]
pub(crate) struct Padded<T>(pub(crate) T);

impl<T> std::ops::Deref for Padded<T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.0
    }
}

/// `STRIPES` padded copies of `T`: a writer bumps [`local`](Self::local),
/// the stripe of its thread group, with relaxed atomics, and a reader
/// sums over [`iter`](Self::iter). The engine's counters
/// ([`crate::Metrics`]), the bus's below and 2PL's token counters live
/// in one.
#[derive(Default)]
pub struct Striped<T>([Padded<T>; STRIPES]);

impl<T> Striped<T> {
    /// The calling thread's stripe: number `thread_ordinal() % STRIPES`.
    #[inline]
    pub fn local(&self) -> &T {
        &self.0[(thread_ordinal() % STRIPES as u64) as usize].0
    }

    /// Every stripe, in stripe-number order, for readers that sum or
    /// reset them.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.0.iter().map(|p| &p.0)
    }
}

/// One thread group's bus counters.
#[derive(Default)]
struct Stripe {
    counts: [AtomicU64; KIND_COUNT],
    event_seq: AtomicU64,
    span_seq: AtomicU64,
}

/// Keep 1 in `2^shift` draws: from the injected rng when there is one
/// (so a simulator seed replays the same keep/drop pattern), else from
/// the caller's sequence.
fn keep(seq: &AtomicU64, shift: u8, rng: Option<&SharedRng>) -> bool {
    if shift == 0 {
        return true;
    }
    if shift >= 64 {
        return false;
    }
    let draw = match rng {
        Some(rng) => rng.next_u64(),
        None => seq.fetch_add(1, Ordering::Relaxed),
    };
    draw & ((1u64 << shift) - 1) == 0
}

/// The bounded event ring: the newest `capacity` events, oldest first.
struct Ring {
    events: VecDeque<Event>,
    /// Events ever pushed: the next event's `seq`.
    pushed: u64,
}

/// The event bus. See the module docs.
pub struct EventBus {
    enabled: bool,
    event_shift: u8,
    span_shift: u8,
    /// Sampling source when injected (the simulator's seeded stream).
    rng: Option<SharedRng>,
    stripes: Striped<Stripe>,
    capacity: usize,
    ring: Mutex<Ring>,
    base: Instant,
    /// Stamp source: `t_ns` is this clock's now minus `base`. Under a
    /// simulated clock, event timestamps are virtual — which is what
    /// makes a replayed run's trace byte-equal.
    clock: SharedClock,
}

impl std::fmt::Debug for EventBus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventBus")
            .field("enabled", &self.enabled)
            .field("capacity", &self.capacity)
            .field("event_shift", &self.event_shift)
            .field("span_shift", &self.span_shift)
            .finish_non_exhaustive()
    }
}

impl EventBus {
    /// A bus keeping the newest `capacity` events (rounded up to a power
    /// of two, minimum 64), publishing every event when `enabled`.
    pub fn new(capacity: usize, enabled: bool) -> EventBus {
        let cfg = ObsConfig {
            events: enabled,
            event_capacity: capacity,
            event_sample_shift: 0,
            span_sample_shift: 0,
            ..ObsConfig::default()
        };
        Self::with_parts(&cfg, real_clock(), None)
    }

    /// The bus `cfg` describes, stamping from `clock` and sampling from
    /// `rng` when one is injected. The ring is allocated only when
    /// `cfg.events` is set.
    pub(crate) fn with_parts(
        cfg: &ObsConfig,
        clock: SharedClock,
        rng: Option<SharedRng>,
    ) -> EventBus {
        let capacity = match cfg.event_capacity {
            0 => 4096,
            n => n.max(64).next_power_of_two(),
        };
        let events = if cfg.events {
            VecDeque::with_capacity(capacity)
        } else {
            VecDeque::new()
        };
        EventBus {
            enabled: cfg.events,
            event_shift: cfg.event_sample_shift,
            span_shift: cfg.span_sample_shift,
            rng,
            stripes: Default::default(),
            capacity,
            ring: Mutex::new(Ring { events, pushed: 0 }),
            base: clock.now(),
            clock,
        }
    }

    /// Whether events are being recorded. One load — this is the
    /// entire cost of every instrumentation point when tracing is off.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    #[inline]
    fn stripe(&self) -> &Stripe {
        self.stripes.local()
    }

    /// Count `kind` and decide whether its event is published: always
    /// for `tier == Always`, 1 in `2^event_sample_shift` otherwise.
    pub(crate) fn sample(&self, kind: EventKind, tier: Tier) -> bool {
        let stripe = self.stripe();
        stripe.counts[kind as usize].fetch_add(1, Ordering::Relaxed);
        tier == Tier::Always || keep(&stripe.event_seq, self.event_shift, self.rng.as_ref())
    }

    /// A draw from the events sequence with no count and no event.
    pub(crate) fn phase_sample(&self) -> bool {
        keep(
            &self.stripe().event_seq,
            self.event_shift,
            self.rng.as_ref(),
        )
    }

    /// A draw from the spans sequence: 1 in `2^span_sample_shift`.
    pub(crate) fn span_sample(&self) -> bool {
        keep(&self.stripe().span_seq, self.span_shift, self.rng.as_ref())
    }

    /// Stamp `kind` and append it to the ring, overwriting the oldest
    /// event when full. The caller has already counted and sampled it.
    pub(crate) fn publish(&self, kind: EventKind, id: u64, aux: u64) {
        let thread = thread_ordinal();
        let mut ring = self.ring.lock();
        let t_ns = self
            .clock
            .now()
            .saturating_duration_since(self.base)
            .as_nanos() as u64;
        if ring.events.len() == self.capacity {
            ring.events.pop_front();
        }
        let seq = ring.pushed;
        ring.pushed += 1;
        ring.events.push_back(Event {
            seq,
            t_ns,
            kind,
            thread,
            id,
            aux,
        });
    }

    /// Record an event if the bus is enabled, bypassing sampling (the
    /// ring's own tests; engine code records through [`super::Obs`]).
    #[cfg(test)]
    pub(crate) fn emit(&self, kind: EventKind, id: u64, aux: u64) {
        if self.enabled() {
            self.publish(kind, id, aux);
        }
    }

    /// Exact per-kind emit counts, summed over the stripes.
    pub fn counts(&self) -> [u64; KIND_COUNT] {
        let mut out = [0u64; KIND_COUNT];
        for stripe in self.stripes.iter() {
            for (dst, src) in out.iter_mut().zip(&stripe.counts) {
                *dst += src.load(Ordering::Relaxed);
            }
        }
        out
    }

    /// Total events ever published into the ring (including overwritten
    /// ones).
    pub fn emitted(&self) -> u64 {
        self.ring.lock().pushed
    }

    /// The most recent `n` events, oldest first.
    pub fn recent(&self, n: usize) -> Vec<Event> {
        let mut out = Vec::with_capacity(n.min(self.capacity));
        let ring = self.ring.lock();
        let skip = ring.events.len().saturating_sub(n);
        out.extend(ring.events.iter().skip(skip));
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
    fn counts_are_exact_across_threads_and_sampling_keeps_one_in_2_pow_shift() {
        let cfg = ObsConfig::default().with_events(true).with_sample_shift(4);
        let bus = EventBus::with_parts(&cfg, real_clock(), None);
        let kept: usize = std::thread::scope(|s| {
            let workers: Vec<_> = (0..STRIPES + 1)
                .map(|_| {
                    s.spawn(|| {
                        (0..160)
                            .filter(|_| bus.sample(EventKind::RoRead, Tier::Sampled))
                            .count()
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).sum()
        });
        // Every sample is counted, whichever stripe it landed on.
        assert_eq!(bus.counts()[EventKind::RoRead as usize], 160 * 9);
        // Each stripe's sequence keeps 0, 16, 32, …; however the nine
        // threads share the eight stripes, every stripe sees a multiple
        // of 160 draws and keeps exactly a sixteenth of them.
        assert_eq!(kept, 90);
    }

    #[test]
    fn rng_sampling_draws_from_the_injected_stream() {
        use crate::clock::{SimRng, SplitMixRng};
        let cfg = ObsConfig::default().with_events(true).with_sample_shift(2);
        let bus = EventBus::with_parts(&cfg, real_clock(), Some(SplitMixRng::shared(7)));
        let kept: Vec<bool> = (0..64).map(|_| bus.phase_sample()).collect();
        // Replaying the same seed replays the same keep/drop pattern.
        let rng = SplitMixRng::shared(7);
        let replay: Vec<bool> = (0..64).map(|_| rng.next_u64() & 3 == 0).collect();
        assert_eq!(kept, replay);
    }

    #[test]
    fn kinds_are_numbered_and_named() {
        for (i, k) in EventKind::all().into_iter().enumerate() {
            assert_eq!(k as usize, i, "EventKind::all() must be numeric order");
            assert!(!k.name().is_empty());
        }
    }

    #[test]
    fn tier_table_covers_every_kind() {
        // Rare diagnosis-critical kinds publish always; per-txn lifecycle
        // kinds are sampled.
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
