//! Engine observability: structured events, per-phase latency, gauges,
//! transaction traces, contention attribution, flight recorder,
//! exporters.
//!
//! The paper's claims are quantitative, and flat end-of-run counters
//! cannot show *when* vtnc lags, *which* transaction stalled the VCQueue,
//! or *why* a deadlock ring formed. This layer adds that visibility while
//! keeping the disabled hot path to a single load per instrumentation
//! point.
//!
//! One recording discipline holds throughout: numbers are relaxed
//! atomics (per-kind counters, sampling sequences, histogram buckets, the
//! blame ledger's phase table), and anything that holds records sits
//! behind one `Mutex` — the event ring, the top-K tables, the blame
//! rows, the span registry. Every such mutex is a leaf: while it is held
//! nothing else is locked and nothing is emitted, so recording can never
//! join a lock cycle with the engine.
//!
//! * [`event`] — the event taxonomy and the [`EventBus`]: striped exact
//!   counters, the sampling ladder (see [`event::Tier`]: events published
//!   1 in `2^event_sample_shift`, spans started 1 in
//!   `2^span_sample_shift`, drawn from the injected [`SharedRng`] when
//!   one is configured — which keeps `mvcc-sim` replays byte-stable),
//!   and the bounded ring readers consume.
//! * [`trace`] — end-to-end transaction tracing: span trees across
//!   retries, lock waits, VCQueue residency, WAL appends, and 2PC legs.
//! * [`phases`] — engine-side latency histograms on
//!   [`mvcc_storage::AtomicHistogram`].
//! * [`gauges`] — point-in-time state.
//! * [`topk`] and [`blame`] — contention attribution: hot keys and
//!   shards, and who made whom wait.
//! * [`recorder`] — post-mortem JSON dumps on deadlock victimization,
//!   reaper fire, recovery, and invariant violations.
//! * [`export`] — Prometheus-text, JSON and Chrome `trace_event`
//!   emitters over all of the above.

pub mod blame;
pub mod event;
pub mod export;
pub mod gauges;
pub mod phases;
pub mod recorder;
pub mod topk;
pub mod trace;

pub use blame::{BlameLedger, BlameRow, BlameSnapshot, TxnPhase, WaitPoint, WAIT_POINTS};
pub use event::{
    abort_reason_code, abort_reason_name, thread_ordinal, Event, EventBus, EventKind, Tier,
    KIND_COUNT,
};
pub use export::{
    chrome_trace_json, json_snapshot, parse_exposition, profile_json, prometheus_text, EventCounts,
    SCHEMA_VERSION,
};
pub use gauges::{GaugeSample, VcView};
pub use phases::{PhaseHistograms, PhaseSnapshot};
pub use recorder::{DumpContext, FlightRecorder, FlightTrigger};
pub use topk::{ContentionTopK, SketchEntry, SpaceSaving};
pub use trace::{Span, SpanRegistry, TraceCtx, TraceSnapshot};

use crate::clock::{real_clock, SharedClock, SharedRng};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Observability configuration, embedded in
/// [`DbConfig`](crate::config::DbConfig).
#[derive(Debug, Clone)]
pub struct ObsConfig {
    /// Record lifecycle events (and phase latencies). Off by default:
    /// the disabled path is one load per instrumentation point.
    pub events: bool,
    /// Event ring capacity (rounded up to a power of two, min 64). Zero
    /// selects the default (4096).
    pub event_capacity: usize,
    /// Directory for flight-recorder post-mortem dumps; `None` disarms
    /// the recorder. Each post-mortem includes the last 512 events.
    pub flight_dir: Option<PathBuf>,
    /// Sampling shift of the events tier: sampled-tier kinds publish 1
    /// in `2^event_sample_shift` (counters stay exact regardless).
    /// Default 4 (1 in 16). Zero publishes every event; 64 or more
    /// publishes none (counters only).
    pub event_sample_shift: u8,
    /// Sampling shift of the spans tier: with events on, 1 in
    /// `2^span_sample_shift` transactions is auto-traced end to end.
    /// Default 10 (1 in 1024). Zero traces every transaction.
    pub span_sample_shift: u8,
    /// Contention attribution: hot-key/hot-shard top-K tables (64 slots
    /// each) plus the blocking-blame ledger (256 rows). Off by default;
    /// when off, attribution state is never allocated and feed sites see
    /// `None`.
    pub attribution: bool,
}

/// Trailing events in each flight-recorder post-mortem.
const FLIGHT_EVENTS: usize = 512;

/// Slots in each top-K contention sketch (keys, shards, blockers).
const ATTR_KEYS: usize = 64;

/// Row budget of the blame ledger's folded profile.
const ATTR_ROWS: usize = 256;

impl Default for ObsConfig {
    fn default() -> Self {
        ObsConfig {
            events: false,
            event_capacity: 0,
            flight_dir: None,
            event_sample_shift: 4,
            span_sample_shift: 10,
            attribution: false,
        }
    }
}

impl ObsConfig {
    /// Enable event recording.
    pub fn with_events(mut self, on: bool) -> Self {
        self.events = on;
        self
    }

    /// Arm the flight recorder, writing post-mortems into `dir`.
    pub fn with_flight_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.flight_dir = Some(dir.into());
        self
    }

    /// Publish only 1 in `2^shift` sampled-tier events (0 = publish all).
    pub fn with_sample_shift(mut self, shift: u8) -> Self {
        self.event_sample_shift = shift;
        self
    }

    /// Auto-trace 1 in `2^shift` transactions (0 = trace all).
    pub fn with_span_sample_shift(mut self, shift: u8) -> Self {
        self.span_sample_shift = shift;
        self
    }

    /// Enable contention attribution (top-K tables + blame ledger).
    pub fn with_attribution(mut self, on: bool) -> Self {
        self.attribution = on;
        self
    }
}

/// The contention-attribution state: hot-key/hot-shard top-K tables and
/// the blocking-blame ledger. Allocated only when
/// [`ObsConfig::attribution`] is set; feed sites check
/// [`Obs::attr`] (an `Option`) and skip everything when disabled.
pub struct Attribution {
    topk: ContentionTopK,
    blame: BlameLedger,
}

impl Attribution {
    fn new() -> Attribution {
        Attribution {
            topk: ContentionTopK::new(ATTR_KEYS, ATTR_KEYS.clamp(8, 32)),
            blame: BlameLedger::new(ATTR_ROWS, ATTR_KEYS),
        }
    }

    /// The hot-key / hot-shard tables.
    pub fn topk(&self) -> &ContentionTopK {
        &self.topk
    }

    /// The blocking-blame ledger.
    pub fn blame(&self) -> &BlameLedger {
        &self.blame
    }

    /// Copy out everything the exporters need.
    pub fn snapshot(&self) -> AttrSnapshot {
        AttrSnapshot {
            hot_keys: self.topk.hot_keys(usize::MAX),
            hot_shards: self.topk.hot_shards(usize::MAX),
            blame: self.blame.snapshot(),
        }
    }

    /// Clear all attribution state (between experiment phases).
    pub fn reset(&self) {
        self.topk.reset();
        self.blame.reset();
    }
}

impl std::fmt::Debug for Attribution {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Attribution").finish_non_exhaustive()
    }
}

/// Point-in-time copy of the attribution state, consumed by
/// [`profile_json`], [`prometheus_text`], and the flight recorder.
#[derive(Debug, Clone, Default)]
pub struct AttrSnapshot {
    /// Hottest keys, worst first (contended-ns, then hits).
    pub hot_keys: Vec<SketchEntry>,
    /// Hottest lock shards, worst first.
    pub hot_shards: Vec<SketchEntry>,
    /// The folded blame profile.
    pub blame: BlameSnapshot,
}

/// The per-engine observability hub: event bus + phase histograms +
/// trace registry + flight recorder + attribution. One `Arc<Obs>` is
/// shared by the context, the version-control instance, and the protocol.
pub struct Obs {
    events: EventBus,
    phases: PhaseHistograms,
    recorder: FlightRecorder,
    clock: SharedClock,
    tracer: Arc<SpanRegistry>,
    attr: Option<Arc<Attribution>>,
}

impl std::fmt::Debug for Obs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Obs")
            .field("events", &self.events)
            .finish_non_exhaustive()
    }
}

impl Obs {
    /// Build from config, stamping with the wall clock.
    pub fn new(cfg: &ObsConfig) -> Obs {
        Self::with_clock(cfg, real_clock())
    }

    /// Build from config with an injected time source.
    pub fn with_clock(cfg: &ObsConfig, clock: SharedClock) -> Obs {
        Self::with_parts(cfg, clock, None)
    }

    /// Build from config with an injected time source and sampling rng.
    /// The engine passes [`crate::config::DbConfig`]'s `clock` and `rng`
    /// so event timestamps follow virtual time and sampling decisions
    /// replay with the seed under simulation.
    pub fn with_parts(cfg: &ObsConfig, clock: SharedClock, rng: Option<SharedRng>) -> Obs {
        Obs {
            events: EventBus::with_parts(cfg, clock.clone(), rng),
            phases: PhaseHistograms::new(),
            recorder: FlightRecorder::new(cfg.flight_dir.clone(), FLIGHT_EVENTS),
            tracer: Arc::new(SpanRegistry::new(clock.clone())),
            clock,
            attr: cfg.attribution.then(|| Arc::new(Attribution::new())),
        }
    }

    /// Whether recording is on. One load — every instrumentation point
    /// checks this (or calls a method that does) before paying
    /// anything else.
    #[inline]
    pub fn on(&self) -> bool {
        self.events.enabled()
    }

    /// Emit an event on its kind's default tier (no-op when disabled):
    /// the counter always advances; `Always` kinds publish; `Sampled`
    /// kinds publish 1 in `2^event_sample_shift`.
    #[inline]
    pub fn emit(&self, kind: EventKind, id: u64, aux: u64) {
        if self.on() {
            self.record(kind, id, aux, kind.tier());
        }
    }

    /// Emit unconditionally (counter still advances) regardless of the
    /// kind's tier — for rare events a post-mortem must never miss, like
    /// the fatal lock wait that closed a deadlock cycle.
    #[inline]
    pub fn emit_always(&self, kind: EventKind, id: u64, aux: u64) {
        if self.on() {
            self.record(kind, id, aux, Tier::Always);
        }
    }

    fn record(&self, kind: EventKind, id: u64, aux: u64, tier: Tier) {
        if self.events.sample(kind, tier) {
            self.events.publish(kind, id, aux);
        }
    }

    /// Make (and count) the sampling decision for `kind` without
    /// emitting. Phase-timer sites decide *before* a phase so the
    /// dropped path never reads the clock; pair with
    /// [`publish`](Self::publish) at phase end.
    #[inline]
    pub fn sample(&self, kind: EventKind) -> bool {
        self.on() && self.events.sample(kind, kind.tier())
    }

    /// Make a bare sampling draw with no counter and no event — for
    /// phase-histogram sites whose entire cost *is* the measurement
    /// (clock reads, stamp lookups): the dropped path pays one relaxed
    /// increment and nothing else. Shares the sampling sequence (and the
    /// injected rng, when present) with [`sample`](Self::sample).
    #[inline]
    pub fn phase_sample(&self) -> bool {
        self.on() && self.events.phase_sample()
    }

    /// Publish an event whose sampling decision was already made (and
    /// counted) by [`sample`](Self::sample).
    #[inline]
    pub fn publish(&self, kind: EventKind, id: u64, aux: u64) {
        if self.on() {
            self.events.publish(kind, id, aux);
        }
    }

    /// Start a phase timer for `kind`: `Some(now)` when this phase's
    /// event survives sampling, `None` otherwise — the dropped path
    /// never reads the clock. The per-kind counter advances either way.
    #[inline]
    pub fn phase_timer(&self, kind: EventKind) -> Option<Instant> {
        if self.sample(kind) {
            Some(self.clock.now())
        } else {
            None
        }
    }

    /// Whether to auto-trace the next transaction (spans tier): with
    /// events on, 1 in `2^span_sample_shift`.
    #[inline]
    pub fn span_sampled(&self) -> bool {
        self.on() && self.events.span_sample()
    }

    /// Exact per-kind emit count (advances on every emit, independent
    /// of sampling).
    pub fn count(&self, kind: EventKind) -> u64 {
        self.counts()[kind as usize]
    }

    /// All per-kind counts at once.
    pub fn counts(&self) -> [u64; KIND_COUNT] {
        self.events.counts()
    }

    /// Everything the exporters need about events in one snapshot:
    /// exact per-kind counts and the published total.
    pub fn event_counts(&self) -> EventCounts {
        EventCounts {
            counts: self.counts(),
            published: self.events.emitted(),
        }
    }

    /// Start a phase timer: `Some(now)` when recording, `None` when off —
    /// so the disabled path never reads the clock. (Unsampled variant;
    /// prefer [`phase_timer`](Self::phase_timer) on hot paths.)
    #[inline]
    pub fn timer(&self) -> Option<Instant> {
        if self.on() {
            Some(self.clock.now())
        } else {
            None
        }
    }

    /// Start an attribution timer: `Some(now)` whenever attribution is
    /// enabled, independent of event recording — blame and hot-key data
    /// must see every contended acquisition even with the event bus off.
    #[inline]
    pub fn attr_timer(&self) -> Option<Instant> {
        if self.attr.is_some() {
            Some(self.clock.now())
        } else {
            None
        }
    }

    /// Elapsed time since a [`timer`](Self::timer) stamp, on the same
    /// clock that produced it.
    #[inline]
    pub fn since(&self, started: Instant) -> Duration {
        self.clock.now().saturating_duration_since(started)
    }

    /// The event bus.
    pub fn events(&self) -> &EventBus {
        &self.events
    }

    /// The phase histograms.
    pub fn phases(&self) -> &PhaseHistograms {
        &self.phases
    }

    /// The flight recorder.
    pub fn recorder(&self) -> &FlightRecorder {
        &self.recorder
    }

    /// The transaction-trace registry.
    pub fn tracer(&self) -> &Arc<SpanRegistry> {
        &self.tracer
    }

    /// The contention-attribution state, `None` unless
    /// [`ObsConfig::attribution`] was set. Feed sites check this once
    /// and pay nothing when attribution is off.
    #[inline]
    pub fn attr(&self) -> Option<&Arc<Attribution>> {
        self.attr.as_ref()
    }

    /// Snapshot attribution state, `None` when attribution is off.
    pub fn attr_snapshot(&self) -> Option<AttrSnapshot> {
        self.attr.as_ref().map(|a| a.snapshot())
    }

    /// Take a post-mortem dump (no-op unless a flight dir is configured).
    /// When attribution is on, the dump includes the hot-key table and
    /// the folded blame profile at trigger time.
    pub fn dump(&self, trigger: FlightTrigger, ctx: &DumpContext) -> Option<PathBuf> {
        self.recorder
            .dump_with(trigger, &self.events, ctx, self.attr_snapshot().as_ref())
    }
}

impl Default for Obs {
    fn default() -> Self {
        Obs::new(&ObsConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_obs_is_off_and_cheap() {
        let obs = Obs::default();
        assert!(!obs.on());
        assert!(obs.timer().is_none());
        assert!(obs.phase_timer(EventKind::LockWait).is_none());
        obs.emit(EventKind::Begin, 1, 0);
        assert_eq!(obs.events().emitted(), 0);
        assert_eq!(
            obs.count(EventKind::Begin),
            0,
            "disabled emits do not even count"
        );
        assert!(!obs.recorder().armed());
    }

    #[test]
    fn enabled_obs_records() {
        let obs = Obs::new(&ObsConfig::default().with_events(true));
        assert!(obs.on());
        assert!(obs.timer().is_some());
        obs.emit(EventKind::Register, 42, 0);
        let evs = obs.events().recent(8);
        assert_eq!(evs.len(), 1, "first sampled event of a thread is kept");
        assert_eq!(evs[0].id, 42);
        assert_eq!(obs.count(EventKind::Register), 1);
    }

    #[test]
    fn sampled_tier_keeps_one_in_2_pow_shift() {
        let obs = Obs::new(&ObsConfig::default().with_events(true).with_sample_shift(3));
        for i in 0..64 {
            obs.emit(EventKind::Register, i, 0);
        }
        let evs = obs.events().recent(64);
        assert_eq!(evs.len(), 8, "1 in 2^3 survives");
        assert!(evs.iter().all(|e| e.id % 8 == 0));
        assert_eq!(
            obs.count(EventKind::Register),
            64,
            "counter tier stays exact"
        );
        // shift 0 records everything
        let all = Obs::new(&ObsConfig::default().with_events(true).with_sample_shift(0));
        for i in 0..10 {
            all.emit(EventKind::Register, i, 0);
        }
        assert_eq!(all.events().recent(64).len(), 10);
    }

    #[test]
    fn always_tier_ignores_the_sample_shift() {
        let obs = Obs::new(&ObsConfig::default().with_events(true).with_sample_shift(6));
        for i in 0..20 {
            obs.emit(EventKind::Abort, i, 1);
        }
        assert_eq!(obs.events().recent(64).len(), 20);
    }

    #[test]
    fn phase_timer_pairs_with_publish() {
        let obs = Obs::new(&ObsConfig::default().with_events(true).with_sample_shift(2));
        let mut published = 0;
        for i in 0..16u64 {
            if let Some(t) = obs.phase_timer(EventKind::WalAppend) {
                obs.phases().wal_append.record(obs.since(t));
                obs.publish(EventKind::WalAppend, i, 0);
                published += 1;
            }
        }
        assert_eq!(published, 4, "1 in 4 sampled");
        assert_eq!(obs.count(EventKind::WalAppend), 16);
        assert_eq!(obs.events().recent(64).len(), 4);
        assert_eq!(obs.phases().wal_append.count(), 4);
    }
}
