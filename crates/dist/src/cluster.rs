//! The distributed database surface: multiple sites, two-phase commit,
//! and globally serializable read-only transactions.
//!
//! ## Message model
//!
//! Two channel kinds, both counted in [`Cluster::messages`]:
//!
//! * **Reliable request/reply** ([`Cluster::msg_reliable`]) — reads,
//!   writes, phase-1 prepares and rollbacks. A drop fault triggers a
//!   transparent retransmission (each one counted), so these always
//!   arrive; faults only cost messages and latency.
//! * **One-way, lossy** ([`Cluster::msg_one_way`]) — phase-2 decision
//!   messages only. A drop fault loses the decision (the participant
//!   stays *in doubt*); a duplication fault delivers it twice
//!   (exercising the participant's idempotence filter).
//!
//! The coordinator records its decision in the cluster-wide
//! [decision log](Cluster::resolve_in_doubt) **before** sending any
//! phase-2 message. That ordering is what makes *presumed abort* safe:
//! a transaction absent from the log cannot have committed anywhere.

use crate::gtn::Gtn;
use crate::site::{Site, SiteId};
use mvcc_core::clock::{real_clock, SharedClock, SharedRng};
use mvcc_core::obs::{SpanRegistry, TraceCtx, TraceSnapshot};
use mvcc_core::trace::TxnTrace;
use mvcc_core::{
    AbortReason, DbError, Deadline, FaultConfig, FaultInjector, FaultPoint, Tracer, TxnOptions,
    WriteSet,
};
use mvcc_model::{ObjectId, TxnId};
use mvcc_storage::Value;
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Retransmission cap for the reliable channel: past this many drops the
/// delivery is forced through (the channel is reliable by assumption; the
/// cap only bounds the simulated retransmission cost at extreme rates).
const MAX_RETRANSMIT: u32 = 16;

/// How a distributed read-only transaction picks its snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoMode {
    /// One global start number = the minimum `vtnc` over all sites,
    /// gathered at begin (one `VCstart` message per site). Never waits.
    GlobalMin,
    /// One global start number = the first-contacted site's `vtnc`;
    /// other sites are contacted lazily and briefly wait until their
    /// visibility covers it. No a-priori site list needed (the paper's
    /// criticism of \[8\]'s requirement). If a lagging site fails to
    /// catch up within the cluster timeout, the transaction falls back
    /// to a [`GlobalMin`](RoMode::GlobalMin) snapshot — valid only if
    /// every read taken so far is unchanged at the lower bound.
    HomeSite,
    /// **Deliberately broken** reproduction of the anomaly in the
    /// distributed MV2PL of \[8\]: an independent snapshot per site. Each
    /// site's view is consistent, but the set of read-only transactions
    /// is not globally serializable; experiment E10 shows the oracle
    /// catching the resulting MVSG cycle.
    PerSiteSnapshots,
}

/// Cluster-wide knobs (timeouts, network behavior, fault injection).
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Base per-message delay (models network latency; widens the
    /// in-doubt windows the protocol must tolerate).
    pub delay: Option<Duration>,
    /// Read-only catch-up timeout (HomeSite mode).
    pub timeout: Duration,
    /// Per-site lock-wait timeout (breaks distributed deadlocks).
    pub lock_timeout: Duration,
    /// Fault-injection configuration shared by every channel.
    pub fault: FaultConfig,
    /// Keep a global execution trace for the MVSG oracle.
    pub trace: bool,
    /// Time source for network delays and in-doubt age stamps. Defaults
    /// to the real wall clock; the simulation harness injects a
    /// [`SimClock`](mvcc_core::SimClock) so delays advance virtual time.
    pub clock: SharedClock,
    /// Randomness source for fault injection. `None` (the default) seeds
    /// a private stream from `fault.seed`; the simulation harness
    /// injects its schedule rng so faults replay with the run.
    pub rng: Option<SharedRng>,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            delay: None,
            timeout: Duration::from_secs(5),
            lock_timeout: Duration::from_secs(2),
            fault: FaultConfig::default(),
            trace: false,
            clock: real_clock(),
            rng: None,
        }
    }
}

impl ClusterConfig {
    /// Set the base per-message delay.
    pub fn with_delay(mut self, delay: Duration) -> Self {
        self.delay = Some(delay);
        self
    }

    /// Set the read-only catch-up timeout.
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.timeout = timeout;
        self
    }

    /// Set the per-site lock-wait timeout.
    pub fn with_lock_timeout(mut self, timeout: Duration) -> Self {
        self.lock_timeout = timeout;
        self
    }

    /// Set the fault-injection configuration.
    pub fn with_fault(mut self, fault: FaultConfig) -> Self {
        self.fault = fault;
        self
    }

    /// Enable the global execution trace.
    pub fn with_trace(mut self) -> Self {
        self.trace = true;
        self
    }

    /// Inject a time source (simulation harness).
    pub fn with_clock(mut self, clock: SharedClock) -> Self {
        self.clock = clock;
        self
    }

    /// Inject a randomness source (simulation harness).
    pub fn with_rng(mut self, rng: SharedRng) -> Self {
        self.rng = Some(rng);
        self
    }
}

/// The coordinator's logged commit/abort decision for one transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Decision {
    Commit(Gtn),
    Abort,
}

/// One gauge sample of per-site visibility: how far each site's `vtnc`
/// has advanced and how much the slowest site lags the fastest (in
/// Lamport time). Produced by [`Cluster::visibility_skew`]; the skew is
/// the distributed analogue of the single-site `vtnc_lag` gauge — a
/// persistent skew means some site is pinning global snapshots back.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SiteSkew {
    /// Each site's current visibility watermark.
    pub per_site: Vec<(SiteId, Gtn)>,
    /// `max(time) - min(time)` over all sites' watermarks.
    pub skew: u64,
}

impl SiteSkew {
    /// Flatten into `(name, value)` gauge fields: one `site<N>_vtnc_time`
    /// entry per site would need dynamic names, so this reports the
    /// aggregate trio exporters care about.
    pub fn fields(&self) -> Vec<(&'static str, u64)> {
        let times: Vec<u64> = self.per_site.iter().map(|&(_, g)| g.time()).collect();
        vec![
            (
                "site_vtnc_time_min",
                times.iter().copied().min().unwrap_or(0),
            ),
            (
                "site_vtnc_time_max",
                times.iter().copied().max().unwrap_or(0),
            ),
            ("site_vtnc_skew", self.skew),
        ]
    }
}

/// Outcome counts of one [`Cluster::resolve_in_doubt`] sweep.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InDoubtStats {
    /// Transactions finished as committed (decision log said commit).
    pub resolved_commit: u64,
    /// Transactions finished as aborted (logged abort, or presumed).
    pub resolved_abort: u64,
    /// Transactions left in doubt (undecided and younger than the
    /// presumed-abort threshold).
    pub still_in_doubt: u64,
}

/// A simulated multi-site database.
pub struct Cluster {
    sites: Vec<Arc<Site>>,
    next_token: AtomicU64,
    next_anon: AtomicU64,
    messages: AtomicU64,
    delay: Option<Duration>,
    tracer: Option<Tracer>,
    timeout: Duration,
    clock: SharedClock,
    faults: FaultInjector,
    /// Coordinator decision log, written *before* any phase-2 message.
    /// Stands in for the coordinator's stable commit record; in-doubt
    /// participants query it via [`Cluster::resolve_in_doubt`].
    decisions: Mutex<BTreeMap<u64, Decision>>,
    /// HomeSite read-only transactions that fell back to GlobalMin.
    ro_fallbacks: AtomicU64,
    /// End-to-end transaction traces. Cluster-owned (not per-site) so the
    /// prepare/decide/commit legs of one 2PC land in a single span tree.
    spans: SpanRegistry,
}

impl Cluster {
    /// `n` fresh sites (ids `1..=n`; 0 is reserved for `T_0`).
    pub fn new(n: u16) -> Self {
        Self::with_config(n, ClusterConfig::default())
    }

    /// Cluster with a global execution trace for the oracle.
    pub fn traced(n: u16) -> Self {
        Self::with_config(n, ClusterConfig::default().with_trace())
    }

    /// Cluster with an injected per-message delay (models network
    /// latency; widens the in-doubt windows the protocol must tolerate).
    pub fn with_delay(n: u16, delay: Duration) -> Self {
        Self::with_config(n, ClusterConfig::default().with_trace().with_delay(delay))
    }

    /// Cluster from an explicit configuration.
    pub fn with_config(n: u16, cfg: ClusterConfig) -> Self {
        assert!(n >= 1);
        Cluster {
            sites: (1..=n)
                .map(|i| {
                    Arc::new(Site::with_clock(
                        SiteId(i),
                        cfg.lock_timeout,
                        Arc::clone(&cfg.clock),
                    ))
                })
                .collect(),
            next_token: AtomicU64::new(1),
            next_anon: AtomicU64::new(1),
            messages: AtomicU64::new(0),
            delay: cfg.delay,
            tracer: cfg.trace.then(Tracer::new),
            timeout: cfg.timeout,
            clock: Arc::clone(&cfg.clock),
            faults: match cfg.rng {
                Some(rng) => FaultInjector::with_rng(cfg.fault, rng),
                None => FaultInjector::new(cfg.fault),
            },
            decisions: Mutex::new(BTreeMap::new()),
            ro_fallbacks: AtomicU64::new(0),
            spans: SpanRegistry::new(Arc::clone(&cfg.clock)),
        }
    }

    /// Number of sites.
    pub fn n_sites(&self) -> u16 {
        self.sites.len() as u16
    }

    /// All site ids.
    pub fn site_ids(&self) -> Vec<SiteId> {
        self.sites.iter().map(|s| s.id()).collect()
    }

    /// Access one site.
    pub fn site(&self, id: SiteId) -> &Site {
        assert!(
            id.0 >= 1 && (id.0 as usize) <= self.sites.len(),
            "site id {} out of range 1..={}",
            id.0,
            self.sites.len()
        );
        &self.sites[(id.0 - 1) as usize]
    }

    /// Total simulated messages so far (including retransmissions and
    /// duplicate deliveries).
    pub fn messages(&self) -> u64 {
        self.messages.load(Ordering::Relaxed)
    }

    /// The cluster's fault injector (for experiment reporting).
    pub fn faults(&self) -> &FaultInjector {
        &self.faults
    }

    /// How many HomeSite read-only transactions fell back to GlobalMin.
    pub fn ro_fallbacks(&self) -> u64 {
        self.ro_fallbacks.load(Ordering::Relaxed)
    }

    /// Start an end-to-end trace; pass the returned context on
    /// [`TxnOptions::with_trace`] to [`Cluster::begin_rw_with`]. The 2PC
    /// prepare, decision and per-site commit legs of that transaction are
    /// recorded as spans under one root.
    pub fn start_trace(&self) -> TraceCtx {
        self.spans.start()
    }

    /// Export a finished copy of a trace's span tree (`None` if unknown
    /// or evicted).
    pub fn trace_snapshot(&self, trace_id: u64) -> Option<TraceSnapshot> {
        self.spans.snapshot(trace_id)
    }

    /// A trace as Chrome `trace_event` JSON (load in `chrome://tracing`
    /// or Perfetto).
    pub fn trace_chrome_json(&self, trace_id: u64) -> Option<String> {
        Some(mvcc_core::obs::chrome_trace_json(
            &self.spans.snapshot(trace_id)?,
        ))
    }

    /// Sample every site's visibility watermark and the Lamport-time skew
    /// between the fastest and slowest site. Purely local (no simulated
    /// messages): this models an operator's dashboard scrape, not a
    /// protocol action.
    pub fn visibility_skew(&self) -> SiteSkew {
        let per_site: Vec<(SiteId, Gtn)> = self
            .sites
            .iter()
            .map(|s| (s.id(), Gtn(s.vc().vtnc())))
            .collect();
        let times = per_site.iter().map(|&(_, g)| g.time());
        let skew = times
            .clone()
            .max()
            .unwrap_or(0)
            .saturating_sub(times.min().unwrap_or(0));
        SiteSkew { per_site, skew }
    }

    fn net_delay(&self) {
        if let Some(d) = self.delay {
            self.clock.sleep(d);
        }
        if self.faults.fire(FaultPoint::MsgDelay) {
            self.clock.sleep(self.faults.extra_delay());
        }
    }

    /// One delivery on the reliable request/reply channel. A drop fault
    /// costs a (counted) retransmission; the call returns once delivered.
    fn msg_reliable(&self) {
        for attempt in 0.. {
            self.messages.fetch_add(1, Ordering::Relaxed);
            self.net_delay();
            if attempt >= MAX_RETRANSMIT || !self.faults.fire(FaultPoint::MsgDrop) {
                break;
            }
        }
    }

    /// One send on the one-way lossy channel (phase-2 decisions).
    /// Returns how many times the message is delivered: 0 (lost),
    /// 1 (normal) or 2 (duplicated).
    fn msg_one_way(&self) -> u32 {
        self.messages.fetch_add(1, Ordering::Relaxed);
        self.net_delay();
        if self.faults.fire(FaultPoint::MsgDrop) {
            return 0;
        }
        if self.faults.fire(FaultPoint::MsgDuplicate) {
            self.messages.fetch_add(1, Ordering::Relaxed);
            self.net_delay();
            return 2;
        }
        1
    }

    /// The global execution history, if tracing is enabled.
    pub fn trace_history(&self) -> Option<mvcc_model::History> {
        self.tracer.as_ref().map(|t| t.history())
    }

    /// Global trace object id: `(site, object)` flattened.
    pub fn global_obj(site: SiteId, obj: ObjectId) -> ObjectId {
        ObjectId(((site.0 as u64) << 40) | obj.get())
    }

    /// Seed an object at a site.
    pub fn seed(&self, site: SiteId, obj: ObjectId, value: Value) {
        self.site(site).seed(obj, value);
    }

    /// Begin a distributed read-write transaction.
    pub fn begin_rw(&self) -> DistRwTxn<'_> {
        DistRwTxn {
            cluster: self,
            token: self.next_token.fetch_add(1, Ordering::Relaxed),
            parts: BTreeMap::new(),
            trace: TxnTrace::new(),
            done: false,
            deadline: None,
            trace_id: None,
        }
    }

    /// Begin a distributed read-write transaction with per-transaction
    /// options. A deadline budget bounds the whole transaction: reads,
    /// writes, and two-phase commit all check it, and an expired budget
    /// rolls the transaction back *before* the commit decision is logged
    /// (never after — a logged decision is always driven to completion).
    pub fn begin_rw_with(&self, opts: &TxnOptions) -> DistRwTxn<'_> {
        let mut t = self.begin_rw();
        t.deadline = opts
            .deadline
            .map(|budget| Deadline::within(&*self.clock, budget));
        t.trace_id = opts.trace.map(|ctx| ctx.trace_id);
        t
    }

    /// Begin a distributed read-only transaction.
    pub fn begin_ro(&self, mode: RoMode) -> DistRoTxn<'_> {
        let sn = match mode {
            RoMode::GlobalMin => Some(self.global_min()),
            RoMode::HomeSite | RoMode::PerSiteSnapshots => None,
        };
        DistRoTxn {
            cluster: self,
            mode,
            sn,
            per_site_sn: BTreeMap::new(),
            reads: Vec::new(),
            trace: TxnTrace::new(),
        }
    }

    /// One `VCstart` message per site; the minimum is a consistent
    /// global snapshot that never waits.
    fn global_min(&self) -> Gtn {
        let mut sn = None;
        for s in &self.sites {
            self.msg_reliable();
            let v = s.ro_start();
            sn = Some(sn.map_or(v, |cur: Gtn| cur.min(v)));
        }
        sn.expect("at least one site")
    }

    /// Resolver sweep: finish every in-doubt transaction whose decision
    /// is known (one reliable query message per in-doubt entry), and
    /// presume abort for undecided entries older than
    /// `presume_abort_after`. Presumed abort is safe because the
    /// coordinator logs its decision before any phase-2 send: an
    /// undecided transaction cannot have committed at any site.
    pub fn resolve_in_doubt(&self, presume_abort_after: Duration) -> InDoubtStats {
        let mut stats = InDoubtStats::default();
        for s in &self.sites {
            for (token, age) in s.in_doubt_tokens() {
                let decision = self.decisions.lock().get(&token).copied();
                match decision {
                    Some(Decision::Commit(fin)) => {
                        self.msg_reliable();
                        match s.resolve_commit(token, fin) {
                            Ok(true) => stats.resolved_commit += 1,
                            Ok(false) => {}
                            Err(_) => stats.still_in_doubt += 1,
                        }
                    }
                    Some(Decision::Abort) => {
                        self.msg_reliable();
                        if s.resolve_abort(token) {
                            stats.resolved_abort += 1;
                        }
                    }
                    None if age >= presume_abort_after => {
                        if s.resolve_abort(token) {
                            stats.resolved_abort += 1;
                        }
                    }
                    None => stats.still_in_doubt += 1,
                }
            }
        }
        stats
    }

    /// Crash a site: its volatile state (locks, buffered writes, in-doubt 2PC
    /// records, version-control queue) vanishes.
    pub fn crash_site(&self, id: SiteId) {
        self.site(id).crash();
    }

    /// Recover a crashed site: rebuild its visibility watermark from
    /// durable storage, then gossip with every peer (one message each)
    /// so its Lamport clock dominates everything the cluster has seen.
    /// Returns the recovered watermark.
    pub fn recover_site(&self, id: SiteId) -> Gtn {
        let watermark = self.site(id).recover();
        for s in &self.sites {
            if s.id() != id {
                self.msg_reliable();
                self.site(id).vc().observe(s.vc().vtnc());
            }
        }
        watermark
    }
}

/// State kept per participant site of a read-write transaction.
#[derive(Default)]
struct Participant {
    locked: Vec<ObjectId>,
    /// Writes buffered for this site, handed over at `prepare`.
    writes: WriteSet,
}

/// A distributed read-write transaction (per-site strict 2PL + 2PC).
pub struct DistRwTxn<'c> {
    cluster: &'c Cluster,
    token: u64,
    parts: BTreeMap<SiteId, Participant>,
    trace: TxnTrace,
    done: bool,
    /// Deadline budget, when begun with one (see
    /// [`Cluster::begin_rw_with`]).
    deadline: Option<Deadline>,
    /// End-to-end trace this transaction belongs to, when begun with a
    /// [`TraceCtx`] on its options.
    trace_id: Option<u64>,
}

impl DistRwTxn<'_> {
    /// Fail fast once the deadline budget is spent: roll back everywhere
    /// and surface the miss. Called at every operation entry and before
    /// each phase-1 prepare — never after the decision is logged.
    fn check_deadline(&mut self) -> Result<(), DbError> {
        if self
            .deadline
            .is_some_and(|d| d.expired(&*self.cluster.clock))
        {
            self.rollback();
            return Err(DbError::Aborted(AbortReason::DeadlineExceeded));
        }
        Ok(())
    }

    /// Read `obj` at `site`.
    pub fn read(&mut self, site: SiteId, obj: ObjectId) -> Result<Value, DbError> {
        self.check_deadline()?;
        self.cluster.msg_reliable();
        let s = self.cluster.site(site);
        match s.rw_read(self.token, obj) {
            Ok((version, value)) => {
                let part = self.parts.entry(site).or_default();
                if !part.locked.contains(&obj) {
                    part.locked.push(obj);
                }
                // Own writes shadow the committed version.
                if let Some(own) = part.writes.get(obj) {
                    return Ok(own.clone());
                }
                self.trace.read(Cluster::global_obj(site, obj), version);
                Ok(value)
            }
            Err(e) => {
                self.rollback();
                Err(e)
            }
        }
    }

    /// Write `obj` at `site`.
    pub fn write(&mut self, site: SiteId, obj: ObjectId, value: Value) -> Result<(), DbError> {
        self.check_deadline()?;
        self.cluster.msg_reliable();
        let s = self.cluster.site(site);
        match s.rw_write(self.token, obj) {
            Ok(()) => {
                let part = self.parts.entry(site).or_default();
                if !part.locked.contains(&obj) {
                    part.locked.push(obj);
                }
                part.writes.put(obj, value);
                self.trace.write(Cluster::global_obj(site, obj));
                Ok(())
            }
            Err(e) => {
                self.rollback();
                Err(e)
            }
        }
    }

    /// Two-phase commit. Returns the single global transaction number.
    ///
    /// `Ok` means the decision is durable (logged), not that every
    /// participant has heard it: a dropped phase-2 message leaves that
    /// participant in doubt until [`Cluster::resolve_in_doubt`] finishes
    /// the transaction from the decision log.
    pub fn commit(mut self) -> Result<Gtn, DbError> {
        // Phase 1 (reliable): every participant is past its lock point;
        // gather proposals. (Participants cannot vote no here — all
        // their conflicts were resolved by locks — so this prepare
        // always succeeds; the in-doubt window is still real for
        // visibility.)
        // A spent deadline budget aborts here, while rollback is still
        // sound; once the decision is logged below, the transaction is
        // always driven to completion regardless of the deadline.
        if self
            .deadline
            .is_some_and(|d| d.expired(&*self.cluster.clock))
        {
            self.rollback();
            return Err(DbError::Aborted(AbortReason::DeadlineExceeded));
        }
        let spans = &self.cluster.spans;
        let prepare_start = self.trace_id.map(|_| spans.now_ns());
        let mut proposals: BTreeMap<SiteId, Gtn> = BTreeMap::new();
        for (&site, part) in &mut self.parts {
            self.cluster.msg_reliable();
            let writes = std::mem::take(&mut part.writes);
            proposals.insert(
                site,
                self.cluster
                    .site(site)
                    .prepare(self.token, &part.locked, writes),
            );
        }
        // The single global number dominates every proposal (it *is* the
        // largest proposal, hence unique).
        let fin = proposals.values().copied().max().unwrap_or_else(|| {
            // Empty transaction: synthesize a number from site 1.
            self.cluster.msg_reliable();
            self.cluster
                .site(SiteId(1))
                .prepare(self.token, &[], WriteSet::new())
        });
        if let (Some(id), Some(start)) = (self.trace_id, prepare_start) {
            spans.record_root_span(
                id,
                "2pc_prepare",
                start,
                vec![
                    ("sites", self.parts.len().max(1) as u64),
                    ("fin_time", fin.time()),
                ],
            );
        }
        // Decision point: the commit record must be durable BEFORE any
        // phase-2 message leaves, or presumed abort would be unsound.
        let decide_start = self.trace_id.map(|_| spans.now_ns());
        self.cluster
            .decisions
            .lock()
            .insert(self.token, Decision::Commit(fin));
        if let (Some(id), Some(start)) = (self.trace_id, decide_start) {
            spans.record_root_span(id, "2pc_decide", start, vec![("committed", 1)]);
        }
        if self.parts.is_empty() {
            let leg_start = self.trace_id.map(|_| spans.now_ns());
            let mut deliveries = 0u64;
            for _ in 0..self.cluster.msg_one_way() {
                self.cluster
                    .site(SiteId(1))
                    .commit(self.token, fin, fin, &[])?;
                deliveries += 1;
            }
            if let (Some(id), Some(start)) = (self.trace_id, leg_start) {
                spans.record_root_span(
                    id,
                    "2pc_commit_leg",
                    start,
                    vec![("site", 1), ("deliveries", deliveries)],
                );
            }
            self.done = true;
            self.flush(fin, true);
            return Ok(fin);
        }
        // Phase 2 (one-way, lossy): commit everywhere with the final
        // number. A lost delivery leaves the participant in doubt; a
        // duplicate is absorbed by its idempotence filter.
        for (&site, part) in &self.parts {
            let p = proposals[&site];
            let leg_start = self.trace_id.map(|_| spans.now_ns());
            let mut deliveries = 0u64;
            for _ in 0..self.cluster.msg_one_way() {
                self.cluster
                    .site(site)
                    .commit(self.token, p, fin, &part.locked)?;
                deliveries += 1;
            }
            // `deliveries = 0` in the exported trace is exactly the
            // "participant left in doubt" signature operators hunt for.
            if let (Some(id), Some(start)) = (self.trace_id, leg_start) {
                spans.record_root_span(
                    id,
                    "2pc_commit_leg",
                    start,
                    vec![("site", site.0 as u64), ("deliveries", deliveries)],
                );
            }
        }
        self.done = true;
        self.flush(fin, true);
        Ok(fin)
    }

    /// Abort everywhere.
    pub fn abort(mut self) {
        self.rollback();
        self.done = true;
    }

    fn rollback(&mut self) {
        if self.done {
            return;
        }
        let abort_start = self.trace_id.map(|_| self.cluster.spans.now_ns());
        // Aborts ride the reliable channel: there is no decision to
        // lose, and the log entry lets a racing resolver agree.
        self.cluster
            .decisions
            .lock()
            .insert(self.token, Decision::Abort);
        for (&site, part) in &self.parts {
            self.cluster.msg_reliable();
            self.cluster
                .site(site)
                .rollback(self.token, None, &part.locked);
        }
        if let (Some(id), Some(start)) = (self.trace_id, abort_start) {
            self.cluster.spans.record_root_span(
                id,
                "2pc_abort",
                start,
                vec![("sites", self.parts.len() as u64)],
            );
        }
        self.done = true;
        let anon = (1 << 63) | self.cluster.next_anon.fetch_add(1, Ordering::Relaxed);
        if let Some(t) = &self.cluster.tracer {
            t.flush(TxnId(anon), &self.trace, false);
        }
    }

    fn flush(&self, fin: Gtn, committed: bool) {
        if let Some(t) = &self.cluster.tracer {
            t.flush(TxnId(fin.encoded()), &self.trace, committed);
        }
    }
}

impl Drop for DistRwTxn<'_> {
    fn drop(&mut self) {
        self.rollback();
    }
}

/// A distributed read-only transaction.
pub struct DistRoTxn<'c> {
    cluster: &'c Cluster,
    mode: RoMode,
    /// The single global start number (GlobalMin: fixed at begin;
    /// HomeSite: fixed at first contact, possibly lowered by fallback).
    sn: Option<Gtn>,
    /// PerSiteSnapshots only: the (broken) per-site start numbers.
    per_site_sn: BTreeMap<SiteId, Gtn>,
    /// Every `(site, object, version)` this transaction has read —
    /// the evidence checked by the HomeSite → GlobalMin fallback.
    reads: Vec<(SiteId, ObjectId, u64)>,
    trace: TxnTrace,
}

impl DistRoTxn<'_> {
    /// The global start number, if fixed yet.
    pub fn sn(&self) -> Option<Gtn> {
        self.sn
    }

    /// Read `obj` at `site` under the transaction's snapshot discipline.
    pub fn read(&mut self, site: SiteId, obj: ObjectId) -> Result<Value, DbError> {
        self.cluster.msg_reliable();
        let s = self.cluster.site(site);
        let sn = match self.mode {
            RoMode::GlobalMin => self.sn.expect("fixed at begin"),
            RoMode::HomeSite => match self.sn {
                Some(sn) => {
                    // Lazily contacted site: wait until it is caught up;
                    // if it never does, drop to a GlobalMin snapshot.
                    match s.ro_catch_up(sn, self.cluster.timeout) {
                        Ok(_) => sn,
                        Err(DbError::Aborted(AbortReason::WaitTimeout)) => {
                            self.fall_back_to_global_min()?
                        }
                        Err(e) => return Err(e),
                    }
                }
                None => {
                    let sn = s.ro_start();
                    self.sn = Some(sn);
                    sn
                }
            },
            RoMode::PerSiteSnapshots => {
                *self.per_site_sn.entry(site).or_insert_with(|| s.ro_start())
            }
        };
        let (version, value) = s.ro_read(obj, sn)?;
        self.reads.push((site, obj, version));
        self.trace.read(Cluster::global_obj(site, obj), version);
        Ok(value)
    }

    /// A lagging site timed out catching up to the home start number.
    /// Liveness escape hatch: adopt the (lower) GlobalMin snapshot `g`,
    /// but only if every read taken so far returns the *same version*
    /// at `g` — then the whole history is a consistent read at `g` and
    /// serializability is preserved. Any mismatch aborts the
    /// transaction instead.
    fn fall_back_to_global_min(&mut self) -> Result<Gtn, DbError> {
        let g = self.cluster.global_min();
        for &(site, obj, version) in &self.reads {
            self.cluster.msg_reliable();
            let (v, _) = self.cluster.site(site).ro_read(obj, g)?;
            if v != version {
                return Err(DbError::Aborted(AbortReason::WaitTimeout));
            }
        }
        self.cluster.ro_fallbacks.fetch_add(1, Ordering::Relaxed);
        self.sn = Some(g);
        Ok(g)
    }

    /// Read and decode as `u64`.
    pub fn read_u64(&mut self, site: SiteId, obj: ObjectId) -> Result<Option<u64>, DbError> {
        Ok(self.read(site, obj)?.as_u64())
    }

    /// Finish (flush the trace).
    pub fn finish(self) {
        if let Some(t) = &self.cluster.tracer {
            let anon =
                (1 << 63) | (1 << 62) | self.cluster.next_anon.fetch_add(1, Ordering::Relaxed);
            t.flush(TxnId(anon), &self.trace, true);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvcc_model::mvsg;

    fn obj(n: u64) -> ObjectId {
        ObjectId(n)
    }

    #[test]
    fn distributed_rw_commits_atomically() {
        let c = Cluster::traced(3);
        let mut t = c.begin_rw();
        t.write(SiteId(1), obj(0), Value::from_u64(1)).unwrap();
        t.write(SiteId(2), obj(0), Value::from_u64(2)).unwrap();
        t.write(SiteId(3), obj(0), Value::from_u64(3)).unwrap();
        let fin = t.commit().unwrap();
        // one global number, same version everywhere
        for (i, site) in c.site_ids().into_iter().enumerate() {
            let (n, v) = c.site(site).store().read_latest(obj(0));
            assert_eq!(n, fin.encoded());
            assert_eq!(v.as_u64(), Some(i as u64 + 1));
        }
    }

    #[test]
    fn ro_global_min_is_consistent() {
        let c = Cluster::traced(2);
        // two distributed txns, each writing both sites
        for round in 1..=3u64 {
            let mut t = c.begin_rw();
            t.write(SiteId(1), obj(0), Value::from_u64(round)).unwrap();
            t.write(SiteId(2), obj(0), Value::from_u64(round)).unwrap();
            t.commit().unwrap();
        }
        let mut r = c.begin_ro(RoMode::GlobalMin);
        let a = r.read_u64(SiteId(1), obj(0)).unwrap();
        let b = r.read_u64(SiteId(2), obj(0)).unwrap();
        assert_eq!(a, b, "a distributed snapshot must agree across sites");
        assert_eq!(a, Some(3));
        r.finish();
        let h = c.trace_history().unwrap();
        assert!(mvsg::check_tn_order(&h).acyclic);
    }

    #[test]
    fn ro_home_site_waits_for_lagging_site() {
        let c = Cluster::traced(2);
        // Site 1 is ahead: a local txn committed there.
        let mut t = c.begin_rw();
        t.write(SiteId(1), obj(0), Value::from_u64(5)).unwrap();
        t.commit().unwrap();
        let mut r = c.begin_ro(RoMode::HomeSite);
        assert_eq!(r.read_u64(SiteId(1), obj(0)).unwrap(), Some(5));
        let sn = r.sn().unwrap();
        // Site 2's vtnc (ZERO) lags the home start number; a commit
        // through site 2 advances it past sn, releasing the catch-up.
        let mut t2 = c.begin_rw();
        t2.write(SiteId(2), obj(1), Value::from_u64(1)).unwrap();
        let f2 = t2.commit().unwrap();
        assert!(f2 > sn, "site-2 commit is later in gtn order");
        // obj(0) at site 2 was never written: the snapshot reads the
        // (empty) initial version after catching up.
        assert_eq!(r.read(SiteId(2), obj(0)).unwrap(), Value::empty());
        assert!(c.site(SiteId(2)).metrics().snapshot().ro_blocks <= 1);
        r.finish();
        let h = c.trace_history().unwrap();
        assert!(mvsg::check_tn_order(&h).acyclic);
    }

    /// The classic crossing of the distributed MV2PL of \[8\]: RO_x sees
    /// T1 but not T2; RO_y sees T2 but not T1 — each view is internally
    /// consistent, but together they are not globally serializable.
    fn crossing_script(c: &Cluster, mode: RoMode) {
        // RO_y pins site 1 before T1 commits.
        let mut ro_y = c.begin_ro(mode);
        let v = ro_y.read(SiteId(1), obj(0)).unwrap(); // version 0
        assert!(v.is_empty());
        // T1 commits at site 1.
        let mut t1 = c.begin_rw();
        t1.write(SiteId(1), obj(0), Value::from_u64(1)).unwrap();
        t1.commit().unwrap();
        // RO_x pins site 1 after T1 (sees it) and site 2 before T2.
        let mut ro_x = c.begin_ro(mode);
        let _ = ro_x.read(SiteId(1), obj(0)).unwrap();
        let _ = ro_x.read(SiteId(2), obj(0)).unwrap();
        // T2 commits at site 2.
        let mut t2 = c.begin_rw();
        t2.write(SiteId(2), obj(0), Value::from_u64(2)).unwrap();
        t2.commit().unwrap();
        // RO_y now reads site 2 (sees T2 in the broken mode).
        let _ = ro_y.read(SiteId(2), obj(0)).unwrap();
        ro_x.finish();
        ro_y.finish();
    }

    #[test]
    fn per_site_snapshots_anomaly_detected_by_oracle() {
        let c = Cluster::traced(2);
        crossing_script(&c, RoMode::PerSiteSnapshots);
        let h = c.trace_history().unwrap();
        let rep = mvsg::check_tn_order(&h);
        assert!(
            !rep.acyclic,
            "per-site snapshots must NOT be globally serializable; trace: {h}"
        );
        // And no version order can repair it — the anomaly is real.
        assert!(mvcc_model::mvsg::check_exhaustive(&h, 1_000_000)
            .unwrap()
            .is_none());
    }

    #[test]
    fn global_min_stays_serializable_under_same_script() {
        let c = Cluster::traced(2);
        crossing_script(&c, RoMode::GlobalMin);
        let h = c.trace_history().unwrap();
        let rep = mvsg::check_tn_order(&h);
        assert!(
            rep.acyclic,
            "GlobalMin must stay serializable: {:?}",
            rep.cycle
        );
    }

    #[test]
    fn message_counting_and_delay() {
        let c = Cluster::new(2);
        let before = c.messages();
        let mut t = c.begin_rw();
        t.write(SiteId(1), obj(0), Value::from_u64(1)).unwrap();
        t.commit().unwrap();
        // 1 write + 1 prepare + 1 commit = 3 messages
        assert_eq!(c.messages() - before, 3);
        let before = c.messages();
        let mut r = c.begin_ro(RoMode::GlobalMin);
        let _ = r.read(SiteId(1), obj(0)).unwrap();
        r.finish();
        // 2 VCstart (one per site) + 1 read
        assert_eq!(c.messages() - before, 3);
    }

    #[test]
    fn visibility_skew_tracks_lagging_site() {
        let c = Cluster::new(2);
        let fresh = c.visibility_skew();
        assert_eq!(fresh.skew, 0, "fresh cluster has no skew");
        assert_eq!(fresh.per_site.len(), 2);
        // Commit only through site 1: site 2's watermark stays at ZERO.
        let mut t = c.begin_rw();
        t.write(SiteId(1), obj(0), Value::from_u64(1)).unwrap();
        let fin = t.commit().unwrap();
        let skewed = c.visibility_skew();
        assert_eq!(skewed.skew, fin.time(), "site 2 lags by the full clock");
        let fields = skewed.fields();
        assert_eq!(
            fields,
            vec![
                ("site_vtnc_time_min", 0),
                ("site_vtnc_time_max", fin.time()),
                ("site_vtnc_skew", fin.time()),
            ]
        );
        // A distributed commit touching both sites closes the gap.
        let mut t2 = c.begin_rw();
        t2.write(SiteId(1), obj(1), Value::from_u64(2)).unwrap();
        t2.write(SiteId(2), obj(1), Value::from_u64(2)).unwrap();
        t2.commit().unwrap();
        assert_eq!(c.visibility_skew().skew, 0);
    }

    #[test]
    #[should_panic(expected = "site id 0 out of range")]
    fn site_zero_is_rejected() {
        let c = Cluster::new(2);
        let _ = c.site(SiteId(0));
    }

    #[test]
    fn lost_commit_message_resolved_from_decision_log() {
        // Every phase-2 decision message is lost: both participants stay
        // in doubt (visibility pinned), yet the commit is durable in the
        // decision log. The resolver finishes the transaction.
        let cfg = ClusterConfig::default()
            .with_trace()
            .with_fault(FaultConfig {
                msg_drop: 1.0,
                ..Default::default()
            });
        let c = Cluster::with_config(2, cfg);
        let mut t = c.begin_rw();
        t.write(SiteId(1), obj(0), Value::from_u64(7)).unwrap();
        t.write(SiteId(2), obj(0), Value::from_u64(8)).unwrap();
        let fin = t.commit().unwrap();
        assert_eq!(c.site(SiteId(1)).in_doubt_len(), 1);
        assert_eq!(c.site(SiteId(2)).in_doubt_len(), 1);
        // In doubt pins visibility at both sites.
        assert_eq!(Gtn(c.site(SiteId(1)).vc().vtnc()), Gtn::ZERO);
        let stats = c.resolve_in_doubt(Duration::ZERO);
        assert_eq!(stats.resolved_commit, 2);
        assert_eq!(stats.resolved_abort, 0);
        for site in c.site_ids() {
            let s = c.site(site);
            assert_eq!(s.in_doubt_len(), 0);
            assert_eq!(Gtn(s.vc().vtnc()), fin);
            s.vc().validate().unwrap();
        }
        let mut r = c.begin_ro(RoMode::GlobalMin);
        assert_eq!(r.read_u64(SiteId(1), obj(0)).unwrap(), Some(7));
        assert_eq!(r.read_u64(SiteId(2), obj(0)).unwrap(), Some(8));
        r.finish();
        let h = c.trace_history().unwrap();
        assert!(mvsg::check_tn_order(&h).acyclic);
    }

    #[test]
    fn duplicate_commit_deliveries_are_idempotent() {
        let cfg = ClusterConfig::default()
            .with_trace()
            .with_fault(FaultConfig {
                msg_duplicate: 1.0,
                ..Default::default()
            });
        let c = Cluster::with_config(2, cfg);
        let mut t = c.begin_rw();
        t.write(SiteId(1), obj(0), Value::from_u64(1)).unwrap();
        t.write(SiteId(2), obj(0), Value::from_u64(2)).unwrap();
        let fin = t.commit().unwrap();
        for site in c.site_ids() {
            let s = c.site(site);
            assert_eq!(Gtn(s.vc().vtnc()), fin);
            // one completion per site despite two deliveries
            assert_eq!(s.metrics().snapshot().vc_complete_calls, 1);
            s.vc().validate().unwrap();
        }
        assert!(c.faults().injected(FaultPoint::MsgDuplicate) >= 2);
    }

    #[test]
    fn undecided_prepare_presumed_abort() {
        // A coordinator that died between phase 1 and logging its
        // decision: the participant's entry is undecided. Young entries
        // are left alone; past the threshold the resolver presumes abort.
        let c = Cluster::new(1);
        let s = c.site(SiteId(1));
        s.rw_write(999, obj(0)).unwrap();
        let mut ws = WriteSet::new();
        ws.put(obj(0), Value::from_u64(9));
        let _p = s.prepare(999, &[obj(0)], ws);
        let stats = c.resolve_in_doubt(Duration::from_secs(60));
        assert_eq!(stats.still_in_doubt, 1);
        let stats = c.resolve_in_doubt(Duration::ZERO);
        assert_eq!(stats.resolved_abort, 1);
        assert_eq!(s.in_doubt_len(), 0);
        // the presumed-aborted write never became visible
        let mut r = c.begin_ro(RoMode::GlobalMin);
        assert_eq!(r.read(SiteId(1), obj(0)).unwrap(), Value::empty());
        r.finish();
    }

    #[test]
    fn crash_and_recovery_restores_visibility() {
        let c = Cluster::traced(2);
        let mut t = c.begin_rw();
        t.write(SiteId(1), obj(0), Value::from_u64(1)).unwrap();
        t.write(SiteId(2), obj(0), Value::from_u64(2)).unwrap();
        let fin = t.commit().unwrap();
        c.crash_site(SiteId(2));
        let watermark = c.recover_site(SiteId(2));
        assert_eq!(watermark, fin, "watermark = largest committed version");
        assert_eq!(Gtn(c.site(SiteId(2)).vc().vtnc()), fin);
        c.site(SiteId(2)).vc().validate().unwrap();
        // committed state survived; the cluster keeps working
        let mut r = c.begin_ro(RoMode::GlobalMin);
        assert_eq!(r.read_u64(SiteId(2), obj(0)).unwrap(), Some(2));
        r.finish();
        let mut t2 = c.begin_rw();
        t2.write(SiteId(2), obj(0), Value::from_u64(3)).unwrap();
        let f2 = t2.commit().unwrap();
        assert!(f2 > fin, "post-recovery numbers dominate the watermark");
        let h = c.trace_history().unwrap();
        assert!(mvsg::check_tn_order(&h).acyclic);
    }

    #[test]
    fn home_site_falls_back_to_global_min() {
        // Site 1 is ahead on an object the reader never touches; site 2
        // lags forever. The catch-up times out, the fallback adopts the
        // GlobalMin snapshot, and the prior read (version 0) revalidates.
        let cfg = ClusterConfig::default()
            .with_trace()
            .with_timeout(Duration::from_millis(10));
        let c = Cluster::with_config(2, cfg);
        let mut t = c.begin_rw();
        t.write(SiteId(1), obj(5), Value::from_u64(1)).unwrap();
        t.commit().unwrap();
        let mut r = c.begin_ro(RoMode::HomeSite);
        assert_eq!(r.read(SiteId(1), obj(0)).unwrap(), Value::empty());
        let sn = r.sn().unwrap();
        assert!(sn > Gtn::ZERO, "home snapshot is ahead of site 2");
        assert_eq!(r.read(SiteId(2), obj(0)).unwrap(), Value::empty());
        assert_eq!(r.sn().unwrap(), Gtn::ZERO, "fallback adopted GlobalMin");
        assert_eq!(c.ro_fallbacks(), 1);
        r.finish();
        let h = c.trace_history().unwrap();
        assert!(mvsg::check_tn_order(&h).acyclic);
    }

    #[test]
    fn spent_deadline_rolls_back_before_decision() {
        use mvcc_core::SimClock;
        let clock = SimClock::new();
        let cfg = ClusterConfig::default().with_clock(clock.clone());
        let c = Cluster::with_config(2, cfg);
        let opts = TxnOptions::default().with_deadline(Duration::from_millis(5));
        let mut t = c.begin_rw_with(&opts);
        t.write(SiteId(1), obj(0), Value::from_u64(1)).unwrap();
        clock.advance(Duration::from_millis(10));
        let err = t.commit().unwrap_err();
        assert_eq!(err, DbError::Aborted(AbortReason::DeadlineExceeded));
        // No decision was logged, nothing became visible, and the locks
        // are free again.
        assert_eq!(Gtn(c.site(SiteId(1)).vc().vtnc()), Gtn::ZERO);
        assert_eq!(
            c.site(SiteId(1)).store().read_latest(obj(0)).1,
            Value::empty()
        );
        let mut t2 = c.begin_rw();
        t2.write(SiteId(1), obj(0), Value::from_u64(2)).unwrap();
        t2.commit().unwrap();
    }

    #[test]
    fn home_site_fallback_aborts_on_changed_read() {
        // Same shape, but the reader already observed a version above
        // GlobalMin: the fallback cannot revalidate and must abort.
        let cfg = ClusterConfig::default().with_timeout(Duration::from_millis(10));
        let c = Cluster::with_config(2, cfg);
        let mut t = c.begin_rw();
        t.write(SiteId(1), obj(0), Value::from_u64(1)).unwrap();
        t.commit().unwrap();
        let mut r = c.begin_ro(RoMode::HomeSite);
        assert_eq!(r.read_u64(SiteId(1), obj(0)).unwrap(), Some(1));
        let err = r.read(SiteId(2), obj(0)).unwrap_err();
        assert_eq!(err, DbError::Aborted(AbortReason::WaitTimeout));
        assert_eq!(c.ro_fallbacks(), 0);
    }
}
