//! The multiversion database engine: storage + version control + a
//! pluggable concurrency-control protocol.

use crate::cc_api::{CcContext, ConcurrencyControl};
use crate::config::DbConfig;
use crate::currency::{CurrencyMode, LatestTxn};
use crate::durability::{CommitLog, RecoveryStats};
use crate::error::{AbortReason, DbError};
use crate::fault::{FaultInjector, FaultyFile};
use crate::metrics::{Metrics, MetricsSnapshot};
use crate::obs::{
    json_snapshot, prometheus_text, DumpContext, EventKind, FlightTrigger, GaugeSample, Obs,
    PhaseSnapshot,
};
use crate::retry::RetryPolicy;
use crate::trace::{Tracer, TxnTrace};
use crate::txn::{Deadline, RoTxn, RwTxn, TxnOptions, ANON_TRACE_BASE};
use crate::vc::VersionControl;
use mvcc_model::{History, ObjectId, TxnId};
use mvcc_storage::wal::{self, WalSink, WalWriter};
use mvcc_storage::{GcStats, MvStore, StoreStats, Value};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// The protocol-independent parts of the engine: everything a read-only
/// transaction can ever touch.
pub struct DbCore {
    pub(crate) ctx: CcContext,
    pub(crate) tracer: Option<Arc<Tracer>>,
    anon_trace_seq: AtomicU64,
    /// `gc_install_pruned` as of the previous
    /// [`collect_garbage`](MvDatabase::collect_garbage).
    install_pruned_seen: AtomicU64,
}

impl DbCore {
    fn new(ctx: CcContext) -> Self {
        DbCore {
            tracer: ctx.config.trace.then(|| Arc::new(Tracer::new())),
            ctx,
            anon_trace_seq: AtomicU64::new(0),
            install_pruned_seen: AtomicU64::new(0),
        }
    }

    /// A transaction's oracle trace buffer: `None` unless the database
    /// records a trace, so untraced transactions record nothing per op.
    pub(crate) fn new_trace(&self) -> Option<TxnTrace> {
        self.tracer.as_ref().map(|_| TxnTrace::new())
    }

    /// Flush a finished transaction's trace under `tn`, or under a fresh
    /// anonymous id if it never received a number.
    pub(crate) fn flush_trace(&self, trace: Option<&TxnTrace>, tn: Option<u64>, committed: bool) {
        if let (Some(tracer), Some(trace)) = (&self.tracer, trace) {
            let id = tn.unwrap_or_else(|| {
                ANON_TRACE_BASE + self.anon_trace_seq.fetch_add(1, Ordering::Relaxed)
            });
            tracer.flush(TxnId(id), trace, committed);
        }
    }
}

/// A multiversion database running concurrency-control protocol `C`.
///
/// Swapping `C` changes *nothing* about read-only execution — the
/// modularity thesis of the paper, enforced here by the fact that
/// [`RoTxn`] borrows only the protocol-independent [`DbCore`].
pub struct MvDatabase<C: ConcurrencyControl> {
    core: DbCore,
    cc: C,
}

impl<C: ConcurrencyControl> MvDatabase<C> {
    /// Engine with default configuration.
    pub fn new(cc: C) -> Self {
        Self::with_config(cc, DbConfig::default())
    }

    /// Engine with explicit configuration.
    pub fn with_config(cc: C, config: DbConfig) -> Self {
        MvDatabase {
            core: DbCore::new(CcContext::new(config)),
            cc,
        }
    }

    /// Durable engine: like [`with_config`](Self::with_config), plus a
    /// write-ahead log on `sink`. Every commit appends its writeset to
    /// the log **before** becoming visible, under the configured
    /// [`DbConfig::wal_fsync`] policy. If the config enables any disk
    /// fault, the sink is transparently wrapped in a [`FaultyFile`]
    /// drawing from the engine's injector.
    pub fn with_wal(cc: C, config: DbConfig, sink: Box<dyn WalSink>) -> std::io::Result<Self> {
        let mut db = Self::with_config(cc, config);
        let (sink, arm) = Self::maybe_faulty(&db.core.ctx, sink);
        let writer = WalWriter::create(sink, db.core.ctx.config.wal_fsync)?;
        if let Some(arm) = arm {
            arm.store(true, Ordering::Relaxed);
        }
        db.core.ctx.wal = Some(Arc::new(CommitLog::new(
            writer,
            Arc::clone(&db.core.ctx.metrics),
        )));
        Ok(db)
    }

    /// Wrap `sink` in a disarmed [`FaultyFile`] when the config enables
    /// disk faults. The returned gate (if any) arms the faults — flipped
    /// only after fault-free setup writes (header, recovery re-appends).
    fn maybe_faulty(
        ctx: &CcContext,
        sink: Box<dyn WalSink>,
    ) -> (Box<dyn WalSink>, Option<Arc<AtomicBool>>) {
        if ctx.config.fault.has_disk_faults() {
            let (faulty, arm) = FaultyFile::gated(sink, Arc::clone(&ctx.faults));
            (Box::new(faulty), Some(arm))
        } else {
            (sink, None)
        }
    }

    /// Crash recovery: rebuild an engine from the latest checkpoint (if
    /// any) plus whatever bytes of the write-ahead log survived.
    ///
    /// The WAL is scanned up to the last intact CRC frame — a torn tail
    /// is discarded, never an error — and every surviving record above
    /// the checkpoint watermark is replayed in transaction-number order.
    /// The version counters resume at the highest recovered number
    /// (`tnc = last_tn + 1 > vtnc = last_tn`), so post-recovery
    /// transactions can never collide with recovered versions. A number
    /// below `last_tn` with no surviving record was never durable and
    /// counts as discarded (DESIGN.md §9).
    ///
    /// If `sink` is provided, the engine comes back *durable*: a fresh
    /// log is started on it and the replayed records are re-appended, so
    /// a second crash recovers the same state or better.
    pub fn recover(
        cc: C,
        config: DbConfig,
        checkpoint: Option<&[u8]>,
        wal_bytes: &[u8],
        sink: Option<Box<dyn WalSink>>,
    ) -> std::io::Result<(Self, RecoveryStats)> {
        let (store, watermark) = match checkpoint {
            Some(mut bytes) => MvStore::restore(&mut bytes)?,
            None => (MvStore::new(), 0),
        };
        let (records, scan_stats) = wal::scan(wal_bytes)?;
        let (last_tn, skipped) = wal::replay_into(&store, watermark, &records)?;
        let stats = RecoveryStats {
            checkpoint_watermark: watermark,
            replayed: records.len() - skipped,
            skipped,
            last_tn,
            clean_end: scan_stats.clean_end(),
            torn_bytes: scan_stats.torn_bytes,
        };
        let vc = Arc::new(VersionControl::resumed(last_tn));
        let mut ctx = CcContext::with_parts(config, Arc::new(store), vc);
        if let Some(sink) = sink {
            let (sink, arm) = Self::maybe_faulty(&ctx, sink);
            let live: Vec<wal::CommitRecord> =
                records.into_iter().filter(|r| r.tn > watermark).collect();
            let writer = WalWriter::create_with(sink, ctx.config.wal_fsync, &live)?;
            if let Some(arm) = arm {
                arm.store(true, Ordering::Relaxed);
            }
            ctx.wal = Some(Arc::new(CommitLog::new(writer, Arc::clone(&ctx.metrics))));
        }
        let db = MvDatabase {
            core: DbCore::new(ctx),
            cc,
        };
        // Recovery is one of the four flight-recorder triggers: leave a
        // postmortem of what was rebuilt (no events exist yet — the dump
        // carries the stats line and the resumed VC counters).
        db.core.ctx.obs.dump(
            FlightTrigger::Recovery,
            &DumpContext {
                victim: None,
                detail: format!(
                    "recovered: watermark={} replayed={} skipped={} last_tn={} clean_end={} torn_bytes={}",
                    stats.checkpoint_watermark,
                    stats.replayed,
                    stats.skipped,
                    stats.last_tn,
                    stats.clean_end,
                    stats.torn_bytes
                ),
                waits_for: None,
                vc: Some(db.core.ctx.vc.view()),
                trace_id: None,
            },
        );
        Ok((db, stats))
    }

    /// Engine restored from a checkpoint (see
    /// [`checkpoint`](Self::checkpoint)): the store holds the snapshot's
    /// versions and the version-control counters resume above its
    /// watermark, so new transaction numbers can never collide with
    /// checkpointed versions.
    pub fn restore(cc: C, config: DbConfig, r: &mut impl std::io::Read) -> std::io::Result<Self> {
        let (store, watermark) = MvStore::restore(r)?;
        let vc = Arc::new(VersionControl::resumed(watermark));
        let ctx = CcContext::with_parts(config, Arc::new(store), vc);
        Ok(MvDatabase {
            core: DbCore::new(ctx),
            cc,
        })
    }

    /// Write a transaction-consistent checkpoint of the database: every
    /// committed version up to the current `vtnc`. Safe to run while
    /// read-write traffic continues — the snapshot is protected from GC
    /// exactly like a live read-only transaction (the paper's "garbage
    /// collection algorithm which keeps the information about read-only
    /// transactions" integrates recovery for free): it announces itself
    /// before it reads its watermark.
    pub fn checkpoint(
        &self,
        w: &mut impl std::io::Write,
    ) -> std::io::Result<mvcc_storage::CheckpointStats> {
        let (slot, watermark) = self.core.ctx.announce();
        let result = self.core.ctx.store.checkpoint(w, watermark);
        self.core.ctx.readers.retire(slot);
        result
    }

    /// [`checkpoint`](Self::checkpoint), then rotate the write-ahead log
    /// down to the records the new checkpoint does not cover
    /// (`tn >` watermark). Rotation destroys every record the checkpoint
    /// absorbed, so the checkpoint bytes are made durable first: after
    /// writing the snapshot this calls [`CheckpointSink::sync`] and only
    /// then rotates. If the sync fails, the log is left unrotated and
    /// the error propagates (see DESIGN.md §9).
    pub fn checkpoint_and_rotate(
        &self,
        w: &mut impl crate::durability::CheckpointSink,
    ) -> std::io::Result<mvcc_storage::CheckpointStats> {
        let stats = self.checkpoint(w)?;
        if let Some(log) = &self.core.ctx.wal {
            w.sync()?;
            log.rotate(stats.watermark)?;
        }
        Ok(stats)
    }

    // ---- transactions ------------------------------------------------------

    /// Begin a read-only transaction (paper Figure 2):
    /// `sn(T) ← VCstart()`, taken after the transaction announced itself
    /// to garbage collection. Infallible and non-blocking.
    pub fn begin_read_only(&self) -> RoTxn<'_> {
        RoTxn::begin(&self.core)
    }

    /// Begin a read-only transaction under a currency rectification
    /// (paper Section 6). `Snapshot` is [`Self::begin_read_only`]; `AtLeast(tn)`
    /// first waits until `vtnc ≥ tn`, then begins as `Snapshot` does, so
    /// its start number is at least `tn`; `Latest` is rejected here — use
    /// [`begin_latest_read`](Self::begin_latest_read), which runs as a
    /// pseudo read-write transaction and therefore involves `C`.
    pub fn begin_read_only_with(
        &self,
        mode: CurrencyMode,
        timeout: Duration,
    ) -> Result<RoTxn<'_>, DbError> {
        match mode {
            CurrencyMode::Snapshot => Ok(self.begin_read_only()),
            CurrencyMode::AtLeast(tn) => {
                self.core
                    .ctx
                    .vc
                    .wait_visible(tn, timeout)
                    .ok_or(DbError::Aborted(crate::error::AbortReason::WaitTimeout))?;
                Ok(RoTxn::begin(&self.core))
            }
            CurrencyMode::Latest => Err(DbError::Internal(
                "CurrencyMode::Latest requires begin_latest_read (pseudo read-write)".into(),
            )),
        }
    }

    /// Begin a *pseudo read-write* transaction that observes the most
    /// recent state (paper Section 6: applications unwilling to "sacrifice
    /// currency" are "dealt with by executing them as pseudo read-write
    /// transactions"). It pays full concurrency-control cost.
    pub fn begin_latest_read(&self) -> Result<LatestTxn<'_, C>, DbError> {
        Ok(LatestTxn::new(self.begin_read_write()?))
    }

    /// Begin a read-write transaction under protocol `C`. Equivalent to
    /// [`begin_read_write_with`](Self::begin_read_write_with) with default
    /// options.
    pub fn begin_read_write(&self) -> Result<RwTxn<'_, C>, DbError> {
        self.begin_read_write_with(&TxnOptions::default())
    }

    /// Begin a read-write transaction with per-transaction options: an
    /// optional deadline budget, enforced at every subsequent operation
    /// and blocking point, and an explicit trace to join.
    pub fn begin_read_write_with(&self, opts: &TxnOptions) -> Result<RwTxn<'_, C>, DbError> {
        RwTxn::begin_with(&self.core, &self.cc, opts)
    }

    /// Run a read-write transaction body with automatic commit and
    /// bounded retry on retryable aborts (no backoff). Returns
    /// `(tn, result)`.
    pub fn run_rw<R>(
        &self,
        max_attempts: u32,
        body: impl FnMut(&mut RwTxn<'_, C>) -> Result<R, DbError>,
    ) -> Result<(u64, R), DbError> {
        self.run_rw_with(&RetryPolicy::no_backoff(max_attempts), body)
    }

    /// Run a read-write transaction body under an explicit
    /// [`RetryPolicy`]: bounded attempts, exponential backoff with
    /// deterministic jitter between them, and per-[`AbortReason`] retry
    /// counters. Returns `(tn, result)`.
    pub fn run_rw_with<R>(
        &self,
        policy: &RetryPolicy,
        body: impl FnMut(&mut RwTxn<'_, C>) -> Result<R, DbError>,
    ) -> Result<(u64, R), DbError> {
        self.run_rw_deadline(policy, &TxnOptions::default(), body)
    }

    /// [`run_rw_with`](Self::run_rw_with) under a shared deadline budget:
    /// one absolute deadline is computed from `opts.deadline` up front and
    /// every attempt — including its backoff sleep, which goes through the
    /// injected (possibly virtual) clock — draws from it. Retrying stops
    /// early when the remaining budget cannot fund the next backoff step
    /// (see [`RetryPolicy::backoff_within`]), returning the last retryable
    /// error rather than burning budget on an attempt that would begin
    /// already expired. Without a deadline this is exactly `run_rw_with`.
    pub fn run_rw_deadline<R>(
        &self,
        policy: &RetryPolicy,
        opts: &TxnOptions,
        mut body: impl FnMut(&mut RwTxn<'_, C>) -> Result<R, DbError>,
    ) -> Result<(u64, R), DbError> {
        let config = &self.core.ctx.config;
        let obs = &self.core.ctx.obs;
        let deadline = opts
            .deadline
            .map(|budget| Deadline::within(&*config.clock, budget));
        // Explicit trace on the options wins; otherwise sample once for
        // the whole run so retries share one span tree.
        let run_trace = opts.trace.or_else(|| {
            obs.span_sampled().then(|| crate::obs::TraceCtx {
                trace_id: obs.tracer().auto_id(),
            })
        });
        let mut jitter = policy.jitter_stream_with(config.rng.as_deref());
        let mut last_err = DbError::Internal("run_rw_deadline: zero attempts".into());
        let attempts = policy.max_attempts.max(1);
        for attempt in 0..attempts {
            if attempt > 0 {
                record_retry(&self.core.ctx.metrics, &last_err);
                let sleep = match deadline {
                    Some(d) => {
                        let remaining = d.remaining(&*config.clock);
                        match policy.backoff_within(attempt - 1, &mut jitter, remaining) {
                            Some(s) => s,
                            None => return Err(last_err),
                        }
                    }
                    None => policy.backoff_for(attempt - 1, &mut jitter),
                };
                if !sleep.is_zero() {
                    self.sleep_traced(sleep, run_trace, attempt);
                }
            }
            // Each attempt carries what is left of the shared budget, so
            // in-transaction blocking points see the runner's deadline,
            // not a fresh per-attempt one.
            let mut attempt_opts = match deadline {
                Some(d) => opts.clone().with_deadline(d.remaining(&*config.clock)),
                None => opts.clone(),
            };
            attempt_opts.trace = run_trace;
            let mut txn = self.begin_read_write_with(&attempt_opts)?;
            match body(&mut txn) {
                Ok(r) => match txn.commit() {
                    Ok(tn) => return Ok((tn, r)),
                    Err(e) if e.is_retryable() => last_err = e,
                    Err(e) => return Err(e),
                },
                Err(e) if e.is_retryable() => {
                    drop(txn);
                    last_err = e;
                }
                Err(e) => return Err(e),
            }
        }
        Err(last_err)
    }

    /// Sleep on the engine clock, recording a `backoff` span under the
    /// run's trace root when one is active.
    fn sleep_traced(&self, sleep: Duration, run_trace: Option<crate::obs::TraceCtx>, attempt: u32) {
        let span = run_trace.map(|tc| {
            let t = self.core.ctx.obs.tracer().activate(tc.trace_id);
            let start_ns = t.now_ns();
            (t, start_ns)
        });
        self.core.ctx.config.clock.sleep(sleep);
        if let Some((t, start_ns)) = span {
            t.record_closed(
                crate::obs::trace::ROOT_SPAN,
                "backoff",
                start_ns,
                vec![("attempt", attempt as u64)],
            );
        }
    }

    // ---- administration ----------------------------------------------------

    /// Load an initial value for `obj` (becomes version 0, written by the
    /// pseudo-transaction `T_0`).
    pub fn seed(&self, obj: ObjectId, value: Value) {
        self.core.ctx.store.seed(obj, value);
    }

    /// Read the most recent committed value without any transaction
    /// (administrative peek; not serializable with anything).
    pub fn peek_latest(&self, obj: ObjectId) -> Value {
        self.core.ctx.store.read_latest(obj).1
    }

    /// Run a garbage-collection sweep. It publishes the GC floor
    /// `min(vtnc, oldest announced read-only start number)` — the paper's
    /// Section 6 rule plus protection of in-flight snapshots — and prunes
    /// every chain against it: the chains commits have not pruned at
    /// install since a reader pinned them. `versions_pruned` also counts
    /// the versions installs pruned since the previous sweep.
    pub fn collect_garbage(&self) -> GcStats {
        let ctx = &self.core.ctx;
        let watermark = ctx.publish_floor();
        let mut stats = ctx
            .store
            .collect_garbage_keep(watermark, ctx.config.gc_keep_versions);
        let at_install = ctx.metrics.snapshot().gc_install_pruned;
        let seen = self
            .core
            .install_pruned_seen
            .swap(at_install, Ordering::Relaxed);
        stats.versions_pruned += at_install.saturating_sub(seen) as usize;
        ctx.obs.emit(
            EventKind::GcPrune,
            stats.watermark,
            stats.versions_pruned as u64,
        );
        stats
    }

    /// Run one stall-reaper pass: force-`VCdiscard` every registration
    /// whose TTL (see [`DbConfig::register_ttl`]) expired while still
    /// `Active`. Safe to call from any thread at any time — see
    /// [`VersionControl::reap`] for the safety argument. Returns the
    /// reaped transaction numbers.
    pub fn reap_stalled(&self) -> Vec<u64> {
        let ctx = &self.core.ctx;
        reap_pass(&ctx.vc, &ctx.metrics, &ctx.obs, "stall", || {
            self.cc.waits_for_snapshot()
        })
    }

    /// Spawn a background thread that runs [`reap_stalled`](Self::reap_stalled)
    /// every `interval` until the returned [`ReaperHandle`] is stopped or
    /// dropped. For deterministic tests and experiments, call
    /// `reap_stalled` explicitly instead.
    pub fn spawn_reaper(&self, interval: Duration) -> ReaperHandle {
        ReaperHandle::spawn(
            Arc::clone(&self.core.ctx.vc),
            Arc::clone(&self.core.ctx.metrics),
            Arc::clone(&self.core.ctx.obs),
            interval,
        )
    }

    // ---- observability -----------------------------------------------------

    /// The observability hub (event bus, phase latencies, flight
    /// recorder). Always present; near-free when disabled.
    pub fn obs(&self) -> &Arc<Obs> {
        &self.core.ctx.obs
    }

    /// Snapshot of the per-phase latency histograms.
    pub fn phase_latencies(&self) -> PhaseSnapshot {
        self.core.ctx.obs.phases().snapshot()
    }

    /// Take one gauge sample across every layer: version-control counters
    /// and queue state, live version count, WAL durability backlog, and
    /// whatever protocol-specific gauges `C` exposes (lock-shard
    /// occupancy under 2PL, pending writes under TO, …).
    /// The well-known protocol gauges `pending_versions`,
    /// `locked_objects` and `occupied_lock_shards` are lifted into their
    /// first-class fields; the rest ride in [`GaugeSample::extra`].
    pub fn sample_gauges(&self) -> GaugeSample {
        let st = self.core.ctx.store.stats();
        let mut sample = GaugeSample {
            vc: self.core.ctx.vc.view(),
            live_versions: st.committed_versions as u64,
            pending_versions: 0,
            locked_objects: 0,
            occupied_lock_shards: 0,
            wal_backlog_bytes: self
                .core
                .ctx
                .wal
                .as_ref()
                .map_or(0, |wal| wal.backlog_bytes()),
            extra: Vec::new(),
        };
        for (name, value) in self.cc.gauges() {
            match name {
                "pending_versions" => sample.pending_versions = value,
                "locked_objects" => sample.locked_objects = value,
                "occupied_lock_shards" => sample.occupied_lock_shards = value,
                _ => sample.extra.push((name, value)),
            }
        }
        sample
    }

    /// Render counters, a fresh gauge sample, phase latency histograms,
    /// and per-kind event counts in the Prometheus text exposition
    /// format (conformant: HELP/TYPE headers, cumulative `le` buckets).
    pub fn prometheus_text(&self) -> String {
        prometheus_text(
            &self.metrics(),
            Some(&self.sample_gauges()),
            Some(&self.phase_latencies()),
            Some(&self.core.ctx.obs.event_counts()),
            self.core.ctx.obs.attr_snapshot().as_ref(),
        )
    }

    /// Render counters, a fresh gauge sample, phase latencies, and event
    /// counts as one JSON object.
    pub fn metrics_json(&self) -> String {
        json_snapshot(
            &self.metrics(),
            Some(&self.sample_gauges()),
            Some(&self.phase_latencies()),
            Some(&self.core.ctx.obs.event_counts()),
        )
    }

    /// Render the contention-attribution profile — hot keys/shards and
    /// the folded blocking-blame profile — as one JSON object. The
    /// `attribution` section is `null` unless
    /// [`ObsConfig::attribution`](crate::obs::ObsConfig) is enabled.
    pub fn profile_json(&self) -> String {
        crate::obs::profile_json(self.core.ctx.obs.attr_snapshot().as_ref())
    }

    /// Start an explicit end-to-end trace. Pass the returned context via
    /// [`TxnOptions::with_trace`] (every attempt, wait, WAL append, and
    /// VCQueue residency lands in one span tree), then export it with
    /// [`trace_chrome_json`](Self::trace_chrome_json).
    pub fn start_trace(&self) -> crate::obs::TraceCtx {
        self.core.ctx.obs.tracer().start()
    }

    /// Snapshot a trace's span tree (explicit or auto-sampled), if it is
    /// still resident in the registry.
    pub fn trace_snapshot(&self, trace_id: u64) -> Option<crate::obs::TraceSnapshot> {
        self.core.ctx.obs.tracer().snapshot(trace_id)
    }

    /// Render a trace as Chrome `trace_event` JSON — load it in
    /// `chrome://tracing` or Perfetto. `None` if the trace is unknown.
    pub fn trace_chrome_json(&self, trace_id: u64) -> Option<String> {
        self.trace_snapshot(trace_id)
            .map(|t| crate::obs::chrome_trace_json(&t))
    }

    /// The fault injector (for experiments and tests).
    pub fn faults(&self) -> &Arc<FaultInjector> {
        &self.core.ctx.faults
    }

    /// The write-ahead log handle, if this engine is durable.
    pub fn wal(&self) -> Option<&Arc<CommitLog>> {
        self.core.ctx.wal.as_ref()
    }

    /// The version-control module (for experiments and tests).
    pub fn vc(&self) -> &VersionControl {
        &self.core.ctx.vc
    }

    /// The underlying store (for experiments and tests).
    pub fn store(&self) -> &Arc<MvStore> {
        &self.core.ctx.store
    }

    /// The concurrency-control protocol instance.
    pub fn cc(&self) -> &C {
        &self.cc
    }

    /// Snapshot of the engine counters, merging in the contention
    /// counters kept inside the version-control module (which has no
    /// `Metrics` handle of its own).
    pub fn metrics(&self) -> MetricsSnapshot {
        let mut snap = self.core.ctx.metrics.snapshot();
        let (_, wait_ns) = self.core.ctx.vc.contention();
        snap.vc_lock_wait_ns = snap.vc_lock_wait_ns.saturating_add(wait_ns);
        snap
    }

    /// Reset the engine counters (between experiment phases).
    pub fn reset_metrics(&self) {
        self.core.ctx.metrics.reset();
        self.core.ctx.vc.reset_contention();
    }

    /// Storage statistics.
    pub fn store_stats(&self) -> StoreStats {
        self.core.ctx.store.stats()
    }

    /// The recorded execution history, if tracing is enabled.
    pub fn trace_history(&self) -> Option<History> {
        self.core.tracer.as_ref().map(|t| t.history())
    }
}

/// Bump the retry counters for one retry triggered by `err`.
fn record_retry(metrics: &Metrics, err: &DbError) {
    let metrics = metrics.local();
    metrics.rw_retries.fetch_add(1, Ordering::Relaxed);
    let counter = match err.abort_reason() {
        Some(AbortReason::TimestampConflict) => &metrics.retries_ts_conflict,
        Some(AbortReason::Deadlock) => &metrics.retries_deadlock,
        Some(AbortReason::ValidationFailed) => &metrics.retries_validation,
        Some(AbortReason::WaitTimeout) => &metrics.retries_timeout,
        Some(AbortReason::BaselineConflict) => &metrics.retries_baseline,
        Some(AbortReason::Reaped) => &metrics.retries_reaped,
        _ => return,
    };
    counter.fetch_add(1, Ordering::Relaxed);
}

/// One stall-reaper pass over `vc`: force-discard the expired
/// registrations, count them, and dump the flight recorder — a reaper
/// firing means a transaction stalled long enough to pin vtnc past its
/// TTL, exactly the anomaly the recorder exists for. The first victim
/// anchors the timeline. `who` names the reaper in the dump's detail
/// line; `waits_for` runs only when something was reaped.
fn reap_pass(
    vc: &VersionControl,
    metrics: &Metrics,
    obs: &Obs,
    who: &str,
    waits_for: impl FnOnce() -> Option<Vec<(u64, Vec<u64>)>>,
) -> Vec<u64> {
    let reaped = vc.reap();
    if !reaped.is_empty() {
        let n = reaped.len() as u64;
        let m = metrics.local();
        m.reaper_force_discards.fetch_add(n, Ordering::Relaxed);
        m.vc_discard_calls.fetch_add(n, Ordering::Relaxed);
        obs.dump(
            FlightTrigger::ReaperFire,
            &DumpContext {
                victim: reaped.first().copied(),
                detail: format!("{who} reaper force-discarded tns {reaped:?}"),
                waits_for: waits_for(),
                vc: Some(vc.view()),
                trace_id: None,
            },
        );
    }
    reaped
}

/// Handle to a background stall-reaper thread (see
/// [`MvDatabase::spawn_reaper`]). Stops and joins the thread on drop.
pub struct ReaperHandle {
    stop: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl ReaperHandle {
    fn spawn(
        vc: Arc<VersionControl>,
        metrics: Arc<Metrics>,
        obs: Arc<Obs>,
        interval: Duration,
    ) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let thread = std::thread::spawn(move || {
            while !stop2.load(Ordering::Relaxed) {
                // No protocol handle on this thread, so no waits-for
                // edges; the VC view and event window still land.
                reap_pass(&vc, &metrics, &obs, "background", || None);
                std::thread::sleep(interval);
            }
        });
        ReaperHandle {
            stop,
            thread: Some(thread),
        }
    }

    /// Stop the reaper and wait for its thread to exit.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for ReaperHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    // Engine-level tests live in `mvcc-cc` (which provides protocols) and
    // in the workspace integration tests; here we only verify the
    // protocol-independent pieces using a trivial no-conflict protocol.
    use super::*;
    use crate::cc_api::testing::SerialCc;
    use crate::error::DbError;
    use mvcc_model::mvsg;
    use mvcc_storage::Value;

    fn db() -> MvDatabase<SerialCc> {
        MvDatabase::with_config(SerialCc, DbConfig::traced())
    }

    #[test]
    fn rw_commit_then_ro_sees_it() {
        let db = db();
        let mut t = db.begin_read_write().unwrap();
        t.write(ObjectId(1), Value::from_u64(7)).unwrap();
        let tn = t.commit().unwrap();
        assert_eq!(tn, 1);

        let mut r = db.begin_read_only();
        assert_eq!(r.sn(), 1);
        assert_eq!(r.read_u64(ObjectId(1)).unwrap(), Some(7));
        r.finish();
    }

    #[test]
    fn ro_snapshot_isolated_from_later_commit() {
        let db = db();
        db.run_rw(1, |t| t.write(ObjectId(1), Value::from_u64(1)))
            .unwrap();
        let mut r = db.begin_read_only(); // sn = 1
        db.run_rw(1, |t| t.write(ObjectId(1), Value::from_u64(2)))
            .unwrap();
        // The snapshot still reads version 1.
        assert_eq!(r.read_u64(ObjectId(1)).unwrap(), Some(1));
        let mut r2 = db.begin_read_only();
        assert_eq!(r2.read_u64(ObjectId(1)).unwrap(), Some(2));
        r.finish();
        r2.finish();
    }

    #[test]
    fn abort_leaves_no_trace_in_data() {
        let db = db();
        let mut t = db.begin_read_write().unwrap();
        t.write(ObjectId(1), Value::from_u64(9)).unwrap();
        t.abort();
        let mut r = db.begin_read_only();
        assert_eq!(r.read(ObjectId(1)).unwrap(), Value::empty());
        // vtnc stays at 0 (Figure 1 only assigns completed numbers to
        // vtnc), which is harmless: no committed version numbered 1 will
        // ever exist. The next completion jumps the counter over the gap.
        assert_eq!(db.vc().vtnc(), 0);
        drop(r);
        db.run_rw(1, |t| t.write(ObjectId(2), Value::from_u64(1)))
            .unwrap();
        assert_eq!(db.vc().vtnc(), 2); // skipped the aborted number 1
    }

    #[test]
    fn drop_without_commit_aborts() {
        let db = db();
        {
            let mut t = db.begin_read_write().unwrap();
            t.write(ObjectId(1), Value::from_u64(9)).unwrap();
            // dropped here
        }
        assert_eq!(db.metrics().rw_aborted, 1);
        assert_eq!(db.peek_latest(ObjectId(1)), Value::empty());
    }

    #[test]
    fn run_rw_commits_and_returns_value() {
        let db = db();
        let (tn, doubled) = db
            .run_rw(3, |t| {
                let v = t.read_u64(ObjectId(5))?.unwrap_or(0);
                t.write(ObjectId(5), Value::from_u64(v * 2 + 10))?;
                Ok(v * 2 + 10)
            })
            .unwrap();
        assert_eq!(tn, 1);
        assert_eq!(doubled, 10);
        assert_eq!(db.peek_latest(ObjectId(5)).as_u64(), Some(10));
    }

    #[test]
    fn seed_is_version_zero() {
        let db = db();
        db.seed(ObjectId(2), Value::from_u64(100));
        let mut r = db.begin_read_only();
        assert_eq!(r.sn(), 0);
        assert_eq!(r.read_u64(ObjectId(2)).unwrap(), Some(100));
    }

    #[test]
    fn trace_is_one_copy_serializable() {
        let db = db();
        for i in 0..5u64 {
            db.run_rw(1, |t| {
                let v = t.read_u64(ObjectId(i % 2))?.unwrap_or(0);
                t.write(ObjectId(i % 2), Value::from_u64(v + 1))
            })
            .unwrap();
        }
        let mut r = db.begin_read_only();
        let _ = r.read(ObjectId(0)).unwrap();
        let _ = r.read(ObjectId(1)).unwrap();
        r.finish();
        let h = db.trace_history().unwrap();
        let report = mvsg::check_tn_order(&h);
        assert!(report.acyclic, "trace not 1SR: {h}");
    }

    #[test]
    fn gc_respects_live_snapshot() {
        let db = db();
        db.run_rw(1, |t| t.write(ObjectId(1), Value::from_u64(1)))
            .unwrap();
        let mut r = db.begin_read_only(); // sn = 1
        for v in 2..6u64 {
            db.run_rw(1, |t| t.write(ObjectId(1), Value::from_u64(v)))
                .unwrap();
        }
        let stats = db.collect_garbage();
        // watermark clamped to the live snapshot's sn = 1
        assert_eq!(stats.watermark, 1);
        assert_eq!(r.read_u64(ObjectId(1)).unwrap(), Some(1));
        r.finish();
        // now the watermark can advance
        let stats = db.collect_garbage();
        assert_eq!(stats.watermark, 5);
        let mut r2 = db.begin_read_only();
        assert_eq!(r2.read_u64(ObjectId(1)).unwrap(), Some(5));
    }

    #[test]
    fn gauges_and_exporters_cover_engine_state() {
        let db = db();
        db.run_rw(1, |t| t.write(ObjectId(1), Value::from_u64(1)))
            .unwrap();
        db.run_rw(1, |t| t.write(ObjectId(2), Value::from_u64(2)))
            .unwrap();
        let g = db.sample_gauges();
        assert_eq!(g.vc.tnc, 2, "two transactions assigned");
        assert_eq!(g.vc.vtnc, 2);
        // Chains materialize an implicit version-0 baseline, so count via
        // the store's own stats rather than hard-coding.
        assert_eq!(g.live_versions, db.store_stats().committed_versions as u64);
        assert!(g.live_versions >= 2);
        assert_eq!(g.wal_backlog_bytes, 0, "no WAL attached");

        let text = db.prometheus_text();
        assert!(text.contains("mvdb_rw_committed 2"));
        assert!(text.contains("mvdb_gauge_vtnc 2"));
        let json = db.metrics_json();
        assert!(json.contains("\"rw_committed\": 2"));
        assert!(json.contains("\"vtnc\": 2"));
    }

    #[test]
    fn gc_pass_emits_prune_event() {
        let db = MvDatabase::with_config(SerialCc, DbConfig::default().with_events());
        for v in 1..=5u64 {
            db.run_rw(1, |t| t.write(ObjectId(1), Value::from_u64(v)))
                .unwrap();
        }
        let stats = db.collect_garbage();
        assert!(stats.versions_pruned > 0);
        let events = db.obs().events().recent(64);
        let prune = events
            .iter()
            .find(|e| e.kind == crate::obs::EventKind::GcPrune)
            .expect("GcPrune event recorded");
        assert_eq!(prune.id, stats.watermark);
        assert_eq!(prune.aux, stats.versions_pruned as u64);
    }

    #[test]
    fn zero_budget_aborts_as_deadline_exceeded_at_first_operation() {
        use crate::clock::SimClock;
        let clock = SimClock::new();
        let db = MvDatabase::with_config(SerialCc, DbConfig::default().with_clock(clock.clone()));
        let opts = TxnOptions::default().with_deadline(Duration::ZERO);
        let mut t = db.begin_read_write_with(&opts).unwrap();
        assert_eq!(
            t.read(ObjectId(1)).unwrap_err(),
            DbError::Aborted(AbortReason::DeadlineExceeded)
        );
        drop(t);
        let m = db.metrics();
        assert_eq!((m.rw_aborted, m.aborts_deadline), (1, 1));
    }

    #[test]
    fn run_rw_deadline_stops_when_budget_cannot_fund_backoff() {
        use crate::clock::SimClock;
        let clock = SimClock::new();
        let db = MvDatabase::with_config(SerialCc, DbConfig::default().with_clock(clock.clone()));
        let policy = RetryPolicy {
            max_attempts: 10,
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(10),
            jitter: 0.0,
            seed: 1,
        };
        // Budget funds exactly two 10ms backoffs (and no third attempt's).
        let opts = TxnOptions::default().with_deadline(Duration::from_millis(25));
        let mut attempts = 0u32;
        let out: Result<(u64, ()), DbError> = db.run_rw_deadline(&policy, &opts, |_t| {
            attempts += 1;
            Err(DbError::Aborted(AbortReason::ValidationFailed))
        });
        assert!(matches!(
            out,
            Err(DbError::Aborted(AbortReason::ValidationFailed))
        ));
        assert_eq!(attempts, 3, "initial try + two funded retries");
        assert_eq!(clock.elapsed_ns(), 20_000_000, "only funded sleeps ran");
    }

    #[test]
    fn run_rw_deadline_without_deadline_matches_run_rw_with() {
        let db = db();
        let policy = RetryPolicy::no_backoff(4);
        let opts = TxnOptions::default();
        let (tn, v) = db
            .run_rw_deadline(&policy, &opts, |t| {
                t.write(ObjectId(3), Value::from_u64(9))?;
                Ok(9u64)
            })
            .unwrap();
        assert_eq!((tn, v), (1, 9));
    }

    #[test]
    fn ro_metrics_count_single_sync_action() {
        let db = db();
        db.run_rw(1, |t| t.write(ObjectId(1), Value::from_u64(1)))
            .unwrap();
        db.reset_metrics();
        let mut r = db.begin_read_only();
        let _ = r.read(ObjectId(1)).unwrap();
        let _ = r.read(ObjectId(2)).unwrap();
        r.finish();
        let m = db.metrics();
        assert_eq!(m.ro_begun, 1);
        assert_eq!(m.ro_reads, 2);
        assert_eq!(m.ro_sync_actions, 1, "exactly one VCstart, nothing else");
        assert_eq!(m.ro_blocks, 0);
        assert_eq!(m.ro_aborts, 0);
    }
}
