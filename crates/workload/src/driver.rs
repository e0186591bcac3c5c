//! Multithreaded closed-loop workload driver over the [`Engine`] trait.
//!
//! Each thread generates transactions from the spec with its own seeded
//! RNG and issues them back-to-back (closed loop). Read-write aborts are
//! retried up to a bound (retries counted); read-only failures (possible
//! only in baselines, where RO transactions can be victimized) are
//! counted and retried too. Latency is measured across retries — the
//! client-visible cost of getting the transaction done.

use crate::keydist::KeySampler;
use crate::spec::WorkloadSpec;
use mvcc_core::clock::{real_clock, Clock, SharedClock};
use mvcc_core::{Engine, GaugeSample, MetricsSnapshot, OpSpec, PhaseSnapshot, RetryPolicy};
use mvcc_model::ObjectId;
use mvcc_storage::{Histogram, Value};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One periodic observation emitted by the driver's control loop while a
/// run is in flight (see [`DriverConfig::reporter`]).
#[derive(Debug, Clone)]
pub struct ReportTick {
    /// 0-based index of this tick within the run.
    pub seq: u64,
    /// Time since the run started.
    pub elapsed: Duration,
    /// Engine counters accumulated since the run began (after − before).
    pub metrics: MetricsSnapshot,
    /// Point-in-time gauges, when the engine exposes them.
    pub gauges: Option<GaugeSample>,
    /// Per-phase latency snapshot, when the engine keeps one.
    pub phases: Option<PhaseSnapshot>,
}

/// Periodic metrics callback fired from the driver's control loop — the
/// hook an exporter sidecar (Prometheus scrape file, live dashboard,
/// progress log) attaches to. Wraps the closure in an `Arc` so
/// [`DriverConfig`] stays `Clone`.
#[derive(Clone)]
pub struct Reporter(Arc<dyn Fn(&ReportTick) + Send + Sync>);

impl Reporter {
    /// Wrap a callback.
    pub fn new(f: impl Fn(&ReportTick) + Send + Sync + 'static) -> Self {
        Reporter(Arc::new(f))
    }

    /// Invoke the callback.
    pub fn fire(&self, tick: &ReportTick) {
        (self.0)(tick);
    }
}

impl fmt::Debug for Reporter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Reporter(..)")
    }
}

/// Driver parameters.
#[derive(Debug, Clone)]
pub struct DriverConfig {
    /// Worker threads.
    pub threads: usize,
    /// Wall-clock run duration.
    pub duration: Duration,
    /// Retry bound per transaction before giving up.
    pub max_retries: u32,
    /// Backoff discipline between retries. The attempt bound stays
    /// [`max_retries`](Self::max_retries); only the policy's sleep
    /// parameters apply here. The default never sleeps (the historical
    /// behavior); fault experiments switch to an exponential policy.
    pub backoff: RetryPolicy,
    /// Run `Engine::maintenance()` (GC) from the driver roughly this
    /// often, if set.
    pub gc_every: Option<Duration>,
    /// Stop after this many transactions (across all threads), if set —
    /// used when a bounded trace is needed (oracle checks).
    pub txn_budget: Option<u64>,
    /// Fire the [`reporter`](Self::reporter) roughly this often, if set.
    pub report_every: Option<Duration>,
    /// Periodic metrics callback (exporter hook) invoked from the control
    /// loop with a [`ReportTick`]. Ignored unless
    /// [`report_every`](Self::report_every) is also set.
    pub reporter: Option<Reporter>,
    /// Time source for latency stamps, backoff sleeps, and
    /// interval bookkeeping. Defaults to the real wall clock; under a
    /// simulated clock the control loop still polls on a real 2 ms tick
    /// (the run then needs a [`txn_budget`](Self::txn_budget), since
    /// virtual time only advances when a worker sleeps).
    pub clock: SharedClock,
}

impl Default for DriverConfig {
    fn default() -> Self {
        DriverConfig {
            threads: 4,
            duration: Duration::from_millis(200),
            max_retries: 64,
            backoff: RetryPolicy::no_backoff(0),
            gc_every: None,
            txn_budget: None,
            report_every: None,
            reporter: None,
            clock: real_clock(),
        }
    }
}

/// Aggregated outcome of a driver run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Engine name.
    pub engine: String,
    /// Wall-clock time actually spent.
    pub elapsed: Duration,
    /// Completed read-only transactions.
    pub ro_committed: u64,
    /// Completed read-write transactions.
    pub rw_committed: u64,
    /// Transactions abandoned after exhausting retries.
    pub gave_up: u64,
    /// Total read-write retry attempts (aborted attempts).
    pub rw_retries: u64,
    /// Total read-only retry attempts (non-zero only for baselines).
    pub ro_retries: u64,
    /// Read-only latency (per completed transaction, across retries).
    pub ro_latency: Histogram,
    /// Read-write latency (per committed transaction, across retries).
    pub rw_latency: Histogram,
    /// Sum of read-only visibility lag samples (see `RoOutcome`).
    pub lag_sum: u64,
    /// Number of lag samples.
    pub lag_samples: u64,
    /// Engine counters over the run (after − before).
    pub metrics: MetricsSnapshot,
}

impl RunReport {
    /// Committed transactions per second (both classes).
    pub fn throughput(&self) -> f64 {
        (self.ro_committed + self.rw_committed) as f64 / self.elapsed.as_secs_f64()
    }

    /// Committed read-only transactions per second.
    pub fn ro_throughput(&self) -> f64 {
        self.ro_committed as f64 / self.elapsed.as_secs_f64()
    }

    /// Committed read-write transactions per second.
    pub fn rw_throughput(&self) -> f64 {
        self.rw_committed as f64 / self.elapsed.as_secs_f64()
    }

    /// Mean read-only visibility lag (assigned-but-invisible transactions
    /// at RO begin).
    pub fn mean_lag(&self) -> f64 {
        if self.lag_samples == 0 {
            0.0
        } else {
            self.lag_sum as f64 / self.lag_samples as f64
        }
    }

    /// Abort rate of read-write attempts: aborts / (aborts + commits).
    pub fn rw_abort_rate(&self) -> f64 {
        let attempts = self.rw_retries + self.rw_committed;
        if attempts == 0 {
            0.0
        } else {
            self.rw_retries as f64 / attempts as f64
        }
    }
}

struct ThreadOutcome {
    ro_committed: u64,
    rw_committed: u64,
    gave_up: u64,
    rw_retries: u64,
    ro_retries: u64,
    ro_latency: Histogram,
    rw_latency: Histogram,
    lag_sum: u64,
    lag_samples: u64,
}

/// The per-attempt retry discipline shared by every worker: bound,
/// backoff policy, and the clock that times both sleeps and latency.
struct RetryKnobs<'a> {
    max_retries: u32,
    backoff: &'a RetryPolicy,
    clock: &'a dyn Clock,
}

/// Generate the next transaction and run it to completion (with retries).
fn run_one(
    engine: &dyn Engine,
    spec: &WorkloadSpec,
    sampler: &KeySampler,
    rng: &mut SmallRng,
    knobs: &RetryKnobs<'_>,
    out: &mut ThreadOutcome,
) {
    let RetryKnobs {
        max_retries,
        backoff,
        clock,
    } = *knobs;
    let mut jitter = backoff.jitter_stream();
    let is_ro = rng.random_bool(spec.ro_fraction.clamp(0.0, 1.0));
    if is_ro {
        let keys: Vec<ObjectId> = (0..spec.ro_ops)
            .map(|_| ObjectId(sampler.sample(rng)))
            .collect();
        let started = clock.now();
        for attempt in 0..=max_retries {
            match engine.run_read_only(&keys) {
                Ok(ro) => {
                    out.ro_committed += 1;
                    out.ro_latency
                        .record(clock.now().saturating_duration_since(started));
                    out.lag_sum += ro.lag_at_start;
                    out.lag_samples += 1;
                    return;
                }
                Err(e) if e.is_retryable() && attempt < max_retries => {
                    out.ro_retries += 1;
                    let sleep = backoff.backoff_for(attempt, &mut jitter);
                    if !sleep.is_zero() {
                        clock.sleep(sleep);
                    }
                }
                Err(_) => {
                    out.gave_up += 1;
                    return;
                }
            }
        }
    } else {
        let ops: Vec<OpSpec> = (0..spec.rw_ops)
            .map(|_| {
                let k = ObjectId(sampler.sample(rng));
                if spec.use_increments {
                    OpSpec::Increment(k, 1)
                } else if rng.random_bool(spec.rw_write_fraction.clamp(0.0, 1.0)) {
                    OpSpec::Write(k, Value::from_u64(rng.random::<u32>() as u64))
                } else {
                    OpSpec::Read(k)
                }
            })
            .collect();
        let started = clock.now();
        for attempt in 0..=max_retries {
            match engine.run_read_write(&ops) {
                Ok(_) => {
                    out.rw_committed += 1;
                    out.rw_latency
                        .record(clock.now().saturating_duration_since(started));
                    return;
                }
                Err(e) if e.is_retryable() && attempt < max_retries => {
                    out.rw_retries += 1;
                    let sleep = backoff.backoff_for(attempt, &mut jitter);
                    if !sleep.is_zero() {
                        clock.sleep(sleep);
                    }
                }
                Err(_) => {
                    out.gave_up += 1;
                    return;
                }
            }
        }
    }
}

/// Run `spec` against `engine` for `cfg.duration` with `cfg.threads`
/// closed-loop workers.
pub fn run(engine: &dyn Engine, spec: &WorkloadSpec, cfg: &DriverConfig) -> RunReport {
    let sampler = KeySampler::new(spec.distribution, spec.n_objects);
    let before = engine.metrics();
    let stop = AtomicBool::new(false);
    let budget = std::sync::atomic::AtomicU64::new(cfg.txn_budget.unwrap_or(u64::MAX));
    let clock = &cfg.clock;
    let started = clock.now();
    let since = |at: Instant| clock.now().saturating_duration_since(at);

    let outcomes: Vec<ThreadOutcome> = std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(cfg.threads);
        for t in 0..cfg.threads {
            let sampler = sampler.clone();
            let stop = &stop;
            let budget = &budget;
            let spec_ref = spec;
            handles.push(scope.spawn(move || {
                let mut rng = SmallRng::seed_from_u64(spec_ref.thread_seed(t));
                let mut out = ThreadOutcome {
                    ro_committed: 0,
                    rw_committed: 0,
                    gave_up: 0,
                    rw_retries: 0,
                    ro_retries: 0,
                    ro_latency: Histogram::new(),
                    rw_latency: Histogram::new(),
                    lag_sum: 0,
                    lag_samples: 0,
                };
                while !stop.load(Ordering::Relaxed) {
                    // claim one unit of budget (never wraps: stops at 0)
                    if budget
                        .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |b| b.checked_sub(1))
                        .is_err()
                    {
                        break;
                    }
                    run_one(
                        engine,
                        spec_ref,
                        &sampler,
                        &mut rng,
                        &RetryKnobs {
                            max_retries: cfg.max_retries,
                            backoff: &cfg.backoff,
                            clock: cfg.clock.as_ref(),
                        },
                        &mut out,
                    );
                }
                out
            }));
        }

        // Control loop: maintenance + reporter ticks + stop signal. The
        // poll tick stays on the real clock (it paces a real thread);
        // the durations it compares come from the injected clock.
        let mut last_gc = clock.now();
        let mut last_report = clock.now();
        let mut report_seq = 0u64;
        while since(started) < cfg.duration && budget.load(Ordering::Relaxed) > 0 {
            std::thread::sleep(Duration::from_millis(2).min(cfg.duration));
            if let Some(every) = cfg.gc_every {
                if since(last_gc) >= every {
                    engine.maintenance();
                    last_gc = clock.now();
                }
            }
            if let (Some(every), Some(reporter)) = (cfg.report_every, cfg.reporter.as_ref()) {
                if since(last_report) >= every {
                    reporter.fire(&ReportTick {
                        seq: report_seq,
                        elapsed: since(started),
                        metrics: engine.metrics().delta(&before),
                        gauges: engine.sample_gauges(),
                        phases: engine.phase_latencies(),
                    });
                    report_seq += 1;
                    last_report = clock.now();
                }
            }
        }
        stop.store(true, Ordering::Relaxed);
        handles
            .into_iter()
            .map(|h| h.join().expect("worker panicked"))
            .collect()
    });

    let elapsed = since(started);
    let mut report = RunReport {
        engine: engine.name(),
        elapsed,
        ro_committed: 0,
        rw_committed: 0,
        gave_up: 0,
        rw_retries: 0,
        ro_retries: 0,
        ro_latency: Histogram::new(),
        rw_latency: Histogram::new(),
        lag_sum: 0,
        lag_samples: 0,
        metrics: engine.metrics().delta(&before),
    };
    for o in outcomes {
        report.ro_committed += o.ro_committed;
        report.rw_committed += o.rw_committed;
        report.gave_up += o.gave_up;
        report.rw_retries += o.rw_retries;
        report.ro_retries += o.ro_retries;
        report.ro_latency.merge(&o.ro_latency);
        report.rw_latency.merge(&o.rw_latency);
        report.lag_sum += o.lag_sum;
        report.lag_samples += o.lag_samples;
    }
    report
}

/// Seed every object with `Value::from_u64(0)` so increment workloads
/// start from a known total.
pub fn seed_zeroes(engine: &dyn Engine, n_objects: u64) {
    for o in 0..n_objects {
        engine.seed(ObjectId(o), Value::from_u64(0));
    }
}

/// Convenience: drive a fixed number of transactions single-threadedly
/// (deterministic; used by tests and the figure-regeneration harness).
pub fn run_fixed_count(
    engine: &dyn Engine,
    spec: &WorkloadSpec,
    txns: u64,
    max_retries: u32,
) -> RunReport {
    let sampler = KeySampler::new(spec.distribution, spec.n_objects);
    let before = engine.metrics();
    let started = Instant::now();
    let mut rng = SmallRng::seed_from_u64(spec.thread_seed(0));
    let mut out = ThreadOutcome {
        ro_committed: 0,
        rw_committed: 0,
        gave_up: 0,
        rw_retries: 0,
        ro_retries: 0,
        ro_latency: Histogram::new(),
        rw_latency: Histogram::new(),
        lag_sum: 0,
        lag_samples: 0,
    };
    let backoff = RetryPolicy::no_backoff(0);
    let clock = real_clock();
    let knobs = RetryKnobs {
        max_retries,
        backoff: &backoff,
        clock: clock.as_ref(),
    };
    for _ in 0..txns {
        run_one(engine, spec, &sampler, &mut rng, &knobs, &mut out);
    }
    RunReport {
        engine: engine.name(),
        elapsed: started.elapsed(),
        ro_committed: out.ro_committed,
        rw_committed: out.rw_committed,
        gave_up: out.gave_up,
        rw_retries: out.rw_retries,
        ro_retries: out.ro_retries,
        ro_latency: out.ro_latency,
        rw_latency: out.rw_latency,
        lag_sum: out.lag_sum,
        lag_samples: out.lag_samples,
        metrics: engine.metrics().delta(&before),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keydist::KeyDist;
    use mvcc_baselines::SingleVersion2pl;
    use mvcc_cc::presets;
    use mvcc_core::DbConfig;

    fn quick_cfg() -> DriverConfig {
        DriverConfig {
            threads: 4,
            duration: Duration::from_millis(80),
            // Generous: on a single-core host an unlucky deadlock victim
            // can lose the resolution race hundreds of times in a row,
            // and `gave_up == 0` is asserted below.
            max_retries: 5_000,
            ..Default::default()
        }
    }

    #[test]
    fn drives_vc_2pl_with_correct_totals() {
        let db = presets::vc_2pl(DbConfig::default());
        let spec = WorkloadSpec {
            n_objects: 16,
            ro_fraction: 0.3,
            use_increments: true,
            ..Default::default()
        };
        seed_zeroes(&db, spec.n_objects);
        let report = run(&db, &spec, &quick_cfg());
        assert!(report.rw_committed > 0, "no RW committed");
        assert!(report.ro_committed > 0, "no RO committed");
        assert_eq!(report.gave_up, 0);
        // Increment accounting: sum of all objects == committed increments.
        let mut total = 0u64;
        for o in 0..spec.n_objects {
            total += db.peek_latest(ObjectId(o)).as_u64().unwrap_or(0);
        }
        assert_eq!(total, report.rw_committed * spec.rw_ops as u64);
    }

    #[test]
    fn drives_to_engine() {
        let db = presets::vc_to(DbConfig::default());
        let spec = WorkloadSpec {
            n_objects: 64,
            ro_fraction: 0.5,
            use_increments: true,
            ..Default::default()
        };
        seed_zeroes(&db, spec.n_objects);
        let report = run(&db, &spec, &quick_cfg());
        assert!(report.rw_committed > 0);
        let mut total = 0u64;
        for o in 0..spec.n_objects {
            total += db.peek_latest(ObjectId(o)).as_u64().unwrap_or(0);
        }
        assert_eq!(total, report.rw_committed * spec.rw_ops as u64);
    }

    #[test]
    fn drives_baseline_engine() {
        let e = SingleVersion2pl::new();
        let spec = WorkloadSpec {
            n_objects: 32,
            ro_fraction: 0.5,
            use_increments: true,
            ..Default::default()
        };
        seed_zeroes(&e, spec.n_objects);
        let report = run(&e, &spec, &quick_cfg());
        assert!(report.rw_committed > 0);
        assert!(report.throughput() > 0.0);
    }

    #[test]
    fn fixed_count_is_deterministic_in_structure() {
        let db = presets::vc_occ(DbConfig::default());
        let spec = WorkloadSpec {
            n_objects: 8,
            ro_fraction: 0.5,
            distribution: KeyDist::Zipf { theta: 1.0 },
            ..Default::default()
        };
        let r = run_fixed_count(&db, &spec, 100, 10);
        assert_eq!(r.ro_committed + r.rw_committed + r.gave_up, 100);
        assert!(r.metrics.vc_start_calls >= r.ro_committed);
    }

    #[test]
    fn report_rates_consistent() {
        let db = presets::vc_2pl(DbConfig::default());
        let spec = WorkloadSpec {
            n_objects: 32,
            ..Default::default()
        };
        let r = run_fixed_count(&db, &spec, 50, 10);
        assert!(r.throughput() >= r.ro_throughput());
        assert!(r.rw_abort_rate() >= 0.0 && r.rw_abort_rate() <= 1.0);
        assert!(r.mean_lag() >= 0.0);
    }

    #[test]
    fn reporter_ticks_carry_engine_state() {
        use std::sync::Mutex;
        let db = presets::vc_2pl(DbConfig::default());
        let spec = WorkloadSpec {
            n_objects: 16,
            ro_fraction: 0.3,
            use_increments: true,
            ..Default::default()
        };
        seed_zeroes(&db, spec.n_objects);
        let ticks: Arc<Mutex<Vec<ReportTick>>> = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&ticks);
        let cfg = DriverConfig {
            threads: 2,
            duration: Duration::from_millis(150),
            max_retries: 200,
            report_every: Some(Duration::from_millis(10)),
            reporter: Some(Reporter::new(move |tick| {
                sink.lock().unwrap().push(tick.clone());
            })),
            ..Default::default()
        };
        let report = run(&db, &spec, &cfg);
        let ticks = ticks.lock().unwrap();
        assert!(!ticks.is_empty(), "reporter never fired");
        // Ticks are ordered and carry live engine state: counters grow
        // monotonically and the MV engine exposes gauges.
        for (i, t) in ticks.iter().enumerate() {
            assert_eq!(t.seq, i as u64);
            assert!(t.gauges.is_some(), "MV engine should expose gauges");
            assert!(t.phases.is_some(), "MV engine should expose phases");
        }
        for pair in ticks.windows(2) {
            assert!(pair[1].metrics.rw_committed >= pair[0].metrics.rw_committed);
            assert!(pair[1].elapsed >= pair[0].elapsed);
        }
        let last = ticks.last().unwrap();
        assert!(last.metrics.rw_committed <= report.metrics.rw_committed);
        let g = last.gauges.as_ref().unwrap();
        assert!(g.vc.vtnc > 0, "vtnc should have advanced mid-run");
    }

    #[test]
    fn reporter_without_interval_never_fires() {
        use std::sync::atomic::AtomicU64;
        let db = presets::vc_occ(DbConfig::default());
        let spec = WorkloadSpec {
            n_objects: 16,
            ..Default::default()
        };
        seed_zeroes(&db, spec.n_objects);
        let fired = Arc::new(AtomicU64::new(0));
        let counter = Arc::clone(&fired);
        let cfg = DriverConfig {
            threads: 1,
            duration: Duration::from_millis(40),
            reporter: Some(Reporter::new(move |_| {
                counter.fetch_add(1, Ordering::Relaxed);
            })),
            ..Default::default()
        };
        run(&db, &spec, &cfg);
        assert_eq!(fired.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn gc_maintenance_runs() {
        let db = presets::vc_2pl(DbConfig::default());
        let spec = WorkloadSpec {
            n_objects: 8,
            ro_fraction: 0.0,
            use_increments: true,
            ..Default::default()
        };
        seed_zeroes(&db, spec.n_objects);
        let cfg = DriverConfig {
            threads: 2,
            duration: Duration::from_millis(120),
            max_retries: 100,
            gc_every: Some(Duration::from_millis(10)),
            ..Default::default()
        };
        let report = run(&db, &spec, &cfg);
        // Periodic GC kept the store well below one version per committed
        // write (without GC, every write would still be resident).
        let stats = db.store_stats();
        let writes = report.rw_committed * spec.rw_ops as u64;
        assert!(
            (stats.committed_versions as u64) < writes / 2,
            "GC appears not to have run: {stats}, {writes} writes"
        );
        // A final explicit pass with no live readers collapses each chain
        // to exactly the latest visible version.
        db.collect_garbage();
        let stats = db.store_stats();
        assert!(
            stats.versions_per_object() <= 1.0 + f64::EPSILON,
            "final GC should fully collapse: {stats}"
        );
    }
}
