//! The repo benchmark: interference-robust txn/s and read-only latency of
//! the shipped engine on four workloads, with per-layer probes and a traced
//! pass. See `README.md` for the definitions and `../BENCHMARK.json` for the
//! contract.
//!
//! One run = set-up → measured pass → checks. The untraced pass yields the
//! end-to-end metrics; the traced pass (spans around every public engine
//! call, plus the stand-alone layer probes) yields the per-layer ones.

pub mod driver;
pub mod engine;
pub mod layers;
pub mod stats;
pub mod trace;
pub mod workload;

use driver::{rate_per_s, run_pass, slice_noise, PassResult, Plan, ProtoStats, ROUND};
use engine::{Engines, Proto};
use stats::{median, median_f64, Hist};
use std::io;
use std::path::PathBuf;
use std::time::{Duration, Instant};
use trace::Kind;
use workload::{Txn, Workload};

/// Full set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Measured seconds when `--seconds` is absent (= `run_seconds` of
/// `BENCHMARK.json`).
pub const DEFAULT_SECONDS: f64 = 20.0;

pub struct Options {
    pub workload: Workload,
    pub seed: u64,
    /// Length of each measured pass, warm-up rounds and (traced) probes
    /// included.
    pub seconds: f64,
    /// `Some(false)`: untraced pass, end-to-end metrics. `Some(true)`:
    /// traced pass and probes, per-layer metrics. `None`: both, in that
    /// order, on the same engines.
    pub trace: Option<bool>,
    /// Two rounds per arm, one set-up, short probes: a smoke run.
    pub quick: bool,
}

pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

pub struct Report {
    /// Every value check held.
    pub correct: bool,
    /// Transactions run (warm-up included) and how many of them failed.
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// One line per violated check.
    pub violations: Vec<String>,
}

impl Report {
    /// The result line of the benchmark contract.
    pub fn json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Where the benchmark may write: `<benchmark dir>/out`.
pub fn out_dir() -> PathBuf {
    let manifest = std::env::var_os("CARGO_MANIFEST_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")));
    manifest.join("out")
}

struct Setup {
    engines: Engines,
    scripts: Vec<Vec<Txn>>,
    gen_ns_per_txn: f64,
}

/// One full set-up: three engines constructed and preloaded, logs opened,
/// samplers and scripts built.
fn set_up(workload: Workload, seed: u64) -> io::Result<Setup> {
    let engines = Engines::open(workload, &out_dir())?;
    let t = Instant::now();
    let scripts: Vec<Vec<Txn>> = (0..workload.threads())
        .map(|thread| workload::script(workload, seed, thread))
        .collect();
    let gen_ns_per_txn =
        t.elapsed().as_nanos() as f64 / (workload.threads() * workload::SCRIPT_TXNS) as f64;
    Ok(Setup {
        engines,
        scripts,
        gen_ns_per_txn,
    })
}

fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

/// `VmHWM` of this process in MiB.
fn peak_rss_mb() -> io::Result<f64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| io::Error::other("no VmHWM in /proc/self/status"))
}

fn cycles_for(seconds: f64, arms: usize) -> usize {
    ((seconds / (ROUND.as_secs_f64() * arms as f64)) as usize).max(2)
}

fn plan(cycles: usize, traced: bool) -> Plan {
    Plan {
        cycles,
        // Two warm-up rounds per arm in a full run, none in a smoke run.
        warmup: (cycles / 8).min(2),
        traced,
    }
}

fn end_to_end(workload: Workload, setup_s: f64, r: &PassResult) -> io::Result<Vec<Metric>> {
    let mut out = vec![Metric::new("setup_s", setup_s, "s")];
    for (p, stats) in Proto::ALL.into_iter().zip(&r.protos) {
        let rate = rate_per_s(workload, &stats.plain);
        out.push(Metric::new(format!("txn_per_s.{}", p.name()), rate, "1/s"));
    }
    // Read-only execution is independent of the protocol by the paper's
    // design, hence one name: the mean of the three arms' medians.
    let ro_p50 = r
        .protos
        .iter()
        .map(|s| s.plain.ro.quantile(0.5))
        .sum::<f64>()
        / 3.0;
    out.push(Metric::new("ro_p50_us", ro_p50 / 1e3, "us"));
    out.push(Metric::new("peak_rss_mb", peak_rss_mb()?, "MB"));
    Ok(out)
}

fn per_layer(
    workload: Workload,
    gen_ns_per_txn: f64,
    r: &PassResult,
    probes: Vec<layers::Row>,
) -> Vec<Metric> {
    let mut out: Vec<Metric> = Vec::new();
    let mut push =
        |name: String, value: f64, unit: &'static str| out.push(Metric::new(name, value, unit));
    let span_p50 = |s: &ProtoStats, k: Kind| s.spans.self_ns[k as usize].quantile(0.5);
    let all = |f: fn(&ProtoStats) -> u64| r.protos.iter().map(f).sum::<u64>();
    let commits = all(|s| s.counters.rw_committed);

    // core.txn
    for (p, s) in Proto::ALL.into_iter().zip(&r.protos) {
        let p = p.name();
        push(
            format!("txn.rw_begin_ns.{p}"),
            span_p50(s, Kind::RwBegin),
            "ns",
        );
        push(
            format!("txn.rw_read_ns.{p}"),
            span_p50(s, Kind::RwRead),
            "ns",
        );
        push(format!("txn.rw_rfu_ns.{p}"), span_p50(s, Kind::RwRfu), "ns");
        push(
            format!("txn.rw_write_ns.{p}"),
            span_p50(s, Kind::RwWrite),
            "ns",
        );
        push(
            format!("txn.rw_commit_ns.{p}"),
            span_p50(s, Kind::RwCommit),
            "ns",
        );
        push(
            format!("txn.retry_ns_per_commit.{p}"),
            ratio(s.spans.aborted_ns, s.traced.tally.commits),
            "ns",
        );
        push(
            format!("txn.unaccounted_share.{p}"),
            1.0 - ratio(s.spans.engine_ns, s.spans.slice_ns),
            "ratio",
        );
    }
    for (name, kind) in [
        ("txn.ro_begin_ns", Kind::RoBegin),
        ("txn.ro_read_ns", Kind::RoRead),
        ("txn.ro_finish_ns", Kind::RoFinish),
    ] {
        let mut h = Hist::default();
        for s in &r.protos {
            h.merge(&s.spans.self_ns[kind as usize]);
        }
        push(name.into(), h.quantile(0.5), "ns");
    }

    // cc
    for (p, s) in Proto::ALL.into_iter().zip(&r.protos) {
        let (p, c) = (p.name(), &s.counters);
        push(
            format!("cc.abort_ratio.{p}"),
            ratio(c.rw_aborted, c.rw_begun),
            "ratio",
        );
        push(
            format!("cc.blocks_per_txn.{p}"),
            ratio(c.rw_blocks, c.rw_committed),
            "1/txn",
        );
        push(
            format!("cc.sync_actions_per_txn.{p}"),
            ratio(c.rw_sync_actions, c.rw_committed),
            "1/txn",
        );
    }
    let tpl = &r.protos[Proto::Tpl as usize].counters;
    push(
        "lock.shard_waits_per_txn".into(),
        ratio(tpl.lock_shard_waits, tpl.rw_committed),
        "1/txn",
    );

    // core.vc
    push(
        "vc.folds_per_txn".into(),
        ratio(all(|s| s.counters.vc_epoch_folds), commits),
        "1/txn",
    );
    push(
        "vc.watermark_scan_ns_per_txn".into(),
        ratio(all(|s| s.counters.vc_watermark_scan_ns), commits),
        "ns",
    );
    push(
        "vc.lock_wait_ns_per_txn".into(),
        ratio(all(|s| s.counters.vc_lock_wait_ns), commits),
        "ns",
    );
    for (p, s) in Proto::ALL.into_iter().zip(&r.protos) {
        let t = &s.traced.tally;
        push(
            format!("vc.lag_mean.{}", p.name()),
            ratio(t.lag_sum, t.lag_samples),
            "count",
        );
    }

    // storage.store, storage.gc
    let depths: Vec<f64> = r
        .protos
        .iter()
        .flat_map(|s| s.versions_per_key.clone())
        .collect();
    push(
        "store.versions_per_key".into(),
        depths.iter().sum::<f64>() / depths.len().max(1) as f64,
        "count",
    );
    let mut sweeps: Vec<u64> = r.protos.iter().flat_map(|s| s.gc_ns.clone()).collect();
    push(
        "gc.pruned_per_sweep".into(),
        ratio(all(|s| s.gc_pruned), sweeps.len() as u64),
        "count",
    );
    push("gc.sweep_us".into(), median(&mut sweeps) / 1e3, "us");
    push(
        "gc.slot_contention_per_ro".into(),
        ratio(
            all(|s| s.counters.gc_slot_contention),
            all(|s| s.counters.ro_begun),
        ),
        "ratio",
    );

    // storage.wal + core.durability (all zero without a log)
    push(
        "wal.bytes_per_commit".into(),
        ratio(all(|s| s.counters.wal_bytes), commits),
        "B/txn",
    );
    push(
        "wal.syncs_per_commit".into(),
        ratio(all(|s| s.counters.wal_syncs), commits),
        "1/txn",
    );
    let mut checkpoints: Vec<u64> = r
        .protos
        .iter()
        .flat_map(|s| s.checkpoint_ns.clone())
        .collect();
    push(
        "wal.checkpoint_rotate_ms".into(),
        median(&mut checkpoints) / 1e6,
        "ms",
    );

    // driver: the benchmark itself
    let mut ro = Hist::default();
    for (p, s) in Proto::ALL.into_iter().zip(&r.protos) {
        let p = p.name();
        ro.merge(&s.plain.ro);
        push(
            format!("driver.rw_p50_us.{p}"),
            s.plain.rw.quantile(0.5) / 1e3,
            "us",
        );
        push(
            format!("driver.rw_p99_us.{p}"),
            s.plain.rw.quantile(0.99) / 1e3,
            "us",
        );
        let (iqr, stall) = slice_noise(workload, &s.plain);
        push(format!("driver.slice_iqr_share.{p}"), iqr, "ratio");
        push(format!("driver.stall_share.{p}"), stall, "ratio");
        let (plain, traced) = (
            rate_per_s(workload, &s.plain),
            rate_per_s(workload, &s.traced),
        );
        push(
            format!("driver.trace_overhead_share.{p}"),
            if plain > 0.0 {
                1.0 - traced / plain
            } else {
                0.0
            },
            "ratio",
        );
    }
    push("driver.ro_p99_us".into(), ro.quantile(0.99) / 1e3, "us");
    push("driver.ro_samples".into(), ro.count() as f64, "count");
    push("driver.gen_ns_per_txn".into(), gen_ns_per_txn, "ns");

    for (name, value, unit) in probes {
        push(name.into(), value, unit);
    }
    out
}

/// Write the sampled spans as Chrome-trace JSON to
/// `out/trace-<workload>.json` (load it in `chrome://tracing` or Perfetto).
fn write_trace(workload: Workload, r: &PassResult) -> io::Result<()> {
    let mut events = String::new();
    for s in &r.samples {
        trace::push_chrome_events(&mut events, &s.spans, s.proto.name(), s.thread);
    }
    let path = out_dir().join(format!("trace-{}.json", workload.name()));
    std::fs::write(path, format!("{{\"traceEvents\":[\n{events}\n]}}\n"))
}

/// Run the benchmark once.
pub fn run(opts: &Options) -> io::Result<Report> {
    let workload = opts.workload;
    let cores = std::thread::available_parallelism()?.get();
    if workload.threads() > cores {
        // More CPU-bound clients than cores would price the host's
        // scheduler (lock-holder preemption), not the engine.
        return Err(io::Error::other(format!(
            "{} needs {} client threads, this host has {cores}",
            workload.name(),
            workload.threads()
        )));
    }
    std::fs::create_dir_all(out_dir())?;

    // Set up SETUPS times in a row, each dropped before the next is timed;
    // the last one is used.
    let mut setup_times = Vec::new();
    let mut setup = None;
    for _ in 0..if opts.quick { 1 } else { SETUPS } {
        drop(setup.take());
        let t = Instant::now();
        setup = Some(set_up(workload, opts.seed)?);
        setup_times.push(t.elapsed().as_secs_f64());
    }
    let setup = setup.expect("at least one set-up");

    let mut metrics = Vec::new();
    let mut totals = [driver::Tally::default(); 3];
    let mut add_totals = |r: &PassResult| {
        for (total, s) in totals.iter_mut().zip(&r.protos) {
            total.add(&s.total);
        }
    };

    if opts.trace != Some(true) {
        let cycles = if opts.quick {
            2
        } else {
            cycles_for(opts.seconds, 3)
        };
        let r = run_pass(&setup.engines, &setup.scripts, plan(cycles, false))?;
        metrics.extend(end_to_end(workload, median_f64(&mut setup_times), &r)?);
        add_totals(&r);
    }
    if opts.trace != Some(false) {
        let probe_s = if opts.quick {
            0.5
        } else {
            (opts.seconds / 8.0).min(3.0)
        };
        let cycles = if opts.quick {
            2
        } else {
            cycles_for(opts.seconds - probe_s, 6)
        };
        let r = run_pass(&setup.engines, &setup.scripts, plan(cycles, true))?;
        let probes = layers::probes(Duration::from_secs_f64(probe_s), &out_dir())?;
        write_trace(workload, &r)?;
        metrics.extend(per_layer(workload, setup.gen_ns_per_txn, &r, probes));
        add_totals(&r);
    }

    let mut violations = setup.engines.verify(totals.map(|t| t.increments))?;
    let bad_ro: u64 = totals.iter().map(|t| t.bad_ro).sum();
    if bad_ro > 0 {
        violations.push(format!(
            "{bad_ro} read-only transactions errored or saw an inconsistent snapshot"
        ));
    }
    for m in &mut metrics {
        if !m.value.is_finite() {
            violations.push(format!("metric {} is not finite", m.name));
            m.value = 0.0;
        }
    }
    let failed: u64 = totals.iter().map(|t| t.failed).sum();
    Ok(Report {
        correct: violations.is_empty(),
        attempted: totals.iter().map(|t| t.done).sum::<u64>() + failed,
        failed,
        metrics,
        violations,
    })
}
