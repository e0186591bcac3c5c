//! E19 — contention attribution: hot-key forensics and its cost.
//!
//! The attribution layer (space-saving hot-key/hot-shard sketches and
//! the blocking-blame ledger) exists to answer
//! "*which keys* and *whose waits*" — questions the aggregate counters
//! cannot. This experiment validates both halves of its contract:
//!
//! * **fidelity** — a zipfian workload plants a known set of hot keys
//!   (rank 0 is the hottest by construction of
//!   [`mvcc_workload::KeySampler`]); after a contended 2PL run the
//!   sketch must rank every planted key in its top-10 by contended
//!   nanoseconds, and the blame ledger must attribute ≥90% of measured
//!   lock-wait time to named blocker transactions;
//! * **cost** — attribution is always-on once enabled (no sampling: the
//!   ≥90% attribution target rules it out), so its throughput price is
//!   measured the same way E16 prices the event layer: interleaved
//!   off/on pairs per protocol, paired-delta median with a 95%
//!   confidence half-width, plus an A/A noise floor from the off
//!   halves. The budget is the obs layer's existing ≤5% (noise-aware:
//!   the gate in CI adds `max(aa_noise, ci)` headroom). Cost runs on
//!   E16's uniform-hotspot cell, not the zipfian one — see
//!   [`cost_spec`] for why the skewed cell cannot price anything —
//!   and with threads clamped to the core count — see [`cost_threads`]
//!   for why an oversubscribed cell cannot either.
//!
//! Besides the text report, the run emits
//! `BENCH_contention_attribution.json` into `$BENCH_OUT_DIR` (or the
//! current directory) — CI's obs-smoke job parses and gates it.

use mvcc_cc::presets;
use mvcc_core::{DbConfig, Engine, WaitPoint};
use mvcc_storage::SketchEntry;
use mvcc_workload::report::{fmt_rate, Table};
use mvcc_workload::{driver, DriverConfig, KeyDist, WorkloadSpec};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// Saturating closed loop over a skewed keyspace: enough threads that
/// the planted hot keys actually queue. Fidelity only — the cost half
/// uses [`cost_threads`].
const THREADS: usize = 8;

/// Worker count for the *cost* half: the fidelity thread count clamped
/// to the host's available parallelism. An overhead measurement must
/// never oversubscribe cores: with more CPU-bound workers than cores,
/// any added per-transaction work (attribution or otherwise) raises the
/// chance a thread's timeslice expires *while it holds locks*, and each
/// such preemption stalls every queued waiter for a full scheduler
/// round. Measured on a 1-core host: the same hooks price at ~1% with
/// threads = cores and at ~70% with 8 threads, all of the difference
/// being lock-holder preemption, none of it attribution. The fidelity
/// half keeps [`THREADS`] — it needs deep lock queues, and accuracy is
/// scheduling-independent.
fn cost_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(THREADS)
}

/// How many of the hottest zipf ranks count as "planted". Rank k is the
/// (k+1)-th most likely key, so the planted set is simply `0..PLANTED`.
const PLANTED: u64 = 5;

/// Interleaved off/on measurement pairs (see E16 for why pairing beats
/// independent medians on a drifting host).
fn repeats(fast: bool) -> usize {
    if fast {
        9
    } else {
        13
    }
}

fn window(fast: bool) -> std::time::Duration {
    std::time::Duration::from_millis(if fast { 250 } else { 1500 })
}

fn warmup(fast: bool) -> std::time::Duration {
    std::time::Duration::from_millis(if fast { 100 } else { 400 })
}

/// Two-sided 95% Student-t critical value for `n` paired samples.
fn t95(n: usize) -> f64 {
    match n {
        0..=2 => 12.706,
        3 => 4.303,
        4 => 3.182,
        5 => 2.776,
        6 => 2.571,
        7 => 2.447,
        8 => 2.365,
        9 => 2.306,
        10 => 2.262,
        11 => 2.228,
        12 => 2.201,
        13 => 2.179,
        _ => 2.145,
    }
}

/// Zipfian write-heavy spec: θ = 1.2 over 1024 objects puts ~55% of all
/// accesses on the ten hottest ranks, so lock queues form exactly where
/// the sketch should point. Used for the *fidelity* half only.
fn fidelity_spec() -> WorkloadSpec {
    WorkloadSpec {
        n_objects: 1024,
        ro_fraction: 0.05,
        ro_ops: 4,
        rw_ops: 8,
        rw_write_fraction: 0.6,
        use_increments: false,
        distribution: KeyDist::Zipf { theta: 1.2 },
        seed: 19,
    }
}

/// The *cost* half uses E16's contended-but-stable cell (uniform
/// hotspot, n=128, write-heavy) instead of the zipfian one: extreme
/// skew under 2PL/TO is a retry storm whose throughput is bistable —
/// run-to-run medians flip sign by tens of percent, so an overhead
/// measured there is pure noise. The uniform hotspot still drives
/// every attribution path (lock waits, pending waits, aborts fire
/// constantly) while keeping the A/A floor in single digits, which is
/// what a ≤5% budget gate needs to be meaningful.
fn cost_spec() -> WorkloadSpec {
    WorkloadSpec {
        n_objects: 128,
        ro_fraction: 0.05,
        ro_ops: 4,
        rw_ops: 8,
        rw_write_fraction: 0.5,
        use_increments: false,
        distribution: KeyDist::Uniform,
        seed: 19,
    }
}

fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    samples[samples.len() / 2]
}

fn run_cell(
    engine: &dyn Engine,
    spec: &WorkloadSpec,
    threads: usize,
    fast: bool,
    warm: bool,
) -> driver::RunReport {
    driver::seed_zeroes(engine, spec.n_objects);
    let gc = Some(std::time::Duration::from_millis(50));
    if warm {
        let warm_cfg = DriverConfig {
            threads,
            duration: warmup(fast),
            max_retries: 5000,
            gc_every: gc,
            ..Default::default()
        };
        driver::run(engine, spec, &warm_cfg);
    }
    engine.reset_metrics();
    let cfg = DriverConfig {
        threads,
        duration: window(fast),
        max_retries: 5000,
        gc_every: gc,
        ..Default::default()
    };
    driver::run(engine, spec, &cfg)
}

fn build(protocol: &str, cfg: DbConfig) -> Box<dyn Engine> {
    match protocol {
        "vc+2pl" => Box::new(presets::vc_2pl(cfg)),
        "vc+to" => Box::new(presets::vc_to(cfg)),
        "vc+occ" => Box::new(presets::vc_occ(cfg)),
        other => panic!("unknown protocol {other}"),
    }
}

/// The fidelity half: one attributed 2PL run over the zipfian spec.
#[derive(Debug, Clone)]
pub struct Fidelity {
    /// The planted hot keys (zipf ranks `0..PLANTED`).
    pub planted: Vec<u64>,
    /// Top-10 hot keys by contended ns, as the sketch ranked them.
    pub top10: Vec<SketchEntry>,
    /// Whether every planted key made the top 10.
    pub planted_in_top10: bool,
    /// Share of measured lock-wait nanoseconds attributed to a named
    /// blocker transaction (`1.0` when no lock waits occurred).
    pub lock_wait_attributed_ratio: f64,
    /// Total lock-wait samples the blame ledger recorded.
    pub lock_wait_samples: u64,
}

/// Run the attributed 2PL cell and interrogate the sketch + ledger.
pub fn measure_fidelity(fast: bool) -> Fidelity {
    let db = presets::vc_2pl(DbConfig::default().with_attribution());
    run_cell(&db, &fidelity_spec(), THREADS, fast, true);
    let attr = db.obs().attr().expect("attribution enabled").clone();
    let top10 = attr.topk().hot_keys(10);
    let planted: Vec<u64> = (0..PLANTED).collect();
    let planted_in_top10 = planted.iter().all(|k| top10.iter().any(|e| e.key == *k));
    let blame = attr.blame().snapshot();
    Fidelity {
        planted,
        top10,
        planted_in_top10,
        lock_wait_attributed_ratio: blame.attributed_ratio(WaitPoint::LockWait),
        lock_wait_samples: blame.samples[WaitPoint::LockWait as usize],
    }
}

/// One protocol's attribution cost, mirrored into the JSON document.
#[derive(Debug, Clone)]
pub struct Record {
    /// Protocol label, e.g. `"vc+2pl"`.
    pub protocol: String,
    /// Median committed txn/s with attribution off (shipped default).
    pub off_txn_per_sec: f64,
    /// Median committed txn/s with attribution on.
    pub on_txn_per_sec: f64,
    /// Median of the paired `(off − on) / off × 100` deltas.
    pub attr_overhead_pct: f64,
    /// 95% confidence half-width of the paired overhead samples.
    pub attr_overhead_ci_pct: f64,
    /// A/A noise floor from the interleaved halves of the off repeats.
    pub aa_noise_pct: f64,
}

fn measure_protocol(protocol: &str, fast: bool) -> Record {
    let n = repeats(fast);
    let mut off = Vec::with_capacity(n);
    let mut on = Vec::with_capacity(n);
    let run_arm = |attr: bool| -> f64 {
        let cfg = if attr {
            DbConfig::default().with_attribution()
        } else {
            DbConfig::default()
        };
        let engine = build(protocol, cfg);
        run_cell(engine.as_ref(), &cost_spec(), cost_threads(), fast, true).throughput()
    };
    for i in 0..n {
        // Alternate the order within each pair so monotone host drift
        // cannot bias whichever arm always runs last.
        let order = if i % 2 == 0 {
            [false, true]
        } else {
            [true, false]
        };
        for attr in order {
            let tput = run_arm(attr);
            if attr {
                on.push(tput);
            } else {
                off.push(tput);
            }
        }
    }
    let mut paired: Vec<f64> = off
        .iter()
        .zip(&on)
        .filter(|(o, _)| **o > 0.0)
        .map(|(o, e)| (o - e) / o * 100.0)
        .collect();
    let attr_overhead_ci_pct = if paired.len() >= 2 {
        let mean = paired.iter().sum::<f64>() / paired.len() as f64;
        let var =
            paired.iter().map(|d| (d - mean).powi(2)).sum::<f64>() / (paired.len() - 1) as f64;
        t95(paired.len()) * (var / paired.len() as f64).sqrt()
    } else {
        0.0
    };
    let attr_overhead_pct = if paired.is_empty() {
        0.0
    } else {
        median(&mut paired)
    };
    let mut evens: Vec<f64> = off.iter().step_by(2).copied().collect();
    let mut odds: Vec<f64> = off.iter().skip(1).step_by(2).copied().collect();
    let off_med = median(&mut off);
    let on_med = median(&mut on);
    let aa_noise_pct = if odds.is_empty() || off_med <= 0.0 {
        0.0
    } else {
        (median(&mut evens) - median(&mut odds)).abs() / off_med * 100.0
    };
    Record {
        protocol: protocol.to_string(),
        off_txn_per_sec: off_med,
        on_txn_per_sec: on_med,
        attr_overhead_pct,
        attr_overhead_ci_pct,
        aa_noise_pct,
    }
}

/// Run fidelity + cost and return `(text report, fidelity, records)`
/// without touching the filesystem.
pub fn collect(fast: bool) -> (String, Fidelity, Vec<Record>) {
    let fidelity = measure_fidelity(fast);
    let records: Vec<Record> = ["vc+2pl", "vc+to", "vc+occ"]
        .iter()
        .map(|p| measure_protocol(p, fast))
        .collect();

    let mut out = String::new();
    let _ = writeln!(
        out,
        "fidelity cell: zipfian hotspot (n=1024, θ=1.2, writes 60%, {THREADS} threads); cost \
         cell: uniform hotspot (n=128, writes 50%, {} threads = min({THREADS}, cores) — an \
         oversubscribed cost cell prices lock-holder preemption, not attribution);\n{} \
         interleaved off/on pairs, window {} ms after {} ms discarded warmup; planted hot \
         keys: ranks 0..{}\n",
        cost_threads(),
        repeats(fast),
        window(fast).as_millis(),
        warmup(fast).as_millis(),
        PLANTED,
    );
    let _ = writeln!(
        out,
        "fidelity (vc+2pl, attribution on): planted-in-top10 = {}, lock-wait \
         attribution = {:.1}% over {} sampled waits",
        fidelity.planted_in_top10,
        fidelity.lock_wait_attributed_ratio * 100.0,
        fidelity.lock_wait_samples,
    );
    let _ = writeln!(out, "top-10 by contended ns:");
    for e in &fidelity.top10 {
        let _ = writeln!(
            out,
            "  key {:>5}  hits {:>7}  contended {:>12} ns  aborts {:>5}{}",
            e.key,
            e.hits,
            e.contended_ns,
            e.aborts,
            if e.key < PLANTED { "  <- planted" } else { "" },
        );
    }
    out.push('\n');
    let mut table = Table::new([
        "protocol",
        "attr off",
        "attr on",
        "attr-cost",
        "95% CI",
        "A/A noise",
    ]);
    for r in &records {
        table.row([
            r.protocol.clone(),
            fmt_rate(r.off_txn_per_sec),
            fmt_rate(r.on_txn_per_sec),
            format!("{:.2}%", r.attr_overhead_pct),
            format!("±{:.2}%", r.attr_overhead_ci_pct),
            format!("{:.2}%", r.aa_noise_pct),
        ]);
    }
    out.push_str(&table.render());
    out.push_str(
        "\nreading: \"attr-cost\" is the paired-median throughput price of leaving\n\
         contention attribution recording on (sketch updates on contended\n\
         acquisitions, blame samples on resolved waits, phase publishes at txn\n\
         transitions). The budget is the obs layer's ≤5%; a measured cost is\n\
         real only where it exceeds both the 95% CI and the A/A noise floor.\n",
    );
    (out, fidelity, records)
}

/// `git rev-parse --short HEAD`, or `"unknown"` outside a git checkout.
fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Render the run as the `BENCH_contention_attribution.json` document.
pub fn render_json(fast: bool, fidelity: &Fidelity, records: &[Record]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"experiment\": \"e19_contention_attribution\",");
    let _ = writeln!(out, "  \"git_rev\": \"{}\",", json_escape(&git_rev()));
    let _ = writeln!(
        out,
        "  \"mode\": \"{}\",",
        if fast { "quick" } else { "full" }
    );
    let _ = writeln!(out, "  \"fidelity_workload\": \"zipfian-hotspot\",");
    let _ = writeln!(out, "  \"cost_workload\": \"uniform-hotspot\",");
    let _ = writeln!(out, "  \"threads\": {THREADS},");
    let _ = writeln!(out, "  \"cost_threads\": {},", cost_threads());
    let _ = writeln!(out, "  \"repeats\": {},", repeats(fast));
    let _ = writeln!(out, "  \"window_ms\": {},", window(fast).as_millis());
    let planted: Vec<String> = fidelity.planted.iter().map(|k| k.to_string()).collect();
    let _ = writeln!(out, "  \"planted_keys\": [{}],", planted.join(", "));
    let _ = writeln!(
        out,
        "  \"planted_in_top10\": {},",
        fidelity.planted_in_top10
    );
    let _ = writeln!(
        out,
        "  \"lock_wait_attributed_ratio\": {:.4},",
        fidelity.lock_wait_attributed_ratio
    );
    let _ = writeln!(
        out,
        "  \"lock_wait_samples\": {},",
        fidelity.lock_wait_samples
    );
    out.push_str("  \"top10\": [\n");
    for (i, e) in fidelity.top10.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{\"key\": {}, \"hits\": {}, \"contended_ns\": {}, \"aborts\": {}}}{}",
            e.key,
            e.hits,
            e.contended_ns,
            e.aborts,
            if i + 1 == fidelity.top10.len() {
                ""
            } else {
                ","
            }
        );
    }
    out.push_str("  ],\n  \"results\": [\n");
    for (i, r) in records.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{\"protocol\": \"{}\", \"off_txn_per_sec\": {:.1}, \
             \"on_txn_per_sec\": {:.1}, \"attr_overhead_pct\": {:.3}, \
             \"attr_overhead_ci_pct\": {:.3}, \"aa_noise_pct\": {:.3}}}{}",
            json_escape(&r.protocol),
            r.off_txn_per_sec,
            r.on_txn_per_sec,
            r.attr_overhead_pct,
            r.attr_overhead_ci_pct,
            r.aa_noise_pct,
            if i + 1 == records.len() { "" } else { "," }
        );
    }
    out.push_str("  ]\n}\n");
    out
}

/// Where the JSON lands: `$BENCH_OUT_DIR` or the current directory.
pub fn json_path() -> PathBuf {
    let dir = std::env::var("BENCH_OUT_DIR").unwrap_or_else(|_| ".".to_string());
    Path::new(&dir).join("BENCH_contention_attribution.json")
}

pub(crate) fn run(fast: bool) -> String {
    let (mut out, fidelity, records) = collect(fast);
    let path = json_path();
    match std::fs::write(&path, render_json(fast, &fidelity, &records)) {
        Ok(()) => {
            let _ = writeln!(
                out,
                "\nwrote {} ({} records)",
                path.display(),
                records.len()
            );
        }
        Err(e) => {
            let _ = writeln!(out, "\nFAILED to write {}: {e}", path.display());
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fidelity_finds_planted_keys_and_attributes_waits() {
        let f = measure_fidelity(true);
        assert!(
            f.lock_wait_samples > 0,
            "zipfian hotspot produced no lock waits at all"
        );
        assert!(
            f.planted_in_top10,
            "planted keys {:?} missing from top10 {:?}",
            f.planted, f.top10
        );
        assert!(
            f.lock_wait_attributed_ratio >= 0.9,
            "only {:.1}% of lock-wait time attributed",
            f.lock_wait_attributed_ratio * 100.0
        );
        let json = render_json(true, &f, &[]);
        assert!(json.contains("\"experiment\": \"e19_contention_attribution\""));
        assert!(json.contains("\"planted_in_top10\": true"));
        assert!(json.contains("\"lock_wait_attributed_ratio\""));
    }
}
