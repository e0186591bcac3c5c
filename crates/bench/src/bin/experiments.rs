//! Experiment harness CLI.
//!
//! ```text
//! experiments [--fast|--quick] [--metrics-json <path>] [all | e1 e2 ... e12]
//! ```
//!
//! Prints one section per experiment (the content of EXPERIMENTS.md).
//! `--fast` (alias `--quick`) scales run lengths down ~10× for CI.
//! `--metrics-json <path>` additionally runs a short instrumented
//! workload after the selected experiments and writes the engine's full
//! JSON metrics snapshot (counters + gauges + phase histograms) to
//! `<path>` — the exporter quick-start, and what CI's obs-smoke job
//! parses.

use mvcc_bench::experiments::{registry, section};
use mvcc_cc::presets;
use mvcc_core::DbConfig;
use mvcc_workload::{driver, DriverConfig, WorkloadSpec};
use std::time::Duration;

/// Run a short traced workload and return the engine's JSON snapshot.
fn metrics_snapshot_json() -> String {
    let db = presets::vc_2pl(DbConfig::default().with_events());
    let spec = WorkloadSpec {
        n_objects: 64,
        ro_fraction: 0.3,
        use_increments: true,
        ..Default::default()
    };
    driver::seed_zeroes(&db, spec.n_objects);
    let cfg = DriverConfig {
        threads: 4,
        duration: Duration::from_millis(150),
        max_retries: 500,
        gc_every: Some(Duration::from_millis(25)),
        ..Default::default()
    };
    driver::run(&db, &spec, &cfg);
    db.metrics_json()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let fast = args.iter().any(|a| a == "--fast" || a == "--quick");
    let metrics_json: Option<String> =
        args.iter()
            .position(|a| a == "--metrics-json")
            .map(|i| match args.get(i + 1) {
                Some(p) if !p.starts_with("--") => p.clone(),
                _ => {
                    eprintln!("--metrics-json requires a <path> argument");
                    std::process::exit(2);
                }
            });
    let selected: Vec<String> = args
        .iter()
        .enumerate()
        .filter(|(i, a)| {
            // Skip flags and the --metrics-json value.
            !a.starts_with("--")
                && !matches!(i.checked_sub(1).and_then(|p| args.get(p)), Some(prev) if prev == "--metrics-json")
        })
        .map(|(_, a)| a.to_lowercase())
        .collect();
    let want_all =
        (selected.is_empty() && metrics_json.is_none()) || selected.iter().any(|a| a == "all");

    let reg = registry();
    let mut ran = 0;
    for exp in &reg {
        if want_all || selected.iter().any(|s| s == exp.id) {
            eprintln!("[experiments] running {} ...", exp.id);
            let body = (exp.run)(fast);
            println!("{}", section(exp.id, exp.title, &body));
            ran += 1;
        }
    }
    if let Some(path) = &metrics_json {
        eprintln!("[experiments] writing metrics snapshot to {path} ...");
        match std::fs::write(path, metrics_snapshot_json()) {
            Ok(()) => eprintln!("[experiments] wrote {path}"),
            Err(e) => {
                eprintln!("failed to write {path}: {e}");
                std::process::exit(1);
            }
        }
        ran += 1;
    }
    if ran == 0 {
        eprintln!(
            "unknown experiment id(s) {:?}; available: {}",
            selected,
            reg.iter().map(|e| e.id).collect::<Vec<_>>().join(", ")
        );
        std::process::exit(2);
    }
}
