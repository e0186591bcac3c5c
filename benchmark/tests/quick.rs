//! A quick run of every workload emits exactly the metrics that
//! `BENCHMARK.json` names, and the workloads separate the layers the way the
//! README says they do.

use mvdb_benchmark::workload::Workload;
use mvdb_benchmark::{run, Options, Report};
use std::collections::BTreeMap;

/// `name → unit` of every `{"name": …, "unit": …}` entry of BENCHMARK.json
/// (the end-to-end and per-layer metrics; workloads have no unit).
fn contract_metrics() -> BTreeMap<String, String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
    let mut out = BTreeMap::new();
    for entry in text.split("{\"name\": \"").skip(1) {
        let Some((name, rest)) = entry.split_once("\", \"unit\": \"") else {
            continue;
        };
        let (unit, _) = rest.split_once('"').expect("closing quote of the unit");
        assert!(
            out.insert(name.to_string(), unit.to_string()).is_none(),
            "{name} is listed twice"
        );
    }
    out
}

fn value(report: &Report, name: &str) -> f64 {
    report
        .metrics
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("{name} not emitted"))
        .value
}

#[test]
fn quick_runs_emit_the_contract_and_separate_the_layers() {
    let contract = contract_metrics();
    assert!(contract.contains_key("setup_s") && contract.contains_key("txn.unaccounted_share.2pl"));

    // One after the other: the client threads of two workloads must not
    // share this host's cores.
    for workload in Workload::ALL {
        let w = workload.name();
        let report = run(&Options {
            workload,
            seed: 42,
            seconds: 0.0,
            trace: None,
            quick: true,
        })
        .unwrap_or_else(|e| panic!("{w}: {e}"));
        assert!(report.correct, "{w}: {:?}", report.violations);
        assert_eq!(report.failed, 0, "{w}");
        assert!(report.attempted > 0, "{w}");

        let mut emitted = BTreeMap::new();
        for m in &report.metrics {
            assert!(m.value.is_finite(), "{w}: {} = {}", m.name, m.value);
            assert!(
                emitted.insert(m.name.clone(), m.unit.to_string()).is_none(),
                "{w}: {} emitted twice",
                m.name
            );
        }
        assert_eq!(emitted, contract, "{w}: emitted vs BENCHMARK.json");

        // The result line carries the same metrics.
        let line = report.json_line();
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": "),
            "{line}"
        );
        assert_eq!(line.matches("\"value\": ").count(), contract.len());

        for p in ["2pl", "to", "occ"] {
            assert!(value(&report, &format!("txn_per_s.{p}")) > 0.0, "{w} {p}");
            let aborts = value(&report, &format!("cc.abort_ratio.{p}"));
            if workload == Workload::Contended {
                assert!(aborts > 0.0, "{w} {p}: conflicts are the point");
            } else {
                assert_eq!(aborts, 0.0, "{w} {p}: no two transactions conflict");
            }
        }
        let logged = value(&report, "wal.bytes_per_commit") > 0.0;
        assert_eq!(
            logged,
            workload == Workload::Durable,
            "{w}: only durable logs"
        );
        assert!(value(&report, "ro_p50_us") > 0.0 && value(&report, "peak_rss_mb") > 0.0);

        let trace =
            std::fs::read_to_string(mvdb_benchmark::out_dir().join(format!("trace-{w}.json")))
                .expect("trace file written");
        assert!(trace.starts_with("{\"traceEvents\":[") && trace.contains("\"ph\":\"X\""));
    }
}
