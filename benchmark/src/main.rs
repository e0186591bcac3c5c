//! `cargo run --release --manifest-path benchmark/Cargo.toml -- --workload
//! <name> --seed <u64> [--seconds <n>] [--trace 0|1] [--quick]`
//!
//! Prints every metric by name with its unit, then, as the last line of
//! standard output, the result object of the benchmark contract. Exits
//! non-zero on a usage error, an I/O error or a violated check.

use mvdb_benchmark::workload::Workload;
use mvdb_benchmark::{run, Options, DEFAULT_SECONDS};
use std::process::ExitCode;

fn usage(problem: &str) -> ExitCode {
    eprintln!(
        "{problem}\nusage: --workload uniform_mix|durable|contended|long_reader --seed <u64> \
         [--seconds <1..=60>] [--trace 0|1] [--quick]"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut opts = Options {
        workload: Workload::UniformMix,
        seed: 0,
        seconds: DEFAULT_SECONDS,
        trace: None,
        quick: false,
    };
    let (mut have_workload, mut have_seed) = (false, false);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--quick" {
            opts.quick = true;
            continue;
        }
        let Some(value) = args.next() else {
            return usage(&format!("{flag}: missing value"));
        };
        let ok = match flag.as_str() {
            "--workload" => Workload::parse(&value).map(|w| {
                opts.workload = w;
                have_workload = true;
            }),
            "--seed" => value.parse().ok().map(|s| {
                opts.seed = s;
                have_seed = true;
            }),
            "--seconds" => value
                .parse()
                .ok()
                .filter(|s| (1.0..=60.0).contains(s))
                .map(|s| opts.seconds = s),
            "--trace" => match value.as_str() {
                "0" => Some(false),
                "1" => Some(true),
                _ => None,
            }
            .map(|t| opts.trace = Some(t)),
            _ => None,
        };
        if ok.is_none() {
            return usage(&format!("{flag} {value}: not understood"));
        }
    }
    if !have_workload || !have_seed {
        return usage("--workload and --seed are required");
    }

    let report = match run(&opts) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("benchmark failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "workload {}  seed {}  ops_attempted {}  ops_failed {}",
        opts.workload.name(),
        opts.seed,
        report.attempted,
        report.failed
    );
    for m in &report.metrics {
        println!("{:<36} {:>16.4} {}", m.name, m.value, m.unit);
    }
    for v in &report.violations {
        println!("VIOLATION: {v}");
    }
    println!("{}", report.json_line());
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
