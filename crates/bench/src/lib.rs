//! Experiment harness: regenerates every figure and evaluation claim of
//! the paper (the index lives in DESIGN.md §3; results are recorded in
//! EXPERIMENTS.md).
//!
//! Each experiment is a function `run(fast: bool) -> String` producing a
//! self-contained text report, and the `experiments` binary prints them.
//! They are seconds-long shape checks of the paper's figures; measured
//! performance lives in the repo benchmark (`benchmark/`).

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod engines;
pub mod experiments;

/// Everything above this run-length knob is scaled down in `--fast` mode
/// (used by CI/tests; full mode is the default for EXPERIMENTS.md).
pub fn scaled(fast: bool, full: u64) -> u64 {
    if fast {
        (full / 10).max(1)
    } else {
        full
    }
}

/// Duration helper with the same scaling rule.
pub fn scaled_ms(fast: bool, full_ms: u64) -> std::time::Duration {
    std::time::Duration::from_millis(scaled(fast, full_ms))
}
