//! Synthetic workload substrate for the experiments.
//!
//! The 1989 paper reports no measurements — its evaluation is a set of
//! structural claims about read-only overhead, interference, and
//! visibility. This crate builds the testbed those claims are measured
//! on (DESIGN.md records the substitution): deterministic workload
//! generation ([`spec`], [`keydist`]), a multithreaded closed-loop driver
//! over the [`mvcc_core::Engine`] trait ([`driver`]), and aligned-text
//! report tables ([`report`]) that the experiment harness prints.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod driver;
pub mod keydist;
pub mod report;
pub mod spec;

pub use driver::{DriverConfig, ReportTick, Reporter, RunReport};
pub use keydist::{KeyDist, KeySampler};
pub use report::Table;
pub use spec::WorkloadSpec;
