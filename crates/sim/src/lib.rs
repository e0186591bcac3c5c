//! Deterministic simulation harness for the `mvdb` engine.
//!
//! FoundationDB-style simulation testing: run the *real* engine — version
//! control, concurrency control, storage, WAL, two-phase commit — inside
//! a single-threaded cooperative harness where every source of
//! nondeterminism is virtualized:
//!
//! * **Time** is a [`SimClock`](mvcc_core::SimClock): `sleep` advances a
//!   virtual counter instantly, so reaper TTLs, retry backoff and network
//!   delays cost nothing and replay exactly.
//! * **Randomness** — scheduler choices, workload shapes, fault coins,
//!   backoff jitter — derives from one `u64` seed through split
//!   [`SplitMixRng`](mvcc_core::SplitMixRng) streams.
//! * **Interleaving** is cooperative: each tick advances one logical
//!   client by one operation, and every blocking primitive is configured
//!   to fail fast instead of parking, so conflicts become deterministic
//!   retryable aborts.
//!
//! The consequence: a [`SimSpec`] (a seed plus a handful of shape knobs)
//! *is* the run. Reproducing a failure means re-running its spec; the
//! canonical trace — normalized event log, model history, counters — is
//! byte-identical across replays.
//!
//! The explorer (`cargo run -p mvcc-sim --bin explore`) sweeps seed
//! ranges across workload × protocol × fault grids, checks every run
//! against the oracles (MVSG serializability, version-control
//! invariants, value conservation, WAL recovery equivalence, reserved
//! keyspace), and on failure emits a locally-minimal spec, a verified
//! double replay, and the one-command repro.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod cluster;
pub mod minimize;
pub mod report;
pub mod single;
pub mod spec;
pub mod sweep;

pub use cluster::run_cluster;
pub use minimize::minimize;
pub use report::{RunReport, Violation};
pub use single::run_single;
pub use spec::{FaultProfile, Mode, Protocol, Sabotage, SimSpec};
pub use sweep::{sweep, Failure, SweepConfig, SweepOutcome};

/// Run one spec in whichever mode it selects.
pub fn run_spec(spec: &SimSpec) -> RunReport {
    match spec.mode {
        Mode::Single => single::run_single(spec),
        Mode::Cluster => cluster::run_cluster(spec),
    }
}
