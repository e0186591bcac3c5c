//! The paper's primary contribution: a **version control mechanism**
//! decoupled from concurrency control, plus the engine that composes the
//! two over multiversion storage.
//!
//! *Modular Synchronization in Multiversion Databases: Version Control and
//! Concurrency Control* (Sen Gupta & Agrawal, 1989) observes that
//! multiversion protocols entangle two concerns — ordering read-write
//! transactions (concurrency control) and exposing consistent snapshots to
//! read-only transactions (version control) — and shows they can be
//! separated behind a four-procedure interface (paper Figure 1):
//!
//! * [`VersionControl::start`] (`VCstart`) — a read-only transaction's
//!   single synchronization action: read the *visible transaction number
//!   counter* `vtnc`.
//! * [`VersionControl::register`] (`VCregister`) — called by a read-write
//!   transaction at the moment its serial order is known; assigns its
//!   transaction number from `tnc` and enqueues it.
//! * [`VersionControl::discard`] (`VCdiscard`) — abort path.
//! * [`VersionControl::complete`] (`VCcomplete`) — commit path; advances
//!   `vtnc` once every older registered transaction has completed.
//!
//! Module map:
//!
//! * [`vc`], [`vcqueue`] — Figure 1, verbatim semantics, thread-safe.
//! * [`cc_api`] — the [`ConcurrencyControl`]
//!   trait: the uniform interface any conflict-based protocol implements
//!   (two-phase locking, timestamp ordering, optimistic — see `mvcc-cc`),
//!   and the [`CcContext`] seam through which a protocol registers, ends
//!   and discards its transactions; `end(T)` is written once, there.
//! * [`db`], [`txn`] — the [`MvDatabase`] engine and
//!   transaction handles; the read-only path is Figure 2 and never touches
//!   the concurrency-control object.
//! * [`currency`] — Section 6 rectifications for delayed visibility
//!   (wait-for-visibility, monotonic sessions, pseudo-read-write).
//! * [`trace`] — execution tracing into `mvcc-model` histories for the
//!   serializability oracle.
//! * [`engine`] — the driver-facing [`Engine`] trait
//!   implemented by this engine and by every baseline.
//! * [`error`], [`config`], [`metrics`] — support types.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod cc_api;
pub mod clock;
pub mod config;
pub mod currency;
pub mod db;
pub mod durability;
pub mod engine;
pub mod error;
pub mod fault;
pub mod metrics;
pub mod obs;
pub mod retry;
pub mod trace;
pub mod txn;
pub mod vc;
pub mod vcqueue;

pub use cc_api::{CcContext, ConcurrencyControl, WriteSet};
pub use clock::{Clock, RealClock, SharedClock, SharedRng, SimClock, SimRng, SplitMixRng};
pub use config::DbConfig;
pub use currency::{CurrencyMode, Session};
pub use db::{MvDatabase, ReaperHandle};
pub use durability::{CheckpointSink, CommitLog, RecoveryStats};
pub use engine::{Engine, OpSpec, RoOutcome, RoRead, RwOutcome};
pub use error::{AbortReason, DbError};
pub use fault::{FaultConfig, FaultInjector, FaultPoint, FaultyFile};
pub use metrics::{Metrics, MetricsSnapshot};
pub use mvcc_storage::wal::FsyncPolicy;
pub use obs::{
    Attribution, DumpContext, EventKind, FlightTrigger, GaugeSample, Obs, ObsConfig, PhaseSnapshot,
    TxnPhase, VcView, WaitPoint,
};
pub use retry::RetryPolicy;
pub use trace::Tracer;
pub use txn::{Deadline, RoTxn, RwTxn, TxnOptions};
pub use vc::VersionControl;

/// Commonly used items, re-exported for examples and downstream users.
pub mod prelude {
    pub use crate::cc_api::{CcContext, ConcurrencyControl, WriteSet};
    pub use crate::clock::{Clock, RealClock, SimClock, SimRng, SplitMixRng};
    pub use crate::config::DbConfig;
    pub use crate::currency::{CurrencyMode, Session};
    pub use crate::db::MvDatabase;
    pub use crate::durability::{CheckpointSink, RecoveryStats};
    pub use crate::engine::{Engine, OpSpec, RoOutcome, RoRead, RwOutcome};
    pub use crate::error::{AbortReason, DbError};
    pub use crate::txn::{Deadline, RoTxn, RwTxn, TxnOptions};
    pub use crate::vc::VersionControl;
    pub use mvcc_model::{ObjectId, TxnId};
    pub use mvcc_storage::wal::{FsyncPolicy, MemWal};
    pub use mvcc_storage::{MvStore, Value};
}
