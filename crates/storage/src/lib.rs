//! Multiversion storage substrate for the `mvdb` workspace.
//!
//! The 1989 paper assumes "for each object `x` in the database, there is a
//! list of associated versions" (Section 3.2) and leaves the storage layer
//! abstract. This crate is that substrate, built from scratch:
//!
//! * [`value`] — cheaply-cloneable 16-byte values (payloads of up to 14
//!   bytes inline, longer ones behind a shared [`bytes::Bytes`]).
//! * [`version`] — committed versions: a number and a payload.
//! * [`chain`] — per-object version chains ordered by version number
//!   (= creator transaction number), with snapshot reads
//!   (`largest version ≤ sn`, Figure 2) and pruning.
//! * [`store`] — a sharded concurrent map of chains, one cache line each.
//!
//! The store holds committed versions only and knows nothing of
//! concurrency control, as the paper's split asks: an uncommitted write
//! stays with the protocol that made it (a write set, or timestamp
//! ordering's reservation table in `mvcc-cc`), so read-only reads and
//! garbage collection touch nothing a protocol owns.
//! * [`gc`] — watermark garbage collection. The only rule version control
//!   imposes (paper Section 6): never discard versions "as young as or
//!   younger than `vtnc`"; additionally a registry of live read-only start
//!   numbers lowers the watermark so active snapshots stay readable.
//! * [`stats`] — storage statistics used by the experiments.
//! * [`persist`] / [`wal`] — durability: transaction-consistent
//!   checkpoints (snapshot at `vtnc`) and a CRC-framed write-ahead log of
//!   committed writesets, replayed on recovery.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod chain;
pub mod gc;
pub mod histogram;
pub mod persist;
pub mod shard;
pub mod stats;
pub mod store;
pub mod value;
pub mod version;
pub mod wal;

pub use chain::VersionChain;
pub use gc::{GcStats, RoScanRegistry};
pub use histogram::{AtomicHistogram, Histogram};
pub use persist::CheckpointStats;
pub use stats::StoreStats;
pub use store::MvStore;
pub use value::Value;
pub use version::CommittedVersion;
pub use wal::{
    crc32, scan, AppendInfo, CommitRecord, Crc32, FileSink, FsyncPolicy, MemWal, ScanStats,
    WalSink, WalWriter,
};

/// Version numbers are transaction numbers (`u64`); the initial version of
/// every object has number 0 (written by the pseudo-transaction `T_0`).
pub type VersionNo = u64;

/// The version number of every object's initial version.
pub const INITIAL_VERSION: VersionNo = 0;
