//! Concurrency-control protocols behind the paper's uniform interface.
//!
//! Section 4 of the paper integrates its version-control mechanism with
//! two-phase locking (Figure 4) and timestamp ordering (Figure 3), and
//! notes the integration with optimistic concurrency control appears in
//! the authors' companion work \[1, 2\]. This crate implements all three
//! as [`mvcc_core::ConcurrencyControl`] instances:
//!
//! * [`tpl::TwoPhaseLocking`] — strict 2PL over the [`lock`] manager,
//!   registering with version control **at the lock point** (reached when
//!   `end(T)` is invoked); writes are "version φ"s buffered in the
//!   transaction until they are installed as `tn(T)` at commit.
//! * [`to::TimestampOrdering`] — registers **at begin**; reads and writes
//!   are checked against `r-ts`/`w-ts` in its [`pending`] table and may
//!   block behind pending writes of older transactions; late writes
//!   abort.
//! * [`occ::Optimistic`] — reads run against the latest committed state
//!   with no synchronization; backward validation at commit registers
//!   **at the validation point**, making validation order the serial
//!   order.
//!
//! All three leave read-only transactions untouched — they never see one.
//! None of them touches version control or the log directly: each keeps
//! its writes in a [`mvcc_core::WriteSet`] and commits through the one
//! `end(T)`, [`mvcc_core::CcContext::end`], so what this crate holds is
//! conflict bookkeeping only: locks, validation state, and timestamp
//! ordering's reservations and `r-ts`. The store never sees any of it.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod lock;
pub mod occ;
pub mod pending;
pub mod to;
pub mod tpl;
pub mod wait;

pub use lock::{LockError, LockManager, LockMode};
pub use occ::Optimistic;
pub use pending::PendingTable;
pub use to::TimestampOrdering;
pub use tpl::{TplTxn, TwoPhaseLocking};

use mvcc_core::{DbConfig, MvDatabase};

/// Convenience constructors: the three paper protocols on a fresh engine.
pub mod presets {
    use super::*;

    /// Version control + strict two-phase locking (paper Figure 4). The
    /// lock table is sharded per `config.lock_shards`.
    pub fn vc_2pl(config: DbConfig) -> MvDatabase<TwoPhaseLocking> {
        MvDatabase::with_config(TwoPhaseLocking::with_shards(config.lock_shards), config)
    }

    /// Version control + timestamp ordering (paper Figure 3).
    pub fn vc_to(config: DbConfig) -> MvDatabase<TimestampOrdering> {
        MvDatabase::with_config(TimestampOrdering::new(), config)
    }

    /// Version control + optimistic concurrency control (paper refs \[1,2\]).
    pub fn vc_occ(config: DbConfig) -> MvDatabase<Optimistic> {
        MvDatabase::with_config(Optimistic::new(), config)
    }
}
