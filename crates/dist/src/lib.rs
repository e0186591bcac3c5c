//! Distributed version control (paper Section 6 and companion report \[3\]).
//!
//! "Since each database site in a distributed environment maintains its
//! own counters (`tnc` and `vtnc`) and its own queue (`VCQueue`), care
//! must be taken to ensure correctness. However, once we ensure that
//! there is only one start number associated with a read-only transaction
//! and only one transaction number for every read-write transaction, the
//! extension of centralized version control to a distributed one is quite
//! straightforward."
//!
//! This crate realizes that sketch over an in-process multi-site
//! simulation (report \[3\] is unavailable; DESIGN.md records the
//! substitution):
//!
//! * [`gtn`] — **global transaction numbers**: Lamport `(time, site)`
//!   pairs encoded into a `u64`, so version numbers remain ordinary
//!   storage version numbers and the oracle's tn-order MVSG applies
//!   globally. One number per distributed read-write transaction.
//! * [`site`] — a database site: storage + locks + core's
//!   `VersionControl`, numbering in Lamport pairs. A transaction registers
//!   its **proposal** at prepare and completes with its **final** number
//!   at commit; the site's `vtnc` never passes an in-doubt transaction
//!   (the "care" the paper mentions). No separate distributed module is
//!   needed.
//! * [`cluster`] — the client surface: distributed read-write
//!   transactions under two-phase commit with per-site strict 2PL, and
//!   distributed read-only transactions with a **single global start
//!   number** (one `VCstart` per site — no a-priori site list, no
//!   completed-transaction-list construction as required by \[8\]).
//! * A deliberately broken [`cluster::RoMode::PerSiteSnapshots`] mode
//!   reproduces the anomaly of the distributed MV2PL of \[8\]: each
//!   read-only transaction sees *a* consistent snapshot per site, but
//!   the set of read-only transactions is not globally serializable —
//!   experiment E10 shows the oracle catching the cycle.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod cluster;
pub mod gtn;
pub mod site;

pub use cluster::{Cluster, ClusterConfig, DistRoTxn, DistRwTxn, InDoubtStats, RoMode, SiteSkew};
pub use gtn::Gtn;
pub use site::{Site, SiteId};
