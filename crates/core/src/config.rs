//! Engine configuration.

use crate::clock::{real_clock, SharedClock, SharedRng};
use crate::fault::FaultConfig;
use crate::obs::ObsConfig;
use mvcc_storage::wal::FsyncPolicy;
use std::time::Duration;

/// Configuration shared by the engine and the protocols.
#[derive(Debug, Clone)]
pub struct DbConfig {
    /// Shard count for the multiversion store (rounded up to a power of
    /// two).
    pub store_shards: usize,
    /// Shard count for the 2PL lock table (rounded up to a power of two).
    /// Consulted by `mvcc-cc`'s preset constructors.
    pub lock_shards: usize,
    /// Upper bound on any single lock wait (2PL).
    pub lock_wait_timeout: Duration,
    /// Upper bound on a read's wait for a pending write (TO).
    pub read_wait_timeout: Duration,
    /// Record an execution trace for the serializability oracle.
    /// Off by default: tracing serializes on a global mutex.
    pub trace: bool,
    /// Versions to retain at or below the GC watermark per object
    /// (1 = minimal; larger keeps bounded history for time-travel
    /// reads below the watermark — a Section 6 GC-policy variant).
    pub gc_keep_versions: usize,
    /// How long a registered transaction may stay `Active` before the
    /// stall reaper may force-discard it. `None` disables the reaper
    /// (the classic Figure 1 behavior: a stalled client pins `vtnc`
    /// forever).
    pub register_ttl: Option<Duration>,
    /// Fault-injection probabilities (all zero by default).
    pub fault: FaultConfig,
    /// When the write-ahead log syncs (only consulted by WAL-enabled
    /// engines, see [`crate::MvDatabase::with_wal`]). `Always` by
    /// default: a committed transaction is durable before its commit
    /// call returns.
    pub wal_fsync: FsyncPolicy,
    /// Observability: structured events, phase latencies, flight
    /// recorder. All off by default — the disabled hot-path cost is one
    /// load per instrumentation point.
    pub obs: ObsConfig,
    /// The time source for every deadline, TTL, backoff sleep, and event
    /// timestamp in this engine. [`crate::RealClock`] by default; the
    /// simulator injects a [`crate::SimClock`] (see DESIGN.md §13).
    pub clock: SharedClock,
    /// Optional shared random stream. When set, the fault injector and
    /// the retry-jitter streams draw from it instead of their private
    /// per-seed streams, so one `u64` seed reproduces every draw in the
    /// engine. `None` (the default) keeps the per-component seeded
    /// streams.
    pub rng: Option<SharedRng>,
}

impl Default for DbConfig {
    fn default() -> Self {
        DbConfig {
            store_shards: 64,
            lock_shards: 64,
            lock_wait_timeout: Duration::from_secs(10),
            read_wait_timeout: Duration::from_secs(10),
            trace: false,
            gc_keep_versions: 1,
            register_ttl: None,
            fault: FaultConfig::default(),
            wal_fsync: FsyncPolicy::Always,
            obs: ObsConfig::default(),
            clock: real_clock(),
            rng: None,
        }
    }
}

impl DbConfig {
    /// Configuration for oracle tests: tracing on, short timeouts.
    pub fn traced() -> Self {
        DbConfig {
            trace: true,
            lock_wait_timeout: Duration::from_secs(5),
            read_wait_timeout: Duration::from_secs(5),
            ..Default::default()
        }
    }

    /// Set the upper bound on any single lock wait (2PL).
    pub fn with_lock_wait_timeout(mut self, timeout: Duration) -> Self {
        self.lock_wait_timeout = timeout;
        self
    }

    /// Set the upper bound on a read's wait for a pending write (TO).
    pub fn with_read_wait_timeout(mut self, timeout: Duration) -> Self {
        self.read_wait_timeout = timeout;
        self
    }

    /// Set the registration TTL enforced by the stall reaper.
    pub fn with_register_ttl(mut self, ttl: Duration) -> Self {
        self.register_ttl = Some(ttl);
        self
    }

    /// Set the fault-injection configuration.
    pub fn with_fault(mut self, fault: FaultConfig) -> Self {
        self.fault = fault;
        self
    }

    /// Set the WAL fsync policy.
    pub fn with_wal_fsync(mut self, policy: FsyncPolicy) -> Self {
        self.wal_fsync = policy;
        self
    }

    /// Set the observability configuration.
    pub fn with_obs(mut self, obs: ObsConfig) -> Self {
        self.obs = obs;
        self
    }

    /// Enable contention attribution (hot-key/hot-shard sketches and the
    /// blocking-blame ledger) on the current observability config.
    pub fn with_attribution(mut self) -> Self {
        self.obs.attribution = true;
        self
    }

    /// Inject a time source (the simulator's [`crate::SimClock`]).
    pub fn with_clock(mut self, clock: SharedClock) -> Self {
        self.clock = clock;
        self
    }

    /// Inject a shared random stream for fault coins and retry jitter.
    pub fn with_rng(mut self, rng: SharedRng) -> Self {
        self.rng = Some(rng);
        self
    }

    /// Enable structured event recording (and phase latencies).
    pub fn with_events(mut self) -> Self {
        self.obs.events = true;
        self
    }

    /// Arm the flight recorder, writing post-mortems into `dir`.
    pub fn with_flight_dir(mut self, dir: impl Into<std::path::PathBuf>) -> Self {
        self.obs.flight_dir = Some(dir.into());
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = DbConfig::default();
        assert!(c.store_shards >= 1);
        assert!(!c.trace);
    }

    #[test]
    fn traced_preset_enables_trace() {
        assert!(DbConfig::traced().trace);
    }
}
