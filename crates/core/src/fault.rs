//! Deterministic fault injection.
//!
//! The liveness, recovery and simulation tests need to make
//! transactions stall, clients crash, and messages vanish — *on demand and
//! reproducibly*. [`FaultInjector`] is a seeded coin shared by the engine
//! ([`crate::MvDatabase`]) and the distributed simulation (`mvcc-dist`):
//! every injection point draws from the same deterministic stream, so a
//! run is fully described by its [`FaultConfig`].
//!
//! Injection points (see DESIGN.md "Fault model & liveness"):
//!
//! * [`FaultPoint::StallAfterRegister`] — a read-write client hangs right
//!   after `begin`, never to return. Under timestamp ordering the
//!   transaction is already registered with version control, so its
//!   `Active` queue entry pins `vtnc` until the stall reaper
//!   ([`crate::VersionControl::reap`]) force-discards it.
//! * [`FaultPoint::CrashBeforeComplete`] — the client dies at commit
//!   entry, after its reads/writes but before the protocol can run
//!   `VCcomplete`. Pendings and locks leak until timeouts reclaim them.
//! * [`FaultPoint::MsgDrop`] / [`FaultPoint::MsgDuplicate`] /
//!   [`FaultPoint::MsgDelay`] — per-message faults in the `mvcc-dist`
//!   cluster: phase-2 commit messages can be lost (leaving a participant
//!   in doubt) or delivered twice (exercising idempotence), and any
//!   message can incur extra latency.
//! * [`FaultPoint::WalTornWrite`] / [`FaultPoint::WalPartialFsync`] /
//!   [`FaultPoint::WalBitFlip`] / [`FaultPoint::WalDiskFull`] — disk
//!   faults on the write-ahead log, injected by wrapping the WAL sink in
//!   a [`FaultyFile`]: an append can tear mid-frame, an fsync can return
//!   failure without persisting, a byte can flip silently on its way to
//!   the platter (caught later by the frame CRC, never at write time),
//!   and the disk can fill up.

use crate::clock::{SharedRng, SplitMixRng};
use mvcc_storage::wal::WalSink;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Where a fault can be injected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultPoint {
    /// Read-write client stalls forever right after `begin` (after
    /// registration under timestamp ordering).
    StallAfterRegister,
    /// Read-write client crashes at commit entry, before `VCcomplete`.
    CrashBeforeComplete,
    /// A cluster message is lost in transit.
    MsgDrop,
    /// A cluster message is delivered twice.
    MsgDuplicate,
    /// A cluster message incurs extra delay.
    MsgDelay,
    /// A WAL append writes only a prefix of the frame, then errors.
    WalTornWrite,
    /// A WAL fsync returns an error without making anything durable.
    WalPartialFsync,
    /// One bit of a WAL append is flipped silently (the write "succeeds").
    WalBitFlip,
    /// A WAL append fails entirely: the disk is full.
    WalDiskFull,
}

const N_POINTS: usize = 9;

impl FaultPoint {
    fn index(self) -> usize {
        match self {
            FaultPoint::StallAfterRegister => 0,
            FaultPoint::CrashBeforeComplete => 1,
            FaultPoint::MsgDrop => 2,
            FaultPoint::MsgDuplicate => 3,
            FaultPoint::MsgDelay => 4,
            FaultPoint::WalTornWrite => 5,
            FaultPoint::WalPartialFsync => 6,
            FaultPoint::WalBitFlip => 7,
            FaultPoint::WalDiskFull => 8,
        }
    }
}

/// Per-point fault probabilities plus the RNG seed. All probabilities
/// default to zero (no faults); the default config is free at runtime.
#[derive(Debug, Clone)]
pub struct FaultConfig {
    /// Seed for the deterministic draw stream.
    pub seed: u64,
    /// Probability a read-write client stalls after `begin`.
    pub stall_after_register: f64,
    /// Probability a read-write client crashes at commit entry.
    pub crash_before_complete: f64,
    /// Probability a cluster message is dropped.
    pub msg_drop: f64,
    /// Probability a cluster message is duplicated.
    pub msg_duplicate: f64,
    /// Probability a cluster message is delayed by
    /// [`msg_extra_delay`](Self::msg_extra_delay).
    pub msg_delay: f64,
    /// The extra delay applied when [`msg_delay`](Self::msg_delay) fires.
    pub msg_extra_delay: Duration,
    /// Probability a WAL append tears (partial frame written, then error).
    pub wal_torn_write: f64,
    /// Probability a WAL fsync fails without persisting.
    pub wal_partial_fsync: f64,
    /// Probability a WAL append silently flips one bit.
    pub wal_bit_flip: f64,
    /// Probability a WAL append fails with "disk full".
    pub wal_disk_full: f64,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            seed: 0xFA017,
            stall_after_register: 0.0,
            crash_before_complete: 0.0,
            msg_drop: 0.0,
            msg_duplicate: 0.0,
            msg_delay: 0.0,
            msg_extra_delay: Duration::from_micros(500),
            wal_torn_write: 0.0,
            wal_partial_fsync: 0.0,
            wal_bit_flip: 0.0,
            wal_disk_full: 0.0,
        }
    }
}

impl FaultConfig {
    /// Whether any fault can ever fire under this config.
    pub fn is_active(&self) -> bool {
        self.stall_after_register > 0.0
            || self.crash_before_complete > 0.0
            || self.msg_drop > 0.0
            || self.msg_duplicate > 0.0
            || self.msg_delay > 0.0
            || self.has_disk_faults()
    }

    /// Whether any *disk* fault can fire (decides whether the engine
    /// wraps the WAL sink in a [`FaultyFile`]).
    pub fn has_disk_faults(&self) -> bool {
        self.wal_torn_write > 0.0
            || self.wal_partial_fsync > 0.0
            || self.wal_bit_flip > 0.0
            || self.wal_disk_full > 0.0
    }
}

/// The shared, thread-safe fault coin.
///
/// Every draw goes through the [`crate::SimRng`] trait. By default the
/// injector owns a private [`SplitMixRng`] seeded from
/// [`FaultConfig::seed`] (one atomic RMW plus a few multiplies per draw —
/// cheap enough to leave in production paths, and exactly zero-cost, an
/// early return, when the point's probability is zero). Under simulation
/// the engine injects its shared stream via [`Self::with_rng`], so fault
/// firing is a function of the single simulation seed.
pub struct FaultInjector {
    cfg: FaultConfig,
    rng: SharedRng,
    injected: [AtomicU64; N_POINTS],
}

impl FaultInjector {
    /// Injector from a config, drawing from a private stream seeded with
    /// `cfg.seed`.
    pub fn new(cfg: FaultConfig) -> Self {
        let rng = SplitMixRng::shared(cfg.seed);
        Self::with_rng(cfg, rng)
    }

    /// Injector drawing from an injected shared stream (the simulator's).
    pub fn with_rng(cfg: FaultConfig, rng: SharedRng) -> Self {
        FaultInjector {
            cfg,
            rng,
            injected: Default::default(),
        }
    }

    /// Injector that never fires (the engine default).
    pub fn disabled() -> Self {
        Self::new(FaultConfig::default())
    }

    /// The configuration this injector draws from.
    pub fn config(&self) -> &FaultConfig {
        &self.cfg
    }

    /// Whether any fault can ever fire.
    pub fn is_active(&self) -> bool {
        self.cfg.is_active()
    }

    fn probability(&self, point: FaultPoint) -> f64 {
        match point {
            FaultPoint::StallAfterRegister => self.cfg.stall_after_register,
            FaultPoint::CrashBeforeComplete => self.cfg.crash_before_complete,
            FaultPoint::MsgDrop => self.cfg.msg_drop,
            FaultPoint::MsgDuplicate => self.cfg.msg_duplicate,
            FaultPoint::MsgDelay => self.cfg.msg_delay,
            FaultPoint::WalTornWrite => self.cfg.wal_torn_write,
            FaultPoint::WalPartialFsync => self.cfg.wal_partial_fsync,
            FaultPoint::WalBitFlip => self.cfg.wal_bit_flip,
            FaultPoint::WalDiskFull => self.cfg.wal_disk_full,
        }
    }

    /// Should the fault at `point` fire now? Counts injections.
    pub fn fire(&self, point: FaultPoint) -> bool {
        let p = self.probability(point);
        if p <= 0.0 {
            return false;
        }
        if self.rng.next_unit() < p {
            self.injected[point.index()].fetch_add(1, Ordering::Relaxed);
            true
        } else {
            false
        }
    }

    /// Deterministic index in `[0, n)` from the same draw stream (picks
    /// torn-write cut points and bit-flip positions).
    pub fn draw_index(&self, n: usize) -> usize {
        self.rng.next_below(n as u64) as usize
    }

    /// How many times `point` has fired.
    pub fn injected(&self, point: FaultPoint) -> u64 {
        self.injected[point.index()].load(Ordering::Relaxed)
    }

    /// Total injections across every point.
    pub fn total_injected(&self) -> u64 {
        self.injected
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .sum()
    }

    /// The configured extra per-message delay (for `MsgDelay` firings).
    pub fn extra_delay(&self) -> Duration {
        self.cfg.msg_extra_delay
    }
}

/// A [`WalSink`] wrapper that injects disk faults on the way through.
///
/// Fault semantics (each drawn independently per call from the shared
/// injector stream, so runs are reproducible from the seed):
///
/// * **Disk full** — `append` writes nothing and errors
///   ([`io::ErrorKind::StorageFull`]). The log is unchanged; the commit
///   must abort.
/// * **Torn write** — `append` writes roughly half the buffer, then
///   errors ([`io::ErrorKind::WriteZero`]). This is the mid-frame crash
///   shape; the writer above rewinds via `truncate_to`.
/// * **Bit flip** — `append` flips one bit at a drawn position and
///   *succeeds*. Nothing notices at write time — only the frame CRC
///   catches it, at recovery.
/// * **Partial fsync** — `sync` skips the underlying sync and errors
///   ([`io::ErrorKind::Other`]); bytes appended since the last good sync
///   are not durable.
///
/// Rotation (`read_all`, `replace`) passes through untouched.
pub struct FaultyFile<S> {
    inner: S,
    injector: Arc<FaultInjector>,
    /// Faults fire only while armed. The engine creates the wrapper
    /// disarmed, performs its own setup writes (log header, recovery
    /// re-appends) fault-free, then arms — faults model a hostile disk
    /// under *commit* traffic, not a database that cannot even be built.
    armed: Arc<std::sync::atomic::AtomicBool>,
}

impl<S: WalSink> FaultyFile<S> {
    /// Wrap `inner`, drawing faults from `injector`, armed immediately.
    pub fn new(inner: S, injector: Arc<FaultInjector>) -> Self {
        FaultyFile {
            inner,
            injector,
            armed: Arc::new(std::sync::atomic::AtomicBool::new(true)),
        }
    }

    /// Wrap `inner` disarmed; faults start firing once the returned gate
    /// is set to `true`.
    pub fn gated(
        inner: S,
        injector: Arc<FaultInjector>,
    ) -> (Self, Arc<std::sync::atomic::AtomicBool>) {
        let armed = Arc::new(std::sync::atomic::AtomicBool::new(false));
        (
            FaultyFile {
                inner,
                injector,
                armed: Arc::clone(&armed),
            },
            armed,
        )
    }

    fn fire(&self, point: FaultPoint) -> bool {
        self.armed.load(Ordering::Relaxed) && self.injector.fire(point)
    }
}

impl<S: WalSink> WalSink for FaultyFile<S> {
    fn append(&mut self, buf: &[u8]) -> io::Result<()> {
        if self.fire(FaultPoint::WalDiskFull) {
            return Err(io::Error::new(
                io::ErrorKind::StorageFull,
                "disk full (injected)",
            ));
        }
        if self.fire(FaultPoint::WalTornWrite) {
            let cut = self.injector.draw_index(buf.len());
            self.inner.append(&buf[..cut])?;
            return Err(io::Error::new(
                io::ErrorKind::WriteZero,
                "torn write (injected)",
            ));
        }
        if self.fire(FaultPoint::WalBitFlip) && !buf.is_empty() {
            let mut corrupt = buf.to_vec();
            let pos = self.injector.draw_index(corrupt.len());
            let bit = self.injector.draw_index(8);
            corrupt[pos] ^= 1 << bit;
            return self.inner.append(&corrupt);
        }
        self.inner.append(buf)
    }

    fn sync(&mut self) -> io::Result<()> {
        if self.fire(FaultPoint::WalPartialFsync) {
            return Err(io::Error::other("fsync failed (injected)"));
        }
        self.inner.sync()
    }

    fn truncate_to(&mut self, len: u64) -> io::Result<()> {
        self.inner.truncate_to(len)
    }

    fn read_all(&mut self) -> io::Result<Vec<u8>> {
        self.inner.read_all()
    }

    fn replace(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.inner.replace(bytes)
    }

    fn batch_bytes(&self) -> usize {
        self.inner.batch_bytes()
    }
}

impl std::fmt::Debug for FaultInjector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultInjector")
            .field("cfg", &self.cfg)
            .field("total_injected", &self.total_injected())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_never_fires() {
        let inj = FaultInjector::disabled();
        assert!(!inj.is_active());
        for _ in 0..1000 {
            assert!(!inj.fire(FaultPoint::MsgDrop));
        }
        assert_eq!(inj.total_injected(), 0);
    }

    #[test]
    fn rates_are_roughly_respected() {
        let inj = FaultInjector::new(FaultConfig {
            msg_drop: 0.3,
            ..Default::default()
        });
        let n = 10_000;
        let fired = (0..n).filter(|_| inj.fire(FaultPoint::MsgDrop)).count();
        let rate = fired as f64 / n as f64;
        assert!((0.25..0.35).contains(&rate), "rate {rate} far from 0.3");
        assert_eq!(inj.injected(FaultPoint::MsgDrop), fired as u64);
    }

    #[test]
    fn same_seed_same_stream() {
        let mk = || {
            FaultInjector::new(FaultConfig {
                seed: 42,
                stall_after_register: 0.5,
                ..Default::default()
            })
        };
        let (a, b) = (mk(), mk());
        for _ in 0..256 {
            assert_eq!(
                a.fire(FaultPoint::StallAfterRegister),
                b.fire(FaultPoint::StallAfterRegister)
            );
        }
    }

    #[test]
    fn probability_one_always_fires() {
        let inj = FaultInjector::new(FaultConfig {
            crash_before_complete: 1.0,
            ..Default::default()
        });
        assert!(inj.fire(FaultPoint::CrashBeforeComplete));
        assert!(!inj.fire(FaultPoint::StallAfterRegister));
    }

    #[test]
    fn disk_faults_activate_config() {
        let cfg = FaultConfig {
            wal_bit_flip: 0.5,
            ..Default::default()
        };
        assert!(cfg.is_active());
        assert!(cfg.has_disk_faults());
        assert!(!FaultConfig::default().has_disk_faults());
    }

    #[test]
    fn draw_index_in_range() {
        let inj = FaultInjector::disabled();
        for _ in 0..1000 {
            assert!(inj.draw_index(7) < 7);
        }
        assert_eq!(inj.draw_index(0), 0);
        assert_eq!(inj.draw_index(1), 0);
    }

    #[test]
    fn faulty_file_disk_full_writes_nothing() {
        use mvcc_storage::wal::MemWal;
        let inj = Arc::new(FaultInjector::new(FaultConfig {
            wal_disk_full: 1.0,
            ..Default::default()
        }));
        let mem = MemWal::new();
        let mut f = FaultyFile::new(mem.clone(), inj);
        let err = f.append(b"hello").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::StorageFull);
        assert!(mem.is_empty());
    }

    #[test]
    fn faulty_file_torn_write_leaves_prefix() {
        use mvcc_storage::wal::MemWal;
        let inj = Arc::new(FaultInjector::new(FaultConfig {
            wal_torn_write: 1.0,
            ..Default::default()
        }));
        let mem = MemWal::new();
        let mut f = FaultyFile::new(mem.clone(), inj);
        let err = f.append(&[0xAB; 64]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::WriteZero);
        let written = mem.bytes();
        assert!(written.len() < 64, "torn write must not write everything");
        assert!(written.iter().all(|&b| b == 0xAB));
    }

    #[test]
    fn faulty_file_bit_flip_succeeds_but_corrupts() {
        use mvcc_storage::wal::MemWal;
        let inj = Arc::new(FaultInjector::new(FaultConfig {
            wal_bit_flip: 1.0,
            ..Default::default()
        }));
        let mem = MemWal::new();
        let mut f = FaultyFile::new(mem.clone(), inj);
        f.append(&[0u8; 32]).unwrap();
        let written = mem.bytes();
        assert_eq!(written.len(), 32, "bit flip must not change length");
        let flipped: u32 = written.iter().map(|b| b.count_ones()).sum();
        assert_eq!(flipped, 1, "exactly one bit must differ");
    }

    #[test]
    fn faulty_file_partial_fsync_skips_sync() {
        use mvcc_storage::wal::MemWal;
        let inj = Arc::new(FaultInjector::new(FaultConfig {
            wal_partial_fsync: 1.0,
            ..Default::default()
        }));
        let mem = MemWal::new();
        let mut f = FaultyFile::new(mem.clone(), inj);
        f.append(b"data").unwrap();
        assert!(f.sync().is_err());
        assert!(
            mem.durable_bytes().is_empty(),
            "failed fsync must not persist"
        );
    }
}
