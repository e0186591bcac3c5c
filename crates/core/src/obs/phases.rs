//! Engine-side per-phase latency histograms.
//!
//! The driver already measures *client-visible* latency; these measure the
//! engine's own phases — the spans the paper's modularity argument is
//! about. Recording is gated by the same enabled flag as the event bus
//! (one load when off), and uses the lock-free
//! [`AtomicHistogram`] from `mvcc-storage`.

use mvcc_storage::{AtomicHistogram, Histogram};

/// The instrumented engine phases.
#[derive(Debug, Default)]
pub struct PhaseHistograms {
    /// `VCregister` → `VCcomplete`/`VCdiscard`: how long a transaction
    /// number sits in the VCQueue (the vtnc-lag driver).
    pub register_to_complete: AtomicHistogram,
    /// Time spent waiting for a contended lock (2PL).
    pub lock_wait: AtomicHistogram,
    /// Write-ahead-log append + fsync inside commit.
    pub wal_append: AtomicHistogram,
    /// Read-only snapshot read (one `store.read_at` call).
    pub ro_read: AtomicHistogram,
}

/// Point-in-time copy of the phase histograms.
#[derive(Debug, Clone, Default)]
pub struct PhaseSnapshot {
    /// See [`PhaseHistograms::register_to_complete`].
    pub register_to_complete: Histogram,
    /// See [`PhaseHistograms::lock_wait`].
    pub lock_wait: Histogram,
    /// See [`PhaseHistograms::wal_append`].
    pub wal_append: Histogram,
    /// See [`PhaseHistograms::ro_read`].
    pub ro_read: Histogram,
}

impl PhaseHistograms {
    /// Fresh, empty histograms.
    pub fn new() -> PhaseHistograms {
        PhaseHistograms::default()
    }

    /// Copy out all phases.
    pub fn snapshot(&self) -> PhaseSnapshot {
        PhaseSnapshot {
            register_to_complete: self.register_to_complete.snapshot(),
            lock_wait: self.lock_wait.snapshot(),
            wal_append: self.wal_append.snapshot(),
            ro_read: self.ro_read.snapshot(),
        }
    }

    /// Zero every phase (between experiment runs).
    pub fn reset(&self) {
        self.register_to_complete.reset();
        self.lock_wait.reset();
        self.wal_append.reset();
        self.ro_read.reset();
    }
}

impl PhaseSnapshot {
    /// Named access to every phase, for exporters.
    pub fn phases(&self) -> [(&'static str, &Histogram); 4] {
        [
            ("register_to_complete", &self.register_to_complete),
            ("lock_wait", &self.lock_wait),
            ("wal_append", &self.wal_append),
            ("ro_read", &self.ro_read),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn snapshot_and_reset() {
        let p = PhaseHistograms::new();
        p.lock_wait.record(Duration::from_micros(5));
        p.wal_append.record(Duration::from_micros(50));
        let snap = p.snapshot();
        assert_eq!(snap.lock_wait.count(), 1);
        assert_eq!(snap.wal_append.count(), 1);
        assert_eq!(snap.ro_read.count(), 0);
        assert_eq!(snap.phases().len(), 4);
        p.reset();
        assert_eq!(p.snapshot().lock_wait.count(), 0);
    }
}
