//! Engine and protocol counters.
//!
//! The counter that carries the paper's headline claim is
//! [`Metrics::ro_sync_actions`]: synchronization actions performed **on
//! behalf of read-only transactions**. Under version control it stays at
//! exactly one per transaction (the `VCstart` load); the baselines
//! (Reed's MVTO, Chan's MV2PL) accumulate r-ts updates, blocking waits,
//! and completed-transaction-list scans here. Experiment E5 reports it.

use std::sync::atomic::{AtomicU64, Ordering};

macro_rules! metrics {
    ($(#[$sm:meta] $snap:ident)? ; $( $(#[$m:meta])* $name:ident ),+ $(,)?) => {
        /// Live atomic counters. Cheap to bump from any thread.
        #[derive(Default)]
        pub struct Metrics {
            $( $(#[$m])* pub $name: AtomicU64, )+
        }

        /// A point-in-time copy of every counter.
        #[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
        pub struct MetricsSnapshot {
            $( $(#[$m])* pub $name: u64, )+
        }

        impl Metrics {
            /// Fresh zeroed counters.
            pub fn new() -> Self {
                Self::default()
            }

            /// Copy every counter.
            pub fn snapshot(&self) -> MetricsSnapshot {
                MetricsSnapshot {
                    $( $name: self.$name.load(Ordering::Relaxed), )+
                }
            }

            /// Reset every counter to zero.
            pub fn reset(&self) {
                $( self.$name.store(0, Ordering::Relaxed); )+
            }
        }

        impl MetricsSnapshot {
            /// Per-field difference (`self − earlier`), saturating.
            pub fn delta(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
                MetricsSnapshot {
                    $( $name: self.$name.saturating_sub(earlier.$name), )+
                }
            }

            /// Every counter as a `(name, value)` pair, in declaration
            /// order — the exporters and `--metrics-json` iterate this so
            /// new counters are picked up without touching them.
            pub fn fields(&self) -> Vec<(&'static str, u64)> {
                vec![ $( (stringify!($name), self.$name), )+ ]
            }
        }
    };
}

metrics! { ;
    /// Read-only transactions begun.
    ro_begun,
    /// Read-only transactions finished.
    ro_finished,
    /// Reads served to read-only transactions.
    ro_reads,
    /// Read-only reads that failed because GC pruned the version.
    ro_pruned_reads,
    /// Synchronization actions charged to read-only transactions
    /// (`VCstart` counts as one; baselines add their own).
    ro_sync_actions,
    /// Times a read-only operation blocked (zero under version control).
    ro_blocks,
    /// Read-only transactions aborted (zero under version control).
    ro_aborts,
    /// Read-write transactions begun.
    rw_begun,
    /// Read-write transactions committed.
    rw_committed,
    /// Read-write transactions aborted.
    rw_aborted,
    /// Aborts caused by a timestamp conflict.
    aborts_ts_conflict,
    /// Aborts caused by deadlock victimization.
    aborts_deadlock,
    /// Aborts caused by failed optimistic validation.
    aborts_validation,
    /// Aborts caused by wait timeouts.
    aborts_timeout,
    /// Aborts whose root cause was interference from a read-only
    /// transaction (possible in Reed's MVTO; impossible under VC).
    aborts_due_to_ro,
    /// Synchronization actions by read-write transactions (lock
    /// acquisitions, timestamp checks, validations).
    rw_sync_actions,
    /// Times a read-write operation blocked waiting.
    rw_blocks,
    /// `VCstart` invocations.
    vc_start_calls,
    /// `VCregister` invocations.
    vc_register_calls,
    /// `VCcomplete` invocations.
    vc_complete_calls,
    /// `VCdiscard` invocations.
    vc_discard_calls,
    /// Aborts caused by a baseline protocol conflict.
    aborts_baseline,
    /// Aborts requested by the application.
    aborts_user,
    /// Aborts forced by the stall reaper (`start_complete` claim failed).
    aborts_reaped,
    /// Read-write transaction retries performed by the retry runner.
    rw_retries,
    /// Retries whose triggering abort was a timestamp conflict.
    retries_ts_conflict,
    /// Retries whose triggering abort was a deadlock.
    retries_deadlock,
    /// Retries whose triggering abort was a failed validation.
    retries_validation,
    /// Retries whose triggering abort was a wait timeout.
    retries_timeout,
    /// Retries whose triggering abort was a baseline conflict.
    retries_baseline,
    /// Retries whose triggering abort was a reaper force-discard.
    retries_reaped,
    /// Registrations force-discarded by the stall reaper.
    reaper_force_discards,
    /// Commit records appended to the write-ahead log.
    wal_appends,
    /// Frame bytes appended to the write-ahead log.
    wal_bytes,
    /// WAL sink syncs (`Always`: one per commit; `EveryN`: one per batch).
    wal_syncs,
    /// WAL rotations performed by checkpoints.
    wal_rotations,
    /// Aborts caused by a failed WAL append (disk fault).
    aborts_wal,
    /// Lock requests that found their lock-table shard contended or had
    /// to block for a conflicting holder (2PL; sharding lowers it).
    lock_shard_waits,
    /// Nanoseconds threads spent blocked on the `VersionControl` inner
    /// mutex (contended acquisitions only; uncontended takes are free).
    vc_lock_wait_ns,
    /// Contended acquisitions of GC snapshot-registry slots (stays 0
    /// when slots ≥ worker threads).
    gc_slot_contention,
    /// Aborts caused by an expired deadline budget.
    aborts_deadline,
    /// Always 0: the single version-control sequencer drains its queue in
    /// place and runs no watermark folds. Kept so readers of the
    /// counter set (exporters, the repo benchmark) stay stable.
    vc_epoch_folds,
    /// Always 0, like [`vc_epoch_folds`](Self::vc_epoch_folds): there is
    /// no watermark scan to time.
    vc_watermark_scan_ns,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_copies_counters() {
        let m = Metrics::new();
        m.ro_begun.fetch_add(3, Ordering::Relaxed);
        m.rw_committed.fetch_add(2, Ordering::Relaxed);
        let s = m.snapshot();
        assert_eq!(s.ro_begun, 3);
        assert_eq!(s.rw_committed, 2);
        assert_eq!(s.rw_aborted, 0);
    }

    #[test]
    fn delta_subtracts_fieldwise() {
        let m = Metrics::new();
        m.ro_reads.fetch_add(10, Ordering::Relaxed);
        let a = m.snapshot();
        m.ro_reads.fetch_add(5, Ordering::Relaxed);
        m.rw_begun.fetch_add(1, Ordering::Relaxed);
        let b = m.snapshot();
        let d = b.delta(&a);
        assert_eq!(d.ro_reads, 5);
        assert_eq!(d.rw_begun, 1);
        assert_eq!(d.ro_begun, 0);
    }

    #[test]
    fn fields_cover_every_counter_in_order() {
        let m = Metrics::new();
        m.ro_begun.fetch_add(4, Ordering::Relaxed);
        m.vc_watermark_scan_ns.fetch_add(9, Ordering::Relaxed);
        let fields = m.snapshot().fields();
        assert_eq!(fields.first(), Some(&("ro_begun", 4)));
        assert_eq!(fields.last(), Some(&("vc_watermark_scan_ns", 9)));
        // No duplicate names.
        let names: std::collections::HashSet<_> = fields.iter().map(|(n, _)| *n).collect();
        assert_eq!(names.len(), fields.len());
    }

    #[test]
    fn reset_zeroes() {
        let m = Metrics::new();
        m.vc_start_calls.fetch_add(7, Ordering::Relaxed);
        m.reset();
        assert_eq!(m.snapshot(), MetricsSnapshot::default());
    }
}
