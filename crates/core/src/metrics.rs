//! Engine and protocol counters.
//!
//! The counter that carries the paper's headline claim is
//! [`Counters::ro_sync_actions`]: synchronization actions performed **on
//! behalf of read-only transactions**. Under version control it stays at
//! exactly one per transaction (the `VCstart` load); the baselines
//! (Reed's MVTO, Chan's MV2PL) accumulate r-ts updates, blocking waits,
//! and completed-transaction-list scans here. Experiment E5 reports it.
//!
//! The counters live in obs's padded stripes (`obs::event::Striped`):
//! each thread group bumps its own copy through [`Metrics::local`], with
//! relaxed `fetch_add`s on a line no other group writes, and
//! [`Metrics::snapshot`] sums the stripes. A transaction's counters
//! therefore move no cache line between cores. Each bump lands in
//! exactly one stripe, so once the engine is quiescent every total is
//! exact — `ro_sync_actions == ro_begun` included; a snapshot taken
//! mid-run may see one stripe's bump and not another's.

use crate::obs::event::Striped;
use std::sync::atomic::{AtomicU64, Ordering};

macro_rules! metrics {
    ($( $(#[$m:meta])* $name:ident ),+ $(,)?) => {
        /// One thread group's copy of every counter. Bump it through
        /// [`Metrics::local`] (relaxed `fetch_add`); read totals only
        /// through [`Metrics::snapshot`].
        #[derive(Default)]
        pub struct Counters {
            $( $(#[$m])* pub $name: AtomicU64, )+
        }

        /// A point-in-time copy of every counter.
        #[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
        pub struct MetricsSnapshot {
            $( $(#[$m])* pub $name: u64, )+
        }

        impl Metrics {
            /// Sum every stripe.
            pub fn snapshot(&self) -> MetricsSnapshot {
                let mut s = MetricsSnapshot::default();
                for c in self.stripes.iter() {
                    $( s.$name += c.$name.load(Ordering::Relaxed); )+
                }
                s
            }

            /// Reset every counter of every stripe to zero.
            pub fn reset(&self) {
                for c in self.stripes.iter() {
                    $( c.$name.store(0, Ordering::Relaxed); )+
                }
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

/// Striped engine counters (see the module docs). Cheap to bump from any
/// thread: a bump writes only its own thread group's stripe.
#[derive(Default)]
pub struct Metrics {
    stripes: Striped<Counters>,
}

impl Metrics {
    /// Fresh zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// The calling thread's stripe, to bump.
    #[inline]
    pub fn local(&self) -> &Counters {
        self.stripes.local()
    }
}

metrics! {
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
    /// Times a read-write operation blocked waiting (a wait that the
    /// holder's release ended while it spun counts too).
    rw_blocks,
    /// Those blocks of 2PL and TO whose wait outlasted its spin and
    /// parked on a condition variable.
    rw_parks,
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
    /// Always 0: announcing a snapshot to GC takes no lock, so there is
    /// no slot acquisition to contend. Kept so readers of the counter
    /// set (exporters, the repo benchmark) stay stable.
    gc_slot_contention,
    /// Superseded versions pruned by commits' installs (see
    /// `CcContext::end`); `collect_garbage` adds the ones since its
    /// previous pass to its `versions_pruned`.
    gc_install_pruned,
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
        m.local().ro_begun.fetch_add(3, Ordering::Relaxed);
        m.local().rw_committed.fetch_add(2, Ordering::Relaxed);
        let s = m.snapshot();
        assert_eq!(s.ro_begun, 3);
        assert_eq!(s.rw_committed, 2);
        assert_eq!(s.rw_aborted, 0);
    }

    #[test]
    fn delta_subtracts_fieldwise() {
        let m = Metrics::new();
        m.local().ro_reads.fetch_add(10, Ordering::Relaxed);
        let a = m.snapshot();
        m.local().ro_reads.fetch_add(5, Ordering::Relaxed);
        m.local().rw_begun.fetch_add(1, Ordering::Relaxed);
        let b = m.snapshot();
        let d = b.delta(&a);
        assert_eq!(d.ro_reads, 5);
        assert_eq!(d.rw_begun, 1);
        assert_eq!(d.ro_begun, 0);
    }

    #[test]
    fn fields_cover_every_counter_in_order() {
        let m = Metrics::new();
        m.local().ro_begun.fetch_add(4, Ordering::Relaxed);
        m.local()
            .vc_watermark_scan_ns
            .fetch_add(9, Ordering::Relaxed);
        let fields = m.snapshot().fields();
        assert_eq!(fields.first(), Some(&("ro_begun", 4)));
        assert_eq!(fields.last(), Some(&("vc_watermark_scan_ns", 9)));
        // No duplicate names.
        let names: std::collections::HashSet<_> = fields.iter().map(|(n, _)| *n).collect();
        assert_eq!(names.len(), fields.len());
    }

    #[test]
    fn striped_totals_are_exact_and_reset_clears_every_stripe() {
        use crate::obs::event::STRIPES;
        const BUMPS: u64 = 10_000;
        let m = Metrics::new();
        // One thread more than there are stripes, so at least two
        // threads share a stripe and every stripe may be written.
        std::thread::scope(|s| {
            for t in 0..STRIPES as u64 + 1 {
                let m = &m;
                s.spawn(move || {
                    for i in 0..BUMPS {
                        let c = m.local();
                        c.ro_begun.fetch_add(1, Ordering::Relaxed);
                        c.ro_sync_actions.fetch_add(1, Ordering::Relaxed);
                        c.ro_reads.fetch_add(i % 8, Ordering::Relaxed);
                        if i % 3 == t % 3 {
                            c.rw_committed.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                });
            }
        });
        let threads = STRIPES as u64 + 1;
        let s = m.snapshot();
        assert_eq!(s.ro_begun, threads * BUMPS);
        assert_eq!(s.ro_sync_actions, s.ro_begun);
        assert_eq!(s.ro_reads, threads * (0..BUMPS).map(|i| i % 8).sum::<u64>());
        let committed: u64 = (0..threads)
            .map(|t| (0..BUMPS).filter(|i| i % 3 == t % 3).count() as u64)
            .sum();
        assert_eq!(s.rw_committed, committed);
        assert_eq!(s.rw_aborted, 0);
        m.reset();
        assert_eq!(m.snapshot(), MetricsSnapshot::default());
    }
}
