//! Point-in-time gauges.
//!
//! Counters say how much work happened; gauges say what the engine looks
//! like *right now* — how far visibility lags assignment (`tnc − vtnc`),
//! how deep the VCQueue is and how old its head is, how many versions are
//! resident, how occupied the lock table is, and how many WAL bytes are
//! not yet durable.

/// A snapshot of the version-control state (also embedded in
/// flight-recorder dumps).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VcView {
    /// Last assigned transaction number (its Lamport time at a `dist`
    /// site).
    pub tnc: u64,
    /// Visibility watermark (its Lamport time at a site).
    pub vtnc: u64,
    /// Registered-but-not-finished transactions in the VCQueue.
    pub queue_depth: u64,
    /// Oldest queued transaction number, if any.
    pub head_tn: Option<u64>,
    /// Age of the queue head in microseconds, if any.
    pub head_age_us: Option<u64>,
}

impl VcView {
    /// `tnc − vtnc`: assigned-but-invisible transactions.
    pub fn vtnc_lag(&self) -> u64 {
        self.tnc.saturating_sub(self.vtnc)
    }
}

/// One sample of every engine gauge.
#[derive(Debug, Clone, Default)]
pub struct GaugeSample {
    /// Version-control state.
    pub vc: VcView,
    /// Committed versions resident in the store.
    pub live_versions: u64,
    /// Writes pending under timestamp ordering: reservations that later
    /// readers and writers wait on (0 for protocols that buffer writes
    /// out of sight, like 2PL and OCC).
    pub pending_versions: u64,
    /// Objects currently holding at least one lock (0 for lock-free CC).
    pub locked_objects: u64,
    /// Lock shards with at least one held lock (0 for lock-free CC).
    pub occupied_lock_shards: u64,
    /// Bytes appended to the WAL but not yet fsynced (0 without a WAL).
    pub wal_backlog_bytes: u64,
    /// Protocol-specific gauges beyond the fields above, appended
    /// verbatim to exporter output.
    pub extra: Vec<(&'static str, u64)>,
}

impl GaugeSample {
    /// Flatten to `(name, value)` pairs for the exporters.
    pub fn fields(&self) -> Vec<(&'static str, u64)> {
        let mut out = vec![
            ("tnc", self.vc.tnc),
            ("vtnc", self.vc.vtnc),
            ("vtnc_lag", self.vc.vtnc_lag()),
            ("vcqueue_depth", self.vc.queue_depth),
            ("vcqueue_head_age_us", self.vc.head_age_us.unwrap_or(0)),
        ];
        out.extend([
            ("live_versions", self.live_versions),
            ("pending_versions", self.pending_versions),
            ("locked_objects", self.locked_objects),
            ("occupied_lock_shards", self.occupied_lock_shards),
            ("wal_backlog_bytes", self.wal_backlog_bytes),
        ]);
        out.extend(self.extra.iter().copied());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vc_view_lag() {
        let v = VcView {
            tnc: 10,
            vtnc: 7,
            ..Default::default()
        };
        assert_eq!(v.vtnc_lag(), 3);
        assert_eq!(VcView::default().vtnc_lag(), 0);
    }

    #[test]
    fn queue_gauges_are_always_emitted() {
        let s = GaugeSample {
            vc: VcView {
                queue_depth: 3,
                head_age_us: Some(40),
                ..Default::default()
            },
            ..Default::default()
        };
        let fields = s.fields();
        assert!(fields.contains(&("vcqueue_depth", 3)));
        assert!(fields.contains(&("vcqueue_head_age_us", 40)));
    }

    #[test]
    fn sample_fields_include_extras() {
        let s = GaugeSample {
            vc: VcView {
                tnc: 5,
                ..Default::default()
            },
            extra: vec![("extra_gauge", 1)],
            ..Default::default()
        };
        let fields = s.fields();
        assert!(fields.contains(&("tnc", 5)));
        assert!(fields.contains(&("extra_gauge", 1)));
    }
}
