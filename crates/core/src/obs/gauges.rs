//! Point-in-time gauges and the background collector that samples them.
//!
//! Counters say how much work happened; gauges say what the engine looks
//! like *right now* — how far visibility lags assignment (`tnc − vtnc`),
//! how deep the VCQueue is and how old its head is, how many versions are
//! resident, how occupied the lock table is, and how many WAL bytes are
//! not yet durable. The collector is a small background thread in the
//! style of the stall reaper: sample on an interval, publish the latest
//! sample, stop-and-join on drop.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// A snapshot of the version-control state (also embedded in
/// flight-recorder dumps).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VcView {
    /// Last assigned transaction number.
    pub tnc: u64,
    /// Visibility watermark.
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
    /// Protocol- or site-specific extras (e.g. adaptive mode, dist gtn
    /// skew), appended verbatim to exporter output.
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

/// Background gauge sampler. Holds the latest sample; stops on drop.
pub struct GaugeCollector {
    latest: Arc<Mutex<Option<GaugeSample>>>,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for GaugeCollector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GaugeCollector")
            .field("running", &self.handle.is_some())
            .finish()
    }
}

impl GaugeCollector {
    /// Spawn a collector calling `sample` every `interval`.
    pub fn spawn(
        interval: Duration,
        sample: Arc<dyn Fn() -> GaugeSample + Send + Sync>,
    ) -> GaugeCollector {
        let latest = Arc::new(Mutex::new(None));
        let stop = Arc::new(AtomicBool::new(false));
        let (latest2, stop2) = (latest.clone(), stop.clone());
        let handle = std::thread::Builder::new()
            .name("mvdb-gauges".into())
            .spawn(move || {
                while !stop2.load(Ordering::Relaxed) {
                    let s = sample();
                    *latest2.lock().expect("gauge mutex poisoned") = Some(s);
                    // Sleep in small steps so drop is prompt even with a
                    // long interval.
                    let mut left = interval;
                    while !left.is_zero() && !stop2.load(Ordering::Relaxed) {
                        let step = left.min(Duration::from_millis(10));
                        std::thread::sleep(step);
                        left = left.saturating_sub(step);
                    }
                }
            })
            .expect("failed to spawn gauge collector");
        GaugeCollector {
            latest,
            stop,
            handle: Some(handle),
        }
    }

    /// The most recent sample, if the collector has run at least once.
    pub fn latest(&self) -> Option<GaugeSample> {
        self.latest.lock().expect("gauge mutex poisoned").clone()
    }

    /// Stop the collector and join its thread (idempotent).
    pub fn stop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for GaugeCollector {
    fn drop(&mut self) {
        self.stop();
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
            extra: vec![("adaptive_mode", 1)],
            ..Default::default()
        };
        let fields = s.fields();
        assert!(fields.contains(&("tnc", 5)));
        assert!(fields.contains(&("adaptive_mode", 1)));
    }

    #[test]
    fn collector_samples_and_stops() {
        use std::sync::atomic::AtomicU64;
        let calls = Arc::new(AtomicU64::new(0));
        let calls2 = calls.clone();
        let mut c = GaugeCollector::spawn(
            Duration::from_millis(1),
            Arc::new(move || {
                let n = calls2.fetch_add(1, Ordering::Relaxed);
                GaugeSample {
                    live_versions: n,
                    ..Default::default()
                }
            }),
        );
        let deadline = std::time::Instant::now() + Duration::from_secs(2);
        while c.latest().is_none() && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(c.latest().is_some());
        c.stop();
        let after = calls.load(Ordering::Relaxed);
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(calls.load(Ordering::Relaxed), after, "still sampling");
    }
}
