//! Log-bucketed latency histogram (power-of-two nanosecond buckets).
//!
//! Fixed memory, O(1) record, mergeable across driver threads, with
//! approximate quantiles by geometric interpolation within a bucket —
//! the standard trick for benchmark latency collection without
//! per-sample storage. Lives in `mvcc-storage` (the lowest shared crate)
//! so both the engine's observability layer (`mvcc-core::obs`) and the
//! workload driver can use it.
//!
//! [`AtomicHistogram`] is the concurrent variant used on engine hot
//! paths: `record` is a handful of relaxed atomic RMWs, and `snapshot`
//! produces a plain [`Histogram`] for reporting.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

const BUCKETS: usize = 64;

/// A histogram of durations.
///
/// ```
/// use mvcc_storage::Histogram;
/// use std::time::Duration;
///
/// let mut h = Histogram::new();
/// for us in [10, 20, 30] {
///     h.record(Duration::from_micros(us));
/// }
/// assert_eq!(h.count(), 3);
/// assert_eq!(h.mean(), Duration::from_micros(20));
/// assert!(h.p99() >= h.p50());
/// assert!(h.p50() >= h.min() && h.p99() <= h.max());
/// ```
#[derive(Debug, Clone)]
pub struct Histogram {
    counts: [u64; BUCKETS],
    count: u64,
    sum_ns: u128,
    max_ns: u64,
    min_ns: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Empty histogram.
    pub fn new() -> Self {
        Histogram {
            counts: [0; BUCKETS],
            count: 0,
            sum_ns: 0,
            max_ns: 0,
            min_ns: u64::MAX,
        }
    }

    fn bucket(ns: u64) -> usize {
        (64 - ns.leading_zeros()) as usize % BUCKETS
    }

    /// Record one sample.
    pub fn record(&mut self, d: Duration) {
        let ns = d.as_nanos().min(u64::MAX as u128) as u64;
        self.counts[Self::bucket(ns)] += 1;
        self.count += 1;
        self.sum_ns += ns as u128;
        self.max_ns = self.max_ns.max(ns);
        self.min_ns = self.min_ns.min(ns);
    }

    /// Fold another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum_ns += other.sum_ns;
        self.max_ns = self.max_ns.max(other.max_ns);
        self.min_ns = self.min_ns.min(other.min_ns);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Per-bucket sample counts. Bucket 0 holds only zero-duration
    /// samples; bucket `i ≥ 1` holds samples in `[2^(i-1), 2^i - 1]`
    /// nanoseconds (see [`Histogram::bucket_upper_bound`]). Exporters use
    /// this to render cumulative Prometheus histogram buckets.
    pub fn bucket_counts(&self) -> &[u64] {
        &self.counts
    }

    /// Inclusive upper bound, in nanoseconds, of bucket `i`.
    pub fn bucket_upper_bound(i: usize) -> u64 {
        if i == 0 {
            0
        } else {
            (((1u128 << i.min(64)) - 1).min(u64::MAX as u128)) as u64
        }
    }

    /// Sum of all samples in nanoseconds.
    pub fn sum_ns(&self) -> u128 {
        self.sum_ns
    }

    /// Mean sample.
    pub fn mean(&self) -> Duration {
        if self.count == 0 {
            return Duration::ZERO;
        }
        Duration::from_nanos((self.sum_ns / self.count as u128) as u64)
    }

    /// Largest sample.
    pub fn max(&self) -> Duration {
        Duration::from_nanos(self.max_ns)
    }

    /// Smallest sample (zero if empty).
    pub fn min(&self) -> Duration {
        if self.count == 0 {
            Duration::ZERO
        } else {
            Duration::from_nanos(self.min_ns)
        }
    }

    /// Approximate quantile `q ∈ [0, 1]` by locating the bucket holding
    /// the q-th sample and interpolating geometrically inside it.
    ///
    /// The interpolation range of the lowest (highest) occupied bucket is
    /// tightened to start (end) at the recorded minimum (maximum), and the
    /// result is clamped to `[min, max]` — without this, a bucket's
    /// nominal `[2^(i-1), 2^i)` span lets a quantile undershoot the
    /// smallest recorded sample (most visibly at the zero/min bucket
    /// boundary, where bucket 0 nominally spans `[0, 1)`).
    pub fn quantile(&self, q: f64) -> Duration {
        if self.count == 0 {
            return Duration::ZERO;
        }
        let q = q.clamp(0.0, 1.0);
        let target = ((self.count as f64) * q).ceil().max(1.0) as u64;
        let lowest = self.counts.iter().position(|&c| c > 0).unwrap_or(0);
        let highest = self.counts.iter().rposition(|&c| c > 0).unwrap_or(0);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if seen + c >= target {
                let mut lo = if i == 0 { 0u64 } else { 1u64 << (i - 1) };
                let mut hi = (1u64 << i.min(62)).max(lo + 1);
                if i == lowest {
                    lo = lo.max(self.min_ns);
                }
                if i == highest {
                    hi = hi.min(self.max_ns);
                }
                if hi <= lo {
                    return Duration::from_nanos(lo.clamp(self.min_ns, self.max_ns));
                }
                let frac = (target - seen) as f64 / c as f64;
                let ns = lo as f64 + (hi - lo) as f64 * frac;
                let ns = (ns as u64).clamp(self.min_ns, self.max_ns);
                return Duration::from_nanos(ns);
            }
            seen += c;
        }
        self.max()
    }

    /// Shorthand for the median.
    pub fn p50(&self) -> Duration {
        self.quantile(0.50)
    }

    /// 95th percentile.
    pub fn p95(&self) -> Duration {
        self.quantile(0.95)
    }

    /// 99th percentile.
    pub fn p99(&self) -> Duration {
        self.quantile(0.99)
    }
}

/// Concurrent histogram for engine-side phase timing.
///
/// `record` costs a few relaxed atomic RMWs and never blocks; `snapshot`
/// copies the buckets into a plain [`Histogram`]. A snapshot taken while
/// writers are active may be off by in-flight samples (each field is read
/// independently) — fine for monitoring, which is its only use.
#[derive(Debug)]
pub struct AtomicHistogram {
    counts: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum_ns: AtomicU64,
    max_ns: AtomicU64,
    min_ns: AtomicU64,
}

impl Default for AtomicHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl AtomicHistogram {
    /// Empty histogram.
    pub fn new() -> Self {
        AtomicHistogram {
            counts: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_ns: AtomicU64::new(0),
            max_ns: AtomicU64::new(0),
            min_ns: AtomicU64::new(u64::MAX),
        }
    }

    /// Record one sample (lock-free, relaxed ordering).
    pub fn record(&self, d: Duration) {
        let ns = d.as_nanos().min(u64::MAX as u128) as u64;
        self.counts[Histogram::bucket(ns)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_ns.fetch_add(ns, Ordering::Relaxed);
        self.max_ns.fetch_max(ns, Ordering::Relaxed);
        self.min_ns.fetch_min(ns, Ordering::Relaxed);
    }

    /// Number of samples recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Copy the current contents into a plain [`Histogram`].
    pub fn snapshot(&self) -> Histogram {
        let mut counts = [0u64; BUCKETS];
        for (dst, src) in counts.iter_mut().zip(self.counts.iter()) {
            *dst = src.load(Ordering::Relaxed);
        }
        let count: u64 = counts.iter().sum();
        Histogram {
            counts,
            count,
            sum_ns: self.sum_ns.load(Ordering::Relaxed) as u128,
            max_ns: self.max_ns.load(Ordering::Relaxed),
            min_ns: if count == 0 {
                u64::MAX
            } else {
                self.min_ns.load(Ordering::Relaxed)
            },
        }
    }

    /// Reset all buckets and summary fields to empty.
    pub fn reset(&self) {
        for c in &self.counts {
            c.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum_ns.store(0, Ordering::Relaxed);
        self.max_ns.store(0, Ordering::Relaxed);
        self.min_ns.store(u64::MAX, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn us(n: u64) -> Duration {
        Duration::from_micros(n)
    }

    #[test]
    fn empty_histogram() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), Duration::ZERO);
        assert_eq!(h.quantile(0.5), Duration::ZERO);
        assert_eq!(h.min(), Duration::ZERO);
    }

    #[test]
    fn mean_and_extremes_exact() {
        let mut h = Histogram::new();
        h.record(us(10));
        h.record(us(20));
        h.record(us(30));
        assert_eq!(h.count(), 3);
        assert_eq!(h.mean(), us(20));
        assert_eq!(h.max(), us(30));
        assert_eq!(h.min(), us(10));
    }

    #[test]
    fn quantiles_are_order_of_magnitude_right() {
        let mut h = Histogram::new();
        for _ in 0..99 {
            h.record(us(100));
        }
        h.record(Duration::from_millis(10));
        let p50 = h.p50();
        assert!(p50 >= us(50) && p50 <= us(200), "p50 {p50:?}");
        let p99 = h.p99();
        assert!(p99 >= us(50), "p99 {p99:?}");
        assert!(h.quantile(1.0) >= Duration::from_millis(5));
    }

    #[test]
    fn merge_combines() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record(us(10));
        b.record(us(1000));
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.max(), us(1000));
        assert_eq!(a.min(), us(10));
        assert_eq!(a.mean(), us(505));
    }

    #[test]
    fn quantile_monotone() {
        let mut h = Histogram::new();
        for i in 1..=1000u64 {
            h.record(Duration::from_nanos(i * 97));
        }
        let mut prev = Duration::ZERO;
        for q in [0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0] {
            let v = h.quantile(q);
            assert!(v >= prev, "quantile not monotone at {q}");
            prev = v;
        }
    }

    #[test]
    fn zero_duration_sample() {
        let mut h = Histogram::new();
        h.record(Duration::ZERO);
        assert_eq!(h.count(), 1);
        assert_eq!(h.max(), Duration::ZERO);
        assert_eq!(h.p50(), Duration::ZERO);
    }

    /// The zero/min bucket-boundary fix: a quantile must never undershoot
    /// the recorded minimum. Two samples of 100ns live in bucket
    /// `[64, 128)`; naive interpolation puts p50 at 96ns < min.
    #[test]
    fn quantile_never_below_min() {
        let mut h = Histogram::new();
        h.record(Duration::from_nanos(100));
        h.record(Duration::from_nanos(100));
        assert_eq!(h.p50(), Duration::from_nanos(100));
        assert_eq!(h.min(), Duration::from_nanos(100));
        for q in [0.0, 0.01, 0.5, 0.99, 1.0] {
            let v = h.quantile(q);
            assert!(v >= h.min() && v <= h.max(), "q={q} v={v:?}");
        }
    }

    #[test]
    fn atomic_histogram_matches_plain() {
        let a = AtomicHistogram::new();
        let mut p = Histogram::new();
        for i in 1..=500u64 {
            let d = Duration::from_nanos(i * 31);
            a.record(d);
            p.record(d);
        }
        let s = a.snapshot();
        assert_eq!(s.count(), p.count());
        assert_eq!(s.min(), p.min());
        assert_eq!(s.max(), p.max());
        assert_eq!(s.mean(), p.mean());
        assert_eq!(s.p99(), p.p99());
    }

    #[test]
    fn bucket_bounds_partition_the_axis() {
        // Every sample lands in the bucket whose bound range covers it.
        for ns in [0u64, 1, 2, 63, 64, 100, 1_000_000, u64::MAX / 2] {
            let mut h = Histogram::new();
            h.record(Duration::from_nanos(ns));
            let i = h.bucket_counts().iter().position(|&c| c == 1).unwrap();
            assert!(ns <= Histogram::bucket_upper_bound(i), "ns={ns} i={i}");
            if i > 0 {
                assert!(ns > Histogram::bucket_upper_bound(i - 1), "ns={ns} i={i}");
            }
        }
        // Bounds are strictly increasing (valid Prometheus `le` ladder).
        for i in 1..64 {
            assert!(Histogram::bucket_upper_bound(i) > Histogram::bucket_upper_bound(i - 1));
        }
    }

    #[test]
    fn atomic_histogram_reset() {
        let a = AtomicHistogram::new();
        a.record(us(5));
        a.reset();
        let s = a.snapshot();
        assert_eq!(s.count(), 0);
        assert_eq!(s.min(), Duration::ZERO);
    }
}
