//! Order statistics: exact quantiles over stored samples (slice times,
//! which are few and gate the PR) and a fixed-memory log-linear histogram
//! (per-transaction and per-span times, which are many).

/// Quantile `q` of `sorted` with linear interpolation between neighbours
/// (0 for an empty slice).
pub fn quantile_sorted(sorted: &[u64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            let frac = pos - lo as f64;
            sorted[lo] as f64 * (1.0 - frac) + sorted[hi] as f64 * frac
        }
    }
}

/// Median of unsorted samples (sorts in place).
pub fn median(samples: &mut [u64]) -> f64 {
    samples.sort_unstable();
    quantile_sorted(samples, 0.5)
}

/// Median of a handful of floats.
pub fn median_f64(samples: &mut [f64]) -> f64 {
    samples.sort_by(f64::total_cmp);
    match samples.len() {
        0 => 0.0,
        n if n % 2 == 1 => samples[n / 2],
        n => (samples[n / 2 - 1] + samples[n / 2]) / 2.0,
    }
}

/// Sub-buckets per power of two: bucket width ≤ 1/64 of its lower bound,
/// values below 64 are exact.
const SUB: u64 = 64;
const SUB_BITS: u32 = 6;

/// Log-linear histogram of `u64` samples (nanoseconds here).
#[derive(Clone)]
pub struct Hist {
    counts: Vec<u64>,
    n: u64,
}

impl Default for Hist {
    fn default() -> Self {
        Hist {
            counts: vec![0; ((64 - SUB_BITS + 1) as u64 * SUB) as usize],
            n: 0,
        }
    }
}

impl Hist {
    fn index(v: u64) -> usize {
        if v < SUB {
            return v as usize;
        }
        let shift = (63 - v.leading_zeros()) - SUB_BITS;
        ((shift as u64 + 1) * SUB + ((v >> shift) - SUB)) as usize
    }

    /// `(lower bound, width)` of bucket `i`.
    fn bounds(i: usize) -> (u64, u64) {
        let i = i as u64;
        if i < SUB {
            return (i, 1);
        }
        let shift = i / SUB - 1;
        ((i % SUB + SUB) << shift, 1 << shift)
    }

    pub fn record(&mut self, v: u64) {
        self.counts[Self::index(v)] += 1;
        self.n += 1;
    }

    pub fn count(&self) -> u64 {
        self.n
    }

    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.n += other.n;
    }

    /// Quantile `q`, interpolated inside the bucket that holds it (0 when
    /// empty).
    pub fn quantile(&self, q: f64) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let target = q.clamp(0.0, 1.0) * self.n as f64;
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c > 0 && (seen + c) as f64 >= target {
                let (lo, width) = Self::bounds(i);
                let frac = ((target - seen as f64) / c as f64).clamp(0.0, 1.0);
                return lo as f64 + frac * width as f64;
            }
            seen += c;
        }
        unreachable!("cumulative count reaches n")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_quantiles() {
        let mut v = vec![5, 1, 3, 2, 4];
        assert_eq!(median(&mut v), 3.0);
        assert_eq!(quantile_sorted(&v, 0.25), 2.0);
        assert_eq!(quantile_sorted(&v, 1.0), 5.0);
        assert_eq!(quantile_sorted(&[], 0.5), 0.0);
        assert_eq!(median_f64(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median_f64(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn bucket_index_and_bounds_agree() {
        for v in (0..4096u64).chain([1 << 20, (1 << 33) + 12345, u64::MAX]) {
            let (lo, width) = Hist::bounds(Hist::index(v));
            assert!(lo <= v && v - lo < width, "{v}: [{lo}, +{width})");
            assert!(width == 1 || width <= lo / SUB, "{v}: width {width}");
        }
    }

    #[test]
    fn histogram_quantiles_are_within_a_bucket() {
        let mut h = Hist::default();
        for v in 1..=100_000u64 {
            h.record(v);
        }
        for q in [0.01, 0.5, 0.99] {
            let exact = q * 100_000.0;
            let got = h.quantile(q);
            assert!((got - exact).abs() / exact < 0.02, "q{q}: {got} vs {exact}");
        }
        assert_eq!(h.count(), 100_000);
        assert_eq!(Hist::default().quantile(0.5), 0.0);
    }
}
