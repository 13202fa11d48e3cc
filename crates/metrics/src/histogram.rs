//! Log-bucketed histograms for distribution summaries.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Number of buckets: covers [`Histogram::MIN_TRACKED`], growing by the
/// bucket growth factor per bucket, plus an overflow bucket.
const BUCKETS: usize = 256;

/// A thread-safe histogram with exponentially sized buckets.
///
/// Values are clamped into `[MIN_TRACKED, +inf)`; each bucket spans a fixed
/// multiplicative range so relative error of quantile estimates is bounded by
/// the growth factor. Suited to positively valued, heavy-tailed measurements
/// such as task durations and I/O request latencies.
///
/// # Examples
///
/// ```
/// use sae_metrics::Histogram;
///
/// let h = Histogram::new();
/// for v in [1.0, 2.0, 3.0, 4.0] {
///     h.record(v);
/// }
/// let snap = h.snapshot();
/// assert_eq!(snap.count, 4);
/// assert!((snap.mean - 2.5).abs() < 1e-9);
/// ```
#[derive(Debug, Clone)]
pub struct Histogram {
    inner: Arc<Inner>,
}

#[derive(Debug)]
struct Inner {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum_bits: AtomicU64,
    min_bits: AtomicU64,
    max_bits: AtomicU64,
}

/// Multiplicative width of each bucket (~15% relative quantile error).
const GROWTH: f64 = 1.15;

impl Histogram {
    /// Smallest distinguishable value; everything below lands in bucket 0.
    pub(crate) const MIN_TRACKED: f64 = 1e-6;

    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a single observation.
    ///
    /// Negative and NaN values are recorded into the lowest bucket; the
    /// histogram is meant for non-negative measurements.
    pub fn record(&self, value: f64) {
        let idx = Self::bucket_index(value);
        self.inner.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.inner.count.fetch_add(1, Ordering::Relaxed);
        let v = if value.is_finite() {
            value.max(0.0)
        } else {
            0.0
        };
        atomic_f64_update(&self.inner.sum_bits, |s| s + v);
        atomic_f64_update(&self.inner.min_bits, |m| m.min(v));
        atomic_f64_update(&self.inner.max_bits, |m| m.max(v));
    }

    fn bucket_index(value: f64) -> usize {
        if !value.is_finite() || value <= Self::MIN_TRACKED {
            return 0;
        }
        let idx = (value / Self::MIN_TRACKED).ln() / GROWTH.ln();
        (idx as usize).min(BUCKETS - 1)
    }

    /// Lower bound of bucket `idx` in value space.
    fn bucket_floor(idx: usize) -> f64 {
        Self::MIN_TRACKED * GROWTH.powi(idx as i32)
    }

    /// Returns a point-in-time summary of the distribution.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let count = self.inner.count.load(Ordering::Relaxed);
        let sum = f64::from_bits(self.inner.sum_bits.load(Ordering::Relaxed));
        let counts: Vec<u64> = self
            .inner
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        HistogramSnapshot {
            count,
            mean: if count == 0 { 0.0 } else { sum / count as f64 },
            min: if count == 0 {
                0.0
            } else {
                f64::from_bits(self.inner.min_bits.load(Ordering::Relaxed))
            },
            max: if count == 0 {
                0.0
            } else {
                f64::from_bits(self.inner.max_bits.load(Ordering::Relaxed))
            },
            bucket_counts: counts,
        }
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Self {
            inner: Arc::new(Inner {
                buckets: std::array::from_fn(|_| AtomicU64::new(0)),
                count: AtomicU64::new(0),
                sum_bits: AtomicU64::new(0f64.to_bits()),
                min_bits: AtomicU64::new(f64::INFINITY.to_bits()),
                max_bits: AtomicU64::new(f64::NEG_INFINITY.to_bits()),
            }),
        }
    }
}

fn atomic_f64_update(bits: &AtomicU64, f: impl Fn(f64) -> f64) {
    let mut current = bits.load(Ordering::Relaxed);
    loop {
        let next = f(f64::from_bits(current)).to_bits();
        match bits.compare_exchange_weak(current, next, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(observed) => current = observed,
        }
    }
}

/// An immutable summary of a [`Histogram`] at a point in time.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Total number of recorded observations.
    pub count: u64,
    /// Arithmetic mean of all observations.
    pub mean: f64,
    /// Smallest observation (0.0 when empty).
    pub min: f64,
    /// Largest observation (0.0 when empty).
    pub max: f64,
    /// Raw per-bucket counts (exponentially sized buckets).
    pub bucket_counts: Vec<u64>,
}

impl HistogramSnapshot {
    /// Estimates the `q`-quantile (`q` in `[0, 1]`) from bucket boundaries.
    ///
    /// Returns `None` for an empty histogram. The estimate has bounded
    /// relative error given by the bucket growth factor.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0,1]");
        if self.count == 0 {
            return None;
        }
        let rank = (q * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (idx, &c) in self.bucket_counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                // Midpoint of the bucket in value space, clamped to observed range.
                let lo = Histogram::bucket_floor(idx);
                let hi = lo * GROWTH;
                let est = (lo + hi) / 2.0;
                return Some(est.clamp(self.min, self.max));
            }
        }
        Some(self.max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_snapshot() {
        let snap = Histogram::new().snapshot();
        assert_eq!(snap.count, 0);
        assert_eq!(snap.mean, 0.0);
        assert_eq!(snap.quantile(0.5), None);
    }

    #[test]
    fn mean_min_max_exact() {
        let h = Histogram::new();
        for v in [2.0, 4.0, 6.0] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 3);
        assert!((s.mean - 4.0).abs() < 1e-12);
        assert_eq!(s.min, 2.0);
        assert_eq!(s.max, 6.0);
    }

    #[test]
    fn quantile_bounded_relative_error() {
        let h = Histogram::new();
        for i in 1..=1000 {
            h.record(i as f64 / 100.0); // 0.01 .. 10.0
        }
        let s = h.snapshot();
        let p50 = s.quantile(0.5).unwrap();
        assert!((p50 - 5.0).abs() / 5.0 < 0.20, "p50 = {p50}");
        let p99 = s.quantile(0.99).unwrap();
        assert!((p99 - 9.9).abs() / 9.9 < 0.20, "p99 = {p99}");
    }

    #[test]
    fn tiny_and_pathological_values_land_in_bucket_zero() {
        let h = Histogram::new();
        h.record(0.0);
        h.record(-5.0);
        h.record(f64::NAN);
        let s = h.snapshot();
        assert_eq!(s.count, 3);
        assert_eq!(s.bucket_counts[0], 3);
    }

    #[test]
    fn huge_values_clamp_into_last_bucket() {
        let h = Histogram::new();
        h.record(f64::MAX / 2.0);
        let s = h.snapshot();
        assert_eq!(*s.bucket_counts.last().unwrap(), 1);
    }

    #[test]
    fn quantile_zero_and_one_within_range() {
        let h = Histogram::new();
        for v in [1.0, 2.0, 3.0] {
            h.record(v);
        }
        let s = h.snapshot();
        let q0 = s.quantile(0.0).unwrap();
        let q1 = s.quantile(1.0).unwrap();
        assert!(q0 >= s.min && q0 <= s.max);
        assert!(q1 >= s.min && q1 <= s.max);
    }

    #[test]
    fn clone_shares_state() {
        let h = Histogram::new();
        let h2 = h.clone();
        h2.record(1.0);
        assert_eq!(h.snapshot().count, 1);
    }
}
