//! Harness statistics: order statistics that say how many samples back
//! them, spreads over repeated sets, and the seeded arrival schedule.
//!
//! Everything here is pure and seeded, so the same `--seed` gives the
//! same job seeds and the same due times on every run.

use std::time::Duration;

/// Samples that must lie beyond a percentile for it to be reported
/// (the choosing-metrics rule: "the highest percentile that has at
/// least ten samples beyond it").
pub const SAMPLES_BEYOND: usize = 10;

/// The percentiles a report may name, lowest first.
const LADDER: [f64; 4] = [50.0, 90.0, 99.0, 99.9];

/// Sorts samples ascending (NaN-free inputs; `total_cmp` keeps it total).
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// 1-based nearest rank of percentile `p` among `n` samples, in integer
/// arithmetic on tenths of a percent (0.999 * 10000 is not 9990 in f64).
fn rank(n: usize, p: f64) -> usize {
    let permille = (p * 10.0).round() as usize;
    (n * permille).div_ceil(1000).clamp(1, n.max(1))
}

/// Nearest-rank percentile `p` (0..=100) of an ascending slice.
/// Empty input yields 0.0 so callers can print "no samples" rows.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(sorted.len(), p) - 1]
}

/// Whether `n` samples leave at least [`SAMPLES_BEYOND`] beyond
/// percentile `p`.
pub fn supports(n: usize, p: f64) -> bool {
    n > 0 && n - rank(n, p) >= SAMPLES_BEYOND
}

/// The highest percentile of the ladder (p50, p90, p99, p99.9) that `n`
/// samples support; p50 when even the median has fewer than ten beyond.
pub fn highest_supported(n: usize) -> f64 {
    LADDER
        .iter()
        .copied()
        .rev()
        .find(|&p| supports(n, p))
        .unwrap_or(LADDER[0])
}

/// Median of unsorted samples (mean of the middle pair for even counts).
pub fn median(samples: &[f64]) -> f64 {
    let s = sorted(samples.to_vec());
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// Arithmetic mean; 0.0 for no samples.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Half the range of a set, as a share of its median: the "±x %" a
/// reader may put behind a number measured `samples.len()` times.
pub fn half_range_frac(samples: &[f64]) -> f64 {
    let s = sorted(samples.to_vec());
    let (Some(lo), Some(hi)) = (s.first(), s.last()) else {
        return 0.0;
    };
    let m = median(&s);
    if m == 0.0 {
        0.0
    } else {
        (hi - lo) / 2.0 / m.abs()
    }
}

/// First and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method)
/// gives them — the acceptance check is written against that function.
pub fn quartiles(samples: &[f64]) -> (f64, f64) {
    let s = sorted(samples.to_vec());
    let n = s.len();
    assert!(n >= 2, "quartiles need at least two samples");
    let at = |i: usize| {
        // j = i*(n+1) div 4, clamped to 1..=n-1, delta = remainder.
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (at(1), at(3))
}

/// Interquartile distance as a share of the median: the spread the
/// acceptance check compares against a metric's bound.
pub fn iqr_frac(samples: &[f64]) -> f64 {
    let (q1, q3) = quartiles(samples);
    let m = median(samples);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m.abs()
    }
}

/// SplitMix64: the harness's only randomness. Small, seedable, and good
/// enough for arrival gaps and job seeds.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`; distinct `stream`s of one seed are
    /// independent (arrivals vs job seeds).
    pub fn new(seed: u64, stream: u64) -> Self {
        Self(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    /// Next 64 uniformly distributed bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in the open interval (0, 1).
    pub fn next_open01(&mut self) -> f64 {
        ((self.next_u64() >> 11) as f64 + 0.5) / (1u64 << 53) as f64
    }
}

/// Due times of `count` arrivals of a Poisson process over
/// `[from, from + span)`, ascending. Given their number, the arrivals of
/// a Poisson process are independent and uniform over the interval, so
/// fixing the number keeps the process and makes the offered load the
/// same on every seed; only *when* the jobs arrive differs.
pub fn poisson_arrivals(
    rng: &mut Rng,
    count: usize,
    from: Duration,
    span: Duration,
) -> Vec<Duration> {
    let mut due: Vec<Duration> = (0..count)
        .map(|_| from + span.mul_f64(rng.next_open01()))
        .collect();
    due.sort();
    due
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), 50.0);
        assert_eq!(percentile(&s, 90.0), 90.0);
        assert_eq!(percentile(&s, 99.0), 99.0);
        assert_eq!(percentile(&s, 100.0), 100.0);
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn highest_percentile_keeps_ten_samples_beyond() {
        // p90 of 100 samples leaves exactly ten beyond it; p99 leaves one.
        assert_eq!(highest_supported(100), 90.0);
        assert_eq!(highest_supported(99), 50.0);
        assert_eq!(highest_supported(160), 90.0);
        assert_eq!(highest_supported(1_000), 99.0);
        assert_eq!(highest_supported(7_000), 99.0);
        assert_eq!(highest_supported(10_000), 99.9);
        // Too few samples even for a median with ten beyond: p50, flagged
        // by `supports` so the caller can say so.
        assert_eq!(highest_supported(5), 50.0);
        assert!(!supports(5, 50.0));
        assert!(supports(20, 50.0));
    }

    #[test]
    fn median_and_half_range() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        // 90..110 around 100: half-range 10 %.
        assert!((half_range_frac(&[90.0, 100.0, 110.0]) - 0.1).abs() < 1e-12);
        assert_eq!(half_range_frac(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([2, 4, 4, 5, 9], n=4) == [3.0, 4.0, 7.0]
        let (q1, q3) = quartiles(&[9.0, 2.0, 4.0, 5.0, 4.0]);
        assert!((q1 - 3.0).abs() < 1e-12 && (q3 - 7.0).abs() < 1e-12);
        // Two samples: [0.75*a + ... ] python gives [-0.25.., ..] for (0, 1):
        // quantiles([0, 1], n=4) == [-0.25, 0.5, 1.25]... clamped j keeps
        // the extrapolation python does.
        let (q1, q3) = quartiles(&[0.0, 1.0]);
        assert!((q1 + 0.25).abs() < 1e-12 && (q3 - 1.25).abs() < 1e-12);
        assert!((iqr_frac(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn poisson_arrivals_are_seeded_sorted_and_exact_in_number() {
        let (from, span) = (Duration::from_secs(2), Duration::from_secs(20));
        let a = poisson_arrivals(&mut Rng::new(7, 1), 6_000, from, span);
        let b = poisson_arrivals(&mut Rng::new(7, 1), 6_000, from, span);
        let c = poisson_arrivals(&mut Rng::new(8, 1), 6_000, from, span);
        assert_eq!(a, b, "same seed, same due times");
        assert_ne!(a, c, "another seed, other due times");
        assert_eq!(c.len(), 6_000, "same offered load on every seed");
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert!(a[0] >= from && *a.last().unwrap() < from + span);
        // Exponential gaps: mean 1/rate, and about 1/e of them above it.
        let gaps: Vec<f64> = a.windows(2).map(|w| (w[1] - w[0]).as_secs_f64()).collect();
        let mean_gap = mean(&gaps);
        assert!((mean_gap * 300.0 - 1.0).abs() < 0.05, "{mean_gap}");
        let long = gaps.iter().filter(|g| **g > mean_gap).count() as f64 / gaps.len() as f64;
        assert!((long - (-1.0f64).exp()).abs() < 0.03, "{long}");
    }

    #[test]
    fn rng_streams_differ() {
        assert_ne!(Rng::new(1, 1).next_u64(), Rng::new(1, 2).next_u64());
        let x = Rng::new(3, 0).next_open01();
        assert!(x > 0.0 && x < 1.0);
    }
}
