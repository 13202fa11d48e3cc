//! Seeded randomness helpers for deterministic simulations.
//!
//! All stochastic inputs to the simulator (per-node speed variability, data
//! skew) flow through [`DeterministicRng`], so a run is fully reproducible
//! from a single `u64` seed. The normal/lognormal samplers are implemented
//! via Box–Muller to avoid extra dependencies.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// A seeded random source with the distribution samplers the simulator needs.
///
/// # Examples
///
/// ```
/// use sae_sim::rng::DeterministicRng;
///
/// let mut a = DeterministicRng::seed(42);
/// let mut b = DeterministicRng::seed(42);
/// assert_eq!(a.uniform(), b.uniform());
/// ```
#[derive(Debug)]
pub struct DeterministicRng {
    inner: StdRng,
    /// Cached second Box–Muller variate.
    spare_normal: Option<f64>,
}

impl DeterministicRng {
    /// Creates a generator from a 64-bit seed.
    pub fn seed(seed: u64) -> Self {
        Self {
            inner: StdRng::seed_from_u64(seed),
            spare_normal: None,
        }
    }

    /// Uniform sample in `[0, 1)`.
    pub fn uniform(&mut self) -> f64 {
        self.inner.random()
    }

    /// Uniform sample in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn uniform_range(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo < hi, "uniform_range requires lo < hi");
        lo + (hi - lo) * self.uniform()
    }

    /// Uniform integer in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn index(&mut self, n: usize) -> usize {
        assert!(n > 0, "index requires a non-empty range");
        self.inner.random_range(0..n)
    }

    /// Standard normal sample (Box–Muller).
    pub(crate) fn standard_normal(&mut self) -> f64 {
        if let Some(z) = self.spare_normal.take() {
            return z;
        }
        // Avoid u == 0 to keep ln(u) finite.
        let u = loop {
            let u = self.uniform();
            if u > f64::MIN_POSITIVE {
                break u;
            }
        };
        let v = self.uniform();
        let r = (-2.0 * u.ln()).sqrt();
        let theta = 2.0 * std::f64::consts::PI * v;
        self.spare_normal = Some(r * theta.sin());
        r * theta.cos()
    }

    /// Normal sample with the given mean and standard deviation.
    ///
    /// # Panics
    ///
    /// Panics if `std_dev` is negative.
    pub(crate) fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        assert!(std_dev >= 0.0, "standard deviation must be non-negative");
        mean + std_dev * self.standard_normal()
    }

    /// Lognormal sample: `exp(N(mu, sigma))`.
    ///
    /// Used for per-node disk speed variability (Figure 3 of the paper):
    /// most nodes cluster near the median with a heavy slow tail.
    ///
    /// # Panics
    ///
    /// Panics if `sigma` is negative.
    pub fn lognormal(&mut self, mu: f64, sigma: f64) -> f64 {
        self.normal(mu, sigma).exp()
    }

    /// Exponential sample with the given rate (`1 / mean`).
    ///
    /// # Panics
    ///
    /// Panics if `rate` is not positive.
    pub fn exponential(&mut self, rate: f64) -> f64 {
        assert!(rate > 0.0, "rate must be positive");
        let u = loop {
            let u = self.uniform();
            if u > f64::MIN_POSITIVE {
                break u;
            }
        };
        -u.ln() / rate
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.index(i + 1);
            items.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = DeterministicRng::seed(7);
        let mut b = DeterministicRng::seed(7);
        for _ in 0..100 {
            assert_eq!(a.uniform().to_bits(), b.uniform().to_bits());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = DeterministicRng::seed(1);
        let mut b = DeterministicRng::seed(2);
        assert_ne!(a.uniform().to_bits(), b.uniform().to_bits());
    }

    #[test]
    fn uniform_range_respects_bounds() {
        let mut rng = DeterministicRng::seed(11);
        for _ in 0..1000 {
            let v = rng.uniform_range(2.0, 5.0);
            assert!((2.0..5.0).contains(&v));
        }
    }

    #[test]
    fn standard_normal_moments() {
        let mut rng = DeterministicRng::seed(13);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.standard_normal()).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "mean = {mean}");
        assert!((var - 1.0).abs() < 0.1, "var = {var}");
    }

    #[test]
    fn lognormal_is_positive() {
        let mut rng = DeterministicRng::seed(17);
        for _ in 0..1000 {
            assert!(rng.lognormal(0.0, 0.5) > 0.0);
        }
    }

    #[test]
    fn exponential_mean_close_to_inverse_rate() {
        let mut rng = DeterministicRng::seed(19);
        let n = 20_000;
        let mean = (0..n).map(|_| rng.exponential(2.0)).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.05, "mean = {mean}");
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = DeterministicRng::seed(23);
        let mut items: Vec<u32> = (0..50).collect();
        rng.shuffle(&mut items);
        let mut sorted = items.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<u32>>());
    }

    #[test]
    fn index_covers_range() {
        let mut rng = DeterministicRng::seed(29);
        let mut seen = [false; 5];
        for _ in 0..500 {
            seen[rng.index(5)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }
}
