//! Per-node performance variability (Figure 3 of the paper).

use sae_sim::rng::DeterministicRng;

/// Configuration for sampling per-node disk speed factors.
///
/// Real clusters show substantial I/O performance spread even across
/// identically specced nodes (Figure 3: reading/writing 30 GB varies by
/// \>2x across DAS-5 nodes). We model a node's speed as
/// `1 / lognormal(0, sigma)`, optionally degraded further for a small
/// fraction of "outlier" nodes (failing disks, background daemons).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VariabilityConfig {
    /// Sigma of the lognormal slowness distribution (0 = homogeneous).
    pub sigma: f64,
    /// Probability that a node is a slow outlier.
    pub outlier_probability: f64,
    /// Speed multiplier applied to outlier nodes (e.g. 0.45).
    pub outlier_factor: f64,
    /// Lower clamp on the final speed factor.
    pub min_factor: f64,
    /// Upper clamp on the final speed factor.
    pub max_factor: f64,
}

impl VariabilityConfig {
    /// Variability matching the DAS-5 measurements of Figure 3: most nodes
    /// within ±15%, a few slow outliers around half speed.
    pub fn das5() -> Self {
        Self {
            sigma: 0.08,
            outlier_probability: 0.07,
            outlier_factor: 0.45,
            min_factor: 0.3,
            max_factor: 1.3,
        }
    }

    /// No variability: every node runs at exactly factor 1.0.
    pub fn homogeneous() -> Self {
        Self {
            sigma: 0.0,
            outlier_probability: 0.0,
            outlier_factor: 1.0,
            min_factor: 1.0,
            max_factor: 1.0,
        }
    }
}

impl Default for VariabilityConfig {
    fn default() -> Self {
        Self::homogeneous()
    }
}

/// Deterministic sampler of per-node speed factors.
///
/// The factor for a node depends only on `(seed, node_id)`, so cluster
/// construction order does not perturb results.
///
/// # Examples
///
/// ```
/// use sae_storage::{NodeVariability, VariabilityConfig};
///
/// let v = NodeVariability::new(VariabilityConfig::das5(), 42);
/// assert_eq!(v.speed_factor(3), v.speed_factor(3)); // deterministic
/// ```
#[derive(Debug, Clone)]
pub struct NodeVariability {
    config: VariabilityConfig,
    seed: u64,
}

impl NodeVariability {
    /// Creates a sampler with the given configuration and seed.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is inconsistent (negative sigma,
    /// probability outside `[0,1]`, non-positive or inverted clamps).
    pub fn new(config: VariabilityConfig, seed: u64) -> Self {
        assert!(config.sigma >= 0.0, "sigma must be non-negative");
        assert!(
            (0.0..=1.0).contains(&config.outlier_probability),
            "outlier probability must be in [0, 1]"
        );
        assert!(
            config.outlier_factor > 0.0 && config.outlier_factor <= 1.0,
            "outlier factor must be in (0, 1]"
        );
        assert!(
            config.min_factor > 0.0 && config.min_factor <= config.max_factor,
            "clamps must satisfy 0 < min <= max"
        );
        Self { config, seed }
    }

    /// The speed factor for `node_id`, in `[min_factor, max_factor]`.
    pub fn speed_factor(&self, node_id: usize) -> f64 {
        let mut rng = DeterministicRng::seed(
            self.seed ^ (node_id as u64).wrapping_mul(0xA24B_AED4_963E_E407),
        );
        let mut factor = if self.config.sigma == 0.0 {
            1.0
        } else {
            1.0 / rng.lognormal(0.0, self.config.sigma)
        };
        if rng.uniform() < self.config.outlier_probability {
            factor *= self.config.outlier_factor;
        }
        factor.clamp(self.config.min_factor, self.config.max_factor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn homogeneous_is_exactly_one() {
        let v = NodeVariability::new(VariabilityConfig::homogeneous(), 1);
        for node in 0..20 {
            assert_eq!(v.speed_factor(node), 1.0);
        }
    }

    #[test]
    fn deterministic_per_node() {
        let a = NodeVariability::new(VariabilityConfig::das5(), 7);
        let b = NodeVariability::new(VariabilityConfig::das5(), 7);
        for node in 0..50 {
            assert_eq!(
                a.speed_factor(node).to_bits(),
                b.speed_factor(node).to_bits()
            );
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = NodeVariability::new(VariabilityConfig::das5(), 1);
        let b = NodeVariability::new(VariabilityConfig::das5(), 2);
        let differs = (0..20).any(|n| a.speed_factor(n) != b.speed_factor(n));
        assert!(differs);
    }

    #[test]
    fn factors_respect_clamps() {
        let cfg = VariabilityConfig::das5();
        let v = NodeVariability::new(cfg, 99);
        for node in 0..500 {
            let f = v.speed_factor(node);
            assert!(f >= cfg.min_factor && f <= cfg.max_factor, "factor {f}");
        }
    }

    #[test]
    fn das5_produces_slow_outliers() {
        let v = NodeVariability::new(VariabilityConfig::das5(), 42);
        let slow = (0..500)
            .map(|n| v.speed_factor(n))
            .filter(|&f| f < 0.7)
            .count();
        assert!(slow > 5, "expected some outliers, got {slow}");
        assert!(slow < 120, "too many outliers: {slow}");
    }

    #[test]
    fn das5_mass_near_one() {
        let v = NodeVariability::new(VariabilityConfig::das5(), 42);
        let near = (0..500)
            .map(|n| v.speed_factor(n))
            .filter(|&f| (0.85..=1.15).contains(&f))
            .count();
        assert!(near > 300, "most nodes should be near 1.0, got {near}");
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn invalid_probability_rejected() {
        let mut cfg = VariabilityConfig::das5();
        cfg.outlier_probability = 1.5;
        let _ = NodeVariability::new(cfg, 0);
    }
}
