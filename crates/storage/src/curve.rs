//! Parametric concurrency-efficiency curves.

/// How a device's aggregate efficiency responds to concurrent streams.
///
/// Efficiency is a dimensionless factor in `(0, 1]` multiplied onto the
/// device's peak bandwidth. It is the product of two effects:
///
/// * **Ramp-up** — a single stream may not saturate the device (e.g. an SSD
///   needs queue depth): `ramp(n) = a + (1 - a) · (1 - exp(-(n-1)/τ))`
///   where `a` is the single-stream fraction and `τ` the ramp constant.
/// * **Thrash** — beyond `free_streams` concurrent streams the device pays
///   a super-linear penalty (HDD head movement, SSD write amplification):
///   `thrash(n) = 1 / (1 + α · max(0, n - free_streams)^β)`.
///
/// # Examples
///
/// ```
/// use sae_storage::ContentionCurve;
///
/// let hdd_read = ContentionCurve::new(0.95, 2.0, 4.0, 0.02, 1.3);
/// assert!(hdd_read.efficiency(4) > hdd_read.efficiency(32));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ContentionCurve {
    single_stream_fraction: f64,
    ramp_tau: f64,
    free_streams: f64,
    thrash_alpha: f64,
    thrash_beta: f64,
    floor: f64,
}

impl ContentionCurve {
    /// Creates a curve from its five parameters.
    ///
    /// # Panics
    ///
    /// Panics if `single_stream_fraction` is outside `(0, 1]`, `ramp_tau`
    /// is not positive, `free_streams` is negative, or the thrash
    /// parameters are negative.
    pub fn new(
        single_stream_fraction: f64,
        ramp_tau: f64,
        free_streams: f64,
        thrash_alpha: f64,
        thrash_beta: f64,
    ) -> Self {
        assert!(
            single_stream_fraction > 0.0 && single_stream_fraction <= 1.0,
            "single-stream fraction must be in (0, 1]"
        );
        assert!(ramp_tau > 0.0, "ramp tau must be positive");
        assert!(free_streams >= 0.0, "free streams must be non-negative");
        assert!(thrash_alpha >= 0.0, "thrash alpha must be non-negative");
        assert!(thrash_beta >= 0.0, "thrash beta must be non-negative");
        Self {
            single_stream_fraction,
            ramp_tau,
            free_streams,
            thrash_alpha,
            thrash_beta,
            floor: f64::MIN_POSITIVE,
        }
    }

    /// Sets a lower bound on efficiency: even a fully thrashing device
    /// retains some useful throughput (elevator scheduling merges whatever
    /// adjacency remains).
    ///
    /// # Panics
    ///
    /// Panics if `floor` is outside `(0, 1]`.
    pub(crate) fn with_floor(mut self, floor: f64) -> Self {
        assert!(floor > 0.0 && floor <= 1.0, "floor must be in (0, 1]");
        self.floor = floor;
        self
    }

    /// Efficiency factor for `n` concurrent streams (0 streams → 1.0 by
    /// convention; the device is simply idle).
    pub fn efficiency(&self, n: usize) -> f64 {
        if n == 0 {
            return 1.0;
        }
        let n = n as f64;
        let ramp = self.single_stream_fraction
            + (1.0 - self.single_stream_fraction) * (1.0 - (-(n - 1.0) / self.ramp_tau).exp());
        let over = (n - self.free_streams).max(0.0);
        let thrash = 1.0 / (1.0 + self.thrash_alpha * over.powf(self.thrash_beta));
        (ramp * thrash).clamp(self.floor, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_curve_is_one_everywhere() {
        let c = ContentionCurve::new(1.0, 1.0, 0.0, 0.0, 1.0);
        for n in [0, 1, 4, 32, 500] {
            assert_eq!(c.efficiency(n), 1.0);
        }
    }

    #[test]
    fn ramp_up_increases_with_streams_before_thrash() {
        // SSD-like: single stream only achieves 40%.
        let c = ContentionCurve::new(0.4, 4.0, 64.0, 0.0, 1.0);
        assert!(c.efficiency(1) < c.efficiency(4));
        assert!(c.efficiency(4) < c.efficiency(16));
    }

    #[test]
    fn thrash_decays_past_free_streams() {
        let c = ContentionCurve::new(1.0, 1.0, 4.0, 0.02, 1.3);
        assert_eq!(c.efficiency(4), 1.0);
        assert!(c.efficiency(8) < 1.0);
        assert!(c.efficiency(16) < c.efficiency(8));
        assert!(c.efficiency(128) < c.efficiency(32));
    }

    #[test]
    fn efficiency_bounded() {
        let c = ContentionCurve::new(0.5, 2.0, 2.0, 0.1, 2.0);
        for n in 0..600 {
            let e = c.efficiency(n);
            assert!(e > 0.0 && e <= 1.0, "eff({n}) = {e}");
        }
    }

    #[test]
    fn zero_streams_is_idle_convention() {
        let c = ContentionCurve::new(0.9, 2.0, 4.0, 0.05, 1.5);
        assert_eq!(c.efficiency(0), 1.0);
    }

    #[test]
    #[should_panic(expected = "fraction")]
    fn invalid_fraction_rejected() {
        let _ = ContentionCurve::new(0.0, 1.0, 1.0, 0.0, 1.0);
    }
}
