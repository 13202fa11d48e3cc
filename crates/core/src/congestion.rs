//! The congestion index `ζ = ε / µ` (Equation 1 of the paper).

/// Raw measurements for one monitoring interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IntervalMeasurement {
    /// Accumulated epoll-wait time `ε` in seconds: time threads spent
    /// blocked waiting for I/O readiness (disk or network).
    pub epoll_wait: f64,
    /// Bytes moved during the interval, in MB (disk + shuffle traffic).
    pub bytes: f64,
    /// Interval length in seconds.
    pub duration: f64,
}

impl IntervalMeasurement {
    /// I/O throughput `µ` over the interval in MB/s.
    ///
    /// Returns `0.0` for a zero-length interval.
    pub(crate) fn throughput(&self) -> f64 {
        if self.duration <= 0.0 {
            0.0
        } else {
            self.bytes / self.duration
        }
    }
}

/// Computes the congestion index `ζ = ε / µ`.
///
/// Two boundary conventions, chosen so the hill climber behaves sensibly
/// on non-I/O stages (limitation L3 of the static solution):
///
/// * No I/O at all (`µ ≈ 0`): the index is `0.0` — there is no congestion
///   evidence, so the analyzer keeps ascending toward the CPU-friendly
///   maximum.
/// * Negative inputs are rejected.
///
/// # Examples
///
/// ```
/// use sae_core::{congestion_index, IntervalMeasurement};
///
/// let m = IntervalMeasurement { epoll_wait: 30.0, bytes: 1500.0, duration: 10.0 };
/// // µ = 150 MB/s, ζ = 30 / 150 = 0.2
/// assert!((congestion_index(&m) - 0.2).abs() < 1e-12);
/// ```
///
/// # Panics
///
/// Panics if any measurement is negative or NaN.
pub fn congestion_index(m: &IntervalMeasurement) -> f64 {
    assert!(
        m.epoll_wait >= 0.0 && m.bytes >= 0.0 && m.duration >= 0.0,
        "measurements must be non-negative: {m:?}"
    );
    const MIN_THROUGHPUT: f64 = 1e-6; // MB/s; below this the stage did no I/O
    let mu = m.throughput();
    if mu < MIN_THROUGHPUT {
        0.0
    } else {
        m.epoll_wait / mu
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(epoll: f64, bytes: f64, dur: f64) -> IntervalMeasurement {
        IntervalMeasurement {
            epoll_wait: epoll,
            bytes,
            duration: dur,
        }
    }

    #[test]
    fn matches_paper_formula() {
        let meas = m(100.0, 2000.0, 10.0); // µ = 200
        assert!((congestion_index(&meas) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn zero_io_means_zero_congestion() {
        assert_eq!(congestion_index(&m(5.0, 0.0, 10.0)), 0.0);
    }

    #[test]
    fn zero_duration_means_zero_congestion() {
        assert_eq!(congestion_index(&m(0.0, 100.0, 0.0)), 0.0);
    }

    #[test]
    fn higher_wait_same_throughput_is_worse() {
        let low = congestion_index(&m(10.0, 1000.0, 10.0));
        let high = congestion_index(&m(50.0, 1000.0, 10.0));
        assert!(high > low);
    }

    #[test]
    fn higher_throughput_same_wait_is_better() {
        let slow = congestion_index(&m(10.0, 500.0, 10.0));
        let fast = congestion_index(&m(10.0, 5000.0, 10.0));
        assert!(fast < slow);
    }

    #[test]
    fn throughput_computation() {
        assert_eq!(m(0.0, 300.0, 3.0).throughput(), 100.0);
        assert_eq!(m(0.0, 300.0, 0.0).throughput(), 0.0);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_wait_rejected() {
        let _ = congestion_index(&m(-1.0, 1.0, 1.0));
    }
}
