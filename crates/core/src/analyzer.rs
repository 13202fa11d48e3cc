//! The [A]nalyzer of the MAPE-K loop: hill climbing on `ζ` (§5.2).

use crate::monitor::IntervalReport;

/// Which way the hill climb traverses the thread-count space.
///
/// The paper ascends from `c_min` and argues against descending (§5.2):
/// halving from the top strands already-assigned tasks in queues, and when
/// the maximum is bad, starting there "can significantly affect the
/// runtime". Both directions are implemented so the claim is testable —
/// see `benches/ablations.rs`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ClimbDirection {
    /// Start at `c_min` and double while improving (the paper's choice).
    #[default]
    Ascend,
    /// Start at `c_max` and halve while improving.
    Descend,
}

/// The sensed quantity the analyzer optimises.
///
/// The paper picks the congestion index over average disk utilisation for
/// two reasons (§5.2): utilisation saturates ("all core numbers achieve
/// 91.13 % disk utilization or higher ... difficult to find out which
/// configuration has indeed performed better") and it says nothing about
/// network I/O. Both signals are implemented so the comparison is
/// measurable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CongestionSignal {
    /// Minimise `ζ = ε / µ` (the paper's choice).
    #[default]
    ZetaIndex,
    /// Maximise average disk utilisation.
    DiskUtilization,
}

impl CongestionSignal {
    /// Converts an interval report into a lower-is-better score.
    pub(crate) fn score(self, report: &IntervalReport) -> f64 {
        match self {
            CongestionSignal::ZetaIndex => report.zeta,
            CongestionSignal::DiskUtilization => 1.0 - report.disk_util,
        }
    }
}

/// The analyzer's verdict after an interval completes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Analysis {
    /// The new setting improved (or is the first sample): try `next`
    /// threads, continue exploring.
    Ascend {
        /// Thread count for the next interval.
        next: usize,
    },
    /// The new setting performed worse: roll back to `to` threads and stop
    /// adjusting for the remainder of the stage.
    Rollback {
        /// Thread count to return to.
        to: usize,
    },
    /// Reached the traversal boundary (`c_max` when ascending, `c_min`
    /// when descending) while still improving: stay there and stop
    /// adjusting.
    SettleAtMax,
}

/// Hill-climbing over thread counts, ascending from `c_min` by doubling.
///
/// The paper ascends rather than descends for two reasons (§5.2): halving
/// from the top strands already-assigned tasks in queues, and a bad maximal
/// setting is much more expensive to sit in than a bad minimal one. The
/// climb compares each interval's congestion index `ζ_j` against the
/// previous interval's `ζ_{j/2}` and rolls back on regression.
///
/// # Examples
///
/// ```
/// use sae_core::{Analysis, HillClimbAnalyzer, IntervalReport};
///
/// let mut analyzer = HillClimbAnalyzer::new(2, 32);
/// let report = |threads: usize, zeta: f64| IntervalReport {
///     threads, epoll_wait: zeta, bytes: 100.0, duration: 1.0,
///     throughput: 100.0, zeta, disk_util: 0.9,
/// };
/// assert_eq!(analyzer.analyze(&report(2, 0.10)), Analysis::Ascend { next: 4 });
/// assert_eq!(analyzer.analyze(&report(4, 0.05)), Analysis::Ascend { next: 8 });
/// // 8 threads congests more than 4 did: roll back and hold.
/// assert_eq!(analyzer.analyze(&report(8, 0.20)), Analysis::Rollback { to: 4 });
/// ```
#[derive(Debug, Clone)]
pub struct HillClimbAnalyzer {
    c_min: usize,
    c_max: usize,
    tolerance: f64,
    direction: ClimbDirection,
    signal: CongestionSignal,
    previous: Option<(usize, f64)>,
    settled: bool,
}

impl HillClimbAnalyzer {
    /// Creates an analyzer exploring `[c_min, c_max]` with strict
    /// comparisons (zero tolerance).
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= c_min <= c_max`.
    pub fn new(c_min: usize, c_max: usize) -> Self {
        assert!(
            c_min >= 1 && c_min <= c_max,
            "need 1 <= c_min <= c_max, got [{c_min}, {c_max}]"
        );
        Self {
            c_min,
            c_max,
            tolerance: 0.0,
            direction: ClimbDirection::Ascend,
            signal: CongestionSignal::ZetaIndex,
            previous: None,
            settled: false,
        }
    }

    /// Sets the climb direction (default: ascend, the paper's choice).
    pub(crate) fn with_direction(mut self, direction: ClimbDirection) -> Self {
        self.direction = direction;
        self
    }

    /// Sets the optimised signal (default: the congestion index ζ).
    pub(crate) fn with_signal(mut self, signal: CongestionSignal) -> Self {
        self.signal = signal;
        self
    }

    /// The thread count exploration starts from under this direction.
    pub(crate) fn start_point(&self) -> usize {
        match self.direction {
            ClimbDirection::Ascend => self.c_min,
            ClimbDirection::Descend => self.c_max,
        }
    }

    /// The next candidate after an improvement at `threads`, or `None` at
    /// the boundary (terminal).
    fn next_candidate(&self, threads: usize) -> Option<usize> {
        match self.direction {
            ClimbDirection::Ascend => (threads < self.c_max).then(|| (threads * 2).min(self.c_max)),
            ClimbDirection::Descend => {
                (threads > self.c_min).then(|| (threads / 2).max(self.c_min))
            }
        }
    }

    /// Sets the regression tolerance: an interval only counts as *worse*
    /// when `ζ_j > ζ_{j/2} · (1 + tolerance)`.
    ///
    /// A flat congestion index means the extra threads did not hurt I/O —
    /// on CPU-bound stages ζ barely moves with the pool size, and rolling
    /// back on measurement noise would strand such stages at `c_min`.
    ///
    /// # Panics
    ///
    /// Panics if `tolerance` is negative or NaN.
    pub(crate) fn with_tolerance(mut self, tolerance: f64) -> Self {
        assert!(
            tolerance >= 0.0,
            "tolerance must be non-negative, got {tolerance}"
        );
        self.tolerance = tolerance;
        self
    }

    /// Whether the climb has terminated for this stage.
    pub fn settled(&self) -> bool {
        self.settled
    }

    /// The `(threads, score)` pair the next interval will be compared
    /// against, if any interval has been accepted this stage. Exposed so
    /// the controller can phrase its decision rationale in terms of the
    /// actual comparison.
    pub(crate) fn previous(&self) -> Option<(usize, f64)> {
        self.previous
    }

    /// Resets the climb for a new stage.
    pub(crate) fn reset(&mut self) {
        self.previous = None;
        self.settled = false;
    }

    /// Analyzes a completed interval, comparing the configured signal's
    /// score against the previous interval and deciding the next move.
    ///
    /// # Panics
    ///
    /// Panics if called after the analyzer settled (callers must stop
    /// monitoring on `Rollback`/`SettleAtMax`), or if the report's thread
    /// count is outside `[c_min, c_max]`.
    pub fn analyze(&mut self, report: &IntervalReport) -> Analysis {
        assert!(!self.settled, "analyzer already settled for this stage");
        assert!(
            report.threads >= self.c_min && report.threads <= self.c_max,
            "interval thread count {} outside [{}, {}]",
            report.threads,
            self.c_min,
            self.c_max
        );
        let score = self.signal.score(report);
        let improved = match self.previous {
            None => true,
            Some((_, prev_score)) => score <= prev_score * (1.0 + self.tolerance),
        };
        if !improved {
            let (prev_threads, _) = self.previous.expect("regression implies a previous");
            self.settled = true;
            return Analysis::Rollback { to: prev_threads };
        }
        match self.next_candidate(report.threads) {
            Some(next) => {
                self.previous = Some((report.threads, score));
                Analysis::Ascend { next }
            }
            None => {
                self.settled = true;
                Analysis::SettleAtMax
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(threads: usize, zeta: f64) -> IntervalReport {
        IntervalReport {
            threads,
            epoll_wait: zeta,
            bytes: 100.0,
            duration: 1.0,
            throughput: 100.0,
            zeta,
            disk_util: 0.5,
        }
    }

    #[test]
    fn descend_halves_from_c_max_and_rolls_back_upward() {
        let mut a = HillClimbAnalyzer::new(2, 32).with_direction(ClimbDirection::Descend);
        assert_eq!(a.start_point(), 32);
        assert_eq!(a.analyze(&report(32, 0.9)), Analysis::Ascend { next: 16 });
        assert_eq!(a.analyze(&report(16, 0.5)), Analysis::Ascend { next: 8 });
        // 8 is worse than 16: roll back up and settle.
        assert_eq!(a.analyze(&report(8, 0.8)), Analysis::Rollback { to: 16 });
        assert!(a.settled());
    }

    #[test]
    fn descend_settles_at_c_min_when_always_improving() {
        let mut a = HillClimbAnalyzer::new(2, 8).with_direction(ClimbDirection::Descend);
        assert_eq!(a.analyze(&report(8, 0.9)), Analysis::Ascend { next: 4 });
        assert_eq!(a.analyze(&report(4, 0.5)), Analysis::Ascend { next: 2 });
        assert_eq!(a.analyze(&report(2, 0.1)), Analysis::SettleAtMax);
        assert!(a.settled());
    }

    #[test]
    fn disk_util_signal_maximises_utilisation() {
        let mut a = HillClimbAnalyzer::new(2, 32).with_signal(CongestionSignal::DiskUtilization);
        let with_util = |threads: usize, util: f64| IntervalReport {
            disk_util: util,
            ..report(threads, 1.0)
        };
        // Rising utilisation: keep climbing.
        assert_eq!(a.analyze(&with_util(2, 0.60)), Analysis::Ascend { next: 4 });
        assert_eq!(a.analyze(&with_util(4, 0.90)), Analysis::Ascend { next: 8 });
        // Utilisation drops: roll back.
        assert_eq!(a.analyze(&with_util(8, 0.70)), Analysis::Rollback { to: 4 });
    }

    #[test]
    fn first_interval_always_ascends() {
        let mut a = HillClimbAnalyzer::new(2, 32);
        assert_eq!(a.analyze(&report(2, 99.0)), Analysis::Ascend { next: 4 });
    }

    #[test]
    fn climbs_while_improving_then_rolls_back() {
        let mut a = HillClimbAnalyzer::new(2, 32);
        assert_eq!(a.analyze(&report(2, 0.5)), Analysis::Ascend { next: 4 });
        assert_eq!(a.analyze(&report(4, 0.3)), Analysis::Ascend { next: 8 });
        assert_eq!(a.analyze(&report(8, 0.4)), Analysis::Rollback { to: 4 });
        assert!(a.settled());
    }

    #[test]
    fn monotone_improvement_settles_at_max() {
        let mut a = HillClimbAnalyzer::new(2, 8);
        assert_eq!(a.analyze(&report(2, 0.9)), Analysis::Ascend { next: 4 });
        assert_eq!(a.analyze(&report(4, 0.5)), Analysis::Ascend { next: 8 });
        assert_eq!(a.analyze(&report(8, 0.1)), Analysis::SettleAtMax);
        assert!(a.settled());
    }

    #[test]
    fn doubling_clamps_to_c_max() {
        let mut a = HillClimbAnalyzer::new(2, 6);
        assert_eq!(a.analyze(&report(2, 0.5)), Analysis::Ascend { next: 4 });
        assert_eq!(a.analyze(&report(4, 0.3)), Analysis::Ascend { next: 6 });
    }

    #[test]
    fn equal_zeta_keeps_climbing() {
        // The paper rolls back on *lower* performance; a tie means the
        // extra threads did not hurt I/O, so the climb continues.
        let mut a = HillClimbAnalyzer::new(2, 32);
        a.analyze(&report(2, 0.5));
        assert_eq!(a.analyze(&report(4, 0.5)), Analysis::Ascend { next: 8 });
    }

    #[test]
    fn zero_congestion_climbs_to_max() {
        // CPU-bound stage: ζ stays ~0 everywhere, so the climb runs to the
        // top and settles there.
        let mut a = HillClimbAnalyzer::new(2, 8);
        assert_eq!(a.analyze(&report(2, 0.0)), Analysis::Ascend { next: 4 });
        assert_eq!(a.analyze(&report(4, 0.0)), Analysis::Ascend { next: 8 });
        assert_eq!(a.analyze(&report(8, 0.0)), Analysis::SettleAtMax);
    }

    #[test]
    fn tolerance_absorbs_small_regressions() {
        let mut a = HillClimbAnalyzer::new(2, 32).with_tolerance(0.10);
        a.analyze(&report(2, 1.00));
        // +8% is within the 10% band: keep climbing.
        assert_eq!(a.analyze(&report(4, 1.08)), Analysis::Ascend { next: 8 });
        // +30% is a real regression: roll back.
        assert_eq!(a.analyze(&report(8, 1.40)), Analysis::Rollback { to: 4 });
    }

    #[test]
    fn reset_allows_new_stage() {
        let mut a = HillClimbAnalyzer::new(2, 32);
        a.analyze(&report(2, 0.5));
        a.analyze(&report(4, 0.9));
        assert!(a.settled());
        a.reset();
        assert!(!a.settled());
        assert_eq!(a.analyze(&report(2, 0.5)), Analysis::Ascend { next: 4 });
    }

    #[test]
    #[should_panic(expected = "settled")]
    fn analyzing_after_settle_panics() {
        let mut a = HillClimbAnalyzer::new(2, 4);
        a.analyze(&report(2, 0.5));
        a.analyze(&report(4, 0.9));
        a.analyze(&report(2, 0.1));
    }

    #[test]
    #[should_panic(expected = "c_min")]
    fn invalid_bounds_rejected() {
        let _ = HillClimbAnalyzer::new(8, 4);
    }
}
