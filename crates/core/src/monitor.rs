//! The [M]onitor of the MAPE-K loop (§5.1).

use crate::congestion::{congestion_index, IntervalMeasurement};

/// Cumulative sensor readings since stage start, as sampled at one instant.
///
/// `epoll_wait` and `io_bytes` are the paper's two primary metrics; the
/// `disk_busy` seconds enable the alternative disk-utilisation signal the
/// paper evaluates and rejects (§5.2).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ProbeSnapshot {
    /// Seconds spent blocked on I/O since stage start.
    pub epoll_wait: f64,
    /// MB of task I/O since stage start.
    pub io_bytes: f64,
    /// Seconds the local disk was busy since stage start.
    pub disk_busy: f64,
}

impl ProbeSnapshot {
    /// A snapshot carrying only the paper's two primary counters.
    pub fn basic(epoll_wait: f64, io_bytes: f64) -> Self {
        Self {
            epoll_wait,
            io_bytes,
            disk_busy: 0.0,
        }
    }
}

/// Everything the monitor learned about one completed interval `I_j`.
///
/// These reports are the knowledge base entries; the bench harness reads
/// them back to reproduce Figure 7 (ε, µ and ζ per thread count).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IntervalReport {
    /// Thread count `j` the interval ran with.
    pub threads: usize,
    /// Accumulated epoll-wait seconds `ε_j`.
    pub epoll_wait: f64,
    /// Bytes moved in MB.
    pub bytes: f64,
    /// Interval duration in seconds.
    pub duration: f64,
    /// I/O throughput `µ_j` in MB/s.
    pub throughput: f64,
    /// Congestion index `ζ_j = ε_j / µ_j`.
    pub zeta: f64,
    /// Average disk utilisation over the interval, in `[0, 1]` (0 when the
    /// probe does not supply disk-busy seconds).
    pub disk_util: f64,
}

/// Senses the managed thread pool over intervals of `j` task completions.
///
/// The monitor consumes *cumulative* counters (a [`ProbeSnapshot`] since
/// stage start), which is how both the simulated executor and
/// `/proc`-style sources naturally report, and differences them per
/// interval. An interval `I_j` ends once `j` tasks have completed while
/// the pool size is `j` (§5.1: "the interval for 16 threads starts by
/// setting the thread pool size to 16 ... finishes as soon as they are all
/// complete").
///
/// # Examples
///
/// ```
/// use sae_core::{Monitor, ProbeSnapshot};
///
/// let mut mon = Monitor::new();
/// mon.begin_interval(2, 0.0, ProbeSnapshot::default());
/// assert!(mon.task_finished(1.0, ProbeSnapshot::basic(0.5, 100.0)).is_none());
/// let report = mon.task_finished(2.0, ProbeSnapshot::basic(1.0, 200.0)).unwrap();
/// assert_eq!(report.threads, 2);
/// assert!((report.throughput - 100.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Monitor {
    current: Option<IntervalState>,
}

#[derive(Debug, Clone)]
struct IntervalState {
    threads: usize,
    started_at: f64,
    start: ProbeSnapshot,
    tasks_done: usize,
}

impl Monitor {
    /// Creates an idle monitor.
    pub fn new() -> Self {
        Self::default()
    }

    /// Starts interval `I_threads` at time `now`, given the current
    /// cumulative counters.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero.
    pub fn begin_interval(&mut self, threads: usize, now: f64, snapshot: ProbeSnapshot) {
        assert!(threads > 0, "interval thread count must be positive");
        self.current = Some(IntervalState {
            threads,
            started_at: now,
            start: snapshot,
            tasks_done: 0,
        });
    }

    /// Records a task completion; returns the finished interval's report
    /// once `threads` tasks have completed.
    ///
    /// Returns `None` while the interval is still filling, or when no
    /// interval is active (monitoring disabled after the analyzer settles).
    pub fn task_finished(&mut self, now: f64, snapshot: ProbeSnapshot) -> Option<IntervalReport> {
        let state = self.current.as_mut()?;
        state.tasks_done += 1;
        if state.tasks_done < state.threads {
            return None;
        }
        let state = self.current.take().expect("state present");
        let duration = (now - state.started_at).max(0.0);
        let measurement = IntervalMeasurement {
            epoll_wait: (snapshot.epoll_wait - state.start.epoll_wait).max(0.0),
            bytes: (snapshot.io_bytes - state.start.io_bytes).max(0.0),
            duration,
        };
        let disk_util = if duration > 0.0 {
            ((snapshot.disk_busy - state.start.disk_busy).max(0.0) / duration).clamp(0.0, 1.0)
        } else {
            0.0
        };
        Some(IntervalReport {
            threads: state.threads,
            epoll_wait: measurement.epoll_wait,
            bytes: measurement.bytes,
            duration: measurement.duration,
            throughput: measurement.throughput(),
            zeta: congestion_index(&measurement),
            disk_util,
        })
    }

    /// Whether an interval is currently being measured.
    pub(crate) fn is_active(&self) -> bool {
        self.current.is_some()
    }

    /// Stops monitoring (e.g. after the analyzer settles for the stage).
    pub(crate) fn stop(&mut self) {
        self.current = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interval_requires_j_completions() {
        let mut mon = Monitor::new();
        mon.begin_interval(4, 0.0, ProbeSnapshot::default());
        for i in 1..4 {
            assert!(mon
                .task_finished(i as f64, ProbeSnapshot::default())
                .is_none());
        }
        assert!(mon.task_finished(4.0, ProbeSnapshot::default()).is_some());
    }

    #[test]
    fn report_differences_cumulative_counters() {
        let mut mon = Monitor::new();
        mon.begin_interval(1, 10.0, ProbeSnapshot::basic(5.0, 1000.0));
        let r = mon
            .task_finished(12.0, ProbeSnapshot::basic(6.5, 1400.0))
            .unwrap();
        assert!((r.epoll_wait - 1.5).abs() < 1e-12);
        assert!((r.bytes - 400.0).abs() < 1e-12);
        assert!((r.duration - 2.0).abs() < 1e-12);
        assert!((r.throughput - 200.0).abs() < 1e-12);
        assert!((r.zeta - 1.5 / 200.0).abs() < 1e-12);
    }

    #[test]
    fn disk_util_from_busy_seconds() {
        let mut mon = Monitor::new();
        mon.begin_interval(
            1,
            0.0,
            ProbeSnapshot {
                epoll_wait: 0.0,
                io_bytes: 0.0,
                disk_busy: 10.0,
            },
        );
        let r = mon
            .task_finished(
                4.0,
                ProbeSnapshot {
                    epoll_wait: 1.0,
                    io_bytes: 100.0,
                    disk_busy: 13.0,
                },
            )
            .unwrap();
        assert!((r.disk_util - 0.75).abs() < 1e-12);
    }

    #[test]
    fn inactive_monitor_ignores_completions() {
        let mut mon = Monitor::new();
        assert!(mon.task_finished(1.0, ProbeSnapshot::default()).is_none());
    }

    #[test]
    fn interval_consumed_after_report() {
        let mut mon = Monitor::new();
        mon.begin_interval(1, 0.0, ProbeSnapshot::default());
        assert!(mon.task_finished(1.0, ProbeSnapshot::default()).is_some());
        assert!(!mon.is_active());
        assert!(mon.task_finished(2.0, ProbeSnapshot::default()).is_none());
    }

    #[test]
    fn stop_discards_interval() {
        let mut mon = Monitor::new();
        mon.begin_interval(2, 0.0, ProbeSnapshot::default());
        mon.stop();
        assert!(mon.task_finished(1.0, ProbeSnapshot::default()).is_none());
    }

    #[test]
    fn counter_regression_clamped_to_zero() {
        // Defensive: a probe reset mid-interval must not produce negative ε.
        let mut mon = Monitor::new();
        mon.begin_interval(1, 0.0, ProbeSnapshot::basic(100.0, 100.0));
        let r = mon
            .task_finished(1.0, ProbeSnapshot::basic(50.0, 50.0))
            .unwrap();
        assert_eq!(r.epoll_wait, 0.0);
        assert_eq!(r.bytes, 0.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_thread_interval_rejected() {
        let mut mon = Monitor::new();
        mon.begin_interval(0, 0.0, ProbeSnapshot::default());
    }
}
