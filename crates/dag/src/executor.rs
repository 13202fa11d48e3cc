//! Per-node executor state: the managed element of the MAPE-K loop.

use sae_core::{AdaptiveController, TunablePool};

/// A bounded task-slot pool: the simulated analogue of the executor's
/// `ThreadPoolExecutor`. Implements [`TunablePool`] so the controller (and
/// tests) can resize it through the same trait as the real pool in
/// `sae-pool`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct SlotPool {
    max_size: usize,
    running: usize,
}

impl SlotPool {
    /// Creates a pool with the given maximum.
    ///
    /// # Panics
    ///
    /// Panics if `max_size` is zero.
    pub(crate) fn new(max_size: usize) -> Self {
        assert!(max_size > 0, "pool size must be positive");
        Self {
            max_size,
            running: 0,
        }
    }

    /// Reserves a slot for a task.
    pub(crate) fn task_started(&mut self) {
        self.running += 1;
    }

    /// Releases a slot.
    ///
    /// # Panics
    ///
    /// Panics if no task is running.
    pub(crate) fn task_finished(&mut self) {
        assert!(self.running > 0, "no running task to finish");
        self.running -= 1;
    }
}

impl TunablePool for SlotPool {
    fn max_pool_size(&self) -> usize {
        self.max_size
    }

    fn set_max_pool_size(&mut self, size: usize) {
        assert!(size > 0, "pool size must be positive");
        self.max_size = size;
    }
}

/// Cumulative per-stage I/O statistics of one executor — the raw sensor
/// data the paper's monitor collects via `strace` (epoll wait) and the
/// Spark metrics system (task throughput).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub(crate) struct ExecutorStats {
    /// Seconds tasks spent blocked in I/O phases since stage start.
    pub epoll_wait: f64,
    /// MB of task I/O (reads + writes + shuffle transfers) since stage
    /// start.
    pub io_bytes: f64,
    /// Tasks completed since stage start.
    pub tasks_finished: usize,
}

/// The full per-executor runtime state.
#[derive(Debug)]
pub(crate) struct ExecutorState {
    /// The managed slot pool.
    pub pool: SlotPool,
    /// Per-stage sensor counters.
    pub stats: ExecutorStats,
    /// The MAPE-K controller, present under the adaptive policy.
    pub controller: Option<AdaptiveController>,
}

impl ExecutorState {
    pub(crate) fn new(initial_threads: usize, controller: Option<AdaptiveController>) -> Self {
        Self {
            pool: SlotPool::new(initial_threads),
            stats: ExecutorStats::default(),
            controller,
        }
    }

    /// Resets the per-stage counters at a stage boundary.
    pub(crate) fn begin_stage(&mut self) {
        self.stats = ExecutorStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tunable_pool_trait_roundtrip() {
        let mut p = SlotPool::new(32);
        assert_eq!(p.max_pool_size(), 32);
        p.set_max_pool_size(8);
        assert_eq!(p.max_pool_size(), 8);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_pool_rejected() {
        let _ = SlotPool::new(0);
    }

    #[test]
    #[should_panic(expected = "no running task")]
    fn underflow_rejected() {
        let mut p = SlotPool::new(1);
        p.task_finished();
    }

    #[test]
    fn begin_stage_resets_stats() {
        let mut e = ExecutorState::new(4, None);
        e.stats.epoll_wait = 5.0;
        e.stats.tasks_finished = 3;
        e.begin_stage();
        assert_eq!(e.stats, ExecutorStats::default());
    }
}
