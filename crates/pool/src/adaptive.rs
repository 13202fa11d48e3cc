//! A self-adaptive wrapper: the MAPE-K controller driving a real pool.

use std::sync::Arc;

use parking_lot::Mutex;
use sae_core::{AdaptiveController, DecisionJournal, MapeConfig, TunablePool};

use crate::dynamic::DynamicThreadPool;

/// A probe returning the cumulative `(epoll_wait_seconds, io_megabytes)`
/// observed since the current stage began.
///
/// In production this reads `/proc/<pid>/io` and aggregates socket wait
/// times; tests and examples supply synthetic probes.
pub(crate) type IoProbe = Arc<dyn Fn() -> (f64, f64) + Send + Sync>;

/// A [`DynamicThreadPool`] managed by the paper's MAPE-K controller.
///
/// Tasks submitted through the adaptive pool report their completion to
/// the monitor; whenever the analyzer decides on a new thread count, the
/// pool is resized in place — the drop-in-replacement behaviour of the
/// paper's executor, on real threads.
///
/// # Examples
///
/// ```
/// use sae_core::MapeConfig;
/// use sae_pool::AdaptivePool;
/// use std::sync::atomic::{AtomicU64, Ordering};
/// use std::sync::Arc;
///
/// let io = Arc::new(AtomicU64::new(0));
/// let probe_io = Arc::clone(&io);
/// let pool = AdaptivePool::new(MapeConfig::new(2, 8), Arc::new(move || {
///     let mb = probe_io.load(Ordering::Relaxed) as f64;
///     (mb * 0.001, mb) // 1 ms of wait per MB: light I/O
/// }));
/// pool.stage_started(Some(100));
/// for _ in 0..40 {
///     let io = Arc::clone(&io);
///     pool.submit(move || {
///         io.fetch_add(10, Ordering::Relaxed);
///     });
/// }
/// pool.shutdown();
/// assert!(pool.current_threads() >= 2 && pool.current_threads() <= 8);
/// ```
#[derive(Clone)]
pub struct AdaptivePool {
    pool: DynamicThreadPool,
    controller: Arc<Mutex<AdaptiveController>>,
    probe: IoProbe,
    epoch: std::time::Instant,
    /// Observer of effective pool-size changes — the live runtime's hook
    /// for emitting `PoolSizeChanged` protocol messages (§5.4).
    on_resize: Arc<Mutex<Option<ResizeHook>>>,
}

type ResizeHook = Box<dyn Fn(usize) + Send + Sync>;

impl std::fmt::Debug for AdaptivePool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AdaptivePool")
            .field("pool", &self.pool)
            .field("current_threads", &self.current_threads())
            .finish()
    }
}

impl AdaptivePool {
    /// Creates an adaptive pool; the worker count starts at the
    /// controller's default (`c_max`) until a stage begins.
    pub fn new(config: MapeConfig, probe: IoProbe) -> Self {
        Self::new_at(config, probe, std::time::Instant::now())
    }

    /// Like [`AdaptivePool::new`] with an explicit time epoch.
    ///
    /// Decision-journal timestamps are seconds since `epoch`; sharing one
    /// epoch across a whole live cluster (driver + executors) is what
    /// keeps the merged flight-recorder timeline clock-aligned.
    pub fn new_at(config: MapeConfig, probe: IoProbe, epoch: std::time::Instant) -> Self {
        Self {
            pool: DynamicThreadPool::new(config.c_max),
            controller: Arc::new(Mutex::new(AdaptiveController::new(config))),
            probe,
            epoch,
            on_resize: Arc::new(Mutex::new(None)),
        }
    }

    /// Tags the controller's journal records with an executor id.
    pub fn set_executor(&self, executor: usize) {
        let mut ctl = self.controller.lock();
        *ctl = ctl.clone().with_executor(executor);
    }

    /// The controller's decision journal (a shared handle: clone it and
    /// read records from anywhere).
    pub fn journal(&self) -> DecisionJournal {
        self.controller.lock().journal().clone()
    }

    /// Funnels the controller's records into `journal` — the hook a
    /// cluster uses to collect every executor's journal through handles it
    /// created up front. Call before the first stage starts.
    pub fn set_journal(&self, journal: DecisionJournal) {
        self.controller.lock().set_journal(journal);
    }

    /// Installs an observer called with the new size whenever the pool's
    /// maximum changes — at stage starts and on controller decisions.
    ///
    /// The hook runs on whichever thread effected the change (the caller
    /// of [`AdaptivePool::stage_started`], or a pool worker completing the
    /// task that closed a monitoring interval), so it must be cheap and
    /// must not call back into the pool.
    pub fn set_resize_hook(&self, hook: impl Fn(usize) + Send + Sync + 'static) {
        *self.on_resize.lock() = Some(Box::new(hook));
    }

    fn notify_resize(on_resize: &Mutex<Option<ResizeHook>>, size: usize) {
        if let Some(hook) = on_resize.lock().as_ref() {
            hook(size);
        }
    }

    /// Signals a stage boundary; the pool resets to the exploration start.
    pub fn stage_started(&self, task_hint: Option<usize>) {
        let now = self.epoch.elapsed().as_secs_f64();
        let threads = self.controller.lock().stage_started(now, task_hint);
        let previous = self.pool.max_pool_size();
        let mut pool = self.pool.clone();
        pool.set_max_pool_size(threads);
        if threads != previous {
            Self::notify_resize(&self.on_resize, threads);
        }
    }

    /// Submits a task; its completion feeds the MAPE-K monitor.
    pub fn submit(&self, job: impl FnOnce() + Send + 'static) {
        let controller = Arc::clone(&self.controller);
        let probe = Arc::clone(&self.probe);
        let pool = self.pool.clone();
        let epoch = self.epoch;
        let on_resize = Arc::clone(&self.on_resize);
        self.pool.submit(move || {
            job();
            let (epoll, bytes) = probe();
            let now = epoch.elapsed().as_secs_f64();
            let decision = controller.lock().task_finished(now, epoll, bytes);
            if let Some(threads) = decision {
                let mut pool = pool.clone();
                pool.set_max_pool_size(threads);
                Self::notify_resize(&on_resize, threads);
            }
        });
    }

    /// Declares the current monitoring interval poisoned by a detected
    /// fault (a local task failure, a lost executor whose work is being
    /// redistributed): the controller discards the interval's measurements,
    /// journals a `Poisoned` record carrying `reason`, and restarts the
    /// interval from the probe's current reading at the same thread count.
    pub fn interval_poisoned(&self, reason: &str) {
        let (epoll, bytes) = (self.probe)();
        let now = self.epoch.elapsed().as_secs_f64();
        self.controller.lock().interval_poisoned(
            now,
            sae_core::ProbeSnapshot::basic(epoll, bytes),
            reason,
        );
    }

    /// The thread count currently in effect.
    pub fn current_threads(&self) -> usize {
        self.pool.max_pool_size()
    }

    /// Whether the controller settled for the current stage.
    pub fn settled(&self) -> bool {
        self.controller.lock().settled()
    }

    /// Number of monitoring intervals completed in the current stage.
    pub fn intervals_observed(&self) -> usize {
        self.controller.lock().history().len()
    }

    /// Drains and joins the underlying pool, then closes the controller's
    /// adaptation episode so the decision journal ends with a terminal
    /// record even when the last stage never settled.
    pub fn shutdown(&self) {
        self.pool.shutdown();
        let now = self.epoch.elapsed().as_secs_f64();
        self.controller.lock().finalize_stage(now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::time::Duration;

    /// An I/O-heavy synthetic workload whose epoll wait grows superlinearly
    /// with the live thread count: the controller should settle below max.
    #[test]
    fn contended_workload_settles_below_max() {
        let state = Arc::new(AtomicU64::new(0));
        let probe_state = Arc::clone(&state);
        let pool = AdaptivePool::new(MapeConfig::new(2, 16), {
            Arc::new(move || {
                let v = probe_state.load(Ordering::Relaxed) as f64;
                // (epoll seconds, MB): heavy wait relative to bytes.
                (v * 0.05, v * 1.0)
            })
        });
        let busy = Arc::new(AtomicU64::new(0));
        pool.stage_started(Some(1000));
        for _ in 0..300 {
            let state = Arc::clone(&state);
            let busy = Arc::clone(&busy);
            let threads = pool.current_threads() as u64;
            pool.submit(move || {
                // More live threads -> superlinearly more "wait".
                busy.fetch_add(1, Ordering::Relaxed);
                state.fetch_add(1 + threads * threads / 8, Ordering::Relaxed);
                std::thread::sleep(Duration::from_micros(200));
                busy.fetch_sub(1, Ordering::Relaxed);
            });
        }
        pool.shutdown();
        assert!(pool.intervals_observed() > 0 || pool.settled());
        let threads = pool.current_threads();
        assert!((2..=16).contains(&threads));
    }

    #[test]
    fn stage_boundary_resets_to_c_min() {
        let pool = AdaptivePool::new(MapeConfig::new(2, 8), Arc::new(|| (0.0, 0.0)));
        assert_eq!(pool.current_threads(), 8);
        pool.stage_started(Some(100));
        assert_eq!(pool.current_threads(), 2);
        pool.shutdown();
    }

    #[test]
    fn short_stage_skips_adaptation() {
        let pool = AdaptivePool::new(MapeConfig::new(2, 8), Arc::new(|| (0.0, 0.0)));
        pool.stage_started(Some(2));
        assert_eq!(pool.current_threads(), 8);
        assert!(pool.settled());
        pool.shutdown();
    }

    #[test]
    fn resize_hook_sees_stage_start_and_decisions() {
        use std::sync::Mutex as StdMutex;

        let pool = AdaptivePool::new(MapeConfig::new(2, 8), Arc::new(|| (0.0, 0.0)));
        let seen: Arc<StdMutex<Vec<usize>>> = Arc::new(StdMutex::new(Vec::new()));
        let sink = Arc::clone(&seen);
        pool.set_resize_hook(move |size| sink.lock().unwrap().push(size));
        // c_max -> c_min at the stage boundary fires the hook...
        pool.stage_started(Some(500));
        assert_eq!(*seen.lock().unwrap(), vec![2]);
        // ...and the CPU-bound jump to c_max fires it from a worker.
        for _ in 0..50 {
            pool.submit(|| {
                std::hint::black_box(1 + 1);
            });
        }
        pool.shutdown();
        let seen = seen.lock().unwrap();
        assert_eq!(seen.first(), Some(&2));
        assert!(seen.contains(&8), "decision not observed: {seen:?}");
    }

    #[test]
    fn journal_ends_terminal_after_shutdown() {
        let pool = AdaptivePool::new(MapeConfig::new(2, 8), Arc::new(|| (0.0, 0.0)));
        pool.set_executor(5);
        pool.stage_started(Some(500));
        // Shut down mid-climb: no task ever completes an interval.
        pool.shutdown();
        let records = pool.journal().records();
        assert!(!records.is_empty());
        let last = records.last().unwrap();
        assert!(last.action.is_terminal(), "open journal: {records:?}");
        assert_eq!(last.executor, 5);
    }

    #[test]
    fn cpu_bound_workload_reaches_max() {
        // Zero I/O: the controller should end at c_max.
        let pool = AdaptivePool::new(MapeConfig::new(2, 8), Arc::new(|| (0.0, 0.0)));
        pool.stage_started(Some(500));
        for _ in 0..100 {
            pool.submit(|| {
                std::hint::black_box(1 + 1);
            });
        }
        pool.shutdown();
        assert_eq!(pool.current_threads(), 8);
    }
}
