//! The dynamic thread pool.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::Mutex;
use sae_core::TunablePool;
use sae_metrics::{Counter, Gauge, Histogram, MetricRegistry};

type Job = Box<dyn FnOnce() + Send + 'static>;

/// Point-in-time statistics of a [`DynamicThreadPool`].
#[derive(Debug, Clone, PartialEq)]
pub struct PoolMetrics {
    /// Tasks accepted via [`DynamicThreadPool::submit`].
    pub submitted: u64,
    /// Tasks that ran to completion.
    pub completed: u64,
    /// Tasks that panicked (contained, the worker survived).
    pub panicked: u64,
    /// Panic payload messages, in completion order (`"<non-string panic>"`
    /// when the payload was not a string).
    pub panic_messages: Vec<String>,
    /// Current maximum pool size.
    pub max_size: usize,
    /// Workers currently alive (may briefly exceed `max_size` right after
    /// a shrink, until surplus workers retire).
    pub live_workers: usize,
    /// Workers currently executing a task.
    pub busy_workers: usize,
}

struct Shared {
    queue_rx: Receiver<Job>,
    max_size: AtomicUsize,
    live_workers: AtomicUsize,
    busy_workers: AtomicUsize,
    shutting_down: AtomicBool,
    submitted: Counter,
    completed: Counter,
    panicked: Counter,
    panic_messages: Mutex<Vec<String>>,
    queue_depth: Gauge,
    exec_seconds: Histogram,
}

impl Shared {
    /// Whether this worker should retire because the pool shrank.
    fn should_retire(&self) -> bool {
        loop {
            let live = self.live_workers.load(Ordering::Acquire);
            let max = self.max_size.load(Ordering::Acquire);
            if live <= max {
                return false;
            }
            if self
                .live_workers
                .compare_exchange(live, live - 1, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                return true;
            }
        }
    }
}

/// A thread pool whose maximum size can be adjusted while running.
///
/// Cloning the handle is cheap and shares the pool. Dropping the last
/// handle without calling [`DynamicThreadPool::shutdown`] detaches the
/// workers (they exit once the queue closes and drains).
///
/// See the [crate docs](crate) for an example.
#[derive(Clone)]
pub struct DynamicThreadPool {
    shared: Arc<Shared>,
    queue_tx: Sender<Job>,
    handles: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl std::fmt::Debug for DynamicThreadPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let m = self.metrics();
        f.debug_struct("DynamicThreadPool")
            .field("max_size", &m.max_size)
            .field("live_workers", &m.live_workers)
            .field("busy_workers", &m.busy_workers)
            .finish()
    }
}

impl DynamicThreadPool {
    /// Creates a pool with `max_size` workers, spawned eagerly.
    ///
    /// # Panics
    ///
    /// Panics if `max_size` is zero.
    pub fn new(max_size: usize) -> Self {
        Self::with_registry(max_size, &MetricRegistry::new())
    }

    /// Like [`DynamicThreadPool::new`], publishing metrics into `registry`
    /// under the `pool.*` namespace.
    ///
    /// # Panics
    ///
    /// Panics if `max_size` is zero.
    pub(crate) fn with_registry(max_size: usize, registry: &MetricRegistry) -> Self {
        assert!(max_size > 0, "pool size must be positive");
        let (queue_tx, queue_rx) = unbounded::<Job>();
        let shared = Arc::new(Shared {
            queue_rx,
            max_size: AtomicUsize::new(max_size),
            live_workers: AtomicUsize::new(0),
            busy_workers: AtomicUsize::new(0),
            shutting_down: AtomicBool::new(false),
            submitted: registry.counter("pool.tasks_submitted"),
            completed: registry.counter("pool.tasks_completed"),
            panicked: registry.counter("pool.tasks_panicked"),
            panic_messages: Mutex::new(Vec::new()),
            queue_depth: registry.gauge("pool.queue_depth"),
            exec_seconds: registry.histogram("pool.exec_seconds"),
        });
        let pool = Self {
            shared,
            queue_tx,
            handles: Arc::new(Mutex::new(Vec::new())),
        };
        pool.spawn_up_to_max();
        pool
    }

    fn spawn_up_to_max(&self) {
        loop {
            let live = self.shared.live_workers.load(Ordering::Acquire);
            let max = self.shared.max_size.load(Ordering::Acquire);
            if live >= max || self.shared.shutting_down.load(Ordering::Acquire) {
                return;
            }
            if self
                .shared
                .live_workers
                .compare_exchange(live, live + 1, Ordering::AcqRel, Ordering::Acquire)
                .is_err()
            {
                continue;
            }
            let shared = Arc::clone(&self.shared);
            let handle = std::thread::Builder::new()
                .name("sae-pool-worker".into())
                .spawn(move || worker_loop(shared))
                .expect("failed to spawn pool worker");
            self.handles.lock().push(handle);
        }
    }

    /// Submits a task for execution.
    ///
    /// # Panics
    ///
    /// Panics if the pool has been shut down.
    pub fn submit(&self, job: impl FnOnce() + Send + 'static) {
        assert!(
            !self.shared.shutting_down.load(Ordering::Acquire),
            "submit on a shut-down pool"
        );
        self.shared.submitted.inc();
        self.shared.queue_depth.adjust(1.0);
        self.queue_tx
            .send(Box::new(job))
            .expect("queue closed while pool is alive");
    }

    /// Current statistics.
    pub fn metrics(&self) -> PoolMetrics {
        PoolMetrics {
            submitted: self.shared.submitted.value(),
            completed: self.shared.completed.value(),
            panicked: self.shared.panicked.value(),
            panic_messages: self.shared.panic_messages.lock().clone(),
            max_size: self.shared.max_size.load(Ordering::Acquire),
            live_workers: self.shared.live_workers.load(Ordering::Acquire),
            busy_workers: self.shared.busy_workers.load(Ordering::Acquire),
        }
    }

    /// Drains the queue and joins all workers. Idempotent.
    ///
    /// Already-queued tasks still run; new submissions are rejected.
    pub fn shutdown(&self) {
        self.shared.shutting_down.store(true, Ordering::Release);
        let handles: Vec<JoinHandle<()>> = std::mem::take(&mut *self.handles.lock());
        for handle in handles {
            let _ = handle.join();
        }
    }
}

impl TunablePool for DynamicThreadPool {
    fn max_pool_size(&self) -> usize {
        self.shared.max_size.load(Ordering::Acquire)
    }

    /// Adjusts the maximum worker count.
    ///
    /// Growth spawns workers immediately; shrink lets running tasks finish
    /// and retires surplus workers as they become idle — matching the
    /// semantics the paper relies on ("running tasks are never aborted").
    fn set_max_pool_size(&mut self, size: usize) {
        assert!(size > 0, "pool size must be positive");
        self.shared.max_size.store(size, Ordering::Release);
        self.spawn_up_to_max();
    }
}

fn worker_loop(shared: Arc<Shared>) {
    use crossbeam::channel::RecvTimeoutError;
    loop {
        if shared.should_retire() {
            return;
        }
        match shared
            .queue_rx
            .recv_timeout(std::time::Duration::from_millis(20))
        {
            Ok(job) => {
                shared.queue_depth.adjust(-1.0);
                run_job(&shared, job);
            }
            Err(RecvTimeoutError::Timeout) => {
                if shared.shutting_down.load(Ordering::Acquire) && shared.queue_rx.is_empty() {
                    shared.live_workers.fetch_sub(1, Ordering::AcqRel);
                    return;
                }
            }
            Err(RecvTimeoutError::Disconnected) => {
                // All pool handles dropped.
                shared.live_workers.fetch_sub(1, Ordering::AcqRel);
                return;
            }
        }
    }
}

fn run_job(shared: &Shared, job: Job) {
    shared.busy_workers.fetch_add(1, Ordering::AcqRel);
    let start = std::time::Instant::now();
    let outcome = catch_unwind(AssertUnwindSafe(job));
    shared.exec_seconds.record(start.elapsed().as_secs_f64());
    shared.busy_workers.fetch_sub(1, Ordering::AcqRel);
    match outcome {
        Ok(()) => shared.completed.inc(),
        Err(payload) => {
            let message = payload
                .downcast_ref::<&'static str>()
                .map(|s| (*s).to_owned())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "<non-string panic>".to_owned());
            shared.panic_messages.lock().push(message);
            shared.panicked.inc();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::time::Duration;

    #[test]
    fn runs_all_submitted_tasks() {
        let pool = DynamicThreadPool::new(4);
        let done = Arc::new(AtomicUsize::new(0));
        for _ in 0..200 {
            let done = Arc::clone(&done);
            pool.submit(move || {
                done.fetch_add(1, Ordering::Relaxed);
            });
        }
        pool.shutdown();
        assert_eq!(done.load(Ordering::Relaxed), 200);
    }

    #[test]
    fn concurrency_never_exceeds_max() {
        let pool = DynamicThreadPool::new(3);
        let current = Arc::new(AtomicUsize::new(0));
        let peak = Arc::new(AtomicUsize::new(0));
        for _ in 0..60 {
            let current = Arc::clone(&current);
            let peak = Arc::clone(&peak);
            pool.submit(move || {
                let now = current.fetch_add(1, Ordering::SeqCst) + 1;
                peak.fetch_max(now, Ordering::SeqCst);
                std::thread::sleep(Duration::from_millis(2));
                current.fetch_sub(1, Ordering::SeqCst);
            });
        }
        pool.shutdown();
        assert!(peak.load(Ordering::SeqCst) <= 3, "peak {peak:?}");
    }

    #[test]
    fn grow_takes_effect_immediately() {
        let mut pool = DynamicThreadPool::new(1);
        pool.set_max_pool_size(8);
        assert_eq!(pool.max_pool_size(), 8);
        // Eight long tasks should overlap now.
        let current = Arc::new(AtomicUsize::new(0));
        let peak = Arc::new(AtomicUsize::new(0));
        for _ in 0..8 {
            let current = Arc::clone(&current);
            let peak = Arc::clone(&peak);
            pool.submit(move || {
                let now = current.fetch_add(1, Ordering::SeqCst) + 1;
                peak.fetch_max(now, Ordering::SeqCst);
                std::thread::sleep(Duration::from_millis(20));
                current.fetch_sub(1, Ordering::SeqCst);
            });
        }
        pool.shutdown();
        assert!(peak.load(Ordering::SeqCst) >= 2, "growth had no effect");
    }

    #[test]
    fn shrink_is_cooperative() {
        let mut pool = DynamicThreadPool::new(8);
        let current = Arc::new(AtomicUsize::new(0));
        let peak_after = Arc::new(AtomicUsize::new(0));
        // Saturate, then shrink, then measure peak of a second batch.
        for _ in 0..16 {
            let current = Arc::clone(&current);
            pool.submit(move || {
                current.fetch_add(1, Ordering::SeqCst);
                std::thread::sleep(Duration::from_millis(5));
                current.fetch_sub(1, Ordering::SeqCst);
            });
        }
        pool.set_max_pool_size(2);
        // Wait for the first batch to drain and surplus workers to retire.
        std::thread::sleep(Duration::from_millis(100));
        for _ in 0..20 {
            let current = Arc::clone(&current);
            let peak_after = Arc::clone(&peak_after);
            pool.submit(move || {
                let now = current.fetch_add(1, Ordering::SeqCst) + 1;
                peak_after.fetch_max(now, Ordering::SeqCst);
                std::thread::sleep(Duration::from_millis(2));
                current.fetch_sub(1, Ordering::SeqCst);
            });
        }
        pool.shutdown();
        assert!(
            peak_after.load(Ordering::SeqCst) <= 2,
            "shrink not respected: {peak_after:?}"
        );
    }

    #[test]
    fn panicking_task_is_contained() {
        let pool = DynamicThreadPool::new(2);
        pool.submit(|| panic!("boom"));
        let done = Arc::new(AtomicUsize::new(0));
        for _ in 0..10 {
            let done = Arc::clone(&done);
            pool.submit(move || {
                done.fetch_add(1, Ordering::Relaxed);
            });
        }
        pool.shutdown();
        assert_eq!(done.load(Ordering::Relaxed), 10);
        let m = pool.metrics();
        assert_eq!(m.panicked, 1);
        assert_eq!(m.completed, 10);
        assert_eq!(m.panic_messages, vec!["boom".to_owned()]);
    }

    #[test]
    fn formatted_panic_payloads_are_captured() {
        let pool = DynamicThreadPool::new(1);
        pool.submit(|| panic!("task {} failed", 7));
        pool.submit(|| std::panic::panic_any(42_u32));
        pool.shutdown();
        let m = pool.metrics();
        assert_eq!(m.panicked, 2);
        assert!(m.panic_messages.contains(&"task 7 failed".to_owned()));
        assert!(m.panic_messages.contains(&"<non-string panic>".to_owned()));
    }

    #[test]
    fn resize_racing_panics_keeps_pool_alive_and_bounded() {
        const MIN: usize = 2;
        const MAX: usize = 8;
        let mut pool = DynamicThreadPool::new(MAX);
        // Interleave panicking and sleeping tasks with rapid resizes.
        for round in 0..30 {
            for k in 0..4 {
                if (round + k) % 3 == 0 {
                    pool.submit(move || panic!("chaos {round}:{k}"));
                } else {
                    pool.submit(|| std::thread::sleep(Duration::from_millis(1)));
                }
            }
            let size = if round % 2 == 0 { MIN } else { MAX };
            pool.set_max_pool_size(size);
            assert!((MIN..=MAX).contains(&pool.max_pool_size()));
        }
        pool.set_max_pool_size(MIN);
        // Let surplus workers retire, then prove the pool still executes.
        std::thread::sleep(Duration::from_millis(100));
        let done = Arc::new(AtomicUsize::new(0));
        for _ in 0..20 {
            let done = Arc::clone(&done);
            pool.submit(move || {
                done.fetch_add(1, Ordering::Relaxed);
            });
        }
        pool.shutdown();
        assert_eq!(done.load(Ordering::Relaxed), 20, "pool died under chaos");
        let m = pool.metrics();
        assert!(m.panicked > 0, "no panics were injected");
        assert_eq!(m.panicked as usize, m.panic_messages.len());
        assert!(
            m.live_workers <= MAX,
            "live workers {} above max",
            m.live_workers
        );
        assert_eq!(m.completed + m.panicked, m.submitted);
    }

    #[test]
    fn metrics_reflect_activity() {
        let registry = MetricRegistry::new();
        let pool = DynamicThreadPool::with_registry(2, &registry);
        for _ in 0..5 {
            pool.submit(|| {});
        }
        pool.shutdown();
        let m = pool.metrics();
        assert_eq!(m.submitted, 5);
        assert_eq!(m.completed, 5);
        assert_eq!(registry.counter("pool.tasks_completed").value(), 5);
    }

    #[test]
    fn shutdown_is_idempotent() {
        let pool = DynamicThreadPool::new(2);
        pool.submit(|| {});
        pool.shutdown();
        pool.shutdown();
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_size_rejected() {
        let _ = DynamicThreadPool::new(0);
    }
}
