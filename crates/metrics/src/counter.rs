//! Monotonic counters and instantaneous gauges.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A monotonically increasing integer counter.
///
/// Cloning a `Counter` yields a handle to the same underlying value, so a
/// counter can be registered once and updated from many components.
///
/// # Examples
///
/// ```
/// use sae_metrics::Counter;
///
/// let tasks = Counter::default();
/// let handle = tasks.clone();
/// handle.add(3);
/// tasks.inc();
/// assert_eq!(tasks.value(), 4);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Counter {
    inner: Arc<AtomicU64>,
}

impl Counter {
    /// Increments the counter by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `delta` to the counter.
    pub fn add(&self, delta: u64) {
        self.inner.fetch_add(delta, Ordering::Relaxed);
    }

    /// Returns the current value.
    pub fn value(&self) -> u64 {
        self.inner.load(Ordering::Relaxed)
    }
}

/// A monotonically increasing floating-point counter.
///
/// Stores the value as `f64` bits inside an atomic, which keeps the type
/// `Send + Sync` without locking. Used for accumulated durations such as the
/// epoll-wait seconds `ε` of the paper's monitor.
///
/// # Examples
///
/// ```
/// use sae_metrics::FloatCounter;
///
/// let wait = FloatCounter::default();
/// wait.add(0.25);
/// wait.add(0.5);
/// assert!((wait.value() - 0.75).abs() < 1e-12);
/// ```
#[derive(Debug, Clone)]
pub struct FloatCounter {
    bits: Arc<AtomicU64>,
}

impl Default for FloatCounter {
    fn default() -> Self {
        Self {
            bits: Arc::new(AtomicU64::new(0f64.to_bits())),
        }
    }
}

impl FloatCounter {
    /// Adds `delta` to the counter.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `delta` is negative or NaN; float counters
    /// are monotonic by contract.
    pub fn add(&self, delta: f64) {
        debug_assert!(delta >= 0.0, "FloatCounter::add requires delta >= 0");
        let mut current = self.bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(current) + delta).to_bits();
            match self.bits.compare_exchange_weak(
                current,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(observed) => current = observed,
            }
        }
    }

    /// Returns the current value.
    pub fn value(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// An instantaneous value that may go up or down.
///
/// # Examples
///
/// ```
/// use sae_metrics::Gauge;
///
/// let pool_size = Gauge::default();
/// pool_size.set(32.0);
/// pool_size.set(8.0);
/// assert_eq!(pool_size.value(), 8.0);
/// ```
#[derive(Debug, Clone)]
pub struct Gauge {
    bits: Arc<AtomicU64>,
}

impl Default for Gauge {
    fn default() -> Self {
        Self {
            bits: Arc::new(AtomicU64::new(0f64.to_bits())),
        }
    }
}

impl Gauge {
    /// Sets the gauge to `value`.
    pub fn set(&self, value: f64) {
        self.bits.store(value.to_bits(), Ordering::Relaxed);
    }

    /// Returns the current value.
    pub fn value(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }

    /// Adjusts the gauge by `delta` (which may be negative).
    pub fn adjust(&self, delta: f64) {
        let mut current = self.bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(current) + delta).to_bits();
            match self.bits.compare_exchange_weak(
                current,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(observed) => current = observed,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn counter_starts_at_zero() {
        assert_eq!(Counter::default().value(), 0);
    }

    #[test]
    fn counter_accumulates() {
        let c = Counter::default();
        c.inc();
        c.add(41);
        assert_eq!(c.value(), 42);
    }

    #[test]
    fn counter_clone_shares_state() {
        let c = Counter::default();
        let d = c.clone();
        d.add(5);
        assert_eq!(c.value(), 5);
    }

    #[test]
    fn counter_is_thread_safe() {
        let c = Counter::default();
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let c = c.clone();
                thread::spawn(move || {
                    for _ in 0..1000 {
                        c.inc();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(c.value(), 8000);
    }

    #[test]
    fn float_counter_accumulates() {
        let c = FloatCounter::default();
        c.add(1.5);
        c.add(2.25);
        assert!((c.value() - 3.75).abs() < 1e-12);
    }

    #[test]
    fn float_counter_concurrent_adds_do_not_lose_updates() {
        let c = FloatCounter::default();
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let c = c.clone();
                thread::spawn(move || {
                    for _ in 0..1000 {
                        c.add(0.5);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert!((c.value() - 2000.0).abs() < 1e-9);
    }

    #[test]
    fn gauge_set_and_adjust() {
        let g = Gauge::default();
        g.set(10.0);
        g.adjust(-3.0);
        assert_eq!(g.value(), 7.0);
    }

    #[test]
    fn gauge_can_go_negative() {
        let g = Gauge::default();
        g.adjust(-1.0);
        assert_eq!(g.value(), -1.0);
    }
}
