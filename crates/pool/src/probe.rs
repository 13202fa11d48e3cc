//! Shared I/O probe helpers: one code path for examples, tests, and the
//! live runtime.
//!
//! An `IoProbe` hands the MAPE-K monitor cumulative
//! `(epoll_wait_seconds, io_megabytes)` counters. Two sources exist in
//! practice:
//!
//! * **Explicit accounting** ([`CounterProbe`]) — tasks that know exactly
//!   how many bytes they moved and how long they blocked record both
//!   directly. This is the per-executor source: several live executors
//!   share one OS process, so process-global counters cannot attribute
//!   I/O to one pool, but the tasks themselves can.
//! * **Kernel accounting** ([`crate::procfs::StageIoProbe`]) — the
//!   process-wide `/proc` counters, rebased per stage and clamped so a
//!   counter observed going backwards never yields negative ε or µ.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::adaptive::IoProbe;

/// Microsecond-resolution cumulative I/O accounting fed by the tasks
/// themselves.
///
/// Cloning shares the counters; [`CounterProbe::as_probe`] adapts the
/// counters to the `IoProbe` shape the
/// [`AdaptivePool`](crate::AdaptivePool) consumes.
///
/// # Examples
///
/// ```
/// use sae_pool::CounterProbe;
/// use std::time::Duration;
///
/// let probe = CounterProbe::new();
/// probe.record(3 * 1024 * 1024, Duration::from_millis(5));
/// let (wait, mb) = probe.sample();
/// assert!((mb - 3.0).abs() < 1e-9);
/// assert!((wait - 0.005).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Default)]
pub struct CounterProbe {
    inner: Arc<CounterProbeInner>,
}

#[derive(Debug, Default)]
struct CounterProbeInner {
    bytes: AtomicU64,
    wait_micros: AtomicU64,
}

impl CounterProbe {
    /// Creates a probe with both counters at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one task's I/O: `bytes` moved while blocked for `waited`.
    pub fn record(&self, bytes: u64, waited: Duration) {
        self.inner.bytes.fetch_add(bytes, Ordering::Relaxed);
        self.inner
            .wait_micros
            .fetch_add(waited.as_micros() as u64, Ordering::Relaxed);
    }

    /// Resets both counters to zero (stage boundary).
    pub fn reset(&self) {
        self.inner.bytes.store(0, Ordering::Relaxed);
        self.inner.wait_micros.store(0, Ordering::Relaxed);
    }

    /// Current cumulative `(wait_seconds, megabytes)`.
    pub fn sample(&self) -> (f64, f64) {
        let bytes = self.inner.bytes.load(Ordering::Relaxed) as f64;
        let micros = self.inner.wait_micros.load(Ordering::Relaxed) as f64;
        (micros / 1e6, bytes / (1024.0 * 1024.0))
    }

    /// Adapts the counters to the closure shape the adaptive pool expects.
    pub fn as_probe(&self) -> IoProbe {
        let this = self.clone();
        Arc::new(move || this.sample())
    }
}

/// Sums two probes — e.g. explicit task accounting plus the kernel's
/// block-I/O delay, which catches waits the tasks did not time themselves.
pub fn combined_probe(a: IoProbe, b: IoProbe) -> IoProbe {
    Arc::new(move || {
        let (wa, ma) = a();
        let (wb, mb) = b();
        (wa + wb, ma + mb)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_at_zero() {
        assert_eq!(CounterProbe::new().sample(), (0.0, 0.0));
    }

    #[test]
    fn accumulates_and_resets() {
        let p = CounterProbe::new();
        p.record(1024 * 1024, Duration::from_millis(2));
        p.record(1024 * 1024, Duration::from_millis(3));
        let (wait, mb) = p.sample();
        assert!((mb - 2.0).abs() < 1e-9);
        assert!((wait - 0.005).abs() < 1e-9);
        p.reset();
        assert_eq!(p.sample(), (0.0, 0.0));
    }

    #[test]
    fn clones_share_counters() {
        let p = CounterProbe::new();
        let q = p.clone();
        q.record(2 * 1024 * 1024, Duration::ZERO);
        assert!((p.sample().1 - 2.0).abs() < 1e-9);
    }

    #[test]
    fn as_probe_matches_sample() {
        let p = CounterProbe::new();
        p.record(1024 * 1024, Duration::from_secs(1));
        let probe = p.as_probe();
        assert_eq!(probe(), p.sample());
    }

    #[test]
    fn combined_probe_sums_sources() {
        let a = CounterProbe::new();
        let b = CounterProbe::new();
        a.record(1024 * 1024, Duration::from_millis(10));
        b.record(3 * 1024 * 1024, Duration::from_millis(30));
        let combo = combined_probe(a.as_probe(), b.as_probe());
        let (wait, mb) = combo();
        assert!((mb - 4.0).abs() < 1e-9);
        assert!((wait - 0.040).abs() < 1e-9);
    }
}
