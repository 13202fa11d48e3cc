//! A namespaced registry of metrics.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use crate::{Counter, FloatCounter, Gauge, Histogram, HistogramSnapshot};

#[derive(Debug, Default)]
struct Inner {
    counters: BTreeMap<String, Counter>,
    float_counters: BTreeMap<String, FloatCounter>,
    gauges: BTreeMap<String, Gauge>,
    histograms: BTreeMap<String, Histogram>,
}

/// A registry that owns metrics by dotted name (`"disk.bytes_read"`).
///
/// `get-or-create` semantics: requesting the same name twice returns handles
/// to the same metric. Cloning the registry shares the underlying store, so
/// one registry can be threaded through the simulator, executors and the
/// controller.
///
/// # Examples
///
/// ```
/// use sae_metrics::MetricRegistry;
///
/// let reg = MetricRegistry::new();
/// reg.counter("tasks.finished").add(2);
/// reg.gauge("pool.size").set(8.0);
/// let snap = reg.snapshot();
/// assert_eq!(snap.counters["tasks.finished"], 2);
/// assert_eq!(snap.gauges["pool.size"], 8.0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct MetricRegistry {
    inner: Arc<Mutex<Inner>>,
}

impl MetricRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the integer counter named `name`, creating it if absent.
    pub fn counter(&self, name: &str) -> Counter {
        self.inner
            .lock()
            .expect("metric registry poisoned")
            .counters
            .entry(name.to_owned())
            .or_default()
            .clone()
    }

    /// Returns the float counter named `name`, creating it if absent.
    pub fn float_counter(&self, name: &str) -> FloatCounter {
        self.inner
            .lock()
            .expect("metric registry poisoned")
            .float_counters
            .entry(name.to_owned())
            .or_default()
            .clone()
    }

    /// Returns the gauge named `name`, creating it if absent.
    pub fn gauge(&self, name: &str) -> Gauge {
        self.inner
            .lock()
            .expect("metric registry poisoned")
            .gauges
            .entry(name.to_owned())
            .or_default()
            .clone()
    }

    /// Returns the histogram named `name`, creating it if absent.
    pub fn histogram(&self, name: &str) -> Histogram {
        self.inner
            .lock()
            .expect("metric registry poisoned")
            .histograms
            .entry(name.to_owned())
            .or_default()
            .clone()
    }

    /// Full snapshots of every histogram, in name order. The coarse
    /// [`MetricRegistry::snapshot`] keeps only observation counts; the
    /// Prometheus renderer wants the sums too.
    pub(crate) fn histogram_snapshots(&self) -> Vec<(String, HistogramSnapshot)> {
        let inner = self.inner.lock().expect("metric registry poisoned");
        inner
            .histograms
            .iter()
            .map(|(k, v)| (k.clone(), v.snapshot()))
            .collect()
    }

    /// Takes a consistent point-in-time snapshot of every metric.
    pub fn snapshot(&self) -> RegistrySnapshot {
        let inner = self.inner.lock().expect("metric registry poisoned");
        RegistrySnapshot {
            counters: inner
                .counters
                .iter()
                .map(|(k, v)| (k.clone(), v.value()))
                .collect(),
            float_counters: inner
                .float_counters
                .iter()
                .map(|(k, v)| (k.clone(), v.value()))
                .collect(),
            gauges: inner
                .gauges
                .iter()
                .map(|(k, v)| (k.clone(), v.value()))
                .collect(),
            histogram_counts: inner
                .histograms
                .iter()
                .map(|(k, v)| (k.clone(), v.snapshot().count))
                .collect(),
        }
    }
}

/// A point-in-time view of all metrics in a [`MetricRegistry`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RegistrySnapshot {
    /// Integer counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Float counter values by name.
    pub float_counters: BTreeMap<String, f64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, f64>,
    /// Histogram observation counts by name.
    pub histogram_counts: BTreeMap<String, u64>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_or_create_returns_same_metric() {
        let reg = MetricRegistry::new();
        reg.counter("a").add(1);
        reg.counter("a").add(1);
        assert_eq!(reg.counter("a").value(), 2);
    }

    #[test]
    fn clone_shares_store() {
        let reg = MetricRegistry::new();
        let reg2 = reg.clone();
        reg2.counter("x").inc();
        assert_eq!(reg.counter("x").value(), 1);
    }

    #[test]
    fn snapshot_captures_all_kinds() {
        let reg = MetricRegistry::new();
        reg.counter("c").add(5);
        reg.float_counter("f").add(1.5);
        reg.gauge("g").set(-2.0);
        reg.histogram("h").record(1.0);
        let snap = reg.snapshot();
        assert_eq!(snap.counters["c"], 5);
        assert_eq!(snap.float_counters["f"], 1.5);
        assert_eq!(snap.gauges["g"], -2.0);
        assert_eq!(snap.histogram_counts["h"], 1);
    }

    #[test]
    fn distinct_names_are_distinct_metrics() {
        let reg = MetricRegistry::new();
        reg.counter("a").inc();
        assert_eq!(reg.counter("b").value(), 0);
    }

    #[test]
    fn empty_snapshot() {
        let snap = MetricRegistry::new().snapshot();
        assert!(snap.counters.is_empty());
        assert!(snap.gauges.is_empty());
    }
}
