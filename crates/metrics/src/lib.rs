//! Metric primitives for the SAE (self-adaptive executors) stack.
//!
//! This crate provides the observability substrate that the paper obtains
//! from `mpstat`, `strace`, `iostat` and the Spark metrics system:
//!
//! * [`Counter`] / [`FloatCounter`] — monotonically increasing totals
//!   (bytes read, tasks finished, accumulated epoll-wait seconds).
//! * [`Gauge`] — instantaneous values (current pool size, queue depth).
//! * [`Histogram`] — log-bucketed distribution summaries (task durations).
//! * [`Ewma`] — exponentially weighted moving averages for smoothed signals.
//! * [`TimeSeries`] — `(time, value)` samples with resampling and windowed
//!   aggregation, used for the throughput-over-time figures.
//! * [`MetricRegistry`] — a namespaced registry of all of the above.
//! * [`StageSummary`] — the per-stage roll-up (CPU%, iowait%, disk
//!   utilisation, bytes moved) that drives Figures 1 and 5 of the paper.
//!
//! All metric types are thread-safe (lock-free where practical) so the same
//! machinery serves the single-threaded simulator and the real thread pool
//! in `sae-pool`.
//!
//! # Examples
//!
//! ```
//! use sae_metrics::{MetricRegistry, TimeSeries};
//!
//! let registry = MetricRegistry::new();
//! let bytes = registry.counter("disk.bytes_read");
//! bytes.add(4096);
//! assert_eq!(bytes.value(), 4096);
//!
//! let mut ts = TimeSeries::new();
//! ts.push(0.0, 100.0);
//! ts.push(1.0, 300.0);
//! assert_eq!(ts.mean(), Some(200.0));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod counter;
mod ewma;
mod histogram;
mod prometheus;
mod registry;
mod reporters;
mod stage;
mod timeseries;

pub use counter::{Counter, FloatCounter, Gauge};
pub use ewma::Ewma;
pub use histogram::{Histogram, HistogramSnapshot};
pub use prometheus::{
    escape_json, render_prometheus, snapshot_jsonl_line, EXPOSITION_CONTENT_TYPE,
};
pub use registry::{MetricRegistry, RegistrySnapshot};
pub use reporters::{iostat_report, mpstat_report};
pub use stage::{StageSummary, StageSummaryBuilder, UtilizationSample};
pub use timeseries::{TimeSeries, TimeSeriesPoint};
