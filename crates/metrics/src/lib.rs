//! Metric primitives for the SAE (self-adaptive executors) stack.
//!
//! This crate provides the observability substrate that the paper obtains
//! from `mpstat`, `strace`, `iostat` and the Spark metrics system:
//!
//! * [`Counter`] / [`FloatCounter`] — monotonically increasing totals
//!   (bytes read, tasks finished, accumulated epoll-wait seconds).
//! * [`Gauge`] — instantaneous values (current pool size, queue depth).
//! * [`Histogram`] — log-bucketed distribution summaries (task durations).
//! * [`MetricRegistry`] — a namespaced registry of all of the above,
//!   rendered by [`render_prometheus`] and [`snapshot_jsonl_line`].
//! * [`StageSummary`] — the per-stage roll-up (CPU%, iowait%, disk
//!   utilisation, bytes read and written) that drives Figures 1 and 5 of
//!   the paper.
//!
//! All metric types are thread-safe (lock-free where practical) so the same
//! machinery serves the single-threaded simulator and the real thread pool
//! in `sae-pool`.
//!
//! # Examples
//!
//! ```
//! use sae_metrics::MetricRegistry;
//!
//! let registry = MetricRegistry::new();
//! let bytes = registry.counter("disk.bytes_read");
//! bytes.add(4096);
//! assert_eq!(bytes.value(), 4096);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod counter;
mod histogram;
mod prometheus;
mod registry;
mod reporters;
mod stage;

pub use counter::{Counter, FloatCounter, Gauge};
pub use histogram::{Histogram, HistogramSnapshot};
pub use prometheus::{
    escape_json, render_prometheus, snapshot_jsonl_line, EXPOSITION_CONTENT_TYPE,
};
pub use registry::{MetricRegistry, RegistrySnapshot};
pub use reporters::{iostat_report, mpstat_report};
pub use stage::{StageSummary, StageSummaryBuilder, UtilizationSample};
