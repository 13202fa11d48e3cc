//! Self-adaptive executors: the primary contribution of the paper
//! *Self-adaptive Executors for Big Data Processing* (Middleware '19).
//!
//! Spark-style executors run tasks on a thread pool sized, by default, to
//! the number of virtual cores — an implicit assumption that work is
//! uniformly CPU-bound. This crate provides the two remedies the paper
//! develops, both backend-agnostic (they drive the simulated engine in
//! `sae-dag` and the real OS-thread pool in `sae-pool` through the same
//! traits):
//!
//! * **Static solution** (§4, [`StaticPolicy`]) — stages whose operators
//!   read or write storage are marked I/O and run with a user-chosen thread
//!   count; all other stages keep the default.
//! * **Dynamic solution** (§5, [`AdaptiveController`]) — a per-executor
//!   MAPE-K feedback loop:
//!   - [`Monitor`] accumulates epoll-wait time `ε` and I/O throughput `µ`
//!     over intervals of `j` task completions,
//!   - [`HillClimbAnalyzer`] minimises the congestion index `ζ = ε / µ`,
//!     doubling the thread count from `c_min` until `ζ` worsens, then
//!     rolling back,
//!   - the controller's decision *is* the plan: a new pool size, or none,
//!     and whether adaptation ends for the stage. The two effectors — the
//!     simulated engine in `sae-dag` and the live executor in `sae-live` —
//!     resize their pool and tell their scheduler themselves.
//!
//! [`ThreadPolicy`] packages default / static / best-fit / adaptive
//! behaviour behind one type that the engine consumes.
//!
//! # Examples
//!
//! Drive the controller with synthetic measurements: contention grows with
//! the pool size, so the controller climbs, observes worse congestion, and
//! rolls back:
//!
//! ```
//! use sae_core::{AdaptiveController, MapeConfig};
//!
//! let mut ctl = AdaptiveController::new(MapeConfig::new(2, 32));
//! let mut threads = ctl.stage_started(0.0, Some(1000));
//! assert_eq!(threads, 2);
//!
//! let (mut now, mut epoll, mut bytes) = (0.0, 0.0, 0.0);
//! for _ in 0..200 {
//!     now += 1.0;
//!     // Each task moves 100 MB and waits on I/O; the wait grows
//!     // superlinearly in the thread count (contention).
//!     epoll += 0.5 + 0.01 * (threads as f64).powi(2);
//!     bytes += 100.0;
//!     if let Some(decision) = ctl.task_finished(now, epoll, bytes) {
//!         threads = decision;
//!     }
//! }
//! // Settled on a bounded, non-default value.
//! assert!(ctl.settled());
//! assert!(threads >= 2 && threads < 32);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod analyzer;
mod congestion;
mod controller;
mod journal;
mod monitor;
mod policy;
mod traits;

pub use analyzer::{Analysis, ClimbDirection, CongestionSignal, HillClimbAnalyzer};
pub use congestion::{congestion_index, IntervalMeasurement};
pub use controller::{AdaptiveController, MapeConfig};
pub use journal::{
    parse_jsonl, to_jsonl, zeta_explain, DecisionAction, DecisionJournal, DecisionRecord,
};
pub use monitor::{IntervalReport, Monitor, ProbeSnapshot};
pub use policy::{BestFitTable, StageInfo, StageKind, StaticPolicy, ThreadPolicy};
pub use traits::TunablePool;
