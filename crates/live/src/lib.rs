//! A live single-machine cluster runtime for the self-adaptive executor
//! protocol: real sockets, real threads, real disk I/O.
//!
//! Everything else in this workspace *simulates* the paper's system; this
//! crate *runs* it. A [`Driver`] listens on loopback TCP; N
//! [`LiveExecutor`]s connect, register, and service task assignments on
//! `sae-pool`'s [`AdaptivePool`](sae_pool::AdaptivePool) — so the MAPE-K
//! loop, the §5.4 `PoolSizeChanged` protocol extension, heartbeat-based
//! failure detection and task retry all execute end-to-end over a real
//! wire. The pieces deliberately shared with the simulated engine:
//!
//! * the [`Message`](sae_dag::Message) enum and its binary encoding
//!   ([`sae_dag::codec`]) — one wire format for both runtimes;
//! * the driver's locality-aware
//!   [`PendingQueue`](sae_dag::sched::PendingQueue) scheduler;
//! * the MAPE-K controller stack from `sae-core`, via
//!   [`AdaptivePool`](sae_pool::AdaptivePool).
//!
//! What is live-only: the control envelope ([`wire::Frame`]) carrying
//! registration/stage/completion traffic around the core messages, the
//! wall-clock heartbeat timers, and task bodies that really generate,
//! spill, read and sort Terasort records ([`task`]).
//!
//! The single-job [`Driver`] and the multi-tenant [`JobServer`] share one
//! socket shell and two sans-io ledgers: executor membership (handshake,
//! epochs, heartbeats, the §5.4 slot fold and the loss broadcast) and each
//! stage's task attempts (queue, holders, failures and requeues).
//!
//! # Quick start
//!
//! ```no_run
//! use sae_live::{terasort, ClusterConfig, LiveCluster};
//!
//! let mut cluster = LiveCluster::launch(ClusterConfig::default()).unwrap();
//! let report = cluster.run(&terasort(24, 20_000, 42)).unwrap();
//! println!(
//!     "ran {} stages, saw {} pool-size round-trips",
//!     report.stages.len(),
//!     report.decisions.len()
//! );
//! cluster.shutdown().unwrap();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod cluster;
pub mod driver;
mod epochs;
pub mod executor;
mod fleet;
pub mod job;
mod ledger;
pub mod log;
pub mod nemesis;
pub mod recorder;
pub mod server;
mod shell;
pub mod task;
pub mod wire;

pub use cluster::{ClusterConfig, LiveCluster, TempDir};
pub use driver::{
    Driver, DriverConfig, LiveError, LiveReport, LiveStageReport, PoolDecision, SlotInfo,
};
pub use epochs::{Admission, EpochRegistry, Registration};
pub use executor::{LiveExecutor, LiveExecutorConfig, RespawnConfig};
pub use job::{terasort, LiveJob, LiveStageKind, LiveStageSpec};
pub use log::LogLevel;
pub use recorder::{chrome_trace, FlightRecorder, LiveEvent};
pub use server::{JobServer, JobStatus, JobSummary, ServerConfig, ServerReport};
