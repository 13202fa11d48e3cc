//! A Spark-like dataset/DAG engine on top of the SAE simulator.
//!
//! This crate is the "host system" substitute for Apache Spark: the paper's
//! contribution (`sae-core`) is a drop-in replacement for the Spark
//! *Executor*, so reproducing it requires the surrounding machinery —
//! jobs described as operator pipelines ([`JobSpec`]), split into stages at
//! shuffle boundaries, scheduled stage-at-a-time by a driver that tracks
//! per-executor free capacity ([`Engine`]), executed by per-node executors
//! whose bounded task-slot pools implement [`sae_core::TunablePool`], and
//! an executor↔driver messaging protocol extended with the pool-size
//! notification of §5.4 ([`Message`]).
//!
//! Everything runs in simulated time on [`sae_sim::Kernel`]; tasks
//! interleave CPU and I/O chunks so that CPU utilisation, iowait and disk
//! contention *emerge* from the device models rather than being scripted.
//!
//! # Examples
//!
//! ```
//! use sae_core::ThreadPolicy;
//! use sae_dag::{Engine, EngineConfig, JobSpec, StageSpec};
//!
//! // A single-stage job that reads 2 GB and writes 1 GB.
//! let job = JobSpec::builder("demo")
//!     .stage(
//!         StageSpec::read("ingest", 2048.0)
//!             .cpu_per_mb(0.002)
//!             .write_output(1024.0),
//!     )
//!     .build();
//! let report = Engine::new(EngineConfig::four_node_hdd(), ThreadPolicy::Default)
//!     .run(&job);
//! assert_eq!(report.stages.len(), 1);
//! assert!(report.total_runtime > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod codec;
mod config;
mod engine;
mod executor;
mod job;
mod messages;
mod report;
pub mod sched;
mod task;
mod trace;

pub use config::{
    ConfigCategory, ConfigParameter, DiskFault, EngineConfig, ExecutorCrash, FaultPlan,
    FaultToleranceConfig, NodeSlowdown, ParameterCatalog, WireDirection, WireFault, WireFaultKind,
};
pub use engine::{Engine, JobError};
pub use job::{JobSpec, JobSpecBuilder, Operator, StageSpec};
pub use messages::Message;
pub use report::{ExecutorStageReport, JobReport, StageReport};
pub use trace::{append_chrome_entries, ExecutionTrace, TraceEvent};
