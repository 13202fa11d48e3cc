//! HiBench-style workload definitions for the SAE engine.
//!
//! The paper evaluates on the HiBench benchmarking suite (Table 2 and
//! Table 3): Terasort, PageRank, SQL Aggregation/Join/Scan, Bayes, LDA,
//! NWeight and SVM. The original inputs are generated datasets we do not
//! have; what the executors *see*, however, is fully characterised by each
//! workload's stage structure — how much each stage reads, shuffles,
//! computes and writes. This crate encodes those structures, with volumes
//! calibrated against the paper's published evidence:
//!
//! * per-workload I/O amplification (Table 2),
//! * per-stage CPU utilisation (Figure 1: e.g. Terasort 6/15/9 %,
//!   Join stage 0 at 68 %, Aggregation stage 0 at 46 %),
//! * stage counts and which stages are structurally I/O (§4: all three
//!   Terasort stages; only the first and last of PageRank's six).
//!
//! Shuffle volumes are below the raw data size because Spark compresses
//! shuffle files (`spark.shuffle.compress=true` by default) — that is why
//! Terasort's measured activity is 3.8x its input rather than the naive
//! 5x.
//!
//! # Examples
//!
//! ```
//! use sae_workloads::WorkloadKind;
//!
//! let terasort = WorkloadKind::Terasort.build();
//! assert_eq!(terasort.job.stages.len(), 3);
//! // All three Terasort stages are structurally I/O (§4).
//! assert!(terasort.job.stages.iter().all(|s| s.kind() == sae_core::StageKind::Io));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod catalog;
pub mod datagen;
mod ml;
pub mod spill;
mod sql;
mod terasort;
mod web;

pub use catalog::{Workload, WorkloadKind};
