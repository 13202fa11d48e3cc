//! Experiment harness: regenerates every table and figure of the paper.
//!
//! Each experiment lives in [`experiments`] and is runnable by id
//! (`cargo run -p sae-bench --release --bin exp_all fig8`) or all at once
//! (`--bin exp_all`). Binaries print the same rows/series the
//! paper reports; `EXPERIMENTS.md` is generated from their output.
//!
//! The harness intentionally reports *shapes* (who wins, by what factor,
//! where the crossovers fall) — absolute seconds differ from the paper's
//! DAS-5 testbed since the substrate is a simulator (see `DESIGN.md`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod experiments;
pub mod parallel;
mod runner;
mod table;

pub use runner::{
    derive_bestfit, run_policy, run_workload, static_sweep, PolicyRun, StaticSweepPoint,
};
use runner::{fixed_thread_run, SWEEP_THREADS};
use table::TextTable;
