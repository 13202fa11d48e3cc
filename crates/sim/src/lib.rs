//! Deterministic discrete-event simulation kernel for the SAE stack.
//!
//! The kernel stands in for the DAS-5 cluster hardware of the paper. Its
//! central abstraction is the *processor-sharing resource* (driven through
//! [`Kernel`]): a device (CPU, disk, NIC) that serves a set of concurrent
//! *flows*, each with a remaining amount of work, where the device's
//! aggregate capacity is a function of how many flows (and of which classes)
//! are active. This is exactly the mechanism the paper exploits — HDD
//! throughput peaks at a small number of concurrent streams and collapses
//! under seek thrash beyond it — expressed as a capacity curve (see
//! `sae-storage`).
//!
//! The kernel is *fluid*: between events every flow progresses at its current
//! rate; events occur when a flow completes, a timer fires, or the caller
//! changes the flow population (which re-computes rates and re-schedules the
//! next completion).
//!
//! Design notes:
//!
//! * **Virtual-time accounting.** Because every flow on a resource is
//!   served at the same per-flow rate, a resource integrates one
//!   cumulative-service counter instead of sweeping all flows per event;
//!   completions come from an intra-resource min-heap of finish credits.
//!   `advance` is O(1), population changes are O(log flows) — see
//!   [`resource`](crate::Kernel) internals and `DESIGN.md` §4. The original
//!   O(flows)-sweep implementation survives in the `reference` module
//!   (test/feature gated) and property tests pin the two to identical
//!   completion orders.
//! * **No callbacks.** [`Kernel::next`] returns [`Occurrence`]s; the caller
//!   (the DAG engine in `sae-dag`) owns all higher-level state machines.
//!   This sidesteps shared-mutability issues and keeps the kernel tiny and
//!   testable.
//! * **Deterministic.** Ties are broken by a monotone sequence number; all
//!   randomness lives outside the kernel (seeded, in [`rng`]).
//!
//! # Examples
//!
//! ```
//! use sae_sim::{CapacityCurve, Kernel, Occurrence};
//!
//! let mut kernel: Kernel<&'static str> = Kernel::new();
//! // A "disk" with 100 MB/s regardless of concurrency.
//! let disk = kernel.add_resource(CapacityCurve::constant(100.0));
//! kernel.start_flow(disk, 0, 50.0, "first");   // 50 MB
//! kernel.start_flow(disk, 0, 100.0, "second"); // 100 MB
//!
//! // Both flows share the disk: "first" finishes at t = 1.0 s,
//! // "second" gets the full disk afterwards and finishes at t = 1.5 s.
//! match kernel.next().unwrap() {
//!     Occurrence::FlowCompleted { payload, at, .. } => {
//!         assert_eq!(payload, "first");
//!         assert!((at.seconds() - 1.0).abs() < 1e-9);
//!     }
//!     _ => unreachable!(),
//! }
//! match kernel.next().unwrap() {
//!     Occurrence::FlowCompleted { payload, at, .. } => {
//!         assert_eq!(payload, "second");
//!         assert!((at.seconds() - 1.5).abs() < 1e-9);
//!     }
//!     _ => unreachable!(),
//! }
//! assert!(kernel.next().is_none());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod capacity;
mod kernel;
pub mod rng;
mod time;

pub(crate) mod resource;

#[cfg(any(test, feature = "reference-impl"))]
pub mod reference;

pub use capacity::{CapacityCurve, ClassCounts};
pub use kernel::{FlowId, Kernel, Occurrence, ResourceId, ResourceUsage, TimerId};
pub use time::SimTime;
