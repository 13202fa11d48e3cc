//! Storage device models for the SAE simulator.
//!
//! The paper's central observation is that the effective throughput of a
//! storage device depends on how many threads hit it concurrently: an HDD
//! peaks at a handful of streams and collapses under seek thrash beyond
//! that, while an SSD sustains many concurrent readers but pays
//! erase-block overhead for concurrent writers (§6.3). This crate expresses
//! those behaviours as [`DeviceProfile`]s that plug into `sae-sim`'s
//! processor-sharing resources via [`Disk`].
//!
//! It also models the per-node performance variability of real clusters
//! (Figure 3 of the paper) through [`NodeVariability`].
//!
//! # Examples
//!
//! ```
//! use sae_storage::{DeviceProfile, DiskClass};
//!
//! let hdd = DeviceProfile::hdd_7200();
//! // Pure sequential read bandwidth decays once seek thrash kicks in.
//! let few = hdd.bandwidth(&[(DiskClass::Read, 4)]);
//! let many = hdd.bandwidth(&[(DiskClass::Read, 32)]);
//! assert!(few > many);
//!
//! let ssd = DeviceProfile::ssd_sata();
//! // SSD reads tolerate high concurrency far better.
//! let ssd_ratio = ssd.bandwidth(&[(DiskClass::Read, 32)])
//!     / ssd.bandwidth(&[(DiskClass::Read, 4)]);
//! let hdd_ratio = many / few;
//! assert!(ssd_ratio > hdd_ratio);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod curve;
mod disk;
mod profile;
mod variability;

pub use curve::ContentionCurve;
pub use disk::{Disk, DiskClass};
pub use profile::DeviceProfile;
pub use variability::{NodeVariability, VariabilityConfig};
