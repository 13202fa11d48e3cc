//! Cluster topology and an HDFS-like distributed file system model.
//!
//! A [`Cluster`] registers, per node, a CPU resource (capacity = core
//! count, one core max per thread), a [`sae_storage::Disk`] with per-node
//! speed variability, and an ingress NIC from [`sae_net::Fabric`] — the
//! simulated stand-in for a DAS-5 node (§6.1: 32 virtual cores, 56 GB RAM,
//! 7200 rpm HDD or SATA SSD).
//!
//! The [`Dfs`] models HDFS block placement: files are split into fixed-size
//! blocks, each replicated onto `replication` distinct nodes, enabling the
//! locality-aware task placement the paper's experimental setup relies on
//! ("replication factor equal to the number of nodes ... to make sure all
//! executors achieve maximum locality").
//!
//! # Examples
//!
//! ```
//! use sae_cluster::{ClusterBuilder, Dfs};
//! use sae_sim::Kernel;
//!
//! let mut kernel: Kernel<u32> = Kernel::new();
//! let cluster = ClusterBuilder::new(4).build(&mut kernel);
//! let mut dfs = Dfs::new(128, 4, 42);
//! dfs.create_file("input", 1024.0, cluster.nodes());
//! assert_eq!(dfs.file("input").unwrap().blocks.len(), 8);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod dfs;
mod topology;

pub use dfs::{BlockInfo, Dfs, FileInfo};
pub use topology::{Cluster, ClusterBuilder, Node, NodeSpec};
