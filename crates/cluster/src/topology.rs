//! Nodes and cluster construction.

use sae_net::{Fabric, FabricConfig};
use sae_sim::{CapacityCurve, Kernel, ResourceId};
use sae_storage::{DeviceProfile, Disk, NodeVariability, VariabilityConfig};

/// Hardware description of one node.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeSpec {
    /// Number of virtual cores (hardware execution contexts).
    pub cores: usize,
    /// Memory in GB (bounds executor caching; informational for now).
    pub memory_gb: f64,
    /// Storage device profile.
    pub disk: DeviceProfile,
}

impl NodeSpec {
    /// A DAS-5 node as used in the paper's evaluation: 32 virtual cores
    /// (16 physical with HyperThreading), 56 GB of memory, 7200 rpm HDD.
    pub fn das5_hdd() -> Self {
        Self {
            cores: 32,
            memory_gb: 56.0,
            disk: DeviceProfile::hdd_7200(),
        }
    }

    /// The same node with a SATA SSD (§6.3).
    pub fn das5_ssd() -> Self {
        Self {
            cores: 32,
            memory_gb: 56.0,
            disk: DeviceProfile::ssd_sata(),
        }
    }
}

impl Default for NodeSpec {
    fn default() -> Self {
        Self::das5_hdd()
    }
}

/// One simulated node: CPU, disk and NIC resources.
#[derive(Debug, Clone)]
pub struct Node {
    /// Node index within the cluster.
    pub id: usize,
    /// Hardware description.
    pub spec: NodeSpec,
    /// CPU resource: capacity = `cores` core-seconds/s, ≤ 1 core per flow.
    pub cpu: ResourceId,
    /// The node's disk.
    pub disk: Disk,
    /// Ingress NIC resource.
    pub nic: ResourceId,
    /// Page-cache-backed shuffle-serve path (remote fetches read spilled
    /// map output through here, not through the platter).
    pub serve: ResourceId,
    /// Disk speed factor from per-node variability.
    pub speed_factor: f64,
}

/// Builds a [`Cluster`], registering all resources on a kernel.
///
/// # Examples
///
/// ```
/// use sae_cluster::{ClusterBuilder, NodeSpec};
/// use sae_sim::Kernel;
/// use sae_storage::VariabilityConfig;
///
/// let mut kernel: Kernel<u32> = Kernel::new();
/// let cluster = ClusterBuilder::new(4)
///     .node_spec(NodeSpec::das5_ssd())
///     .variability(VariabilityConfig::das5())
///     .seed(7)
///     .build(&mut kernel);
/// assert_eq!(cluster.node(3).spec.disk.name(), "ssd-sata");
/// ```
#[derive(Debug, Clone)]
pub struct ClusterBuilder {
    nodes: usize,
    spec: NodeSpec,
    fabric: FabricConfig,
    variability: VariabilityConfig,
    seed: u64,
}

impl ClusterBuilder {
    /// Starts a builder for a cluster of `nodes` nodes.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is zero.
    pub fn new(nodes: usize) -> Self {
        assert!(nodes > 0, "a cluster needs at least one node");
        Self {
            nodes,
            spec: NodeSpec::default(),
            fabric: FabricConfig::default(),
            variability: VariabilityConfig::homogeneous(),
            seed: 0,
        }
    }

    /// Sets the per-node hardware spec (all nodes identical, as on DAS-5).
    pub fn node_spec(mut self, spec: NodeSpec) -> Self {
        self.spec = spec;
        self
    }

    /// Sets the network fabric configuration.
    pub fn fabric(mut self, fabric: FabricConfig) -> Self {
        self.fabric = fabric;
        self
    }

    /// Enables per-node disk speed variability.
    pub fn variability(mut self, variability: VariabilityConfig) -> Self {
        self.variability = variability;
        self
    }

    /// Seeds the variability sampler.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Registers every node's resources on `kernel` and returns the
    /// cluster.
    pub fn build<P>(&self, kernel: &mut Kernel<P>) -> Cluster {
        let fabric = Fabric::register(kernel, self.fabric, self.nodes);
        let variability = NodeVariability::new(self.variability, self.seed);
        let nodes = (0..self.nodes)
            .map(|id| {
                let speed_factor = variability.speed_factor(id);
                let cpu = kernel.add_resource(
                    CapacityCurve::constant(self.spec.cores as f64).with_per_flow_cap(1.0),
                );
                let disk = Disk::register(kernel, self.spec.disk.clone(), speed_factor);
                let serve_profile = self.spec.disk.clone();
                let serve = kernel.add_resource(
                    CapacityCurve::from_fn(move |counts| {
                        serve_profile.serve_path_bandwidth(counts.total()) * speed_factor
                    })
                    .with_per_flow_cap(self.spec.disk.serve_stream_cap()),
                );
                Node {
                    id,
                    spec: self.spec.clone(),
                    cpu,
                    disk,
                    nic: fabric.ingress(id),
                    serve,
                    speed_factor,
                }
            })
            .collect();
        Cluster { nodes }
    }
}

/// A set of simulated nodes sharing a network fabric.
#[derive(Debug, Clone)]
pub struct Cluster {
    nodes: Vec<Node>,
}

impl Cluster {
    /// The node with index `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn node(&self, id: usize) -> &Node {
        &self.nodes[id]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_defaults_to_das5_hdd() {
        let mut kernel: Kernel<u32> = Kernel::new();
        let cluster = ClusterBuilder::new(4).build(&mut kernel);
        assert_eq!(cluster.nodes.len(), 4);
        assert_eq!(cluster.node(0).spec.cores, 32);
        let cores: usize = cluster.nodes.iter().map(|n| n.spec.cores).sum();
        assert_eq!(cores, 128);
        assert_eq!(cluster.node(0).spec.disk.name(), "hdd-7200rpm");
    }

    #[test]
    fn homogeneous_cluster_has_unit_factors() {
        let mut kernel: Kernel<u32> = Kernel::new();
        let cluster = ClusterBuilder::new(3).build(&mut kernel);
        for node in &cluster.nodes {
            assert_eq!(node.speed_factor, 1.0);
        }
    }

    #[test]
    fn variability_spreads_factors() {
        let mut kernel: Kernel<u32> = Kernel::new();
        let cluster = ClusterBuilder::new(44)
            .variability(VariabilityConfig::das5())
            .seed(42)
            .build(&mut kernel);
        let factors: Vec<f64> = cluster.nodes.iter().map(|n| n.speed_factor).collect();
        let min = factors.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = factors.iter().cloned().fold(0.0, f64::max);
        assert!(max > min, "variability must spread factors");
    }

    #[test]
    fn nodes_get_distinct_resources() {
        let mut kernel: Kernel<u32> = Kernel::new();
        let cluster = ClusterBuilder::new(3).build(&mut kernel);
        let mut seen = std::collections::HashSet::new();
        for node in &cluster.nodes {
            assert!(seen.insert(node.cpu));
            assert!(seen.insert(node.disk.resource()));
            assert!(seen.insert(node.nic));
        }
    }

    #[test]
    fn ssd_spec_propagates() {
        let mut kernel: Kernel<u32> = Kernel::new();
        let cluster = ClusterBuilder::new(2)
            .node_spec(NodeSpec::das5_ssd())
            .build(&mut kernel);
        assert_eq!(cluster.node(1).spec.disk.name(), "ssd-sata");
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn zero_node_cluster_rejected() {
        let _ = ClusterBuilder::new(0);
    }
}
