//! Network protocols for SAE: the simulator's fabric model and the live
//! runtime's HTTP/1.1 control-plane codec.
//!
//! [`http`] holds the sans-io HTTP/1.1 request parser and response
//! serializer behind `sae-server`'s control API. The rest of this crate
//! is the simulator-side network fabric model, described below.
//!
//! Shuffle traffic in the engine follows a two-hop model: a remote fetch
//! first reads the map output through the serving node's shuffle-serve
//! path (see `sae-storage`), then crosses the network as a flow on the
//! *receiver's* NIC. Receiver-side contention is the relevant bottleneck
//! for all-to-all shuffles (every reducer pulls from every node at once),
//! so the fabric models per-node ingress capacity; the cluster backbone is
//! assumed non-blocking, which matches DAS-5's InfiniBand fat tree.
//!
//! # Examples
//!
//! ```
//! use sae_net::{Fabric, FabricConfig};
//! use sae_sim::Kernel;
//!
//! let mut kernel: Kernel<u32> = Kernel::new();
//! let fabric = Fabric::register(&mut kernel, FabricConfig::das5(), 4);
//! // A 120 MB transfer into node 2:
//! kernel.start_flow(fabric.ingress(2), 0, 120.0, 7);
//! kernel.run_to_idle();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod http;
pub mod sse;

use sae_sim::{CapacityCurve, Kernel, ResourceId};

/// Configuration of the cluster network.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FabricConfig {
    /// Per-node ingress bandwidth in MB/s.
    pub ingress_bandwidth: f64,
    /// Per-connection cap in MB/s (TCP stream limit); `f64::INFINITY` for
    /// no cap.
    pub per_stream_cap: f64,
    /// Concurrent ingress streams a NIC handles at full rate; beyond this,
    /// TCP incast sets in.
    pub incast_free_streams: f64,
    /// Incast collapse coefficient (`goodput = peak / (1 + α·over^β)`).
    pub incast_alpha: f64,
    /// Incast collapse exponent.
    pub incast_beta: f64,
}

impl FabricConfig {
    /// DAS-5-like fabric: FDR InfiniBand (56 Gbit/s) with IPoIB,
    /// ~3300 MB/s usable per node, single streams around 400 MB/s.
    ///
    /// IPoIB runs TCP, so the fabric inherits TCP *incast collapse*: when
    /// hundreds of synchronized shuffle senders converge on one receiver,
    /// goodput falls off a cliff. With the default 32 threads per node an
    /// all-to-all shuffle on 16 nodes puts ~256 concurrent streams on each
    /// ingress NIC — the mechanism behind the poor default scaling of
    /// Figure 9 — while the tuned 8-thread setting stays under the knee at
    /// either cluster size.
    pub fn das5() -> Self {
        Self {
            ingress_bandwidth: 3300.0,
            per_stream_cap: 400.0,
            incast_free_streams: 64.0,
            incast_alpha: 0.015,
            incast_beta: 2.0,
        }
    }

    /// Effective ingress goodput with `n` concurrent streams, MB/s.
    pub(crate) fn goodput(&self, n: usize) -> f64 {
        if n == 0 {
            return 0.0;
        }
        let over = (n as f64 - self.incast_free_streams).max(0.0);
        self.ingress_bandwidth / (1.0 + self.incast_alpha * over.powf(self.incast_beta))
    }
}

impl Default for FabricConfig {
    fn default() -> Self {
        Self::das5()
    }
}

/// Per-node ingress NICs registered on a simulation kernel.
#[derive(Debug, Clone)]
pub struct Fabric {
    ingress: Vec<ResourceId>,
}

impl Fabric {
    /// Registers `nodes` ingress NICs on the kernel.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is zero or the configured bandwidth is not
    /// positive.
    pub fn register<P>(kernel: &mut Kernel<P>, config: FabricConfig, nodes: usize) -> Self {
        assert!(nodes > 0, "a fabric needs at least one node");
        assert!(
            config.ingress_bandwidth > 0.0,
            "ingress bandwidth must be positive"
        );
        assert!(
            config.per_stream_cap > 0.0,
            "per-stream cap must be positive"
        );
        assert!(
            config.incast_free_streams >= 0.0
                && config.incast_alpha >= 0.0
                && config.incast_beta >= 0.0,
            "incast parameters must be non-negative"
        );
        let ingress = (0..nodes)
            .map(|_| {
                let cfg = config;
                kernel.add_resource(
                    CapacityCurve::from_fn(move |counts| cfg.goodput(counts.total()))
                        .with_per_flow_cap(config.per_stream_cap),
                )
            })
            .collect();
        Self { ingress }
    }

    /// The ingress NIC resource of `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn ingress(&self, node: usize) -> ResourceId {
        self.ingress[node]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sae_sim::Occurrence;

    #[test]
    fn single_transfer_limited_by_stream_cap() {
        let mut kernel: Kernel<u32> = Kernel::new();
        let fabric = Fabric::register(&mut kernel, FabricConfig::das5(), 2);
        kernel.start_flow(fabric.ingress(0), 0, 600.0, 1);
        let mut done = 0.0;
        while let Some(Occurrence::FlowCompleted { at, .. }) = kernel.next() {
            done = at.seconds();
        }
        // 600 MB at the 400 MB/s per-stream cap = 1.5 s.
        assert!((done - 1.5).abs() < 1e-9);
    }

    #[test]
    fn many_transfers_share_ingress_bandwidth() {
        let mut kernel: Kernel<u32> = Kernel::new();
        let fabric = Fabric::register(&mut kernel, FabricConfig::das5(), 1);
        for i in 0..16 {
            kernel.start_flow(fabric.ingress(0), 0, 330.0, i);
        }
        let mut done = 0.0;
        while let Some(Occurrence::FlowCompleted { at, .. }) = kernel.next() {
            done = at.seconds();
        }
        // 16 streams share the 3300 MB/s aggregate: 330 / 206.25 = 1.6 s.
        assert!((done - 1.6).abs() < 1e-9);
    }

    #[test]
    fn nodes_have_independent_nics() {
        let mut kernel: Kernel<u32> = Kernel::new();
        let fabric = Fabric::register(&mut kernel, FabricConfig::das5(), 2);
        kernel.start_flow(fabric.ingress(0), 0, 400.0, 0);
        kernel.start_flow(fabric.ingress(1), 0, 400.0, 1);
        let mut times = Vec::new();
        while let Some(Occurrence::FlowCompleted { at, .. }) = kernel.next() {
            times.push(at.seconds());
        }
        // No cross-node interference: both finish at 1.0 s (400 MB at cap).
        assert!(times.iter().all(|t| (t - 1.0).abs() < 1e-9));
    }

    #[test]
    fn goodput_flat_below_incast_knee() {
        let cfg = FabricConfig::das5();
        assert_eq!(cfg.goodput(1), cfg.ingress_bandwidth);
        assert_eq!(cfg.goodput(64), cfg.ingress_bandwidth);
        assert_eq!(cfg.goodput(0), 0.0);
    }

    #[test]
    fn goodput_collapses_under_heavy_fan_in() {
        let cfg = FabricConfig::das5();
        let at_128 = cfg.goodput(128);
        let at_256 = cfg.goodput(256);
        assert!(at_128 < cfg.ingress_bandwidth);
        assert!(
            at_256 < at_128 / 4.0,
            "incast must collapse super-linearly: {at_128} -> {at_256}"
        );
    }

    #[test]
    fn incast_visible_end_to_end() {
        // 100 concurrent transfers into one NIC take far more than the
        // aggregate-bandwidth prediction.
        let mut kernel: Kernel<u32> = Kernel::new();
        let fabric = Fabric::register(&mut kernel, FabricConfig::das5(), 1);
        let per_flow = 33.0;
        for i in 0..100u32 {
            kernel.start_flow(fabric.ingress(0), 0, per_flow, i);
        }
        let mut done = 0.0;
        while let Some(Occurrence::FlowCompleted { at, .. }) = kernel.next() {
            done = at.seconds();
        }
        let ideal = 100.0 * per_flow / FabricConfig::das5().ingress_bandwidth;
        assert!(
            done > ideal * 2.0,
            "incast invisible: {done} vs ideal {ideal}"
        );
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn zero_nodes_rejected() {
        let mut kernel: Kernel<u32> = Kernel::new();
        let _ = Fabric::register(&mut kernel, FabricConfig::das5(), 0);
    }
}
