//! Figure 3: I/O performance variability in the DAS-5 cluster.

use sae_storage::{DeviceProfile, DiskClass, NodeVariability, VariabilityConfig};

use crate::experiments::ExperimentOutput;
use crate::TextTable;

/// The number of nodes shown in the paper's Figure 3.
pub(crate) const NODES: usize = 44;
/// Volume read/written per node (30 GB, as in the paper).
pub(crate) const VOLUME_MB: f64 = 30.0 * 1024.0;

/// Per-node `(read_seconds, write_seconds)` for reading/writing 30 GB
/// with 8 sequential-ish streams (a `dd`-style benchmark).
pub(crate) fn node_times(seed: u64) -> Vec<(f64, f64)> {
    let variability = NodeVariability::new(VariabilityConfig::das5(), seed);
    let hdd = DeviceProfile::hdd_7200();
    let streams = 8;
    let read_bw = hdd
        .bandwidth(&[(DiskClass::Read, streams)])
        .min(streams as f64 * hdd.per_stream_cap());
    let write_bw = hdd
        .bandwidth(&[(DiskClass::Write, streams)])
        .min(streams as f64 * hdd.per_stream_cap());
    (0..NODES)
        .map(|node| {
            let f = variability.speed_factor(node);
            (VOLUME_MB / (read_bw * f), VOLUME_MB / (write_bw * f))
        })
        .collect()
}

/// Renders Figure 3.
pub(crate) fn run() -> ExperimentOutput {
    let times = node_times(42);
    let mean_read = times.iter().map(|t| t.0).sum::<f64>() / times.len() as f64;
    let mean_write = times.iter().map(|t| t.1).sum::<f64>() / times.len() as f64;
    let mut t = TextTable::new(vec!["node", "read 30GB (s)", "write 30GB (s)"]);
    for (i, (r, w)) in times.iter().enumerate() {
        t.row(vec![
            format!("node{:03}", 303 + i),
            format!("{r:.1}"),
            format!("{w:.1}"),
        ]);
    }
    let mut body = t.render();
    body.push_str(&format!(
        "mean read: {mean_read:.1} s   mean write: {mean_write:.1} s\n"
    ));
    ExperimentOutput {
        artefact: "Figure 3",
        title: "I/O performance variability across 44 identically specced nodes",
        body,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writes_slower_than_reads() {
        for (r, w) in node_times(42) {
            assert!(w > r);
        }
    }

    #[test]
    fn significant_spread_despite_identical_specs() {
        let times = node_times(42);
        let max = times.iter().map(|t| t.0).fold(0.0, f64::max);
        let min = times.iter().map(|t| t.0).fold(f64::INFINITY, f64::min);
        // Paper: some nodes take >2x the mean.
        assert!(max / min > 1.5, "spread {max}/{min}");
    }

    #[test]
    fn deterministic_given_seed() {
        assert_eq!(node_times(7), node_times(7));
        assert_ne!(node_times(7), node_times(8));
    }
}
