//! Table 2: I/O activity of Spark applications relative to their input
//! size.

use sae_core::ThreadPolicy;
use sae_dag::EngineConfig;
use sae_workloads::WorkloadKind;

use crate::experiments::ExperimentOutput;
use crate::{run_workload, TextTable};

/// Measured I/O activity for one workload, in GiB.
#[derive(Debug, Clone, Copy)]
pub(crate) struct IoActivity {
    /// Input size in GiB.
    pub input_gib: f64,
    /// Measured disk activity in GiB (reads + writes, incl. replication).
    pub measured_gib: f64,
    /// Table 2's reference value in GiB.
    pub paper_gib: f64,
}

impl IoActivity {
    /// Measured amplification (+x %).
    pub(crate) fn measured_diff_percent(&self) -> f64 {
        (self.measured_gib / self.input_gib - 1.0) * 100.0
    }
}

/// Runs one workload under the default configuration and measures its
/// total disk activity.
pub(crate) fn measure(kind: WorkloadKind) -> IoActivity {
    let cfg = EngineConfig::four_node_hdd();
    let w = kind.build();
    let report = run_workload(&cfg, &w, ThreadPolicy::Default);
    IoActivity {
        input_gib: kind.input_gib(),
        measured_gib: report.total_disk_io_mb() / 1024.0,
        paper_gib: kind.paper_io_activity_gib(),
    }
}

/// Renders Table 2 with paper-vs-measured columns.
pub(crate) fn run() -> ExperimentOutput {
    let mut t = TextTable::new(vec![
        "Application",
        "Input Size",
        "I/O Activity (measured)",
        "Diff.",
        "I/O Activity (paper)",
        "Diff. (paper)",
    ]);
    for kind in WorkloadKind::ALL {
        let a = measure(kind);
        t.row(vec![
            kind.name().to_owned(),
            format!("{:.2} GiB", a.input_gib),
            format!("{:.2} GiB", a.measured_gib),
            format!("+{:.0}%", a.measured_diff_percent()),
            format!("{:.2} GiB", a.paper_gib),
            format!("+{:.0}%", (a.paper_gib / a.input_gib - 1.0) * 100.0),
        ]);
    }
    ExperimentOutput {
        artefact: "Table 2",
        title: "I/O activity of applications relative to their input size",
        body: t.render(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_workload_amplifies_io() {
        for kind in [
            WorkloadKind::Terasort,
            WorkloadKind::PageRank,
            WorkloadKind::NWeight,
        ] {
            let a = measure(kind);
            assert!(
                a.measured_gib > a.input_gib,
                "{}: measured {} <= input {}",
                kind.name(),
                a.measured_gib,
                a.input_gib
            );
        }
    }

    #[test]
    fn nweight_is_most_extreme() {
        // Paper: NWeight amplifies +3553 %, by far the highest ratio.
        let ratios: Vec<(WorkloadKind, f64)> = WorkloadKind::ALL
            .iter()
            .map(|&k| {
                let a = measure(k);
                (k, a.measured_gib / a.input_gib)
            })
            .collect();
        let max = ratios
            .iter()
            .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
            .unwrap();
        assert_eq!(max.0, WorkloadKind::NWeight);
    }
}
