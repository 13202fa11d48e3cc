//! Figure 5: average disk utilisation across thread counts in the I/O
//! stages of different applications.

use sae_dag::EngineConfig;
use sae_workloads::WorkloadKind;

use crate::experiments::ExperimentOutput;
use crate::{fixed_thread_run, TextTable, SWEEP_THREADS};

/// The panels of Figure 5: `(workload, stage index)`.
pub(crate) const PANELS: [(WorkloadKind, usize); 6] = [
    (WorkloadKind::Terasort, 0),
    (WorkloadKind::Terasort, 1),
    (WorkloadKind::Terasort, 2),
    (WorkloadKind::PageRank, 0),
    (WorkloadKind::Aggregation, 0),
    (WorkloadKind::Join, 0),
];

/// Average disk utilisation (%) of `stage` for each sweep thread count.
pub(crate) fn utilisation_sweep(kind: WorkloadKind, stage: usize) -> Vec<(usize, f64)> {
    let cfg = EngineConfig::four_node_hdd();
    let w = kind.build();
    SWEEP_THREADS
        .iter()
        .map(|&threads| {
            let report = fixed_thread_run(&cfg, &w, threads);
            (threads, report.stages[stage].avg_disk_util * 100.0)
        })
        .collect()
}

/// Renders Figure 5.
pub(crate) fn run() -> ExperimentOutput {
    let mut body = String::new();
    for (kind, stage) in PANELS {
        let sweep = utilisation_sweep(kind, stage);
        let peak = sweep
            .iter()
            .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
            .unwrap()
            .0;
        let mut t = TextTable::new(vec!["threads", "avg disk util %"]);
        for (threads, util) in &sweep {
            let marker = if *threads == peak { " <- highest" } else { "" };
            t.row(vec![threads.to_string(), format!("{util:.1}{marker}")]);
        }
        body.push_str(&format!(
            "{}, stage {stage}:\n{}\n",
            kind.name(),
            t.render()
        ));
    }
    ExperimentOutput {
        artefact: "Figure 5",
        title: "Average disk utilisation per thread count (I/O stages)",
        body,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn terasort_io_stage_utilisation_peaks_at_interior_count() {
        let sweep = utilisation_sweep(WorkloadKind::Terasort, 2);
        let peak = sweep
            .iter()
            .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
            .unwrap()
            .0;
        assert!(
            (4..=16).contains(&peak),
            "expected interior utilisation peak, got {peak}"
        );
    }

    #[test]
    fn sql_scan_utilisation_drops_with_fewer_threads() {
        // Paper: "disk utilization in the read stage is significantly lower
        // when fewer threads are used" for Aggregation and Join.
        for kind in [WorkloadKind::Aggregation, WorkloadKind::Join] {
            let sweep = utilisation_sweep(kind, 0);
            let at_32 = sweep[0].1;
            let at_2 = sweep.last().unwrap().1;
            assert!(
                at_2 < at_32 * 0.8,
                "{}: util at 2 threads ({at_2:.1}) not much below 32 ({at_32:.1})",
                kind.name()
            );
        }
    }
}
