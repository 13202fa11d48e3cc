//! Figure 1: I/O wait and CPU usage of different stages of applications.

use sae_core::ThreadPolicy;
use sae_dag::EngineConfig;
use sae_workloads::WorkloadKind;

use crate::experiments::ExperimentOutput;
use crate::{run_workload, TextTable};

/// The applications shown in Figure 1.
pub(crate) const APPS: [WorkloadKind; 4] = [
    WorkloadKind::Aggregation,
    WorkloadKind::Join,
    WorkloadKind::PageRank,
    WorkloadKind::Terasort,
];

/// Per-stage CPU% and disk-iowait% under the default configuration.
pub(crate) fn stage_utilisation(kind: WorkloadKind) -> Vec<(String, f64, f64, f64)> {
    let cfg = EngineConfig::four_node_hdd();
    let w = kind.build();
    let report = run_workload(&cfg, &w, ThreadPolicy::Default);
    report
        .stages
        .iter()
        .map(|s| {
            (
                s.name.clone(),
                s.avg_cpu_busy * 100.0,
                s.avg_cpu_iowait * 100.0,
                s.duration,
            )
        })
        .collect()
}

/// Renders Figure 1, plus mpstat/iostat-style views for Terasort (the
/// tools the paper collected this data with).
pub(crate) fn run() -> ExperimentOutput {
    let mut t = TextTable::new(vec![
        "app",
        "stage",
        "cpu %",
        "disk iowait %",
        "duration (s)",
    ]);
    for kind in APPS {
        for (name, cpu, iowait, dur) in stage_utilisation(kind) {
            t.row(vec![
                kind.name().to_owned(),
                name,
                format!("{cpu:.0}"),
                format!("{iowait:.0}"),
                format!("{dur:.1}"),
            ]);
        }
    }
    let mut body = t.render();
    // The raw tool views, as the paper's cluster operators would see them.
    let cfg = EngineConfig::four_node_hdd();
    let w = WorkloadKind::Terasort.build();
    let report = run_workload(&cfg, &w, ThreadPolicy::Default);
    body.push_str("\nterasort, mpstat view:\n");
    body.push_str("stage      %usr  %iowait  %idle\n");
    for s in &report.stages {
        let usr = s.avg_cpu_busy.clamp(0.0, 1.0) * 100.0;
        let iowait = s.avg_cpu_iowait.clamp(0.0, 1.0) * 100.0;
        let idle = (100.0 - usr - iowait).max(0.0);
        body.push_str(&format!(
            "stage-{:<4} {:>5.1} {:>8.1} {:>6.1}\n",
            s.stage_id, usr, iowait, idle
        ));
    }
    body.push_str("\nterasort, iostat view (MB columns):\n");
    body.push_str("stage      rMB/s   wMB/s   %util\n");
    for s in &report.stages {
        // Whole MB, as the tool prints them, over the stage's duration.
        let dur = s.duration.max(1e-9);
        body.push_str(&format!(
            "stage-{:<4} {:>6.1} {:>7.1} {:>7.1}\n",
            s.stage_id,
            (s.disk_read_mb as u64) as f64 / dur,
            (s.disk_write_mb as u64) as f64 / dur,
            s.avg_disk_util.clamp(0.0, 1.0) * 100.0,
        ));
    }
    ExperimentOutput {
        artefact: "Figure 1",
        title: "Per-stage CPU usage and disk I/O wait (default configuration)",
        body,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn terasort_is_io_bound_everywhere() {
        // Paper: Terasort stage CPU usage is 6/15/9 % — never above ~20 %.
        for (name, cpu, iowait, _) in stage_utilisation(WorkloadKind::Terasort) {
            assert!(cpu < 25.0, "stage {name}: cpu {cpu}");
            assert!(iowait > 50.0, "stage {name}: iowait {iowait}");
        }
    }

    #[test]
    fn sql_scan_stages_are_cpu_heavy() {
        // Paper: Join stage 0 at 68 %, Aggregation stage 0 at 46 %.
        let join = stage_utilisation(WorkloadKind::Join);
        assert!(join[0].1 > 40.0, "join scan cpu {}", join[0].1);
        let agg = stage_utilisation(WorkloadKind::Aggregation);
        assert!(agg[0].1 > 30.0, "agg scan cpu {}", agg[0].1);
    }
}
