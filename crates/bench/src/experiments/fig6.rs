//! Figure 6: thread counts selected by the dynamic solution, per stage and
//! per executor (Terasort).

use sae_dag::{EngineConfig, JobReport};
use sae_workloads::WorkloadKind;

use crate::experiments::ExperimentOutput;
use crate::{run_workload, TextTable};

/// Runs Terasort adaptively on a cluster with realistic per-node disk
/// variability (the effect Figure 3 measures) and returns the report.
pub(crate) fn adaptive_terasort() -> JobReport {
    let cfg = EngineConfig::four_node_hdd()
        .with_variability(sae_storage::VariabilityConfig::das5())
        .with_seed(2); // includes one slow-disk node
    let w = WorkloadKind::Terasort.build();
    run_workload(&cfg, &w, cfg.adaptive_policy())
}

/// Renders Figure 6.
pub(crate) fn run() -> ExperimentOutput {
    let report = adaptive_terasort();
    let mut header = vec!["stage".to_owned()];
    for e in 0..report.nodes {
        header.push(format!("executor {e}"));
    }
    let mut t = TextTable::new(header);
    for stage in &report.stages {
        let mut row = vec![stage.stage_id.to_string()];
        for e in &stage.executors {
            row.push(format!("{} {:?}", e.final_threads, e.decisions));
        }
        t.row(row);
    }
    let mut body = t.render();
    body.push_str("(cell: final thread count, followed by the decision trace)\n");
    ExperimentOutput {
        artefact: "Figure 6",
        title: "Thread counts selected by the dynamic solution per stage/executor",
        body,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_executor_starts_at_c_min_and_stays_in_bounds() {
        let report = adaptive_terasort();
        for stage in &report.stages {
            for e in &stage.executors {
                assert_eq!(e.decisions[0], 2, "climb starts at c_min");
                for &d in &e.decisions {
                    assert!((2..=32).contains(&d));
                }
            }
        }
    }

    #[test]
    fn selected_counts_differ_from_default() {
        let report = adaptive_terasort();
        let any_tuned = report
            .stages
            .iter()
            .flat_map(|s| &s.executors)
            .any(|e| e.final_threads < 32);
        assert!(any_tuned, "dynamic solution never moved off the default");
    }
}
