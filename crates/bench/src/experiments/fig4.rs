//! Figure 4: the static solution does not help the SQL applications.

use sae_dag::EngineConfig;
use sae_workloads::WorkloadKind;

use crate::experiments::fig2::sweep_with_bestfit;
use crate::experiments::ExperimentOutput;
use crate::TextTable;

fn render(kind: WorkloadKind, body: &mut String) {
    let (sweep, bestfit) = sweep_with_bestfit(&EngineConfig::four_node_hdd(), kind);
    let mut t = TextTable::new(vec![
        "io_threads".to_owned(),
        "runtime (s)".to_owned(),
        "stage 0 (s)".to_owned(),
    ]);
    for (threads, report) in &sweep {
        t.row(vec![
            threads.to_string(),
            format!("{:.1}", report.total_runtime),
            format!("{:.1}", report.stages[0].duration),
        ]);
    }
    t.row(vec![
        "bestfit".to_owned(),
        format!("{:.1}", bestfit.total_runtime),
        format!("{:.1}", bestfit.stages[0].duration),
    ]);
    body.push_str(&format!("{}:\n{}\n", kind.name(), t.render()));
}

/// Renders Figure 4.
pub(crate) fn run() -> ExperimentOutput {
    let mut body = String::new();
    render(WorkloadKind::Aggregation, &mut body);
    render(WorkloadKind::Join, &mut body);
    body.push_str(
        "The scan stages perform additional computation (68% / 46% CPU), so\n\
         throttling threads starves the CPU: the default is optimal.\n",
    );
    ExperimentOutput {
        artefact: "Figure 4",
        title: "Static solution on SQL applications (no benefit, L3)",
        body,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_wins_for_both_sql_workloads() {
        for kind in [WorkloadKind::Aggregation, WorkloadKind::Join] {
            let (sweep, _) = sweep_with_bestfit(&EngineConfig::four_node_hdd(), kind);
            let default = sweep[0].1.total_runtime;
            for (threads, report) in &sweep[1..] {
                assert!(
                    report.total_runtime >= default * 0.97,
                    "{}: {threads} threads beat the default ({} vs {default})",
                    kind.name(),
                    report.total_runtime
                );
            }
        }
    }

    #[test]
    fn throttling_hurts_the_scan_stage_badly() {
        let (sweep, _) = sweep_with_bestfit(&EngineConfig::four_node_hdd(), WorkloadKind::Join);
        let default_s0 = sweep[0].1.stages[0].duration;
        let two_s0 = sweep.last().unwrap().1.stages[0].duration;
        assert!(two_s0 > default_s0 * 2.0, "{two_s0} vs {default_s0}");
    }
}
