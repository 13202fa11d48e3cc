//! Figure 11: the dynamic solution on SSDs (Terasort).

use sae_dag::EngineConfig;
use sae_workloads::WorkloadKind;

use crate::experiments::ExperimentOutput;
use crate::{run_policy, PolicyRun, TextTable};

/// Default / static-bestfit / dynamic on the SSD configuration.
pub(crate) fn compare_ssd() -> Vec<PolicyRun> {
    let cfg = EngineConfig::four_node_ssd();
    let w = WorkloadKind::Terasort.build();
    run_policy(&cfg, &w)
}

/// Renders Figure 11.
pub(crate) fn run() -> ExperimentOutput {
    let runs = compare_ssd();
    let default = runs[0].report.total_runtime;
    let mut t = TextTable::new(vec![
        "policy".to_owned(),
        "runtime (s)".to_owned(),
        "vs default".to_owned(),
        "s0 threads".to_owned(),
        "s1 threads".to_owned(),
        "s2 threads".to_owned(),
    ]);
    for run in &runs {
        let mut row = vec![
            run.policy.clone(),
            format!("{:.1}", run.report.total_runtime),
            format!(
                "{:+.1}%",
                (run.report.total_runtime / default - 1.0) * 100.0
            ),
        ];
        for stage in &run.report.stages {
            row.push(format!("{}/{}", stage.threads_used, run.report.total_cores));
        }
        t.row(row);
    }
    ExperimentOutput {
        artefact: "Figure 11",
        title: "Dynamic solution on SSDs (Terasort)",
        body: t.render(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dynamic_keeps_high_parallelism_in_the_read_stage() {
        // Paper Figure 11: stage 0 runs at 128/128 under the dynamic
        // solution on SSDs — no read contention to avoid. Our reproduction
        // settles at or just below the default (the ζ signal is
        // latency-weighted), but never throttles reads the way it does on
        // HDDs (32/128).
        let runs = compare_ssd();
        let dynamic = &runs[2].report;
        assert!(
            dynamic.stages[0].threads_used * 2 >= dynamic.total_cores,
            "SSD read stage should stay at high parallelism, got {}/{}",
            dynamic.stages[0].threads_used,
            dynamic.total_cores
        );
    }

    #[test]
    fn ssd_gains_smaller_than_hdd_gains() {
        // Paper: dynamic gains 16.73 % on SSD vs 34.4 % on HDD.
        let ssd = compare_ssd();
        let ssd_gain = 1.0 - ssd[2].report.total_runtime / ssd[0].report.total_runtime;
        let hdd = crate::experiments::fig8::compare(WorkloadKind::Terasort);
        let hdd_gain = 1.0 - hdd[2].report.total_runtime / hdd[0].report.total_runtime;
        assert!(
            ssd_gain < hdd_gain,
            "SSD gain {ssd_gain:.2} must be below HDD gain {hdd_gain:.2}"
        );
    }
}
