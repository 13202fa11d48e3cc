//! Figure 8: performance of the dynamic solution compared to the default
//! and the static BestFit.

use sae_dag::EngineConfig;
use sae_workloads::WorkloadKind;

use crate::experiments::ExperimentOutput;
use crate::{run_policy, PolicyRun, TextTable};

/// The four panels of Figure 8.
pub(crate) const APPS: [WorkloadKind; 4] = [
    WorkloadKind::Terasort,
    WorkloadKind::PageRank,
    WorkloadKind::Aggregation,
    WorkloadKind::Join,
];

/// Runs the three-policy comparison for one workload.
pub(crate) fn compare(kind: WorkloadKind) -> Vec<PolicyRun> {
    let cfg = EngineConfig::four_node_hdd();
    let w = kind.build();
    run_policy(&cfg, &w)
}

/// Percentage runtime reduction of `candidate` vs `reference`.
pub(crate) fn reduction(reference: f64, candidate: f64) -> f64 {
    (1.0 - candidate / reference) * 100.0
}

fn render(kind: WorkloadKind, body: &mut String) {
    let runs = compare(kind);
    let stages = runs[0].report.stages.len();
    let mut header = vec![
        "policy".to_owned(),
        "runtime (s)".to_owned(),
        "vs default".to_owned(),
    ];
    for s in 0..stages {
        header.push(format!("s{s} threads"));
    }
    let default = runs[0].report.total_runtime;
    let mut t = TextTable::new(header);
    for run in &runs {
        let mut row = vec![
            run.policy.clone(),
            format!("{:.1}", run.report.total_runtime),
            format!("{:+.1}%", -reduction(default, run.report.total_runtime)),
        ];
        for stage in &run.report.stages {
            row.push(format!("{}/{}", stage.threads_used, run.report.total_cores));
        }
        t.row(row);
    }
    body.push_str(&format!("{}:\n{}\n", kind.name(), t.render()));
}

/// Renders Figure 8.
pub(crate) fn run() -> ExperimentOutput {
    let mut body = String::new();
    for kind in APPS {
        render(kind, &mut body);
    }
    ExperimentOutput {
        artefact: "Figure 8",
        title: "Default vs static BestFit vs dynamic (runtime and per-stage threads)",
        body,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn runtimes(kind: WorkloadKind) -> (f64, f64, f64) {
        let runs = compare(kind);
        (
            runs[0].report.total_runtime,
            runs[1].report.total_runtime,
            runs[2].report.total_runtime,
        )
    }

    #[test]
    fn terasort_bestfit_beats_dynamic_beats_default() {
        // Paper: -47.5 % (bestfit) and -34.4 % (dynamic): the dynamic
        // approach pays for exploration in all-I/O jobs.
        let (default, bestfit, dynamic) = runtimes(WorkloadKind::Terasort);
        let bf = reduction(default, bestfit);
        let dy = reduction(default, dynamic);
        assert!((30.0..70.0).contains(&bf), "bestfit {bf:.1}%");
        assert!((20.0..60.0).contains(&dy), "dynamic {dy:.1}%");
        assert!(bestfit < dynamic, "bestfit must win on Terasort");
    }

    #[test]
    fn pagerank_dynamic_beats_bestfit() {
        // Paper: dynamic -54.1 % vs default and -45.2 % vs bestfit, because
        // only the dynamic solution reaches the shuffle stages.
        let (default, bestfit, dynamic) = runtimes(WorkloadKind::PageRank);
        let bf = reduction(default, bestfit);
        let dy = reduction(default, dynamic);
        assert!((5.0..30.0).contains(&bf), "bestfit {bf:.1}%");
        assert!((25.0..65.0).contains(&dy), "dynamic {dy:.1}%");
        assert!(dynamic < bestfit, "dynamic must win on PageRank");
    }

    #[test]
    fn sql_gains_are_small() {
        // Paper: +6.83 % (Aggregation) and +2.54 % (Join) for the dynamic
        // solution; static shows no benefit.
        let (default, bestfit, dynamic) = runtimes(WorkloadKind::Aggregation);
        assert!(reduction(default, bestfit).abs() < 10.0);
        let dy = reduction(default, dynamic);
        assert!((-10.0..35.0).contains(&dy), "aggregation dynamic {dy:.1}%");

        let (default, bestfit, dynamic) = runtimes(WorkloadKind::Join);
        assert!(reduction(default, bestfit).abs() < 10.0);
        let dy = reduction(default, dynamic);
        assert!(dy.abs() < 15.0, "join dynamic {dy:.1}%");
    }

    #[test]
    fn dynamic_reports_tuned_thread_counts() {
        let runs = compare(WorkloadKind::PageRank);
        let dynamic = &runs[2].report;
        // At least the heavy shuffle stages end below the default.
        let tuned_stages = dynamic
            .stages
            .iter()
            .filter(|s| s.threads_used < dynamic.total_cores)
            .count();
        assert!(tuned_stages >= 3, "only {tuned_stages} stages tuned");
    }
}
