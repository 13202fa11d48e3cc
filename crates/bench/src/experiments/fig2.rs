//! Figure 2: the runtime effect of the static solution on Terasort and
//! PageRank.

use sae_core::ThreadPolicy;
use sae_dag::{EngineConfig, JobReport};
use sae_workloads::WorkloadKind;

use crate::experiments::ExperimentOutput;
use crate::{derive_bestfit, run_workload, static_sweep, TextTable};

/// The full sweep for one workload on `cfg`, plus the BestFit combination
/// run.
pub(crate) fn sweep_with_bestfit(
    cfg: &EngineConfig,
    kind: WorkloadKind,
) -> (Vec<(usize, JobReport)>, JobReport) {
    let w = kind.build();
    let sweep = static_sweep(cfg, &w)
        .into_iter()
        .map(|p| (p.io_threads.unwrap_or(32), p.report))
        .collect();
    let table = derive_bestfit(cfg, &w);
    let bestfit = run_workload(cfg, &w, ThreadPolicy::BestFit(table));
    (sweep, bestfit)
}

fn render(cfg: &EngineConfig, kind: WorkloadKind, body: &mut String) {
    let (sweep, bestfit) = sweep_with_bestfit(cfg, kind);
    let stages = sweep[0].1.stages.len();
    let mut header = vec!["io_threads".to_owned(), "runtime (s)".to_owned()];
    for s in 0..stages {
        header.push(format!("stage {s} (s)"));
    }
    let mut t = TextTable::new(header);
    for (threads, report) in &sweep {
        let mut row = vec![threads.to_string(), format!("{:.1}", report.total_runtime)];
        for stage in &report.stages {
            row.push(format!("{:.1}", stage.duration));
        }
        t.row(row);
    }
    let mut row = vec![
        "bestfit".to_owned(),
        format!("{:.1}", bestfit.total_runtime),
    ];
    for stage in &bestfit.stages {
        row.push(format!("{:.1}", stage.duration));
    }
    t.row(row);
    body.push_str(&format!("{}:\n", kind.name()));
    body.push_str(&t.render());
    let default = sweep[0].1.total_runtime;
    let best = sweep
        .iter()
        .map(|(_, r)| r.total_runtime)
        .fold(f64::INFINITY, f64::min);
    body.push_str(&format!(
        "best static vs default: -{:.1}%   bestfit vs default: -{:.1}%\n\n",
        (1.0 - best / default) * 100.0,
        (1.0 - bestfit.total_runtime / default) * 100.0,
    ));
}

/// Renders Figure 2 on the paper's cluster.
pub fn run() -> ExperimentOutput {
    run_with(&EngineConfig::four_node_hdd())
}

/// Renders Figure 2 on `cfg`.
pub fn run_with(cfg: &EngineConfig) -> ExperimentOutput {
    let mut body = String::new();
    render(cfg, WorkloadKind::Terasort, &mut body);
    render(cfg, WorkloadKind::PageRank, &mut body);
    ExperimentOutput {
        artefact: "Figure 2",
        title: "Runtime effect of the static solution on Terasort and PageRank",
        body,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn terasort_has_interior_optimum() {
        let (sweep, bestfit) =
            sweep_with_bestfit(&EngineConfig::four_node_hdd(), WorkloadKind::Terasort);
        let default = sweep[0].1.total_runtime;
        let best = sweep
            .iter()
            .map(|(_, r)| r.total_runtime)
            .fold(f64::INFINITY, f64::min);
        // Paper: 39.35 % reduction at the best static setting.
        let gain = 1.0 - best / default;
        assert!(
            (0.25..0.70).contains(&gain),
            "terasort static gain {gain:.2} out of band"
        );
        // BestFit is at least as good as any single setting.
        assert!(bestfit.total_runtime <= best * 1.05);
        // 2 threads is NOT the optimum (interior peak).
        let two = sweep.last().unwrap();
        assert_eq!(two.0, 2);
        assert!(two.1.total_runtime > best * 1.2);
    }

    #[test]
    fn pagerank_static_gain_is_modest() {
        // Paper: 19.02 % at the best static setting — far below Terasort,
        // because static tuning cannot reach the shuffle stages (L2).
        let (sweep, _) = sweep_with_bestfit(&EngineConfig::four_node_hdd(), WorkloadKind::PageRank);
        let default = sweep[0].1.total_runtime;
        let best = sweep
            .iter()
            .map(|(_, r)| r.total_runtime)
            .fold(f64::INFINITY, f64::min);
        let gain = 1.0 - best / default;
        assert!((0.05..0.35).contains(&gain), "pagerank gain {gain:.2}");
    }

    #[test]
    fn pagerank_shuffle_stages_unaffected_by_static_sweep() {
        let (sweep, _) = sweep_with_bestfit(&EngineConfig::four_node_hdd(), WorkloadKind::PageRank);
        // Middle stages (1..=4) keep the same duration across the sweep.
        let reference: Vec<f64> = sweep[0].1.stages[1..5].iter().map(|s| s.duration).collect();
        for (_, report) in &sweep[1..] {
            for (i, stage) in report.stages[1..5].iter().enumerate() {
                assert!(
                    (stage.duration - reference[i]).abs() < 1e-6,
                    "static sweep must not touch generic stages"
                );
            }
        }
    }
}
