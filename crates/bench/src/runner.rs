//! Shared run helpers for the experiments.

use sae_core::{BestFitTable, StaticPolicy, ThreadPolicy};
use sae_dag::{Engine, EngineConfig, JobReport};
use sae_workloads::Workload;

use crate::parallel::{par_map_indexed, par_map_slice};

/// The thread counts the paper sweeps in Figures 2, 4, 5, 10.
pub(crate) const SWEEP_THREADS: [usize; 5] = [32, 16, 8, 4, 2];

/// Runs `workload` under `policy` on `config` (with the workload's engine
/// requirements applied) and returns the report.
pub fn run_workload(config: &EngineConfig, workload: &Workload, policy: ThreadPolicy) -> JobReport {
    let cfg = workload.configure(config.clone());
    Engine::new(cfg, policy).run(&workload.job)
}

/// Shorthand: run with one of the named comparison policies of Figure 8.
#[derive(Debug, Clone, PartialEq)]
pub struct PolicyRun {
    /// Policy name (`"default"`, `"static-bestfit"`, `"dynamic"`, ...).
    pub policy: String,
    /// The run's report.
    pub report: JobReport,
}

/// Runs default / static-bestfit / dynamic for a workload — the three bars
/// of each Figure 8 panel. The best-fit table is derived by sweeping every
/// stage (the "hypothetical best combination", §6.1).
pub fn run_policy(config: &EngineConfig, workload: &Workload) -> Vec<PolicyRun> {
    // The sweep behind the best-fit table runs first (parallel inside);
    // the three head-to-head runs are independent of each other and fan
    // out too.
    let bestfit_table = derive_bestfit(config, workload);
    let names = ["default", "static-bestfit", "dynamic"];
    let reports = par_map_indexed(names.len(), |i| {
        let policy = match i {
            0 => ThreadPolicy::Default,
            1 => ThreadPolicy::BestFit(bestfit_table.clone()),
            _ => config.adaptive_policy(),
        };
        run_workload(config, workload, policy)
    });
    names
        .iter()
        .zip(reports)
        .map(|(name, report)| PolicyRun {
            policy: (*name).into(),
            report,
        })
        .collect()
}

/// One point of a static sweep: a fixed thread count applied to the I/O
/// stages (Figures 2 and 4) and the resulting runtime plus per-stage data.
#[derive(Debug, Clone, PartialEq)]
pub struct StaticSweepPoint {
    /// Thread count for I/O stages (`None` = default in all stages).
    pub io_threads: Option<usize>,
    /// The run's report.
    pub report: JobReport,
}

/// Sweeps the static solution over `SWEEP_THREADS`, plus the default.
pub fn static_sweep(config: &EngineConfig, workload: &Workload) -> Vec<StaticSweepPoint> {
    par_map_slice(&SWEEP_THREADS, |&threads| {
        let policy = if threads == config.node_spec.cores {
            ThreadPolicy::Default
        } else {
            ThreadPolicy::Static(StaticPolicy::new(threads))
        };
        StaticSweepPoint {
            io_threads: Some(threads),
            report: run_workload(config, workload, policy),
        }
    })
}

/// Runs `workload` with *every* stage pinned to `threads` per executor
/// (used for the whole-stage measurements behind Figures 5, 7 and 12).
pub(crate) fn fixed_thread_run(
    config: &EngineConfig,
    workload: &Workload,
    threads: usize,
) -> JobReport {
    let table: BestFitTable = (0..workload.job.stages.len())
        .map(|s| (s, threads))
        .collect();
    run_workload(config, workload, ThreadPolicy::BestFit(table))
}

/// Derives the per-stage BestFit table of the *static* solution: for every
/// stage the static tagger marks I/O, the thread count (from the sweep
/// grid) minimising that stage's duration. Generic stages stay at the
/// default — the static solution cannot reach them (limitation L2), which
/// is exactly why the dynamic solution wins on PageRank (Figure 8b).
pub fn derive_bestfit(config: &EngineConfig, workload: &Workload) -> BestFitTable {
    let stages = workload.job.stages.len();
    // One run per candidate count with the I/O stages pinned to it (the
    // runs are independent and fan out), then pick per-stage minima in
    // sweep order — stages are barriers, so per-stage timings compose.
    let reports = par_map_slice(&SWEEP_THREADS, |&threads| {
        run_workload(
            config,
            workload,
            ThreadPolicy::Static(StaticPolicy::new(threads)),
        )
    });
    let mut best: Vec<(usize, f64)> = vec![(config.node_spec.cores, f64::INFINITY); stages];
    for (&threads, report) in SWEEP_THREADS.iter().zip(&reports) {
        for (s, stage) in report.stages.iter().enumerate() {
            if stage.duration < best[s].1 {
                best[s] = (threads, stage.duration);
            }
        }
    }
    best.iter()
        .enumerate()
        .filter(|(s, _)| workload.job.stages[*s].kind() == sae_core::StageKind::Io)
        .map(|(s, &(t, _))| (s, t))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sae_workloads::WorkloadKind;

    fn tiny_terasort() -> Workload {
        WorkloadKind::Terasort.build_scaled(0.05)
    }

    #[test]
    fn static_sweep_covers_grid() {
        let cfg = EngineConfig::four_node_hdd();
        let points = static_sweep(&cfg, &tiny_terasort());
        assert_eq!(points.len(), SWEEP_THREADS.len());
        for p in &points {
            assert!(p.report.total_runtime > 0.0);
        }
    }

    #[test]
    fn bestfit_table_has_entry_per_stage() {
        let cfg = EngineConfig::four_node_hdd();
        let table = derive_bestfit(&cfg, &tiny_terasort());
        assert_eq!(table.len(), 3);
    }

    #[test]
    fn policy_comparison_produces_three_runs() {
        let cfg = EngineConfig::four_node_hdd();
        let runs = run_policy(&cfg, &tiny_terasort());
        assert_eq!(runs.len(), 3);
        assert_eq!(runs[0].policy, "default");
        assert_eq!(runs[2].policy, "dynamic");
    }
}
