//! Figure 7: effect of the thread count on epoll wait time, I/O throughput
//! and the congestion index (Terasort, per stage).

use sae_dag::EngineConfig;
use sae_workloads::WorkloadKind;

use crate::experiments::ExperimentOutput;
use crate::{fixed_thread_run, TextTable};

/// One whole-stage measurement at a fixed thread count (executor 0, as in
/// the paper's "one of the executors").
#[derive(Debug, Clone, Copy)]
pub(crate) struct StagePoint {
    /// Threads per executor.
    pub threads: usize,
    /// Accumulated epoll wait `ε` in seconds.
    pub epoll_wait: f64,
    /// I/O throughput `µ` in MB/s.
    pub throughput: f64,
    /// Congestion index `ζ = ε/µ`.
    pub zeta: f64,
}

/// Sweeps the thread counts of Figure 7 for one Terasort stage.
pub(crate) fn stage_sweep(stage: usize) -> Vec<StagePoint> {
    let cfg = EngineConfig::four_node_hdd();
    let w = WorkloadKind::Terasort.build();
    [2usize, 4, 8, 16, 32]
        .iter()
        .map(|&threads| {
            let report = fixed_thread_run(&cfg, &w, threads);
            let st = &report.stages[stage];
            let e = &st.executors[0];
            let throughput = e.io_bytes / st.duration;
            StagePoint {
                threads,
                epoll_wait: e.epoll_wait,
                throughput,
                zeta: if throughput > 0.0 {
                    e.epoll_wait / throughput
                } else {
                    0.0
                },
            }
        })
        .collect()
}

/// The thread count minimising ζ in a sweep.
pub(crate) fn selected(sweep: &[StagePoint]) -> usize {
    sweep
        .iter()
        .min_by(|a, b| a.zeta.partial_cmp(&b.zeta).unwrap())
        .expect("non-empty sweep")
        .threads
}

/// Renders Figure 7.
pub(crate) fn run() -> ExperimentOutput {
    let mut body = String::new();
    for stage in 0..3 {
        let sweep = stage_sweep(stage);
        let pick = selected(&sweep);
        let mut t = TextTable::new(vec![
            "threads",
            "epoll wait (s)",
            "I/O throughput (MB/s)",
            "congestion index",
        ]);
        for p in &sweep {
            let marker = if p.threads == pick {
                " <- selected"
            } else {
                ""
            };
            t.row(vec![
                p.threads.to_string(),
                format!("{:.1}", p.epoll_wait),
                format!("{:.1}", p.throughput),
                format!("{:.4}{marker}", p.zeta),
            ]);
        }
        body.push_str(&format!(
            "Terasort stage {stage} (executor 0):\n{}\n",
            t.render()
        ));
    }
    ExperimentOutput {
        artefact: "Figure 7",
        title: "ε, µ and ζ vs thread count (Terasort stages, one executor)",
        body,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoll_wait_grows_with_thread_count() {
        for stage in 0..3 {
            let sweep = stage_sweep(stage);
            assert!(
                sweep.last().unwrap().epoll_wait > sweep[0].epoll_wait,
                "stage {stage}: ε must grow from 2 to 32 threads"
            );
        }
    }

    #[test]
    fn throughput_peaks_at_interior_count() {
        for stage in 0..3 {
            let sweep = stage_sweep(stage);
            let peak = sweep
                .iter()
                .max_by(|a, b| a.throughput.partial_cmp(&b.throughput).unwrap())
                .unwrap()
                .threads;
            assert!(
                (4..=16).contains(&peak),
                "stage {stage}: µ peak at {peak} threads"
            );
        }
    }

    #[test]
    fn zeta_minimum_is_interior() {
        for stage in 0..3 {
            let sweep = stage_sweep(stage);
            let pick = selected(&sweep);
            assert!(
                (4..=16).contains(&pick),
                "stage {stage}: ζ minimum at {pick}"
            );
        }
    }

    #[test]
    fn zeta_selection_tracks_fast_stage_times() {
        // The ζ-selected count should be close in runtime to the sweep's
        // true best (within 25%).
        let cfg = sae_dag::EngineConfig::four_node_hdd();
        let w = sae_workloads::WorkloadKind::Terasort.build();
        for stage in 0..3 {
            let sweep = stage_sweep(stage);
            let pick = selected(&sweep);
            let times: Vec<(usize, f64)> = [2usize, 4, 8, 16, 32]
                .iter()
                .map(|&t| {
                    let r = crate::fixed_thread_run(&cfg, &w, t);
                    (t, r.stages[stage].duration)
                })
                .collect();
            let best = times.iter().map(|t| t.1).fold(f64::INFINITY, f64::min);
            let picked = times.iter().find(|t| t.0 == pick).unwrap().1;
            assert!(
                picked <= best * 1.25,
                "stage {stage}: picked {pick} ({picked:.1}s) vs best {best:.1}s"
            );
        }
    }
}
