//! Figure 12: I/O throughput over time for Terasort with HDDs and SSDs.

use sae_dag::EngineConfig;
use sae_workloads::WorkloadKind;

use crate::experiments::ExperimentOutput;
use crate::{fixed_thread_run, TextTable};

/// One throughput series: cluster-aggregate disk MB/s samples of a stage.
#[derive(Debug, Clone)]
pub(crate) struct ThroughputSeries {
    /// Threads per executor.
    pub threads: usize,
    /// `(t, MB/s)` samples relative to stage start.
    pub samples: Vec<(f64, f64)>,
}

impl ThroughputSeries {
    /// Mean throughput over the stage.
    pub(crate) fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples.iter().map(|s| s.1).sum::<f64>() / self.samples.len() as f64
    }
}

/// Collects the throughput series of `stage` for each thread count.
pub(crate) fn series(cfg: &EngineConfig, stage: usize) -> Vec<ThroughputSeries> {
    let w = WorkloadKind::Terasort.build();
    [32usize, 16, 8, 4, 2]
        .iter()
        .map(|&threads| {
            let report = fixed_thread_run(cfg, &w, threads);
            ThroughputSeries {
                threads,
                samples: report.stages[stage].disk_throughput_series.clone(),
            }
        })
        .collect()
}

fn render(label: &str, cfg: &EngineConfig, stage: usize, body: &mut String) {
    let all = series(cfg, stage);
    let mut t = TextTable::new(vec![
        "threads".to_owned(),
        "mean (MB/s)".to_owned(),
        "duration (s)".to_owned(),
        "first samples (MB/s)".to_owned(),
    ]);
    for s in &all {
        let preview: Vec<String> = s
            .samples
            .iter()
            .take(6)
            .map(|(_, v)| format!("{v:.0}"))
            .collect();
        let duration = s.samples.last().map_or(0.0, |p| p.0);
        t.row(vec![
            s.threads.to_string(),
            format!("{:.1}", s.mean()),
            format!("{duration:.0}"),
            preview.join(" "),
        ]);
    }
    body.push_str(&format!("Stage {stage}, {label}:\n{}\n", t.render()));
}

/// Renders Figure 12.
pub(crate) fn run() -> ExperimentOutput {
    let hdd = EngineConfig::four_node_hdd();
    let ssd = EngineConfig::four_node_ssd();
    let mut body = String::new();
    render("HDD", &hdd, 0, &mut body);
    render("SSD", &ssd, 0, &mut body);
    render("HDD", &hdd, 1, &mut body);
    render("SSD", &ssd, 1, &mut body);
    ExperimentOutput {
        artefact: "Figure 12",
        title: "I/O throughput over time per thread count (Terasort, HDD vs SSD)",
        body,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hdd_stage0_mean_varies_strongly_with_threads() {
        // Paper: "with HDD the mean throughput varies quite significantly
        // between different settings".
        let all = series(&EngineConfig::four_node_hdd(), 0);
        let means: Vec<f64> = all.iter().map(ThroughputSeries::mean).collect();
        let max = means.iter().cloned().fold(0.0, f64::max);
        let min = means.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(max / min > 1.5, "HDD spread {min:.0}..{max:.0}");
    }

    #[test]
    fn ssd_throughput_higher_than_hdd() {
        let hdd = series(&EngineConfig::four_node_hdd(), 1);
        let ssd = series(&EngineConfig::four_node_ssd(), 1);
        // Compare at the default setting (index 0 = 32 threads).
        assert!(ssd[0].mean() > hdd[0].mean());
    }

    #[test]
    fn series_are_nonempty_for_long_stages() {
        let all = series(&EngineConfig::four_node_hdd(), 0);
        for s in &all {
            assert!(
                s.samples.len() > 10,
                "{} threads: only {} samples",
                s.threads,
                s.samples.len()
            );
        }
    }
}
