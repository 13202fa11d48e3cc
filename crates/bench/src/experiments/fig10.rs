//! Figure 10: effect of HDDs vs SSDs on the static solution (Terasort).

use sae_dag::{EngineConfig, JobReport};
use sae_workloads::WorkloadKind;

use crate::experiments::ExperimentOutput;
use crate::{static_sweep, TextTable};

/// Static sweep on the given device config.
pub(crate) fn device_sweep(cfg: &EngineConfig) -> Vec<(usize, JobReport)> {
    let w = WorkloadKind::Terasort.build();
    static_sweep(cfg, &w)
        .into_iter()
        .map(|p| (p.io_threads.unwrap_or(32), p.report))
        .collect()
}

/// Per-stage best thread count from a sweep.
pub(crate) fn per_stage_best(sweep: &[(usize, JobReport)]) -> Vec<usize> {
    let stages = sweep[0].1.stages.len();
    (0..stages)
        .map(|s| {
            sweep
                .iter()
                .min_by(|a, b| {
                    a.1.stages[s]
                        .duration
                        .partial_cmp(&b.1.stages[s].duration)
                        .unwrap()
                })
                .unwrap()
                .0
        })
        .collect()
}

fn render(label: &str, cfg: &EngineConfig, body: &mut String) {
    let sweep = device_sweep(cfg);
    let mut t = TextTable::new(vec![
        "io_threads".to_owned(),
        "runtime (s)".to_owned(),
        "s0 (s)".to_owned(),
        "s1 (s)".to_owned(),
        "s2 (s)".to_owned(),
    ]);
    for (threads, report) in &sweep {
        t.row(vec![
            threads.to_string(),
            format!("{:.1}", report.total_runtime),
            format!("{:.1}", report.stages[0].duration),
            format!("{:.1}", report.stages[1].duration),
            format!("{:.1}", report.stages[2].duration),
        ]);
    }
    body.push_str(&format!(
        "{label}:\n{}per-stage best: {:?}\n\n",
        t.render(),
        per_stage_best(&sweep)
    ));
}

/// Renders Figure 10.
pub(crate) fn run() -> ExperimentOutput {
    let mut body = String::new();
    render("HDD", &EngineConfig::four_node_hdd(), &mut body);
    render("SSD", &EngineConfig::four_node_ssd(), &mut body);
    ExperimentOutput {
        artefact: "Figure 10",
        title: "Static solution on HDD vs SSD (Terasort)",
        body,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ssd_read_stage_prefers_the_default() {
        // Paper §6.3: "the first stage ... the default number of threads
        // (32) performs best for SSD unlike the HDD version".
        let sweep = device_sweep(&EngineConfig::four_node_ssd());
        let best = per_stage_best(&sweep);
        assert_eq!(best[0], 32, "SSD stage 0 best: {best:?}");
    }

    #[test]
    fn hdd_read_stage_prefers_few_threads() {
        let sweep = device_sweep(&EngineConfig::four_node_hdd());
        let best = per_stage_best(&sweep);
        assert!(best[0] <= 16, "HDD stage 0 best: {best:?}");
    }

    #[test]
    fn ssd_write_stage_prefers_fewer_than_default() {
        // Erase-block overhead: the mixed/write stages peak below 32.
        let sweep = device_sweep(&EngineConfig::four_node_ssd());
        let best = per_stage_best(&sweep);
        assert!(best[2] < 32, "SSD stage 2 best: {best:?}");
    }

    #[test]
    fn static_gain_smaller_on_ssd() {
        // Paper: 20.23 % (SSD) vs 47.48 % (HDD).
        let gain = |cfg: &EngineConfig| {
            let sweep = device_sweep(cfg);
            let default = sweep[0].1.total_runtime;
            let best = sweep
                .iter()
                .map(|(_, r)| r.total_runtime)
                .fold(f64::INFINITY, f64::min);
            1.0 - best / default
        };
        let hdd = gain(&EngineConfig::four_node_hdd());
        let ssd = gain(&EngineConfig::four_node_ssd());
        assert!(
            ssd < hdd,
            "SSD gain {ssd:.2} must be below HDD gain {hdd:.2}"
        );
    }
}
