//! Calibration probe (not a paper artefact): prints the static sweep for a
//! workload so model constants can be tuned.

use sae_dag::EngineConfig;
use sae_workloads::WorkloadKind;

use crate::{static_sweep, TextTable};

/// Runs the probe and returns the rendered table.
pub fn run(kind: WorkloadKind, scale: f64) -> String {
    let cfg = EngineConfig::four_node_hdd();
    let workload = kind.build_scaled(scale);
    let points = static_sweep(&cfg, &workload);
    let stages = workload.job.stages.len();
    let mut header = vec!["io_threads".to_owned(), "total(s)".to_owned()];
    for s in 0..stages {
        header.push(format!("s{s}(s)"));
        header.push(format!("s{s} cpu%"));
        header.push(format!("s{s} iow%"));
        header.push(format!("s{s} dutil%"));
    }
    let mut t = TextTable::new(header);
    for p in &points {
        let mut row = vec![
            format!("{:?}", p.io_threads),
            format!("{:.1}", p.report.total_runtime),
        ];
        for st in &p.report.stages {
            row.push(format!("{:.1}", st.duration));
            row.push(format!("{:.0}", st.avg_cpu_busy * 100.0));
            row.push(format!("{:.0}", st.avg_cpu_iowait * 100.0));
            row.push(format!("{:.0}", st.avg_disk_util * 100.0));
        }
        t.row(row);
    }
    t.render()
}
