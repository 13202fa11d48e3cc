//! Figure 9: scalability of the dynamic solution (Terasort, 4 vs 16
//! nodes with proportionally scaled input).

use sae_dag::EngineConfig;
use sae_workloads::WorkloadKind;

use crate::experiments::ExperimentOutput;
use crate::{run_policy, TextTable};

/// Runtimes per policy for a cluster of `nodes` nodes.
pub(crate) fn scaled_runtimes(nodes: usize) -> Vec<(String, f64)> {
    let cfg = EngineConfig::four_node_hdd().with_nodes(nodes);
    let w = WorkloadKind::Terasort.build_scaled(nodes as f64 / 4.0);
    run_policy(&cfg, &w)
        .into_iter()
        .map(|r| (r.policy, r.report.total_runtime))
        .collect()
}

/// Renders Figure 9.
pub(crate) fn run() -> ExperimentOutput {
    let mut t = TextTable::new(vec!["nodes", "policy", "runtime (s)"]);
    for nodes in [4usize, 16] {
        for (policy, runtime) in scaled_runtimes(nodes) {
            t.row(vec![nodes.to_string(), policy, format!("{runtime:.1}")]);
        }
    }
    let mut body = t.render();
    body.push_str(
        "\nKnown deviation: the paper's default configuration degrades\n\
         super-linearly at 16 nodes (~2.9x); in this substrate the tuned\n\
         policies reproduce their flat scaling, but the default stays\n\
         roughly flat too — per-node disk pressure, the dominant cost in\n\
         the fluid model, is scale-invariant. See EXPERIMENTS.md.\n",
    );
    ExperimentOutput {
        artefact: "Figure 9",
        title: "Scalability: Terasort on 4 vs 16 nodes (input scaled 4x)",
        body,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tuned_policies_scale_flat() {
        let four = scaled_runtimes(4);
        let sixteen = scaled_runtimes(16);
        for (a, b) in four.iter().zip(&sixteen) {
            assert_eq!(a.0, b.0);
            if a.0 != "default" {
                let ratio = b.1 / a.1;
                assert!(
                    (0.8..1.25).contains(&ratio),
                    "{} does not scale flat: {ratio:.2}",
                    a.0
                );
            }
        }
    }

    #[test]
    fn tuned_policies_beat_default_at_scale() {
        let sixteen = scaled_runtimes(16);
        let default = sixteen[0].1;
        for (policy, runtime) in &sixteen[1..] {
            assert!(
                *runtime < default * 0.7,
                "{policy} not clearly better at 16 nodes"
            );
        }
    }
}
