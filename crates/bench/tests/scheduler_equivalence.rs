//! The indexed driver scheduler must be invisible in the figures: the
//! evaluation workloads and the full Figure 2 sweep rerun through the
//! pre-index reference scan (`reference-impl` feature) must produce
//! bit-identical output.

use sae_bench::experiments::fig2;
use sae_bench::run_workload;
use sae_core::ThreadPolicy;
use sae_dag::EngineConfig;
use sae_workloads::WorkloadKind;

#[test]
fn indexed_and_reference_schedulers_are_bit_identical() {
    // Terasort and PageRank head-to-head through the config switch,
    // scaled down so the debug-build test stays quick.
    let cfg = EngineConfig::four_node_hdd();
    let mut ref_cfg = cfg.clone();
    ref_cfg.reference_scheduler = true;
    for (kind, scale) in [
        (WorkloadKind::Terasort, 0.05),
        (WorkloadKind::PageRank, 0.05),
    ] {
        let w = kind.build_scaled(scale);
        let indexed = run_workload(&cfg, &w, ThreadPolicy::Default);
        let reference = run_workload(&ref_cfg, &w, ThreadPolicy::Default);
        // `{:?}` of f64 is the shortest round-trip representation, so
        // equal debug strings mean bit-equal reports.
        assert_eq!(
            format!("{indexed:?}"),
            format!("{reference:?}"),
            "{} diverged",
            kind.name()
        );
    }

    // The full Figure 2 sweep (full-size Terasort + PageRank across the
    // whole thread grid, plus BestFit runs) on the same two configs.
    let indexed = fig2::run_with(&cfg);
    let reference = fig2::run_with(&ref_cfg);
    assert_eq!(indexed.body, reference.body, "fig2 diverged");
}
