//! Micro benchmarks: Terasort and SQL Scan.

use sae_dag::{JobSpec, Operator, StageSpec};

/// Terasort over `input_mb` MB (paper: 111.75 GiB input, Table 3's 120 GiB
/// problem size).
///
/// Three stages, all structurally I/O (§4: "the first two read from the
/// disk and the last one writes the results"):
///
/// 0. **sample** — `textFile().sample()` scans the full input to build the
///    range partitioner. Nearly pure I/O (Figure 1: 6 % CPU).
/// 1. **map** — re-reads the input and spills sorted, *compressed* runs for
///    the shuffle (~0.42x of raw, `spark.shuffle.compress`); 15 % CPU.
/// 2. **reduce** — fetches shuffle data and writes the sorted output
///    (equal to the input size); 9 % CPU.
///
/// Modelled I/O amplification: `1 + (1 + 0.42) + (0.42 + 1) = 3.84x`,
/// matching Table 2's 429.35 / 111.75.
pub(crate) fn terasort(input_mb: f64) -> JobSpec {
    let spill = 0.42 * input_mb;
    JobSpec::builder("terasort")
        .stage(
            StageSpec::read("sample", input_mb)
                .cpu_per_mb(0.018)
                .op(Operator::Sample),
        )
        .stage(
            StageSpec::read("map", input_mb)
                .cpu_per_mb(0.045)
                .op(Operator::SortByKey)
                .shuffle_out(spill),
        )
        .stage(
            StageSpec::shuffle("reduce", spill)
                .cpu_per_mb(0.070)
                .write_output(input_mb),
        )
        .build()
}

/// SQL Scan over `input_mb` MB: a single map-only stage that reads the
/// table and writes the (uncompressed, hence larger) selection, replicated
/// 4x by the DFS — which is how a "scan" reaches Table 2's 6.3x I/O
/// amplification.
pub(crate) fn scan(input_mb: f64) -> JobSpec {
    JobSpec::builder("scan")
        .stage(
            StageSpec::read("scan", input_mb)
                .cpu_per_mb(0.04)
                .op(Operator::Filter)
                .write_output(1.325 * input_mb),
        )
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sae_core::StageKind;

    #[test]
    fn terasort_has_three_io_stages() {
        let job = terasort(1024.0);
        assert_eq!(job.stages.len(), 3);
        for stage in &job.stages {
            assert_eq!(stage.kind(), StageKind::Io, "stage {}", stage.name);
        }
    }

    #[test]
    fn terasort_output_equals_input() {
        let job = terasort(2048.0);
        assert_eq!(job.stages[2].output_mb, 2048.0);
    }

    #[test]
    fn terasort_shuffle_chain_consistent() {
        let job = terasort(1000.0);
        assert_eq!(job.stages[1].shuffle_out_mb, job.stages[2].shuffle_in_mb);
    }

    #[test]
    fn terasort_cpu_intensity_ordering_matches_figure_1() {
        // Stage 0 (pure scan) is the least CPU-intensive stage.
        let job = terasort(1000.0);
        assert!(job.stages[0].cpu_per_mb < job.stages[1].cpu_per_mb);
        assert!(job.stages[0].cpu_per_mb < job.stages[2].cpu_per_mb);
    }

    #[test]
    fn scan_is_single_io_stage() {
        let job = scan(512.0);
        assert_eq!(job.stages.len(), 1);
        assert_eq!(job.stages[0].kind(), StageKind::Io);
        assert!(job.stages[0].output_mb > 512.0);
    }
}
