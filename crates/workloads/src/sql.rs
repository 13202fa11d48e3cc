//! SQL workloads: Aggregation and Join.

use sae_dag::{JobSpec, Operator, StageSpec};

/// SQL Aggregation over `input_mb` MB (paper: 17.87 GiB, "bigdata" size).
///
/// Two stages. Stage 0 reads the fact table and pre-aggregates — it is
/// structurally I/O *and* compute-heavy (Figure 1: 46 % CPU), which is why
/// the static solution cannot improve it (Figure 4a: the default thread
/// count wins in the read stage) while the dynamic solution still tunes
/// the write stage (Figure 8c: 32/128 in stage 1, 6.83 % total gain).
///
/// Modelled amplification: `1 + 2·0.33 + 0.435 = 2.1x` (Table 2:
/// 37.44 / 17.87).
pub(crate) fn aggregation(input_mb: f64) -> JobSpec {
    let partials = 0.33 * input_mb;
    JobSpec::builder("aggregation")
        .stage(
            // Hive splits the fact table into many small input splits, so
            // the scan stage has far more tasks than HDFS blocks — which is
            // what lets the adaptive executors converge cheaply (the climb
            // costs ~62 task completions per executor).
            StageSpec::read("scan+partial-agg", input_mb)
                .cpu_per_mb(0.35)
                .op(Operator::AggregateByKey)
                .with_tasks(1280)
                .shuffle_out(partials),
        )
        .stage(
            StageSpec::shuffle("merge+write", partials)
                .cpu_per_mb(0.06)
                .hive_output(0.435 * input_mb),
        )
        .build()
}

/// SQL Join of two tables totalling `input_mb` MB (paper: 17.87 GiB).
///
/// Three stages: the scan of both tables dominates and is the most
/// CPU-intensive stage in the whole evaluation (Figure 1: 68 % CPU —
/// predicate evaluation and hashing), followed by the join shuffle and a
/// small result write. Join barely amplifies I/O (Table 2: +18 %), which
/// is why neither solution gains much (Figure 8d: 2.54 %).
///
/// Modelled amplification: `1 + 2·0.05 + 2·0.03 + 0.019 = 1.18x`.
pub(crate) fn join(input_mb: f64) -> JobSpec {
    let hashed = 0.05 * input_mb;
    let joined = 0.03 * input_mb;
    JobSpec::builder("join")
        .stage(
            StageSpec::read("scan-tables", input_mb)
                .cpu_per_mb(0.60)
                .op(Operator::Filter)
                .with_tasks(2560)
                .shuffle_out(hashed),
        )
        .stage(
            StageSpec::shuffle("join", hashed)
                .cpu_per_mb(0.10)
                .op(Operator::Join)
                .shuffle_out(joined),
        )
        .stage(
            StageSpec::shuffle("write-result", joined)
                .cpu_per_mb(0.03)
                .hive_output(0.019 * input_mb),
        )
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sae_core::StageKind;

    #[test]
    fn aggregation_read_stage_is_cpu_heavy() {
        let job = aggregation(1000.0);
        assert!(job.stages[0].cpu_per_mb >= 0.1);
        assert!(job.stages[0].cpu_per_mb > 3.0 * job.stages[1].cpu_per_mb);
    }

    #[test]
    fn join_scan_is_cpu_heaviest() {
        let join = join(1000.0);
        let agg = aggregation(1000.0);
        assert!(join.stages[0].cpu_per_mb > agg.stages[0].cpu_per_mb);
    }

    #[test]
    fn only_scan_stage_is_structurally_io() {
        // The write goes through the Hive insert path, invisible to the
        // RDD-level tagger — so static tuning only reaches stage 0.
        for job in [aggregation(1000.0), join(1000.0)] {
            assert_eq!(job.stages.first().unwrap().kind(), StageKind::Io);
            assert_eq!(job.stages.last().unwrap().kind(), StageKind::Generic);
            assert!(job.stages.last().unwrap().output_mb > 0.0);
        }
    }

    #[test]
    fn join_amplifies_little() {
        let job = join(1000.0);
        let io: f64 = job
            .stages
            .iter()
            .map(|s| s.read_mb + s.shuffle_in_mb + s.shuffle_out_mb + s.output_mb)
            .sum();
        assert!(io / 1000.0 < 1.3, "join amplification {io}");
    }

    #[test]
    fn aggregation_output_smaller_than_input() {
        let job = aggregation(1000.0);
        assert!(job.stages[1].output_mb < 1000.0);
    }
}
