//! Machine-learning workloads: Bayes, LDA and SVM.

use sae_dag::{JobSpec, Operator, StageSpec};

/// Naive Bayes training over `input_mb` MB of documents (paper: 3.5 GiB,
/// Table 2: 2.8x I/O amplification).
///
/// Tokenisation, TF aggregation, and model write-out:
/// `1 + 2·0.55 + 2·0.30 + 0.10 = 2.8x`.
pub(crate) fn bayes(input_mb: f64) -> JobSpec {
    JobSpec::builder("bayes")
        .stage(
            StageSpec::read("tokenize", input_mb)
                .cpu_per_mb(0.20)
                .op(Operator::FlatMap)
                .shuffle_out(0.55 * input_mb),
        )
        .stage(
            StageSpec::shuffle("term-frequencies", 0.55 * input_mb)
                .cpu_per_mb(0.10)
                .op(Operator::ReduceByKey)
                .shuffle_out(0.30 * input_mb),
        )
        .stage(
            StageSpec::shuffle("train+write-model", 0.30 * input_mb)
                .cpu_per_mb(0.15)
                .write_output(0.10 * input_mb),
        )
        .build()
}

/// Latent Dirichlet Allocation over `input_mb` MB (paper: 0.63 GiB input,
/// 3.83 GiB activity — +508 %). Four Gibbs-sampling iterations shuffle the
/// topic assignments repeatedly:
/// `1 + 10·0.5 + 0.08 = 6.08x`.
pub(crate) fn lda(input_mb: f64) -> JobSpec {
    let topics = 0.5 * input_mb;
    let mut builder = JobSpec::builder("lda").stage(
        StageSpec::read("load-corpus", input_mb)
            .cpu_per_mb(0.25)
            .op(Operator::Map)
            .shuffle_out(topics),
    );
    for i in 1..=4 {
        builder = builder.stage(
            StageSpec::shuffle(&format!("gibbs-iter-{i}"), topics)
                .cpu_per_mb(0.20)
                .op(Operator::ReduceByKey)
                .shuffle_out(topics),
        );
    }
    builder
        .stage(
            StageSpec::shuffle("write-topics", topics)
                .cpu_per_mb(0.05)
                .write_output(0.08 * input_mb),
        )
        .build()
}

/// SVM training over `input_mb` MB of feature vectors (paper: 107.29 GiB,
/// Table 2: 1.9x). Gradient iterations run mostly on cached data with
/// small gradient shuffles:
/// `1 + 2·0.25 + 2·0.10 + 2·0.08 + 0.04 = 1.9x`.
pub(crate) fn svm(input_mb: f64) -> JobSpec {
    JobSpec::builder("svm")
        .stage(
            StageSpec::read("load+cache", input_mb)
                .cpu_per_mb(0.06)
                .op(Operator::Cache)
                .shuffle_out(0.25 * input_mb),
        )
        .stage(
            StageSpec::shuffle("gradient-1", 0.25 * input_mb)
                .cpu_per_mb(0.35)
                .op(Operator::ReduceByKey)
                .shuffle_out(0.10 * input_mb),
        )
        .stage(
            StageSpec::shuffle("gradient-2", 0.10 * input_mb)
                .cpu_per_mb(0.35)
                .op(Operator::ReduceByKey)
                .shuffle_out(0.08 * input_mb),
        )
        .stage(
            StageSpec::shuffle("write-model", 0.08 * input_mb)
                .cpu_per_mb(0.05)
                .write_output(0.04 * input_mb),
        )
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sae_core::StageKind;

    #[test]
    fn bayes_structure() {
        let job = bayes(1000.0);
        assert_eq!(job.stages.len(), 3);
        assert_eq!(job.stages[0].kind(), StageKind::Io);
        assert_eq!(job.stages[1].kind(), StageKind::Generic);
    }

    #[test]
    fn lda_has_four_iterations() {
        let job = lda(1000.0);
        assert_eq!(job.stages.len(), 6);
        let iters = job
            .stages
            .iter()
            .filter(|s| s.name.starts_with("gibbs-iter"))
            .count();
        assert_eq!(iters, 4);
    }

    #[test]
    fn lda_iterations_conserve_shuffle_volume() {
        let job = lda(1000.0);
        for window in job.stages.windows(2) {
            if window[1].shuffle_in_mb > 0.0 {
                assert_eq!(window[0].shuffle_out_mb, window[1].shuffle_in_mb);
            }
        }
    }

    #[test]
    fn svm_shuffles_shrink() {
        let job = svm(1000.0);
        assert!(job.stages[1].shuffle_out_mb < job.stages[1].shuffle_in_mb);
        assert!(job.stages[2].shuffle_out_mb < job.stages[2].shuffle_in_mb);
    }

    #[test]
    fn svm_output_is_small_model() {
        let job = svm(1000.0);
        assert!(job.stages.last().unwrap().output_mb < 0.1 * 1000.0);
    }
}
