//! The workload catalog: one entry per application in the evaluation.

use sae_dag::{EngineConfig, JobSpec};

/// The applications of Tables 2 and 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WorkloadKind {
    /// Sort 120 GiB of records (micro benchmark; Figures 2, 5–9, 10–12).
    Terasort,
    /// Iterative web-graph ranking (websearch; Figures 2, 5, 8).
    PageRank,
    /// SQL aggregation over hive tables (Figures 4, 5, 8).
    Aggregation,
    /// SQL two-table join (Figures 4, 5, 8).
    Join,
    /// SQL table scan (Table 2).
    Scan,
    /// Naive Bayes training (Table 2).
    Bayes,
    /// Latent Dirichlet Allocation (Table 2).
    Lda,
    /// Graph N-hop neighbourhood enumeration (Table 2).
    NWeight,
    /// Support-vector-machine training (Table 2).
    Svm,
}

impl WorkloadKind {
    /// Every workload, in Table 2 order.
    pub const ALL: [WorkloadKind; 9] = [
        WorkloadKind::Aggregation,
        WorkloadKind::Bayes,
        WorkloadKind::Join,
        WorkloadKind::Lda,
        WorkloadKind::NWeight,
        WorkloadKind::PageRank,
        WorkloadKind::Scan,
        WorkloadKind::Terasort,
        WorkloadKind::Svm,
    ];

    /// Lower-case stable name.
    pub fn name(self) -> &'static str {
        match self {
            WorkloadKind::Terasort => "terasort",
            WorkloadKind::PageRank => "pagerank",
            WorkloadKind::Aggregation => "aggregation",
            WorkloadKind::Join => "join",
            WorkloadKind::Scan => "scan",
            WorkloadKind::Bayes => "bayes",
            WorkloadKind::Lda => "lda",
            WorkloadKind::NWeight => "nweight",
            WorkloadKind::Svm => "svm",
        }
    }

    /// HiBench category (Table 3's "Type" column).
    pub(crate) fn hibench_category(self) -> &'static str {
        match self {
            WorkloadKind::Terasort => "micro",
            WorkloadKind::Scan | WorkloadKind::Aggregation | WorkloadKind::Join => "sql",
            WorkloadKind::PageRank => "websearch",
            WorkloadKind::NWeight => "graph",
            WorkloadKind::Bayes | WorkloadKind::Lda | WorkloadKind::Svm => "ml",
        }
    }

    /// HiBench problem-size label (Table 3's "Size" column).
    pub(crate) fn problem_size(self) -> &'static str {
        match self {
            WorkloadKind::Terasort => "120 GiB",
            WorkloadKind::PageRank => "gigantic",
            WorkloadKind::Aggregation | WorkloadKind::Join | WorkloadKind::Scan => "bigdata",
            WorkloadKind::Bayes | WorkloadKind::Lda | WorkloadKind::NWeight | WorkloadKind::Svm => {
                "huge"
            }
        }
    }

    /// Input size in GiB (Table 2's "Input Size" column).
    pub fn input_gib(self) -> f64 {
        match self {
            WorkloadKind::Aggregation => 17.87,
            WorkloadKind::Bayes => 3.50,
            WorkloadKind::Join => 17.87,
            WorkloadKind::Lda => 0.63,
            WorkloadKind::NWeight => 0.28,
            WorkloadKind::PageRank => 18.56,
            WorkloadKind::Scan => 17.87,
            WorkloadKind::Terasort => 111.75,
            WorkloadKind::Svm => 107.29,
        }
    }

    /// I/O activity reported in Table 2, in GiB (reference values).
    pub fn paper_io_activity_gib(self) -> f64 {
        match self {
            WorkloadKind::Aggregation => 37.44,
            WorkloadKind::Bayes => 9.80,
            WorkloadKind::Join => 21.06,
            WorkloadKind::Lda => 3.83,
            WorkloadKind::NWeight => 10.23,
            WorkloadKind::PageRank => 128.3,
            WorkloadKind::Scan => 112.56,
            WorkloadKind::Terasort => 429.35,
            WorkloadKind::Svm => 203.92,
        }
    }

    /// Builds the workload at the paper's input size.
    pub fn build(self) -> Workload {
        self.build_scaled(1.0)
    }

    /// Builds the workload with all volumes multiplied by `scale`
    /// (Figure 9 scales Terasort input proportionally to node count).
    ///
    /// # Panics
    ///
    /// Panics if `scale` is not finite and positive.
    pub fn build_scaled(self, scale: f64) -> Workload {
        assert!(
            scale.is_finite() && scale > 0.0,
            "scale must be finite and positive, got {scale}"
        );
        let input_mb = self.input_gib() * 1024.0 * scale;
        let (job, output_replication) = match self {
            WorkloadKind::Terasort => (crate::terasort::terasort(input_mb), 1),
            WorkloadKind::Scan => (crate::terasort::scan(input_mb), 4),
            WorkloadKind::PageRank => (crate::web::pagerank(input_mb), 1),
            WorkloadKind::NWeight => (crate::web::nweight(input_mb), 1),
            WorkloadKind::Aggregation => (crate::sql::aggregation(input_mb), 1),
            WorkloadKind::Join => (crate::sql::join(input_mb), 1),
            WorkloadKind::Bayes => (crate::ml::bayes(input_mb), 1),
            WorkloadKind::Lda => (crate::ml::lda(input_mb), 1),
            WorkloadKind::Svm => (crate::ml::svm(input_mb), 1),
        };
        Workload {
            kind: self,
            job,
            input_mb,
            output_replication,
        }
    }
}

/// A fully specified workload: the job plus engine settings it needs.
#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    /// Which application this is.
    pub kind: WorkloadKind,
    /// The stage pipeline.
    pub job: JobSpec,
    /// DFS input volume in MB.
    pub input_mb: f64,
    /// Output replication factor this workload is measured with.
    pub output_replication: usize,
}

impl Workload {
    /// Applies the workload's engine-config requirements to `base`.
    pub fn configure(&self, mut base: EngineConfig) -> EngineConfig {
        base.output_replication = self.output_replication;
        base
    }

    /// Predicted disk I/O activity in MB from the stage specs alone
    /// (reads: DFS input + shuffle serves; writes: spills + replicated
    /// output). The engine's measured accounting matches this; tests pin
    /// both against Table 2.
    pub fn expected_io_mb(&self, nodes: usize) -> f64 {
        let rep = self.output_replication.min(nodes) as f64;
        self.job
            .stages
            .iter()
            .map(|s| s.read_mb + s.shuffle_in_mb + s.shuffle_out_mb + s.output_mb * rep)
            .sum()
    }

    /// Predicted I/O amplification relative to input.
    pub(crate) fn expected_amplification(&self, nodes: usize) -> f64 {
        self.expected_io_mb(nodes) / self.input_mb
    }

    /// Renders a human-readable stage table for this workload.
    ///
    /// # Examples
    ///
    /// ```
    /// use sae_workloads::WorkloadKind;
    ///
    /// let text = WorkloadKind::Terasort.build().describe();
    /// assert!(text.contains("reduce"));
    /// assert!(text.contains("io"));
    /// ```
    pub fn describe(&self) -> String {
        let mut out = format!(
            "{} ({}, {} input, {:.2} GiB)
",
            self.kind.name(),
            self.kind.hibench_category(),
            self.kind.problem_size(),
            self.input_mb / 1024.0,
        );
        out.push_str(
            "stage  name            kind     read GiB  shuf-in  shuf-out  out GiB  cpu s/MB
",
        );
        for (i, s) in self.job.stages.iter().enumerate() {
            let kind = match s.kind() {
                sae_core::StageKind::Io => "io",
                sae_core::StageKind::Generic => "generic",
            };
            out.push_str(&format!(
                "{:<6} {:<15} {:<8} {:>8.2} {:>8.2} {:>9.2} {:>8.2} {:>9.3}
",
                i,
                s.name,
                kind,
                s.read_mb / 1024.0,
                s.shuffle_in_mb / 1024.0,
                s.shuffle_out_mb / 1024.0,
                s.output_mb / 1024.0,
                s.cpu_per_mb,
            ));
        }
        out.push_str(&format!(
            "modelled I/O amplification (4 nodes): {:.2}x (paper: {:.2}x)
",
            self.expected_amplification(4),
            self.kind.paper_io_activity_gib() / self.kind.input_gib(),
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_workloads_build_and_validate() {
        for kind in WorkloadKind::ALL {
            let w = kind.build();
            w.job.validate();
            assert!(w.input_mb > 0.0);
            assert!(!w.job.stages.is_empty(), "{}", kind.name());
        }
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = WorkloadKind::ALL.iter().map(|k| k.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 9);
    }

    #[test]
    fn amplification_tracks_table_2_within_tolerance() {
        // Shapes, not absolutes: each workload's modelled amplification
        // must be within ±35% of Table 2's measured ratio.
        for kind in WorkloadKind::ALL {
            let w = kind.build_scaled(1.0);
            let modelled = w.expected_amplification(4);
            let paper = kind.paper_io_activity_gib() / kind.input_gib();
            let rel = (modelled - paper).abs() / paper;
            assert!(
                rel < 0.35,
                "{}: modelled {modelled:.2}x vs paper {paper:.2}x",
                kind.name()
            );
        }
    }

    #[test]
    fn scaling_multiplies_volumes() {
        let base = WorkloadKind::Terasort.build_scaled(1.0);
        let scaled = WorkloadKind::Terasort.build_scaled(4.0);
        assert!((scaled.input_mb / base.input_mb - 4.0).abs() < 1e-9);
        assert!((scaled.expected_io_mb(4) / base.expected_io_mb(4) - 4.0).abs() < 1e-9);
    }

    #[test]
    fn scan_replicates_output() {
        assert_eq!(WorkloadKind::Scan.build().output_replication, 4);
    }

    #[test]
    fn configure_applies_replication() {
        let w = WorkloadKind::Scan.build();
        let cfg = w.configure(EngineConfig::four_node_hdd());
        assert_eq!(cfg.output_replication, 4);
    }

    #[test]
    fn categories_match_table_3() {
        assert_eq!(WorkloadKind::Terasort.hibench_category(), "micro");
        assert_eq!(WorkloadKind::Join.hibench_category(), "sql");
        assert_eq!(WorkloadKind::Aggregation.hibench_category(), "sql");
        assert_eq!(WorkloadKind::PageRank.hibench_category(), "websearch");
    }

    #[test]
    fn describe_renders_every_stage() {
        for kind in WorkloadKind::ALL {
            let w = kind.build();
            let text = w.describe();
            assert!(text.contains(kind.name()));
            assert_eq!(
                text.lines().count(),
                w.job.stages.len() + 3,
                "{}:
{text}",
                kind.name()
            );
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_scale_rejected() {
        let _ = WorkloadKind::Terasort.build_scaled(0.0);
    }
}
