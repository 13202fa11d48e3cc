//! Jobs as operator pipelines, split into stages.

use sae_core::{StageInfo, StageKind};

/// Dataset operators, mirroring Spark's RDD API surface.
///
/// Only the distinction that matters to the static solution is modelled
/// faithfully: which operators touch storage. `textFile` marks a stage as
/// I/O on the read side; the save actions mark it on the write side (§4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)] // variant names mirror the Spark API 1:1
pub enum Operator {
    TextFile,
    SaveAsTextFile,
    SaveAsHadoopFile,
    Map,
    FlatMap,
    Filter,
    MapPartitions,
    Sample,
    SortByKey,
    ReduceByKey,
    GroupByKey,
    AggregateByKey,
    Join,
    Distinct,
    Count,
    Collect,
    Cache,
}

impl Operator {
    /// Whether this operator reads from storage.
    pub(crate) fn reads_storage(self) -> bool {
        matches!(self, Operator::TextFile)
    }

    /// Whether this operator writes to storage.
    pub(crate) fn writes_storage(self) -> bool {
        matches!(self, Operator::SaveAsTextFile | Operator::SaveAsHadoopFile)
    }

    /// Whether this operator requires a shuffle boundary after it.
    pub fn shuffles(self) -> bool {
        matches!(
            self,
            Operator::SortByKey
                | Operator::ReduceByKey
                | Operator::GroupByKey
                | Operator::AggregateByKey
                | Operator::Join
                | Operator::Distinct
        )
    }
}

/// One stage of a job: a set of identical tasks, one per partition.
///
/// All byte quantities are stage totals in MB; the engine divides them
/// across tasks. A stage may combine any of: a DFS read, a shuffle input,
/// CPU work, a shuffle output (spilled to local disk and served to the
/// next stage), and a DFS output write.
#[derive(Debug, Clone, PartialEq)]
pub struct StageSpec {
    /// Stage name for reports.
    pub name: String,
    /// The operators this stage executes (classification + documentation).
    pub ops: Vec<Operator>,
    /// DFS input volume in MB (0 = no storage read).
    pub read_mb: f64,
    /// Shuffle input volume in MB (0 = no shuffle read).
    pub shuffle_in_mb: f64,
    /// Shuffle output volume in MB (spilled locally, fetched next stage).
    pub shuffle_out_mb: f64,
    /// DFS output volume in MB (0 = no storage write).
    pub output_mb: f64,
    /// CPU cost in cpu-seconds per MB of input processed.
    pub cpu_per_mb: f64,
    /// Fixed CPU cost per task in cpu-seconds (deserialisation, JIT, ...).
    pub base_cpu_per_task: f64,
    /// Overrides the engine's computed task count when set.
    pub tasks: Option<usize>,
}

impl StageSpec {
    fn empty(name: &str) -> Self {
        Self {
            name: name.to_owned(),
            ops: Vec::new(),
            read_mb: 0.0,
            shuffle_in_mb: 0.0,
            shuffle_out_mb: 0.0,
            output_mb: 0.0,
            cpu_per_mb: 0.001,
            base_cpu_per_task: 0.05,
            tasks: None,
        }
    }

    /// A stage that ingests `read_mb` MB from the DFS (`textFile`).
    pub fn read(name: &str, read_mb: f64) -> Self {
        let mut s = Self::empty(name);
        s.read_mb = read_mb;
        s.ops.push(Operator::TextFile);
        s
    }

    /// A stage that consumes `shuffle_in_mb` MB of shuffled data.
    pub fn shuffle(name: &str, shuffle_in_mb: f64) -> Self {
        let mut s = Self::empty(name);
        s.shuffle_in_mb = shuffle_in_mb;
        s
    }

    /// A pure compute stage over cached data.
    pub fn compute(name: &str) -> Self {
        let mut s = Self::empty(name);
        s.ops.push(Operator::MapPartitions);
        s
    }

    /// Adds a shuffle output of `mb` MB (marks the map side of a shuffle).
    pub fn shuffle_out(mut self, mb: f64) -> Self {
        self.shuffle_out_mb = mb;
        self
    }

    /// Adds a DFS output of `mb` MB (`saveAsTextFile`).
    pub fn write_output(mut self, mb: f64) -> Self {
        self.output_mb = mb;
        self.ops.push(Operator::SaveAsTextFile);
        self
    }

    /// Adds a DFS output of `mb` MB written through a path the RDD-level
    /// tagger does not see (e.g. Hive's `InsertIntoHiveTable`), so the
    /// stage is *not* structurally marked I/O — the reason the static
    /// solution cannot tune the write stages of the SQL workloads
    /// (Figure 4) while the dynamic solution can (Figure 8c/8d).
    pub fn hive_output(mut self, mb: f64) -> Self {
        self.output_mb = mb;
        self
    }

    /// Adds `mb` MB of local disk reads for cached partitions spilled from
    /// memory (`StorageLevel.MEMORY_AND_DISK`). Like shuffle spill, this
    /// I/O is invisible to the structural tagger (limitation L2: "any
    /// stage could use the disk for spilling the cached data in memory"),
    /// and it interleaves reads with the stage's shuffle writes on the
    /// platter.
    pub fn cache_spill_read(mut self, mb: f64) -> Self {
        self.read_mb = mb;
        self
    }

    /// Sets the CPU cost per MB processed.
    pub fn cpu_per_mb(mut self, cost: f64) -> Self {
        self.cpu_per_mb = cost;
        self
    }

    /// Sets the fixed per-task CPU cost.
    pub fn base_cpu_per_task(mut self, cost: f64) -> Self {
        self.base_cpu_per_task = cost;
        self
    }

    /// Appends an operator (for classification/documentation).
    pub fn op(mut self, op: Operator) -> Self {
        self.ops.push(op);
        self
    }

    /// Overrides the task count.
    pub fn with_tasks(mut self, tasks: usize) -> Self {
        self.tasks = Some(tasks);
        self
    }

    /// Structural classification, as the static solution sees it (§4):
    /// I/O iff an operator explicitly reads or writes storage. Shuffle
    /// traffic does *not* count — that is limitation L2.
    pub fn kind(&self) -> StageKind {
        if self
            .ops
            .iter()
            .any(|op| op.reads_storage() || op.writes_storage())
        {
            StageKind::Io
        } else {
            StageKind::Generic
        }
    }

    /// The [`StageInfo`] handed to thread policies.
    pub(crate) fn info(&self, stage_id: usize) -> StageInfo {
        StageInfo {
            stage_id,
            kind: self.kind(),
        }
    }

    /// Input MB processed by this stage (drives CPU cost).
    pub(crate) fn processed_mb(&self) -> f64 {
        let input = self.read_mb + self.shuffle_in_mb;
        if input > 0.0 {
            input
        } else {
            self.output_mb.max(self.shuffle_out_mb)
        }
    }

    /// Validates the stage.
    ///
    /// # Panics
    ///
    /// Panics if any volume is negative/NaN, costs are negative, or the
    /// stage does no work at all.
    pub(crate) fn validate(&self) {
        for (label, v) in [
            ("read_mb", self.read_mb),
            ("shuffle_in_mb", self.shuffle_in_mb),
            ("shuffle_out_mb", self.shuffle_out_mb),
            ("output_mb", self.output_mb),
            ("cpu_per_mb", self.cpu_per_mb),
            ("base_cpu_per_task", self.base_cpu_per_task),
        ] {
            assert!(
                v.is_finite() && v >= 0.0,
                "stage {:?}: {label} must be finite and non-negative, got {v}",
                self.name
            );
        }
        assert!(
            self.processed_mb() > 0.0 || self.base_cpu_per_task > 0.0,
            "stage {:?} does no work",
            self.name
        );
        if let Some(tasks) = self.tasks {
            assert!(tasks > 0, "stage {:?}: task count must be > 0", self.name);
        }
    }
}

/// A job: an ordered pipeline of stages. Stage `i + 1`'s shuffle input is
/// served from stage `i`'s shuffle output.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Job name for reports.
    pub name: String,
    /// Stages in execution order.
    pub stages: Vec<StageSpec>,
}

impl JobSpec {
    /// Starts building a job.
    pub fn builder(name: &str) -> JobSpecBuilder {
        JobSpecBuilder {
            name: name.to_owned(),
            stages: Vec::new(),
        }
    }

    /// Total DFS input volume across stages, in MB.
    pub(crate) fn total_input_mb(&self) -> f64 {
        self.stages.iter().map(|s| s.read_mb).sum()
    }

    /// Validates all stages and cross-stage consistency.
    ///
    /// # Panics
    ///
    /// Panics if the job has no stages, any stage is invalid, or a stage
    /// consumes shuffle input without the previous stage producing any.
    pub fn validate(&self) {
        assert!(!self.stages.is_empty(), "job {:?} has no stages", self.name);
        for stage in &self.stages {
            stage.validate();
        }
        for i in 0..self.stages.len() {
            if self.stages[i].shuffle_in_mb > 0.0 {
                assert!(
                    i > 0 && self.stages[i - 1].shuffle_out_mb > 0.0,
                    "stage {} consumes shuffle input but stage {} produced none",
                    i,
                    i.wrapping_sub(1)
                );
            }
        }
    }
}

/// Builder for [`JobSpec`].
#[derive(Debug, Clone)]
pub struct JobSpecBuilder {
    name: String,
    stages: Vec<StageSpec>,
}

impl JobSpecBuilder {
    /// Appends a stage.
    pub fn stage(mut self, stage: StageSpec) -> Self {
        self.stages.push(stage);
        self
    }

    /// Finalises and validates the job.
    ///
    /// # Panics
    ///
    /// Panics if the job fails [`JobSpec::validate`].
    pub fn build(self) -> JobSpec {
        let job = JobSpec {
            name: self.name,
            stages: self.stages,
        };
        job.validate();
        job
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_stage_is_io() {
        let s = StageSpec::read("ingest", 1024.0);
        assert_eq!(s.kind(), StageKind::Io);
    }

    #[test]
    fn shuffle_stage_is_generic_even_though_it_spills() {
        // Limitation L2: shuffle stages hit the disk but are not marked I/O.
        let s = StageSpec::shuffle("reduce", 1024.0).shuffle_out(512.0);
        assert_eq!(s.kind(), StageKind::Generic);
    }

    #[test]
    fn write_marks_io() {
        let s = StageSpec::shuffle("final", 512.0).write_output(512.0);
        assert_eq!(s.kind(), StageKind::Io);
    }

    #[test]
    fn processed_mb_prefers_inputs() {
        let s = StageSpec::read("r", 100.0);
        assert_eq!(s.processed_mb(), 100.0);
        let w = StageSpec::compute("gen").write_output(300.0);
        assert_eq!(w.processed_mb(), 300.0);
    }

    #[test]
    fn job_builder_validates_shuffle_chain() {
        let job = JobSpec::builder("terasort")
            .stage(StageSpec::read("sample", 1024.0))
            .stage(StageSpec::read("map", 1024.0).shuffle_out(1024.0))
            .stage(StageSpec::shuffle("reduce", 1024.0).write_output(1024.0))
            .build();
        assert_eq!(job.stages.len(), 3);
        assert_eq!(job.total_input_mb(), 2048.0);
    }

    #[test]
    #[should_panic(expected = "produced none")]
    fn dangling_shuffle_input_rejected() {
        let _ = JobSpec::builder("bad")
            .stage(StageSpec::read("r", 10.0))
            .stage(StageSpec::shuffle("s", 10.0))
            .build();
    }

    #[test]
    #[should_panic(expected = "no stages")]
    fn empty_job_rejected() {
        let _ = JobSpec::builder("empty").build();
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_volume_rejected() {
        let mut s = StageSpec::read("r", 10.0);
        s.read_mb = -1.0;
        s.validate();
    }

    #[test]
    fn operator_classification() {
        assert!(Operator::TextFile.reads_storage());
        assert!(Operator::SaveAsTextFile.writes_storage());
        assert!(Operator::SaveAsHadoopFile.writes_storage());
        assert!(Operator::ReduceByKey.shuffles());
        assert!(!Operator::Map.shuffles());
        assert!(!Operator::Map.reads_storage());
    }

    #[test]
    fn stage_info_carries_id_and_kind() {
        let s = StageSpec::read("r", 10.0);
        let info = s.info(3);
        assert_eq!(info.stage_id, 3);
        assert_eq!(info.kind, StageKind::Io);
    }
}
