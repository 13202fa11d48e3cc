//! Run reports: everything the bench harness needs to regenerate the
//! paper's tables and figures.

/// One monitoring interval as recorded in an executor's knowledge base
/// (mirrors [`sae_core::IntervalReport`] in a serialisable form).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IntervalRecord {
    /// Thread count the interval ran with.
    pub threads: usize,
    /// Accumulated epoll-wait seconds `ε`.
    pub epoll_wait: f64,
    /// MB moved during the interval.
    pub bytes: f64,
    /// Interval duration in seconds.
    pub duration: f64,
    /// Throughput `µ` in MB/s.
    pub throughput: f64,
    /// Congestion index `ζ`.
    pub zeta: f64,
    /// Average disk utilisation over the interval, `[0, 1]`.
    pub disk_util: f64,
}

impl From<sae_core::IntervalReport> for IntervalRecord {
    fn from(r: sae_core::IntervalReport) -> Self {
        Self {
            threads: r.threads,
            epoll_wait: r.epoll_wait,
            bytes: r.bytes,
            duration: r.duration,
            throughput: r.throughput,
            zeta: r.zeta,
            disk_util: r.disk_util,
        }
    }
}

/// Per-executor, per-stage outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecutorStageReport {
    /// Executor (= node) index.
    pub executor: usize,
    /// Thread count at stage end.
    pub final_threads: usize,
    /// Every thread count the executor used during the stage, in order
    /// (length 1 when no adaptation happened) — Figure 6's data.
    pub decisions: Vec<usize>,
    /// Total epoll-wait seconds over the stage.
    pub epoll_wait: f64,
    /// Total task I/O in MB over the stage.
    pub io_bytes: f64,
    /// Tasks this executor completed in the stage.
    pub tasks: usize,
    /// The controller's interval history (empty for non-adaptive runs) —
    /// Figure 7's data.
    pub intervals: Vec<IntervalRecord>,
    /// The controller's decision journal for the stage (empty for
    /// non-adaptive runs): one record per interval plus the terminal
    /// verdict, with the measurements and rationale behind each move.
    pub journal: Vec<sae_core::DecisionRecord>,
}

/// Per-stage outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct StageReport {
    /// Stage index.
    pub stage_id: usize,
    /// Stage name from the spec.
    pub name: String,
    /// `"io"` or `"generic"` (static classification).
    pub kind: &'static str,
    /// Stage start time (simulated seconds).
    pub started_at: f64,
    /// Stage duration (simulated seconds).
    pub duration: f64,
    /// Number of tasks.
    pub tasks: usize,
    /// Task attempts launched during the stage (equals `tasks` in a
    /// fault-free, non-speculative run).
    pub attempts: usize,
    /// Attempts that failed (transient faults or executor loss) and were
    /// retried.
    pub failed_attempts: usize,
    /// Speculative straggler clones launched.
    pub speculative_launched: usize,
    /// Speculative clones that won against the original attempt.
    pub speculative_wins: usize,
    /// Mean CPU busy fraction across nodes and time (exact integral).
    pub avg_cpu_busy: f64,
    /// Mean CPU iowait fraction (exact integral, clamped).
    pub avg_cpu_iowait: f64,
    /// Mean disk utilisation across nodes and time (exact integral).
    pub avg_disk_util: f64,
    /// MB read from disks (input reads + shuffle serves).
    pub disk_read_mb: f64,
    /// MB written to disks (spill + output + replication).
    pub disk_write_mb: f64,
    /// MB moved over the network.
    pub shuffle_mb: f64,
    /// Per-executor details.
    pub executors: Vec<ExecutorStageReport>,
    /// Sum of final thread counts across executors (the "x/128" labels of
    /// Figure 8).
    pub threads_used: usize,
    /// Cluster-aggregate disk throughput samples `(t, MB/s)` during the
    /// stage (Figure 12's series).
    pub disk_throughput_series: Vec<(f64, f64)>,
}

impl StageReport {
    /// Total disk I/O (reads + writes) in MB.
    pub(crate) fn disk_io_mb(&self) -> f64 {
        self.disk_read_mb + self.disk_write_mb
    }
}

/// The outcome of one job run.
#[derive(Debug, Clone, PartialEq)]
pub struct JobReport {
    /// Job name.
    pub job: String,
    /// Policy name (`"default"`, `"static"`, `"static-bestfit"`,
    /// `"dynamic"`).
    pub policy: String,
    /// Number of nodes in the run.
    pub nodes: usize,
    /// Total virtual cores in the run.
    pub total_cores: usize,
    /// End-to-end runtime in simulated seconds.
    pub total_runtime: f64,
    /// DFS input volume in MB.
    pub input_mb: f64,
    /// Per-stage reports in order.
    pub stages: Vec<StageReport>,
    /// Executors the driver blacklisted during the run, in order.
    pub blacklisted_executors: Vec<usize>,
}

impl JobReport {
    /// Total disk I/O activity in MB across the job (Table 2's metric).
    pub fn total_disk_io_mb(&self) -> f64 {
        self.stages.iter().map(StageReport::disk_io_mb).sum()
    }

    /// Task attempts launched across the job.
    pub fn total_attempts(&self) -> usize {
        self.stages.iter().map(|s| s.attempts).sum()
    }

    /// Failed task attempts across the job.
    pub fn total_failed_attempts(&self) -> usize {
        self.stages.iter().map(|s| s.failed_attempts).sum()
    }

    /// The job's full decision journal: every executor's records, in stage
    /// order and executor order within a stage. Empty unless the run used
    /// the adaptive policy.
    pub(crate) fn decision_journal(&self) -> Vec<sae_core::DecisionRecord> {
        self.stages
            .iter()
            .flat_map(|s| s.executors.iter())
            .flat_map(|e| e.journal.iter().cloned())
            .collect()
    }

    /// The decision journal serialized as JSONL (see
    /// [`sae_core::to_jsonl`]).
    pub fn decision_journal_jsonl(&self) -> String {
        sae_core::to_jsonl(&self.decision_journal())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stage(read: f64, write: f64) -> StageReport {
        StageReport {
            stage_id: 0,
            name: "s".into(),
            kind: "io",
            started_at: 0.0,
            duration: 1.0,
            tasks: 1,
            attempts: 1,
            failed_attempts: 0,
            speculative_launched: 0,
            speculative_wins: 0,
            avg_cpu_busy: 0.5,
            avg_cpu_iowait: 0.2,
            avg_disk_util: 0.8,
            disk_read_mb: read,
            disk_write_mb: write,
            shuffle_mb: 0.0,
            executors: Vec::new(),
            threads_used: 32,
            disk_throughput_series: Vec::new(),
        }
    }

    #[test]
    fn disk_io_sums_reads_and_writes() {
        assert_eq!(stage(10.0, 5.0).disk_io_mb(), 15.0);
    }

    #[test]
    fn amplification_relative_to_input() {
        let report = JobReport {
            job: "j".into(),
            policy: "default".into(),
            nodes: 4,
            total_cores: 128,
            total_runtime: 10.0,
            input_mb: 10.0,
            stages: vec![stage(10.0, 10.0), stage(5.0, 5.0)],
            blacklisted_executors: Vec::new(),
        };
        assert_eq!(report.total_disk_io_mb(), 30.0);
        assert_eq!(report.total_attempts(), 2);
        assert_eq!(report.total_failed_attempts(), 0);
    }

    #[test]
    fn interval_record_from_core_report() {
        let core = sae_core::IntervalReport {
            threads: 4,
            epoll_wait: 1.0,
            bytes: 200.0,
            duration: 2.0,
            throughput: 100.0,
            zeta: 0.01,
            disk_util: 0.8,
        };
        let rec: IntervalRecord = core.into();
        assert_eq!(rec.threads, 4);
        assert_eq!(rec.throughput, 100.0);
    }
}
