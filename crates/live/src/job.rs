//! Job descriptions for the live runtime.
//!
//! A [`LiveJob`] is a linear sequence of stages, each of which runs real
//! tasks — generating, spilling, reading and sorting Terasort records on
//! actual disk. Stage structure is deliberately the same shape the
//! simulated engine consumes (tasks per stage, stage boundaries trigger
//! pool resets) so decision traces from the two runtimes line up.

use sae_dag::codec::FrameError;

use crate::wire::Frame;

/// What one stage's tasks actually do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LiveStageKind {
    /// Generate `records_per_task` Terasort records and spill them to disk
    /// (write-heavy, I/O-bound — the map side).
    Spill,
    /// Read the spill back, sort it, and write the sorted run
    /// (read-then-CPU-then-write — the reduce side).
    Sort,
}

impl LiveStageKind {
    /// Wire discriminant for [`Frame::JobStageStart`].
    pub(crate) fn to_wire(self) -> u64 {
        match self {
            LiveStageKind::Spill => 0,
            LiveStageKind::Sort => 1,
        }
    }

    /// Inverse of [`LiveStageKind::to_wire`]; undefined discriminants are
    /// a framing error, not a panic.
    pub(crate) fn from_wire(v: u64) -> Result<Self, FrameError> {
        match v {
            0 => Ok(LiveStageKind::Spill),
            1 => Ok(LiveStageKind::Sort),
            other => Err(FrameError::FieldOverflow(other)),
        }
    }
}

/// One stage of a live job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LiveStageSpec {
    /// Human-readable stage name for reports.
    pub name: String,
    /// What the stage's tasks do.
    pub kind: LiveStageKind,
    /// Number of tasks.
    pub tasks: usize,
    /// Records each task generates (Spill) or sorts (Sort).
    pub records_per_task: usize,
    /// Base seed; each task derives its own stream from it.
    pub seed: u64,
}

/// A linear multi-stage job for the live cluster.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LiveJob {
    /// Job name for reports.
    pub name: String,
    /// Stages, run strictly in order with a barrier between them.
    pub stages: Vec<LiveStageSpec>,
}

impl LiveJob {
    /// The announcement of stage `stage`, run under the wire job id `job`
    /// — what the driver and the job server send before assigning any of
    /// the stage's tasks.
    pub(crate) fn stage_frame(&self, job: u64, stage: usize) -> Frame {
        let spec = &self.stages[stage];
        Frame::JobStageStart {
            job,
            stage,
            kind: spec.kind,
            tasks: spec.tasks,
            records_per_task: spec.records_per_task,
            seed: spec.seed,
        }
    }
}

/// Builds the live Terasort job: a spill (map) stage that generates and
/// writes `tasks * records_per_task` records, then a sort (reduce) stage
/// that reads each partition back, sorts it and writes the sorted run.
///
/// # Examples
///
/// ```
/// let job = sae_live::terasort(8, 1000, 42);
/// assert_eq!(job.stages.len(), 2);
/// assert_eq!(job.stages[0].tasks, 8);
/// ```
pub fn terasort(tasks: usize, records_per_task: usize, seed: u64) -> LiveJob {
    LiveJob {
        name: format!("terasort-{tasks}x{records_per_task}"),
        stages: vec![
            LiveStageSpec {
                name: "teragen+spill".into(),
                kind: LiveStageKind::Spill,
                tasks,
                records_per_task,
                seed,
            },
            LiveStageSpec {
                name: "sort".into(),
                kind: LiveStageKind::Sort,
                tasks,
                records_per_task,
                seed,
            },
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn terasort_builds_two_matching_stages() {
        let job = terasort(16, 500, 9);
        assert_eq!(job.stages.len(), 2);
        assert_eq!(job.stages[0].kind, LiveStageKind::Spill);
        assert_eq!(job.stages[1].kind, LiveStageKind::Sort);
        assert!(job
            .stages
            .iter()
            .all(|s| s.tasks == 16 && s.records_per_task == 500 && s.seed == 9));
    }

    #[test]
    fn stage_kind_wire_round_trip() {
        for kind in [LiveStageKind::Spill, LiveStageKind::Sort] {
            assert_eq!(LiveStageKind::from_wire(kind.to_wire()).unwrap(), kind);
        }
        assert!(LiveStageKind::from_wire(2).is_err());
    }
}
