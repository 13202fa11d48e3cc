//! Thread policies: default, static (§4), best-fit oracle, adaptive (§5).

use std::collections::BTreeMap;

use crate::controller::MapeConfig;

/// Structural classification of a stage, inferred from its operators.
///
/// The static solution marks a stage I/O if any of its operators reads
/// from or writes to storage (`textFile`, `saveAsTextFile`, ...),
/// regardless of size — which is precisely its limitation L2/L3: shuffle
/// stages spill to disk without being marked, and small reads are marked
/// without mattering.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StageKind {
    /// The stage contains explicit storage read/write operators.
    Io,
    /// No structural evidence of storage I/O (may still shuffle/spill!).
    Generic,
}

/// What a policy gets to know about a stage before it runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageInfo {
    /// Stage index within the job.
    pub stage_id: usize,
    /// Structural classification.
    pub kind: StageKind,
}

/// The static solution's configuration: one thread count for all I/O
/// stages (limitation L1: it cannot differentiate between them).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StaticPolicy {
    /// Thread count used in stages classified [`StageKind::Io`].
    pub io_threads: usize,
}

impl StaticPolicy {
    /// Creates the policy.
    ///
    /// # Panics
    ///
    /// Panics if `io_threads` is zero.
    pub fn new(io_threads: usize) -> Self {
        assert!(io_threads > 0, "io_threads must be positive");
        Self { io_threads }
    }
}

/// A per-stage thread-count table: the "static BestFit" oracle of the
/// evaluation, derived by sweeping each stage offline (Figures 2, 4).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct BestFitTable {
    threads_by_stage: BTreeMap<usize, usize>,
}

impl BestFitTable {
    /// Creates an empty table (all stages fall back to the default).
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Sets the thread count for a stage.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero.
    pub(crate) fn set(&mut self, stage_id: usize, threads: usize) {
        assert!(threads > 0, "thread count must be positive");
        self.threads_by_stage.insert(stage_id, threads);
    }

    /// The thread count for `stage_id`, if the table has one.
    pub(crate) fn get(&self, stage_id: usize) -> Option<usize> {
        self.threads_by_stage.get(&stage_id).copied()
    }
}

impl FromIterator<(usize, usize)> for BestFitTable {
    fn from_iter<I: IntoIterator<Item = (usize, usize)>>(iter: I) -> Self {
        let mut table = Self::new();
        for (stage, threads) in iter {
            table.set(stage, threads);
        }
        table
    }
}

/// How executors size their thread pools: the four configurations the
/// paper evaluates against each other (Figure 8).
#[derive(Debug, Clone, PartialEq, Default)]
pub enum ThreadPolicy {
    /// Default Spark: one thread per virtual core in every stage.
    #[default]
    Default,
    /// The static solution: `io_threads` for I/O stages, default elsewhere.
    Static(StaticPolicy),
    /// The hypothetical per-stage optimum derived from sweeps.
    BestFit(BestFitTable),
    /// The self-adaptive MAPE-K controller.
    Adaptive(MapeConfig),
}

impl ThreadPolicy {
    /// The *initial* thread count for a stage, given the node's core count.
    ///
    /// For [`ThreadPolicy::Adaptive`] this is only the starting point
    /// (`c_min`, or `c_max` for stages below the adaptation threshold given
    /// `task_hint`); the controller adjusts from there at runtime.
    pub fn initial_threads(
        &self,
        stage: StageInfo,
        cores: usize,
        task_hint: Option<usize>,
    ) -> usize {
        match self {
            ThreadPolicy::Default => cores,
            ThreadPolicy::Static(policy) => match stage.kind {
                StageKind::Io => policy.io_threads.min(cores),
                StageKind::Generic => cores,
            },
            ThreadPolicy::BestFit(table) => table.get(stage.stage_id).unwrap_or(cores).min(cores),
            ThreadPolicy::Adaptive(cfg) => {
                if task_hint.is_some_and(|t| t < cfg.min_stage_tasks()) {
                    cfg.c_max.min(cores)
                } else {
                    cfg.c_min
                }
            }
        }
    }

    /// A short stable name for reports ("default", "static", ...).
    pub fn name(&self) -> &'static str {
        match self {
            ThreadPolicy::Default => "default",
            ThreadPolicy::Static(_) => "static",
            ThreadPolicy::BestFit(_) => "static-bestfit",
            ThreadPolicy::Adaptive(_) => "dynamic",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn io_stage(id: usize) -> StageInfo {
        StageInfo {
            stage_id: id,
            kind: StageKind::Io,
        }
    }

    fn generic_stage(id: usize) -> StageInfo {
        StageInfo {
            stage_id: id,
            kind: StageKind::Generic,
        }
    }

    #[test]
    fn default_policy_uses_all_cores() {
        let p = ThreadPolicy::Default;
        assert_eq!(p.initial_threads(io_stage(0), 32, None), 32);
        assert_eq!(p.initial_threads(generic_stage(1), 32, None), 32);
    }

    #[test]
    fn static_policy_only_touches_io_stages() {
        let p = ThreadPolicy::Static(StaticPolicy::new(8));
        assert_eq!(p.initial_threads(io_stage(0), 32, None), 8);
        assert_eq!(p.initial_threads(generic_stage(1), 32, None), 32);
    }

    #[test]
    fn static_policy_clamped_to_cores() {
        let p = ThreadPolicy::Static(StaticPolicy::new(64));
        assert_eq!(p.initial_threads(io_stage(0), 32, None), 32);
    }

    #[test]
    fn bestfit_uses_table_with_default_fallback() {
        let table: BestFitTable = [(0, 4), (2, 8)].into_iter().collect();
        let p = ThreadPolicy::BestFit(table);
        assert_eq!(p.initial_threads(io_stage(0), 32, None), 4);
        assert_eq!(p.initial_threads(generic_stage(1), 32, None), 32);
        assert_eq!(p.initial_threads(io_stage(2), 32, None), 8);
    }

    #[test]
    fn adaptive_starts_at_c_min_or_skips_short_stages() {
        let p = ThreadPolicy::Adaptive(MapeConfig::new(2, 32));
        assert_eq!(p.initial_threads(io_stage(0), 32, Some(100)), 2);
        assert_eq!(p.initial_threads(io_stage(0), 32, None), 2);
        assert_eq!(p.initial_threads(io_stage(0), 32, Some(2)), 32);
    }

    #[test]
    fn policy_names_are_stable() {
        assert_eq!(ThreadPolicy::Default.name(), "default");
        assert_eq!(ThreadPolicy::Static(StaticPolicy::new(8)).name(), "static");
        assert_eq!(
            ThreadPolicy::BestFit(BestFitTable::new()).name(),
            "static-bestfit"
        );
        assert_eq!(
            ThreadPolicy::Adaptive(MapeConfig::new(2, 32)).name(),
            "dynamic"
        );
    }

    #[test]
    fn bestfit_table_bookkeeping() {
        let mut t = BestFitTable::new();
        assert_eq!(t.get(1), None);
        t.set(1, 16);
        assert_eq!(t.get(1), Some(16));
        assert_eq!(t.get(9), None);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_io_threads_rejected() {
        let _ = StaticPolicy::new(0);
    }
}
