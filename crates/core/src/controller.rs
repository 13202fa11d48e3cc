//! The complete MAPE-K loop glued together: one controller per executor.

use crate::analyzer::{Analysis, ClimbDirection, CongestionSignal, HillClimbAnalyzer};
use crate::journal::{DecisionAction, DecisionJournal, DecisionRecord};
use crate::monitor::{IntervalReport, Monitor, ProbeSnapshot};

/// Configuration of the adaptive controller.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MapeConfig {
    /// Minimum thread count the climb starts from. The paper uses 2, "since
    /// it is almost impossible that a single thread outperforms multiple
    /// ones".
    pub c_min: usize,
    /// Maximum thread count, typically the node's virtual core count.
    pub c_max: usize,
    /// Regression tolerance for the hill climb: an interval only rolls
    /// back when `ζ_j > ζ_{j/2} · (1 + rollback_tolerance)`. Absorbs
    /// measurement noise and keeps CPU-bound stages (flat ζ) climbing.
    pub rollback_tolerance: f64,
    /// Minimum fraction of thread-time spent blocked on I/O for a stage to
    /// be worth tuning. Below it, "there is not enough I/O activity to
    /// justify using fewer threads" (§4, L3) and the controller jumps the
    /// pool straight to `c_max` instead of paying for the full climb.
    pub min_io_fraction: f64,
    /// Climb direction (default: ascend from `c_min`, per §5.2).
    pub direction: ClimbDirection,
    /// Optimised signal (default: the congestion index ζ, per §5.2).
    pub signal: CongestionSignal,
}

impl MapeConfig {
    /// Creates a configuration with the paper's defaults for the interval
    /// heuristics.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= c_min <= c_max`.
    pub fn new(c_min: usize, c_max: usize) -> Self {
        assert!(
            c_min >= 1 && c_min <= c_max,
            "need 1 <= c_min <= c_max, got [{c_min}, {c_max}]"
        );
        Self {
            c_min,
            c_max,
            rollback_tolerance: 0.50,
            min_io_fraction: 0.25,
            direction: ClimbDirection::Ascend,
            signal: CongestionSignal::ZetaIndex,
        }
    }

    /// Stages with fewer tasks than `3 · c_min` cannot complete even two
    /// monitoring intervals; the controller skips adaptation and runs them
    /// at `c_max` (the default behaviour).
    pub(crate) fn min_stage_tasks(&self) -> usize {
        self.c_min * 3
    }
}

/// Throughput below which an interval counts as "no I/O evidence" (MB/s).
///
/// Such intervals ascend unconditionally: with no I/O there is nothing to
/// congest, and more threads always help CPU-bound work (addresses
/// limitation L3 of the static solution).
const NO_IO_THROUGHPUT: f64 = 5.0;

/// A self-adaptive executor controller: Monitor → Analyze → Plan →
/// (Execute) over a knowledge base of interval reports.
///
/// The controller is deliberately passive about effecting changes: its
/// decision is the plan. [`AdaptiveController::task_finished`] returns the
/// new pool size, and the effector — the simulated engine, the live
/// executor or the `sae-pool` wrapper — resizes its pool and tells its
/// scheduler. This keeps the control logic free of backend state and
/// trivially testable — see the crate-level example.
#[derive(Debug, Clone)]
pub struct AdaptiveController {
    config: MapeConfig,
    monitor: Monitor,
    analyzer: HillClimbAnalyzer,
    /// Knowledge base: every completed interval of the current stage.
    history: Vec<IntervalReport>,
    current_threads: usize,
    adapting: bool,
    /// Decision journal: one record per closed interval plus a terminal
    /// record for every stage (see [`crate::DecisionRecord`]).
    journal: DecisionJournal,
    /// Id stamped into journal records (set via
    /// [`AdaptiveController::with_executor`]).
    executor: usize,
    /// Adaptation episode of the stage in progress (counts stage starts).
    stage: usize,
    /// Total stage starts seen; `stage` of the *next* stage.
    stages_started: usize,
    /// Interval index `j` within the current stage.
    interval_idx: usize,
    /// Whether a terminal journal record was emitted for the current
    /// stage. Starts `true`: there is nothing to finalize before the
    /// first stage.
    finalized: bool,
}

impl AdaptiveController {
    /// Creates a controller with the given configuration.
    pub fn new(config: MapeConfig) -> Self {
        Self {
            config,
            monitor: Monitor::new(),
            analyzer: HillClimbAnalyzer::new(config.c_min, config.c_max)
                .with_tolerance(config.rollback_tolerance)
                .with_direction(config.direction)
                .with_signal(config.signal),
            history: Vec::new(),
            current_threads: config.c_max,
            adapting: false,
            journal: DecisionJournal::new(),
            executor: 0,
            stage: 0,
            stages_started: 0,
            interval_idx: 0,
            finalized: true,
        }
    }

    /// Sets the executor id stamped into journal records.
    pub fn with_executor(mut self, executor: usize) -> Self {
        self.executor = executor;
        self
    }

    /// The decision journal this controller appends to. The handle is
    /// shared: clone it to drain or render records from outside.
    pub fn journal(&self) -> &DecisionJournal {
        &self.journal
    }

    /// Replaces the journal handle, so several components can funnel into
    /// one shared journal. Call before the first stage starts.
    pub fn set_journal(&mut self, journal: DecisionJournal) {
        self.journal = journal;
    }

    /// Starts a new stage at time `now` and returns the thread count to run
    /// with. `task_hint` is the number of tasks this executor expects in the
    /// stage, if known.
    ///
    /// Adaptation starts at `c_min`; stages too short to measure run at
    /// `c_max` unadapted.
    pub fn stage_started(&mut self, now: f64, task_hint: Option<usize>) -> usize {
        self.finalize_stage(now);
        self.history.clear();
        self.analyzer.reset();
        self.monitor.stop();
        self.stage = self.stages_started;
        self.stages_started += 1;
        self.interval_idx = 0;
        if let Some(tasks) = task_hint.filter(|t| *t < self.config.min_stage_tasks()) {
            let pool_before = self.current_threads;
            self.adapting = false;
            self.current_threads = self.config.c_max;
            self.finalized = true;
            self.journal.push(DecisionRecord {
                stage: self.stage,
                executor: self.executor,
                interval: 0,
                at: now,
                threads: self.current_threads,
                epoll_wait_s: 0.0,
                throughput_bps: 0.0,
                zeta: 0.0,
                pool_before,
                pool_after: self.current_threads,
                action: DecisionAction::Hold,
                rationale: format!(
                    "stage of {tasks} tasks is below min_stage_tasks={}: too short to \
                     complete two monitoring intervals, run unadapted at c_max={}",
                    self.config.min_stage_tasks(),
                    self.config.c_max
                ),
            });
            return self.current_threads;
        }
        self.adapting = true;
        self.finalized = false;
        self.current_threads = self.analyzer.start_point();
        self.monitor
            .begin_interval(self.current_threads, now, ProbeSnapshot::default());
        self.current_threads
    }

    /// Declares the current stage over at time `now`.
    ///
    /// If the hill climb was still open — the stage ran out of tasks
    /// before the analyzer reached a verdict — a terminal
    /// [`DecisionAction::Hold`] record is journaled, so every stage's
    /// journal ends with a terminal action. Idempotent; also called
    /// implicitly by the next [`AdaptiveController::stage_started`].
    pub fn finalize_stage(&mut self, now: f64) {
        if self.finalized {
            return;
        }
        self.finalized = true;
        self.adapting = false;
        self.monitor.stop();
        self.journal.push(DecisionRecord {
            stage: self.stage,
            executor: self.executor,
            interval: self.interval_idx,
            at: now,
            threads: self.current_threads,
            epoll_wait_s: 0.0,
            throughput_bps: 0.0,
            zeta: 0.0,
            pool_before: self.current_threads,
            pool_after: self.current_threads,
            action: DecisionAction::Hold,
            rationale: format!(
                "stage ended after {} clean interval(s) with the climb still open: \
                 hold at {} threads",
                self.interval_idx, self.current_threads
            ),
        });
    }

    /// Records a task completion at `now`, with the executor's epoll-wait
    /// seconds and I/O megabytes *accumulated since the stage started*
    /// (monotone within a stage; the engine resets its counters per stage).
    /// Returns `Some(new_threads)` when the controller decides to change
    /// the pool size.
    pub fn task_finished(&mut self, now: f64, epoll_cum: f64, bytes_cum: f64) -> Option<usize> {
        self.task_finished_probe(now, ProbeSnapshot::basic(epoll_cum, bytes_cum))
    }

    /// Like [`AdaptiveController::task_finished`], with the full probe
    /// snapshot (required when [`MapeConfig::signal`] is
    /// [`CongestionSignal::DiskUtilization`]).
    pub fn task_finished_probe(&mut self, now: f64, snapshot: ProbeSnapshot) -> Option<usize> {
        if !self.adapting {
            return None;
        }
        let report = self.monitor.task_finished(now, snapshot)?;
        self.history.push(report);
        let io_fraction = self.io_fraction(&report);
        let low_io = !self.analyzer.settled()
            && (report.throughput < NO_IO_THROUGHPUT || io_fraction < self.config.min_io_fraction);
        // The comparison baseline, captured before `analyze` replaces it.
        let prev = self.analyzer.previous();
        let analysis = if low_io {
            // Not enough I/O evidence to justify throttling (L3): the stage
            // is CPU-bound, so jump straight to the CPU-friendly maximum
            // instead of paying for the doubling climb.
            if report.threads >= self.config.c_max {
                Analysis::SettleAtMax
            } else {
                Analysis::Ascend {
                    next: self.config.c_max,
                }
            }
        } else {
            self.analyzer.analyze(&report)
        };
        // The decision is the plan: the pool size to move to (none when it
        // would not change) and whether adaptation ends for this stage.
        let (target, terminal) = match analysis {
            Analysis::Ascend { next } => (Some(next), false),
            Analysis::Rollback { to } => (Some(to), true),
            Analysis::SettleAtMax => (None, true),
        };
        let target = target.filter(|&t| t != self.current_threads);
        self.journal_interval(now, &report, low_io, prev, analysis, target, terminal);
        if terminal {
            self.adapting = false;
            self.monitor.stop();
        } else {
            let next = target.unwrap_or(self.current_threads);
            self.monitor.begin_interval(next, now, snapshot);
        }
        if let Some(next) = target {
            self.current_threads = next;
            Some(next)
        } else {
            None
        }
    }

    /// Appends the journal record explaining the decision for one closed
    /// interval.
    #[allow(clippy::too_many_arguments)]
    fn journal_interval(
        &mut self,
        now: f64,
        report: &IntervalReport,
        low_io: bool,
        prev: Option<(usize, f64)>,
        analysis: Analysis,
        target: Option<usize>,
        terminal: bool,
    ) {
        let score = self.config.signal.score(report);
        let label = match self.config.signal {
            CongestionSignal::ZetaIndex => "zeta",
            CongestionSignal::DiskUtilization => "1-disk_util",
        };
        let tol_pct = self.config.rollback_tolerance * 100.0;
        let (action, rationale) = if low_io {
            let evidence =
                format!(
                "mu={:.2} MB/s, I/O wait fraction {:.3} (floors: mu >= {NO_IO_THROUGHPUT} MB/s, \
                 fraction >= {:.2})",
                report.throughput, self.io_fraction(report), self.config.min_io_fraction
            );
            match analysis {
                Analysis::Ascend { next } => (
                    DecisionAction::Ascend,
                    format!(
                        "{evidence}: not enough I/O evidence to throttle (L3), \
                         jump straight to c_max={next}"
                    ),
                ),
                _ => (
                    DecisionAction::Hold,
                    format!(
                        "{evidence}: CPU-bound stage already at c_max={}, hold",
                        self.config.c_max
                    ),
                ),
            }
        } else {
            match analysis {
                Analysis::Ascend { next } => (
                    DecisionAction::Ascend,
                    match prev {
                        None => format!(
                            "first interval at {} threads ({label}={score:.4}): \
                             no baseline yet, climb to {next}",
                            report.threads
                        ),
                        Some((pt, ps)) => format!(
                            "{label}={score:.4} at {} threads within {tol_pct:.0}% of \
                             {label}={ps:.4} at {pt}: climb to {next}",
                            report.threads
                        ),
                    },
                ),
                Analysis::Rollback { to } => {
                    let (pt, ps) = prev.expect("rollback implies a baseline");
                    (
                        DecisionAction::RollBack,
                        format!(
                            "{label}={score:.4} at {} threads regressed more than \
                             {tol_pct:.0}% past {label}={ps:.4} at {pt}: roll back to {to} and hold",
                            report.threads
                        ),
                    )
                }
                Analysis::SettleAtMax => (
                    DecisionAction::Hold,
                    format!(
                        "still improving at the climb boundary ({} threads, {label}={score:.4}): \
                         hold for the rest of the stage",
                        report.threads
                    ),
                ),
            }
        };
        self.journal.push(DecisionRecord {
            stage: self.stage,
            executor: self.executor,
            interval: self.interval_idx,
            at: now,
            threads: report.threads,
            epoll_wait_s: report.epoll_wait,
            throughput_bps: report.throughput * 1024.0 * 1024.0,
            zeta: report.zeta,
            pool_before: self.current_threads,
            pool_after: target.unwrap_or(self.current_threads),
            action,
            rationale,
        });
        self.interval_idx += 1;
        if terminal {
            self.finalized = true;
        }
    }

    /// Fraction of thread-time the interval spent blocked on I/O.
    fn io_fraction(&self, report: &IntervalReport) -> f64 {
        if report.duration > 0.0 {
            report.epoll_wait / (report.threads as f64 * report.duration)
        } else {
            1.0
        }
    }

    /// Declares the current monitoring interval disturbed — a task on this
    /// executor failed, an executor elsewhere was lost and its work is
    /// being redistributed, or a speculative clone was cancelled mid-run.
    ///
    /// The interval is discarded and restarted from `snapshot` at the same
    /// thread count: its congestion measurements no longer reflect the
    /// thread count under test, and feeding them to the analyzer would
    /// push phantom congestion into the hill climb. The knowledge base
    /// keeps only clean intervals.
    pub fn interval_disturbed(&mut self, now: f64, snapshot: ProbeSnapshot) {
        if !self.adapting || !self.monitor.is_active() {
            return;
        }
        self.monitor
            .begin_interval(self.current_threads, now, snapshot);
    }

    /// Like [`AdaptiveController::interval_disturbed`], but leaves a
    /// [`DecisionAction::Poisoned`] record in the journal explaining *why*
    /// the interval was discarded — the live runtime's fault-aware variant,
    /// where a discarded interval is evidence worth keeping (the sim's
    /// disturbances are already visible in its own trace).
    ///
    /// The interval index does not advance: the restarted interval keeps
    /// the same `j`, so the journal shows the poisoning and the eventual
    /// clean closure of the same interval side by side.
    pub fn interval_poisoned(&mut self, now: f64, snapshot: ProbeSnapshot, reason: &str) {
        if !self.adapting || !self.monitor.is_active() {
            return;
        }
        self.journal.push(DecisionRecord {
            stage: self.stage,
            executor: self.executor,
            interval: self.interval_idx,
            at: now,
            threads: self.current_threads,
            epoll_wait_s: 0.0,
            throughput_bps: 0.0,
            zeta: 0.0,
            pool_before: self.current_threads,
            pool_after: self.current_threads,
            action: DecisionAction::Poisoned,
            rationale: format!(
                "interval overlaps a detected fault ({reason}): measurements discarded, \
                 interval restarted at {} threads",
                self.current_threads
            ),
        });
        self.interval_disturbed(now, snapshot);
    }

    /// Whether the controller has finished adapting for the current stage.
    pub fn settled(&self) -> bool {
        !self.adapting
    }

    /// The knowledge base: interval reports of the current stage, in order.
    pub fn history(&self) -> &[IntervalReport] {
        &self.history
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Simulates an executor where epoll wait per task grows with thread
    /// count as `wait_factor * threads^2` and each task moves `mb_per_task`.
    fn run_synthetic(
        ctl: &mut AdaptiveController,
        tasks: usize,
        mb_per_task: f64,
        wait_factor: f64,
    ) -> Vec<usize> {
        let mut decisions = Vec::new();
        let mut threads = ctl.stage_started(0.0, Some(tasks));
        decisions.push(threads);
        let (mut now, mut epoll, mut bytes) = (0.0, 0.0, 0.0);
        for _ in 0..tasks {
            now += 1.0;
            // Half a second of base I/O wait per task keeps the synthetic
            // stage above the min_io_fraction floor; contention adds the
            // superlinear component.
            epoll += 0.5 + wait_factor * (threads as f64).powi(2);
            bytes += mb_per_task;
            if let Some(next) = ctl.task_finished(now, epoll, bytes) {
                threads = next;
                decisions.push(next);
            }
        }
        decisions
    }

    /// The decision is the plan: each analyzer verdict maps to one resize,
    /// one journal record and one stop-or-continue. Intervals run one
    /// completion per second; `(threads, wait, mb)` is the per-task epoll
    /// wait and I/O of an interval of `threads` completions.
    #[test]
    fn each_verdict_resizes_journals_and_stops_as_planned() {
        struct Case {
            name: &'static str,
            c_max: usize,
            /// Pool size forced before the first interval closes.
            pool: Option<usize>,
            intervals: &'static [(usize, f64, f64)],
            resize: Option<usize>,
            action: DecisionAction,
            pool_after: usize,
            stops: bool,
        }
        let cases = [
            Case {
                name: "ascend",
                c_max: 32,
                pool: None,
                intervals: &[(2, 1.0, 100.0)],
                resize: Some(4),
                action: DecisionAction::Ascend,
                pool_after: 4,
                stops: false,
            },
            Case {
                // ζ quadruples at 4 threads: past the 50% tolerance.
                name: "rollback",
                c_max: 32,
                pool: None,
                intervals: &[(2, 1.0, 100.0), (4, 2.0, 100.0)],
                resize: Some(2),
                action: DecisionAction::RollBack,
                pool_after: 2,
                stops: true,
            },
            Case {
                name: "settle at max",
                c_max: 2,
                pool: None,
                intervals: &[(2, 1.0, 100.0)],
                resize: None,
                action: DecisionAction::Hold,
                pool_after: 2,
                stops: true,
            },
            Case {
                // The monitor always measures at the current size, so no
                // input reaches `next == current_threads`; force the pool.
                name: "no-op ascend",
                c_max: 32,
                pool: Some(4),
                intervals: &[(2, 1.0, 100.0)],
                resize: None,
                action: DecisionAction::Ascend,
                pool_after: 4,
                stops: false,
            },
        ];
        for case in cases {
            let mut ctl = AdaptiveController::new(MapeConfig::new(2, case.c_max));
            ctl.stage_started(0.0, Some(300));
            if let Some(pool) = case.pool {
                ctl.current_threads = pool;
            }
            let (mut now, mut epoll, mut bytes) = (0.0, 0.0, 0.0);
            let mut resize = None;
            for &(threads, wait, mb) in case.intervals {
                for _ in 0..threads {
                    now += 1.0;
                    epoll += wait;
                    bytes += mb;
                    resize = ctl.task_finished(now, epoll, bytes);
                }
            }
            let name = case.name;
            assert_eq!(resize, case.resize, "{name}: resize");
            let records = ctl.journal().records();
            assert_eq!(records.len(), case.intervals.len(), "{name}: records");
            let last = records.last().unwrap();
            assert_eq!(last.action, case.action, "{name}: action");
            assert_eq!(last.pool_after, case.pool_after, "{name}: target");
            assert_eq!(last.action.is_terminal(), case.stops, "{name}: terminal");
            assert_eq!(ctl.settled(), case.stops, "{name}: stops adapting");
            assert_eq!(ctl.current_threads, case.pool_after, "{name}: pool");
        }
    }

    #[test]
    fn starts_at_c_min() {
        let mut ctl = AdaptiveController::new(MapeConfig::new(2, 32));
        assert_eq!(ctl.stage_started(0.0, Some(100)), 2);
    }

    #[test]
    fn contention_growth_causes_rollback() {
        let mut ctl = AdaptiveController::new(MapeConfig::new(2, 32));
        let decisions = run_synthetic(&mut ctl, 300, 100.0, 0.01);
        assert!(ctl.settled());
        let last = *decisions.last().unwrap();
        assert!(last < 32, "should not settle at max: {decisions:?}");
        assert!(last >= 2);
    }

    #[test]
    fn cpu_only_stage_climbs_to_max() {
        let mut ctl = AdaptiveController::new(MapeConfig::new(2, 32));
        // Zero I/O: every interval has ~0 throughput.
        let decisions = run_synthetic(&mut ctl, 300, 0.0, 0.0);
        assert!(ctl.settled());
        assert_eq!(*decisions.last().unwrap(), 32);
    }

    #[test]
    fn low_io_fraction_jumps_to_max_immediately() {
        // A CPU-bound stage with *some* I/O (µ above the zero-IO floor but
        // ε far below min_io_fraction) jumps to c_max after one interval
        // instead of paying for the doubling climb.
        let mut ctl = AdaptiveController::new(MapeConfig::new(2, 32));
        let mut threads = ctl.stage_started(0.0, Some(300));
        let (mut now, mut epoll, mut bytes) = (0.0, 0.0, 0.0);
        let mut jumps = Vec::new();
        for _ in 0..20 {
            now += 1.0;
            epoll += 0.02; // 2% of thread-time blocked
            bytes += 100.0;
            if let Some(next) = ctl.task_finished(now, epoll, bytes) {
                threads = next;
                jumps.push(next);
            }
        }
        assert_eq!(jumps.first(), Some(&32), "should jump straight to c_max");
        assert_eq!(threads, 32);
    }

    #[test]
    fn short_stage_runs_at_default() {
        let mut ctl = AdaptiveController::new(MapeConfig::new(2, 32));
        assert_eq!(ctl.stage_started(0.0, Some(3)), 32);
        assert!(ctl.settled());
        assert_eq!(ctl.task_finished(1.0, 0.0, 0.0), None);
    }

    #[test]
    fn unknown_task_count_still_adapts() {
        let mut ctl = AdaptiveController::new(MapeConfig::new(2, 32));
        assert_eq!(ctl.stage_started(0.0, None), 2);
        assert!(!ctl.settled());
    }

    #[test]
    fn history_records_every_interval() {
        let mut ctl = AdaptiveController::new(MapeConfig::new(2, 16));
        run_synthetic(&mut ctl, 200, 100.0, 0.005);
        assert!(!ctl.history().is_empty());
        // Interval thread counts double from c_min.
        assert_eq!(ctl.history()[0].threads, 2);
        if ctl.history().len() > 1 {
            assert_eq!(ctl.history()[1].threads, 4);
        }
    }

    #[test]
    fn new_stage_resets_state() {
        let mut ctl = AdaptiveController::new(MapeConfig::new(2, 32));
        run_synthetic(&mut ctl, 300, 100.0, 0.01);
        assert!(ctl.settled());
        let threads = ctl.stage_started(1000.0, Some(300));
        assert_eq!(threads, 2);
        assert!(!ctl.settled());
        assert!(ctl.history().is_empty());
    }

    #[test]
    fn decisions_stay_in_bounds() {
        for wait_factor in [0.0, 0.001, 0.01, 0.1, 1.0] {
            let mut ctl = AdaptiveController::new(MapeConfig::new(2, 32));
            let decisions = run_synthetic(&mut ctl, 500, 50.0, wait_factor);
            for d in decisions {
                assert!((2..=32).contains(&d), "decision {d} out of bounds");
            }
        }
    }

    #[test]
    fn disturbed_interval_is_discarded_not_analyzed() {
        let mut ctl = AdaptiveController::new(MapeConfig::new(2, 32));
        let threads = ctl.stage_started(0.0, Some(300));
        assert_eq!(threads, 2);
        // One completion into the first interval (needs `threads` = 2).
        assert_eq!(ctl.task_finished(1.0, 0.6, 100.0), None);
        assert!(ctl.history().is_empty());
        // A failure elsewhere poisons the interval: restart it.
        ctl.interval_disturbed(1.5, crate::ProbeSnapshot::basic(0.7, 110.0));
        // The next completion is the restarted interval's *first*, so no
        // report is produced and nothing enters the knowledge base.
        assert_eq!(ctl.task_finished(2.0, 1.3, 210.0), None);
        assert!(ctl.history().is_empty());
        // Two clean completions after the restart close an interval.
        let _ = ctl.task_finished(3.0, 2.0, 320.0);
        assert_eq!(ctl.history().len(), 1);
        assert_eq!(ctl.history()[0].threads, 2);
    }

    #[test]
    fn poisoned_interval_journals_and_restarts() {
        use crate::journal::DecisionAction;
        let mut ctl = AdaptiveController::new(MapeConfig::new(2, 32)).with_executor(1);
        let _ = ctl.stage_started(0.0, Some(300));
        assert_eq!(ctl.task_finished(1.0, 0.6, 100.0), None);
        ctl.interval_poisoned(
            1.5,
            crate::ProbeSnapshot::basic(0.7, 110.0),
            "executor 2 lost",
        );
        // The poisoning is journaled, non-terminal, at the same interval
        // index the restarted interval will close under.
        let records = ctl.journal().records();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].action, DecisionAction::Poisoned);
        assert_eq!(records[0].interval, 0);
        assert!(records[0].rationale.contains("executor 2 lost"));
        assert!(!records[0].action.is_terminal());
        // The restarted interval closes cleanly under the same index.
        let _ = ctl.task_finished(2.0, 1.3, 210.0);
        let _ = ctl.task_finished(3.0, 2.0, 320.0);
        assert_eq!(ctl.history().len(), 1);
        let records = ctl.journal().records();
        assert_eq!(records.last().unwrap().interval, 0);
        assert_ne!(records.last().unwrap().action, DecisionAction::Poisoned);
    }

    #[test]
    fn poisoning_after_settling_is_inert() {
        let mut ctl = AdaptiveController::new(MapeConfig::new(2, 32));
        let _ = ctl.stage_started(0.0, Some(3)); // short stage: no adaptation
        let before = ctl.journal().len();
        ctl.interval_poisoned(1.0, crate::ProbeSnapshot::default(), "noise");
        assert_eq!(ctl.journal().len(), before);
    }

    #[test]
    fn disturbance_after_settling_is_inert() {
        let mut ctl = AdaptiveController::new(MapeConfig::new(2, 32));
        let _ = ctl.stage_started(0.0, Some(3)); // short stage: no adaptation
        assert!(ctl.settled());
        ctl.interval_disturbed(1.0, crate::ProbeSnapshot::default());
        assert!(ctl.settled());
        assert_eq!(ctl.task_finished(2.0, 0.0, 0.0), None);
    }

    #[test]
    fn journal_records_one_entry_per_interval_plus_terminal() {
        use crate::journal::DecisionAction;
        let mut ctl = AdaptiveController::new(MapeConfig::new(2, 32)).with_executor(3);
        run_synthetic(&mut ctl, 300, 100.0, 0.01);
        assert!(ctl.settled());
        let records = ctl.journal().records();
        assert_eq!(records.len(), ctl.history().len());
        for (j, r) in records.iter().enumerate() {
            assert_eq!(r.interval, j);
            assert_eq!(r.executor, 3);
            assert_eq!(r.stage, 0);
            assert!(!r.rationale.is_empty());
        }
        // Contention growth ends in a rollback, which is terminal.
        let last = records.last().unwrap();
        assert_eq!(last.action, DecisionAction::RollBack);
        assert!(last.pool_after < last.pool_before);
    }

    #[test]
    fn journal_interval_measurements_match_history() {
        let mut ctl = AdaptiveController::new(MapeConfig::new(2, 16));
        run_synthetic(&mut ctl, 200, 100.0, 0.005);
        let records = ctl.journal().records();
        for (r, h) in records.iter().zip(ctl.history()) {
            assert_eq!(r.threads, h.threads);
            assert_eq!(r.epoll_wait_s, h.epoll_wait);
            assert_eq!(r.zeta, h.zeta);
            assert_eq!(r.throughput_bps, h.throughput * 1024.0 * 1024.0);
        }
    }

    #[test]
    fn short_stage_journals_a_terminal_hold() {
        use crate::journal::DecisionAction;
        let mut ctl = AdaptiveController::new(MapeConfig::new(2, 32));
        let _ = ctl.stage_started(0.0, Some(3));
        let records = ctl.journal().records();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].action, DecisionAction::Hold);
        assert_eq!(records[0].pool_after, 32);
        assert!(records[0].rationale.contains("min_stage_tasks"));
    }

    #[test]
    fn finalize_mid_climb_emits_terminal_hold() {
        use crate::journal::DecisionAction;
        let mut ctl = AdaptiveController::new(MapeConfig::new(2, 32));
        let _ = ctl.stage_started(0.0, Some(300));
        // Close exactly one interval (2 completions at 2 threads), leaving
        // the climb open.
        let _ = ctl.task_finished(1.0, 0.6, 100.0);
        let _ = ctl.task_finished(2.0, 1.2, 200.0);
        assert!(!ctl.settled());
        ctl.finalize_stage(3.0);
        assert!(ctl.settled());
        let records = ctl.journal().records();
        let last = records.last().unwrap();
        assert_eq!(last.action, DecisionAction::Hold);
        assert!(last.action.is_terminal());
        assert_eq!(last.pool_before, last.pool_after);
        // Finalizing again is a no-op.
        ctl.finalize_stage(4.0);
        assert_eq!(ctl.journal().len(), records.len());
    }

    #[test]
    fn next_stage_finalizes_the_previous_episode() {
        let mut ctl = AdaptiveController::new(MapeConfig::new(2, 32));
        let _ = ctl.stage_started(0.0, Some(300));
        let _ = ctl.task_finished(1.0, 0.6, 100.0);
        let _ = ctl.stage_started(10.0, Some(300));
        // The open stage-0 episode was closed with a terminal Hold.
        let records = ctl.journal().records();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].stage, 0);
        assert!(records[0].action.is_terminal());
        // New records land in episode 1.
        let _ = ctl.task_finished(11.0, 0.6, 100.0);
        let _ = ctl.task_finished(12.0, 1.2, 200.0);
        let records = ctl.journal().records();
        assert_eq!(records.last().unwrap().stage, 1);
    }

    #[test]
    fn every_episode_ends_terminal() {
        let mut ctl = AdaptiveController::new(MapeConfig::new(2, 8));
        for stage in 0..4 {
            run_synthetic(&mut ctl, 100, 80.0, 0.002 * stage as f64);
        }
        ctl.finalize_stage(1e6);
        let records = ctl.journal().records();
        for stage in 0..4 {
            let last = records.iter().rfind(|r| r.stage == stage);
            assert!(
                last.is_some_and(|r| r.action.is_terminal()),
                "episode {stage} does not end terminal: {records:?}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "c_min")]
    fn invalid_config_rejected() {
        let _ = MapeConfig::new(0, 4);
    }
}
