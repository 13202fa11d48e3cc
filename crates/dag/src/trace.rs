//! Structured execution traces for debugging and visualisation.
//!
//! [`Engine::run_traced`](crate::Engine::run_traced) records every
//! scheduler-visible event of a run — stage boundaries, task placement,
//! MAPE-K pool resizes, incast stalls, executor failures — and
//! [`ExecutionTrace::to_chrome_trace`] exports them in the Chrome
//! trace-event format (`chrome://tracing`, Perfetto).

/// One scheduler-visible event.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// A stage began.
    StageStarted {
        /// Stage index.
        stage: usize,
        /// Simulated time.
        at: f64,
    },
    /// A stage completed.
    StageFinished {
        /// Stage index.
        stage: usize,
        /// Simulated time.
        at: f64,
    },
    /// A task attempt began executing on an executor.
    TaskStarted {
        /// Global task index within the stage.
        task: usize,
        /// Zero-based attempt number (`> 0` for retries and clones).
        attempt: usize,
        /// Executor (= node).
        executor: usize,
        /// Whether this attempt is a speculative clone of a straggler.
        speculative: bool,
        /// Simulated time.
        at: f64,
    },
    /// A task attempt finished successfully (the winning attempt).
    TaskFinished {
        /// Global task index within the stage.
        task: usize,
        /// Zero-based attempt number that won.
        attempt: usize,
        /// Executor (= node).
        executor: usize,
        /// Simulated time.
        at: f64,
    },
    /// A task attempt failed — a transient fault or an executor loss.
    TaskFailed {
        /// Global task index within the stage.
        task: usize,
        /// Zero-based attempt number that failed.
        attempt: usize,
        /// Executor (= node) the attempt ran on.
        executor: usize,
        /// Simulated time.
        at: f64,
    },
    /// The MAPE-K effector resized an executor's pool.
    PoolResized {
        /// Executor (= node).
        executor: usize,
        /// New maximum pool size.
        to: usize,
        /// Simulated time.
        at: f64,
    },
    /// Fault injection killed an executor.
    ExecutorFailed {
        /// Executor (= node).
        executor: usize,
        /// Simulated time.
        at: f64,
    },
    /// A replacement executor registered.
    ExecutorRecovered {
        /// Executor (= node).
        executor: usize,
        /// Simulated time.
        at: f64,
    },
    /// The driver blacklisted an executor after repeated task failures.
    ExecutorBlacklisted {
        /// Executor (= node).
        executor: usize,
        /// Simulated time.
        at: f64,
    },
    /// A speculative clone beat the original attempt to completion.
    SpeculativeWon {
        /// Global task index within the stage.
        task: usize,
        /// The winning (speculative) attempt number.
        attempt: usize,
        /// Executor the winning clone ran on.
        executor: usize,
        /// Simulated time.
        at: f64,
    },
    /// A MAPE-K monitoring interval `I_j` closed on an executor: the
    /// sample behind the next pool-size decision. Exported as a `ζ_j`
    /// counter track.
    IntervalClosed {
        /// Executor (= node).
        executor: usize,
        /// Thread count the interval ran with.
        threads: usize,
        /// Congestion index `ζ_j` measured over the interval.
        zeta: f64,
        /// Simulated time.
        at: f64,
    },
}

impl TraceEvent {
    /// The event's timestamp.
    pub fn at(&self) -> f64 {
        match *self {
            TraceEvent::StageStarted { at, .. }
            | TraceEvent::StageFinished { at, .. }
            | TraceEvent::TaskStarted { at, .. }
            | TraceEvent::TaskFinished { at, .. }
            | TraceEvent::TaskFailed { at, .. }
            | TraceEvent::PoolResized { at, .. }
            | TraceEvent::ExecutorFailed { at, .. }
            | TraceEvent::ExecutorRecovered { at, .. }
            | TraceEvent::ExecutorBlacklisted { at, .. }
            | TraceEvent::SpeculativeWon { at, .. }
            | TraceEvent::IntervalClosed { at, .. } => at,
        }
    }
}

/// The recorded event stream of one run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ExecutionTrace {
    events: Vec<TraceEvent>,
}

impl ExecutionTrace {
    /// Creates an empty trace.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    pub(crate) fn record(&mut self, event: TraceEvent) {
        debug_assert!(
            self.events
                .last()
                .is_none_or(|e| event.at() >= e.at() - 1e-9),
            "trace must be chronological"
        );
        self.events.push(event);
    }

    /// All events, in chronological order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Pool-resize events of one executor, as `(time, new_size)`.
    pub fn resizes_for(&self, executor: usize) -> Vec<(f64, usize)> {
        self.events
            .iter()
            .filter_map(|e| match *e {
                TraceEvent::PoolResized {
                    executor: ex,
                    to,
                    at,
                } if ex == executor => Some((at, to)),
                _ => None,
            })
            .collect()
    }

    /// Tasks started per executor.
    pub fn tasks_started_per_executor(&self, nodes: usize) -> Vec<usize> {
        let mut counts = vec![0usize; nodes];
        for e in &self.events {
            if let TraceEvent::TaskStarted { executor, .. } = *e {
                counts[executor] += 1;
            }
        }
        counts
    }

    /// Task ids that ran more than one attempt (retries or clones),
    /// sorted and deduplicated.
    pub fn retried_tasks(&self) -> Vec<usize> {
        let mut tasks: Vec<usize> = self
            .events
            .iter()
            .filter_map(|e| match *e {
                TraceEvent::TaskStarted { task, attempt, .. } if attempt > 0 => Some(task),
                _ => None,
            })
            .collect();
        tasks.sort_unstable();
        tasks.dedup();
        tasks
    }

    /// Number of failed task attempts in the trace.
    pub fn failed_attempts(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e, TraceEvent::TaskFailed { .. }))
            .count()
    }

    /// Exports the trace in the Chrome trace-event JSON format.
    ///
    /// Stages become duration events on a "driver" row; tasks become
    /// duration events per executor row; resizes and failures become
    /// instant events; pool sizes and `ζ_j` become counter tracks
    /// (`ph:"C"`). Open the output in `chrome://tracing` or Perfetto.
    pub fn to_chrome_trace(&self) -> String {
        let mut entries: Vec<String> = Vec::with_capacity(self.events.len());
        for e in &self.events {
            append_chrome_entries(e, &mut entries);
        }
        format!("[{}]", entries.join(","))
    }
}

/// Appends the Chrome trace-event JSON object(s) for one [`TraceEvent`] to
/// `entries`.
///
/// Public so other runtimes (the live flight recorder) can serialize the
/// same event vocabulary identically — a merged sim/live overlay only
/// works if both sides agree on names, rows and phases. One event can
/// expand to several entries: a `TaskFailed` closes its duration slice
/// before marking the failure, and a `PoolResized` also feeds the
/// per-executor `pool-size` counter track.
pub fn append_chrome_entries(event: &TraceEvent, entries: &mut Vec<String>) {
    fn esc(name: &str) -> String {
        name.replace('"', "'")
    }
    let us = |t: f64| (t * 1e6).round() as i64;
    let entry = match *event {
        TraceEvent::StageStarted { stage, at } => format!(
            r#"{{"name":"stage-{stage}","ph":"B","ts":{},"pid":0,"tid":0}}"#,
            us(at)
        ),
        TraceEvent::StageFinished { stage, at } => format!(
            r#"{{"name":"stage-{stage}","ph":"E","ts":{},"pid":0,"tid":0}}"#,
            us(at)
        ),
        TraceEvent::TaskStarted {
            task,
            attempt,
            executor,
            at,
            ..
        } => format!(
            r#"{{"name":"task-{task}.{attempt}","ph":"B","ts":{},"pid":1,"tid":{executor}}}"#,
            us(at)
        ),
        TraceEvent::TaskFinished {
            task,
            attempt,
            executor,
            at,
        } => format!(
            r#"{{"name":"task-{task}.{attempt}","ph":"E","ts":{},"pid":1,"tid":{executor}}}"#,
            us(at)
        ),
        TraceEvent::TaskFailed {
            task,
            attempt,
            executor,
            at,
        } => {
            // Close the attempt's duration slice, then mark the
            // failure as an instant.
            entries.push(format!(
                r#"{{"name":"task-{task}.{attempt}","ph":"E","ts":{},"pid":1,"tid":{executor}}}"#,
                us(at)
            ));
            format!(
                r#"{{"name":"task-failed","ph":"i","ts":{},"pid":1,"tid":{executor},"s":"t"}}"#,
                us(at)
            )
        }
        TraceEvent::PoolResized { executor, to, at } => {
            // The counter track gives Perfetto a step plot of the pool
            // size; the instant keeps the event visible on the row.
            entries.push(format!(
                r#"{{"name":"pool-size-exec{executor}","ph":"C","ts":{},"pid":1,"tid":{executor},"args":{{"size":{to}}}}}"#,
                us(at)
            ));
            format!(
                r#"{{"name":"{}","ph":"i","ts":{},"pid":1,"tid":{executor},"s":"t"}}"#,
                esc(&format!("resize->{to}")),
                us(at)
            )
        }
        TraceEvent::ExecutorFailed { executor, at } => format!(
            r#"{{"name":"executor-failed","ph":"i","ts":{},"pid":1,"tid":{executor},"s":"p"}}"#,
            us(at)
        ),
        TraceEvent::ExecutorRecovered { executor, at } => format!(
            r#"{{"name":"executor-recovered","ph":"i","ts":{},"pid":1,"tid":{executor},"s":"p"}}"#,
            us(at)
        ),
        TraceEvent::ExecutorBlacklisted { executor, at } => format!(
            r#"{{"name":"executor-blacklisted","ph":"i","ts":{},"pid":1,"tid":{executor},"s":"p"}}"#,
            us(at)
        ),
        TraceEvent::SpeculativeWon {
            task,
            attempt,
            executor,
            at,
        } => format!(
            r#"{{"name":"{}","ph":"i","ts":{},"pid":1,"tid":{executor},"s":"t"}}"#,
            esc(&format!("speculative-won-task-{task}.{attempt}")),
            us(at)
        ),
        TraceEvent::IntervalClosed {
            executor, zeta, at, ..
        } => {
            let zeta = if zeta.is_finite() { zeta } else { 0.0 };
            format!(
                r#"{{"name":"zeta-exec{executor}","ph":"C","ts":{},"pid":1,"tid":{executor},"args":{{"zeta":{zeta:?}}}}}"#,
                us(at)
            )
        }
    };
    entries.push(entry);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ExecutionTrace {
        let mut t = ExecutionTrace::new();
        t.record(TraceEvent::StageStarted { stage: 0, at: 0.0 });
        t.record(TraceEvent::TaskStarted {
            task: 0,
            attempt: 0,
            executor: 1,
            speculative: false,
            at: 0.5,
        });
        t.record(TraceEvent::PoolResized {
            executor: 1,
            to: 4,
            at: 1.0,
        });
        t.record(TraceEvent::TaskFinished {
            task: 0,
            attempt: 0,
            executor: 1,
            at: 2.0,
        });
        t.record(TraceEvent::StageFinished { stage: 0, at: 2.0 });
        t
    }

    #[test]
    fn records_in_order() {
        let t = sample();
        assert_eq!(t.len(), 5);
        for pair in t.events().windows(2) {
            assert!(pair[1].at() >= pair[0].at());
        }
    }

    #[test]
    fn resize_query() {
        let t = sample();
        assert_eq!(t.resizes_for(1), vec![(1.0, 4)]);
        assert!(t.resizes_for(0).is_empty());
    }

    #[test]
    fn task_counts_per_executor() {
        let t = sample();
        assert_eq!(t.tasks_started_per_executor(3), vec![0, 1, 0]);
    }

    #[test]
    fn chrome_trace_is_wellformed_json_array() {
        let json = sample().to_chrome_trace();
        assert!(json.starts_with('['));
        assert!(json.ends_with(']'));
        assert_eq!(json.matches("\"ph\":\"B\"").count(), 2);
        assert_eq!(json.matches("\"ph\":\"E\"").count(), 2);
        assert_eq!(json.matches("\"ph\":\"i\"").count(), 1);
        // Balanced braces (crude structural check).
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn empty_trace_exports_empty_array() {
        assert_eq!(ExecutionTrace::new().to_chrome_trace(), "[]");
    }

    #[test]
    fn pool_resize_emits_a_counter_track_sample() {
        let json = sample().to_chrome_trace();
        assert!(json.contains(r#""name":"pool-size-exec1","ph":"C""#));
        assert!(json.contains(r#""args":{"size":4}"#));
    }

    #[test]
    fn interval_closed_emits_a_zeta_counter_sample() {
        let mut t = ExecutionTrace::new();
        t.record(TraceEvent::IntervalClosed {
            executor: 2,
            threads: 4,
            zeta: 0.125,
            at: 1.5,
        });
        let json = t.to_chrome_trace();
        assert!(json.contains(r#""name":"zeta-exec2","ph":"C""#));
        assert!(json.contains(r#""args":{"zeta":0.125}"#));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn failure_queries_surface_retries_and_blacklists() {
        let mut t = ExecutionTrace::new();
        t.record(TraceEvent::TaskStarted {
            task: 3,
            attempt: 0,
            executor: 0,
            speculative: false,
            at: 0.0,
        });
        t.record(TraceEvent::TaskFailed {
            task: 3,
            attempt: 0,
            executor: 0,
            at: 1.0,
        });
        t.record(TraceEvent::TaskStarted {
            task: 3,
            attempt: 1,
            executor: 1,
            speculative: false,
            at: 2.0,
        });
        t.record(TraceEvent::ExecutorBlacklisted {
            executor: 0,
            at: 3.0,
        });
        t.record(TraceEvent::TaskStarted {
            task: 5,
            attempt: 1,
            executor: 2,
            speculative: true,
            at: 4.0,
        });
        t.record(TraceEvent::SpeculativeWon {
            task: 5,
            attempt: 1,
            executor: 2,
            at: 6.0,
        });
        assert_eq!(t.retried_tasks(), vec![3, 5]);
        assert_eq!(t.failed_attempts(), 1);
        // The failed attempt closes its duration slice in the export.
        let json = t.to_chrome_trace();
        assert!(json.contains("task-3.0"));
        assert!(json.contains("task-failed"));
        assert!(json.contains("executor-blacklisted"));
    }
}
