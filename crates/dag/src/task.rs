//! Tasks as sequences of CPU/I-O phases.

use sae_storage::DiskClass;

/// What kind of device a flow runs on (node-indexed; the engine resolves
/// node indices to kernel resources).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FlowTarget {
    /// CPU of `node`.
    Cpu { node: usize },
    /// Disk of `node`, in a given traffic class.
    Disk { node: usize, class: DiskClass },
    /// Ingress NIC of `node`.
    Nic { node: usize },
    /// Page-cache shuffle-serve path of `node`.
    ServePath { node: usize },
}

/// How a flow is accounted in metrics and the controller's probes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Accounting {
    /// CPU work: not I/O.
    Cpu,
    /// Local storage read (counts as task I/O and disk read bytes).
    DiskRead,
    /// Local storage write: spill or output (task I/O + disk write bytes).
    DiskWrite,
    /// Remote disk read serving a shuffle fetch (disk read bytes only; the
    /// fetching task's throughput is counted at the network hop).
    ShuffleServe,
    /// Network transfer of shuffled data (task I/O + shuffle bytes).
    Net,
    /// DFS output write: like [`Accounting::DiskWrite`] but additionally
    /// triggers replication traffic to other nodes.
    OutputWrite,
}

/// One flow of a phase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct FlowSpec {
    pub target: FlowTarget,
    /// Work units: MB for I/O flows, cpu-seconds for CPU flows.
    pub work: f64,
    pub accounting: Accounting,
}

/// A phase: a set of flows that run concurrently; the phase completes when
/// all of them do. The executing thread is blocked for the whole phase.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct Phase {
    pub flows: Vec<FlowSpec>,
}

impl Phase {
    /// Whether the thread is blocked on I/O (vs computing) in this phase.
    pub(crate) fn is_io(&self) -> bool {
        self.flows
            .iter()
            .any(|f| !matches!(f.accounting, Accounting::Cpu))
    }
}

/// Inputs for building a task's phase list.
///
/// Borrows the fetch-source list from the caller: plans are built once per
/// assignment on the driver's hot path, so the engine hands out a slice of
/// a reused buffer instead of allocating a `Vec` per task.
#[derive(Debug, Clone)]
pub(crate) struct TaskPlan<'a> {
    /// DFS bytes this task reads (MB).
    pub read_mb: f64,
    /// Node the read is served from (own node when local).
    pub read_source: usize,
    /// Shuffle bytes this task fetches (MB).
    pub fetch_mb: f64,
    /// Nodes the fetch is served from (concurrently, per chunk).
    pub fetch_sources: &'a [usize],
    /// CPU seconds this task burns.
    pub cpu_sec: f64,
    /// Shuffle bytes this task spills to its local disk (MB).
    pub spill_mb: f64,
    /// DFS output bytes this task writes locally (MB).
    pub output_mb: f64,
    /// Number of CPU/I-O interleaving chunks.
    pub chunks: usize,
    /// The node (= executor) the task runs on.
    pub node: usize,
    /// Per-task seed for data-skew jitter.
    ///
    /// Real record sizes vary, so tasks drift out of phase; without jitter
    /// every task started at the same instant issues its I/O in lockstep
    /// convoys, grossly inflating measured contention at pool-resize
    /// moments.
    pub seed: u64,
}

impl TaskPlan<'_> {
    /// Expands the plan into the task's ordered phase list, using a
    /// scratch `Vec` for the chunk weights (convenience wrapper around
    /// [`TaskPlan::build_phases_with`] for tests and one-off callers).
    ///
    /// # Panics
    ///
    /// Panics if `chunks` is zero or a fetch is requested with no sources.
    #[cfg(test)]
    pub(crate) fn build_phases(&self) -> Vec<Phase> {
        self.build_phases_with(&mut Vec::new())
    }

    /// Expands the plan into the task's ordered phase list.
    ///
    /// Each chunk interleaves: read → fetch (parallel serves, then the
    /// network hop) → compute → spill → output-write. Zero-volume parts are
    /// omitted; a task with no work at all yields a single empty-CPU phase
    /// so it still schedules and completes.
    ///
    /// `weights` is caller-owned scratch (cleared on entry): the engine
    /// builds one plan per assignment and reuses a single buffer for the
    /// chunk-weight computation across all of them.
    ///
    /// # Panics
    ///
    /// Panics if `chunks` is zero or a fetch is requested with no sources.
    pub(crate) fn build_phases_with(&self, weights: &mut Vec<f64>) -> Vec<Phase> {
        assert!(self.chunks > 0, "chunks must be positive");
        let mut rng = sae_sim::rng::DeterministicRng::seed(self.seed);
        // Uneven chunk weights (record-size skew); byte totals are exact.
        weights.clear();
        weights.extend((0..self.chunks).map(|_| rng.uniform_range(0.6, 1.4)));
        let total: f64 = weights.iter().sum();
        for w in weights.iter_mut() {
            *w /= total;
        }
        // Mild per-task CPU skew (stragglers).
        let cpu_mult = rng.uniform_range(0.85, 1.15);
        let mut phases = Vec::new();
        for &weight in weights.iter() {
            let k = 1.0 / weight; // this chunk's share: work / k
            if self.read_mb > 0.0 {
                let mut flows = vec![FlowSpec {
                    target: FlowTarget::Disk {
                        node: self.read_source,
                        class: DiskClass::Read,
                    },
                    work: self.read_mb / k,
                    accounting: if self.read_source == self.node {
                        Accounting::DiskRead
                    } else {
                        Accounting::ShuffleServe
                    },
                }];
                if self.read_source != self.node {
                    // Remote block read: the bytes also cross the network.
                    flows.push(FlowSpec {
                        target: FlowTarget::Nic { node: self.node },
                        work: self.read_mb / k,
                        accounting: Accounting::Net,
                    });
                }
                phases.push(Phase { flows });
            }
            if self.fetch_mb > 0.0 {
                assert!(
                    !self.fetch_sources.is_empty(),
                    "fetch requires at least one source"
                );
                let per_source = self.fetch_mb / k / self.fetch_sources.len() as f64;
                let serves = self
                    .fetch_sources
                    .iter()
                    .map(|&source| FlowSpec {
                        target: FlowTarget::ServePath { node: source },
                        work: per_source,
                        accounting: Accounting::ShuffleServe,
                    })
                    .collect();
                phases.push(Phase { flows: serves });
                phases.push(Phase {
                    flows: vec![FlowSpec {
                        target: FlowTarget::Nic { node: self.node },
                        work: self.fetch_mb / k,
                        accounting: Accounting::Net,
                    }],
                });
            }
            if self.cpu_sec > 0.0 {
                phases.push(Phase {
                    flows: vec![FlowSpec {
                        target: FlowTarget::Cpu { node: self.node },
                        work: self.cpu_sec * cpu_mult / k,
                        accounting: Accounting::Cpu,
                    }],
                });
            }
            if self.spill_mb > 0.0 {
                phases.push(Phase {
                    flows: vec![FlowSpec {
                        target: FlowTarget::Disk {
                            node: self.node,
                            class: DiskClass::Write,
                        },
                        work: self.spill_mb / k,
                        accounting: Accounting::DiskWrite,
                    }],
                });
            }
            if self.output_mb > 0.0 {
                phases.push(Phase {
                    flows: vec![FlowSpec {
                        target: FlowTarget::Disk {
                            node: self.node,
                            class: DiskClass::Write,
                        },
                        work: self.output_mb / k,
                        accounting: Accounting::OutputWrite,
                    }],
                });
            }
        }
        if phases.is_empty() {
            phases.push(Phase {
                flows: vec![FlowSpec {
                    target: FlowTarget::Cpu { node: self.node },
                    work: 0.0,
                    accounting: Accounting::Cpu,
                }],
            });
        }
        phases
    }
}

use std::sync::Arc;

/// Runtime state of one attempt of a task on one executor.
///
/// A task may have several attempts over its lifetime — retries after
/// transient failures or executor loss, plus at most one concurrent
/// speculative clone — but each attempt runs its own phase plan to
/// completion (or death) independently.
#[derive(Debug, Clone)]
pub(crate) struct AttemptState {
    /// Executor (= node) the attempt runs on.
    pub executor: usize,
    /// The attempt's phase plan (built on assignment, since the executor
    /// determines locality).
    pub phases: Vec<Phase>,
    /// Index of the phase currently running.
    pub current_phase: usize,
    /// Flows of the current phase still in flight.
    pub outstanding: usize,
    /// When the attempt started (for straggler detection).
    pub started_at: f64,
    /// When the current phase started (for ε accounting).
    pub phase_started_at: f64,
    /// Kernel handles of the current phase's in-flight flows (for
    /// cancellation on executor loss or speculative defeat).
    pub active_flows: Vec<(sae_sim::ResourceId, sae_sim::FlowId)>,
    /// Pending incast-stall timer, cancellable when the attempt dies.
    pub stall_timer: Option<sae_sim::TimerId>,
    /// Whether the current phase has registered serve-path pressure.
    pub pressure_registered: bool,
    /// Whether the attempt is still running. Dead attempts (failed,
    /// cancelled, or superseded) ignore any straggler kernel events.
    pub live: bool,
    /// Whether this attempt is a speculative clone.
    pub speculative: bool,
    /// Injected transient fault: the attempt fails after completing this
    /// phase (drawn from the fault RNG at assignment).
    pub fail_after_phase: Option<usize>,
}

impl AttemptState {
    /// Creates a freshly assigned attempt.
    pub(crate) fn new(
        executor: usize,
        phases: Vec<Phase>,
        started_at: f64,
        speculative: bool,
    ) -> Self {
        Self {
            executor,
            phases,
            current_phase: 0,
            outstanding: 0,
            started_at,
            phase_started_at: started_at,
            active_flows: Vec::new(),
            stall_timer: None,
            pressure_registered: false,
            live: true,
            speculative,
            fail_after_phase: None,
        }
    }
}

/// Runtime state of a task across all its attempts.
#[derive(Debug, Clone)]
pub(crate) struct TaskState {
    /// Stage the task belongs to.
    pub stage: usize,
    /// Preferred (data-local) nodes. Shared, not cloned, per task: many
    /// tasks reference the same replica list (or the all-nodes list), so
    /// stage start allocates one list per distinct block instead of one
    /// per task.
    pub preferred_nodes: Arc<Vec<usize>>,
    /// Every attempt ever made, in launch order. The attempt number in
    /// messages and traces is the index into this vector.
    pub attempts: Vec<AttemptState>,
    /// Executors on which an attempt of this task has already failed
    /// (avoided on retry when an alternative exists).
    pub failed_on: Vec<usize>,
    /// Failed attempts so far (drives the retry budget and backoff).
    pub failures: usize,
    /// Whether a winning attempt has completed.
    pub completed: bool,
    /// Whether the task currently sits in the driver's pending queue.
    pub queued: bool,
    /// Whether a speculative clone has been requested or launched.
    pub speculated: bool,
}

impl TaskState {
    /// Creates an unassigned task.
    pub(crate) fn new(stage: usize, preferred_nodes: Arc<Vec<usize>>) -> Self {
        Self {
            stage,
            preferred_nodes,
            attempts: Vec::new(),
            failed_on: Vec::new(),
            failures: 0,
            completed: false,
            queued: true,
            speculated: false,
        }
    }

    /// Indices of attempts that are still running.
    pub(crate) fn live_attempts(&self) -> impl Iterator<Item = usize> + '_ {
        self.attempts
            .iter()
            .enumerate()
            .filter(|(_, a)| a.live)
            .map(|(i, _)| i)
    }

    /// Whether any attempt is currently running.
    pub(crate) fn has_live_attempt(&self) -> bool {
        self.attempts.iter().any(|a| a.live)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan() -> TaskPlan<'static> {
        TaskPlan {
            read_mb: 128.0,
            read_source: 0,
            fetch_mb: 0.0,
            fetch_sources: &[],
            cpu_sec: 2.0,
            spill_mb: 64.0,
            output_mb: 0.0,
            chunks: 4,
            node: 0,
            seed: 7,
        }
    }

    #[test]
    fn chunked_interleaving_produces_expected_phase_count() {
        let phases = plan().build_phases();
        // per chunk: read, cpu, spill = 3 phases; 4 chunks = 12.
        assert_eq!(phases.len(), 12);
    }

    #[test]
    fn work_is_conserved_across_chunks() {
        let phases = plan().build_phases();
        let read: f64 = phases
            .iter()
            .flat_map(|p| &p.flows)
            .filter(|f| f.accounting == Accounting::DiskRead)
            .map(|f| f.work)
            .sum();
        assert!((read - 128.0).abs() < 1e-9);
        let cpu: f64 = phases
            .iter()
            .flat_map(|p| &p.flows)
            .filter(|f| f.accounting == Accounting::Cpu)
            .map(|f| f.work)
            .sum();
        // CPU carries per-task skew jitter of up to ±15%.
        assert!((cpu - 2.0).abs() < 0.3 + 1e-9, "cpu = {cpu}");
    }

    #[test]
    fn fetch_creates_parallel_serves_then_net_hop() {
        let mut p = plan();
        p.read_mb = 0.0;
        p.spill_mb = 0.0;
        p.fetch_mb = 100.0;
        p.fetch_sources = &[1, 2, 3];
        p.chunks = 1;
        let phases = p.build_phases();
        // serve phase, net phase, cpu phase
        assert_eq!(phases.len(), 3);
        assert_eq!(phases[0].flows.len(), 3);
        assert!(phases[0]
            .flows
            .iter()
            .all(|f| f.accounting == Accounting::ShuffleServe));
        assert_eq!(phases[1].flows.len(), 1);
        assert_eq!(phases[1].flows[0].accounting, Accounting::Net);
        let serve_total: f64 = phases[0].flows.iter().map(|f| f.work).sum();
        assert!((serve_total - 100.0).abs() < 1e-9);
    }

    #[test]
    fn remote_read_adds_network_hop() {
        let mut p = plan();
        p.read_source = 2; // not the task's node
        p.chunks = 1;
        let phases = p.build_phases();
        let read_phase = &phases[0];
        assert_eq!(read_phase.flows.len(), 2);
        assert!(read_phase
            .flows
            .iter()
            .any(|f| f.accounting == Accounting::Net));
    }

    #[test]
    fn empty_plan_still_yields_one_phase() {
        let p = TaskPlan {
            read_mb: 0.0,
            read_source: 0,
            fetch_mb: 0.0,
            fetch_sources: &[],
            cpu_sec: 0.0,
            spill_mb: 0.0,
            output_mb: 0.0,
            chunks: 2,
            node: 0,
            seed: 7,
        };
        let phases = p.build_phases();
        assert_eq!(phases.len(), 1);
    }

    #[test]
    fn io_phase_classification() {
        let phases = plan().build_phases();
        assert!(phases[0].is_io()); // read
        assert!(!phases[1].is_io()); // cpu
        assert!(phases[2].is_io()); // spill
    }

    #[test]
    fn task_state_lifecycle() {
        let mut t = TaskState::new(1, Arc::new(vec![0, 1]));
        assert!(t.queued);
        assert!(!t.has_live_attempt());
        t.attempts
            .push(AttemptState::new(0, plan().build_phases(), 0.0, false));
        t.queued = false;
        assert!(t.has_live_attempt());
        assert_eq!(t.live_attempts().collect::<Vec<_>>(), vec![0]);
        t.attempts[0].live = false;
        t.failures += 1;
        t.failed_on.push(0);
        assert!(!t.has_live_attempt());
    }

    #[test]
    fn speculative_clone_tracked_separately() {
        let mut t = TaskState::new(0, Arc::new(vec![0]));
        t.attempts
            .push(AttemptState::new(0, plan().build_phases(), 0.0, false));
        t.attempts
            .push(AttemptState::new(1, plan().build_phases(), 5.0, true));
        t.speculated = true;
        assert_eq!(t.live_attempts().count(), 2);
        assert!(t.attempts[1].speculative);
        assert!(!t.attempts[0].speculative);
    }

    #[test]
    #[should_panic(expected = "source")]
    fn fetch_without_sources_rejected() {
        let mut p = plan();
        p.fetch_mb = 10.0;
        p.fetch_sources = &[];
        let _ = p.build_phases();
    }
}
