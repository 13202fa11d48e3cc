//! Engine configuration and the functional-parameter catalog (Table 1).

use sae_cluster::NodeSpec;
use sae_core::ThreadPolicy;
use sae_net::FabricConfig;
use sae_storage::VariabilityConfig;

/// Full configuration of a simulated cluster + engine run.
///
/// Mirrors the launch-time configuration surface of Spark that the paper
/// criticises: everything here is fixed before the job starts — except the
/// executor thread count, which [`ThreadPolicy::Adaptive`] frees.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Number of worker nodes (one executor per node, as in the paper).
    pub nodes: usize,
    /// Per-node hardware.
    pub node_spec: NodeSpec,
    /// Network fabric.
    pub fabric: FabricConfig,
    /// Per-node disk speed variability.
    pub variability: VariabilityConfig,
    /// DFS block size in MB (HDFS default: 128).
    pub block_size_mb: u64,
    /// DFS replication factor for input files. The paper sets this to the
    /// node count so every read is node-local.
    pub input_replication: usize,
    /// DFS replication factor for job output files.
    pub output_replication: usize,
    /// Chunks each task's work is split into for CPU/I/O interleaving.
    pub chunks_per_task: usize,
    /// One-way driver↔executor RPC latency in seconds.
    pub rpc_latency: f64,
    /// Master RNG seed.
    pub seed: u64,
    /// Optional fault injection: a deterministic, seeded schedule of
    /// executor crashes, transient task failures, node slowdowns, and
    /// heartbeat loss. `None` runs fault-free (and bit-identical to a run
    /// without the fault subsystem).
    pub fault_plan: Option<FaultPlan>,
    /// Driver-side fault-tolerance thresholds: retry backoff and
    /// speculation.
    pub fault_tolerance: FaultToleranceConfig,
    /// Route driver scheduling through the pre-index O(pending)-scan
    /// reference ([`crate::sched::ReferenceQueue`]) instead of the indexed
    /// queue — for equivalence tests and benchmarks only, which is why the
    /// field exists only under the `reference-impl` feature (or `cfg(test)`).
    #[cfg(any(test, feature = "reference-impl"))]
    pub reference_scheduler: bool,
}

/// One scheduled executor crash inside a [`FaultPlan`].
///
/// The process dies at `at`: every flow it drives stops, its heartbeats
/// cease, and the driver only learns of the loss when the heartbeat
/// timeout elapses. A replacement executor registers `downtime` seconds
/// after the crash.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExecutorCrash {
    /// Executor (= node) to kill.
    pub executor: usize,
    /// Simulated time at which it dies.
    pub at: f64,
    /// Seconds until a replacement executor registers. Must be positive —
    /// an instant restart would race its own failure detection.
    pub downtime: f64,
}

/// A temporary node slowdown inside a [`FaultPlan`]: antagonist disk
/// traffic (a co-located tenant, a RAID scrub) steals bandwidth from the
/// node's disk between `at` and `at + duration`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeSlowdown {
    /// Node whose disk slows down.
    pub node: usize,
    /// Simulated start time.
    pub at: f64,
    /// Seconds the slowdown lasts.
    pub duration: f64,
    /// Antagonist intensity in `(0, 1]`: the fraction of fair-share disk
    /// streams the antagonist contends with (1.0 ≈ one full extra tenant
    /// per active stream budget).
    pub severity: f64,
}

/// Which driver↔executor direction a [`WireFault`] applies to.
///
/// Asymmetric partitions are the interesting failure class: an executor
/// whose frames reach the driver while the driver's frames never arrive
/// (or vice versa) exercises a different recovery path than a clean
/// two-way cut.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireDirection {
    /// Executor → driver frames only (heartbeats, `TaskFinished`).
    ToDriver,
    /// Driver → executor frames only (`AssignTask`, `StageStart`).
    ToExecutor,
    /// Both directions.
    Both,
}

impl WireDirection {
    /// Whether a frame travelling executor→driver is covered.
    pub fn covers_to_driver(self) -> bool {
        matches!(self, WireDirection::ToDriver | WireDirection::Both)
    }

    /// Whether a frame travelling driver→executor is covered.
    pub fn covers_to_executor(self) -> bool {
        matches!(self, WireDirection::ToExecutor | WireDirection::Both)
    }
}

/// What a [`WireFault`] does to covered frames while its window is open.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WireFaultKind {
    /// Hold each frame for `seconds` before forwarding it.
    Delay {
        /// Per-frame extra latency in (wall-clock) seconds.
        seconds: f64,
    },
    /// Cap the link at `bytes_per_sec`: each frame is forwarded after a
    /// pause proportional to its length.
    Throttle {
        /// Link bandwidth floor in bytes per second.
        bytes_per_sec: f64,
    },
    /// Discard each covered frame independently with `probability`.
    Drop {
        /// Per-frame drop probability in `[0, 1)`.
        probability: f64,
    },
    /// Forward each covered frame twice with `probability` — the protocol
    /// must treat every frame as at-least-once.
    Duplicate {
        /// Per-frame duplication probability in `[0, 1)`.
        probability: f64,
    },
    /// Tear the connection down mid-frame: forward a partial frame, then
    /// reset both directions. The executor must reconnect and re-register.
    Reset,
    /// Discard every covered frame for the window — a network partition.
    Partition,
}

impl WireFaultKind {
    /// Stable lower-case label used in traces, metrics, and logs.
    pub fn label(&self) -> &'static str {
        match self {
            WireFaultKind::Delay { .. } => "delay",
            WireFaultKind::Throttle { .. } => "throttle",
            WireFaultKind::Drop { .. } => "drop",
            WireFaultKind::Duplicate { .. } => "duplicate",
            WireFaultKind::Reset => "reset",
            WireFaultKind::Partition => "partition",
        }
    }
}

/// One scheduled wire-level fault inside a [`FaultPlan`], applied by the
/// live runtime's nemesis proxy to frames crossing the driver↔executor
/// link of one executor.
///
/// The simulator has no byte-level wire, so it validates these entries but
/// does not apply them; its own `message_delay_max` / `heartbeat_loss`
/// fields are the virtual-time analogues. Times are seconds since the job
/// epoch (virtual seconds in the sim, wall seconds live).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WireFault {
    /// Executor whose link misbehaves.
    pub executor: usize,
    /// Window start, in seconds since the job epoch.
    pub at: f64,
    /// Window length in seconds.
    pub duration: f64,
    /// Which direction(s) of the link are covered.
    pub direction: WireDirection,
    /// What happens to covered frames.
    pub kind: WireFaultKind,
}

/// One scheduled spill-file corruption inside a [`FaultPlan`]: the bytes
/// of `task`'s spill file are flipped once the file exists and `at` has
/// passed, exercising the checksum → retryable-failure → lineage-recovery
/// path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiskFault {
    /// Task whose spill file is corrupted.
    pub task: usize,
    /// Earliest time the corruption lands, in seconds since the job epoch.
    pub at: f64,
}

/// A deterministic, seeded schedule of faults injected into a run.
///
/// All randomness (which attempts fail transiently, which heartbeats are
/// lost, message delays) is drawn from a dedicated RNG stream seeded by
/// [`FaultPlan::seed`], so the same plan over the same job yields a
/// bit-identical run — and the main engine RNG is never touched, so a run
/// with an empty plan is bit-identical to a run with no plan at all.
///
/// One plan drives both runtimes: the simulator applies `crashes`,
/// `slowdowns` and the probabilistic fields in virtual time, while the
/// live runtime applies `crashes` (kill + respawn after `downtime`),
/// `wire` (through the nemesis proxy) and `disk` in wall-clock time.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    /// Scheduled executor crashes (multiple crashes, any executors).
    pub crashes: Vec<ExecutorCrash>,
    /// Probability in `[0, 1)` that any given task attempt fails
    /// transiently (a lost shuffle block, an OOM-killed JVM task, a disk
    /// read error) partway through execution.
    pub task_failure_probability: f64,
    /// Scheduled node slowdowns.
    pub slowdowns: Vec<NodeSlowdown>,
    /// Probability in `[0, 1)` that a single heartbeat message is lost in
    /// flight. Heartbeats are fire-and-forget; data-plane RPCs are modelled
    /// as reliable and are only ever delayed, never dropped.
    pub heartbeat_loss_probability: f64,
    /// Maximum extra one-way delay in seconds added to each driver↔executor
    /// message, drawn uniformly from `[0, message_delay_max)`.
    pub message_delay_max: f64,
    /// Scheduled wire-level faults (live runtime: nemesis proxy).
    pub wire: Vec<WireFault>,
    /// Scheduled spill-file corruptions (live runtime: disk-fault agent).
    pub disk: Vec<DiskFault>,
    /// Seed of the fault RNG stream.
    pub seed: u64,
}

impl FaultPlan {
    /// Creates an empty plan with the given fault-stream seed.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            ..Self::default()
        }
    }

    /// Adds a scheduled executor crash.
    pub fn with_crash(mut self, executor: usize, at: f64, downtime: f64) -> Self {
        self.crashes.push(ExecutorCrash {
            executor,
            at,
            downtime,
        });
        self
    }

    /// Sets the per-attempt transient failure probability.
    pub fn with_task_failures(mut self, probability: f64) -> Self {
        self.task_failure_probability = probability;
        self
    }

    /// Sets the heartbeat loss probability.
    pub fn with_heartbeat_loss(mut self, probability: f64) -> Self {
        self.heartbeat_loss_probability = probability;
        self
    }

    /// Sets the maximum extra message delay in seconds.
    pub fn with_message_delay(mut self, max_delay: f64) -> Self {
        self.message_delay_max = max_delay;
        self
    }

    /// Adds a wire fault with an explicit direction and kind.
    pub(crate) fn with_wire_fault(
        mut self,
        executor: usize,
        at: f64,
        duration: f64,
        direction: WireDirection,
        kind: WireFaultKind,
    ) -> Self {
        self.wire.push(WireFault {
            executor,
            at,
            duration,
            direction,
            kind,
        });
        self
    }

    /// Adds a bandwidth throttle window on both directions of a link.
    pub fn with_throttle(
        self,
        executor: usize,
        at: f64,
        duration: f64,
        bytes_per_sec: f64,
    ) -> Self {
        self.with_wire_fault(
            executor,
            at,
            duration,
            WireDirection::Both,
            WireFaultKind::Throttle { bytes_per_sec },
        )
    }

    /// Adds a (possibly asymmetric) partition window.
    pub fn with_partition(
        self,
        executor: usize,
        at: f64,
        duration: f64,
        direction: WireDirection,
    ) -> Self {
        self.with_wire_fault(executor, at, duration, direction, WireFaultKind::Partition)
    }

    /// Schedules a spill-file corruption for `task` at time `at`.
    pub fn with_disk_fault(mut self, task: usize, at: f64) -> Self {
        self.disk.push(DiskFault { task, at });
        self
    }

    /// Whether the plan injects nothing at all.
    pub fn is_empty(&self) -> bool {
        self.crashes.is_empty()
            && self.slowdowns.is_empty()
            && self.task_failure_probability == 0.0
            && self.heartbeat_loss_probability == 0.0
            && self.message_delay_max == 0.0
            && self.wire.is_empty()
            && self.disk.is_empty()
    }

    /// Validates the plan against a cluster size.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range executors/nodes, non-positive downtimes or
    /// durations, or probabilities outside `[0, 1)`.
    pub fn validate(&self, nodes: usize) {
        for crash in &self.crashes {
            assert!(
                crash.executor < nodes,
                "fault plan: crash targets executor {} of {nodes}",
                crash.executor
            );
            assert!(
                crash.at.is_finite() && crash.at >= 0.0,
                "fault plan: crash time must be finite and >= 0, got {}",
                crash.at
            );
            assert!(
                crash.downtime.is_finite() && crash.downtime > 0.0,
                "fault plan: crash downtime must be positive, got {}",
                crash.downtime
            );
        }
        for slow in &self.slowdowns {
            assert!(
                slow.node < nodes,
                "fault plan: slowdown targets node {} of {nodes}",
                slow.node
            );
            assert!(
                slow.at.is_finite() && slow.at >= 0.0,
                "fault plan: slowdown time must be finite and >= 0, got {}",
                slow.at
            );
            assert!(
                slow.duration.is_finite() && slow.duration > 0.0,
                "fault plan: slowdown duration must be positive, got {}",
                slow.duration
            );
            assert!(
                slow.severity > 0.0 && slow.severity <= 1.0,
                "fault plan: slowdown severity must be in (0, 1], got {}",
                slow.severity
            );
        }
        for (label, p) in [
            ("task failure", self.task_failure_probability),
            ("heartbeat loss", self.heartbeat_loss_probability),
        ] {
            assert!(
                (0.0..1.0).contains(&p),
                "fault plan: {label} probability must be in [0, 1), got {p}"
            );
        }
        assert!(
            self.message_delay_max.is_finite() && self.message_delay_max >= 0.0,
            "fault plan: message delay must be finite and >= 0, got {}",
            self.message_delay_max
        );
        for fault in &self.wire {
            assert!(
                fault.executor < nodes,
                "fault plan: wire fault targets executor {} of {nodes}",
                fault.executor
            );
            assert!(
                fault.at.is_finite() && fault.at >= 0.0,
                "fault plan: wire fault time must be finite and >= 0, got {}",
                fault.at
            );
            assert!(
                fault.duration.is_finite() && fault.duration > 0.0,
                "fault plan: wire fault duration must be positive, got {}",
                fault.duration
            );
            match fault.kind {
                WireFaultKind::Delay { seconds } => assert!(
                    seconds.is_finite() && seconds >= 0.0,
                    "fault plan: wire delay must be finite and >= 0, got {seconds}"
                ),
                WireFaultKind::Throttle { bytes_per_sec } => assert!(
                    bytes_per_sec.is_finite() && bytes_per_sec > 0.0,
                    "fault plan: throttle bandwidth must be positive, got {bytes_per_sec}"
                ),
                WireFaultKind::Drop { probability } | WireFaultKind::Duplicate { probability } => {
                    assert!(
                        (0.0..1.0).contains(&probability),
                        "fault plan: wire {} probability must be in [0, 1), got {probability}",
                        fault.kind.label()
                    )
                }
                WireFaultKind::Reset | WireFaultKind::Partition => {}
            }
        }
        for fault in &self.disk {
            assert!(
                fault.at.is_finite() && fault.at >= 0.0,
                "fault plan: disk fault time must be finite and >= 0, got {}",
                fault.at
            );
        }
    }
}

/// Driver-side fault-tolerance configuration: the retry backoff and the
/// straggler thresholds of speculative execution (Spark's
/// `spark.speculation.*`). The retry budget, heartbeat timing and
/// blacklist threshold are engine constants (DESIGN.md §7), and runs
/// speculate exactly when they have a fault plan.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultToleranceConfig {
    /// Base of the exponential retry backoff in seconds: attempt `k`
    /// (zero-based) is delayed by `base · 2^(k-1)` after its failure.
    pub retry_backoff_base: f64,
    /// A running attempt is a straggler when it has run longer than this
    /// multiple of the median completed-attempt duration of the stage.
    pub speculation_multiplier: f64,
    /// Fraction of the stage's tasks that must have completed before
    /// speculation activates.
    pub speculation_quantile: f64,
}

impl Default for FaultToleranceConfig {
    fn default() -> Self {
        Self {
            retry_backoff_base: 0.5,
            speculation_multiplier: 1.5,
            speculation_quantile: 0.75,
        }
    }
}

impl FaultToleranceConfig {
    /// Validates internal consistency.
    ///
    /// # Panics
    ///
    /// Panics on a negative or non-finite backoff or out-of-range
    /// speculation thresholds.
    pub(crate) fn validate(&self) {
        assert!(
            self.retry_backoff_base.is_finite() && self.retry_backoff_base >= 0.0,
            "retry backoff must be finite and >= 0"
        );
        assert!(
            self.speculation_multiplier >= 1.0,
            "speculation multiplier must be >= 1"
        );
        assert!(
            (0.0..=1.0).contains(&self.speculation_quantile),
            "speculation quantile must be in [0, 1]"
        );
    }
}

impl EngineConfig {
    /// The paper's primary setup: 4 DAS-5 nodes with HDDs (§6.1).
    pub fn four_node_hdd() -> Self {
        Self {
            nodes: 4,
            node_spec: NodeSpec::das5_hdd(),
            fabric: FabricConfig::das5(),
            variability: VariabilityConfig::homogeneous(),
            block_size_mb: 128,
            input_replication: 4,
            output_replication: 1,
            chunks_per_task: 4,
            rpc_latency: 0.0005,
            seed: 42,
            fault_plan: None,
            fault_tolerance: FaultToleranceConfig::default(),
            #[cfg(any(test, feature = "reference-impl"))]
            reference_scheduler: false,
        }
    }

    /// The SSD variant of §6.3.
    pub fn four_node_ssd() -> Self {
        Self {
            node_spec: NodeSpec::das5_ssd(),
            ..Self::four_node_hdd()
        }
    }

    /// The 16-node scalability setup of Figure 9 (input replication stays
    /// at 4, matching HDFS practice at that scale).
    pub fn sixteen_node_hdd() -> Self {
        Self {
            nodes: 16,
            input_replication: 4,
            ..Self::four_node_hdd()
        }
    }

    /// Scales node count while keeping everything else.
    pub fn with_nodes(mut self, nodes: usize) -> Self {
        assert!(nodes > 0, "need at least one node");
        self.nodes = nodes;
        self
    }

    /// Replaces the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Enables DAS-5-style per-node variability.
    pub fn with_variability(mut self, variability: VariabilityConfig) -> Self {
        self.variability = variability;
        self
    }

    /// Total virtual cores across the cluster.
    pub(crate) fn total_cores(&self) -> usize {
        self.nodes * self.node_spec.cores
    }

    /// Validates internal consistency.
    ///
    /// # Panics
    ///
    /// Panics on inconsistent settings (zero nodes/chunks, negative RPC
    /// latency, zero replication).
    pub(crate) fn validate(&self) {
        assert!(self.nodes > 0, "need at least one node");
        assert!(self.block_size_mb > 0, "block size must be positive");
        assert!(self.input_replication > 0, "input replication must be > 0");
        assert!(
            self.output_replication > 0,
            "output replication must be > 0"
        );
        assert!(self.chunks_per_task > 0, "chunks per task must be > 0");
        assert!(self.rpc_latency >= 0.0, "rpc latency must be >= 0");
        self.fault_tolerance.validate();
        if let Some(plan) = &self.fault_plan {
            plan.validate(self.nodes);
        }
    }

    /// Default thread-pool size per executor (one per virtual core).
    pub(crate) fn default_threads(&self) -> usize {
        self.node_spec.cores
    }

    /// A default adaptive policy for this configuration (`c_min = 2`,
    /// `c_max` = cores).
    pub fn adaptive_policy(&self) -> ThreadPolicy {
        ThreadPolicy::Adaptive(sae_core::MapeConfig::new(2, self.node_spec.cores))
    }
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self::four_node_hdd()
    }
}

/// Functional categories of engine parameters, matching Table 1's taxonomy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ConfigCategory {
    /// Shuffle behaviour.
    Shuffle,
    /// Compression and serialization.
    CompressionSerialization,
    /// Memory management.
    MemoryManagement,
    /// Execution behaviour.
    ExecutionBehavior,
    /// Networking.
    Network,
    /// Scheduling.
    Scheduling,
    /// Dynamic allocation.
    DynamicAllocation,
}

impl ConfigCategory {
    /// Human-readable name as printed in Table 1.
    pub(crate) fn display_name(self) -> &'static str {
        match self {
            ConfigCategory::Shuffle => "Shuffle",
            ConfigCategory::CompressionSerialization => "Compression and Serialization",
            ConfigCategory::MemoryManagement => "Memory Management",
            ConfigCategory::ExecutionBehavior => "Execution Behavior",
            ConfigCategory::Network => "Network",
            ConfigCategory::Scheduling => "Scheduling",
            ConfigCategory::DynamicAllocation => "Dynamic Allocation",
        }
    }

    /// All categories, in Table 1 order.
    pub const ALL: [ConfigCategory; 7] = [
        ConfigCategory::Shuffle,
        ConfigCategory::CompressionSerialization,
        ConfigCategory::MemoryManagement,
        ConfigCategory::ExecutionBehavior,
        ConfigCategory::Network,
        ConfigCategory::Scheduling,
        ConfigCategory::DynamicAllocation,
    ];
}

/// One named, documented parameter in the catalog.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigParameter {
    /// Dotted parameter name (`"sae.shuffle.partitionsPerCore"`).
    pub name: &'static str,
    /// Category for Table 1-style grouping.
    pub category: ConfigCategory,
    /// Whether the parameter directly affects performance.
    pub performance_relevant: bool,
}

/// A catalog of functional parameters, reproducing Table 1.
///
/// Two catalogs are provided: [`ParameterCatalog::spark_2_4_2`] is the
/// reference data the paper counted (117 parameters across 7 categories),
/// and [`ParameterCatalog::engine`] enumerates this engine's own tunables
/// to show the same disease in miniature.
#[derive(Debug, Clone, Default)]
pub struct ParameterCatalog {
    parameters: Vec<ConfigParameter>,
}

impl ParameterCatalog {
    /// The Spark 2.4.2 functional-parameter counts from Table 1.
    ///
    /// Parameter names are not reproduced (the paper only reports counts);
    /// entries are synthesised as `spark.<category>.pN`.
    pub fn spark_2_4_2() -> Self {
        fn synth(
            category: ConfigCategory,
            count: usize,
            names: &'static [&'static str],
        ) -> Vec<ConfigParameter> {
            (0..count)
                .map(|i| ConfigParameter {
                    name: names.get(i).copied().unwrap_or("spark.parameter"),
                    category,
                    performance_relevant: true,
                })
                .collect()
        }
        let mut parameters = Vec::new();
        parameters.extend(synth(
            ConfigCategory::Shuffle,
            19,
            &[
                "spark.shuffle.compress",
                "spark.shuffle.file.buffer",
                "spark.reducer.maxSizeInFlight",
            ],
        ));
        parameters.extend(synth(
            ConfigCategory::CompressionSerialization,
            16,
            &["spark.io.compression.codec", "spark.serializer"],
        ));
        parameters.extend(synth(
            ConfigCategory::MemoryManagement,
            14,
            &["spark.memory.fraction", "spark.memory.storageFraction"],
        ));
        parameters.extend(synth(
            ConfigCategory::ExecutionBehavior,
            14,
            &["spark.executor.cores", "spark.default.parallelism"],
        ));
        parameters.extend(synth(
            ConfigCategory::Network,
            13,
            &["spark.network.timeout", "spark.rpc.askTimeout"],
        ));
        parameters.extend(synth(
            ConfigCategory::Scheduling,
            32,
            &[
                "spark.locality.wait",
                "spark.speculation",
                "spark.task.cpus",
            ],
        ));
        parameters.extend(synth(
            ConfigCategory::DynamicAllocation,
            9,
            &["spark.dynamicAllocation.enabled"],
        ));
        Self { parameters }
    }

    /// This engine's own tunables, categorised the same way.
    pub fn engine() -> Self {
        use ConfigCategory::*;
        let p = |name, category| ConfigParameter {
            name,
            category,
            performance_relevant: true,
        };
        Self {
            parameters: vec![
                p("sae.shuffle.partitionsPerCore", Shuffle),
                p("sae.shuffle.fetchParallelism", Shuffle),
                p("sae.shuffle.fragmentPenalty", Shuffle),
                p("sae.storage.blockSizeMb", MemoryManagement),
                p("sae.storage.inputReplication", MemoryManagement),
                p("sae.storage.outputReplication", MemoryManagement),
                p("sae.executor.chunksPerTask", ExecutionBehavior),
                p("sae.executor.threads", ExecutionBehavior),
                p("sae.executor.adaptive.cMin", ExecutionBehavior),
                p("sae.executor.adaptive.cMax", ExecutionBehavior),
                p("sae.network.rpcLatency", Network),
                p("sae.network.ingressBandwidth", Network),
                p("sae.network.perStreamCap", Network),
                p("sae.scheduler.sampleInterval", Scheduling),
                p("sae.scheduler.localityPreferred", Scheduling),
                p("sae.cluster.nodes", Scheduling),
                p("sae.cluster.seed", Scheduling),
            ],
        }
    }

    /// Number of parameters in `category`.
    pub(crate) fn count(&self, category: ConfigCategory) -> usize {
        self.parameters
            .iter()
            .filter(|p| p.category == category)
            .count()
    }

    /// Total parameter count.
    pub(crate) fn total(&self) -> usize {
        self.parameters.len()
    }

    /// Iterates all parameters.
    pub fn iter(&self) -> impl Iterator<Item = &ConfigParameter> {
        self.parameters.iter()
    }

    /// Renders Table 1: `(category name, count)` rows plus the total.
    pub fn table(&self) -> Vec<(String, usize)> {
        let mut rows: Vec<(String, usize)> = ConfigCategory::ALL
            .iter()
            .map(|&c| (c.display_name().to_owned(), self.count(c)))
            .collect();
        rows.push(("Total".to_owned(), self.total()));
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spark_catalog_matches_table_1() {
        let cat = ParameterCatalog::spark_2_4_2();
        assert_eq!(cat.count(ConfigCategory::Shuffle), 19);
        assert_eq!(cat.count(ConfigCategory::CompressionSerialization), 16);
        assert_eq!(cat.count(ConfigCategory::MemoryManagement), 14);
        assert_eq!(cat.count(ConfigCategory::ExecutionBehavior), 14);
        assert_eq!(cat.count(ConfigCategory::Network), 13);
        assert_eq!(cat.count(ConfigCategory::Scheduling), 32);
        assert_eq!(cat.count(ConfigCategory::DynamicAllocation), 9);
        assert_eq!(cat.total(), 117);
    }

    #[test]
    fn table_rows_end_with_total() {
        let rows = ParameterCatalog::spark_2_4_2().table();
        assert_eq!(rows.len(), 8);
        assert_eq!(rows.last().unwrap(), &("Total".to_owned(), 117));
    }

    #[test]
    fn engine_catalog_is_nonempty_and_categorised() {
        let cat = ParameterCatalog::engine();
        assert!(cat.total() >= 15);
        assert!(cat.count(ConfigCategory::Shuffle) >= 2);
    }

    #[test]
    fn four_node_config_is_paper_setup() {
        let cfg = EngineConfig::four_node_hdd();
        cfg.validate();
        assert_eq!(cfg.nodes, 4);
        assert_eq!(cfg.total_cores(), 128);
        assert_eq!(cfg.default_threads(), 32);
        assert_eq!(cfg.input_replication, 4);
    }

    #[test]
    fn sixteen_node_config_scales() {
        let cfg = EngineConfig::sixteen_node_hdd();
        cfg.validate();
        assert_eq!(cfg.nodes, 16);
        assert_eq!(cfg.total_cores(), 512);
    }

    #[test]
    fn ssd_config_uses_ssd() {
        assert_eq!(
            EngineConfig::four_node_ssd().node_spec.disk.name(),
            "ssd-sata"
        );
    }

    #[test]
    fn adaptive_policy_bounds_match_cores() {
        match EngineConfig::four_node_hdd().adaptive_policy() {
            ThreadPolicy::Adaptive(cfg) => {
                assert_eq!(cfg.c_min, 2);
                assert_eq!(cfg.c_max, 32);
            }
            _ => panic!("expected adaptive"),
        }
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn zero_nodes_rejected() {
        EngineConfig::four_node_hdd().with_nodes(0).validate();
    }

    fn slowdown(node: usize, at: f64, duration: f64, severity: f64) -> NodeSlowdown {
        NodeSlowdown {
            node,
            at,
            duration,
            severity,
        }
    }

    #[test]
    fn fault_plan_builder_chains() {
        let mut plan = FaultPlan::new(7)
            .with_crash(1, 60.0, 30.0)
            .with_crash(2, 90.0, 15.0)
            .with_task_failures(0.02)
            .with_heartbeat_loss(0.1)
            .with_message_delay(0.01);
        plan.slowdowns.push(slowdown(0, 10.0, 20.0, 0.5));
        plan.validate(4);
        assert_eq!(plan.crashes.len(), 2);
        assert_eq!(plan.slowdowns.len(), 1);
        assert!(!plan.is_empty());
        assert!(FaultPlan::new(7).is_empty());
    }

    #[test]
    fn wire_and_disk_faults_chain_and_validate() {
        use WireDirection::Both;
        let plan = FaultPlan::new(9)
            .with_throttle(0, 0.0, 30.0, 64.0 * 1024.0)
            .with_wire_fault(1, 2.0, 3.0, Both, WireFaultKind::Delay { seconds: 0.05 })
            .with_wire_fault(2, 1.0, 2.0, Both, WireFaultKind::Drop { probability: 0.25 })
            .with_wire_fault(
                2,
                1.0,
                2.0,
                Both,
                WireFaultKind::Duplicate { probability: 0.25 },
            )
            .with_wire_fault(3, 4.0, 0.1, Both, WireFaultKind::Reset)
            .with_partition(1, 5.0, 1.5, WireDirection::ToDriver)
            .with_disk_fault(7, 0.5);
        plan.validate(4);
        assert_eq!(plan.wire.len(), 6);
        assert_eq!(plan.disk.len(), 1);
        assert!(!plan.is_empty());
        // Wire-only and disk-only plans are non-empty too.
        assert!(!FaultPlan::new(0).with_throttle(0, 1.0, 1.0, 1.0).is_empty());
        assert!(!FaultPlan::new(0).with_disk_fault(0, 1.0).is_empty());
    }

    #[test]
    fn wire_direction_coverage() {
        assert!(WireDirection::Both.covers_to_driver());
        assert!(WireDirection::Both.covers_to_executor());
        assert!(WireDirection::ToDriver.covers_to_driver());
        assert!(!WireDirection::ToDriver.covers_to_executor());
        assert!(!WireDirection::ToExecutor.covers_to_driver());
        assert!(WireDirection::ToExecutor.covers_to_executor());
    }

    #[test]
    #[should_panic(expected = "wire fault targets executor")]
    fn wire_fault_on_missing_executor_rejected() {
        FaultPlan::new(0)
            .with_throttle(4, 0.0, 1.0, 1024.0)
            .validate(4);
    }

    #[test]
    #[should_panic(expected = "throttle bandwidth must be positive")]
    fn zero_throttle_bandwidth_rejected() {
        FaultPlan::new(0)
            .with_throttle(0, 0.0, 1.0, 0.0)
            .validate(4);
    }

    #[test]
    #[should_panic(expected = "drop probability must be in")]
    fn certain_wire_drop_rejected() {
        let drop_all = WireFaultKind::Drop { probability: 1.0 };
        FaultPlan::new(0)
            .with_wire_fault(0, 0.0, 1.0, WireDirection::Both, drop_all)
            .validate(4);
    }

    #[test]
    fn fault_plan_accepted_by_engine_config() {
        let mut cfg = EngineConfig::four_node_hdd();
        cfg.fault_plan = Some(FaultPlan::new(1).with_crash(3, 5.0, 10.0));
        cfg.validate();
    }

    #[test]
    #[should_panic(expected = "crash targets executor")]
    fn crash_on_missing_executor_rejected() {
        FaultPlan::new(0).with_crash(4, 1.0, 1.0).validate(4);
    }

    #[test]
    #[should_panic(expected = "downtime must be positive")]
    fn zero_downtime_rejected() {
        FaultPlan::new(0).with_crash(0, 1.0, 0.0).validate(4);
    }

    #[test]
    #[should_panic(expected = "severity must be in")]
    fn excessive_slowdown_severity_rejected() {
        let mut plan = FaultPlan::new(0);
        plan.slowdowns.push(slowdown(0, 1.0, 1.0, 1.5));
        plan.validate(4);
    }

    #[test]
    #[should_panic(expected = "probability must be in")]
    fn certain_task_failure_rejected() {
        FaultPlan::new(0).with_task_failures(1.0).validate(4);
    }

    #[test]
    fn fault_tolerance_defaults_validate() {
        let ft = FaultToleranceConfig::default();
        ft.validate();
    }
}
