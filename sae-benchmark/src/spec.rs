//! The benchmark's contract as data: workloads, metrics, bounds. The
//! checked-in `BENCHMARK.json` is [`manifest_json`] verbatim (a test
//! holds the two together), so names, units and bounds have one source.

/// Seconds one run measures (`run_seconds` of the manifest).
pub const RUN_SECONDS: u64 = 20;

/// A workload and the reason it exists.
pub struct WorkloadSpec {
    /// Name passed as `--workload`.
    pub name: &'static str,
    /// One line: which layers it stresses and what it would catch.
    pub why: &'static str,
}

/// The five workloads.
pub const WORKLOADS: [WorkloadSpec; 5] = [
    WorkloadSpec {
        name: "sim_policy_sweep",
        why: "paper path: run_policy over 4 workloads x 3 clusters; sim kernel, dag engine, controller and runner do all the work, the live stack none",
    },
    WorkloadSpec {
        name: "small_closed",
        why: "closed loop, 2 clients, 1x500-record jobs: control plane saturated (HTTP, JSON, admission, fair-share, wire, reactor, SSE end frame), task body near nothing",
    },
    WorkloadSpec {
        name: "small_open",
        why: "same job, Poisson arrivals at 300 jobs/s timed from due time: unsaturated latency shows tick, coalescing and wake-up cost that saturation hides",
    },
    WorkloadSpec {
        name: "heavy_closed",
        why: "closed loop, 2 clients, 16x10000-record jobs: task body dominates (teragen, spill, CRC, sort, adaptive pool), control plane near nothing",
    },
    WorkloadSpec {
        name: "mixed_fair",
        why: "starved 1-executor fleet: weight-4 interactive tenant at 8 jobs/s beside a weight-1 batch tenant that also reads /metrics and /jobs: fair-share, slot ledger, barriers",
    },
];

/// Which way a metric improves.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger is better.
    Higher,
    /// Smaller is better.
    Lower,
}

impl Better {
    fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// A metric of the manifest. `bound` is `None` for per-layer metrics.
pub struct MetricSpec {
    /// Name in the result line.
    pub name: &'static str,
    /// Unit in the result line.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Share of the parent's median it may worsen by (end-to-end only).
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// What a user of the system sees. Every workload reports every one
/// (README.md says what "job" and "work" are on each workload).
///
/// One bound covers a metric on all five workloads, so the noisiest
/// workload sets it, and the reference box is noisy: twice the half-range
/// seen over ten seeds (README.md, "Repeatability") is past the 0.25 the
/// contract allows for every timed metric, so they all sit at 0.25.
pub const END_TO_END: [MetricSpec; 7] = [
    e2e("setup_s", "s", Lower, 0.25),
    e2e("jobs_per_s", "1/s", Higher, 0.25),
    e2e("work_per_s", "1/s", Higher, 0.25),
    e2e("job_latency_p50_ms", "ms", Lower, 0.25),
    e2e("job_latency_tail_ms", "ms", Lower, 0.25),
    e2e("cpu_ms_per_job", "ms", Lower, 0.25),
    e2e("peak_rss_mb", "MB", Lower, 0.2),
];

/// Single-layer numbers of the traced run, by layer (= crate/module).
pub const PER_LAYER: [MetricSpec; 65] = [
    // generator (this harness): validity of the open loops, and of the box
    layer("gen.lag_p99_ms", "ms", Lower),
    layer("gen.offered_per_s", "1/s", Higher),
    layer("gen.slo_miss_frac", "share", Lower),
    layer("gen.steal_frac", "share", Lower),
    // sae-net::http / sse
    layer("net.http.requests", "count", Lower),
    layer("net.http.parse_ns_per_req", "ns", Lower),
    layer("net.http.encode_ns_per_resp", "ns", Lower),
    layer("net.sse.encode_ns_per_frame", "ns", Lower),
    layer("net.sse.parse_ns_per_frame", "ns", Lower),
    // sae-live::server
    layer("server.submit_ms_p50", "ms", Lower),
    layer("server.submit_ms_p99", "ms", Lower),
    layer("server.follow_open_ms_p50", "ms", Lower),
    layer("server.runtime_ms_p50", "ms", Lower),
    layer("server.stage0_ms_p50", "ms", Lower),
    layer("server.stage1_ms_p50", "ms", Lower),
    layer("server.barrier_ms_p50", "ms", Lower),
    layer("server.wait_ms_p50", "ms", Lower),
    layer("server.wait_ms_p99", "ms", Lower),
    layer("server.wakeups_per_job", "count", Lower),
    layer("server.tasks_dispatched", "count", Lower),
    layer("server.task_outcomes", "count", Lower),
    layer("server.jobs_rejected", "count", Lower),
    layer("server.json_parse_ns_per_spec", "ns", Lower),
    layer("server.metrics_scrape_ms_p50", "ms", Lower),
    layer("server.list_jobs_ms_p50", "ms", Lower),
    // sae-live::server::sched
    layer("fairshare.pick_ns_1", "ns", Lower),
    layer("fairshare.pick_ns_8", "ns", Lower),
    layer("fairshare.pick_ns_32", "ns", Lower),
    layer("fairshare.share_ratio", "ratio", Higher),
    // sae-live::wire + sae-dag::codec
    layer("wire.encode_ns_per_frame", "ns", Lower),
    layer("wire.decode_ns_per_frame", "ns", Lower),
    layer("codec.ns_per_msg", "ns", Lower),
    // sae-poll
    layer("poll.wake_rtt_us_p50", "us", Lower),
    layer("poll.wheel_ns_per_op", "ns", Lower),
    // sae-live::task + sae-workloads
    layer("task.spill_ms_per_task", "ms", Lower),
    layer("task.sort_ms_per_task", "ms", Lower),
    layer("task.body_share", "share", Higher),
    layer("workloads.teragen_ns_per_record", "ns", Lower),
    layer("workloads.write_ns_per_record", "ns", Lower),
    layer("workloads.read_ns_per_record", "ns", Lower),
    layer("workloads.crc_mb_per_s", "MB/s", Higher),
    // sae-pool + sae-core
    layer("pool.submit_to_start_us_p50", "us", Lower),
    layer("pool.resize_us", "us", Lower),
    layer("core.controller_ns_per_task", "ns", Lower),
    layer("core.journal_ns_per_record", "ns", Lower),
    layer("adapt.intervals_per_stage", "count", Lower),
    layer("adapt.final_threads_mean", "count", Higher),
    layer("adapt.rollback_frac", "share", Lower),
    // sae-live::recorder + sae-metrics
    layer("recorder.push_ns", "ns", Lower),
    layer("metrics.render_prometheus_us", "us", Lower),
    // sae-sim
    layer("sim.kernel_ns_per_event", "ns", Lower),
    layer("sim.kernel_events_per_s", "1/s", Higher),
    layer("sim.adaptive_gain_x", "ratio", Higher),
    // sae-dag
    layer("dag.sched_ns_per_pick", "ns", Lower),
    layer("dag.engine_ms_per_run_p50", "ms", Lower),
    layer("dag.engine_runs", "count", Lower),
    layer("dag.task_attempts", "count", Lower),
    layer("dag.trace_events", "count", Lower),
    // sae-storage + sae-cluster
    layer("storage.curve_ns_per_eval", "ns", Lower),
    layer("cluster.dfs_ns_per_block", "ns", Lower),
    // sae-bench runner
    layer("runner.bestfit_share", "share", Lower),
    layer("runner.parallel_speedup_x", "ratio", Higher),
    // tracing itself
    layer("trace.overhead_frac", "share", Lower),
    layer("trace.spans", "count", Lower),
    layer("trace.window_s", "s", Lower),
];

fn metric_json(m: &MetricSpec) -> String {
    let bound = m
        .bound
        .map_or(String::new(), |b| format!(", \"bound\": {b}"));
    format!(
        "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"{bound}}}",
        m.name,
        m.unit,
        m.better.as_str()
    )
}

/// `BENCHMARK.json`, exactly.
pub fn manifest_json() -> String {
    let list = |items: Vec<String>| items.join(",\n    ");
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"sae-benchmark/Cargo.toml\", \"--\"],\n  \
         \"paths\": [\"sae-benchmark\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \
         \"workloads\": [\n    {}\n  ],\n  \"end_to_end\": [\n    {}\n  ],\n  \
         \"per_layer\": [\n    {}\n  ]\n}}\n",
        list(
            WORKLOADS
                .iter()
                .map(|w| format!("{{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
                .collect()
        ),
        list(END_TO_END.iter().map(metric_json).collect()),
        list(PER_LAYER.iter().map(metric_json).collect()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn name_ok(s: &str) -> bool {
        s.len() <= 64
            && s.starts_with(|c: char| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn manifest_keeps_the_contract_limits() {
        let mut names = BTreeSet::new();
        for w in &WORKLOADS {
            assert!(name_ok(w.name) && names.insert(w.name), "{}", w.name);
            assert!(
                w.why.len() <= 200 && !w.why.contains(['\n', '"']),
                "{}",
                w.name
            );
        }
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(name_ok(m.name) && names.insert(m.name), "{}", m.name);
            assert!(
                m.unit.len() <= 16
                    && m.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{}",
                m.unit
            );
        }
        assert!(END_TO_END
            .iter()
            .all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert!(setup.unit == "s" && setup.better == Lower);
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert!((1..=60).contains(&RUN_SECONDS));
        assert!(manifest_json().len() <= 64 * 1024);
    }

    #[test]
    fn checked_in_manifest_is_the_generated_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            on_disk,
            manifest_json(),
            "regenerate with: sae-benchmark --manifest > BENCHMARK.json"
        );
    }
}
