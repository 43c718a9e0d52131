//! The benchmark's contract: workload names, metric names, units,
//! directions and bounds. `BENCHMARK.json` at the repository root is
//! `benchmark spec` printed from these tables, and `benchmark verify`
//! fails if the two drift apart.

use afd_obs::Json;

use Better::{Higher, Lower};

/// Seconds one driver run measures (`run_seconds` in `BENCHMARK.json`
/// and the default of `--seconds`).
pub const RUN_SECONDS: u64 = 15;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The spelling used in `BENCHMARK.json`.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A named workload and the reason it exists.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadSpec {
    /// The name; later issues cite it.
    pub name: &'static str,
    /// One line: what it stresses.
    pub why: &'static str,
}

/// A named metric.
#[derive(Debug, Clone, Copy)]
pub struct MetricSpec {
    /// The name.
    pub name: &'static str,
    /// The unit.
    pub unit: &'static str,
    /// Which way is better.
    pub better: Better,
    /// Regression bound as a share of the parent's median
    /// (end-to-end metrics only).
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

/// The closed set of workloads.
pub const WORKLOADS: [WorkloadSpec; 5] = [
    WorkloadSpec {
        name: "sim-suite",
        why: "the paper's own path: simulator + batch checkers on one thread; runtime, net and rsm do no work",
    },
    WorkloadSpec {
        name: "heartbeat-threaded",
        why: "steady commit path of the threaded runtime (exec, route, sink, observer) with channels in use; start/stop is 2%",
    },
    WorkloadSpec {
        name: "heartbeat-tcp",
        why: "same heartbeat system across real processes: codec, loopback round trip, coordinator queue and router",
    },
    WorkloadSpec {
        name: "kv-threaded",
        why: "the KV service under open-loop load: ~1000 short threaded runs, so start/stop cost dominates, not commits",
    },
    WorkloadSpec {
        name: "kv-tcp-kill",
        why: "KV service over one TCP deployment per slot with a leader SIGKILL mid-run: spawn, handshake, teardown, healing",
    },
];

/// End-to-end metrics: measured with tracing off, printed by every
/// workload, each with the bound that is also its regression limit.
pub const END_TO_END: [MetricSpec; 6] = [
    e2e("setup_s", "s", Lower, 0.25),
    e2e("events_per_s", "1/s", Higher, 0.20),
    e2e("op_latency_ms_p50", "ms", Lower, 0.20),
    e2e("op_latency_ms_p99", "ms", Lower, 0.25),
    e2e("drain_ops_per_s", "1/s", Higher, 0.20),
    e2e("peak_rss_mb", "MB", Lower, 0.15),
];

/// Per-layer metrics: measured by the traced run, module-prefixed, no
/// bound.
pub const PER_LAYER: [MetricSpec; 62] = [
    layer("ioa.step_ns", "ns", Lower),
    layer("system.sim_event_ns", "ns", Lower),
    layer("system.build_us", "us", Lower),
    layer("core.stream_push_ns", "ns", Lower),
    layer("core.batch_check_ns", "ns", Lower),
    layer("core.stats_fold_ns", "ns", Lower),
    layer("tree.hook_search_ms", "ms", Lower),
    layer("tree.nodes_explored", "count", Lower),
    layer("runtime.event_ns", "ns", Lower),
    layer("runtime.observer_delta_ns", "ns", Lower),
    layer("runtime.stream_stop_delta_ns", "ns", Lower),
    layer("runtime.sink_commit_ns", "ns", Lower),
    layer("runtime.sink_commit_contended_ns", "ns", Lower),
    layer("runtime.run_floor_ms", "ms", Lower),
    layer("runtime.decide_events", "count", Lower),
    layer("runtime.pool_scaling", "ratio", Higher),
    layer("runtime.pool_scaling_spread", "ratio", Lower),
    layer("runtime.wdefault_check_fail_share", "share", Lower),
    layer("obs.on_commit_ns", "ns", Lower),
    layer("prof.trace_overhead_pct", "%", Lower),
    layer("prof.residual_ns", "ns", Lower),
    layer("prof.residual_pct", "%", Lower),
    layer("net.encode_ns", "ns", Lower),
    layer("net.decode_ns", "ns", Lower),
    layer("net.frame_bytes", "bytes", Lower),
    layer("net.frame_rtt_us", "us", Lower),
    layer("net.deploy_ms", "ms", Lower),
    layer("net.node_commits_per_s", "1/s", Higher),
    layer("net.node_commit_share", "share", Higher),
    layer("net.decide_ms", "ms", Lower),
    layer("net.cut_mistake_share", "share", Lower),
    layer("dgram.fragment_ns", "ns", Lower),
    layer("dgram.reassemble_ns", "ns", Lower),
    layer("dgram.udp_rtt_us", "us", Lower),
    layer("dgram.events_per_s", "1/s", Higher),
    layer("dgram.delivery_rate", "share", Higher),
    layer("dgram.check_fail_share", "share", Lower),
    layer("rsm.slot_ms_p50", "ms", Lower),
    layer("rsm.slot_ms_p99", "ms", Lower),
    layer("rsm.ops_per_slot", "count", Higher),
    layer("rsm.slots_reproposed", "share", Lower),
    layer("rsm.submit_ns", "ns", Lower),
    layer("rsm.read_ns", "ns", Lower),
    layer("rsm.apply_ns", "ns", Lower),
    layer("rsm.kill_gap_ms", "ms", Lower),
    layer("load.poll_ns", "ns", Lower),
    layer("load.late_ms_p99", "ms", Lower),
    layer("load.clients_peak", "count", Lower),
    layer("load.late_share", "share", Lower),
    layer("span.system_self_pct", "%", Lower),
    layer("span.core_self_pct", "%", Lower),
    layer("span.algorithms_self_pct", "%", Lower),
    layer("span.runtime_self_pct", "%", Lower),
    layer("span.net_self_pct", "%", Lower),
    layer("span.rsm_self_pct", "%", Lower),
    layer("span.load_self_pct", "%", Lower),
    layer("span.count", "count", Lower),
    layer("traced.events_per_s", "1/s", Higher),
    layer("traced.op_latency_ms_p50", "ms", Lower),
    layer("traced.op_latency_ms_p99", "ms", Lower),
    layer("traced.drain_ops_per_s", "1/s", Higher),
    layer("traced.failed_share", "share", Lower),
];

/// Is `name` a legal workload or metric name?
#[must_use]
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Is `unit` a legal unit?
#[must_use]
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// The workload named `name`.
#[must_use]
pub fn workload(name: &str) -> Option<&'static WorkloadSpec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

fn metric_json(m: &MetricSpec) -> Json {
    let mut o = vec![
        ("name".into(), Json::Str(m.name.into())),
        ("unit".into(), Json::Str(m.unit.into())),
        ("better".into(), Json::Str(m.better.name().into())),
    ];
    if let Some(b) = m.bound {
        o.push(("bound".into(), Json::Num(b)));
    }
    Json::Obj(o)
}

/// The contents of `BENCHMARK.json`.
#[must_use]
pub fn benchmark_json() -> Json {
    let strs = |v: &[&str]| Json::Arr(v.iter().map(|s| Json::Str((*s).into())).collect());
    Json::Obj(vec![
        (
            "command".into(),
            strs(&[
                "cargo",
                "run",
                "--release",
                "--offline",
                "--quiet",
                "--manifest-path",
                "bench/Cargo.toml",
                "--",
                "run",
            ]),
        ),
        ("paths".into(), strs(&["bench"])),
        ("run_seconds".into(), Json::Num(RUN_SECONDS as f64)),
        (
            "workloads".into(),
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| {
                        Json::Obj(vec![
                            ("name".into(), Json::Str(w.name.into())),
                            ("why".into(), Json::Str(w.why.into())),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end".into(),
            Json::Arr(END_TO_END.iter().map(metric_json).collect()),
        ),
        (
            "per_layer".into(),
            Json::Arr(PER_LAYER.iter().map(metric_json).collect()),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_units_and_counts_are_within_the_contract() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        let mut seen = std::collections::BTreeSet::new();
        for name in WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().chain(PER_LAYER.iter()).map(|m| m.name))
        {
            assert!(valid_name(name), "bad name {name}");
            assert!(seen.insert(name), "{name} used twice");
        }
        for m in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(valid_unit(m.unit), "bad unit {} on {}", m.unit, m.name);
        }
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for m in &END_TO_END {
            let b = m.bound.expect("end-to-end metrics carry a bound");
            assert!(b > 0.0 && b <= 0.25, "{}", m.name);
        }
        assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(benchmark_json().render().len() < 64 * 1024);
    }

    #[test]
    fn name_and_unit_rules() {
        assert!(valid_name("kv-tcp-kill") && valid_name("net.encode_ns") && valid_name("9x"));
        assert!(!valid_name("") && !valid_name("-x") && !valid_name("a b") && !valid_name("a/b"));
        assert!(!valid_name(&"x".repeat(65)));
        assert!(valid_unit("1/s") && valid_unit("%") && valid_unit("ms"));
        assert!(!valid_unit("") && !valid_unit("ops per s") && !valid_unit(&"u".repeat(17)));
    }
}
