//! Metrics snapshot pin: one deterministic simulator run of reliable
//! paxos-Ω with a leader crash, observed by `MetricsObserver`, must
//! produce a registry snapshot byte-identical to the committed
//! `tests/data/metrics_snapshot.json`. The run exercises every
//! observer family the reliable layer touches — per-kind and
//! per-location counters, `chan.*` and `wire.*` gauges,
//! `rel.retransmissions`, `rel.dup_frames` and `crashes` — so any
//! change to how the observer names, registers or counts a metric
//! shows up as a diff against the file.

use std::sync::Arc;

use afd_algorithms::reliable_paxos_system;
use afd_core::{Loc, Pi};
use afd_obs::{Metrics, MetricsObserver};
use afd_system::{run_random, FaultPattern, SimConfig};

const SNAPSHOT_PATH: &str = "tests/data/metrics_snapshot.json";

/// The pinned run's snapshot, rendered as JSON.
fn observed_snapshot() -> String {
    let pi = Pi::new(3);
    let faults = FaultPattern::at(vec![(40, Loc(0))]);
    let sys = reliable_paxos_system(pi, &[0, 1, 1], faults.faulty());
    let metrics = Arc::new(Metrics::new());
    run_random(
        &sys,
        7,
        SimConfig::default()
            .with_faults(faults)
            .with_max_steps(3_000)
            .with_observer(Arc::new(MetricsObserver::new(metrics.clone()))),
    );
    metrics.snapshot().to_json().render() + "\n"
}

#[test]
fn observer_snapshot_matches_the_committed_pin() {
    let pinned = std::fs::read_to_string(SNAPSHOT_PATH).expect("committed snapshot exists");
    assert_eq!(observed_snapshot(), pinned);
}

#[test]
fn pinned_run_covers_the_reliable_layer_families() {
    let doc = observed_snapshot();
    for family in [
        "\"crashes\":1",
        "\"events.wire_send\"",
        "\"events.wire_recv\"",
        "\"wire.p0->p1.in_flight\"",
        "\"chan.p0->p1.in_flight\"",
        "\"loc.p2.events\"",
    ] {
        assert!(doc.contains(family), "snapshot lacks {family}");
    }
    for busy in ["rel.retransmissions", "rel.dup_frames"] {
        assert!(
            !doc.contains(&format!("\"{busy}\":0")),
            "the pinned run must exercise {busy}"
        );
    }
}

/// Regenerate the committed snapshot after an intended change to the
/// run or to the metric families:
/// `cargo test --test metrics_snapshot -- --ignored`.
#[test]
#[ignore = "writes tests/data/metrics_snapshot.json; run explicitly to regenerate"]
fn regenerate_the_committed_snapshot() {
    std::fs::create_dir_all("tests/data").expect("data dir");
    std::fs::write(SNAPSHOT_PATH, observed_snapshot()).expect("snapshot written");
}
