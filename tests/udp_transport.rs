//! Acceptance grid for [`Transport::Udp`]: the same deployments the
//! TCP acceptance suite runs, but with every node↔node data channel
//! riding real `std::net::UdpSocket` datagrams (afd-dgram framing; each
//! arriving datagram's drop/dup/reorder fate drawn by the destination
//! channel's seeded ADD state, as on every other engine):
//!
//! * the ◇P/Ω conformance grid stays conformant over real datagrams —
//!   including the bounded-message ◇P of the ADD paper under 30%
//!   injected drop;
//! * ReliablePaxos (Paxos-Ω behind stubborn wire channels) decides at
//!   30% injected drop + duplication, retransmitting over genuinely
//!   lossy sockets;
//! * reordering is bounded delay, not loss: plain Paxos decides over
//!   reordering UDP links exactly as over TCP;
//! * injected loss (the chaos report) tracks the configured
//!   [`LinkProfile`] within ±5 percentage points, apart from the
//!   organic loss the datagram report counts;
//! * `Transport::Tcp` stays the default and byte-for-byte identical
//!   on the same seed (chaos plan pinned, no dgram report);
//! * deployments that need the router data plane (partitions,
//!   recovery) are rejected up front with typed config errors.

use std::time::Duration;

use afd_core::afds::EvPerfect;
use afd_core::{Action, Loc, Pi, StreamChecker};
use afd_net::coord::{NetConfig, NetReport, RecoveryPolicy, Transport};
use afd_net::{run_distributed, DeploymentSpec, FdKindSpec, NetError};
use afd_runtime::{LinkFaults, LinkProfile, Partition, StopReason};

#[cfg(target_os = "linux")]
mod common;

fn node_cmd() -> Vec<String> {
    vec![env!("CARGO_BIN_EXE_afd-node").to_string()]
}

fn udp_cfg(nodes: u32) -> NetConfig {
    NetConfig::new(node_cmd(), nodes)
        .with_deadlines(Duration::from_secs(10), Duration::from_secs(120))
        .with_transport(Transport::Udp)
}

fn assert_all_checks(report: &NetReport) {
    assert_checks_except(report, "");
}

fn assert_checks_except(report: &NetReport, skip: &str) {
    for c in report.checks.iter().filter(|c| c.name != skip) {
        assert!(
            c.verdict.is_ok(),
            "check {} failed: {:?}",
            c.name,
            c.verdict
        );
    }
}

/// Every check of a bounded-◇P run, with ◇P's "eventually forever"
/// clause judged at a quiescent cut instead of wherever the event
/// budget stopped the run.
///
/// The coordinator's `conformance-bounded-evp` verdict is the
/// [`EvPerfect`] stream over the committed schedule, read at the
/// budget. A budget that ends inside a suspicion the next heartbeat
/// retracts reads `eventually.violated` though nothing was refuted
/// (5 of 60 runs of the 3 000-event probe on a loaded 2-core host,
/// the open suspicion 1 to 71 events old). The schedule is in the report, so the same checker runs over it
/// again here: its verdict at the budget must be the coordinator's,
/// and it must accept a prefix ending within the last tenth of the
/// run. One run, one rule, no verdict text consulted — and a live
/// location that stays suspected fails at every one of those cuts.
fn assert_bounded_evp_checks(report: &NetReport, pi: Pi) {
    const EVP: &str = "conformance-bounded-evp";
    assert_checks_except(report, EVP);
    let online = &report.check(EVP).expect("the ◇P check ran").verdict;
    let mut stream = EvPerfect::stream(pi);
    let mut quiescent = 0;
    for (k, a) in report.schedule.iter().enumerate() {
        stream.push(a);
        if stream.finish().is_ok() {
            quiescent = k + 1;
        }
    }
    assert_eq!(
        &stream.finish().map_err(|v| v.to_string()),
        online,
        "the coordinator's ◇P verdict is not the checker's over its own schedule"
    );
    let events = report.schedule.len();
    assert!(
        events - quiescent <= events / 10,
        "◇P last conformant at event {quiescent} of {events}; at the budget: {online:?}"
    );
}

/// Every live location decided on a single common value.
fn assert_decided(report: &NetReport, pi: Pi) {
    let crashed: Vec<Loc> = report
        .schedule
        .iter()
        .filter_map(|a| match a {
            Action::Crash(l) => Some(*l),
            _ => None,
        })
        .collect();
    let decisions: Vec<(Loc, u64)> = report
        .schedule
        .iter()
        .filter_map(|a| match a {
            Action::Decide { at, v } => Some((*at, *v)),
            _ => None,
        })
        .collect();
    let values: std::collections::BTreeSet<u64> = decisions.iter().map(|&(_, v)| v).collect();
    assert!(values.len() <= 1, "agreement violated: {values:?}");
    for l in pi.iter() {
        if !crashed.contains(&l) {
            assert!(
                decisions.iter().any(|&(at, _)| at == l),
                "live location {l:?} never decided (decisions: {decisions:?})"
            );
        }
    }
}

/// The ◇P/Ω conformance grid over real UDP sockets, clean links: the
/// self-implementation deployments stay trace-conformant and pass
/// Theorem 13 exactly as they do over TCP.
#[test]
fn conformance_grid_over_udp() {
    for fd in [
        FdKindSpec::Omega,
        FdKindSpec::EvPerfectNoisy {
            lie_set: afd_core::LocSet::singleton(Loc(0)),
            lie_count: 3,
        },
    ] {
        let spec = DeploymentSpec::SelfImpl { n: 3, fd };
        let cfg = udp_cfg(3).with_max_events(250).with_seed(17);
        let report = run_distributed(&spec, &cfg).expect("run");
        assert_eq!(report.stop, Some(StopReason::MaxEvents), "{}", spec.label());
        assert_all_checks(&report);
        assert!(report.check("theorem-13").is_some());
        assert!(report.dgram.is_some(), "UDP runs must carry a dgram report");
    }
}

/// The bounded-message ◇P of the ADD paper, over real UDP at 30%
/// injected drop: heartbeat counters stay bounded, datagrams genuinely
/// vanish, and the streaming ◇P conformance checker still passes —
/// the algorithm's repetition tolerates an ADD-style lossy channel.
#[test]
fn bounded_evp_conformant_over_udp_at_30pct_drop() {
    let spec = DeploymentSpec::BoundedEvP { n: 3 };
    let cfg = udp_cfg(3)
        .with_max_events(1_500)
        .with_seed(41)
        .with_links(LinkFaults::uniform(LinkProfile::lossy(0.30)));
    let report = run_distributed(&spec, &cfg).expect("run");
    assert_bounded_evp_checks(&report, spec.pi());
    let dgram = report.dgram.as_ref().expect("dgram report");
    assert!(dgram.datagrams_tx() > 0, "◇P exchanged no heartbeats");
    assert!(
        report.chaos.dropped() > 0,
        "30% drop injected nothing: {}",
        report.chaos
    );
}

/// A node stopped and continued mid-run (SIGSTOP/SIGCONT, as a
/// debugger or a job-control shell does) keeps its datagram plane:
/// Linux fails the receive loop's timed `recv_from` with EINTR on the
/// continue, and ending the loop there silenced every channel into
/// the node — its process then suspected both peers forever.
#[cfg(target_os = "linux")]
#[test]
fn stopped_and_continued_node_keeps_receiving() {
    let mark = common::marker("sigstop");
    let spec = DeploymentSpec::BoundedEvP { n: 3 };
    let cfg = NetConfig::new(vec![node_cmd().remove(0), mark.clone()], 3)
        .with_deadlines(Duration::from_secs(10), Duration::from_secs(120))
        .with_transport(Transport::Udp)
        .with_max_events(15_000)
        .with_seed(53)
        .with_links(LinkFaults::uniform(LinkProfile::lossy(0.30)));
    let pi = spec.pi();
    let run = std::thread::spawn(move || run_distributed(&spec, &cfg));
    let nodes = loop {
        let pids = common::marked(&mark);
        if pids.len() == 3 || run.is_finished() {
            break pids;
        }
        std::thread::sleep(Duration::from_millis(1));
    };
    let victim = nodes.iter().max().copied().expect("node processes");
    let signal = |sig: &str| {
        let _ = std::process::Command::new("kill")
            .args([sig, &victim.to_string()])
            .stderr(std::process::Stdio::null())
            .status();
    };
    // Several stop/continue cycles early in the run, so that some
    // continue lands while the receive loop waits in `recv_from`; the
    // budget leaves the rest of the run undisturbed, so the ◇P cut is
    // judged long after the last continue.
    for _ in 0..5 {
        std::thread::sleep(Duration::from_millis(20));
        for sig in ["-STOP", "-CONT"] {
            if run.is_finished() || !common::marked(&mark).contains(&victim) {
                break;
            }
            signal(sig);
            std::thread::sleep(Duration::from_millis(10));
        }
    }
    signal("-CONT");
    let report = run.join().expect("coordinator thread").expect("run");
    assert_bounded_evp_checks(&report, pi);
}

/// ReliablePaxos n=3 over UDP at 30% drop + 10% duplication: stubborn
/// `WireSend` retransmission rides the real lossy datagram plane and
/// the survivors still decide. This is the honest ADD-channel mapping
/// of "Paxos(Ω) decides under loss" — the algorithm retransmits, the
/// network genuinely drops.
#[test]
fn reliable_paxos_decides_over_udp_at_30pct_drop() {
    let spec = DeploymentSpec::ReliablePaxos {
        n: 3,
        values: vec![0, 1, 1],
    };
    let cfg = udp_cfg(3)
        .with_max_events(30_000)
        .with_seed(43)
        .with_links(LinkFaults::uniform(LinkProfile::lossy(0.30).with_dup(0.10)));
    let report = run_distributed(&spec, &cfg).expect("run");
    assert_all_checks(&report);
    assert_eq!(
        report.stop,
        Some(StopReason::Predicate),
        "stopped by all-live-decided, not the budget (events={})",
        report.events
    );
    assert_decided(&report, Pi::new(3));
    assert!(report.chaos.dropped() > 0, "the channels dropped nothing");
}

/// Reordering is bounded delay, not loss: a held arrival is released
/// after at most `reorder` later arrivals, or by virtual ticks once the
/// channel goes quiet. Plain Paxos — no retransmission to mask a lost
/// message — decides over reordering UDP links on every seed.
#[test]
fn reorder_is_bounded_delay_not_loss() {
    let pi = Pi::new(3);
    let spec = DeploymentSpec::Paxos {
        n: 3,
        values: vec![0, 1, 1],
    };
    for seed in [1, 2, 3] {
        let cfg = udp_cfg(3)
            .with_max_events(4_000)
            .with_seed(seed)
            .with_links(LinkFaults::uniform(LinkProfile::default().with_reorder(4)));
        let report = run_distributed(&spec, &cfg).expect("run");
        assert_eq!(
            report.stop,
            Some(StopReason::Predicate),
            "seed {seed}: stopped by all-live-decided, not the budget (events={}, {})",
            report.events,
            report.chaos
        );
        assert_all_checks(&report);
        assert_decided(&report, pi);
    }
}

/// The loss-accounting probe: with enough traffic, the injected share
/// of the loss tracks the configured profile — the chaos report's drop
/// rate lands within ±5pp of it, seeded, so the same on every host.
/// What the host's socket loses is organic loss: counted apart by the
/// datagram report, never a failure by itself (Table Y states the same
/// rule).
#[test]
fn delivery_rate_tracks_configured_profile() {
    let profile = LinkProfile::lossy(0.30);
    let spec = DeploymentSpec::BoundedEvP { n: 3 };
    let cfg = udp_cfg(3)
        .with_max_events(3_000)
        .with_seed(47)
        .with_links(LinkFaults::uniform(profile));
    let report = run_distributed(&spec, &cfg).expect("run");
    assert_bounded_evp_checks(&report, spec.pi());
    let chaos = &report.chaos;
    let dgram = report.dgram.as_ref().expect("dgram report");
    let (tx, rx) = (dgram.datagrams_tx(), dgram.datagrams_rx());
    let counts = format!(
        "chaos: {chaos}; dgram: tx={tx}, rx={rx}, organic={}",
        dgram.organic_lost()
    );
    let injected = chaos.drop_rate();
    assert!(
        (injected - profile.drop).abs() <= 0.05,
        "injected drop rate {injected:.3} not within ±5pp of configured 0.30 ({counts})"
    );
    assert!(
        chaos.arrivals() <= rx && rx <= tx,
        "arrivals ≤ reassembled ≤ transmitted must hold ({counts})"
    );
    assert_eq!(tx, rx + dgram.organic_lost(), "{counts}");
}

/// Same-seed UDP runs replay the same chaos plan: the destination
/// channels consume the same SplitMix64 decision stream as under TCP,
/// so the k-th arrival on a channel meets the k-th decision in every
/// run.
#[test]
fn same_seed_udp_chaos_plans_are_byte_identical() {
    let spec = DeploymentSpec::BoundedEvP { n: 3 };
    let links = LinkFaults::uniform(LinkProfile::lossy(0.20).with_dup(0.05));
    let run = |seed: u64| {
        let cfg = udp_cfg(3)
            .with_max_events(800)
            .with_seed(seed)
            .with_links(links.clone());
        run_distributed(&spec, &cfg).expect("run")
    };
    let a = run(99);
    let b = run(99);
    assert!(!a.chaos_plan.is_empty());
    assert_eq!(a.chaos_plan, b.chaos_plan, "same seed ⇒ identical plan");
}

/// `Transport::Tcp` stays the default and its behavior is untouched:
/// no dgram report, and the same-seed chaos plan is byte-identical to
/// a run that never heard of UDP (the plan is a pure function of
/// seed × links × Π, unchanged by this PR).
#[test]
fn tcp_default_is_unchanged() {
    let cfg = NetConfig::new(node_cmd(), 3);
    assert_eq!(cfg.transport, Transport::Tcp);
    let spec = DeploymentSpec::Paxos {
        n: 3,
        values: vec![0, 1, 1],
    };
    let links = LinkFaults::uniform(LinkProfile::lossy(0.10));
    let run = || {
        let cfg = NetConfig::new(node_cmd(), 3)
            .with_deadlines(Duration::from_secs(10), Duration::from_secs(120))
            .with_max_events(4_000)
            .with_seed(7)
            .with_links(links.clone());
        run_distributed(&spec, &cfg).expect("run")
    };
    let a = run();
    let b = run();
    assert!(a.dgram.is_none(), "TCP runs must not grow a dgram report");
    assert_eq!(a.chaos_plan, b.chaos_plan);
    assert_decided(&a, Pi::new(3));
}

/// UDP rejects the deployments that need the router data plane, with
/// typed config errors — not mid-run stalls.
#[test]
fn udp_rejects_router_only_features() {
    let spec = DeploymentSpec::Paxos {
        n: 3,
        values: vec![0, 1, 1],
    };
    let part =
        udp_cfg(3).with_partition(Partition::cut(10, 20, afd_core::LocSet::singleton(Loc(0))));
    assert!(
        matches!(run_distributed(&spec, &part), Err(NetError::Config(_))),
        "partitions need the router"
    );
    let rec = udp_cfg(3).with_recovery(RecoveryPolicy::default());
    assert!(
        matches!(run_distributed(&spec, &rec), Err(NetError::Config(_))),
        "recovery needs the TCP data plane"
    );
}
