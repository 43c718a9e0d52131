//! One engine, three hosts: `run_threaded`, a TCP `run_distributed`
//! coordinator and the UDP nodes hosting their channels' destinations
//! run the same activation loop, so on the same seed and link profile
//! each channel's *realised* chaos accounting must be exactly what the
//! exported plan says about that channel's first `arrivals` messages —
//! on all three.

use std::time::Duration;

use afd_algorithms::consensus::all_live_decided;
use afd_algorithms::reliable::reliable_paxos_system;
use afd_core::Pi;
use afd_net::{run_distributed, DeploymentSpec, NetConfig, Transport};
use afd_runtime::{
    run_threaded, ChannelChaos, ChannelChaosStats, ChaosReport, LinkFaults, LinkProfile,
    RuntimeConfig,
};

const SEED: u64 = 4_242;

fn links() -> LinkFaults {
    LinkFaults::uniform(LinkProfile::lossy(0.30).with_dup(0.10).with_reorder(4))
}

/// Every channel in `report` consumed a prefix of its seeded decision
/// stream: its counters equal the tallies of the first `arrivals`
/// decisions of `ChannelChaos::new(SEED, from, to, profile)`.
fn assert_realised_equals_planned(engine: &str, report: &ChaosReport) {
    assert!(
        report.arrivals() >= 20,
        "{engine}: the adversary saw too little traffic to pin anything: {report}"
    );
    for (&(from, to), &realised) in &report.per_channel {
        let mut plan = ChannelChaos::new(SEED, from, to, links().profile(from, to));
        let mut planned = ChannelChaosStats::default();
        for _ in 0..realised.arrivals {
            let d = plan.next();
            planned.arrivals += 1;
            planned.dropped += u64::from(d.drop);
            planned.duplicated += u64::from(d.dup);
            planned.held += u64::from(d.hold > 0);
        }
        assert_eq!(
            realised, planned,
            "{engine}: channel {from}->{to} strayed from its plan"
        );
    }
}

#[test]
fn realised_chaos_equals_the_plan_threaded() {
    let pi = Pi::new(3);
    let sys = reliable_paxos_system(pi, &[1, 0, 1], vec![]);
    let cfg = RuntimeConfig::default()
        .with_links(links())
        .with_seed(SEED)
        .with_wire_pacing(Duration::from_micros(20))
        .with_max_events(6_000)
        .stop_when(move |s| all_live_decided(pi, s));
    let out = run_threaded(&sys, &cfg);
    assert_realised_equals_planned("threaded", &out.chaos);
}

fn distributed_chaos(transport: Transport) -> ChaosReport {
    let spec = DeploymentSpec::ReliablePaxos {
        n: 3,
        values: vec![1, 0, 1],
    };
    let cfg = NetConfig::new(vec![env!("CARGO_BIN_EXE_afd-node").to_string()], 3)
        .with_deadlines(Duration::from_secs(10), Duration::from_secs(120))
        .with_max_events(6_000)
        .with_seed(SEED)
        .with_links(links())
        .with_transport(transport);
    run_distributed(&spec, &cfg).expect("run").chaos
}

#[test]
fn realised_chaos_equals_the_plan_tcp() {
    assert_realised_equals_planned("tcp", &distributed_chaos(Transport::Tcp));
}

#[test]
fn realised_chaos_equals_the_plan_udp() {
    assert_realised_equals_planned("udp", &distributed_chaos(Transport::Udp));
}
