//! One channel automaton, four hosts. `run_threaded`, a TCP
//! `run_distributed` coordinator and the UDP nodes hosting their
//! channels' destinations run the same activation loop over channels
//! started in the same seeded ADD state, so on the same seed and link
//! profile each channel's *realised* chaos accounting must be exactly
//! what the exported plan says about that channel's first `arrivals`
//! messages — on all three. Because drop, duplicate and reorder are
//! steps of that automaton, every chaotic schedule is an execution of
//! its channels, and the simulator runs the same chaos from the same
//! start state with no knob of its own. Clean runs are checked the
//! same way from the other start state, the paper's FIFO queue.

use std::time::Duration;

use afd_algorithms::consensus::{all_live_decided, check_consensus_run};
use afd_algorithms::reliable::reliable_paxos_system;
use afd_core::{Action, Pi};
use afd_net::{run_distributed, DeploymentSpec, NetConfig, NetReport, Transport};
use afd_runtime::{
    fifo_violation, run_threaded, start_state, ChannelChaos, ChannelChaosStats, ChaosReport,
    LinkFaults, LinkProfile, RuntimeConfig, RuntimeOutcome,
};
use afd_system::{ComponentKind, ComponentState};
use ioa::{Automaton, RandomFair, RunOptions, Runner};

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

/// Project `schedule` onto each channel's signature and step that
/// projection through the channel automaton from the start state the
/// engines give it under `links`: every step must be accepted. Adds
/// the chaos the channels went through to `seen` (none on a FIFO
/// channel).
fn assert_channels_accept(
    engine: &str,
    links: &LinkFaults,
    schedule: &[Action],
    seen: &mut ChannelChaosStats,
) {
    let sys = reliable_paxos_system(Pi::new(3), &[1, 0, 1], vec![]);
    let comps = sys.composition.components();
    for (comp, kind) in comps.iter().zip(sys.component_kinds()) {
        let ComponentKind::Channel(from, to) = kind else {
            continue;
        };
        let mut s = start_state(comp, kind, links, SEED);
        let projection = schedule.iter().filter(|a| comp.classify(a).is_some());
        for (k, a) in projection.enumerate() {
            s = comp.step(&s, a).unwrap_or_else(|| {
                panic!("{engine}: {} rejects its event #{k}, {a:?}", comp.name())
            });
        }
        let ComponentState::Channel(ch) = s else {
            unreachable!("{engine}: {} is a channel", comp.name())
        };
        assert_eq!(
            ch.adversary().is_some(),
            links.profile(from, to).is_chaotic(),
            "{engine}: {} started in the wrong start state",
            comp.name()
        );
        if let Some(adv) = ch.adversary() {
            seen.dropped += adv.stats.dropped;
            seen.duplicated += adv.stats.duplicated;
            seen.held += adv.stats.held;
        }
    }
}

/// Every schedule `run` produces is an execution of its channels, and
/// the runs between them exercise a drop, a duplicate and a hold. The
/// plan is fixed per channel but traffic is not: a run that decides
/// before any channel reaches its first planned duplicate is checked
/// in full and followed by another run, at most five in all.
fn assert_runs_are_channel_executions(engine: &str, run: impl Fn() -> Vec<Action>) {
    let mut seen = ChannelChaosStats::default();
    for _ in 0..5 {
        assert_channels_accept(engine, &links(), &run(), &mut seen);
        if seen.dropped > 0 && seen.duplicated > 0 && seen.held > 0 {
            return;
        }
    }
    panic!("{engine}: five schedules exercised too little chaos: {seen:?}");
}

/// A clean run's schedule is an execution of its channels started as
/// the paper's FIFO queue: every receive is the front of its queue.
fn assert_fifo_run_is_channel_execution(engine: &str, schedule: &[Action]) {
    assert!(
        schedule
            .iter()
            .any(|a| matches!(a, Action::WireRecv { .. })),
        "{engine}: no channel traffic to check"
    );
    let mut seen = ChannelChaosStats::default();
    assert_channels_accept(engine, &LinkFaults::none(), schedule, &mut seen);
    assert_eq!(seen, ChannelChaosStats::default(), "{engine}");
}

fn threaded_run(links: LinkFaults) -> RuntimeOutcome {
    let pi = Pi::new(3);
    let sys = reliable_paxos_system(pi, &[1, 0, 1], vec![]);
    let cfg = RuntimeConfig::default()
        .with_links(links)
        .with_seed(SEED)
        .with_wire_pacing(Duration::from_micros(20))
        .with_max_events(6_000)
        .stop_when(move |s| all_live_decided(pi, s));
    run_threaded(&sys, &cfg)
}

#[test]
fn realised_chaos_equals_the_plan_threaded() {
    assert_realised_equals_planned("threaded", &threaded_run(links()).chaos);
}

#[test]
fn threaded_chaos_schedule_is_an_execution_of_its_channels() {
    assert_runs_are_channel_executions("threaded", || threaded_run(links()).schedule);
}

#[test]
fn threaded_fifo_schedule_is_an_execution_of_its_channels() {
    let out = threaded_run(LinkFaults::none());
    assert_fifo_run_is_channel_execution("threaded", &out.schedule);
}

fn distributed_run(transport: Transport, links: LinkFaults) -> NetReport {
    let spec = DeploymentSpec::ReliablePaxos {
        n: 3,
        values: vec![1, 0, 1],
    };
    let cfg = NetConfig::new(vec![env!("CARGO_BIN_EXE_afd-node").to_string()], 3)
        .with_deadlines(Duration::from_secs(10), Duration::from_secs(120))
        .with_max_events(6_000)
        .with_seed(SEED)
        .with_links(links)
        .with_transport(transport);
    run_distributed(&spec, &cfg).expect("run")
}

#[test]
fn realised_chaos_equals_the_plan_tcp() {
    assert_realised_equals_planned("tcp", &distributed_run(Transport::Tcp, links()).chaos);
}

#[test]
fn realised_chaos_equals_the_plan_udp() {
    assert_realised_equals_planned("udp", &distributed_run(Transport::Udp, links()).chaos);
}

/// UDP is left out: a datagram the socket loses never reaches its
/// channel, so its `WireSend` is in the schedule but outside the
/// channel's execution.
#[test]
fn tcp_chaos_schedule_is_an_execution_of_its_channels() {
    assert_runs_are_channel_executions("tcp", || distributed_run(Transport::Tcp, links()).schedule);
}

#[test]
fn tcp_fifo_schedule_is_an_execution_of_its_channels() {
    let report = distributed_run(Transport::Tcp, LinkFaults::none());
    assert_fifo_run_is_channel_execution("tcp", &report.schedule);
}

/// The simulator runs the same chaos from the same start state:
/// ReliablePaxos decides under the ADD channels on every seed, with
/// app-level FIFO and consensus intact.
#[test]
fn simulator_runs_chaos_from_the_add_start_state() {
    let pi = Pi::new(3);
    let sys = reliable_paxos_system(pi, &[1, 0, 1], vec![]);
    let start: Vec<_> = sys
        .composition
        .components()
        .iter()
        .zip(sys.component_kinds())
        .map(|(comp, kind)| start_state(comp, kind, &links(), SEED))
        .collect();
    for seed in 1..=10 {
        let opts = RunOptions::default()
            .endpoints_only()
            .with_max_steps(20_000)
            .stop_when(move |_, s: &[Action]| all_live_decided(pi, s));
        let out =
            Runner::new(&sys.composition).run_from(start.clone(), &mut RandomFair::new(seed), opts);
        let schedule = &out.execution.actions;
        assert_eq!(
            out.reason,
            ioa::StopReason::Predicate,
            "seed {seed}: no decision"
        );
        assert_eq!(fifo_violation(schedule), None, "seed {seed}");
        let decided = check_consensus_run(pi, 1, schedule)
            .unwrap_or_else(|v| panic!("seed {seed}: consensus violated: {v:?}"));
        assert!(decided.is_some(), "seed {seed}");
        let dropped: u64 = out
            .execution
            .last_state()
            .iter()
            .filter_map(|s| match s {
                ComponentState::Channel(ch) => Some(ch.adversary()?.stats.dropped),
                _ => None,
            })
            .sum();
        assert!(dropped > 0, "seed {seed}: the adversary dropped nothing");
    }
}

/// The simulator's clean schedule, from every channel's FIFO start
/// state, is an execution of its channels too.
#[test]
fn simulator_fifo_schedule_is_an_execution_of_its_channels() {
    let pi = Pi::new(3);
    let sys = reliable_paxos_system(pi, &[1, 0, 1], vec![]);
    let opts = RunOptions::default()
        .endpoints_only()
        .with_max_steps(20_000)
        .stop_when(move |_, s: &[Action]| all_live_decided(pi, s));
    let out = Runner::new(&sys.composition).run_detailed(&mut RandomFair::new(1), opts);
    assert_eq!(out.reason, ioa::StopReason::Predicate, "no decision");
    assert_fifo_run_is_channel_execution("simulator", &out.execution.actions);
}
