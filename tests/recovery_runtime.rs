//! Crash-recovery acceptance grid for the distributed runtime: a
//! SIGKILLed node process is respawned by the coordinator's
//! `RecoveryPolicy`, rejoins with a bumped incarnation epoch, catches
//! up from the committed schedule prefix, and the run still decides
//! with every online checker green.
//!
//! The grid covers:
//!
//! * kill-then-respawn for Paxos n ∈ {3, 5}: the run decides, the
//!   merged schedule contains the `Crash`/`Recover` pair, and the
//!   recovery QoS (respawn-to-rejoin latency, replay length) is
//!   reported;
//! * killing the *leader's* node: recovery re-elects, and the report
//!   records the post-recovery re-election event index;
//! * `max_respawns` exhaustion degrades to the crash-stop behavior —
//!   the dead replica stays dead and the survivors decide without it;
//! * recovery disabled (the default) leaves the crash-stop pipeline
//!   byte-for-byte untouched: no `Recover` in the alphabet, no
//!   recovery report, and same-seed chaos plans stay identical;
//! * the respawn schedule is a pure function of (seed, node, attempt):
//!   same-seed runs respawn on the same deterministic backoff.
//!
//! Every run spawns the real `afd-node` binary as its node processes.

use std::time::Duration;

use afd_core::{Action, Loc, LocSet, Pi};
use afd_net::coord::{NetConfig, NetFault, NetReport, RecoveryPolicy};
use afd_net::{run_distributed, DeploymentSpec};
use afd_runtime::StopReason;

fn node_cmd() -> Vec<String> {
    vec![env!("CARGO_BIN_EXE_afd-node").to_string()]
}

fn base_cfg(nodes: u32) -> NetConfig {
    NetConfig::new(node_cmd(), nodes)
        .with_deadlines(Duration::from_secs(10), Duration::from_secs(120))
}

fn assert_all_checks(report: &NetReport) {
    for c in &report.checks {
        assert!(
            c.verdict.is_ok(),
            "check {} failed: {:?}",
            c.name,
            c.verdict
        );
    }
}

/// The locations that are down at the *end* of the schedule: crashed
/// and not subsequently recovered. Unlike the crash-stop variant in
/// `distributed_runtime.rs`, a recovered location is live again and
/// owes a decision.
fn down_at_end(schedule: &[Action]) -> LocSet {
    let mut down = LocSet::empty();
    for a in schedule {
        if let Some(l) = a.crash_loc() {
            down.insert(l);
        } else if let Some(l) = a.recover_loc() {
            down.remove(l);
        }
    }
    down
}

/// Every location live at the end of the run decided, on one value.
fn assert_decided_recovery(report: &NetReport, pi: Pi) {
    let down = down_at_end(&report.schedule);
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
        if !down.contains(l) {
            assert!(
                decisions.iter().any(|&(at, _)| at == l),
                "live location {l:?} never decided (decisions: {decisions:?})"
            );
        }
    }
}

/// Kill-then-respawn over Paxos n ∈ {3, 5}: the SIGKILLed node comes
/// back under the recovery policy, rejoins with epoch 1, replays the
/// committed prefix, and the run decides with all checkers green —
/// including the recovered replica itself.
#[test]
fn paxos_kill_then_respawn_decides() {
    for (n, seed, kill_at) in [(3u8, 11u64, 15usize), (5, 13, 25)] {
        let spec = DeploymentSpec::Paxos {
            n,
            values: (0..u64::from(n)).map(|i| i % 2).collect(),
        };
        let victim = Loc(n - 1);
        let cfg = base_cfg(u32::from(n))
            .with_max_events(10_000)
            .with_seed(seed)
            .with_fault(NetFault::kill(kill_at, victim))
            .with_recovery(RecoveryPolicy::default());
        let report = run_distributed(&spec, &cfg).expect("run");
        assert_all_checks(&report);
        assert_eq!(
            report.stop,
            Some(StopReason::Predicate),
            "n={n}: stopped by all-live-decided, not the budget (events={})",
            report.events
        );
        // The kill and the rejoin are both visible in the schedule.
        assert!(report.schedule.contains(&Action::Crash(victim)));
        assert!(
            report.schedule.contains(&Action::Recover(victim)),
            "n={n}: recovered location never rejoined"
        );
        // The recovered replica is live at the end and decided too.
        assert!(down_at_end(&report.schedule).is_empty());
        assert_decided_recovery(&report, Pi::new(usize::from(n)));
        // Recovery QoS: one incarnation, epoch 1, rejoined
        // within budget, with a nonempty replay.
        let rec = report.recovery.as_ref().expect("recovery report");
        assert!(rec.all_rejoined());
        assert_eq!(rec.incarnations.len(), 1, "one kill ⇒ one incarnation");
        let inc = &rec.incarnations[0];
        assert_eq!(inc.epoch, 1);
        assert_eq!(inc.locations, vec![victim]);
        assert!(inc.rejoin_ok);
        assert!(
            inc.respawn_to_rejoin()
                .is_some_and(|d| d < Duration::from_secs(10)),
            "rejoin latency missing or absurd: {inc:?}"
        );
        assert!(
            inc.replay_len > 0,
            "rejoin should replay a committed prefix"
        );
        let victim_node = report
            .nodes
            .iter()
            .find(|s| s.locations.contains(&victim))
            .expect("victim's node");
        assert_eq!(victim_node.respawns, 1);
    }
}

/// Killing the node that hosts the current Ω leader: the survivors
/// re-elect while it is down, the node rejoins, and the report records
/// the first post-recovery leader output over a live location.
#[test]
fn leader_kill_recovery_reelects() {
    let spec = DeploymentSpec::Paxos {
        n: 3,
        values: vec![1, 0, 1],
    };
    // Ω's canonical leader is the lowest live location, so Loc(0) is
    // the leader when the fault fires.
    let cfg = base_cfg(3)
        .with_max_events(10_000)
        .with_seed(29)
        .with_fault(NetFault::kill(20, Loc(0)))
        .with_recovery(RecoveryPolicy::default());
    let report = run_distributed(&spec, &cfg).expect("run");
    assert_all_checks(&report);
    assert_eq!(report.stop, Some(StopReason::Predicate));
    assert_decided_recovery(&report, Pi::new(3));
    let rec = report.recovery.as_ref().expect("recovery report");
    assert!(rec.all_rejoined());
    let inc = &rec.incarnations[0];
    // A leader output over a live location lands after the rejoin —
    // Ω conformance is still being checked online, so the detector
    // keeps electing until the stop predicate fires. `reelect_events`
    // is the latency from the `Recover` to that output, in events.
    let lat = inc
        .reelect_events
        .expect("post-recovery re-election latency");
    let abs = inc.recover_seq.expect("recover seq") + lat;
    assert!(
        abs < report.schedule.len(),
        "re-election latency {lat} runs past the schedule"
    );
    assert!(
        matches!(
            report.schedule[abs].fd_output(),
            Some((_, afd_core::FdOutput::Leader(_)))
        ),
        "recover_seq + reelect_events should land on a leader output, got {:?}",
        report.schedule[abs]
    );
    // And the schedule actually shows a leader distinct from Loc(0)
    // while it was down: the survivors did not stall on a dead leader.
    let crash_at = report
        .schedule
        .iter()
        .position(|a| *a == Action::Crash(Loc(0)))
        .expect("crash in schedule");
    let recover_at = report
        .schedule
        .iter()
        .position(|a| *a == Action::Recover(Loc(0)))
        .expect("recover in schedule");
    assert!(crash_at < recover_at);
    let reelected = report.schedule[crash_at..recover_at].iter().any(|a| {
        matches!(
            a.fd_output(),
            Some((_, afd_core::FdOutput::Leader(l))) if l != Loc(0)
        )
    });
    assert!(reelected, "no interim leader elected while Loc(0) was down");
}

/// With `max_respawns: 0` the policy is exhausted immediately: the
/// kill degrades to the permanent crash-stop behavior — no respawn,
/// no `Recover`, survivors decide without the dead replica.
#[test]
fn max_respawns_exhaustion_degrades_to_permanent_crash() {
    let spec = DeploymentSpec::Paxos {
        n: 3,
        values: vec![0, 1, 1],
    };
    let policy = RecoveryPolicy {
        max_respawns: 0,
        ..RecoveryPolicy::default()
    };
    let cfg = base_cfg(3)
        .with_max_events(4_000)
        .with_seed(11)
        .with_fault(NetFault::kill(15, Loc(2)))
        .with_recovery(policy);
    let report = run_distributed(&spec, &cfg).expect("run");
    assert_all_checks(&report);
    assert_eq!(report.stop, Some(StopReason::Predicate));
    assert!(report.schedule.contains(&Action::Crash(Loc(2))));
    assert!(
        !report.schedule.iter().any(|a| a.is_recover()),
        "an exhausted policy must not rejoin anyone"
    );
    assert_eq!(down_at_end(&report.schedule), LocSet::singleton(Loc(2)));
    assert_decided_recovery(&report, Pi::new(3));
    let rec = report.recovery.as_ref().expect("recovery report");
    assert!(rec.incarnations.is_empty(), "no respawn was budgeted");
    assert!(report.nodes.iter().all(|s| s.respawns == 0));
}

/// Recovery disabled (the default) leaves the crash-stop pipeline
/// untouched: no recovery report, no respawns, no `Recover` actions,
/// and the run is indistinguishable from the pre-recovery runtime —
/// including same-seed chaos-plan determinism.
#[test]
fn recovery_off_is_byte_identical_to_crash_stop() {
    let spec = DeploymentSpec::Paxos {
        n: 3,
        values: vec![0, 1, 1],
    };
    let run = || {
        let cfg = base_cfg(3)
            .with_max_events(4_000)
            .with_seed(11)
            .with_fault(NetFault::kill(15, Loc(2)));
        run_distributed(&spec, &cfg).expect("run")
    };
    let a = run();
    let b = run();
    for r in [&a, &b] {
        assert!(r.recovery.is_none(), "no policy ⇒ no recovery report");
        assert!(r.nodes.iter().all(|s| s.respawns == 0));
        assert!(!r.schedule.iter().any(|a| a.is_recover()));
        assert_all_checks(r);
        assert_eq!(r.stop, Some(StopReason::Predicate));
    }
    assert_eq!(
        a.chaos_plan, b.chaos_plan,
        "same seed ⇒ identical plan, with or without the recovery plane"
    );
}

/// The respawn schedule is a pure function of (seed, node, attempt):
/// deterministic doubling backoff with seeded jitter, capped at
/// `max_delay`, identical across policy instances — so same-seed runs
/// respawn on the same schedule.
#[test]
fn respawn_backoff_is_deterministic_and_bounded() {
    let p = RecoveryPolicy::default();
    let q = RecoveryPolicy::default();
    for seed in [0u64, 11, 99, u64::MAX] {
        for node in 0..4u32 {
            for attempt in 0..12u32 {
                let d = p.delay_for(seed, node, attempt);
                assert_eq!(
                    d,
                    q.delay_for(seed, node, attempt),
                    "delay must be a pure function of (seed, node, attempt)"
                );
                // Base doubles up to the cap; jitter adds at most 25%.
                assert!(d >= p.respawn_delay);
                let ceil = p.max_delay + p.max_delay / 4;
                assert!(d <= ceil, "delay {d:?} exceeds jittered cap {ceil:?}");
            }
        }
    }
    // Different seeds actually move the jitter (not a constant).
    let spread: std::collections::BTreeSet<Duration> =
        (0..32u64).map(|s| p.delay_for(s, 1, 3)).collect();
    assert!(spread.len() > 1, "jitter is degenerate across seeds");
    // Exact values pin the jitter generator itself, not just its bounds.
    for (seed, node, attempt, nanos) in [
        (0u64, 0u32, 0u32, 55_261_230u64),
        (11, 2, 1, 103_808_593),
        (99, 3, 4, 808_007_812),
        (u64::MAX, 1, 2, 244_580_078),
    ] {
        assert_eq!(
            p.delay_for(seed, node, attempt),
            Duration::from_nanos(nanos),
            "delay_for({seed}, {node}, {attempt})"
        );
    }
}
