//! Cross-cutting runtime properties of the simulation substrate:
//! Figure 1 signature validation for every system we build, fairness
//! reports of recorded runs, and run-statistics sanity.

use afd_algorithms::bounded_evp::bounded_evp_system;
use afd_algorithms::broadcast::urb_system;
use afd_algorithms::consensus::{all_live_decided, ct_system, paxos_system};
use afd_algorithms::kset::kset_system;
use afd_algorithms::self_impl::self_impl_system;
use afd_core::automata::FdGen;
use afd_core::{Action, FdOutput, Loc, LocSet, Msg, Pi};
use afd_runtime::{
    fifo_violation, run_threaded, LinkFaults, LinkProfile, RuntimeConfig, StopReason,
};
use afd_system::{run_random, run_sim, FaultPattern, RunStats, SimConfig};
use proptest::prelude::*;

fn probe_actions(pi: Pi) -> Vec<Action> {
    let mut v = vec![
        Action::Crash(Loc(0)),
        Action::Propose { at: Loc(0), v: 0 },
        Action::Decide { at: Loc(1), v: 1 },
        Action::Fd {
            at: Loc(0),
            out: FdOutput::Leader(Loc(0)),
        },
        Action::Fd {
            at: Loc(1),
            out: FdOutput::Suspects(LocSet::empty()),
        },
        Action::FdRenamed {
            at: Loc(0),
            out: FdOutput::Leader(Loc(0)),
        },
        Action::Broadcast {
            at: Loc(0),
            payload: 1,
        },
        Action::Deliver {
            at: Loc(1),
            origin: Loc(0),
            payload: 1,
        },
        Action::Vote {
            at: Loc(0),
            yes: true,
        },
        Action::Verdict {
            at: Loc(1),
            commit: true,
        },
    ];
    for i in pi.iter() {
        for j in pi.iter() {
            if i != j {
                v.push(Action::Send {
                    from: i,
                    to: j,
                    msg: Msg::Token(9),
                });
                v.push(Action::Receive {
                    from: i,
                    to: j,
                    msg: Msg::Token(9),
                });
            }
        }
    }
    v
}

#[test]
fn every_system_has_a_legal_figure1_signature() {
    let pi = Pi::new(3);
    let probe = probe_actions(pi);
    paxos_system(pi, &[0, 1, 1], vec![])
        .validate(&probe)
        .unwrap();
    ct_system(pi, &[0, 1, 1], vec![], LocSet::empty(), 0)
        .validate(&probe)
        .unwrap();
    urb_system(pi, vec![(Loc(0), 1)], vec![])
        .validate(&probe)
        .unwrap();
    kset_system(pi, 1, &[1, 2, 3], vec![])
        .validate(&probe)
        .unwrap();
    self_impl_system(pi, FdGen::omega(pi), vec![])
        .validate(&probe)
        .unwrap();
    afd_algorithms::atomic_commit::nbac_system(pi, &[true, true, true], vec![], LocSet::empty(), 0)
        .validate(&probe)
        .unwrap();
    afd_algorithms::query_based::query_consensus_system(pi, &[0, 1, 1], vec![])
        .validate(&probe)
        .unwrap();
}

#[test]
fn consensus_run_statistics_are_sane() {
    let pi = Pi::new(3);
    let sys = paxos_system(pi, &[0, 1, 1], vec![Loc(0)]);
    let out = run_random(
        &sys,
        2,
        SimConfig::default()
            .with_faults(FaultPattern::at(vec![(12, Loc(0))]))
            .with_max_steps(20_000)
            .stop_when(move |s| all_live_decided(pi, s)),
    );
    let st = RunStats::of(out.schedule());
    assert_eq!(st.events, out.steps);
    assert_eq!(st.crashes, 1);
    assert!(
        st.receives <= st.sends,
        "cannot deliver what was never sent"
    );
    assert!(st.fd_outputs > 0, "Ω drives the protocol");
    assert_eq!(st.problem_inputs, 3, "three proposals");
    assert!(st.problem_outputs >= 2, "live locations decide");
    assert!(st.first_decision_at.is_some());
    assert!(st.first_decision_at <= st.last_decision_at);
    assert!(
        st.silent_locations(pi).is_empty(),
        "every location participates"
    );
    assert!(st.message_fraction() > 0.1, "consensus is message-driven");
}

#[test]
fn fairness_gap_is_bounded_under_random_fair_scheduling() {
    let pi = Pi::new(3);
    let sys = self_impl_system(pi, FdGen::omega(pi), vec![]);
    let out = run_sim(
        &sys,
        &mut ioa::RandomFair::new(5).with_max_debt(16),
        SimConfig::default().record_states().with_max_steps(600),
    );
    let rep = out.fairness(&sys);
    // The anti-starvation cap bounds how long an enabled task waits.
    let worst = rep.worst_gap().expect("full states recorded");
    assert!(worst <= 64, "worst gap {worst} exceeds the debt-cap bound");
    // Every always-enabled FD task actually ran.
    for (t, n) in rep.events_per_task.iter().enumerate() {
        let label = sys.label(ioa::TaskId(t));
        if matches!(label, afd_system::Label::Fd(_)) {
            assert!(*n > 0, "FD task {label} starved");
        }
    }
}

#[test]
fn adversarial_scheduling_still_serves_victims() {
    let pi = Pi::new(3);
    let sys = self_impl_system(pi, FdGen::perfect(pi), vec![]);
    // Starve the process tasks (the A_self emitters).
    use ioa::Automaton as _;
    let victims: Vec<usize> = (0..sys.composition.task_count())
        .filter(|&t| matches!(sys.label(ioa::TaskId(t)), afd_system::Label::Proc(_)))
        .collect();
    let out = run_sim(
        &sys,
        &mut ioa::Adversarial::new(victims, 10),
        SimConfig::default().with_max_steps(800),
    );
    let st = RunStats::of(out.schedule());
    assert!(
        st.fd_renamed > 0,
        "starved emitters still emit eventually: {st}"
    );
    assert!(
        st.fd_outputs > st.fd_renamed,
        "emission lags behind the detector"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]
    /// Reliable-FIFO order survives real thread interleavings: under a
    /// random universe size, crash point and link delay, no channel in
    /// a threaded schedule ever reorders, drops, duplicates or invents
    /// a delivery.
    #[test]
    fn threaded_channels_are_reliable_fifo(
        seed in 0u64..1_000_000,
        n in 2usize..5,
        crash_at in 10usize..60,
        delay_us in 0u64..300,
    ) {
        let pi = Pi::new(n);
        let victim = Loc(u8::try_from(n).unwrap() - 1);
        let sys = self_impl_system(pi, FdGen::omega(pi), vec![victim]);
        let cfg = RuntimeConfig::default()
            .with_max_events(400)
            .with_faults(FaultPattern::at(vec![(crash_at, victim)]))
            .with_links(LinkFaults::uniform(LinkProfile::jittered(
                std::time::Duration::from_micros(delay_us),
                std::time::Duration::from_micros(delay_us / 2),
            )))
            .with_seed(seed);
        let out = run_threaded(&sys, &cfg);
        prop_assert!(!out.schedule.is_empty());
        prop_assert_eq!(fifo_violation(&out.schedule), None);
    }
}

#[test]
fn urb_stats_show_quadratic_relay_traffic() {
    let pi = Pi::new(4);
    let sys = urb_system(pi, vec![(Loc(0), 5)], vec![]);
    let out = run_random(&sys, 4, SimConfig::default().with_max_steps(6000));
    let st = RunStats::of(out.schedule());
    // Every process relays once to the n−1 others: n(n−1) sends.
    assert_eq!(st.sends, 12, "{st}");
    assert_eq!(st.receives, 12);
    assert_eq!(st.in_flight(), 0, "run drained the channels");
    assert_eq!(st.problem_outputs, 4, "one delivery per location");
}

/// A crash scripted past `max_events` never fires: the injector waits
/// on the sink's length watch for a threshold the run never reaches,
/// so the commit that fills the budget must wake it, and the watchdog
/// must end the run at that commit. The run goes on a helper thread so
/// that a missed wake fails this test at the timeout instead of
/// hanging the suite.
#[test]
fn budget_stop_releases_a_crash_scripted_past_it() {
    const BUDGET: usize = 200_000;
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let pi = Pi::new(3);
        let sys = bounded_evp_system(pi, vec![Loc(2)]);
        let cfg = RuntimeConfig::default()
            .with_max_events(BUDGET)
            .with_faults(FaultPattern::at(vec![(10_000_000, Loc(2))]))
            .with_wall_timeout(std::time::Duration::from_secs(5));
        let out = run_threaded(&sys, &cfg);
        let _ = tx.send((out.stop, out.schedule.len()));
    });
    let (stop, events) = rx
        .recv_timeout(std::time::Duration::from_secs(20))
        .expect("run_threaded returned");
    assert_eq!(stop, StopReason::MaxEvents);
    assert_eq!(events, BUDGET);
}
