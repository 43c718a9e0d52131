//! Stepping in place changes nothing but what is kept: a run recorded
//! with every state (`StatePolicy::Full`, which clones each state
//! before applying the next event) and the same run recorded with its
//! endpoints only (which applies each event to the final state in
//! place) have equal schedules, equal start states and equal final
//! states — for the simulator (`run_sim`) and for `ioa::Runner`.

use afd_algorithms::consensus::{all_live_decided, paxos_system};
use afd_algorithms::reliable::reliable_paxos_system;
use afd_algorithms::{bounded_evp_system, self_impl_system};
use afd_core::automata::FdGen;
use afd_core::{Action, Loc, Pi};
use afd_runtime::{start_state, LinkFaults};
use afd_system::{
    run_random, ComponentState, FaultPattern, LinkProfile, SimConfig, SimOutcome, System,
};
use ioa::{Automaton, Execution, RandomFair, RunOptions, Runner, StatePolicy};

/// Both recordings agree on everything an endpoints recording keeps,
/// and the full one is a legal execution of `m`.
fn assert_same_run<M: Automaton>(what: &str, m: &M, full: &Execution<M>, ends: &Execution<M>) {
    assert_eq!(full.policy, StatePolicy::Full, "{what}");
    assert_eq!(ends.policy, StatePolicy::Endpoints, "{what}");
    assert!(!full.is_empty(), "{what}: empty run");
    assert_eq!(full.actions, ends.actions, "{what}: schedules differ");
    assert_eq!(full.states.len(), full.len() + 1, "{what}");
    assert_eq!(ends.states.len(), 2, "{what}");
    assert_eq!(
        full.states[0], ends.states[0],
        "{what}: start states differ"
    );
    assert_eq!(
        full.last_state(),
        ends.last_state(),
        "{what}: final states differ"
    );
    assert!(full.is_legal(m), "{what}: full recording is not legal");
}

fn sim_both<P>(
    what: &str,
    sys: &System<P>,
    seed: u64,
    config: impl Fn() -> SimConfig<P>,
) -> SimOutcome<P>
where
    P: Automaton<Action = Action>,
{
    let full = run_random(sys, seed, config().record_states());
    let ends = run_random(sys, seed, config());
    assert_same_run(what, &sys.composition, &full.execution, &ends.execution);
    assert_eq!(
        (full.steps, full.quiescent),
        (ends.steps, ends.quiescent),
        "{what}"
    );
    ends
}

#[test]
fn self_impl_n8_with_a_crash() {
    let pi = Pi::new(8);
    let sys = self_impl_system(pi, FdGen::omega(pi), vec![Loc(5)]);
    let out = sim_both("A_self(Ω) n=8", &sys, 41, || {
        SimConfig::default()
            .with_faults(FaultPattern::at(vec![(600, Loc(5))]))
            .with_max_steps(1_500)
    });
    assert_eq!(out.schedule()[600], Action::Crash(Loc(5)));
}

#[test]
fn bounded_evp() {
    let pi = Pi::new(3);
    let sys = bounded_evp_system(pi, vec![]);
    sim_both("bounded ◇P n=3", &sys, 42, || {
        SimConfig::default().with_max_steps(3_000)
    });
}

#[test]
fn paxos_to_decision() {
    let pi = Pi::new(5);
    let sys = paxos_system(pi, &[0, 1, 1, 0, 1], vec![]);
    for seed in 0..4 {
        let out = sim_both("paxos n=5", &sys, seed, || {
            SimConfig::default()
                .with_max_steps(20_000)
                .stop_when(move |sched| all_live_decided(pi, sched))
        });
        assert!(all_live_decided(pi, out.schedule()), "seed {seed}");
    }
}

#[test]
fn wire_channels() {
    let pi = Pi::new(3);
    let sys = reliable_paxos_system(pi, &[1, 0, 1], vec![Loc(2)]);
    sim_both("reliable paxos n=3", &sys, 43, || {
        SimConfig::default()
            .with_faults(FaultPattern::at(vec![(200, Loc(2))]))
            .with_max_steps(2_000)
    });
}

#[test]
fn runner_from_the_add_start_state() {
    let pi = Pi::new(3);
    let sys = reliable_paxos_system(pi, &[1, 0, 1], vec![]);
    let links = LinkFaults::uniform(LinkProfile::lossy(0.3).with_dup(0.2).with_reorder(3));
    let start: Vec<_> = sys
        .composition
        .components()
        .iter()
        .zip(sys.component_kinds())
        .map(|(comp, kind)| start_state(comp, kind, &links, 7))
        .collect();
    let opts = || RunOptions::default().with_max_steps(3_000);
    let runner = Runner::new(&sys.composition);
    let full = runner.run_from(start.clone(), &mut RandomFair::new(44), opts());
    let ends = runner.run_from(start, &mut RandomFair::new(44), opts().endpoints_only());
    assert_eq!(full.reason, ends.reason);
    assert_same_run(
        "reliable paxos n=3 from ADD",
        &sys.composition,
        &full.execution,
        &ends.execution,
    );
    let dropped: u64 = ends
        .execution
        .last_state()
        .iter()
        .filter_map(|s| match s {
            ComponentState::Channel(ch) => Some(ch.adversary()?.stats.dropped),
            _ => None,
        })
        .sum();
    assert!(dropped > 0, "the adversary dropped nothing");
}
