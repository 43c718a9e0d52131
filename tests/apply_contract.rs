//! The `Automaton::apply` contract, checked on every automaton of the
//! system model: a refused action leaves the state exactly as it was,
//! inputs and enabled actions are accepted, an action outside the
//! signature is refused, and `step` is `apply` on a copy.
//!
//! States come from seeded random walks. At every visited state each
//! enabled action is offered, and so is every action of a fixed
//! universe over `Loc(0..=3)` with `|Π| = 3`: disabled outputs, inputs,
//! and actions foreign to the automaton (including a location outside
//! Π). An implementation that writes before one of its guards fails
//! here.
//!
//! Each composition also has its participants index checked against a
//! fresh classify scan over the same universe, and the route-key
//! contract on its components: actions with equal
//! `Action::route_key` are classified the same by every component.

use std::collections::HashMap;

use afd_algorithms::consensus::{paxos_system, PaxosOmega};
use afd_algorithms::query_based::ParticipantFromConsensus;
use afd_algorithms::reliable::reliable_paxos_system;
use afd_core::automata::{FdBehavior, FdGen};
use afd_core::problems::atomic_commit::AtomicCommitSolver;
use afd_core::problems::consensus::ConsensusSolver;
use afd_core::problems::kset::KSetSolver;
use afd_core::problems::leader_election::LeaderElectionSolver;
use afd_core::{Action, FdOutput, Frame, Loc, LocSet, Msg, Pi};
use afd_runtime::{start_state, LinkFaults};
use afd_system::{
    Alphabet, Channel, ChannelChaos, ChannelState, Component, ComponentState, CrashAdversary, Env,
    LinkProfile, ProcessAutomaton, SplitMix64, SystemBuilder,
};
use afd_tree::{random_t_omega, FdSeq, TaggedTree};
use ioa::{ActionClass, Automaton, Composition};

const WALKS: u64 = 6;
const DEPTH: usize = 40;

fn pi() -> Pi {
    Pi::new(3)
}

/// Every action shape of the model over `Loc(0..=3)`; `Loc(3)` is
/// outside [`pi`].
fn universe() -> Vec<Action> {
    let locs = [Loc(0), Loc(1), Loc(2), Loc(3)];
    let msgs = [Msg::Token(1), Msg::Token(2), Msg::DecideMsg { value: 1 }];
    let frames = [
        Frame::Data {
            seq: 0,
            msg: Msg::Token(1),
        },
        Frame::Ack { cum: 1 },
    ];
    let outs = [
        FdOutput::Leader(Loc(0)),
        FdOutput::Leader(Loc(1)),
        FdOutput::Suspects(LocSet::empty()),
        FdOutput::Suspects(LocSet::singleton(Loc(2))),
        FdOutput::Quorum(pi().all()),
    ];
    let mut u = Vec::new();
    for at in locs {
        u.extend([
            Action::Crash(at),
            Action::Recover(at),
            Action::Query { at },
            Action::Internal { at, tag: 0 },
            Action::Broadcast { at, payload: 7 },
            Action::Deliver {
                at,
                origin: Loc(0),
                payload: 7,
            },
        ]);
        for v in [0, 1] {
            u.extend([
                Action::Propose { at, v },
                Action::Decide { at, v },
                Action::ProposeK { at, v },
                Action::DecideK { at, v },
                Action::Elect {
                    at,
                    leader: Loc(v as u8),
                },
            ]);
        }
        for b in [false, true] {
            u.extend([
                Action::Vote { at, yes: b },
                Action::Verdict { at, commit: b },
            ]);
        }
        for out in outs {
            u.extend([
                Action::Fd { at, out },
                Action::FdRenamed { at, out },
                Action::QueryReply { at, out },
            ]);
        }
        for to in locs.into_iter().filter(|&to| to != at) {
            for msg in msgs {
                u.push(Action::Send { from: at, to, msg });
                u.push(Action::Receive { from: at, to, msg });
            }
            for frame in frames {
                u.push(Action::WireSend {
                    from: at,
                    to,
                    frame,
                });
                u.push(Action::WireRecv {
                    from: at,
                    to,
                    frame,
                });
            }
        }
    }
    u
}

/// Offer `a` at `s` and check the contract; whether it was accepted.
fn offer<M: Automaton<Action = Action>>(m: &M, s: &M::State, a: &Action) -> bool {
    let mut t = s.clone();
    let accepted = m.apply(&mut t, a);
    if accepted {
        assert_eq!(
            m.step(s, a).as_ref(),
            Some(&t),
            "{}: step ≠ apply",
            m.name()
        );
    } else {
        assert_eq!(&t, s, "{}: refused {a:?} but changed the state", m.name());
        assert_eq!(m.step(s, a), None, "{}: step ≠ apply", m.name());
    }
    match m.classify(a) {
        Some(ActionClass::Input) => assert!(accepted, "{}: refused input {a:?}", m.name()),
        None => assert!(!accepted, "{}: accepted foreign {a:?}", m.name()),
        Some(_) => {}
    }
    accepted
}

/// Random walks from `start`, offering every enabled action and every
/// action of [`universe`] at each visited state. Panics on a contract
/// breach, or if the walks never see both an acceptance and a refusal.
fn check_apply_contract<M: Automaton<Action = Action>>(m: &M, start: &M::State, seed: u64) {
    let universe = universe();
    let inputs: Vec<Action> = universe
        .iter()
        .filter(|a| m.classify(a) == Some(ActionClass::Input))
        .copied()
        .collect();
    let (mut accepted, mut refused) = (0usize, 0usize);
    for walk in 0..WALKS {
        let mut rng = SplitMix64::new(seed ^ (walk << 32));
        let mut s = start.clone();
        for _ in 0..DEPTH {
            let enabled: Vec<Action> = m.enabled_actions(&s).into_iter().map(|(_, a)| a).collect();
            for a in &enabled {
                assert!(offer(m, &s, a), "{}: refused enabled {a:?}", m.name());
            }
            for a in &universe {
                if offer(m, &s, a) {
                    accepted += 1;
                } else {
                    refused += 1;
                }
            }
            // Mostly follow enabled actions; sometimes inject an input.
            let pool = if enabled.is_empty() || rng.below(4) == 0 {
                &inputs
            } else {
                &enabled
            };
            if pool.is_empty() {
                break;
            }
            let next = pool[rng.below(pool.len() as u64) as usize];
            assert!(m.apply(&mut s, &next), "{}: walk step {next:?}", m.name());
        }
    }
    assert!(
        accepted > 0 && refused > 0,
        "{}: the walks saw {accepted} acceptances and {refused} refusals",
        m.name()
    );
}

fn check_initial<M: Automaton<Action = Action>>(m: &M, seed: u64) {
    check_apply_contract(m, &m.initial_state(), seed);
}

/// `m`'s participants index (controller, then the other participants)
/// against a fresh classify scan of every action of [`universe`], once
/// filling the index and once reading it; and equal route keys classify
/// the same on every component.
fn check_participants_index<P: Automaton<Action = Action>>(m: &Composition<Component<P>>) {
    let mut by_key: HashMap<u64, (Action, Vec<Option<ActionClass>>)> = HashMap::new();
    for a in &universe() {
        let classes: Vec<_> = m.components().iter().map(|c| c.classify(a)).collect();
        let controller = classes
            .iter()
            .position(|c| c.is_some_and(ActionClass::is_locally_controlled));
        let inputs: Vec<usize> = (0..classes.len())
            .filter(|&ci| Some(ci) != controller && classes[ci].is_some())
            .collect();
        for _ in 0..2 {
            assert_eq!(m.participants(a), (controller, inputs.clone()), "{a:?}");
            assert_eq!(m.controller(a), controller, "{a:?}");
        }
        let (first, seen) = by_key
            .entry(a.route_key())
            .or_insert_with(|| (*a, classes.clone()));
        assert_eq!(seen, &classes, "{a:?} and {first:?} share a route key");
    }
}

fn chaotic() -> LinkProfile {
    LinkProfile::lossy(0.3).with_dup(0.2).with_reorder(3)
}

#[test]
fn composition_of_a_system() {
    let sys = paxos_system(pi(), &[0, 1, 1], vec![Loc(2)]);
    check_participants_index(&sys.composition);
    check_initial(&sys.composition, 1);
    check_participants_index(&sys.composition);
}

#[test]
fn composition_with_channels_in_their_add_state() {
    let sys = reliable_paxos_system(pi(), &[1, 0, 1], vec![Loc(0)]);
    let links = LinkFaults::uniform(chaotic());
    let start: Vec<_> = sys
        .composition
        .components()
        .iter()
        .zip(sys.component_kinds())
        .map(|(c, kind)| start_state(c, kind, &links, 5))
        .collect();
    assert!(start
        .iter()
        .any(|s| matches!(s, ComponentState::Channel(c) if c.adversary().is_some())));
    check_apply_contract(&sys.composition, &start, 2);
    check_participants_index(&sys.composition);
}

#[test]
fn tagged_tree() {
    let pi = pi();
    let tree_system = |seq: &FdSeq| {
        let procs = pi
            .iter()
            .map(|i| ProcessAutomaton::new(i, PaxosOmega::new(pi)))
            .collect();
        SystemBuilder::new(pi, procs)
            .with_env(Env::consensus(pi))
            .with_crashes(seq.crash_script())
            .build()
    };
    let seq = random_t_omega(pi, 1, 7);
    let sys = tree_system(&seq);
    check_initial(&TaggedTree::new(&sys, seq), 70);
    // An FD output no component takes (at a location outside Π) is
    // still the FD edge's output: the tree enables and accepts it.
    let orphan = FdSeq::new(
        vec![Action::Fd {
            at: Loc(3),
            out: FdOutput::Leader(Loc(0)),
        }],
        pi.iter()
            .map(|at| Action::Fd {
                at,
                out: FdOutput::Leader(Loc(0)),
            })
            .collect(),
    );
    let sys = tree_system(&orphan);
    check_initial(&TaggedTree::new(&sys, orphan), 71);
}

#[test]
fn channel() {
    check_initial(&Channel::new(Loc(0), Loc(1), Alphabet::Msg), 3);
}

#[test]
fn wire_channel() {
    check_initial(&Channel::new(Loc(1), Loc(0), Alphabet::Wire), 4);
}

#[test]
fn env() {
    let pi = pi();
    for (k, env) in [
        Env::None,
        Env::consensus(pi),
        Env::consensus_with_inputs(pi, &[0, 1, 1]),
        Env::consensus_values(pi, &[1, 0, 1]),
        Env::KSet {
            pi,
            values: vec![0, 1, 0],
        },
        Env::Broadcast {
            script: vec![(Loc(0), 7), (Loc(1), 7), (Loc(2), 8)],
        },
        Env::Votes {
            pi,
            votes: vec![true, false, true],
        },
    ]
    .into_iter()
    .enumerate()
    {
        check_initial(&env, 10 + k as u64);
    }
}

#[test]
fn process_automaton() {
    check_initial(&ProcessAutomaton::new(Loc(0), PaxosOmega::new(pi())), 5);
}

#[test]
fn crash_adversary() {
    check_initial(&CrashAdversary::new(vec![Loc(1), Loc(0)]), 6);
}

/// Every arm of `Component`, with the channel over both alphabets and
/// also started in its ADD state.
#[test]
fn component() {
    let pi = pi();
    let process = ProcessAutomaton::new(Loc(1), PaxosOmega::new(pi));
    let arms = [
        Component::Process(process),
        Component::Channel(Channel::new(Loc(0), Loc(2), Alphabet::Msg)),
        Component::Channel(Channel::new(Loc(2), Loc(0), Alphabet::Wire)),
        Component::Crash(CrashAdversary::new(vec![Loc(2)])),
        Component::Env(Env::consensus(pi)),
        Component::Fd(FdGen::omega(pi)),
    ];
    for (k, c) in arms.iter().enumerate() {
        check_initial(c, 20 + k as u64);
    }
    for (k, c) in arms[1..3].iter().enumerate() {
        let Component::Channel(ch) = c else {
            unreachable!()
        };
        let add = ChannelState::add(ChannelChaos::new(7, ch.from, ch.to, chaotic()));
        check_apply_contract(c, &ComponentState::Channel(add), 30 + k as u64);
    }
}

#[test]
fn fd_gen() {
    let pi = pi();
    for (k, behavior) in [
        FdBehavior::Omega,
        FdBehavior::OmegaUnstable { flips: 2 },
        FdBehavior::Perfect,
        FdBehavior::EvPerfectNoisy {
            lie_set: LocSet::singleton(Loc(1)),
            lie_count: 2,
        },
        FdBehavior::Sigma,
        FdBehavior::AntiOmega,
        FdBehavior::OmegaK { k: 2 },
        FdBehavior::PsiK { k: 2 },
        FdBehavior::CheatingMarabout {
            faulty: LocSet::singleton(Loc(2)),
        },
        FdBehavior::Scripted {
            script: vec![
                (Loc(0), FdOutput::Leader(Loc(1))),
                (Loc(2), FdOutput::Leader(Loc(0))),
                (Loc(1), FdOutput::Leader(Loc(1))),
            ],
            cycle_from: Some(1),
        },
        FdBehavior::Participant,
    ]
    .into_iter()
    .enumerate()
    {
        check_initial(&FdGen::new(pi, behavior), 40 + k as u64);
    }
}

#[test]
fn consensus_solver() {
    check_initial(&ConsensusSolver::new(pi()), 60);
}

#[test]
fn kset_solver() {
    check_initial(&KSetSolver::new(pi()), 61);
}

#[test]
fn leader_election_solver() {
    check_initial(&LeaderElectionSolver::new(pi()), 62);
}

#[test]
fn atomic_commit_solver() {
    check_initial(&AtomicCommitSolver::new(pi()), 63);
}

#[test]
fn participant_from_consensus() {
    check_initial(&ParticipantFromConsensus::new(pi()), 64);
}
