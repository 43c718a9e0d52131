//! §10.1 — query-based failure detectors leak more than crashes.
//!
//! Consensus has **no representative AFD** (Theorem 21), yet it *does*
//! have a representative **query-based** detector: the *participant*
//! detector, which replies to every query with one fixed location ID
//! that is guaranteed to have queried already. This module makes both
//! directions of §10.1 executable:
//!
//! * [`QueryConsensus`] solves consensus *using* the participant
//!   detector: each process floods its proposal, queries only after
//!   its flood has fully left its outbox, and decides the proposal of
//!   the replied ID (which must therefore already be in flight to
//!   everyone).
//! * [`ParticipantFromConsensus`] solves the participant detector
//!   *using* a consensus black box: each query proposes the querier's
//!   ID; replies carry the decided ID.
//!
//! The point of the contrast: the participant detector's inputs include
//! `Query` events from the processes — information about *non-crash*
//! events — which is exactly what crash exclusivity forbids AFDs from
//! ever seeing.

use std::collections::BTreeMap;

use afd_core::automata::{FdBehavior, FdGen};
use afd_core::problems::consensus::ConsensusSolver;
use afd_core::{Action, FdOutput, Loc, LocSet, Msg, Pi, Val};
use afd_system::{Env, LocalBehavior, ProcessAutomaton, System, SystemBuilder};
use ioa::{ActionClass, Automaton, TaskId};

use crate::common::broadcast;

/// Consensus from the participant detector (§10.1, first direction).
#[derive(Debug, Clone, Copy)]
pub struct QueryConsensus {
    /// The universe.
    pub pi: Pi,
}

/// Per-location state of [`QueryConsensus`].
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct QueryConsensusState {
    /// Own proposal, once received.
    pub proposal: Option<Val>,
    /// Proposals seen (own + flooded).
    pub seen: BTreeMap<Loc, Val>,
    /// Whether the flood has been queued.
    pub flooded: bool,
    /// Whether the query has been emitted.
    pub queried: bool,
    /// The participant ID replied by the detector.
    pub reply: Option<Loc>,
    /// Whether `decide` has been emitted.
    pub announced: bool,
    /// Outgoing messages.
    pub outbox: Vec<(Loc, Msg)>,
}

impl QueryConsensus {
    /// A new behavior over `pi`.
    #[must_use]
    pub fn new(pi: Pi) -> Self {
        QueryConsensus { pi }
    }
}

impl LocalBehavior for QueryConsensus {
    type State = QueryConsensusState;

    fn proto_name(&self) -> String {
        "query-consensus".into()
    }

    fn init(&self, _i: Loc) -> QueryConsensusState {
        QueryConsensusState::default()
    }

    fn is_input(&self, i: Loc, a: &Action) -> bool {
        matches!(a, Action::Receive { to, .. } if *to == i)
            || matches!(a, Action::Propose { at, .. } if *at == i)
            || matches!(a, Action::QueryReply { at, .. } if *at == i)
    }

    fn is_output(&self, i: Loc, a: &Action) -> bool {
        matches!(a, Action::Send { from, .. } if *from == i)
            || matches!(a, Action::Decide { at, .. } if *at == i)
            || matches!(a, Action::Query { at } if *at == i)
    }

    fn on_input(&self, i: Loc, s: &mut QueryConsensusState, a: &Action) {
        match a {
            Action::Propose { v, .. } if s.proposal.is_none() => {
                s.proposal = Some(*v);
                s.seen.insert(i, *v);
                broadcast(self.pi, i, &mut s.outbox, Msg::Token(*v));
                s.flooded = true;
            }
            Action::Receive {
                from,
                msg: Msg::Token(v),
                ..
            } => {
                s.seen.insert(*from, *v);
            }
            Action::QueryReply {
                out: FdOutput::Leader(l),
                ..
            } => {
                s.reply = Some(*l);
            }
            _ => {}
        }
    }

    fn output(&self, i: Loc, s: &QueryConsensusState) -> Option<Action> {
        if let Some(&(to, msg)) = s.outbox.first() {
            return Some(Action::Send { from: i, to, msg });
        }
        // Query only after the flood has fully left the outbox: the
        // §10.1 invariant "the replied ID's proposal is already on its
        // way to everyone" depends on this ordering.
        if s.flooded && !s.queried {
            return Some(Action::Query { at: i });
        }
        match (s.reply, s.announced) {
            (Some(l), false) => s.seen.get(&l).map(|&v| Action::Decide { at: i, v }),
            _ => None,
        }
    }

    fn on_output(&self, _i: Loc, s: &mut QueryConsensusState, a: &Action) {
        match a {
            Action::Send { .. } => {
                s.outbox.remove(0);
            }
            Action::Query { .. } => s.queried = true,
            Action::Decide { .. } => s.announced = true,
            _ => {}
        }
    }
}

/// Build the §10.1 system: processes + channels + crash automaton +
/// `E_C` + the participant detector.
#[must_use]
pub fn query_consensus_system(
    pi: Pi,
    inputs: &[Val],
    crashes: Vec<Loc>,
) -> System<ProcessAutomaton<QueryConsensus>> {
    let procs = pi
        .iter()
        .map(|i| ProcessAutomaton::new(i, QueryConsensus::new(pi)))
        .collect();
    SystemBuilder::new(pi, procs)
        .with_fd(FdGen::new(pi, FdBehavior::Participant))
        .with_env(Env::consensus_with_inputs(pi, inputs))
        .with_crashes(crashes)
        .with_label("query-consensus system")
        .build()
}

/// The participant detector implemented from a consensus black box
/// (§10.1, second direction): a centralized automaton embedding
/// [`ConsensusSolver`]; each `Query{at}` proposes `at`'s ID, and the
/// replies carry the decided ID — necessarily a prior querier.
#[derive(Debug, Clone, Copy)]
pub struct ParticipantFromConsensus {
    /// The universe.
    pub pi: Pi,
    solver: ConsensusSolver,
}

/// State of [`ParticipantFromConsensus`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PfcState {
    /// Embedded consensus instance.
    pub consensus: afd_core::problems::consensus::ConsensusSolverState,
    /// Pending (unanswered) queries.
    pub pending: LocSet,
    /// Crashed locations.
    pub crashed: LocSet,
}

impl PfcState {
    /// The querier the embedded consensus decided, if any: the black
    /// box decides a *proposed* value, i.e. a querier ID.
    fn decided_querier(&self) -> Option<Loc> {
        self.consensus
            .chosen
            .and_then(|v| u8::try_from(v).ok())
            .map(Loc)
    }
}

impl ParticipantFromConsensus {
    /// A new implementation over `pi`.
    #[must_use]
    pub fn new(pi: Pi) -> Self {
        ParticipantFromConsensus {
            pi,
            solver: ConsensusSolver::new(pi),
        }
    }
}

impl Automaton for ParticipantFromConsensus {
    type Action = Action;
    type State = PfcState;

    fn name(&self) -> String {
        "participant-from-consensus".into()
    }

    fn initial_state(&self) -> PfcState {
        PfcState {
            consensus: self.solver.initial_state(),
            pending: LocSet::empty(),
            crashed: LocSet::empty(),
        }
    }

    fn classify(&self, a: &Action) -> Option<ActionClass> {
        match a {
            Action::Crash(_) | Action::Query { .. } => Some(ActionClass::Input),
            Action::QueryReply { .. } => Some(ActionClass::Output),
            _ => None,
        }
    }

    fn task_count(&self) -> usize {
        self.pi.len()
    }

    fn enabled(&self, s: &PfcState, t: TaskId) -> Option<Action> {
        let i = Loc(u8::try_from(t.0).ok()?);
        if !s.pending.contains(i) || s.crashed.contains(i) {
            return None;
        }
        Some(Action::QueryReply {
            at: i,
            out: FdOutput::Leader(s.decided_querier()?),
        })
    }

    fn apply(&self, s: &mut PfcState, a: &Action) -> bool {
        // Crashes and proposals are inputs of the embedded solver, which
        // accepts them in every state.
        match a {
            Action::Crash(l) => {
                s.crashed.insert(*l);
                self.solver.apply(&mut s.consensus, a);
            }
            Action::Query { at } => {
                s.pending.insert(*at);
                let propose = Action::Propose {
                    at: *at,
                    v: u64::from(at.0),
                };
                self.solver.apply(&mut s.consensus, &propose);
            }
            Action::QueryReply { at, out }
                if s.pending.contains(*at)
                    && !s.crashed.contains(*at)
                    && s.decided_querier().map(FdOutput::Leader) == Some(*out) =>
            {
                s.pending.remove(*at);
            }
            _ => return false,
        }
        true
    }
}

/// The participant property: every reply names a location that queried
/// strictly before the reply.
#[must_use]
pub fn participant_property(t: &[Action]) -> bool {
    let mut queried = LocSet::empty();
    for a in t {
        match a {
            Action::Query { at } => queried.insert(*at),
            Action::QueryReply {
                out: FdOutput::Leader(l),
                ..
            } if !queried.contains(*l) => {
                return false;
            }
            _ => {}
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::consensus::{all_live_decided, check_consensus_run};
    use afd_system::{run_random, FaultPattern, SimConfig};

    #[test]
    fn consensus_from_participant_detector() {
        let pi = Pi::new(3);
        for seed in 0..10 {
            let sys = query_consensus_system(pi, &[0, 1, 0], vec![]);
            let out = run_random(
                &sys,
                seed,
                SimConfig::default()
                    .with_max_steps(5000)
                    .stop_when(move |s| all_live_decided(pi, s)),
            );
            let v = check_consensus_run(pi, 0, out.schedule())
                .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            assert!(matches!(v, Some(0 | 1)), "seed {seed}: {v:?}");
            assert!(participant_property(out.schedule()), "seed {seed}");
        }
    }

    #[test]
    fn consensus_from_participant_survives_crash() {
        let pi = Pi::new(3);
        for seed in 0..10 {
            let sys = query_consensus_system(pi, &[0, 1, 0], vec![Loc(1)]);
            let out = run_random(
                &sys,
                seed,
                SimConfig::default()
                    .with_faults(FaultPattern::at(vec![(8, Loc(1))]))
                    .with_max_steps(8000)
                    .stop_when(move |s| all_live_decided(pi, s)),
            );
            check_consensus_run(pi, 1, out.schedule())
                .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            assert!(participant_property(out.schedule()), "seed {seed}");
        }
    }

    #[test]
    fn participant_from_consensus_black_box() {
        let pi = Pi::new(3);
        let fd = ParticipantFromConsensus::new(pi);
        let mut s = fd.initial_state();
        assert_eq!(fd.enabled(&s, TaskId(0)), None);
        s = fd.step(&s, &Action::Query { at: Loc(1) }).unwrap();
        s = fd.step(&s, &Action::Query { at: Loc(0) }).unwrap();
        // Both replies name the first querier (the black box decided it).
        let r1 = fd.enabled(&s, TaskId(1)).unwrap();
        assert_eq!(
            r1,
            Action::QueryReply {
                at: Loc(1),
                out: FdOutput::Leader(Loc(1))
            }
        );
        let r0 = fd.enabled(&s, TaskId(0)).unwrap();
        assert_eq!(
            r0,
            Action::QueryReply {
                at: Loc(0),
                out: FdOutput::Leader(Loc(1))
            }
        );
        s = fd.step(&s, &r0).unwrap();
        s = fd.step(&s, &r1).unwrap();
        assert!(!fd.any_task_enabled(&s));
    }

    #[test]
    fn participant_property_checker() {
        let good = vec![
            Action::Query { at: Loc(0) },
            Action::QueryReply {
                at: Loc(0),
                out: FdOutput::Leader(Loc(0)),
            },
        ];
        assert!(participant_property(&good));
        let bad = vec![
            Action::Query { at: Loc(0) },
            Action::QueryReply {
                at: Loc(0),
                out: FdOutput::Leader(Loc(1)),
            },
        ];
        assert!(!participant_property(&bad));
    }

    #[test]
    fn pfc_contract_checks() {
        let pi = Pi::new(2);
        let fd = ParticipantFromConsensus::new(pi);
        ioa::check_task_determinism(&fd, 50, 9).unwrap();
        let inputs: Vec<Action> = pi
            .iter()
            .flat_map(|i| [Action::Crash(i), Action::Query { at: i }])
            .collect();
        ioa::check_input_enabled(&fd, &inputs, 50, 9).unwrap();
    }
}
