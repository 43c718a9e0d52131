//! Environment automata (§4.5), including the well-formed consensus
//! environment `E_C` of §9.2 (Algorithm 4).
//!
//! [`Env`] is the closed set of environments this repository's systems
//! use. Each is task deterministic; `E_C` is the composition of per-
//! location automata `E_{C,i}` with two tasks each (`Env_{i,0}` =
//! `propose(0)_i`, `Env_{i,1}` = `propose(1)_i`), exactly as in
//! Algorithm 4.

use afd_core::{Action, Loc, LocSet, Pi, Val};
use ioa::{ActionClass, Automaton, TaskId};

/// An environment automaton.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Env {
    /// No environment actions at all (e.g. leader election,
    /// self-implementation systems: their only inputs are crashes).
    None,
    /// `E_C` (Algorithm 4): binary-consensus environment. `prefs[i]`
    /// restricts the proposable value at location `i`: `None` leaves
    /// both `propose(0)_i` and `propose(1)_i` enabled (the full `E_C`),
    /// `Some(v)` enables only `propose(v)_i` (a sub-environment used to
    /// steer experiments; still well-formed).
    Consensus {
        /// The universe.
        pi: Pi,
        /// Per-location value restriction.
        prefs: Vec<Option<Val>>,
    },
    /// General-value consensus environment: location `i` proposes the
    /// arbitrary value `values[i]` exactly once (one task per
    /// location). `E_C` above is the paper's *binary* environment — its
    /// two tasks per location enumerate the `{0, 1}` domain — which
    /// cannot propose values outside that set. Multi-shot consensus
    /// (the RSM layer) decides batch identifiers drawn from the full
    /// `u64` domain, so it needs this variant: still well-formed in the
    /// §9.2 sense (at most one propose per location, none after a
    /// crash, every live location eventually proposes).
    ConsensusVal {
        /// The universe.
        pi: Pi,
        /// Per-location proposal.
        values: Vec<Val>,
    },
    /// k-set-agreement environment: location `i` proposes `values[i]`
    /// exactly once.
    KSet {
        /// The universe.
        pi: Pi,
        /// Per-location proposal.
        values: Vec<Val>,
    },
    /// Reliable-broadcast environment: plays scripted `Broadcast`
    /// inputs in order (skipping crashed originators).
    Broadcast {
        /// `(origin, payload)` list, played in order.
        script: Vec<(Loc, u64)>,
    },
    /// Atomic-commit environment: location `i` votes `votes[i]` exactly
    /// once.
    Votes {
        /// The universe.
        pi: Pi,
        /// Per-location vote.
        votes: Vec<bool>,
    },
}

/// Environment state.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct EnvState {
    /// Per-location `stop` flag of Algorithm 4 (proposed or crashed),
    /// also reused as "proposed" for the k-set environment.
    pub stopped: LocSet,
    /// Crashed locations (used to skip scripted broadcasts).
    pub crashed: LocSet,
    /// Script position (broadcast environment).
    pub pos: usize,
}

impl EnvState {
    fn new() -> Self {
        EnvState {
            stopped: LocSet::empty(),
            crashed: LocSet::empty(),
            pos: 0,
        }
    }

    /// A location's one input (propose or vote): accepted once, at a
    /// live location of `pi`, carrying its `scripted` value, and then
    /// the location stops.
    fn stop_once(&mut self, pi: &Pi, at: Loc, scripted: bool) -> bool {
        if !pi.contains(at) || self.stopped.contains(at) || !scripted {
            return false;
        }
        self.stopped.insert(at);
        true
    }

    /// Index of the next scripted broadcast whose origin is up.
    fn next_broadcast(&self, script: &[(Loc, u64)]) -> Option<usize> {
        (self.pos..script.len()).find(|&p| !self.crashed.contains(script[p].0))
    }
}

impl Env {
    /// The full `E_C` of Algorithm 4 (both values proposable everywhere).
    #[must_use]
    pub fn consensus(pi: Pi) -> Self {
        Env::Consensus {
            pi,
            prefs: vec![None; pi.len()],
        }
    }

    /// `E_C` restricted so location `i` proposes `prefs[i]`.
    #[must_use]
    pub fn consensus_with_inputs(pi: Pi, values: &[Val]) -> Self {
        Env::Consensus {
            pi,
            prefs: values.iter().map(|&v| Some(v)).collect(),
        }
    }

    /// The general-value consensus environment: location `i` proposes
    /// `values[i]` (any `u64`) exactly once.
    ///
    /// # Panics
    /// Panics if `values.len() != pi.len()`.
    #[must_use]
    pub fn consensus_values(pi: Pi, values: &[Val]) -> Self {
        assert_eq!(values.len(), pi.len(), "one proposal per location");
        Env::ConsensusVal {
            pi,
            values: values.to_vec(),
        }
    }

    /// Number of per-location tasks (2 for consensus: one per value).
    fn tasks_per_loc(&self) -> usize {
        match self {
            Env::Consensus { .. } => 2,
            Env::ConsensusVal { .. } | Env::KSet { .. } | Env::Votes { .. } => 1,
            Env::None | Env::Broadcast { .. } => 0,
        }
    }

    /// Universe size, if location-structured.
    fn n(&self) -> usize {
        match self {
            Env::Consensus { pi, .. }
            | Env::ConsensusVal { pi, .. }
            | Env::KSet { pi, .. }
            | Env::Votes { pi, .. } => pi.len(),
            Env::None | Env::Broadcast { .. } => 0,
        }
    }

    /// The §8 environment task index set `X_i`: the number of tasks at
    /// each location (used by the execution-tree labels).
    #[must_use]
    pub fn task_index_set_size(&self) -> usize {
        self.tasks_per_loc()
    }
}

impl Automaton for Env {
    type Action = Action;
    type State = EnvState;

    fn name(&self) -> String {
        match self {
            Env::None => "E-none".into(),
            Env::Consensus { .. } => "E_C".into(),
            Env::ConsensusVal { .. } => "E_C-val".into(),
            Env::KSet { .. } => "E-kset".into(),
            Env::Broadcast { .. } => "E-broadcast".into(),
            Env::Votes { .. } => "E-votes".into(),
        }
    }

    fn initial_state(&self) -> EnvState {
        EnvState::new()
    }

    fn classify(&self, a: &Action) -> Option<ActionClass> {
        match (self, a) {
            (_, Action::Crash(_)) => Some(ActionClass::Input),
            (Env::Consensus { .. } | Env::ConsensusVal { .. }, Action::Propose { .. }) => {
                Some(ActionClass::Output)
            }
            (Env::Consensus { .. } | Env::ConsensusVal { .. }, Action::Decide { .. }) => {
                Some(ActionClass::Input)
            }
            (Env::KSet { .. }, Action::ProposeK { .. }) => Some(ActionClass::Output),
            (Env::KSet { .. }, Action::DecideK { .. }) => Some(ActionClass::Input),
            (Env::Broadcast { .. }, Action::Broadcast { .. }) => Some(ActionClass::Output),
            (Env::Broadcast { .. }, Action::Deliver { .. }) => Some(ActionClass::Input),
            (Env::Votes { .. }, Action::Vote { .. }) => Some(ActionClass::Output),
            (Env::Votes { .. }, Action::Verdict { .. }) => Some(ActionClass::Input),
            _ => None,
        }
    }

    fn task_count(&self) -> usize {
        match self {
            Env::Broadcast { .. } => 1,
            _ => self.n() * self.tasks_per_loc(),
        }
    }

    fn enabled(&self, s: &EnvState, t: TaskId) -> Option<Action> {
        match self {
            Env::None => None,
            Env::Consensus { pi, prefs } => {
                let i = Loc(u8::try_from(t.0 / 2).ok()?);
                let v = (t.0 % 2) as Val;
                if !pi.contains(i) || s.stopped.contains(i) {
                    return None;
                }
                match prefs[i.index()] {
                    Some(p) if p != v => None,
                    _ => Some(Action::Propose { at: i, v }),
                }
            }
            Env::ConsensusVal { pi, values } => {
                let i = Loc(u8::try_from(t.0).ok()?);
                if !pi.contains(i) || s.stopped.contains(i) {
                    return None;
                }
                Some(Action::Propose {
                    at: i,
                    v: values[i.index()],
                })
            }
            Env::KSet { pi, values } => {
                let i = Loc(u8::try_from(t.0).ok()?);
                if !pi.contains(i) || s.stopped.contains(i) {
                    return None;
                }
                Some(Action::ProposeK {
                    at: i,
                    v: values[i.index()],
                })
            }
            Env::Broadcast { script } => {
                let (at, payload) = script[s.next_broadcast(script)?];
                Some(Action::Broadcast { at, payload })
            }
            Env::Votes { pi, votes } => {
                let i = Loc(u8::try_from(t.0).ok()?);
                if !pi.contains(i) || s.stopped.contains(i) {
                    return None;
                }
                Some(Action::Vote {
                    at: i,
                    yes: votes[i.index()],
                })
            }
        }
    }

    fn apply(&self, s: &mut EnvState, a: &Action) -> bool {
        match (self, a) {
            (_, Action::Crash(l)) => {
                s.crashed.insert(*l);
                // Algorithm 4: crash_i sets stop := true at E_{C,i}.
                s.stopped.insert(*l);
                true
            }
            (Env::Consensus { pi, prefs }, Action::Propose { at, v }) => {
                let allowed = prefs
                    .get(at.index())
                    .is_some_and(|p| p.is_none_or(|p| p == *v));
                s.stop_once(pi, *at, allowed)
            }
            (Env::ConsensusVal { pi, values }, Action::Propose { at, v })
            | (Env::KSet { pi, values }, Action::ProposeK { at, v }) => {
                s.stop_once(pi, *at, values.get(at.index()) == Some(v))
            }
            (Env::Votes { pi, votes }, Action::Vote { at, yes }) => {
                s.stop_once(pi, *at, votes.get(at.index()) == Some(yes))
            }
            (Env::Broadcast { script }, Action::Broadcast { at, payload }) => {
                match s.next_broadcast(script) {
                    Some(pos) if script[pos] == (*at, *payload) => {
                        s.pos = pos + 1;
                        true
                    }
                    _ => false,
                }
            }
            (Env::Consensus { .. } | Env::ConsensusVal { .. }, Action::Decide { .. })
            | (Env::KSet { .. }, Action::DecideK { .. })
            | (Env::Broadcast { .. }, Action::Deliver { .. })
            | (Env::Votes { .. }, Action::Verdict { .. }) => true,
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use afd_core::problems::consensus::Consensus;

    #[test]
    fn ec_proposes_at_most_once_per_location() {
        let env = Env::consensus(Pi::new(2));
        let mut s = env.initial_state();
        // Both tasks of p0 enabled initially.
        assert_eq!(
            env.enabled(&s, TaskId(0)),
            Some(Action::Propose { at: Loc(0), v: 0 })
        );
        assert_eq!(
            env.enabled(&s, TaskId(1)),
            Some(Action::Propose { at: Loc(0), v: 1 })
        );
        s = env.step(&s, &Action::Propose { at: Loc(0), v: 1 }).unwrap();
        // Algorithm 4: both propose tasks at p0 now disabled.
        assert_eq!(env.enabled(&s, TaskId(0)), None);
        assert_eq!(env.enabled(&s, TaskId(1)), None);
        assert!(env.enabled(&s, TaskId(2)).is_some(), "p1 unaffected");
    }

    #[test]
    fn ec_crash_disables_proposals() {
        let env = Env::consensus(Pi::new(2));
        let mut s = env.initial_state();
        s = env.step(&s, &Action::Crash(Loc(1))).unwrap();
        assert_eq!(env.enabled(&s, TaskId(2)), None);
        assert_eq!(env.enabled(&s, TaskId(3)), None);
    }

    #[test]
    fn ec_fair_traces_are_well_formed_theorem_44() {
        // Drive E_C alone with a fair scheduler plus injected crashes;
        // the resulting trace must satisfy environment well-formedness.
        let pi = Pi::new(3);
        let env = Env::consensus(pi);
        let mut s = env.initial_state();
        let mut trace = Vec::new();
        let mut sched = ioa::RoundRobin::new();
        for step in 0..40 {
            if step == 1 {
                s = env.step(&s, &Action::Crash(Loc(2))).unwrap();
                trace.push(Action::Crash(Loc(2)));
                continue;
            }
            let Some(t) = ioa::Scheduler::<Env>::next_task(&mut sched, &env, &s, step) else {
                break;
            };
            let a = env.enabled(&s, t).unwrap();
            s = env.step(&s, &a).unwrap();
            trace.push(a);
        }
        assert!(Consensus::env_well_formed(pi, &trace).is_ok());
        assert!(
            !env.any_task_enabled(&s),
            "E_C quiesces after all propose/crash"
        );
    }

    #[test]
    fn restricted_ec_proposes_the_scripted_value() {
        let pi = Pi::new(2);
        let env = Env::consensus_with_inputs(pi, &[1, 0]);
        let s = env.initial_state();
        assert_eq!(env.enabled(&s, TaskId(0)), None, "propose(0)_p0 disabled");
        assert_eq!(
            env.enabled(&s, TaskId(1)),
            Some(Action::Propose { at: Loc(0), v: 1 })
        );
        assert_eq!(
            env.enabled(&s, TaskId(2)),
            Some(Action::Propose { at: Loc(1), v: 0 })
        );
        assert_eq!(env.enabled(&s, TaskId(3)), None);
    }

    #[test]
    fn decide_inputs_are_accepted_noop() {
        let env = Env::consensus(Pi::new(1));
        let s = env.initial_state();
        let s2 = env.step(&s, &Action::Decide { at: Loc(0), v: 1 }).unwrap();
        assert_eq!(s, s2);
    }

    #[test]
    fn consensus_val_env_proposes_arbitrary_values_once() {
        let pi = Pi::new(2);
        let env = Env::consensus_values(pi, &[1_000_003, 42]);
        let mut s = env.initial_state();
        assert_eq!(
            env.enabled(&s, TaskId(0)),
            Some(Action::Propose {
                at: Loc(0),
                v: 1_000_003
            })
        );
        s = env
            .step(
                &s,
                &Action::Propose {
                    at: Loc(0),
                    v: 1_000_003,
                },
            )
            .unwrap();
        assert_eq!(env.enabled(&s, TaskId(0)), None, "at most once per loc");
        assert_eq!(
            env.step(&s, &Action::Propose { at: Loc(1), v: 7 }),
            None,
            "wrong value rejected"
        );
        s = env.step(&s, &Action::Crash(Loc(1))).unwrap();
        assert_eq!(env.enabled(&s, TaskId(1)), None, "crash stops proposals");
        // Fair traces of the environment alone are §9.2 well-formed.
        let env2 = Env::consensus_values(pi, &[9, 11]);
        let mut st = env2.initial_state();
        let mut trace = Vec::new();
        let mut sched = ioa::RoundRobin::new();
        for step in 0..10 {
            let Some(t) = ioa::Scheduler::<Env>::next_task(&mut sched, &env2, &st, step) else {
                break;
            };
            let a = env2.enabled(&st, t).unwrap();
            st = env2.step(&st, &a).unwrap();
            trace.push(a);
        }
        assert!(Consensus::env_well_formed(pi, &trace).is_ok());
    }

    #[test]
    fn kset_env_proposes_assigned_values() {
        let pi = Pi::new(2);
        let env = Env::KSet {
            pi,
            values: vec![7, 9],
        };
        let mut s = env.initial_state();
        assert_eq!(
            env.enabled(&s, TaskId(0)),
            Some(Action::ProposeK { at: Loc(0), v: 7 })
        );
        s = env
            .step(&s, &Action::ProposeK { at: Loc(0), v: 7 })
            .unwrap();
        assert_eq!(env.enabled(&s, TaskId(0)), None);
        assert_eq!(
            env.step(&s, &Action::ProposeK { at: Loc(1), v: 3 }),
            None,
            "wrong value"
        );
    }

    #[test]
    fn broadcast_env_plays_script_skipping_crashed() {
        let env = Env::Broadcast {
            script: vec![(Loc(0), 5), (Loc(1), 6)],
        };
        let mut s = env.initial_state();
        s = env.step(&s, &Action::Crash(Loc(0))).unwrap();
        assert_eq!(
            env.enabled(&s, TaskId(0)),
            Some(Action::Broadcast {
                at: Loc(1),
                payload: 6
            })
        );
        s = env
            .step(
                &s,
                &Action::Broadcast {
                    at: Loc(1),
                    payload: 6,
                },
            )
            .unwrap();
        assert_eq!(env.enabled(&s, TaskId(0)), None);
    }

    #[test]
    fn none_env_has_no_tasks() {
        let env = Env::None;
        assert_eq!(env.task_count(), 0);
        assert_eq!(env.classify(&Action::Propose { at: Loc(0), v: 0 }), None);
        assert_eq!(
            env.classify(&Action::Crash(Loc(0))),
            Some(ActionClass::Input)
        );
    }

    #[test]
    fn contract_checks() {
        let env = Env::consensus(Pi::new(2));
        ioa::check_task_determinism(&env, 50, 6).unwrap();
        ioa::check_input_enabled(&env, &[Action::Crash(Loc(0)), Action::Crash(Loc(1))], 50, 6)
            .unwrap();
    }
}
