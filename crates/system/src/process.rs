//! Process automata (§4.2) via the [`LocalBehavior`] adapter.
//!
//! A process automaton at location `i` is deterministic (unique start
//! state, one task), every action of it occurs at `i`, and `crash_i`
//! permanently disables its locally controlled actions. The adapter
//! [`ProcessAutomaton`] enforces all of that once, so distributed
//! algorithms only describe their protocol logic:
//!
//! * `on_input` — react to a received message, FD output, or
//!   environment input;
//! * `output` — the unique locally controlled action currently enabled
//!   (typically popping an outbox);
//! * `on_output` — the state effect of performing that action.

use std::fmt::Debug;
use std::hash::Hash;

use afd_core::{Action, Loc};
use ioa::{ActionClass, Automaton, TaskId};

/// Protocol logic of a process at one location.
pub trait LocalBehavior: Debug {
    /// Protocol state at one location.
    type State: Clone + Eq + Hash + Debug;

    /// Short protocol name (diagnostics).
    fn proto_name(&self) -> String;

    /// Initial state of the process at `i`.
    fn init(&self, i: Loc) -> Self::State;

    /// Is `a` an input action of the process at `i` (excluding
    /// `crash_i`, which the adapter handles)? Receives addressed to `i`
    /// are conventionally inputs; include FD outputs at `i` and
    /// environment inputs at `i` as appropriate.
    fn is_input(&self, i: Loc, a: &Action) -> bool;

    /// Is `a` a locally controlled (output) action of the process at
    /// `i`? Must cover everything `output` can return.
    fn is_output(&self, i: Loc, a: &Action) -> bool;

    /// React to an input. Must accept any action for which
    /// `is_input(i, a)` holds, in any state (input enabling).
    fn on_input(&self, i: Loc, s: &mut Self::State, a: &Action);

    /// The unique locally controlled action enabled in `s`, if any.
    fn output(&self, i: Loc, s: &Self::State) -> Option<Action>;

    /// The state effect of performing `output(i, s)`.
    fn on_output(&self, i: Loc, s: &mut Self::State, a: &Action);
}

/// State wrapper adding the crash flag.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ProcState<S> {
    /// Protocol state.
    pub inner: S,
    /// Set once `crash_i` occurs; disables all locally controlled
    /// actions (§4.2). Cleared again by `recover_i` in crash-recovery
    /// runs — permanent in the paper's crash-stop model, where no
    /// recovery event ever occurs.
    pub crashed: bool,
}

/// The process automaton at location `i` running behavior `B`.
#[derive(Debug, Clone)]
pub struct ProcessAutomaton<B> {
    /// This process's location.
    pub loc: Loc,
    /// The protocol logic.
    pub behavior: B,
}

impl<B: LocalBehavior> ProcessAutomaton<B> {
    /// The process at `loc` running `behavior`.
    #[must_use]
    pub fn new(loc: Loc, behavior: B) -> Self {
        ProcessAutomaton { loc, behavior }
    }
}

impl<B: LocalBehavior> Automaton for ProcessAutomaton<B> {
    type Action = Action;
    type State = ProcState<B::State>;

    fn name(&self) -> String {
        format!("{}@{}", self.behavior.proto_name(), self.loc)
    }

    fn initial_state(&self) -> Self::State {
        ProcState {
            inner: self.behavior.init(self.loc),
            crashed: false,
        }
    }

    fn classify(&self, a: &Action) -> Option<ActionClass> {
        if a.crash_loc() == Some(self.loc) || a.recover_loc() == Some(self.loc) {
            return Some(ActionClass::Input);
        }
        if self.behavior.is_input(self.loc, a) {
            return Some(ActionClass::Input);
        }
        if self.behavior.is_output(self.loc, a) {
            return Some(ActionClass::Output);
        }
        None
    }

    fn task_count(&self) -> usize {
        1
    }

    fn enabled(&self, s: &Self::State, _t: TaskId) -> Option<Action> {
        if s.crashed {
            return None;
        }
        self.behavior.output(self.loc, &s.inner)
    }

    fn apply(&self, s: &mut Self::State, a: &Action) -> bool {
        if a.crash_loc() == Some(self.loc) {
            s.crashed = true;
        } else if a.recover_loc() == Some(self.loc) {
            // Crash-recovery: a new incarnation resumes from the state
            // the protocol had durably reached (the rejoin replay has
            // rebuilt `inner` by then); locally controlled actions are
            // re-enabled.
            s.crashed = false;
        } else if self.behavior.is_input(self.loc, a) {
            // Inputs after a crash are absorbed without effect: the
            // process is dead but input enabling must be preserved.
            if !s.crashed {
                self.behavior.on_input(self.loc, &mut s.inner, a);
            }
        } else if self.behavior.is_output(self.loc, a)
            && !s.crashed
            && self.behavior.output(self.loc, &s.inner).as_ref() == Some(a)
        {
            self.behavior.on_output(self.loc, &mut s.inner, a);
        } else {
            return false;
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use afd_core::Msg;

    /// Echo: every received token is sent back to its sender.
    #[derive(Debug, Clone)]
    struct Echo;

    #[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
    struct EchoState {
        outbox: Vec<(Loc, u64)>,
    }

    impl LocalBehavior for Echo {
        type State = EchoState;
        fn proto_name(&self) -> String {
            "echo".into()
        }
        fn init(&self, _i: Loc) -> EchoState {
            EchoState::default()
        }
        fn is_input(&self, i: Loc, a: &Action) -> bool {
            matches!(a, Action::Receive { to, .. } if *to == i)
        }
        fn is_output(&self, i: Loc, a: &Action) -> bool {
            matches!(a, Action::Send { from, .. } if *from == i)
        }
        fn on_input(&self, _i: Loc, s: &mut EchoState, a: &Action) {
            if let Action::Receive {
                from,
                msg: Msg::Token(v),
                ..
            } = a
            {
                s.outbox.push((*from, *v));
            }
        }
        fn output(&self, i: Loc, s: &EchoState) -> Option<Action> {
            s.outbox.first().map(|&(to, v)| Action::Send {
                from: i,
                to,
                msg: Msg::Token(v),
            })
        }
        fn on_output(&self, _i: Loc, s: &mut EchoState, _a: &Action) {
            s.outbox.remove(0);
        }
    }

    fn recv(v: u64) -> Action {
        Action::Receive {
            from: Loc(1),
            to: Loc(0),
            msg: Msg::Token(v),
        }
    }

    #[test]
    fn echo_roundtrip() {
        let p = ProcessAutomaton::new(Loc(0), Echo);
        let mut s = p.initial_state();
        assert_eq!(p.enabled(&s, TaskId(0)), None);
        s = p.step(&s, &recv(7)).unwrap();
        let out = p.enabled(&s, TaskId(0)).unwrap();
        assert_eq!(
            out,
            Action::Send {
                from: Loc(0),
                to: Loc(1),
                msg: Msg::Token(7)
            }
        );
        s = p.step(&s, &out).unwrap();
        assert_eq!(p.enabled(&s, TaskId(0)), None);
    }

    #[test]
    fn crash_disables_outputs_permanently() {
        let p = ProcessAutomaton::new(Loc(0), Echo);
        let mut s = p.initial_state();
        s = p.step(&s, &recv(7)).unwrap();
        s = p.step(&s, &Action::Crash(Loc(0))).unwrap();
        assert_eq!(p.enabled(&s, TaskId(0)), None);
        // Inputs still accepted (absorbed), outputs rejected.
        let s2 = p.step(&s, &recv(9)).unwrap();
        assert_eq!(s2.inner.outbox.len(), 1, "input after crash absorbed");
        let send = Action::Send {
            from: Loc(0),
            to: Loc(1),
            msg: Msg::Token(7),
        };
        assert_eq!(p.step(&s, &send), None);
    }

    #[test]
    fn foreign_crash_is_not_ours() {
        let p = ProcessAutomaton::new(Loc(0), Echo);
        assert_eq!(p.classify(&Action::Crash(Loc(1))), None);
        assert_eq!(p.classify(&Action::Crash(Loc(0))), Some(ActionClass::Input));
        assert_eq!(p.classify(&Action::Recover(Loc(1))), None);
        assert_eq!(
            p.classify(&Action::Recover(Loc(0))),
            Some(ActionClass::Input)
        );
    }

    #[test]
    fn recover_reenables_outputs() {
        let p = ProcessAutomaton::new(Loc(0), Echo);
        let mut s = p.initial_state();
        s = p.step(&s, &recv(7)).unwrap();
        s = p.step(&s, &Action::Crash(Loc(0))).unwrap();
        assert_eq!(p.enabled(&s, TaskId(0)), None);
        s = p.step(&s, &Action::Recover(Loc(0))).unwrap();
        assert!(!s.crashed);
        let out = p.enabled(&s, TaskId(0)).unwrap();
        assert_eq!(
            out,
            Action::Send {
                from: Loc(0),
                to: Loc(1),
                msg: Msg::Token(7)
            }
        );
        assert!(p.step(&s, &out).is_some());
    }

    #[test]
    fn signature_is_location_scoped() {
        let p = ProcessAutomaton::new(Loc(0), Echo);
        assert_eq!(p.classify(&recv(1)), Some(ActionClass::Input));
        let foreign = Action::Receive {
            from: Loc(0),
            to: Loc(1),
            msg: Msg::Token(1),
        };
        assert_eq!(p.classify(&foreign), None);
        let send = Action::Send {
            from: Loc(0),
            to: Loc(1),
            msg: Msg::Token(1),
        };
        assert_eq!(p.classify(&send), Some(ActionClass::Output));
    }

    #[test]
    fn out_of_turn_output_rejected() {
        let p = ProcessAutomaton::new(Loc(0), Echo);
        let s = p.initial_state();
        let send = Action::Send {
            from: Loc(0),
            to: Loc(1),
            msg: Msg::Token(3),
        };
        assert_eq!(p.step(&s, &send), None);
    }

    #[test]
    fn contract_checks() {
        let p = ProcessAutomaton::new(Loc(0), Echo);
        ioa::check_task_determinism(&p, 50, 8).unwrap();
        ioa::check_input_enabled(&p, &[recv(1), Action::Crash(Loc(0))], 50, 8).unwrap();
    }
}
