//! Bounded reachability analysis: enumerate the state space of an
//! automaton (locally controlled steps plus a caller-supplied input
//! alphabet) and check invariants, returning a counterexample path on
//! violation.
//!
//! This is "model checking lite" for the framework's automata: the
//! state spaces of protocol components (channels, detectors, small
//! process automata) are often finite or finitely explorable, and an
//! exhaustive sweep catches corner cases randomized runs miss.

use std::collections::{HashMap, VecDeque};

use crate::automaton::{Automaton, TaskId};

/// A counterexample: the action path from the initial state to a
/// violating state, plus the violating state itself.
#[derive(Debug, Clone)]
pub struct CounterExample<M: Automaton> {
    /// Actions leading to the violation, in order.
    pub path: Vec<M::Action>,
    /// The violating state.
    pub state: M::State,
}

/// Outcome of a bounded invariant sweep.
#[derive(Debug)]
pub enum SweepOutcome<M: Automaton> {
    /// The invariant holds on every reachable state explored; the flag
    /// says whether the whole reachable space fit in the budget.
    Holds {
        /// Distinct states visited.
        states: usize,
        /// True iff the frontier was exhausted within the budget.
        complete: bool,
    },
    /// The invariant fails; here is a shortest path to a violation.
    Violated(CounterExample<M>),
}

impl<M: Automaton> SweepOutcome<M> {
    /// True iff the invariant held on the explored region.
    #[must_use]
    pub fn holds(&self) -> bool {
        matches!(self, SweepOutcome::Holds { .. })
    }

    /// The counterexample, if violated.
    #[must_use]
    pub fn counterexample(&self) -> Option<&CounterExample<M>> {
        match self {
            SweepOutcome::Violated(c) => Some(c),
            SweepOutcome::Holds { .. } => None,
        }
    }
}

/// Breadth-first sweep of `m`'s reachable states (so counterexamples
/// are shortest): successors are all enabled locally controlled actions
/// plus every applicable action from `inputs`. Checks `invariant` on
/// every state; stops at `max_states`.
pub fn check_invariant<M, F>(
    m: &M,
    inputs: &[M::Action],
    max_states: usize,
    invariant: F,
) -> SweepOutcome<M>
where
    M: Automaton,
    F: Fn(&M::State) -> bool,
{
    let s0 = m.initial_state();
    if !invariant(&s0) {
        return SweepOutcome::Violated(CounterExample {
            path: Vec::new(),
            state: s0,
        });
    }
    let mut seen: HashMap<M::State, usize> = HashMap::new();
    let mut parents: Vec<Option<(usize, M::Action)>> = vec![None];
    let mut states: Vec<M::State> = vec![s0.clone()];
    seen.insert(s0, 0);
    let mut queue = VecDeque::from([0usize]);
    let mut complete = true;
    while let Some(id) = queue.pop_front() {
        let cur = states[id].clone();
        let mut successors: Vec<(M::Action, M::State)> = Vec::new();
        for t in 0..m.task_count() {
            if let Some(a) = m.enabled(&cur, TaskId(t)) {
                if let Some(next) = m.step(&cur, &a) {
                    successors.push((a, next));
                }
            }
        }
        for a in inputs {
            if let Some(next) = m.step(&cur, a) {
                successors.push((a.clone(), next));
            }
        }
        for (a, next) in successors {
            if seen.contains_key(&next) {
                continue;
            }
            if !invariant(&next) {
                // Reconstruct the path.
                let mut path = vec![a];
                let mut k = id;
                while let Some((p, ref pa)) = parents[k] {
                    path.push(pa.clone());
                    k = p;
                }
                path.reverse();
                return SweepOutcome::Violated(CounterExample { path, state: next });
            }
            if states.len() >= max_states {
                complete = false;
                continue;
            }
            let nid = states.len();
            seen.insert(next.clone(), nid);
            states.push(next);
            parents.push(Some((id, a.clone())));
            queue.push_back(nid);
        }
    }
    SweepOutcome::Holds {
        states: states.len(),
        complete,
    }
}

/// Count the distinct reachable states within `max_states` (a trivial
/// always-true invariant sweep).
pub fn reachable_states<M>(m: &M, inputs: &[M::Action], max_states: usize) -> (usize, bool)
where
    M: Automaton,
{
    match check_invariant(m, inputs, max_states, |_| true) {
        SweepOutcome::Holds { states, complete } => (states, complete),
        SweepOutcome::Violated(_) => unreachable!("trivial invariant cannot fail"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::automaton::ActionClass;

    /// A bounded counter with a reset input.
    #[derive(Debug, Clone)]
    struct Counter {
        limit: u8,
    }

    #[derive(Debug, Clone, PartialEq, Eq, Hash)]
    enum Act {
        Inc,
        Reset,
    }

    impl Automaton for Counter {
        type Action = Act;
        type State = u8;
        fn name(&self) -> String {
            "counter".into()
        }
        fn initial_state(&self) -> u8 {
            0
        }
        fn classify(&self, a: &Act) -> Option<ActionClass> {
            match a {
                Act::Inc => Some(ActionClass::Output),
                Act::Reset => Some(ActionClass::Input),
            }
        }
        fn task_count(&self) -> usize {
            1
        }
        fn enabled(&self, s: &u8, _t: TaskId) -> Option<Act> {
            (*s < self.limit).then_some(Act::Inc)
        }
        fn apply(&self, s: &mut u8, a: &Act) -> bool {
            match a {
                Act::Inc if *s < self.limit => *s += 1,
                Act::Inc => return false,
                Act::Reset => *s = 0,
            }
            true
        }
    }

    #[test]
    fn invariant_holds_on_complete_space() {
        let m = Counter { limit: 5 };
        let out = check_invariant(&m, &[Act::Reset], 1000, |s| *s <= 5);
        assert!(out.holds());
        match out {
            SweepOutcome::Holds { states, complete } => {
                assert_eq!(states, 6, "0..=5");
                assert!(complete);
            }
            SweepOutcome::Violated(_) => panic!(),
        }
    }

    #[test]
    fn violation_yields_shortest_path() {
        let m = Counter { limit: 5 };
        let out = check_invariant(&m, &[Act::Reset], 1000, |s| *s < 3);
        let cex = out.counterexample().expect("violated");
        assert_eq!(cex.state, 3);
        assert_eq!(
            cex.path,
            vec![Act::Inc, Act::Inc, Act::Inc],
            "BFS finds the shortest"
        );
    }

    #[test]
    fn initial_state_violation() {
        let m = Counter { limit: 1 };
        let out = check_invariant(&m, &[], 10, |s| *s > 0);
        let cex = out.counterexample().unwrap();
        assert!(cex.path.is_empty());
        assert_eq!(cex.state, 0);
    }

    #[test]
    fn budget_marks_incomplete() {
        let m = Counter { limit: 200 };
        let (states, complete) = reachable_states(&m, &[], 10);
        assert_eq!(states, 10);
        assert!(!complete);
        let (states, complete) = reachable_states(&m, &[], 1000);
        assert_eq!(states, 201);
        assert!(complete);
    }

    #[test]
    fn channel_fifo_invariant_exhaustively() {
        // A real component: the FIFO channel over a tiny message
        // alphabet never reorders — its queue is always a subsequence
        // of the send history, which over this bounded sweep reduces
        // to: queue length ≤ number of explored sends (trivially) and
        // every state is reachable without panic.
        // (The channel state space is infinite; bound it.)
        use afd_core_like::*;
        mod afd_core_like {
            // Minimal stand-in so `ioa` stays dependency-free: a queue
            // automaton mirroring the channel.
            use super::super::super::automaton::{ActionClass, Automaton, TaskId};
            #[derive(Debug, Clone)]
            pub struct Queue;
            #[derive(Debug, Clone, PartialEq, Eq, Hash)]
            pub enum QA {
                Send(u8),
                Recv(u8),
            }
            impl Automaton for Queue {
                type Action = QA;
                type State = Vec<u8>;
                fn name(&self) -> String {
                    "queue".into()
                }
                fn initial_state(&self) -> Vec<u8> {
                    vec![]
                }
                fn classify(&self, a: &QA) -> Option<ActionClass> {
                    match a {
                        QA::Send(_) => Some(ActionClass::Input),
                        QA::Recv(_) => Some(ActionClass::Output),
                    }
                }
                fn task_count(&self) -> usize {
                    1
                }
                fn enabled(&self, s: &Vec<u8>, _t: TaskId) -> Option<QA> {
                    s.first().map(|&m| QA::Recv(m))
                }
                fn apply(&self, s: &mut Vec<u8>, a: &QA) -> bool {
                    match a {
                        // Bound the sweep.
                        QA::Send(_) if s.len() >= 3 => return false,
                        QA::Send(m) => s.push(*m),
                        QA::Recv(m) if s.first() == Some(m) => {
                            s.remove(0);
                        }
                        QA::Recv(_) => return false,
                    }
                    true
                }
            }
        }
        let m = Queue;
        let out = check_invariant(&m, &[QA::Send(1), QA::Send(2)], 10_000, |s| s.len() <= 3);
        assert!(out.holds());
        match out {
            SweepOutcome::Holds { states, complete } => {
                // Queues over {1,2} of length ≤ 3: 1 + 2 + 4 + 8 = 15.
                assert_eq!(states, 15);
                assert!(complete);
            }
            SweepOutcome::Violated(_) => panic!(),
        }
    }
}
