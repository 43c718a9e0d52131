//! Bounded reachability analysis: enumerate the state space of an
//! automaton (locally controlled steps plus a caller-supplied input
//! alphabet) and check invariants, returning a counterexample path on
//! violation.
//!
//! This is "model checking lite" for the framework's automata: the
//! state spaces of protocol components (channels, detectors, small
//! process automata) are often finite or finitely explorable, and an
//! exhaustive sweep catches corner cases randomized runs miss.
//! `afd-tree` runs the same sweep, depth-bound, over the tagged tree
//! `R^{t_D}`.

use std::collections::HashSet;

use crate::automaton::{Automaton, TaskId};

/// How a sweep first reached a state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Edge<A> {
    /// Index of the state the edge leaves.
    pub parent: usize,
    /// The task whose enabled action it is; `None` for an input.
    pub task: Option<TaskId>,
    /// The action.
    pub action: A,
}

/// The states a bounded breadth-first sweep ([`check_invariant`])
/// reached.
#[derive(Debug)]
pub struct Sweep<M: Automaton> {
    /// Distinct states in discovery order; `states[0]` is the initial
    /// state.
    pub states: Vec<M::State>,
    /// `edges[k]` first reached `states[k]`; `None` for the initial
    /// state.
    pub edges: Vec<Option<Edge<M::Action>>>,
    /// Task edges of expanded states whose task was enabled, including
    /// those into states already known.
    pub live_edges: usize,
    /// Task edges of expanded states whose task was disabled (⊥).
    pub bottom_edges: usize,
    /// True iff the frontier was exhausted within both bounds.
    pub complete: bool,
    /// The first state found to violate the invariant, if any: the
    /// sweep stopped there, and [`Sweep::path`] leads to it.
    pub violation: Option<usize>,
}

impl<M: Automaton> Sweep<M> {
    /// Number of distinct states reached.
    #[must_use]
    pub fn len(&self) -> usize {
        self.states.len()
    }

    /// Never true: a sweep holds at least the initial state.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.states.is_empty()
    }

    /// The discovery edges from the initial state to `states[k]`, in
    /// order: a shortest path, by breadth-first order.
    #[must_use]
    pub fn path(&self, mut k: usize) -> Vec<&Edge<M::Action>> {
        let mut path = Vec::new();
        while let Some(e) = &self.edges[k] {
            path.push(e);
            k = e.parent;
        }
        path.reverse();
        path
    }
}

/// Breadth-first sweep of `m`'s reachable states (so counterexamples
/// are shortest): successors are the enabled action of each task, in
/// task order, then every applicable action from `inputs`. Checks
/// `invariant` on every state and stops at the first that fails it;
/// keeps at most `max_states` states and expands none `max_depth` edges
/// deep.
pub fn check_invariant<M, F>(
    m: &M,
    inputs: &[M::Action],
    max_states: usize,
    max_depth: usize,
    invariant: F,
) -> Sweep<M>
where
    M: Automaton,
    F: Fn(&M::State) -> bool,
{
    let s0 = m.initial_state();
    let mut sw: Sweep<M> = Sweep {
        violation: (!invariant(&s0)).then_some(0),
        states: vec![s0.clone()],
        edges: vec![None],
        live_edges: 0,
        bottom_edges: 0,
        complete: true,
    };
    let mut seen: HashSet<M::State> = HashSet::from([s0]);
    let mut depths = vec![0];
    // Expanding in discovery order is breadth-first.
    let mut id = 0;
    while sw.violation.is_none() && id < sw.states.len() {
        if depths[id] >= max_depth {
            sw.complete = false;
            break;
        }
        let cur = sw.states[id].clone();
        let enabled = m.enabled_actions(&cur);
        sw.live_edges += enabled.len();
        sw.bottom_edges += m.task_count() - enabled.len();
        let tasks = enabled.into_iter().map(|(t, a)| (Some(t), a));
        for (task, action) in tasks.chain(inputs.iter().map(|a| (None, a.clone()))) {
            let Some(next) = m.step(&cur, &action).filter(|s| !seen.contains(s)) else {
                continue;
            };
            let holds = invariant(&next);
            if holds && sw.states.len() >= max_states {
                sw.complete = false;
                continue;
            }
            seen.insert(next.clone());
            sw.states.push(next);
            depths.push(depths[id] + 1);
            sw.edges.push(Some(Edge {
                parent: id,
                task,
                action,
            }));
            if !holds {
                sw.violation = Some(sw.states.len() - 1);
                break;
            }
        }
        id += 1;
    }
    sw
}

/// Count the distinct reachable states within `max_states` (a trivial
/// always-true invariant sweep).
pub fn reachable_states<M>(m: &M, inputs: &[M::Action], max_states: usize) -> (usize, bool)
where
    M: Automaton,
{
    let sw = check_invariant(m, inputs, max_states, usize::MAX, |_| true);
    (sw.len(), sw.complete)
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
        let out = check_invariant(&m, &[Act::Reset], 1000, usize::MAX, |s| *s <= 5);
        assert_eq!(out.violation, None);
        assert_eq!(out.len(), 6, "0..=5");
        assert!(out.complete);
    }

    #[test]
    fn violation_yields_shortest_path() {
        let m = Counter { limit: 5 };
        let out = check_invariant(&m, &[Act::Reset], 1000, usize::MAX, |s| *s < 3);
        let k = out.violation.expect("violated");
        assert_eq!(out.states[k], 3);
        let path: Vec<Act> = out.path(k).into_iter().map(|e| e.action.clone()).collect();
        assert_eq!(
            path,
            vec![Act::Inc, Act::Inc, Act::Inc],
            "BFS finds the shortest"
        );
    }

    #[test]
    fn initial_state_violation() {
        let m = Counter { limit: 1 };
        let out = check_invariant(&m, &[], 10, usize::MAX, |s| *s > 0);
        assert_eq!(out.violation, Some(0));
        assert!(out.path(0).is_empty());
        assert_eq!(out.states[0], 0);
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
        let out = check_invariant(&m, &[QA::Send(1), QA::Send(2)], 10_000, usize::MAX, |s| {
            s.len() <= 3
        });
        assert_eq!(out.violation, None);
        // Queues over {1,2} of length ≤ 3: 1 + 2 + 4 + 8 = 15.
        assert_eq!(out.len(), 15);
        assert!(out.complete);
    }

    #[test]
    fn depth_bound_edges_and_edge_counts() {
        let m = Counter { limit: 5 };
        // Depth 2: the states 0, 1, 2; only 0 and 1 are expanded.
        let out = check_invariant(&m, &[], 1000, 2, |_| true);
        assert_eq!(out.states, vec![0, 1, 2]);
        assert!(!out.complete, "state 2 has a successor left unexpanded");
        assert_eq!((out.live_edges, out.bottom_edges), (2, 0));
        let inc = |parent| {
            Some(Edge {
                parent,
                task: Some(TaskId(0)),
                action: Act::Inc,
            })
        };
        assert_eq!(out.edges, vec![None, inc(0), inc(1)]);
        // At the limit the task is disabled: one ⊥ edge. Inputs count
        // as neither, and reach states through task-less edges.
        let m = Counter { limit: 1 };
        let out = check_invariant(&m, &[Act::Reset], 1000, usize::MAX, |_| true);
        assert!(out.complete);
        assert_eq!((out.live_edges, out.bottom_edges), (1, 1));
        assert_eq!(out.edges, vec![None, inc(0)]);
        let m = Counter { limit: 0 };
        let out = check_invariant(&m, &[], 1000, 0, |_| true);
        assert_eq!(
            (out.len(), out.complete),
            (1, false),
            "depth 0 expands nothing"
        );
    }
}
