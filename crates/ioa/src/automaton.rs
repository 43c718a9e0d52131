//! The core [`Automaton`] trait: task-deterministic I/O automata.

use std::fmt::Debug;
use std::hash::Hash;

/// Classification of an action within an automaton's signature (§2.1).
///
/// Input and output actions are collectively *external*; output and
/// internal actions are collectively *locally controlled*.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ActionClass {
    /// Arrives from the outside; enabled in every state.
    Input,
    /// Locally controlled and visible to other automata.
    Output,
    /// Locally controlled and private to the automaton.
    Internal,
}

impl ActionClass {
    /// True for output and internal actions.
    #[must_use]
    pub fn is_locally_controlled(self) -> bool {
        matches!(self, ActionClass::Output | ActionClass::Internal)
    }

    /// True for input and output actions.
    #[must_use]
    pub fn is_external(self) -> bool {
        matches!(self, ActionClass::Input | ActionClass::Output)
    }
}

/// Identifier of a task — one class of the partition of locally
/// controlled actions (§2.1). Task indices are dense: `0..task_count()`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TaskId(pub usize);

impl std::fmt::Display for TaskId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "task#{}", self.0)
    }
}

/// A task-deterministic I/O automaton (§2.1, §2.5).
///
/// The trait separates the immutable *machine* (`self`) from the mutable
/// *state* (`Self::State`), so explorers can hold many states of one
/// machine cheaply (the execution-tree analysis of the paper's §8 depends
/// on this).
///
/// # Contract
///
/// * **One transition**: [`Automaton::apply`] is the transition
///   relation, performed on a state in place. [`Automaton::step`] is
///   derived from it (clone, then `apply`) for explorers that keep the
///   pre-state.
/// * **Input enabling**: for every input action `a` and state `s`,
///   `apply(s, a)` must return `true`.
/// * **Task determinism** (§2.5): `enabled(s, t)` returns at most one
///   action, and `apply` is a function (at most one post-state). The
///   dynamic checks in [`crate::determinism`] validate both.
/// * `enabled(s, t)` must return a *locally controlled* action of task
///   `t` that `apply(s, ..)` accepts.
pub trait Automaton {
    /// The action alphabet. Cheap to clone; hashable so traces can be
    /// indexed and states deduplicated.
    type Action: Clone + Eq + Hash + Debug;
    /// Automaton state. Engines change it in place; explorers and
    /// recorded executions clone it to keep the states they visit.
    type State: Clone + Eq + Hash + Debug;

    /// Human-readable name (used in diagnostics and fairness reports).
    fn name(&self) -> String;

    /// The unique start state. The paper's deterministic automata have a
    /// unique start state (§2.5); that is all the system model needs.
    fn initial_state(&self) -> Self::State;

    /// Classify `a` within this automaton's signature, or `None` when
    /// `a` is not an action of this automaton.
    fn classify(&self, a: &Self::Action) -> Option<ActionClass>;

    /// A key that stands for `a`'s classification, or `None` (the
    /// default) where the automaton type offers none.
    ///
    /// Contract: two actions with equal keys are classified the same by
    /// every automaton of this type. A [`crate::Composition`] of such
    /// automata keys its participants index by it, so it classifies
    /// each key once instead of once per event.
    fn route_key(_a: &Self::Action) -> Option<u64> {
        None
    }

    /// Number of tasks. Tasks are indexed `0..task_count()`.
    fn task_count(&self) -> usize;

    /// The unique action of task `t` enabled in `s`, if any.
    fn enabled(&self, s: &Self::State, t: TaskId) -> Option<Self::Action>;

    /// Perform `a` on `s` in place. Returns `false` where `a` cannot
    /// occur in `s`: a locally controlled action that is not enabled
    /// (inputs are always accepted), or an action outside the signature.
    ///
    /// On `false`, `s` must be left exactly as it was: every guard runs
    /// before the first write.
    fn apply(&self, s: &mut Self::State, a: &Self::Action) -> bool;

    /// The post-state of `a` from `s`, or `None` where
    /// [`Automaton::apply`] refuses it: `apply` on a copy of `s`.
    fn step(&self, s: &Self::State, a: &Self::Action) -> Option<Self::State> {
        let mut next = s.clone();
        self.apply(&mut next, a).then_some(next)
    }

    /// True iff some task is enabled in `s`.
    ///
    /// A state where nothing is enabled is *quiescent*: a finite fair
    /// execution may end only in such a state (§2.4).
    fn any_task_enabled(&self, s: &Self::State) -> bool {
        (0..self.task_count()).any(|t| self.enabled(s, TaskId(t)).is_some())
    }

    /// All actions currently enabled, one per enabled task.
    fn enabled_actions(&self, s: &Self::State) -> Vec<(TaskId, Self::Action)> {
        (0..self.task_count())
            .filter_map(|t| self.enabled(s, TaskId(t)).map(|a| (TaskId(t), a)))
            .collect()
    }

    /// True iff `a` is an external action of this automaton.
    fn is_external(&self, a: &Self::Action) -> bool {
        self.classify(a).is_some_and(ActionClass::is_external)
    }

    /// True iff `a` is an input action of this automaton.
    fn is_input(&self, a: &Self::Action) -> bool {
        self.classify(a) == Some(ActionClass::Input)
    }

    /// True iff `a` is an output action of this automaton.
    fn is_output(&self, a: &Self::Action) -> bool {
        self.classify(a) == Some(ActionClass::Output)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone)]
    struct Counter {
        limit: u32,
    }

    #[derive(Debug, Clone, PartialEq, Eq, Hash)]
    enum Act {
        Inc,
        Reset,
    }

    impl Automaton for Counter {
        type Action = Act;
        type State = u32;

        fn name(&self) -> String {
            "counter".into()
        }
        fn initial_state(&self) -> u32 {
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
        fn enabled(&self, s: &u32, _t: TaskId) -> Option<Act> {
            (*s < self.limit).then_some(Act::Inc)
        }
        fn apply(&self, s: &mut u32, a: &Act) -> bool {
            match a {
                Act::Inc if *s < self.limit => *s += 1,
                Act::Inc => return false,
                Act::Reset => *s = 0,
            }
            true
        }
    }

    #[test]
    fn classify_distinguishes_kinds() {
        let c = Counter { limit: 2 };
        assert_eq!(c.classify(&Act::Inc), Some(ActionClass::Output));
        assert_eq!(c.classify(&Act::Reset), Some(ActionClass::Input));
        assert!(c.is_output(&Act::Inc));
        assert!(c.is_input(&Act::Reset));
        assert!(c.is_external(&Act::Inc) && c.is_external(&Act::Reset));
    }

    #[test]
    fn enabled_respects_guard() {
        let c = Counter { limit: 1 };
        assert_eq!(c.enabled(&0, TaskId(0)), Some(Act::Inc));
        assert_eq!(c.enabled(&1, TaskId(0)), None);
        assert!(c.any_task_enabled(&0));
        assert!(!c.any_task_enabled(&1));
    }

    #[test]
    fn inputs_always_accepted() {
        let c = Counter { limit: 1 };
        assert_eq!(c.step(&1, &Act::Reset), Some(0));
        assert_eq!(c.step(&0, &Act::Reset), Some(0));
    }

    #[test]
    fn disabled_local_action_rejected() {
        let c = Counter { limit: 1 };
        assert_eq!(c.step(&1, &Act::Inc), None);
        let mut s = 1;
        assert!(!c.apply(&mut s, &Act::Inc));
        assert_eq!(s, 1, "a refused action leaves the state as it was");
    }

    #[test]
    fn enabled_actions_lists_each_enabled_task() {
        let c = Counter { limit: 3 };
        let list = c.enabled_actions(&0);
        assert_eq!(list, vec![(TaskId(0), Act::Inc)]);
        assert!(c.enabled_actions(&3).is_empty());
    }

    #[test]
    fn action_class_predicates() {
        assert!(ActionClass::Output.is_locally_controlled());
        assert!(ActionClass::Internal.is_locally_controlled());
        assert!(!ActionClass::Input.is_locally_controlled());
        assert!(ActionClass::Input.is_external());
        assert!(ActionClass::Output.is_external());
        assert!(!ActionClass::Internal.is_external());
    }

    #[test]
    fn task_id_display() {
        assert_eq!(TaskId(3).to_string(), "task#3");
    }
}
