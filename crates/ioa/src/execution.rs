//! Executions, schedules, and traces (§2.2).
//!
//! [`Execution::apply`] is how every driver extends an execution
//! ([`crate::Runner`], [`crate::runner::run_script`], [`apply_schedule`],
//! the system simulator): when only the endpoints are kept, it steps the
//! final state in place instead of cloning it.

use crate::automaton::{ActionClass, Automaton};

/// Whether a run records every intermediate state or only the endpoints.
///
/// The paper's tree analysis needs full state sequences; long simulation
/// runs for liveness checks only need the trace plus the final state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StatePolicy {
    /// Record `states[k]` for every step: `states.len() == actions.len() + 1`.
    #[default]
    Full,
    /// Record only the initial and final states (`states.len() == 2`
    /// for non-null executions, `1` for null executions).
    Endpoints,
}

/// A recorded execution fragment: an alternating sequence
/// `s0, a1, s1, a2, …` (§2.2), stored as parallel vectors.
///
/// A *null execution* has one state and no actions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Execution<M: Automaton> {
    /// State sequence; its shape depends on the [`StatePolicy`] used.
    pub states: Vec<M::State>,
    /// The schedule: every event, internal and external, in order.
    pub actions: Vec<M::Action>,
    /// Policy the run was recorded under.
    pub policy: StatePolicy,
}

impl<M: Automaton> Execution<M> {
    /// A null execution from `s0`.
    #[must_use]
    pub fn null(s0: M::State) -> Self {
        Execution {
            states: vec![s0],
            actions: Vec::new(),
            policy: StatePolicy::Full,
        }
    }

    /// Number of events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.actions.len()
    }

    /// True iff this is a null execution.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.actions.is_empty()
    }

    /// The final state.
    ///
    /// # Panics
    /// Never: an execution always contains at least the initial state.
    #[must_use]
    pub fn last_state(&self) -> &M::State {
        self.states
            .last()
            .expect("execution has at least one state")
    }

    /// The schedule of the execution: all events (§2.2). Identical to
    /// `actions`, exposed under the paper's name.
    #[must_use]
    pub fn schedule(&self) -> &[M::Action] {
        &self.actions
    }

    /// The trace of the execution: the subsequence of *external* events
    /// of `m` (§2.2).
    #[must_use]
    pub fn trace(&self, m: &M) -> Vec<M::Action> {
        self.actions
            .iter()
            .filter(|a| m.is_external(a))
            .cloned()
            .collect()
    }

    /// Projection of the schedule onto an arbitrary action predicate.
    #[must_use]
    pub fn project<F: Fn(&M::Action) -> bool>(&self, keep: F) -> Vec<M::Action> {
        self.actions.iter().filter(|a| keep(a)).cloned().collect()
    }

    /// Perform `a` on the final state through `m` and record it; `false`,
    /// with the execution untouched, where `m` refuses `a`. Under
    /// [`StatePolicy::Endpoints`] `a` steps the final state in place (the
    /// first step clones it, so `states[0]` keeps the start state); under
    /// [`StatePolicy::Full`] it steps a copy, which is pushed.
    pub fn apply(&mut self, m: &M, a: M::Action) -> bool {
        if self.policy == StatePolicy::Endpoints && self.states.len() == 2 {
            let last = self.states.last_mut().expect("nonempty");
            if !m.apply(last, &a) {
                return false;
            }
        } else {
            let mut next = self.last_state().clone();
            if !m.apply(&mut next, &a) {
                return false;
            }
            self.states.push(next);
        }
        self.actions.push(a);
        true
    }

    /// Concatenation `self · other` (§2.2): requires `other` to start in
    /// `self`'s final state; the duplicated junction state is dropped.
    ///
    /// # Errors
    /// Returns `Err(other)` unchanged when the junction states differ or
    /// when either side was not recorded with [`StatePolicy::Full`].
    pub fn concat(mut self, other: Execution<M>) -> Result<Execution<M>, Execution<M>> {
        if self.policy != StatePolicy::Full
            || other.policy != StatePolicy::Full
            || self.last_state() != &other.states[0]
        {
            return Err(other);
        }
        self.actions.extend(other.actions);
        self.states.extend(other.states.into_iter().skip(1));
        Ok(self)
    }

    /// Replay check: verify the execution is a legal execution of `m`
    /// starting from its recorded initial state (only for
    /// [`StatePolicy::Full`] recordings).
    #[must_use]
    pub fn is_legal(&self, m: &M) -> bool {
        if self.policy != StatePolicy::Full || self.states.len() != self.actions.len() + 1 {
            return false;
        }
        for (k, a) in self.actions.iter().enumerate() {
            match m.step(&self.states[k], a) {
                Some(next) if next == self.states[k + 1] => {}
                _ => return false,
            }
        }
        true
    }
}

/// Extract the trace (external actions of `m`) from a schedule.
#[must_use]
pub fn trace_of<M: Automaton>(m: &M, schedule: &[M::Action]) -> Vec<M::Action> {
    schedule
        .iter()
        .filter(|a| m.is_external(a))
        .cloned()
        .collect()
}

/// Extract the output events of `m` from a schedule.
#[must_use]
pub fn outputs_of<M: Automaton>(m: &M, schedule: &[M::Action]) -> Vec<M::Action> {
    schedule
        .iter()
        .filter(|a| m.classify(a) == Some(ActionClass::Output))
        .cloned()
        .collect()
}

/// Apply a schedule to `m` from state `s` (§2.2 "applicable"). Returns
/// the resulting execution, or `None` if some event is not applicable.
#[must_use]
pub fn apply_schedule<M: Automaton>(
    m: &M,
    s0: M::State,
    schedule: &[M::Action],
) -> Option<Execution<M>> {
    let mut exec = Execution::null(s0);
    for a in schedule {
        if !exec.apply(m, a.clone()) {
            return None;
        }
    }
    Some(exec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::automaton::{ActionClass, TaskId};

    #[derive(Debug, Clone)]
    struct Toggler;

    #[derive(Debug, Clone, PartialEq, Eq, Hash)]
    enum Act {
        Flip,
        Noise,
    }

    impl Automaton for Toggler {
        type Action = Act;
        type State = bool;
        fn name(&self) -> String {
            "toggler".into()
        }
        fn initial_state(&self) -> bool {
            false
        }
        fn classify(&self, a: &Act) -> Option<ActionClass> {
            match a {
                Act::Flip => Some(ActionClass::Output),
                Act::Noise => Some(ActionClass::Internal),
            }
        }
        fn task_count(&self) -> usize {
            2
        }
        fn enabled(&self, _s: &bool, t: TaskId) -> Option<Act> {
            match t.0 {
                0 => Some(Act::Flip),
                1 => Some(Act::Noise),
                _ => None,
            }
        }
        fn apply(&self, s: &mut bool, a: &Act) -> bool {
            if *a == Act::Flip {
                *s = !*s;
            }
            true
        }
    }

    fn sample() -> Execution<Toggler> {
        apply_schedule(&Toggler, false, &[Act::Flip, Act::Noise, Act::Flip]).unwrap()
    }

    #[test]
    fn null_execution_shape() {
        let e = Execution::<Toggler>::null(false);
        assert!(e.is_empty());
        assert_eq!(e.len(), 0);
        assert!(!(*e.last_state()));
    }

    #[test]
    fn apply_schedule_builds_alternating_sequence() {
        let e = sample();
        assert_eq!(e.states, vec![false, true, true, false]);
        assert_eq!(e.len(), 3);
        assert!(e.is_legal(&Toggler));
    }

    #[test]
    fn trace_filters_internal_events() {
        let e = sample();
        assert_eq!(e.trace(&Toggler), vec![Act::Flip, Act::Flip]);
        assert_eq!(e.schedule().len(), 3);
    }

    #[test]
    fn projection_by_predicate() {
        let e = sample();
        assert_eq!(e.project(|a| *a == Act::Noise), vec![Act::Noise]);
    }

    #[test]
    fn concat_matches_junction() {
        let e1 = apply_schedule(&Toggler, false, &[Act::Flip]).unwrap();
        let e2 = apply_schedule(&Toggler, true, &[Act::Flip]).unwrap();
        let e = e1.concat(e2).unwrap();
        assert_eq!(e.states, vec![false, true, false]);
        assert!(e.is_legal(&Toggler));
    }

    #[test]
    fn concat_rejects_mismatched_junction() {
        let e1 = apply_schedule(&Toggler, false, &[Act::Flip]).unwrap();
        let e_bad = apply_schedule(&Toggler, false, &[Act::Flip]).unwrap();
        assert!(e1.concat(e_bad).is_err());
    }

    #[test]
    fn endpoints_policy_keeps_two_states() {
        let mut e: Execution<Toggler> = Execution::null(false);
        e.policy = StatePolicy::Endpoints;
        for _ in 0..3 {
            assert!(e.apply(&Toggler, Act::Flip));
        }
        assert_eq!(e.states, vec![false, true], "start state and final state");
        assert_eq!(e.len(), 3);
    }

    /// Accepts `Flip` only from `false`.
    #[derive(Debug, Clone)]
    struct Once;

    impl Automaton for Once {
        type Action = Act;
        type State = bool;
        fn name(&self) -> String {
            "once".into()
        }
        fn initial_state(&self) -> bool {
            false
        }
        fn classify(&self, a: &Act) -> Option<ActionClass> {
            (*a == Act::Flip).then_some(ActionClass::Output)
        }
        fn task_count(&self) -> usize {
            1
        }
        fn enabled(&self, s: &bool, _t: TaskId) -> Option<Act> {
            (!*s).then_some(Act::Flip)
        }
        fn apply(&self, s: &mut bool, a: &Act) -> bool {
            if *a != Act::Flip || *s {
                return false;
            }
            *s = true;
            true
        }
    }

    #[test]
    fn refused_apply_leaves_the_execution_untouched() {
        for policy in [StatePolicy::Full, StatePolicy::Endpoints] {
            let mut e: Execution<Once> = Execution::null(false);
            e.policy = policy;
            assert!(!e.apply(&Once, Act::Noise), "{policy:?}: foreign action");
            assert_eq!((e.states.clone(), e.len()), (vec![false], 0));
            assert!(e.apply(&Once, Act::Flip));
            assert!(!e.apply(&Once, Act::Flip), "{policy:?}: disabled action");
            assert_eq!((e.states, e.actions), (vec![false, true], vec![Act::Flip]));
        }
    }

    #[test]
    fn is_legal_detects_corruption() {
        let mut e = sample();
        e.states[1] = false; // corrupt
        assert!(!e.is_legal(&Toggler));
    }

    #[test]
    fn helpers_trace_and_outputs() {
        let sched = vec![Act::Flip, Act::Noise];
        assert_eq!(trace_of(&Toggler, &sched), vec![Act::Flip]);
        assert_eq!(outputs_of(&Toggler, &sched), vec![Act::Flip]);
    }

    #[test]
    fn apply_schedule_rejects_inapplicable() {
        assert!(apply_schedule(&Once, false, &[Act::Flip]).is_some());
        assert!(apply_schedule(&Once, false, &[Act::Flip, Act::Flip]).is_none());
    }
}
