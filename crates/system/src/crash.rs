//! The crash automaton (§4.4) and fault patterns.
//!
//! The paper's crash automaton has output actions `crash_i` and **every**
//! sequence over `Î` is one of its fair traces — it has no fairness
//! obligations of its own. We realize that freedom by giving
//! [`CrashAdversary`] *zero tasks*: fair schedulers never fire crashes
//! on their own; instead the simulation driver injects crash events at
//! the points a [`FaultPattern`] dictates, stepping the composition
//! directly. The adversary component validates that injected crashes
//! follow its scripted order.

use afd_core::{Action, Loc};
use ioa::{ActionClass, Automaton, TaskId};

/// A fault pattern: which locations crash, and after how many global
/// events. This is the executable analogue of the paper's fault
/// pattern `F` (§1: "the actual process crashes in the system").
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultPattern {
    /// `(step, loc)` pairs, sorted by step: at global event index
    /// `step`, `loc` crashes.
    pub crashes: Vec<(usize, Loc)>,
}

impl FaultPattern {
    /// The failure-free pattern.
    #[must_use]
    pub fn none() -> Self {
        FaultPattern::default()
    }

    /// Crash each listed location at the given global step.
    #[must_use]
    pub fn at(mut crashes: Vec<(usize, Loc)>) -> Self {
        crashes.sort_by_key(|&(s, _)| s);
        FaultPattern { crashes }
    }

    /// Crash `loc` at step `step` (builder style).
    #[must_use]
    pub fn and(mut self, step: usize, loc: Loc) -> Self {
        self.crashes.push((step, loc));
        self.crashes.sort_by_key(|&(s, _)| s);
        self
    }

    /// The locations that crash under this pattern.
    #[must_use]
    pub fn faulty(&self) -> Vec<Loc> {
        self.crashes.iter().map(|&(_, l)| l).collect()
    }

    /// Number of crashes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.crashes.len()
    }

    /// True iff failure-free.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.crashes.is_empty()
    }
}

/// The crash automaton: controller of the `crash_i` actions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrashAdversary {
    /// The scripted crash order (locations only; timing is the
    /// driver's business).
    pub script: Vec<Loc>,
}

/// State: how many scripted crashes have occurred.
pub type CrashState = usize;

impl CrashAdversary {
    /// An adversary that will crash the given locations in order.
    #[must_use]
    pub fn new(script: Vec<Loc>) -> Self {
        CrashAdversary { script }
    }

    /// The next location to crash, if any.
    #[must_use]
    pub fn pending(&self, s: &CrashState) -> Option<Loc> {
        self.script.get(*s).copied()
    }
}

impl Automaton for CrashAdversary {
    type Action = Action;
    type State = CrashState;

    fn name(&self) -> String {
        "crash-automaton".into()
    }

    fn initial_state(&self) -> CrashState {
        0
    }

    fn classify(&self, a: &Action) -> Option<ActionClass> {
        a.is_crash().then_some(ActionClass::Output)
    }

    /// Zero tasks: the crash automaton has no fairness obligations.
    fn task_count(&self) -> usize {
        0
    }

    fn enabled(&self, _s: &CrashState, _t: TaskId) -> Option<Action> {
        None
    }

    fn apply(&self, s: &mut CrashState, a: &Action) -> bool {
        match a {
            Action::Crash(l) if self.pending(s) == Some(*l) => {
                *s += 1;
                true
            }
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pattern_sorts_by_step() {
        let p = FaultPattern::at(vec![(9, Loc(1)), (3, Loc(0))]);
        assert_eq!(p.crashes, vec![(3, Loc(0)), (9, Loc(1))]);
        assert_eq!(p.faulty(), vec![Loc(0), Loc(1)]);
        assert_eq!(p.len(), 2);
        assert!(!p.is_empty());
        assert!(FaultPattern::none().is_empty());
    }

    #[test]
    fn builder_chains() {
        let p = FaultPattern::none().and(5, Loc(2)).and(1, Loc(0));
        assert_eq!(p.faulty(), vec![Loc(0), Loc(2)]);
    }

    #[test]
    fn adversary_follows_script() {
        let adv = CrashAdversary::new(vec![Loc(1), Loc(0)]);
        let s0 = adv.initial_state();
        assert_eq!(adv.pending(&s0), Some(Loc(1)));
        assert_eq!(adv.step(&s0, &Action::Crash(Loc(0))), None, "out of order");
        let s1 = adv.step(&s0, &Action::Crash(Loc(1))).unwrap();
        let s2 = adv.step(&s1, &Action::Crash(Loc(0))).unwrap();
        assert_eq!(adv.pending(&s2), None);
        assert_eq!(
            adv.step(&s2, &Action::Crash(Loc(0))),
            None,
            "script exhausted"
        );
    }

    #[test]
    fn no_tasks_no_fairness_obligation() {
        let adv = CrashAdversary::new(vec![Loc(0)]);
        assert_eq!(adv.task_count(), 0);
        assert!(!adv.any_task_enabled(&adv.initial_state()));
    }

    #[test]
    fn crash_actions_are_outputs() {
        let adv = CrashAdversary::new(vec![]);
        assert_eq!(
            adv.classify(&Action::Crash(Loc(3))),
            Some(ActionClass::Output)
        );
        assert_eq!(adv.classify(&Action::Query { at: Loc(0) }), None);
    }
}
