//! Driving an automaton with a scheduler to produce executions.

use crate::automaton::{Automaton, TaskId};
use crate::execution::{Execution, StatePolicy};
use crate::scheduler::Scheduler;

/// Why a run stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// The scheduler returned `None` with no task enabled: a quiescent
    /// state, so the finite execution is fair (§2.4 condition 1).
    Quiescent,
    /// The scheduler declined to continue although tasks were enabled.
    SchedulerDone,
    /// The `max_steps` budget was exhausted.
    Budget,
    /// The caller's stop predicate fired.
    Predicate,
}

/// Options controlling a run.
pub struct RunOptions<M: Automaton> {
    /// Maximum number of events to perform.
    pub max_steps: usize,
    /// Record all states or only endpoints.
    pub policy: StatePolicy,
    /// Optional early-stop predicate over (current state, schedule so far).
    #[allow(clippy::type_complexity)]
    pub stop_when: Option<Box<dyn Fn(&M::State, &[M::Action]) -> bool>>,
}

impl<M: Automaton> Default for RunOptions<M> {
    fn default() -> Self {
        RunOptions {
            max_steps: 100_000,
            policy: StatePolicy::Full,
            stop_when: None,
        }
    }
}

impl<M: Automaton> std::fmt::Debug for RunOptions<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RunOptions")
            .field("max_steps", &self.max_steps)
            .field("policy", &self.policy)
            .field("stop_when", &self.stop_when.is_some())
            .finish()
    }
}

impl<M: Automaton> RunOptions<M> {
    /// Set the step budget.
    #[must_use]
    pub fn with_max_steps(mut self, n: usize) -> Self {
        self.max_steps = n;
        self
    }

    /// Record only endpoint states (cheap long runs).
    #[must_use]
    pub fn endpoints_only(mut self) -> Self {
        self.policy = StatePolicy::Endpoints;
        self
    }

    /// Stop as soon as `pred(state, schedule)` holds.
    #[must_use]
    pub fn stop_when<F>(mut self, pred: F) -> Self
    where
        F: Fn(&M::State, &[M::Action]) -> bool + 'static,
    {
        self.stop_when = Some(Box::new(pred));
        self
    }
}

/// The result of a run: the execution plus the stop reason.
#[derive(Debug, Clone)]
pub struct RunOutcome<M: Automaton> {
    /// The recorded execution.
    pub execution: Execution<M>,
    /// Why the run stopped.
    pub reason: StopReason,
}

/// Drives an [`Automaton`] with a [`Scheduler`].
#[derive(Debug)]
pub struct Runner<'m, M: Automaton> {
    machine: &'m M,
}

impl<'m, M: Automaton> Runner<'m, M> {
    /// A runner for `machine`.
    #[must_use]
    pub fn new(machine: &'m M) -> Self {
        Runner { machine }
    }

    /// Run from the initial state until quiescence, budget exhaustion,
    /// scheduler refusal, or the stop predicate. Returns the execution.
    pub fn run<S: Scheduler<M>>(&self, scheduler: &mut S, opts: RunOptions<M>) -> Execution<M> {
        self.run_detailed(scheduler, opts).execution
    }

    /// Like [`Runner::run`] but also reports why the run stopped.
    pub fn run_detailed<S: Scheduler<M>>(
        &self,
        scheduler: &mut S,
        opts: RunOptions<M>,
    ) -> RunOutcome<M> {
        self.run_from(self.machine.initial_state(), scheduler, opts)
    }

    /// Run from an arbitrary start state (used to extend executions).
    pub fn run_from<S: Scheduler<M>>(
        &self,
        start: M::State,
        scheduler: &mut S,
        opts: RunOptions<M>,
    ) -> RunOutcome<M> {
        let m = self.machine;
        let mut exec: Execution<M> = Execution::null(start);
        exec.policy = opts.policy;
        let mut reason = StopReason::Budget;
        for step in 0..opts.max_steps {
            if let Some(pred) = &opts.stop_when {
                if pred(exec.last_state(), &exec.actions) {
                    reason = StopReason::Predicate;
                    break;
                }
            }
            let Some(t) = scheduler.next_task(m, exec.last_state(), step) else {
                reason = if m.any_task_enabled(exec.last_state()) {
                    StopReason::SchedulerDone
                } else {
                    StopReason::Quiescent
                };
                break;
            };
            let a = match m.enabled(exec.last_state(), t) {
                Some(a) => a,
                None => {
                    debug_assert!(false, "scheduler chose disabled task {t}");
                    reason = StopReason::SchedulerDone;
                    break;
                }
            };
            let applied = exec.apply(m, a);
            assert!(applied, "enabled action must apply");
        }
        // Final predicate check so `Predicate` is reported even when the
        // condition becomes true on the last budgeted step.
        if reason == StopReason::Budget {
            if let Some(pred) = &opts.stop_when {
                if pred(exec.last_state(), &exec.actions) {
                    reason = StopReason::Predicate;
                }
            }
        }
        RunOutcome {
            execution: exec,
            reason,
        }
    }
}

/// Run `machine` with per-step task choices supplied explicitly (useful
/// in tests that need one exact interleaving).
#[must_use]
pub fn run_script<M: Automaton>(machine: &M, tasks: &[TaskId]) -> Option<Execution<M>> {
    let mut exec = Execution::null(machine.initial_state());
    for &t in tasks {
        let a = machine.enabled(exec.last_state(), t)?;
        if !exec.apply(machine, a) {
            return None;
        }
    }
    Some(exec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::automaton::ActionClass;
    use crate::scheduler::RoundRobin;

    #[derive(Debug, Clone)]
    struct UpTo {
        limit: u64,
    }

    #[derive(Debug, Clone, PartialEq, Eq, Hash)]
    struct Tick;

    impl Automaton for UpTo {
        type Action = Tick;
        type State = u64;
        fn name(&self) -> String {
            "upto".into()
        }
        fn initial_state(&self) -> u64 {
            0
        }
        fn classify(&self, _a: &Tick) -> Option<ActionClass> {
            Some(ActionClass::Output)
        }
        fn task_count(&self) -> usize {
            1
        }
        fn enabled(&self, s: &u64, _t: TaskId) -> Option<Tick> {
            (*s < self.limit).then_some(Tick)
        }
        fn apply(&self, s: &mut u64, _a: &Tick) -> bool {
            if *s >= self.limit {
                return false;
            }
            *s += 1;
            true
        }
    }

    #[test]
    fn runs_to_quiescence() {
        let m = UpTo { limit: 5 };
        let out = Runner::new(&m).run_detailed(&mut RoundRobin::new(), RunOptions::default());
        assert_eq!(out.reason, StopReason::Quiescent);
        assert_eq!(out.execution.len(), 5);
        assert_eq!(*out.execution.last_state(), 5);
        assert!(out.execution.is_legal(&m));
    }

    #[test]
    fn respects_budget() {
        let m = UpTo { limit: 1000 };
        let out = Runner::new(&m).run_detailed(
            &mut RoundRobin::new(),
            RunOptions::default().with_max_steps(10),
        );
        assert_eq!(out.reason, StopReason::Budget);
        assert_eq!(out.execution.len(), 10);
    }

    #[test]
    fn stop_predicate_fires() {
        let m = UpTo { limit: 1000 };
        let out = Runner::new(&m).run_detailed(
            &mut RoundRobin::new(),
            RunOptions::default().stop_when(|s, _| *s >= 3),
        );
        assert_eq!(out.reason, StopReason::Predicate);
        assert_eq!(*out.execution.last_state(), 3);
    }

    #[test]
    fn endpoints_policy_truncates_states() {
        let m = UpTo { limit: 100 };
        let out = Runner::new(&m).run_detailed(
            &mut RoundRobin::new(),
            RunOptions::default().endpoints_only(),
        );
        assert_eq!(out.execution.states.len(), 2);
        assert_eq!(*out.execution.last_state(), 100);
    }

    #[test]
    fn run_from_continues_a_state() {
        let m = UpTo { limit: 10 };
        let out = Runner::new(&m).run_from(7, &mut RoundRobin::new(), RunOptions::default());
        assert_eq!(out.execution.len(), 3);
    }

    #[test]
    fn run_script_follows_exact_tasks() {
        let m = UpTo { limit: 2 };
        let exec = run_script(&m, &[TaskId(0), TaskId(0)]).unwrap();
        assert_eq!(exec.len(), 2);
        assert!(run_script(&m, &[TaskId(0), TaskId(0), TaskId(0)]).is_none());
    }
}
