//! The simulation driver: produce fair executions of a [`System`] under
//! a chosen scheduler and fault pattern.
//!
//! The driver owns crash timing: at the global steps a
//! [`FaultPattern`] dictates, it injects the `crash_i` event by stepping
//! the composition directly (the crash automaton has no tasks, matching
//! the paper's "every sequence over Î is fair"). All other steps come
//! from the scheduler, so the produced executions are fair modulo the
//! finite cutoff.
//!
//! Every event goes through [`Execution::apply`]: by default it steps
//! the final state in place, only the event's participants (found in the
//! composition's index) run, and nothing is cloned.
//! [`SimConfig::record_states`] keeps every state at one clone per event.

use std::sync::Arc;

use afd_core::{Action, Loc, Stamped};
use afd_obs::Observer;
use ioa::{fairness_report, Automaton, Execution, FairnessReport, Scheduler, StatePolicy};

use crate::crash::FaultPattern;
use crate::system::System;

/// Result of a simulation run.
#[derive(Debug)]
pub struct SimOutcome<P>
where
    P: Automaton<Action = Action>,
{
    /// The recorded execution of the composition.
    pub execution: Execution<ioa::Composition<crate::component::Component<P>>>,
    /// Steps actually performed.
    pub steps: usize,
    /// True iff the run ended in a quiescent state.
    pub quiescent: bool,
}

impl<P> SimOutcome<P>
where
    P: Automaton<Action = Action>,
{
    /// The schedule (all events).
    #[must_use]
    pub fn schedule(&self) -> &[Action] {
        &self.execution.actions
    }

    /// Projection helpers: events satisfying `keep`.
    #[must_use]
    pub fn project<F: Fn(&Action) -> bool>(&self, keep: F) -> Vec<Action> {
        self.execution
            .actions
            .iter()
            .filter(|a| keep(a))
            .copied()
            .collect()
    }

    /// Fairness report of the run.
    #[must_use]
    pub fn fairness(&self, sys: &System<P>) -> FairnessReport {
        fairness_report(&sys.composition, &self.execution)
    }
}

/// Simulation configuration.
pub struct SimConfig<P>
where
    P: Automaton<Action = Action>,
{
    /// When each scripted crash fires (global event index).
    pub faults: FaultPattern,
    /// Maximum number of events.
    pub max_steps: usize,
    /// Record all states or endpoints only.
    pub policy: StatePolicy,
    /// Early-stop predicate over the schedule so far.
    #[allow(clippy::type_complexity)]
    pub stop_when: Option<Box<dyn Fn(&[Action]) -> bool>>,
    /// Optional observer notified at every committed action (and once at
    /// stop). `None` — the default — costs nothing on the hot path.
    ///
    /// Simulator commits are stamped with [`Stamped::logical`] (no wall
    /// clock), so anything exported from an observer here is a pure
    /// function of the schedule.
    pub observer: Option<Arc<dyn Observer>>,
    _marker: std::marker::PhantomData<fn() -> P>,
}

impl<P> Default for SimConfig<P>
where
    P: Automaton<Action = Action>,
{
    fn default() -> Self {
        SimConfig {
            faults: FaultPattern::none(),
            max_steps: 50_000,
            policy: StatePolicy::Endpoints,
            stop_when: None,
            observer: None,
            _marker: std::marker::PhantomData,
        }
    }
}

impl<P> std::fmt::Debug for SimConfig<P>
where
    P: Automaton<Action = Action>,
{
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimConfig")
            .field("faults", &self.faults)
            .field("max_steps", &self.max_steps)
            .field("policy", &self.policy)
            .field("stop_when", &self.stop_when.is_some())
            .field("observer", &self.observer.is_some())
            .finish()
    }
}

impl<P> SimConfig<P>
where
    P: Automaton<Action = Action>,
{
    /// Set the fault pattern.
    #[must_use]
    pub fn with_faults(mut self, faults: FaultPattern) -> Self {
        self.faults = faults;
        self
    }

    /// Set the step budget.
    #[must_use]
    pub fn with_max_steps(mut self, n: usize) -> Self {
        self.max_steps = n;
        self
    }

    /// Record full state sequences (needed by fairness gap analysis and
    /// the execution tree).
    #[must_use]
    pub fn record_states(mut self) -> Self {
        self.policy = StatePolicy::Full;
        self
    }

    /// Stop once `pred(schedule)` holds.
    #[must_use]
    pub fn stop_when<F>(mut self, pred: F) -> Self
    where
        F: Fn(&[Action]) -> bool + 'static,
    {
        self.stop_when = Some(Box::new(pred));
        self
    }

    /// Attach an observer, notified synchronously at every commit.
    #[must_use]
    pub fn with_observer(mut self, obs: Arc<dyn Observer>) -> Self {
        self.observer = Some(obs);
        self
    }
}

/// Run `sys` under `scheduler` and `config`.
///
/// The fault pattern's `(step, loc)` entries fire when the global event
/// count reaches `step` (clamped to the script order of the crash
/// adversary: entries must be sorted consistently, which
/// [`crate::system::SystemBuilder::with_crashes`] and
/// [`FaultPattern::at`] guarantee when derived from the same list).
pub fn run_sim<P, S>(sys: &System<P>, scheduler: &mut S, config: SimConfig<P>) -> SimOutcome<P>
where
    P: Automaton<Action = Action>,
    S: Scheduler<ioa::Composition<crate::component::Component<P>>>,
{
    let m = &sys.composition;
    let mut exec = Execution::null(m.initial_state());
    exec.policy = config.policy;
    let mut pending = config.faults.crashes.clone();
    let mut quiescent = false;
    let mut steps = 0usize;
    while steps < config.max_steps {
        if let Some(pred) = &config.stop_when {
            if pred(&exec.actions) {
                break;
            }
        }
        // Scripted crash due?
        if let Some(&(when, loc)) = pending.first() {
            if exec.actions.len() >= when {
                let a = Action::Crash(loc);
                if exec.apply(m, a) {
                    if let Some(obs) = &config.observer {
                        afd_obs::dispatch(
                            obs.as_ref(),
                            Stamped::logical(exec.actions.len() as u64 - 1, a),
                        );
                    }
                    pending.remove(0);
                    steps += 1;
                    continue;
                }
                // Crash not accepted (script mismatch): drop it.
                pending.remove(0);
                continue;
            }
        }
        let Some(t) = scheduler.next_task(m, exec.last_state(), steps) else {
            quiescent = !m.any_task_enabled(exec.last_state());
            break;
        };
        let Some(a) = m.enabled(exec.last_state(), t) else {
            break;
        };
        let applied = exec.apply(m, a);
        assert!(applied, "enabled action applies");
        if let Some(obs) = &config.observer {
            afd_obs::dispatch(
                obs.as_ref(),
                Stamped::logical(exec.actions.len() as u64 - 1, a),
            );
        }
        steps += 1;
    }
    if steps >= config.max_steps || config.stop_when.is_some() {
        quiescent = !m.any_task_enabled(exec.last_state());
    }
    if let Some(obs) = &config.observer {
        let reason = if quiescent {
            "quiescent"
        } else if steps >= config.max_steps {
            "max_steps"
        } else {
            "stopped"
        };
        obs.on_stop(exec.actions.len() as u64, reason);
    }
    SimOutcome {
        execution: exec,
        steps,
        quiescent,
    }
}

/// Convenience: run with a seeded random-fair scheduler.
pub fn run_random<P>(sys: &System<P>, seed: u64, config: SimConfig<P>) -> SimOutcome<P>
where
    P: Automaton<Action = Action>,
{
    run_sim(sys, &mut ioa::RandomFair::new(seed), config)
}

/// Convenience: run with the round-robin scheduler.
pub fn run_round_robin<P>(sys: &System<P>, config: SimConfig<P>) -> SimOutcome<P>
where
    P: Automaton<Action = Action>,
{
    run_sim(sys, &mut ioa::RoundRobin::new(), config)
}

/// Schedule positions where crashes should fire so that a location
/// crashes "mid-protocol": helper for building interesting fault
/// patterns in tests and benches.
#[must_use]
pub fn crash_midway(locs: &[Loc], spacing: usize) -> FaultPattern {
    FaultPattern::at(
        locs.iter()
            .enumerate()
            .map(|(k, &l)| (spacing * (k + 1), l))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::environment::Env;
    use crate::system::SystemBuilder;
    use afd_core::afd::AfdSpec;
    use afd_core::afds::Omega;
    use afd_core::automata::FdGen;
    use afd_core::{Loc, Pi};
    use ioa::TaskId;

    /// A do-nothing process that only listens to its FD.
    #[derive(Debug, Clone)]
    struct Idle;

    impl crate::process::LocalBehavior for Idle {
        type State = u8;
        fn proto_name(&self) -> String {
            "idle".into()
        }
        fn init(&self, _i: Loc) -> u8 {
            0
        }
        fn is_input(&self, i: Loc, a: &Action) -> bool {
            matches!(a, Action::Receive { to, .. } if *to == i)
                || matches!(a, Action::Fd { at, .. } if *at == i)
        }
        fn is_output(&self, _i: Loc, _a: &Action) -> bool {
            false
        }
        fn on_input(&self, _i: Loc, _s: &mut u8, _a: &Action) {}
        fn output(&self, _i: Loc, _s: &u8) -> Option<Action> {
            None
        }
        fn on_output(&self, _i: Loc, _s: &mut u8, _a: &Action) {}
    }

    fn fd_system(n: usize) -> crate::system::System<crate::process::ProcessAutomaton<Idle>> {
        let pi = Pi::new(n);
        let procs = pi
            .iter()
            .map(|i| crate::process::ProcessAutomaton::new(i, Idle))
            .collect();
        SystemBuilder::new(pi, procs)
            .with_fd(FdGen::omega(pi))
            .with_env(Env::None)
            .with_crashes(vec![Loc(0)])
            .build()
    }

    #[test]
    fn sim_injects_crashes_at_scheduled_steps() {
        let sys = fd_system(3);
        let out = run_round_robin(
            &sys,
            SimConfig::default()
                .with_faults(FaultPattern::at(vec![(5, Loc(0))]))
                .with_max_steps(40),
        );
        let crash_pos = out.schedule().iter().position(|a| a.is_crash()).unwrap();
        assert_eq!(crash_pos, 5);
        assert_eq!(out.schedule()[5], Action::Crash(Loc(0)));
    }

    #[test]
    fn omega_system_trace_satisfies_t_omega_after_crash() {
        let sys = fd_system(3);
        let out = run_round_robin(
            &sys,
            SimConfig::default()
                .with_faults(FaultPattern::at(vec![(7, Loc(0))]))
                .with_max_steps(60),
        );
        let fd_trace = out.project(|a| a.is_crash() || a.is_fd_output());
        assert!(Omega.check_complete(sys.pi, &fd_trace).is_ok());
        assert_eq!(Omega.eventual_leader(sys.pi, &fd_trace), Some(Loc(1)));
    }

    #[test]
    fn random_scheduler_is_reproducible() {
        let sys = fd_system(2);
        let a = run_random(&sys, 42, SimConfig::default().with_max_steps(30));
        let b = run_random(&sys, 42, SimConfig::default().with_max_steps(30));
        assert_eq!(a.schedule(), b.schedule());
        let c = run_random(&sys, 43, SimConfig::default().with_max_steps(30));
        assert_ne!(a.schedule(), c.schedule(), "different seed, different run");
    }

    #[test]
    fn stop_predicate_halts_early() {
        let sys = fd_system(2);
        let out = run_round_robin(
            &sys,
            SimConfig::<crate::process::ProcessAutomaton<Idle>>::default()
                .stop_when(|sched| sched.len() >= 4)
                .with_max_steps(100),
        );
        assert_eq!(out.schedule().len(), 4);
    }

    #[test]
    fn unmatched_crash_is_dropped() {
        // Fault pattern names a location the adversary script lacks.
        let pi = Pi::new(2);
        let procs = pi
            .iter()
            .map(|i| crate::process::ProcessAutomaton::new(i, Idle))
            .collect();
        let sys = SystemBuilder::<crate::process::ProcessAutomaton<Idle>>::new(pi, procs)
            .with_fd(FdGen::omega(pi))
            .with_crashes(vec![]) // adversary allows no crashes
            .build();
        let out = run_round_robin(
            &sys,
            SimConfig::default()
                .with_faults(FaultPattern::at(vec![(2, Loc(0))]))
                .with_max_steps(20),
        );
        assert!(out.schedule().iter().all(|a| !a.is_crash()));
        assert_eq!(out.schedule().len(), 20);
    }

    #[test]
    fn fairness_report_via_outcome() {
        let sys = fd_system(2);
        let out = run_sim(
            &sys,
            &mut ioa::RoundRobin::new(),
            SimConfig::default().record_states().with_max_steps(20),
        );
        let rep = out.fairness(&sys);
        // FD tasks are perpetually enabled: not quiescent.
        assert!(!rep.quiescent);
        assert!(rep.worst_gap().unwrap() <= sys.composition.task_count());
    }

    #[test]
    fn crash_midway_builder() {
        let p = crash_midway(&[Loc(0), Loc(1)], 10);
        assert_eq!(p.crashes, vec![(10, Loc(0)), (20, Loc(1))]);
    }

    #[test]
    fn labels_cover_all_tasks() {
        let sys = fd_system(3);
        for t in 0..sys.composition.task_count() {
            let _ = sys.label(TaskId(t));
        }
    }
}
