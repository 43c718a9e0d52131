//! Crash problems (§3.1) and bounded problems (§7.3).
//!
//! A problem `P = (I_P, O_P, T_P)` is represented by a [`ProblemSpec`]:
//! action classifiers for `I_P` and `O_P` plus a membership checker for
//! `T_P` over finite traces (complete-run convention, as for AFDs).
//!
//! §7.3's *bounded problems* are witnessed by a solver automaton `U`
//! that is **crash independent** and has **bounded length**; the probes
//! here check both properties of a candidate `U` dynamically.

use ioa::Automaton;

use crate::action::Action;
use crate::loc::Pi;
use crate::trace::Violation;

/// A crash problem distributed over Π (crash actions are always inputs).
pub trait ProblemSpec: std::fmt::Debug {
    /// Display name.
    fn name(&self) -> String;

    /// True iff `a ∈ I_P` (including the crash actions Î).
    fn is_input(&self, a: &Action) -> bool;

    /// True iff `a ∈ O_P`.
    fn is_output(&self, a: &Action) -> bool;

    /// Check `t|_{I_P ∪ O_P} ∈ T_P` under the complete-run convention.
    ///
    /// # Errors
    /// The first violated clause.
    fn check(&self, pi: Pi, t: &[Action]) -> Result<(), Violation>;

    /// `Some(b)`: in every trace, at most `b` output events occur (the
    /// *bounded length* constant of §7.3). `None` for long-lived
    /// problems.
    fn output_bound(&self, pi: Pi) -> Option<usize> {
        let _ = pi;
        None
    }
}

/// Projection of `t` onto `I_P ∪ O_P`.
#[must_use]
pub fn problem_projection(spec: &dyn ProblemSpec, t: &[Action]) -> Vec<Action> {
    t.iter()
        .filter(|a| spec.is_input(a) || spec.is_output(a))
        .copied()
        .collect()
}

/// Remove the crash events from `t` — the transformation crash
/// independence (§7.3) quantifies over.
#[must_use]
pub fn strip_crashes(t: &[Action]) -> Vec<Action> {
    t.iter().filter(|a| !a.is_crash()).copied().collect()
}

/// Check the *bounded length* property of a solver `U` for `spec`:
/// every provided trace has at most `bound` output events.
///
/// # Errors
/// Names the first trace exceeding the bound.
pub fn check_bounded_length(
    spec: &dyn ProblemSpec,
    traces: &[Vec<Action>],
    bound: usize,
) -> Result<(), Violation> {
    for (k, t) in traces.iter().enumerate() {
        let outs = t.iter().filter(|a| spec.is_output(a)).count();
        if outs > bound {
            return Err(Violation::new(
                "bounded.length",
                format!("trace #{k} has {outs} outputs > bound {bound}"),
            ));
        }
    }
    Ok(())
}

/// Check *crash independence* (§7.3) of a task-deterministic solver `U`
/// on a given finite trace `t` of `U`: `t` with crash events removed
/// must also be a trace of `U`.
///
/// The check replays the crash-free sequence against `U`: inputs are
/// always applicable; each output must be enabled when its turn comes.
/// This is exact for solvers whose outputs are task-deterministic
/// functions of the input history (all canonical solvers here are).
///
/// # Errors
/// Points at the first event of the crash-free replay that `U` refuses.
pub fn check_crash_independence<U>(u: &U, t: &[Action]) -> Result<(), Violation>
where
    U: Automaton<Action = Action>,
{
    let stripped = strip_crashes(t);
    let mut s = u.initial_state();
    for (k, a) in stripped.iter().enumerate() {
        match u.step(&s, a) {
            Some(next) => s = next,
            None => {
                return Err(Violation::new(
                    "bounded.crash-independence",
                    format!("crash-free replay refused event {a} at index {k}"),
                ))
            }
        }
    }
    Ok(())
}

/// A *bounded problem* certificate: the problem spec together with a
/// solver `U` witnessing crash independence and bounded length.
#[derive(Debug)]
pub struct BoundedWitness<'a, U> {
    /// The problem.
    pub spec: &'a dyn ProblemSpec,
    /// The witnessing solver automaton `U`.
    pub solver: &'a U,
    /// The bound `b` on output events.
    pub bound: usize,
}

impl<'a, U> BoundedWitness<'a, U>
where
    U: Automaton<Action = Action>,
{
    /// Verify the certificate against a batch of recorded traces of the
    /// solver.
    ///
    /// # Errors
    /// The first violated property.
    pub fn verify(&self, traces: &[Vec<Action>]) -> Result<(), Violation> {
        check_bounded_length(self.spec, traces, self.bound)?;
        for t in traces {
            check_crash_independence(self.solver, t)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loc::Loc;
    use ioa::{ActionClass, TaskId};

    /// A one-output toy problem: output `Decide(0)_p0` once.
    #[derive(Debug)]
    struct OneShot;

    impl ProblemSpec for OneShot {
        fn name(&self) -> String {
            "one-shot".into()
        }
        fn is_input(&self, a: &Action) -> bool {
            a.is_crash()
        }
        fn is_output(&self, a: &Action) -> bool {
            matches!(a, Action::Decide { .. })
        }
        fn check(&self, _pi: Pi, t: &[Action]) -> Result<(), Violation> {
            let outs = t.iter().filter(|a| self.is_output(a)).count();
            if outs <= 1 {
                Ok(())
            } else {
                Err(Violation::new("one-shot.multi", format!("{outs} outputs")))
            }
        }
        fn output_bound(&self, _pi: Pi) -> Option<usize> {
            Some(1)
        }
    }

    /// Canonical solver: decides 0 at p0 unless p0 crashed first.
    #[derive(Debug, Clone)]
    struct Solver;

    #[derive(Debug, Clone, PartialEq, Eq, Hash)]
    struct SolverState {
        decided: bool,
        crashed: bool,
    }

    impl Automaton for Solver {
        type Action = Action;
        type State = SolverState;
        fn name(&self) -> String {
            "solver".into()
        }
        fn initial_state(&self) -> SolverState {
            SolverState {
                decided: false,
                crashed: false,
            }
        }
        fn classify(&self, a: &Action) -> Option<ActionClass> {
            match a {
                Action::Crash(_) => Some(ActionClass::Input),
                Action::Decide { .. } => Some(ActionClass::Output),
                _ => None,
            }
        }
        fn task_count(&self) -> usize {
            1
        }
        fn enabled(&self, s: &SolverState, _t: TaskId) -> Option<Action> {
            (!s.decided && !s.crashed).then_some(Action::Decide { at: Loc(0), v: 0 })
        }
        fn apply(&self, s: &mut SolverState, a: &Action) -> bool {
            match a {
                Action::Crash(l) => s.crashed |= *l == Loc(0),
                Action::Decide { at, v }
                    if *at == Loc(0) && *v == 0 && !s.decided && !s.crashed =>
                {
                    s.decided = true;
                }
                _ => return false,
            }
            true
        }
    }

    #[test]
    fn projection_and_strip() {
        let t = vec![
            Action::Crash(Loc(0)),
            Action::Decide { at: Loc(0), v: 0 },
            Action::Query { at: Loc(0) },
        ];
        assert_eq!(problem_projection(&OneShot, &t).len(), 2);
        assert_eq!(strip_crashes(&t).len(), 2);
    }

    #[test]
    fn bounded_length_check() {
        let ok = vec![vec![Action::Decide { at: Loc(0), v: 0 }]];
        assert!(check_bounded_length(&OneShot, &ok, 1).is_ok());
        let bad = vec![vec![
            Action::Decide { at: Loc(0), v: 0 },
            Action::Decide { at: Loc(0), v: 0 },
        ]];
        let err = check_bounded_length(&OneShot, &bad, 1).unwrap_err();
        assert_eq!(err.rule, "bounded.length");
    }

    #[test]
    fn crash_independence_of_canonical_solver() {
        // A trace where p0 crashes *after* deciding: crash-free replay works.
        let t = vec![Action::Decide { at: Loc(0), v: 0 }, Action::Crash(Loc(0))];
        assert!(check_crash_independence(&Solver, &t).is_ok());
        // A trace where p0 crashes before deciding (so no output): the
        // crash-free version (empty of outputs) also replays fine.
        let t2 = vec![Action::Crash(Loc(0))];
        assert!(check_crash_independence(&Solver, &t2).is_ok());
    }

    #[test]
    fn crash_dependent_behavior_detected() {
        /// A solver that decides only *after* seeing a crash — not crash
        /// independent.
        #[derive(Debug, Clone)]
        struct CrashDependent;

        impl Automaton for CrashDependent {
            type Action = Action;
            type State = (bool, bool); // (saw_crash, decided)
            fn name(&self) -> String {
                "crash-dependent".into()
            }
            fn initial_state(&self) -> (bool, bool) {
                (false, false)
            }
            fn classify(&self, a: &Action) -> Option<ActionClass> {
                match a {
                    Action::Crash(_) => Some(ActionClass::Input),
                    Action::Decide { .. } => Some(ActionClass::Output),
                    _ => None,
                }
            }
            fn task_count(&self) -> usize {
                1
            }
            fn enabled(&self, s: &(bool, bool), _t: TaskId) -> Option<Action> {
                (s.0 && !s.1).then_some(Action::Decide { at: Loc(0), v: 0 })
            }
            fn apply(&self, s: &mut (bool, bool), a: &Action) -> bool {
                match a {
                    Action::Crash(_) => s.0 = true,
                    Action::Decide { .. } if s.0 && !s.1 => s.1 = true,
                    _ => return false,
                }
                true
            }
        }

        let t = vec![Action::Crash(Loc(1)), Action::Decide { at: Loc(0), v: 0 }];
        let err = check_crash_independence(&CrashDependent, &t).unwrap_err();
        assert_eq!(err.rule, "bounded.crash-independence");
    }

    #[test]
    fn bounded_witness_verifies() {
        let traces = vec![
            vec![Action::Decide { at: Loc(0), v: 0 }],
            vec![Action::Crash(Loc(1)), Action::Decide { at: Loc(0), v: 0 }],
        ];
        let w = BoundedWitness {
            spec: &OneShot,
            solver: &Solver,
            bound: 1,
        };
        assert!(w.verify(&traces).is_ok());
    }
}
