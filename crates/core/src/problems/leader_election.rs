//! The leader-election problem (bounded leader *agreement*) — a bounded
//! problem (§7.3) used alongside consensus in the Theorem 21
//! experiments.
//!
//! Our version: each location may announce at most one leader via
//! [`crate::action::Action::Elect`]; in complete runs every live
//! location announces exactly once and all announcements agree. There
//! is deliberately no "leader stays live" clause: no algorithm can
//! promise anything about crashes that happen *after* its
//! announcements, and the bounded (one-shot) flavor is exactly what
//! §7.3 needs. The only inputs are the crash actions.

use ioa::{ActionClass, Automaton, TaskId};

use crate::action::Action;
use crate::loc::{Loc, LocSet, Pi};
use crate::problem::ProblemSpec;
use crate::trace::{live, Violation};

/// The leader-election problem.
#[derive(Debug, Clone, Copy, Default)]
pub struct LeaderElection;

impl LeaderElection {
    /// A new leader-election specification.
    #[must_use]
    pub fn new() -> Self {
        LeaderElection
    }

    /// The announced leader, if any announcement occurred.
    #[must_use]
    pub fn elected(t: &[Action]) -> Option<Loc> {
        t.iter().find_map(|a| match a {
            Action::Elect { leader, .. } => Some(*leader),
            _ => None,
        })
    }
}

impl ProblemSpec for LeaderElection {
    fn name(&self) -> String {
        "leader-election".into()
    }

    fn is_input(&self, a: &Action) -> bool {
        a.is_crash()
    }

    fn is_output(&self, a: &Action) -> bool {
        matches!(a, Action::Elect { .. })
    }

    fn check(&self, pi: Pi, t: &[Action]) -> Result<(), Violation> {
        let alive = live(pi, t);
        let mut announced = vec![0usize; pi.len()];
        let mut crashed = LocSet::empty();
        let mut leader: Option<Loc> = None;
        for (k, a) in t.iter().enumerate() {
            match a {
                Action::Crash(l) => crashed.insert(*l),
                Action::Elect { at, leader: l } => {
                    if crashed.contains(*at) {
                        return Err(Violation::new(
                            "le.crash-validity",
                            format!("elect at crashed {at} (index {k})"),
                        ));
                    }
                    announced[at.index()] += 1;
                    if announced[at.index()] > 1 {
                        return Err(Violation::new(
                            "le.single-announcement",
                            format!("{at} announces twice"),
                        ));
                    }
                    match leader {
                        None => leader = Some(*l),
                        Some(prev) if prev != *l => {
                            return Err(Violation::new(
                                "le.agreement",
                                format!("leaders {prev} and {l} both announced"),
                            ))
                        }
                        _ => {}
                    }
                }
                _ => {}
            }
        }
        for i in alive.iter() {
            if announced[i.index()] == 0 {
                return Err(Violation::new(
                    "le.termination",
                    format!("live location {i} never announces"),
                ));
            }
        }
        Ok(())
    }

    fn output_bound(&self, pi: Pi) -> Option<usize> {
        Some(pi.len())
    }
}

/// Canonical centralized solver for leader election: announce `p0`
/// everywhere — with no crash-derived gating except disabling outputs at
/// crashed locations, so it is crash independent.
///
/// Note this `U` *solves* the problem only in runs where `p0` stays
/// live; as the paper's non-triviality clause requires, its fair-trace
/// set is contained in `T_P` restricted to such fault patterns, which is
/// all the bounded-witness machinery needs (the witness is about
/// *shape*: crash independence + bounded outputs).
#[derive(Debug, Clone, Copy)]
pub struct LeaderElectionSolver {
    /// The universe.
    pub pi: Pi,
}

/// State of [`LeaderElectionSolver`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct LeaderElectionSolverState {
    /// Locations that announced.
    pub announced: LocSet,
    /// Locations observed crashed.
    pub crashed: LocSet,
}

impl LeaderElectionSolver {
    /// A canonical solver over `pi`.
    #[must_use]
    pub fn new(pi: Pi) -> Self {
        LeaderElectionSolver { pi }
    }
}

impl Automaton for LeaderElectionSolver {
    type Action = Action;
    type State = LeaderElectionSolverState;

    fn name(&self) -> String {
        "U-leader-election".into()
    }

    fn initial_state(&self) -> LeaderElectionSolverState {
        LeaderElectionSolverState {
            announced: LocSet::empty(),
            crashed: LocSet::empty(),
        }
    }

    fn classify(&self, a: &Action) -> Option<ActionClass> {
        match a {
            Action::Crash(_) => Some(ActionClass::Input),
            Action::Elect { .. } => Some(ActionClass::Output),
            _ => None,
        }
    }

    fn task_count(&self) -> usize {
        self.pi.len()
    }

    fn enabled(&self, s: &LeaderElectionSolverState, t: TaskId) -> Option<Action> {
        let i = Loc(u8::try_from(t.0).ok()?);
        if !self.pi.contains(i) || s.announced.contains(i) || s.crashed.contains(i) {
            return None;
        }
        Some(Action::Elect {
            at: i,
            leader: Loc(0),
        })
    }

    fn apply(&self, s: &mut LeaderElectionSolverState, a: &Action) -> bool {
        match a {
            Action::Crash(l) => s.crashed.insert(*l),
            Action::Elect { at, leader }
                if *leader == Loc(0) && !s.announced.contains(*at) && !s.crashed.contains(*at) =>
            {
                s.announced.insert(*at);
            }
            _ => return false,
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::{check_crash_independence, BoundedWitness};

    fn el(at: u8, leader: u8) -> Action {
        Action::Elect {
            at: Loc(at),
            leader: Loc(leader),
        }
    }

    #[test]
    fn accepts_unanimous_live_leader() {
        let pi = Pi::new(3);
        let t = vec![el(0, 1), el(1, 1), el(2, 1)];
        assert!(LeaderElection.check(pi, &t).is_ok());
        assert_eq!(LeaderElection::elected(&t), Some(Loc(1)));
    }

    #[test]
    fn rejects_disagreement() {
        let pi = Pi::new(2);
        let t = vec![el(0, 0), el(1, 1)];
        assert_eq!(
            LeaderElection.check(pi, &t).unwrap_err().rule,
            "le.agreement"
        );
    }

    #[test]
    fn leader_may_crash_after_announcement() {
        // No liveness-of-leader clause: announcing p1 and having p1
        // crash later is fine.
        let pi = Pi::new(2);
        let t = vec![el(0, 1), el(1, 1), Action::Crash(Loc(1))];
        assert!(LeaderElection.check(pi, &t).is_ok());
    }

    #[test]
    fn rejects_double_announcement_and_silence() {
        let pi = Pi::new(2);
        let t = vec![el(0, 0), el(0, 0), el(1, 0)];
        assert_eq!(
            LeaderElection.check(pi, &t).unwrap_err().rule,
            "le.single-announcement"
        );
        let silent = vec![el(0, 0)];
        assert_eq!(
            LeaderElection.check(pi, &silent).unwrap_err().rule,
            "le.termination"
        );
    }

    #[test]
    fn rejects_announcement_after_crash() {
        let pi = Pi::new(2);
        let t = vec![Action::Crash(Loc(0)), el(0, 1), el(1, 1)];
        assert_eq!(
            LeaderElection.check(pi, &t).unwrap_err().rule,
            "le.crash-validity"
        );
    }

    #[test]
    fn solver_is_bounded_and_crash_independent() {
        let pi = Pi::new(3);
        let u = LeaderElectionSolver::new(pi);
        let t = vec![el(0, 0), Action::Crash(Loc(2)), el(1, 0)];
        assert!(check_crash_independence(&u, &t).is_ok());
        let w = BoundedWitness {
            spec: &LeaderElection,
            solver: &u,
            bound: pi.len(),
        };
        assert!(w.verify(&[t]).is_ok());
    }

    #[test]
    fn solver_quiesces() {
        let pi = Pi::new(2);
        let u = LeaderElectionSolver::new(pi);
        let mut s = u.initial_state();
        for i in 0..2 {
            let a = u.enabled(&s, TaskId(i)).unwrap();
            s = u.step(&s, &a).unwrap();
        }
        assert!(!u.any_task_enabled(&s));
    }

    #[test]
    fn contract_checks_pass() {
        let pi = Pi::new(3);
        let u = LeaderElectionSolver::new(pi);
        ioa::check_task_determinism(&u, 50, 3).unwrap();
        let inputs: Vec<Action> = pi.iter().map(Action::Crash).collect();
        ioa::check_input_enabled(&u, &inputs, 50, 3).unwrap();
    }
}
