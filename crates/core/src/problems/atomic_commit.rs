//! Non-blocking atomic commit (NBAC) — the problem at the center of the
//! paper's §1.1 discussion of failure detectors that leak more than
//! crash information ([17, 18]).
//!
//! Inputs: [`crate::action::Action::Vote`] and crashes; outputs:
//! [`crate::action::Action::Verdict`]. Clauses (conditional on
//! vote-environment well-formedness and f-crash limitation, like §9.1):
//!
//! * **Agreement** — no two locations learn different verdicts.
//! * **Commit-validity** — `commit` only if *every* location voted yes.
//! * **Abort-validity** — `abort` only if some location voted no *or*
//!   some crash occurred.
//! * **Termination** — each location learns at most one verdict; every
//!   live location learns exactly one.
//! * **Crash validity** — no verdicts at crashed locations.

use ioa::{ActionClass, Automaton, TaskId};

use crate::action::Action;
use crate::loc::{Loc, LocSet, Pi};
use crate::problem::ProblemSpec;
use crate::trace::{faulty, live, Violation};

/// The NBAC problem tolerating up to `f` crashes.
#[derive(Debug, Clone, Copy)]
pub struct AtomicCommit {
    /// Crash-tolerance bound.
    pub f: usize,
}

impl AtomicCommit {
    /// NBAC with crash bound `f`.
    #[must_use]
    pub fn new(f: usize) -> Self {
        AtomicCommit { f }
    }

    /// Vote-environment well-formedness (mirrors §9.1): at most one
    /// vote per location, none after that location's crash, exactly one
    /// per live location.
    ///
    /// # Errors
    /// The first violated sub-clause.
    pub fn env_well_formed(pi: Pi, t: &[Action]) -> Result<(), Violation> {
        let mut voted = vec![0usize; pi.len()];
        let mut crashed = LocSet::empty();
        for a in t {
            match a {
                Action::Crash(l) => crashed.insert(*l),
                Action::Vote { at, .. } => {
                    voted[at.index()] += 1;
                    if voted[at.index()] > 1 {
                        return Err(Violation::new("env.single-input", format!("{at}")));
                    }
                    if crashed.contains(*at) {
                        return Err(Violation::new("env.vote-after-crash", format!("{at}")));
                    }
                }
                _ => {}
            }
        }
        for i in live(pi, t).iter() {
            if voted[i.index()] == 0 {
                return Err(Violation::new("env.live-must-vote", format!("{i}")));
            }
        }
        Ok(())
    }

    /// The verdict learned in `t`, if any.
    #[must_use]
    pub fn verdict(t: &[Action]) -> Option<bool> {
        t.iter().find_map(|a| match a {
            Action::Verdict { commit, .. } => Some(*commit),
            _ => None,
        })
    }
}

impl ProblemSpec for AtomicCommit {
    fn name(&self) -> String {
        format!("atomic-commit(f={})", self.f)
    }

    fn is_input(&self, a: &Action) -> bool {
        matches!(a, Action::Vote { .. } | Action::Crash(_))
    }

    fn is_output(&self, a: &Action) -> bool {
        matches!(a, Action::Verdict { .. })
    }

    fn check(&self, pi: Pi, t: &[Action]) -> Result<(), Violation> {
        if Self::env_well_formed(pi, t).is_err() || faulty(t).len() > self.f {
            return Ok(()); // antecedent fails: vacuously accepted
        }
        let mut crashed = LocSet::empty();
        let mut learned = vec![0usize; pi.len()];
        let mut verdicts: Vec<bool> = Vec::new();
        let mut yes_votes = 0usize;
        let mut any_no = false;
        for a in t {
            match a {
                Action::Crash(l) => crashed.insert(*l),
                Action::Vote { yes, .. } => {
                    if *yes {
                        yes_votes += 1;
                    } else {
                        any_no = true;
                    }
                }
                Action::Verdict { at, commit } => {
                    if crashed.contains(*at) {
                        return Err(Violation::new("nbac.crash-validity", format!("{at}")));
                    }
                    learned[at.index()] += 1;
                    if learned[at.index()] > 1 {
                        return Err(Violation::new("nbac.termination", format!("{at} twice")));
                    }
                    verdicts.push(*commit);
                }
                _ => {}
            }
        }
        // Agreement.
        if verdicts.iter().any(|&v| v != verdicts[0]) {
            return Err(Violation::new(
                "nbac.agreement",
                "mixed commit/abort verdicts",
            ));
        }
        if let Some(&commit) = verdicts.first() {
            if commit {
                // Commit-validity: every location voted yes.
                if yes_votes < pi.len() {
                    return Err(Violation::new(
                        "nbac.commit-validity",
                        format!("commit with only {yes_votes}/{} yes votes", pi.len()),
                    ));
                }
            } else {
                // Abort-validity: a no vote or a crash must exist.
                if !any_no && faulty(t).is_empty() {
                    return Err(Violation::new(
                        "nbac.abort-validity",
                        "abort with unanimous yes and no crashes",
                    ));
                }
            }
        }
        // Termination for live locations.
        for i in live(pi, t).iter() {
            if learned[i.index()] == 0 {
                return Err(Violation::new(
                    "nbac.termination",
                    format!("{i} never learns"),
                ));
            }
        }
        Ok(())
    }

    fn output_bound(&self, pi: Pi) -> Option<usize> {
        Some(pi.len())
    }
}

/// Canonical centralized solver witnessing that NBAC (with `f = 0`) is
/// a bounded problem: commit once all votes are yes, abort once any
/// vote is no; crashes only disable outputs (crash independence).
#[derive(Debug, Clone, Copy)]
pub struct AtomicCommitSolver {
    /// The universe.
    pub pi: Pi,
}

/// State of [`AtomicCommitSolver`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct AtomicCommitSolverState {
    /// Locations that voted yes.
    pub yes: LocSet,
    /// True once any no vote arrived.
    pub any_no: bool,
    /// Locations that learned the verdict.
    pub learned: LocSet,
    /// Locations observed crashed.
    pub crashed: LocSet,
}

impl AtomicCommitSolver {
    /// A canonical solver over `pi`.
    #[must_use]
    pub fn new(pi: Pi) -> Self {
        AtomicCommitSolver { pi }
    }

    fn outcome(&self, s: &AtomicCommitSolverState) -> Option<bool> {
        if s.any_no {
            Some(false)
        } else if s.yes == self.pi.all() {
            Some(true)
        } else {
            None
        }
    }
}

impl Automaton for AtomicCommitSolver {
    type Action = Action;
    type State = AtomicCommitSolverState;

    fn name(&self) -> String {
        "U-atomic-commit".into()
    }

    fn initial_state(&self) -> AtomicCommitSolverState {
        AtomicCommitSolverState {
            yes: LocSet::empty(),
            any_no: false,
            learned: LocSet::empty(),
            crashed: LocSet::empty(),
        }
    }

    fn classify(&self, a: &Action) -> Option<ActionClass> {
        match a {
            Action::Crash(_) | Action::Vote { .. } => Some(ActionClass::Input),
            Action::Verdict { .. } => Some(ActionClass::Output),
            _ => None,
        }
    }

    fn task_count(&self) -> usize {
        self.pi.len()
    }

    fn enabled(&self, s: &AtomicCommitSolverState, t: TaskId) -> Option<Action> {
        let i = Loc(u8::try_from(t.0).ok()?);
        if !self.pi.contains(i) || s.learned.contains(i) || s.crashed.contains(i) {
            return None;
        }
        self.outcome(s)
            .map(|commit| Action::Verdict { at: i, commit })
    }

    fn apply(&self, s: &mut AtomicCommitSolverState, a: &Action) -> bool {
        match a {
            Action::Crash(l) => s.crashed.insert(*l),
            Action::Vote { at, yes: true } => s.yes.insert(*at),
            Action::Vote { yes: false, .. } => s.any_no = true,
            Action::Verdict { at, commit }
                if !s.learned.contains(*at)
                    && !s.crashed.contains(*at)
                    && self.outcome(s) == Some(*commit) =>
            {
                s.learned.insert(*at);
            }
            _ => return false,
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::check_crash_independence;

    fn vote(at: u8, yes: bool) -> Action {
        Action::Vote { at: Loc(at), yes }
    }
    fn verdict(at: u8, commit: bool) -> Action {
        Action::Verdict {
            at: Loc(at),
            commit,
        }
    }

    #[test]
    fn unanimous_yes_commits() {
        let pi = Pi::new(2);
        let t = vec![
            vote(0, true),
            vote(1, true),
            verdict(0, true),
            verdict(1, true),
        ];
        assert!(AtomicCommit::new(0).check(pi, &t).is_ok());
        assert_eq!(AtomicCommit::verdict(&t), Some(true));
    }

    #[test]
    fn commit_without_unanimity_rejected() {
        let pi = Pi::new(2);
        let t = vec![
            vote(0, true),
            vote(1, false),
            verdict(0, true),
            verdict(1, true),
        ];
        assert_eq!(
            AtomicCommit::new(0).check(pi, &t).unwrap_err().rule,
            "nbac.commit-validity"
        );
    }

    #[test]
    fn abort_needs_a_reason() {
        let pi = Pi::new(2);
        let clean_abort = vec![
            vote(0, true),
            vote(1, true),
            verdict(0, false),
            verdict(1, false),
        ];
        assert_eq!(
            AtomicCommit::new(0)
                .check(pi, &clean_abort)
                .unwrap_err()
                .rule,
            "nbac.abort-validity"
        );
        // With a no vote: fine.
        let with_no = vec![
            vote(0, true),
            vote(1, false),
            verdict(0, false),
            verdict(1, false),
        ];
        assert!(AtomicCommit::new(0).check(pi, &with_no).is_ok());
        // With a crash (and f ≥ 1): fine.
        let with_crash = vec![vote(0, true), Action::Crash(Loc(1)), verdict(0, false)];
        assert!(AtomicCommit::new(1).check(pi, &with_crash).is_ok());
    }

    #[test]
    fn agreement_and_termination() {
        let pi = Pi::new(2);
        let mixed = vec![
            vote(0, true),
            vote(1, false),
            verdict(0, false),
            verdict(1, true),
        ];
        assert_eq!(
            AtomicCommit::new(0).check(pi, &mixed).unwrap_err().rule,
            "nbac.agreement"
        );
        let silent = vec![vote(0, true), vote(1, false), verdict(0, false)];
        assert_eq!(
            AtomicCommit::new(0).check(pi, &silent).unwrap_err().rule,
            "nbac.termination"
        );
    }

    #[test]
    fn conditional_antecedent() {
        let pi = Pi::new(2);
        // Too many crashes for f = 0: vacuous, even with nonsense verdicts.
        let t = vec![
            vote(0, true),
            Action::Crash(Loc(1)),
            verdict(0, true),
            verdict(0, false),
        ];
        assert!(AtomicCommit::new(0).check(pi, &t).is_ok());
    }

    #[test]
    fn solver_commits_and_aborts_correctly() {
        let pi = Pi::new(2);
        let u = AtomicCommitSolver::new(pi);
        let mut s = u.initial_state();
        s = u.step(&s, &vote(0, true)).unwrap();
        assert_eq!(u.enabled(&s, TaskId(0)), None, "not all votes in");
        s = u.step(&s, &vote(1, true)).unwrap();
        assert_eq!(u.enabled(&s, TaskId(0)), Some(verdict(0, true)));
        // Abort path.
        let mut s2 = u.initial_state();
        s2 = u.step(&s2, &vote(0, false)).unwrap();
        assert_eq!(u.enabled(&s2, TaskId(1)), Some(verdict(1, false)));
    }

    #[test]
    fn solver_is_crash_independent_and_bounded() {
        let pi = Pi::new(2);
        let u = AtomicCommitSolver::new(pi);
        let t = vec![vote(0, false), Action::Crash(Loc(1)), verdict(0, false)];
        assert!(check_crash_independence(&u, &t).is_ok());
        assert_eq!(
            ProblemSpec::output_bound(&AtomicCommit::new(0), pi),
            Some(2)
        );
    }

    #[test]
    fn solver_contract() {
        let pi = Pi::new(2);
        let u = AtomicCommitSolver::new(pi);
        ioa::check_task_determinism(&u, 50, 13).unwrap();
        let inputs: Vec<Action> = pi
            .iter()
            .flat_map(|i| [Action::Crash(i), vote(i.0, true), vote(i.0, false)])
            .collect();
        ioa::check_input_enabled(&u, &inputs, 50, 13).unwrap();
    }
}
