//! The k-set agreement problem — the bounded problem (§7.3) solved by
//! Ω^k / Ψ^k-class detectors.
//!
//! Inputs: [`crate::action::Action::ProposeK`] and crashes; outputs:
//! [`crate::action::Action::DecideK`]. Clauses (with the same
//! conditional structure as consensus §9.1):
//!
//! * **k-agreement** — at most `k` distinct decision values occur.
//! * **Validity** — every decision value was proposed.
//! * **Termination** — each location decides at most once; every live
//!   location decides exactly once.
//! * **Crash validity** — no decisions at crashed locations.

use ioa::{ActionClass, Automaton, TaskId};

use crate::action::Action;
use crate::loc::{Loc, LocSet, Pi};
use crate::message::Val;
use crate::problem::ProblemSpec;
use crate::trace::{faulty, live, Violation};

/// The k-set agreement problem tolerating up to `f` crashes.
#[derive(Debug, Clone, Copy)]
pub struct KSetAgreement {
    /// Maximum number of distinct decision values.
    pub k: usize,
    /// Crash-tolerance bound.
    pub f: usize,
}

impl KSetAgreement {
    /// k-set agreement with agreement bound `k` and crash bound `f`.
    ///
    /// # Panics
    /// Panics if `k == 0`.
    #[must_use]
    pub fn new(k: usize, f: usize) -> Self {
        assert!(k >= 1, "k-set agreement requires k ≥ 1");
        KSetAgreement { k, f }
    }

    /// Environment well-formedness for `ProposeK` inputs (mirrors §9.1).
    ///
    /// # Errors
    /// The first violated sub-clause.
    pub fn env_well_formed(pi: Pi, t: &[Action]) -> Result<(), Violation> {
        let mut proposed = vec![0usize; pi.len()];
        let mut crashed = LocSet::empty();
        for a in t {
            match a {
                Action::Crash(l) => crashed.insert(*l),
                Action::ProposeK { at, .. } => {
                    proposed[at.index()] += 1;
                    if proposed[at.index()] > 1 {
                        return Err(Violation::new("env.single-input", format!("{at}")));
                    }
                    if crashed.contains(*at) {
                        return Err(Violation::new("env.propose-after-crash", format!("{at}")));
                    }
                }
                _ => {}
            }
        }
        for i in live(pi, t).iter() {
            if proposed[i.index()] == 0 {
                return Err(Violation::new("env.live-must-propose", format!("{i}")));
            }
        }
        Ok(())
    }

    /// The distinct decision values of `t`.
    #[must_use]
    pub fn decision_values(t: &[Action]) -> Vec<Val> {
        let mut v: Vec<Val> = t
            .iter()
            .filter_map(|a| match a {
                Action::DecideK { v, .. } => Some(*v),
                _ => None,
            })
            .collect();
        v.sort_unstable();
        v.dedup();
        v
    }
}

impl ProblemSpec for KSetAgreement {
    fn name(&self) -> String {
        format!("{}-set-agreement(f={})", self.k, self.f)
    }

    fn is_input(&self, a: &Action) -> bool {
        matches!(a, Action::ProposeK { .. } | Action::Crash(_))
    }

    fn is_output(&self, a: &Action) -> bool {
        matches!(a, Action::DecideK { .. })
    }

    fn check(&self, pi: Pi, t: &[Action]) -> Result<(), Violation> {
        if Self::env_well_formed(pi, t).is_err() || faulty(t).len() > self.f {
            return Ok(()); // antecedent fails: vacuously accepted
        }
        // Crash validity.
        let mut crashed = LocSet::empty();
        let mut decided = vec![0usize; pi.len()];
        for a in t {
            match a {
                Action::Crash(l) => crashed.insert(*l),
                Action::DecideK { at, .. } => {
                    if crashed.contains(*at) {
                        return Err(Violation::new("kset.crash-validity", format!("{at}")));
                    }
                    decided[at.index()] += 1;
                    if decided[at.index()] > 1 {
                        return Err(Violation::new("kset.termination", format!("{at} twice")));
                    }
                }
                _ => {}
            }
        }
        // k-agreement.
        let values = Self::decision_values(t);
        if values.len() > self.k {
            return Err(Violation::new(
                "kset.agreement",
                format!("{} distinct decisions > k = {}", values.len(), self.k),
            ));
        }
        // Validity.
        let proposed: Vec<Val> = t
            .iter()
            .filter_map(|a| match a {
                Action::ProposeK { v, .. } => Some(*v),
                _ => None,
            })
            .collect();
        for v in &values {
            if !proposed.contains(v) {
                return Err(Violation::new(
                    "kset.validity",
                    format!("{v} never proposed"),
                ));
            }
        }
        // Termination for live locations.
        for i in live(pi, t).iter() {
            if decided[i.index()] == 0 {
                return Err(Violation::new(
                    "kset.termination",
                    format!("{i} never decides"),
                ));
            }
        }
        Ok(())
    }

    fn output_bound(&self, pi: Pi) -> Option<usize> {
        Some(pi.len())
    }
}

/// Canonical centralized solver: location `i` decides its own proposal
/// if `i < k`-th smallest proposer, otherwise the first proposal it is
/// aware of — here simplified to: everyone decides the first proposal,
/// which trivially satisfies k-agreement for any `k ≥ 1`. Crash
/// independent and bounded like [`crate::problems::ConsensusSolver`].
#[derive(Debug, Clone, Copy)]
pub struct KSetSolver {
    /// The universe.
    pub pi: Pi,
}

/// State of [`KSetSolver`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct KSetSolverState {
    /// First proposal received.
    pub chosen: Option<Val>,
    /// Locations that decided.
    pub decided: LocSet,
    /// Locations observed crashed.
    pub crashed: LocSet,
}

impl KSetSolver {
    /// A canonical solver over `pi`.
    #[must_use]
    pub fn new(pi: Pi) -> Self {
        KSetSolver { pi }
    }
}

impl Automaton for KSetSolver {
    type Action = Action;
    type State = KSetSolverState;

    fn name(&self) -> String {
        "U-kset".into()
    }

    fn initial_state(&self) -> KSetSolverState {
        KSetSolverState {
            chosen: None,
            decided: LocSet::empty(),
            crashed: LocSet::empty(),
        }
    }

    fn classify(&self, a: &Action) -> Option<ActionClass> {
        match a {
            Action::Crash(_) | Action::ProposeK { .. } => Some(ActionClass::Input),
            Action::DecideK { .. } => Some(ActionClass::Output),
            _ => None,
        }
    }

    fn task_count(&self) -> usize {
        self.pi.len()
    }

    fn enabled(&self, s: &KSetSolverState, t: TaskId) -> Option<Action> {
        let i = Loc(u8::try_from(t.0).ok()?);
        if !self.pi.contains(i) || s.decided.contains(i) || s.crashed.contains(i) {
            return None;
        }
        s.chosen.map(|v| Action::DecideK { at: i, v })
    }

    fn apply(&self, s: &mut KSetSolverState, a: &Action) -> bool {
        match a {
            Action::Crash(l) => s.crashed.insert(*l),
            Action::ProposeK { v, .. } => {
                s.chosen.get_or_insert(*v);
            }
            Action::DecideK { at, v }
                if !s.decided.contains(*at) && !s.crashed.contains(*at) && s.chosen == Some(*v) =>
            {
                s.decided.insert(*at);
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

    fn prop(at: u8, v: Val) -> Action {
        Action::ProposeK { at: Loc(at), v }
    }
    fn dec(at: u8, v: Val) -> Action {
        Action::DecideK { at: Loc(at), v }
    }

    #[test]
    fn accepts_up_to_k_values() {
        let pi = Pi::new(3);
        let spec = KSetAgreement::new(2, 1);
        let t = vec![
            prop(0, 0),
            prop(1, 1),
            prop(2, 2),
            dec(0, 0),
            dec(1, 1),
            dec(2, 1),
        ];
        assert!(spec.check(pi, &t).is_ok());
        assert_eq!(KSetAgreement::decision_values(&t), vec![0, 1]);
    }

    #[test]
    fn rejects_more_than_k_values() {
        let pi = Pi::new(3);
        let spec = KSetAgreement::new(2, 1);
        let t = vec![
            prop(0, 0),
            prop(1, 1),
            prop(2, 2),
            dec(0, 0),
            dec(1, 1),
            dec(2, 2),
        ];
        assert_eq!(spec.check(pi, &t).unwrap_err().rule, "kset.agreement");
    }

    #[test]
    fn one_set_agreement_is_consensus_strength() {
        let pi = Pi::new(2);
        let spec = KSetAgreement::new(1, 1);
        let t = vec![prop(0, 0), prop(1, 1), dec(0, 0), dec(1, 1)];
        assert_eq!(spec.check(pi, &t).unwrap_err().rule, "kset.agreement");
    }

    #[test]
    fn conditional_antecedent() {
        let pi = Pi::new(2);
        let spec = KSetAgreement::new(1, 0);
        // One crash with f = 0: vacuous.
        let t = vec![prop(0, 0), Action::Crash(Loc(1)), dec(0, 0), dec(0, 1)];
        assert!(spec.check(pi, &t).is_ok());
    }

    #[test]
    fn validity_and_termination() {
        let pi = Pi::new(2);
        let spec = KSetAgreement::new(2, 1);
        let unproposed = vec![prop(0, 0), prop(1, 0), dec(0, 5), dec(1, 0)];
        assert_eq!(
            spec.check(pi, &unproposed).unwrap_err().rule,
            "kset.validity"
        );
        let silent = vec![prop(0, 0), prop(1, 0), dec(0, 0)];
        assert_eq!(
            spec.check(pi, &silent).unwrap_err().rule,
            "kset.termination"
        );
    }

    #[test]
    fn solver_is_crash_independent() {
        let pi = Pi::new(2);
        let u = KSetSolver::new(pi);
        let t = vec![prop(0, 3), Action::Crash(Loc(1)), dec(0, 3)];
        assert!(check_crash_independence(&u, &t).is_ok());
    }

    #[test]
    fn solver_contract() {
        let pi = Pi::new(2);
        let u = KSetSolver::new(pi);
        ioa::check_task_determinism(&u, 50, 4).unwrap();
        let inputs: Vec<Action> = pi
            .iter()
            .flat_map(|i| [Action::Crash(i), Action::ProposeK { at: i, v: 1 }])
            .collect();
        ioa::check_input_enabled(&u, &inputs, 50, 4).unwrap();
    }
}
