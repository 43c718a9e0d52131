//! The f-crash-tolerant binary consensus problem, exactly as defined in
//! §9.1, plus a canonical centralized solver `U` witnessing that
//! consensus is a *bounded problem* (§7.3).
//!
//! `T_P` is conditional: a trace must satisfy crash validity, agreement,
//! validity, and termination **only if** it satisfies environment
//! well-formedness and f-crash limitation. The checker mirrors that
//! structure: traces violating the antecedent are vacuously accepted.

use ioa::{ActionClass, Automaton, TaskId};

use crate::action::Action;
use crate::loc::{Loc, LocSet, Pi};
use crate::message::Val;
use crate::problem::ProblemSpec;
use crate::stream::StreamChecker;
use crate::trace::{faulty, live, Violation};

/// The f-crash-tolerant binary consensus problem (§9.1).
#[derive(Debug, Clone, Copy)]
pub struct Consensus {
    /// Crash-tolerance bound `f ∈ [0, n−1]`.
    pub f: usize,
}

impl Consensus {
    /// Consensus tolerating up to `f` crashes.
    #[must_use]
    pub fn new(f: usize) -> Self {
        Consensus { f }
    }

    /// *Environment well-formedness* (§9.1): at most one propose per
    /// location; none after that location's crash; every live location
    /// proposes exactly once.
    ///
    /// # Errors
    /// The first violated sub-clause.
    pub fn env_well_formed(pi: Pi, t: &[Action]) -> Result<(), Violation> {
        let mut proposed = vec![0usize; pi.len()];
        let mut crashed = LocSet::empty();
        for (k, a) in t.iter().enumerate() {
            match a {
                Action::Crash(l) => crashed.insert(*l),
                Action::Propose { at, .. } => {
                    proposed[at.index()] += 1;
                    if proposed[at.index()] > 1 {
                        return Err(Violation::new(
                            "env.single-input",
                            format!("second propose at {at} (index {k})"),
                        ));
                    }
                    if crashed.contains(*at) {
                        return Err(Violation::new(
                            "env.propose-after-crash",
                            format!("propose at crashed {at} (index {k})"),
                        ));
                    }
                }
                _ => {}
            }
        }
        for i in live(pi, t).iter() {
            if proposed[i.index()] == 0 {
                return Err(Violation::new(
                    "env.live-must-propose",
                    format!("live location {i} never proposes"),
                ));
            }
        }
        Ok(())
    }

    /// *f-crash limitation*: at most `f` locations crash in `t`.
    #[must_use]
    pub fn crash_limited(&self, t: &[Action]) -> bool {
        faulty(t).len() <= self.f
    }

    /// *Crash validity*: no location decides after crashing.
    ///
    /// # Errors
    /// Names the offending decide event.
    pub fn crash_validity(t: &[Action]) -> Result<(), Violation> {
        let mut crashed = LocSet::empty();
        for (k, a) in t.iter().enumerate() {
            match a {
                Action::Crash(l) => crashed.insert(*l),
                Action::Decide { at, .. } if crashed.contains(*at) => {
                    return Err(Violation::new(
                        "consensus.crash-validity",
                        format!("decide at crashed {at} (index {k})"),
                    ))
                }
                _ => {}
            }
        }
        Ok(())
    }

    /// *Agreement*: no two locations decide differently.
    ///
    /// # Errors
    /// Names the two conflicting decisions.
    pub fn agreement(t: &[Action]) -> Result<(), Violation> {
        let mut first: Option<(Loc, Val)> = None;
        for a in t {
            if let Action::Decide { at, v } = a {
                match first {
                    None => first = Some((*at, *v)),
                    Some((j, w)) if w != *v => {
                        return Err(Violation::new(
                            "consensus.agreement",
                            format!("decide({w}) at {j} vs decide({v}) at {at}"),
                        ))
                    }
                    _ => {}
                }
            }
        }
        Ok(())
    }

    /// *Validity*: every decision value was proposed.
    ///
    /// # Errors
    /// Names the unproposed decision value.
    pub fn validity(t: &[Action]) -> Result<(), Violation> {
        let proposed: Vec<Val> = t
            .iter()
            .filter_map(|a| match a {
                Action::Propose { v, .. } => Some(*v),
                _ => None,
            })
            .collect();
        for a in t {
            if let Action::Decide { at, v } = a {
                if !proposed.contains(v) {
                    return Err(Violation::new(
                        "consensus.validity",
                        format!("decide({v}) at {at} but {v} never proposed"),
                    ));
                }
            }
        }
        Ok(())
    }

    /// *Termination* (complete-run convention): at most one decide per
    /// location, exactly one per live location.
    ///
    /// # Errors
    /// Names the location deciding twice or never.
    pub fn termination(pi: Pi, t: &[Action]) -> Result<(), Violation> {
        let mut decided = vec![0usize; pi.len()];
        for a in t {
            if let Action::Decide { at, .. } = a {
                decided[at.index()] += 1;
                if decided[at.index()] > 1 {
                    return Err(Violation::new(
                        "consensus.termination",
                        format!("{at} decides more than once"),
                    ));
                }
            }
        }
        for i in live(pi, t).iter() {
            if decided[i.index()] == 0 {
                return Err(Violation::new(
                    "consensus.termination",
                    format!("live location {i} never decides"),
                ));
            }
        }
        Ok(())
    }

    /// The decision value of `t`, if any (§9.1 "decision value").
    #[must_use]
    pub fn decision_value(t: &[Action]) -> Option<Val> {
        t.iter().find_map(|a| match a {
            Action::Decide { v, .. } => Some(*v),
            _ => None,
        })
    }

    /// An incremental `T_P` membership checker over `pi`, folding one
    /// action at a time. `finish` reproduces [`ProblemSpec::check`]'s
    /// verdict exactly, including the conditional structure (vacuous
    /// acceptance when the environment antecedent fails) and the clause
    /// order of the batch checker.
    #[must_use]
    pub fn stream(&self, pi: Pi) -> ConsensusStream {
        ConsensusStream {
            pi,
            f: self.f,
            k: 0,
            crashed: LocSet::empty(),
            ever_crashed: LocSet::empty(),
            proposed: vec![0; pi.len()],
            proposed_vals: Vec::new(),
            decided: vec![0; pi.len()],
            env: None,
            crash_validity: None,
            agreement: None,
            first_decide: None,
            pending_validity: Vec::new(),
            termination_double: None,
        }
    }
}

/// Streaming `T_P` membership checker (see [`Consensus::stream`]).
///
/// Every clause is folded simultaneously; the first violation of each
/// clause is captured at push time (with the crashed/proposed state *of
/// that moment*, so the messages match the batch scan byte for byte)
/// and reported at `finish` in the batch checker's clause order.
///
/// Memory is O(|Π| + pending), where `pending` is the set of decisions
/// whose value has not (yet) been proposed — a later matching propose
/// retires them, so well-behaved runs keep this empty.
#[derive(Debug, Clone)]
pub struct ConsensusStream {
    pi: Pi,
    f: usize,
    k: usize,
    /// Currently-down locations: grows on `Crash`, shrinks on
    /// `Recover`. Decide/propose are judged against this set, so a
    /// recovered incarnation may legally decide.
    crashed: LocSet,
    /// Locations that crashed at least once — the f-crash-limitation
    /// antecedent counts distinct ever-crashed locations, matching the
    /// crash-stop reading byte for byte on recovery-free runs.
    ever_crashed: LocSet,
    proposed: Vec<usize>,
    /// Distinct proposed values, in first-proposal order.
    proposed_vals: Vec<Val>,
    decided: Vec<usize>,
    /// First in-scan environment violation (single-input or
    /// propose-after-crash); live-must-propose is a finish-time check.
    env: Option<Violation>,
    crash_validity: Option<Violation>,
    agreement: Option<Violation>,
    first_decide: Option<(Loc, Val)>,
    /// Decisions whose value has not been proposed so far, in decide
    /// order; a later propose of the value retires the entry.
    pending_validity: Vec<(Loc, Val)>,
    termination_double: Option<Violation>,
}

impl StreamChecker for ConsensusStream {
    type Verdict = Result<(), Violation>;

    fn push(&mut self, a: &Action) {
        let k = self.k;
        self.k += 1;
        match a {
            Action::Crash(l) => {
                self.crashed.insert(*l);
                self.ever_crashed.insert(*l);
            }
            Action::Recover(l) => self.crashed.remove(*l),
            Action::Propose { at, v } => {
                self.proposed[at.index()] += 1;
                if self.env.is_none() {
                    if self.proposed[at.index()] > 1 {
                        self.env = Some(Violation::new(
                            "env.single-input",
                            format!("second propose at {at} (index {k})"),
                        ));
                    } else if self.crashed.contains(*at) {
                        self.env = Some(Violation::new(
                            "env.propose-after-crash",
                            format!("propose at crashed {at} (index {k})"),
                        ));
                    }
                }
                if !self.proposed_vals.contains(v) {
                    self.proposed_vals.push(*v);
                }
                self.pending_validity.retain(|(_, pv)| pv != v);
            }
            Action::Decide { at, v } => {
                if self.crashed.contains(*at) && self.crash_validity.is_none() {
                    self.crash_validity = Some(Violation::new(
                        "consensus.crash-validity",
                        format!("decide at crashed {at} (index {k})"),
                    ));
                }
                match self.first_decide {
                    None => self.first_decide = Some((*at, *v)),
                    Some((j, w)) => {
                        if w != *v && self.agreement.is_none() {
                            self.agreement = Some(Violation::new(
                                "consensus.agreement",
                                format!("decide({w}) at {j} vs decide({v}) at {at}"),
                            ));
                        }
                    }
                }
                if !self.proposed_vals.contains(v) {
                    self.pending_validity.push((*at, *v));
                }
                self.decided[at.index()] += 1;
                if self.decided[at.index()] > 1 && self.termination_double.is_none() {
                    self.termination_double = Some(Violation::new(
                        "consensus.termination",
                        format!("{at} decides more than once"),
                    ));
                }
            }
            _ => {}
        }
    }

    fn finish(&self) -> Result<(), Violation> {
        // Antecedent: environment well-formedness + f-crash limitation.
        // A violated antecedent means vacuous membership.
        let live = self.pi.all().difference(self.crashed);
        let env_ok = self.env.is_none() && live.iter().all(|i| self.proposed[i.index()] > 0);
        if !env_ok || self.ever_crashed.len() > self.f {
            return Ok(());
        }
        if let Some(v) = &self.crash_validity {
            return Err(v.clone());
        }
        if let Some(v) = &self.agreement {
            return Err(v.clone());
        }
        if let Some((at, v)) = self.pending_validity.first() {
            return Err(Violation::new(
                "consensus.validity",
                format!("decide({v}) at {at} but {v} never proposed"),
            ));
        }
        if let Some(v) = &self.termination_double {
            return Err(v.clone());
        }
        for i in live.iter() {
            if self.decided[i.index()] == 0 {
                return Err(Violation::new(
                    "consensus.termination",
                    format!("live location {i} never decides"),
                ));
            }
        }
        Ok(())
    }
}

impl ProblemSpec for Consensus {
    fn name(&self) -> String {
        format!("consensus(f={})", self.f)
    }

    fn is_input(&self, a: &Action) -> bool {
        matches!(a, Action::Propose { .. } | Action::Crash(_))
    }

    fn is_output(&self, a: &Action) -> bool {
        matches!(a, Action::Decide { .. })
    }

    fn check(&self, pi: Pi, t: &[Action]) -> Result<(), Violation> {
        self.stream(pi).check_all(t)
    }

    fn output_bound(&self, pi: Pi) -> Option<usize> {
        Some(pi.len())
    }
}

/// The canonical centralized consensus solver `U` used as the bounded
/// witness (§7.3): it decides the *first proposed value* at every
/// location that has proposed-or-not-crashed. Its fair traces satisfy
/// `T_P` in every well-formed environment, it is crash independent (its
/// decisions never *depend* on crashes; crashes only disable outputs),
/// and it emits at most `n` outputs.
#[derive(Debug, Clone, Copy)]
pub struct ConsensusSolver {
    /// The universe.
    pub pi: Pi,
}

/// State of [`ConsensusSolver`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ConsensusSolverState {
    /// The value to decide: the first proposal received.
    pub chosen: Option<Val>,
    /// Locations that have proposed.
    pub proposed: LocSet,
    /// Locations that have decided.
    pub decided: LocSet,
    /// Locations observed crashed.
    pub crashed: LocSet,
}

impl ConsensusSolver {
    /// A canonical solver over `pi`.
    #[must_use]
    pub fn new(pi: Pi) -> Self {
        ConsensusSolver { pi }
    }
}

impl Automaton for ConsensusSolver {
    type Action = Action;
    type State = ConsensusSolverState;

    fn name(&self) -> String {
        "U-consensus".into()
    }

    fn initial_state(&self) -> ConsensusSolverState {
        ConsensusSolverState {
            chosen: None,
            proposed: LocSet::empty(),
            decided: LocSet::empty(),
            crashed: LocSet::empty(),
        }
    }

    fn classify(&self, a: &Action) -> Option<ActionClass> {
        match a {
            Action::Crash(_) | Action::Propose { .. } => Some(ActionClass::Input),
            Action::Decide { .. } => Some(ActionClass::Output),
            _ => None,
        }
    }

    fn task_count(&self) -> usize {
        self.pi.len()
    }

    fn enabled(&self, s: &ConsensusSolverState, t: TaskId) -> Option<Action> {
        let i = Loc(u8::try_from(t.0).ok()?);
        if !self.pi.contains(i) || s.decided.contains(i) || s.crashed.contains(i) {
            return None;
        }
        // Decide the first proposal received. Crucially, crashes only
        // *disable* outputs (at the crashed location); they never
        // *enable* anything — that is what makes the solver crash
        // independent (§7.3): deleting crash events from a trace leaves
        // a replayable trace.
        let v = s.chosen?;
        Some(Action::Decide { at: i, v })
    }

    fn apply(&self, s: &mut ConsensusSolverState, a: &Action) -> bool {
        match a {
            Action::Crash(l) => s.crashed.insert(*l),
            Action::Propose { at, v } => {
                s.proposed.insert(*at);
                s.chosen.get_or_insert(*v);
            }
            Action::Decide { at, v }
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
    use crate::problem::{check_crash_independence, BoundedWitness};

    fn prop(at: u8, v: Val) -> Action {
        Action::Propose { at: Loc(at), v }
    }
    fn dec(at: u8, v: Val) -> Action {
        Action::Decide { at: Loc(at), v }
    }

    #[test]
    fn env_well_formedness_clauses() {
        let pi = Pi::new(2);
        assert!(Consensus::env_well_formed(pi, &[prop(0, 0), prop(1, 1)]).is_ok());
        let double = [prop(0, 0), prop(0, 1), prop(1, 0)];
        assert_eq!(
            Consensus::env_well_formed(pi, &double).unwrap_err().rule,
            "env.single-input"
        );
        let after_crash = [Action::Crash(Loc(0)), prop(0, 0), prop(1, 0)];
        assert_eq!(
            Consensus::env_well_formed(pi, &after_crash)
                .unwrap_err()
                .rule,
            "env.propose-after-crash"
        );
        let silent = [prop(0, 0)];
        assert_eq!(
            Consensus::env_well_formed(pi, &silent).unwrap_err().rule,
            "env.live-must-propose"
        );
        // A crashed location that never proposed is fine.
        let crashed_silent = [Action::Crash(Loc(1)), prop(0, 0)];
        assert!(Consensus::env_well_formed(pi, &crashed_silent).is_ok());
    }

    #[test]
    fn property_checkers() {
        let pi = Pi::new(2);
        assert!(Consensus::agreement(&[dec(0, 1), dec(1, 1)]).is_ok());
        assert_eq!(
            Consensus::agreement(&[dec(0, 1), dec(1, 0)])
                .unwrap_err()
                .rule,
            "consensus.agreement"
        );
        assert!(Consensus::validity(&[prop(0, 1), dec(0, 1)]).is_ok());
        assert_eq!(
            Consensus::validity(&[prop(0, 1), dec(0, 0)])
                .unwrap_err()
                .rule,
            "consensus.validity"
        );
        assert!(Consensus::termination(pi, &[prop(0, 0), dec(0, 0), dec(1, 0)]).is_ok());
        assert_eq!(
            Consensus::termination(pi, &[dec(0, 0)]).unwrap_err().rule,
            "consensus.termination"
        );
        assert_eq!(
            Consensus::crash_validity(&[Action::Crash(Loc(0)), dec(0, 0)])
                .unwrap_err()
                .rule,
            "consensus.crash-validity"
        );
        assert_eq!(Consensus::decision_value(&[prop(0, 1), dec(1, 1)]), Some(1));
        assert_eq!(Consensus::decision_value(&[prop(0, 1)]), None);
    }

    #[test]
    fn conditional_structure_of_tp() {
        let pi = Pi::new(2);
        let c = Consensus::new(1);
        // Ill-formed environment: vacuously accepted even with disagreement.
        let ill = [dec(0, 0), dec(1, 1)];
        assert!(c.check(pi, &ill).is_ok());
        // Too many crashes: vacuously accepted.
        let c0 = Consensus::new(0);
        let crashy = [prop(0, 0), Action::Crash(Loc(1))];
        assert!(c0.check(pi, &crashy).is_ok());
        // Well-formed and crash-limited: clauses enforced.
        let bad = [prop(0, 0), prop(1, 1), dec(0, 0), dec(1, 1)];
        assert!(c.check(pi, &bad).is_err());
        let good = [prop(0, 0), prop(1, 1), dec(0, 0), dec(1, 0)];
        assert!(c.check(pi, &good).is_ok());
    }

    #[test]
    fn io_classification() {
        let c = Consensus::new(1);
        assert!(c.is_input(&prop(0, 0)));
        assert!(c.is_input(&Action::Crash(Loc(0))));
        assert!(c.is_output(&dec(0, 0)));
        assert!(!c.is_output(&prop(0, 0)));
        assert_eq!(c.output_bound(Pi::new(3)), Some(3));
    }

    #[test]
    fn canonical_solver_solves_consensus() {
        let pi = Pi::new(3);
        let u = ConsensusSolver::new(pi);
        // Drive: all propose, then decide everywhere (round robin).
        let mut s = u.initial_state();
        let mut t = vec![prop(0, 1), prop(1, 0), prop(2, 0)];
        for a in &t {
            s = u.step(&s, a).unwrap();
        }
        for i in 0..3 {
            let a = u.enabled(&s, TaskId(i)).unwrap();
            s = u.step(&s, &a).unwrap();
            t.push(a);
        }
        assert!(Consensus::new(2).check(pi, &t).is_ok());
        assert_eq!(
            Consensus::decision_value(&t),
            Some(1),
            "first proposal wins"
        );
        assert!(!u.any_task_enabled(&s), "quiescent after all decide");
    }

    #[test]
    fn solver_decides_first_proposal_without_waiting() {
        let pi = Pi::new(2);
        let u = ConsensusSolver::new(pi);
        let mut s = u.initial_state();
        assert_eq!(u.enabled(&s, TaskId(0)), None, "nothing proposed yet");
        s = u.step(&s, &prop(0, 1)).unwrap();
        assert!(
            u.enabled(&s, TaskId(0)).is_some(),
            "first proposal suffices"
        );
        s = u.step(&s, &Action::Crash(Loc(1))).unwrap();
        assert_eq!(u.enabled(&s, TaskId(1)), None, "crashed p1 cannot decide");
    }

    #[test]
    fn solver_is_crash_independent_and_bounded() {
        let pi = Pi::new(2);
        let u = ConsensusSolver::new(pi);
        let traces = vec![
            vec![prop(0, 1), prop(1, 0), dec(0, 1), dec(1, 1)],
            vec![
                prop(0, 1),
                prop(1, 0),
                dec(0, 1),
                Action::Crash(Loc(1)),
                dec(0, 1),
            ],
        ];
        // (Second trace's trailing dec(0,1) is illegal — build real ones.)
        let traces: Vec<Vec<Action>> = traces
            .into_iter()
            .map(|t| {
                let mut s = u.initial_state();
                let mut out = Vec::new();
                for a in t {
                    if let Some(n) = u.step(&s, &a) {
                        s = n;
                        out.push(a);
                    }
                }
                out
            })
            .collect();
        let w = BoundedWitness {
            spec: &Consensus::new(1),
            solver: &u,
            bound: pi.len(),
        };
        assert!(w.verify(&traces).is_ok());
        // Crash independence on a trace with an interleaved crash: the
        // crash-free replay must be accepted.
        let t = vec![prop(0, 1), Action::Crash(Loc(1)), dec(0, 1)];
        assert!(check_crash_independence(&u, &t).is_ok());
    }

    #[test]
    fn contract_checks_pass() {
        let pi = Pi::new(3);
        let u = ConsensusSolver::new(pi);
        ioa::check_task_determinism(&u, 100, 2).unwrap();
        let inputs: Vec<Action> = pi
            .iter()
            .flat_map(|i| [Action::Crash(i), Action::Propose { at: i, v: 0 }])
            .collect();
        ioa::check_input_enabled(&u, &inputs, 100, 2).unwrap();
    }
}
