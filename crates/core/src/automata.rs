//! Canonical failure-detector generator automata.
//!
//! [`FdGen`] is a family of task-deterministic I/O automata whose fair
//! traces lie inside the trace set of the corresponding
//! [`crate::afd::AfdSpec`]:
//!
//! * [`FdBehavior::Omega`] is Algorithm 1 verbatim: at each non-crashed
//!   location, output `FD-Ω(min(Π \ crashset))`.
//! * [`FdBehavior::Perfect`] is Algorithm 2 verbatim: output the current
//!   crash set.
//! * [`FdBehavior::EvPerfectNoisy`] generalizes Algorithm 2 for ◇P: the
//!   first `lie_count` outputs at each location report an arbitrary
//!   scripted suspect set (possibly wrongly suspecting live locations),
//!   after which the automaton behaves like Algorithm 2. With
//!   `lie_count = 0` it *is* Algorithm 2 (renamed), mirroring the
//!   paper's remark that renaming `FD-P` to `FD-◇P` implements ◇P.
//! * [`FdBehavior::Sigma`], [`FdBehavior::AntiOmega`],
//!   [`FdBehavior::OmegaK`], [`FdBehavior::PsiK`] are the analogous
//!   canonical generators for Σ, anti-Ω, Ω^k, Ψ^k.
//! * [`FdBehavior::CheatingMarabout`] "implements" Marabout only by
//!   taking the future fault pattern as a constructor parameter — the
//!   supernatural knowledge that §3.4 shows no automaton can have. The
//!   refuter in `afd-system` exploits exactly this.
//! * [`FdBehavior::Scripted`] replays a fixed (optionally ultimately
//!   periodic) FD sequence `t_D`; the execution-tree analysis of §8–9
//!   drives its systems this way.
//!
//! Every behavior has one task per location: the task at `i` is enabled
//! iff `i` has not crashed (and, for scripted behaviors, the next
//! playable script entry is at `i`).

use ioa::{ActionClass, Automaton, TaskId};

use crate::action::Action;
use crate::fd::FdOutput;
use crate::loc::{Loc, LocSet, Pi};

/// Which detector the generator implements.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FdBehavior {
    /// Algorithm 1: Ω.
    Omega,
    /// Ω with an unstable prefix: the first `flips` outputs per
    /// location report `max(Π \ crashset)` before settling on
    /// Algorithm 1's `min(Π \ crashset)` — legal in `T_Ω` (any finite
    /// prefix is), and the interesting case for leader-driven
    /// algorithms.
    OmegaUnstable {
        /// How many initial outputs per location report the wrong leader.
        flips: u16,
    },
    /// Algorithm 2: P.
    Perfect,
    /// ◇P with `lie_count` initial scripted wrong outputs per location.
    EvPerfectNoisy {
        /// The scripted (possibly wrong) suspect set reported initially.
        lie_set: LocSet,
        /// How many initial outputs per location report `lie_set`.
        lie_count: u16,
    },
    /// Σ: output `Π \ crashset` as the quorum.
    Sigma,
    /// anti-Ω: output `max(Π \ crashset)` as the non-leader.
    AntiOmega,
    /// Ω^k: output the `k` smallest non-crashed locations.
    OmegaK {
        /// Committee size bound.
        k: usize,
    },
    /// Ψ^k: Σ's quorum paired with Ω^k's committee.
    PsiK {
        /// Committee size bound.
        k: usize,
    },
    /// Marabout with the fault pattern supplied from outside the model.
    CheatingMarabout {
        /// The locations that *will* crash (supernatural knowledge).
        faulty: LocSet,
    },
    /// Replay of a fixed FD output sequence.
    Scripted {
        /// The outputs to play, in order.
        script: Vec<(Loc, FdOutput)>,
        /// If `Some(c)`, after the last entry the position wraps to `c`
        /// (an ultimately periodic infinite sequence).
        cycle_from: Option<usize>,
    },
    /// The *query-based* participant detector of §10.1 — deliberately
    /// **not** an AFD: its inputs include `Query` actions from the
    /// processes, so its outputs can leak information beyond crashes.
    /// It replies to every query with one fixed location ID that is
    /// guaranteed to have queried already.
    Participant,
}

/// State of an [`FdGen`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct FdGenState {
    /// Locations observed crashed (Algorithm 1/2's `crashset`).
    pub crashset: LocSet,
    /// Per-location output counters, saturated at each behavior's lie
    /// horizon so the state space stays finite.
    pub counts: Vec<u16>,
    /// Script position for [`FdBehavior::Scripted`].
    pub pos: usize,
    /// Locations that have queried ([`FdBehavior::Participant`] only).
    pub queried: LocSet,
    /// Locations with an unanswered query ([`FdBehavior::Participant`]).
    pub pending: LocSet,
    /// The fixed participant ID replied to every query.
    pub answer: Option<Loc>,
}

/// A failure-detector generator automaton.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FdGen {
    pi: Pi,
    behavior: FdBehavior,
}

impl FdGen {
    /// A generator over universe `pi` with the given behavior.
    #[must_use]
    pub fn new(pi: Pi, behavior: FdBehavior) -> Self {
        FdGen { pi, behavior }
    }

    /// Algorithm 1's automaton (Ω).
    #[must_use]
    pub fn omega(pi: Pi) -> Self {
        FdGen::new(pi, FdBehavior::Omega)
    }

    /// Algorithm 2's automaton (P).
    #[must_use]
    pub fn perfect(pi: Pi) -> Self {
        FdGen::new(pi, FdBehavior::Perfect)
    }

    /// A ◇P generator that lies `lie_count` times per location first.
    #[must_use]
    pub fn ev_perfect_noisy(pi: Pi, lie_set: LocSet, lie_count: u16) -> Self {
        FdGen::new(pi, FdBehavior::EvPerfectNoisy { lie_set, lie_count })
    }

    /// The universe this generator runs over.
    #[must_use]
    pub fn pi(&self) -> Pi {
        self.pi
    }

    /// The behavior of this generator.
    #[must_use]
    pub fn behavior(&self) -> &FdBehavior {
        &self.behavior
    }

    /// The output the generator would produce at location `i` in state
    /// `s`, if the task at `i` is enabled: never at a location outside
    /// Π or crashed.
    #[must_use]
    pub fn output_at(&self, s: &FdGenState, i: Loc) -> Option<FdOutput> {
        if !self.pi.contains(i) || s.crashset.contains(i) {
            return None;
        }
        let up = self.pi.all().difference(s.crashset);
        match &self.behavior {
            FdBehavior::Omega => Some(FdOutput::Leader(up.min()?)),
            FdBehavior::OmegaUnstable { flips } => {
                if s.counts[i.index()] < *flips {
                    Some(FdOutput::Leader(up.max()?))
                } else {
                    Some(FdOutput::Leader(up.min()?))
                }
            }
            FdBehavior::Perfect => Some(FdOutput::Suspects(s.crashset)),
            FdBehavior::EvPerfectNoisy { lie_set, lie_count } => {
                if s.counts[i.index()] < *lie_count {
                    Some(FdOutput::Suspects(*lie_set))
                } else {
                    Some(FdOutput::Suspects(s.crashset))
                }
            }
            FdBehavior::Sigma => Some(FdOutput::Quorum(up)),
            FdBehavior::AntiOmega => Some(FdOutput::AntiLeader(up.max()?)),
            FdBehavior::OmegaK { k } => Some(FdOutput::Leaders(up.take_min(*k))),
            FdBehavior::PsiK { k } => Some(FdOutput::PsiK {
                quorum: up,
                leaders: up.take_min(*k),
            }),
            FdBehavior::CheatingMarabout { faulty } => Some(FdOutput::Suspects(*faulty)),
            FdBehavior::Scripted { .. } => {
                let (loc, out) = self.script_head(s)?;
                (loc == i).then_some(out)
            }
            FdBehavior::Participant => {
                if s.pending.contains(i) {
                    s.answer.map(FdOutput::Leader)
                } else {
                    None
                }
            }
        }
    }

    /// For scripted behavior: the next playable entry (skipping entries
    /// at crashed locations), if any.
    fn script_head(&self, s: &FdGenState) -> Option<(Loc, FdOutput)> {
        let FdBehavior::Scripted { script, cycle_from } = &self.behavior else {
            return None;
        };
        if script.is_empty() {
            return None;
        }
        let mut pos = s.pos;
        for _ in 0..script.len() {
            if pos >= script.len() {
                pos = (*cycle_from)?;
            }
            let (loc, out) = script[pos];
            if !s.crashset.contains(loc) {
                return Some((loc, out));
            }
            pos += 1;
        }
        None
    }

    /// Position after consuming the current script head.
    fn script_advance(&self, s: &FdGenState) -> usize {
        let FdBehavior::Scripted { script, cycle_from } = &self.behavior else {
            return s.pos;
        };
        let mut pos = s.pos;
        for _ in 0..script.len() {
            if pos >= script.len() {
                match cycle_from {
                    Some(c) => pos = *c,
                    None => return pos,
                }
            }
            let (loc, _) = script[pos];
            pos += 1;
            if !s.crashset.contains(loc) {
                break;
            }
        }
        pos
    }

    fn lie_horizon(&self) -> u16 {
        match &self.behavior {
            FdBehavior::EvPerfectNoisy { lie_count, .. } => *lie_count,
            FdBehavior::OmegaUnstable { flips } => *flips,
            _ => 0,
        }
    }
}

impl Automaton for FdGen {
    type Action = Action;
    type State = FdGenState;

    fn name(&self) -> String {
        match &self.behavior {
            FdBehavior::Omega => "FD-Ω".into(),
            FdBehavior::OmegaUnstable { .. } => "FD-Ω(unstable)".into(),
            FdBehavior::Perfect => "FD-P".into(),
            FdBehavior::EvPerfectNoisy { .. } => "FD-◇P".into(),
            FdBehavior::Sigma => "FD-Σ".into(),
            FdBehavior::AntiOmega => "FD-anti-Ω".into(),
            FdBehavior::OmegaK { k } => format!("FD-Ω^{k}"),
            FdBehavior::PsiK { k } => format!("FD-Ψ^{k}"),
            FdBehavior::CheatingMarabout { .. } => "FD-Marabout(cheating)".into(),
            FdBehavior::Scripted { .. } => "FD-scripted".into(),
            FdBehavior::Participant => "FD-participant(query-based)".into(),
        }
    }

    fn initial_state(&self) -> FdGenState {
        FdGenState {
            crashset: LocSet::empty(),
            counts: vec![0; self.pi.len()],
            pos: 0,
            queried: LocSet::empty(),
            pending: LocSet::empty(),
            answer: None,
        }
    }

    fn classify(&self, a: &Action) -> Option<ActionClass> {
        match (&self.behavior, a) {
            (_, Action::Crash(_) | Action::Recover(_)) => Some(ActionClass::Input),
            (FdBehavior::Participant, Action::Query { .. }) => Some(ActionClass::Input),
            (FdBehavior::Participant, Action::QueryReply { .. }) => Some(ActionClass::Output),
            (FdBehavior::Participant, _) => None,
            (_, Action::Fd { .. }) => Some(ActionClass::Output),
            _ => None,
        }
    }

    fn task_count(&self) -> usize {
        self.pi.len()
    }

    fn enabled(&self, s: &FdGenState, t: TaskId) -> Option<Action> {
        let i = Loc(u8::try_from(t.0).ok()?);
        let out = self.output_at(s, i)?;
        Some(match self.behavior {
            FdBehavior::Participant => Action::QueryReply { at: i, out },
            _ => Action::Fd { at: i, out },
        })
    }

    fn apply(&self, s: &mut FdGenState, a: &Action) -> bool {
        match a {
            Action::Crash(l) => s.crashset.insert(*l),
            Action::Recover(l) => {
                // The recovered location is up again: outputs resume
                // there and the canonical behaviors stop reflecting it
                // as crashed (P un-suspects it, Ω may re-elect it).
                s.crashset.remove(*l);
            }
            Action::Query { at } if self.behavior == FdBehavior::Participant => {
                s.queried.insert(*at);
                s.pending.insert(*at);
                s.answer.get_or_insert(*at);
            }
            Action::QueryReply { at, out }
                if self.behavior == FdBehavior::Participant
                    && self.output_at(s, *at) == Some(*out) =>
            {
                s.pending.remove(*at);
            }
            Action::Fd { at, out }
                if self.behavior != FdBehavior::Participant
                    && self.output_at(s, *at) == Some(*out) =>
            {
                let c = &mut s.counts[at.index()];
                if *c < self.lie_horizon() {
                    *c += 1;
                }
                s.pos = self.script_advance(s);
            }
            _ => return false,
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::afd::AfdSpec;
    use crate::afds::{EvPerfect, Omega as OmegaSpec, Perfect as PerfectSpec};
    use ioa::{RoundRobin, RunOptions, Runner};

    fn run_with_crash(gen: &FdGen, crash_at: Option<(usize, Loc)>, steps: usize) -> Vec<Action> {
        // Drive the generator alone: inject the crash input manually at
        // the requested step, otherwise schedule round-robin.
        let mut s = gen.initial_state();
        let mut sched = RoundRobin::new();
        let mut trace = Vec::new();
        for step in 0..steps {
            if let Some((k, l)) = crash_at {
                if step == k {
                    s = gen.step(&s, &Action::Crash(l)).unwrap();
                    trace.push(Action::Crash(l));
                    continue;
                }
            }
            let Some(t) = ioa::Scheduler::<FdGen>::next_task(&mut sched, gen, &s, step) else {
                break;
            };
            let a = gen.enabled(&s, t).unwrap();
            s = gen.step(&s, &a).unwrap();
            trace.push(a);
        }
        trace
    }

    #[test]
    fn algorithm_1_fair_traces_satisfy_t_omega() {
        let pi = Pi::new(3);
        let gen = FdGen::omega(pi);
        let t = run_with_crash(&gen, None, 30);
        assert!(OmegaSpec.check_complete(pi, &t).is_ok());
        // The canonical leader is min(Π) = p0.
        assert_eq!(OmegaSpec.eventual_leader(pi, &t), Some(Loc(0)));
    }

    #[test]
    fn algorithm_1_recovers_after_leader_crash() {
        let pi = Pi::new(3);
        let gen = FdGen::omega(pi);
        let t = run_with_crash(&gen, Some((7, Loc(0))), 40);
        assert!(
            OmegaSpec.check_complete(pi, &t).is_ok(),
            "{:?}",
            OmegaSpec.check_complete(pi, &t)
        );
        assert_eq!(OmegaSpec.eventual_leader(pi, &t), Some(Loc(1)));
    }

    #[test]
    fn algorithm_2_fair_traces_satisfy_t_p() {
        let pi = Pi::new(3);
        let gen = FdGen::perfect(pi);
        let t = run_with_crash(&gen, Some((5, Loc(2))), 40);
        assert!(PerfectSpec.check_complete(pi, &t).is_ok());
    }

    #[test]
    fn noisy_evp_traces_satisfy_evp_but_not_p() {
        let pi = Pi::new(3);
        let gen = FdGen::ev_perfect_noisy(pi, LocSet::singleton(Loc(1)), 2);
        let t = run_with_crash(&gen, None, 40);
        assert!(EvPerfect.check_complete(pi, &t).is_ok());
        assert!(
            PerfectSpec.check_complete(pi, &t).is_err(),
            "the lies violate P"
        );
    }

    #[test]
    fn noiseless_evp_is_algorithm_2() {
        let pi = Pi::new(2);
        let gen = FdGen::ev_perfect_noisy(pi, LocSet::empty(), 0);
        let t = run_with_crash(&gen, Some((4, Loc(1))), 30);
        assert!(PerfectSpec.check_complete(pi, &t).is_ok());
        assert!(EvPerfect.check_complete(pi, &t).is_ok());
    }

    #[test]
    fn sigma_anti_omega_k_generators_satisfy_their_specs() {
        use crate::afds::{AntiOmega, OmegaK, PsiK, Sigma};
        let pi = Pi::new(4);
        let cases: Vec<(FdGen, Box<dyn AfdSpec>)> = vec![
            (FdGen::new(pi, FdBehavior::Sigma), Box::new(Sigma)),
            (FdGen::new(pi, FdBehavior::AntiOmega), Box::new(AntiOmega)),
            (
                FdGen::new(pi, FdBehavior::OmegaK { k: 2 }),
                Box::new(OmegaK::new(2)),
            ),
            (
                FdGen::new(pi, FdBehavior::PsiK { k: 2 }),
                Box::new(PsiK::new(2)),
            ),
        ];
        for (gen, spec) in cases {
            let t = run_with_crash(&gen, Some((9, Loc(3))), 60);
            assert!(
                spec.check_complete(pi, &t).is_ok(),
                "{} rejected {:?}: {:?}",
                spec.name(),
                gen.name(),
                spec.check_complete(pi, &t)
            );
        }
    }

    #[test]
    fn crashed_location_stops_outputting() {
        let pi = Pi::new(2);
        let gen = FdGen::omega(pi);
        let mut s = gen.initial_state();
        s = gen.step(&s, &Action::Crash(Loc(1))).unwrap();
        assert_eq!(gen.enabled(&s, TaskId(1)), None);
        assert!(gen.enabled(&s, TaskId(0)).is_some());
    }

    #[test]
    fn no_output_at_a_location_outside_pi() {
        let pi = Pi::new(2);
        let outside = Loc(5);
        for behavior in [
            FdBehavior::Omega,
            FdBehavior::OmegaUnstable { flips: 2 },
            FdBehavior::Perfect,
            FdBehavior::EvPerfectNoisy {
                lie_set: LocSet::singleton(Loc(1)),
                lie_count: 2,
            },
            FdBehavior::Sigma,
            FdBehavior::AntiOmega,
            FdBehavior::OmegaK { k: 1 },
            FdBehavior::PsiK { k: 1 },
            FdBehavior::CheatingMarabout {
                faulty: LocSet::empty(),
            },
            FdBehavior::Scripted {
                script: vec![(outside, FdOutput::Leader(Loc(0)))],
                cycle_from: Some(0),
            },
            FdBehavior::Participant,
        ] {
            let gen = FdGen::new(pi, behavior);
            let mut s = gen.initial_state();
            // The participant has a query from `outside` pending.
            let _ = gen.apply(&mut s, &Action::Query { at: outside });
            assert_eq!(gen.output_at(&s, outside), None, "{}", gen.name());
        }
    }

    #[test]
    fn step_rejects_wrong_output_value() {
        let pi = Pi::new(2);
        let gen = FdGen::omega(pi);
        let s = gen.initial_state();
        let wrong = Action::Fd {
            at: Loc(0),
            out: FdOutput::Leader(Loc(1)),
        };
        assert_eq!(gen.step(&s, &wrong), None);
    }

    #[test]
    fn cheating_marabout_outputs_its_oracle() {
        let pi = Pi::new(2);
        let gen = FdGen::new(
            pi,
            FdBehavior::CheatingMarabout {
                faulty: LocSet::singleton(Loc(1)),
            },
        );
        let s = gen.initial_state();
        assert_eq!(
            gen.output_at(&s, Loc(0)),
            Some(FdOutput::Suspects(LocSet::singleton(Loc(1))))
        );
    }

    #[test]
    fn scripted_replays_in_order_and_wraps() {
        let pi = Pi::new(2);
        let script = vec![
            (Loc(0), FdOutput::Leader(Loc(0))),
            (Loc(1), FdOutput::Leader(Loc(0))),
        ];
        let gen = FdGen::new(
            pi,
            FdBehavior::Scripted {
                script,
                cycle_from: Some(0),
            },
        );
        let mut s = gen.initial_state();
        // Only the head's location is enabled.
        assert!(gen.enabled(&s, TaskId(0)).is_some());
        assert_eq!(gen.enabled(&s, TaskId(1)), None);
        let a0 = gen.enabled(&s, TaskId(0)).unwrap();
        s = gen.step(&s, &a0).unwrap();
        assert!(gen.enabled(&s, TaskId(1)).is_some());
        let a1 = gen.enabled(&s, TaskId(1)).unwrap();
        s = gen.step(&s, &a1).unwrap();
        // Wrapped to the beginning.
        assert!(gen.enabled(&s, TaskId(0)).is_some());
    }

    #[test]
    fn scripted_skips_crashed_locations() {
        let pi = Pi::new(2);
        let script = vec![
            (Loc(0), FdOutput::Leader(Loc(0))),
            (Loc(1), FdOutput::Leader(Loc(0))),
        ];
        let gen = FdGen::new(
            pi,
            FdBehavior::Scripted {
                script,
                cycle_from: None,
            },
        );
        let mut s = gen.initial_state();
        s = gen.step(&s, &Action::Crash(Loc(0))).unwrap();
        // Head skips p0's entry; p1 is playable.
        assert_eq!(gen.enabled(&s, TaskId(0)), None);
        assert!(gen.enabled(&s, TaskId(1)).is_some());
        let a = gen.enabled(&s, TaskId(1)).unwrap();
        s = gen.step(&s, &a).unwrap();
        assert!(!gen.any_task_enabled(&s), "script exhausted");
    }

    #[test]
    fn unstable_omega_flaps_then_settles_in_t_omega() {
        let pi = Pi::new(3);
        let gen = FdGen::new(pi, FdBehavior::OmegaUnstable { flips: 2 });
        let t = run_with_crash(&gen, None, 40);
        assert!(OmegaSpec.check_complete(pi, &t).is_ok());
        assert_eq!(OmegaSpec.eventual_leader(pi, &t), Some(Loc(0)));
        // The flapping prefix really reported the other leader.
        assert!(t
            .iter()
            .take(6)
            .any(|a| matches!(a.fd_output(), Some((_, FdOutput::Leader(Loc(2)))))));
    }

    #[test]
    fn participant_replies_with_a_prior_querier() {
        let pi = Pi::new(3);
        let gen = FdGen::new(pi, FdBehavior::Participant);
        let mut s = gen.initial_state();
        assert_eq!(gen.enabled(&s, TaskId(0)), None, "no query yet");
        s = gen.step(&s, &Action::Query { at: Loc(2) }).unwrap();
        s = gen.step(&s, &Action::Query { at: Loc(0) }).unwrap();
        // Both pending queries get the same answer: the first querier.
        let r0 = gen.enabled(&s, TaskId(0)).unwrap();
        let r2 = gen.enabled(&s, TaskId(2)).unwrap();
        assert_eq!(
            r0,
            Action::QueryReply {
                at: Loc(0),
                out: FdOutput::Leader(Loc(2))
            }
        );
        assert_eq!(
            r2,
            Action::QueryReply {
                at: Loc(2),
                out: FdOutput::Leader(Loc(2))
            }
        );
        s = gen.step(&s, &r0).unwrap();
        assert_eq!(gen.enabled(&s, TaskId(0)), None, "answered");
        assert!(gen.enabled(&s, TaskId(2)).is_some(), "still pending");
    }

    #[test]
    fn participant_signature_is_query_based() {
        let pi = Pi::new(2);
        let gen = FdGen::new(pi, FdBehavior::Participant);
        use ioa::ActionClass;
        assert_eq!(
            gen.classify(&Action::Query { at: Loc(0) }),
            Some(ActionClass::Input)
        );
        assert_eq!(
            gen.classify(&Action::QueryReply {
                at: Loc(0),
                out: FdOutput::Leader(Loc(0))
            }),
            Some(ActionClass::Output)
        );
        // Unilateral Fd outputs are NOT part of its signature: this is
        // the §10.1 interaction-model contrast.
        assert_eq!(
            gen.classify(&Action::Fd {
                at: Loc(0),
                out: FdOutput::Leader(Loc(0))
            }),
            None
        );
    }

    #[test]
    fn participant_stops_replying_after_crash() {
        let pi = Pi::new(2);
        let gen = FdGen::new(pi, FdBehavior::Participant);
        let mut s = gen.initial_state();
        s = gen.step(&s, &Action::Query { at: Loc(0) }).unwrap();
        s = gen.step(&s, &Action::Crash(Loc(0))).unwrap();
        assert_eq!(gen.enabled(&s, TaskId(0)), None);
    }

    #[test]
    fn generator_passes_contract_checks() {
        let pi = Pi::new(3);
        for gen in [
            FdGen::omega(pi),
            FdGen::perfect(pi),
            FdGen::new(pi, FdBehavior::Sigma),
        ] {
            ioa::check_task_determinism(&gen, 200, 5).unwrap();
            let inputs: Vec<Action> = pi.iter().map(Action::Crash).collect();
            ioa::check_input_enabled(&gen, &inputs, 100, 5).unwrap();
        }
    }

    #[test]
    fn runner_drives_generator_fairly() {
        let pi = Pi::new(2);
        let gen = FdGen::omega(pi);
        let exec = Runner::new(&gen).run(
            &mut RoundRobin::new(),
            RunOptions::default().with_max_steps(10),
        );
        assert_eq!(exec.len(), 10);
        let at0 = exec.actions.iter().filter(|a| a.loc() == Loc(0)).count();
        assert_eq!(at0, 5, "round robin alternates locations");
    }
}
