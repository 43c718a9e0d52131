//! Single-decree Paxos driven by the Ω AFD.
//!
//! The process whose Ω output names itself runs the proposer role:
//! phase 1 (`Prepare`/`Promise`) to learn any previously accepted
//! value, phase 2 (`Accept`/`Accepted`) to commit one. Every process is
//! an acceptor. Majorities (`f < n/2`) make the two phases intersect,
//! which gives agreement regardless of how wrong Ω is; Ω's eventual
//! agreement on one live leader gives termination.
//!
//! Liveness plumbing: acceptors *nack* stale `Prepare`/`Accept`
//! messages by replying with a `Promise` for the higher ballot they
//! have promised; a proposer that learns of a higher ballot restarts
//! once, above everything it has seen, provided Ω still names it.
//! There is deliberately **no** timer-style restart: Ω ticks far more
//! often than a ballot's network round-trip, so timer restarts
//! livelock, while with reliable channels every `Prepare`/`Accept` is
//! answered (promise/accept or nack), so nack-driven restarts cover
//! every stall. Deciders broadcast `DecideMsg`, and every process
//! relays it once, so a decision survives the decider crashing
//! mid-broadcast.

use std::collections::BTreeMap;

use afd_core::automata::FdGen;
use afd_core::{Action, Ballot, Loc, Msg, Pi, Val};
use afd_system::{Env, LocalBehavior, ProcessAutomaton, System, SystemBuilder};

use crate::common::{broadcast, majority};

/// Proposer phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Not currently running a ballot.
    Idle,
    /// Phase 1: collecting promises.
    Preparing,
    /// Phase 2: collecting accepted-acknowledgements.
    Accepting,
}

/// Per-location protocol state.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PaxosState {
    /// Environment input, once received.
    pub proposal: Option<Val>,
    /// Latest Ω output.
    pub leader_view: Option<Loc>,
    /// Acceptor: highest ballot promised.
    pub promised: Option<Ballot>,
    /// Acceptor: highest proposal accepted.
    pub accepted: Option<(Ballot, Val)>,
    /// Proposer: ballot in flight.
    pub ballot: Option<Ballot>,
    /// Proposer: current phase.
    pub phase: Phase,
    /// Proposer: promises collected (acceptor → its accepted pair).
    pub promises: BTreeMap<Loc, Option<(Ballot, Val)>>,
    /// Proposer: value being pushed in phase 2.
    pub pushing: Option<Val>,
    /// Proposer: phase-2 acknowledgements.
    pub acks: afd_core::LocSet,
    /// Highest ballot round observed anywhere (for restarts).
    pub highest_round: u32,
    /// Ω ticks naming self since the last proposer progress (used only
    /// by the timer-restart ablation).
    pub stall: u8,
    /// Decided value, once known.
    pub decided: Option<Val>,
    /// Whether `decide(v)_i` has been emitted.
    pub announced: bool,
    /// Whether `DecideMsg` has been relayed.
    pub relayed: bool,
    /// Outgoing messages, FIFO.
    pub outbox: Vec<(Loc, Msg)>,
}

impl PaxosState {
    fn new() -> Self {
        PaxosState {
            proposal: None,
            leader_view: None,
            promised: None,
            accepted: None,
            ballot: None,
            phase: Phase::Idle,
            promises: BTreeMap::new(),
            pushing: None,
            acks: afd_core::LocSet::empty(),
            highest_round: 0,
            stall: 0,
            decided: None,
            announced: false,
            relayed: false,
            outbox: Vec::new(),
        }
    }
}

/// The Paxos-over-Ω behavior at each location.
#[derive(Debug, Clone, Copy)]
pub struct PaxosOmega {
    /// The universe.
    pub pi: Pi,
    /// **Ablation knob** — when `Some(k)`, a proposer whose ballot is
    /// in flight restarts after `k` Ω outputs naming itself (the
    /// timer-style retry this module's docs warn against). `None`
    /// (default) = nack-driven restarts only. Kept so the livelock is a
    /// reproducible experiment, not folklore: see the
    /// `ablation_timer_restarts_livelock` test and the DESIGN.md
    /// ablation index.
    pub timer_restart: Option<u8>,
}

impl PaxosOmega {
    /// A new behavior over `pi` (nack-driven restarts only).
    #[must_use]
    pub fn new(pi: Pi) -> Self {
        PaxosOmega {
            pi,
            timer_restart: None,
        }
    }

    fn start_ballot(&self, me: Loc, s: &mut PaxosState) {
        let round = s.highest_round + 1;
        s.highest_round = round;
        let b = Ballot { round, owner: me };
        s.ballot = Some(b);
        s.phase = Phase::Preparing;
        s.promises.clear();
        s.pushing = None;
        s.acks = afd_core::LocSet::empty();
        s.stall = 0;
        broadcast(self.pi, me, &mut s.outbox, Msg::Prepare { ballot: b });
        // Self-prepare: promise our own ballot.
        s.promised = Some(match s.promised {
            Some(p) if p > b => p,
            _ => b,
        });
        s.promises.insert(me, s.accepted);
        self.check_prepare_majority(me, s);
    }

    fn check_prepare_majority(&self, me: Loc, s: &mut PaxosState) {
        let Some(b) = s.ballot else { return };
        if s.phase != Phase::Preparing || s.promises.len() < majority(self.pi) {
            return;
        }
        // Choose the value of the highest accepted pair, else our own.
        let inherited = s
            .promises
            .values()
            .flatten()
            .max_by_key(|(bb, _)| *bb)
            .map(|&(_, v)| v);
        let Some(v) = inherited.or(s.proposal) else {
            return;
        };
        s.pushing = Some(v);
        s.phase = Phase::Accepting;
        s.acks = afd_core::LocSet::empty();
        broadcast(
            self.pi,
            me,
            &mut s.outbox,
            Msg::Accept {
                ballot: b,
                value: v,
            },
        );
        // Self-accept.
        if s.promised.is_none_or(|p| b >= p) {
            s.promised = Some(b);
            s.accepted = Some((b, v));
            s.acks.insert(me);
            self.check_accept_majority(me, s);
        }
    }

    fn check_accept_majority(&self, me: Loc, s: &mut PaxosState) {
        if s.phase != Phase::Accepting || s.acks.len() < majority(self.pi) {
            return;
        }
        if let Some(v) = s.pushing {
            self.learn_decision(me, s, v);
        }
    }

    fn learn_decision(&self, me: Loc, s: &mut PaxosState, v: Val) {
        if s.decided.is_none() {
            s.decided = Some(v);
        }
        if !s.relayed {
            s.relayed = true;
            broadcast(self.pi, me, &mut s.outbox, Msg::DecideMsg { value: v });
        }
        s.phase = Phase::Idle;
        s.ballot = None;
    }

    fn on_message(&self, me: Loc, s: &mut PaxosState, from: Loc, m: Msg) {
        match m {
            Msg::Prepare { ballot } => {
                s.highest_round = s.highest_round.max(ballot.round);
                if s.promised.is_none_or(|p| ballot > p) {
                    s.promised = Some(ballot);
                    s.outbox.push((
                        from,
                        Msg::Promise {
                            ballot,
                            accepted: s.accepted,
                        },
                    ));
                } else if let Some(p) = s.promised {
                    // Nack: tell the stale proposer what is blocking it.
                    s.outbox.push((
                        from,
                        Msg::Promise {
                            ballot: p,
                            accepted: s.accepted,
                        },
                    ));
                }
            }
            Msg::Promise { ballot, accepted } => {
                if s.ballot == Some(ballot) && s.phase == Phase::Preparing {
                    s.promises.insert(from, accepted);
                    self.check_prepare_majority(me, s);
                } else if s.ballot.is_some_and(|b| ballot > b) {
                    // A nack for a higher ballot: restart above it if Ω
                    // still names us.
                    s.highest_round = s.highest_round.max(ballot.round);
                    if s.leader_view == Some(me) && s.decided.is_none() {
                        self.start_ballot(me, s);
                    }
                }
            }
            Msg::Accept { ballot, value } => {
                s.highest_round = s.highest_round.max(ballot.round);
                if s.promised.is_none_or(|p| ballot >= p) {
                    s.promised = Some(ballot);
                    s.accepted = Some((ballot, value));
                    s.outbox.push((from, Msg::Accepted { ballot, value }));
                } else if let Some(p) = s.promised {
                    s.outbox.push((
                        from,
                        Msg::Promise {
                            ballot: p,
                            accepted: s.accepted,
                        },
                    ));
                }
            }
            Msg::Accepted { ballot, .. }
                if s.ballot == Some(ballot) && s.phase == Phase::Accepting =>
            {
                s.acks.insert(from);
                self.check_accept_majority(me, s);
            }
            Msg::DecideMsg { value } => self.learn_decision(me, s, value),
            _ => {}
        }
    }

    fn on_leader(&self, me: Loc, s: &mut PaxosState, l: Loc) {
        s.leader_view = Some(l);
        if l != me || s.decided.is_some() || s.proposal.is_none() {
            return;
        }
        // Start a ballot only from Idle; stalled in-flight ballots are
        // restarted by nacks, never by Ω ticks (see module docs) —
        // unless the timer-restart ablation is armed.
        if s.phase == Phase::Idle {
            self.start_ballot(me, s);
        } else if let Some(limit) = self.timer_restart {
            s.stall = s.stall.saturating_add(1);
            if s.stall >= limit {
                self.start_ballot(me, s);
            }
        }
    }
}

impl LocalBehavior for PaxosOmega {
    type State = PaxosState;

    fn proto_name(&self) -> String {
        "paxos-Ω".into()
    }

    fn init(&self, _i: Loc) -> PaxosState {
        PaxosState::new()
    }

    fn is_input(&self, i: Loc, a: &Action) -> bool {
        matches!(a, Action::Receive { to, .. } if *to == i)
            || matches!(a, Action::Fd { at, .. } if *at == i)
            || matches!(a, Action::Propose { at, .. } if *at == i)
    }

    fn is_output(&self, i: Loc, a: &Action) -> bool {
        matches!(a, Action::Send { from, .. } if *from == i)
            || matches!(a, Action::Decide { at, .. } if *at == i)
    }

    fn on_input(&self, i: Loc, s: &mut PaxosState, a: &Action) {
        match a {
            Action::Propose { v, .. } if s.proposal.is_none() => {
                s.proposal = Some(*v);
                if s.leader_view == Some(i) && s.decided.is_none() && s.phase == Phase::Idle {
                    self.start_ballot(i, s);
                }
            }
            Action::Fd { out, .. } => {
                if let Some(l) = out.as_leader() {
                    self.on_leader(i, s, l);
                }
            }
            Action::Receive { from, msg, .. } => self.on_message(i, s, *from, *msg),
            _ => {}
        }
    }

    fn output(&self, i: Loc, s: &PaxosState) -> Option<Action> {
        if let Some(&(to, msg)) = s.outbox.first() {
            return Some(Action::Send { from: i, to, msg });
        }
        match (s.decided, s.announced) {
            (Some(v), false) => Some(Action::Decide { at: i, v }),
            _ => None,
        }
    }

    fn on_output(&self, _i: Loc, s: &mut PaxosState, a: &Action) {
        match a {
            Action::Send { .. } => {
                s.outbox.remove(0);
            }
            Action::Decide { .. } => s.announced = true,
            _ => {}
        }
    }
}

/// Build the §9.3 system `S`: Paxos processes + channels + crash
/// automaton + `E_C` + the Ω generator.
#[must_use]
pub fn paxos_system(
    pi: Pi,
    inputs: &[Val],
    crashes: Vec<Loc>,
) -> System<ProcessAutomaton<PaxosOmega>> {
    let procs = pi
        .iter()
        .map(|i| ProcessAutomaton::new(i, PaxosOmega::new(pi)))
        .collect();
    SystemBuilder::new(pi, procs)
        .with_fd(FdGen::omega(pi))
        .with_env(Env::consensus_with_inputs(pi, inputs))
        .with_crashes(crashes)
        .with_label("paxos-Ω system")
        .build()
}

/// [`paxos_system`] with the general-value environment: location `i`
/// proposes the arbitrary `u64` `values[i]` (the binary `E_C` of
/// Algorithm 4 can only propose `{0, 1}`). The protocol itself is
/// value-agnostic, so this is the same §9.3 system under a different
/// well-formed environment — the building block the multi-shot RSM
/// layer instantiates once per log slot.
#[must_use]
pub fn paxos_system_values(
    pi: Pi,
    values: &[Val],
    crashes: Vec<Loc>,
) -> System<ProcessAutomaton<PaxosOmega>> {
    let procs = pi
        .iter()
        .map(|i| ProcessAutomaton::new(i, PaxosOmega::new(pi)))
        .collect();
    SystemBuilder::new(pi, procs)
        .with_fd(FdGen::omega(pi))
        .with_env(Env::consensus_values(pi, values))
        .with_crashes(crashes)
        .with_label("paxos-Ω system (general values)")
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::consensus::{all_live_decided, check_consensus_run};
    use afd_system::{run_random, FaultPattern, SimConfig};

    fn decided_stop(pi: Pi) -> impl Fn(&[Action]) -> bool {
        move |sched: &[Action]| all_live_decided(pi, sched)
    }

    #[test]
    fn failure_free_run_decides_unanimously() {
        let pi = Pi::new(3);
        let sys = paxos_system(pi, &[1, 1, 1], vec![]);
        let out = run_random(
            &sys,
            5,
            SimConfig::default()
                .with_max_steps(4000)
                .stop_when(decided_stop(pi)),
        );
        let v = check_consensus_run(pi, 1, out.schedule()).unwrap();
        assert_eq!(v, Some(1));
        assert!(
            all_live_decided(pi, out.schedule()),
            "run: {} steps",
            out.steps
        );
    }

    #[test]
    fn mixed_inputs_decide_some_proposed_value() {
        let pi = Pi::new(3);
        for seed in 0..10 {
            let sys = paxos_system(pi, &[0, 1, 0], vec![]);
            let out = run_random(
                &sys,
                seed,
                SimConfig::default()
                    .with_max_steps(4000)
                    .stop_when(decided_stop(pi)),
            );
            let v = check_consensus_run(pi, 1, out.schedule()).unwrap();
            assert!(v == Some(0) || v == Some(1), "seed {seed}: no decision");
            assert!(all_live_decided(pi, out.schedule()), "seed {seed}");
        }
    }

    #[test]
    fn survives_leader_crash() {
        let pi = Pi::new(3);
        for seed in 0..10 {
            // p0 is Ω's initial leader; crash it mid-protocol.
            let sys = paxos_system(pi, &[0, 1, 1], vec![Loc(0)]);
            let out = run_random(
                &sys,
                seed,
                SimConfig::default()
                    .with_faults(FaultPattern::at(vec![(12, Loc(0))]))
                    .with_max_steps(6000)
                    .stop_when(decided_stop(pi)),
            );
            let v = check_consensus_run(pi, 1, out.schedule())
                .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            assert!(v.is_some(), "seed {seed}: live locations never decided");
            assert!(all_live_decided(pi, out.schedule()), "seed {seed}");
        }
    }

    #[test]
    fn five_processes_two_crashes() {
        let pi = Pi::new(5);
        let sys = paxos_system(pi, &[1, 0, 1, 0, 1], vec![Loc(0), Loc(3)]);
        let out = run_random(
            &sys,
            9,
            SimConfig::default()
                .with_faults(FaultPattern::at(vec![(10, Loc(0)), (40, Loc(3))]))
                .with_max_steps(12000)
                .stop_when(decided_stop(pi)),
        );
        let v = check_consensus_run(pi, 2, out.schedule()).unwrap();
        assert!(v.is_some());
        assert!(all_live_decided(pi, out.schedule()));
    }

    #[test]
    fn agreement_holds_across_many_seeds() {
        let pi = Pi::new(3);
        for seed in 0..20 {
            let sys = paxos_system(pi, &[0, 1, 1], vec![Loc(2)]);
            let out = run_random(
                &sys,
                seed,
                SimConfig::default()
                    .with_faults(FaultPattern::at(vec![(18, Loc(2))]))
                    .with_max_steps(6000)
                    .stop_when(decided_stop(pi)),
            );
            // Safety always; liveness given the budget.
            check_consensus_run(pi, 1, out.schedule())
                .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        }
    }

    #[test]
    fn ablation_timer_restarts_livelock() {
        // The DESIGN.md ablation: with aggressive timer restarts (the
        // naive design), the proposer abandons ballots faster than the
        // network can answer them and no decision is reached within a
        // budget that the nack-driven design (same seed) meets easily.
        use afd_core::automata::FdGen;
        use afd_system::{Env, SystemBuilder};
        let pi = Pi::new(3);
        let budget = 4000usize;
        let build = |timer: Option<u8>| {
            let procs = pi
                .iter()
                .map(|i| {
                    let mut b = PaxosOmega::new(pi);
                    b.timer_restart = timer;
                    ProcessAutomaton::new(i, b)
                })
                .collect();
            SystemBuilder::new(pi, procs)
                .with_fd(FdGen::omega(pi))
                .with_env(Env::consensus_with_inputs(pi, &[0, 1, 1]))
                .build()
        };
        // Starve the channel tasks so ballots take many Ω ticks.
        let starve = |sys: &afd_system::System<ProcessAutomaton<PaxosOmega>>| {
            use ioa::Automaton as _;
            let victims: Vec<usize> = (0..sys.composition.task_count())
                .filter(|&t| matches!(sys.label(ioa::TaskId(t)), afd_system::Label::Chan(_, _)))
                .collect();
            ioa::Adversarial::new(victims, 20)
        };
        let timered = build(Some(2));
        let out = afd_system::run_sim(
            &timered,
            &mut starve(&timered),
            afd_system::SimConfig::default().with_max_steps(budget),
        );
        let timered_decided = out
            .schedule()
            .iter()
            .any(|a| matches!(a, Action::Decide { .. }));
        let nacked = build(None);
        let out = afd_system::run_sim(
            &nacked,
            &mut starve(&nacked),
            afd_system::SimConfig::default().with_max_steps(budget),
        );
        let nacked_decided = out
            .schedule()
            .iter()
            .any(|a| matches!(a, Action::Decide { .. }));
        assert!(
            nacked_decided,
            "nack-driven design decides within the budget"
        );
        assert!(
            !timered_decided,
            "timer restarts livelock under channel starvation (the ablation's point)"
        );
    }

    #[test]
    fn survives_unstable_omega_prefix() {
        // The detector flaps to the wrong leader several times per
        // location before stabilizing: safety must hold throughout and
        // termination once Ω settles.
        use afd_core::automata::{FdBehavior, FdGen};
        use afd_system::{Env, SystemBuilder};
        let pi = Pi::new(3);
        for seed in 0..8 {
            let procs = pi
                .iter()
                .map(|i| ProcessAutomaton::new(i, PaxosOmega::new(pi)))
                .collect();
            let sys = SystemBuilder::new(pi, procs)
                .with_fd(FdGen::new(pi, FdBehavior::OmegaUnstable { flips: 4 }))
                .with_env(Env::consensus_with_inputs(pi, &[0, 1, 0]))
                .build();
            let out = afd_system::run_random(
                &sys,
                seed,
                afd_system::SimConfig::default()
                    .with_max_steps(20_000)
                    .stop_when(decided_stop(pi)),
            );
            let v = crate::consensus::check_consensus_run(pi, 0, out.schedule())
                .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            assert!(v.is_some(), "seed {seed}: undecided under flapping Ω");
        }
    }

    #[test]
    fn no_decision_without_proposals() {
        // An environment that never proposes (prefs satisfied but the
        // env tasks withheld) cannot make Paxos decide. Simulate by
        // stopping before any propose: trivially, an empty schedule has
        // no decision.
        let pi = Pi::new(3);
        let sys = paxos_system(pi, &[1, 1, 1], vec![]);
        let out = run_random(
            &sys,
            1,
            SimConfig::<ProcessAutomaton<PaxosOmega>>::default().with_max_steps(0),
        );
        assert!(out.schedule().is_empty());
    }
}
