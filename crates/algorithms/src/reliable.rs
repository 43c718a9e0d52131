//! The reliable-channel layer: stubborn retransmission + sequence
//! numbers, restoring the paper's reliable-FIFO channel semantics
//! (§4.3) on top of *adversarial* links that may drop, duplicate,
//! reorder, or transiently partition traffic.
//!
//! [`ReliableLink`] wraps any [`LocalBehavior`] with a classic
//! sender/receiver automaton pair per ordered channel:
//!
//! * **Sender** (per peer): application `Send`s are assigned
//!   consecutive sequence numbers and queued; the queue's front window
//!   (≤ [`SEND_WINDOW`] frames) is retransmitted *stubbornly* — round
//!   robin, forever — until a cumulative [`Frame::Ack`] retires it.
//! * **Receiver** (per peer): incoming [`Frame::Data`] is buffered by
//!   sequence number; the next-in-order message is delivered to the
//!   wrapped behavior as its `Receive` input, exactly once, in order.
//!   Every data arrival (duplicates included) re-arms a cumulative
//!   ack so lost acks are eventually repaired.
//!
//! The wrapped process keeps the *application* alphabet intact in the
//! schedule: its `Send { from: i, .. }` still occurs at `i` when the
//! message is handed to the layer, and delivery appears as
//! `Receive { to: i, .. }` — now a locally controlled action of the
//! receiver's wrapper rather than a channel output. App-level traces
//! therefore remain checkable by the unchanged FIFO/consensus/FD
//! checkers, while the wire carries `WireSend`/`WireRecv` frames that
//! the runtime's link adversary is free to mangle.
//!
//! Over any link that is not cut forever (every frame retransmitted
//! infinitely often is eventually delivered at least once), the layer
//! implements a reliable FIFO channel: delivered payloads equal sent
//! payloads, exactly once, in order.

use std::collections::{BTreeMap, VecDeque};

use afd_core::automata::FdGen;
use afd_core::{Action, Frame, Loc, LocSet, Msg, Pi, Val};
use afd_system::{Env, LocalBehavior, ProcessAutomaton, System, SystemBuilder};

use crate::consensus::ct_strong::CtStrong;
use crate::consensus::paxos_omega::PaxosOmega;
use crate::self_impl::SelfImpl;

/// How many unacked frames per channel the sender keeps in flight
/// (retransmitted round-robin). Frames queued beyond the window wait
/// until the front is acked — this bounds the receiver's reassembly
/// buffer and the wire backlog under heavy loss.
pub const SEND_WINDOW: usize = 8;

/// Per-peer sender state: the unacked queue and its retransmit cursor.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct SndPeer {
    /// Next sequence number to assign.
    pub next_seq: u32,
    /// Unacked `(seq, msg)` pairs, oldest first.
    pub queue: VecDeque<(u32, Msg)>,
    /// Round-robin cursor into the queue's front window, so stubborn
    /// retransmission cycles every in-flight frame (the output of a
    /// process automaton must be a pure function of its state).
    pub tx_pos: usize,
}

/// Per-peer receiver state: the reassembly buffer and ack obligation.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct RcvPeer {
    /// Next sequence number to deliver in order (= the cumulative ack).
    pub next_deliver: u32,
    /// Out-of-order frames buffered by sequence number.
    pub buffer: BTreeMap<u32, Msg>,
    /// An ack is owed (set by every data arrival and every delivery).
    pub ack_due: bool,
}

/// State of [`ReliableLink`] at one location.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct RelState<S> {
    /// The wrapped behavior's state.
    pub inner: S,
    /// Sender side, one entry per peer.
    pub snd: BTreeMap<Loc, SndPeer>,
    /// Receiver side, one entry per peer.
    pub rcv: BTreeMap<Loc, RcvPeer>,
    /// Round-robin cursor over *peers* for retransmission, so a dead
    /// peer's never-acked queue cannot starve the live peers behind it
    /// in iteration order.
    pub rr: usize,
}

/// A [`LocalBehavior`] composed with the reliable-channel layer.
#[derive(Debug, Clone, Copy)]
pub struct ReliableLink<B> {
    /// The universe (the layer keeps per-peer state for all of Π).
    pub pi: Pi,
    /// The wrapped application behavior.
    pub inner: B,
}

impl<B> ReliableLink<B> {
    /// Wrap `inner` with the reliable-channel layer over `pi`.
    #[must_use]
    pub fn new(pi: Pi, inner: B) -> Self {
        ReliableLink { pi, inner }
    }
}

impl<B: LocalBehavior> LocalBehavior for ReliableLink<B> {
    type State = RelState<B::State>;

    fn proto_name(&self) -> String {
        format!("rel({})", self.inner.proto_name())
    }

    fn init(&self, i: Loc) -> RelState<B::State> {
        let peers: Vec<Loc> = self.pi.iter().filter(|&j| j != i).collect();
        RelState {
            inner: self.inner.init(i),
            snd: peers.iter().map(|&j| (j, SndPeer::default())).collect(),
            rcv: peers.iter().map(|&j| (j, RcvPeer::default())).collect(),
            rr: 0,
        }
    }

    fn is_input(&self, i: Loc, a: &Action) -> bool {
        match a {
            Action::WireRecv { to, .. } => *to == i,
            // `Receive` is re-classified: the layer *emits* deliveries
            // as its own outputs, so they are no longer inputs here.
            Action::Receive { .. } | Action::WireSend { .. } => false,
            _ => self.inner.is_input(i, a),
        }
    }

    fn is_output(&self, i: Loc, a: &Action) -> bool {
        match a {
            Action::WireSend { from, .. } => *from == i,
            Action::Receive { to, .. } => *to == i,
            Action::WireRecv { .. } => false,
            _ => self.inner.is_output(i, a),
        }
    }

    fn on_input(&self, i: Loc, s: &mut RelState<B::State>, a: &Action) {
        if let Action::WireRecv { from, to, frame } = a {
            // A frame from no peer of `i` (outside Π) is absorbed: an
            // input must be accepted in every state.
            if *to != i || !s.rcv.contains_key(from) {
                return;
            }
            match frame {
                Frame::Data { seq, msg } => {
                    let r = s.rcv.get_mut(from).expect("peer state");
                    if *seq >= r.next_deliver {
                        r.buffer.insert(*seq, *msg);
                    }
                    // Duplicates and stale frames still owe an ack:
                    // the sender is retransmitting because *its* ack
                    // was lost.
                    r.ack_due = true;
                }
                Frame::Ack { cum } => {
                    let p = s.snd.get_mut(from).expect("peer state");
                    while p.queue.front().is_some_and(|&(seq, _)| seq < *cum) {
                        p.queue.pop_front();
                    }
                    p.tx_pos = 0;
                }
            }
            return;
        }
        self.inner.on_input(i, &mut s.inner, a);
    }

    fn output(&self, i: Loc, s: &RelState<B::State>) -> Option<Action> {
        // 1. Deliver the next in-order message (highest priority, so
        //    stubborn retransmission can never starve the application).
        for (&j, r) in &s.rcv {
            if let Some(&msg) = r.buffer.get(&r.next_deliver) {
                return Some(Action::Receive {
                    from: j,
                    to: i,
                    msg,
                });
            }
        }
        // 2. Pay ack debts (keeps the sender's window moving).
        for (&j, r) in &s.rcv {
            if r.ack_due {
                return Some(Action::WireSend {
                    from: i,
                    to: j,
                    frame: Frame::Ack {
                        cum: r.next_deliver,
                    },
                });
            }
        }
        // 3. The application's own output (its `Send`s stay visible in
        //    the schedule; `on_output` diverts them into the queue).
        if let Some(a) = self.inner.output(i, &s.inner) {
            return Some(a);
        }
        // 4. Stubborn retransmission over the front window, rotating
        //    across peers from the `rr` cursor: a crashed peer whose
        //    queue is never acked must not monopolize the wire.
        let peers: Vec<(&Loc, &SndPeer)> = s.snd.iter().collect();
        for k in 0..peers.len() {
            let (&j, p) = peers[(s.rr + k) % peers.len()];
            if !p.queue.is_empty() {
                let window = p.queue.len().min(SEND_WINDOW);
                let (seq, msg) = p.queue[p.tx_pos % window];
                return Some(Action::WireSend {
                    from: i,
                    to: j,
                    frame: Frame::Data { seq, msg },
                });
            }
        }
        None
    }

    fn on_output(&self, i: Loc, s: &mut RelState<B::State>, a: &Action) {
        match a {
            Action::Receive { from, to, msg } if *to == i => {
                let r = s.rcv.get_mut(from).expect("peer state");
                debug_assert_eq!(r.buffer.get(&r.next_deliver), Some(msg));
                r.buffer.remove(&r.next_deliver);
                r.next_deliver += 1;
                r.ack_due = true;
                // The wrapped behavior consumes the delivery as the
                // `Receive` input it would have seen on a reliable
                // channel.
                self.inner.on_input(i, &mut s.inner, a);
            }
            Action::WireSend {
                to,
                frame: Frame::Ack { .. },
                ..
            } => {
                s.rcv.get_mut(to).expect("peer state").ack_due = false;
            }
            Action::WireSend {
                to,
                frame: Frame::Data { .. },
                ..
            } => {
                // Advance the peer cursor past `to`, then the in-window
                // cursor of `to` itself.
                let idx = s.snd.keys().position(|j| j == to).expect("peer state");
                s.rr = (idx + 1) % s.snd.len();
                let p = s.snd.get_mut(to).expect("peer state");
                let window = p.queue.len().clamp(1, SEND_WINDOW);
                p.tx_pos = (p.tx_pos + 1) % window;
            }
            Action::Send { from, to, msg } if *from == i => {
                // Let the application pop its outbox, then queue the
                // payload for (re)transmission.
                self.inner.on_output(i, &mut s.inner, a);
                let p = s.snd.get_mut(to).expect("peer state");
                let seq = p.next_seq;
                p.next_seq += 1;
                p.queue.push_back((seq, *msg));
            }
            other => self.inner.on_output(i, &mut s.inner, other),
        }
    }
}

/// [`crate::self_impl::self_impl_system`] over adversarial links: the
/// same §6 system, with every process wrapped in [`ReliableLink`] and
/// the channels swapped for wire channels.
#[must_use]
pub fn reliable_self_impl_system(
    pi: Pi,
    fd: FdGen,
    crashes: Vec<Loc>,
) -> System<ProcessAutomaton<ReliableLink<SelfImpl>>> {
    let procs = pi
        .iter()
        .map(|i| ProcessAutomaton::new(i, ReliableLink::new(pi, SelfImpl)))
        .collect();
    SystemBuilder::new(pi, procs)
        .with_fd(fd)
        .with_env(Env::None)
        .with_crashes(crashes)
        .with_wire_channels()
        .with_label("A_self system (reliable layer)")
        .build()
}

/// [`crate::consensus::paxos_system`] over adversarial links.
#[must_use]
pub fn reliable_paxos_system(
    pi: Pi,
    inputs: &[Val],
    crashes: Vec<Loc>,
) -> System<ProcessAutomaton<ReliableLink<PaxosOmega>>> {
    let procs = pi
        .iter()
        .map(|i| ProcessAutomaton::new(i, ReliableLink::new(pi, PaxosOmega::new(pi))))
        .collect();
    SystemBuilder::new(pi, procs)
        .with_fd(FdGen::omega(pi))
        .with_env(Env::consensus_with_inputs(pi, inputs))
        .with_crashes(crashes)
        .with_wire_channels()
        .with_label("paxos-Ω system (reliable layer)")
        .build()
}

/// [`crate::consensus::paxos_system_values`] over adversarial links:
/// general-value Paxos(Ω) behind the reliable layer — the per-slot
/// system the RSM layer runs when link chaos is configured.
#[must_use]
pub fn reliable_paxos_system_values(
    pi: Pi,
    values: &[Val],
    crashes: Vec<Loc>,
) -> System<ProcessAutomaton<ReliableLink<PaxosOmega>>> {
    let procs = pi
        .iter()
        .map(|i| ProcessAutomaton::new(i, ReliableLink::new(pi, PaxosOmega::new(pi))))
        .collect();
    SystemBuilder::new(pi, procs)
        .with_fd(FdGen::omega(pi))
        .with_env(Env::consensus_values(pi, values))
        .with_crashes(crashes)
        .with_wire_channels()
        .with_label("paxos-Ω system (general values, reliable layer)")
        .build()
}

/// [`crate::consensus::ct_system`] over adversarial links.
#[must_use]
pub fn reliable_ct_system(
    pi: Pi,
    inputs: &[Val],
    crashes: Vec<Loc>,
    lie_set: LocSet,
    lie_count: u16,
) -> System<ProcessAutomaton<ReliableLink<CtStrong>>> {
    let procs = pi
        .iter()
        .map(|i| ProcessAutomaton::new(i, ReliableLink::new(pi, CtStrong::new(pi))))
        .collect();
    SystemBuilder::new(pi, procs)
        .with_fd(FdGen::ev_perfect_noisy(pi, lie_set, lie_count))
        .with_env(Env::consensus_with_inputs(pi, inputs))
        .with_crashes(crashes)
        .with_wire_channels()
        .with_label("ct-◇S system (reliable layer)")
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ioa::{Automaton, TaskId};

    /// A minimal application: floods `count` tokens to one peer and
    /// records what it receives.
    #[derive(Debug, Clone, Copy)]
    struct Flood {
        peer: Loc,
        count: u64,
    }

    #[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
    struct FloodState {
        sent: u64,
        got: Vec<u64>,
    }

    impl LocalBehavior for Flood {
        type State = FloodState;
        fn proto_name(&self) -> String {
            "flood".into()
        }
        fn init(&self, _i: Loc) -> FloodState {
            FloodState::default()
        }
        fn is_input(&self, i: Loc, a: &Action) -> bool {
            matches!(a, Action::Receive { to, .. } if *to == i)
        }
        fn is_output(&self, i: Loc, a: &Action) -> bool {
            matches!(a, Action::Send { from, .. } if *from == i)
        }
        fn on_input(&self, _i: Loc, s: &mut FloodState, a: &Action) {
            if let Action::Receive {
                msg: Msg::Token(v), ..
            } = a
            {
                s.got.push(*v);
            }
        }
        fn output(&self, i: Loc, s: &FloodState) -> Option<Action> {
            (s.sent < self.count).then_some(Action::Send {
                from: i,
                to: self.peer,
                msg: Msg::Token(s.sent),
            })
        }
        fn on_output(&self, _i: Loc, s: &mut FloodState, _a: &Action) {
            s.sent += 1;
        }
    }

    fn pair(
        count: u64,
    ) -> (
        ProcessAutomaton<ReliableLink<Flood>>,
        ProcessAutomaton<ReliableLink<Flood>>,
    ) {
        let pi = Pi::new(2);
        let sender = ProcessAutomaton::new(
            Loc(0),
            ReliableLink::new(
                pi,
                Flood {
                    peer: Loc(1),
                    count,
                },
            ),
        );
        let receiver = ProcessAutomaton::new(
            Loc(1),
            ReliableLink::new(
                pi,
                Flood {
                    peer: Loc(0),
                    count: 0,
                },
            ),
        );
        (sender, receiver)
    }

    /// Drive sender and receiver directly, shuttling frames through a
    /// perfect in-test wire; the receiver must deliver every token
    /// exactly once, in order.
    #[test]
    fn lossless_wire_delivers_in_order() {
        let (sa, ra) = pair(5);
        let mut ss = sa.initial_state();
        let mut rs = ra.initial_state();
        let mut delivered = Vec::new();
        for _ in 0..200 {
            if let Some(a) = sa.enabled(&ss, TaskId(0)) {
                ss = sa.step(&ss, &a).unwrap();
                if let Action::WireSend { from, to, frame } = a {
                    let arrive = Action::WireRecv { from, to, frame };
                    rs = ra.step(&rs, &arrive).unwrap();
                }
            }
            if let Some(a) = ra.enabled(&rs, TaskId(0)) {
                rs = ra.step(&rs, &a).unwrap();
                match a {
                    Action::WireSend { from, to, frame } => {
                        let arrive = Action::WireRecv { from, to, frame };
                        ss = sa.step(&ss, &arrive).unwrap();
                    }
                    Action::Receive {
                        msg: Msg::Token(v), ..
                    } => delivered.push(v),
                    _ => {}
                }
            }
        }
        assert_eq!(delivered, vec![0, 1, 2, 3, 4]);
        assert_eq!(rs.inner.inner.got, vec![0, 1, 2, 3, 4]);
        assert!(
            ss.inner.snd[&Loc(1)].queue.is_empty(),
            "acks retired the queue"
        );
    }

    /// Duplicated and reordered frames: the layer dedups and reorders
    /// back into sequence.
    #[test]
    fn duplication_and_reordering_are_masked() {
        let (_, ra) = pair(0);
        let mut rs = ra.initial_state();
        let data = |seq, v| Action::WireRecv {
            from: Loc(0),
            to: Loc(1),
            frame: Frame::Data {
                seq,
                msg: Msg::Token(v),
            },
        };
        // Arrive out of order, with duplicates: 2, 0, 2, 1, 0.
        for a in [
            data(2, 102),
            data(0, 100),
            data(2, 102),
            data(1, 101),
            data(0, 100),
        ] {
            rs = ra.step(&rs, &a).unwrap();
        }
        let mut delivered = Vec::new();
        while let Some(a) = ra.enabled(&rs, TaskId(0)) {
            rs = ra.step(&rs, &a).unwrap();
            if let Action::Receive {
                msg: Msg::Token(v), ..
            } = a
            {
                delivered.push(v);
            }
            if delivered.len() == 3 && !matches!(a, Action::Receive { .. }) {
                break; // only the trailing ack remains
            }
        }
        assert_eq!(delivered, vec![100, 101, 102]);
        assert_eq!(rs.inner.rcv[&Loc(0)].next_deliver, 3);
    }

    /// Dropping every first transmission: stubborn retransmission keeps
    /// re-offering the same frame until an ack lands.
    #[test]
    fn retransmission_is_stubborn() {
        let (sa, _) = pair(1);
        let mut ss = sa.initial_state();
        // App emits its Send (queued by the layer)...
        let send = sa.enabled(&ss, TaskId(0)).unwrap();
        assert!(matches!(send, Action::Send { .. }));
        ss = sa.step(&ss, &send).unwrap();
        // ...then the wire transmission repeats indefinitely.
        for _ in 0..5 {
            let tx = sa.enabled(&ss, TaskId(0)).unwrap();
            assert_eq!(
                tx.frame(),
                Some(Frame::Data {
                    seq: 0,
                    msg: Msg::Token(0)
                })
            );
            ss = sa.step(&ss, &tx).unwrap();
        }
        // An ack retires it; the sender goes quiet.
        let ack = Action::WireRecv {
            from: Loc(1),
            to: Loc(0),
            frame: Frame::Ack { cum: 1 },
        };
        ss = sa.step(&ss, &ack).unwrap();
        assert_eq!(sa.enabled(&ss, TaskId(0)), None);
    }

    /// The window bounds how far ahead of the ack horizon the sender
    /// transmits.
    #[test]
    fn window_limits_inflight_sequences() {
        let (sa, _) = pair(3 * SEND_WINDOW as u64);
        let mut ss = sa.initial_state();
        let mut seqs_seen = std::collections::BTreeSet::new();
        for _ in 0..40 * SEND_WINDOW {
            let a = sa.enabled(&ss, TaskId(0)).unwrap();
            if let Some(Frame::Data { seq, .. }) = a.frame() {
                seqs_seen.insert(seq);
            }
            ss = sa.step(&ss, &a).unwrap();
        }
        assert!(
            seqs_seen.iter().all(|&s| (s as usize) < SEND_WINDOW),
            "un-acked transmissions stay inside the window: {seqs_seen:?}"
        );
        assert_eq!(seqs_seen.len(), SEND_WINDOW, "whole window cycled");
    }

    /// Signature conventions under the [`ProcessAutomaton`] wrapper.
    #[test]
    fn wrapper_classification() {
        use ioa::ActionClass;
        let (sa, _) = pair(1);
        let wrecv = Action::WireRecv {
            from: Loc(1),
            to: Loc(0),
            frame: Frame::Ack { cum: 0 },
        };
        let deliver = Action::Receive {
            from: Loc(1),
            to: Loc(0),
            msg: Msg::Token(0),
        };
        let wsend = Action::WireSend {
            from: Loc(0),
            to: Loc(1),
            frame: Frame::Ack { cum: 0 },
        };
        assert_eq!(sa.classify(&wrecv), Some(ActionClass::Input));
        assert_eq!(sa.classify(&deliver), Some(ActionClass::Output));
        assert_eq!(sa.classify(&wsend), Some(ActionClass::Output));
        // Foreign traffic is invisible.
        let foreign = Action::WireRecv {
            from: Loc(0),
            to: Loc(1),
            frame: Frame::Ack { cum: 0 },
        };
        assert_eq!(sa.classify(&foreign), None);
    }

    #[test]
    fn contract_checks() {
        let (sa, _) = pair(2);
        ioa::check_task_determinism(&sa, 60, 8).unwrap();
        let inputs = vec![
            Action::WireRecv {
                from: Loc(1),
                to: Loc(0),
                frame: Frame::Data {
                    seq: 0,
                    msg: Msg::Token(9),
                },
            },
            Action::WireRecv {
                from: Loc(1),
                to: Loc(0),
                frame: Frame::Ack { cum: 1 },
            },
            Action::Crash(Loc(0)),
        ];
        ioa::check_input_enabled(&sa, &inputs, 60, 8).unwrap();
    }

    /// The reliable systems wire up with wire channels and validate
    /// their composed signature on mixed app/wire probe actions.
    #[test]
    fn reliable_systems_validate() {
        let pi = Pi::new(3);
        let sys = reliable_paxos_system(pi, &[0, 1, 1], vec![]);
        let probe = vec![
            Action::Crash(Loc(0)),
            Action::Send {
                from: Loc(0),
                to: Loc(1),
                msg: Msg::Token(0),
            },
            Action::Receive {
                from: Loc(0),
                to: Loc(1),
                msg: Msg::Token(0),
            },
            Action::WireSend {
                from: Loc(0),
                to: Loc(1),
                frame: Frame::Ack { cum: 0 },
            },
            Action::WireRecv {
                from: Loc(0),
                to: Loc(1),
                frame: Frame::Ack { cum: 0 },
            },
        ];
        sys.validate(&probe).unwrap();
        let sys2 = reliable_self_impl_system(pi, FdGen::omega(pi), vec![Loc(2)]);
        sys2.validate(&probe).unwrap();
        let sys3 = reliable_ct_system(pi, &[1, 1, 0], vec![], LocSet::empty(), 2);
        sys3.validate(&probe).unwrap();
    }
}
