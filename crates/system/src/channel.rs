//! Channel automata: the paper's reliable FIFO channels (§4.3), the
//! *wire* channels the reliable layer runs over, and the ADD start
//! state a chaotic link begins in.
//!
//! # Channel semantics
//!
//! For every ordered pair `(i, j)` of distinct locations the system
//! contains a channel transporting messages from the process at `i` to
//! the process at `j`. A send may occur at any time (input); when a
//! message is at the head of the queue, the corresponding receive is
//! enabled (output). Each channel has one task and is deterministic.
//!
//! Two flavours exist, chosen per system by
//! [`crate::SystemBuilder::with_wire_channels`]:
//!
//! * [`Channel`] — the paper's channel `C_{i,j}` over [`Msg`], with
//!   the paper's `Send`/`Receive` alphabet.
//! * [`WireChannel`] — the frame channel `W_{i,j}` over
//!   [`afd_core::Frame`], with the `WireSend`/`WireRecv` alphabet. The
//!   reliable-channel layer in `afd-algorithms` (stubborn
//!   retransmission + sequence-number reassembly) restores
//!   reliable-FIFO semantics for the application on top of it.
//!
//! # The ADD start state
//!
//! An I/O automaton may have many start states. Besides the empty FIFO
//! queue, each channel of either flavour may start in a seeded
//! [`AddState`]: Kumar & Welch's ADD channel, which may drop,
//! duplicate, and reorder messages within a bound. Its state carries
//! the channel's [`ChannelChaos`] decision stream, so every schedule
//! such a channel takes part in is an execution of the channel
//! automaton — the engines start a channel there when its link profile
//! is chaotic, and the simulator can start a system there too. On the
//! paper's `C_{i,j}` such a start state breaks the reliable-FIFO
//! contract, which the app-level FIFO checker then reports.

use std::collections::VecDeque;

use afd_core::{Action, Frame, Loc, Msg};
use ioa::{ActionClass, Automaton, TaskId};

use crate::chaos::{ChannelChaos, ChannelChaosStats};

/// The channel automaton `C_{from,to}`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Channel {
    /// Sender location.
    pub from: Loc,
    /// Receiver location.
    pub to: Loc,
}

/// Channel state: the FIFO queue of in-transit messages.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct ChannelState {
    /// Queue contents, head first.
    pub queue: Vec<Msg>,
}

impl Channel {
    /// The channel from `from` to `to`.
    ///
    /// # Panics
    /// Panics if `from == to` (the model has no self-channels).
    #[must_use]
    pub fn new(from: Loc, to: Loc) -> Self {
        assert_ne!(from, to, "no self-channels in the model");
        Channel { from, to }
    }
}

impl Automaton for Channel {
    type Action = Action;
    type State = ChannelState;

    fn name(&self) -> String {
        format!("C[{}→{}]", self.from, self.to)
    }

    fn initial_state(&self) -> ChannelState {
        ChannelState::default()
    }

    fn classify(&self, a: &Action) -> Option<ActionClass> {
        match a {
            Action::Send { from, to, .. } if *from == self.from && *to == self.to => {
                Some(ActionClass::Input)
            }
            Action::Receive { from, to, .. } if *from == self.from && *to == self.to => {
                Some(ActionClass::Output)
            }
            _ => None,
        }
    }

    fn task_count(&self) -> usize {
        1
    }

    fn enabled(&self, s: &ChannelState, _t: TaskId) -> Option<Action> {
        s.queue.first().map(|m| Action::Receive {
            from: self.from,
            to: self.to,
            msg: *m,
        })
    }

    fn apply(&self, s: &mut ChannelState, a: &Action) -> bool {
        match a {
            Action::Send { from, to, msg } if *from == self.from && *to == self.to => {
                s.queue.push(*msg);
            }
            Action::Receive { from, to, msg }
                if *from == self.from && *to == self.to && s.queue.first() == Some(msg) =>
            {
                s.queue.remove(0);
            }
            _ => return false,
        }
        true
    }
}

/// The wire channel automaton `W_{from,to}`, transporting
/// [`Frame`]s. Structurally identical to [`Channel`] but over the
/// wire alphabet: `WireSend` is its input, `WireRecv` its output.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireChannel {
    /// Sender location.
    pub from: Loc,
    /// Receiver location.
    pub to: Loc,
}

/// Wire channel state: the queue of in-transit frames.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct WireChannelState {
    /// Queue contents, head first.
    pub queue: Vec<Frame>,
}

impl WireChannel {
    /// The wire channel from `from` to `to`.
    ///
    /// # Panics
    /// Panics if `from == to` (the model has no self-channels).
    #[must_use]
    pub fn new(from: Loc, to: Loc) -> Self {
        assert_ne!(from, to, "no self-channels in the model");
        WireChannel { from, to }
    }
}

impl Automaton for WireChannel {
    type Action = Action;
    type State = WireChannelState;

    fn name(&self) -> String {
        format!("W[{}→{}]", self.from, self.to)
    }

    fn initial_state(&self) -> WireChannelState {
        WireChannelState::default()
    }

    fn classify(&self, a: &Action) -> Option<ActionClass> {
        match a {
            Action::WireSend { from, to, .. } if *from == self.from && *to == self.to => {
                Some(ActionClass::Input)
            }
            Action::WireRecv { from, to, .. } if *from == self.from && *to == self.to => {
                Some(ActionClass::Output)
            }
            _ => None,
        }
    }

    fn task_count(&self) -> usize {
        1
    }

    fn enabled(&self, s: &WireChannelState, _t: TaskId) -> Option<Action> {
        s.queue.first().map(|f| Action::WireRecv {
            from: self.from,
            to: self.to,
            frame: *f,
        })
    }

    fn apply(&self, s: &mut WireChannelState, a: &Action) -> bool {
        match a {
            Action::WireSend { from, to, frame } if *from == self.from && *to == self.to => {
                s.queue.push(*frame);
            }
            Action::WireRecv { from, to, frame }
                if *from == self.from && *to == self.to && s.queue.first() == Some(frame) =>
            {
                s.queue.remove(0);
            }
            _ => return false,
        }
        true
    }
}

/// The ADD start state of a channel, shared by [`Channel`] and
/// [`WireChannel`]: deliveries queue as the `Receive`/`WireRecv`
/// action itself, so one implementation serves both alphabets.
///
/// * A `Send`/`WireSend` draws exactly one [`ChannelChaos`] decision
///   and enqueues zero deliveries (drop), one, or two (dup), each
///   stamped `arrivals + hold`.
/// * A delivery is enabled when it is the queue front or its stamp has
///   been reached; [`AddState::enabled`] offers the first reached one,
///   else the front. Receiving removes the first queued copy of that
///   delivery.
///
/// The set of enabled deliveries only grows as sends are appended, so
/// a delivery chosen before some sends were applied is still accepted
/// after them.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct AddState {
    chaos: ChannelChaos,
    queue: VecDeque<(Action, u64)>,
    arrivals: u64,
    /// What the adversary has done so far.
    pub stats: ChannelChaosStats,
}

impl AddState {
    /// An empty channel drawing its fates from `chaos`.
    #[must_use]
    pub fn new(chaos: ChannelChaos) -> Self {
        AddState {
            chaos,
            queue: VecDeque::new(),
            arrivals: 0,
            stats: ChannelChaosStats::default(),
        }
    }

    /// The delivery on offer, if any.
    #[must_use]
    pub fn enabled(&self) -> Option<Action> {
        let reached = self.queue.iter().find(|(_, at)| *at <= self.arrivals);
        reached.or(self.queue.front()).map(|(d, _)| *d)
    }

    /// Apply a send or a receive of this channel's signature in place:
    /// `false`, leaving the state as it was, for a delivery not on
    /// offer. An engine steps a backlogged channel at O(1) per step,
    /// not at a queue copy.
    pub fn apply(&mut self, a: &Action) -> bool {
        let delivery = match *a {
            Action::Send { from, to, msg } => Action::Receive { from, to, msg },
            Action::WireSend { from, to, frame } => Action::WireRecv { from, to, frame },
            _ => {
                let Some(k) = self.queue.iter().position(|(d, _)| d == a) else {
                    return false;
                };
                let reached = |(d, at): &(Action, u64)| d == a && *at <= self.arrivals;
                if k > 0 && !self.queue.iter().any(reached) {
                    return false;
                }
                self.queue.remove(k);
                return true;
            }
        };
        let fate = self.chaos.next();
        self.arrivals += 1;
        self.stats.arrivals += 1;
        self.stats.dropped += u64::from(fate.drop);
        self.stats.duplicated += u64::from(fate.dup);
        self.stats.held += u64::from(fate.hold > 0);
        let copies = usize::from(!fate.drop) + usize::from(fate.dup);
        let stamp = self.arrivals + u64::from(fate.hold);
        self.queue
            .extend(std::iter::repeat_n((delivery, stamp), copies));
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::LinkProfile;
    use crate::component::{Component, ComponentState};

    fn chan() -> Channel {
        Channel::new(Loc(0), Loc(1))
    }
    fn send(m: Msg) -> Action {
        Action::Send {
            from: Loc(0),
            to: Loc(1),
            msg: m,
        }
    }
    fn recv(m: Msg) -> Action {
        Action::Receive {
            from: Loc(0),
            to: Loc(1),
            msg: m,
        }
    }

    #[test]
    fn fifo_order_preserved() {
        let c = chan();
        let mut s = c.initial_state();
        s = c.step(&s, &send(Msg::Token(1))).unwrap();
        s = c.step(&s, &send(Msg::Token(2))).unwrap();
        assert_eq!(c.enabled(&s, TaskId(0)), Some(recv(Msg::Token(1))));
        s = c.step(&s, &recv(Msg::Token(1))).unwrap();
        assert_eq!(c.enabled(&s, TaskId(0)), Some(recv(Msg::Token(2))));
        s = c.step(&s, &recv(Msg::Token(2))).unwrap();
        assert_eq!(c.enabled(&s, TaskId(0)), None);
    }

    #[test]
    fn out_of_order_receive_rejected() {
        let c = chan();
        let mut s = c.initial_state();
        s = c.step(&s, &send(Msg::Token(1))).unwrap();
        s = c.step(&s, &send(Msg::Token(2))).unwrap();
        assert_eq!(c.step(&s, &recv(Msg::Token(2))), None);
    }

    #[test]
    fn receive_on_empty_rejected() {
        let c = chan();
        let s = c.initial_state();
        assert_eq!(c.step(&s, &recv(Msg::Token(1))), None);
        assert_eq!(c.enabled(&s, TaskId(0)), None);
    }

    #[test]
    fn signature_is_pair_scoped() {
        let c = chan();
        assert_eq!(c.classify(&send(Msg::Token(0))), Some(ActionClass::Input));
        assert_eq!(c.classify(&recv(Msg::Token(0))), Some(ActionClass::Output));
        let other = Action::Send {
            from: Loc(1),
            to: Loc(0),
            msg: Msg::Token(0),
        };
        assert_eq!(c.classify(&other), None);
        assert_eq!(c.classify(&Action::Crash(Loc(0))), None);
    }

    #[test]
    #[should_panic(expected = "self-channels")]
    fn self_channel_rejected() {
        let _ = Channel::new(Loc(1), Loc(1));
    }

    #[test]
    fn contract_checks() {
        let c = chan();
        ioa::check_task_determinism(&c, 20, 1).unwrap();
        ioa::check_input_enabled(&c, &[send(Msg::Token(7))], 20, 1).unwrap();
    }

    #[test]
    fn duplicate_messages_supported() {
        let c = chan();
        let mut s = c.initial_state();
        s = c.step(&s, &send(Msg::Token(5))).unwrap();
        s = c.step(&s, &send(Msg::Token(5))).unwrap();
        s = c.step(&s, &recv(Msg::Token(5))).unwrap();
        assert_eq!(c.enabled(&s, TaskId(0)), Some(recv(Msg::Token(5))));
    }

    fn wsend(f: Frame) -> Action {
        Action::WireSend {
            from: Loc(0),
            to: Loc(1),
            frame: f,
        }
    }
    fn wrecv(f: Frame) -> Action {
        Action::WireRecv {
            from: Loc(0),
            to: Loc(1),
            frame: f,
        }
    }

    #[test]
    fn wire_channel_is_fifo_over_frames() {
        let w = WireChannel::new(Loc(0), Loc(1));
        let d0 = Frame::Data {
            seq: 0,
            msg: Msg::Token(9),
        };
        let a1 = Frame::Ack { cum: 1 };
        let mut s = w.initial_state();
        s = w.step(&s, &wsend(d0)).unwrap();
        s = w.step(&s, &wsend(a1)).unwrap();
        assert_eq!(w.enabled(&s, TaskId(0)), Some(wrecv(d0)));
        assert_eq!(w.step(&s, &wrecv(a1)), None, "head-of-line only");
        s = w.step(&s, &wrecv(d0)).unwrap();
        s = w.step(&s, &wrecv(a1)).unwrap();
        assert_eq!(w.enabled(&s, TaskId(0)), None);
    }

    #[test]
    fn wire_channel_signature_is_pair_scoped() {
        let w = WireChannel::new(Loc(0), Loc(1));
        let f = Frame::Ack { cum: 0 };
        assert_eq!(w.classify(&wsend(f)), Some(ActionClass::Input));
        assert_eq!(w.classify(&wrecv(f)), Some(ActionClass::Output));
        // App-level traffic is none of the wire channel's business.
        assert_eq!(w.classify(&send(Msg::Token(1))), None);
        let reverse = Action::WireSend {
            from: Loc(1),
            to: Loc(0),
            frame: f,
        };
        assert_eq!(w.classify(&reverse), None);
    }

    #[test]
    #[should_panic(expected = "self-channels")]
    fn wire_self_channel_rejected() {
        let _ = WireChannel::new(Loc(2), Loc(2));
    }

    fn add(c: Channel, profile: LinkProfile) -> ComponentState<ChannelState> {
        let chaos = ChannelChaos::new(3, c.from, c.to, profile);
        ComponentState::Add(Box::new(AddState::new(chaos)))
    }

    /// Deliver everything on offer; the `Receive`s, in order.
    fn drain(c: &Component<Channel>, mut s: ComponentState<ChannelState>) -> Vec<Action> {
        let mut out = Vec::new();
        while let Some(a) = c.enabled(&s, TaskId(0)) {
            s = c.step(&s, &a).expect("the offered delivery is accepted");
            out.push(a);
        }
        out
    }

    #[test]
    fn add_state_drops_duplicates_and_reorders_as_it_steps() {
        let profile = LinkProfile::lossy(0.3).with_dup(0.2).with_reorder(3);
        let c = Component::<Channel>::Channel(chan());
        let mut s = add(chan(), profile);
        let mut got = Vec::new();
        // Deliver everything on offer after every fourth send.
        for k in 0..64 {
            s = c.step(&s, &send(Msg::Token(k))).unwrap();
            while let Some(a) = c.enabled(&s, TaskId(0)).filter(|_| k % 4 == 3) {
                s = c.step(&s, &a).unwrap();
                got.push(a);
            }
        }
        let ComponentState::Add(st) = &s else {
            unreachable!()
        };
        let stats = st.stats;
        let mut plan = ChannelChaos::new(3, Loc(0), Loc(1), profile);
        let fates: Vec<_> = (0..64).map(|_| plan.next()).collect();
        assert_eq!(stats.arrivals, 64);
        assert_eq!(
            stats.dropped,
            fates.iter().filter(|d| d.drop).count() as u64
        );
        assert!(stats.dropped > 0 && stats.duplicated > 0 && stats.held > 0);
        got.extend(drain(&c, s));
        let expected = 64 - stats.dropped + stats.duplicated;
        assert_eq!(got.len() as u64, expected);
        let mut sorted = got.clone();
        sorted.sort_by_key(|a| match a {
            Action::Receive {
                msg: Msg::Token(k), ..
            } => *k,
            _ => unreachable!(),
        });
        assert_ne!(got, sorted, "some delivery was overtaken");
        // Out-of-signature actions are refused, not enqueued.
        let other = Action::Send {
            from: Loc(1),
            to: Loc(0),
            msg: Msg::Token(0),
        };
        assert_eq!(c.step(&add(chan(), profile), &other), None);
        assert_eq!(c.step(&add(chan(), profile), &recv(Msg::Token(0))), None);
    }

    #[test]
    fn add_state_accepts_a_delivery_chosen_before_later_sends() {
        // Hold everything: only the front is on offer until a stamp is
        // reached, and the offer stays acceptable as sends arrive.
        let c = Component::<Channel>::Channel(chan());
        let mut s = add(chan(), LinkProfile::default().with_reorder(4));
        s = c.step(&s, &send(Msg::Token(1))).unwrap();
        let offered = c.enabled(&s, TaskId(0)).unwrap();
        for k in 2..12 {
            s = c.step(&s, &send(Msg::Token(k))).unwrap();
        }
        assert!(c.step(&s, &offered).is_some());
    }

    #[test]
    fn add_state_is_a_wire_channel_start_state_too() {
        let w = Component::<Channel>::Wire(WireChannel::new(Loc(0), Loc(1)));
        let chaos = ChannelChaos::new(3, Loc(0), Loc(1), LinkProfile::lossy(0.0).with_dup(1.0));
        let mut s = ComponentState::Add(Box::new(AddState::new(chaos)));
        let f = Frame::Ack { cum: 2 };
        s = w.step(&s, &wsend(f)).unwrap();
        assert_eq!(drain(&w, s), vec![wrecv(f), wrecv(f)], "dup delivers twice");
    }

    #[test]
    fn wire_contract_checks() {
        let w = WireChannel::new(Loc(0), Loc(1));
        ioa::check_task_determinism(&w, 20, 1).unwrap();
        ioa::check_input_enabled(&w, &[wsend(Frame::Ack { cum: 3 })], 20, 1).unwrap();
    }
}
