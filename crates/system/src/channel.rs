//! The channel automaton `C_{i,j}` of §4.3: one automaton over two
//! alphabets, with two start states.
//!
//! For every ordered pair `(i, j)` of distinct locations the system
//! contains a channel transporting messages from the process at `i` to
//! the process at `j`. A send may occur at any time (input); when a
//! message is at the head of the queue, the corresponding receive is
//! enabled (output). Each channel has one task and is deterministic.
//!
//! [`crate::SystemBuilder::with_wire_channels`] chooses the [`Alphabet`]:
//! the paper's `Send`/`Receive` over [`afd_core::Msg`], or the frame
//! channel `W_{i,j}`'s `WireSend`/`WireRecv` over [`afd_core::Frame`],
//! on which the reliable-channel layer in `afd-algorithms` restores
//! reliable FIFO for the application. A queued delivery is the
//! `Receive`/`WireRecv` action itself, so one transition function
//! serves both.
//!
//! The initial state is the paper's empty FIFO queue: a receive is
//! accepted only at the front. [`ChannelState::add`] is the other start
//! state, Kumar & Welch's ADD channel ([`Adversary`]), where the engines
//! start a channel whose link profile is chaotic. On the paper's
//! `C_{i,j}` it breaks reliable FIFO, which the app-level FIFO checker
//! then reports.

use afd_core::{Action, Loc};
use ioa::{ActionClass, Automaton, TaskId};

use crate::chaos::{ChannelChaos, ChannelChaosStats};

/// The actions a channel carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Alphabet {
    /// The paper's `Send`/`Receive`.
    Msg,
    /// The reliable layer's `WireSend`/`WireRecv`.
    Wire,
}

/// The channel automaton `C_{from,to}`, or `W_{from,to}` over the wire alphabet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Channel {
    /// Sender location.
    pub from: Loc,
    /// Receiver location.
    pub to: Loc,
    /// What the channel carries.
    pub alphabet: Alphabet,
}

/// Channel state: the queued deliveries and, in the ADD start state,
/// the link adversary.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct ChannelState {
    // A `Vec`: the simulator clones every state each step, where an empty `VecDeque` costs ~5×.
    queue: Vec<Action>,
    adversary: Option<Box<Adversary>>,
}

/// What the ADD start state adds to the queue.
///
/// * A send draws exactly one [`ChannelChaos`] decision and enqueues
///   zero deliveries (drop), one, or two (dup), each stamped
///   `arrivals + hold`.
/// * A delivery is enabled when it is the queue front or its stamp has
///   been reached; the channel offers the first reached one, else the
///   front. Receiving removes the first queued copy of that delivery.
///
/// The set of enabled deliveries only grows as sends are appended, so
/// a delivery chosen before some sends were applied is still accepted
/// after them.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Adversary {
    chaos: ChannelChaos,
    /// One stamp per queued delivery, in queue order.
    stamps: Vec<u64>,
    /// What the adversary has done so far.
    pub stats: ChannelChaosStats,
}

impl Channel {
    /// The channel from `from` to `to` over `alphabet`.
    ///
    /// # Panics
    /// Panics if `from == to` (the model has no self-channels).
    #[must_use]
    pub fn new(from: Loc, to: Loc, alphabet: Alphabet) -> Self {
        assert_ne!(from, to, "no self-channels in the model");
        Channel { from, to, alphabet }
    }
}

impl Automaton for Channel {
    type Action = Action;
    type State = ChannelState;

    fn name(&self) -> String {
        let c = match self.alphabet {
            Alphabet::Msg => 'C',
            Alphabet::Wire => 'W',
        };
        format!("{c}[{}→{}]", self.from, self.to)
    }

    fn initial_state(&self) -> ChannelState {
        ChannelState::default()
    }

    #[inline]
    fn classify(&self, a: &Action) -> Option<ActionClass> {
        let (from, to, alphabet, class) = match *a {
            Action::Send { from, to, .. } => (from, to, Alphabet::Msg, ActionClass::Input),
            Action::Receive { from, to, .. } => (from, to, Alphabet::Msg, ActionClass::Output),
            Action::WireSend { from, to, .. } => (from, to, Alphabet::Wire, ActionClass::Input),
            Action::WireRecv { from, to, .. } => (from, to, Alphabet::Wire, ActionClass::Output),
            _ => return None,
        };
        (from == self.from && to == self.to && alphabet == self.alphabet).then_some(class)
    }

    fn task_count(&self) -> usize {
        1
    }

    #[inline]
    fn enabled(&self, s: &ChannelState, _t: TaskId) -> Option<Action> {
        let front = *s.queue.first()?;
        let Some(adv) = &s.adversary else {
            return Some(front);
        };
        let now = adv.stats.arrivals;
        let reached = adv.stamps.iter().position(|&at| at <= now);
        Some(reached.map_or(front, |k| s.queue[k]))
    }

    fn apply(&self, s: &mut ChannelState, a: &Action) -> bool {
        match (self.classify(a), *a) {
            (Some(ActionClass::Input), Action::Send { from, to, msg }) => {
                s.arrive(Action::Receive { from, to, msg });
            }
            (Some(ActionClass::Input), Action::WireSend { from, to, frame }) => {
                s.arrive(Action::WireRecv { from, to, frame });
            }
            (Some(ActionClass::Output), _) => return s.take(a),
            _ => return false,
        }
        true
    }
}

impl ChannelState {
    /// The ADD start state: an empty channel drawing its fates from
    /// `chaos`.
    #[must_use]
    pub fn add(chaos: ChannelChaos) -> Self {
        let adversary = Adversary {
            chaos,
            stamps: Vec::new(),
            stats: ChannelChaosStats::default(),
        };
        ChannelState {
            queue: Vec::new(),
            adversary: Some(Box::new(adversary)),
        }
    }

    /// Queued deliveries, head first.
    #[must_use]
    pub fn queue(&self) -> &[Action] {
        &self.queue
    }

    /// The link adversary, if the channel started in its ADD state.
    #[must_use]
    pub fn adversary(&self) -> Option<&Adversary> {
        self.adversary.as_deref()
    }

    /// A send arrives carrying `delivery`: queue it, or, in the ADD
    /// state, as many copies as the next decision says, stamped.
    fn arrive(&mut self, delivery: Action) {
        let Some(adv) = &mut self.adversary else {
            self.queue.push(delivery);
            return;
        };
        let fate = adv.chaos.next();
        adv.stats.arrivals += 1;
        adv.stats.dropped += u64::from(fate.drop);
        adv.stats.duplicated += u64::from(fate.dup);
        adv.stats.held += u64::from(fate.hold > 0);
        let copies = usize::from(!fate.drop) + usize::from(fate.dup);
        let stamp = adv.stats.arrivals + u64::from(fate.hold);
        adv.stamps.extend(std::iter::repeat_n(stamp, copies));
        self.queue.extend(std::iter::repeat_n(delivery, copies));
    }

    /// Receive `a`: remove its first queued copy if it is the front or,
    /// in the ADD state, some copy's stamp has been reached. `false`,
    /// with the state untouched, otherwise.
    fn take(&mut self, a: &Action) -> bool {
        let Some(k) = self.queue.iter().position(|d| d == a) else {
            return false;
        };
        let on_offer = k == 0
            || self.adversary.as_ref().is_some_and(|adv| {
                let now = adv.stats.arrivals;
                let mut stamped = self.queue.iter().zip(&adv.stamps);
                stamped.any(|(d, &at)| d == a && at <= now)
            });
        if on_offer {
            self.queue.remove(k);
            if let Some(adv) = &mut self.adversary {
                adv.stamps.remove(k);
            }
        }
        on_offer
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::LinkProfile;
    use afd_core::{Frame, Msg};

    const ALPHABETS: [Alphabet; 2] = [Alphabet::Msg, Alphabet::Wire];

    fn chan(alphabet: Alphabet) -> Channel {
        Channel::new(Loc(0), Loc(1), alphabet)
    }
    /// The `k`-th payload sent on `c`: a token, or a data frame
    /// carrying it.
    fn send(c: Channel, k: u64) -> Action {
        let (from, to, msg) = (c.from, c.to, Msg::Token(k));
        match c.alphabet {
            Alphabet::Msg => Action::Send { from, to, msg },
            Alphabet::Wire => Action::WireSend {
                from,
                to,
                frame: Frame::Data {
                    seq: u32::try_from(k).unwrap(),
                    msg,
                },
            },
        }
    }
    /// The delivery of [`send`]'s `k`-th payload.
    fn recv(c: Channel, k: u64) -> Action {
        match send(c, k) {
            Action::Send { from, to, msg } => Action::Receive { from, to, msg },
            Action::WireSend { from, to, frame } => Action::WireRecv { from, to, frame },
            _ => unreachable!(),
        }
    }

    #[test]
    fn fifo_order_preserved() {
        for c in ALPHABETS.map(chan) {
            let mut s = c.initial_state();
            s = c.step(&s, &send(c, 1)).unwrap();
            s = c.step(&s, &send(c, 2)).unwrap();
            assert_eq!(c.enabled(&s, TaskId(0)), Some(recv(c, 1)));
            assert_eq!(c.step(&s, &recv(c, 2)), None, "head-of-line only");
            s = c.step(&s, &recv(c, 1)).unwrap();
            assert_eq!(c.enabled(&s, TaskId(0)), Some(recv(c, 2)));
            s = c.step(&s, &recv(c, 2)).unwrap();
            assert_eq!(c.enabled(&s, TaskId(0)), None);
        }
    }

    #[test]
    fn out_of_order_receive_rejected() {
        let c = chan(Alphabet::Msg);
        let mut s = c.initial_state();
        s = c.step(&s, &send(c, 1)).unwrap();
        s = c.step(&s, &send(c, 2)).unwrap();
        assert_eq!(c.step(&s, &recv(c, 2)), None);
    }

    #[test]
    fn receive_on_empty_rejected() {
        let c = chan(Alphabet::Msg);
        let s = c.initial_state();
        assert_eq!(c.step(&s, &recv(c, 1)), None);
        assert_eq!(c.enabled(&s, TaskId(0)), None);
    }

    #[test]
    fn signature_is_pair_scoped() {
        for c in ALPHABETS.map(chan) {
            assert_eq!(c.classify(&send(c, 0)), Some(ActionClass::Input));
            assert_eq!(c.classify(&recv(c, 0)), Some(ActionClass::Output));
            let reverse = Channel::new(Loc(1), Loc(0), c.alphabet);
            assert_eq!(c.classify(&send(reverse, 0)), None);
            assert_eq!(c.classify(&Action::Crash(Loc(0))), None);
            // The other alphabet's traffic is none of this channel's
            // business.
            for other in ALPHABETS.map(chan).into_iter().filter(|o| *o != c) {
                assert_eq!(c.classify(&send(other, 1)), None);
                assert_eq!(c.classify(&recv(other, 1)), None);
            }
        }
    }

    #[test]
    #[should_panic(expected = "self-channels")]
    fn self_channel_rejected() {
        let _ = Channel::new(Loc(1), Loc(1), Alphabet::Msg);
    }

    #[test]
    #[should_panic(expected = "self-channels")]
    fn wire_self_channel_rejected() {
        let _ = Channel::new(Loc(2), Loc(2), Alphabet::Wire);
    }

    #[test]
    fn contract_checks() {
        for c in ALPHABETS.map(chan) {
            ioa::check_task_determinism(&c, 20, 1).unwrap();
            ioa::check_input_enabled(&c, &[send(c, 7)], 20, 1).unwrap();
        }
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
        // Data and acks share one queue.
        let w = chan(Alphabet::Wire);
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
        let w = chan(Alphabet::Wire);
        let f = Frame::Ack { cum: 0 };
        assert_eq!(w.classify(&wsend(f)), Some(ActionClass::Input));
        assert_eq!(w.classify(&wrecv(f)), Some(ActionClass::Output));
        // App-level traffic is none of the wire channel's business.
        assert_eq!(w.classify(&send(chan(Alphabet::Msg), 1)), None);
        let reverse = Action::WireSend {
            from: Loc(1),
            to: Loc(0),
            frame: f,
        };
        assert_eq!(w.classify(&reverse), None);
    }

    #[test]
    fn wire_contract_checks() {
        let w = chan(Alphabet::Wire);
        ioa::check_task_determinism(&w, 20, 1).unwrap();
        ioa::check_input_enabled(&w, &[wsend(Frame::Ack { cum: 3 })], 20, 1).unwrap();
    }

    #[test]
    fn duplicate_messages_supported() {
        let c = chan(Alphabet::Msg);
        let mut s = c.initial_state();
        s = c.step(&s, &send(c, 5)).unwrap();
        s = c.step(&s, &send(c, 5)).unwrap();
        s = c.step(&s, &recv(c, 5)).unwrap();
        assert_eq!(c.enabled(&s, TaskId(0)), Some(recv(c, 5)));
    }

    fn add(c: Channel, profile: LinkProfile) -> ChannelState {
        ChannelState::add(ChannelChaos::new(3, c.from, c.to, profile))
    }

    /// Deliver everything on offer; the deliveries, in order.
    fn drain(c: Channel, mut s: ChannelState) -> Vec<Action> {
        let mut out = Vec::new();
        while let Some(a) = c.enabled(&s, TaskId(0)) {
            s = c.step(&s, &a).expect("the offered delivery is accepted");
            out.push(a);
        }
        out
    }

    /// The payload `k` a delivery of [`send`]'s carries.
    fn payload(a: &Action) -> u64 {
        match a {
            Action::Receive {
                msg: Msg::Token(k), ..
            }
            | Action::WireRecv {
                frame: Frame::Data {
                    msg: Msg::Token(k), ..
                },
                ..
            } => *k,
            _ => unreachable!(),
        }
    }

    #[test]
    fn add_state_drops_duplicates_and_reorders_as_it_steps() {
        let profile = LinkProfile::lossy(0.3).with_dup(0.2).with_reorder(3);
        for c in ALPHABETS.map(chan) {
            let mut s = add(c, profile);
            let mut got = Vec::new();
            // Deliver everything on offer after every fourth send.
            for k in 0..64 {
                s = c.step(&s, &send(c, k)).unwrap();
                while let Some(a) = c.enabled(&s, TaskId(0)).filter(|_| k % 4 == 3) {
                    s = c.step(&s, &a).unwrap();
                    got.push(a);
                }
            }
            let stats = s.adversary().unwrap().stats;
            let mut plan = ChannelChaos::new(3, Loc(0), Loc(1), profile);
            let fates: Vec<_> = (0..64).map(|_| plan.next()).collect();
            assert_eq!(stats.arrivals, 64);
            assert_eq!(
                stats.dropped,
                fates.iter().filter(|d| d.drop).count() as u64
            );
            assert!(stats.dropped > 0 && stats.duplicated > 0 && stats.held > 0);
            got.extend(drain(c, s));
            let expected = 64 - stats.dropped + stats.duplicated;
            assert_eq!(got.len() as u64, expected, "a dup delivers twice");
            let mut sorted = got.clone();
            sorted.sort_by_key(payload);
            assert_ne!(got, sorted, "some delivery was overtaken");
            // Out-of-signature actions are refused, not enqueued.
            let reverse = Channel::new(Loc(1), Loc(0), c.alphabet);
            assert_eq!(c.step(&add(c, profile), &send(reverse, 0)), None);
            assert_eq!(c.step(&add(c, profile), &recv(c, 0)), None);
        }
    }

    #[test]
    fn add_state_is_a_wire_channel_start_state_too() {
        let w = chan(Alphabet::Wire);
        let mut s = add(w, LinkProfile::lossy(0.0).with_dup(1.0));
        let f = Frame::Ack { cum: 2 };
        s = w.step(&s, &wsend(f)).unwrap();
        assert_eq!(drain(w, s), vec![wrecv(f), wrecv(f)], "dup delivers twice");
    }

    #[test]
    fn add_state_accepts_a_delivery_chosen_before_later_sends() {
        // Hold everything: only the front is on offer until a stamp is
        // reached, and the offer stays acceptable as sends arrive.
        let c = chan(Alphabet::Msg);
        let mut s = add(c, LinkProfile::default().with_reorder(4));
        s = c.step(&s, &send(c, 1)).unwrap();
        let offered = c.enabled(&s, TaskId(0)).unwrap();
        for k in 2..12 {
            s = c.step(&s, &send(c, k)).unwrap();
        }
        assert!(c.step(&s, &offered).is_some());
    }
}
