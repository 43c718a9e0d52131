//! The concrete action alphabet of the reproduction.
//!
//! The paper works with per-problem action names (`crash_i`,
//! `send(m,j)_i`, `FD-Ω(j)_i`, `propose(v)_i`, …). We realize the whole
//! universe as one strongly typed enum so that compositions, traces, and
//! the execution tree are all hashable and cheaply comparable. Every
//! action *occurs at* a location (`loc(a)`, §3.1): sends occur at the
//! sender, receives at the receiver.

use crate::fd::FdOutput;
use crate::loc::Loc;
use crate::message::{Frame, Msg, Val};

/// One action of the system universe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Action {
    /// `crash_i` — output of the crash automaton (the set Î, §3.1).
    Crash(Loc),
    /// `send(m, to)_from` — output of the process at `from`, input of
    /// channel `C_{from,to}` (§4.1).
    Send {
        /// Sender (the location the action occurs at).
        from: Loc,
        /// Destination.
        to: Loc,
        /// Message payload.
        msg: Msg,
    },
    /// `receive(m, from)_to` — output of channel `C_{from,to}`, input of
    /// the process at `to`.
    Receive {
        /// Original sender.
        from: Loc,
        /// Receiver (the location the action occurs at).
        to: Loc,
        /// Message payload.
        msg: Msg,
    },
    /// An output of the failure detector `D` at location `at` (the set
    /// `O_D,at`).
    Fd {
        /// Location the output occurs at.
        at: Loc,
        /// Output value.
        out: FdOutput,
    },
    /// An output of the *renamed* detector `D′` at `at` — produced by the
    /// self-implementation algorithm `A_self` (§5.3, §6).
    FdRenamed {
        /// Location the output occurs at.
        at: Loc,
        /// Output value.
        out: FdOutput,
    },
    /// `propose(v)_i` — consensus input from the environment (§9.1).
    Propose {
        /// Proposing location.
        at: Loc,
        /// Proposed value.
        v: Val,
    },
    /// `decide(v)_i` — consensus output (§9.1).
    Decide {
        /// Deciding location.
        at: Loc,
        /// Decided value.
        v: Val,
    },
    /// Leader-election output: `at` announces `leader`.
    Elect {
        /// Announcing location.
        at: Loc,
        /// Elected leader.
        leader: Loc,
    },
    /// Reliable-broadcast input: `at` broadcasts `payload`.
    Broadcast {
        /// Broadcasting location.
        at: Loc,
        /// Application payload.
        payload: u64,
    },
    /// Reliable-broadcast output: `at` delivers `payload` from `origin`.
    Deliver {
        /// Delivering location.
        at: Loc,
        /// Originator of the payload.
        origin: Loc,
        /// Application payload.
        payload: u64,
    },
    /// k-set-agreement input.
    ProposeK {
        /// Proposing location.
        at: Loc,
        /// Proposed value.
        v: Val,
    },
    /// k-set-agreement output.
    DecideK {
        /// Deciding location.
        at: Loc,
        /// Decided value.
        v: Val,
    },
    /// Non-blocking-atomic-commit input: `at` votes yes or no.
    Vote {
        /// Voting location.
        at: Loc,
        /// The vote.
        yes: bool,
    },
    /// Non-blocking-atomic-commit output: `at` learns the verdict.
    Verdict {
        /// Learning location.
        at: Loc,
        /// True for commit, false for abort.
        commit: bool,
    },
    /// Query to a query-based failure detector (§10.1 discussion).
    Query {
        /// Querying location.
        at: Loc,
    },
    /// Reply from a query-based failure detector (§10.1 discussion).
    QueryReply {
        /// Location receiving the reply.
        at: Loc,
        /// Reply value.
        out: FdOutput,
    },
    /// An internal step of the process at `at` (tagged for debugging).
    Internal {
        /// Location the step occurs at.
        at: Loc,
        /// Free-form tag.
        tag: u16,
    },
    /// `wsend(f, to)_from` — a frame put on the *adversarial* wire by
    /// the reliable-channel layer at `from`: output of the process at
    /// `from`, input of the wire channel `W_{from,to}`.
    WireSend {
        /// Sender (the location the action occurs at).
        from: Loc,
        /// Destination.
        to: Loc,
        /// The frame.
        frame: Frame,
    },
    /// `wrecv(f, from)_to` — a frame coming off the adversarial wire:
    /// output of the wire channel `W_{from,to}`, input of the reliable
    /// layer at `to`.
    WireRecv {
        /// Original sender.
        from: Loc,
        /// Receiver (the location the action occurs at).
        to: Loc,
        /// The frame.
        frame: Frame,
    },
    /// `recover_i` — the crash-recovery extension of Î: the location
    /// rejoins the computation with a fresh incarnation. Dual of
    /// [`Action::Crash`]: it closes the down interval a crash opened,
    /// re-arming liveness obligations that were excused while down.
    Recover(Loc),
}

impl Action {
    /// `loc(a)` — the location the action occurs at (§3.1).
    #[must_use]
    pub fn loc(&self) -> Loc {
        match *self {
            Action::Crash(l) | Action::Recover(l) => l,
            Action::Send { from, .. } | Action::WireSend { from, .. } => from,
            Action::Receive { to, .. } | Action::WireRecv { to, .. } => to,
            Action::Fd { at, .. }
            | Action::FdRenamed { at, .. }
            | Action::Propose { at, .. }
            | Action::Decide { at, .. }
            | Action::Elect { at, .. }
            | Action::Broadcast { at, .. }
            | Action::Deliver { at, .. }
            | Action::ProposeK { at, .. }
            | Action::DecideK { at, .. }
            | Action::Vote { at, .. }
            | Action::Verdict { at, .. }
            | Action::Query { at }
            | Action::QueryReply { at, .. }
            | Action::Internal { at, .. } => at,
        }
    }

    /// True iff this is a crash action (a member of Î).
    #[must_use]
    pub fn is_crash(&self) -> bool {
        matches!(self, Action::Crash(_))
    }

    /// The crashed location, if this is a crash action.
    #[must_use]
    pub fn crash_loc(&self) -> Option<Loc> {
        match *self {
            Action::Crash(l) => Some(l),
            _ => None,
        }
    }

    /// True iff this is a recovery action.
    #[must_use]
    pub fn is_recover(&self) -> bool {
        matches!(self, Action::Recover(_))
    }

    /// The recovered location, if this is a recovery action.
    #[must_use]
    pub fn recover_loc(&self) -> Option<Loc> {
        match *self {
            Action::Recover(l) => Some(l),
            _ => None,
        }
    }

    /// True iff this is an output of the (un-renamed) failure detector.
    #[must_use]
    pub fn is_fd_output(&self) -> bool {
        matches!(self, Action::Fd { .. })
    }

    /// The FD output value, if this is an (un-renamed) FD output.
    #[must_use]
    pub fn fd_output(&self) -> Option<(Loc, FdOutput)> {
        match *self {
            Action::Fd { at, out } => Some((at, out)),
            _ => None,
        }
    }

    /// The FD output value, if this is a *renamed* FD output.
    #[must_use]
    pub fn fd_renamed_output(&self) -> Option<(Loc, FdOutput)> {
        match *self {
            Action::FdRenamed { at, out } => Some((at, out)),
            _ => None,
        }
    }

    /// The renaming bijection `r_IO` of §6: maps `Fd` outputs to
    /// `FdRenamed` outputs and fixes crash actions, as the definition of
    /// renaming requires. Returns `None` on actions outside `Î ∪ O_D`.
    #[must_use]
    pub fn rename_fd(&self) -> Option<Action> {
        match *self {
            Action::Fd { at, out } => Some(Action::FdRenamed { at, out }),
            Action::Crash(l) => Some(Action::Crash(l)),
            Action::Recover(l) => Some(Action::Recover(l)),
            _ => None,
        }
    }

    /// Inverse of [`Action::rename_fd`] (`r_IO^{-1}`).
    #[must_use]
    pub fn unrename_fd(&self) -> Option<Action> {
        match *self {
            Action::FdRenamed { at, out } => Some(Action::Fd { at, out }),
            Action::Crash(l) => Some(Action::Crash(l)),
            Action::Recover(l) => Some(Action::Recover(l)),
            _ => None,
        }
    }

    /// Number of action kinds: one per variant, the length of
    /// [`Action::KIND_NAMES`].
    pub const KIND_COUNT: usize = 20;

    /// Every [`Action::kind_name`], indexed by [`Action::kind_index`].
    pub const KIND_NAMES: [&'static str; Action::KIND_COUNT] = [
        "crash",
        "send",
        "receive",
        "fd",
        "fd_renamed",
        "propose",
        "decide",
        "elect",
        "broadcast",
        "deliver",
        "propose_k",
        "decide_k",
        "vote",
        "verdict",
        "query",
        "query_reply",
        "internal",
        "wire_send",
        "wire_recv",
        "recover",
    ];

    /// The action's variant as a dense index in `0..KIND_COUNT` — the
    /// slot of per-kind tables such as the metrics observer's counters.
    #[must_use]
    pub fn kind_index(&self) -> usize {
        match self {
            Action::Crash(_) => 0,
            Action::Send { .. } => 1,
            Action::Receive { .. } => 2,
            Action::Fd { .. } => 3,
            Action::FdRenamed { .. } => 4,
            Action::Propose { .. } => 5,
            Action::Decide { .. } => 6,
            Action::Elect { .. } => 7,
            Action::Broadcast { .. } => 8,
            Action::Deliver { .. } => 9,
            Action::ProposeK { .. } => 10,
            Action::DecideK { .. } => 11,
            Action::Vote { .. } => 12,
            Action::Verdict { .. } => 13,
            Action::Query { .. } => 14,
            Action::QueryReply { .. } => 15,
            Action::Internal { .. } => 16,
            Action::WireSend { .. } => 17,
            Action::WireRecv { .. } => 18,
            Action::Recover(_) => 19,
        }
    }

    /// The variant and the locations that decide which automata have
    /// this action in their signature, packed as `kind << 16 | x << 8 | y`.
    /// Sound because every `classify` in the system model is
    /// payload-independent: actions with equal keys are classified the
    /// same by every automaton. The runtime's routing index and
    /// `ioa::Composition`'s participants index are keyed by it.
    #[must_use]
    pub fn route_key(&self) -> u64 {
        let (x, y) = match *self {
            Action::Send { from, to, .. }
            | Action::Receive { from, to, .. }
            | Action::WireSend { from, to, .. }
            | Action::WireRecv { from, to, .. } => (from, to),
            Action::Elect { at, leader } => (at, leader),
            Action::Deliver { at, origin, .. } => (at, origin),
            _ => (self.loc(), Loc(0)),
        };
        (self.kind_index() as u64) << 16 | u64::from(x.0) << 8 | u64::from(y.0)
    }

    /// A stable machine-readable tag for the action's variant — the
    /// `kind` field of exported traces and the key of per-kind metrics.
    #[must_use]
    pub fn kind_name(&self) -> &'static str {
        Action::KIND_NAMES[self.kind_index()]
    }

    /// True iff this is a decide-style problem output (`decide` or
    /// `decide_k`) — the events the decision-latency statistics track.
    #[must_use]
    pub fn is_decision(&self) -> bool {
        matches!(self, Action::Decide { .. } | Action::DecideK { .. })
    }

    /// The channel `(from, to)` this action is traffic on, if it is a
    /// `Send` or `Receive` (application-level traffic).
    #[must_use]
    pub fn channel(&self) -> Option<(Loc, Loc)> {
        match *self {
            Action::Send { from, to, .. } | Action::Receive { from, to, .. } => Some((from, to)),
            _ => None,
        }
    }

    /// The wire channel `(from, to)` this action is frame traffic on,
    /// if it is a `WireSend` or `WireRecv`.
    #[must_use]
    pub fn wire_channel(&self) -> Option<(Loc, Loc)> {
        match *self {
            Action::WireSend { from, to, .. } | Action::WireRecv { from, to, .. } => {
                Some((from, to))
            }
            _ => None,
        }
    }

    /// The frame, if this is wire traffic.
    #[must_use]
    pub fn frame(&self) -> Option<Frame> {
        match *self {
            Action::WireSend { frame, .. } | Action::WireRecv { frame, .. } => Some(frame),
            _ => None,
        }
    }
}

impl std::fmt::Display for Action {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Action::Crash(l) => write!(f, "crash_{l}"),
            Action::Send { from, to, msg } => write!(f, "send({msg:?},{to})_{from}"),
            Action::Receive { from, to, msg } => write!(f, "receive({msg:?},{from})_{to}"),
            Action::Fd { at, out } => write!(f, "FD({out})_{at}"),
            Action::FdRenamed { at, out } => write!(f, "FD'({out})_{at}"),
            Action::Propose { at, v } => write!(f, "propose({v})_{at}"),
            Action::Decide { at, v } => write!(f, "decide({v})_{at}"),
            Action::Elect { at, leader } => write!(f, "elect({leader})_{at}"),
            Action::Broadcast { at, payload } => write!(f, "bcast({payload})_{at}"),
            Action::Deliver {
                at,
                origin,
                payload,
            } => {
                write!(f, "deliver({payload} from {origin})_{at}")
            }
            Action::ProposeK { at, v } => write!(f, "proposeK({v})_{at}"),
            Action::Vote { at, yes } => write!(f, "vote({})_{at}", if *yes { "yes" } else { "no" }),
            Action::Verdict { at, commit } => {
                write!(
                    f,
                    "verdict({})_{at}",
                    if *commit { "commit" } else { "abort" }
                )
            }
            Action::DecideK { at, v } => write!(f, "decideK({v})_{at}"),
            Action::Query { at } => write!(f, "query_{at}"),
            Action::QueryReply { at, out } => write!(f, "reply({out})_{at}"),
            Action::Internal { at, tag } => write!(f, "internal#{tag}_{at}"),
            Action::WireSend { from, to, frame } => write!(f, "wsend({frame},{to})_{from}"),
            Action::WireRecv { from, to, frame } => write!(f, "wrecv({frame},{from})_{to}"),
            Action::Recover(l) => write!(f, "recover_{l}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loc::LocSet;

    #[test]
    fn loc_follows_paper_conventions() {
        let send = Action::Send {
            from: Loc(1),
            to: Loc(2),
            msg: Msg::Token(0),
        };
        assert_eq!(send.loc(), Loc(1), "send occurs at the sender");
        let recv = Action::Receive {
            from: Loc(1),
            to: Loc(2),
            msg: Msg::Token(0),
        };
        assert_eq!(recv.loc(), Loc(2), "receive occurs at the receiver");
        assert_eq!(Action::Crash(Loc(3)).loc(), Loc(3));
        assert_eq!(Action::Query { at: Loc(4) }.loc(), Loc(4));
    }

    #[test]
    fn crash_predicates() {
        let c = Action::Crash(Loc(0));
        assert!(c.is_crash());
        assert_eq!(c.crash_loc(), Some(Loc(0)));
        assert!(!Action::Query { at: Loc(0) }.is_crash());
        assert_eq!(Action::Query { at: Loc(0) }.crash_loc(), None);
    }

    #[test]
    fn renaming_is_a_bijection_fixing_crashes() {
        let out = FdOutput::Suspects(LocSet::singleton(Loc(1)));
        let a = Action::Fd { at: Loc(0), out };
        let r = a.rename_fd().unwrap();
        assert_eq!(r, Action::FdRenamed { at: Loc(0), out });
        assert_eq!(r.unrename_fd(), Some(a));
        // Crashes are fixed points (§5.3 condition 2b).
        let c = Action::Crash(Loc(2));
        assert_eq!(c.rename_fd(), Some(c));
        assert_eq!(c.unrename_fd(), Some(c));
        // Renaming preserves locations (§5.3 condition 2a).
        assert_eq!(a.loc(), r.loc());
        // Out-of-domain actions map to None.
        assert_eq!(Action::Query { at: Loc(0) }.rename_fd(), None);
    }

    #[test]
    fn fd_output_accessors() {
        let out = FdOutput::Leader(Loc(1));
        let a = Action::Fd { at: Loc(0), out };
        assert!(a.is_fd_output());
        assert_eq!(a.fd_output(), Some((Loc(0), out)));
        assert_eq!(a.fd_renamed_output(), None);
        let r = a.rename_fd().unwrap();
        assert_eq!(r.fd_renamed_output(), Some((Loc(0), out)));
        assert!(!r.is_fd_output());
    }

    #[test]
    fn display_is_readable() {
        assert_eq!(Action::Crash(Loc(1)).to_string(), "crash_p1");
        assert_eq!(
            Action::Decide { at: Loc(0), v: 1 }.to_string(),
            "decide(1)_p0"
        );
        assert!(Action::Fd {
            at: Loc(0),
            out: FdOutput::Leader(Loc(2))
        }
        .to_string()
        .contains("Ω=p2"));
    }

    #[test]
    fn kind_names_and_channel_helpers() {
        assert_eq!(Action::Crash(Loc(0)).kind_name(), "crash");
        let send = Action::Send {
            from: Loc(1),
            to: Loc(2),
            msg: Msg::Token(0),
        };
        assert_eq!(send.kind_name(), "send");
        assert_eq!(send.channel(), Some((Loc(1), Loc(2))));
        assert_eq!(Action::Crash(Loc(0)).channel(), None);
        assert!(Action::Decide { at: Loc(0), v: 1 }.is_decision());
        assert!(Action::DecideK { at: Loc(0), v: 1 }.is_decision());
        assert!(!Action::Elect {
            at: Loc(0),
            leader: Loc(1)
        }
        .is_decision());
    }

    #[test]
    fn kind_index_is_dense_unique_and_names_every_kind() {
        let (at, msg, out, frame) = (
            Loc(0),
            Msg::Token(0),
            FdOutput::Leader(Loc(1)),
            Frame::Ack { cum: 0 },
        );
        let (from, to) = (Loc(0), Loc(1));
        let one_of_each = [
            Action::Crash(at),
            Action::Send { from, to, msg },
            Action::Receive { from, to, msg },
            Action::Fd { at, out },
            Action::FdRenamed { at, out },
            Action::Propose { at, v: 0 },
            Action::Decide { at, v: 0 },
            Action::Elect { at, leader: to },
            Action::Broadcast { at, payload: 0 },
            Action::Deliver {
                at,
                origin: to,
                payload: 0,
            },
            Action::ProposeK { at, v: 0 },
            Action::DecideK { at, v: 0 },
            Action::Vote { at, yes: true },
            Action::Verdict { at, commit: true },
            Action::Query { at },
            Action::QueryReply { at, out },
            Action::Internal { at, tag: 0 },
            Action::WireSend { from, to, frame },
            Action::WireRecv { from, to, frame },
            Action::Recover(at),
        ];
        let mut indices: Vec<usize> = one_of_each.iter().map(Action::kind_index).collect();
        indices.sort_unstable();
        assert_eq!(indices, (0..Action::KIND_COUNT).collect::<Vec<_>>());
        for a in &one_of_each {
            assert_eq!(Action::KIND_NAMES[a.kind_index()], a.kind_name());
        }
        let mut names = Action::KIND_NAMES.to_vec();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Action::KIND_COUNT, "kind names are distinct");
    }

    #[test]
    fn wire_actions_follow_send_receive_conventions() {
        use crate::message::Frame;
        let ws = Action::WireSend {
            from: Loc(1),
            to: Loc(2),
            frame: Frame::Data {
                seq: 3,
                msg: Msg::Token(7),
            },
        };
        assert_eq!(ws.loc(), Loc(1), "wire send occurs at the sender");
        assert_eq!(ws.kind_name(), "wire_send");
        assert_eq!(ws.wire_channel(), Some((Loc(1), Loc(2))));
        assert_eq!(ws.channel(), None, "wire traffic is not app traffic");
        assert!(ws.to_string().contains("D#3"));
        let wr = Action::WireRecv {
            from: Loc(1),
            to: Loc(2),
            frame: Frame::Ack { cum: 4 },
        };
        assert_eq!(wr.loc(), Loc(2), "wire receive occurs at the receiver");
        assert_eq!(wr.frame(), Some(Frame::Ack { cum: 4 }));
        assert!(wr.to_string().contains("A#4"));
    }

    #[test]
    fn recover_predicates_and_renaming() {
        let r = Action::Recover(Loc(2));
        assert!(r.is_recover());
        assert!(!r.is_crash());
        assert_eq!(r.recover_loc(), Some(Loc(2)));
        assert_eq!(r.crash_loc(), None);
        assert_eq!(r.loc(), Loc(2));
        assert_eq!(r.kind_name(), "recover");
        assert_eq!(r.to_string(), "recover_p2");
        // Like crashes, recoveries are fixed points of the renaming
        // bijection: they live in the environment alphabet, not O_D.
        assert_eq!(r.rename_fd(), Some(r));
        assert_eq!(r.unrename_fd(), Some(r));
        assert_eq!(Action::Crash(Loc(2)).recover_loc(), None);
    }

    #[test]
    fn actions_order_and_hash() {
        use std::collections::HashSet;
        let mut s = HashSet::new();
        s.insert(Action::Crash(Loc(0)));
        s.insert(Action::Crash(Loc(0)));
        s.insert(Action::Crash(Loc(1)));
        assert_eq!(s.len(), 2);
    }
}
