//! The hand-rolled wire codec: length-prefixed binary frames carrying
//! the full [`Action`] alphabet plus the coordinator ↔ node control
//! protocol.
//!
//! Same spirit as `afd-obs`'s JSON kernel: no serde, no external
//! crates, every byte written by hand so the workspace stays hermetic.
//! The format is deliberately dumb — little-endian fixed-width
//! integers, `u32` length prefixes for sequences, one tag byte per
//! enum — because dumb formats are easy to fuzz and easy to decode
//! without panicking. Decoding returns a typed [`DecodeError`] on any
//! malformed input (truncation, unknown tags, trailing garbage,
//! oversized frames); it never panics and never allocates
//! proportionally to attacker-controlled lengths beyond the frame cap.
//!
//! On the socket every message travels as `[u32 len LE][payload]`,
//! written with a single `write_all` so a frame is never interleaved
//! even when several threads share one stream behind a mutex.

use std::io::{Read, Write};
use std::time::Duration;

use afd_core::{Action, Ballot, FdOutput, Frame, Loc, LocSet, Msg};
use afd_dgram::ChannelDgramStats;
use afd_runtime::{ChannelChaosStats, LinkProfile};

use crate::deploy::{DeploymentSpec, FdKindSpec};

/// Hard cap on a single wire frame. Nothing in the protocol comes
/// close; a length prefix above this is treated as garbage rather than
/// an allocation request.
pub const MAX_FRAME: u32 = 1 << 20;

/// The most [`read_frame`] reserves on the strength of a length prefix
/// alone; a longer payload grows its buffer only as its bytes arrive.
pub const FRAME_RESERVE: usize = 64 << 10;

/// Typed decoding failure. Every malformed input maps to one of these;
/// the decoder never panics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The buffer ended before a field was complete.
    Truncated {
        /// What was being decoded.
        what: &'static str,
        /// Bytes the field needed.
        needed: usize,
        /// Bytes that were left.
        have: usize,
    },
    /// An enum tag byte had no corresponding variant.
    BadTag {
        /// Which enum was being decoded.
        what: &'static str,
        /// The offending tag.
        tag: u8,
    },
    /// The payload decoded cleanly but bytes were left over.
    Trailing {
        /// How many bytes remained.
        extra: usize,
    },
    /// A frame length prefix exceeded [`MAX_FRAME`].
    FrameTooLarge {
        /// The claimed length.
        len: u32,
    },
    /// A length-prefixed string was not valid UTF-8.
    BadUtf8,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated { what, needed, have } => {
                write!(f, "truncated {what}: needed {needed} bytes, have {have}")
            }
            DecodeError::BadTag { what, tag } => write!(f, "bad {what} tag {tag}"),
            DecodeError::Trailing { extra } => write!(f, "{extra} trailing bytes after payload"),
            DecodeError::FrameTooLarge { len } => {
                write!(f, "frame length {len} exceeds cap {MAX_FRAME}")
            }
            DecodeError::BadUtf8 => write!(f, "string field is not valid UTF-8"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Result of a commit request, as it travels on the wire.
///
/// Mirrors `afd_runtime::Commit` — a separate type so the codec does
/// not fix the runtime's internal enum layout into the wire format.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommitStatus {
    /// The action is in the linearized schedule; apply the step.
    Accepted,
    /// The action's location is crashed; discard the step.
    Suppressed,
    /// The run is over; the worker should wind down.
    Stopped,
}

/// A [`LinkProfile`] as it travels on the wire: durations in
/// nanoseconds, probabilities as raw IEEE-754 bits so the message type
/// stays `Eq` and the round-trip is bit-exact (a channel's seeded
/// decision stream depends on the float bits, not an approximation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireLinkProfile {
    /// Fixed delivery delay, nanoseconds.
    pub delay_ns: u64,
    /// Upper bound of the uniform extra delay, nanoseconds.
    pub jitter_ns: u64,
    /// `LinkProfile::drop` as `f64::to_bits`.
    pub drop_bits: u64,
    /// `LinkProfile::dup` as `f64::to_bits`.
    pub dup_bits: u64,
    /// Maximum reorder window.
    pub reorder: u32,
}

impl From<LinkProfile> for WireLinkProfile {
    fn from(p: LinkProfile) -> Self {
        WireLinkProfile {
            delay_ns: p.delay.as_nanos() as u64,
            jitter_ns: p.jitter.as_nanos() as u64,
            drop_bits: p.drop.to_bits(),
            dup_bits: p.dup.to_bits(),
            reorder: p.reorder,
        }
    }
}

impl From<WireLinkProfile> for LinkProfile {
    fn from(w: WireLinkProfile) -> Self {
        LinkProfile {
            delay: Duration::from_nanos(w.delay_ns),
            jitter: Duration::from_nanos(w.jitter_ns),
            drop: f64::from_bits(w.drop_bits),
            dup: f64::from_bits(w.dup_bits),
            reorder: w.reorder,
        }
    }
}

/// The coordinator ↔ node control protocol.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireMsg {
    /// Node → coordinator, first message after connecting: incarnation
    /// `epoch` of node `node` is up. A first start is epoch 0; every
    /// respawn bumps it (monotone per node).
    Hello {
        /// The node id given at spawn time (`AFD_NET_NODE_ID`).
        node: u32,
        /// Incarnation epoch (`AFD_NET_EPOCH`).
        epoch: u32,
        /// Loopback UDP port the node receives datagrams on when the
        /// deployment runs its data channels over UDP
        /// (`AFD_NET_TRANSPORT=udp`); 0 = no datagram socket.
        udp_port: u16,
    },
    /// Coordinator → node: the deployment, this node's locations, the
    /// run parameters, and the length of the committed schedule prefix
    /// the coordinator streams as replay [`WireMsg::Deliver`] frames
    /// before any live traffic (0 for a first start, which attaches at
    /// schedule position 0). Doubles as the start signal.
    Assign {
        /// Echo of the node id.
        node: u32,
        /// Echo of the incarnation epoch.
        epoch: u32,
        /// What system to build (both sides build it identically).
        spec: DeploymentSpec,
        /// The locations this node hosts.
        locations: Vec<Loc>,
        /// The run seed (seeds the chaos streams of the channels a UDP
        /// node hosts).
        seed: u64,
        /// Microseconds a worker sleeps before committing a `WireSend`
        /// (throttles stubborn retransmission; 0 = no pacing).
        wire_pacing_us: u64,
        /// Committed schedule prefix length to be replayed.
        replay_len: u64,
    },
    /// Node → coordinator: please linearize this action.
    CommitReq {
        /// Global component index of the producing automaton.
        comp: u32,
        /// The speculated action.
        action: Action,
    },
    /// Coordinator → node: verdict for the oldest outstanding
    /// [`WireMsg::CommitReq`] from component `comp`.
    CommitResp {
        /// Echo of the component index.
        comp: u32,
        /// Commit outcome.
        status: CommitStatus,
    },
    /// Coordinator → node: a committed action that is an input of
    /// component `comp` (routing).
    Deliver {
        /// Global component index of the consuming automaton.
        comp: u32,
        /// The committed action.
        action: Action,
    },
    /// Coordinator → node: the run is over; exit cleanly.
    Stop {
        /// Machine-readable stop reason (`StopReason::name`).
        reason: String,
    },
    /// Node → coordinator: a batch of profiler records (spans and
    /// gauges) with the lane names that scope them. Streamed
    /// opportunistically during the run and once at shutdown; the
    /// coordinator merges all nodes' batches with its own profile into
    /// one multi-process timeline (see `afd_prof::merge`).
    Telemetry {
        /// The sending node's id.
        node: u32,
        /// `(lane id, name)` directory for lanes appearing in `recs`.
        lanes: Vec<(u32, String)>,
        /// The profiler records, in the node's flush order.
        recs: Vec<afd_prof::Rec>,
    },
    /// Coordinator → node, UDP deployments only, sent right after
    /// [`WireMsg::Assign`]: the datagram-plane wiring. Carries every
    /// node's UDP endpoint, the location → node hosting map, and the
    /// per-channel link profiles the node's engine runs the channels it
    /// hosts (those whose destination it hosts) under.
    UdpSetup {
        /// Echo of the node id.
        node: u32,
        /// `(node id, UDP port)` for every node, loopback addresses.
        peers: Vec<(u32, u16)>,
        /// `(location, node id)` hosting map for every location.
        hosts: Vec<(Loc, u32)>,
        /// `(from, to, profile)` for every directed channel.
        profiles: Vec<(Loc, Loc, WireLinkProfile)>,
    },
    /// Node → coordinator, UDP deployments only, sent once while
    /// winding down: the node's datagram-plane loss accounting and the
    /// chaos accounting of the channels it hosted, which the
    /// coordinator merges into the run report's
    /// [`afd_dgram::DgramStats`] and `ChaosReport`.
    DgramStats {
        /// The sending node's id.
        node: u32,
        /// Per-channel counters for every channel this node sent on or
        /// hosted.
        per_channel: Vec<(Loc, Loc, ChannelDgramStats)>,
        /// Per-channel chaos decisions its engine drew (chaotic hosted
        /// channels only).
        chaos: Vec<(Loc, Loc, ChannelChaosStats)>,
    },
}

// ---------------------------------------------------------------------
// Encoding: plain appends into a Vec<u8>.
// ---------------------------------------------------------------------

fn put_u8(buf: &mut Vec<u8>, v: u8) {
    buf.push(v);
}

fn put_u16(buf: &mut Vec<u8>, v: u16) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_bool(buf: &mut Vec<u8>, v: bool) {
    buf.push(u8::from(v));
}

fn put_loc(buf: &mut Vec<u8>, l: Loc) {
    buf.push(l.0);
}

fn put_u128(buf: &mut Vec<u8>, v: u128) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_locset(buf: &mut Vec<u8>, s: LocSet) {
    put_u128(buf, s.0);
}

fn put_ballot(buf: &mut Vec<u8>, b: Ballot) {
    put_u32(buf, b.round);
    put_loc(buf, b.owner);
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

fn put_fd_output(buf: &mut Vec<u8>, out: FdOutput) {
    match out {
        FdOutput::Leader(l) => {
            put_u8(buf, 0);
            put_loc(buf, l);
        }
        FdOutput::Suspects(s) => {
            put_u8(buf, 1);
            put_locset(buf, s);
        }
        FdOutput::Quorum(s) => {
            put_u8(buf, 2);
            put_locset(buf, s);
        }
        FdOutput::AntiLeader(l) => {
            put_u8(buf, 3);
            put_loc(buf, l);
        }
        FdOutput::Leaders(s) => {
            put_u8(buf, 4);
            put_locset(buf, s);
        }
        FdOutput::PsiK { quorum, leaders } => {
            put_u8(buf, 5);
            put_locset(buf, quorum);
            put_locset(buf, leaders);
        }
    }
}

fn put_msg(buf: &mut Vec<u8>, m: &Msg) {
    match *m {
        Msg::Prepare { ballot } => {
            put_u8(buf, 0);
            put_ballot(buf, ballot);
        }
        Msg::Promise { ballot, accepted } => {
            put_u8(buf, 1);
            put_ballot(buf, ballot);
            match accepted {
                None => put_u8(buf, 0),
                Some((b, v)) => {
                    put_u8(buf, 1);
                    put_ballot(buf, b);
                    put_u64(buf, v);
                }
            }
        }
        Msg::Accept { ballot, value } => {
            put_u8(buf, 2);
            put_ballot(buf, ballot);
            put_u64(buf, value);
        }
        Msg::Accepted { ballot, value } => {
            put_u8(buf, 3);
            put_ballot(buf, ballot);
            put_u64(buf, value);
        }
        Msg::DecideMsg { value } => {
            put_u8(buf, 4);
            put_u64(buf, value);
        }
        Msg::CtEstimate { round, est, ts } => {
            put_u8(buf, 5);
            put_u32(buf, round);
            put_u64(buf, est);
            put_u32(buf, ts);
        }
        Msg::CtPropose { round, est } => {
            put_u8(buf, 6);
            put_u32(buf, round);
            put_u64(buf, est);
        }
        Msg::CtAck { round, ok } => {
            put_u8(buf, 7);
            put_u32(buf, round);
            put_bool(buf, ok);
        }
        Msg::LeJoin => put_u8(buf, 8),
        Msg::LeElected { leader } => {
            put_u8(buf, 9);
            put_loc(buf, leader);
        }
        Msg::RbRelay {
            origin,
            seq,
            payload,
        } => {
            put_u8(buf, 10);
            put_loc(buf, origin);
            put_u32(buf, seq);
            put_u64(buf, payload);
        }
        Msg::KsEstimate { phase, est } => {
            put_u8(buf, 11);
            put_u32(buf, phase);
            put_u64(buf, est);
        }
        Msg::VoteMsg { yes } => {
            put_u8(buf, 12);
            put_bool(buf, yes);
        }
        Msg::FdSample { epoch, out } => {
            put_u8(buf, 13);
            put_u32(buf, epoch);
            put_fd_output(buf, out);
        }
        Msg::Heartbeat { epoch } => {
            put_u8(buf, 14);
            put_u32(buf, epoch);
        }
        Msg::Token(v) => {
            put_u8(buf, 15);
            put_u64(buf, v);
        }
    }
}

fn put_frame(buf: &mut Vec<u8>, fr: &Frame) {
    match *fr {
        Frame::Data { seq, msg } => {
            put_u8(buf, 0);
            put_u32(buf, seq);
            put_msg(buf, &msg);
        }
        Frame::Ack { cum } => {
            put_u8(buf, 1);
            put_u32(buf, cum);
        }
    }
}

/// Append the binary encoding of `a` to `buf`.
pub fn put_action(buf: &mut Vec<u8>, a: &Action) {
    match *a {
        Action::Crash(l) => {
            put_u8(buf, 0);
            put_loc(buf, l);
        }
        Action::Send { from, to, msg } => {
            put_u8(buf, 1);
            put_loc(buf, from);
            put_loc(buf, to);
            put_msg(buf, &msg);
        }
        Action::Receive { from, to, msg } => {
            put_u8(buf, 2);
            put_loc(buf, from);
            put_loc(buf, to);
            put_msg(buf, &msg);
        }
        Action::Fd { at, out } => {
            put_u8(buf, 3);
            put_loc(buf, at);
            put_fd_output(buf, out);
        }
        Action::FdRenamed { at, out } => {
            put_u8(buf, 4);
            put_loc(buf, at);
            put_fd_output(buf, out);
        }
        Action::Propose { at, v } => {
            put_u8(buf, 5);
            put_loc(buf, at);
            put_u64(buf, v);
        }
        Action::Decide { at, v } => {
            put_u8(buf, 6);
            put_loc(buf, at);
            put_u64(buf, v);
        }
        Action::Elect { at, leader } => {
            put_u8(buf, 7);
            put_loc(buf, at);
            put_loc(buf, leader);
        }
        Action::Broadcast { at, payload } => {
            put_u8(buf, 8);
            put_loc(buf, at);
            put_u64(buf, payload);
        }
        Action::Deliver {
            at,
            origin,
            payload,
        } => {
            put_u8(buf, 9);
            put_loc(buf, at);
            put_loc(buf, origin);
            put_u64(buf, payload);
        }
        Action::ProposeK { at, v } => {
            put_u8(buf, 10);
            put_loc(buf, at);
            put_u64(buf, v);
        }
        Action::DecideK { at, v } => {
            put_u8(buf, 11);
            put_loc(buf, at);
            put_u64(buf, v);
        }
        Action::Vote { at, yes } => {
            put_u8(buf, 12);
            put_loc(buf, at);
            put_bool(buf, yes);
        }
        Action::Verdict { at, commit } => {
            put_u8(buf, 13);
            put_loc(buf, at);
            put_bool(buf, commit);
        }
        Action::Query { at } => {
            put_u8(buf, 14);
            put_loc(buf, at);
        }
        Action::QueryReply { at, out } => {
            put_u8(buf, 15);
            put_loc(buf, at);
            put_fd_output(buf, out);
        }
        Action::Internal { at, tag } => {
            put_u8(buf, 16);
            put_loc(buf, at);
            put_u16(buf, tag);
        }
        Action::WireSend { from, to, frame } => {
            put_u8(buf, 17);
            put_loc(buf, from);
            put_loc(buf, to);
            put_frame(buf, &frame);
        }
        Action::WireRecv { from, to, frame } => {
            put_u8(buf, 18);
            put_loc(buf, from);
            put_loc(buf, to);
            put_frame(buf, &frame);
        }
        Action::Recover(l) => {
            put_u8(buf, 19);
            put_loc(buf, l);
        }
    }
}

fn put_fd_kind(buf: &mut Vec<u8>, k: &FdKindSpec) {
    match *k {
        FdKindSpec::Omega => put_u8(buf, 0),
        FdKindSpec::Perfect => put_u8(buf, 1),
        FdKindSpec::EvPerfectNoisy { lie_set, lie_count } => {
            put_u8(buf, 2);
            put_locset(buf, lie_set);
            put_u16(buf, lie_count);
        }
    }
}

fn put_spec(buf: &mut Vec<u8>, spec: &DeploymentSpec) {
    match spec {
        DeploymentSpec::SelfImpl { n, fd } => {
            put_u8(buf, 0);
            put_u8(buf, *n);
            put_fd_kind(buf, fd);
        }
        DeploymentSpec::Paxos { n, values } => {
            put_u8(buf, 1);
            put_u8(buf, *n);
            put_u32(buf, values.len() as u32);
            for v in values {
                put_u64(buf, *v);
            }
        }
        DeploymentSpec::ReliablePaxos { n, values } => {
            put_u8(buf, 2);
            put_u8(buf, *n);
            put_u32(buf, values.len() as u32);
            for v in values {
                put_u64(buf, *v);
            }
        }
        DeploymentSpec::PaxosVal { n, values } => {
            put_u8(buf, 3);
            put_u8(buf, *n);
            put_u32(buf, values.len() as u32);
            for v in values {
                put_u64(buf, *v);
            }
        }
        DeploymentSpec::BoundedEvP { n } => {
            put_u8(buf, 4);
            put_u8(buf, *n);
        }
    }
}

fn put_link_profile(buf: &mut Vec<u8>, p: &WireLinkProfile) {
    put_u64(buf, p.delay_ns);
    put_u64(buf, p.jitter_ns);
    put_u64(buf, p.drop_bits);
    put_u64(buf, p.dup_bits);
    put_u32(buf, p.reorder);
}

fn put_chan_dgram_stats(buf: &mut Vec<u8>, s: &ChannelDgramStats) {
    put_u64(buf, s.datagrams_tx);
    put_u64(buf, s.frags_tx);
    put_u64(buf, s.datagrams_rx);
    put_u64(buf, s.frags_rx);
    put_u64(buf, s.dup_frags);
    put_u64(buf, s.dup_datagrams);
    put_u64(buf, s.decode_errors);
}

fn put_chan_chaos_stats(buf: &mut Vec<u8>, s: &ChannelChaosStats) {
    put_u64(buf, s.arrivals);
    put_u64(buf, s.dropped);
    put_u64(buf, s.duplicated);
    put_u64(buf, s.held);
}

/// Encode a control message to its frame payload (without the length
/// prefix).
#[must_use]
pub fn encode_msg(m: &WireMsg) -> Vec<u8> {
    let mut buf = Vec::with_capacity(32);
    match m {
        WireMsg::Hello {
            node,
            epoch,
            udp_port,
        } => {
            put_u8(&mut buf, 0);
            put_u32(&mut buf, *node);
            put_u32(&mut buf, *epoch);
            put_u16(&mut buf, *udp_port);
        }
        WireMsg::Assign {
            node,
            epoch,
            spec,
            locations,
            seed,
            wire_pacing_us,
            replay_len,
        } => {
            put_u8(&mut buf, 1);
            put_u32(&mut buf, *node);
            put_u32(&mut buf, *epoch);
            put_spec(&mut buf, spec);
            put_u32(&mut buf, locations.len() as u32);
            for l in locations {
                put_loc(&mut buf, *l);
            }
            put_u64(&mut buf, *seed);
            put_u64(&mut buf, *wire_pacing_us);
            put_u64(&mut buf, *replay_len);
        }
        WireMsg::CommitReq { comp, action } => {
            put_u8(&mut buf, 2);
            put_u32(&mut buf, *comp);
            put_action(&mut buf, action);
        }
        WireMsg::CommitResp { comp, status } => {
            put_u8(&mut buf, 3);
            put_u32(&mut buf, *comp);
            put_u8(
                &mut buf,
                match status {
                    CommitStatus::Accepted => 0,
                    CommitStatus::Suppressed => 1,
                    CommitStatus::Stopped => 2,
                },
            );
        }
        WireMsg::Deliver { comp, action } => {
            put_u8(&mut buf, 4);
            put_u32(&mut buf, *comp);
            put_action(&mut buf, action);
        }
        WireMsg::Stop { reason } => {
            put_u8(&mut buf, 5);
            put_str(&mut buf, reason);
        }
        WireMsg::Telemetry { node, lanes, recs } => {
            put_u8(&mut buf, 6);
            put_u32(&mut buf, *node);
            put_u32(&mut buf, lanes.len() as u32);
            for (lane, name) in lanes {
                put_u32(&mut buf, *lane);
                put_str(&mut buf, name);
            }
            put_u32(&mut buf, recs.len() as u32);
            for r in recs {
                put_u8(&mut buf, r.kind);
                put_u8(&mut buf, r.id);
                put_u32(&mut buf, r.lane);
                put_u64(&mut buf, r.t_ns);
                put_u64(&mut buf, r.v);
            }
        }
        WireMsg::UdpSetup {
            node,
            peers,
            hosts,
            profiles,
        } => {
            put_u8(&mut buf, 10);
            put_u32(&mut buf, *node);
            put_u32(&mut buf, peers.len() as u32);
            for (id, port) in peers {
                put_u32(&mut buf, *id);
                put_u16(&mut buf, *port);
            }
            put_u32(&mut buf, hosts.len() as u32);
            for (loc, id) in hosts {
                put_loc(&mut buf, *loc);
                put_u32(&mut buf, *id);
            }
            put_u32(&mut buf, profiles.len() as u32);
            for (from, to, p) in profiles {
                put_loc(&mut buf, *from);
                put_loc(&mut buf, *to);
                put_link_profile(&mut buf, p);
            }
        }
        WireMsg::DgramStats {
            node,
            per_channel,
            chaos,
        } => {
            put_u8(&mut buf, 11);
            put_u32(&mut buf, *node);
            put_u32(&mut buf, per_channel.len() as u32);
            for (from, to, s) in per_channel {
                put_loc(&mut buf, *from);
                put_loc(&mut buf, *to);
                put_chan_dgram_stats(&mut buf, s);
            }
            put_u32(&mut buf, chaos.len() as u32);
            for (from, to, s) in chaos {
                put_loc(&mut buf, *from);
                put_loc(&mut buf, *to);
                put_chan_chaos_stats(&mut buf, s);
            }
        }
    }
    buf
}

// ---------------------------------------------------------------------
// Decoding: a cursor over the payload; every take checks bounds.
// ---------------------------------------------------------------------

/// Bounds-checked cursor over a frame payload.
#[derive(Debug)]
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    /// A cursor at the start of `buf`.
    #[must_use]
    pub fn new(buf: &'a [u8]) -> Self {
        Dec { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, what: &'static str, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.remaining() < n {
            return Err(DecodeError::Truncated {
                what,
                needed: n,
                have: self.remaining(),
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self, what: &'static str) -> Result<u8, DecodeError> {
        Ok(self.take(what, 1)?[0])
    }

    fn u16(&mut self, what: &'static str) -> Result<u16, DecodeError> {
        let b = self.take(what, 2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    fn u32(&mut self, what: &'static str) -> Result<u32, DecodeError> {
        let b = self.take(what, 4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self, what: &'static str) -> Result<u64, DecodeError> {
        let b = self.take(what, 8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    fn bool(&mut self, what: &'static str) -> Result<bool, DecodeError> {
        match self.u8(what)? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(DecodeError::BadTag { what, tag }),
        }
    }

    fn loc(&mut self) -> Result<Loc, DecodeError> {
        Ok(Loc(self.u8("Loc")?))
    }

    fn u128(&mut self, what: &'static str) -> Result<u128, DecodeError> {
        let b = self.take(what, 16)?;
        let mut bytes = [0u8; 16];
        bytes.copy_from_slice(b);
        Ok(u128::from_le_bytes(bytes))
    }

    fn locset(&mut self) -> Result<LocSet, DecodeError> {
        Ok(LocSet(self.u128("LocSet")?))
    }

    fn ballot(&mut self) -> Result<Ballot, DecodeError> {
        Ok(Ballot {
            round: self.u32("Ballot.round")?,
            owner: self.loc()?,
        })
    }

    /// A length-prefixed count, sanity-capped so a corrupt prefix
    /// cannot demand a giant allocation.
    fn seq_len(&mut self, what: &'static str) -> Result<usize, DecodeError> {
        let n = self.u32(what)?;
        // No element is smaller than one byte: a count beyond the
        // remaining payload is unconditionally garbage.
        let n = n as usize;
        if n > self.remaining() {
            return Err(DecodeError::Truncated {
                what,
                needed: n,
                have: self.remaining(),
            });
        }
        Ok(n)
    }

    fn str(&mut self) -> Result<String, DecodeError> {
        let n = self.seq_len("String.len")?;
        let b = self.take("String", n)?;
        String::from_utf8(b.to_vec()).map_err(|_| DecodeError::BadUtf8)
    }

    fn fd_output(&mut self) -> Result<FdOutput, DecodeError> {
        match self.u8("FdOutput")? {
            0 => Ok(FdOutput::Leader(self.loc()?)),
            1 => Ok(FdOutput::Suspects(self.locset()?)),
            2 => Ok(FdOutput::Quorum(self.locset()?)),
            3 => Ok(FdOutput::AntiLeader(self.loc()?)),
            4 => Ok(FdOutput::Leaders(self.locset()?)),
            5 => Ok(FdOutput::PsiK {
                quorum: self.locset()?,
                leaders: self.locset()?,
            }),
            tag => Err(DecodeError::BadTag {
                what: "FdOutput",
                tag,
            }),
        }
    }

    fn msg(&mut self) -> Result<Msg, DecodeError> {
        match self.u8("Msg")? {
            0 => Ok(Msg::Prepare {
                ballot: self.ballot()?,
            }),
            1 => {
                let ballot = self.ballot()?;
                let accepted = match self.u8("Msg.Promise.accepted")? {
                    0 => None,
                    1 => Some((self.ballot()?, self.u64("Val")?)),
                    tag => {
                        return Err(DecodeError::BadTag {
                            what: "Msg.Promise.accepted",
                            tag,
                        })
                    }
                };
                Ok(Msg::Promise { ballot, accepted })
            }
            2 => Ok(Msg::Accept {
                ballot: self.ballot()?,
                value: self.u64("Val")?,
            }),
            3 => Ok(Msg::Accepted {
                ballot: self.ballot()?,
                value: self.u64("Val")?,
            }),
            4 => Ok(Msg::DecideMsg {
                value: self.u64("Val")?,
            }),
            5 => Ok(Msg::CtEstimate {
                round: self.u32("Msg.round")?,
                est: self.u64("Val")?,
                ts: self.u32("Msg.ts")?,
            }),
            6 => Ok(Msg::CtPropose {
                round: self.u32("Msg.round")?,
                est: self.u64("Val")?,
            }),
            7 => Ok(Msg::CtAck {
                round: self.u32("Msg.round")?,
                ok: self.bool("Msg.ok")?,
            }),
            8 => Ok(Msg::LeJoin),
            9 => Ok(Msg::LeElected {
                leader: self.loc()?,
            }),
            10 => Ok(Msg::RbRelay {
                origin: self.loc()?,
                seq: self.u32("Msg.seq")?,
                payload: self.u64("Msg.payload")?,
            }),
            11 => Ok(Msg::KsEstimate {
                phase: self.u32("Msg.phase")?,
                est: self.u64("Val")?,
            }),
            12 => Ok(Msg::VoteMsg {
                yes: self.bool("Msg.yes")?,
            }),
            13 => Ok(Msg::FdSample {
                epoch: self.u32("Msg.epoch")?,
                out: self.fd_output()?,
            }),
            14 => Ok(Msg::Heartbeat {
                epoch: self.u32("Msg.epoch")?,
            }),
            15 => Ok(Msg::Token(self.u64("Msg.Token")?)),
            tag => Err(DecodeError::BadTag { what: "Msg", tag }),
        }
    }

    fn frame(&mut self) -> Result<Frame, DecodeError> {
        match self.u8("Frame")? {
            0 => Ok(Frame::Data {
                seq: self.u32("Frame.seq")?,
                msg: self.msg()?,
            }),
            1 => Ok(Frame::Ack {
                cum: self.u32("Frame.cum")?,
            }),
            tag => Err(DecodeError::BadTag { what: "Frame", tag }),
        }
    }

    /// Decode one [`Action`].
    ///
    /// # Errors
    /// [`DecodeError`] on truncation or an unknown tag.
    pub fn action(&mut self) -> Result<Action, DecodeError> {
        match self.u8("Action")? {
            0 => Ok(Action::Crash(self.loc()?)),
            1 => Ok(Action::Send {
                from: self.loc()?,
                to: self.loc()?,
                msg: self.msg()?,
            }),
            2 => Ok(Action::Receive {
                from: self.loc()?,
                to: self.loc()?,
                msg: self.msg()?,
            }),
            3 => Ok(Action::Fd {
                at: self.loc()?,
                out: self.fd_output()?,
            }),
            4 => Ok(Action::FdRenamed {
                at: self.loc()?,
                out: self.fd_output()?,
            }),
            5 => Ok(Action::Propose {
                at: self.loc()?,
                v: self.u64("Val")?,
            }),
            6 => Ok(Action::Decide {
                at: self.loc()?,
                v: self.u64("Val")?,
            }),
            7 => Ok(Action::Elect {
                at: self.loc()?,
                leader: self.loc()?,
            }),
            8 => Ok(Action::Broadcast {
                at: self.loc()?,
                payload: self.u64("Action.payload")?,
            }),
            9 => Ok(Action::Deliver {
                at: self.loc()?,
                origin: self.loc()?,
                payload: self.u64("Action.payload")?,
            }),
            10 => Ok(Action::ProposeK {
                at: self.loc()?,
                v: self.u64("Val")?,
            }),
            11 => Ok(Action::DecideK {
                at: self.loc()?,
                v: self.u64("Val")?,
            }),
            12 => Ok(Action::Vote {
                at: self.loc()?,
                yes: self.bool("Action.yes")?,
            }),
            13 => Ok(Action::Verdict {
                at: self.loc()?,
                commit: self.bool("Action.commit")?,
            }),
            14 => Ok(Action::Query { at: self.loc()? }),
            15 => Ok(Action::QueryReply {
                at: self.loc()?,
                out: self.fd_output()?,
            }),
            16 => Ok(Action::Internal {
                at: self.loc()?,
                tag: self.u16("Action.tag")?,
            }),
            17 => Ok(Action::WireSend {
                from: self.loc()?,
                to: self.loc()?,
                frame: self.frame()?,
            }),
            18 => Ok(Action::WireRecv {
                from: self.loc()?,
                to: self.loc()?,
                frame: self.frame()?,
            }),
            19 => Ok(Action::Recover(self.loc()?)),
            tag => Err(DecodeError::BadTag {
                what: "Action",
                tag,
            }),
        }
    }

    fn fd_kind(&mut self) -> Result<FdKindSpec, DecodeError> {
        match self.u8("FdKindSpec")? {
            0 => Ok(FdKindSpec::Omega),
            1 => Ok(FdKindSpec::Perfect),
            2 => Ok(FdKindSpec::EvPerfectNoisy {
                lie_set: self.locset()?,
                lie_count: self.u16("FdKindSpec.lie_count")?,
            }),
            tag => Err(DecodeError::BadTag {
                what: "FdKindSpec",
                tag,
            }),
        }
    }

    fn spec(&mut self) -> Result<DeploymentSpec, DecodeError> {
        match self.u8("DeploymentSpec")? {
            0 => Ok(DeploymentSpec::SelfImpl {
                n: self.u8("DeploymentSpec.n")?,
                fd: self.fd_kind()?,
            }),
            tag @ 1..=3 => {
                let n = self.u8("DeploymentSpec.n")?;
                let len = self.seq_len("DeploymentSpec.values")?;
                let mut values = Vec::with_capacity(len.min(256));
                for _ in 0..len {
                    values.push(self.u64("Val")?);
                }
                Ok(match tag {
                    1 => DeploymentSpec::Paxos { n, values },
                    2 => DeploymentSpec::ReliablePaxos { n, values },
                    _ => DeploymentSpec::PaxosVal { n, values },
                })
            }
            4 => Ok(DeploymentSpec::BoundedEvP {
                n: self.u8("DeploymentSpec.n")?,
            }),
            tag => Err(DecodeError::BadTag {
                what: "DeploymentSpec",
                tag,
            }),
        }
    }

    fn link_profile(&mut self) -> Result<WireLinkProfile, DecodeError> {
        Ok(WireLinkProfile {
            delay_ns: self.u64("WireLinkProfile.delay_ns")?,
            jitter_ns: self.u64("WireLinkProfile.jitter_ns")?,
            drop_bits: self.u64("WireLinkProfile.drop_bits")?,
            dup_bits: self.u64("WireLinkProfile.dup_bits")?,
            reorder: self.u32("WireLinkProfile.reorder")?,
        })
    }

    fn chan_dgram_stats(&mut self) -> Result<ChannelDgramStats, DecodeError> {
        Ok(ChannelDgramStats {
            datagrams_tx: self.u64("ChannelDgramStats.datagrams_tx")?,
            frags_tx: self.u64("ChannelDgramStats.frags_tx")?,
            datagrams_rx: self.u64("ChannelDgramStats.datagrams_rx")?,
            frags_rx: self.u64("ChannelDgramStats.frags_rx")?,
            dup_frags: self.u64("ChannelDgramStats.dup_frags")?,
            dup_datagrams: self.u64("ChannelDgramStats.dup_datagrams")?,
            decode_errors: self.u64("ChannelDgramStats.decode_errors")?,
        })
    }

    fn chan_chaos_stats(&mut self) -> Result<ChannelChaosStats, DecodeError> {
        Ok(ChannelChaosStats {
            arrivals: self.u64("ChannelChaosStats.arrivals")?,
            dropped: self.u64("ChannelChaosStats.dropped")?,
            duplicated: self.u64("ChannelChaosStats.duplicated")?,
            held: self.u64("ChannelChaosStats.held")?,
        })
    }

    fn wire_msg(&mut self) -> Result<WireMsg, DecodeError> {
        match self.u8("WireMsg")? {
            0 => Ok(WireMsg::Hello {
                node: self.u32("WireMsg.node")?,
                epoch: self.u32("Hello.epoch")?,
                udp_port: self.u16("Hello.udp_port")?,
            }),
            1 => {
                let node = self.u32("WireMsg.node")?;
                let epoch = self.u32("Assign.epoch")?;
                let spec = self.spec()?;
                let len = self.seq_len("Assign.locations")?;
                let mut locations = Vec::with_capacity(len.min(256));
                for _ in 0..len {
                    locations.push(self.loc()?);
                }
                Ok(WireMsg::Assign {
                    node,
                    epoch,
                    spec,
                    locations,
                    seed: self.u64("Assign.seed")?,
                    wire_pacing_us: self.u64("Assign.wire_pacing_us")?,
                    replay_len: self.u64("Assign.replay_len")?,
                })
            }
            2 => Ok(WireMsg::CommitReq {
                comp: self.u32("WireMsg.comp")?,
                action: self.action()?,
            }),
            3 => Ok(WireMsg::CommitResp {
                comp: self.u32("WireMsg.comp")?,
                status: match self.u8("CommitStatus")? {
                    0 => CommitStatus::Accepted,
                    1 => CommitStatus::Suppressed,
                    2 => CommitStatus::Stopped,
                    tag => {
                        return Err(DecodeError::BadTag {
                            what: "CommitStatus",
                            tag,
                        })
                    }
                },
            }),
            4 => Ok(WireMsg::Deliver {
                comp: self.u32("WireMsg.comp")?,
                action: self.action()?,
            }),
            5 => Ok(WireMsg::Stop {
                reason: self.str()?,
            }),
            6 => {
                let node = self.u32("WireMsg.node")?;
                let n_lanes = self.seq_len("Telemetry.lanes")?;
                let mut lanes = Vec::with_capacity(n_lanes.min(256));
                for _ in 0..n_lanes {
                    lanes.push((self.u32("Telemetry.lane")?, self.str()?));
                }
                let n_recs = self.seq_len("Telemetry.recs")?;
                let mut recs = Vec::with_capacity(n_recs.min(4096));
                for _ in 0..n_recs {
                    recs.push(afd_prof::Rec {
                        kind: self.u8("Rec.kind")?,
                        id: self.u8("Rec.id")?,
                        lane: self.u32("Rec.lane")?,
                        t_ns: self.u64("Rec.t_ns")?,
                        v: self.u64("Rec.v")?,
                    });
                }
                Ok(WireMsg::Telemetry { node, lanes, recs })
            }
            // Tags 7, 8 and 9 carried the retired Rejoin / RejoinAck /
            // HelloUdp frames; they stay unassigned so a peer built
            // before the merge is refused, not misread.
            10 => {
                let node = self.u32("WireMsg.node")?;
                let n_peers = self.seq_len("UdpSetup.peers")?;
                let mut peers = Vec::with_capacity(n_peers.min(256));
                for _ in 0..n_peers {
                    peers.push((self.u32("UdpSetup.node")?, self.u16("UdpSetup.port")?));
                }
                let n_hosts = self.seq_len("UdpSetup.hosts")?;
                let mut hosts = Vec::with_capacity(n_hosts.min(256));
                for _ in 0..n_hosts {
                    hosts.push((self.loc()?, self.u32("UdpSetup.host")?));
                }
                let n_profiles = self.seq_len("UdpSetup.profiles")?;
                let mut profiles = Vec::with_capacity(n_profiles.min(4096));
                for _ in 0..n_profiles {
                    profiles.push((self.loc()?, self.loc()?, self.link_profile()?));
                }
                Ok(WireMsg::UdpSetup {
                    node,
                    peers,
                    hosts,
                    profiles,
                })
            }
            11 => {
                let node = self.u32("WireMsg.node")?;
                let n_chans = self.seq_len("DgramStats.per_channel")?;
                let mut per_channel = Vec::with_capacity(n_chans.min(4096));
                for _ in 0..n_chans {
                    per_channel.push((self.loc()?, self.loc()?, self.chan_dgram_stats()?));
                }
                let n_chaos = self.seq_len("DgramStats.chaos")?;
                let mut chaos = Vec::with_capacity(n_chaos.min(4096));
                for _ in 0..n_chaos {
                    chaos.push((self.loc()?, self.loc()?, self.chan_chaos_stats()?));
                }
                Ok(WireMsg::DgramStats {
                    node,
                    per_channel,
                    chaos,
                })
            }
            tag => Err(DecodeError::BadTag {
                what: "WireMsg",
                tag,
            }),
        }
    }
}

/// Encode an [`Action`] alone (round-trip entry point for tests and
/// trace tooling).
#[must_use]
pub fn encode_action(a: &Action) -> Vec<u8> {
    let mut buf = Vec::with_capacity(16);
    put_action(&mut buf, a);
    buf
}

/// Decode an [`Action`] alone, rejecting trailing bytes.
///
/// # Errors
/// [`DecodeError`] on malformed input.
pub fn decode_action(bytes: &[u8]) -> Result<Action, DecodeError> {
    let mut d = Dec::new(bytes);
    let a = d.action()?;
    if d.remaining() != 0 {
        return Err(DecodeError::Trailing {
            extra: d.remaining(),
        });
    }
    Ok(a)
}

/// Decode a control message payload, rejecting trailing bytes.
///
/// # Errors
/// [`DecodeError`] on malformed input.
pub fn decode_msg(bytes: &[u8]) -> Result<WireMsg, DecodeError> {
    let mut d = Dec::new(bytes);
    let m = d.wire_msg()?;
    if d.remaining() != 0 {
        return Err(DecodeError::Trailing {
            extra: d.remaining(),
        });
    }
    Ok(m)
}

/// Write `m` as one `[u32 len][payload]` frame with a single
/// `write_all`, so concurrent writers behind a mutex never interleave
/// partial frames.
///
/// # Errors
/// Propagates the socket error.
pub fn write_frame(w: &mut impl Write, m: &WireMsg) -> std::io::Result<()> {
    write_encoded(w, &encode_msg(m))
}

/// Write an already-encoded payload as one length-prefixed frame.
///
/// Split out from [`write_frame`] so callers that want to attribute
/// encode time and socket time to separate profiling stages can call
/// [`encode_msg`] and this back to back.
pub fn write_encoded(w: &mut impl Write, payload: &[u8]) -> std::io::Result<()> {
    let mut frame = Vec::with_capacity(payload.len() + 4);
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(payload);
    w.write_all(&frame)
}

/// Read one length-prefixed frame and decode it.
///
/// Returns `Ok(None)` on clean EOF at a frame boundary (the peer
/// closed the connection); decoding failures are surfaced as
/// `InvalidData` io errors carrying the [`DecodeError`].
///
/// # Errors
/// Propagates socket errors; wraps [`DecodeError`] as `InvalidData`.
pub fn read_frame(r: &mut impl Read) -> std::io::Result<Option<WireMsg>> {
    let mut len_buf = [0u8; 4];
    // A clean EOF before any length byte is a normal close.
    match r.read(&mut len_buf) {
        Ok(0) => return Ok(None),
        Ok(n) => {
            if n < 4 {
                r.read_exact(&mut len_buf[n..])?;
            }
        }
        Err(e) => return Err(e),
    }
    let len = u32::from_le_bytes(len_buf);
    if len > MAX_FRAME {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            DecodeError::FrameTooLarge { len },
        ));
    }
    // `Take` answers the end-of-payload probe of `read_to_end` itself,
    // so a frame within the reserve costs one allocation and no extra
    // read from the socket.
    let mut payload = Vec::with_capacity((len as usize).min(FRAME_RESERVE));
    r.take(u64::from(len)).read_to_end(&mut payload)?;
    if payload.len() < len as usize {
        return Err(std::io::ErrorKind::UnexpectedEof.into());
    }
    decode_msg(&payload)
        .map(Some)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn action_roundtrip_smoke() {
        let a = Action::Send {
            from: Loc(0),
            to: Loc(63),
            msg: Msg::Promise {
                ballot: Ballot {
                    round: 7,
                    owner: Loc(2),
                },
                accepted: Some((
                    Ballot {
                        round: 3,
                        owner: Loc(1),
                    },
                    99,
                )),
            },
        };
        assert_eq!(decode_action(&encode_action(&a)), Ok(a));
    }

    #[test]
    fn truncation_is_typed_not_a_panic() {
        let bytes = encode_action(&Action::Crash(Loc(5)));
        assert!(matches!(
            decode_action(&bytes[..bytes.len() - 1]),
            Err(DecodeError::Truncated { .. })
        ));
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = encode_action(&Action::Query { at: Loc(0) });
        bytes.push(0);
        assert_eq!(
            decode_action(&bytes),
            Err(DecodeError::Trailing { extra: 1 })
        );
    }

    #[test]
    fn paxos_val_spec_roundtrip() {
        let m = WireMsg::Assign {
            node: 1,
            spec: DeploymentSpec::PaxosVal {
                n: 3,
                values: vec![10, 11, 1_000_003],
            },
            epoch: 0,
            locations: vec![Loc(1)],
            seed: 7,
            wire_pacing_us: 0,
            replay_len: 0,
        };
        let mut buf = Vec::new();
        write_frame(&mut buf, &m).unwrap();
        assert_eq!(read_frame(&mut buf.as_slice()).unwrap(), Some(m));
    }

    #[test]
    fn frame_io_roundtrip() {
        let m = WireMsg::CommitReq {
            comp: 3,
            action: Action::Internal {
                at: Loc(64),
                tag: 0xBEEF,
            },
        };
        let mut buf = Vec::new();
        write_frame(&mut buf, &m).unwrap();
        let got = read_frame(&mut buf.as_slice()).unwrap();
        assert_eq!(got, Some(m));
        // And the stream is now at a clean EOF.
        let mut rest = &buf[buf.len()..];
        assert_eq!(read_frame(&mut rest).unwrap(), None);
    }

    #[test]
    fn recover_action_roundtrip() {
        let a = Action::Recover(Loc(200));
        assert_eq!(decode_action(&encode_action(&a)), Ok(a));
        let bytes = encode_action(&a);
        assert!(matches!(
            decode_action(&bytes[..bytes.len() - 1]),
            Err(DecodeError::Truncated { .. })
        ));
    }

    #[test]
    fn udp_handshake_roundtrips_through_frames() {
        let hello = WireMsg::Hello {
            node: 4,
            epoch: 0,
            udp_port: 54_321,
        };
        let profile = afd_runtime::LinkProfile::lossy(0.30)
            .with_dup(0.05)
            .with_reorder(4);
        let setup = WireMsg::UdpSetup {
            node: 4,
            peers: vec![(0, 40_001), (1, 40_002), (4, 54_321)],
            hosts: vec![(Loc(0), 0), (Loc(1), 1), (Loc(2), 4)],
            profiles: vec![
                (Loc(0), Loc(1), WireLinkProfile::from(profile)),
                (
                    Loc(1),
                    Loc(0),
                    WireLinkProfile::from(afd_runtime::LinkProfile::default()),
                ),
            ],
        };
        let stats = WireMsg::DgramStats {
            node: 4,
            per_channel: vec![(
                Loc(0),
                Loc(1),
                afd_dgram::ChannelDgramStats {
                    datagrams_tx: 75,
                    frags_tx: 80,
                    datagrams_rx: 70,
                    frags_rx: 74,
                    dup_frags: 1,
                    dup_datagrams: 3,
                    decode_errors: 1,
                },
            )],
            chaos: vec![(
                Loc(0),
                Loc(1),
                ChannelChaosStats {
                    arrivals: 100,
                    dropped: 30,
                    duplicated: 5,
                    held: 2,
                },
            )],
        };
        let mut buf = Vec::new();
        for m in [&hello, &setup, &stats] {
            write_frame(&mut buf, m).unwrap();
        }
        let mut r = buf.as_slice();
        assert_eq!(read_frame(&mut r).unwrap(), Some(hello));
        assert_eq!(read_frame(&mut r).unwrap(), Some(setup));
        assert_eq!(read_frame(&mut r).unwrap(), Some(stats));
        assert_eq!(read_frame(&mut r).unwrap(), None);
    }

    /// `WireLinkProfile` is a bit-exact carrier: the f64 rates survive
    /// the `to_bits`/`from_bits` trip unchanged, including rates that
    /// are not exactly representable in decimal.
    #[test]
    fn wire_link_profile_is_bit_exact() {
        for drop in [0.0, 0.1, 0.3, 1.0 / 3.0, f64::MIN_POSITIVE] {
            let p = afd_runtime::LinkProfile::lossy(drop).with_dup(drop / 2.0);
            let back = afd_runtime::LinkProfile::from(WireLinkProfile::from(p));
            assert_eq!(p.drop.to_bits(), back.drop.to_bits());
            assert_eq!(p.dup.to_bits(), back.dup.to_bits());
            assert_eq!(p.reorder, back.reorder);
            assert_eq!(p.delay, back.delay);
            assert_eq!(p.jitter, back.jitter);
        }
    }

    #[test]
    fn bounded_evp_spec_roundtrip() {
        let m = WireMsg::Assign {
            node: 0,
            spec: DeploymentSpec::BoundedEvP { n: 5 },
            epoch: 0,
            locations: vec![Loc(0), Loc(3)],
            seed: 23,
            wire_pacing_us: 10,
            replay_len: 0,
        };
        let mut buf = Vec::new();
        write_frame(&mut buf, &m).unwrap();
        assert_eq!(read_frame(&mut buf.as_slice()).unwrap(), Some(m));
    }

    #[test]
    fn udp_setup_truncation_is_typed() {
        let bytes = encode_msg(&WireMsg::UdpSetup {
            node: 1,
            peers: vec![(0, 9), (1, 10)],
            hosts: vec![(Loc(0), 0)],
            profiles: vec![(
                Loc(0),
                Loc(1),
                WireLinkProfile::from(afd_runtime::LinkProfile::lossy(0.5)),
            )],
        });
        for cut in 0..bytes.len() {
            assert!(matches!(
                decode_msg(&bytes[..cut]),
                Err(DecodeError::Truncated { .. })
            ));
        }
    }
}
