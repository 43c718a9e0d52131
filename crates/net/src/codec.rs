//! The wire codec: length-prefixed binary frames carrying the full
//! [`Action`] alphabet plus the coordinator ↔ node control protocol.
//!
//! No serde, no external crates. Every type that travels implements
//! [`Wire`]: the building blocks (integers, `bool`, `Loc`, `LocSet`,
//! `String`, `Vec`, `Option`, tuples) by hand, structs and enums through
//! the `wire_struct!` / `wire_enum!` tables, one row per struct or enum
//! variant. A row yields the encoder, the decoder arm and a seeded test
//! generator, so they cannot drift apart; `tests/data/wire_golden.txt`
//! pins the bytes.
//!
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

use std::io::ErrorKind::{self, Interrupted, TimedOut, WouldBlock};
use std::io::{Read, Write};
use std::time::Duration;

use afd_core::{Action, Ballot, FdOutput, Frame, Loc, LocSet, Msg};
use afd_dgram::ChannelDgramStats;
use afd_prof::Rec;
use afd_runtime::{ChannelChaosStats, LinkProfile};
use afd_system::SplitMix64;

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
        /// What was being decoded (`Type.Variant.field`).
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
        recs: Vec<Rec>,
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

/// A type with a wire encoding: how it is written, read back, and drawn
/// by tests.
///
/// To add a variant to an enum that travels, add one row to its
/// `wire_enum!` table below: a tag byte no row (live or retired) uses,
/// the variant, and its fields in wire order, each of a `Wire` type.
/// Encoder, decoder, generator and [`Wire::TAGS`] follow from the row,
/// and the codec tests sweep it unedited. Never renumber or reorder a
/// row: `tests/data/wire_golden.txt` pins its bytes.
pub trait Wire: Sized {
    /// An enum's tag bytes in table order; empty for every other type.
    const TAGS: &'static [u8] = &[];

    /// Append the encoding of `self` to `buf`.
    fn put(&self, buf: &mut Vec<u8>);

    /// Decode one value. `what` names the field being read, for the
    /// [`DecodeError::Truncated`] it may return.
    ///
    /// # Errors
    /// [`DecodeError`] on truncation, an unknown tag or bad UTF-8.
    fn get(d: &mut Dec<'_>, what: &'static str) -> Result<Self, DecodeError>;

    /// A seeded, boundary-biased value (zeros, maxima, top bits) for
    /// property tests and fuzzing.
    fn arbitrary(rng: &mut SplitMix64) -> Self;
}

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

    // Forced inline, like the building blocks' `put` and `get`: every
    // field passes through them, and left out, decoding ran ~10 % slower.
    #[inline(always)]
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

    /// A length-prefixed count, sanity-capped so a corrupt prefix
    /// cannot demand a giant allocation.
    fn seq_len(&mut self, what: &'static str) -> Result<usize, DecodeError> {
        let n = u32::get(self, what)? as usize;
        // No element is smaller than one byte: a count beyond the
        // remaining payload is unconditionally garbage.
        if n > self.remaining() {
            return Err(DecodeError::Truncated {
                what,
                needed: n,
                have: self.remaining(),
            });
        }
        Ok(n)
    }
}

macro_rules! wire_int {
    ($($t:ty),*) => {$(
        impl Wire for $t {
            #[inline(always)]
            fn put(&self, buf: &mut Vec<u8>) {
                buf.extend_from_slice(&self.to_le_bytes());
            }
            #[inline(always)]
            fn get(d: &mut Dec<'_>, what: &'static str) -> Result<Self, DecodeError> {
                let b = d.take(what, std::mem::size_of::<$t>())?;
                Ok(<$t>::from_le_bytes(b.try_into().expect("took exactly the width")))
            }
            fn arbitrary(rng: &mut SplitMix64) -> Self {
                match rng.below(5) {
                    0 => 0,
                    1 => <$t>::MAX,
                    2 => 1 << (<$t>::BITS - 1),
                    3 => rng.below(16) as $t,
                    _ => (u128::from(rng.next_u64()) << 64 | u128::from(rng.next_u64())) as $t,
                }
            }
        }
    )*};
}

wire_int!(u8, u16, u32, u64, u128);

impl Wire for bool {
    #[inline(always)]
    fn put(&self, buf: &mut Vec<u8>) {
        buf.push(u8::from(*self));
    }

    #[inline(always)]
    fn get(d: &mut Dec<'_>, what: &'static str) -> Result<Self, DecodeError> {
        match u8::get(d, what)? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(DecodeError::BadTag { what, tag }),
        }
    }

    fn arbitrary(rng: &mut SplitMix64) -> Self {
        rng.below(2) == 1
    }
}

/// `Newtype(Inner)`: a one-field tuple struct travels as its field.
macro_rules! wire_newtype {
    ($($ty:ident($inner:ty)),*) => {$(
        impl Wire for $ty {
            #[inline(always)]
            fn put(&self, buf: &mut Vec<u8>) {
                // A copy: `LocSet`'s packed field cannot be borrowed.
                let inner = self.0;
                inner.put(buf);
            }
            #[inline(always)]
            fn get(d: &mut Dec<'_>, what: &'static str) -> Result<Self, DecodeError> {
                Ok($ty(<$inner>::get(d, what)?))
            }
            fn arbitrary(rng: &mut SplitMix64) -> Self {
                $ty(<$inner>::arbitrary(rng))
            }
        }
    )*};
}

wire_newtype!(Loc(u8), LocSet(u128));

impl Wire for String {
    fn put(&self, buf: &mut Vec<u8>) {
        (self.len() as u32).put(buf);
        buf.extend_from_slice(self.as_bytes());
    }

    fn get(d: &mut Dec<'_>, what: &'static str) -> Result<Self, DecodeError> {
        let n = d.seq_len(what)?;
        String::from_utf8(d.take(what, n)?.to_vec()).map_err(|_| DecodeError::BadUtf8)
    }

    /// ASCII mixed with two-, three- and four-byte characters.
    fn arbitrary(rng: &mut SplitMix64) -> Self {
        const CHARS: [char; 8] = ['a', 'z', '0', ' ', '-', 'Π', '◇', '🦀'];
        (0..rng.below(12))
            .map(|_| CHARS[rng.below(CHARS.len() as u64) as usize])
            .collect()
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn put(&self, buf: &mut Vec<u8>) {
        (self.len() as u32).put(buf);
        for x in self {
            x.put(buf);
        }
    }

    /// The count is at most the bytes left (`Dec::seq_len`), so the
    /// reservation costs at most `size_of::<T>()` bytes per input byte.
    fn get(d: &mut Dec<'_>, what: &'static str) -> Result<Self, DecodeError> {
        let n = d.seq_len(what)?;
        let mut v = Vec::with_capacity(n);
        for _ in 0..n {
            v.push(T::get(d, what)?);
        }
        Ok(v)
    }

    fn arbitrary(rng: &mut SplitMix64) -> Self {
        (0..rng.below(8)).map(|_| T::arbitrary(rng)).collect()
    }
}

impl<T: Wire> Wire for Option<T> {
    fn put(&self, buf: &mut Vec<u8>) {
        match self {
            None => buf.push(0),
            Some(x) => {
                buf.push(1);
                x.put(buf);
            }
        }
    }

    fn get(d: &mut Dec<'_>, what: &'static str) -> Result<Self, DecodeError> {
        match u8::get(d, what)? {
            0 => Ok(None),
            1 => Ok(Some(T::get(d, what)?)),
            tag => Err(DecodeError::BadTag { what, tag }),
        }
    }

    fn arbitrary(rng: &mut SplitMix64) -> Self {
        (rng.below(2) == 1).then(|| T::arbitrary(rng))
    }
}

macro_rules! wire_tuple {
    ($($t:ident . $i:tt),+) => {
        impl<$($t: Wire),+> Wire for ($($t,)+) {
            fn put(&self, buf: &mut Vec<u8>) {
                $(self.$i.put(buf);)+
            }
            fn get(d: &mut Dec<'_>, what: &'static str) -> Result<Self, DecodeError> {
                Ok(($($t::get(d, what)?,)+))
            }
            fn arbitrary(rng: &mut SplitMix64) -> Self {
                ($($t::arbitrary(rng),)+)
            }
        }
    };
}

wire_tuple!(A.0, B.1);
wire_tuple!(A.0, B.1, C.2);

/// `Type { field: FieldType, … }`: the fields in wire order.
macro_rules! wire_struct {
    ($($ty:ident { $($f:ident: $ft:ty),* $(,)? })*) => {$(
        impl Wire for $ty {
            fn put(&self, buf: &mut Vec<u8>) {
                $(self.$f.put(buf);)*
            }
            fn get(d: &mut Dec<'_>, _what: &'static str) -> Result<Self, DecodeError> {
                Ok($ty {
                    $($f: <$ft>::get(d, concat!(stringify!($ty), ".", stringify!($f)))?,)*
                })
            }
            fn arbitrary(rng: &mut SplitMix64) -> Self {
                $ty { $($f: <$ft>::arbitrary(rng),)* }
            }
        }
    )*};
}

/// `Type { tag => Variant { field: FieldType, … }, … }`; a one-field
/// tuple variant is `tag => Variant(name: FieldType)`, a unit variant
/// `tag => Variant`. Fields travel in the order the row lists them.
macro_rules! wire_enum {
    ($($ty:ident {
        $($tag:literal => $var:ident $(($x:ident: $xt:ty))? $({ $($f:ident: $ft:ty),* $(,)? })?),*
        $(,)?
    })*) => {$(
        impl Wire for $ty {
            const TAGS: &'static [u8] = &[$($tag),*];
            #[inline]
            fn put(&self, buf: &mut Vec<u8>) {
                match self {
                    $($ty::$var $(($x))? $({ $($f),* })? => {
                        buf.push($tag);
                        $($x.put(buf);)?
                        $($($f.put(buf);)*)?
                    })*
                }
            }
            #[inline]
            fn get(d: &mut Dec<'_>, what: &'static str) -> Result<Self, DecodeError> {
                match u8::get(d, what)? {
                    $($tag => Ok($ty::$var
                        $((<$xt>::get(
                            d,
                            concat!(stringify!($ty), ".", stringify!($var), ".", stringify!($x)),
                        )?))?
                        $({ $($f: <$ft>::get(
                            d,
                            concat!(stringify!($ty), ".", stringify!($var), ".", stringify!($f)),
                        )?,)* })?
                    ),)*
                    tag => Err(DecodeError::BadTag { what: stringify!($ty), tag }),
                }
            }
            fn arbitrary(rng: &mut SplitMix64) -> Self {
                match Self::TAGS[rng.below(Self::TAGS.len() as u64) as usize] {
                    $($tag => $ty::$var
                        $((<$xt>::arbitrary(rng)))?
                        $({ $($f: <$ft>::arbitrary(rng),)* })?,)*
                    _ => unreachable!("TAGS lists exactly the table's tags"),
                }
            }
        }
    )*};
}

wire_struct! {
    Ballot { round: u32, owner: Loc }
    WireLinkProfile { delay_ns: u64, jitter_ns: u64, drop_bits: u64, dup_bits: u64, reorder: u32 }
    ChannelDgramStats { datagrams_tx: u64, frags_tx: u64, datagrams_rx: u64, frags_rx: u64,
        dup_frags: u64, dup_datagrams: u64, decode_errors: u64 }
    ChannelChaosStats { arrivals: u64, dropped: u64, duplicated: u64, held: u64 }
    Rec { kind: u8, id: u8, lane: u32, t_ns: u64, v: u64 }
}

wire_enum! {
    FdOutput {
        0 => Leader(leader: Loc),
        1 => Suspects(set: LocSet),
        2 => Quorum(set: LocSet),
        3 => AntiLeader(loc: Loc),
        4 => Leaders(set: LocSet),
        5 => PsiK { quorum: LocSet, leaders: LocSet },
    }
    Msg {
        0 => Prepare { ballot: Ballot },
        1 => Promise { ballot: Ballot, accepted: Option<(Ballot, u64)> },
        2 => Accept { ballot: Ballot, value: u64 },
        3 => Accepted { ballot: Ballot, value: u64 },
        4 => DecideMsg { value: u64 },
        5 => CtEstimate { round: u32, est: u64, ts: u32 },
        6 => CtPropose { round: u32, est: u64 },
        7 => CtAck { round: u32, ok: bool },
        8 => LeJoin,
        9 => LeElected { leader: Loc },
        10 => RbRelay { origin: Loc, seq: u32, payload: u64 },
        11 => KsEstimate { phase: u32, est: u64 },
        12 => VoteMsg { yes: bool },
        13 => FdSample { epoch: u32, out: FdOutput },
        14 => Heartbeat { epoch: u32 },
        15 => Token(value: u64),
    }
    Frame {
        0 => Data { seq: u32, msg: Msg },
        1 => Ack { cum: u32 },
    }
    Action {
        0 => Crash(at: Loc),
        1 => Send { from: Loc, to: Loc, msg: Msg },
        2 => Receive { from: Loc, to: Loc, msg: Msg },
        3 => Fd { at: Loc, out: FdOutput },
        4 => FdRenamed { at: Loc, out: FdOutput },
        5 => Propose { at: Loc, v: u64 },
        6 => Decide { at: Loc, v: u64 },
        7 => Elect { at: Loc, leader: Loc },
        8 => Broadcast { at: Loc, payload: u64 },
        9 => Deliver { at: Loc, origin: Loc, payload: u64 },
        10 => ProposeK { at: Loc, v: u64 },
        11 => DecideK { at: Loc, v: u64 },
        12 => Vote { at: Loc, yes: bool },
        13 => Verdict { at: Loc, commit: bool },
        14 => Query { at: Loc },
        15 => QueryReply { at: Loc, out: FdOutput },
        16 => Internal { at: Loc, tag: u16 },
        17 => WireSend { from: Loc, to: Loc, frame: Frame },
        18 => WireRecv { from: Loc, to: Loc, frame: Frame },
        19 => Recover(at: Loc),
    }
    FdKindSpec {
        0 => Omega,
        1 => Perfect,
        2 => EvPerfectNoisy { lie_set: LocSet, lie_count: u16 },
    }
    DeploymentSpec {
        0 => SelfImpl { n: u8, fd: FdKindSpec },
        1 => Paxos { n: u8, values: Vec<u64> },
        2 => ReliablePaxos { n: u8, values: Vec<u64> },
        3 => PaxosVal { n: u8, values: Vec<u64> },
        4 => BoundedEvP { n: u8 },
    }
    CommitStatus {
        0 => Accepted,
        1 => Suppressed,
        2 => Stopped,
    }
    // Tags 7, 8 and 9 carried the retired Rejoin / RejoinAck / HelloUdp
    // frames; they stay unassigned so a peer built before the merge is
    // refused, not misread.
    WireMsg {
        0 => Hello { node: u32, epoch: u32, udp_port: u16 },
        1 => Assign { node: u32, epoch: u32, spec: DeploymentSpec, locations: Vec<Loc>,
            seed: u64, wire_pacing_us: u64, replay_len: u64 },
        2 => CommitReq { comp: u32, action: Action },
        3 => CommitResp { comp: u32, status: CommitStatus },
        4 => Deliver { comp: u32, action: Action },
        5 => Stop { reason: String },
        6 => Telemetry { node: u32, lanes: Vec<(u32, String)>, recs: Vec<Rec> },
        10 => UdpSetup { node: u32, peers: Vec<(u32, u16)>, hosts: Vec<(Loc, u32)>,
            profiles: Vec<(Loc, Loc, WireLinkProfile)> },
        11 => DgramStats { node: u32, per_channel: Vec<(Loc, Loc, ChannelDgramStats)>,
            chaos: Vec<(Loc, Loc, ChannelChaosStats)> },
    }
}

/// Decode one `T` named `what` from all of `bytes`, rejecting trailing
/// bytes.
///
/// # Errors
/// [`DecodeError`] on malformed input.
pub fn decode<T: Wire>(bytes: &[u8], what: &'static str) -> Result<T, DecodeError> {
    let mut d = Dec::new(bytes);
    let v = T::get(&mut d, what)?;
    match d.remaining() {
        0 => Ok(v),
        extra => Err(DecodeError::Trailing { extra }),
    }
}

/// Append the binary encoding of `a` to `buf`.
pub fn put_action(buf: &mut Vec<u8>, a: &Action) {
    a.put(buf);
}

/// Encode an [`Action`] alone (round-trip entry point for tests and
/// trace tooling).
#[must_use]
pub fn encode_action(a: &Action) -> Vec<u8> {
    let mut buf = Vec::with_capacity(16);
    a.put(&mut buf);
    buf
}

/// Decode an [`Action`] alone, rejecting trailing bytes.
///
/// # Errors
/// [`DecodeError`] on malformed input.
pub fn decode_action(bytes: &[u8]) -> Result<Action, DecodeError> {
    decode(bytes, "Action")
}

/// Encode a control message to its frame payload (without the length
/// prefix).
#[must_use]
pub fn encode_msg(m: &WireMsg) -> Vec<u8> {
    let mut buf = Vec::with_capacity(32);
    m.put(&mut buf);
    buf
}

/// Decode a control message payload, rejecting trailing bytes.
///
/// # Errors
/// [`DecodeError`] on malformed input.
pub fn decode_msg(bytes: &[u8]) -> Result<WireMsg, DecodeError> {
    decode(bytes, "WireMsg")
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

/// Run `op` again while it fails with a read timeout or an interrupt.
fn resume<T>(mut op: impl FnMut() -> std::io::Result<T>) -> std::io::Result<T> {
    loop {
        match op() {
            Err(e) if matches!(e.kind(), WouldBlock | TimedOut | Interrupted) => {}
            res => return res,
        }
    }
}

/// Read one length-prefixed frame and decode it.
///
/// Returns `Ok(None)` on clean EOF at a frame boundary (the peer
/// closed the connection); decoding failures are surfaced as
/// `InvalidData` io errors carrying the [`DecodeError`]. A read timeout
/// before the frame's first byte comes back as the timeout error, so a
/// polling reader can look up between frames; once the frame has begun,
/// timeouts are ridden out until it is complete or the stream ends, so
/// no byte of it is dropped.
///
/// # Errors
/// Propagates socket errors; wraps [`DecodeError`] as `InvalidData`.
pub fn read_frame(r: &mut impl Read) -> std::io::Result<Option<WireMsg>> {
    let mut len_buf = [0u8; 4];
    // A clean EOF before any length byte is a normal close.
    let mut got = r.read(&mut len_buf)?;
    if got == 0 {
        return Ok(None);
    }
    while got < len_buf.len() {
        match resume(|| r.read(&mut len_buf[got..]))? {
            0 => return Err(ErrorKind::UnexpectedEof.into()),
            n => got += n,
        }
    }
    let len = u32::from_le_bytes(len_buf);
    if len > MAX_FRAME {
        return Err(std::io::Error::new(
            ErrorKind::InvalidData,
            DecodeError::FrameTooLarge { len },
        ));
    }
    // `Take` answers the end-of-payload probe of `read_to_end` itself,
    // so a frame within the reserve costs one allocation and no extra
    // read from the socket. `read_to_end` keeps what it read before an
    // error, so resuming it loses nothing.
    let mut payload = Vec::with_capacity((len as usize).min(FRAME_RESERVE));
    let mut rest = r.take(u64::from(len));
    resume(|| rest.read_to_end(&mut payload))?;
    if payload.len() < len as usize {
        return Err(ErrorKind::UnexpectedEof.into());
    }
    decode_msg(&payload)
        .map(Some)
        .map_err(|e| std::io::Error::new(ErrorKind::InvalidData, e))
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
