//! Wire-codec properties: every `Action` round-trips byte-for-byte
//! through the hand-rolled length-prefixed codec — including the
//! `WireSend`/`WireRecv` frame variants, the crash-recovery alphabet
//! (`Recover`, the epoch-carrying `Hello`/`Assign` handshake), and
//! boundary locations at and past `Loc(64)` — and malformed input (truncations, bad tags,
//! trailing bytes, garbage) always comes back as a typed
//! [`DecodeError`], never a panic.
//!
//! The datagram plane gets the same treatment: encoded actions survive
//! MTU-bounded fragmentation and reassembly byte-for-byte, duplicate
//! fragments and duplicate transmissions are idempotent, and truncated
//! datagrams or mid-fragment loss surface as typed
//! [`afd_dgram::DgramError`]s.
//!
//! Both planes end in one long seeded fuzz loop: random byte strings
//! and mutated valid encodings through every decoder, none of which may
//! panic or allocate in proportion to a length field whose bytes it has
//! not been given.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};

use afd_core::{Action, Ballot, FdOutput, Frame, Loc, LocSet, Msg};
use afd_dgram::{fragment, ChannelDgramStats, DgramError, Reassembly, HDR_LEN};
use afd_net::codec::{
    decode_action, decode_msg, encode_action, encode_msg, read_frame, write_frame, DecodeError,
    FRAME_RESERVE, MAX_FRAME,
};
use afd_net::{CommitStatus, DeploymentSpec, FdKindSpec, WireLinkProfile, WireMsg};
use afd_runtime::ChannelChaosStats;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Boundary-heavy location pool: the codec must not care that `Loc`'s
/// payload exceeds the `LocSet` word width (128) or saturates `u8`.
const LOCS: [Loc; 7] = [
    Loc(0),
    Loc(1),
    Loc(7),
    Loc(63),
    Loc(127),
    Loc(128),
    Loc(255),
];

fn rloc(rng: &mut StdRng) -> Loc {
    LOCS[rng.gen_range(0usize..LOCS.len())]
}

fn rset(rng: &mut StdRng) -> LocSet {
    LocSet(match rng.gen_range(0u32..4) {
        0 => 0,
        1 => u128::MAX,
        2 => 1 << 127,
        _ => {
            u128::from(rng.gen_range(0u64..u64::MAX)) << 64
                | u128::from(rng.gen_range(0u64..u64::MAX))
        }
    })
}

fn rval(rng: &mut StdRng) -> u64 {
    match rng.gen_range(0u32..3) {
        0 => 0,
        1 => u64::MAX,
        _ => rng.gen_range(0u64..u64::MAX),
    }
}

fn rballot(rng: &mut StdRng) -> Ballot {
    Ballot {
        round: if rng.gen_range(0u32..2) == 0 {
            u32::MAX
        } else {
            rng.gen_range(0u32..1000)
        },
        owner: rloc(rng),
    }
}

fn rout(rng: &mut StdRng) -> FdOutput {
    match rng.gen_range(0u32..6) {
        0 => FdOutput::Leader(rloc(rng)),
        1 => FdOutput::Suspects(rset(rng)),
        2 => FdOutput::Quorum(rset(rng)),
        3 => FdOutput::AntiLeader(rloc(rng)),
        4 => FdOutput::Leaders(rset(rng)),
        _ => FdOutput::PsiK {
            quorum: rset(rng),
            leaders: rset(rng),
        },
    }
}

fn rmsg(rng: &mut StdRng) -> Msg {
    match rng.gen_range(0u32..16) {
        0 => Msg::Prepare {
            ballot: rballot(rng),
        },
        1 => Msg::Promise {
            ballot: rballot(rng),
            accepted: if rng.gen_range(0u32..2) == 0 {
                None
            } else {
                Some((rballot(rng), rval(rng)))
            },
        },
        2 => Msg::Accept {
            ballot: rballot(rng),
            value: rval(rng),
        },
        3 => Msg::Accepted {
            ballot: rballot(rng),
            value: rval(rng),
        },
        4 => Msg::DecideMsg { value: rval(rng) },
        5 => Msg::CtEstimate {
            round: rng.gen_range(0u32..u32::MAX),
            est: rval(rng),
            ts: rng.gen_range(0u32..u32::MAX),
        },
        6 => Msg::CtPropose {
            round: rng.gen_range(0u32..u32::MAX),
            est: rval(rng),
        },
        7 => Msg::CtAck {
            round: rng.gen_range(0u32..u32::MAX),
            ok: rng.gen_range(0u32..2) == 0,
        },
        8 => Msg::LeJoin,
        9 => Msg::LeElected { leader: rloc(rng) },
        10 => Msg::RbRelay {
            origin: rloc(rng),
            seq: rng.gen_range(0u32..u32::MAX),
            payload: rval(rng),
        },
        11 => Msg::KsEstimate {
            phase: rng.gen_range(0u32..u32::MAX),
            est: rval(rng),
        },
        12 => Msg::VoteMsg {
            yes: rng.gen_range(0u32..2) == 0,
        },
        13 => Msg::FdSample {
            epoch: rng.gen_range(0u32..u32::MAX),
            out: rout(rng),
        },
        14 => Msg::Heartbeat {
            epoch: rng.gen_range(0u32..u32::MAX),
        },
        _ => Msg::Token(rval(rng)),
    }
}

fn rframe(rng: &mut StdRng) -> Frame {
    if rng.gen_range(0u32..2) == 0 {
        Frame::Data {
            seq: rng.gen_range(0u32..u32::MAX),
            msg: rmsg(rng),
        }
    } else {
        Frame::Ack {
            cum: rng.gen_range(0u32..u32::MAX),
        }
    }
}

/// A random Telemetry frame: a lane directory (unicode names included)
/// plus a batch of span/gauge records with boundary timestamps.
fn rtelemetry(rng: &mut StdRng) -> WireMsg {
    let n_lanes = rng.gen_range(0usize..4);
    let lanes: Vec<(u32, String)> = (0..n_lanes)
        .map(|i| {
            (
                rng.gen_range(0u32..u32::MAX),
                format!("lane-{i}-Π{}", rng.gen_range(0u32..100)),
            )
        })
        .collect();
    let n_recs = rng.gen_range(0usize..32);
    let recs: Vec<afd_prof::Rec> = (0..n_recs)
        .map(|_| afd_prof::Rec {
            kind: if rng.gen_range(0u32..2) == 0 {
                afd_prof::REC_SPAN
            } else {
                afd_prof::REC_GAUGE
            },
            id: rng.gen_range(0u64..256) as u8,
            lane: rng.gen_range(0u32..u32::MAX),
            t_ns: rval(rng),
            v: rval(rng),
        })
        .collect();
    WireMsg::Telemetry {
        node: rng.gen_range(0u32..u32::MAX),
        lanes,
        recs,
    }
}

/// One random action from the full 20-variant alphabet.
/// The handshake pair of one incarnation: any epoch, with or without
/// a datagram port, any replay length.
fn rhandshake(rng: &mut StdRng) -> [WireMsg; 2] {
    let node = rng.gen_range(0u32..16);
    let epoch = rng.gen_range(0u32..4) * rng.gen_range(0u32..u32::MAX / 4);
    [
        WireMsg::Hello {
            node,
            epoch,
            udp_port: rng.gen_range(0u32..3) as u16 * 0x7FFF,
        },
        WireMsg::Assign {
            node,
            epoch,
            spec: DeploymentSpec::SelfImpl {
                n: 5,
                fd: FdKindSpec::EvPerfectNoisy {
                    lie_set: rset(rng),
                    lie_count: 7,
                },
            },
            locations: vec![rloc(rng), rloc(rng)],
            seed: rval(rng),
            wire_pacing_us: rval(rng),
            replay_len: rval(rng),
        },
    ]
}

/// `m` round-trips byte-for-byte, and every strict prefix of its
/// encoding decodes to a typed error — never a panic, never a silent
/// partial message.
fn assert_roundtrip_and_typed_prefixes(m: &WireMsg) {
    let bytes = encode_msg(m);
    let back = decode_msg(&bytes).expect("decode own encoding");
    assert_eq!(format!("{back:?}"), format!("{m:?}"));
    assert_eq!(encode_msg(&back), bytes);
    for cut in 0..bytes.len() {
        match decode_msg(&bytes[..cut]) {
            Err(
                DecodeError::Truncated { .. }
                | DecodeError::BadTag { .. }
                | DecodeError::Trailing { .. },
            ) => {}
            Err(e) => panic!("unexpected decode error on prefix: {e}"),
            Ok(other) => panic!("prefix of {m:?} decoded as {other:?}"),
        }
    }
}

fn raction(rng: &mut StdRng) -> Action {
    let at = rloc(rng);
    let other = rloc(rng);
    match rng.gen_range(0u32..20) {
        0 => Action::Crash(at),
        19 => Action::Recover(at),
        1 => Action::Send {
            from: at,
            to: other,
            msg: rmsg(rng),
        },
        2 => Action::Receive {
            from: at,
            to: other,
            msg: rmsg(rng),
        },
        3 => Action::Fd { at, out: rout(rng) },
        4 => Action::FdRenamed { at, out: rout(rng) },
        5 => Action::Propose { at, v: rval(rng) },
        6 => Action::Decide { at, v: rval(rng) },
        7 => Action::Elect { at, leader: other },
        8 => Action::Broadcast {
            at,
            payload: rval(rng),
        },
        9 => Action::Deliver {
            at,
            origin: other,
            payload: rval(rng),
        },
        10 => Action::ProposeK { at, v: rval(rng) },
        11 => Action::DecideK { at, v: rval(rng) },
        12 => Action::Vote {
            at,
            yes: rng.gen_range(0u32..2) == 0,
        },
        13 => Action::Verdict {
            at,
            commit: rng.gen_range(0u32..2) == 0,
        },
        14 => Action::Query { at },
        15 => Action::QueryReply { at, out: rout(rng) },
        16 => Action::Internal {
            at,
            tag: rng.gen_range(0u32..u32::from(u16::MAX)) as u16,
        },
        17 => Action::WireSend {
            from: at,
            to: other,
            frame: rframe(rng),
        },
        _ => Action::WireRecv {
            from: at,
            to: other,
            frame: rframe(rng),
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every action round-trips exactly, and re-encoding the decoded
    /// value reproduces the original bytes.
    #[test]
    fn action_roundtrip_byte_for_byte(seed in 0u64..1_000_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..64 {
            let a = raction(&mut rng);
            let bytes = encode_action(&a);
            let back = decode_action(&bytes).expect("decode own encoding");
            prop_assert_eq!(back, a);
            prop_assert_eq!(encode_action(&back), bytes);
        }
    }

    /// Every strict prefix of a valid encoding decodes to a typed
    /// error — truncation can never panic or accidentally succeed.
    #[test]
    fn truncation_is_a_typed_error(seed in 0u64..1_000_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..8 {
            let a = raction(&mut rng);
            let bytes = encode_action(&a);
            for cut in 0..bytes.len() {
                match decode_action(&bytes[..cut]) {
                    Err(
                        DecodeError::Truncated { .. }
                        | DecodeError::BadTag { .. }
                        | DecodeError::Trailing { .. },
                    ) => {}
                    Err(e) => panic!("unexpected decode error on prefix: {e}"),
                    Ok(other) => panic!("prefix of {a:?} decoded as {other:?}"),
                }
            }
        }
    }

    /// Random garbage never panics the decoder; whatever comes back is
    /// a clean `Result`.
    #[test]
    fn garbage_never_panics(seed in 0u64..1_000_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..32 {
            let len = rng.gen_range(0usize..128);
            let bytes: Vec<u8> = (0..len).map(|_| rng.gen_range(0u64..256) as u8).collect();
            let _ = decode_action(&bytes);
            let _ = decode_msg(&bytes);
        }
    }

    /// Control frames round-trip through the stream framing.
    #[test]
    fn wire_msgs_roundtrip_through_frames(seed in 0u64..1_000_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let [hello, assign] = rhandshake(&mut rng);
        let msgs = vec![
            hello,
            assign,
            WireMsg::CommitReq {
                comp: rng.gen_range(0u32..64),
                action: raction(&mut rng),
            },
            WireMsg::CommitResp {
                comp: rng.gen_range(0u32..64),
                status: match rng.gen_range(0u32..3) {
                    0 => CommitStatus::Accepted,
                    1 => CommitStatus::Suppressed,
                    _ => CommitStatus::Stopped,
                },
            },
            WireMsg::Deliver {
                comp: rng.gen_range(0u32..64),
                action: raction(&mut rng),
            },
            WireMsg::Stop {
                reason: "stop reason with unicode: Π ◇P".into(),
            },
            rtelemetry(&mut rng),
        ];
        let mut wire = Vec::new();
        for m in &msgs {
            write_frame(&mut wire, m).unwrap();
        }
        let mut cursor = std::io::Cursor::new(wire);
        for m in &msgs {
            let got = read_frame(&mut cursor).unwrap().expect("frame present");
            prop_assert_eq!(format!("{got:?}"), format!("{m:?}"));
        }
        prop_assert!(read_frame(&mut cursor).unwrap().is_none(), "clean EOF");
    }

    /// Telemetry frames round-trip byte-for-byte, and every strict
    /// prefix of an encoding decodes to a typed error, never a panic
    /// or a silent partial batch.
    #[test]
    fn telemetry_roundtrip_and_truncation(seed in 0u64..1_000_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..8 {
            assert_roundtrip_and_typed_prefixes(&rtelemetry(&mut rng));
        }
    }

    /// So does the one handshake every incarnation speaks — first
    /// start (epoch 0, nothing to replay) and respawn alike.
    #[test]
    fn handshake_roundtrip_and_truncation(seed in 0u64..1_000_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        for m in &rhandshake(&mut rng) {
            assert_roundtrip_and_typed_prefixes(m);
        }
    }
}

/// A deterministic sweep over every enum variant with boundary values,
/// so coverage does not depend on the random draw.
#[test]
fn exhaustive_variant_sweep_roundtrips() {
    let mut rng = StdRng::seed_from_u64(0xC0DEC);
    let mut actions: Vec<Action> = Vec::new();
    for &at in &LOCS {
        actions.push(Action::Crash(at));
        actions.push(Action::Recover(at));
        actions.push(Action::Query { at });
    }
    // Every Msg variant inside Send, every FdOutput inside Fd.
    for k in 0..16u32 {
        let mut r = StdRng::seed_from_u64(u64::from(k));
        let mut m = rmsg(&mut r);
        // Force variant k by rejection sampling over fresh seeds.
        let mut s = u64::from(k);
        while msg_tag(&m) != k {
            s += 1000;
            r = StdRng::seed_from_u64(s);
            m = rmsg(&mut r);
        }
        actions.push(Action::Send {
            from: Loc(64),
            to: Loc(255),
            msg: m,
        });
    }
    for k in 0..6u32 {
        let mut s = u64::from(k);
        let mut r = StdRng::seed_from_u64(s);
        let mut o = rout(&mut r);
        while out_tag(&o) != k {
            s += 1000;
            r = StdRng::seed_from_u64(s);
            o = rout(&mut r);
        }
        actions.push(Action::Fd {
            at: Loc(63),
            out: o,
        });
        actions.push(Action::FdRenamed {
            at: Loc(64),
            out: o,
        });
        actions.push(Action::QueryReply {
            at: Loc(65),
            out: o,
        });
    }
    for _ in 0..32 {
        actions.push(raction(&mut rng));
    }
    actions.push(Action::WireSend {
        from: Loc(64),
        to: Loc(65),
        frame: Frame::Data {
            seq: u32::MAX,
            msg: Msg::Promise {
                ballot: Ballot {
                    round: u32::MAX,
                    owner: Loc(255),
                },
                accepted: Some((
                    Ballot {
                        round: 0,
                        owner: Loc(64),
                    },
                    u64::MAX,
                )),
            },
        },
    });
    actions.push(Action::WireRecv {
        from: Loc(255),
        to: Loc(0),
        frame: Frame::Ack { cum: u32::MAX },
    });
    for a in &actions {
        let bytes = encode_action(a);
        let back = decode_action(&bytes).unwrap_or_else(|e| panic!("decode {a:?}: {e}"));
        assert_eq!(&back, a);
        assert_eq!(encode_action(&back), bytes, "canonical encoding for {a:?}");
    }
}

fn msg_tag(m: &Msg) -> u32 {
    match m {
        Msg::Prepare { .. } => 0,
        Msg::Promise { .. } => 1,
        Msg::Accept { .. } => 2,
        Msg::Accepted { .. } => 3,
        Msg::DecideMsg { .. } => 4,
        Msg::CtEstimate { .. } => 5,
        Msg::CtPropose { .. } => 6,
        Msg::CtAck { .. } => 7,
        Msg::LeJoin => 8,
        Msg::LeElected { .. } => 9,
        Msg::RbRelay { .. } => 10,
        Msg::KsEstimate { .. } => 11,
        Msg::VoteMsg { .. } => 12,
        Msg::FdSample { .. } => 13,
        Msg::Heartbeat { .. } => 14,
        Msg::Token(_) => 15,
    }
}

fn out_tag(o: &FdOutput) -> u32 {
    match o {
        FdOutput::Leader(_) => 0,
        FdOutput::Suspects(_) => 1,
        FdOutput::Quorum(_) => 2,
        FdOutput::AntiLeader(_) => 3,
        FdOutput::Leaders(_) => 4,
        FdOutput::PsiK { .. } => 5,
    }
}

/// Trailing bytes after a complete encoding are rejected, with the
/// exact surplus reported.
#[test]
fn trailing_bytes_are_rejected() {
    let a = Action::Decide { at: Loc(2), v: 7 };
    let mut bytes = encode_action(&a);
    bytes.push(0xFF);
    match decode_action(&bytes) {
        Err(DecodeError::Trailing { extra }) => assert_eq!(extra, 1),
        other => panic!("expected Trailing, got {other:?}"),
    }
}

/// A `PsiK` output with members on both sides of the 64-bit word
/// boundary encodes to the same bytes it always has: each `LocSet` is
/// its `u128`, 16 bytes little-endian, whatever its in-memory layout.
#[test]
fn psik_encoding_is_pinned() {
    let a = Action::Fd {
        at: Loc(3),
        out: FdOutput::PsiK {
            quorum: LocSet::from_iter_locs([Loc(0), Loc(63), Loc(64), Loc(127)]),
            leaders: LocSet::singleton(Loc(64)),
        },
    };
    let bytes = encode_action(&a);
    #[rustfmt::skip]
    let want: [u8; 35] = [
        3, 3, 5,                                             // Fd, at p3, PsiK
        1, 0, 0, 0, 0, 0, 0, 128, 1, 0, 0, 0, 0, 0, 0, 128, // quorum
        0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0,     // leaders
    ];
    assert_eq!(bytes, want);
    assert_eq!(decode_action(&bytes), Ok(a));
}

/// An unknown action tag is a `BadTag`, not a panic.
#[test]
fn unknown_tag_is_bad_tag() {
    match decode_action(&[0xEE]) {
        Err(DecodeError::BadTag { what, tag }) => {
            assert_eq!(tag, 0xEE);
            assert!(!what.is_empty());
        }
        other => panic!("expected BadTag, got {other:?}"),
    }
}

/// Tags 7, 8 and 9 carried `Rejoin`, `RejoinAck` and `HelloUdp` until
/// the handshake became one `Hello`/`Assign` pair. They stay dead:
/// whatever follows the tag — nothing, a frame in the old layout,
/// noise — decodes to `BadTag`, never to some newer message.
#[test]
fn retired_handshake_tags_are_bad_tags() {
    let mut rng = StdRng::seed_from_u64(789);
    for retired in [7u8, 8, 9] {
        let old_rejoin = [&[retired][..], &2u32.to_le_bytes(), &1u32.to_le_bytes()].concat();
        let noise: Vec<u8> = std::iter::once(retired)
            .chain((0..64).map(|_| rng.gen_range(0u64..256) as u8))
            .collect();
        for bytes in [vec![retired], old_rejoin, noise] {
            match decode_msg(&bytes) {
                Err(DecodeError::BadTag { what, tag }) => {
                    assert_eq!((what, tag), ("WireMsg", retired));
                }
                other => panic!("retired tag {retired} decoded as {other:?}"),
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Fragmentation/reassembly roundtrip: any encoded action, pushed
    /// through any (small) MTU, comes back byte-for-byte — in-order or
    /// fully reversed fragment arrival — and decodes to the original
    /// action. Offering every fragment a second time is masked as
    /// duplication, never a second delivery.
    #[test]
    fn dgram_fragmentation_roundtrip(seed in 0u64..1_000_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        for round in 0..16u32 {
            let a = raction(&mut rng);
            let bytes = encode_action(&a);
            let mtu = [HDR_LEN + 1, HDR_LEN + 7, 64, 1200]
                [rng.gen_range(0usize..4)];
            let (from, to) = (Loc(1), Loc(2));
            let frags = fragment(from, to, 0, round, &bytes, mtu).expect("fragment");
            prop_assert_eq!(
                frags.len(),
                bytes.len().div_ceil(mtu - HDR_LEN).max(1),
                "fragment count for {} bytes at mtu {}", bytes.len(), mtu
            );
            let mut r = Reassembly::new(from, to, 0, mtu);
            let mut order: Vec<usize> = (0..frags.len()).collect();
            if rng.gen_range(0u32..2) == 0 {
                order.reverse();
            }
            let mut delivered = None;
            for &i in &order {
                if let Some((h, payload)) = r.offer(&frags[i]).expect("offer") {
                    prop_assert_eq!(h.seq, round);
                    delivered = Some(payload);
                }
            }
            let payload = delivered.expect("all fragments offered");
            prop_assert_eq!(&payload, &bytes);
            prop_assert_eq!(decode_action(&payload).expect("decode"), a);
            // Second full delivery of the same transmission: masked.
            for f in &frags {
                prop_assert_eq!(r.offer(f).expect("dup offer"), None);
            }
            prop_assert_eq!(r.stats.datagrams_rx, 1);
            prop_assert_eq!(r.stats.dup_datagrams, frags.len() as u64);
        }
    }

    /// Truncated datagrams are typed errors, never panics or silent
    /// successes: every cut inside the header is `Truncated`, and a
    /// cut inside a single-fragment payload reassembles to bytes that
    /// fail action decoding with a typed [`DecodeError`].
    #[test]
    fn dgram_truncation_is_typed(seed in 0u64..1_000_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = raction(&mut rng);
        let bytes = encode_action(&a);
        let frags = fragment(Loc(0), Loc(1), 0, 9, &bytes, 4096).expect("fragment");
        prop_assert_eq!(frags.len(), 1, "mtu 4096 must not fragment an action");
        let d = &frags[0];
        for cut in 0..HDR_LEN.min(d.len()) {
            let mut r = Reassembly::new(Loc(0), Loc(1), 0, 4096);
            match r.offer(&d[..cut]) {
                Err(DgramError::Truncated { need, have }) => {
                    prop_assert_eq!(need, HDR_LEN);
                    prop_assert_eq!(have, cut);
                }
                other => panic!("header cut at {cut} gave {other:?}"),
            }
            prop_assert_eq!(r.stats.decode_errors, 1);
        }
        if d.len() > HDR_LEN + 1 {
            // Cut mid-payload: the datagram itself parses (cnt = 1, so
            // no length cross-check exists), but the reassembled bytes
            // are a strict prefix of an encoding and must fail decode
            // with a typed error.
            let mut r = Reassembly::new(Loc(0), Loc(1), 0, 4096);
            let cut = HDR_LEN + (d.len() - HDR_LEN) / 2;
            let (_, payload) = r
                .offer(&d[..cut])
                .expect("parses")
                .expect("single fragment completes");
            match decode_action(&payload) {
                Err(
                    DecodeError::Truncated { .. }
                    | DecodeError::BadTag { .. }
                    | DecodeError::Trailing { .. },
                ) => {}
                other => panic!("truncated payload decoded as {other:?}"),
            }
        }
    }
}

/// Duplicate fragments within one transmission are idempotent: the
/// payload is delivered once, repeats are counted, and the stats
/// separate duplicate *fragments* from duplicate *transmissions*.
#[test]
fn dgram_duplicate_fragments_are_idempotent() {
    let payload: Vec<u8> = (0..100u8).collect();
    let mtu = HDR_LEN + 16;
    let frags = fragment(Loc(3), Loc(4), 1, 42, &payload, mtu).expect("fragment");
    assert_eq!(frags.len(), 7);
    let mut r = Reassembly::new(Loc(3), Loc(4), 1, mtu);
    // First fragment twice before the rest: one dup fragment, no
    // delivery yet.
    assert_eq!(r.offer(&frags[0]).expect("offer"), None);
    assert_eq!(r.offer(&frags[0]).expect("re-offer"), None);
    assert_eq!(r.stats.dup_frags, 1);
    let mut delivered = 0;
    for f in &frags[1..] {
        if let Some((_, p)) = r.offer(f).expect("offer") {
            assert_eq!(p, payload);
            delivered += 1;
        }
    }
    assert_eq!(delivered, 1, "exactly one completed delivery");
    assert_eq!(r.stats.datagrams_rx, 1);
    // The whole burst again: masked as duplicate transmissions.
    for f in &frags {
        assert_eq!(r.offer(f).expect("offer"), None);
    }
    assert_eq!(r.stats.dup_datagrams, frags.len() as u64);
    assert_eq!(r.stats.datagrams_rx, 1);
}

/// Mid-fragment loss is a typed error at prune time, not a silent
/// leak: a transmission that lost one fragment is abandoned once the
/// window passes and reported as `MissingFragments`.
#[test]
fn dgram_mid_fragment_loss_is_typed() {
    let payload: Vec<u8> = (0..64u8).map(|b| b.wrapping_mul(37)).collect();
    let mtu = HDR_LEN + 16;
    let frags = fragment(Loc(5), Loc(6), 0, 10, &payload, mtu).expect("fragment");
    assert_eq!(frags.len(), 4);
    let mut r = Reassembly::new(Loc(5), Loc(6), 0, mtu);
    // Fragment 2 is lost on the wire.
    for (i, f) in frags.iter().enumerate() {
        if i != 2 {
            assert_eq!(r.offer(f).expect("offer"), None);
        }
    }
    assert_eq!(r.pending_len(), 1);
    // Nothing newer seen yet: the transmission could still complete.
    assert!(r.prune_stale(16).is_empty());
    // A much newer transmission arrives; seq 10 falls out the window.
    let newer = fragment(Loc(5), Loc(6), 0, 100, b"x", mtu).expect("fragment");
    assert!(r.offer(&newer[0]).expect("offer").is_some());
    let errs = r.prune_stale(16);
    assert_eq!(
        errs,
        vec![DgramError::MissingFragments {
            seq: 10,
            have: 3,
            cnt: 4
        }]
    );
    assert_eq!(r.pending_len(), 0, "abandoned transmission dropped");
}

/// A frame whose length prefix exceeds the cap is refused before any
/// allocation.
#[test]
fn oversized_frame_is_refused() {
    let mut wire = Vec::new();
    wire.extend_from_slice(&(MAX_FRAME + 1).to_le_bytes());
    wire.extend_from_slice(&[0u8; 16]);
    let mut cursor = std::io::Cursor::new(wire);
    let err = read_frame(&mut cursor).expect_err("oversized frame must fail");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
}

/// A length prefix is a claim, not an allocation request: a frame
/// claiming nearly `MAX_FRAME` bytes but delivering a handful reserves
/// at most `FRAME_RESERVE` before the read comes up short.
#[test]
fn short_frame_claiming_max_frame_reserves_at_most_the_cap() {
    let mut wire = MAX_FRAME.to_le_bytes().to_vec();
    wire.extend_from_slice(&[7u8; 8]);
    let peak = peak_alloc_of(|| {
        let err = read_frame(&mut std::io::Cursor::new(&wire)).expect_err("short frame");
        assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
    });
    let cap = FRAME_RESERVE + alloc_budget(wire.len());
    assert!(peak <= cap, "read_frame reserved {peak} bytes (cap {cap})");
}

// ---------------------------------------------------------------------
// Long-loop decode fuzzing.
// ---------------------------------------------------------------------

/// The test binary's allocator: `System`, plus a per-thread record of
/// the largest single request, so the fuzz loop can see what one
/// decoder call asked for without seeing the other tests' threads.
struct PeakAlloc;

#[global_allocator]
static ALLOC: PeakAlloc = PeakAlloc;

thread_local! {
    static PEAK: Cell<usize> = const { Cell::new(0) };
}

fn note_alloc(size: usize) {
    // `try_with`: threads still free memory while their locals die.
    let _ = PEAK.try_with(|p| p.set(p.get().max(size)));
}

// SAFETY: every method hands its arguments to `System` unchanged and
// returns what `System` returns; `note_alloc` only writes a
// const-initialised, destructor-free thread-local and never allocates.
unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc(layout.size());
        // SAFETY: the caller's contract is `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc(layout.size());
        // SAFETY: the caller's contract is `System.alloc_zeroed`'s.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc(new_size);
        // SAFETY: the caller's contract is `System.realloc`'s.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's contract is `System.dealloc`'s.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// The largest single allocation `f` (and dropping its result) asks
/// for on this thread.
fn peak_alloc_of<T>(f: impl FnOnce() -> T) -> usize {
    PEAK.with(|p| p.set(0));
    drop(f());
    PEAK.with(Cell::get)
}

/// What a decoder may allocate at once for `len` input bytes. A count
/// prefix is honoured up to the bytes that follow it (`Dec::seq_len`),
/// and the widest element it can reserve for one such byte is a
/// 96-byte per-channel stats row; the slack covers fixed-size nodes of
/// the reassembler's maps.
fn alloc_budget(len: usize) -> usize {
    128 * len + 4096
}

/// Any control message, the two vector-heavy UDP frames included.
fn rwire(rng: &mut StdRng) -> WireMsg {
    let comp = rng.gen_range(0u32..64);
    match rng.gen_range(0u32..9) {
        0 => rtelemetry(rng),
        1 => rhandshake(rng)[0].clone(),
        2 => rhandshake(rng)[1].clone(),
        3 => WireMsg::CommitReq {
            comp,
            action: raction(rng),
        },
        4 => WireMsg::Deliver {
            comp,
            action: raction(rng),
        },
        5 => WireMsg::CommitResp {
            comp,
            status: CommitStatus::Suppressed,
        },
        6 => WireMsg::Stop {
            reason: "max-events Π".into(),
        },
        7 => WireMsg::UdpSetup {
            node: comp,
            peers: (0..rng.gen_range(0u32..5)).map(|i| (i, 4000)).collect(),
            hosts: (0..rng.gen_range(0u32..5))
                .map(|i| (rloc(rng), i))
                .collect(),
            profiles: (0..rng.gen_range(0u32..7))
                .map(|_| {
                    let w = WireLinkProfile {
                        delay_ns: rval(rng),
                        jitter_ns: rval(rng),
                        drop_bits: rval(rng),
                        dup_bits: rval(rng),
                        reorder: rng.gen_range(0u32..9),
                    };
                    (rloc(rng), rloc(rng), w)
                })
                .collect(),
        },
        _ => WireMsg::DgramStats {
            node: comp,
            per_channel: (0..rng.gen_range(0u32..7))
                .map(|_| {
                    let s = ChannelDgramStats {
                        datagrams_tx: rval(rng),
                        datagrams_rx: rval(rng),
                        ..ChannelDgramStats::default()
                    };
                    (rloc(rng), rloc(rng), s)
                })
                .collect(),
            chaos: (0..rng.gen_range(0u32..7))
                .map(|_| {
                    let s = ChannelChaosStats {
                        arrivals: rval(rng),
                        dropped: rval(rng),
                        ..ChannelChaosStats::default()
                    };
                    (rloc(rng), rloc(rng), s)
                })
                .collect(),
        },
    }
}

/// The channel the fuzz loop's reassemblers listen on.
const FUZZ_CHAN: (Loc, Loc) = (Loc(1), Loc(2));

/// One well-formed input: a control payload, a bare action, one or two
/// length-prefixed frames, or one datagram of a fragmented action.
fn valid_encoding(rng: &mut StdRng, mtu: usize) -> Vec<u8> {
    match rng.gen_range(0u32..4) {
        0 => encode_msg(&rwire(rng)),
        1 => encode_action(&raction(rng)),
        2 => {
            let mut wire = Vec::new();
            for _ in 0..rng.gen_range(1u32..3) {
                write_frame(&mut wire, &rwire(rng)).expect("write to a Vec");
            }
            wire
        }
        _ => {
            let payload = encode_action(&raction(rng));
            let seq = rng.gen_range(0u32..8);
            let mut frags =
                fragment(FUZZ_CHAN.0, FUZZ_CHAN.1, 0, seq, &payload, mtu).expect("fragment");
            frags.swap_remove(rng.gen_range(0usize..frags.len()))
        }
    }
}

/// 1–4 byte flips, truncations and splices (a run of bytes from
/// another valid encoding, inserted or written over).
fn mutate(rng: &mut StdRng, bytes: &mut Vec<u8>, mtu: usize) {
    for _ in 0..rng.gen_range(1u32..5) {
        match rng.gen_range(0u32..3) {
            0 if !bytes.is_empty() => {
                let i = rng.gen_range(0usize..bytes.len());
                bytes[i] ^= 1 << rng.gen_range(0u32..8);
            }
            1 => bytes.truncate(rng.gen_range(0usize..bytes.len() + 1)),
            _ => {
                let donor = valid_encoding(rng, mtu);
                let lo = rng.gen_range(0usize..donor.len() + 1);
                let hi = rng.gen_range(lo..donor.len() + 1);
                let at = rng.gen_range(0usize..bytes.len() + 1);
                let over = rng.gen_range(0usize..2) * (hi - lo);
                let end = (at + over).min(bytes.len());
                bytes.splice(at..end, donor[lo..hi].iter().copied());
            }
        }
    }
}

/// Every decoder, 200 000 seeded inputs — uniformly random byte
/// strings and mutated valid encodings — under `catch_unwind`: each
/// outcome is `Ok` or a typed error, never a panic, and no call
/// allocates beyond [`alloc_budget`] of the bytes it was given
/// (`read_frame`: plus the `FRAME_RESERVE`-capped payload buffer it
/// reserves on the strength of a length prefix). Reassemblers live for
/// 32 inputs, so fragments meet pending, completed and mismatching
/// state; what one may allocate is budgeted against everything offered
/// to it so far, since completing a transmission copies all of it.
#[test]
fn decoders_never_panic_or_overallocate() {
    const INPUTS: usize = 200_000;
    const ROUND: usize = 32;
    let mut rng = StdRng::seed_from_u64(0xF0_22ED);
    for round in 0..INPUTS / ROUND {
        let mtu = [HDR_LEN + 1, HDR_LEN + 7, 64, 1200][round % 4];
        let mut asm = Reassembly::new(FUZZ_CHAN.0, FUZZ_CHAN.1, 0, mtu);
        let mut offered = 0usize;
        for _ in 0..ROUND {
            let bytes = if rng.gen_range(0u32..4) == 0 {
                let max = if rng.gen_bool(0.05) { 4096 } else { 96 };
                let len = rng.gen_range(0usize..max);
                (0..len).map(|_| rng.gen_range(0u64..256) as u8).collect()
            } else {
                let mut bytes = valid_encoding(&mut rng, mtu);
                mutate(&mut rng, &mut bytes, mtu);
                bytes
            };
            offered += bytes.len();
            let budget = alloc_budget(bytes.len());
            let peaks = catch_unwind(AssertUnwindSafe(|| {
                [
                    ("decode_msg", peak_alloc_of(|| decode_msg(&bytes)), budget),
                    (
                        "decode_action",
                        peak_alloc_of(|| decode_action(&bytes)),
                        budget,
                    ),
                    (
                        "read_frame",
                        peak_alloc_of(|| {
                            let mut r = std::io::Cursor::new(&bytes);
                            while let Ok(Some(_)) = read_frame(&mut r) {}
                        }),
                        FRAME_RESERVE + budget,
                    ),
                    (
                        "afd_dgram::parse",
                        peak_alloc_of(|| afd_dgram::parse(&bytes).is_ok()),
                        budget,
                    ),
                    (
                        "Reassembly::offer",
                        peak_alloc_of(|| asm.offer(&bytes)),
                        alloc_budget(offered),
                    ),
                    (
                        "Reassembly::prune_stale",
                        peak_alloc_of(|| asm.prune_stale(4)),
                        alloc_budget(offered),
                    ),
                ]
            }))
            .unwrap_or_else(|_| panic!("a decoder panicked on input {bytes:02x?}"));
            for (decoder, peak, budget) in peaks {
                assert!(
                    peak <= budget,
                    "{decoder} asked for {peak} bytes at once (budget {budget}) on the \
                     {}-byte input {bytes:02x?}",
                    bytes.len()
                );
            }
        }
    }
}

/// Found by the loop above: a lone 16-byte header claiming 65 535
/// fragments made the reassembler reserve a slot per *claimed*
/// fragment — 1.5 MiB on the word of one datagram. Memory now follows
/// the fragments that arrive.
#[test]
fn dgram_claimed_fragment_count_reserves_nothing() {
    let mut dgram = fragment(Loc(1), Loc(2), 0, 7, b"", 1200)
        .expect("fragment")
        .remove(0);
    dgram[12..14].copy_from_slice(&0u16.to_le_bytes());
    dgram[14..16].copy_from_slice(&u16::MAX.to_le_bytes());
    let mut asm = Reassembly::new(Loc(1), Loc(2), 0, 1200);
    let mut outcome = None;
    let peak = peak_alloc_of(|| outcome = Some(asm.offer(&dgram)));
    // Fragment 0 of 65 535 with an empty payload: not the last, so its
    // payload must fill the MTU.
    assert_eq!(
        outcome,
        Some(Err(DgramError::Mismatch {
            seq: 7,
            field: "payload_len"
        }))
    );
    assert!(peak <= alloc_budget(dgram.len()), "{peak} bytes at once");
}
