//! Wire-codec properties: every type in the codec's tables round-trips
//! byte-for-byte — every variant of every enum, the `WireSend`/`WireRecv`
//! frame variants, the crash-recovery alphabet (`Recover`, the
//! epoch-carrying `Hello`/`Assign` handshake), boundary locations at and
//! past `Loc(64)` — and malformed input (truncations, bad tags,
//! trailing bytes, garbage) always comes back as a typed
//! [`DecodeError`], never a panic. Values come from each type's
//! [`Wire::arbitrary`], so a row added to a table is covered here
//! without editing this file; `tests/data/wire_golden.txt` pins the
//! bytes every existing row produces.
//!
//! The stream framing keeps a frame whole when a read timeout fires
//! partway through it.
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
use std::fmt::Debug;
use std::io::{ErrorKind, Write};
use std::net::{TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use afd_core::{Action, Ballot, FdOutput, Frame, Loc, LocSet, Msg};
use afd_dgram::{fragment, DgramError, Reassembly, HDR_LEN};
use afd_net::codec::{
    decode, decode_action, decode_msg, encode_action, encode_msg, read_frame, write_frame,
    DecodeError, Wire, FRAME_RESERVE, MAX_FRAME,
};
use afd_net::{CommitStatus, DeploymentSpec, FdKindSpec, WireMsg};
use afd_system::SplitMix64;
use proptest::prelude::*;

/// A uniform index below `n`.
fn pick(rng: &mut SplitMix64, n: usize) -> usize {
    rng.below(n as u64) as usize
}

fn encode<T: Wire>(v: &T) -> Vec<u8> {
    let mut buf = Vec::new();
    v.put(&mut buf);
    buf
}

/// The first of up to 10 000 draws that `keep` accepts.
fn draw<T: Wire>(rng: &mut SplitMix64, keep: impl Fn(&T) -> bool) -> T {
    (0..10_000)
        .map(|_| T::arbitrary(rng))
        .find(keep)
        .expect("the generator reaches every variant")
}

/// `v` round-trips byte-for-byte, and every strict prefix of its
/// encoding decodes to a typed error — never a panic, never a silent
/// partial value.
fn assert_roundtrip_and_typed_prefixes<T: Wire + Debug>(v: &T, what: &'static str) {
    let bytes = encode(v);
    let back: T = decode(&bytes, what).unwrap_or_else(|e| panic!("decode {v:?}: {e}"));
    assert_eq!(format!("{back:?}"), format!("{v:?}"));
    assert_eq!(encode(&back), bytes, "canonical encoding for {v:?}");
    for cut in 0..bytes.len() {
        match decode::<T>(&bytes[..cut], what) {
            Err(
                DecodeError::Truncated { .. }
                | DecodeError::BadTag { .. }
                | DecodeError::Trailing { .. },
            ) => {}
            Err(e) => panic!("unexpected decode error on prefix: {e}"),
            Ok(other) => panic!("prefix of {v:?} decoded as {other:?}"),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every action round-trips exactly, and re-encoding the decoded
    /// value reproduces the original bytes.
    #[test]
    fn action_roundtrip_byte_for_byte(seed in 0u64..1_000_000) {
        let mut rng = SplitMix64::new(seed);
        for _ in 0..64 {
            let a = Action::arbitrary(&mut rng);
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
        let mut rng = SplitMix64::new(seed);
        for _ in 0..8 {
            assert_roundtrip_and_typed_prefixes(&Action::arbitrary(&mut rng), "Action");
        }
    }

    /// Random garbage never panics the decoder; whatever comes back is
    /// a clean `Result`.
    #[test]
    fn garbage_never_panics(seed in 0u64..1_000_000) {
        let mut rng = SplitMix64::new(seed);
        for _ in 0..32 {
            let bytes: Vec<u8> = (0..pick(&mut rng, 128)).map(|_| u8::arbitrary(&mut rng)).collect();
            let _ = decode_action(&bytes);
            let _ = decode_msg(&bytes);
        }
    }

    /// Control frames round-trip through the stream framing.
    #[test]
    fn wire_msgs_roundtrip_through_frames(seed in 0u64..1_000_000) {
        let mut rng = SplitMix64::new(seed);
        let msgs: Vec<WireMsg> = (0..8).map(|_| WireMsg::arbitrary(&mut rng)).collect();
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
        let mut rng = SplitMix64::new(seed);
        for _ in 0..8 {
            let m: WireMsg = draw(&mut rng, |m| matches!(m, WireMsg::Telemetry { .. }));
            assert_roundtrip_and_typed_prefixes(&m, "WireMsg");
        }
    }

    /// So does the one handshake every incarnation speaks — first
    /// start (epoch 0, nothing to replay) and respawn alike.
    #[test]
    fn handshake_roundtrip_and_truncation(seed in 0u64..1_000_000) {
        let mut rng = SplitMix64::new(seed);
        let hello: WireMsg = draw(&mut rng, |m| matches!(m, WireMsg::Hello { .. }));
        let assign: WireMsg = draw(&mut rng, |m| matches!(m, WireMsg::Assign { .. }));
        for m in [&hello, &assign] {
            assert_roundtrip_and_typed_prefixes(m, "WireMsg");
        }
    }
}

/// Every tag of `T`'s table, eight draws each: round-trip, canonical
/// re-encoding and typed prefixes. The tags come from the table itself,
/// so a new row is swept as soon as it exists.
fn sweep<T: Wire + Debug>(what: &'static str, rng: &mut SplitMix64) {
    assert!(!T::TAGS.is_empty(), "{what} has a table");
    for (i, &tag) in T::TAGS.iter().enumerate() {
        assert!(
            !T::TAGS[..i].contains(&tag),
            "{what} tag {tag} is used twice"
        );
        for _ in 0..8 {
            let v: T = draw(rng, |v| encode(v)[0] == tag);
            assert_roundtrip_and_typed_prefixes(&v, what);
        }
    }
}

/// A deterministic sweep over every variant of every enum table, so
/// coverage does not depend on the random draw, plus the widest frame
/// actions written out.
#[test]
fn exhaustive_variant_sweep_roundtrips() {
    let mut rng = SplitMix64::new(0xC0DEC);
    sweep::<FdOutput>("FdOutput", &mut rng);
    sweep::<Msg>("Msg", &mut rng);
    sweep::<Frame>("Frame", &mut rng);
    sweep::<Action>("Action", &mut rng);
    sweep::<FdKindSpec>("FdKindSpec", &mut rng);
    sweep::<DeploymentSpec>("DeploymentSpec", &mut rng);
    sweep::<CommitStatus>("CommitStatus", &mut rng);
    sweep::<WireMsg>("WireMsg", &mut rng);
    let boundary = [
        Action::WireSend {
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
        },
        Action::WireRecv {
            from: Loc(255),
            to: Loc(0),
            frame: Frame::Ack { cum: u32::MAX },
        },
    ];
    for a in &boundary {
        assert_roundtrip_and_typed_prefixes(a, "Action");
    }
}

/// Decode `hex` as a `T`, check its `Debug` form and re-encode it.
fn check_golden<T: Wire + Debug>(what: &'static str, hex: &str, debug: &str) -> u8 {
    let bytes: Vec<u8> = (0..hex.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).expect("hex"))
        .collect();
    let v: T = decode(&bytes, what).unwrap_or_else(|e| panic!("{what} {hex}: {e}"));
    assert_eq!(
        format!("{v:?}"),
        debug,
        "{what} {hex} decodes to another value"
    );
    assert_eq!(encode(&v), bytes, "{debug} encodes to other bytes");
    bytes[0]
}

/// The committed wire format: every line of `tests/data/wire_golden.txt`
/// decodes to the value it records and re-encodes to the same bytes,
/// and every row of every table has a line. A table edit that moves a
/// byte fails here.
#[test]
fn wire_golden_bytes_are_pinned() {
    let mut seen: Vec<(String, u8)> = Vec::new();
    for line in include_str!("data/wire_golden.txt").lines() {
        if line.starts_with('#') || line.is_empty() {
            continue;
        }
        let mut cols = line.splitn(3, '\t');
        let (ty, hex, debug) = (
            cols.next().unwrap(),
            cols.next().expect("hex column"),
            cols.next().expect("debug column"),
        );
        let tag = match ty {
            "FdOutput" => check_golden::<FdOutput>("FdOutput", hex, debug),
            "Msg" => check_golden::<Msg>("Msg", hex, debug),
            "Frame" => check_golden::<Frame>("Frame", hex, debug),
            "Action" => check_golden::<Action>("Action", hex, debug),
            "FdKindSpec" => check_golden::<FdKindSpec>("FdKindSpec", hex, debug),
            "DeploymentSpec" => check_golden::<DeploymentSpec>("DeploymentSpec", hex, debug),
            "CommitStatus" => check_golden::<CommitStatus>("CommitStatus", hex, debug),
            "WireMsg" => check_golden::<WireMsg>("WireMsg", hex, debug),
            other => panic!("unknown type {other} in the golden file"),
        };
        seen.push((ty.to_string(), tag));
    }
    let tables: [(&str, &[u8]); 8] = [
        ("FdOutput", FdOutput::TAGS),
        ("Msg", Msg::TAGS),
        ("Frame", Frame::TAGS),
        ("Action", Action::TAGS),
        ("FdKindSpec", FdKindSpec::TAGS),
        ("DeploymentSpec", DeploymentSpec::TAGS),
        ("CommitStatus", CommitStatus::TAGS),
        ("WireMsg", WireMsg::TAGS),
    ];
    for (ty, tags) in tables {
        for &tag in tags {
            assert!(
                seen.contains(&(ty.to_string(), tag)),
                "{ty} tag {tag} has no line in tests/data/wire_golden.txt"
            );
        }
    }
}

/// A read timeout that fires inside a frame must not lose it: the
/// coordinator polls each node with a short timeout, and a frame cut
/// there used to be dropped and the stream misread from the middle.
/// Here the writer stalls 50 ms after six bytes — past the length
/// prefix, inside the payload — while the reader times out every 10 ms.
#[test]
fn read_frame_keeps_a_frame_split_by_a_read_timeout() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr");
    let msgs = [
        WireMsg::CommitReq {
            comp: 1,
            action: Action::Decide { at: Loc(2), v: 7 },
        },
        WireMsg::CommitReq {
            comp: 2,
            action: Action::Crash(Loc(0)),
        },
    ];
    let mut wire = Vec::new();
    for m in &msgs {
        write_frame(&mut wire, m).expect("write to a Vec");
    }
    let writer = std::thread::spawn(move || {
        let mut s = TcpStream::connect(addr).expect("connect");
        s.set_nodelay(true).expect("nodelay");
        s.write_all(&wire[..6]).expect("first part");
        std::thread::sleep(Duration::from_millis(50));
        s.write_all(&wire[6..]).expect("rest");
    });
    let (mut r, _) = listener.accept().expect("accept");
    r.set_read_timeout(Some(Duration::from_millis(10)))
        .expect("read timeout");
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut got = Vec::new();
    while got.len() < msgs.len() {
        assert!(Instant::now() < deadline, "frames never completed");
        match read_frame(&mut r) {
            Ok(Some(m)) => got.push(m),
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
            other => panic!("after {} whole frames read_frame gave {other:?}", got.len()),
        }
    }
    assert_eq!(got, msgs);
    writer.join().expect("writer");
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
    let mut rng = SplitMix64::new(789);
    for retired in [7u8, 8, 9] {
        assert!(!WireMsg::TAGS.contains(&retired));
        let old_rejoin = [&[retired][..], &2u32.to_le_bytes(), &1u32.to_le_bytes()].concat();
        let noise: Vec<u8> = std::iter::once(retired)
            .chain((0..64).map(|_| u8::arbitrary(&mut rng)))
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
        let mut rng = SplitMix64::new(seed);
        for round in 0..16u32 {
            let a = Action::arbitrary(&mut rng);
            let bytes = encode_action(&a);
            let mtu = [HDR_LEN + 1, HDR_LEN + 7, 64, 1200][pick(&mut rng, 4)];
            let (from, to) = (Loc(1), Loc(2));
            let frags = fragment(from, to, 0, round, &bytes, mtu).expect("fragment");
            prop_assert_eq!(
                frags.len(),
                bytes.len().div_ceil(mtu - HDR_LEN).max(1),
                "fragment count for {} bytes at mtu {}", bytes.len(), mtu
            );
            let mut r = Reassembly::new(from, to, 0, mtu);
            let mut order: Vec<usize> = (0..frags.len()).collect();
            if bool::arbitrary(&mut rng) {
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
        let mut rng = SplitMix64::new(seed);
        let a = Action::arbitrary(&mut rng);
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

/// The channel the fuzz loop's reassemblers listen on.
const FUZZ_CHAN: (Loc, Loc) = (Loc(1), Loc(2));

/// One well-formed input: a control payload, a bare action, one or two
/// length-prefixed frames, or one datagram of a fragmented action.
fn valid_encoding(rng: &mut SplitMix64, mtu: usize) -> Vec<u8> {
    match rng.below(4) {
        0 => encode_msg(&WireMsg::arbitrary(rng)),
        1 => encode_action(&Action::arbitrary(rng)),
        2 => {
            let mut wire = Vec::new();
            for _ in 0..1 + rng.below(2) {
                write_frame(&mut wire, &WireMsg::arbitrary(rng)).expect("write to a Vec");
            }
            wire
        }
        _ => {
            let payload = encode_action(&Action::arbitrary(rng));
            let seq = rng.below(8) as u32;
            let mut frags =
                fragment(FUZZ_CHAN.0, FUZZ_CHAN.1, 0, seq, &payload, mtu).expect("fragment");
            frags.swap_remove(pick(rng, frags.len()))
        }
    }
}

/// 1–4 byte flips, truncations and splices (a run of bytes from
/// another valid encoding, inserted or written over).
fn mutate(rng: &mut SplitMix64, bytes: &mut Vec<u8>, mtu: usize) {
    for _ in 0..1 + rng.below(4) {
        match rng.below(3) {
            0 if !bytes.is_empty() => {
                let i = pick(rng, bytes.len());
                bytes[i] ^= 1 << rng.below(8);
            }
            1 => bytes.truncate(pick(rng, bytes.len() + 1)),
            _ => {
                let donor = valid_encoding(rng, mtu);
                let lo = pick(rng, donor.len() + 1);
                let hi = lo + pick(rng, donor.len() + 1 - lo);
                let at = pick(rng, bytes.len() + 1);
                let over = pick(rng, 2) * (hi - lo);
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
    let mut rng = SplitMix64::new(0xF0_22ED);
    for round in 0..INPUTS / ROUND {
        let mtu = [HDR_LEN + 1, HDR_LEN + 7, 64, 1200][round % 4];
        let mut asm = Reassembly::new(FUZZ_CHAN.0, FUZZ_CHAN.1, 0, mtu);
        let mut offered = 0usize;
        for _ in 0..ROUND {
            let bytes = if rng.below(4) == 0 {
                let max = if rng.below(20) == 0 { 4096 } else { 96 };
                let len = pick(&mut rng, max);
                (0..len).map(|_| rng.next_u64() as u8).collect()
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
