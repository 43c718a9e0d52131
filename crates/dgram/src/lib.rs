//! # afd-dgram — UDP datagram transport with ADD-channel semantics
//!
//! The datagram plane behind `Transport::Udp` in afd-net: node↔node
//! data channels ride real `std::net::UdpSocket`s while the control
//! plane (commit protocol, rejoin, stop, telemetry) stays on TCP. The
//! model is the **ADD channel** of "Implementing ◇P with Bounded
//! Messages on a Network of ADD Channels": messages may be lost,
//! duplicated, and reordered, but a subsequence is delivered with
//! bounded delay. UDP gives us exactly that alphabet for free; this
//! crate adds the two things a reproducible experiment needs on top:
//!
//! 1. **Framing** ([`DgramHeader`], [`fragment`], [`parse`]) — every
//!    datagram carries a fixed 16-byte header (magic, channel
//!    endpoints, sender epoch, per-channel transmission sequence
//!    number, fragment index/count) followed by a slice of the payload
//!    produced by the afd-net action codec. Payloads larger than the
//!    MTU are split into numbered fragments; malformed or truncated
//!    datagrams surface as typed [`DgramError`]s, never panics.
//! 2. **Accounting** ([`ChannelDgramStats`], [`DgramStats`]) —
//!    transmissions are counted at the sender, completed reassemblies
//!    at the receiver, and because every transmission consumes one
//!    sequence number, organic loss is exactly
//!    `datagrams_tx − datagrams_rx` per channel once the run quiesces.
//!
//! The *configured* `LinkProfile` (drop / dup / bounded reorder) is not
//! applied here: each reassembled `Send` is one arrival at the
//! destination channel, whose fate its seeded ADD state draws as it
//! steps, exactly as on the threaded and TCP engines.
//! Injected faults are therefore reported by the run's `ChaosReport`,
//! organic socket faults by [`DgramStats`].
//!
//! Reassembly ([`Reassembly`]) is duplicate-idempotent per fragment,
//! masks organic whole-datagram duplicates (same transmission seq
//! completing twice), and reports never-completed transmissions as
//! typed [`DgramError::MissingFragments`] when pruned.

use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet};

use afd_core::{Loc, Pi};
use afd_runtime::LinkProfile;

/// First two bytes of every datagram — rejects stray packets early.
pub const MAGIC: u16 = 0xADD7;

/// Fixed header length in bytes.
pub const HDR_LEN: usize = 16;

/// Default maximum datagram size (header + payload slice). Well under
/// the loopback MTU and the conservative 1500-byte Ethernet MTU so a
/// fragment never gets IP-fragmented underneath us.
pub const DEFAULT_MTU: usize = 1200;

/// Hard cap on a single logical payload (matches the TCP codec's
/// `MAX_FRAME` spirit): refuse to fragment anything larger.
pub const MAX_PAYLOAD: usize = 1 << 20;

/// The fixed per-datagram header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DgramHeader {
    /// Source location of the channel this datagram travels.
    pub from: Loc,
    /// Destination location of the channel.
    pub to: Loc,
    /// Sender incarnation epoch; receivers ignore stale epochs.
    pub epoch: u32,
    /// Per-channel transmission sequence number. Every transmission
    /// consumes one, so receivers can count distinct deliveries and
    /// infer organic loss from the gap to the sender's transmission
    /// count.
    pub seq: u32,
    /// Fragment index within this transmission, `0 ≤ idx < cnt`.
    pub frag_idx: u16,
    /// Total fragments in this transmission, `≥ 1`.
    pub frag_cnt: u16,
}

/// Typed datagram-plane errors. Decoding never panics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DgramError {
    /// The datagram is shorter than the fixed header.
    Truncated {
        /// Bytes required.
        need: usize,
        /// Bytes present.
        have: usize,
    },
    /// The magic bytes do not match [`MAGIC`].
    BadMagic {
        /// The first two bytes actually seen.
        got: u16,
    },
    /// The fragment header is internally inconsistent
    /// (`cnt == 0` or `idx ≥ cnt`).
    BadFragment {
        /// Transmission sequence number.
        seq: u32,
        /// Claimed fragment index.
        idx: u16,
        /// Claimed fragment count.
        cnt: u16,
    },
    /// A fragment disagrees with an earlier fragment of the same
    /// transmission (different `cnt`, or a non-final fragment whose
    /// payload is not exactly the MTU payload size).
    Mismatch {
        /// Transmission sequence number.
        seq: u32,
        /// Which header field disagreed.
        field: &'static str,
    },
    /// A payload exceeds [`MAX_PAYLOAD`] or the fragment-count range.
    TooLarge {
        /// Offending payload length.
        len: usize,
        /// The enforced maximum.
        max: usize,
    },
    /// A transmission was pruned with fragments still missing —
    /// mid-fragment loss surfaced as a typed error instead of a
    /// silent leak.
    MissingFragments {
        /// Transmission sequence number.
        seq: u32,
        /// Fragments received.
        have: u16,
        /// Fragments expected.
        cnt: u16,
    },
}

impl std::fmt::Display for DgramError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DgramError::Truncated { need, have } => {
                write!(f, "truncated datagram: need {need} bytes, have {have}")
            }
            DgramError::BadMagic { got } => write!(f, "bad magic {got:#06x}"),
            DgramError::BadFragment { seq, idx, cnt } => {
                write!(f, "bad fragment header seq={seq} idx={idx} cnt={cnt}")
            }
            DgramError::Mismatch { seq, field } => {
                write!(f, "fragment of seq={seq} disagrees on {field}")
            }
            DgramError::TooLarge { len, max } => {
                write!(f, "payload of {len} bytes exceeds max {max}")
            }
            DgramError::MissingFragments { seq, have, cnt } => {
                write!(
                    f,
                    "transmission seq={seq} incomplete: {have}/{cnt} fragments"
                )
            }
        }
    }
}

impl std::error::Error for DgramError {}

fn put_header(buf: &mut Vec<u8>, h: &DgramHeader) {
    buf.extend_from_slice(&MAGIC.to_le_bytes());
    buf.push(h.from.0);
    buf.push(h.to.0);
    buf.extend_from_slice(&h.epoch.to_le_bytes());
    buf.extend_from_slice(&h.seq.to_le_bytes());
    buf.extend_from_slice(&h.frag_idx.to_le_bytes());
    buf.extend_from_slice(&h.frag_cnt.to_le_bytes());
}

/// Parse one datagram into its header and payload slice.
///
/// # Errors
/// [`DgramError::Truncated`], [`DgramError::BadMagic`], or
/// [`DgramError::BadFragment`].
pub fn parse(dgram: &[u8]) -> Result<(DgramHeader, &[u8]), DgramError> {
    if dgram.len() < HDR_LEN {
        return Err(DgramError::Truncated {
            need: HDR_LEN,
            have: dgram.len(),
        });
    }
    let magic = u16::from_le_bytes([dgram[0], dgram[1]]);
    if magic != MAGIC {
        return Err(DgramError::BadMagic { got: magic });
    }
    let h = DgramHeader {
        from: Loc(dgram[2]),
        to: Loc(dgram[3]),
        epoch: u32::from_le_bytes([dgram[4], dgram[5], dgram[6], dgram[7]]),
        seq: u32::from_le_bytes([dgram[8], dgram[9], dgram[10], dgram[11]]),
        frag_idx: u16::from_le_bytes([dgram[12], dgram[13]]),
        frag_cnt: u16::from_le_bytes([dgram[14], dgram[15]]),
    };
    if h.frag_cnt == 0 || h.frag_idx >= h.frag_cnt {
        return Err(DgramError::BadFragment {
            seq: h.seq,
            idx: h.frag_idx,
            cnt: h.frag_cnt,
        });
    }
    Ok((h, &dgram[HDR_LEN..]))
}

/// Split one payload into MTU-bounded datagrams sharing a transmission
/// sequence number. Every fragment except the last carries exactly
/// `mtu − HDR_LEN` payload bytes; an empty payload still produces one
/// (header-only) fragment.
///
/// # Errors
/// [`DgramError::TooLarge`] if the payload exceeds [`MAX_PAYLOAD`] or
/// would need more than `u16::MAX` fragments.
///
/// # Panics
/// Panics if `mtu ≤ HDR_LEN` — a configuration bug, not a data error.
pub fn fragment(
    from: Loc,
    to: Loc,
    epoch: u32,
    seq: u32,
    payload: &[u8],
    mtu: usize,
) -> Result<Vec<Vec<u8>>, DgramError> {
    assert!(mtu > HDR_LEN, "mtu must exceed the header length");
    if payload.len() > MAX_PAYLOAD {
        return Err(DgramError::TooLarge {
            len: payload.len(),
            max: MAX_PAYLOAD,
        });
    }
    let chunk = mtu - HDR_LEN;
    let cnt = payload.len().div_ceil(chunk).max(1);
    if cnt > usize::from(u16::MAX) {
        return Err(DgramError::TooLarge {
            len: payload.len(),
            max: chunk * usize::from(u16::MAX),
        });
    }
    let mut out = Vec::with_capacity(cnt);
    for idx in 0..cnt {
        let lo = idx * chunk;
        let hi = (lo + chunk).min(payload.len());
        let mut d = Vec::with_capacity(HDR_LEN + (hi - lo));
        put_header(
            &mut d,
            &DgramHeader {
                from,
                to,
                epoch,
                seq,
                frag_idx: idx as u16,
                frag_cnt: cnt as u16,
            },
        );
        d.extend_from_slice(&payload[lo..hi]);
        out.push(d);
    }
    Ok(out)
}

/// Per-channel datagram accounting. Sender-side fields are filled by
/// the sending node as it transmits, receiver-side fields by the
/// [`Reassembly`]; the coordinator merges both halves per channel.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChannelDgramStats {
    /// Transmissions put on the wire, one per committed `Send` (each
    /// consumes one seq).
    pub datagrams_tx: u64,
    /// Individual fragments put on the wire.
    pub frags_tx: u64,
    /// Distinct transmissions fully reassembled at the receiver.
    pub datagrams_rx: u64,
    /// Individual fragments received (including duplicates).
    pub frags_rx: u64,
    /// Duplicate fragments ignored during reassembly.
    pub dup_frags: u64,
    /// Whole-transmission organic duplicates masked (same seq
    /// completed again).
    pub dup_datagrams: u64,
    /// Datagrams rejected with a typed error (truncated, bad magic,
    /// inconsistent fragment, stale epoch).
    pub decode_errors: u64,
}

impl ChannelDgramStats {
    /// Field-wise sum — merging the sender and receiver halves of one
    /// channel, or the same channel across telemetry snapshots.
    #[must_use]
    pub fn merged(self, other: ChannelDgramStats) -> ChannelDgramStats {
        ChannelDgramStats {
            datagrams_tx: self.datagrams_tx + other.datagrams_tx,
            frags_tx: self.frags_tx + other.frags_tx,
            datagrams_rx: self.datagrams_rx + other.datagrams_rx,
            frags_rx: self.frags_rx + other.frags_rx,
            dup_frags: self.dup_frags + other.dup_frags,
            dup_datagrams: self.dup_datagrams + other.dup_datagrams,
            decode_errors: self.decode_errors + other.decode_errors,
        }
    }

    /// Transmissions lost by the real network: put on the wire but
    /// never reassembled. Meaningful once the run has quiesced
    /// (saturating: in-flight datagrams count as lost).
    #[must_use]
    pub fn organic_lost(&self) -> u64 {
        self.datagrams_tx.saturating_sub(self.datagrams_rx)
    }
}

/// Datagram accounting for a whole deployment, keyed by channel.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DgramStats {
    /// Per-channel stats; channels without traffic may be absent.
    pub per_channel: BTreeMap<(Loc, Loc), ChannelDgramStats>,
}

impl DgramStats {
    /// Merge another snapshot into this one (field-wise per channel).
    pub fn merge(&mut self, other: &DgramStats) {
        for (&k, &v) in &other.per_channel {
            let e = self.per_channel.entry(k).or_default();
            *e = e.merged(v);
        }
    }

    /// Total transmissions put on the wire.
    #[must_use]
    pub fn datagrams_tx(&self) -> u64 {
        self.per_channel.values().map(|s| s.datagrams_tx).sum()
    }

    /// Total transmissions fully reassembled.
    #[must_use]
    pub fn datagrams_rx(&self) -> u64 {
        self.per_channel.values().map(|s| s.datagrams_rx).sum()
    }

    /// Reassembled transmissions over transmissions — what the host's
    /// sockets delivered, ≈ 1.0 on an unloaded loopback. `None` when
    /// nothing was sent.
    #[must_use]
    pub fn delivery_rate(&self) -> Option<f64> {
        let tx = self.datagrams_tx();
        (tx > 0).then(|| self.datagrams_rx() as f64 / tx as f64)
    }

    /// Transmissions the real network ate (sent, never reassembled).
    #[must_use]
    pub fn organic_lost(&self) -> u64 {
        self.per_channel.values().map(|s| s.organic_lost()).sum()
    }

    /// Publish every per-channel counter into an [`afd_obs::Metrics`]
    /// registry, under `dgram.{i}->{j}.*` names, plus whole-run
    /// aggregates under `dgram.total.*` and a `dgram.delivery_pct`
    /// gauge (delivery rate in integer percent). Idempotent only in
    /// the sense of `Counter::inc_by` — call once per finished run.
    pub fn publish(&self, m: &afd_obs::Metrics) {
        for (&(i, j), s) in &self.per_channel {
            let pre = format!("dgram.{}->{}", i.0, j.0);
            for (field, v) in [
                ("datagrams_tx", s.datagrams_tx),
                ("frags_tx", s.frags_tx),
                ("datagrams_rx", s.datagrams_rx),
                ("frags_rx", s.frags_rx),
                ("dup_frags", s.dup_frags),
                ("dup_datagrams", s.dup_datagrams),
                ("decode_errors", s.decode_errors),
                ("organic_lost", s.organic_lost()),
            ] {
                m.counter(&format!("{pre}.{field}")).inc_by(v);
            }
        }
        for (field, v) in [
            ("datagrams_tx", self.datagrams_tx()),
            ("datagrams_rx", self.datagrams_rx()),
            ("organic_lost", self.organic_lost()),
        ] {
            m.counter(&format!("dgram.total.{field}")).inc_by(v);
        }
        if let Some(rate) = self.delivery_rate() {
            let pct = (rate * 100.0).round();
            let pct = if pct.is_finite() { pct as i64 } else { 0 };
            m.gauge("dgram.delivery_pct").set(pct);
        }
    }
}

/// Receiver-side reassembly for one directed channel: fragment →
/// payload, duplicate-idempotent, epoch-filtered.
#[derive(Debug)]
pub struct Reassembly {
    from: Loc,
    to: Loc,
    epoch: u32,
    mtu: usize,
    pending: BTreeMap<u32, Partial>,
    done: BTreeSet<u32>,
    max_seq_seen: Option<u32>,
    /// Receiver-side accounting (sender fields stay zero).
    pub stats: ChannelDgramStats,
}

/// Fragments received so far, by index: memory follows what arrived,
/// never the count a header merely claims.
#[derive(Debug)]
struct Partial {
    cnt: u16,
    got: BTreeMap<u16, Vec<u8>>,
}

/// How many completed seqs the duplicate-mask remembers before
/// forgetting the oldest — bounded memory for unbounded runs.
const DONE_WINDOW: usize = 4096;

impl Reassembly {
    /// A reassembler for channel `(from, to)` accepting only datagrams
    /// of the given sender epoch.
    #[must_use]
    pub fn new(from: Loc, to: Loc, epoch: u32, mtu: usize) -> Self {
        Reassembly {
            from,
            to,
            epoch,
            mtu,
            pending: BTreeMap::new(),
            done: BTreeSet::new(),
            max_seq_seen: None,
            stats: ChannelDgramStats::default(),
        }
    }

    /// Offer one received datagram. Returns the completed payload when
    /// this fragment finishes a transmission, `None` while more
    /// fragments are outstanding or the datagram was masked
    /// (duplicate fragment, already-completed seq, stale epoch —
    /// counted in [`Reassembly::stats`]).
    ///
    /// # Errors
    /// A typed [`DgramError`] for malformed datagrams (also counted in
    /// `stats.decode_errors`).
    pub fn offer(&mut self, dgram: &[u8]) -> Result<Option<(DgramHeader, Vec<u8>)>, DgramError> {
        let (h, payload) = match parse(dgram) {
            Ok(ok) => ok,
            Err(e) => {
                self.stats.decode_errors += 1;
                return Err(e);
            }
        };
        self.stats.frags_rx += 1;
        self.max_seq_seen = Some(self.max_seq_seen.map_or(h.seq, |m| m.max(h.seq)));
        if h.from != self.from || h.to != self.to || h.epoch != self.epoch {
            // Stray channel or stale incarnation: not our stream.
            self.stats.decode_errors += 1;
            return Ok(None);
        }
        if self.done.contains(&h.seq) {
            self.stats.dup_datagrams += 1;
            return Ok(None);
        }
        let chunk = self.mtu - HDR_LEN;
        let entry = self.pending.entry(h.seq).or_insert_with(|| Partial {
            cnt: h.frag_cnt,
            got: BTreeMap::new(),
        });
        if entry.cnt != h.frag_cnt {
            self.stats.decode_errors += 1;
            return Err(DgramError::Mismatch {
                seq: h.seq,
                field: "frag_cnt",
            });
        }
        if h.frag_idx + 1 < h.frag_cnt && payload.len() != chunk {
            self.stats.decode_errors += 1;
            return Err(DgramError::Mismatch {
                seq: h.seq,
                field: "payload_len",
            });
        }
        match entry.got.entry(h.frag_idx) {
            Entry::Occupied(_) => {
                self.stats.dup_frags += 1;
                return Ok(None);
            }
            Entry::Vacant(slot) => slot.insert(payload.to_vec()),
        };
        if entry.got.len() < usize::from(entry.cnt) {
            return Ok(None);
        }
        let entry = self.pending.remove(&h.seq).expect("entry just completed");
        let mut full = Vec::with_capacity(usize::from(entry.cnt) * chunk);
        for piece in entry.got.values() {
            full.extend_from_slice(piece);
        }
        self.stats.datagrams_rx += 1;
        self.done.insert(h.seq);
        while self.done.len() > DONE_WINDOW {
            let oldest = *self.done.iter().next().expect("non-empty");
            self.done.remove(&oldest);
        }
        Ok(Some((h, full)))
    }

    /// Drop partial transmissions that can no longer complete — any
    /// pending seq more than `window` behind the newest seq observed —
    /// returning one typed [`DgramError::MissingFragments`] per
    /// abandoned transmission. Mid-fragment loss is thereby an error
    /// the caller sees, not a silent memory leak.
    pub fn prune_stale(&mut self, window: u32) -> Vec<DgramError> {
        let Some(newest) = self.max_seq_seen else {
            return Vec::new();
        };
        let cutoff = newest.saturating_sub(window);
        let stale: Vec<u32> = self.pending.range(..cutoff).map(|(&seq, _)| seq).collect();
        stale
            .into_iter()
            .map(|seq| {
                let p = self.pending.remove(&seq).expect("key from range scan");
                self.stats.decode_errors += 1;
                DgramError::MissingFragments {
                    seq,
                    have: p.got.len() as u16,
                    cnt: p.cnt,
                }
            })
            .collect()
    }

    /// Transmissions with at least one fragment still outstanding.
    #[must_use]
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }
}

/// The expected deliveries per arrival of a channel running `profile`:
/// surviving arrivals `(1 − drop)`, each duplicated with probability
/// `dup` — what `(arrivals − dropped + duplicated) ÷ arrivals` of the
/// channel's chaos accounting tracks.
#[must_use]
pub fn expected_delivery_rate(profile: &LinkProfile) -> f64 {
    (1.0 - profile.drop) * (1.0 + profile.dup)
}

/// Convenience: the full-mesh channel list of `pi` (every ordered pair
/// of distinct locations) — the channels a UDP deployment carries.
#[must_use]
pub fn mesh(pi: Pi) -> Vec<(Loc, Loc)> {
    let mut out = Vec::new();
    for i in pi.iter() {
        for j in pi.iter() {
            if i != j {
                out.push((i, j));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn payload(n: usize) -> Vec<u8> {
        (0..n).map(|k| (k % 251) as u8).collect()
    }

    #[test]
    fn single_fragment_roundtrip() {
        let p = payload(100);
        let frags = fragment(Loc(1), Loc(2), 7, 42, &p, DEFAULT_MTU).unwrap();
        assert_eq!(frags.len(), 1);
        let (h, body) = parse(&frags[0]).unwrap();
        assert_eq!(
            h,
            DgramHeader {
                from: Loc(1),
                to: Loc(2),
                epoch: 7,
                seq: 42,
                frag_idx: 0,
                frag_cnt: 1
            }
        );
        assert_eq!(body, &p[..]);
    }

    #[test]
    fn empty_payload_still_frames() {
        let frags = fragment(Loc(0), Loc(1), 0, 0, &[], 64).unwrap();
        assert_eq!(frags.len(), 1);
        let (h, body) = parse(&frags[0]).unwrap();
        assert_eq!(h.frag_cnt, 1);
        assert!(body.is_empty());
    }

    #[test]
    fn multi_fragment_reassembles_in_any_order() {
        let mtu = 64;
        let p = payload(500);
        let frags = fragment(Loc(3), Loc(4), 1, 9, &p, mtu).unwrap();
        assert!(frags.len() > 1);
        let mut r = Reassembly::new(Loc(3), Loc(4), 1, mtu);
        // Offer in reverse order: only the last offer completes.
        for f in frags.iter().rev().take(frags.len() - 1) {
            assert_eq!(r.offer(f).unwrap(), None);
        }
        let (h, full) = r.offer(&frags[0]).unwrap().expect("complete");
        assert_eq!(h.seq, 9);
        assert_eq!(full, p);
        assert_eq!(r.stats.datagrams_rx, 1);
        assert_eq!(r.stats.frags_rx, frags.len() as u64);
    }

    #[test]
    fn duplicate_fragments_are_idempotent() {
        let mtu = 64;
        let p = payload(200);
        let frags = fragment(Loc(0), Loc(1), 0, 5, &p, mtu).unwrap();
        let mut r = Reassembly::new(Loc(0), Loc(1), 0, mtu);
        for f in &frags[..frags.len() - 1] {
            assert_eq!(r.offer(f).unwrap(), None);
            // Duplicate of an incomplete fragment: masked.
            assert_eq!(r.offer(f).unwrap(), None);
        }
        assert!(r.offer(&frags[frags.len() - 1]).unwrap().is_some());
        assert_eq!(r.stats.dup_frags, (frags.len() - 1) as u64);
        // A whole-transmission replay after completion is masked too.
        for f in &frags {
            assert_eq!(r.offer(f).unwrap(), None);
        }
        assert_eq!(r.stats.dup_datagrams, frags.len() as u64);
        assert_eq!(r.stats.datagrams_rx, 1);
    }

    #[test]
    fn truncated_and_garbage_are_typed_errors() {
        let frags = fragment(Loc(0), Loc(1), 0, 0, &payload(40), DEFAULT_MTU).unwrap();
        let d = &frags[0];
        for cut in 0..HDR_LEN {
            match parse(&d[..cut]) {
                Err(DgramError::Truncated { need, have }) => {
                    assert_eq!(need, HDR_LEN);
                    assert_eq!(have, cut);
                }
                other => panic!("expected Truncated at cut {cut}, got {other:?}"),
            }
        }
        assert!(matches!(
            parse(&[0xFFu8; 32][..]),
            Err(DgramError::BadMagic { .. })
        ));
        // idx ≥ cnt is rejected.
        let mut bad = d.clone();
        bad[12] = 9; // frag_idx
        bad[14] = 1; // frag_cnt
        assert!(matches!(parse(&bad), Err(DgramError::BadFragment { .. })));
    }

    #[test]
    fn mismatched_fragment_count_is_an_error() {
        let mtu = 64;
        let frags = fragment(Loc(0), Loc(1), 0, 3, &payload(200), mtu).unwrap();
        let mut r = Reassembly::new(Loc(0), Loc(1), 0, mtu);
        assert_eq!(r.offer(&frags[0]).unwrap(), None);
        let mut other = frags[1].clone();
        other[14..16].copy_from_slice(&99u16.to_le_bytes());
        assert!(matches!(
            r.offer(&other),
            Err(DgramError::Mismatch {
                field: "frag_cnt",
                ..
            })
        ));
        assert_eq!(r.stats.decode_errors, 1);
    }

    #[test]
    fn mid_fragment_loss_surfaces_on_prune() {
        let mtu = 64;
        let frags = fragment(Loc(0), Loc(1), 0, 0, &payload(200), mtu).unwrap();
        let mut r = Reassembly::new(Loc(0), Loc(1), 0, mtu);
        // Lose every fragment but the first of seq 0.
        assert_eq!(r.offer(&frags[0]).unwrap(), None);
        // A much later transmission arrives complete.
        let late = fragment(Loc(0), Loc(1), 0, 100, &payload(10), mtu).unwrap();
        assert!(r.offer(&late[0]).unwrap().is_some());
        let errs = r.prune_stale(16);
        assert_eq!(errs.len(), 1);
        assert!(matches!(
            errs[0],
            DgramError::MissingFragments {
                seq: 0,
                have: 1,
                ..
            }
        ));
        assert_eq!(r.pending_len(), 0);
    }

    #[test]
    fn stale_epoch_is_masked() {
        let frags = fragment(Loc(0), Loc(1), 3, 0, &payload(8), DEFAULT_MTU).unwrap();
        let mut r = Reassembly::new(Loc(0), Loc(1), 4, DEFAULT_MTU);
        assert_eq!(r.offer(&frags[0]).unwrap(), None);
        assert_eq!(r.stats.decode_errors, 1);
        assert_eq!(r.stats.datagrams_rx, 0);
    }

    #[test]
    fn stats_merge_halves_per_channel() {
        let mut a = DgramStats::default();
        a.per_channel.insert(
            (Loc(0), Loc(1)),
            ChannelDgramStats {
                datagrams_tx: 10,
                frags_tx: 10,
                ..Default::default()
            },
        );
        let mut b = DgramStats::default();
        b.per_channel.insert(
            (Loc(0), Loc(1)),
            ChannelDgramStats {
                datagrams_rx: 7,
                frags_rx: 7,
                ..Default::default()
            },
        );
        a.merge(&b);
        let s = a.per_channel[&(Loc(0), Loc(1))];
        assert_eq!(s.datagrams_tx, 10);
        assert_eq!(s.datagrams_rx, 7);
        assert_eq!(s.organic_lost(), 3);
        assert_eq!(a.delivery_rate(), Some(0.7));
        assert_eq!(DgramStats::default().delivery_rate(), None);
    }

    #[test]
    fn expected_rate_and_mesh() {
        let p = LinkProfile::lossy(0.3).with_dup(0.1);
        assert!((expected_delivery_rate(&p) - 0.7 * 1.1).abs() < 1e-12);
        let m = mesh(Pi::new(3));
        assert_eq!(m.len(), 6);
        assert!(m.contains(&(Loc(2), Loc(0))));
    }

    #[test]
    fn publish_exports_per_channel_and_totals() {
        let mut stats = DgramStats::default();
        stats.per_channel.insert(
            (Loc(0), Loc(1)),
            ChannelDgramStats {
                datagrams_tx: 10,
                datagrams_rx: 9,
                ..ChannelDgramStats::default()
            },
        );
        stats.per_channel.insert(
            (Loc(1), Loc(0)),
            ChannelDgramStats {
                datagrams_tx: 4,
                datagrams_rx: 4,
                ..ChannelDgramStats::default()
            },
        );
        let m = afd_obs::Metrics::new();
        stats.publish(&m);
        let snap = m.snapshot();
        assert_eq!(snap.counters["dgram.0->1.datagrams_tx"], 10);
        assert_eq!(snap.counters["dgram.0->1.organic_lost"], 1);
        assert_eq!(snap.counters["dgram.1->0.datagrams_rx"], 4);
        assert_eq!(snap.counters["dgram.total.datagrams_tx"], 14);
        assert_eq!(snap.counters["dgram.total.datagrams_rx"], 13);
        assert_eq!(snap.counters["dgram.total.organic_lost"], 1);
        // 13 reassembled / 14 transmitted ≈ 93%.
        assert_eq!(snap.gauges["dgram.delivery_pct"].0, 93);
    }
}
