//! Run statistics: per-kind and per-location event counts, message
//! traffic, and decision latencies — shared by the experiment tables,
//! the benches, and assertions in tests.

use std::collections::BTreeMap;

use afd_core::{Action, Frame, Loc, Pi, StreamChecker};
use afd_obs::SeenSeqs;

/// Aggregate statistics of a schedule.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Total events.
    pub events: usize,
    /// Crash events.
    pub crashes: usize,
    /// Recovery events (crash-recovery runs only).
    pub recoveries: usize,
    /// Send events.
    pub sends: usize,
    /// Receive events.
    pub receives: usize,
    /// Failure-detector output events (unilateral `Fd`).
    pub fd_outputs: usize,
    /// Renamed (`FdRenamed`) output events.
    pub fd_renamed: usize,
    /// Problem inputs (propose/broadcast/query variants).
    pub problem_inputs: usize,
    /// Problem outputs (decide/deliver/elect/reply variants).
    pub problem_outputs: usize,
    /// Events per location.
    pub per_loc: BTreeMap<Loc, usize>,
    /// Index of the first decide-style event, if any.
    pub first_decision_at: Option<usize>,
    /// Index of the last decide-style event, if any.
    pub last_decision_at: Option<usize>,
    /// Peak number of undelivered sends on any single channel `(i, j)`
    /// at any prefix of the schedule — the worst per-channel backlog.
    pub max_in_flight: usize,
    /// Peak undelivered-send depth per channel `(from, to)`, over all
    /// prefixes of the schedule. Channels that never carried a message
    /// are absent; `max_in_flight` is the maximum of the values.
    pub per_channel_in_flight: BTreeMap<(Loc, Loc), usize>,
    /// Wire-frame send events (`WireSend`, adversarial-link transport).
    pub wire_sends: usize,
    /// Wire-frame receive events (`WireRecv`).
    pub wire_receives: usize,
    /// `Data` frames sent more than once on a channel — the stubborn
    /// retransmissions of the reliable layer (first transmission of
    /// each `(from, to, seq)` is not counted).
    pub retransmissions: usize,
    /// `Data` frames *delivered* more than once on a channel — link
    /// duplication plus retransmissions that beat their ack; the
    /// receiver's dedup layer absorbs these.
    pub dup_frames: usize,
}

impl RunStats {
    /// Compute statistics over a schedule: a thin wrapper over the
    /// streaming fold ([`RunStatsStream`]).
    #[must_use]
    pub fn of(schedule: &[Action]) -> Self {
        RunStatsStream::new().check_all(schedule)
    }

    /// Messages still in flight at the end: sends minus receives.
    #[must_use]
    pub fn in_flight(&self) -> usize {
        self.sends.saturating_sub(self.receives)
    }

    /// The channel with the deepest backlog peak, with that peak.
    /// Ties break toward the `BTreeMap`-smallest `(from, to)` pair.
    /// `None` if nothing was ever sent.
    #[must_use]
    pub fn busiest_channel(&self) -> Option<((Loc, Loc), usize)> {
        self.per_channel_in_flight
            .iter()
            .max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(a.0)))
            .map(|(&ch, &peak)| (ch, peak))
    }

    /// Schedule-index distance between the first and the last
    /// decide-style event — how long the decision wave took to sweep
    /// all locations. `None` if nothing decided; `Some(0)` if exactly
    /// one location decided.
    #[must_use]
    pub fn decision_latency(&self) -> Option<usize> {
        match (self.first_decision_at, self.last_decision_at) {
            (Some(first), Some(last)) => Some(last - first),
            _ => None,
        }
    }

    /// Fraction of events that are message traffic.
    #[must_use]
    pub fn message_fraction(&self) -> f64 {
        if self.events == 0 {
            return 0.0;
        }
        (self.sends + self.receives) as f64 / self.events as f64
    }

    /// Events at locations that never appear (sanity helper): locations
    /// of `pi` with zero recorded events.
    #[must_use]
    pub fn silent_locations(&self, pi: Pi) -> Vec<Loc> {
        pi.iter()
            .filter(|l| !self.per_loc.contains_key(l))
            .collect()
    }
}

/// Streaming form of [`RunStats::of`]: fold actions one at a time and
/// read the aggregate at any prefix. Auxiliary fold state (per-channel
/// backlogs, seen wire sequence numbers) lives here, outside the
/// published statistics.
#[derive(Debug, Clone, Default)]
pub struct RunStatsStream {
    st: RunStats,
    backlog: BTreeMap<(Loc, Loc), usize>,
    data_sent: BTreeMap<(Loc, Loc), SeenSeqs>,
    data_rcvd: BTreeMap<(Loc, Loc), SeenSeqs>,
    k: usize,
}

impl RunStatsStream {
    /// An empty fold.
    #[must_use]
    pub fn new() -> Self {
        RunStatsStream::default()
    }

    /// The statistics of the prefix folded so far, by reference (no
    /// clone — for hot paths that read a counter per commit).
    #[must_use]
    pub fn stats(&self) -> &RunStats {
        &self.st
    }
}

impl StreamChecker for RunStatsStream {
    type Verdict = RunStats;

    fn push(&mut self, a: &Action) {
        let st = &mut self.st;
        let k = self.k;
        self.k += 1;
        st.events += 1;
        *st.per_loc.entry(a.loc()).or_insert(0) += 1;
        match a {
            Action::Crash(_) => st.crashes += 1,
            Action::Recover(_) => st.recoveries += 1,
            Action::Send { from, to, .. } => {
                st.sends += 1;
                let q = self.backlog.entry((*from, *to)).or_insert(0);
                *q += 1;
                st.max_in_flight = st.max_in_flight.max(*q);
                let peak = st.per_channel_in_flight.entry((*from, *to)).or_insert(0);
                *peak = (*peak).max(*q);
            }
            Action::Receive { from, to, .. } => {
                st.receives += 1;
                if let Some(q) = self.backlog.get_mut(&(*from, *to)) {
                    *q = q.saturating_sub(1);
                }
            }
            Action::Fd { .. } => st.fd_outputs += 1,
            Action::FdRenamed { .. } => st.fd_renamed += 1,
            Action::Propose { .. }
            | Action::ProposeK { .. }
            | Action::Broadcast { .. }
            | Action::Vote { .. }
            | Action::Query { .. } => st.problem_inputs += 1,
            Action::Decide { .. }
            | Action::DecideK { .. }
            | Action::Deliver { .. }
            | Action::Elect { .. }
            | Action::Verdict { .. }
            | Action::QueryReply { .. } => {
                st.problem_outputs += 1;
                if matches!(a, Action::Decide { .. } | Action::DecideK { .. }) {
                    st.first_decision_at.get_or_insert(k);
                    st.last_decision_at = Some(k);
                }
            }
            Action::WireSend { from, to, frame } => {
                st.wire_sends += 1;
                if let Frame::Data { seq, .. } = frame {
                    if !self.data_sent.entry((*from, *to)).or_default().insert(*seq) {
                        st.retransmissions += 1;
                    }
                }
            }
            Action::WireRecv { from, to, frame } => {
                st.wire_receives += 1;
                if let Frame::Data { seq, .. } = frame {
                    if !self.data_rcvd.entry((*from, *to)).or_default().insert(*seq) {
                        st.dup_frames += 1;
                    }
                }
            }
            Action::Internal { .. } => {}
        }
    }

    fn finish(&self) -> RunStats {
        self.st.clone()
    }
}

impl std::fmt::Display for RunStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} events: {} send / {} recv / {} fd / {} crash / {} in / {} out",
            self.events,
            self.sends,
            self.receives,
            self.fd_outputs,
            self.crashes,
            self.problem_inputs,
            self.problem_outputs
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use afd_core::{FdOutput, Msg};

    fn sample() -> Vec<Action> {
        vec![
            Action::Propose { at: Loc(0), v: 1 },
            Action::Fd {
                at: Loc(0),
                out: FdOutput::Leader(Loc(0)),
            },
            Action::Send {
                from: Loc(0),
                to: Loc(1),
                msg: Msg::Token(1),
            },
            Action::Receive {
                from: Loc(0),
                to: Loc(1),
                msg: Msg::Token(1),
            },
            Action::Crash(Loc(2)),
            Action::Decide { at: Loc(0), v: 1 },
            Action::Decide { at: Loc(1), v: 1 },
        ]
    }

    #[test]
    fn counts_by_kind() {
        let st = RunStats::of(&sample());
        assert_eq!(st.events, 7);
        assert_eq!(st.sends, 1);
        assert_eq!(st.receives, 1);
        assert_eq!(st.fd_outputs, 1);
        assert_eq!(st.crashes, 1);
        assert_eq!(st.problem_inputs, 1);
        assert_eq!(st.problem_outputs, 2);
        assert_eq!(st.in_flight(), 0);
    }

    #[test]
    fn per_location_and_decisions() {
        let st = RunStats::of(&sample());
        assert_eq!(st.per_loc[&Loc(0)], 4, "propose, fd, send, decide");
        assert_eq!(st.per_loc[&Loc(1)], 2, "receive, decide");
        assert_eq!(st.first_decision_at, Some(5));
        assert_eq!(st.last_decision_at, Some(6));
        assert!(st.silent_locations(Pi::new(4)).contains(&Loc(3)));
    }

    #[test]
    fn fractions_and_display() {
        let st = RunStats::of(&sample());
        assert!((st.message_fraction() - 2.0 / 7.0).abs() < 1e-9);
        let s = st.to_string();
        assert!(s.contains("7 events"));
        assert_eq!(RunStats::of(&[]).message_fraction(), 0.0);
    }

    #[test]
    fn in_flight_counts_undelivered() {
        let t = vec![
            Action::Send {
                from: Loc(0),
                to: Loc(1),
                msg: Msg::Token(1),
            },
            Action::Send {
                from: Loc(0),
                to: Loc(1),
                msg: Msg::Token(2),
            },
            Action::Receive {
                from: Loc(0),
                to: Loc(1),
                msg: Msg::Token(1),
            },
        ];
        assert_eq!(RunStats::of(&t).in_flight(), 1);
    }

    #[test]
    fn max_in_flight_is_per_channel_peak() {
        // Channel (0,1) peaks at 2; channel (1,0) holds 1 concurrently.
        // Aggregate in-flight hits 3, but no single channel exceeds 2.
        let t = vec![
            Action::Send {
                from: Loc(0),
                to: Loc(1),
                msg: Msg::Token(1),
            },
            Action::Send {
                from: Loc(1),
                to: Loc(0),
                msg: Msg::Token(9),
            },
            Action::Send {
                from: Loc(0),
                to: Loc(1),
                msg: Msg::Token(2),
            },
            Action::Receive {
                from: Loc(0),
                to: Loc(1),
                msg: Msg::Token(1),
            },
            Action::Receive {
                from: Loc(0),
                to: Loc(1),
                msg: Msg::Token(2),
            },
            Action::Send {
                from: Loc(0),
                to: Loc(1),
                msg: Msg::Token(3),
            },
        ];
        let st = RunStats::of(&t);
        assert_eq!(st.max_in_flight, 2);
        assert_eq!(st.in_flight(), 2);
        assert_eq!(st.per_channel_in_flight[&(Loc(0), Loc(1))], 2);
        assert_eq!(st.per_channel_in_flight[&(Loc(1), Loc(0))], 1);
        assert_eq!(st.busiest_channel(), Some(((Loc(0), Loc(1)), 2)));
        assert_eq!(RunStats::of(&[]).busiest_channel(), None);
    }

    #[test]
    fn wire_counters_track_retransmissions_and_dups() {
        let d = |seq| Frame::Data {
            seq,
            msg: Msg::Token(0),
        };
        let t = vec![
            Action::WireSend {
                from: Loc(0),
                to: Loc(1),
                frame: d(0),
            },
            Action::WireSend {
                from: Loc(0),
                to: Loc(1),
                frame: d(0), // retransmission
            },
            Action::WireSend {
                from: Loc(1),
                to: Loc(0),
                frame: d(0), // other channel: not a retransmission
            },
            Action::WireRecv {
                from: Loc(0),
                to: Loc(1),
                frame: d(0),
            },
            Action::WireRecv {
                from: Loc(0),
                to: Loc(1),
                frame: d(0), // duplicate delivery
            },
            Action::WireSend {
                from: Loc(1),
                to: Loc(0),
                frame: Frame::Ack { cum: 1 }, // acks never count
            },
            Action::WireSend {
                from: Loc(1),
                to: Loc(0),
                frame: Frame::Ack { cum: 1 },
            },
        ];
        let st = RunStats::of(&t);
        assert_eq!(st.wire_sends, 5);
        assert_eq!(st.wire_receives, 2);
        assert_eq!(st.retransmissions, 1);
        assert_eq!(st.dup_frames, 1);
        // Wire traffic is not app-level traffic.
        assert_eq!(st.sends, 0);
        assert_eq!(st.receives, 0);
    }

    #[test]
    fn decision_latency_spans_first_to_last_decide() {
        let st = RunStats::of(&sample());
        assert_eq!(st.decision_latency(), Some(1));
        assert_eq!(RunStats::of(&[]).decision_latency(), None);
        let solo = vec![Action::Decide { at: Loc(0), v: 7 }];
        assert_eq!(RunStats::of(&solo).decision_latency(), Some(0));
    }
}
