//! What the link adversary did during a run, and the plan it follows.
//!
//! The decision stream ([`ChannelChaos`]: one [`ChaosDecision`] per
//! arrival, a pure function of `(run seed, from, to)`) lives in the
//! channel automaton's seeded ADD start state
//! ([`afd_system::ChannelState::add`]), which an engine gives every
//! channel whose [`LinkProfile`](crate::LinkProfile) is chaotic. What
//! the decisions mean operationally, as steps of that automaton:
//! * **drop** — the `Send` enqueues nothing: the message vanishes.
//! * **dup** — the `Send` enqueues two deliveries, two `Receive` steps.
//! * **hold `h > 0`** — the delivery is stamped `h` arrivals ahead;
//!   deliveries whose stamps are reached overtake it, and it goes out
//!   once its own is reached, or from the front when no stamp is:
//!   bounded out-of-order delivery with window `h ≤ reorder`.
//!
//! [`Engine::chaos_report`](crate::Engine::chaos_report) reads the
//! `stats` out of the channel states; [`chaos_plan_jsonl`] exports the
//! stream without running anything.

use std::collections::BTreeMap;

use afd_core::{Loc, Pi};

pub use afd_system::{ChannelChaos, ChannelChaosStats, ChaosDecision};

use crate::config::RuntimeConfig;

/// What the link adversary actually did during a run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChaosReport {
    /// Per-channel accounting; channels without adversarial activity
    /// (or without traffic) may be absent.
    pub per_channel: BTreeMap<(Loc, Loc), ChannelChaosStats>,
}

impl ChaosReport {
    /// Total arrivals across all channels.
    #[must_use]
    pub fn arrivals(&self) -> u64 {
        self.per_channel.values().map(|s| s.arrivals).sum()
    }

    /// Total dropped messages.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.per_channel.values().map(|s| s.dropped).sum()
    }

    /// Total duplicated deliveries.
    #[must_use]
    pub fn duplicated(&self) -> u64 {
        self.per_channel.values().map(|s| s.duplicated).sum()
    }

    /// Total held (reordered) messages.
    #[must_use]
    pub fn held(&self) -> u64 {
        self.per_channel.values().map(|s| s.held).sum()
    }

    /// Realized drop rate over all arrivals (0 when nothing arrived).
    #[must_use]
    pub fn drop_rate(&self) -> f64 {
        let a = self.arrivals();
        if a == 0 {
            return 0.0;
        }
        self.dropped() as f64 / a as f64
    }
}

impl std::fmt::Display for ChaosReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} arrivals: {} dropped / {} duplicated / {} held",
            self.arrivals(),
            self.dropped(),
            self.duplicated(),
            self.held()
        )
    }
}

/// Export the first `arrivals` adversarial decisions of every channel
/// as JSONL — one line per `(channel, arrival)`.
///
/// The plan is a pure function of `(cfg.seed, cfg.links, pi)`: two
/// calls with the same seed produce byte-identical output, and a
/// chaotic channel's ADD start state draws the *same* stream, so the
/// plan is exactly what a same-seed run will do to its first
/// `arrivals` messages per channel.
#[must_use]
pub fn chaos_plan_jsonl(cfg: &RuntimeConfig, pi: Pi, arrivals: usize) -> String {
    let mut out = String::new();
    for i in pi.iter() {
        for j in pi.iter() {
            if i == j {
                continue;
            }
            let profile = cfg.links.profile(i, j);
            let mut chaos = ChannelChaos::new(cfg.seed, i, j, profile);
            for k in 0..arrivals {
                let d = chaos.next();
                out.push_str(&format!(
                    "{{\"chan\":\"{}->{}\",\"arrival\":{},\"drop\":{},\"dup\":{},\"hold\":{}}}\n",
                    i.0, j.0, k, d.drop, d.dup, d.hold
                ));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_export_is_byte_identical_per_seed() {
        let cfg = RuntimeConfig::default()
            .with_seed(1234)
            .with_links(LinkFaults::uniform(
                LinkProfile::lossy(0.3).with_dup(0.1).with_reorder(4),
            ));
        let pi = Pi::new(3);
        let a = chaos_plan_jsonl(&cfg, pi, 50);
        let b = chaos_plan_jsonl(&cfg, pi, 50);
        assert_eq!(a, b);
        assert_eq!(a.lines().count(), 6 * 50);
        assert!(a.lines().all(|l| l.starts_with('{') && l.ends_with('}')));
        // A different seed produces a different plan.
        let other = chaos_plan_jsonl(&cfg.clone().with_seed(99), pi, 50);
        assert_ne!(a, other);
    }

    use crate::config::{LinkFaults, LinkProfile};

    #[test]
    fn report_aggregates() {
        let mut r = ChaosReport::default();
        r.per_channel.insert(
            (Loc(0), Loc(1)),
            ChannelChaosStats {
                arrivals: 10,
                dropped: 3,
                duplicated: 1,
                held: 2,
            },
        );
        r.per_channel.insert(
            (Loc(1), Loc(0)),
            ChannelChaosStats {
                arrivals: 10,
                dropped: 1,
                duplicated: 0,
                held: 0,
            },
        );
        assert_eq!(r.arrivals(), 20);
        assert_eq!(r.dropped(), 4);
        assert!((r.drop_rate() - 0.2).abs() < 1e-9);
        assert!(r.to_string().contains("20 arrivals"));
        assert_eq!(ChaosReport::default().drop_rate(), 0.0);
    }
}
