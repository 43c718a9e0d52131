//! The link adversary's seeded decision stream: what a chaotic channel
//! does to each message sent on it.
//!
//! Every chaotic channel draws from a [`ChannelChaos`] generator seeded
//! from `(run seed, from, to)` — independent of thread timing. Each
//! message *arrival* (a `Send`/`WireSend` the channel takes as input)
//! consumes exactly one [`ChaosDecision`] = exactly three `splitmix64`
//! draws, in a fixed order (drop, dup, hold). The decision stream is
//! therefore a pure function of the seed and the channel: the k-th
//! arrival on channel `(i, j)` meets the same fate in every same-seed
//! run, on every engine. The stream lives in the channel automaton's
//! ADD start state ([`crate::ChannelState::add`]), which is where the
//! decisions take effect.

use std::time::Duration;

use afd_core::Loc;

use crate::rng::SplitMix64;

/// Fault profile of one channel.
///
/// Timing: each delivery waits `delay` plus a uniform draw from
/// `0..jitter` before committing.
///
/// Adversarial faults, drawn deterministically per arrival from the
/// run's seeded stream ([`ChannelChaos`]):
/// * `drop` — probability an arriving message is silently discarded;
/// * `dup` — probability an arriving message is delivered twice;
/// * `reorder` — bound on the out-of-order window: an arrival may be
///   held back past up to `reorder` later arrivals before delivery
///   (`0` preserves FIFO).
#[derive(Debug, Clone, Copy, Default)]
pub struct LinkProfile {
    /// Fixed delivery delay.
    pub delay: Duration,
    /// Upper bound of the uniform extra delay.
    pub jitter: Duration,
    /// Per-arrival drop probability in `[0, 1]`.
    pub drop: f64,
    /// Per-delivery duplication probability in `[0, 1]`.
    pub dup: f64,
    /// Maximum number of later arrivals a held message can be passed by.
    pub reorder: u32,
}

impl LinkProfile {
    /// A profile with fixed `delay` and no jitter.
    #[must_use]
    pub fn delay(delay: Duration) -> Self {
        LinkProfile {
            delay,
            ..LinkProfile::default()
        }
    }

    /// A profile with fixed `delay` plus uniform `jitter`.
    #[must_use]
    pub fn jittered(delay: Duration, jitter: Duration) -> Self {
        LinkProfile {
            delay,
            jitter,
            ..LinkProfile::default()
        }
    }

    /// A zero-latency profile that drops each arrival with probability
    /// `drop`.
    #[must_use]
    pub fn lossy(drop: f64) -> Self {
        LinkProfile {
            drop,
            ..LinkProfile::default()
        }
    }

    /// Set the duplication probability.
    #[must_use]
    pub fn with_dup(mut self, p: f64) -> Self {
        self.dup = p;
        self
    }

    /// Set the reorder window.
    #[must_use]
    pub fn with_reorder(mut self, window: u32) -> Self {
        self.reorder = window;
        self
    }

    /// True iff this profile never sleeps.
    #[must_use]
    pub fn is_zero(&self) -> bool {
        self.delay.is_zero() && self.jitter.is_zero()
    }

    /// True iff this profile injects adversarial faults (beyond mere
    /// delay).
    #[must_use]
    pub fn is_chaotic(&self) -> bool {
        self.drop > 0.0 || self.dup > 0.0 || self.reorder > 0
    }
}

/// The fate of one arrival.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaosDecision {
    /// Discard the message.
    pub drop: bool,
    /// Deliver the message twice.
    pub dup: bool,
    /// Hold the message past this many later arrivals (0 = in order).
    pub hold: u32,
}

/// A probability as a threshold on the top 53 bits of a draw: with
/// `x = draw >> 11`, `x < threshold(p)` exactly when the uniform
/// `x / 2⁵³ ∈ [0, 1)` is below `p` (scaling by 2⁵³ is exact, and `x`
/// is an integer). Integers keep the generator `Eq + Hash`, so it can
/// sit inside an automaton state.
fn threshold(p: f64) -> u64 {
    (p * (1u64 << 53) as f64).ceil() as u64
}

/// The per-channel adversarial decision generator.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ChannelChaos {
    rng: SplitMix64,
    drop: u64,
    dup: u64,
    reorder: u32,
}

impl ChannelChaos {
    /// The generator for channel `(from, to)` under `seed`.
    #[must_use]
    pub fn new(seed: u64, from: Loc, to: Loc, profile: LinkProfile) -> Self {
        // Decorrelate channels by mixing the endpoints into the seed
        // through an extra splitmix scramble.
        let mix = SplitMix64::new(
            seed ^ (u64::from(from.0) << 8 | u64::from(to.0)).wrapping_mul(0xA24B_AED4_963E_E407),
        )
        .next_u64();
        ChannelChaos {
            rng: SplitMix64::new(mix),
            drop: threshold(profile.drop),
            dup: threshold(profile.dup),
            reorder: profile.reorder,
        }
    }

    /// The fate of the next arrival. Always consumes exactly three
    /// draws so the stream stays aligned across profile changes.
    #[allow(clippy::should_implement_trait)] // not an Iterator: infinite, and `next` is the natural name
    pub fn next(&mut self) -> ChaosDecision {
        let d_drop = self.rng.next_u64();
        let d_dup = self.rng.next_u64();
        let d_hold = self.rng.next_u64();
        let drop = d_drop >> 11 < self.drop;
        let dup = !drop && d_dup >> 11 < self.dup;
        let hold = if drop || self.reorder == 0 {
            0
        } else {
            // Uniform over 0..=reorder: most arrivals pass through,
            // some are held back a bounded distance.
            (d_hold % (u64::from(self.reorder) + 1)) as u32
        };
        ChaosDecision { drop, dup, hold }
    }
}

/// Per-channel adversarial accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct ChannelChaosStats {
    /// Messages sent on the channel (decision stream length).
    pub arrivals: u64,
    /// Arrivals discarded.
    pub dropped: u64,
    /// Arrivals delivered twice.
    pub duplicated: u64,
    /// Arrivals held back for out-of-order release.
    pub held: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decision_stream_is_deterministic_per_channel() {
        let p = LinkProfile::lossy(0.3).with_dup(0.2).with_reorder(4);
        let mut a = ChannelChaos::new(42, Loc(0), Loc(1), p);
        let mut b = ChannelChaos::new(42, Loc(0), Loc(1), p);
        let xs: Vec<ChaosDecision> = (0..64).map(|_| a.next()).collect();
        let ys: Vec<ChaosDecision> = (0..64).map(|_| b.next()).collect();
        assert_eq!(xs, ys);
        // A different channel under the same seed draws differently.
        let mut c = ChannelChaos::new(42, Loc(1), Loc(0), p);
        let zs: Vec<ChaosDecision> = (0..64).map(|_| c.next()).collect();
        assert_ne!(xs, zs);
    }

    #[test]
    fn rates_are_roughly_honored() {
        let p = LinkProfile::lossy(0.3).with_dup(0.25).with_reorder(3);
        let mut g = ChannelChaos::new(7, Loc(0), Loc(2), p);
        let n = 4000;
        let mut drops = 0;
        let mut dups = 0;
        let mut holds = 0;
        for _ in 0..n {
            let d = g.next();
            drops += u32::from(d.drop);
            dups += u32::from(d.dup);
            holds += u32::from(d.hold > 0);
            assert!(d.hold <= 3);
            assert!(!(d.drop && d.dup), "dropped messages are not duplicated");
        }
        let rate = |k: u32| f64::from(k) / f64::from(n);
        assert!(
            (rate(drops) - 0.3).abs() < 0.05,
            "drop rate {}",
            rate(drops)
        );
        // dup applies to the non-dropped 70%: expect ~0.25 * 0.7.
        assert!((rate(dups) - 0.175).abs() < 0.05, "dup rate {}", rate(dups));
        // hold > 0 with prob 3/4 over surviving arrivals.
        assert!(rate(holds) > 0.4, "hold rate {}", rate(holds));
    }

    #[test]
    fn benign_profile_yields_benign_decisions() {
        let mut g = ChannelChaos::new(
            9,
            Loc(0),
            Loc(1),
            LinkProfile::delay(Duration::from_micros(10)),
        );
        let benign = ChaosDecision {
            drop: false,
            dup: false,
            hold: 0,
        };
        for _ in 0..32 {
            assert_eq!(g.next(), benign);
        }
    }
}
