//! Runtime configuration: event budget, fault injection, adversarial
//! link faults (drop/duplicate/reorder/partition), pacing, watchdog,
//! and shutdown policy — with typed construction-time validation.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

use afd_core::{Action, Loc, LocSet, Pi};
use afd_obs::Observer;
use afd_system::FaultPattern;
pub use afd_system::LinkProfile;

/// What happens to a process's worker thread when its location crashes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CrashMode {
    /// The thread keeps running; the process automaton's own crash
    /// semantics silence it (outputs disabled, inputs absorbed). This
    /// mirrors the paper's model exactly: a crashed automaton still
    /// *exists*, it just stops producing locally controlled actions.
    #[default]
    Halt,
    /// The worker thread exits as soon as it observes its own crash:
    /// the OS-level analogue of `kill -9`. Messages routed to it are
    /// dropped on the floor (its channel receiver is gone), which is
    /// indistinguishable from crash-stop for every other component.
    Kill,
}

/// Per-channel delivery delays: a default profile plus `(from, to)`
/// overrides.
#[derive(Debug, Clone, Default)]
pub struct LinkFaults {
    default: LinkProfile,
    overrides: BTreeMap<(Loc, Loc), LinkProfile>,
}

impl LinkFaults {
    /// No delays anywhere.
    #[must_use]
    pub fn none() -> Self {
        LinkFaults::default()
    }

    /// Apply `profile` to every channel.
    #[must_use]
    pub fn uniform(profile: LinkProfile) -> Self {
        LinkFaults {
            default: profile,
            overrides: BTreeMap::new(),
        }
    }

    /// Override the profile of channel `(from, to)`.
    #[must_use]
    pub fn with_override(mut self, from: Loc, to: Loc, profile: LinkProfile) -> Self {
        self.overrides.insert((from, to), profile);
        self
    }

    /// The profile of channel `(from, to)`.
    #[must_use]
    pub fn profile(&self, from: Loc, to: Loc) -> LinkProfile {
        self.overrides
            .get(&(from, to))
            .copied()
            .unwrap_or(self.default)
    }

    /// True iff no channel ever sleeps.
    #[must_use]
    pub fn is_zero(&self) -> bool {
        self.default.is_zero() && self.overrides.values().all(LinkProfile::is_zero)
    }

    /// True iff some channel injects adversarial faults.
    #[must_use]
    pub fn is_chaotic(&self) -> bool {
        self.default.is_chaotic() || self.overrides.values().any(LinkProfile::is_chaotic)
    }

    /// Every configured profile: the default (channel `None`) plus all
    /// `(from, to)` overrides — the iteration surface for validation.
    pub fn entries(&self) -> impl Iterator<Item = (Option<(Loc, Loc)>, LinkProfile)> + '_ {
        std::iter::once((None, self.default))
            .chain(self.overrides.iter().map(|(&ch, &p)| (Some(ch), p)))
    }
}

/// A scripted network partition: between global event indices `start`
/// (inclusive) and `end` (exclusive), every channel crossing the cut —
/// one endpoint in `side`, the other outside it — holds its traffic.
/// Held messages are *not* dropped: delivery resumes in FIFO order
/// when the partition heals, so recovery is graceful. An eternal cut
/// (`end == usize::MAX`) starves the affected channels forever, which
/// the watchdog surfaces as a stall instead of a hang.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Partition {
    /// First global event index at which the cut is active.
    pub start: usize,
    /// First global event index at which the cut has healed
    /// (exclusive; `usize::MAX` never heals).
    pub end: usize,
    /// One side of the cut; the other side is its complement.
    pub side: LocSet,
}

impl Partition {
    /// Cut `side` off from the rest during `[start, end)`.
    #[must_use]
    pub fn cut(start: usize, end: usize, side: LocSet) -> Self {
        Partition { start, end, side }
    }

    /// A cut starting at `start` that never heals.
    #[must_use]
    pub fn eternal(start: usize, side: LocSet) -> Self {
        Partition {
            start,
            end: usize::MAX,
            side,
        }
    }

    /// Is the channel `(from, to)` severed by this partition at global
    /// event index `step`?
    #[must_use]
    pub fn cuts(&self, from: Loc, to: Loc, step: usize) -> bool {
        step >= self.start && step < self.end && self.side.contains(from) != self.side.contains(to)
    }
}

/// Early-stop predicate over the committed schedule prefix.
pub type StopPredicate = Arc<dyn Fn(&[Action]) -> bool + Send + Sync>;

/// Incremental early-stop predicate: fed every committed action in
/// schedule order, returns `true` when the run should stop. Being
/// `FnMut`, it folds its own state (a [`afd_core::StreamChecker`]
/// wraps naturally), so it is O(1) per event where a [`StopPredicate`]
/// re-scans the whole prefix — the interval knob becomes unnecessary.
pub type StreamPredicate = Box<dyn FnMut(&Action) -> bool + Send>;

/// Factory producing a fresh [`StreamPredicate`] per run.
/// `RuntimeConfig` is `Clone` and reusable across runs, but an
/// incremental predicate is stateful and single-run — so the config
/// carries the factory and the runtime instantiates at start.
pub type StreamPredicateFactory = Arc<dyn Fn() -> StreamPredicate + Send + Sync>;

/// Configuration of a threaded run.
#[derive(Clone)]
pub struct RuntimeConfig {
    /// Hard cap on committed events.
    pub max_events: usize,
    /// Crash injection schedule: `(global event index, location)`.
    pub faults: FaultPattern,
    /// Thread fate on crash.
    pub crash_mode: CrashMode,
    /// Per-channel delivery delays.
    pub links: LinkFaults,
    /// Minimum spacing between failure-detector output commits. FD
    /// generators are perpetually enabled; without pacing they flood
    /// the log and starve algorithm progress within `max_events`.
    pub fd_pacing: Duration,
    /// How often (in committed events) the stop predicate is evaluated.
    pub stop_check_interval: usize,
    /// Scripted network partitions (cuts that may heal).
    pub partitions: Vec<Partition>,
    /// Watchdog sampling period of the idle, stall, wall-clock and
    /// deferred-heal checks. The run is declared quiescent
    /// ([`crate::StopReason::Idle`]) once the commit count is stable
    /// across two consecutive ticks with every input queue drained and
    /// every worker parked — sequence-number-based quiescence, not a
    /// fixed sleep. It is no floor on a run: the watchdog waits on the
    /// sink's stop between samples, so a run stopped by its predicate,
    /// `max_events`, a panic or a halt ends at that event.
    pub watchdog_tick: Duration,
    /// Stall deadline: if the run is *not* quiescent but nothing
    /// commits for this long, the watchdog stops it with
    /// [`crate::StopReason::Watchdog`] and a diagnostic dump instead
    /// of hanging.
    pub watchdog_deadline: Duration,
    /// Minimum spacing between wire-frame (`WireSend`) commits from
    /// process workers. Stubborn retransmission is an infinite loop by
    /// design; without pacing it floods the event budget.
    pub wire_pacing: Duration,
    /// Wall-clock safety net.
    pub wall_timeout: Duration,
    /// Seed for link-fault jitter and the adversarial decision stream.
    pub seed: u64,
    /// Early-stop predicate, checked every `stop_check_interval` commits.
    pub stop_when: Option<StopPredicate>,
    /// Incremental early-stop predicate factory: the produced
    /// predicate sees every commit (effective interval 1) at O(1)
    /// amortized cost. May be combined with `stop_when`; either one
    /// firing stops the run.
    pub stop_when_stream: Option<StreamPredicateFactory>,
    /// Optional observer notified of every accepted commit, in
    /// schedule order with strictly increasing sequence numbers, and
    /// once at stop. Dispatch happens on the sink's in-order drain,
    /// off the commit lock. `None` — the default — costs nothing on
    /// the commit path.
    pub observer: Option<Arc<dyn Observer>>,
    /// Worker-pool size for the sharded executor. `None` (the default)
    /// uses `std::thread::available_parallelism()`. The verdict of a
    /// run must never depend on this knob — it only changes which legal
    /// interleaving the pool happens to explore (see the pool-size
    /// sweep in tests/threaded_cross_validation.rs).
    pub workers: Option<usize>,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            max_events: 4_000,
            faults: FaultPattern::none(),
            crash_mode: CrashMode::Halt,
            links: LinkFaults::none(),
            fd_pacing: Duration::from_micros(50),
            stop_check_interval: 16,
            partitions: Vec::new(),
            watchdog_tick: Duration::from_millis(10),
            watchdog_deadline: Duration::from_secs(2),
            wire_pacing: Duration::from_micros(50),
            wall_timeout: Duration::from_secs(10),
            seed: 0,
            stop_when: None,
            stop_when_stream: None,
            observer: None,
            workers: None,
        }
    }
}

impl std::fmt::Debug for RuntimeConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RuntimeConfig")
            .field("max_events", &self.max_events)
            .field("faults", &self.faults)
            .field("crash_mode", &self.crash_mode)
            .field("links", &self.links)
            .field("fd_pacing", &self.fd_pacing)
            .field("stop_check_interval", &self.stop_check_interval)
            .field("partitions", &self.partitions)
            .field("watchdog_tick", &self.watchdog_tick)
            .field("watchdog_deadline", &self.watchdog_deadline)
            .field("wire_pacing", &self.wire_pacing)
            .field("wall_timeout", &self.wall_timeout)
            .field("seed", &self.seed)
            .field("stop_when", &self.stop_when.is_some())
            .field("stop_when_stream", &self.stop_when_stream.is_some())
            .field("observer", &self.observer.is_some())
            .field("workers", &self.workers)
            .finish()
    }
}

impl RuntimeConfig {
    /// Set the event budget.
    #[must_use]
    pub fn with_max_events(mut self, n: usize) -> Self {
        self.max_events = n;
        self
    }

    /// Set the crash injection schedule.
    #[must_use]
    pub fn with_faults(mut self, faults: FaultPattern) -> Self {
        self.faults = faults;
        self
    }

    /// Set the thread fate on crash.
    #[must_use]
    pub fn with_crash_mode(mut self, mode: CrashMode) -> Self {
        self.crash_mode = mode;
        self
    }

    /// Set the link-fault layer.
    #[must_use]
    pub fn with_links(mut self, links: LinkFaults) -> Self {
        self.links = links;
        self
    }

    /// Set FD-output pacing (zero disables pacing).
    #[must_use]
    pub fn with_fd_pacing(mut self, pacing: Duration) -> Self {
        self.fd_pacing = pacing;
        self
    }

    /// Add a scripted partition.
    #[must_use]
    pub fn with_partition(mut self, p: Partition) -> Self {
        self.partitions.push(p);
        self
    }

    /// Set the watchdog sampling period and stall deadline.
    #[must_use]
    pub fn with_watchdog(mut self, tick: Duration, deadline: Duration) -> Self {
        self.watchdog_tick = tick;
        self.watchdog_deadline = deadline;
        self
    }

    /// Set wire-frame pacing (zero disables pacing).
    #[must_use]
    pub fn with_wire_pacing(mut self, pacing: Duration) -> Self {
        self.wire_pacing = pacing;
        self
    }

    /// Set the wall-clock safety net.
    #[must_use]
    pub fn with_wall_timeout(mut self, timeout: Duration) -> Self {
        self.wall_timeout = timeout;
        self
    }

    /// Set the jitter seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Stop once `pred(schedule)` holds (checked every
    /// `stop_check_interval` commits).
    #[must_use]
    pub fn stop_when<F>(mut self, pred: F) -> Self
    where
        F: Fn(&[Action]) -> bool + Send + Sync + 'static,
    {
        self.stop_when = Some(Arc::new(pred));
        self
    }

    /// Stop as soon as the incremental predicate produced by `factory`
    /// returns `true` for a committed action. The factory is invoked
    /// once per run; the produced `FnMut` folds its own state across
    /// the schedule, so the effective check interval is 1 at O(1)
    /// amortized cost per event.
    #[must_use]
    pub fn stop_when_stream<F>(mut self, factory: F) -> Self
    where
        F: Fn() -> StreamPredicate + Send + Sync + 'static,
    {
        self.stop_when_stream = Some(Arc::new(factory));
        self
    }

    /// Attach an observer, notified of every accepted commit in
    /// schedule order (on the sink's in-order drain).
    #[must_use]
    pub fn with_observer(mut self, obs: Arc<dyn Observer>) -> Self {
        self.observer = Some(obs);
        self
    }

    /// Pin the executor's worker-pool size (`0` clamps to `1`).
    #[must_use]
    pub fn with_workers(mut self, n: usize) -> Self {
        self.workers = Some(n.max(1));
        self
    }

    /// Validate the configuration against the universe `pi`, returning
    /// a typed error instead of letting a malformed config panic (or
    /// silently misbehave) mid-run.
    ///
    /// # Errors
    /// The first inconsistency found — see [`ConfigError`].
    pub fn validate(&self, pi: Pi) -> Result<(), ConfigError> {
        let n = pi.len();
        let mut seen = LocSet::empty();
        let mut prev_step = 0usize;
        for &(step, loc) in &self.faults.crashes {
            if usize::from(loc.0) >= n {
                return Err(ConfigError::CrashLocOutOfBounds { loc, n });
            }
            if step < prev_step {
                return Err(ConfigError::CrashStepsUnsorted { step, prev_step });
            }
            prev_step = step;
            if seen.contains(loc) {
                return Err(ConfigError::DuplicateCrash { loc });
            }
            seen.insert(loc);
        }
        for (channel, p) in self.links.entries() {
            if let Some((from, to)) = channel {
                if from == to {
                    return Err(ConfigError::SelfLink { loc: from });
                }
                for l in [from, to] {
                    if usize::from(l.0) >= n {
                        return Err(ConfigError::LinkLocOutOfBounds {
                            channel: (from, to),
                            n,
                        });
                    }
                }
            }
            for (field, value) in [("drop", p.drop), ("dup", p.dup)] {
                if !(0.0..=1.0).contains(&value) || value.is_nan() {
                    return Err(ConfigError::InvalidProbability {
                        channel,
                        field,
                        value,
                    });
                }
            }
        }
        for (index, p) in self.partitions.iter().enumerate() {
            if p.start >= p.end {
                return Err(ConfigError::EmptyPartition {
                    index,
                    start: p.start,
                    end: p.end,
                });
            }
            if p.side.iter().any(|l| usize::from(l.0) >= n) {
                return Err(ConfigError::PartitionLocOutOfBounds { index, n });
            }
        }
        if self.watchdog_tick.is_zero() || self.watchdog_deadline.is_zero() {
            return Err(ConfigError::ZeroWatchdog);
        }
        Ok(())
    }
}

/// A malformed [`RuntimeConfig`], detected by
/// [`RuntimeConfig::validate`] before any thread is spawned.
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// A crash entry names a location outside Π.
    CrashLocOutOfBounds {
        /// The offending location.
        loc: Loc,
        /// Size of Π.
        n: usize,
    },
    /// Crash steps are not in non-decreasing order.
    CrashStepsUnsorted {
        /// The out-of-order step.
        step: usize,
        /// The step preceding it in the pattern.
        prev_step: usize,
    },
    /// The same location crashes twice.
    DuplicateCrash {
        /// The twice-crashed location.
        loc: Loc,
    },
    /// A link override names a location outside Π.
    LinkLocOutOfBounds {
        /// The offending channel.
        channel: (Loc, Loc),
        /// Size of Π.
        n: usize,
    },
    /// A link override targets a self-channel, which does not exist.
    SelfLink {
        /// The location paired with itself.
        loc: Loc,
    },
    /// A drop/dup probability is outside `[0, 1]` (or NaN).
    InvalidProbability {
        /// The channel (`None` = the default profile).
        channel: Option<(Loc, Loc)>,
        /// Which probability field.
        field: &'static str,
        /// The offending value.
        value: f64,
    },
    /// A partition interval is empty (`start >= end`).
    EmptyPartition {
        /// Index into `partitions`.
        index: usize,
        /// Interval start.
        start: usize,
        /// Interval end.
        end: usize,
    },
    /// A partition side names a location outside Π.
    PartitionLocOutOfBounds {
        /// Index into `partitions`.
        index: usize,
        /// Size of Π.
        n: usize,
    },
    /// Watchdog tick or deadline is zero — the runtime could neither
    /// detect quiescence nor stalls.
    ZeroWatchdog,
    /// A deployment would need more distinct locations than the
    /// commit-path crash bitset can track (see
    /// [`crate::CRASH_CAPACITY`]); locations past the end would alias
    /// and corrupt liveness accounting.
    LocCapacityExceeded {
        /// Locations the deployment needs (`n_locations × slots_live`).
        locations: usize,
        /// Hard capacity of the crash bitset.
        capacity: usize,
    },
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::CrashLocOutOfBounds { loc, n } => {
                write!(f, "crash entry names {loc} but |Π| = {n}")
            }
            ConfigError::CrashStepsUnsorted { step, prev_step } => {
                write!(f, "crash steps unsorted: {step} after {prev_step}")
            }
            ConfigError::DuplicateCrash { loc } => {
                write!(f, "{loc} crashes more than once")
            }
            ConfigError::LinkLocOutOfBounds { channel: (i, j), n } => {
                write!(f, "link override ({i},{j}) outside Π (|Π| = {n})")
            }
            ConfigError::SelfLink { loc } => {
                write!(f, "link override for self-channel at {loc}")
            }
            ConfigError::InvalidProbability {
                channel,
                field,
                value,
            } => match channel {
                Some((i, j)) => {
                    write!(f, "channel ({i},{j}) {field} probability {value} ∉ [0,1]")
                }
                None => write!(f, "default {field} probability {value} ∉ [0,1]"),
            },
            ConfigError::EmptyPartition { index, start, end } => {
                write!(f, "partition #{index} interval [{start},{end}) is empty")
            }
            ConfigError::PartitionLocOutOfBounds { index, n } => {
                write!(f, "partition #{index} side outside Π (|Π| = {n})")
            }
            ConfigError::ZeroWatchdog => {
                write!(f, "watchdog tick/deadline must be non-zero")
            }
            ConfigError::LocCapacityExceeded {
                locations,
                capacity,
            } => {
                write!(
                    f,
                    "deployment needs {locations} locations but the crash \
                     bitset tracks at most {capacity}"
                )
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// Check that a deployment of `slots_live` concurrent system instances
/// over `n_locations` locations each fits inside the commit-path crash
/// bitset ([`crate::CRASH_CAPACITY`] locations). Debug builds used to
/// catch the overflow only as a shift panic deep in the sink; this
/// surfaces it as a typed error before any thread is spawned.
///
/// # Errors
/// [`ConfigError::LocCapacityExceeded`] when
/// `n_locations × slots_live` exceeds the bitset capacity.
pub fn validate_loc_capacity(n_locations: usize, slots_live: usize) -> Result<(), ConfigError> {
    let locations = n_locations.saturating_mul(slots_live);
    if locations > crate::CRASH_CAPACITY {
        return Err(ConfigError::LocCapacityExceeded {
            locations,
            capacity: crate::CRASH_CAPACITY,
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn link_faults_resolve_overrides() {
        let lf = LinkFaults::uniform(LinkProfile::delay(Duration::from_micros(100))).with_override(
            Loc(0),
            Loc(1),
            LinkProfile::jittered(Duration::ZERO, Duration::from_micros(50)),
        );
        assert_eq!(lf.profile(Loc(1), Loc(0)).delay, Duration::from_micros(100));
        assert_eq!(lf.profile(Loc(0), Loc(1)).delay, Duration::ZERO);
        assert_eq!(lf.profile(Loc(0), Loc(1)).jitter, Duration::from_micros(50));
        assert!(!lf.is_zero());
        assert!(LinkFaults::none().is_zero());
    }

    #[test]
    fn builder_round_trip() {
        let cfg = RuntimeConfig::default()
            .with_max_events(99)
            .with_crash_mode(CrashMode::Kill)
            .with_fd_pacing(Duration::ZERO)
            .with_wire_pacing(Duration::from_micros(10))
            .with_watchdog(Duration::from_millis(5), Duration::from_secs(1))
            .with_seed(7)
            .stop_when(|s| s.len() > 3)
            .stop_when_stream(|| {
                let mut count = 0usize;
                Box::new(move |_a: &Action| {
                    count += 1;
                    count > 3
                })
            });
        assert_eq!(cfg.max_events, 99);
        assert_eq!(cfg.crash_mode, CrashMode::Kill);
        assert_eq!(cfg.wire_pacing, Duration::from_micros(10));
        assert_eq!(cfg.watchdog_tick, Duration::from_millis(5));
        assert!(cfg.stop_when.is_some());
        // The factory mints independent predicate instances.
        let factory = cfg.stop_when_stream.clone().unwrap();
        let mut p = factory();
        let a = Action::Crash(Loc(0));
        assert!(!p(&a) && !p(&a) && !p(&a) && p(&a));
        let mut q = factory();
        assert!(!q(&a), "fresh instance starts from scratch");
        let dbg = format!("{cfg:?}");
        assert!(dbg.contains("max_events: 99"));
    }

    #[test]
    fn chaotic_profiles_detected() {
        assert!(!LinkProfile::default().is_chaotic());
        assert!(LinkProfile::lossy(0.3).is_chaotic());
        assert!(LinkProfile::default().with_dup(0.1).is_chaotic());
        assert!(LinkProfile::default().with_reorder(4).is_chaotic());
        assert!(!LinkFaults::none().is_chaotic());
        assert!(LinkFaults::uniform(LinkProfile::lossy(0.1)).is_chaotic());
    }

    #[test]
    fn partitions_cut_crossing_channels_only() {
        let p = Partition::cut(10, 20, LocSet::singleton(Loc(0)));
        assert!(p.cuts(Loc(0), Loc(1), 10));
        assert!(p.cuts(Loc(1), Loc(0), 19));
        assert!(!p.cuts(Loc(1), Loc(2), 15), "same side");
        assert!(!p.cuts(Loc(0), Loc(1), 9), "before the cut");
        assert!(!p.cuts(Loc(0), Loc(1), 20), "healed");
        let forever = Partition::eternal(5, LocSet::singleton(Loc(2)));
        assert!(forever.cuts(Loc(2), Loc(0), usize::MAX - 1));
    }

    #[test]
    fn validation_accepts_well_formed_configs() {
        let pi = Pi::new(3);
        assert_eq!(RuntimeConfig::default().validate(pi), Ok(()));
        let cfg = RuntimeConfig::default()
            .with_faults(FaultPattern::at(vec![(5, Loc(0)), (9, Loc(2))]))
            .with_links(
                LinkFaults::uniform(LinkProfile::lossy(0.3).with_dup(0.1).with_reorder(4))
                    .with_override(Loc(0), Loc(1), LinkProfile::default()),
            )
            .with_partition(Partition::cut(10, 40, LocSet::singleton(Loc(1))));
        assert_eq!(cfg.validate(pi), Ok(()));
    }

    #[test]
    fn validation_rejects_malformed_configs() {
        let pi = Pi::new(3);
        let oob = RuntimeConfig::default().with_faults(FaultPattern::at(vec![(5, Loc(7))]));
        assert_eq!(
            oob.validate(pi),
            Err(ConfigError::CrashLocOutOfBounds { loc: Loc(7), n: 3 })
        );
        let dup =
            RuntimeConfig::default().with_faults(FaultPattern::at(vec![(5, Loc(1)), (9, Loc(1))]));
        assert_eq!(
            dup.validate(pi),
            Err(ConfigError::DuplicateCrash { loc: Loc(1) })
        );
        let unsorted = RuntimeConfig::default().with_faults(FaultPattern {
            crashes: vec![(9, Loc(0)), (5, Loc(1))],
        });
        assert!(matches!(
            unsorted.validate(pi),
            Err(ConfigError::CrashStepsUnsorted { .. })
        ));
        let bad_p =
            RuntimeConfig::default().with_links(LinkFaults::uniform(LinkProfile::lossy(1.5)));
        assert!(matches!(
            bad_p.validate(pi),
            Err(ConfigError::InvalidProbability { field: "drop", .. })
        ));
        let self_link = RuntimeConfig::default().with_links(LinkFaults::none().with_override(
            Loc(1),
            Loc(1),
            LinkProfile::default(),
        ));
        assert_eq!(
            self_link.validate(pi),
            Err(ConfigError::SelfLink { loc: Loc(1) })
        );
        let chan_oob = RuntimeConfig::default().with_links(LinkFaults::none().with_override(
            Loc(0),
            Loc(5),
            LinkProfile::default(),
        ));
        assert!(matches!(
            chan_oob.validate(pi),
            Err(ConfigError::LinkLocOutOfBounds { .. })
        ));
        let empty_part =
            RuntimeConfig::default().with_partition(Partition::cut(20, 10, LocSet::empty()));
        assert!(matches!(
            empty_part.validate(pi),
            Err(ConfigError::EmptyPartition { .. })
        ));
        let part_oob = RuntimeConfig::default().with_partition(Partition::cut(
            0,
            10,
            LocSet::singleton(Loc(9)),
        ));
        assert!(matches!(
            part_oob.validate(pi),
            Err(ConfigError::PartitionLocOutOfBounds { .. })
        ));
        let zero_wd =
            RuntimeConfig::default().with_watchdog(Duration::ZERO, Duration::from_secs(1));
        assert_eq!(zero_wd.validate(pi), Err(ConfigError::ZeroWatchdog));
        // Errors render as messages and behave as std errors.
        let e = oob.validate(pi).unwrap_err();
        assert!(e.to_string().contains("|Π| = 3"));
        let _: &dyn std::error::Error = &e;
    }

    #[test]
    fn loc_capacity_is_checked_before_spawn() {
        assert_eq!(validate_loc_capacity(5, 51), Ok(()));
        assert_eq!(validate_loc_capacity(crate::CRASH_CAPACITY, 1), Ok(()));
        let err = validate_loc_capacity(5, 52).unwrap_err();
        assert_eq!(
            err,
            ConfigError::LocCapacityExceeded {
                locations: 260,
                capacity: crate::CRASH_CAPACITY,
            }
        );
        assert!(err.to_string().contains("260"));
        // Saturating: absurd products still report as errors, not wrap.
        assert!(validate_loc_capacity(usize::MAX, 2).is_err());
    }
}
