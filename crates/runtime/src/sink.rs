//! The sequenced event sink: the single point every worker thread
//! commits through, producing the totally-ordered event log.
//!
//! **Linearization convention.** The mutex-ordered append IS the
//! schedule: an action happened at the instant its append took the
//! lock. Workers commit *before* applying their local `step` and
//! *before* routing the action to input-takers, so every causal
//! successor (a `Receive` of a `Send`, a state change downstream of a
//! `Crash`) can only be committed after its cause is already in the
//! log. The recorded `Vec<Action>` is therefore a legal schedule of
//! the composition, directly consumable by `RunStats::of`, the
//! `AfdSpec` membership checkers, and the consensus/problem specs.
//!
//! **Crash suppression.** The sink tracks crashed locations. A commit
//! of any action `a` with `loc(a)` crashed is rejected
//! ([`Commit::Suppressed`]) unless `a` is itself a `Crash` or a
//! `Receive` — channels may deliver to dead processes (the process
//! absorbs inputs silently), but a dead location produces nothing.
//! Because the check happens under the same lock as the append, no
//! output of a crashed location can race past its crash into the log,
//! which is exactly the AFD validity safety clause.
//!
//! **The commit pipeline.** The critical section of a commit is only
//! the linearization itself: stop check, crash check, append, and
//! sequence reservation — all O(1). Observer dispatch and
//! stop-predicate evaluation happen *off* the lock on an in-order
//! drain: after releasing the log lock, the committer try-locks a
//! second mutex guarding the dispatch cursor; whoever holds it copies
//! the undispatched suffix of the log (under a brief re-lock) and
//! replays it in schedule order. Exactly one thread drains at a time
//! and the cursor advances monotonically, so observers still see every
//! accepted commit exactly once, in schedule order, with strictly
//! increasing sequence numbers — they just no longer serialize the
//! committers. A committer that loses the `try_lock` race simply
//! leaves its events for the current drainer (who re-checks after
//! finishing); [`EventSink::into_log`] performs a final flush, so by
//! the end of a run the dispatched prefix always equals the full log.
//!
//! One consequence is *bounded stop lag*: a stop predicate may be
//! evaluated a few commits after its triggering event, so a handful of
//! extra events can commit after the predicate first holds.

use std::sync::atomic::{fence, AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use afd_core::{Action, Loc, Stamped};
use afd_obs::Observer;

use crate::config::{StopPredicate, StreamPredicate};

/// Why the run stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// The event budget was exhausted.
    MaxEvents,
    /// The stop predicate held.
    Predicate,
    /// The run quiesced: commit count stable across two watchdog
    /// ticks, all input queues drained, every worker parked.
    Idle,
    /// The watchdog detected a stall: the run is *not* quiescent but
    /// nothing committed within the deadline (e.g. an eternal
    /// partition starving a channel). A diagnostic dump accompanies
    /// this in `RuntimeOutcome::diagnostic`.
    Watchdog,
    /// A component worker panicked and the panic could not be
    /// converted into a crash event (non-process component).
    Panicked,
    /// The wall-clock safety net fired.
    WallClock,
}

impl StopReason {
    /// Short machine-readable name (used in observer `on_stop` calls
    /// and JSON output).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            StopReason::MaxEvents => "max_events",
            StopReason::Predicate => "predicate",
            StopReason::Idle => "idle",
            StopReason::Watchdog => "watchdog",
            StopReason::Panicked => "panicked",
            StopReason::WallClock => "wall_clock",
        }
    }
}

/// Outcome of one commit attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Commit {
    /// Appended to the log; the committer must now apply its local
    /// `step` and route the action.
    Accepted,
    /// Rejected: the action's location is crashed. The committer must
    /// NOT step — the action never happened.
    Suppressed,
    /// The run is over; the worker should exit.
    Stopped,
}

/// Number of `u64` words in the crashed bitset: covers the entire
/// `Loc(u8)` range, so no location can shift past the end (`Loc(64)`
/// used to alias `Loc(0)` in release builds).
const CRASH_WORDS: usize = 4;

/// Maximum number of distinct locations the crash bitset can track —
/// the hard ceiling on `|Π|` for any single run. Config-level checks
/// (e.g. [`crate::validate_loc_capacity`]) compare against this
/// instead of hard-coding the width.
pub const CRASH_CAPACITY: usize = CRASH_WORDS * 64;

struct Inner {
    log: Vec<Action>,
    /// Wall-clock stamps (ns since `start`) of the commits not yet
    /// copied out by the drainer — `log[drained..]`, one each — so it
    /// holds the backlog, not the run. Maintained only when a drain
    /// consumer exists (observer or stop predicate).
    stamps: Vec<u64>,
    stop: Option<StopReason>,
}

/// Dispatch-side state, guarded by its own mutex so dispatch never
/// blocks committers. `drained` is the linearized prefix already
/// replayed to the observer / predicates.
struct DrainState {
    drained: usize,
    /// Reused copy buffer: `(action, wall_ns)` of the pending suffix.
    scratch: Vec<(Action, u64)>,
    /// The drainer's own copy of the schedule prefix, maintained only
    /// when a slice stop predicate needs a `&[Action]` to look at.
    seen: Vec<Action>,
    /// Incremental stop predicate, fed every action in order.
    stream_pred: Option<StreamPredicate>,
}

/// Event-driven wait on the log length and on the stop. One length
/// waiter at a time (the crash injector) registers a threshold; the
/// commit path signals the condvar when the log crosses it. Every stop
/// path signals it too — [`EventSink::stop`] (predicate, panic, halt,
/// watchdog) and the commit that fills `max_events` — so neither a
/// length waiter nor a [`EventSink::wait_stopped`] waiter outlives the
/// run. `usize::MAX` means "nobody is waiting", so the hot-path check
/// is a single always-false compare.
struct LenWatch {
    threshold: AtomicUsize,
    lock: Mutex<()>,
    cv: Condvar,
}

/// Construction options for [`EventSink::with_options`] — the full
/// configuration surface ([`EventSink::new`] /
/// [`EventSink::with_observer`] are shorthands).
pub struct SinkOptions {
    /// Hard cap on committed events.
    pub max_events: usize,
    /// Slice-predicate check interval (in commits); clamped to ≥ 1.
    pub stop_check_interval: usize,
    /// Slice stop predicate, evaluated on the drained prefix.
    pub stop_when: Option<StopPredicate>,
    /// Incremental stop predicate, fed one action at a time (interval
    /// is effectively 1 at O(1) cost per event).
    pub stop_stream: Option<StreamPredicate>,
    /// Observer notified of every accepted commit, in schedule order.
    pub observer: Option<Arc<dyn Observer>>,
}

impl Default for SinkOptions {
    fn default() -> Self {
        SinkOptions {
            max_events: usize::MAX,
            stop_check_interval: 1,
            stop_when: None,
            stop_stream: None,
            observer: None,
        }
    }
}

/// Stops the run with [`StopReason::Panicked`] when dropped by an
/// unwinding drain callback.
struct StopIfUnwinding<'a>(&'a EventSink);

impl Drop for StopIfUnwinding<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.stop(StopReason::Panicked);
        }
    }
}

/// The sequenced sink shared by all workers of one run.
pub struct EventSink {
    inner: Mutex<Inner>,
    drain: Mutex<DrainState>,
    /// Mirror of `inner.log.len()` for lock-free progress checks.
    len: AtomicUsize,
    /// Mirror of `DrainState::drained` for the cheap "anything
    /// pending?" pre-check.
    dispatched: AtomicUsize,
    /// Mirror of the crashed-location bitset: word `i >> 6`, bit
    /// `i & 63` — the whole `u8` location range, no shift overflow.
    crashed: [AtomicU64; CRASH_WORDS],
    /// Lock-free stop flag mirroring `inner.stop.is_some()`.
    stopped: AtomicBool,
    /// Nanoseconds (since `start`) of the latest commit.
    last_commit_ns: AtomicU64,
    start: Instant,
    max_events: usize,
    stop_check_interval: usize,
    stop_when: Option<StopPredicate>,
    observer: Option<Arc<dyn Observer>>,
    /// Anything for the drain to do? False for pure logging runs,
    /// which then skip the drain machinery entirely.
    needs_drain: bool,
    watch: LenWatch,
}

impl EventSink {
    /// A sink enforcing the given budget and stop predicate.
    #[must_use]
    pub fn new(
        max_events: usize,
        stop_check_interval: usize,
        stop_when: Option<StopPredicate>,
    ) -> Self {
        EventSink::with_observer(max_events, stop_check_interval, stop_when, None)
    }

    /// A sink that additionally notifies `observer` at every accepted
    /// commit — callbacks see commits in schedule order with strictly
    /// increasing sequence numbers, stamped with nanoseconds of wall
    /// time since the sink was created. Dispatch happens on the
    /// in-order drain, off the commit lock (see the module docs).
    #[must_use]
    pub fn with_observer(
        max_events: usize,
        stop_check_interval: usize,
        stop_when: Option<StopPredicate>,
        observer: Option<Arc<dyn Observer>>,
    ) -> Self {
        EventSink::with_options(SinkOptions {
            max_events,
            stop_check_interval,
            stop_when,
            observer,
            ..SinkOptions::default()
        })
    }

    /// A sink with the full option surface.
    #[must_use]
    pub fn with_options(opts: SinkOptions) -> Self {
        let needs_drain =
            opts.observer.is_some() || opts.stop_when.is_some() || opts.stop_stream.is_some();
        EventSink {
            inner: Mutex::new(Inner {
                log: Vec::with_capacity(opts.max_events.min(1 << 16)),
                stamps: Vec::new(),
                stop: None,
            }),
            drain: Mutex::new(DrainState {
                drained: 0,
                scratch: Vec::new(),
                seen: Vec::new(),
                stream_pred: opts.stop_stream,
            }),
            len: AtomicUsize::new(0),
            dispatched: AtomicUsize::new(0),
            crashed: [const { AtomicU64::new(0) }; CRASH_WORDS],
            stopped: AtomicBool::new(false),
            last_commit_ns: AtomicU64::new(0),
            start: Instant::now(),
            max_events: opts.max_events,
            stop_check_interval: opts.stop_check_interval.max(1),
            stop_when: opts.stop_when,
            observer: opts.observer,
            needs_drain,
            watch: LenWatch {
                threshold: AtomicUsize::new(usize::MAX),
                lock: Mutex::new(()),
                cv: Condvar::new(),
            },
        }
    }

    /// Is `a` an output of a crashed location? Deliveries
    /// (`Receive`/`WireRecv`) are exempt: channels may deliver to dead
    /// processes, which absorb inputs silently. `Recover` is exempt by
    /// construction — it is precisely the action that un-crashes a
    /// location, so it must be committable while the bit is set.
    fn is_suppressed(&self, a: &Action) -> bool {
        !a.is_crash()
            && !a.is_recover()
            && !matches!(a, Action::Receive { .. } | Action::WireRecv { .. })
            && self.crashed_bit(a.loc())
    }

    fn crashed_bit(&self, l: Loc) -> bool {
        self.crashed[usize::from(l.0) >> 6].load(Ordering::Relaxed) >> (l.0 & 63) & 1 == 1
    }

    /// Attempt to append `a` to the log.
    pub fn try_commit(&self, a: Action) -> Commit {
        let status = {
            // Uncontended fast path: no commit-wait span (there was no
            // wait), and only the lock-hold probe's single clock read
            // lands inside the critical section. On contention the
            // wait → hold boundary shares one clock read via handoff.
            let (mut g, hold) = match self.inner.try_lock() {
                Ok(g) => (g, afd_prof::span(afd_prof::Stage::LockHold)),
                Err(std::sync::TryLockError::Poisoned(p)) => {
                    (p.into_inner(), afd_prof::span(afd_prof::Stage::LockHold))
                }
                Err(std::sync::TryLockError::WouldBlock) => {
                    let wait = afd_prof::span(afd_prof::Stage::CommitWait);
                    let g = self
                        .inner
                        .lock()
                        .unwrap_or_else(std::sync::PoisonError::into_inner);
                    (g, wait.handoff(afd_prof::Stage::LockHold))
                }
            };
            // Set only by the commit that fills the budget: its stop is
            // signalled once, after the lock is released.
            let mut hit_budget = false;
            let status = if g.stop.is_some() {
                Commit::Stopped
            } else if self.is_suppressed(&a) {
                Commit::Suppressed
            } else {
                match a {
                    Action::Crash(l) => {
                        let w = &self.crashed[usize::from(l.0) >> 6];
                        let bits = w.load(Ordering::Relaxed);
                        w.store(bits | 1 << (l.0 & 63), Ordering::Relaxed);
                    }
                    Action::Recover(l) => {
                        let w = &self.crashed[usize::from(l.0) >> 6];
                        let bits = w.load(Ordering::Relaxed);
                        w.store(bits & !(1 << (l.0 & 63)), Ordering::Relaxed);
                    }
                    _ => {}
                }
                let now_ns = u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX);
                g.log.push(a);
                if self.needs_drain {
                    g.stamps.push(now_ns);
                }
                if g.log.len() >= self.max_events {
                    g.stop = Some(StopReason::MaxEvents);
                    self.stopped.store(true, Ordering::Release);
                    hit_budget = true;
                }
                self.len.store(g.log.len(), Ordering::Release);
                self.last_commit_ns.store(now_ns, Ordering::Relaxed);
                Commit::Accepted
            };
            drop(g);
            hold.done();
            if hit_budget {
                self.wake_watch();
            }
            status
        };
        if status == Commit::Accepted {
            self.notify_len_watch();
            if self.needs_drain {
                afd_prof::gauge_sampled(
                    afd_prof::GaugeKind::SinkDepth,
                    self.len
                        .load(Ordering::Relaxed)
                        .saturating_sub(self.dispatched.load(Ordering::Relaxed))
                        as u64,
                    64,
                );
                self.drain_pending();
            }
        }
        status
    }

    /// Try to become the drainer and replay the undispatched suffix.
    /// Losing the `try_lock` race is fine: the current drainer
    /// re-checks for new commits after finishing, and `into_log`
    /// flushes whatever remains at the end of the run.
    fn drain_pending(&self) {
        while self.dispatched.load(Ordering::Acquire) < self.len.load(Ordering::Acquire) {
            let Ok(mut d) = self.drain.try_lock() else {
                return;
            };
            self.drain_locked(&mut d);
        }
    }

    /// Replay all pending commits to the observer and predicates, in
    /// schedule order. Caller holds the drain lock; the log lock is
    /// taken only to memcpy the pending suffix into the scratch
    /// buffer, never across a callback.
    fn drain_locked(&self, d: &mut DrainState) {
        loop {
            d.scratch.clear();
            let start = d.drained;
            {
                let mut g = self
                    .inner
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                if g.log.len() <= start {
                    return;
                }
                debug_assert_eq!(g.stamps.len(), g.log.len() - start);
                let g = &mut *g;
                d.scratch
                    .extend(g.log[start..].iter().copied().zip(g.stamps.drain(..)));
            }
            d.drained += d.scratch.len();
            let scratch = std::mem::take(&mut d.scratch);
            // An observer or predicate that panics takes the run down
            // as `Panicked` whichever committer happened to be
            // draining — the callback is not that component's code.
            let _unwinding = StopIfUnwinding(self);
            let dispatch_span = afd_prof::span(afd_prof::Stage::ObserverDispatch);
            for (i, (a, ns)) in scratch.iter().enumerate() {
                if let Some(obs) = &self.observer {
                    let seq = (start + i) as u64;
                    afd_obs::dispatch(obs.as_ref(), Stamped::walled(seq, *ns, *a));
                }
                if self.stop_when.is_some() {
                    d.seen.push(*a);
                }
                if self.is_stopped() {
                    continue; // drain everything, but stop judging
                }
                let mut fire = false;
                if let Some(p) = d.stream_pred.as_mut() {
                    fire = p(a);
                }
                if !fire {
                    if let (Some(pred), true) = (
                        &self.stop_when,
                        (start + i + 1).is_multiple_of(self.stop_check_interval),
                    ) {
                        fire = pred(&d.seen);
                    }
                }
                if fire {
                    self.stop(StopReason::Predicate);
                }
            }
            dispatch_span.done();
            d.scratch = scratch;
            self.dispatched.store(d.drained, Ordering::Release);
        }
    }

    /// Block until every accepted commit has been dispatched. Called
    /// by `into_log`; also useful in tests.
    pub fn flush(&self) {
        if !self.needs_drain {
            return;
        }
        let mut d = self
            .drain
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        self.drain_locked(&mut d);
    }

    /// Stop the run with `reason` (first stop wins) and wake every
    /// waiter on the watch. The budget-filling commit stops the run
    /// without this call and wakes the watch itself, so every stop
    /// path releases [`EventSink::wait_len_at_least`] and
    /// [`EventSink::wait_stopped`].
    pub fn stop(&self, reason: StopReason) {
        {
            let mut g = self
                .inner
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            if g.stop.is_none() {
                g.stop = Some(reason);
            }
            self.stopped.store(true, Ordering::Release);
        }
        // Unconditional wake: a length waiter whose threshold will
        // never be reached must still observe the stop.
        self.wake_watch();
    }

    /// Wake every waiter on the watch. Taking and dropping the watch
    /// lock first orders the wake after any waiter's check of its
    /// condition: a waiter that checked before the caller's store is
    /// already parked on the condvar, one that checks after sees it.
    fn wake_watch(&self) {
        drop(
            self.watch
                .lock
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner),
        );
        self.watch.cv.notify_all();
    }

    /// Signal the length watch if the log has crossed the registered
    /// threshold. The `SeqCst` fence pairs with the one in
    /// [`EventSink::wait_len_at_least`] (Dekker): either the committer
    /// sees the waiter's threshold, or the waiter sees the committed
    /// length — a wakeup cannot be missed.
    fn notify_len_watch(&self) {
        fence(Ordering::SeqCst);
        if self.len.load(Ordering::Relaxed) >= self.watch.threshold.load(Ordering::Relaxed) {
            self.wake_watch();
        }
    }

    /// Block until the log holds at least `n` events or the run stops —
    /// event-driven (signaled by the commit path), no polling. One
    /// logical waiter at a time: registering a threshold overwrites any
    /// previous registration.
    pub fn wait_len_at_least(&self, n: usize) {
        let mut g = self
            .watch
            .lock
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        self.watch.threshold.store(n, Ordering::Relaxed);
        fence(Ordering::SeqCst);
        while self.len.load(Ordering::Relaxed) < n && !self.is_stopped() {
            g = self
                .watch
                .cv
                .wait(g)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
        drop(g);
        self.watch.threshold.store(usize::MAX, Ordering::Relaxed);
    }

    /// Block until the run stops or `timeout` elapses, whichever comes
    /// first; returns whether the run has stopped. Event-driven: every
    /// stop path signals the watch (see [`EventSink::stop`]), so the
    /// return follows the stopping commit or call, not a poll period.
    /// Any number of threads may wait at once; a length waiter's wakes
    /// only re-check the condition.
    pub fn wait_stopped(&self, timeout: Duration) -> bool {
        let g = self
            .watch
            .lock
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let _ = self
            .watch
            .cv
            .wait_timeout_while(g, timeout, |()| !self.is_stopped())
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        self.is_stopped()
    }

    /// Lock-free: has the run stopped?
    #[must_use]
    pub fn is_stopped(&self) -> bool {
        self.stopped.load(Ordering::Acquire)
    }

    /// Lock-free: committed event count.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len.load(Ordering::Relaxed)
    }

    /// Lock-free: is the log empty?
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lock-free: has `l` crashed?
    #[must_use]
    pub fn is_crashed(&self, l: Loc) -> bool {
        self.crashed_bit(l)
    }

    /// A snapshot of the first `n` committed actions (clamped to the
    /// current log length). This is the replay prefix a rejoining node
    /// rebuilds its state from: commits are appended under the inner
    /// lock with dense indices, so the prefix is immutable once taken.
    #[must_use]
    pub fn log_prefix(&self, n: usize) -> Vec<Action> {
        let g = self
            .inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let n = n.min(g.log.len());
        g.log[..n].to_vec()
    }

    /// Nanoseconds since the last commit (since start, if none yet).
    #[must_use]
    pub fn ns_since_last_commit(&self) -> u64 {
        let now = u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        now.saturating_sub(self.last_commit_ns.load(Ordering::Relaxed))
    }

    /// Wall-clock time since the sink was created.
    #[must_use]
    pub fn elapsed(&self) -> std::time::Duration {
        self.start.elapsed()
    }

    /// `(retained wall stamps, undispatched backlog)`, read under one
    /// hold of the log lock.
    #[cfg(test)]
    fn stamps_and_backlog(&self) -> (usize, usize) {
        let g = self
            .inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let backlog = g.log.len() - self.dispatched.load(Ordering::Acquire);
        (g.stamps.len(), backlog)
    }

    /// Consume the sink, returning the log and the stop reason, after
    /// a final drain flush (so the observer has seen the entire
    /// schedule by the time this returns). Tolerates a poisoned lock
    /// (a worker that panicked mid-commit): the log up to the
    /// poisoning commit is still a legal schedule.
    #[must_use]
    pub fn into_log(self) -> (Vec<Action>, Option<StopReason>) {
        self.flush();
        let inner = self
            .inner
            .into_inner()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        (inner.log, inner.stop)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use afd_core::{FdOutput, Msg};

    fn send01() -> Action {
        Action::Send {
            from: Loc(0),
            to: Loc(1),
            msg: Msg::Token(1),
        }
    }

    #[test]
    fn commits_append_in_order() {
        let sink = EventSink::new(100, 16, None);
        assert_eq!(sink.try_commit(send01()), Commit::Accepted);
        assert_eq!(sink.try_commit(Action::Crash(Loc(0))), Commit::Accepted);
        assert_eq!(sink.len(), 2);
        let (log, stop) = sink.into_log();
        assert_eq!(log, vec![send01(), Action::Crash(Loc(0))]);
        assert_eq!(stop, None);
    }

    #[test]
    fn suppresses_outputs_of_crashed_locations() {
        let sink = EventSink::new(100, 16, None);
        assert_eq!(sink.try_commit(Action::Crash(Loc(0))), Commit::Accepted);
        assert!(sink.is_crashed(Loc(0)));
        // Own outputs: suppressed.
        assert_eq!(sink.try_commit(send01()), Commit::Suppressed);
        assert_eq!(
            sink.try_commit(Action::Fd {
                at: Loc(0),
                out: FdOutput::Leader(Loc(1))
            }),
            Commit::Suppressed
        );
        // Deliveries TO the dead location: allowed.
        assert_eq!(
            sink.try_commit(Action::Receive {
                from: Loc(1),
                to: Loc(0),
                msg: Msg::Token(9)
            }),
            Commit::Accepted
        );
        // Other locations: unaffected.
        assert_eq!(
            sink.try_commit(Action::Fd {
                at: Loc(1),
                out: FdOutput::Leader(Loc(1))
            }),
            Commit::Accepted
        );
        let (log, _) = sink.into_log();
        assert_eq!(log.len(), 3);
    }

    #[test]
    fn crash_bitset_covers_the_full_location_range() {
        // Loc(64) used to shift past the u64 bitset: debug builds
        // panicked, release builds aliased it onto Loc(0).
        let sink = EventSink::new(100, 16, None);
        assert_eq!(sink.try_commit(Action::Crash(Loc(64))), Commit::Accepted);
        assert!(sink.is_crashed(Loc(64)));
        assert!(!sink.is_crashed(Loc(0)), "no aliasing onto word 0");
        assert!(!sink.is_crashed(Loc(63)));
        assert!(!sink.is_crashed(Loc(128)));
        assert_eq!(sink.try_commit(Action::Crash(Loc(63))), Commit::Accepted);
        assert_eq!(sink.try_commit(Action::Crash(Loc(255))), Commit::Accepted);
        assert!(sink.is_crashed(Loc(63)));
        assert!(sink.is_crashed(Loc(255)));
        // And suppression applies at the boundary locations too.
        assert_eq!(
            sink.try_commit(Action::Fd {
                at: Loc(64),
                out: FdOutput::Leader(Loc(0))
            }),
            Commit::Suppressed
        );
        assert_eq!(
            sink.try_commit(Action::Fd {
                at: Loc(255),
                out: FdOutput::Leader(Loc(0))
            }),
            Commit::Suppressed
        );
    }

    #[test]
    fn recover_clears_the_crash_bit_and_reopens_commits() {
        let sink = EventSink::new(100, 16, None);
        assert_eq!(sink.try_commit(Action::Crash(Loc(0))), Commit::Accepted);
        assert_eq!(sink.try_commit(send01()), Commit::Suppressed);
        // Recover is exempt from suppression and clears the bit.
        assert_eq!(sink.try_commit(Action::Recover(Loc(0))), Commit::Accepted);
        assert!(!sink.is_crashed(Loc(0)));
        assert_eq!(sink.try_commit(send01()), Commit::Accepted);
        // A second incarnation can crash again.
        assert_eq!(sink.try_commit(Action::Crash(Loc(0))), Commit::Accepted);
        assert_eq!(sink.try_commit(send01()), Commit::Suppressed);
        let (log, _) = sink.into_log();
        assert_eq!(
            log,
            vec![
                Action::Crash(Loc(0)),
                Action::Recover(Loc(0)),
                send01(),
                Action::Crash(Loc(0)),
            ]
        );
    }

    #[test]
    fn log_prefix_snapshots_the_committed_prefix() {
        let sink = EventSink::new(100, 16, None);
        assert_eq!(sink.try_commit(send01()), Commit::Accepted);
        assert_eq!(sink.try_commit(Action::Crash(Loc(0))), Commit::Accepted);
        assert_eq!(sink.log_prefix(1), vec![send01()]);
        assert_eq!(sink.log_prefix(2), vec![send01(), Action::Crash(Loc(0))]);
        // Clamped, never panics past the end.
        assert_eq!(sink.log_prefix(99).len(), 2);
        assert!(sink.log_prefix(0).is_empty());
    }

    #[test]
    fn max_events_stops_the_run() {
        let sink = EventSink::new(2, 16, None);
        assert_eq!(sink.try_commit(send01()), Commit::Accepted);
        assert!(!sink.is_stopped());
        assert_eq!(sink.try_commit(send01()), Commit::Accepted);
        assert!(sink.is_stopped());
        assert_eq!(sink.try_commit(send01()), Commit::Stopped);
        let (log, stop) = sink.into_log();
        assert_eq!(log.len(), 2);
        assert_eq!(stop, Some(StopReason::MaxEvents));
    }

    #[test]
    fn predicate_checked_at_interval() {
        let sink = EventSink::new(
            100,
            4,
            Some(std::sync::Arc::new(|s: &[Action]| s.len() >= 2)),
        );
        for _ in 0..3 {
            assert_eq!(sink.try_commit(send01()), Commit::Accepted);
        }
        // Holds at len 2 but only checked at multiples of 4.
        assert!(!sink.is_stopped());
        assert_eq!(sink.try_commit(send01()), Commit::Accepted);
        assert!(sink.is_stopped());
        let (_, stop) = sink.into_log();
        assert_eq!(stop, Some(StopReason::Predicate));
    }

    #[test]
    fn stream_predicate_fires_without_interval() {
        // The incremental predicate is fed every action: interval-free.
        let sink = EventSink::with_options(SinkOptions {
            max_events: 100,
            stop_check_interval: 64, // irrelevant to the stream form
            stop_stream: Some(Box::new(|a: &Action| a.is_crash())),
            ..SinkOptions::default()
        });
        assert_eq!(sink.try_commit(send01()), Commit::Accepted);
        assert!(!sink.is_stopped());
        assert_eq!(sink.try_commit(Action::Crash(Loc(1))), Commit::Accepted);
        assert!(sink.is_stopped());
        let (_, stop) = sink.into_log();
        assert_eq!(stop, Some(StopReason::Predicate));
    }

    #[test]
    fn external_stop_first_wins() {
        let sink = EventSink::new(100, 16, None);
        sink.stop(StopReason::Idle);
        sink.stop(StopReason::WallClock);
        assert_eq!(sink.try_commit(send01()), Commit::Stopped);
        let (log, stop) = sink.into_log();
        assert!(log.is_empty());
        assert!(sink_is(stop, StopReason::Idle));
    }

    fn sink_is(stop: Option<StopReason>, want: StopReason) -> bool {
        stop == Some(want)
    }

    #[test]
    fn observer_sees_accepted_commits_only() {
        let rec = Arc::new(afd_obs::TraceRecorder::new());
        let sink = EventSink::with_observer(100, 16, None, Some(rec.clone()));
        assert_eq!(sink.try_commit(Action::Crash(Loc(0))), Commit::Accepted);
        // Suppressed: never reaches the observer.
        assert_eq!(sink.try_commit(send01()), Commit::Suppressed);
        assert_eq!(
            sink.try_commit(Action::Fd {
                at: Loc(1),
                out: FdOutput::Leader(Loc(1))
            }),
            Commit::Accepted
        );
        sink.flush();
        let trace = rec.snapshot();
        assert_eq!(trace.len(), 2);
        assert_eq!(trace[0].seq, 0);
        assert_eq!(trace[0].action, Action::Crash(Loc(0)));
        assert_eq!(trace[1].seq, 1);
        assert!(trace.iter().all(|ev| ev.wall_ns.is_some()));
        let (log, _) = sink.into_log();
        assert_eq!(log.len(), trace.len());
    }

    #[test]
    fn concurrent_commits_drain_in_schedule_order() {
        // Hammer the sink from several threads; the observer trace
        // must equal the final log exactly, with increasing seqs.
        let rec = Arc::new(afd_obs::TraceRecorder::new());
        let sink = EventSink::with_observer(4_000, 16, None, Some(rec.clone()));
        std::thread::scope(|s| {
            for i in 0..4u8 {
                let sink = &sink;
                s.spawn(move || {
                    for j in 0..250u64 {
                        let a = Action::Send {
                            from: Loc(i),
                            to: Loc((i + 1) % 4),
                            msg: Msg::Token(j),
                        };
                        while sink.try_commit(a) != Commit::Accepted {}
                    }
                });
            }
        });
        let (log, _) = sink.into_log();
        assert_eq!(log.len(), 1_000);
        let trace = rec.snapshot();
        assert_eq!(trace.len(), log.len());
        for (k, ev) in trace.iter().enumerate() {
            assert_eq!(ev.seq, k as u64);
            assert_eq!(ev.action, log[k]);
        }
    }

    #[test]
    fn budget_filling_commits_land_and_are_observed() {
        let rec = Arc::new(afd_obs::TraceRecorder::new());
        let sink = EventSink::with_options(SinkOptions {
            max_events: 3,
            stop_check_interval: 1,
            observer: Some(rec.clone()),
            ..SinkOptions::default()
        });
        assert_eq!(sink.try_commit(Action::Crash(Loc(64))), Commit::Accepted);
        assert!(sink.is_crashed(Loc(64)));
        assert_eq!(
            sink.try_commit(Action::Fd {
                at: Loc(64),
                out: FdOutput::Leader(Loc(0))
            }),
            Commit::Suppressed
        );
        // These exactly fill the budget: both land, and the stop is
        // discovered by the next commit attempt.
        assert_eq!(sink.try_commit(send01()), Commit::Accepted);
        assert_eq!(sink.try_commit(send01()), Commit::Accepted);
        assert!(sink.is_stopped());
        assert_eq!(sink.try_commit(send01()), Commit::Stopped);
        sink.flush();
        let trace = rec.snapshot();
        assert_eq!(trace.len(), 3);
        let (log, stop) = sink.into_log();
        assert_eq!(log.len(), 3);
        assert_eq!(stop, Some(StopReason::MaxEvents));
    }

    /// Checks, per dispatched event, that sequence numbers run 0, 1, …
    /// and that wall stamps never go backwards.
    #[derive(Default)]
    struct OrderCheck(Mutex<(u64, u64)>);

    impl Observer for OrderCheck {
        fn on_commit(&self, ev: Stamped) {
            let mut g = self.0.lock().unwrap();
            let (next_seq, last_ns) = *g;
            let ns = ev.wall_ns.expect("the sink stamps wall time");
            assert_eq!(ev.seq, next_seq);
            assert!(ns >= last_ns, "wall_ns went back at seq {}", ev.seq);
            *g = (next_seq + 1, ns);
        }
    }

    #[test]
    fn stamps_are_kept_only_until_drained() {
        const THREADS: u64 = 4;
        const PER_THREAD: u64 = 25_000;
        let check = Arc::new(OrderCheck::default());
        let sink = EventSink::with_observer(usize::MAX, 16, None, Some(check.clone()));
        std::thread::scope(|s| {
            for i in 0..THREADS {
                let sink = &sink;
                s.spawn(move || {
                    for j in 0..PER_THREAD {
                        let a = Action::Send {
                            from: Loc(i as u8),
                            to: Loc(0),
                            msg: Msg::Token(j),
                        };
                        assert_eq!(sink.try_commit(a), Commit::Accepted);
                        let (stamps, backlog) = sink.stamps_and_backlog();
                        assert!(stamps <= backlog, "{stamps} stamps > backlog {backlog}");
                    }
                });
            }
        });
        sink.flush();
        assert_eq!(sink.stamps_and_backlog(), (0, 0));
        let n = THREADS * PER_THREAD;
        assert_eq!(check.0.lock().unwrap().0, n);
        let (log, _) = sink.into_log();
        assert_eq!(log.len() as u64, n);
    }

    #[test]
    fn wait_len_at_least_wakes_on_crossing_and_on_stop() {
        let sink = EventSink::new(100, 16, None);
        // Already satisfied: returns immediately.
        assert_eq!(sink.try_commit(send01()), Commit::Accepted);
        sink.wait_len_at_least(1);
        // Crossing satisfied by commits from another thread.
        std::thread::scope(|s| {
            s.spawn(|| {
                for _ in 0..5 {
                    std::thread::sleep(std::time::Duration::from_micros(50));
                    assert_eq!(sink.try_commit(send01()), Commit::Accepted);
                }
            });
            sink.wait_len_at_least(4);
            assert!(sink.len() >= 4);
        });
        // A threshold that can never be reached: stop() releases it.
        std::thread::scope(|s| {
            s.spawn(|| {
                std::thread::sleep(std::time::Duration::from_micros(200));
                sink.stop(StopReason::Idle);
            });
            sink.wait_len_at_least(1_000_000);
            assert!(sink.is_stopped());
        });
    }

    #[test]
    fn wait_stopped_wakes_on_stop_and_on_the_budget_commit() {
        // A generous timeout: a wake that is missed shows as a return
        // near it, far from the prompt return a signal gives.
        const LONG: Duration = Duration::from_secs(20);
        let sink = EventSink::new(100, 16, None);
        std::thread::scope(|s| {
            s.spawn(|| {
                std::thread::sleep(Duration::from_millis(2));
                sink.stop(StopReason::Idle);
            });
            let t = Instant::now();
            assert!(sink.wait_stopped(LONG));
            assert!(t.elapsed() < Duration::from_secs(5), "{:?}", t.elapsed());
        });
        // The commit that fills max_events stops the run without
        // calling stop(): it must wake the waiter too.
        let sink = EventSink::new(3, 16, None);
        std::thread::scope(|s| {
            s.spawn(|| {
                for _ in 0..3 {
                    std::thread::sleep(Duration::from_millis(1));
                    assert_eq!(sink.try_commit(send01()), Commit::Accepted);
                }
            });
            let t = Instant::now();
            assert!(sink.wait_stopped(LONG));
            assert!(t.elapsed() < Duration::from_secs(5), "{:?}", t.elapsed());
        });
        assert_eq!(sink.into_log().1, Some(StopReason::MaxEvents));
    }

    #[test]
    fn wait_stopped_times_out_on_a_live_run() {
        let sink = EventSink::new(100, 16, None);
        assert_eq!(sink.try_commit(send01()), Commit::Accepted);
        let t = Instant::now();
        assert!(!sink.wait_stopped(Duration::from_millis(5)));
        assert!(t.elapsed() >= Duration::from_millis(5));
        // Already stopped: returns at once, whatever the timeout.
        sink.stop(StopReason::Idle);
        assert!(sink.wait_stopped(Duration::ZERO));
    }

    #[test]
    fn wait_len_past_the_budget_returns_at_the_last_commit() {
        // A threshold past max_events is never crossed; the commit
        // that fills the budget must release the waiter. The waiter
        // runs on its own thread so a missed wake fails the test at
        // the timeout instead of hanging it.
        let sink = Arc::new(EventSink::new(4, 16, None));
        let (tx, rx) = std::sync::mpsc::channel();
        let waiter = {
            let sink = Arc::clone(&sink);
            std::thread::spawn(move || {
                sink.wait_len_at_least(1_000);
                tx.send(sink.len()).unwrap();
            })
        };
        for _ in 0..4 {
            std::thread::sleep(Duration::from_micros(200));
            assert_eq!(sink.try_commit(send01()), Commit::Accepted);
        }
        let len = rx
            .recv_timeout(Duration::from_secs(20))
            .expect("the budget-filling commit must wake the length waiter");
        assert_eq!(len, 4);
        assert!(sink.is_stopped());
        waiter.join().unwrap();
    }

    #[test]
    fn stop_reason_names() {
        assert_eq!(StopReason::MaxEvents.name(), "max_events");
        assert_eq!(StopReason::Predicate.name(), "predicate");
        assert_eq!(StopReason::Idle.name(), "idle");
        assert_eq!(StopReason::Watchdog.name(), "watchdog");
        assert_eq!(StopReason::Panicked.name(), "panicked");
        assert_eq!(StopReason::WallClock.name(), "wall_clock");
    }

    #[test]
    fn wire_deliveries_to_dead_locations_accepted() {
        use afd_core::Frame;
        let sink = EventSink::new(100, 16, None);
        assert_eq!(sink.try_commit(Action::Crash(Loc(0))), Commit::Accepted);
        // Frames delivered TO the dead location: absorbed, not stuck.
        assert_eq!(
            sink.try_commit(Action::WireRecv {
                from: Loc(1),
                to: Loc(0),
                frame: Frame::Ack { cum: 2 },
            }),
            Commit::Accepted
        );
        // But the dead location's own frames are suppressed.
        assert_eq!(
            sink.try_commit(Action::WireSend {
                from: Loc(0),
                to: Loc(1),
                frame: Frame::Ack { cum: 0 },
            }),
            Commit::Suppressed
        );
    }
}
