//! The [`Observer`] trait — the hook both execution engines call at
//! every commit — and the basic observers: [`NullObserver`] (the
//! zero-cost default), [`TraceRecorder`] (collects the stamped
//! schedule for export), and [`Fanout`] (broadcasts to several
//! observers).
//!
//! # Contract
//!
//! Engines call [`dispatch`] exactly once per committed action, in
//! schedule order, with strictly increasing `seq`. `dispatch` first
//! fires the generic [`Observer::on_commit`], then the kind-specific
//! callback (crash / deliver / FD output / decision) if one applies.
//! When the run ends the engine fires [`Observer::on_stop`] once.
//!
//! Observers use interior mutability (`&self` receivers) and must be
//! `Send + Sync`: the threaded runtime dispatches from whichever
//! worker currently drives the sink's in-order drain — commits are
//! replayed to the observer *off* the commit lock, but still one at a
//! time (the drain is single-holder), in schedule order, with strictly
//! increasing `seq`. Dispatch may therefore lag the commit itself by a
//! few events mid-run; by the time the engine returns its schedule,
//! every commit has been dispatched. Callbacks should still be short —
//! a slow observer stalls the drain, not the committers, but heavy
//! analysis belongs in a post-hoc pass over a [`TraceRecorder`]
//! snapshot.

use std::sync::Mutex;

use afd_core::{Action, FdOutput, Loc, Stamped, Val};

/// A sink for execution events, called once per commit in schedule
/// order (see the module docs for when).
///
/// All methods default to no-ops so implementors override only what
/// they need.
pub trait Observer: Send + Sync {
    /// Called for every committed action, in schedule order.
    fn on_commit(&self, _ev: Stamped) {}

    /// Called when a crash commits (after `on_commit`).
    fn on_crash(&self, _ev: Stamped, _loc: Loc) {}

    /// Called when a channel delivery (`Receive`) commits.
    fn on_deliver(&self, _ev: Stamped, _from: Loc, _to: Loc) {}

    /// Called when a failure-detector output (renamed or not) commits.
    fn on_fd_output(&self, _ev: Stamped, _at: Loc, _out: FdOutput) {}

    /// Called when a decide-style output (`decide` / `decide_k`)
    /// commits.
    fn on_decision(&self, _ev: Stamped, _at: Loc, _v: Val) {}

    /// Called once when the run stops, with the total committed event
    /// count and a short machine-readable stop reason.
    fn on_stop(&self, _events: u64, _reason: &'static str) {}
}

/// Fire `on_commit` plus the applicable kind-specific callback for one
/// committed action. Execution engines call this; observers never need
/// to.
pub fn dispatch(obs: &dyn Observer, ev: Stamped) {
    obs.on_commit(ev);
    match ev.action {
        Action::Crash(l) => obs.on_crash(ev, l),
        Action::Receive { from, to, .. } => obs.on_deliver(ev, from, to),
        Action::Fd { at, out } | Action::FdRenamed { at, out } => obs.on_fd_output(ev, at, out),
        Action::Decide { at, v } | Action::DecideK { at, v } => obs.on_decision(ev, at, v),
        _ => {}
    }
}

/// The do-nothing observer. Engines treat "no observer configured" as
/// this; it exists so call sites can hold a `&dyn Observer`
/// unconditionally.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullObserver;

impl Observer for NullObserver {}

/// Records every committed action with its timestamps — the in-memory
/// trace the JSONL and chrome-trace exporters consume.
#[derive(Debug, Default)]
pub struct TraceRecorder {
    events: Mutex<Vec<Stamped>>,
}

impl TraceRecorder {
    /// An empty recorder.
    #[must_use]
    pub fn new() -> Self {
        TraceRecorder::default()
    }

    /// Number of recorded events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.lock().expect("recorder poisoned").len()
    }

    /// True iff nothing has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A copy of the recorded trace, in commit order.
    #[must_use]
    pub fn snapshot(&self) -> Vec<Stamped> {
        self.events.lock().expect("recorder poisoned").clone()
    }
}

impl Observer for TraceRecorder {
    fn on_commit(&self, ev: Stamped) {
        self.events.lock().expect("recorder poisoned").push(ev);
    }
}

/// Broadcasts every callback to each inner observer, in order.
pub struct Fanout {
    inner: Vec<std::sync::Arc<dyn Observer>>,
}

impl Fanout {
    /// A fanout over `observers`.
    #[must_use]
    pub fn new(observers: Vec<std::sync::Arc<dyn Observer>>) -> Self {
        Fanout { inner: observers }
    }
}

impl Observer for Fanout {
    fn on_commit(&self, ev: Stamped) {
        for o in &self.inner {
            o.on_commit(ev);
        }
    }
    fn on_crash(&self, ev: Stamped, loc: Loc) {
        for o in &self.inner {
            o.on_crash(ev, loc);
        }
    }
    fn on_deliver(&self, ev: Stamped, from: Loc, to: Loc) {
        for o in &self.inner {
            o.on_deliver(ev, from, to);
        }
    }
    fn on_fd_output(&self, ev: Stamped, at: Loc, out: FdOutput) {
        for o in &self.inner {
            o.on_fd_output(ev, at, out);
        }
    }
    fn on_decision(&self, ev: Stamped, at: Loc, v: Val) {
        for o in &self.inner {
            o.on_decision(ev, at, v);
        }
    }
    fn on_stop(&self, events: u64, reason: &'static str) {
        for o in &self.inner {
            o.on_stop(events, reason);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    #[derive(Default)]
    struct CountingObserver {
        commits: AtomicU64,
        crashes: AtomicU64,
        delivers: AtomicU64,
        fd: AtomicU64,
        decisions: AtomicU64,
        stops: AtomicU64,
    }

    impl Observer for CountingObserver {
        fn on_commit(&self, _ev: Stamped) {
            self.commits.fetch_add(1, Ordering::Relaxed);
        }
        fn on_crash(&self, _ev: Stamped, _l: Loc) {
            self.crashes.fetch_add(1, Ordering::Relaxed);
        }
        fn on_deliver(&self, _ev: Stamped, _f: Loc, _t: Loc) {
            self.delivers.fetch_add(1, Ordering::Relaxed);
        }
        fn on_fd_output(&self, _ev: Stamped, _a: Loc, _o: FdOutput) {
            self.fd.fetch_add(1, Ordering::Relaxed);
        }
        fn on_decision(&self, _ev: Stamped, _a: Loc, _v: Val) {
            self.decisions.fetch_add(1, Ordering::Relaxed);
        }
        fn on_stop(&self, _n: u64, _r: &'static str) {
            self.stops.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn sample() -> Vec<Action> {
        use afd_core::Msg;
        vec![
            Action::Crash(Loc(2)),
            Action::Receive {
                from: Loc(0),
                to: Loc(1),
                msg: Msg::Token(1),
            },
            Action::Fd {
                at: Loc(0),
                out: FdOutput::Leader(Loc(0)),
            },
            Action::FdRenamed {
                at: Loc(0),
                out: FdOutput::Leader(Loc(0)),
            },
            Action::Decide { at: Loc(0), v: 1 },
            Action::Send {
                from: Loc(0),
                to: Loc(1),
                msg: Msg::Token(2),
            },
        ]
    }

    #[test]
    fn dispatch_routes_kind_callbacks() {
        let obs = CountingObserver::default();
        for (k, a) in sample().into_iter().enumerate() {
            dispatch(&obs, Stamped::logical(k as u64, a));
        }
        obs.on_stop(6, "test");
        assert_eq!(obs.commits.load(Ordering::Relaxed), 6);
        assert_eq!(obs.crashes.load(Ordering::Relaxed), 1);
        assert_eq!(obs.delivers.load(Ordering::Relaxed), 1);
        assert_eq!(obs.fd.load(Ordering::Relaxed), 2, "renamed counts too");
        assert_eq!(obs.decisions.load(Ordering::Relaxed), 1);
        assert_eq!(obs.stops.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn recorder_keeps_commit_order() {
        let rec = TraceRecorder::new();
        assert!(rec.is_empty());
        for (k, a) in sample().into_iter().enumerate() {
            dispatch(&rec, Stamped::logical(k as u64, a));
        }
        let t = rec.snapshot();
        assert_eq!(t.len(), 6);
        assert!(t.windows(2).all(|w| w[0].seq < w[1].seq));
        assert_eq!(t[0].action, Action::Crash(Loc(2)));
    }

    #[test]
    fn fanout_reaches_every_observer() {
        let a = Arc::new(CountingObserver::default());
        let b = Arc::new(TraceRecorder::new());
        let fan = Fanout::new(vec![a.clone(), b.clone()]);
        dispatch(&fan, Stamped::logical(0, Action::Crash(Loc(0))));
        fan.on_stop(1, "test");
        assert_eq!(a.commits.load(Ordering::Relaxed), 1);
        assert_eq!(a.crashes.load(Ordering::Relaxed), 1);
        assert_eq!(a.stops.load(Ordering::Relaxed), 1);
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn null_observer_is_callable() {
        let n = NullObserver;
        dispatch(&n, Stamped::logical(0, Action::Crash(Loc(0))));
        n.on_stop(1, "test");
    }
}
