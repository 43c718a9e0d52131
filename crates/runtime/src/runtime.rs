//! The executor: a sharded, event-driven worker pool (see
//! [`crate::exec`]) multiplexing the component automata an [`Engine`]
//! hosts, plus what `run_threaded` adds around it — a crash injector
//! and a watchdog monitor. The engine is generic over its hosted set
//! and its [`CommitPort`], so the same activation loop also runs the
//! `afd-net` coordinator and nodes.
//!
//! **Why a pool.** The previous engine spawned one OS thread per
//! component. At n = 16 that is ~270 threads (16 processes + 240
//! all-pairs channels + FD/env) each waking every 500 µs to find an
//! empty queue: `recv-wait` was 98.6% of busy time and throughput
//! collapsed ~100× from n = 8. Now W ≈ `available_parallelism` workers
//! pull ready components from per-shard queues and park on a condvar
//! when the system is quiet — there are no timed polls anywhere in the
//! engine (the crash injector blocks on a sink length-watch, see
//! [`EventSink::wait_len_at_least`]).
//!
//! **Activation model.** Each component owns an inbox (routed inputs)
//! and a body (automaton state plus a seeded jitter generator). An
//! activation drains the inbox (applying `step`), then sweeps local
//! tasks: commit each enabled action through the port (the shared
//! [`EventSink`], directly or at the far end of a socket), apply the
//! local `step`, and route the action to the components that classify
//! it as an input — hosted ones through their inbox, the rest through
//! the port. The commit-then-step-then-route order is
//! what makes the sink's log a legal schedule (see the linearization
//! convention in [`crate::sink`]). The pool guarantees at most one
//! activation per component at a time, so bodies need no contended
//! locking.
//!
//! **Routing index.** `route()` no longer scans all O(n²) components
//! calling `classify` per committed action. Action classification is
//! payload-independent, so the fan-out set of an action is a function
//! of its variant and locations only: a `(kind, loc, loc)` key maps to
//! a cached `Arc<[u32]>` target list, built lazily (one classify scan
//! per distinct key, a handful per run) and hit lock-free-ish through
//! an `RwLock` read for every subsequent commit.
//!
//! **Adversarial links.** A channel whose [`LinkProfile`] is chaotic
//! starts in the channel automaton's seeded ADD state ([`start_state`]):
//! each `Send` it takes draws one [`ChannelChaos`] decision and
//! enqueues zero, one or two stamped deliveries, so drop, duplicate
//! and bounded reorder are steps of the automaton and the channel
//! activates through the same task sweep as everything else. What the
//! engine adds is timing: link delay and jitter before a delivery
//! commits, and scripted [`crate::Partition`]s, which *hold* (never
//! drop) all traffic crossing the cut. A cut channel with pending
//! traffic goes idle without voting for quiescence and registers in a
//! deferred registry keyed by the partition's heal step, so the first
//! commit at or past that step (or the next watchdog tick) re-arms it —
//! healing resumes delivery with no cut-poll loop.
//!
//! **Shutdown.** Quiescence is detected structurally, not by a timing
//! heuristic: the run is idle when the commit count is stable across
//! two watchdog ticks, every live inbox is drained, and every live
//! component is parked. A run that is *not* quiescent but commits
//! nothing within the watchdog deadline is stopped with
//! [`StopReason::Watchdog`] and a [`RunDiagnostic`] instead of hanging.
//! A run stopped by its predicate, its budget, a panic or a halt ends
//! at that event: between samples the watchdog waits on the sink's stop
//! signal ([`EventSink::wait_stopped`]), not on a sleep.
//!
//! **Panic containment.** Activations run under `catch_unwind`. A
//! panicking process component becomes a `Crash` event at its location
//! (observable by observers, like any crash); a panicking
//! channel/env/FD component stops the run with
//! [`StopReason::Panicked`]. Either way the run terminates cleanly
//! with a diagnostic.

use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, RwLock};
use std::thread;
use std::time::Duration;

use afd_core::{Action, Loc};
use afd_system::{
    ChannelChaos, ChannelState, Component, ComponentKind, ComponentState, LinkProfile, RunStats,
    SplitMix64, System,
};
use ioa::{ActionClass, Automaton, TaskId};

use crate::chaos::ChaosReport;
use crate::config::{ConfigError, CrashMode, LinkFaults, RuntimeConfig};
use crate::exec::{Directive, Pool};
use crate::sink::{Commit, EventSink, SinkOptions, StopReason};

/// Where a commit lands: one of the two things — with the hosted set
/// — an [`Engine`] observes from its caller. `run_threaded` commits
/// into its own [`EventSink`]; the distributed coordinator commits
/// into its sink and forwards accepted actions to components a node
/// hosts; a node's commit is a blocking round trip to the coordinator,
/// which does the routing for it.
pub trait CommitPort: Sync {
    /// Linearize `a`, proposed by component `from` (`usize::MAX` for
    /// an injected crash or recovery, which no component proposes).
    fn commit(&self, from: usize, a: Action) -> Commit;
    /// Hand accepted `a` to component `target`, which takes it as an
    /// input and which the engine does not host.
    fn forward(&self, target: usize, a: Action);
    /// Does the engine fan accepted actions out? `false` when the far
    /// side of the port already has.
    fn routes(&self) -> bool {
        true
    }
    /// Committed event count: the clock scripted partitions run on.
    fn events(&self) -> usize;
    /// Has the run stopped?
    fn stopped(&self) -> bool;
    /// Has `l` crashed?
    fn crashed(&self, l: Loc) -> bool;
    /// Stop the run with `reason`.
    fn halt(&self, reason: StopReason);
}

impl CommitPort for EventSink {
    fn commit(&self, _from: usize, a: Action) -> Commit {
        self.try_commit(a)
    }

    /// `run_threaded` hosts everything but the crash automaton, which
    /// takes no inputs.
    fn forward(&self, _target: usize, _a: Action) {}

    fn events(&self) -> usize {
        self.len()
    }

    fn stopped(&self) -> bool {
        self.is_stopped()
    }

    fn crashed(&self, l: Loc) -> bool {
        self.is_crashed(l)
    }

    fn halt(&self, reason: StopReason) {
        self.stop(reason);
    }
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// The composed state of one component (process-or-infrastructure
/// sum type), as stored in its cell.
type CState<P> = <Component<P> as Automaton>::State;

/// Diagnostic dump of a stalled or panicked run: what every component
/// was doing when the watchdog fired.
#[derive(Debug, Clone, Default)]
pub struct RunDiagnostic {
    /// Committed events at the time of the dump.
    pub committed: usize,
    /// Nanoseconds since the last commit.
    pub stalled_ns: u64,
    /// Components with undrained input queues: `(name, queued)`.
    pub backlog: Vec<(String, usize)>,
    /// Live components that were not parked (had or expected work).
    pub busy: Vec<String>,
    /// Locations crashed by that point.
    pub crashed: Vec<Loc>,
    /// Panic messages captured from contained panics.
    pub panics: Vec<String>,
}

impl std::fmt::Display for RunDiagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "run diagnostic: {} events committed, stalled {:.1} ms",
            self.committed,
            self.stalled_ns as f64 / 1e6
        )?;
        for (name, n) in &self.backlog {
            writeln!(f, "  backlog {n:>4}  {name}")?;
        }
        for name in &self.busy {
            writeln!(f, "  busy          {name}")?;
        }
        if !self.crashed.is_empty() {
            writeln!(f, "  crashed: {:?}", self.crashed)?;
        }
        for p in &self.panics {
            writeln!(f, "  panic: {p}")?;
        }
        Ok(())
    }
}

/// Result of a threaded run.
#[derive(Debug)]
pub struct RuntimeOutcome {
    /// The linearized event log (see [`crate::sink`] for the
    /// convention making this a legal schedule).
    pub schedule: Vec<Action>,
    /// Why the run stopped.
    pub stop: StopReason,
    /// Wall-clock duration of the run.
    pub elapsed: Duration,
    /// What the link adversary did, per channel.
    pub chaos: ChaosReport,
    /// Present when the run stalled ([`StopReason::Watchdog`]),
    /// panicked, or contained a process panic.
    pub diagnostic: Option<RunDiagnostic>,
}

impl RuntimeOutcome {
    /// Committed event count.
    #[must_use]
    pub fn events(&self) -> usize {
        self.schedule.len()
    }

    /// Aggregate statistics of the schedule.
    #[must_use]
    pub fn stats(&self) -> RunStats {
        RunStats::of(&self.schedule)
    }

    /// Events satisfying `keep`.
    #[must_use]
    pub fn project<F: Fn(&Action) -> bool>(&self, keep: F) -> Vec<Action> {
        self.schedule.iter().filter(|a| keep(a)).copied().collect()
    }

    /// Commit throughput of the run.
    #[must_use]
    pub fn events_per_sec(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs == 0.0 {
            return 0.0;
        }
        self.schedule.len() as f64 / secs
    }
}

/// Shared per-component instrumentation: inbox depths and parked flags
/// (the quiescence signal), completion flags, and contained-panic
/// notes. With the pool, `parked`/`backlog` are per-*component*
/// properties — a component is parked when its last activation found
/// nothing to do, regardless of which worker ran it.
struct Telemetry {
    /// Routed-but-unapplied inputs per component (exact: stored under
    /// the component's inbox lock by whoever changes the queue).
    backlog: Vec<AtomicUsize>,
    /// Component's last activation found nothing enabled (quiescence
    /// vote).
    parked: Vec<AtomicBool>,
    /// Component is permanently finished (its backlog no longer
    /// counts).
    done: Vec<AtomicBool>,
    /// Contained panic messages.
    panics: Mutex<Vec<String>>,
    /// Live backlog/busy snapshot taken by the monitor at the moment
    /// the watchdog fired (post-run everything is parked, so this
    /// cannot be reconstructed later).
    snapshot: Mutex<Option<RunDiagnostic>>,
}

impl Telemetry {
    fn new(n: usize) -> Self {
        Telemetry {
            backlog: (0..n).map(|_| AtomicUsize::new(0)).collect(),
            parked: (0..n).map(|_| AtomicBool::new(false)).collect(),
            done: (0..n).map(|_| AtomicBool::new(false)).collect(),
            panics: Mutex::new(Vec::new()),
            snapshot: Mutex::new(None),
        }
    }

    fn park(&self, idx: usize) {
        self.parked[idx].store(true, Ordering::SeqCst);
    }

    fn unpark(&self, idx: usize) {
        self.parked[idx].store(false, Ordering::SeqCst);
    }

    fn finish(&self, idx: usize) {
        self.parked[idx].store(true, Ordering::SeqCst);
        self.done[idx].store(true, Ordering::SeqCst);
    }

    /// All live components parked, with every live inbox drained?
    fn quiescent(&self) -> bool {
        for i in 0..self.parked.len() {
            if self.done[i].load(Ordering::SeqCst) {
                continue;
            }
            if !self.parked[i].load(Ordering::SeqCst) || self.backlog[i].load(Ordering::SeqCst) != 0
            {
                return false;
            }
        }
        true
    }

    fn note_panic(&self, msg: String) {
        lock(&self.panics).push(msg);
    }
}

/// Routed inputs pending for one component. `killed` implements the
/// `CrashMode::Kill` drop-queued-inputs rule: routing to a killed
/// inbox silently discards the message (the kill -9 semantics the old
/// engine got from dropping the mpsc receiver).
struct Inbox {
    q: VecDeque<Action>,
    killed: bool,
}

/// The mutable half of a component. The pool guarantees one activation
/// at a time, so this mutex is uncontended — it exists to move the
/// state across worker threads, not to arbitrate.
struct Body<S> {
    state: S,
    rng: SplitMix64,
}

struct Cell<P: Automaton<Action = Action>> {
    inbox: Mutex<Inbox>,
    body: Mutex<Body<CState<P>>>,
}

/// Cut channels waiting for a scripted partition to heal: `(heal
/// step, component)`. Re-armed by the first commit whose resulting
/// length reaches the heal step — with the watchdog tick as a safety
/// net for the register/commit race — instead of polling the cut.
struct Deferred {
    entries: Mutex<Vec<(usize, u32)>>,
    /// Smallest registered heal step (`usize::MAX` when empty): the
    /// lock-free pre-check on the commit path.
    min: AtomicUsize,
}

impl Deferred {
    fn new() -> Self {
        Deferred {
            entries: Mutex::new(Vec::new()),
            min: AtomicUsize::new(usize::MAX),
        }
    }

    /// Register `comp` to be re-armed once the log reaches
    /// `threshold`. `usize::MAX` (an eternal cut) is not registered —
    /// the component stays un-parked, so the watchdog still fires.
    fn register(&self, threshold: usize, comp: usize) {
        if threshold == usize::MAX {
            return;
        }
        let mut g = lock(&self.entries);
        if let Some(e) = g.iter_mut().find(|e| e.1 == comp as u32) {
            e.0 = e.0.min(threshold);
        } else {
            g.push((threshold, comp as u32));
        }
        let cur = self.min.load(Ordering::Relaxed);
        self.min.store(cur.min(threshold), Ordering::Relaxed);
    }

    /// Re-arm every entry whose heal step has been reached.
    fn drain(&self, len: usize, pool: &Pool) {
        if self.min.load(Ordering::Relaxed) > len {
            return;
        }
        let mut g = lock(&self.entries);
        let mut new_min = usize::MAX;
        let mut i = 0;
        while i < g.len() {
            if g[i].0 <= len {
                let (_, c) = g.swap_remove(i);
                pool.enqueue(c as usize);
            } else {
                new_min = new_min.min(g[i].0);
                i += 1;
            }
        }
        self.min.store(new_min, Ordering::Relaxed);
    }
}

/// The first heal step of the partitions cutting `(from, to)` at
/// `step` (`usize::MAX` if the cut never heals), or `None` if no
/// partition cuts it.
fn heal_threshold(cfg: &RuntimeConfig, from: Loc, to: Loc, step: usize) -> Option<usize> {
    cfg.partitions
        .iter()
        .filter(|p| p.cuts(from, to, step))
        .map(|p| p.end)
        .min()
}

/// The start state an [`Engine`] gives `comp` of kind `kind`: a channel
/// whose profile in `links` is chaotic starts in the channel
/// automaton's ADD state, seeded from `(seed, from, to)`; every other
/// component starts in its initial state.
#[must_use]
pub fn start_state<P>(
    comp: &Component<P>,
    kind: ComponentKind,
    links: &LinkFaults,
    seed: u64,
) -> ComponentState<P::State>
where
    P: Automaton<Action = Action>,
{
    match kind {
        ComponentKind::Channel(i, j) if links.profile(i, j).is_chaotic() => {
            let chaos = ChannelChaos::new(seed, i, j, links.profile(i, j));
            ComponentState::Channel(ChannelState::add(chaos))
        }
        _ => comp.initial_state(),
    }
}

/// The routing index: route key → indices of the components that
/// classify such actions as inputs (see [`Action::route_key`]).
type RouteIndex = RwLock<HashMap<u64, Arc<[u32]>>>;

/// The activation loop and everything it needs to run any hosted
/// component: the composition, per-component cells, the pool, the
/// routing index, and the commit port. Borrowed by every worker thread
/// inside the run's scope. This is the only activation loop in the
/// workspace — `run_threaded`, the distributed coordinator and its
/// nodes differ in which components they host and where their commits
/// land ([`CommitPort`]), nothing else.
pub struct Engine<'a, P: Automaton<Action = Action>, C: CommitPort> {
    comps: &'a [Component<P>],
    kinds: &'a [ComponentKind],
    /// `Some` for exactly the hosted components.
    cells: Vec<Option<Cell<P>>>,
    profiles: Vec<LinkProfile>,
    tel: Telemetry,
    port: &'a C,
    cfg: &'a RuntimeConfig,
    pool: Pool,
    router: RouteIndex,
    deferred: Deferred,
}

impl<'a, P, C> Engine<'a, P, C>
where
    P: Automaton<Action = Action>,
    C: CommitPort,
{
    /// An engine hosting the components whose kind `hosts` accepts,
    /// committing through `port`. `cfg` supplies the seed, pacing,
    /// link profiles, partitions and crash mode; the pool gets
    /// `cfg.workers` (default `available_parallelism`) workers,
    /// clamped to the hosted count.
    pub fn new(
        comps: &'a [Component<P>],
        kinds: &'a [ComponentKind],
        hosts: impl Fn(ComponentKind) -> bool,
        port: &'a C,
        cfg: &'a RuntimeConfig,
    ) -> Self {
        let mut cells = Vec::with_capacity(comps.len());
        let mut profiles = Vec::with_capacity(comps.len());
        for (idx, comp) in comps.iter().enumerate() {
            let profile = match kinds[idx] {
                ComponentKind::Channel(i, j) => cfg.links.profile(i, j),
                _ => LinkProfile::default(),
            };
            profiles.push(profile);
            if !hosts(kinds[idx]) {
                cells.push(None);
                continue;
            }
            let seed = cfg.seed ^ (idx as u64).wrapping_mul(0xD6E8_FEB8_6659_FD93);
            cells.push(Some(Cell {
                inbox: Mutex::new(Inbox {
                    q: VecDeque::new(),
                    killed: false,
                }),
                body: Mutex::new(Body {
                    state: start_state(comp, kinds[idx], &cfg.links, cfg.seed),
                    rng: SplitMix64::new(seed),
                }),
            }));
        }
        let hosted = cells.iter().flatten().count();
        let workers = cfg
            .workers
            .unwrap_or_else(|| {
                thread::available_parallelism().map_or(4, std::num::NonZeroUsize::get)
            })
            .min(hosted)
            .max(1);
        Engine {
            comps,
            kinds,
            cells,
            profiles,
            tel: Telemetry::new(comps.len()),
            port,
            cfg,
            pool: Pool::new(workers, comps.len()),
            router: RwLock::new(HashMap::new()),
            deferred: Deferred::new(),
        }
    }

    /// The commit port.
    pub fn port(&self) -> &'a C {
        self.port
    }

    /// Pool size: the caller runs [`Engine::run_worker`] on this many
    /// threads.
    pub fn workers(&self) -> usize {
        self.pool.workers()
    }

    /// Seed the ready queues: every hosted component starts with one
    /// activation (its initial task sweep); the rest are never
    /// scheduled.
    pub fn start(&self) {
        for (idx, cell) in self.cells.iter().enumerate() {
            if cell.is_some() {
                self.pool.enqueue(idx);
            } else {
                self.pool.retire(idx);
            }
        }
    }

    /// Wake every worker and have it return.
    pub fn shutdown(&self) {
        self.pool.shutdown();
    }

    /// Worker `k`'s main loop: run activations until shutdown,
    /// containing panics that escape one.
    pub fn run_worker(&self, k: usize) {
        afd_prof::set_lane(&format!("worker-{k}"));
        let mut drain = VecDeque::new();
        self.pool.run_worker(k, |i| {
            match catch_unwind(AssertUnwindSafe(|| activate(self, i, &mut drain))) {
                Ok(d) => d,
                Err(p) => {
                    drain.clear();
                    contain_panic(self, i, p)
                }
            }
        });
        // Flush this thread's profiling buffer before the scope
        // observes completion: scoped-thread TLS destructors run
        // *after* the scope's completion signal, so a Drop-based flush
        // could race the post-scope report harvest.
        afd_prof::flush_local();
    }

    /// The cached fan-out set of `a` (all components classifying it as
    /// an input). A miss costs one classify scan; every later action
    /// with the same variant and locations hits the cache.
    pub fn targets(&self, a: &Action) -> Arc<[u32]> {
        let key = a.route_key();
        if let Some(t) = self
            .router
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .get(&key)
        {
            return Arc::clone(t);
        }
        let list: Arc<[u32]> = self
            .comps
            .iter()
            .enumerate()
            .filter(|(_, c)| c.classify(a) == Some(ActionClass::Input))
            .map(|(i, _)| i as u32)
            .collect();
        self.router
            .write()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .insert(key, Arc::clone(&list));
        list
    }

    /// Push input `a` into hosted component `idx`'s inbox (keeping the
    /// backlog accounting exact, under the inbox lock), then mark the
    /// component ready. Killed inboxes drop the message on the floor —
    /// exactly the crash-stop semantics `CrashMode::Kill` asks for —
    /// and so do components hosted elsewhere.
    pub fn deliver(&self, idx: usize, a: Action) {
        let Some(cell) = self.cells.get(idx).and_then(Option::as_ref) else {
            return;
        };
        {
            let mut inbox = lock(&cell.inbox);
            if inbox.killed {
                return;
            }
            inbox.q.push_back(a);
            self.tel.backlog[idx].store(inbox.q.len(), Ordering::SeqCst);
        }
        self.pool.enqueue(idx);
    }

    /// Fan committed `a` out to every component (except `from_idx`)
    /// that classifies it as an input: hosted ones through their
    /// inbox, the rest through the port.
    fn route(&self, from_idx: usize, a: Action) {
        if !self.port.routes() {
            return;
        }
        let _s = afd_prof::span(afd_prof::Stage::Route);
        let targets = self.targets(&a);
        for &t in targets.iter() {
            let t = t as usize;
            if t == from_idx {
                continue;
            }
            if self.cells[t].is_some() {
                self.deliver(t, a);
            } else {
                self.port.forward(t, a);
            }
        }
    }

    /// Commit `a` on behalf of `from` (see [`CommitPort::commit`]) and
    /// route it if accepted. The entry point for commits that do not
    /// come out of an activation: injected crashes and recoveries, and
    /// the requests of remote nodes.
    pub fn commit(&self, from: usize, a: Action) -> Commit {
        let status = self.port.commit(from, a);
        if status == Commit::Accepted {
            self.route(from, a);
            self.drain_deferred();
        }
        status
    }

    /// Apply `a` to every hosted component that has it in its
    /// signature, before the workers start: how a rejoining node
    /// rebuilds its state from the committed schedule prefix.
    pub fn replay(&self, a: &Action) {
        for (comp, cell) in self.comps.iter().zip(&self.cells) {
            if let Some(cell) = cell {
                comp.apply(&mut lock(&cell.body).state, a);
            }
        }
    }

    /// What the link adversary did on the hosted channels: the
    /// `stats` of every channel started in the ADD state.
    pub fn chaos_report(&self) -> ChaosReport {
        let mut report = ChaosReport::default();
        for (kind, cell) in self.kinds.iter().zip(&self.cells) {
            if let (ComponentKind::Channel(i, j), Some(cell)) = (kind, cell) {
                if let ComponentState::Channel(s) = &lock(&cell.body).state {
                    if let Some(adv) = s.adversary().filter(|adv| adv.stats.arrivals > 0) {
                        report.per_channel.insert((*i, *j), adv.stats);
                    }
                }
            }
        }
        report
    }

    /// Permanently remove `idx` from the run: future routes to it are
    /// dropped, its backlog no longer counts against quiescence.
    fn kill_component(&self, idx: usize) {
        if let Some(cell) = &self.cells[idx] {
            let mut inbox = lock(&cell.inbox);
            inbox.killed = true;
            inbox.q.clear();
        }
        self.tel.backlog[idx].store(0, Ordering::SeqCst);
        self.tel.finish(idx);
    }

    /// Re-arm any cut channel whose heal step the log has reached.
    /// Cheap (one relaxed load) when nothing is registered. Accepted
    /// commits call this themselves; a watchdog tick is the safety net
    /// for a heal crossed concurrently with its registration.
    pub fn drain_deferred(&self) {
        self.deferred.drain(self.port.events(), &self.pool);
    }
}

/// One activation of component `idx`: drain the inbox, then sweep
/// local tasks. Returns the scheduling
/// directive for the pool. `drain` is the worker's reusable inbox swap
/// target.
fn activate<P, C>(eng: &Engine<'_, P, C>, idx: usize, drain: &mut VecDeque<Action>) -> Directive
where
    P: Automaton<Action = Action>,
    C: CommitPort,
{
    let port = eng.port;
    let cfg = eng.cfg;
    if port.stopped() {
        eng.pool.shutdown();
        return Directive::Done;
    }
    let kind = eng.kinds[idx];
    if cfg.crash_mode == CrashMode::Kill {
        if let ComponentKind::Process(l) = kind {
            if port.crashed(l) {
                // kill -9: retire the component, dropping queued inputs.
                eng.kill_component(idx);
                return Directive::Done;
            }
        }
    }
    let comp = &eng.comps[idx];
    // Only hosted components are ever enqueued.
    let Some(cell) = eng.cells[idx].as_ref() else {
        return Directive::Done;
    };
    // One tiled `step` span covers the whole activation — body/inbox
    // locks, input drain, enabled scans — handed off (never nested)
    // around the pacing/commit/route regions, which carry their own
    // stages. Tiling instead of point spans is what lets Table W's
    // coverage gate account for the activation loop's bookkeeping.
    let mut tile = afd_prof::span(afd_prof::Stage::Step);
    let mut body = lock(&cell.body);
    eng.tel.unpark(idx);
    {
        let mut inbox = lock(&cell.inbox);
        std::mem::swap(&mut inbox.q, drain);
        eng.tel.backlog[idx].store(0, Ordering::SeqCst);
    }
    let Body { state, rng } = &mut *body;
    // Apply routed inputs (inputs are always enabled; a refused step
    // would be a signature bug, tolerated as a no-op).
    for a in drain.drain(..) {
        comp.apply(state, &a);
    }
    // Sweep local tasks.
    let profile = eng.profiles[idx];
    let mut progressed = false;
    for t in 0..comp.task_count() {
        if port.stopped() {
            eng.pool.shutdown();
            return Directive::Done;
        }
        let Some(a) = comp.enabled(state, TaskId(t)) else {
            continue;
        };
        // Pacing and partitions happen before the commit, so the
        // linearization point itself stays instantaneous.
        match kind {
            ComponentKind::Fd if !cfg.fd_pacing.is_zero() => {
                tile = tile.handoff(afd_prof::Stage::Pacing);
                thread::sleep(cfg.fd_pacing);
                tile = tile.handoff(afd_prof::Stage::Step);
            }
            ComponentKind::Channel(from, to) => {
                let cut = (!cfg.partitions.is_empty())
                    .then(|| heal_threshold(cfg, from, to, port.events()))
                    .flatten();
                if let Some(heal) = cut {
                    // Hold everything so healing resumes where it left
                    // off. Not parked — a cut channel with pending
                    // traffic is not quiescent — but re-armed by the
                    // deferred registry at the heal step (an eternal
                    // cut registers nothing; the watchdog fires).
                    eng.deferred.register(heal, idx);
                    return Directive::Idle;
                }
                if !profile.is_zero() {
                    tile = tile.handoff(afd_prof::Stage::Pacing);
                    let jitter_ns =
                        rng.below(u64::try_from(profile.jitter.as_nanos()).unwrap_or(u64::MAX));
                    thread::sleep(profile.delay + Duration::from_nanos(jitter_ns));
                    tile = tile.handoff(afd_prof::Stage::Step);
                }
            }
            // Throttle stubborn retransmission (WireSend) so it cannot
            // flood the event budget.
            ComponentKind::Process(_)
                if matches!(a, Action::WireSend { .. }) && !cfg.wire_pacing.is_zero() =>
            {
                tile = tile.handoff(afd_prof::Stage::Retransmit);
                thread::sleep(cfg.wire_pacing);
                tile = tile.handoff(afd_prof::Stage::Step);
            }
            _ => {}
        }
        // The commit and route regions carry their own stages
        // (commit-wait/lock-hold inside the sink, the wire stages of a
        // remote port, route below); the tile pauses so spans never
        // nest.
        tile.done();
        let status = port.commit(idx, a);
        tile = afd_prof::span(afd_prof::Stage::Step);
        match status {
            Commit::Accepted => {
                comp.apply(state, &a);
                tile.done();
                eng.route(idx, a);
                tile = afd_prof::span(afd_prof::Stage::Step);
                progressed = true;
            }
            // Our location is dead but the Crash input hasn't reached
            // us yet, so the rest of this sweep would propose from a
            // state known to be stale (an FD naming the dead leader):
            // end it — the routed Crash re-enqueues this component and
            // its step disables the task.
            Commit::Suppressed => break,
            Commit::Stopped => {
                eng.pool.shutdown();
                return Directive::Done;
            }
        }
    }
    if progressed {
        eng.drain_deferred();
        Directive::Again
    } else {
        // Nothing enabled and nothing arrived: this component votes
        // for quiescence until an input re-enqueues it.
        eng.tel.park(idx);
        Directive::Idle
    }
}

/// Contain a panic that escaped an activation of `idx`: the component
/// is retired; a process panic becomes a `Crash` at its location, any
/// other panic stops the run.
fn contain_panic<P, C>(
    eng: &Engine<'_, P, C>,
    idx: usize,
    payload: Box<dyn std::any::Any + Send>,
) -> Directive
where
    P: Automaton<Action = Action>,
    C: CommitPort,
{
    let msg = panic_message(payload);
    eng.tel
        .note_panic(format!("{}: {}", eng.comps[idx].name(), msg));
    eng.kill_component(idx);
    if let ComponentKind::Process(l) = eng.kinds[idx] {
        // Contain the panic as a crash at this location: the rest of
        // the run proceeds under ordinary crash semantics, and the
        // crash is observable like any other.
        if !eng.port.crashed(l) {
            eng.commit(idx, Action::Crash(l));
        }
    } else {
        eng.port.halt(StopReason::Panicked);
        eng.pool.shutdown();
    }
    Directive::Done
}

/// The crash injector: owns the crash-automaton component, fires the
/// fault pattern's `(step, loc)` entries when the global event count
/// reaches each threshold, validating the adversary's script order
/// (entries the script rejects are dropped, mirroring the simulator).
/// Blocks on the sink's length watch between thresholds — no polling.
fn injector<P>(eng: &Engine<'_, P, EventSink>, crash_idx: usize)
where
    P: Automaton<Action = Action>,
{
    let comp = &eng.comps[crash_idx];
    let sink = eng.port;
    afd_prof::set_lane("injector");
    let mut state = comp.initial_state();
    let mut pending: VecDeque<(usize, Loc)> = eng.cfg.faults.crashes.iter().copied().collect();
    while let Some(&(when, loc)) = pending.front() {
        if sink.is_stopped() {
            return;
        }
        if sink.len() < when {
            // Waiting on a threshold is not pending work: if the rest
            // of the system quiesces first, the remaining entries are
            // unreachable and must not block the Idle verdict. The
            // watch wakes on the crossing or on any stop.
            eng.tel.park(crash_idx);
            let w = afd_prof::span(afd_prof::Stage::RecvWait);
            sink.wait_len_at_least(when);
            w.done();
            continue;
        }
        eng.tel.unpark(crash_idx);
        pending.pop_front();
        let a = Action::Crash(loc);
        let Some(next) = comp.step(&state, &a) else {
            continue; // script mismatch: drop, like `run_sim`
        };
        match eng.commit(crash_idx, a) {
            Commit::Accepted => state = next,
            Commit::Suppressed => unreachable!("crash events are never suppressed"),
            Commit::Stopped => return,
        }
    }
}

/// The watchdog monitor: declares quiescence (commit count stable
/// across two ticks, all inboxes drained, all components parked),
/// stops stalls at the deadline with a diagnostic, enforces the
/// wall-clock safety net, and backstops deferred partition heals.
///
/// It waits on the sink's stop between samples, so a stop by
/// predicate, `max_events`, panic or halt shuts the pool down as soon
/// as it lands. `watchdog_tick` is only the sampling period of the
/// idle, stall, wall-clock and deferred-heal checks; it puts no floor
/// under a run. Always shuts the pool down on the way out.
fn monitor<P>(eng: &Engine<'_, P, EventSink>)
where
    P: Automaton<Action = Action>,
{
    let sink = eng.port;
    let cfg = eng.cfg;
    let deadline_ns = u64::try_from(cfg.watchdog_deadline.as_nanos()).unwrap_or(u64::MAX);
    let mut prev_len = usize::MAX;
    let mut stable_ticks = 0u32;
    while !sink.wait_stopped(cfg.watchdog_tick) {
        if sink.elapsed() >= cfg.wall_timeout {
            sink.stop(StopReason::WallClock);
            break;
        }
        let len = sink.len();
        // Safety net for the register/commit race on deferred heals:
        // a heal crossed concurrently with registration is re-armed
        // here, at most one tick late.
        eng.drain_deferred();
        if len == prev_len {
            stable_ticks += 1;
        } else {
            stable_ticks = 0;
            prev_len = len;
        }
        if stable_ticks >= 2 && eng.tel.quiescent() {
            sink.stop(StopReason::Idle);
            break;
        }
        let stalled_ns = sink.ns_since_last_commit();
        if stalled_ns >= deadline_ns {
            // Snapshot who was busy/backlogged NOW — once the stop
            // propagates, everything parks and the evidence is gone.
            *lock(&eng.tel.snapshot) = Some(live_snapshot(eng.comps, &eng.tel, len, stalled_ns));
            sink.stop(StopReason::Watchdog);
            break;
        }
    }
    eng.pool.shutdown();
}

fn panic_message(p: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Capture who is backlogged and who is busy right now. Crash and
/// panic context is filled in by the caller once the schedule exists.
fn live_snapshot<P>(
    comps: &[Component<P>],
    tel: &Telemetry,
    committed: usize,
    stalled_ns: u64,
) -> RunDiagnostic
where
    P: Automaton<Action = Action>,
{
    let mut d = RunDiagnostic {
        committed,
        stalled_ns,
        ..RunDiagnostic::default()
    };
    for (i, c) in comps.iter().enumerate() {
        let queued = tel.backlog[i].load(Ordering::SeqCst);
        let done = tel.done[i].load(Ordering::SeqCst);
        if queued > 0 && !done {
            d.backlog.push((c.name(), queued));
        }
        if !done && !tel.parked[i].load(Ordering::SeqCst) {
            d.busy.push(c.name());
        }
    }
    d
}

/// Execute `sys` on the sharded worker pool under `cfg`, validating
/// the configuration first.
///
/// W workers (see [`RuntimeConfig::with_workers`]; default
/// `available_parallelism`, clamped to the component count) multiplex
/// every component; the crash automaton is driven by a dedicated
/// injector thread and the watchdog by a monitor thread. Returns once
/// every thread has joined; the returned schedule is the sink's
/// linearized log. The verdict of a run never depends on the pool
/// size — it only selects which legal interleaving is explored.
///
/// # Errors
/// [`ConfigError`] if `cfg` is inconsistent with `sys.pi` — no thread
/// is spawned in that case.
pub fn try_run_threaded<P>(
    sys: &System<P>,
    cfg: &RuntimeConfig,
) -> Result<RuntimeOutcome, ConfigError>
where
    P: Automaton<Action = Action> + Sync,
    P::State: Send,
{
    cfg.validate(sys.pi)?;
    let comps = sys.composition.components();
    let kinds = sys.component_kinds();

    let sink = EventSink::with_options(SinkOptions {
        max_events: cfg.max_events,
        stop_check_interval: cfg.stop_check_interval,
        stop_when: cfg.stop_when.clone(),
        // The factory mints a fresh stateful predicate for this run.
        stop_stream: cfg.stop_when_stream.as_ref().map(|mint| mint()),
        observer: cfg.observer.clone(),
    });
    // The crash automaton is owned by the injector and never
    // scheduled on the pool.
    let eng = Engine::new(
        comps,
        &kinds,
        |k| !matches!(k, ComponentKind::Crash),
        &sink,
        cfg,
    );
    let crash_idx = kinds.iter().position(|k| matches!(k, ComponentKind::Crash));
    eng.start();

    thread::scope(|s| {
        for k in 0..eng.workers() {
            let eng = &eng;
            s.spawn(move || eng.run_worker(k));
        }
        if let Some(crash_idx) = crash_idx {
            let eng = &eng;
            s.spawn(move || {
                let res = catch_unwind(AssertUnwindSafe(|| injector(eng, crash_idx)));
                afd_prof::flush_local();
                eng.tel.finish(crash_idx);
                if let Err(p) = res {
                    eng.tel
                        .note_panic(format!("injector: {}", panic_message(p)));
                    eng.port.stop(StopReason::Panicked);
                    eng.pool.shutdown();
                }
            });
        }
        {
            let eng = &eng;
            s.spawn(move || monitor(eng));
        }
    });

    let elapsed = sink.elapsed();
    let stalled_ns = sink.ns_since_last_commit();
    let chaos = eng.chaos_report();
    let tel = eng.tel;
    let (schedule, stop) = sink.into_log();
    let stop = stop.unwrap_or(StopReason::Idle);
    if let Some(obs) = &cfg.observer {
        obs.on_stop(schedule.len() as u64, stop.name());
    }
    let panics = lock(&tel.panics).clone();
    let mut diagnostic = lock(&tel.snapshot).take();
    if diagnostic.is_none() && (stop == StopReason::Panicked || !panics.is_empty()) {
        diagnostic = Some(live_snapshot(comps, &tel, schedule.len(), stalled_ns));
    }
    if let Some(d) = diagnostic.as_mut() {
        d.crashed = schedule
            .iter()
            .filter_map(|a| match a {
                Action::Crash(l) => Some(*l),
                _ => None,
            })
            .collect();
        d.panics = panics;
    }
    Ok(RuntimeOutcome {
        schedule,
        stop,
        elapsed,
        chaos,
        diagnostic,
    })
}

/// [`try_run_threaded`], panicking on a malformed configuration.
///
/// # Panics
/// Panics with the [`ConfigError`] if `cfg` fails validation.
#[must_use]
pub fn run_threaded<P>(sys: &System<P>, cfg: &RuntimeConfig) -> RuntimeOutcome
where
    P: Automaton<Action = Action> + Sync,
    P::State: Send,
{
    match try_run_threaded(sys, cfg) {
        Ok(out) => out,
        Err(e) => panic!("invalid RuntimeConfig: {e}"),
    }
}
