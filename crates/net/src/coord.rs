//! The coordinator: owns a distributed run end to end.
//!
//! `run_distributed` spawns N node processes, assigns each a subset of
//! Π, and then plays the role every non-process component needs a home
//! for: the failure-detector, environment and (under TCP) channel
//! automata run on the coordinator's own [`afd_runtime::Engine`] — the
//! threaded runtime's activation loop and pool, chaos included — the
//! crash injector fires the fault script (committing `Crash` for Halt
//! faults, delivering a real `SIGKILL` for Kill faults), and the
//! watchdog monitor bounds stalls and wall time.
//!
//! The linearization point is a single [`EventSink`]: node `CommitReq`
//! frames, the engine's own activations and injected crashes all
//! commit through the engine's port (`Fabric`), which commits into
//! the sink; on acceptance the engine routes the action to every
//! component that takes it as input — through its inbox if the
//! coordinator hosts it, as a `Deliver` frame to the hosting node
//! otherwise. The sink drives the online streaming checkers through
//! its observer hook, so conformance and consensus are checked *while*
//! the run executes, not after.
//!
//! Crash containment: a node socket dying unexpectedly (EOF, write
//! error) is treated exactly like a Kill fault — every location the
//! node hosted is crashed in the schedule — so a wedged or murdered
//! node can never hang the run; at worst the watchdog ends it.

use std::io::Read as _;
use std::net::{TcpListener, TcpStream};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use afd_core::{Action, FdOutput, Loc, LocSet, Pi, Stamped};
use afd_dgram::DgramStats;
use afd_obs::Observer;
use afd_runtime::{
    chaos_plan_jsonl, ChaosReport, Commit, CommitPort, Engine, EventSink, LinkFaults, Partition,
    RuntimeConfig, SinkOptions, StopReason,
};
use afd_system::ComponentKind;
use ioa::Automaton;

use crate::codec::{read_frame, write_frame, CommitStatus, WireLinkProfile, WireMsg};
use crate::deploy::{
    online_checks, post_checks, visit_system, DeploymentSpec, DynCheck, SystemVisitor,
};
use crate::NetError;

/// Watchdog sampling period.
const MONITOR_TICK: Duration = Duration::from_millis(5);
/// Per-read socket timeout on node connections, so reader threads can
/// poll the stop flag instead of blocking forever.
const READ_TICK: Duration = Duration::from_millis(100);
/// How long shutdown waits for a node child to exit gracefully before
/// killing it.
const GRACE: Duration = Duration::from_millis(1500);

/// How a scripted fault takes a location down.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetCrashMode {
    /// Commit `Crash(loc)` and route it: the hosting node's automaton
    /// silences itself, the process stays alive. The paper's model.
    Halt,
    /// `SIGKILL` the node process hosting the location, then crash
    /// every location it hosted. Nothing on the node cooperates.
    Kill,
}

/// One scripted fault: when the global event count reaches
/// `at_event`, take `loc` down via `mode`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetFault {
    /// Global event index threshold.
    pub at_event: usize,
    /// The location to crash.
    pub loc: Loc,
    /// Halt (protocol crash) or Kill (process crash).
    pub mode: NetCrashMode,
}

impl NetFault {
    /// A Halt fault at `at_event`.
    #[must_use]
    pub fn halt(at_event: usize, loc: Loc) -> Self {
        NetFault {
            at_event,
            loc,
            mode: NetCrashMode::Halt,
        }
    }

    /// A Kill (SIGKILL) fault at `at_event`.
    #[must_use]
    pub fn kill(at_event: usize, loc: Loc) -> Self {
        NetFault {
            at_event,
            loc,
            mode: NetCrashMode::Kill,
        }
    }
}

/// SplitMix64: the respawn-jitter generator. A pure function of its
/// seed, so the respawn schedule is deterministic per `(seed, node,
/// attempt)` and byte-identical across same-seed runs.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Crash-recovery policy: when set on [`NetConfig`], a node process
/// that dies (Kill fault or containment) is respawned after a bounded
/// exponentially backed-off delay and rejoined into the run with a
/// fresh incarnation epoch. When `None` (the default) the runtime
/// keeps its crash-stop semantics byte for byte.
#[derive(Debug, Clone)]
pub struct RecoveryPolicy {
    /// Base delay before the first respawn attempt.
    pub respawn_delay: Duration,
    /// Cap on the backed-off (and jittered) respawn delay.
    pub max_delay: Duration,
    /// Maximum respawns per node; once exhausted the node degrades to
    /// permanent-crash semantics.
    pub max_respawns: u32,
    /// Deadline from respawn to rejoin-attached; a breach abandons the
    /// incarnation (recorded in the report, surfaced by experiments).
    pub rejoin_budget: Duration,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        RecoveryPolicy {
            respawn_delay: Duration::from_millis(50),
            max_delay: Duration::from_secs(1),
            max_respawns: 2,
            rejoin_budget: Duration::from_secs(10),
        }
    }
}

impl RecoveryPolicy {
    /// The deterministic respawn delay for `attempt` (0-based) of
    /// `node` under `seed`: exponential backoff doubling from
    /// [`RecoveryPolicy::respawn_delay`], plus up to +25% seeded
    /// jitter, capped at [`RecoveryPolicy::max_delay`].
    #[must_use]
    pub fn delay_for(&self, seed: u64, node: u32, attempt: u32) -> Duration {
        let base = self
            .respawn_delay
            .saturating_mul(1u32 << attempt.min(10))
            .min(self.max_delay);
        let r = splitmix64(seed ^ (u64::from(node) << 32) ^ u64::from(attempt));
        let quarter = u64::try_from(base.as_nanos()).unwrap_or(u64::MAX) / 4;
        let jitter = Duration::from_nanos(quarter.saturating_mul(r % 1024) / 1024);
        base.saturating_add(jitter).min(self.max_delay)
    }
}

/// Which transport carries the node ↔ node data channels.
///
/// The control plane — commits, routing, crash injection, telemetry,
/// stop — always rides the coordinator's TCP sockets; this selects
/// where the *channel* components live and how `Send`s travel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Transport {
    /// Channels run on the coordinator's engine and every message
    /// multiplexes over the TCP control plane. The default.
    #[default]
    Tcp,
    /// Channels are hosted by the node hosting their destination and
    /// `Send`s travel as real UDP datagrams (`afd-dgram` framing),
    /// shaped by the sender's seeded ADD-channel shaper
    /// ([`afd_dgram::AddShaper`]) so the configured [`LinkFaults`]
    /// drop/dup/reorder plan replays on top of whatever the real
    /// socket does. `delay`/`jitter` are ignored — real network
    /// latency replaces the synthetic clock. Both plain (`Send`) and
    /// stubborn wire (`WireSend`) channels ride the datagram plane, so
    /// `ReliablePaxos` retransmits over genuinely lossy sockets.
    /// Scripted partitions and crash recovery need the router data
    /// plane and are rejected at config validation.
    Udp,
}

/// Configuration of a distributed run.
#[derive(Clone)]
pub struct NetConfig {
    /// The node executable and its leading arguments. The coordinator
    /// appends nothing; assignment travels via [`crate::node::ADDR_ENV`]
    /// and [`crate::node::NODE_ID_ENV`].
    pub node_command: Vec<String>,
    /// How many node processes to spawn. Locations are assigned
    /// round-robin: location `i` lives on node `i % nodes`.
    pub nodes: u32,
    /// Hard cap on committed events.
    pub max_events: usize,
    /// Seed for the chaos decision stream (shared with
    /// [`afd_runtime::chaos_plan_jsonl`]).
    pub seed: u64,
    /// Scripted crashes.
    pub faults: Vec<NetFault>,
    /// Per-channel link profiles. Drop/dup/reorder replay the seeded
    /// chaos plan on either transport. `delay`/`jitter` are honoured
    /// by [`Transport::Tcp`] exactly as by the threaded engine (the
    /// channel's activation sleeps before each delivery commits) and
    /// ignored by [`Transport::Udp`], where real socket latency takes
    /// their place.
    pub links: LinkFaults,
    /// Scripted network partitions over the event clock.
    pub partitions: Vec<Partition>,
    /// Minimum spacing between failure-detector output commits.
    pub fd_pacing: Duration,
    /// Minimum spacing between `WireSend` commits on the nodes.
    pub wire_pacing: Duration,
    /// Stall deadline: nothing committed for this long stops the run
    /// with [`StopReason::Watchdog`].
    pub stall_deadline: Duration,
    /// Wall-clock safety net.
    pub wall_timeout: Duration,
    /// How long to wait for every node to connect and say Hello.
    pub handshake_timeout: Duration,
    /// Arrivals per channel exported in the up-front chaos plan.
    pub plan_arrivals: usize,
    /// Profile the run with `afd-prof`: the coordinator enables its own
    /// profiler, sets [`crate::node::PROF_ENV`] on every spawned node,
    /// collects the nodes' Telemetry streams, and attaches the merged
    /// multi-process timeline to the report.
    pub profiling: bool,
    /// Crash-recovery policy. `None` (default) preserves crash-stop
    /// semantics exactly; `Some` respawns killed nodes and rejoins
    /// them with fresh incarnation epochs.
    pub recovery: Option<RecoveryPolicy>,
    /// Data-channel transport. [`Transport::Tcp`] (default) keeps the
    /// router data plane; [`Transport::Udp`] moves channels onto real
    /// datagram sockets.
    pub transport: Transport,
}

impl NetConfig {
    /// A config for `nodes` node processes running `node_command`,
    /// with defaults sized for loopback test runs.
    #[must_use]
    pub fn new(node_command: Vec<String>, nodes: u32) -> Self {
        NetConfig {
            node_command,
            nodes,
            max_events: 4_000,
            seed: 0xAFD_5EED,
            faults: Vec::new(),
            links: LinkFaults::none(),
            partitions: Vec::new(),
            fd_pacing: Duration::from_micros(200),
            wire_pacing: Duration::from_micros(200),
            stall_deadline: Duration::from_secs(5),
            wall_timeout: Duration::from_secs(60),
            handshake_timeout: Duration::from_secs(20),
            plan_arrivals: 32,
            profiling: false,
            recovery: None,
            transport: Transport::Tcp,
        }
    }

    /// Select the data-channel transport.
    #[must_use]
    pub fn with_transport(mut self, t: Transport) -> Self {
        self.transport = t;
        self
    }

    /// Enable crash recovery with `policy`.
    #[must_use]
    pub fn with_recovery(mut self, policy: RecoveryPolicy) -> Self {
        self.recovery = Some(policy);
        self
    }

    /// Enable or disable cross-process profiling for the run.
    #[must_use]
    pub fn with_profiling(mut self, on: bool) -> Self {
        self.profiling = on;
        self
    }

    /// Set the event budget.
    #[must_use]
    pub fn with_max_events(mut self, n: usize) -> Self {
        self.max_events = n;
        self
    }

    /// Set the chaos seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Append a scripted fault.
    #[must_use]
    pub fn with_fault(mut self, f: NetFault) -> Self {
        self.faults.push(f);
        self
    }

    /// Set the adversarial link profiles.
    #[must_use]
    pub fn with_links(mut self, links: LinkFaults) -> Self {
        self.links = links;
        self
    }

    /// Append a scripted partition.
    #[must_use]
    pub fn with_partition(mut self, p: Partition) -> Self {
        self.partitions.push(p);
        self
    }

    /// Set stall deadline and wall-clock timeout together.
    #[must_use]
    pub fn with_deadlines(mut self, stall: Duration, wall: Duration) -> Self {
        self.stall_deadline = stall;
        self.wall_timeout = wall;
        self
    }
}

/// One check's outcome in a [`NetReport`].
#[derive(Debug)]
pub struct NetCheck {
    /// Check label (`conformance-omega`, `consensus`, `theorem-13`…).
    pub name: String,
    /// `true` if the check streamed over commits during the run,
    /// `false` for post-hoc whole-schedule checks.
    pub online: bool,
    /// The verdict.
    pub verdict: Result<(), String>,
}

/// Per-node accounting in a [`NetReport`].
#[derive(Debug, Clone)]
pub struct NodeSummary {
    /// Node id (index into the spawn order).
    pub id: u32,
    /// Locations the node hosted.
    pub locations: Vec<Loc>,
    /// `true` if the coordinator SIGKILLed it (or its socket died and
    /// containment crashed it).
    pub killed: bool,
    /// Commits accepted from this node's workers (all incarnations).
    pub commits: u64,
    /// Respawn attempts consumed by the recovery plane (0 when
    /// recovery is off or the node never died).
    pub respawns: u32,
}

/// Recovery QoS for one incarnation of one node: the timeline from the
/// death of the previous incarnation to this one's `Recover` commits.
/// All instants are wall-clock offsets from the start of the run.
#[derive(Debug, Clone)]
pub struct Incarnation {
    /// The node that was respawned.
    pub node: u32,
    /// The incarnation epoch (1 for the first respawn).
    pub epoch: u32,
    /// Locations the node hosts.
    pub locations: Vec<Loc>,
    /// When the previous incarnation was observed dead.
    pub killed_at: Duration,
    /// When the child process for this incarnation was spawned.
    pub respawned_at: Option<Duration>,
    /// When the rejoin handshake + replay completed and the node went
    /// live again.
    pub rejoined_at: Option<Duration>,
    /// Committed schedule prefix length replayed to the node.
    pub replay_len: usize,
    /// Schedule index of the first `Recover` committed for this
    /// incarnation's locations.
    pub recover_seq: Option<usize>,
    /// Events from `recover_seq` to the next Ω leader output naming a
    /// then-live leader — the post-recovery re-election latency in
    /// logical time. `None` when the run ended first (or the
    /// deployment has no Ω).
    pub reelect_events: Option<usize>,
    /// `false` if the incarnation missed its rejoin budget or died
    /// before attaching.
    pub rejoin_ok: bool,
}

impl Incarnation {
    /// Respawn-to-rejoin wall time, when the incarnation attached.
    #[must_use]
    pub fn respawn_to_rejoin(&self) -> Option<Duration> {
        Some(self.rejoined_at?.saturating_sub(self.respawned_at?))
    }

    /// Kill-to-rejoin wall time (detection + backoff + respawn +
    /// replay), when the incarnation attached.
    #[must_use]
    pub fn downtime(&self) -> Option<Duration> {
        Some(self.rejoined_at?.saturating_sub(self.killed_at))
    }
}

/// Everything the recovery plane did during a run.
#[derive(Debug, Clone, Default)]
pub struct RecoveryReport {
    /// One record per respawn attempt, in schedule order.
    pub incarnations: Vec<Incarnation>,
}

impl RecoveryReport {
    /// Did every attempted incarnation rejoin within budget?
    #[must_use]
    pub fn all_rejoined(&self) -> bool {
        self.incarnations.iter().all(|i| i.rejoin_ok)
    }
}

/// Everything a distributed run produced.
pub struct NetReport {
    /// The merged, linearized schedule.
    pub schedule: Vec<Action>,
    /// Why the run stopped.
    pub stop: Option<StopReason>,
    /// Committed event count.
    pub events: usize,
    /// Online + post-hoc check verdicts.
    pub checks: Vec<NetCheck>,
    /// Realized per-channel chaos accounting.
    pub chaos: ChaosReport,
    /// The up-front seeded chaos plan (JSONL), a pure function of
    /// `(seed, links, pi)` — byte-identical across same-seed runs.
    pub chaos_plan: String,
    /// Per-node summaries.
    pub nodes: Vec<NodeSummary>,
    /// Wall-clock duration of the run proper (post-handshake).
    pub elapsed: Duration,
    /// The merged multi-process profile (coordinator pid 0, node `i`
    /// as pid `i + 1`), present when [`NetConfig::profiling`] was on.
    pub telemetry: Option<afd_prof::Merged>,
    /// Recovery QoS, present when [`NetConfig::recovery`] was set.
    pub recovery: Option<RecoveryReport>,
    /// Datagram-plane accounting (sender + receiver halves merged per
    /// channel), present when the run used [`Transport::Udp`]. The
    /// [`NetReport::chaos`] report is synthesized from the shaper half
    /// of these counters so same-seed UDP and TCP runs expose the same
    /// injected-chaos surface.
    pub dgram: Option<DgramStats>,
}

impl NetReport {
    /// Did every check pass?
    #[must_use]
    pub fn all_passed(&self) -> bool {
        self.checks.iter().all(|c| c.verdict.is_ok())
    }

    /// The named check, if present.
    #[must_use]
    pub fn check(&self, name: &str) -> Option<&NetCheck> {
        self.checks.iter().find(|c| c.name == name)
    }
}

/// Run `spec` distributed across `cfg.nodes` processes.
///
/// # Errors
/// [`NetError`] if the configuration is inconsistent, a node cannot be
/// spawned, or the handshake fails. Once the run proper starts, node
/// failures are *contained* (crashed into the schedule), not errors.
pub fn run_distributed(spec: &DeploymentSpec, cfg: &NetConfig) -> Result<NetReport, NetError> {
    let pi = spec.pi();
    if cfg.node_command.is_empty() {
        return Err(NetError::Config("empty node_command".into()));
    }
    if cfg.nodes == 0 {
        return Err(NetError::Config("need at least one node".into()));
    }
    if cfg.nodes as usize > pi.len() {
        return Err(NetError::Config(format!(
            "{} nodes but only {} locations",
            cfg.nodes,
            pi.len()
        )));
    }
    for f in &cfg.faults {
        if usize::from(f.loc.0) >= pi.len() {
            return Err(NetError::Config(format!("fault at {:?} outside Π", f.loc)));
        }
    }
    if cfg.transport == Transport::Udp {
        if !cfg.partitions.is_empty() {
            return Err(NetError::Config(
                "scripted partitions need the router data plane; Transport::Udp does not support them"
                    .into(),
            ));
        }
        if cfg.recovery.is_some() {
            return Err(NetError::Config(
                "crash recovery replays over the TCP data plane; Transport::Udp does not support it"
                    .into(),
            ));
        }
    }
    if let DeploymentSpec::Paxos { values, .. }
    | DeploymentSpec::ReliablePaxos { values, .. }
    | DeploymentSpec::PaxosVal { values, .. } = spec
    {
        if values.len() != pi.len() {
            return Err(NetError::Config(format!(
                "{} proposal values for {} locations",
                values.len(),
                pi.len()
            )));
        }
    }
    if let DeploymentSpec::Paxos { values, .. } | DeploymentSpec::ReliablePaxos { values, .. } =
        spec
    {
        // E_C is the paper's *binary* consensus environment: a value
        // outside {0, 1} has no proposing task and would silently
        // stall the whole deployment. PaxosVal runs in E_C-val and
        // accepts any u64, so it is exempt from the domain check.
        if let Some(v) = values.iter().find(|&&v| v > 1) {
            return Err(NetError::Config(format!(
                "proposal value {v} outside binary E_C domain {{0, 1}}"
            )));
        }
    }
    visit_system(
        spec,
        CoordLoop {
            spec: spec.clone(),
            cfg: cfg.clone(),
            pi,
        },
    )
}

/// The coordinator's commit port: every commit in the run lands in
/// its sink, and accepted actions bound for a node-hosted component
/// leave through it as `Deliver` frames.
struct Fabric<'a> {
    /// The node hosting each component (`None`: the coordinator's own
    /// engine does, or — the crash automaton — nobody).
    owner: Vec<Option<u32>>,
    sink: &'a EventSink,
    /// Per-node write half (`None` once the node is dead).
    writers: Vec<Mutex<Option<TcpStream>>>,
    alive: Vec<AtomicBool>,
    /// Commits accepted per node.
    node_commits: Vec<AtomicU64>,
    /// Per-node accumulated profiler telemetry (lane directory +
    /// records), appended by that node's reader thread only.
    node_telemetry: Vec<Mutex<afd_prof::Report>>,
    /// Channel components whose `Send` inputs travel the datagram
    /// plane instead of a `Deliver` frame (UDP transport only).
    dgram_skip: Vec<bool>,
    /// Per-node datagram-plane accounting shipped at shutdown,
    /// appended by that node's reader thread only.
    node_dgram: Vec<Mutex<DgramStats>>,
}

impl Fabric<'_> {
    fn deliver_to_node(&self, nid: u32, idx: usize, a: Action) {
        let nid = nid as usize;
        if !self.alive[nid].load(Ordering::SeqCst) {
            return;
        }
        let mut guard = self.writers[nid]
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let died = match guard.as_mut() {
            Some(w) => write_frame(
                w,
                &WireMsg::Deliver {
                    comp: idx as u32,
                    action: a,
                },
            )
            .is_err(),
            None => false,
        };
        if died {
            // Containment happens in the node's reader thread; here we
            // just stop writing into a dead pipe.
            *guard = None;
            self.alive[nid].store(false, Ordering::SeqCst);
        }
    }

    /// Send a control frame to a node, tolerating a dead pipe.
    fn send_ctrl(&self, nid: usize, msg: &WireMsg) -> bool {
        let mut guard = self.writers[nid]
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        match guard.as_mut() {
            Some(w) => {
                let ok = write_frame(w, msg).is_ok();
                if !ok {
                    *guard = None;
                }
                ok
            }
            None => false,
        }
    }
}

impl CommitPort for Fabric<'_> {
    fn commit(&self, _from: usize, a: Action) -> Commit {
        self.sink.try_commit(a)
    }

    fn forward(&self, target: usize, a: Action) {
        // Under UDP the sender node transmits the committed `Send` to
        // the destination node's datagram socket itself (after
        // shaping); a `Deliver` frame here would double-deliver.
        if self.dgram_skip[target] && matches!(a, Action::Send { .. } | Action::WireSend { .. }) {
            return;
        }
        if let Some(nid) = self.owner[target] {
            self.deliver_to_node(nid, target, a);
        }
    }

    fn events(&self) -> usize {
        self.sink.len()
    }

    fn stopped(&self) -> bool {
        self.sink.is_stopped()
    }

    fn crashed(&self, l: Loc) -> bool {
        self.sink.is_crashed(l)
    }

    fn halt(&self, reason: StopReason) {
        self.sink.stop(reason);
    }
}

/// The coordinator's engine: the shared activation loop over the
/// FD/environment/channel components, committing through [`Fabric`].
type CoordEngine<'a, P> = Engine<'a, P, Fabric<'a>>;

/// The observer that feeds every online checker, in schedule order,
/// from the sink's in-order drain — and, when recovery is on, mirrors
/// the same in-order, exactly-once event stream into the recovery
/// forwarder's channel. That drain is the only place in the runtime
/// with dense, exactly-once sequencing, which is what makes the
/// rejoin replay boundary gap- and duplicate-free.
struct OnlineChecks {
    checks: Mutex<Vec<(String, Box<dyn DynCheck>)>>,
    /// Recovery-forwarder feed (present iff recovery is enabled).
    forward: Option<Mutex<Sender<Stamped>>>,
}

impl Observer for OnlineChecks {
    fn on_commit(&self, ev: Stamped) {
        let mut g = self
            .checks
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        for (_, c) in g.iter_mut() {
            c.push(&ev.action);
        }
        drop(g);
        if let Some(tx) = &self.forward {
            let _ = tx
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .send(ev);
        }
    }
}

/// A pending respawn: `node`'s next incarnation is due at `due`.
struct RespawnJob {
    node: usize,
    epoch: u32,
    due: Instant,
}

/// A rejoined connection waiting for the forwarder to attach it at an
/// exact schedule boundary.
struct AttachReq {
    node: usize,
    epoch: u32,
    stream: TcpStream,
}

/// Shared state of the recovery plane. Respawner, forwarder, injector
/// and reader threads coordinate through this one mutex; the forwarder
/// is the only writer of `live[nid] = true`, and `take_down` is the
/// single point that claims a recovered incarnation's death (so
/// containment runs exactly once per death, whoever observes it).
struct PlaneState {
    /// Recovered-and-attached nodes (routing goes via the forwarder).
    live: Vec<bool>,
    /// Respawn attempts consumed per node.
    respawns: Vec<u32>,
    /// Pending respawns, unordered (the respawner picks the earliest).
    jobs: Vec<RespawnJob>,
    /// Rejoined connections awaiting attach.
    attach: Vec<AttachReq>,
    /// QoS timeline, one record per respawn attempt.
    qos: Vec<Incarnation>,
}

/// The coordinator's crash-recovery plane (present iff
/// [`NetConfig::recovery`] is set).
struct RecoveryPlane {
    policy: RecoveryPolicy,
    seed: u64,
    /// Run epoch zero: all QoS offsets are relative to this.
    t0: Instant,
    node_locs: Vec<Vec<Loc>>,
    inner: Mutex<PlaneState>,
    /// In-flight recoveries, in units of *locations owing a `Recover`*:
    /// raised by `node_locs[n].len()` when node `n`'s respawn is
    /// scheduled, lowered by the stop-predicate wrapper as it judges
    /// each `Recover` in stream order (or in bulk when a rejoin is
    /// abandoned). The stop predicate is gated on this reaching zero,
    /// so a run cannot stop out from under a node that is about to
    /// rejoin and still owes a decision. Draining the units in-stream
    /// (not at commit time) keeps the gate consistent with the
    /// predicate's own lagging view of the schedule.
    pending: Arc<AtomicUsize>,
}

impl RecoveryPlane {
    fn new(policy: RecoveryPolicy, seed: u64, t0: Instant, node_locs: Vec<Vec<Loc>>) -> Self {
        let nodes = node_locs.len();
        RecoveryPlane {
            policy,
            seed,
            t0,
            node_locs,
            inner: Mutex::new(PlaneState {
                live: vec![false; nodes],
                respawns: vec![0; nodes],
                jobs: Vec::new(),
                attach: Vec::new(),
                qos: Vec::new(),
            }),
            pending: Arc::new(AtomicUsize::new(0)),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, PlaneState> {
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Schedule the next respawn of `node` after a death observed
    /// `now`, unless the budget is exhausted. Returns `true` if a
    /// respawn was scheduled.
    fn schedule_respawn(&self, node: usize, now: Instant) -> bool {
        let mut g = self.lock();
        let attempt = g.respawns[node];
        if attempt >= self.policy.max_respawns {
            return false;
        }
        g.respawns[node] = attempt + 1;
        let epoch = attempt + 1;
        let delay = self.policy.delay_for(self.seed, node as u32, attempt);
        g.jobs.push(RespawnJob {
            node,
            epoch,
            due: now + delay,
        });
        self.pending
            .fetch_add(self.node_locs[node].len(), Ordering::SeqCst);
        g.qos.push(Incarnation {
            node: node as u32,
            epoch,
            locations: self.node_locs[node].clone(),
            killed_at: now.saturating_duration_since(self.t0),
            respawned_at: None,
            rejoined_at: None,
            replay_len: 0,
            recover_seq: None,
            reelect_events: None,
            rejoin_ok: false,
        });
        true
    }

    /// Claim the death of a recovered incarnation: returns `true`
    /// exactly once per live period, so containment and the next
    /// respawn run once whichever thread observes the death first.
    fn take_down(&self, node: usize) -> bool {
        let mut g = self.lock();
        std::mem::replace(&mut g.live[node], false)
    }

    fn is_live(&self, node: usize) -> bool {
        self.lock().live[node]
    }

    /// Pop the earliest due-or-overdue respawn job.
    fn pop_due_job(&self, now: Instant) -> Option<RespawnJob> {
        let mut g = self.lock();
        let idx = g
            .jobs
            .iter()
            .enumerate()
            .filter(|(_, j)| j.due <= now)
            .min_by_key(|(_, j)| j.due)
            .map(|(i, _)| i)?;
        Some(g.jobs.swap_remove(idx))
    }

    fn update_qos(&self, node: usize, epoch: u32, f: impl FnOnce(&mut Incarnation)) {
        let mut g = self.lock();
        if let Some(q) = g
            .qos
            .iter_mut()
            .rev()
            .find(|q| q.node == node as u32 && q.epoch == epoch)
        {
            f(q);
        }
    }

    fn offset(&self, at: Instant) -> Duration {
        at.saturating_duration_since(self.t0)
    }

    /// Consume the plane into its QoS timeline (run over, all threads
    /// joined).
    fn into_qos(self) -> Vec<Incarnation> {
        self.inner
            .into_inner()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .qos
    }
}

/// Releases an attach's not-yet-committed `Recover` units on drop, so
/// every exit from `attach_rejoined` — abandoned mid-handshake or
/// completed — leaves the stop-predicate gate balanced. Units for
/// `Recover`s that *did* commit are instead drained in stream order by
/// the predicate wrapper itself when it judges them.
struct PendingShortfall<'a> {
    pending: &'a AtomicUsize,
    remaining: usize,
}

impl Drop for PendingShortfall<'_> {
    fn drop(&mut self) {
        if self.remaining > 0 {
            self.pending.fetch_sub(self.remaining, Ordering::SeqCst);
        }
    }
}

struct CoordLoop {
    spec: DeploymentSpec,
    cfg: NetConfig,
    pi: Pi,
}

impl SystemVisitor for CoordLoop {
    type Out = Result<NetReport, NetError>;

    #[allow(clippy::too_many_lines)]
    fn visit<P>(self, sys: &afd_system::System<P>) -> Result<NetReport, NetError>
    where
        P: Automaton<Action = Action> + Sync,
        P::State: Send,
    {
        let CoordLoop { spec, cfg, pi } = self;
        let comps = sys.composition.components();
        let kinds = sys.component_kinds();
        let nodes = cfg.nodes as usize;

        // Round-robin location assignment.
        let mut node_locs: Vec<Vec<Loc>> = vec![Vec::new(); nodes];
        for (i, l) in pi.iter().enumerate() {
            node_locs[i % nodes].push(l);
        }
        let node_of = |l: Loc| usize::from(l.0) % nodes;

        // Component ownership map. Under UDP, a channel lives on the
        // node hosting its destination (where its datagrams land);
        // under TCP it lives on the coordinator's engine, with the FD
        // and environment automata.
        let udp = cfg.transport == Transport::Udp;
        let mut owner = Vec::with_capacity(kinds.len());
        let mut dgram_skip = vec![false; kinds.len()];
        for (idx, k) in kinds.iter().enumerate() {
            owner.push(match k {
                ComponentKind::Process(l) => u32::try_from(node_of(*l)).ok(),
                ComponentKind::Channel(_, to) if udp => {
                    dgram_skip[idx] = true;
                    u32::try_from(node_of(*to)).ok()
                }
                _ => None,
            });
        }

        // --- Spawn and handshake -------------------------------------
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?.to_string();
        listener.set_nonblocking(true)?;

        if cfg.profiling {
            afd_prof::enable();
        }
        let mut children: Vec<Option<Child>> = Vec::with_capacity(nodes);
        for id in 0..nodes {
            let mut cmd = Command::new(&cfg.node_command[0]);
            cmd.args(&cfg.node_command[1..])
                .env(crate::node::ADDR_ENV, &addr)
                .env(crate::node::NODE_ID_ENV, id.to_string())
                .stdin(Stdio::null())
                .stdout(Stdio::null());
            if cfg.profiling {
                cmd.env(crate::node::PROF_ENV, "1");
            }
            if udp {
                cmd.env(crate::node::TRANSPORT_ENV, "udp");
            }
            let child = cmd.spawn().map_err(|e| {
                NetError::Spawn(format!("node {id} ({}): {e}", cfg.node_command[0]))
            })?;
            children.push(Some(child));
        }
        let kill_all = |children: &mut Vec<Option<Child>>| {
            for c in children.iter_mut().flatten() {
                let _ = c.kill();
                let _ = c.wait();
            }
        };

        let mut conns: Vec<Option<TcpStream>> = (0..nodes).map(|_| None).collect();
        let mut udp_ports: Vec<u16> = vec![0; nodes];
        let deadline = Instant::now() + cfg.handshake_timeout;
        while conns.iter().any(Option::is_none) {
            match listener.accept() {
                Ok((mut s, _)) => {
                    let hello = (|| -> Result<WireMsg, NetError> {
                        s.set_nodelay(true)?;
                        s.set_read_timeout(Some(cfg.handshake_timeout))?;
                        read_frame(&mut s)?
                            .ok_or_else(|| NetError::Protocol("EOF before Hello".into()))
                    })();
                    match hello {
                        Ok(WireMsg::Hello { node }) if !udp && (node as usize) < nodes => {
                            if conns[node as usize].is_some() {
                                kill_all(&mut children);
                                return Err(NetError::Protocol(format!(
                                    "duplicate Hello from node {node}"
                                )));
                            }
                            conns[node as usize] = Some(s);
                        }
                        Ok(WireMsg::HelloUdp { node, udp_port })
                            if udp && (node as usize) < nodes =>
                        {
                            if conns[node as usize].is_some() {
                                kill_all(&mut children);
                                return Err(NetError::Protocol(format!(
                                    "duplicate Hello from node {node}"
                                )));
                            }
                            udp_ports[node as usize] = udp_port;
                            conns[node as usize] = Some(s);
                        }
                        Ok(m) => {
                            kill_all(&mut children);
                            return Err(NetError::Protocol(format!("expected Hello, got {m:?}")));
                        }
                        Err(e) => {
                            kill_all(&mut children);
                            return Err(e);
                        }
                    }
                }
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    if Instant::now() > deadline {
                        kill_all(&mut children);
                        return Err(NetError::Protocol(format!(
                            "handshake timeout: {} of {nodes} nodes connected",
                            conns.iter().filter(|c| c.is_some()).count()
                        )));
                    }
                    thread::sleep(Duration::from_millis(5));
                }
                Err(e) => {
                    kill_all(&mut children);
                    return Err(NetError::Io(e));
                }
            }
        }

        // Assign, and split each connection into reader + writer halves.
        let mut readers: Vec<TcpStream> = Vec::with_capacity(nodes);
        let mut writers: Vec<Mutex<Option<TcpStream>>> = Vec::with_capacity(nodes);
        for (id, conn) in conns.into_iter().enumerate() {
            // The handshake loop above only exits once every slot is
            // filled; an empty slot here is a protocol-state bug, not
            // a panic.
            let Some(mut s) = conn else {
                kill_all(&mut children);
                return Err(NetError::Protocol(format!(
                    "node {id} never completed its handshake"
                )));
            };
            let assign = WireMsg::Assign {
                node: id as u32,
                spec: spec.clone(),
                locations: node_locs[id].clone(),
                seed: cfg.seed,
                wire_pacing_us: u64::try_from(cfg.wire_pacing.as_micros()).unwrap_or(u64::MAX),
            };
            if let Err(e) = write_frame(&mut s, &assign) {
                kill_all(&mut children);
                return Err(NetError::Io(e));
            }
            if udp {
                let setup = WireMsg::UdpSetup {
                    node: id as u32,
                    peers: udp_ports
                        .iter()
                        .enumerate()
                        .map(|(n, &p)| (n as u32, p))
                        .collect(),
                    hosts: pi
                        .iter()
                        .map(|l| (l, u32::try_from(node_of(l)).unwrap_or(0)))
                        .collect(),
                    profiles: afd_dgram::mesh(pi)
                        .into_iter()
                        .map(|(from, to)| {
                            (from, to, WireLinkProfile::from(cfg.links.profile(from, to)))
                        })
                        .collect(),
                };
                if let Err(e) = write_frame(&mut s, &setup) {
                    kill_all(&mut children);
                    return Err(NetError::Io(e));
                }
            }
            s.set_read_timeout(Some(READ_TICK))?;
            let reader = match s.try_clone() {
                Ok(r) => r,
                Err(e) => {
                    kill_all(&mut children);
                    return Err(NetError::Io(e));
                }
            };
            readers.push(reader);
            writers.push(Mutex::new(Some(s)));
        }

        // --- Sink, observer, fabric ----------------------------------
        let t0 = Instant::now();
        let plane = cfg
            .recovery
            .clone()
            .map(|policy| RecoveryPlane::new(policy, cfg.seed, t0, node_locs.clone()));
        let (forward_tx, forward_rx) = if plane.is_some() {
            let (tx, rx) = std::sync::mpsc::channel::<Stamped>();
            (Some(Mutex::new(tx)), Some(rx))
        } else {
            (None, None)
        };
        let observer = Arc::new(OnlineChecks {
            checks: Mutex::new(online_checks(&spec)),
            forward: forward_tx,
        });
        // With a recovery plane the stop predicate is additionally
        // gated on "no recovery in flight": a respawned-but-not-yet-
        // rejoined node will shortly re-enter the must-decide set via
        // its `Recover`, so firing the predicate early would cut the
        // schedule out from under it. Recovery-free runs get the
        // spec's predicate untouched.
        let stop_stream = match (plane.as_ref(), spec.default_stop_stream()) {
            (Some(p), Some(mut inner)) => {
                let pending = Arc::clone(&p.pending);
                let mut last_leader: Vec<Option<Loc>> = vec![None; pi.len()];
                let mut down = LocSet::empty();
                Some(Box::new(move |a: &Action| {
                    // The wrapper is judged in stream order by the
                    // sink's drain, so draining the gate here — at the
                    // `Recover` itself — keeps it consistent with the
                    // inner predicate's (equally lagging) view of the
                    // schedule. A wall-clock release would let the
                    // drain judge pre-`Recover` events with the gate
                    // already open and stop the run mid-rejoin.
                    if a.is_recover() {
                        pending.fetch_sub(1, Ordering::SeqCst);
                    }
                    if let Some(l) = a.crash_loc() {
                        down.insert(l);
                    } else if let Some(l) = a.recover_loc() {
                        down.remove(l);
                    } else if let Some((i, FdOutput::Leader(l))) = a.fd_output() {
                        last_leader[i.index()] = Some(l);
                    }
                    // Leadership settled: every live location's latest
                    // Ω output names one common *live* leader. A rejoin
                    // churns leadership (survivors elected an interim
                    // leader; the Ω conformance verdict judges the
                    // schedule as a complete run), so the run must not
                    // stop mid-reconvergence. Crash-stop-only churn is
                    // already covered by Ω's monotone down-set.
                    let mut leader = None;
                    let settled =
                        pi.iter().filter(|l| !down.contains(*l)).all(|i| {
                            match last_leader[i.index()] {
                                Some(l) if !down.contains(l) => match leader {
                                    None => {
                                        leader = Some(l);
                                        true
                                    }
                                    Some(prev) => prev == l,
                                },
                                _ => false,
                            }
                        });
                    inner(a) && settled && pending.load(Ordering::SeqCst) == 0
                }) as afd_runtime::StreamPredicate)
            }
            (_, inner) => inner,
        };
        let sink = EventSink::with_options(SinkOptions {
            max_events: cfg.max_events,
            stop_check_interval: 1,
            stop_when: None,
            stop_stream,
            observer: Some(observer.clone() as Arc<dyn Observer>),
        });

        let fabric = Fabric {
            owner,
            sink: &sink,
            writers,
            alive: (0..nodes).map(|_| AtomicBool::new(true)).collect(),
            node_commits: (0..nodes).map(|_| AtomicU64::new(0)).collect(),
            node_telemetry: (0..nodes)
                .map(|_| Mutex::new(afd_prof::Report::default()))
                .collect(),
            dgram_skip,
            node_dgram: (0..nodes)
                .map(|_| Mutex::new(DgramStats::default()))
                .collect(),
        };

        // The engine hosts everything no node does, bar the crash
        // automaton (the injector below plays the fault script).
        let rcfg = RuntimeConfig {
            seed: cfg.seed,
            links: cfg.links.clone(),
            partitions: cfg.partitions.clone(),
            fd_pacing: cfg.fd_pacing,
            ..RuntimeConfig::default()
        };
        let eng: CoordEngine<'_, P> = Engine::new(
            comps,
            &kinds,
            |k| match k {
                ComponentKind::Fd | ComponentKind::Env => true,
                ComponentKind::Channel(_, _) => !udp,
                _ => false,
            },
            &fabric,
            &rcfg,
        );
        eng.start();

        let children = Mutex::new(children);
        let killed: Vec<AtomicBool> = (0..nodes).map(|_| AtomicBool::new(false)).collect();

        // --- Run -----------------------------------------------------
        let plane_ref = plane.as_ref();
        thread::scope(|s| {
            for (nid, stream) in readers.into_iter().enumerate() {
                let eng = &eng;
                let killed = &killed;
                let node_locs = &node_locs;
                s.spawn(move || {
                    node_reader(eng, nid, stream, &node_locs[nid], &killed[nid], plane_ref);
                    // Flush before the scope sees this thread complete:
                    // scoped-thread TLS destructors run after the scope's
                    // completion signal, so a Drop-based flush could race
                    // the post-scope telemetry merge.
                    afd_prof::flush_local();
                });
            }
            for k in 0..eng.workers() {
                let eng = &eng;
                s.spawn(move || eng.run_worker(k));
            }
            {
                let eng = &eng;
                let cfg = &cfg;
                let children = &children;
                let killed = &killed;
                let node_locs = &node_locs;
                s.spawn(move || {
                    injector(eng, cfg, children, killed, node_locs, node_of, plane_ref);
                    afd_prof::flush_local();
                });
            }
            if let Some(plane) = plane_ref {
                // Respawner: picks due respawn jobs, spawns the next
                // incarnation with its epoch in the environment, and
                // waits for its Rejoin on the still-listening
                // handshake socket.
                let fabric = &fabric;
                let cfg = &cfg;
                let children = &children;
                let listener = &listener;
                let addr = &addr;
                s.spawn(move || {
                    afd_prof::set_lane("respawner");
                    while !fabric.sink.is_stopped() {
                        let Some(job) = plane.pop_due_job(Instant::now()) else {
                            thread::sleep(Duration::from_millis(2));
                            continue;
                        };
                        let nid = job.node;
                        let mut cmd = Command::new(&cfg.node_command[0]);
                        cmd.args(&cfg.node_command[1..])
                            .env(crate::node::ADDR_ENV, addr.as_str())
                            .env(crate::node::NODE_ID_ENV, nid.to_string())
                            .env(crate::node::EPOCH_ENV, job.epoch.to_string())
                            .stdin(Stdio::null())
                            .stdout(Stdio::null());
                        if cfg.profiling {
                            cmd.env(crate::node::PROF_ENV, "1");
                        }
                        let spawned_at = Instant::now();
                        let Ok(child) = cmd.spawn() else {
                            // rejoin_ok stays false in the QoS record;
                            // release the stop gate for this attempt.
                            plane
                                .pending
                                .fetch_sub(plane.node_locs[nid].len(), Ordering::SeqCst);
                            continue;
                        };
                        {
                            let mut cs = children
                                .lock()
                                .unwrap_or_else(std::sync::PoisonError::into_inner);
                            if let Some(mut old) = cs[nid].replace(child) {
                                let _ = old.kill();
                                let _ = old.wait();
                            }
                        }
                        plane.update_qos(nid, job.epoch, |q| {
                            q.respawned_at = Some(plane.offset(spawned_at));
                        });
                        // Wait for this incarnation's Rejoin, within budget.
                        let deadline = spawned_at + plane.policy.rejoin_budget;
                        let mut attached = false;
                        loop {
                            if fabric.sink.is_stopped() || Instant::now() > deadline {
                                break;
                            }
                            match listener.accept() {
                                Ok((mut conn, _)) => {
                                    let rejoin = (|| -> std::io::Result<Option<WireMsg>> {
                                        conn.set_nodelay(true)?;
                                        conn.set_read_timeout(Some(Duration::from_secs(2)))?;
                                        read_frame(&mut conn)
                                    })();
                                    match rejoin {
                                        Ok(Some(WireMsg::Rejoin { node, epoch }))
                                            if node as usize == nid && epoch == job.epoch =>
                                        {
                                            let _ = conn.set_read_timeout(Some(READ_TICK));
                                            plane.lock().attach.push(AttachReq {
                                                node: nid,
                                                epoch,
                                                stream: conn,
                                            });
                                            attached = true;
                                            break;
                                        }
                                        _ => {} // stale or foreign connection: drop it
                                    }
                                }
                                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                                    thread::sleep(Duration::from_millis(2));
                                }
                                Err(_) => break,
                            }
                        }
                        if !attached {
                            // Budget blown (or run over): the attempt is
                            // abandoned — stop gating the run on it.
                            plane
                                .pending
                                .fetch_sub(plane.node_locs[nid].len(), Ordering::SeqCst);
                        }
                    }
                    afd_prof::flush_local();
                });
            }
            if let (Some(plane), Some(rx)) = (plane_ref, forward_rx) {
                // Forwarder: the recovery plane's ordering authority.
                // It consumes the sink drain's dense, exactly-once
                // event stream; an attach at position `pos` replays
                // exactly events [0, pos) and everything from `pos`
                // on arrives through this loop — no gaps, no
                // duplicates, whatever the commit threads are doing.
                let (eng, fabric) = (&eng, &fabric);
                let cfg = &cfg;
                let spec = &spec;
                let node_locs = &node_locs;
                let killed = &killed;
                s.spawn(move || {
                    afd_prof::set_lane("recovery-forwarder");
                    let mut pos: usize = 0;
                    loop {
                        let pending: Vec<AttachReq> = std::mem::take(&mut plane.lock().attach);
                        for req in pending {
                            attach_rejoined(
                                s,
                                plane,
                                eng,
                                spec,
                                cfg.seed,
                                cfg.wire_pacing,
                                node_locs,
                                killed,
                                req,
                                pos,
                            );
                        }
                        match rx.recv_timeout(Duration::from_millis(2)) {
                            Ok(ev) => {
                                debug_assert_eq!(ev.seq as usize, pos);
                                for &idx in eng.targets(&ev.action).iter() {
                                    let Some(nid) = fabric.owner[idx as usize] else {
                                        continue;
                                    };
                                    if plane.is_live(nid as usize) {
                                        // A dead pipe is claimed by the
                                        // incarnation's reader thread.
                                        let _ = fabric.send_ctrl(
                                            nid as usize,
                                            &WireMsg::Deliver {
                                                comp: idx,
                                                action: ev.action,
                                            },
                                        );
                                    }
                                }
                                pos += 1;
                            }
                            Err(RecvTimeoutError::Timeout) => {
                                if fabric.sink.is_stopped() {
                                    break;
                                }
                            }
                            Err(RecvTimeoutError::Disconnected) => break,
                        }
                    }
                    afd_prof::flush_local();
                });
            }
            {
                let (sink, eng) = (&sink, &eng);
                let cfg = &cfg;
                s.spawn(move || {
                    while !sink.is_stopped() {
                        // Safety net for a partition heal crossed
                        // concurrently with its registration.
                        eng.drain_deferred();
                        if sink.elapsed() >= cfg.wall_timeout {
                            sink.stop(StopReason::WallClock);
                            break;
                        }
                        let stall =
                            u64::try_from(cfg.stall_deadline.as_nanos()).unwrap_or(u64::MAX);
                        if sink.ns_since_last_commit() >= stall {
                            sink.stop(StopReason::Watchdog);
                            break;
                        }
                        thread::sleep(MONITOR_TICK);
                    }
                });
            }

            // Shutdown sequencing: once the sink stops, tell every
            // surviving node, then give children a grace period.
            while !sink.is_stopped() {
                thread::sleep(MONITOR_TICK);
            }
            eng.shutdown();
            for nid in 0..nodes {
                if fabric.alive[nid].load(Ordering::SeqCst)
                    || plane_ref.is_some_and(|p| p.is_live(nid))
                {
                    fabric.send_ctrl(
                        nid,
                        &WireMsg::Stop {
                            reason: "run complete".into(),
                        },
                    );
                }
            }
            let grace_deadline = Instant::now() + GRACE;
            loop {
                let mut all_done = true;
                {
                    let mut cs = children
                        .lock()
                        .unwrap_or_else(std::sync::PoisonError::into_inner);
                    for c in cs.iter_mut().flatten() {
                        match c.try_wait() {
                            Ok(Some(_)) => {}
                            _ => all_done = false,
                        }
                    }
                }
                if all_done || Instant::now() > grace_deadline {
                    break;
                }
                thread::sleep(Duration::from_millis(20));
            }
            {
                let mut cs = children
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                kill_all(&mut cs);
            }
            // Close the write halves so node-side readers see EOF and
            // our reader threads (on dead sockets) unblock.
            for w in &fabric.writers {
                *w.lock().unwrap_or_else(std::sync::PoisonError::into_inner) = None;
            }
        });
        // The respawner may have registered a child after the in-scope
        // kill_all ran; with every thread joined, reap stragglers.
        {
            let mut cs = children
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            kill_all(&mut cs);
        }

        // --- Report --------------------------------------------------
        sink.flush();
        let elapsed = sink.elapsed();
        let respawns: Vec<u32> = plane
            .as_ref()
            .map_or_else(|| vec![0; nodes], |p| p.lock().respawns.clone());
        let node_summaries: Vec<NodeSummary> = (0..nodes)
            .map(|nid| NodeSummary {
                id: nid as u32,
                locations: node_locs[nid].clone(),
                killed: killed[nid].load(Ordering::SeqCst),
                commits: fabric.node_commits[nid].load(Ordering::SeqCst),
                respawns: respawns[nid],
            })
            .collect();
        let dgram = udp.then(|| {
            let mut all = DgramStats::default();
            for slot in &fabric.node_dgram {
                all.merge(
                    &slot
                        .lock()
                        .unwrap_or_else(std::sync::PoisonError::into_inner),
                );
            }
            all
        });
        // UDP runs synthesize the chaos surface from the shapers'
        // injected decisions; TCP runs take the engine's accounting.
        let chaos = dgram
            .as_ref()
            .map_or_else(|| eng.chaos_report(), DgramStats::to_chaos_report);
        let telemetry = if cfg.profiling {
            // Coordinator threads flushed on scope exit; grab whatever
            // the main thread still buffers, then merge with each
            // node's streamed reports. Coordinator is pid 0, node i is
            // pid i + 1.
            afd_prof::flush_local();
            let mut parts = vec![(0u32, "coord".to_string(), afd_prof::take())];
            for (nid, slot) in fabric.node_telemetry.iter().enumerate() {
                let report = std::mem::take(
                    &mut *slot
                        .lock()
                        .unwrap_or_else(std::sync::PoisonError::into_inner),
                );
                parts.push((nid as u32 + 1, format!("node{nid}"), report));
            }
            Some(afd_prof::merge(parts))
        } else {
            None
        };
        drop(eng);
        drop(fabric);
        let (schedule, stop) = sink.into_log();
        let recovery = plane.map(|p| {
            let mut rep = RecoveryReport {
                incarnations: p.into_qos(),
            };
            for inc in &mut rep.incarnations {
                if let Some(rs) = inc.recover_seq {
                    inc.reelect_events = post_recovery_reelect(&schedule, rs);
                }
            }
            rep
        });
        let mut checks: Vec<NetCheck> = observer
            .checks
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .drain(..)
            .map(|(name, chk)| NetCheck {
                name,
                online: true,
                verdict: chk.verdict(),
            })
            .collect();
        for (name, verdict) in post_checks(&spec, &schedule) {
            checks.push(NetCheck {
                name,
                online: false,
                verdict,
            });
        }
        let chaos_plan = chaos_plan_jsonl(&rcfg, pi, cfg.plan_arrivals);
        Ok(NetReport {
            events: schedule.len(),
            schedule,
            stop,
            checks,
            chaos,
            chaos_plan,
            nodes: node_summaries,
            elapsed,
            telemetry,
            recovery,
            dgram,
        })
    }
}

/// Fold one node's shipped per-channel datagram counters into its
/// accumulation slot (sender and receiver halves of a channel arrive
/// from different nodes; the report-time merge sums them).
fn merge_dgram(
    fabric: &Fabric<'_>,
    nid: usize,
    per_channel: Vec<(Loc, Loc, afd_dgram::ChannelDgramStats)>,
) {
    let mut incoming = DgramStats::default();
    for (from, to, s) in per_channel {
        let e = incoming.per_channel.entry((from, to)).or_default();
        *e = e.merged(s);
    }
    fabric.node_dgram[nid]
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .merge(&incoming);
}

/// Logical post-recovery leader re-election latency: events from
/// `from` to the first Ω leader output naming a then-live location.
fn post_recovery_reelect(schedule: &[Action], from: usize) -> Option<usize> {
    let mut down = LocSet::empty();
    for a in &schedule[..from.min(schedule.len())] {
        if let Some(l) = a.crash_loc() {
            down.insert(l);
        } else if let Some(l) = a.recover_loc() {
            down.remove(l);
        }
    }
    for (k, a) in schedule.iter().enumerate().skip(from) {
        if let Some(l) = a.crash_loc() {
            down.insert(l);
        } else if let Some(l) = a.recover_loc() {
            down.remove(l);
        }
        if let Some((_, FdOutput::Leader(l))) = a.fd_output() {
            if !down.contains(l) {
                return Some(k - from);
            }
        }
    }
    None
}

/// Attach a rejoined incarnation at the forwarder's exact position
/// `pos`: stream `RejoinAck` plus the committed prefix `[0, pos)` as
/// replay frames, restore the node's write half, mark it live, spawn
/// its reader, and commit `Recover` for its crashed locations.
#[allow(clippy::too_many_arguments)]
fn attach_rejoined<'scope, 'env, P>(
    s: &'scope thread::Scope<'scope, 'env>,
    plane: &'scope RecoveryPlane,
    eng: &'scope CoordEngine<'env, P>,
    spec: &'scope DeploymentSpec,
    seed: u64,
    wire_pacing: Duration,
    node_locs: &'scope [Vec<Loc>],
    killed: &'scope [AtomicBool],
    req: AttachReq,
    pos: usize,
) where
    P: Automaton<Action = Action> + Sync,
    P::State: Send,
{
    let fabric = eng.port();
    let nid = req.node;
    let epoch = req.epoch;
    // Every hosted location owes a `Recover` unit on the stop gate;
    // each unit is drained in stream order as its `Recover` is judged,
    // and whatever this attach fails to commit is released on drop.
    let mut gate = PendingShortfall {
        pending: &plane.pending,
        remaining: node_locs[nid].len(),
    };
    let replay = fabric.sink.log_prefix(pos);
    let Ok(mut write_half) = req.stream.try_clone() else {
        return;
    };
    let ack = WireMsg::RejoinAck {
        node: nid as u32,
        epoch,
        spec: spec.clone(),
        locations: node_locs[nid].clone(),
        seed,
        wire_pacing_us: u64::try_from(wire_pacing.as_micros()).unwrap_or(u64::MAX),
        replay_len: replay.len() as u64,
    };
    if write_frame(&mut write_half, &ack).is_err() {
        return;
    }
    for a in &replay {
        let frame = WireMsg::Deliver {
            comp: crate::node::REPLAY_COMP,
            action: *a,
        };
        if write_frame(&mut write_half, &frame).is_err() {
            return;
        }
    }
    *fabric.writers[nid]
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner) = Some(write_half);
    plane.lock().live[nid] = true;
    let rejoined_at = plane.offset(Instant::now());
    let recover_seq = fabric.sink.len();
    plane.update_qos(nid, epoch, |q| {
        q.rejoined_at = Some(rejoined_at);
        q.replay_len = replay.len();
        q.recover_seq = Some(recover_seq);
        q.rejoin_ok = true;
    });
    // Reader for the new incarnation. On death, claim it through the
    // plane so containment and the next respawn run exactly once,
    // whichever thread (reader, injector) observes the death first.
    let read_half = req.stream;
    let locs = &node_locs[nid];
    let killed_flag = &killed[nid];
    s.spawn(move || {
        node_reader(eng, nid, read_half, locs, killed_flag, Some(plane));
        if !fabric.sink.is_stopped() && plane.take_down(nid) {
            *fabric.writers[nid]
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner) = None;
            // Schedule (raising the stop gate) *before* committing the
            // containment crashes: otherwise the stop predicate could
            // fire on a Crash commit in the gap and end the run before
            // the respawn is even on the books.
            plane.schedule_respawn(nid, Instant::now());
            contain_dead_node(eng, locs);
        }
        afd_prof::flush_local();
    });
    // Close the down interval: `Recover` clears the crash bits, so
    // suppressed workers resume and the checkers re-arm liveness.
    // Until these commit, the rejoined node's requests are suppressed
    // (its workers absorb and retry), never illegally interleaved.
    for &l in &node_locs[nid] {
        if fabric.sink.is_crashed(l)
            && eng.commit(usize::MAX, Action::Recover(l)) == Commit::Accepted
        {
            // This unit is now owned by the stream: the predicate
            // wrapper drains it when the drain judges the `Recover`.
            gate.remaining -= 1;
        }
    }
}

/// Crash every not-yet-crashed location a dead node hosted.
fn contain_dead_node<P>(eng: &CoordEngine<'_, P>, locs: &[Loc])
where
    P: Automaton<Action = Action>,
{
    for &l in locs {
        if !eng.port().sink.is_crashed(l) {
            let _ = eng.commit(usize::MAX, Action::Crash(l));
        }
    }
}

/// Per-node reader: handles `CommitReq` frames inline (commit, route,
/// reply) and contains the node if its socket dies.
fn node_reader<P>(
    eng: &CoordEngine<'_, P>,
    nid: usize,
    mut stream: TcpStream,
    locs: &[Loc],
    killed: &AtomicBool,
    plane: Option<&RecoveryPlane>,
) where
    P: Automaton<Action = Action>,
{
    let fabric = eng.port();
    afd_prof::set_lane(&format!("reader:node{nid}"));
    let died = loop {
        if fabric.sink.is_stopped() {
            break false;
        }
        let wait = afd_prof::span(afd_prof::Stage::RecvWait);
        let frame = read_frame(&mut stream);
        wait.done();
        match frame {
            Ok(Some(WireMsg::CommitReq { comp, action })) => {
                let idx = comp as usize;
                if fabric.owner.get(idx) != Some(&Some(nid as u32)) {
                    break true; // protocol violation: contain it
                }
                let status = match eng.commit(idx, action) {
                    Commit::Accepted => {
                        fabric.node_commits[nid].fetch_add(1, Ordering::SeqCst);
                        CommitStatus::Accepted
                    }
                    Commit::Suppressed => CommitStatus::Suppressed,
                    Commit::Stopped => CommitStatus::Stopped,
                };
                // The response leg: queueing behind this node's writer
                // lock (shared with Deliver routing) plus the write.
                let resp = afd_prof::span(afd_prof::Stage::CoordQueue);
                let ok = fabric.send_ctrl(nid, &WireMsg::CommitResp { comp, status });
                resp.done();
                if !ok {
                    break true;
                }
            }
            Ok(Some(WireMsg::Telemetry { lanes, recs, .. })) => {
                let mut t = fabric.node_telemetry[nid]
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                t.lanes.extend(lanes);
                t.recs.extend(recs);
            }
            Ok(Some(WireMsg::DgramStats { per_channel, .. })) => {
                merge_dgram(fabric, nid, per_channel);
            }
            Ok(Some(_)) => break true, // protocol violation
            Ok(None) => break true,    // EOF
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut => {}
            Err(_) => break true,
        }
    };
    // A benign exit (sink stopped) leaves `alive` set so shutdown still
    // sends this node its Stop frame; only a dead pipe marks it down.
    if died {
        let was_alive = fabric.alive[nid].swap(false, Ordering::SeqCst);
        if was_alive && !killed.load(Ordering::SeqCst) && !fabric.sink.is_stopped() {
            // Unexpected death: contain it as if Kill'd.
            killed.store(true, Ordering::SeqCst);
            // Raise the stop gate before the containment crashes
            // commit, so the predicate can't end the run in the gap.
            if let Some(p) = plane {
                p.schedule_respawn(nid, Instant::now());
            }
            contain_dead_node(eng, locs);
        }
    }
    if !died {
        // The node ships its final Telemetry frames *after* it receives
        // Stop, which is after the sink stopped and this loop ended.
        // Keep decoding frames (harvesting telemetry, discarding the
        // rest) until the node closes its end or the grace window runs
        // out, so the tail of the profile isn't lost.
        let deadline = Instant::now() + GRACE + Duration::from_millis(500);
        while Instant::now() < deadline {
            match read_frame(&mut stream) {
                Ok(Some(WireMsg::Telemetry { lanes, recs, .. })) => {
                    let mut t = fabric.node_telemetry[nid]
                        .lock()
                        .unwrap_or_else(std::sync::PoisonError::into_inner);
                    t.lanes.extend(lanes);
                    t.recs.extend(recs);
                }
                Ok(Some(WireMsg::DgramStats { per_channel, .. })) => {
                    merge_dgram(fabric, nid, per_channel);
                }
                Ok(Some(_)) => {} // in-flight request racing the stop: drop it
                Ok(None) => break,
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut => {}
                Err(_) => break,
            }
        }
    }
    // Drain any final bytes so the node's last write doesn't RST.
    let _ = stream.set_read_timeout(Some(Duration::from_millis(10)));
    let mut buf = [0u8; 1024];
    while matches!(stream.read(&mut buf), Ok(n) if n > 0) {}
}

/// The crash injector: fires the fault script against the global event
/// clock. Halt faults commit `Crash` into the schedule; Kill faults
/// SIGKILL the hosting node process first, then crash everything it
/// hosted.
#[allow(clippy::too_many_arguments)]
fn injector<P>(
    eng: &CoordEngine<'_, P>,
    cfg: &NetConfig,
    children: &Mutex<Vec<Option<Child>>>,
    killed: &[AtomicBool],
    node_locs: &[Vec<Loc>],
    node_of: impl Fn(Loc) -> usize,
    plane: Option<&RecoveryPlane>,
) where
    P: Automaton<Action = Action>,
{
    let fabric = eng.port();
    afd_prof::set_lane("injector");
    let mut pending = cfg.faults.clone();
    pending.sort_by_key(|f| f.at_event);
    for f in pending {
        // Blocks on the sink's length watch (signalled by the commit
        // path, released by any stop) — no polling.
        let wait = afd_prof::span(afd_prof::Stage::RecvWait);
        fabric.sink.wait_len_at_least(f.at_event);
        wait.done();
        if fabric.sink.is_stopped() {
            return;
        }
        match f.mode {
            NetCrashMode::Halt => {
                if eng.commit(usize::MAX, Action::Crash(f.loc)) == Commit::Stopped {
                    return;
                }
            }
            NetCrashMode::Kill => {
                let nid = node_of(f.loc);
                // First incarnation, or (via the plane) a recovered
                // one: either way, exactly one claimant kills,
                // contains, and schedules the respawn.
                let claim = fabric.alive[nid].swap(false, Ordering::SeqCst)
                    || plane.is_some_and(|p| p.take_down(nid));
                if claim {
                    killed[nid].store(true, Ordering::SeqCst);
                    {
                        let mut cs = children
                            .lock()
                            .unwrap_or_else(std::sync::PoisonError::into_inner);
                        if let Some(c) = cs[nid].as_mut() {
                            let _ = c.kill();
                        }
                    }
                    *fabric.writers[nid]
                        .lock()
                        .unwrap_or_else(std::sync::PoisonError::into_inner) = None;
                    // Raise the stop gate before the containment
                    // crashes commit, so the predicate can't end the
                    // run in the gap before the respawn is booked.
                    if let Some(p) = plane {
                        p.schedule_respawn(nid, Instant::now());
                    }
                    contain_dead_node(eng, &node_locs[nid]);
                }
            }
        }
    }
}
