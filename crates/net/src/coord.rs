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
use std::process::{Child, Command, ExitStatus, Stdio};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender};
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
use afd_system::{ComponentKind, SplitMix64};
use ioa::Automaton;

use crate::codec::{read_frame, write_frame, CommitStatus, WireLinkProfile, WireMsg};
use crate::deploy::{
    online_checks, post_checks, visit_system, DeploymentSpec, DynCheck, SystemVisitor,
};
use crate::{lock, unpoisoned, NetError};

/// Watchdog sampling period.
const MONITOR_TICK: Duration = Duration::from_millis(5);
/// Per-read socket timeout on node connections, so reader threads can
/// poll the stop flag instead of blocking forever.
const READ_TICK: Duration = Duration::from_millis(100);
/// How long shutdown waits for a node child to exit gracefully before
/// killing it.
const GRACE: Duration = Duration::from_millis(1500);
/// How long the first incarnations get to connect and say Hello. A node
/// that *exits* instead fails the run at once (see `accept_hello`);
/// this only bounds one that hangs.
const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(20);
/// How often a pending accept (and the idle respawner) looks again.
const ACCEPT_TICK: Duration = Duration::from_millis(2);
/// Arrivals per channel exported in the up-front chaos plan.
const PLAN_ARRIVALS: usize = 32;

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
        // The first draw of a generator keyed on the triple: a pure
        // function, so the respawn schedule is byte-identical across
        // same-seed runs.
        let r = SplitMix64::new(seed ^ (u64::from(node) << 32) ^ u64::from(attempt)).next_u64();
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
    /// `Send`s travel as real UDP datagrams (`afd-dgram` framing). Each
    /// reassembled `Send` is one arrival at the hosting node's engine,
    /// where the channel's ADD state draws its seeded drop/dup/reorder
    /// fate exactly as it does on the coordinator under TCP, on top of
    /// whatever the real socket does. Both plain (`Send`) and stubborn
    /// wire (`WireSend`) channels ride the datagram plane, so
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
    /// Per-channel link profiles, run by the channel's activation on
    /// either transport exactly as by the threaded engine: drop/dup/
    /// reorder replay the seeded chaos plan, and `delay`/`jitter` sleep
    /// before each delivery commits.
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
    /// Realized per-channel chaos accounting, merged from the engines
    /// that hosted the channels (the coordinator's under TCP, the
    /// destination nodes' under UDP).
    pub chaos: ChaosReport,
    /// The up-front seeded chaos plan (JSONL), a pure function of
    /// `(seed, links, pi)` — byte-identical across same-seed runs.
    pub chaos_plan: String,
    /// Per-node summaries.
    pub nodes: Vec<NodeSummary>,
    /// Wall-clock duration from the start of the run proper
    /// (post-handshake) to the end of teardown. Besides the run, it
    /// covers the `shutdown` wait that notices the stop (sampled every
    /// 5 ms) and the grace loop that waits for the nodes to exit
    /// (polled every 20 ms).
    pub elapsed: Duration,
    /// The merged multi-process profile (coordinator pid 0, node `i`
    /// as pid `i + 1`), present when [`NetConfig::profiling`] was on.
    pub telemetry: Option<afd_prof::Merged>,
    /// Recovery QoS, present when [`NetConfig::recovery`] was set.
    pub recovery: Option<RecoveryReport>,
    /// Datagram-plane accounting (sender + receiver halves merged per
    /// channel), present when the run used [`Transport::Udp`]: organic
    /// socket loss, apart from the injected faults in
    /// [`NetReport::chaos`].
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
    // The coordinator's engine config: the link and partition script
    // every hosted channel runs, validated before any node is spawned.
    let rcfg = RuntimeConfig {
        seed: cfg.seed,
        links: cfg.links.clone(),
        partitions: cfg.partitions.clone(),
        fd_pacing: cfg.fd_pacing,
        ..RuntimeConfig::default()
    };
    rcfg.validate(pi)
        .map_err(|e| NetError::Config(e.to_string()))?;
    visit_system(
        spec,
        CoordLoop {
            spec: spec.clone(),
            cfg: cfg.clone(),
            rcfg,
            pi,
        },
    )
}

/// "No incarnation attached" in [`NodeSlot::attached`].
const DETACHED: i64 = -1;

/// Everything the coordinator keeps per node, across all of the node's
/// incarnations. There is one lifecycle: incarnation `epoch` attaches
/// at some schedule position — a first start is epoch 0 at position
/// 0 — and stays attached until exactly one thread claims its death.
struct NodeSlot {
    /// Locations the node hosts.
    locs: Vec<Loc>,
    /// [`DETACHED`], or the epoch of the attached incarnation. Epoch 0
    /// is routed to inline on the commit path; later epochs by the
    /// drain-ordered forwarder (see [`CommitPort::forward`]).
    attached: AtomicI64,
    /// Write half of the attached incarnation's socket (`None` once a
    /// write failed or the death was claimed).
    writer: Mutex<Option<TcpStream>>,
    /// Set once any incarnation was SIGKILLed or contained.
    killed: AtomicBool,
    /// Commits accepted from this node's workers (all incarnations).
    commits: AtomicU64,
    /// Respawn attempts consumed; written by the death claimant only.
    respawns: AtomicU32,
    /// Accumulated profiler telemetry (lane directory + records),
    /// appended by the node's reader thread only.
    telemetry: Mutex<afd_prof::Report>,
    /// Datagram-plane accounting shipped at shutdown, appended by the
    /// node's reader thread only.
    dgram: Mutex<DgramStats>,
    /// Chaos accounting of the channels the node hosted, shipped with
    /// its datagram accounting.
    chaos: Mutex<ChaosReport>,
    /// The latest incarnation's process. Dropping the slot kills and
    /// reaps it, so no return path out of a run — early `?` included —
    /// leaves a node process behind.
    child: Mutex<Option<Child>>,
}

impl NodeSlot {
    fn new(locs: Vec<Loc>) -> Self {
        NodeSlot {
            locs,
            attached: AtomicI64::new(DETACHED),
            writer: Mutex::new(None),
            killed: AtomicBool::new(false),
            commits: AtomicU64::new(0),
            respawns: AtomicU32::new(0),
            telemetry: Mutex::new(afd_prof::Report::default()),
            dgram: Mutex::new(DgramStats::default()),
            chaos: Mutex::new(ChaosReport::default()),
            child: Mutex::new(None),
        }
    }

    fn attached_epoch(&self) -> Option<u32> {
        u32::try_from(self.attached.load(Ordering::SeqCst)).ok()
    }

    /// Incarnation `epoch` is live on `writer`; re-arms the death claim.
    fn attach(&self, epoch: u32, writer: TcpStream) {
        *lock(&self.writer) = Some(writer);
        self.attached.store(i64::from(epoch), Ordering::SeqCst);
    }

    /// Claim the attached incarnation's death: `true` exactly once per
    /// live period, whichever threads race to report it.
    fn claim_death(&self) -> bool {
        self.attached.swap(DETACHED, Ordering::SeqCst) != DETACHED
    }

    /// Write one frame to the attached incarnation, tolerating a dead
    /// pipe: a failed write drops the write half and nothing else. The
    /// death is the reader thread's to claim — containment commits, and
    /// this runs on the commit path.
    fn send(&self, msg: &WireMsg) -> bool {
        let mut w = lock(&self.writer);
        let ok = w.as_mut().is_some_and(|w| write_frame(w, msg).is_ok());
        if !ok {
            *w = None;
        }
        ok
    }

    /// The child's exit status, if it has one yet.
    fn exit_status(&self) -> Option<ExitStatus> {
        lock(&self.child).as_mut()?.try_wait().ok()?
    }

    fn sigkill(&self) {
        if let Some(c) = lock(&self.child).as_mut() {
            let _ = c.kill();
        }
    }

    /// Run `child` as the node's process, killing and reaping whatever
    /// ran before.
    fn replace_child(&self, child: Option<Child>) {
        if let Some(mut old) = std::mem::replace(&mut *lock(&self.child), child) {
            let _ = old.kill();
            let _ = old.wait();
        }
    }
}

impl Drop for NodeSlot {
    fn drop(&mut self) {
        self.replace_child(None);
    }
}

/// An incarnation that connected and said `Hello`, not yet attached.
struct Arrival {
    node: usize,
    epoch: u32,
    /// Its datagram socket's port (0 = none).
    udp_port: u16,
    stream: TcpStream,
}

/// How an incarnation of a node comes up, first start and respawn
/// alike: spawn the process, accept its `Hello`, send its `Assign` and
/// the committed prefix, mark the slot attached.
struct Launch<'a> {
    cfg: &'a NetConfig,
    spec: &'a DeploymentSpec,
    pi: Pi,
    listener: TcpListener,
    addr: String,
    slots: Vec<NodeSlot>,
}

/// A non-blocking accept or a timed read that simply has nothing yet.
fn would_block(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

/// Round-robin placement: location `i` lives on node `i % nodes`.
fn node_of(l: Loc, nodes: usize) -> usize {
    usize::from(l.0) % nodes
}

impl Launch<'_> {
    fn udp(&self) -> bool {
        self.cfg.transport == Transport::Udp
    }

    fn spawn_node(&self, nid: usize, epoch: u32) -> Result<(), NetError> {
        let command = &self.cfg.node_command;
        let mut cmd = Command::new(&command[0]);
        cmd.args(&command[1..])
            .env(crate::node::ADDR_ENV, &self.addr)
            .env(crate::node::NODE_ID_ENV, nid.to_string())
            .env(crate::node::EPOCH_ENV, epoch.to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::null());
        if self.cfg.profiling {
            cmd.env(crate::node::PROF_ENV, "1");
        }
        if self.udp() {
            cmd.env(crate::node::TRANSPORT_ENV, "udp");
        }
        let child = cmd
            .spawn()
            .map_err(|e| NetError::Spawn(format!("node {nid} ({}): {e}", command[0])))?;
        self.slots[nid].replace_child(Some(child));
        Ok(())
    }

    /// Accept the next connection, which must open with the `Hello` of
    /// one of the `want`ed `(node, epoch)` incarnations. Fails at once
    /// when a wanted node's process has exited instead of connecting,
    /// and when `deadline` passes or `stopped()` turns true first.
    fn accept_hello(
        &self,
        deadline: Instant,
        want: &[(usize, u32)],
        stopped: impl Fn() -> bool,
    ) -> Result<Arrival, NetError> {
        loop {
            match self.listener.accept() {
                Ok((mut stream, _)) => {
                    let left = deadline.saturating_duration_since(Instant::now());
                    stream.set_nodelay(true)?;
                    stream.set_read_timeout(Some(left.max(ACCEPT_TICK)))?;
                    let hello = read_frame(&mut stream)?
                        .ok_or_else(|| NetError::Protocol("EOF before Hello".into()))?;
                    return match hello {
                        WireMsg::Hello {
                            node,
                            epoch,
                            udp_port,
                        } if want.contains(&(node as usize, epoch))
                            && (udp_port != 0) == self.udp() =>
                        {
                            Ok(Arrival {
                                node: node as usize,
                                epoch,
                                udp_port,
                                stream,
                            })
                        }
                        m => Err(NetError::Protocol(format!(
                            "expected Hello from (node, epoch) in {want:?}, got {m:?}"
                        ))),
                    };
                }
                Err(e) if would_block(&e) => {
                    for &(nid, _) in want {
                        if let Some(status) = self.slots[nid].exit_status() {
                            return Err(NetError::Spawn(format!(
                                "node {nid} exited before Hello: {status}"
                            )));
                        }
                    }
                    if stopped() || Instant::now() > deadline {
                        return Err(NetError::Protocol(format!(
                            "handshake timeout: no Hello from (node, epoch) in {want:?}"
                        )));
                    }
                    thread::sleep(ACCEPT_TICK);
                }
                Err(e) => return Err(NetError::Io(e)),
            }
        }
    }

    fn assign_frame(&self, nid: usize, epoch: u32, replay_len: usize) -> WireMsg {
        WireMsg::Assign {
            node: nid as u32,
            epoch,
            spec: self.spec.clone(),
            locations: self.slots[nid].locs.clone(),
            seed: self.cfg.seed,
            wire_pacing_us: u64::try_from(self.cfg.wire_pacing.as_micros()).unwrap_or(u64::MAX),
            replay_len: replay_len as u64,
        }
    }

    /// The datagram-plane wiring for node `nid`, given every node's
    /// bound UDP port.
    fn udp_setup_frame(&self, nid: usize, ports: &[u16]) -> WireMsg {
        let nodes = self.slots.len();
        WireMsg::UdpSetup {
            node: nid as u32,
            peers: (0u32..).zip(ports.iter().copied()).collect(),
            hosts: self
                .pi
                .iter()
                .map(|l| (l, node_of(l, nodes) as u32))
                .collect(),
            profiles: afd_dgram::mesh(self.pi)
                .into_iter()
                .map(|(from, to)| {
                    let profile = self.cfg.links.profile(from, to);
                    (from, to, WireLinkProfile::from(profile))
                })
                .collect(),
        }
    }

    /// Attach an arrived incarnation at schedule position
    /// `replay.len()`: send its `Assign` (and datagram wiring), stream
    /// the committed prefix `replay` as replay frames, and mark the slot
    /// attached — every commit from that position on reaches the node
    /// as a live `Deliver`. Returns the read half for its reader thread.
    fn attach(
        &self,
        arrival: Arrival,
        udp_setup: Option<&WireMsg>,
        replay: &[Action],
    ) -> std::io::Result<TcpStream> {
        let Arrival {
            node: nid,
            epoch,
            mut stream,
            ..
        } = arrival;
        write_frame(&mut stream, &self.assign_frame(nid, epoch, replay.len()))?;
        if let Some(setup) = udp_setup {
            write_frame(&mut stream, setup)?;
        }
        for a in replay {
            let frame = WireMsg::Deliver {
                comp: crate::node::REPLAY_COMP,
                action: *a,
            };
            write_frame(&mut stream, &frame)?;
        }
        stream.set_read_timeout(Some(READ_TICK))?;
        let reader = stream.try_clone()?;
        self.slots[nid].attach(epoch, stream);
        Ok(reader)
    }

    /// Bring up epoch 0 of every node — a rejoin at position 0 with
    /// nothing to replay — and return each node's read half.
    fn first_attach(&self) -> Result<Vec<TcpStream>, NetError> {
        let nodes = self.slots.len();
        for nid in 0..nodes {
            self.spawn_node(nid, 0)?;
        }
        let deadline = Instant::now() + HANDSHAKE_TIMEOUT;
        let mut want: Vec<(usize, u32)> = (0..nodes).map(|nid| (nid, 0)).collect();
        let mut arrivals = Vec::with_capacity(nodes);
        while !want.is_empty() {
            let arrival = self.accept_hello(deadline, &want, || false)?;
            want.retain(|&(nid, _)| nid != arrival.node);
            arrivals.push(arrival);
        }
        // Each node said Hello exactly once, so sorted position = id.
        arrivals.sort_by_key(|a| a.node);
        let ports: Vec<u16> = arrivals.iter().map(|a| a.udp_port).collect();
        arrivals
            .into_iter()
            .map(|arrival| {
                let setup = self
                    .udp()
                    .then(|| self.udp_setup_frame(arrival.node, &ports));
                Ok(self.attach(arrival, setup.as_ref(), &[])?)
            })
            .collect()
    }
}

/// The coordinator's commit port and shared run state: every commit in
/// the run lands in its sink, and accepted actions bound for a
/// node-hosted component leave through it as `Deliver` frames.
struct Fabric<'a> {
    /// The node hosting each component (`None`: the coordinator's own
    /// engine does, or — the crash automaton — nobody).
    owner: Vec<Option<u32>>,
    /// Channel components whose `Send` inputs travel the datagram
    /// plane instead of a `Deliver` frame (UDP transport only).
    dgram_skip: Vec<bool>,
    sink: &'a EventSink,
    slots: &'a [NodeSlot],
    /// The crash-recovery plane (present iff [`NetConfig::recovery`]).
    plane: Option<&'a RecoveryPlane>,
}

impl CommitPort for Fabric<'_> {
    fn commit(&self, _from: usize, a: Action) -> Commit {
        self.sink.try_commit(a)
    }

    fn forward(&self, target: usize, a: Action) {
        // Under UDP the sender node transmits the committed `Send` to
        // the destination node's datagram socket itself; a `Deliver`
        // frame here would double-deliver.
        if self.dgram_skip[target] && matches!(a, Action::Send { .. } | Action::WireSend { .. }) {
            return;
        }
        let Some(nid) = self.owner[target] else {
            return;
        };
        // Inline routing serves first incarnations only. A respawned
        // one attached at an exact position of the sink's drain and is
        // fed by the forwarder from there; a frame from this thread —
        // which may run ahead of the drain — would duplicate or
        // reorder against its replay.
        let slot = &self.slots[nid as usize];
        if slot.attached_epoch() == Some(0) {
            slot.send(&WireMsg::Deliver {
                comp: target as u32,
                action: a,
            });
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
        for (_, c) in lock(&self.checks).iter_mut() {
            c.push(&ev.action);
        }
        if let Some(tx) = &self.forward {
            let _ = lock(tx).send(ev);
        }
    }
}

/// A pending respawn: `node`'s next incarnation is due at `due`.
struct RespawnJob {
    node: usize,
    epoch: u32,
    due: Instant,
}

/// Shared state of the recovery plane: the respawner, the forwarder
/// and whichever thread claims a death coordinate through this one
/// mutex.
#[derive(Default)]
struct PlaneState {
    /// Pending respawns, unordered (the respawner picks the earliest).
    jobs: Vec<RespawnJob>,
    /// Respawned incarnations waiting for the forwarder to attach them
    /// at an exact schedule boundary.
    attach: Vec<Arrival>,
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
    inner: Mutex<PlaneState>,
    /// In-flight recoveries, in units of *locations owing a `Recover`*:
    /// raised by the node's location count when its respawn is
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
    fn new(policy: RecoveryPolicy, seed: u64, t0: Instant) -> Self {
        RecoveryPlane {
            policy,
            seed,
            t0,
            inner: Mutex::default(),
            pending: Arc::new(AtomicUsize::new(0)),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, PlaneState> {
        lock(&self.inner)
    }

    /// Schedule the next respawn of `node` after its death, observed
    /// `now` and claimed by the caller, unless the budget is exhausted.
    fn schedule_respawn(&self, node: usize, slot: &NodeSlot, now: Instant) {
        let attempt = slot.respawns.load(Ordering::SeqCst);
        if attempt >= self.policy.max_respawns {
            return;
        }
        let epoch = attempt + 1;
        slot.respawns.store(epoch, Ordering::SeqCst);
        let mut g = self.lock();
        let delay = self.policy.delay_for(self.seed, node as u32, attempt);
        g.jobs.push(RespawnJob {
            node,
            epoch,
            due: now + delay,
        });
        self.pending.fetch_add(slot.locs.len(), Ordering::SeqCst);
        g.qos.push(Incarnation {
            node: node as u32,
            epoch,
            locations: slot.locs.clone(),
            killed_at: self.offset(now),
            respawned_at: None,
            rejoined_at: None,
            replay_len: 0,
            recover_seq: None,
            reelect_events: None,
            rejoin_ok: false,
        });
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
        unpoisoned(self.inner.into_inner()).qos
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

/// The spec's stop predicate `inner`, additionally gated on "no
/// recovery in flight" (`pending == 0`) and "leadership settled": a
/// respawned-but-not-yet-rejoined node will shortly re-enter the
/// must-decide set via its `Recover`, so firing the predicate early
/// would cut the schedule out from under it. Recovery-free runs get the
/// spec's predicate untouched.
fn recovery_gated(
    mut inner: afd_runtime::StreamPredicate,
    pending: Arc<AtomicUsize>,
    pi: Pi,
) -> afd_runtime::StreamPredicate {
    let mut last_leader: Vec<Option<Loc>> = vec![None; pi.len()];
    let mut down = LocSet::empty();
    Box::new(move |a: &Action| {
        // The wrapper is judged in stream order by the sink's drain, so
        // draining the gate here — at the `Recover` itself — keeps it
        // consistent with the inner predicate's (equally lagging) view
        // of the schedule. A wall-clock release would let the drain
        // judge pre-`Recover` events with the gate already open and
        // stop the run mid-rejoin.
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
        // Leadership settled: every live location's latest Ω output
        // names one common *live* leader. A rejoin churns leadership
        // (survivors elected an interim leader; the Ω conformance
        // verdict judges the schedule as a complete run), so the run
        // must not stop mid-reconvergence. Crash-stop-only churn is
        // already covered by Ω's monotone down-set.
        let mut leader = None;
        let settled =
            pi.iter()
                .filter(|l| !down.contains(*l))
                .all(|i| match last_leader[i.index()] {
                    Some(l) if !down.contains(l) => match leader {
                        None => {
                            leader = Some(l);
                            true
                        }
                        Some(prev) => prev == l,
                    },
                    _ => false,
                });
        inner(a) && settled && pending.load(Ordering::SeqCst) == 0
    })
}

struct CoordLoop {
    spec: DeploymentSpec,
    cfg: NetConfig,
    /// The engine config `run_distributed` validated.
    rcfg: RuntimeConfig,
    pi: Pi,
}

impl SystemVisitor for CoordLoop {
    type Out = Result<NetReport, NetError>;

    fn visit<P>(self, sys: &afd_system::System<P>) -> Result<NetReport, NetError>
    where
        P: Automaton<Action = Action> + Sync,
        P::State: Send,
    {
        let CoordLoop {
            spec,
            cfg,
            rcfg,
            pi,
        } = self;
        let comps = sys.composition.components();
        let kinds = sys.component_kinds();
        let nodes = cfg.nodes as usize;
        let udp = cfg.transport == Transport::Udp;

        // Component ownership map. Under UDP, a channel lives on the
        // node hosting its destination (where its datagrams land);
        // under TCP it lives on the coordinator's engine, with the FD
        // and environment automata.
        let mut owner = Vec::with_capacity(kinds.len());
        let mut dgram_skip = vec![false; kinds.len()];
        for (idx, k) in kinds.iter().enumerate() {
            owner.push(match k {
                ComponentKind::Process(l) => Some(node_of(*l, nodes) as u32),
                ComponentKind::Channel(_, to) if udp => {
                    dgram_skip[idx] = true;
                    Some(node_of(*to, nodes) as u32)
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
        let mut node_locs: Vec<Vec<Loc>> = vec![Vec::new(); nodes];
        for l in pi.iter() {
            node_locs[node_of(l, nodes)].push(l);
        }
        let launch = Launch {
            cfg: &cfg,
            spec: &spec,
            pi,
            listener,
            addr,
            slots: node_locs.into_iter().map(NodeSlot::new).collect(),
        };
        let readers = launch.first_attach()?;

        // --- Sink, observer, fabric ----------------------------------
        let plane = cfg
            .recovery
            .clone()
            .map(|policy| RecoveryPlane::new(policy, cfg.seed, Instant::now()));
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
        let stop_stream = match (plane.as_ref(), spec.default_stop_stream()) {
            (Some(p), Some(inner)) => Some(recovery_gated(inner, Arc::clone(&p.pending), pi)),
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
            dgram_skip,
            sink: &sink,
            slots: &launch.slots,
            plane: plane.as_ref(),
        };

        // The engine hosts everything no node does, bar the crash
        // automaton (the injector below plays the fault script).
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

        // --- Run -----------------------------------------------------
        thread::scope(|s| {
            let (eng, launch, cfg) = (&eng, &launch, &cfg);
            for (nid, stream) in readers.into_iter().enumerate() {
                spawn_reader(s, eng, nid, stream);
            }
            for k in 0..eng.workers() {
                s.spawn(move || eng.run_worker(k));
            }
            s.spawn(move || injector(eng, &cfg.faults));
            if let (Some(plane), Some(rx)) = (fabric.plane, forward_rx) {
                s.spawn(move || respawner(launch, eng.port().sink, plane));
                s.spawn(move || forwarder(s, eng, launch, plane, rx));
            }
            s.spawn(move || monitor(eng, cfg));
            shutdown(eng);
        });

        // --- Report --------------------------------------------------
        sink.flush();
        let elapsed = sink.elapsed();
        let node_summaries: Vec<NodeSummary> = (0u32..)
            .zip(&launch.slots)
            .map(|(id, slot)| NodeSummary {
                id,
                locations: slot.locs.clone(),
                killed: slot.killed.load(Ordering::SeqCst),
                commits: slot.commits.load(Ordering::SeqCst),
                respawns: slot.respawns.load(Ordering::SeqCst),
            })
            .collect();
        let dgram = udp.then(|| {
            let mut all = DgramStats::default();
            for slot in &launch.slots {
                all.merge(&lock(&slot.dgram));
            }
            all
        });
        // Every channel ran on exactly one engine — ours, or (UDP) its
        // destination node's — so the per-channel reports are disjoint.
        let mut chaos = eng.chaos_report();
        for slot in &launch.slots {
            chaos.per_channel.append(&mut lock(&slot.chaos).per_channel);
        }
        let telemetry = cfg.profiling.then(|| {
            // Coordinator threads flushed on scope exit; grab whatever
            // the main thread still buffers, then merge with each
            // node's streamed reports. Coordinator is pid 0, node i is
            // pid i + 1.
            afd_prof::flush_local();
            let mut parts = vec![(0u32, "coord".to_string(), afd_prof::take())];
            for (nid, slot) in launch.slots.iter().enumerate() {
                let report = std::mem::take(&mut *lock(&slot.telemetry));
                parts.push((nid as u32 + 1, format!("node{nid}"), report));
            }
            afd_prof::merge(parts)
        });
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
        let mut checks: Vec<NetCheck> = lock(&observer.checks)
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
        let chaos_plan = chaos_plan_jsonl(&rcfg, pi, PLAN_ARRIVALS);
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

/// The respawner: picks due respawn jobs, spawns the next incarnation
/// with its epoch in the environment, and waits for its `Hello` on the
/// still-listening handshake socket.
fn respawner(launch: &Launch<'_>, sink: &EventSink, plane: &RecoveryPlane) {
    afd_prof::set_lane("respawner");
    while !sink.is_stopped() {
        let Some(job) = plane.pop_due_job(Instant::now()) else {
            thread::sleep(ACCEPT_TICK);
            continue;
        };
        let spawned_at = Instant::now();
        let hello = launch.spawn_node(job.node, job.epoch).and_then(|()| {
            plane.update_qos(job.node, job.epoch, |q| {
                q.respawned_at = Some(plane.offset(spawned_at));
            });
            launch.accept_hello(
                spawned_at + plane.policy.rejoin_budget,
                &[(job.node, job.epoch)],
                || sink.is_stopped(),
            )
        });
        match hello {
            Ok(arrival) => plane.lock().attach.push(arrival),
            // Spawn failure, exit before Hello, budget blown or run
            // over: the attempt is abandoned (`rejoin_ok` stays false
            // in its QoS record) — stop gating the run on it.
            Err(_) => {
                let owed = launch.slots[job.node].locs.len();
                plane.pending.fetch_sub(owed, Ordering::SeqCst);
            }
        }
    }
    afd_prof::flush_local();
}

/// The forwarder: the recovery plane's ordering authority. It consumes
/// the sink drain's dense, exactly-once event stream; an attach at
/// position `pos` replays exactly events `[0, pos)` and everything
/// from `pos` on arrives through this loop — no gaps, no duplicates,
/// whatever the commit threads are doing.
fn forwarder<'scope, 'env, P>(
    s: &'scope thread::Scope<'scope, 'env>,
    eng: &'scope CoordEngine<'env, P>,
    launch: &'scope Launch<'_>,
    plane: &'scope RecoveryPlane,
    rx: Receiver<Stamped>,
) where
    P: Automaton<Action = Action> + Sync,
    P::State: Send,
{
    let fabric = eng.port();
    afd_prof::set_lane("recovery-forwarder");
    let mut pos: usize = 0;
    loop {
        let arrived = std::mem::take(&mut plane.lock().attach);
        for arrival in arrived {
            attach_rejoined(s, eng, launch, plane, arrival, pos);
        }
        match rx.recv_timeout(ACCEPT_TICK) {
            Ok(ev) => {
                debug_assert_eq!(ev.seq as usize, pos);
                for &idx in eng.targets(&ev.action).iter() {
                    let Some(nid) = fabric.owner[idx as usize] else {
                        continue;
                    };
                    let slot = &fabric.slots[nid as usize];
                    if slot.attached_epoch().is_some_and(|epoch| epoch > 0) {
                        // A dead pipe is claimed by the incarnation's
                        // reader thread.
                        slot.send(&WireMsg::Deliver {
                            comp: idx,
                            action: ev.action,
                        });
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
}

/// Attach a respawned incarnation at the forwarder's exact position
/// `pos` (replaying the committed prefix `[0, pos)`), start its reader,
/// and commit `Recover` for its crashed locations.
fn attach_rejoined<'scope, 'env, P>(
    s: &'scope thread::Scope<'scope, 'env>,
    eng: &'scope CoordEngine<'env, P>,
    launch: &Launch<'_>,
    plane: &RecoveryPlane,
    arrival: Arrival,
    pos: usize,
) where
    P: Automaton<Action = Action> + Sync,
    P::State: Send,
{
    let fabric = eng.port();
    let (nid, epoch) = (arrival.node, arrival.epoch);
    let locs = &fabric.slots[nid].locs;
    // Every hosted location owes a `Recover` unit on the stop gate;
    // each unit is drained in stream order as its `Recover` is judged,
    // and whatever this attach fails to commit is released on drop.
    let mut gate = PendingShortfall {
        pending: &plane.pending,
        remaining: locs.len(),
    };
    let replay = fabric.sink.log_prefix(pos);
    let Ok(reader) = launch.attach(arrival, None, &replay) else {
        return;
    };
    let rejoined_at = plane.offset(Instant::now());
    let recover_seq = fabric.sink.len();
    plane.update_qos(nid, epoch, |q| {
        q.rejoined_at = Some(rejoined_at);
        q.replay_len = replay.len();
        q.recover_seq = Some(recover_seq);
        q.rejoin_ok = true;
    });
    spawn_reader(s, eng, nid, reader);
    // Close the down interval: `Recover` clears the crash bits, so
    // suppressed workers resume and the checkers re-arm liveness.
    // Until these commit, the rejoined node's requests are suppressed
    // (its workers absorb and retry), never illegally interleaved.
    for &l in locs {
        if fabric.sink.is_crashed(l)
            && eng.commit(usize::MAX, Action::Recover(l)) == Commit::Accepted
        {
            // This unit is now owned by the stream: the predicate
            // wrapper drains it when the drain judges the `Recover`.
            gate.remaining -= 1;
        }
    }
}

/// Start the reader thread of the incarnation just attached to node
/// `nid`; a reader that ends on a dead connection reports the death.
fn spawn_reader<'scope, 'env, P>(
    s: &'scope thread::Scope<'scope, 'env>,
    eng: &'scope CoordEngine<'env, P>,
    nid: usize,
    stream: TcpStream,
) where
    P: Automaton<Action = Action> + Sync,
    P::State: Send,
{
    s.spawn(move || {
        if node_reader(eng, nid, stream) {
            node_down(eng, nid, false);
        }
        // Flush before the scope sees this thread complete:
        // scoped-thread TLS destructors run after the scope's
        // completion signal, so a Drop-based flush could race the
        // post-scope telemetry merge.
        afd_prof::flush_local();
    });
}

/// The one place a node's death is handled, whoever observes it first:
/// the reader of the attached incarnation (EOF, dead pipe, protocol
/// violation) or the injector's Kill arm (`sigkill`). Exactly one
/// caller per live period wins the claim; it closes the write half,
/// books the respawn (when a recovery plane exists) and crashes every
/// not-yet-crashed location the node hosted. Returns whether this call
/// won the claim.
fn node_down<P>(eng: &CoordEngine<'_, P>, nid: usize, sigkill: bool) -> bool
where
    P: Automaton<Action = Action>,
{
    let fabric = eng.port();
    let slot = &fabric.slots[nid];
    if fabric.sink.is_stopped() || !slot.claim_death() {
        return false;
    }
    slot.killed.store(true, Ordering::SeqCst);
    if sigkill {
        slot.sigkill();
    }
    *lock(&slot.writer) = None;
    // Book the respawn (raising the stop gate) *before* the
    // containment crashes commit: otherwise the stop predicate could
    // fire on a `Crash` in the gap and end the run before the respawn
    // is on the books.
    if let Some(plane) = fabric.plane {
        plane.schedule_respawn(nid, slot, Instant::now());
    }
    for &l in &slot.locs {
        if !fabric.sink.is_crashed(l) {
            let _ = eng.commit(usize::MAX, Action::Crash(l));
        }
    }
    true
}

/// Fold a node's accounting frame (`Telemetry`, `DgramStats`) into its
/// slot; any other frame is handed back.
fn harvest(slot: &NodeSlot, msg: WireMsg) -> Option<WireMsg> {
    match msg {
        WireMsg::Telemetry { lanes, recs, .. } => {
            let mut t = lock(&slot.telemetry);
            t.lanes.extend(lanes);
            t.recs.extend(recs);
            None
        }
        // Sender and receiver halves of a channel arrive from different
        // nodes; the report-time merge sums them.
        WireMsg::DgramStats {
            per_channel, chaos, ..
        } => {
            let mut incoming = DgramStats::default();
            for (from, to, s) in per_channel {
                let e = incoming.per_channel.entry((from, to)).or_default();
                *e = e.merged(s);
            }
            lock(&slot.dgram).merge(&incoming);
            lock(&slot.chaos)
                .per_channel
                .extend(chaos.into_iter().map(|(from, to, s)| ((from, to), s)));
            None
        }
        other => Some(other),
    }
}

/// Per-incarnation reader: handles `CommitReq` frames inline (commit,
/// route, reply) until the run stops or the connection dies. Returns
/// `true` if it died (EOF, socket error, protocol violation) while the
/// run was still going.
fn node_reader<P>(eng: &CoordEngine<'_, P>, nid: usize, mut stream: TcpStream) -> bool
where
    P: Automaton<Action = Action>,
{
    let fabric = eng.port();
    let slot = &fabric.slots[nid];
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
                        slot.commits.fetch_add(1, Ordering::SeqCst);
                        CommitStatus::Accepted
                    }
                    Commit::Suppressed => CommitStatus::Suppressed,
                    Commit::Stopped => CommitStatus::Stopped,
                };
                // The response leg: queueing behind this node's writer
                // lock (shared with Deliver routing) plus the write.
                let resp = afd_prof::span(afd_prof::Stage::CoordQueue);
                let ok = slot.send(&WireMsg::CommitResp { comp, status });
                resp.done();
                if !ok {
                    break true;
                }
            }
            Ok(Some(other)) => {
                if harvest(slot, other).is_some() {
                    break true; // protocol violation
                }
            }
            Ok(None) => break true, // EOF
            Err(e) if would_block(&e) => {}
            Err(_) => break true,
        }
    };
    if !died {
        // The node ships its final Telemetry frames *after* it receives
        // Stop, which is after the sink stopped and this loop ended.
        // Keep decoding frames (harvesting telemetry, discarding the
        // rest) until the node closes its end or the grace window runs
        // out, so the tail of the profile isn't lost.
        let deadline = Instant::now() + GRACE + Duration::from_millis(500);
        while Instant::now() < deadline {
            match read_frame(&mut stream) {
                // Anything else is an in-flight request racing the
                // stop: dropped.
                Ok(Some(msg)) => drop(harvest(slot, msg)),
                Ok(None) => break,
                Err(e) if would_block(&e) => {}
                Err(_) => break,
            }
        }
    }
    // Drain any final bytes so the node's last write doesn't RST.
    let _ = stream.set_read_timeout(Some(Duration::from_millis(10)));
    let mut buf = [0u8; 1024];
    while matches!(stream.read(&mut buf), Ok(n) if n > 0) {}
    died
}

/// The crash injector: fires the fault script against the global event
/// clock. Halt faults commit `Crash` into the schedule; Kill faults
/// SIGKILL the hosting node process and contain it like any other
/// death.
fn injector<P>(eng: &CoordEngine<'_, P>, faults: &[NetFault])
where
    P: Automaton<Action = Action>,
{
    let fabric = eng.port();
    afd_prof::set_lane("injector");
    let mut pending = faults.to_vec();
    pending.sort_by_key(|f| f.at_event);
    for f in pending {
        // Blocks on the sink's length watch (signalled by the commit
        // path, released by any stop) — no polling.
        let wait = afd_prof::span(afd_prof::Stage::RecvWait);
        fabric.sink.wait_len_at_least(f.at_event);
        wait.done();
        if fabric.sink.is_stopped() {
            break;
        }
        match f.mode {
            NetCrashMode::Halt => {
                if eng.commit(usize::MAX, Action::Crash(f.loc)) == Commit::Stopped {
                    break;
                }
            }
            NetCrashMode::Kill => {
                node_down(eng, node_of(f.loc, fabric.slots.len()), true);
            }
        }
    }
    afd_prof::flush_local();
}

/// The watchdog: bounds stalls and wall time.
fn monitor<P>(eng: &CoordEngine<'_, P>, cfg: &NetConfig)
where
    P: Automaton<Action = Action>,
{
    let sink = eng.port().sink;
    while !sink.is_stopped() {
        // Safety net for a partition heal crossed concurrently with its
        // registration.
        eng.drain_deferred();
        if sink.elapsed() >= cfg.wall_timeout {
            sink.stop(StopReason::WallClock);
            break;
        }
        let stall = u64::try_from(cfg.stall_deadline.as_nanos()).unwrap_or(u64::MAX);
        if sink.ns_since_last_commit() >= stall {
            sink.stop(StopReason::Watchdog);
            break;
        }
        thread::sleep(MONITOR_TICK);
    }
}

/// Shutdown sequencing: once the sink stops, tell every attached node,
/// give the children a grace period to exit by themselves, then kill
/// and reap whatever is left.
fn shutdown<P>(eng: &CoordEngine<'_, P>)
where
    P: Automaton<Action = Action>,
{
    let fabric = eng.port();
    while !fabric.sink.is_stopped() {
        thread::sleep(MONITOR_TICK);
    }
    eng.shutdown();
    let stop = WireMsg::Stop {
        reason: "run complete".into(),
    };
    for slot in fabric.slots {
        if slot.attached_epoch().is_some() {
            slot.send(&stop);
        }
    }
    let grace_deadline = Instant::now() + GRACE;
    while Instant::now() <= grace_deadline && fabric.slots.iter().any(|s| s.exit_status().is_none())
    {
        thread::sleep(Duration::from_millis(20));
    }
    for slot in fabric.slots {
        // A child the respawner registers after this point is reaped
        // when the slots drop.
        slot.replace_child(None);
        // Close the write half so the node-side reader sees EOF and our
        // reader thread (on a dead socket) unblocks.
        *lock(&slot.writer) = None;
    }
}

#[cfg(test)]
mod tests;
