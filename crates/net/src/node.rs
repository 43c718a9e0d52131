//! The node side of the distributed runtime: host an assigned subset
//! of the deployment's process automata and drive them through the
//! coordinator's commit pipeline.
//!
//! A node is deliberately thin. It builds the same `System<P>` as the
//! coordinator (from the wire-encoded [`crate::DeploymentSpec`]) and
//! drives its hosted process components with the threaded runtime's
//! own activation loop ([`afd_runtime::Engine`]): a reader thread
//! demultiplexes coordinator frames, handing each routed input to the
//! engine, and a small pool of workers runs activations — drain routed
//! inputs, sweep enabled tasks, commit, step — where "commit" is the
//! engine's port (`NodePort`): a synchronous `CommitReq`/`CommitResp`
//! round trip over the coordinator socket instead of a sink call. The
//! activation blocks while the request is in flight, so its component
//! state cannot drift between proposal and application: routed inputs
//! queue up in the inbox and are applied only between commits, which
//! keeps the merged schedule a legal schedule of the composition.
//!
//! The node never decides anything about the run: crashes arrive as
//! routed `Crash` inputs (Halt) or as `SIGKILL` (Kill — no code here
//! runs at all), and the run ends when the coordinator says so.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::net::{Ipv4Addr, SocketAddr, TcpStream, UdpSocket};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Condvar, Mutex};
use std::thread;
use std::time::Duration;

use afd_core::{Action, Loc};
use afd_dgram::{DgramStats, Reassembly, DEFAULT_MTU};
use afd_runtime::{Commit, CommitPort, Engine, LinkFaults, LinkProfile, RuntimeConfig, StopReason};
use afd_system::{ComponentKind, System};
use ioa::Automaton;

use crate::codec::{
    decode_action, encode_action, encode_msg, read_frame, write_encoded, write_frame, CommitStatus,
    WireMsg,
};
use crate::deploy::{visit_system, SystemVisitor};
use crate::{lock, unpoisoned, NetError};

/// Environment variable carrying the coordinator's `host:port`.
pub const ADDR_ENV: &str = "AFD_NET_ADDR";
/// Environment variable carrying this node's id.
pub const NODE_ID_ENV: &str = "AFD_NET_NODE_ID";
/// Environment variable turning on `afd-prof` in spawned nodes (any
/// value other than `0`). The coordinator sets it when its own config
/// enables profiling so every process in the run samples spans.
pub const PROF_ENV: &str = "AFD_PROF";
/// Environment variable carrying this node's incarnation epoch, which
/// it reports in [`WireMsg::Hello`]. Unset or `0` means the first
/// incarnation; a respawned node gets `1, 2, ...`.
pub const EPOCH_ENV: &str = "AFD_NET_EPOCH";
/// Environment variable selecting the data-channel transport. The
/// coordinator sets it to `udp` when [`crate::Transport::Udp`] is
/// configured; anything else (or unset) keeps the TCP router plane.
/// A UDP node binds a loopback datagram socket before handshaking and
/// reports its port in [`WireMsg::Hello`].
pub const TRANSPORT_ENV: &str = "AFD_NET_TRANSPORT";

/// Component tag on the replay [`WireMsg::Deliver`] frames that follow
/// an [`WireMsg::Assign`]: not a real component index — the node
/// applies the action to *every* hosted component by signature.
pub const REPLAY_COMP: u32 = u32::MAX;

/// How often an activation blocked on a commit response re-checks the
/// stop flag (a response wait on the network path, not an idle poll —
/// idle components park on the pool's condvars).
const RESP_WAIT: Duration = Duration::from_millis(50);
/// Stream a Telemetry frame once this many profiler records have been
/// flushed (keeps memory bounded on long runs).
const TELEM_STREAM: usize = 8 * 1024;
/// Max records per Telemetry frame; well under `MAX_FRAME` even with
/// the lane directory attached.
const TELEM_CHUNK: usize = 16 * 1024;

/// If the hosting binary was spawned as a node (the coordinator set
/// [`ADDR_ENV`] / [`NODE_ID_ENV`]), serve and return `true`; the
/// caller should then return from `main` immediately. Returns `false`
/// when the environment is not a node assignment.
///
/// This is what lets examples and the experiments binary act as their
/// own node executable: `main` calls this first, and the coordinator
/// spawns `current_exe()` as the node command.
pub fn maybe_serve_from_env() -> bool {
    let (Ok(addr), Ok(id)) = (std::env::var(ADDR_ENV), std::env::var(NODE_ID_ENV)) else {
        return false;
    };
    let id: u32 = id.parse().unwrap_or_else(|_| {
        eprintln!("afd-net node: bad {NODE_ID_ENV}");
        std::process::exit(2);
    });
    if let Err(e) = serve(&addr, id) {
        eprintln!("afd-net node {id}: {e}");
        std::process::exit(1);
    }
    true
}

/// Bounded connect retry budget: a slow-to-bind or briefly saturated
/// coordinator listener shows up as `ECONNREFUSED`; retrying with
/// backoff for a couple of seconds keeps node startup robust without
/// masking a genuinely absent coordinator.
const CONNECT_ATTEMPTS: u32 = 40;
/// Base backoff between connect attempts (grows linearly, capped at
/// 8x, so the full budget is roughly two seconds).
const CONNECT_BACKOFF: Duration = Duration::from_millis(10);

/// Connect to `addr`, retrying transient failures with bounded linear
/// backoff. Returns the last error once the budget is exhausted.
fn connect_with_retry(addr: &str) -> Result<TcpStream, NetError> {
    let mut attempt = 0u32;
    loop {
        match TcpStream::connect(addr) {
            Ok(s) => return Ok(s),
            Err(_) if attempt + 1 < CONNECT_ATTEMPTS => {
                attempt += 1;
                thread::sleep(CONNECT_BACKOFF * attempt.min(8));
            }
            Err(e) => return Err(NetError::Io(e)),
        }
    }
}

/// Connect to the coordinator at `addr`, handshake as incarnation
/// [`EPOCH_ENV`] of node `id`, and host the assigned locations until
/// the coordinator stops the run or the connection dies.
///
/// Every incarnation handshakes the same way: `Hello`, then `Assign`,
/// then the `replay_len` committed schedule events the coordinator
/// streams before any live traffic — none for a first start, the whole
/// committed prefix for a respawn, so its component states resume
/// exactly where the previous incarnation's committed history left
/// them.
///
/// # Errors
/// [`NetError`] on connection failure or protocol violation.
pub fn serve(addr: &str, id: u32) -> Result<(), NetError> {
    if std::env::var(PROF_ENV).is_ok_and(|v| v != "0") {
        afd_prof::enable();
    }
    let epoch: u32 = std::env::var(EPOCH_ENV)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0);
    let dgram_sock = if std::env::var(TRANSPORT_ENV).is_ok_and(|v| v == "udp") {
        if epoch != 0 {
            return Err(NetError::Protocol(
                "UDP transport does not support rejoin incarnations".into(),
            ));
        }
        Some(UdpSocket::bind((Ipv4Addr::LOCALHOST, 0)).map_err(NetError::Io)?)
    } else {
        None
    };
    let mut stream = connect_with_retry(addr)?;
    stream.set_nodelay(true)?;
    let udp_port = match &dgram_sock {
        Some(sock) => sock.local_addr().map_err(NetError::Io)?.port(),
        None => 0,
    };
    let hello = WireMsg::Hello {
        node: id,
        epoch,
        udp_port,
    };
    write_frame(&mut stream, &hello)?;
    let assign = read_frame(&mut stream)?
        .ok_or_else(|| NetError::Protocol("coordinator closed before Assign".into()))?;
    let WireMsg::Assign {
        node,
        epoch: assigned_epoch,
        spec,
        locations: hosted,
        seed,
        wire_pacing_us,
        replay_len,
    } = assign
    else {
        return Err(NetError::Protocol(format!(
            "expected Assign, got {assign:?}"
        )));
    };
    if (node, assigned_epoch) != (id, epoch) {
        return Err(NetError::Protocol(format!(
            "assignment addressed to node {node} epoch {assigned_epoch}, \
             I am node {id} epoch {epoch}"
        )));
    }
    // UDP deployments: the datagram-plane wiring follows the Assign,
    // with the link profiles of the channels this node will host.
    let mut links = LinkFaults::none();
    let udp = match dgram_sock {
        Some(socket) => {
            let setup = read_frame(&mut stream)?
                .ok_or_else(|| NetError::Protocol("coordinator closed before UdpSetup".into()))?;
            let WireMsg::UdpSetup {
                node: setup_node,
                peers,
                hosts,
                profiles,
            } = setup
            else {
                return Err(NetError::Protocol(format!(
                    "expected UdpSetup, got {setup:?}"
                )));
            };
            if setup_node != id {
                return Err(NetError::Protocol(format!(
                    "UdpSetup addressed to node {setup_node}, I am {id}"
                )));
            }
            for (from, to, w) in profiles {
                links = links.with_override(from, to, LinkProfile::from(w));
            }
            Some(UdpPlan::new(socket, &peers, &hosts)?)
        }
        None => None,
    };
    visit_system(
        &spec,
        NodeLoop {
            stream,
            hosted,
            cfg: RuntimeConfig {
                seed,
                links,
                wire_pacing: Duration::from_micros(wire_pacing_us),
                ..RuntimeConfig::default()
            },
            node: id,
            replay_len,
            udp,
        },
    )
}

/// The datagram-plane wiring a UDP node derives from
/// [`WireMsg::UdpSetup`]: its bound socket, every peer's loopback
/// endpoint, and the location hosting map.
struct UdpPlan {
    socket: UdpSocket,
    /// Peer UDP endpoints, indexed by node id.
    peers: Vec<SocketAddr>,
    /// Hosting node id per location index.
    host_of: BTreeMap<Loc, u32>,
}

impl UdpPlan {
    fn new(
        socket: UdpSocket,
        peers: &[(u32, u16)],
        hosts: &[(Loc, u32)],
    ) -> Result<Self, NetError> {
        let n_nodes = peers
            .iter()
            .map(|&(id, _)| id as usize + 1)
            .max()
            .unwrap_or(0);
        let mut addrs = vec![SocketAddr::from((Ipv4Addr::LOCALHOST, 0)); n_nodes];
        for &(id, port) in peers {
            if port == 0 {
                return Err(NetError::Protocol(format!(
                    "UdpSetup names node {id} with no bound port"
                )));
            }
            addrs[id as usize] = SocketAddr::from((Ipv4Addr::LOCALHOST, port));
        }
        Ok(UdpPlan {
            socket,
            peers: addrs,
            host_of: hosts.iter().copied().collect(),
        })
    }
}

/// Receive-loop socket tick: how long one `recv_from` blocks before
/// re-checking the stop flag.
const DGRAM_RECV_TICK: Duration = Duration::from_millis(20);
/// Run a reassembly stale-sweep every this many received datagrams.
const DGRAM_PRUNE_EVERY: u64 = 128;
/// Seq-distance window handed to [`Reassembly::prune_stale`]: partial
/// transmissions this far behind the newest seq are declared lost.
const DGRAM_PRUNE_WINDOW: u32 = 512;

/// The live datagram plane of one UDP node: the socket our processes
/// transmit their committed `Send`s on, plus the component index of
/// every channel we host (destination side) so the receive loop can
/// route completed payloads into the right inbox.
struct UdpRt {
    plan: UdpPlan,
    /// Global component index per hosted (destination-side) channel.
    chan_comp: BTreeMap<(Loc, Loc), usize>,
    /// Both halves of the datagram accounting: transmissions per
    /// channel we send on (whose `datagrams_tx` is also the channel's
    /// next sequence number), and the reassembly tables' counters,
    /// folded in when the receive loop exits.
    stats: Mutex<DgramStats>,
}

impl UdpRt {
    /// Transmit one committed `Send` to the destination's socket under
    /// the channel's next sequence number. No fault is injected here:
    /// the destination channel's activation draws this arrival's fate.
    fn transmit_send(&self, a: &Action, from: Loc, to: Loc) {
        let Some(&host) = self.plan.host_of.get(&to) else {
            return;
        };
        let Some(&dest) = self.plan.peers.get(host as usize) else {
            return;
        };
        let payload = encode_action(a);
        let mut stats = lock(&self.stats);
        let s = stats.per_channel.entry((from, to)).or_default();
        // The header's seq is 32 bits and wraps, as the receiver expects.
        let seq = s.datagrams_tx as u32;
        if let Ok(frags) = afd_dgram::fragment(from, to, 0, seq, &payload, DEFAULT_MTU) {
            s.datagrams_tx += 1;
            s.frags_tx += frags.len() as u64;
            for d in frags {
                let _ = self.plan.socket.send_to(&d, dest);
            }
        }
    }

    /// Drain the socket until `stop`: reassemble datagrams per hosted
    /// channel and `deliver` each completed `Send` to that channel
    /// component (the channel then proposes its `Receive` through the
    /// ordinary commit pipeline). Malformed or misrouted datagrams are
    /// counted and dropped — UDP noise must never wedge the run.
    fn recv_loop(&self, deliver: impl Fn(usize, Action), stop: &AtomicBool) {
        let Ok(sock) = self.plan.socket.try_clone() else {
            return;
        };
        let _ = sock.set_read_timeout(Some(DGRAM_RECV_TICK));
        let mut asm: BTreeMap<(Loc, Loc), Reassembly> = self
            .chan_comp
            .keys()
            .map(|&(from, to)| ((from, to), Reassembly::new(from, to, 0, DEFAULT_MTU)))
            .collect();
        let mut buf = vec![0u8; 64 * 1024];
        let mut seen: u64 = 0;
        while !stop.load(Ordering::SeqCst) {
            let n = match sock.recv_from(&mut buf) {
                Ok((n, _)) => n,
                // `Interrupted`: Linux fails a `recv_from` under
                // `SO_RCVTIMEO` with EINTR when the process is stopped
                // and continued (SIGSTOP/SIGCONT), handler or not —
                // breaking there silenced every channel into this node
                // for the rest of the run.
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock
                            | std::io::ErrorKind::TimedOut
                            | std::io::ErrorKind::Interrupted
                    ) =>
                {
                    continue;
                }
                Err(_) => break,
            };
            let rx = afd_prof::span(afd_prof::Stage::NetDgramRecv);
            seen += 1;
            let dgram = &buf[..n];
            let key = match afd_dgram::parse(dgram) {
                Ok((h, _)) => (h.from, h.to),
                Err(_) => {
                    rx.done();
                    continue;
                }
            };
            let (Some(r), Some(&comp)) = (asm.get_mut(&key), self.chan_comp.get(&key)) else {
                rx.done();
                continue;
            };
            if let Ok(Some((_, payload))) = r.offer(dgram) {
                match decode_action(&payload) {
                    Ok(a @ (Action::Send { from, to, .. } | Action::WireSend { from, to, .. }))
                        if (from, to) == key =>
                    {
                        deliver(comp, a);
                    }
                    _ => r.stats.decode_errors += 1,
                }
            }
            if seen.is_multiple_of(DGRAM_PRUNE_EVERY) {
                for r in asm.values_mut() {
                    let _ = r.prune_stale(DGRAM_PRUNE_WINDOW);
                }
            }
            rx.done();
        }
        let mut stats = lock(&self.stats);
        for ((from, to), r) in asm {
            let slot = stats.per_channel.entry((from, to)).or_default();
            *slot = slot.merged(r.stats);
        }
    }
}

struct NodeLoop {
    stream: TcpStream,
    hosted: Vec<afd_core::Loc>,
    /// The engine's config: the run seed, the wire pacing, and (UDP
    /// only) the link profiles of the hosted channels.
    cfg: RuntimeConfig,
    node: u32,
    /// Committed-prefix replay length promised by `Assign` (0 on a
    /// first incarnation).
    replay_len: u64,
    /// Datagram-plane wiring (UDP transport only).
    udp: Option<UdpPlan>,
}

/// Ship a profiler report to the coordinator as one or more Telemetry
/// frames (chunked so no frame approaches `MAX_FRAME`). The lane
/// directory rides with the first chunk only; the coordinator merges
/// directories across frames.
fn send_report(node: u32, report: afd_prof::Report, writer: &Mutex<TcpStream>) {
    if report.is_empty() {
        return;
    }
    let mut lanes = report.lanes;
    let mut recs = report.recs;
    loop {
        let tail = if recs.len() > TELEM_CHUNK {
            recs.split_off(TELEM_CHUNK)
        } else {
            Vec::new()
        };
        let msg = WireMsg::Telemetry {
            node,
            lanes: std::mem::take(&mut lanes),
            recs,
        };
        {
            let mut w = lock(writer);
            if write_frame(&mut *w, &msg).and_then(|()| w.flush()).is_err() {
                return;
            }
        }
        recs = tail;
        if recs.is_empty() {
            return;
        }
    }
}

impl SystemVisitor for NodeLoop {
    type Out = Result<(), NetError>;

    fn visit<P>(self, sys: &System<P>) -> Result<(), NetError>
    where
        P: Automaton<Action = Action> + Sync,
        P::State: Send,
    {
        let NodeLoop {
            stream,
            hosted,
            cfg,
            node,
            replay_len,
            udp,
        } = self;
        let kinds = sys.component_kinds();
        let comps = sys.composition.components();
        // Hosted components: our process automata, plus — under UDP —
        // every channel whose destination we host (its datagrams land
        // on our socket as arrivals, whose drop/dup/reorder fate the
        // channel's ADD state draws as it steps; its `Receive`
        // proposals ride our commit pipeline).
        let is_udp = udp.is_some();
        let hosts = |k: ComponentKind| match k {
            ComponentKind::Process(l) => hosted.contains(&l),
            ComponentKind::Channel(_, to) => is_udp && hosted.contains(&to),
            _ => false,
        };
        if !kinds.iter().any(|&k| hosts(k)) {
            return Err(NetError::Protocol("assigned no hostable locations".into()));
        }
        let udp_rt = udp.map(|plan| UdpRt {
            chan_comp: kinds
                .iter()
                .enumerate()
                .filter_map(|(idx, k)| match k {
                    ComponentKind::Channel(from, to) if hosted.contains(to) => {
                        Some(((*from, *to), idx))
                    }
                    _ => None,
                })
                .collect(),
            stats: Mutex::new(DgramStats::default()),
            plan,
        });

        let mut reader_stream = stream.try_clone().map_err(NetError::Io)?;
        let port = NodePort {
            writer: Mutex::new(stream),
            stop: AtomicBool::new(false),
            resps: Mutex::new(vec![None; comps.len()]),
            resp_cv: Condvar::new(),
            node,
            udp: udp_rt.as_ref(),
        };
        let eng = Engine::new(comps, &kinds, hosts, &port, &cfg);

        // Replay: apply the committed schedule prefix to every
        // hosted component by signature before going live. Crashes of
        // our own locations are skipped — the point of recovery is
        // that this incarnation resumes from the durably committed
        // protocol state, not from a silenced automaton; the
        // coordinator commits a fresh `Recover` once we are attached.
        for _ in 0..replay_len {
            let msg = read_frame(&mut reader_stream)?
                .ok_or_else(|| NetError::Protocol("coordinator closed during replay".into()))?;
            let WireMsg::Deliver { comp, action } = msg else {
                return Err(NetError::Protocol(format!(
                    "expected replay Deliver, got {msg:?}"
                )));
            };
            if comp != REPLAY_COMP {
                return Err(NetError::Protocol(format!(
                    "replay Deliver tagged component {comp}, expected sentinel"
                )));
            }
            if action.crash_loc().is_some_and(|l| hosted.contains(&l)) {
                continue;
            }
            eng.replay(&action);
        }
        eng.start();

        thread::scope(|s| {
            // Reader: demultiplex coordinator frames — inputs to the
            // engine (which marks the target component ready), commit
            // responses to the blocked activation.
            s.spawn(|| {
                let mut rs = reader_stream;
                loop {
                    match read_frame(&mut rs) {
                        Ok(Some(WireMsg::Deliver { comp, action })) => {
                            eng.deliver(comp as usize, action);
                        }
                        Ok(Some(WireMsg::CommitResp { comp, status })) => {
                            if let Some(slot) = lock(&port.resps).get_mut(comp as usize) {
                                *slot = Some(status);
                            }
                            port.resp_cv.notify_all();
                        }
                        Ok(Some(WireMsg::Stop { .. })) | Ok(None) | Err(_) => break,
                        Ok(Some(_)) => break, // protocol violation: give up
                    }
                }
                port.halt(StopReason::Idle);
                eng.shutdown();
            });

            // UDP receive loop: datagrams in, hosted-channel inboxes
            // out. Exits on the stop flag (20ms socket tick).
            if let Some(rt) = udp_rt.as_ref() {
                let (eng, stop) = (&eng, &port.stop);
                s.spawn(move || {
                    afd_prof::set_lane("dgram-recv");
                    rt.recv_loop(|comp, a| eng.deliver(comp, a), stop);
                    afd_prof::flush_local();
                });
            }

            for k in 0..eng.workers() {
                let eng = &eng;
                s.spawn(move || eng.run_worker(k));
            }
        });
        let chaos = eng.chaos_report();
        drop(eng);
        let writer = port.writer;
        // UDP: ship the datagram-plane accounting (sender + receiver
        // halves) and the hosted channels' chaos accounting before the
        // socket closes; the coordinator's post-stop harvest loop
        // merges both into the run report.
        if let Some(rt) = udp_rt.as_ref() {
            let msg = WireMsg::DgramStats {
                node,
                per_channel: lock(&rt.stats)
                    .per_channel
                    .iter()
                    .map(|(&(from, to), &s)| (from, to, s))
                    .collect(),
                chaos: chaos
                    .per_channel
                    .iter()
                    .map(|(&(from, to), &s)| (from, to, s))
                    .collect(),
            };
            let mut w = lock(&writer);
            let _ = write_frame(&mut *w, &msg).and_then(|()| w.flush());
        }
        // Workers flushed their thread-local profiler buffers on exit
        // (scoped threads joined above); ship whatever the run left
        // behind before the socket closes. The coordinator keeps
        // reading our connection until EOF, so this last frame lands.
        if afd_prof::is_enabled() {
            afd_prof::flush_local();
            send_report(node, afd_prof::take(), &writer);
        }
        Ok(())
    }
}

/// A node's commit port: the blocking `CommitReq`/`CommitResp` round
/// trip to the coordinator, which linearizes the action and does all
/// the routing (inputs for our components come back as `Deliver`
/// frames through the reader thread).
struct NodePort<'a> {
    writer: Mutex<TcpStream>,
    /// Set by the reader thread when the coordinator stops the run or
    /// the connection dies.
    stop: AtomicBool,
    /// Per-component response slot, filled by the reader thread. At
    /// most one request per component is in flight — the activation
    /// holding the component is the only possible waiter.
    resps: Mutex<Vec<Option<CommitStatus>>>,
    resp_cv: Condvar,
    node: u32,
    udp: Option<&'a UdpRt>,
}

impl CommitPort for NodePort<'_> {
    fn commit(&self, from: usize, a: Action) -> Commit {
        let req = WireMsg::CommitReq {
            comp: from as u32,
            action: a,
        };
        let enc = afd_prof::span(afd_prof::Stage::NetEncode);
        let payload = encode_msg(&req);
        enc.done();
        let sock = afd_prof::span(afd_prof::Stage::NetSocket);
        {
            let mut w = lock(&self.writer);
            if write_encoded(&mut *w, &payload)
                .and_then(|()| w.flush())
                .is_err()
            {
                self.halt(StopReason::Idle);
                return Commit::Stopped;
            }
        }
        sock.done();
        // Exactly one response per request: block for it (inputs wait
        // in the inbox, so the state cannot drift). This pins the
        // worker for the round trip, which is fine — the pool is sized
        // for the hosted components, and responses come from the
        // dedicated reader thread.
        let ack = afd_prof::span(afd_prof::Stage::NetAckWait);
        let status = {
            let mut slots = lock(&self.resps);
            loop {
                if let Some(st) = slots[from].take() {
                    break st;
                }
                if self.stopped() {
                    return Commit::Stopped;
                }
                slots = unpoisoned(self.resp_cv.wait_timeout(slots, RESP_WAIT)).0;
            }
        };
        ack.done();
        // Opportunistically stream flushed profiler records so a
        // long run's telemetry doesn't pile up until shutdown.
        if afd_prof::is_enabled() && afd_prof::pending() >= TELEM_STREAM {
            send_report(self.node, afd_prof::take(), &self.writer);
        }
        match status {
            CommitStatus::Accepted => {
                // UDP data plane: a committed `Send` (or stubborn
                // `WireSend`) goes out over the real socket to the
                // node hosting the channel. The coordinator skipped
                // routing it there — the datagram (if the socket
                // delivers it) is the only copy.
                if let Some(rt) = self.udp {
                    if let Action::Send { from, to, .. } | Action::WireSend { from, to, .. } = a {
                        let tx = afd_prof::span(afd_prof::Stage::NetDgramSend);
                        rt.transmit_send(&a, from, to);
                        tx.done();
                    }
                }
                Commit::Accepted
            }
            CommitStatus::Suppressed => Commit::Suppressed,
            CommitStatus::Stopped => {
                self.halt(StopReason::Idle);
                Commit::Stopped
            }
        }
    }

    /// Never called: the coordinator routes.
    fn forward(&self, _target: usize, _a: Action) {}

    fn routes(&self) -> bool {
        false
    }

    /// Nodes run no scripted partitions, the clock's only reader.
    fn events(&self) -> usize {
        0
    }

    fn stopped(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
    }

    /// Crashes reach a node as routed `Crash` inputs (Halt) or as
    /// `SIGKILL` (Kill); it keeps no crash set of its own.
    fn crashed(&self, _l: Loc) -> bool {
        false
    }

    /// Leave the run (the coordinator contains a node that goes away);
    /// wakes any activation blocked on a response.
    fn halt(&self, _reason: StopReason) {
        self.stop.store(true, Ordering::SeqCst);
        drop(lock(&self.resps));
        self.resp_cv.notify_all();
    }
}
