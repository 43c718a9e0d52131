//! afd-net: multi-process deployment of AFD systems over loopback TCP.
//!
//! The third execution engine, after the deterministic simulator and
//! the threaded chaos runtime: the same `System<P>` compositions run
//! as **separate OS processes** connected by real sockets, so a crash
//! can be a `SIGKILL` and the network can be an actual lossy wire —
//! while the schedule stays a single total order validated online by
//! the same streaming checkers (`StreamChecker`) that gate the
//! in-process engines.
//!
//! # Topology
//!
//! One **coordinator** process owns the run: it spawns N **node**
//! processes, assigns each a subset of Π, owns the `EventSink` commit
//! pipeline (the linearization point), hosts the non-process automata
//! (failure detector, environment, the channels; the crash injector
//! plays the fault script) on its own [`afd_runtime::Engine`], and
//! drives the online checkers over the merged schedule. Every socket
//! is node ↔ coordinator: node-to-node frames are routed *through*
//! the coordinator's channel components, which is what lets one
//! seeded [`afd_runtime::LinkProfile`] plan replay
//! drop/dup/reorder/partition decisions byte-identically across
//! same-seed runs — a chaotic channel starts in the channel automaton's
//! seeded ADD state on whichever engine hosts it, so the plan is
//! interpreted by one `step` function everywhere.
//!
//! Selecting [`Transport::Udp`] moves the node↔node *data* channels
//! onto real `std::net::UdpSocket`s (`afd-dgram` framing) while the
//! control plane — commits, crash injection, stop, telemetry — stays
//! on TCP. Each channel then runs on the engine of the node hosting its
//! destination, where each arriving datagram is a `Send` step of the
//! same seeded ADD state: still one interpreter of the plan.
//! See `DESIGN.md` §14.
//!
//! # Commit protocol
//!
//! A node worker that finds an enabled task sends `CommitReq` and
//! blocks; the coordinator linearizes the action into the sink
//! (crash-suppression included), routes it to every component that
//! takes it as input — engine inboxes for coordinator-hosted automata,
//! `Deliver` frames for node-hosted ones — and answers
//! `CommitResp`. Only on `Accepted` does the worker apply the step.
//! Since routed inputs wait in the worker's queue while it blocks,
//! the accepted action is still enabled when applied, and the merged
//! schedule is a legal schedule of the composed system.
//!
//! # Crash semantics
//!
//! * **Halt** — the coordinator commits `Crash(l)` and routes it like
//!   any input; the hosting node's automaton silences itself.
//! * **Kill** — the coordinator `SIGKILL`s the node's child process,
//!   then commits `Crash(l)` for every location it hosted. No part of
//!   the node cooperates: its sockets just die.
//!
//! See `DESIGN.md` §9 for the full protocol walk-through.

pub mod codec;
pub mod coord;
pub mod deploy;
pub mod node;

pub use codec::{CommitStatus, DecodeError, WireLinkProfile, WireMsg};
pub use coord::{
    run_distributed, Incarnation, NetCheck, NetConfig, NetFault, NetReport, NodeSummary,
    RecoveryPolicy, RecoveryReport, Transport,
};
pub use deploy::{DeploymentSpec, FdKindSpec};
pub use node::{maybe_serve_from_env, serve, ADDR_ENV, EPOCH_ENV, NODE_ID_ENV, REPLAY_COMP};

/// Lock `m` whether or not a panicking holder poisoned it. Everything
/// behind this crate's mutexes (frame writers, telemetry and stats
/// accumulators, response slots, the recovery plane's queues) is
/// updated one whole value at a time, so a holder that panicked left
/// nothing half-written — and a contained panic must not take the
/// run's bookkeeping down with it.
pub(crate) fn lock<T>(m: &std::sync::Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    unpoisoned(m.lock())
}

/// [`lock`]'s poison recovery for the other `LockResult`s (a condvar
/// wait hands the guard back through one).
pub(crate) fn unpoisoned<G>(r: std::sync::LockResult<G>) -> G {
    r.unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Errors surfaced by the distributed runtime.
#[derive(Debug)]
pub enum NetError {
    /// A socket operation failed.
    Io(std::io::Error),
    /// A peer sent bytes the codec rejects.
    Decode(DecodeError),
    /// A peer violated the control protocol (wrong message, wrong
    /// order, unknown component index…).
    Protocol(String),
    /// A node child process could not be spawned.
    Spawn(String),
    /// The configuration is inconsistent with the deployment.
    Config(String),
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::Io(e) => write!(f, "io: {e}"),
            NetError::Decode(e) => write!(f, "decode: {e}"),
            NetError::Protocol(m) => write!(f, "protocol: {m}"),
            NetError::Spawn(m) => write!(f, "spawn: {m}"),
            NetError::Config(m) => write!(f, "config: {m}"),
        }
    }
}

impl std::error::Error for NetError {}

impl From<std::io::Error> for NetError {
    fn from(e: std::io::Error) -> Self {
        // The codec smuggles DecodeErrors through io::Error with
        // InvalidData; unwrap them back into the typed variant.
        if e.kind() == std::io::ErrorKind::InvalidData {
            if let Some(inner) = e.get_ref().and_then(|r| r.downcast_ref::<DecodeError>()) {
                return NetError::Decode(inner.clone());
            }
        }
        NetError::Io(e)
    }
}
