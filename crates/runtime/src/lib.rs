//! `afd-runtime`: a concurrent, multi-threaded execution runtime for
//! AFD systems, with fault injection.
//!
//! Where `afd-system`'s simulator picks one interleaving with a
//! scheduling policy, this crate runs the *same* `System<P>`
//! composition on real OS threads — a sharded, event-driven worker
//! pool ([`exec`]) multiplexing every component automaton — and lets
//! the operating system's scheduler produce the interleaving.
//! Nondeterminism is real, not sampled; the verdict of a run never
//! depends on the pool size ([`RuntimeConfig::with_workers`]), which
//! only selects which legal interleaving is explored.
//!
//! The bridge back to the theory is the [`sink::EventSink`]: every
//! action is committed through one mutex, and the mutex order *is* the
//! schedule (commit happens before the local `step` and before
//! routing, so causes always precede effects in the log). The
//! resulting `Vec<Action>` is a legal schedule of the composition and
//! feeds directly into `RunStats`, the `T_D` membership checkers, and
//! the consensus problem specs — which is how threaded runs are
//! cross-validated against the simulator (see
//! `tests/threaded_cross_validation.rs` at the workspace root).
//!
//! The commit path is deliberately thin: the critical section is only
//! crash-check + append + sequence reservation, with observer dispatch
//! and stop-predicate evaluation running on an in-order drain off the
//! lock (see [`sink`]).
//!
//! The activation loop itself ([`Engine`]) is public and generic over
//! which components it hosts and where a commit lands
//! ([`CommitPort`]): [`run_threaded`] hosts everything and commits
//! into its own sink; `afd-net`'s coordinator and nodes run the same
//! loop over their share of the composition, with a forwarding and a
//! round-trip port respectively.
//!
//! Fault injection:
//! - a crash injector fires the configured `FaultPattern` at global
//!   event-count thresholds, with [`CrashMode::Halt`] (the paper's
//!   model: the automaton survives, silenced) or [`CrashMode::Kill`]
//!   (the component is retired, dropping its queued inputs);
//! - per-channel link profiles ([`LinkFaults`]) delay channel
//!   deliveries (fixed delay plus seeded jitter) and, when a profile
//!   is chaotic, start the channel in the channel automaton's seeded
//!   ADD state ([`start_state`]), which drops, duplicates, and reorders
//!   as it steps, from a deterministic per-channel decision stream
//!   ([`ChannelChaos`] — a pure function of the run seed, exportable
//!   via [`chaos_plan_jsonl`]);
//! - scripted [`Partition`]s cut all channels crossing a location set
//!   for a window of global steps, *holding* (not dropping) traffic so
//!   healing resumes delivery where it stopped.
//!
//! Robustness machinery:
//! - shutdown is structural quiescence detection (commit count stable,
//!   inboxes drained, components parked) instead of a timing
//!   heuristic, and the engine contains no timed polls: pool workers
//!   park on per-shard condvars and the crash injector blocks on a
//!   sink length-watch ([`EventSink::wait_len_at_least`]);
//! - a watchdog stops stalled runs with [`StopReason::Watchdog`] and a
//!   [`RunDiagnostic`] dump instead of hanging forever (e.g. under an
//!   eternal partition);
//! - worker panics are contained: a panicking process becomes a
//!   `Crash` event at its location, any other worker panic stops the
//!   run with [`StopReason::Panicked`] — either way with a diagnostic;
//! - [`RuntimeConfig::validate`] rejects malformed fault scripts with
//!   a typed [`ConfigError`] before any thread spawns
//!   ([`try_run_threaded`]).
//!
//! The crate is deliberately std-only: threads, mutexes, condvars,
//! atomics — no async runtime.

pub mod chaos;
pub mod config;
pub mod exec;
pub mod harness;
pub mod runtime;
pub mod sink;
pub use afd_system::rng;

pub use chaos::{chaos_plan_jsonl, ChannelChaos, ChannelChaosStats, ChaosDecision, ChaosReport};
pub use config::{
    validate_loc_capacity, ConfigError, CrashMode, LinkFaults, LinkProfile, Partition,
    RuntimeConfig, StopPredicate, StreamPredicate, StreamPredicateFactory,
};
pub use harness::{check_fd_trace, fd_projection, fifo_violation, FifoViolation};
pub use runtime::{
    run_threaded, start_state, try_run_threaded, CommitPort, Engine, RunDiagnostic, RuntimeOutcome,
};
pub use sink::{Commit, EventSink, SinkOptions, StopReason, CRASH_CAPACITY};
