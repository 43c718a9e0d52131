//! # afd-system — the asynchronous system model (§4, Figure 1)
//!
//! A system is the composition of:
//!
//! * one **process automaton** per location ([`process`], §4.2 —
//!   deterministic, crash-disabled, built from a [`process::LocalBehavior`]);
//! * **reliable FIFO channels** `C_{i,j}` for every ordered pair
//!   ([`channel`], §4.3), each of which may instead start in a seeded
//!   ADD state that drops, duplicates and reorders ([`chaos`]);
//! * the **crash automaton** ([`crash`], §4.4 — no fairness
//!   obligations; timing comes from a [`crash::FaultPattern`]);
//! * an **environment automaton** ([`environment`], §4.5 — including
//!   `E_C` of Algorithm 4);
//! * optionally a **failure-detector automaton**
//!   ([`afd_core::automata::FdGen`]).
//!
//! [`system::SystemBuilder`] wires the composition (Figure 1) and
//! aligns every task with a §8 [`component::Label`]; [`sim`] produces
//! fair executions under round-robin, seeded-random, or adversarial
//! schedulers; [`refuter`] is the executable §3.4 argument that no
//! automaton implements Marabout.
//!
//! # Example: run the Ω generator inside a full system
//!
//! ```
//! use afd_core::automata::FdGen;
//! use afd_core::{AfdSpec, Loc, Pi};
//! use afd_system::{run_random, Env, FaultPattern, SimConfig, SystemBuilder};
//!
//! // Processes that just listen (the self-implementation algorithm).
//! use afd_system::{LocalBehavior, ProcessAutomaton};
//! #[derive(Debug, Clone)]
//! struct Idle;
//! impl LocalBehavior for Idle {
//!     type State = ();
//!     fn proto_name(&self) -> String { "idle".into() }
//!     fn init(&self, _i: Loc) {}
//!     fn is_input(&self, i: Loc, a: &afd_core::Action) -> bool {
//!         matches!(a, afd_core::Action::Fd { at, .. } if *at == i)
//!     }
//!     fn is_output(&self, _i: Loc, _a: &afd_core::Action) -> bool { false }
//!     fn on_input(&self, _i: Loc, _s: &mut (), _a: &afd_core::Action) {}
//!     fn output(&self, _i: Loc, _s: &()) -> Option<afd_core::Action> { None }
//!     fn on_output(&self, _i: Loc, _s: &mut (), _a: &afd_core::Action) {}
//! }
//!
//! let pi = Pi::new(3);
//! let procs = pi.iter().map(|i| ProcessAutomaton::new(i, Idle)).collect();
//! let sys = SystemBuilder::new(pi, procs)
//!     .with_fd(FdGen::omega(pi))
//!     .with_env(Env::None)
//!     .with_crashes(vec![Loc(0)])
//!     .build();
//! let out = run_random(
//!     &sys,
//!     7,
//!     SimConfig::default().with_faults(FaultPattern::at(vec![(9, Loc(0))])).with_max_steps(80),
//! );
//! let fd_trace: Vec<_> =
//!     out.schedule().iter().filter(|a| a.is_crash() || a.is_fd_output()).copied().collect();
//! assert!(afd_core::afds::Omega.check_complete(pi, &fd_trace).is_ok());
//! ```

pub mod channel;
pub mod chaos;
pub mod component;
pub mod crash;
pub mod environment;
pub mod process;
pub mod refuter;
pub mod rng;
pub mod sim;
pub mod stats;
pub mod system;

pub use channel::{Alphabet, Channel, ChannelState};
pub use chaos::{ChannelChaos, ChannelChaosStats, ChaosDecision, LinkProfile};
pub use component::{Component, ComponentKind, ComponentState, Label};
pub use crash::{CrashAdversary, FaultPattern};
pub use environment::{Env, EnvState};
pub use process::{LocalBehavior, ProcState, ProcessAutomaton};
pub use refuter::{refute_marabout, RefutationWitness};
pub use rng::SplitMix64;
pub use sim::{crash_midway, run_random, run_round_robin, run_sim, SimConfig, SimOutcome};
pub use stats::{RunStats, RunStatsStream};
pub use system::{System, SystemBuilder};

// A channel state never sets `ComponentState`'s size: the ADD state's
// adversary is boxed, so a channel costs a queue and a pointer.
const _: () = assert!(size_of::<ChannelState>() <= size_of::<afd_core::automata::FdGenState>());
