//! # afd-core — Asynchronous Failure Detectors
//!
//! The primary contribution of *"Asynchronous Failure Detectors"*
//! (Cornejo, Lynch, Sastry; MIT-CSAIL-TR-2013-025 / PODC 2012) as an
//! executable Rust library:
//!
//! * [`loc`] — the location universe Π, [`loc::Loc`] and [`loc::LocSet`];
//! * [`action`] — the concrete action alphabet (crashes, sends/receives,
//!   FD outputs, problem I/O) with `loc(a)` semantics (§3.1);
//! * [`trace`] — valid sequences, samplings, constrained reorderings
//!   (§3.2), and checkers/generators for each;
//! * [`afd`] — the [`afd::AfdSpec`] trait: an AFD as a crash problem with
//!   crash exclusivity plus the three AFD axioms, checked over finite
//!   traces under the complete-run convention;
//! * [`afds`] — Ω, P, ◇P, S, ◇S, Σ, anti-Ω, Ω^k, Ψ^k as AFDs (§3.3), and
//!   Marabout / D_k as the non-AFD counterexamples (§3.4);
//! * [`automata`] — the canonical generator automata (Algorithms 1 & 2
//!   and their generalizations), including scripted replay for the
//!   execution-tree analysis;
//! * [`problem`] / [`problems`] — crash problems, bounded problems
//!   (§7.3), and concrete specs: consensus (§9.1), leader election,
//!   reliable broadcast, k-set agreement.
//!
//! # Example: Algorithm 1's fair traces lie in `T_Ω`
//!
//! ```
//! use afd_core::afd::AfdSpec;
//! use afd_core::afds::Omega;
//! use afd_core::automata::FdGen;
//! use afd_core::loc::Pi;
//! use ioa::{RoundRobin, RunOptions, Runner};
//!
//! let pi = Pi::new(3);
//! let gen = FdGen::omega(pi);
//! let exec = Runner::new(&gen)
//!     .run(&mut RoundRobin::new(), RunOptions::default().with_max_steps(30));
//! assert!(Omega.check_complete(pi, &exec.actions).is_ok());
//! ```

pub mod action;
pub mod afd;
pub mod afds;
pub mod automata;
pub mod fd;
pub mod loc;
pub mod message;
pub mod problem;
pub mod problems;
pub mod stamp;
pub mod stream;
pub mod trace;

pub use action::Action;
pub use afd::AfdSpec;
pub use fd::FdOutput;
pub use loc::{Loc, LocSet, Pi};
pub use message::{Ballot, Frame, Msg, Val};
pub use problem::ProblemSpec;
pub use stamp::Stamped;
pub use stream::StreamChecker;
pub use trace::Violation;

// Layout pins. The action alphabet moves by value through every engine
// — sink, channel queues, observers, the retained schedule — so its
// size is a memory and copy budget. `LocSet` is 16 bytes at 4-byte
// alignment (see [`loc`]); a 16-aligned `u128` would pad `Action` back
// to 96 bytes and fail these.
const _: () = {
    assert!(std::mem::size_of::<LocSet>() == 16);
    assert!(std::mem::size_of::<Action>() <= 56);
    assert!(std::mem::size_of::<Msg>() <= 40);
    assert!(std::mem::size_of::<Frame>() <= 48);
    assert!(std::mem::size_of::<FdOutput>() <= 36);
};
