//! # afd-tree — tagged execution trees, valence, and hooks (§8–§9)
//!
//! Executable counterparts of the paper's tree analysis:
//!
//! * [`fdseq`] — ultimately periodic FD sequences `t_D` (with a
//!   seeded generator of members of `T_Ω`);
//! * [`explorer`] — the tagged tree `R^{t_D}` as an `ioa` automaton:
//!   nodes are (config, FD-sequence tag) pairs, task 0 is the FD edge
//!   injecting `t_D` (outputs **and** crashes), and fair *playouts* on
//!   `ioa`'s runner sample fair branches;
//! * [`valence`] — bivalence/univalence estimation (§9.5): playouts
//!   prove bivalence one-sidedly; univalence is an empirical verdict
//!   cross-checked against the theorems;
//! * [`hook`] — the constructive hook search of Lemmas 53–55 plus the
//!   Theorem 59 verification (non-⊥ action tags, shared critical
//!   location, critical location live in `t_D`);
//! * [`exhaustive`] — `ioa`'s bounded sweep over `R^{t_D}`, checking
//!   the §8.3 structural propositions (Prop. 29–32, Theorem 41)
//!   exactly on the explored prefix;
//! * [`simmod`] — the similar-modulo-i relation of §8.3.

//! # Example: find a hook and verify Theorem 59
//!
//! ```
//! use afd_algorithms::consensus::paxos_omega::PaxosOmega;
//! use afd_core::Pi;
//! use afd_system::{Env, ProcessAutomaton, SystemBuilder};
//! use afd_tree::{find_hook, random_t_omega, HookSearchOptions, TaggedTree};
//!
//! let pi = Pi::new(3);
//! let seq = random_t_omega(pi, 1, 42);
//! let procs = pi.iter().map(|i| ProcessAutomaton::new(i, PaxosOmega::new(pi))).collect();
//! let sys = SystemBuilder::new(pi, procs)
//!     .with_env(Env::consensus(pi))
//!     .with_crashes(seq.crash_script())
//!     .build();
//! let tree = TaggedTree::new(&sys, seq);
//! let hook = find_hook(&tree, HookSearchOptions::default()).expect("hook exists");
//! assert!(hook.satisfies_theorem_59());
//! ```

pub mod exhaustive;
pub mod explorer;
pub mod fdseq;
pub mod hook;
pub mod simmod;
pub mod valence;

pub use exhaustive::{
    check_proposition_29, check_theorem_41, explore, fd_events_consumed, Exploration,
};
pub use explorer::{Node, PlayoutOptions, PlayoutOutcome, TaggedTree, TreeLabel};
pub use fdseq::{is_in_t_evp, is_in_t_omega, random_t_evp, random_t_omega, FdPos, FdSeq};
pub use hook::{find_hook, HookKind, HookReport, HookSearchError, HookSearchOptions, HookSurvey};
pub use simmod::similar_modulo_i;
pub use valence::{estimate_valence, Valence, ValenceOptions};
