//! Executable I/O automata.
//!
//! This crate implements the I/O-automata framework of Lynch's *Distributed
//! Algorithms* (chapter 8) as used by "Asynchronous Failure Detectors"
//! (Cornejo, Lynch, Sastry): state machines with *input*, *output*, and
//! *internal* actions, locally controlled actions partitioned into *tasks*,
//! parallel **composition** by matching same-named actions, **hiding**,
//! and **fair executions** driven by pluggable schedulers.
//!
//! The framework restricts attention to *task-deterministic* automata
//! (at most one action per task enabled in any state, and deterministic
//! transitions), which is exactly the class the paper's system model
//! needs (§2.5, §4): process automata, channel automata, environment
//! automata, and failure-detector automata are all task deterministic.
//!
//! # Example
//!
//! ```
//! use ioa::{Automaton, ActionClass, TaskId, RoundRobin, Runner, RunOptions};
//!
//! /// A one-shot automaton that outputs `Ping` once and stops.
//! #[derive(Debug, Clone)]
//! struct Pinger;
//!
//! #[derive(Debug, Clone, PartialEq, Eq, Hash)]
//! enum Act { Ping }
//!
//! #[derive(Debug, Clone, PartialEq, Eq, Hash)]
//! struct St { fired: bool }
//!
//! impl Automaton for Pinger {
//!     type Action = Act;
//!     type State = St;
//!     fn name(&self) -> String { "pinger".into() }
//!     fn initial_state(&self) -> St { St { fired: false } }
//!     fn classify(&self, _a: &Act) -> Option<ActionClass> { Some(ActionClass::Output) }
//!     fn task_count(&self) -> usize { 1 }
//!     fn enabled(&self, s: &St, _t: TaskId) -> Option<Act> {
//!         if s.fired { None } else { Some(Act::Ping) }
//!     }
//!     fn apply(&self, s: &mut St, a: &Act) -> bool {
//!         match a { Act::Ping if !s.fired => { s.fired = true; true } _ => false }
//!     }
//! }
//!
//! let m = Pinger;
//! let exec = Runner::new(&m).run(&mut RoundRobin::new(), RunOptions::default());
//! assert_eq!(exec.actions, vec![Act::Ping]);
//! ```

pub mod automaton;
pub mod composition;
pub mod determinism;
pub mod execution;
pub mod explore;
pub mod fairness;
pub mod runner;
pub mod scheduler;
pub mod seq;

pub use automaton::{ActionClass, Automaton, TaskId};
pub use composition::{CompositeState, Composition, GlobalTask, SignatureError};
pub use determinism::{check_input_enabled, check_task_determinism, DeterminismError};
pub use execution::{Execution, StatePolicy};
pub use explore::{check_invariant, reachable_states, Edge, Sweep};
pub use fairness::{fairness_report, is_quiescently_fair, FairnessReport};
pub use runner::{RunOptions, Runner, StopReason};
pub use scheduler::{Adversarial, RandomFair, RoundRobin, Scheduler};
