//! The component universe of a system (Figure 1): processes, channels,
//! the crash automaton, the environment, and the failure detector, all
//! unified into one [`Component`] type so [`ioa::Composition`] can
//! compose them.

use afd_core::automata::{FdGen, FdGenState};
use afd_core::{Action, Loc};
use ioa::{ActionClass, Automaton, TaskId};

use crate::channel::{Channel, ChannelState};
use crate::crash::{CrashAdversary, CrashState};
use crate::environment::{Env, EnvState};

/// One component of a system composition. `P` is the process-automaton
/// type (each location gets one `P`).
#[derive(Debug, Clone)]
pub enum Component<P> {
    /// The process automaton at one location (§4.2).
    Process(P),
    /// A channel (§4.3), over either alphabet.
    Channel(Channel),
    /// The crash automaton (§4.4).
    Crash(CrashAdversary),
    /// The environment automaton (§4.5).
    Env(Env),
    /// The failure-detector automaton.
    Fd(FdGen),
}

/// State of a [`Component`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum ComponentState<S> {
    /// Process state.
    Process(S),
    /// Channel state, FIFO or ADD.
    Channel(ChannelState),
    /// Crash-automaton state.
    Crash(CrashState),
    /// Environment state.
    Env(EnvState),
    /// Failure-detector state.
    Fd(FdGenState),
}

impl<P> Automaton for Component<P>
where
    P: Automaton<Action = Action>,
{
    type Action = Action;
    type State = ComponentState<P::State>;

    fn name(&self) -> String {
        match self {
            Component::Process(p) => p.name(),
            Component::Channel(c) => c.name(),
            Component::Crash(c) => c.name(),
            Component::Env(e) => e.name(),
            Component::Fd(f) => f.name(),
        }
    }

    fn initial_state(&self) -> Self::State {
        match self {
            Component::Process(p) => ComponentState::Process(p.initial_state()),
            Component::Channel(c) => ComponentState::Channel(c.initial_state()),
            Component::Crash(c) => ComponentState::Crash(c.initial_state()),
            Component::Env(e) => ComponentState::Env(e.initial_state()),
            Component::Fd(f) => ComponentState::Fd(f.initial_state()),
        }
    }

    fn classify(&self, a: &Action) -> Option<ActionClass> {
        match self {
            Component::Process(p) => p.classify(a),
            Component::Channel(c) => c.classify(a),
            Component::Crash(c) => c.classify(a),
            Component::Env(e) => e.classify(a),
            Component::Fd(f) => f.classify(a),
        }
    }

    /// [`Action::route_key`]: every arm classifies payload-independently,
    /// and so must `P` (`tests/apply_contract.rs` checks the contract).
    fn route_key(a: &Action) -> Option<u64> {
        Some(a.route_key())
    }

    fn task_count(&self) -> usize {
        match self {
            Component::Process(p) => p.task_count(),
            Component::Channel(c) => c.task_count(),
            Component::Crash(c) => c.task_count(),
            Component::Env(e) => e.task_count(),
            Component::Fd(f) => f.task_count(),
        }
    }

    fn enabled(&self, s: &Self::State, t: TaskId) -> Option<Action> {
        match (self, s) {
            (Component::Process(p), ComponentState::Process(s)) => p.enabled(s, t),
            (Component::Channel(c), ComponentState::Channel(s)) => c.enabled(s, t),
            (Component::Crash(c), ComponentState::Crash(s)) => c.enabled(s, t),
            (Component::Env(e), ComponentState::Env(s)) => e.enabled(s, t),
            (Component::Fd(f), ComponentState::Fd(s)) => f.enabled(s, t),
            _ => {
                debug_assert!(false, "component/state kind mismatch");
                None
            }
        }
    }

    fn apply(&self, s: &mut Self::State, a: &Action) -> bool {
        match (self, s) {
            (Component::Process(p), ComponentState::Process(s)) => p.apply(s, a),
            (Component::Channel(c), ComponentState::Channel(s)) => c.apply(s, a),
            (Component::Crash(c), ComponentState::Crash(s)) => c.apply(s, a),
            (Component::Env(e), ComponentState::Env(s)) => e.apply(s, a),
            (Component::Fd(f), ComponentState::Fd(s)) => f.apply(s, a),
            _ => {
                debug_assert!(false, "component/state kind mismatch");
                false
            }
        }
    }
}

/// The structural kind of a component, with its wiring metadata.
///
/// External drivers (the threaded runtime in `afd-runtime`, diagnostic
/// tooling) need to know *what* each component of a composition is —
/// which location a process serves, which ordered pair a channel
/// transports — without inspecting the generic process type `P`.
/// [`crate::system::System::component_kinds`] recovers this from the
/// builder's documented component order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ComponentKind {
    /// The process automaton at a location.
    Process(Loc),
    /// The channel `C_{from,to}`.
    Channel(Loc, Loc),
    /// The crash automaton.
    Crash,
    /// The environment automaton.
    Env,
    /// The failure-detector automaton.
    Fd,
}

/// The §8 edge labels `L = {FD} ∪ {Proc_i} ∪ {Chan_{i,j}} ∪ {Env_{i,x}}`,
/// identifying which component/task an edge of the execution tree
/// exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Label {
    /// The failure-detector task group (one label per FD task; the
    /// paper's tree uses a single `FD` label because its detector has
    /// one output stream — ours carries the location for precision).
    Fd(Loc),
    /// The process task at a location.
    Proc(Loc),
    /// The channel task of `C_{from,to}`.
    Chan(Loc, Loc),
    /// Environment task `Env_{i,x}`.
    Env(Loc, usize),
    /// The broadcast environment's single (location-free) task.
    EnvGlobal,
}

impl std::fmt::Display for Label {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Label::Fd(i) => write!(f, "FD_{i}"),
            Label::Proc(i) => write!(f, "Proc_{i}"),
            Label::Chan(i, j) => write!(f, "Chan_{i},{j}"),
            Label::Env(i, x) => write!(f, "Env_{i},{x}"),
            Label::EnvGlobal => write!(f, "Env"),
        }
    }
}
