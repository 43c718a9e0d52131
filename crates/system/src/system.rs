//! The system composition of Figure 1: a distributed algorithm `A`
//! (one process automaton per location), the `n(n−1)` reliable FIFO
//! channels, the crash automaton, an environment automaton, and
//! optionally a failure-detector automaton.

use afd_core::automata::FdGen;
use afd_core::{Action, Loc, Pi};
use ioa::{Automaton, Composition, TaskId};

use crate::channel::{Alphabet, Channel};
use crate::component::{Component, ComponentKind, Label};
use crate::crash::CrashAdversary;
use crate::environment::Env;

/// A fully wired system: the composition plus the Π/topology metadata
/// needed to interpret tasks and traces.
#[derive(Debug)]
pub struct System<P>
where
    P: Automaton<Action = Action>,
{
    /// The universe Π.
    pub pi: Pi,
    /// The composition of all components (Figure 1).
    pub composition: Composition<Component<P>>,
    labels: Vec<Label>,
    fd_present: bool,
}

/// Builder for [`System`].
#[derive(Debug)]
pub struct SystemBuilder<P>
where
    P: Automaton<Action = Action>,
{
    pi: Pi,
    processes: Vec<P>,
    env: Env,
    fd: Option<FdGen>,
    crash_script: Vec<Loc>,
    label: String,
    alphabet: Alphabet,
}

impl<P> SystemBuilder<P>
where
    P: Automaton<Action = Action>,
{
    /// Start building a system over `pi` with one process per location
    /// (in location order).
    ///
    /// # Panics
    /// Panics if `processes.len() != pi.len()`.
    #[must_use]
    pub fn new(pi: Pi, processes: Vec<P>) -> Self {
        assert_eq!(
            processes.len(),
            pi.len(),
            "one process automaton per location"
        );
        SystemBuilder {
            pi,
            processes,
            env: Env::None,
            fd: None,
            crash_script: Vec::new(),
            label: "system".into(),
            alphabet: Alphabet::Msg,
        }
    }

    /// Give every channel the wire alphabet ([`Alphabet::Wire`], frame
    /// transport for the reliable-channel layer) instead of the paper's
    /// app-level [`Alphabet::Msg`]. The wiring order and `Label::Chan`
    /// labels are unchanged; only the channel alphabet differs.
    #[must_use]
    pub fn with_wire_channels(mut self) -> Self {
        self.alphabet = Alphabet::Wire;
        self
    }

    /// Attach an environment automaton (§4.5).
    #[must_use]
    pub fn with_env(mut self, env: Env) -> Self {
        self.env = env;
        self
    }

    /// Attach a failure-detector automaton.
    #[must_use]
    pub fn with_fd(mut self, fd: FdGen) -> Self {
        self.fd = Some(fd);
        self
    }

    /// Script the crash order (timing is supplied to the simulator).
    #[must_use]
    pub fn with_crashes(mut self, script: Vec<Loc>) -> Self {
        self.crash_script = script;
        self
    }

    /// Diagnostic label for the composition.
    #[must_use]
    pub fn with_label(mut self, label: impl Into<String>) -> Self {
        self.label = label.into();
        self
    }

    /// Wire everything up. Component order: processes (by location),
    /// channels (lexicographic `(i, j)`, `i ≠ j`), crash automaton,
    /// environment, failure detector (if any).
    #[must_use]
    pub fn build(self) -> System<P> {
        let pi = self.pi;
        let mut components: Vec<Component<P>> = Vec::new();
        let mut labels: Vec<Label> = Vec::new();
        for (idx, p) in self.processes.into_iter().enumerate() {
            let i = Loc(u8::try_from(idx).expect("≤ 128 locations"));
            for _ in 0..p.task_count() {
                labels.push(Label::Proc(i));
            }
            components.push(Component::Process(p));
        }
        for i in pi.iter() {
            for j in pi.iter() {
                if i != j {
                    components.push(Component::Channel(Channel::new(i, j, self.alphabet)));
                    labels.push(Label::Chan(i, j));
                }
            }
        }
        components.push(Component::Crash(CrashAdversary::new(self.crash_script)));
        // zero tasks for the crash automaton
        let env = self.env;
        let env_tasks_per_loc = env.task_index_set_size();
        match &env {
            Env::Broadcast { .. } => labels.push(Label::EnvGlobal),
            Env::None => {}
            _ => {
                for i in pi.iter() {
                    for x in 0..env_tasks_per_loc {
                        labels.push(Label::Env(i, x));
                    }
                }
            }
        }
        components.push(Component::Env(env));
        let fd_present = self.fd.is_some();
        if let Some(fd) = self.fd {
            for i in pi.iter() {
                labels.push(Label::Fd(i));
            }
            components.push(Component::Fd(fd));
        }
        let composition = Composition::new(components).with_label(self.label);
        debug_assert_eq!(
            labels.len(),
            composition.task_count(),
            "label/task alignment"
        );
        System {
            pi,
            composition,
            labels,
            fd_present,
        }
    }
}

impl<P> System<P>
where
    P: Automaton<Action = Action>,
{
    /// The §8 label of a global task.
    ///
    /// # Panics
    /// Panics if `t` is out of range.
    #[must_use]
    pub fn label(&self, t: TaskId) -> Label {
        self.labels[t.0]
    }

    /// All labels, aligned with global task indices.
    #[must_use]
    pub fn labels(&self) -> &[Label] {
        &self.labels
    }

    /// The global task carrying a given label, if present.
    #[must_use]
    pub fn task_of(&self, label: Label) -> Option<TaskId> {
        self.labels.iter().position(|&l| l == label).map(TaskId)
    }

    /// Whether a failure detector automaton is part of the composition.
    #[must_use]
    pub fn has_fd(&self) -> bool {
        self.fd_present
    }

    /// The crash automaton's scripted crash order
    /// ([`SystemBuilder::with_crashes`]).
    #[must_use]
    pub fn crash_script(&self) -> &[Loc] {
        self.composition
            .components()
            .iter()
            .find_map(|c| match c {
                Component::Crash(adv) => Some(adv.script.as_slice()),
                _ => None,
            })
            .unwrap_or_default()
    }

    /// The structural kind of every component, aligned with
    /// `composition.components()` indices.
    ///
    /// Process locations are recovered from the builder's documented
    /// wiring order (processes appear first, in location order);
    /// channel endpoints come from the channel automata themselves.
    /// External drivers — notably the threaded runtime in
    /// `afd-runtime` — use this to give each component a concrete
    /// identity without inspecting the generic process type `P`.
    #[must_use]
    pub fn component_kinds(&self) -> Vec<ComponentKind> {
        let mut next_proc: u8 = 0;
        self.composition
            .components()
            .iter()
            .map(|c| match c {
                Component::Process(_) => {
                    let i = Loc(next_proc);
                    next_proc += 1;
                    ComponentKind::Process(i)
                }
                Component::Channel(ch) => ComponentKind::Channel(ch.from, ch.to),
                Component::Crash(_) => ComponentKind::Crash,
                Component::Env(_) => ComponentKind::Env,
                Component::Fd(_) => ComponentKind::Fd,
            })
            .collect()
    }

    /// Verify the Figure 1 wiring: no action is controlled twice, and
    /// process/channel/FD signatures match up. `probe` supplies sample
    /// actions (e.g. from a recorded trace).
    ///
    /// # Errors
    /// The first signature conflict found.
    pub fn validate(&self, probe: &[Action]) -> Result<(), ioa::SignatureError> {
        self.composition.validate_signature(probe)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::process::{LocalBehavior, ProcessAutomaton};
    use afd_core::Msg;

    /// A minimal protocol: each process sends one `Token` to its right
    /// neighbour, then relays tokens it receives to the environment as
    /// a `Decide` (just to exercise outputs).
    #[derive(Debug, Clone)]
    struct Ring {
        n: u8,
    }

    #[derive(Debug, Clone, PartialEq, Eq, Hash)]
    struct RingState {
        sent: bool,
        got: Option<u64>,
        decided: bool,
    }

    impl LocalBehavior for Ring {
        type State = RingState;
        fn proto_name(&self) -> String {
            "ring".into()
        }
        fn init(&self, _i: Loc) -> RingState {
            RingState {
                sent: false,
                got: None,
                decided: false,
            }
        }
        fn is_input(&self, i: Loc, a: &Action) -> bool {
            matches!(a, Action::Receive { to, .. } if *to == i)
        }
        fn is_output(&self, i: Loc, a: &Action) -> bool {
            matches!(a, Action::Send { from, .. } if *from == i)
                || matches!(a, Action::Decide { at, .. } if *at == i)
        }
        fn on_input(&self, _i: Loc, s: &mut RingState, a: &Action) {
            if let Action::Receive {
                msg: Msg::Token(v), ..
            } = a
            {
                s.got = Some(*v);
            }
        }
        fn output(&self, i: Loc, s: &RingState) -> Option<Action> {
            if !s.sent {
                let to = Loc((i.0 + 1) % self.n);
                return Some(Action::Send {
                    from: i,
                    to,
                    msg: Msg::Token(u64::from(i.0)),
                });
            }
            match (s.got, s.decided) {
                (Some(v), false) => Some(Action::Decide { at: i, v }),
                _ => None,
            }
        }
        fn on_output(&self, _i: Loc, s: &mut RingState, a: &Action) {
            match a {
                Action::Send { .. } => s.sent = true,
                Action::Decide { .. } => s.decided = true,
                _ => {}
            }
        }
    }

    fn build(n: usize) -> System<ProcessAutomaton<Ring>> {
        let pi = Pi::new(n);
        let procs = pi
            .iter()
            .map(|i| ProcessAutomaton::new(i, Ring { n: n as u8 }))
            .collect();
        SystemBuilder::new(pi, procs)
            .with_fd(FdGen::omega(pi))
            .with_label("ring-test")
            .build()
    }

    #[test]
    fn figure1_wiring_component_count() {
        let sys = build(3);
        // 3 processes + 6 channels + crash + env + fd = 12.
        assert_eq!(sys.composition.components().len(), 12);
        // Tasks: 3 proc + 6 chan + 0 crash + 0 env + 3 fd = 12.
        assert_eq!(sys.composition.task_count(), 12);
    }

    #[test]
    fn labels_align_with_tasks() {
        let sys = build(2);
        assert_eq!(sys.label(TaskId(0)), Label::Proc(Loc(0)));
        assert_eq!(sys.label(TaskId(1)), Label::Proc(Loc(1)));
        assert_eq!(sys.label(TaskId(2)), Label::Chan(Loc(0), Loc(1)));
        assert_eq!(sys.label(TaskId(3)), Label::Chan(Loc(1), Loc(0)));
        assert_eq!(sys.label(TaskId(4)), Label::Fd(Loc(0)));
        assert_eq!(sys.label(TaskId(5)), Label::Fd(Loc(1)));
        assert_eq!(sys.task_of(Label::Chan(Loc(1), Loc(0))), Some(TaskId(3)));
        assert_eq!(sys.task_of(Label::Env(Loc(0), 0)), None);
        assert!(sys.has_fd());
    }

    #[test]
    fn component_kinds_follow_wiring_order() {
        use crate::component::ComponentKind;
        let sys = build(2);
        assert_eq!(
            sys.component_kinds(),
            vec![
                ComponentKind::Process(Loc(0)),
                ComponentKind::Process(Loc(1)),
                ComponentKind::Channel(Loc(0), Loc(1)),
                ComponentKind::Channel(Loc(1), Loc(0)),
                ComponentKind::Crash,
                ComponentKind::Env,
                ComponentKind::Fd,
            ]
        );
    }

    #[test]
    fn wire_mode_swaps_channel_alphabet_only() {
        use crate::component::ComponentKind;
        let pi = Pi::new(2);
        let procs = pi
            .iter()
            .map(|i| ProcessAutomaton::new(i, Ring { n: 2 }))
            .collect::<Vec<_>>();
        let sys = SystemBuilder::new(pi, procs).with_wire_channels().build();
        // Same labels and kinds as app-channel mode.
        assert_eq!(sys.label(TaskId(2)), Label::Chan(Loc(0), Loc(1)));
        assert_eq!(sys.label(TaskId(3)), Label::Chan(Loc(1), Loc(0)));
        assert!(sys
            .component_kinds()
            .contains(&ComponentKind::Channel(Loc(1), Loc(0))));
        // But the channels are wire channels over frames.
        let alphabets: Vec<_> = sys
            .composition
            .components()
            .iter()
            .filter_map(|c| match c {
                Component::Channel(ch) => Some(ch.alphabet),
                _ => None,
            })
            .collect();
        assert_eq!(alphabets, [Alphabet::Wire; 2]);
    }

    #[test]
    fn signature_validates_on_probe_actions() {
        let sys = build(3);
        let probe = vec![
            Action::Crash(Loc(0)),
            Action::Send {
                from: Loc(0),
                to: Loc(1),
                msg: Msg::Token(0),
            },
            Action::Receive {
                from: Loc(0),
                to: Loc(1),
                msg: Msg::Token(0),
            },
            Action::Fd {
                at: Loc(2),
                out: afd_core::FdOutput::Leader(Loc(0)),
            },
            Action::Decide { at: Loc(1), v: 0 },
        ];
        assert!(sys.validate(&probe).is_ok());
    }

    #[test]
    fn composite_run_delivers_messages() {
        use ioa::{RoundRobin, RunOptions, Runner};
        let sys = build(3);
        let exec = Runner::new(&sys.composition).run(
            &mut RoundRobin::new(),
            RunOptions::default().with_max_steps(200),
        );
        let decides: Vec<_> = exec
            .actions
            .iter()
            .filter(|a| matches!(a, Action::Decide { .. }))
            .collect();
        assert_eq!(decides.len(), 3, "every process decided: {decides:?}");
        // Message from p2 wraps to p0.
        assert!(exec.actions.contains(&Action::Receive {
            from: Loc(2),
            to: Loc(0),
            msg: Msg::Token(2)
        }));
    }

    #[test]
    fn env_consensus_labels() {
        let pi = Pi::new(2);
        let procs = pi
            .iter()
            .map(|i| ProcessAutomaton::new(i, Ring { n: 2 }))
            .collect::<Vec<_>>();
        let sys = SystemBuilder::new(pi, procs)
            .with_env(Env::consensus(pi))
            .build();
        // 2 proc + 2 chan + 4 env tasks.
        assert_eq!(sys.composition.task_count(), 8);
        assert_eq!(sys.label(TaskId(4)), Label::Env(Loc(0), 0));
        assert_eq!(sys.label(TaskId(7)), Label::Env(Loc(1), 1));
        assert!(!sys.has_fd());
    }

    #[test]
    #[should_panic(expected = "one process automaton per location")]
    fn builder_checks_process_count() {
        let pi = Pi::new(3);
        let procs = vec![ProcessAutomaton::new(Loc(0), Ring { n: 3 })];
        let _ = SystemBuilder::new(pi, procs);
    }
}
