//! The tagged tree `R^{t_D}` (§8.1–§8.2) as an `ioa` automaton.
//!
//! A node is a pair (config tag, FD-sequence tag): the composite state
//! of the system plus the canonical position in `t_D`. Task 0 is the
//! `FD` edge (perform `head(t_N)`, advancing the FD-sequence tag) and
//! task `k + 1` is the composition's task `k` (`Proc_i`, `Chan_{i,j}`,
//! `Env_{i,x}`). An edge whose action tag is ⊥ is a disabled task and
//! leaves the node unchanged (§8.2). Playouts run on [`Runner`].
//!
//! The systems analysed here are built **without** a failure-detector
//! component: the FD edge injects `t_D`'s events (outputs *and*
//! crashes) directly, exactly as the paper's tagging does.

use afd_core::{Action, Val};
use afd_system::{ComponentState, Label, LocalBehavior, ProcState, ProcessAutomaton, System};
use ioa::{
    ActionClass, Automaton, Execution, RandomFair, RunOptions, Runner, Scheduler, StatePolicy,
    TaskId,
};

use crate::fdseq::{FdPos, FdSeq};

/// A node of `R^{t_D}` for behavior `B`: the tree automaton's state.
pub type Node<B> = TaggedNode<<B as LocalBehavior>::State>;

/// A node of `R^{t_D}` over process states `S`: config tag +
/// FD-sequence tag.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TaggedNode<S> {
    /// The FD-sequence tag `t_N`, canonically.
    pub pos: FdPos,
    /// The config tag `c_N`.
    pub config: Vec<ComponentState<ProcState<S>>>,
}

/// The tree automaton's FD edge.
pub const FD_TASK: TaskId = TaskId(0);

/// An edge label of the tagged tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum TreeLabel {
    /// The FD edge.
    Fd,
    /// A task edge, carrying the §8 label and the composition's task.
    Task(Label, TaskId),
}

impl TreeLabel {
    /// The tree automaton's task for this label.
    #[must_use]
    pub fn task(self) -> TaskId {
        match self {
            TreeLabel::Fd => FD_TASK,
            TreeLabel::Task(_, t) => TaskId(t.0 + 1),
        }
    }
}

impl std::fmt::Display for TreeLabel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TreeLabel::Fd => write!(f, "FD"),
            TreeLabel::Task(l, _) => write!(f, "{l}"),
        }
    }
}

/// The tagged tree for one system and one `t_D`.
#[derive(Debug)]
pub struct TaggedTree<'a, B: LocalBehavior> {
    /// The system (composition without an FD component).
    pub sys: &'a System<ProcessAutomaton<B>>,
    /// The FD sequence `t_D`.
    pub seq: FdSeq,
    /// A playout's steering ([`PlayoutOptions::steer_env`]): with
    /// `Some(v)`, environment tasks for values other than `v` are
    /// disabled, so proposals can only be `v`.
    steer: Option<Val>,
}

impl<'a, B: LocalBehavior> TaggedTree<'a, B> {
    /// Build the tree view. The system must have been built without an
    /// FD component (the FD edge supplies `t_D` instead) and with a
    /// crash script matching `seq`'s crash order.
    ///
    /// # Panics
    /// Panics if the system contains an FD component, or if its crash
    /// script is not `seq.crash_script()`: the crash automaton would
    /// refuse a `t_D` crash it does not have pending, and the FD edge
    /// would advance past it without crashing anything.
    #[must_use]
    pub fn new(sys: &'a System<ProcessAutomaton<B>>, seq: FdSeq) -> Self {
        assert!(
            !sys.has_fd(),
            "tree systems take t_D via the FD edge, not an FD automaton"
        );
        assert_eq!(
            sys.crash_script(),
            seq.crash_script().as_slice(),
            "the system's crash script must be t_D's crash order"
        );
        TaggedTree {
            sys,
            seq,
            steer: None,
        }
    }

    /// The root node ⊤ (unique initial config, `t_⊤ = t_D`).
    #[must_use]
    pub fn root(&self) -> Node<B> {
        self.initial_state()
    }

    /// The label of the tree automaton's task `t`.
    #[must_use]
    pub fn label(&self, t: TaskId) -> TreeLabel {
        match t.0.checked_sub(1) {
            None => TreeLabel::Fd,
            Some(k) => TreeLabel::Task(self.sys.label(TaskId(k)), TaskId(k)),
        }
    }

    /// All edge labels of the tree, in task order: FD first.
    #[must_use]
    pub fn labels(&self) -> Vec<TreeLabel> {
        (0..self.task_count())
            .map(|t| self.label(TaskId(t)))
            .collect()
    }

    /// The `label`-child of `node` with its action tag (⊥ = `None`,
    /// §8.2): [`Automaton::enabled`] and [`Automaton::step`], where a ⊥
    /// tag leaves the node as it is.
    #[must_use]
    pub fn child(&self, node: &Node<B>, label: TreeLabel) -> (Option<Action>, Node<B>) {
        let tag = self.enabled(node, label.task());
        let child = match &tag {
            Some(a) => self.step(node, a).expect("enabled actions apply"),
            None => node.clone(),
        };
        (tag, child)
    }
}

impl<B: LocalBehavior> Automaton for TaggedTree<'_, B> {
    type Action = Action;
    type State = Node<B>;

    fn name(&self) -> String {
        "tagged tree".into()
    }

    fn initial_state(&self) -> Node<B> {
        TaggedNode {
            config: self.sys.composition.initial_state(),
            pos: self.seq.start(),
        }
    }

    /// The FD edge controls the `t_D` events (FD outputs and crashes);
    /// every other action is classified as the composition does.
    fn classify(&self, a: &Action) -> Option<ActionClass> {
        if is_fd_event(a) {
            return Some(ActionClass::Output);
        }
        self.sys.composition.classify(a)
    }

    fn task_count(&self) -> usize {
        1 + self.sys.composition.task_count()
    }

    fn enabled(&self, node: &Node<B>, t: TaskId) -> Option<Action> {
        let Some(k) = t.0.checked_sub(1).map(TaskId) else {
            return Some(self.seq.at(node.pos));
        };
        match (self.steer, self.sys.label(k)) {
            (Some(v), Label::Env(_, x)) if x as Val != v => None,
            _ => self.sys.composition.enabled(&node.config, k),
        }
    }

    /// A `t_D` event is taken only as `head(t_N)`. It advances the
    /// FD-sequence tag even where no component accepts it, leaving the
    /// config unchanged then (§8.2).
    fn apply(&self, node: &mut Node<B>, a: &Action) -> bool {
        if !is_fd_event(a) {
            return self.sys.composition.apply(&mut node.config, a);
        }
        if *a != self.seq.at(node.pos) {
            return false;
        }
        self.sys.composition.apply(&mut node.config, a);
        node.pos = self.seq.advance(node.pos);
        true
    }
}

/// Whether `a` is a `t_D` event, which no task of a tree system performs.
fn is_fd_event(a: &Action) -> bool {
    matches!(a, Action::Fd { .. } | Action::Crash(_))
}

/// Options for a fair playout (a finite prefix of a fair branch, §8.3).
#[derive(Debug, Clone, Copy)]
pub struct PlayoutOptions {
    /// Step budget.
    pub max_steps: usize,
    /// Restrict environment edges to the task index (= proposal value)
    /// given, steering proposals (legal: the sibling task is disabled
    /// after one fires, so fairness is preserved).
    pub steer_env: Option<Val>,
}

impl Default for PlayoutOptions {
    fn default() -> Self {
        PlayoutOptions {
            max_steps: 20_000,
            steer_env: None,
        }
    }
}

/// The observable outcome of a playout.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlayoutOutcome {
    /// The decision value observed, if the run reached one.
    pub decision: Option<Val>,
    /// Events performed.
    pub steps: usize,
}

/// The playouts' anti-starvation cap on [`RandomFair`]'s debts.
const MAX_DEBT: u64 = 48;

/// Records the tasks the inner scheduler chose.
struct Recorded<S>(S, Vec<TaskId>);

impl<M: Automaton, S: Scheduler<M>> Scheduler<M> for Recorded<S> {
    fn next_task(&mut self, m: &M, s: &M::State, step: usize) -> Option<TaskId> {
        let t = self.0.next_task(m, s, step);
        self.1.extend(t);
        t
    }
}

/// The value decided by `schedule`'s last event, if it is a `decide`.
fn decided(schedule: &[Action]) -> Option<Val> {
    match schedule.last() {
        Some(Action::Decide { v, .. }) => Some(*v),
        _ => None,
    }
}

impl<'a, B: LocalBehavior> TaggedTree<'a, B> {
    /// Run a seeded fair playout from `node` until a `decide` event or
    /// the step budget. Fair branches of `R^{t_D}` carry every label
    /// infinitely often (§8.3); the playout approximates one with
    /// [`RandomFair`]'s anti-starvation schedule over all tasks
    /// including the FD edge. For a fixed `(seed, opts)` the run is
    /// deterministic, so a decision observed here is a *replayable
    /// witness*.
    #[must_use]
    pub fn playout(&self, node: &Node<B>, seed: u64, opts: PlayoutOptions) -> PlayoutOutcome {
        let mut fair = RandomFair::new(seed).with_max_debt(MAX_DEBT);
        self.run_playout(node, opts, StatePolicy::Endpoints, &mut fair)
            .0
    }

    /// Like [`TaggedTree::playout`], but records the walk: every step's
    /// label and post-node. Replaying a witness seed reproduces the
    /// same path.
    #[must_use]
    pub fn playout_with_path(
        &self,
        node: &Node<B>,
        seed: u64,
        opts: PlayoutOptions,
    ) -> (PlayoutOutcome, Vec<(TreeLabel, Node<B>)>) {
        let mut fair = Recorded(RandomFair::new(seed).with_max_debt(MAX_DEBT), Vec::new());
        let (outcome, exec) = self.run_playout(node, opts, StatePolicy::Full, &mut fair);
        let labels = fair.1.into_iter().map(|t| self.label(t));
        (
            outcome,
            labels.zip(exec.states.into_iter().skip(1)).collect(),
        )
    }

    /// Run `scheduler` from `node` on the tree steered as `opts` says,
    /// until the first `decide` or the step budget.
    fn run_playout(
        &self,
        node: &Node<B>,
        opts: PlayoutOptions,
        policy: StatePolicy,
        scheduler: &mut impl Scheduler<Self>,
    ) -> (PlayoutOutcome, Execution<Self>) {
        let steered = TaggedTree {
            steer: opts.steer_env,
            seq: self.seq.clone(),
            ..*self
        };
        let mut run = RunOptions::default()
            .with_max_steps(opts.max_steps)
            .stop_when(|_, schedule| decided(schedule).is_some());
        run.policy = policy;
        let exec = Runner::new(&steered)
            .run_from(node.clone(), scheduler, run)
            .execution;
        let outcome = PlayoutOutcome {
            decision: decided(&exec.actions),
            steps: exec.len(),
        };
        (outcome, exec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use afd_algorithms::consensus::paxos_omega::PaxosOmega;
    use afd_core::{Loc, Pi};
    use afd_system::{Env, SystemBuilder};

    use crate::fdseq::random_t_omega;

    fn tree_system(pi: Pi, seq: &FdSeq) -> System<ProcessAutomaton<PaxosOmega>> {
        let procs = pi
            .iter()
            .map(|i| ProcessAutomaton::new(i, PaxosOmega::new(pi)))
            .collect();
        SystemBuilder::new(pi, procs)
            .with_env(Env::consensus(pi))
            .with_crashes(seq.crash_script())
            .with_label("tree system")
            .build()
    }

    #[test]
    fn root_has_full_sequence_and_initial_config() {
        let pi = Pi::new(3);
        let seq = random_t_omega(pi, 1, 1);
        let sys = tree_system(pi, &seq);
        let tree = TaggedTree::new(&sys, seq);
        let root = tree.root();
        assert_eq!(root.pos, FdPos(0));
        // Labels: FD + 3 proc + 6 chan + 6 env tasks.
        assert_eq!(tree.labels().len(), 1 + 3 + 6 + 6);
    }

    #[test]
    #[should_panic(expected = "the system's crash script must be t_D's crash order")]
    fn a_crash_script_other_than_t_d_s_is_refused() {
        let pi = Pi::new(3);
        // A crash-free t_D over a system that scripts a crash of p1.
        let seq = random_t_omega(pi, 0, 1);
        let procs = pi
            .iter()
            .map(|i| ProcessAutomaton::new(i, PaxosOmega::new(pi)))
            .collect();
        let sys = SystemBuilder::new(pi, procs)
            .with_env(Env::consensus(pi))
            .with_crashes(vec![Loc(1)])
            .build();
        let _ = TaggedTree::new(&sys, seq);
    }

    #[test]
    fn fd_edge_consumes_the_sequence() {
        let pi = Pi::new(3);
        let seq = random_t_omega(pi, 0, 2);
        let sys = tree_system(pi, &seq);
        let tree = TaggedTree::new(&sys, seq.clone());
        let root = tree.root();
        let (tag, child) = tree.child(&root, TreeLabel::Fd);
        assert_eq!(tag, Some(seq.at(FdPos(0))));
        assert_eq!(child.pos, seq.advance(FdPos(0)));
    }

    #[test]
    fn fd_edge_takes_only_the_head_of_the_sequence() {
        let pi = Pi::new(3);
        let seq = random_t_omega(pi, 0, 2);
        let sys = tree_system(pi, &seq);
        let tree = TaggedTree::new(&sys, seq.clone());
        let root = tree.root();
        let head = seq.at(root.pos);
        let later = seq.window(8).into_iter().find(|&a| a != head).unwrap();
        for a in [later, Action::Crash(Loc(1))] {
            let mut node = root.clone();
            assert!(!tree.apply(&mut node, &a), "{a:?} is not head(t_N)");
            assert_eq!(node, root);
        }
        let mut node = root.clone();
        assert!(tree.apply(&mut node, &head));
        assert_eq!(node.pos, seq.advance(root.pos));
    }

    #[test]
    fn an_fd_output_no_component_accepts_still_advances_the_tag() {
        let pi = Pi::new(2);
        // No process sits at p2, so no component takes its FD output.
        let orphan = Action::Fd {
            at: Loc(2),
            out: afd_core::FdOutput::Leader(Loc(0)),
        };
        let seq = FdSeq::new(
            vec![orphan],
            vec![Action::Fd {
                at: Loc(0),
                out: afd_core::FdOutput::Leader(Loc(0)),
            }],
        );
        let sys = tree_system(pi, &seq);
        let tree = TaggedTree::new(&sys, seq.clone());
        let root = tree.root();
        assert!(!sys.composition.apply(&mut root.config.clone(), &orphan));
        let (tag, child) = tree.child(&root, TreeLabel::Fd);
        assert_eq!(tag, Some(orphan));
        assert_eq!(child.config, root.config);
        assert_eq!(child.pos, seq.advance(root.pos));
    }

    #[test]
    fn bottom_edges_leave_config_unchanged() {
        let pi = Pi::new(3);
        let seq = random_t_omega(pi, 0, 3);
        let sys = tree_system(pi, &seq);
        let tree = TaggedTree::new(&sys, seq);
        let root = tree.root();
        // Channel tasks are empty initially: their edges are ⊥.
        let chan_label = tree
            .labels()
            .into_iter()
            .find(|l| matches!(l, TreeLabel::Task(Label::Chan(_, _), _)))
            .unwrap();
        let (tag, child) = tree.child(&root, chan_label);
        assert_eq!(tag, None);
        assert_eq!(child, root);
    }

    #[test]
    fn steered_playouts_decide_the_steered_value() {
        let pi = Pi::new(3);
        let seq = random_t_omega(pi, 0, 4);
        let sys = tree_system(pi, &seq);
        let tree = TaggedTree::new(&sys, seq);
        let root = tree.root();
        for v in [0u64, 1] {
            let out = tree.playout(
                &root,
                17,
                PlayoutOptions {
                    steer_env: Some(v),
                    ..PlayoutOptions::default()
                },
            );
            assert_eq!(out.decision, Some(v), "steer {v}: {out:?}");
        }
    }

    #[test]
    fn steering_only_disables_the_other_values_env_tasks() {
        let pi = Pi::new(3);
        let seq = random_t_omega(pi, 1, 7);
        let sys = tree_system(pi, &seq);
        let tree = TaggedTree::new(&sys, seq);
        for v in [0u64, 1] {
            let steered = TaggedTree {
                steer: Some(v),
                seq: tree.seq.clone(),
                ..tree
            };
            let opts = PlayoutOptions {
                steer_env: Some(v),
                ..PlayoutOptions::default()
            };
            let (_, path) = tree.playout_with_path(&tree.root(), 71 + v, opts);
            let nodes = std::iter::once(tree.root()).chain(path.into_iter().map(|(_, n)| n));
            for node in nodes {
                for t in (0..tree.task_count()).map(TaskId) {
                    let tag = steered.enabled(&node, t);
                    match tree.label(t) {
                        TreeLabel::Task(Label::Env(_, x), _) if x as Val != v => {
                            assert_eq!(tag, None);
                        }
                        _ => assert_eq!(tag, tree.enabled(&node, t)),
                    }
                    // A steered tree accepts what it enables, and `step`
                    // is `apply` on a copy.
                    if let Some(a) = tag {
                        let mut next = node.clone();
                        assert!(steered.apply(&mut next, &a), "refused enabled {a:?}");
                        assert_eq!(steered.step(&node, &a), Some(next));
                    }
                }
            }
        }
    }

    #[test]
    fn playouts_respect_crashes_in_the_sequence() {
        let pi = Pi::new(3);
        // Crash p0 early in t_D.
        let seq = FdSeq::new(
            vec![
                Action::Fd {
                    at: Loc(0),
                    out: afd_core::FdOutput::Leader(Loc(0)),
                },
                Action::Crash(Loc(0)),
            ],
            vec![
                Action::Fd {
                    at: Loc(1),
                    out: afd_core::FdOutput::Leader(Loc(1)),
                },
                Action::Fd {
                    at: Loc(2),
                    out: afd_core::FdOutput::Leader(Loc(1)),
                },
            ],
        );
        let sys = tree_system(pi, &seq);
        let tree = TaggedTree::new(&sys, seq);
        let out = tree.playout(&tree.root(), 23, PlayoutOptions::default());
        assert!(out.decision.is_some(), "{out:?}");
    }

    #[test]
    fn display_of_labels() {
        let pi = Pi::new(2);
        let seq = random_t_omega(pi, 0, 5);
        let sys = tree_system(pi, &seq);
        let tree = TaggedTree::new(&sys, seq);
        let rendered: Vec<String> = tree.labels().iter().map(ToString::to_string).collect();
        assert_eq!(rendered[0], "FD");
        assert!(rendered.iter().any(|s| s.starts_with("Proc")));
        assert!(rendered.iter().any(|s| s.starts_with("Chan")));
    }
}
