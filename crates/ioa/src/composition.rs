//! Parallel composition of I/O automata over a shared action alphabet
//! (§2.3), with hiding.
//!
//! Components are values of one component type `C` (typically an enum
//! dispatching to process / channel / environment / failure-detector
//! automata); all share the action type `C::Action`. An action may be an
//! output or internal action of at most one component (name uniqueness),
//! and when it occurs, *every* component that has it in its signature
//! performs it simultaneously.
//!
//! Who takes part in an action is a function of its classification, so
//! a composition of components with an [`Automaton::route_key`] keeps a
//! participants index: one classify scan per key, filled on first use,
//! then every [`Automaton::apply`] and [`Composition::controller`] is a
//! lookup. Component types without a key are scanned on every call.

use std::collections::HashMap;
use std::sync::{Arc, PoisonError, RwLock};

use crate::automaton::{ActionClass, Automaton, TaskId};

/// A task of the composition, addressed as (component, local task).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GlobalTask {
    /// Index of the owning component.
    pub component: usize,
    /// Task index local to that component.
    pub task: TaskId,
}

/// State of a composition: the vector of component states, in component
/// order.
pub type CompositeState<S> = Vec<S>;

/// Why a collection of automata cannot be composed (§2.3, footnote 2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SignatureError {
    /// Two components both control (output or internal) the same action.
    SharedControl {
        /// The action in conflict (debug rendering).
        action: String,
        /// The two offending component indices.
        components: (usize, usize),
    },
    /// A component classifies an action as internal that another
    /// component also has in its signature (internal actions must be
    /// private).
    InternalShared {
        /// The action in conflict (debug rendering).
        action: String,
        /// (owner of the internal action, other participant).
        components: (usize, usize),
    },
}

impl std::fmt::Display for SignatureError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SignatureError::SharedControl { action, components } => write!(
                f,
                "action {action} is locally controlled by both component {} and component {}",
                components.0, components.1
            ),
            SignatureError::InternalShared { action, components } => write!(
                f,
                "internal action {action} of component {} is shared with component {}",
                components.0, components.1
            ),
        }
    }
}

impl std::error::Error for SignatureError {}

/// A boxed predicate selecting output actions to hide.
type HidePredicate<A> = Box<dyn Fn(&A) -> bool + Send + Sync>;

/// The participants of the actions sharing one route key: the
/// component controlling them, if any, and every other component that
/// has them in its signature, in component order.
#[derive(Debug)]
struct Route {
    controller: Option<usize>,
    inputs: Vec<usize>,
}

/// The composition of a vector of same-alphabet automata, with optional
/// hiding of output actions (§2.3).
pub struct Composition<C: Automaton> {
    components: Vec<C>,
    tasks: Vec<GlobalTask>,
    hide: Option<HidePredicate<C::Action>>,
    label: String,
    /// The participants index. Readers clone an entry out, so no lock
    /// is held while a component runs.
    routes: RwLock<HashMap<u64, Arc<Route>>>,
}

impl<C: Automaton> std::fmt::Debug for Composition<C> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Composition")
            .field("label", &self.label)
            .field(
                "components",
                &self.components.iter().map(C::name).collect::<Vec<_>>(),
            )
            .field("task_count", &self.tasks.len())
            .field("hiding", &self.hide.is_some())
            .finish()
    }
}

impl<C: Automaton> Composition<C> {
    /// Compose `components`. Task indices are assigned in component
    /// order, then local-task order.
    #[must_use]
    pub fn new(components: Vec<C>) -> Self {
        let mut tasks = Vec::new();
        for (ci, c) in components.iter().enumerate() {
            for t in 0..c.task_count() {
                tasks.push(GlobalTask {
                    component: ci,
                    task: TaskId(t),
                });
            }
        }
        Composition {
            components,
            tasks,
            hide: None,
            label: "composition".into(),
            routes: RwLock::new(HashMap::new()),
        }
    }

    /// Set a diagnostic label.
    #[must_use]
    pub fn with_label(mut self, label: impl Into<String>) -> Self {
        self.label = label.into();
        self
    }

    /// Hide (reclassify as internal) every output action matching `pred`
    /// (§2.3 "Hiding"). Hidden actions no longer appear in traces.
    #[must_use]
    pub fn with_hiding<F>(mut self, pred: F) -> Self
    where
        F: Fn(&C::Action) -> bool + Send + Sync + 'static,
    {
        self.hide = Some(Box::new(pred));
        self
    }

    /// The component automata.
    #[must_use]
    pub fn components(&self) -> &[C] {
        &self.components
    }

    /// Map a global task index to its (component, local task) address.
    ///
    /// # Panics
    /// Panics if `t` is out of range.
    #[must_use]
    pub fn global_task(&self, t: TaskId) -> GlobalTask {
        self.tasks[t.0]
    }

    /// Global task index for a (component, local-task) address, if valid.
    #[must_use]
    pub fn task_index(&self, component: usize, task: TaskId) -> Option<TaskId> {
        self.tasks
            .iter()
            .position(|g| g.component == component && g.task == task)
            .map(TaskId)
    }

    /// All global tasks owned by `component`.
    #[must_use]
    pub fn tasks_of(&self, component: usize) -> Vec<TaskId> {
        self.tasks
            .iter()
            .enumerate()
            .filter(|(_, g)| g.component == component)
            .map(|(i, _)| TaskId(i))
            .collect()
    }

    /// Validate composability: unique control, private internal actions.
    /// Checked over the action set reachable via `probe` (a caller-chosen
    /// sample of actions, typically the full finite alphabet).
    ///
    /// # Errors
    /// Returns the first [`SignatureError`] found.
    pub fn validate_signature(&self, probe: &[C::Action]) -> Result<(), SignatureError> {
        for a in probe {
            let mut controller: Option<usize> = None;
            let mut participants: Vec<usize> = Vec::new();
            let mut internal_owner: Option<usize> = None;
            for (ci, c) in self.components.iter().enumerate() {
                match c.classify(a) {
                    Some(ActionClass::Output) => {
                        if let Some(prev) = controller {
                            return Err(SignatureError::SharedControl {
                                action: format!("{a:?}"),
                                components: (prev, ci),
                            });
                        }
                        controller = Some(ci);
                        participants.push(ci);
                    }
                    Some(ActionClass::Internal) => {
                        if let Some(prev) = controller {
                            return Err(SignatureError::SharedControl {
                                action: format!("{a:?}"),
                                components: (prev, ci),
                            });
                        }
                        controller = Some(ci);
                        internal_owner = Some(ci);
                        participants.push(ci);
                    }
                    Some(ActionClass::Input) => participants.push(ci),
                    None => {}
                }
            }
            if let Some(owner) = internal_owner {
                if let Some(&other) = participants.iter().find(|&&p| p != owner) {
                    return Err(SignatureError::InternalShared {
                        action: format!("{a:?}"),
                        components: (owner, other),
                    });
                }
            }
        }
        Ok(())
    }

    /// The component controlling `a` (classifying it output/internal),
    /// if any.
    #[must_use]
    pub fn controller(&self, a: &C::Action) -> Option<usize> {
        self.route(a).controller
    }

    /// The participants of `a`: the component controlling it, if any,
    /// and every other component with `a` in its signature, in
    /// component order.
    #[must_use]
    pub fn participants(&self, a: &C::Action) -> (Option<usize>, Vec<usize>) {
        let route = self.route(a);
        (route.controller, route.inputs.clone())
    }

    /// `a`'s entry in the participants index, filled by one classify
    /// scan on a miss; a fresh scan when `C` has no route keys.
    fn route(&self, a: &C::Action) -> Arc<Route> {
        let scan = || {
            let controller = self.components.iter().position(|c| {
                c.classify(a)
                    .is_some_and(ActionClass::is_locally_controlled)
            });
            let inputs = (0..self.components.len())
                .filter(|&ci| Some(ci) != controller && self.components[ci].classify(a).is_some())
                .collect();
            Arc::new(Route { controller, inputs })
        };
        let Some(key) = C::route_key(a) else {
            return scan();
        };
        if let Some(route) = self
            .routes
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(&key)
        {
            return Arc::clone(route);
        }
        let mut routes = self.routes.write().unwrap_or_else(PoisonError::into_inner);
        Arc::clone(routes.entry(key).or_insert_with(scan))
    }

    /// Projection of an execution's state onto component `ci` (§2.3):
    /// that component's piece of each composite state.
    ///
    /// # Panics
    /// Panics if `ci` is out of range.
    #[must_use]
    pub fn project_states(&self, states: &[CompositeState<C::State>], ci: usize) -> Vec<C::State> {
        states.iter().map(|s| s[ci].clone()).collect()
    }

    /// Projection of a schedule onto the events of component `ci`
    /// (Theorem 8.1 in Lynch: the projection of an execution of a
    /// composition is an execution of the component).
    #[must_use]
    pub fn project_schedule(&self, schedule: &[C::Action], ci: usize) -> Vec<C::Action> {
        schedule
            .iter()
            .filter(|a| self.components[ci].classify(a).is_some())
            .cloned()
            .collect()
    }

    /// Count, per component, how many events of the schedule it
    /// participates in. Useful in fairness diagnostics.
    #[must_use]
    pub fn participation(&self, schedule: &[C::Action]) -> HashMap<usize, usize> {
        let mut m = HashMap::new();
        for a in schedule {
            for (ci, c) in self.components.iter().enumerate() {
                if c.classify(a).is_some() {
                    *m.entry(ci).or_insert(0) += 1;
                }
            }
        }
        m
    }
}

impl<C: Automaton> Automaton for Composition<C> {
    type Action = C::Action;
    type State = CompositeState<C::State>;

    fn name(&self) -> String {
        self.label.clone()
    }

    fn initial_state(&self) -> Self::State {
        self.components.iter().map(C::initial_state).collect()
    }

    fn classify(&self, a: &Self::Action) -> Option<ActionClass> {
        let mut any = None;
        for c in &self.components {
            match c.classify(a) {
                Some(ActionClass::Output) => {
                    if self.hide.as_ref().is_some_and(|h| h(a)) {
                        return Some(ActionClass::Internal);
                    }
                    return Some(ActionClass::Output);
                }
                Some(ActionClass::Internal) => return Some(ActionClass::Internal),
                Some(ActionClass::Input) => any = Some(ActionClass::Input),
                None => {}
            }
        }
        any
    }

    fn task_count(&self) -> usize {
        self.tasks.len()
    }

    fn enabled(&self, s: &Self::State, t: TaskId) -> Option<Self::Action> {
        let g = *self.tasks.get(t.0)?;
        self.components[g.component].enabled(&s[g.component], g.task)
    }

    fn apply(&self, s: &mut Self::State, a: &Self::Action) -> bool {
        // The controller, if any, goes first: it is the only participant
        // that may refuse, and a refusal must leave `s` as it was.
        let route = self.route(a);
        if let Some(ci) = route.controller {
            if !self.components[ci].apply(&mut s[ci], a) {
                return false;
            }
        }
        for &ci in &route.inputs {
            let c = &self.components[ci];
            let accepted = c.apply(&mut s[ci], a);
            debug_assert!(accepted, "{} refused its input {a:?}", c.name());
        }
        route.controller.is_some() || !route.inputs.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tiny two-party system: `Sender` outputs `Msg`, `Sink` receives it.
    #[derive(Debug, Clone)]
    enum Comp {
        Sender { budget: u32 },
        Sink,
    }

    #[derive(Debug, Clone, PartialEq, Eq, Hash)]
    enum Act {
        Msg,
        Tick, // internal to Sink
    }

    #[derive(Debug, Clone, PartialEq, Eq, Hash)]
    enum St {
        Sender { sent: u32 },
        Sink { got: u32, ticks: u32 },
    }

    impl Automaton for Comp {
        type Action = Act;
        type State = St;

        fn name(&self) -> String {
            match self {
                Comp::Sender { .. } => "sender".into(),
                Comp::Sink => "sink".into(),
            }
        }

        fn initial_state(&self) -> St {
            match self {
                Comp::Sender { .. } => St::Sender { sent: 0 },
                Comp::Sink => St::Sink { got: 0, ticks: 0 },
            }
        }

        fn classify(&self, a: &Act) -> Option<ActionClass> {
            match (self, a) {
                (Comp::Sender { .. }, Act::Msg) => Some(ActionClass::Output),
                (Comp::Sink, Act::Msg) => Some(ActionClass::Input),
                (Comp::Sink, Act::Tick) => Some(ActionClass::Internal),
                (Comp::Sender { .. }, Act::Tick) => None,
            }
        }

        fn task_count(&self) -> usize {
            1
        }

        fn enabled(&self, s: &St, _t: TaskId) -> Option<Act> {
            match (self, s) {
                (Comp::Sender { budget }, St::Sender { sent }) => {
                    (sent < budget).then_some(Act::Msg)
                }
                (Comp::Sink, St::Sink { got, ticks }) => (ticks < got).then_some(Act::Tick),
                _ => None,
            }
        }

        fn apply(&self, s: &mut St, a: &Act) -> bool {
            match (self, s, a) {
                (Comp::Sender { budget }, St::Sender { sent }, Act::Msg) if *sent < *budget => {
                    *sent += 1;
                }
                (Comp::Sink, St::Sink { got, .. }, Act::Msg) => *got += 1,
                (Comp::Sink, St::Sink { got, ticks }, Act::Tick) if *ticks < *got => *ticks += 1,
                _ => return false,
            }
            true
        }
    }

    /// [`Comp`] with route keys, so its compositions go through the
    /// participants index.
    #[derive(Debug, Clone)]
    struct Keyed(Comp);

    impl Automaton for Keyed {
        type Action = Act;
        type State = St;
        fn name(&self) -> String {
            self.0.name()
        }
        fn initial_state(&self) -> St {
            self.0.initial_state()
        }
        fn classify(&self, a: &Act) -> Option<ActionClass> {
            self.0.classify(a)
        }
        fn route_key(a: &Act) -> Option<u64> {
            Some(match a {
                Act::Msg => 0,
                Act::Tick => 1,
            })
        }
        fn task_count(&self) -> usize {
            self.0.task_count()
        }
        fn enabled(&self, s: &St, t: TaskId) -> Option<Act> {
            self.0.enabled(s, t)
        }
        fn apply(&self, s: &mut St, a: &Act) -> bool {
            self.0.apply(s, a)
        }
    }

    fn keyed(budget: u32) -> Composition<Keyed> {
        Composition::new(vec![Keyed(Comp::Sender { budget }), Keyed(Comp::Sink)])
    }

    /// Sends until the budget is spent, ticking after each send.
    fn script(budget: u32) -> Vec<Act> {
        (0..=budget).flat_map(|_| [Act::Msg, Act::Tick]).collect()
    }

    #[test]
    fn index_agrees_with_the_scan() {
        let (plain, keyed) = (comp(), keyed(2));
        for a in [Act::Msg, Act::Tick] {
            assert_eq!(keyed.participants(&a), plain.participants(&a));
            assert_eq!(keyed.controller(&a), plain.controller(&a));
        }
        assert_eq!(plain.participants(&Act::Msg), (Some(0), vec![1]));
        assert_eq!(plain.participants(&Act::Tick), (Some(1), vec![]));
        let (mut p, mut k) = (plain.initial_state(), keyed.initial_state());
        for a in script(2) {
            assert_eq!(plain.apply(&mut p, &a), keyed.apply(&mut k, &a), "{a:?}");
            assert_eq!(p, k);
        }
    }

    /// Four threads step their own states through one composition,
    /// released together so they race to fill the index.
    #[test]
    fn threads_share_one_index() {
        const BUDGET: u32 = 50;
        let c = keyed(BUDGET);
        let go = std::sync::Barrier::new(4);
        let finals: Vec<_> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..4)
                .map(|_| {
                    scope.spawn(|| {
                        let mut s = c.initial_state();
                        go.wait();
                        let accepted = script(BUDGET).iter().filter(|a| c.apply(&mut s, a)).count();
                        (accepted, s)
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        let done = vec![
            St::Sender { sent: BUDGET },
            St::Sink {
                got: BUDGET,
                ticks: BUDGET,
            },
        ];
        for f in finals {
            assert_eq!(f, (2 * BUDGET as usize, done.clone()));
        }
    }

    fn comp() -> Composition<Comp> {
        Composition::new(vec![Comp::Sender { budget: 2 }, Comp::Sink])
    }

    #[test]
    fn initial_state_is_vector_of_components() {
        let c = comp();
        assert_eq!(
            c.initial_state(),
            vec![St::Sender { sent: 0 }, St::Sink { got: 0, ticks: 0 }]
        );
    }

    #[test]
    fn output_matches_input_simultaneously() {
        let c = comp();
        let s0 = c.initial_state();
        let s1 = c.step(&s0, &Act::Msg).unwrap();
        assert_eq!(
            s1,
            vec![St::Sender { sent: 1 }, St::Sink { got: 1, ticks: 0 }]
        );
    }

    #[test]
    fn classification_output_wins_over_input() {
        let c = comp();
        assert_eq!(c.classify(&Act::Msg), Some(ActionClass::Output));
        assert_eq!(c.classify(&Act::Tick), Some(ActionClass::Internal));
    }

    #[test]
    fn hiding_reclassifies_outputs() {
        let c = comp().with_hiding(|a| *a == Act::Msg);
        assert_eq!(c.classify(&Act::Msg), Some(ActionClass::Internal));
    }

    #[test]
    fn tasks_are_flattened_in_component_order() {
        let c = comp();
        assert_eq!(c.task_count(), 2);
        assert_eq!(
            c.global_task(TaskId(0)),
            GlobalTask {
                component: 0,
                task: TaskId(0)
            }
        );
        assert_eq!(
            c.global_task(TaskId(1)),
            GlobalTask {
                component: 1,
                task: TaskId(0)
            }
        );
        assert_eq!(c.task_index(1, TaskId(0)), Some(TaskId(1)));
        assert_eq!(c.tasks_of(1), vec![TaskId(1)]);
    }

    #[test]
    fn enabled_delegates_to_component() {
        let c = comp();
        let s0 = c.initial_state();
        assert_eq!(c.enabled(&s0, TaskId(0)), Some(Act::Msg));
        assert_eq!(c.enabled(&s0, TaskId(1)), None);
        let s1 = c.step(&s0, &Act::Msg).unwrap();
        assert_eq!(c.enabled(&s1, TaskId(1)), Some(Act::Tick));
    }

    #[test]
    fn step_rejects_disabled_controller() {
        let c = comp();
        let s0 = c.initial_state();
        let s1 = c.step(&s0, &Act::Msg).unwrap();
        let s2 = c.step(&s1, &Act::Msg).unwrap();
        assert_eq!(c.step(&s2, &Act::Msg), None, "sender budget exhausted");
    }

    #[test]
    fn validate_signature_accepts_legal_composition() {
        let c = comp();
        assert_eq!(c.validate_signature(&[Act::Msg, Act::Tick]), Ok(()));
    }

    #[test]
    fn validate_signature_rejects_shared_control() {
        let c = Composition::new(vec![Comp::Sender { budget: 1 }, Comp::Sender { budget: 1 }]);
        let err = c.validate_signature(&[Act::Msg]).unwrap_err();
        assert!(matches!(err, SignatureError::SharedControl { .. }));
        assert!(err.to_string().contains("locally controlled"));
    }

    #[test]
    fn projections_follow_theorem_8_1() {
        let c = comp();
        let sched = vec![Act::Msg, Act::Tick, Act::Msg];
        assert_eq!(c.project_schedule(&sched, 0), vec![Act::Msg, Act::Msg]);
        assert_eq!(c.project_schedule(&sched, 1), sched);
        let part = c.participation(&sched);
        assert_eq!(part[&0], 2);
        assert_eq!(part[&1], 3);
    }

    #[test]
    fn project_states_extracts_component_piece() {
        let c = comp();
        let s0 = c.initial_state();
        let s1 = c.step(&s0, &Act::Msg).unwrap();
        let proj = c.project_states(&[s0, s1], 0);
        assert_eq!(proj, vec![St::Sender { sent: 0 }, St::Sender { sent: 1 }]);
    }

    #[test]
    fn debug_render_mentions_components() {
        let c = comp().with_label("demo");
        let dbg = format!("{c:?}");
        assert!(dbg.contains("demo") && dbg.contains("sender"));
    }
}
