//! Dynamic checks for the determinism requirements of §2.5 and the
//! input-enabling requirement of §2.1.
//!
//! The [`crate::Automaton`] API makes task determinism *structurally*
//! likely (one action per task per state), but implementations can still
//! violate the contract — e.g. `enabled` returning an action `step`
//! rejects, or an input action being refused. These checks exercise an
//! automaton along random walks and report violations.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::automaton::{ActionClass, Automaton, TaskId};

/// A violation of the automaton contract found by a dynamic check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeterminismError {
    /// `enabled(s, t)` returned an action that `step(s, ·)` rejected.
    EnabledButNotApplicable {
        /// Task whose action was rejected.
        task: TaskId,
        /// Debug rendering of the state.
        state: String,
        /// Debug rendering of the action.
        action: String,
    },
    /// `enabled(s, t)` returned an action not classified as locally
    /// controlled.
    EnabledNotLocallyControlled {
        /// The offending task.
        task: TaskId,
        /// Debug rendering of the action.
        action: String,
    },
    /// An input action was rejected by `step`.
    InputRefused {
        /// Debug rendering of the state.
        state: String,
        /// Debug rendering of the input action.
        action: String,
    },
}

impl std::fmt::Display for DeterminismError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeterminismError::EnabledButNotApplicable {
                task,
                state,
                action,
            } => {
                write!(
                    f,
                    "{task} reported {action} enabled in {state} but step rejected it"
                )
            }
            DeterminismError::EnabledNotLocallyControlled { task, action } => {
                write!(
                    f,
                    "{task} reported non-locally-controlled action {action} as enabled"
                )
            }
            DeterminismError::InputRefused { state, action } => {
                write!(f, "input action {action} refused in state {state}")
            }
        }
    }
}

impl std::error::Error for DeterminismError {}

/// Random-walk check of task determinism: along `steps` random steps
/// from the initial state, verify that every action reported enabled is
/// locally controlled and applicable.
///
/// # Errors
/// The first violation found.
pub fn check_task_determinism<M: Automaton>(
    m: &M,
    steps: usize,
    seed: u64,
) -> Result<(), DeterminismError> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut s = m.initial_state();
    for _ in 0..steps {
        let mut choices = Vec::new();
        for t in 0..m.task_count() {
            if let Some(a) = m.enabled(&s, TaskId(t)) {
                if !m
                    .classify(&a)
                    .is_some_and(ActionClass::is_locally_controlled)
                {
                    return Err(DeterminismError::EnabledNotLocallyControlled {
                        task: TaskId(t),
                        action: format!("{a:?}"),
                    });
                }
                match m.step(&s, &a) {
                    Some(next) => choices.push((TaskId(t), a, next)),
                    None => {
                        return Err(DeterminismError::EnabledButNotApplicable {
                            task: TaskId(t),
                            state: format!("{s:?}"),
                            action: format!("{a:?}"),
                        })
                    }
                }
            }
        }
        if choices.is_empty() {
            break;
        }
        let pick = rng.gen_range(0..choices.len());
        s = choices.swap_remove(pick).2;
    }
    Ok(())
}

/// Check input-enabling: along a random walk, inject each input produced
/// by `inputs` (a caller-supplied sampler, e.g. the finite input
/// alphabet) and verify `step` accepts it in every visited state.
///
/// # Errors
/// The first refused input found.
pub fn check_input_enabled<M: Automaton>(
    m: &M,
    inputs: &[M::Action],
    steps: usize,
    seed: u64,
) -> Result<(), DeterminismError> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut s = m.initial_state();
    for _ in 0..steps {
        for a in inputs {
            if m.classify(a) == Some(ActionClass::Input) && m.step(&s, a).is_none() {
                return Err(DeterminismError::InputRefused {
                    state: format!("{s:?}"),
                    action: format!("{a:?}"),
                });
            }
        }
        // Advance: prefer a locally controlled step; else inject an input.
        let local: Vec<M::State> = (0..m.task_count())
            .filter_map(|t| m.enabled(&s, TaskId(t)))
            .filter_map(|a| m.step(&s, &a))
            .collect();
        if !local.is_empty() {
            let pick = rng.gen_range(0..local.len());
            s = local[pick].clone();
        } else if !inputs.is_empty() {
            let pick = rng.gen_range(0..inputs.len());
            if let Some(next) = m.step(&s, &inputs[pick]) {
                s = next;
            } else {
                break;
            }
        } else {
            break;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `broken_*` flags let tests construct each violation.
    #[derive(Debug, Clone, Default)]
    struct Gadget {
        broken_step: bool,
        broken_class: bool,
        broken_input: bool,
    }

    #[derive(Debug, Clone, PartialEq, Eq, Hash)]
    enum Act {
        Go,
        In,
    }

    impl Automaton for Gadget {
        type Action = Act;
        type State = u8;
        fn name(&self) -> String {
            "gadget".into()
        }
        fn initial_state(&self) -> u8 {
            0
        }
        fn classify(&self, a: &Act) -> Option<ActionClass> {
            match a {
                Act::Go => Some(if self.broken_class {
                    ActionClass::Input
                } else {
                    ActionClass::Output
                }),
                Act::In => Some(ActionClass::Input),
            }
        }
        fn task_count(&self) -> usize {
            1
        }
        fn enabled(&self, s: &u8, _t: TaskId) -> Option<Act> {
            (*s < 3).then_some(Act::Go)
        }
        fn apply(&self, s: &mut u8, a: &Act) -> bool {
            match a {
                Act::Go if self.broken_step || *s >= 3 => false,
                Act::Go => {
                    *s += 1;
                    true
                }
                Act::In => !(self.broken_input && *s >= 2),
            }
        }
    }

    #[test]
    fn healthy_automaton_passes() {
        let g = Gadget::default();
        assert!(check_task_determinism(&g, 100, 1).is_ok());
        assert!(check_input_enabled(&g, &[Act::In], 100, 1).is_ok());
    }

    #[test]
    fn enabled_but_inapplicable_detected() {
        let g = Gadget {
            broken_step: true,
            ..Gadget::default()
        };
        let err = check_task_determinism(&g, 100, 1).unwrap_err();
        assert!(matches!(
            err,
            DeterminismError::EnabledButNotApplicable { .. }
        ));
        assert!(err.to_string().contains("step rejected"));
    }

    #[test]
    fn non_local_enabled_detected() {
        let g = Gadget {
            broken_class: true,
            ..Gadget::default()
        };
        let err = check_task_determinism(&g, 100, 1).unwrap_err();
        assert!(matches!(
            err,
            DeterminismError::EnabledNotLocallyControlled { .. }
        ));
    }

    #[test]
    fn refused_input_detected() {
        let g = Gadget {
            broken_input: true,
            ..Gadget::default()
        };
        let err = check_input_enabled(&g, &[Act::In], 100, 1).unwrap_err();
        assert!(matches!(err, DeterminismError::InputRefused { .. }));
        assert!(err.to_string().contains("refused"));
    }
}
