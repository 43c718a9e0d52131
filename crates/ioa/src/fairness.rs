//! Fairness checking for recorded executions (§2.4).
//!
//! A *finite* execution is fair iff no task is enabled in its final
//! state. For long-but-finite prefixes of intended-infinite runs, the
//! report also measures the largest scheduling gap per task, which
//! quantifies "fair so far".

use crate::automaton::{Automaton, TaskId};
use crate::execution::{Execution, StatePolicy};

/// Outcome of analysing an execution for fairness.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FairnessReport {
    /// True iff no task is enabled in the final state (§2.4, finite case).
    pub quiescent: bool,
    /// Tasks still enabled at the end (empty iff `quiescent`).
    pub enabled_at_end: Vec<TaskId>,
    /// Per task: the longest run of consecutive steps during which the
    /// task was enabled but not performed. `None` if states were not
    /// fully recorded.
    pub max_gap: Option<Vec<usize>>,
    /// Number of events each task performed.
    pub events_per_task: Vec<usize>,
}

impl FairnessReport {
    /// True iff the finite execution satisfies the §2.4 fairness
    /// condition for finite executions.
    #[must_use]
    pub fn is_fair_finite(&self) -> bool {
        self.quiescent
    }

    /// The largest enabled-but-not-scheduled gap over all tasks, if
    /// state information was available.
    #[must_use]
    pub fn worst_gap(&self) -> Option<usize> {
        self.max_gap
            .as_ref()
            .map(|g| g.iter().copied().max().unwrap_or(0))
    }
}

/// Analyse `exec` (an execution of `m`) for fairness.
///
/// `attribute` maps an action to the task that performed it; for
/// task-deterministic automata this is recovered by matching the action
/// against `enabled` in the pre-state, which is exact.
#[must_use]
pub fn fairness_report<M: Automaton>(m: &M, exec: &Execution<M>) -> FairnessReport {
    let n = m.task_count();
    let final_state = exec.last_state();
    let enabled_at_end: Vec<TaskId> = (0..n)
        .map(TaskId)
        .filter(|&t| m.enabled(final_state, t).is_some())
        .collect();
    let mut events_per_task = vec![0usize; n];
    let max_gap = if exec.policy == StatePolicy::Full && exec.states.len() == exec.actions.len() + 1
    {
        let mut gap = vec![0usize; n];
        let mut cur = vec![0usize; n];
        for (k, a) in exec.actions.iter().enumerate() {
            let pre = &exec.states[k];
            for t in 0..n {
                match m.enabled(pre, TaskId(t)) {
                    Some(en) if en == *a => {
                        events_per_task[t] += 1;
                        cur[t] = 0;
                    }
                    Some(_) => {
                        cur[t] += 1;
                        gap[t] = gap[t].max(cur[t]);
                    }
                    None => cur[t] = 0,
                }
            }
        }
        Some(gap)
    } else {
        None
    };
    FairnessReport {
        quiescent: enabled_at_end.is_empty(),
        enabled_at_end,
        max_gap,
        events_per_task,
    }
}

/// True iff the finite execution is fair per §2.4 (quiescent ending).
#[must_use]
pub fn is_quiescently_fair<M: Automaton>(m: &M, exec: &Execution<M>) -> bool {
    fairness_report(m, exec).quiescent
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::automaton::ActionClass;
    use crate::execution::apply_schedule;

    /// Two tasks: `A` can fire `limit_a` times, `B` `limit_b` times.
    #[derive(Debug, Clone)]
    struct Two {
        limit_a: u32,
        limit_b: u32,
    }

    #[derive(Debug, Clone, PartialEq, Eq, Hash)]
    enum Act {
        A,
        B,
    }

    impl Automaton for Two {
        type Action = Act;
        type State = (u32, u32);
        fn name(&self) -> String {
            "two".into()
        }
        fn initial_state(&self) -> (u32, u32) {
            (0, 0)
        }
        fn classify(&self, _a: &Act) -> Option<ActionClass> {
            Some(ActionClass::Output)
        }
        fn task_count(&self) -> usize {
            2
        }
        fn enabled(&self, s: &(u32, u32), t: TaskId) -> Option<Act> {
            match t.0 {
                0 => (s.0 < self.limit_a).then_some(Act::A),
                1 => (s.1 < self.limit_b).then_some(Act::B),
                _ => None,
            }
        }
        fn apply(&self, s: &mut (u32, u32), a: &Act) -> bool {
            let (count, limit) = match a {
                Act::A => (&mut s.0, self.limit_a),
                Act::B => (&mut s.1, self.limit_b),
            };
            if *count >= limit {
                return false;
            }
            *count += 1;
            true
        }
    }

    #[test]
    fn quiescent_execution_is_fair() {
        let m = Two {
            limit_a: 1,
            limit_b: 1,
        };
        let e = apply_schedule(&m, (0, 0), &[Act::A, Act::B]).unwrap();
        let r = fairness_report(&m, &e);
        assert!(r.is_fair_finite());
        assert!(r.enabled_at_end.is_empty());
        assert_eq!(r.events_per_task, vec![1, 1]);
        assert!(is_quiescently_fair(&m, &e));
    }

    #[test]
    fn unfinished_task_breaks_finite_fairness() {
        let m = Two {
            limit_a: 1,
            limit_b: 1,
        };
        let e = apply_schedule(&m, (0, 0), &[Act::A]).unwrap();
        let r = fairness_report(&m, &e);
        assert!(!r.is_fair_finite());
        assert_eq!(r.enabled_at_end, vec![TaskId(1)]);
    }

    #[test]
    fn gap_measures_starvation() {
        let m = Two {
            limit_a: 3,
            limit_b: 1,
        };
        // B is enabled from the start but performed last.
        let e = apply_schedule(&m, (0, 0), &[Act::A, Act::A, Act::A, Act::B]).unwrap();
        let r = fairness_report(&m, &e);
        assert_eq!(r.max_gap, Some(vec![0, 3]));
        assert_eq!(r.worst_gap(), Some(3));
    }

    #[test]
    fn gap_resets_when_disabled() {
        let m = Two {
            limit_a: 2,
            limit_b: 2,
        };
        let e = apply_schedule(&m, (0, 0), &[Act::B, Act::A, Act::B, Act::A]).unwrap();
        let r = fairness_report(&m, &e);
        assert_eq!(r.worst_gap(), Some(1));
    }

    #[test]
    fn endpoints_policy_yields_no_gap_info() {
        let m = Two {
            limit_a: 1,
            limit_b: 1,
        };
        let mut e = apply_schedule(&m, (0, 0), &[Act::A, Act::B]).unwrap();
        e.policy = StatePolicy::Endpoints;
        e.states = vec![(0, 0), (1, 1)];
        let r = fairness_report(&m, &e);
        assert!(r.max_gap.is_none());
        assert!(r.quiescent);
    }
}
