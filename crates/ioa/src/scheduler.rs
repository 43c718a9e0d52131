//! Fair task schedulers.
//!
//! Fairness (§2.4) is a property of *infinite* executions; finite runs
//! can only be "fair so far". These schedulers construct runs that are
//! fair in the limit: every task that stays enabled is eventually taken.
//!
//! * [`RoundRobin`] cycles through tasks; trivially fair.
//! * [`RandomFair`] samples enabled tasks with aging weights; fair with
//!   probability 1, and the aging bound makes it fair deterministically.
//! * [`Adversarial`] delays a victim set of tasks as long as a budget
//!   allows, then falls back to round robin — still fair, but produces
//!   the skewed interleavings the paper's adversary arguments rely on.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::automaton::{Automaton, TaskId};

/// Chooses which task of `m` performs the next step.
pub trait Scheduler<M: Automaton> {
    /// Pick an enabled task of `m` in state `s`, or `None` to stop
    /// (callers treat `None` as "quiescent or scheduler done").
    /// `step` is the number of events performed so far.
    fn next_task(&mut self, m: &M, s: &M::State, step: usize) -> Option<TaskId>;
}

/// Cyclic scheduler: after task `t`, try `t+1, t+2, …` and pick the
/// first enabled one. Every continuously enabled task is taken within
/// one full cycle, so every run it produces is fair.
#[derive(Debug, Clone, Default)]
pub struct RoundRobin {
    cursor: usize,
}

impl RoundRobin {
    /// A round-robin scheduler starting at task 0.
    #[must_use]
    pub fn new() -> Self {
        RoundRobin { cursor: 0 }
    }

    /// Start the cycle at `cursor` (useful to vary interleavings).
    #[must_use]
    pub fn starting_at(cursor: usize) -> Self {
        RoundRobin { cursor }
    }
}

impl<M: Automaton> Scheduler<M> for RoundRobin {
    fn next_task(&mut self, m: &M, s: &M::State, _step: usize) -> Option<TaskId> {
        let n = m.task_count();
        if n == 0 {
            return None;
        }
        for k in 0..n {
            let t = TaskId((self.cursor + k) % n);
            if m.enabled(s, t).is_some() {
                self.cursor = (t.0 + 1) % n;
                return Some(t);
            }
        }
        None
    }
}

/// Randomized fair scheduler with aging.
///
/// Among enabled tasks, samples with weight `1 + debt(t)` where `debt`
/// counts how many times `t` was enabled but passed over. Whenever a
/// task's debt exceeds `max_debt`, it is chosen outright, so starvation
/// is impossible (deterministic fairness, not just almost-sure).
#[derive(Debug, Clone)]
pub struct RandomFair {
    rng: StdRng,
    debt: Vec<u64>,
    /// The enabled tasks of the current step; kept to reuse its buffer.
    enabled: Vec<usize>,
    /// Hard cap on how long an enabled task may be passed over.
    pub max_debt: u64,
}

impl RandomFair {
    /// Seeded randomized fair scheduler (deterministic per seed).
    #[must_use]
    pub fn new(seed: u64) -> Self {
        RandomFair {
            rng: StdRng::seed_from_u64(seed),
            debt: Vec::new(),
            enabled: Vec::new(),
            max_debt: 64,
        }
    }

    /// Override the anti-starvation cap.
    #[must_use]
    pub fn with_max_debt(mut self, max_debt: u64) -> Self {
        self.max_debt = max_debt.max(1);
        self
    }
}

impl<M: Automaton> Scheduler<M> for RandomFair {
    fn next_task(&mut self, m: &M, s: &M::State, _step: usize) -> Option<TaskId> {
        let n = m.task_count();
        self.debt.resize(n, 0);
        let mut enabled = std::mem::take(&mut self.enabled);
        enabled.clear();
        enabled.extend((0..n).filter(|&t| m.enabled(s, TaskId(t)).is_some()));
        let chosen = self.choose(&enabled);
        self.enabled = enabled;
        chosen.map(TaskId)
    }
}

impl RandomFair {
    /// Pick one of `enabled` and settle the debts.
    fn choose(&mut self, enabled: &[usize]) -> Option<usize> {
        let first = *enabled.first()?;
        // Anti-starvation: any task over the cap goes first.
        if let Some(&t) = enabled.iter().find(|&&t| self.debt[t] >= self.max_debt) {
            self.settle(enabled, t);
            return Some(t);
        }
        let total: u64 = enabled.iter().map(|&t| 1 + self.debt[t]).sum();
        let mut roll = self.rng.gen_range(0..total);
        let mut chosen = first;
        for &t in enabled {
            let w = 1 + self.debt[t];
            if roll < w {
                chosen = t;
                break;
            }
            roll -= w;
        }
        self.settle(enabled, chosen);
        Some(chosen)
    }

    fn settle(&mut self, enabled: &[usize], chosen: usize) {
        for &t in enabled {
            if t == chosen {
                self.debt[t] = 0;
            } else {
                self.debt[t] += 1;
            }
        }
    }
}

/// An adversarial (but still fair) scheduler: tasks in `victims` are
/// starved for up to `delay` steps each time they become enabled, after
/// which the scheduler behaves like round robin for them.
///
/// This generates the "messages delayed arbitrarily long" interleavings
/// that distinguish, e.g., `◇P` from `P`.
#[derive(Debug, Clone)]
pub struct Adversarial {
    victims: Vec<usize>,
    delay: u64,
    withheld: Vec<u64>,
    rr: RoundRobin,
}

impl Adversarial {
    /// Starve `victims` (global task indices) for `delay` scheduling
    /// opportunities at a time.
    #[must_use]
    pub fn new(victims: Vec<usize>, delay: u64) -> Self {
        Adversarial {
            victims,
            delay,
            withheld: Vec::new(),
            rr: RoundRobin::new(),
        }
    }
}

impl<M: Automaton> Scheduler<M> for Adversarial {
    fn next_task(&mut self, m: &M, s: &M::State, step: usize) -> Option<TaskId> {
        let n = m.task_count();
        self.withheld.resize(n, 0);
        // Prefer a non-victim enabled task while victims are withheld.
        let mut victim_candidate = None;
        for k in 0..n {
            let t = TaskId((step + k) % n);
            if m.enabled(s, t).is_none() {
                continue;
            }
            if self.victims.contains(&t.0) && self.withheld[t.0] < self.delay {
                self.withheld[t.0] += 1;
                if victim_candidate.is_none() {
                    victim_candidate = Some(t);
                }
                continue;
            }
            if self.victims.contains(&t.0) {
                self.withheld[t.0] = 0; // victim released, reset budget
            }
            return Some(t);
        }
        // Only victims are enabled: release one (fairness).
        if let Some(t) = victim_candidate {
            self.withheld[t.0] = 0;
            return Some(t);
        }
        <RoundRobin as Scheduler<M>>::next_task(&mut self.rr, m, s, step)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::automaton::ActionClass;

    /// Two independent counters, one task each; both count to `limit`.
    #[derive(Debug, Clone)]
    struct Pair {
        limit: u32,
    }

    #[derive(Debug, Clone, PartialEq, Eq, Hash)]
    enum Act {
        A,
        B,
    }

    impl Automaton for Pair {
        type Action = Act;
        type State = (u32, u32);
        fn name(&self) -> String {
            "pair".into()
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
                0 => (s.0 < self.limit).then_some(Act::A),
                1 => (s.1 < self.limit).then_some(Act::B),
                _ => None,
            }
        }
        fn apply(&self, s: &mut (u32, u32), a: &Act) -> bool {
            let count = match a {
                Act::A => &mut s.0,
                Act::B => &mut s.1,
            };
            if *count >= self.limit {
                return false;
            }
            *count += 1;
            true
        }
    }

    fn run<S: Scheduler<Pair>>(m: &Pair, sched: &mut S, max: usize) -> Vec<Act> {
        let mut s = m.initial_state();
        let mut out = Vec::new();
        for step in 0..max {
            let Some(t) = sched.next_task(m, &s, step) else {
                break;
            };
            let a = m.enabled(&s, t).expect("scheduler returned enabled task");
            s = m.step(&s, &a).expect("enabled action applies");
            out.push(a);
        }
        out
    }

    #[test]
    fn round_robin_alternates() {
        let m = Pair { limit: 3 };
        let acts = run(&m, &mut RoundRobin::new(), 100);
        assert_eq!(acts, vec![Act::A, Act::B, Act::A, Act::B, Act::A, Act::B]);
    }

    #[test]
    fn round_robin_stops_when_quiescent() {
        let m = Pair { limit: 1 };
        let acts = run(&m, &mut RoundRobin::new(), 100);
        assert_eq!(acts.len(), 2);
    }

    #[test]
    fn round_robin_skips_disabled_tasks() {
        let m = Pair { limit: 2 };
        let mut s = RoundRobin::starting_at(1);
        let acts = run(&m, &mut s, 100);
        assert_eq!(acts[0], Act::B);
        assert_eq!(acts.len(), 4);
    }

    #[test]
    fn random_fair_is_deterministic_per_seed() {
        let m = Pair { limit: 10 };
        let a1 = run(&m, &mut RandomFair::new(7), 100);
        let a2 = run(&m, &mut RandomFair::new(7), 100);
        assert_eq!(a1, a2);
        assert_eq!(a1.len(), 20);
    }

    #[test]
    fn random_fair_completes_both_tasks() {
        let m = Pair { limit: 5 };
        let acts = run(&m, &mut RandomFair::new(1), 100);
        assert_eq!(acts.iter().filter(|a| **a == Act::A).count(), 5);
        assert_eq!(acts.iter().filter(|a| **a == Act::B).count(), 5);
    }

    #[test]
    fn random_fair_debt_cap_prevents_starvation() {
        let m = Pair { limit: 50 };
        let mut sched = RandomFair::new(3).with_max_debt(4);
        let acts = run(&m, &mut sched, 200);
        // No gap between consecutive B's may exceed max_debt + 1 slots.
        let positions: Vec<usize> = acts
            .iter()
            .enumerate()
            .filter(|(_, a)| **a == Act::B)
            .map(|(i, _)| i)
            .collect();
        for w in positions.windows(2) {
            assert!(w[1] - w[0] <= 6, "starved beyond cap: {positions:?}");
        }
    }

    #[test]
    fn adversarial_delays_victim_then_releases() {
        let m = Pair { limit: 3 };
        let mut sched = Adversarial::new(vec![1], 4);
        let acts = run(&m, &mut sched, 100);
        // Task B is withheld while A is available, but still completes.
        assert_eq!(acts.iter().filter(|a| **a == Act::B).count(), 3);
        assert_eq!(acts.iter().filter(|a| **a == Act::A).count(), 3);
        assert_eq!(
            &acts[..3],
            &[Act::A, Act::A, Act::A],
            "victim starved first"
        );
    }

    #[test]
    fn adversarial_releases_when_only_victims_enabled() {
        let m = Pair { limit: 2 };
        let mut sched = Adversarial::new(vec![0, 1], 1000);
        let acts = run(&m, &mut sched, 100);
        assert_eq!(acts.len(), 4, "both victims eventually run: {acts:?}");
    }
}
