//! Hooks (§9.6): the bivalent→univalent decision structure, its
//! constructive discovery (Lemmas 53–55), and the Theorem 59 property
//! checks (non-⊥ action tags, a single critical location, and the
//! critical location's liveness in `t_D`).
//!
//! The search follows the paper's argument, not brute force:
//!
//! * keep a **bivalent** node `N` and serve labels from a round-robin
//!   fairness queue (the walk of Lemma 53);
//! * if `N`'s `l`-child is bivalent, take it;
//! * if it is `v`-valent, replay a *witness playout* from `N` that
//!   decides `1−v` (it exists — `N` is bivalent) and scan the `l`-child
//!   valences along that path (Lemma 54). Either some `l`-child on the
//!   path is bivalent (take it, still serving `l` fairly) or the
//!   valence flips from `v` to `1−v` across one path edge — and that
//!   flip is precisely a hook `(N', l, r)` (Lemma 55, Figure 2).
//!
//! Valence verdicts come from [`crate::valence`]: bivalence is proven
//! by witnesses, univalence is empirical; the returned report carries
//! the Theorem 59 cross-checks.

use afd_core::{Action, Loc, Val};
use afd_system::LocalBehavior;
use ioa::Automaton;

use crate::explorer::{Node, PlayoutOptions, TaggedTree, TreeLabel};
use crate::valence::{estimate_valence_witnessed, Valence, ValenceOptions};

/// A discovered hook `(N, l, r)` with its verification data.
#[derive(Debug, Clone)]
pub struct HookReport {
    /// Outer-walk iterations consumed before the hook was found.
    pub iterations: usize,
    /// The label `l` (the `l`-child of `N` is `v`-valent).
    pub l: TreeLabel,
    /// The label `r` (the `l`-child of `N`'s `r`-child is `(1−v)`-valent).
    pub r: TreeLabel,
    /// The action tag of `N`'s `l`-edge (Theorem 56: non-⊥).
    pub action_l: Action,
    /// The action tag of `N`'s `r`-edge (Theorem 56: non-⊥).
    pub action_r: Action,
    /// The valence direction `v` of the `l`-child of `N`.
    pub v: Val,
    /// The critical location (Theorem 57: `loc(a_l) = loc(a_r)`).
    pub critical: Loc,
    /// Whether the critical location is live in `t_D` (Theorem 58).
    pub critical_live: bool,
    /// Observed valence of the `l`-child of `N`'s `r`-child
    /// (expected `(1−v)`-valent).
    pub cross_check: Valence,
}

/// Coarse classification of a hook by the kind of its `l`-edge — used
/// by the experiment tables to show *where* the decision pivots live.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum HookKind {
    /// The pivot is an environment input (which value gets proposed).
    EnvInput,
    /// The pivot is a message delivery.
    ChannelDelivery,
    /// The pivot is a process step.
    ProcessStep,
    /// The pivot is a failure-detector event.
    FdEvent,
}

impl HookReport {
    /// Which kind of edge the hook pivots on.
    #[must_use]
    pub fn kind(&self) -> HookKind {
        match self.l {
            TreeLabel::Fd => HookKind::FdEvent,
            TreeLabel::Task(afd_system::Label::Env(_, _), _)
            | TreeLabel::Task(afd_system::Label::EnvGlobal, _) => HookKind::EnvInput,
            TreeLabel::Task(afd_system::Label::Chan(_, _), _) => HookKind::ChannelDelivery,
            TreeLabel::Task(afd_system::Label::Proc(_), _) => HookKind::ProcessStep,
            TreeLabel::Task(afd_system::Label::Fd(_), _) => HookKind::FdEvent,
        }
    }

    /// Theorem 57's check: both action tags occur at one location.
    #[must_use]
    pub fn tags_share_location(&self) -> bool {
        self.action_l.loc() == self.action_r.loc()
    }

    /// Theorem 59 verdict: non-⊥ tags (by construction), shared
    /// critical location, critical location live, and the cross-check
    /// valence agreeing with `1 − v`.
    #[must_use]
    pub fn satisfies_theorem_59(&self) -> bool {
        self.tags_share_location()
            && self.critical_live
            && self.cross_check.value() == Some(1 - self.v)
    }
}

/// Why the hook search stopped without a hook.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HookSearchError {
    /// The root was not observed bivalent (Prop. 51 makes this
    /// impossible for a consensus-solving system with open inputs —
    /// seeing it means the playout budget is too small).
    RootNotBivalent(Valence),
    /// A node the walk relied on stopped looking bivalent (sampling
    /// noise; retry with more samples).
    BivalenceLost {
        /// Iteration at which it happened.
        iteration: usize,
    },
    /// The witness path decided the opposite value yet no valence flip
    /// was observed (sampling noise).
    NoFlipFound {
        /// Iteration at which it happened.
        iteration: usize,
    },
    /// The iteration budget ran out.
    BudgetExceeded {
        /// The budget.
        iterations: usize,
    },
}

impl std::fmt::Display for HookSearchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HookSearchError::RootNotBivalent(v) => write!(f, "root not bivalent: {v:?}"),
            HookSearchError::BivalenceLost { iteration } => {
                write!(f, "bivalence lost at iteration {iteration}")
            }
            HookSearchError::NoFlipFound { iteration } => {
                write!(f, "no valence flip found at iteration {iteration}")
            }
            HookSearchError::BudgetExceeded { iterations } => {
                write!(f, "no hook within {iterations} iterations")
            }
        }
    }
}

impl std::error::Error for HookSearchError {}

/// Search configuration.
#[derive(Debug, Clone, Copy)]
pub struct HookSearchOptions {
    /// Valence estimation parameters.
    pub valence: ValenceOptions,
    /// Outer-walk iteration budget.
    pub max_iterations: usize,
}

impl Default for HookSearchOptions {
    fn default() -> Self {
        HookSearchOptions {
            valence: ValenceOptions {
                samples: 3,
                seed_base: 5000,
                max_steps: 8000,
            },
            max_iterations: 600,
        }
    }
}

/// The valence of the `l`-child of `p` (per §8.2, a ⊥ `l`-edge makes
/// the `l`-child `p` itself).
fn l_child_valence<B: LocalBehavior>(
    tree: &TaggedTree<'_, B>,
    p: &Node<B>,
    l: TreeLabel,
    opts: ValenceOptions,
) -> (crate::valence::ValenceEstimate, Node<B>) {
    let (_, c) = tree.child(p, l);
    (estimate_valence_witnessed(tree, &c, opts), c)
}

/// Find a hook by the constructive walk of Lemmas 53–55.
///
/// # Errors
/// See [`HookSearchError`].
#[allow(clippy::explicit_counter_loop)] // `queue` is a rotating label cursor, not a loop count
pub fn find_hook<B: LocalBehavior>(
    tree: &TaggedTree<'_, B>,
    opts: HookSearchOptions,
) -> Result<HookReport, HookSearchError> {
    let labels = tree.labels();
    let faulty = tree.seq.faulty();
    let mut node = tree.root();
    // The walk's invariant: `node` is *proven* bivalent and `node_est`
    // carries the deciding-playout witnesses for both values. Keeping
    // the proving estimate (instead of re-estimating later) means the
    // witness replay below can never miss.
    let mut node_est = estimate_valence_witnessed(tree, &node, opts.valence);
    if node_est.valence != Valence::Bivalent {
        return Err(HookSearchError::RootNotBivalent(node_est.valence));
    }
    // `queue` is a rotating cursor into `labels`, advanced independently
    // of the iteration count when path-scans jump the walk forward.
    let mut queue = 0usize;
    'outer: for iteration in 0..opts.max_iterations {
        let l = labels[queue % labels.len()];
        queue += 1;
        // Serve label l at the current bivalent node.
        let (Some(_), l_child) = tree.child(&node, l) else {
            continue; // ⊥ edge: l is disabled, fairness is satisfied vacuously
        };
        let l_est = estimate_valence_witnessed(tree, &l_child, opts.valence);
        let v = match l_est.valence {
            Valence::Bivalent => {
                node = l_child;
                node_est = l_est;
                continue;
            }
            Valence::Unknown => continue,
            Valence::ZeroValent => 0,
            Valence::OneValent => 1,
        };
        // l-child is v-valent: replay a (1−v)-deciding witness from
        // node. The witness exists by the walk invariant.
        let nv = 1 - v;
        let Some((seed, steer)) = node_est.witness(nv) else {
            return Err(HookSearchError::BivalenceLost { iteration });
        };
        let (outcome, path) = tree.playout_with_path(
            &node,
            seed,
            PlayoutOptions {
                steer_env: steer,
                max_steps: opts.valence.max_steps,
            },
        );
        debug_assert_eq!(
            outcome.decision,
            Some(nv),
            "witness replays deterministically"
        );
        // Scan l-child valences along the deciding path.
        let mut prev = node.clone();
        let mut prev_lval = Some(v);
        for (r_label, p_node) in path {
            let (est_here, l_child_here) = l_child_valence(tree, &p_node, l, opts.valence);
            let val_here = est_here.valence;
            match val_here {
                Valence::Bivalent => {
                    // Take l from here: serves l fairly, stays bivalent.
                    node = l_child_here;
                    node_est = est_here;
                    continue 'outer;
                }
                Valence::Unknown => {
                    prev = p_node;
                    prev_lval = None;
                }
                _ => {
                    let val = val_here.value().expect("univalent");
                    if val == nv {
                        if prev_lval == Some(v) {
                            if let Some(action_l) = tree.enabled(&prev, l.task()) {
                                // Univalence is an empirical verdict, so a
                                // candidate flip can be sampling noise. Before
                                // certifying, re-estimate both endpoints with a
                                // boosted playout budget: bivalence is proven
                                // by witnesses, so extra samples only ever
                                // overturn a false univalent label.
                                let boosted = ValenceOptions {
                                    samples: opts.valence.samples * 5,
                                    seed_base: opts.valence.seed_base ^ 0x9E37,
                                    max_steps: opts.valence.max_steps,
                                };
                                let (p_est, p_biv) = l_child_valence(tree, &prev, l, boosted);
                                if p_est.valence == Valence::Bivalent {
                                    node = p_biv;
                                    node_est = p_est;
                                    continue 'outer;
                                }
                                let (c_est, c_biv) = l_child_valence(tree, &p_node, l, boosted);
                                if c_est.valence == Valence::Bivalent {
                                    node = c_biv;
                                    node_est = c_est;
                                    continue 'outer;
                                }
                                let (pv, cv) = (p_est.valence, c_est.valence);
                                if pv.value() == Some(v) && cv.value() == Some(nv) {
                                    let action_r = tree
                                        .enabled(&prev, r_label.task())
                                        .expect("path edges are non-⊥");
                                    let critical = action_l.loc();
                                    return Ok(HookReport {
                                        iterations: iteration,
                                        l,
                                        r: r_label,
                                        action_l,
                                        action_r,
                                        v,
                                        critical,
                                        critical_live: !faulty.contains(critical),
                                        cross_check: cv,
                                    });
                                }
                            }
                        }
                        // Can't certify this flip; keep scanning from here.
                        prev = p_node;
                        prev_lval = Some(nv);
                    } else {
                        prev = p_node;
                        prev_lval = Some(v);
                    }
                }
            }
        }
        return Err(HookSearchError::NoFlipFound { iteration });
    }
    Err(HookSearchError::BudgetExceeded {
        iterations: opts.max_iterations,
    })
}

/// Aggregate results of running the hook search over many `t_D`s.
#[derive(Debug, Clone, Default)]
pub struct HookSurvey {
    /// Hooks found, per [`HookKind`].
    pub by_kind: std::collections::BTreeMap<HookKind, usize>,
    /// Hooks whose critical location was live (Theorem 58) — must equal
    /// `found` when the theory holds.
    pub critical_live: usize,
    /// Hooks passing the full Theorem 59 verdict.
    pub theorem_59: usize,
    /// Searches that found a hook.
    pub found: usize,
    /// Searches that failed (sampling noise or budget).
    pub failed: usize,
}

impl HookSurvey {
    /// Record one search outcome.
    pub fn record(&mut self, r: &Result<HookReport, HookSearchError>) {
        match r {
            Ok(h) => {
                self.found += 1;
                *self.by_kind.entry(h.kind()).or_insert(0) += 1;
                if h.critical_live {
                    self.critical_live += 1;
                }
                if h.satisfies_theorem_59() {
                    self.theorem_59 += 1;
                }
            }
            Err(_) => self.failed += 1,
        }
    }

    /// True iff every found hook satisfied Theorem 59.
    #[must_use]
    pub fn all_clean(&self) -> bool {
        self.found > 0 && self.theorem_59 == self.found && self.critical_live == self.found
    }
}

impl std::fmt::Display for HookSurvey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} hooks found ({} failed searches); critical live {}/{}; Theorem 59 {}/{}; kinds: ",
            self.found, self.failed, self.critical_live, self.found, self.theorem_59, self.found
        )?;
        for (i, (k, n)) in self.by_kind.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{k:?}×{n}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use afd_algorithms::consensus::paxos_omega::PaxosOmega;
    use afd_core::Pi;
    use afd_system::{Env, ProcessAutomaton, System, SystemBuilder};

    use crate::fdseq::{random_t_omega, FdSeq};

    fn tree_system(pi: Pi, seq: &FdSeq) -> System<ProcessAutomaton<PaxosOmega>> {
        let procs = pi
            .iter()
            .map(|i| ProcessAutomaton::new(i, PaxosOmega::new(pi)))
            .collect();
        SystemBuilder::new(pi, procs)
            .with_env(Env::consensus(pi))
            .with_crashes(seq.crash_script())
            .build()
    }

    #[test]
    fn hook_exists_and_satisfies_theorem_59_failure_free() {
        let pi = Pi::new(3);
        let seq = random_t_omega(pi, 0, 42);
        let sys = tree_system(pi, &seq);
        let tree = TaggedTree::new(&sys, seq);
        let hook = find_hook(&tree, HookSearchOptions::default()).expect("hook must exist");
        assert!(hook.tags_share_location(), "{hook:?}");
        assert!(hook.critical_live, "{hook:?}");
        assert!(hook.satisfies_theorem_59(), "cross check failed: {hook:?}");
    }

    #[test]
    fn hook_critical_location_live_with_crashes_in_td() {
        let pi = Pi::new(3);
        for seed in [7u64, 19] {
            let seq = random_t_omega(pi, 1, seed);
            let sys = tree_system(pi, &seq);
            let tree = TaggedTree::new(&sys, seq);
            match find_hook(&tree, HookSearchOptions::default()) {
                Ok(hook) => {
                    assert!(
                        hook.critical_live,
                        "seed {seed}: critical at faulty loc: {hook:?}"
                    );
                    assert!(hook.tags_share_location(), "seed {seed}: {hook:?}");
                }
                Err(e) => panic!("seed {seed}: {e}"),
            }
        }
    }

    #[test]
    fn survey_aggregates_over_seeds() {
        let pi = Pi::new(3);
        let mut survey = HookSurvey::default();
        for seed in 0..5u64 {
            let seq = random_t_omega(pi, 1, seed);
            let sys = tree_system(pi, &seq);
            let tree = TaggedTree::new(&sys, seq);
            survey.record(&find_hook(&tree, HookSearchOptions::default()));
        }
        assert_eq!(survey.found, 5, "{survey}");
        assert!(survey.all_clean(), "{survey}");
        assert!(survey.to_string().contains("5 hooks found"));
    }

    #[test]
    fn error_display() {
        let e = HookSearchError::BudgetExceeded { iterations: 9 };
        assert!(e.to_string().contains('9'));
        let e2 = HookSearchError::RootNotBivalent(Valence::ZeroValent);
        assert!(e2.to_string().contains("not bivalent"));
        let e3 = HookSearchError::BivalenceLost { iteration: 3 };
        assert!(e3.to_string().contains("lost"));
        let e4 = HookSearchError::NoFlipFound { iteration: 2 };
        assert!(e4.to_string().contains("flip"));
    }
}
