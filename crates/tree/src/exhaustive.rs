//! Bounded exhaustive exploration of `R^{t_D}` — the §8.3 structural
//! propositions, checked on real (small) trees rather than sampled
//! branches.
//!
//! * Proposition 29: for each explored node `N`, `exe(N)` is a legal
//!   execution of the system and
//!   `exe(N)|_{Î∪O_D} · t_N = t_D` (the reconstruction invariant).
//! * Propositions 30–32: ⊥ edges preserve `exe`, non-⊥ edges extend it
//!   by one event, ancestors' `exe`s are prefixes.
//! * Theorem 41: two trees whose sequences share a prefix of length `x`
//!   agree on every node reachable while consuming fewer than `x` FD
//!   events.
//!
//! Exploration is `ioa`'s breadth-first sweep ([`check_invariant`]) of
//! the tree automaton with node-count and depth budgets; states are deduplicated by
//! (config, FD-position), which is exactly the paper's observation
//! (Lemma 33) that equal tags imply equal subtrees. Each node's
//! discovery path is read back from the sweep's edges.

use afd_core::Action;
use afd_system::LocalBehavior;
use ioa::{check_invariant, Automaton, Sweep};

use crate::explorer::{TaggedTree, TreeLabel, FD_TASK};

/// A bounded exploration of `R^{t_D}`: the nodes, their discovery
/// edges, the live and ⊥ edge counts, and whether the frontier was
/// exhausted within the budgets.
pub type Exploration<'a, B> = Sweep<TaggedTree<'a, B>>;

/// The number of FD events consumed on node `k`'s discovery path.
#[must_use]
pub fn fd_events_consumed<B: LocalBehavior>(e: &Exploration<'_, B>, k: usize) -> usize {
    e.path(k).iter().filter(|e| e.task == Some(FD_TASK)).count()
}

/// Explore `R^{t_D}` breadth-first up to `max_nodes` distinct nodes and
/// `max_depth` non-⊥ edges.
#[must_use]
pub fn explore<'a, B: LocalBehavior>(
    tree: &TaggedTree<'a, B>,
    max_nodes: usize,
    max_depth: usize,
) -> Exploration<'a, B> {
    check_invariant(tree, &[], max_nodes, max_depth, |_| true)
}

/// Proposition 29's reconstruction invariant, checked for every
/// explored node: replaying the discovery path from the initial config,
/// each edge's action is its task's action tag, the replay reaches the
/// node, and the path's `Î ∪ O_D` projection equals the prefix of `t_D`
/// consumed by the FD edges.
///
/// # Errors
/// A description of the first violated node.
pub fn check_proposition_29<B: LocalBehavior>(
    tree: &TaggedTree<'_, B>,
    exploration: &Exploration<'_, B>,
) -> Result<(), String> {
    for (k, node) in exploration.states.iter().enumerate() {
        let path = exploration.path(k);
        let mut cur = tree.root();
        for e in &path {
            let tag = e.task.and_then(|t| tree.enabled(&cur, t));
            match tree.step(&cur, &e.action) {
                Some(next) if tag == Some(e.action) => cur = next,
                _ => return Err(format!("node {k}: {:?} is not its task's tag", e.action)),
            }
        }
        if cur != *node {
            return Err(format!("node {k}: replaying its path does not reach it"));
        }
        // FD-projection of exe(N) equals the consumed prefix of t_D.
        let consumed: Vec<Action> = path
            .iter()
            .filter(|e| e.task == Some(FD_TASK))
            .map(|e| e.action)
            .collect();
        if consumed != tree.seq.window(consumed.len()) {
            return Err(format!("node {k}: exe(N)|FD ≠ consumed prefix of t_D"));
        }
    }
    Ok(())
}

/// Theorem 41 on explored prefixes: two trees over sequences sharing a
/// prefix of `x` events have identical explored node sets when
/// exploration is restricted to nodes that consumed fewer than `x` FD
/// events.
#[must_use]
pub fn check_theorem_41<B: LocalBehavior>(
    t1: &TaggedTree<'_, B>,
    t2: &TaggedTree<'_, B>,
    common_prefix_len: usize,
    max_nodes: usize,
) -> bool {
    // Consuming < x FD events needs ≤ x depth.
    let sig = |t: &TaggedTree<'_, B>| {
        let e = explore(t, max_nodes, common_prefix_len);
        let mut v: Vec<Vec<(TreeLabel, Action)>> = (0..e.len())
            .filter(|&k| fd_events_consumed(&e, k) < common_prefix_len)
            .map(|k| {
                let path = e.path(k).into_iter();
                path.map(|edge| (t.label(edge.task.expect("no inputs")), edge.action))
                    .collect()
            })
            .collect();
        v.sort();
        v
    };
    sig(t1) == sig(t2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use afd_algorithms::consensus::paxos_omega::PaxosOmega;
    use afd_core::{FdOutput, Loc, Pi};
    use afd_system::{Env, ProcessAutomaton, System, SystemBuilder};

    use crate::fdseq::FdSeq;

    fn small_seq(pi: Pi) -> FdSeq {
        FdSeq::new(
            vec![],
            pi.iter()
                .map(|i| Action::Fd {
                    at: i,
                    out: FdOutput::Leader(Loc(0)),
                })
                .collect(),
        )
    }

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
    fn exploration_finds_distinct_nodes_and_dedups() {
        let pi = Pi::new(2);
        let seq = small_seq(pi);
        let sys = tree_system(pi, &seq);
        let tree = TaggedTree::new(&sys, seq);
        let e = explore(&tree, 500, 6);
        assert!(e.len() > 10, "{} nodes", e.len());
        assert!(e.bottom_edges > 0, "channels start empty: ⊥ edges exist");
        assert!(e.live_edges >= e.len() - 1);
        assert!(!e.is_empty());
    }

    #[test]
    fn proposition_29_holds_on_explored_prefix() {
        let pi = Pi::new(2);
        let seq = small_seq(pi);
        let sys = tree_system(pi, &seq);
        let tree = TaggedTree::new(&sys, seq);
        let e = explore(&tree, 400, 5);
        check_proposition_29(&tree, &e).unwrap();
    }

    #[test]
    fn proposition_29_checks_each_edges_task() {
        let pi = Pi::new(2);
        let seq = small_seq(pi);
        let sys = tree_system(pi, &seq);
        let tree = TaggedTree::new(&sys, seq);
        let mut e = explore(&tree, 400, 5);
        // Relabel an FD edge as the first process task's.
        let fd_edge = e
            .edges
            .iter_mut()
            .flatten()
            .find(|x| x.task == Some(FD_TASK));
        fd_edge.unwrap().task = Some(ioa::TaskId(1));
        assert!(check_proposition_29(&tree, &e).is_err());
    }

    #[test]
    fn depth_budget_marks_incomplete() {
        let pi = Pi::new(2);
        let seq = small_seq(pi);
        let sys = tree_system(pi, &seq);
        let tree = TaggedTree::new(&sys, seq);
        let e = explore(&tree, 10_000, 2);
        assert!(!e.complete, "depth 2 cannot exhaust an infinite tree");
        let e2 = explore(&tree, 5, 10);
        assert!(!e2.complete, "node budget 5 is exceeded");
    }

    #[test]
    fn theorem_41_trees_agree_on_common_prefix() {
        let pi = Pi::new(2);
        // Two sequences sharing the first 2 events, diverging afterwards.
        let shared = vec![
            Action::Fd {
                at: Loc(0),
                out: FdOutput::Leader(Loc(0)),
            },
            Action::Fd {
                at: Loc(1),
                out: FdOutput::Leader(Loc(0)),
            },
        ];
        let s1 = FdSeq::new(shared.clone(), vec![shared[0]]);
        let s2 = FdSeq::new(
            shared.clone(),
            vec![Action::Fd {
                at: Loc(1),
                out: FdOutput::Leader(Loc(1)),
            }],
        );
        let sys1 = tree_system(pi, &s1);
        let sys2 = tree_system(pi, &s2);
        let t1 = TaggedTree::new(&sys1, s1);
        let t2 = TaggedTree::new(&sys2, s2);
        assert!(check_theorem_41(&t1, &t2, 2, 4000));
    }

    #[test]
    fn fd_events_consumed_counts_fd_edges() {
        let pi = Pi::new(2);
        let seq = small_seq(pi);
        let sys = tree_system(pi, &seq);
        let tree = TaggedTree::new(&sys, seq);
        let e = explore(&tree, 200, 4);
        // The root consumed none; some node consumed at least one.
        assert_eq!(fd_events_consumed(&e, 0), 0);
        assert!((0..e.len()).any(|k| fd_events_consumed(&e, k) > 0));
    }
}
