//! The similar-modulo-i relation `N ∼_i N′` (§8.3).
//!
//! Two nodes are similar modulo `i` when only the (crashed) process at
//! `i` could distinguish their configs: all other process states,
//! channel states between other locations, and environment pieces
//! agree; channels *out of* `i` may differ by a queue prefix; and the
//! FD-sequence tags agree. Lemma 39/Theorem 40 — similarity is
//! preserved edge-by-edge — is exercised in the integration tests.

use afd_core::{Loc, Pi};
use afd_system::ComponentState;

use crate::explorer::TaggedNode;

/// Index of the process component for location `i` (component order is
/// fixed by `SystemBuilder::build`).
#[must_use]
pub fn proc_index(i: Loc) -> usize {
    i.index()
}

/// Index of the channel component `C_{from,to}`.
#[must_use]
pub fn chan_index(pi: Pi, from: Loc, to: Loc) -> usize {
    let n = pi.len();
    let j = if to.index() > from.index() {
        to.index() - 1
    } else {
        to.index()
    };
    n + from.index() * (n - 1) + j
}

/// Index of the environment component.
#[must_use]
pub fn env_index(pi: Pi) -> usize {
    let n = pi.len();
    n + n * (n - 1) + 1 // processes + channels + crash automaton
}

/// Is `a ∼_i b` (§8.3)? Both nodes must come from the same tree
/// (same system, same `t_D`).
#[must_use]
pub fn similar_modulo_i<S: Eq>(pi: Pi, i: Loc, a: &TaggedNode<S>, b: &TaggedNode<S>) -> bool {
    // (6) FD-sequence tags agree.
    if a.pos != b.pos {
        return false;
    }
    // (1) crash_i has occurred in both executions: visible as the
    // process-level crash flag.
    let crashed = |n: &TaggedNode<S>| match &n.config[proc_index(i)] {
        ComponentState::Process(p) => p.crashed,
        _ => false,
    };
    if !crashed(a) || !crashed(b) {
        return false;
    }
    // (2) all other process states agree.
    for j in pi.iter() {
        if j != i && a.config[proc_index(j)] != b.config[proc_index(j)] {
            return false;
        }
    }
    // (3) channels between other locations agree; (4) channels out of
    // `i` are prefix-related (a's queue a prefix of b's). Both hold
    // over either channel alphabet.
    for j in pi.iter() {
        for k in pi.iter() {
            if j == k {
                continue;
            }
            let idx = chan_index(pi, j, k);
            match (&a.config[idx], &b.config[idx]) {
                (ComponentState::Channel(ca), ComponentState::Channel(cb)) => {
                    if j == i {
                        if !ioa::seq::is_prefix(ca.queue(), cb.queue()) {
                            return false;
                        }
                    } else if k != i && ca != cb {
                        return false;
                    }
                    // channels *into* i are unconstrained
                }
                _ => return false,
            }
        }
    }
    // (5) environment pieces at other locations agree.
    let env = env_index(pi);
    match (&a.config[env], &b.config[env]) {
        (ComponentState::Env(ea), ComponentState::Env(eb)) => {
            for j in pi.iter() {
                if j == i {
                    continue;
                }
                if ea.stopped.contains(j) != eb.stopped.contains(j)
                    || ea.crashed.contains(j) != eb.crashed.contains(j)
                {
                    return false;
                }
            }
            if ea.pos != eb.pos {
                return false;
            }
        }
        _ => return false,
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use afd_algorithms::consensus::paxos_omega::PaxosOmega;
    use afd_core::Action;
    use afd_system::{Env, ProcessAutomaton, System, SystemBuilder};

    use crate::explorer::{TaggedTree, TreeLabel};
    use crate::fdseq::FdSeq;

    fn crashy_seq(pi: Pi) -> FdSeq {
        FdSeq::new(
            vec![Action::Crash(Loc(0))],
            pi.iter()
                .skip(1)
                .map(|i| Action::Fd {
                    at: i,
                    out: afd_core::FdOutput::Leader(Loc(1)),
                })
                .collect(),
        )
    }

    fn builder(pi: Pi, seq: &FdSeq) -> SystemBuilder<ProcessAutomaton<PaxosOmega>> {
        let procs = pi
            .iter()
            .map(|i| ProcessAutomaton::new(i, PaxosOmega::new(pi)))
            .collect();
        SystemBuilder::new(pi, procs)
            .with_env(Env::consensus(pi))
            .with_crashes(seq.crash_script())
    }

    fn tree_system(pi: Pi, seq: &FdSeq) -> System<ProcessAutomaton<PaxosOmega>> {
        builder(pi, seq).build()
    }

    #[test]
    fn component_index_arithmetic() {
        let pi = Pi::new(3);
        assert_eq!(proc_index(Loc(2)), 2);
        assert_eq!(chan_index(pi, Loc(0), Loc(1)), 3);
        assert_eq!(chan_index(pi, Loc(0), Loc(2)), 4);
        assert_eq!(chan_index(pi, Loc(1), Loc(0)), 5);
        assert_eq!(chan_index(pi, Loc(2), Loc(1)), 8);
        assert_eq!(env_index(pi), 10);
    }

    #[test]
    fn reflexive_after_crash() {
        let pi = Pi::new(3);
        let seq = crashy_seq(pi);
        // Over either channel alphabet.
        for sys in [
            tree_system(pi, &seq),
            builder(pi, &seq).with_wire_channels().build(),
        ] {
            let tree = TaggedTree::new(&sys, seq.clone());
            // Perform the crash via the FD edge.
            let (_, node) = tree.child(&tree.root(), TreeLabel::Fd);
            assert!(
                similar_modulo_i(pi, Loc(0), &node, &node),
                "∼_i is reflexive"
            );
        }
    }

    #[test]
    fn not_similar_before_crash() {
        let pi = Pi::new(3);
        let seq = crashy_seq(pi);
        let sys = tree_system(pi, &seq);
        let tree = TaggedTree::new(&sys, seq.clone());
        let root = tree.root();
        assert!(
            !similar_modulo_i(pi, Loc(0), &root, &root),
            "crash_i must have occurred"
        );
    }

    #[test]
    fn differing_fd_tags_break_similarity() {
        let pi = Pi::new(3);
        let seq = crashy_seq(pi);
        let sys = tree_system(pi, &seq);
        let tree = TaggedTree::new(&sys, seq);
        let (_, n1) = tree.child(&tree.root(), TreeLabel::Fd);
        let (_, n2) = tree.child(&n1, TreeLabel::Fd);
        assert!(!similar_modulo_i(pi, Loc(0), &n1, &n2));
    }

    #[test]
    fn lemma_39_steps_preserve_similarity() {
        // From a pair (N, N) with N ∼_i N, any same-label step yields
        // children that are still pairwise similar (the l-child case 2
        // of Lemma 39).
        let pi = Pi::new(3);
        let seq = crashy_seq(pi);
        let sys = tree_system(pi, &seq);
        let tree = TaggedTree::new(&sys, seq);
        let (_, node) = tree.child(&tree.root(), TreeLabel::Fd);
        for label in tree.labels() {
            if label == TreeLabel::Fd {
                continue; // FD steps change the tag for both equally; skip the asymmetric probe
            }
            let (_, c1) = tree.child(&node, label);
            let (_, c2) = tree.child(&node, label);
            assert!(similar_modulo_i(pi, Loc(0), &c1, &c2), "label {label}");
        }
    }
}
