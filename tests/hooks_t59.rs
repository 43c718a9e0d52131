//! §9 end-to-end: hooks exist in the tagged tree of every consensus
//! system/`t_D` pair we probe, and every hook satisfies Theorem 59 —
//! non-⊥ action tags, one critical location, and the critical location
//! live in `t_D`.

use afd_algorithms::consensus::ct_strong::CtStrong;
use afd_algorithms::consensus::paxos_omega::PaxosOmega;
use afd_core::{Action, FdOutput, Loc, Pi};
use afd_system::{Env, ProcessAutomaton, System, SystemBuilder};
use afd_tree::{
    estimate_valence, find_hook, is_in_t_evp, is_in_t_omega, random_t_evp, random_t_omega, FdSeq,
    HookSearchOptions, TaggedTree, Valence, ValenceOptions,
};
use ioa::Automaton;

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
fn proposition_51_root_bivalent_over_many_sequences() {
    let pi = Pi::new(3);
    for seed in 0..8u64 {
        let seq = random_t_omega(pi, 1, seed);
        assert!(is_in_t_omega(pi, &seq));
        let sys = tree_system(pi, &seq);
        let tree = TaggedTree::new(&sys, seq);
        let v = estimate_valence(&tree, &tree.root(), ValenceOptions::default());
        assert_eq!(v, Valence::Bivalent, "seed {seed}");
    }
}

#[test]
fn theorem_59_sweep() {
    let pi = Pi::new(3);
    let mut found = 0;
    for seed in 0..10u64 {
        let seq = random_t_omega(pi, 1, seed);
        let sys = tree_system(pi, &seq);
        let tree = TaggedTree::new(&sys, seq);
        let hook = match find_hook(&tree, HookSearchOptions::default()) {
            Ok(h) => h,
            Err(e) => panic!("seed {seed}: {e}"),
        };
        found += 1;
        assert!(
            hook.tags_share_location(),
            "seed {seed}: Theorem 57 violated: {hook:?}"
        );
        assert!(
            hook.critical_live,
            "seed {seed}: Theorem 58 violated: {hook:?}"
        );
        assert!(hook.satisfies_theorem_59(), "seed {seed}: {hook:?}");
    }
    assert_eq!(found, 10);
}

#[test]
fn theorem_59_with_two_processes_crashing_in_td() {
    // n = 5, f = 2: larger universe, two crashes scripted in t_D.
    let pi = Pi::new(5);
    let seq = random_t_omega(pi, 2, 3);
    let sys = tree_system(pi, &seq);
    let tree = TaggedTree::new(&sys, seq);
    let hook = find_hook(&tree, HookSearchOptions::default()).expect("hook exists");
    assert!(hook.satisfies_theorem_59(), "{hook:?}");
}

#[test]
fn hooks_on_a_handcrafted_sequence() {
    // A t_D whose prefix crashes p0 immediately: the critical location
    // must be p1 or p2, never p0.
    let pi = Pi::new(3);
    let seq = FdSeq::new(
        vec![Action::Crash(Loc(0))],
        vec![
            Action::Fd {
                at: Loc(1),
                out: FdOutput::Leader(Loc(1)),
            },
            Action::Fd {
                at: Loc(2),
                out: FdOutput::Leader(Loc(1)),
            },
        ],
    );
    let sys = tree_system(pi, &seq);
    let tree = TaggedTree::new(&sys, seq);
    let hook = find_hook(&tree, HookSearchOptions::default()).expect("hook exists");
    assert_ne!(
        hook.critical,
        Loc(0),
        "crashed location cannot be critical: {hook:?}"
    );
    assert!(hook.satisfies_theorem_59(), "{hook:?}");
}

#[test]
fn theorem_59_holds_for_the_ct_system_too() {
    // The §9 result is AFD-generic: run the same analysis on the
    // Chandra–Toueg system driven by t_D ∈ T_◇P (⊆ T_◇S).
    let pi = Pi::new(3);
    let mut kinds = std::collections::BTreeSet::new();
    for seed in 0..6u64 {
        let seq = random_t_evp(pi, 1, seed);
        assert!(is_in_t_evp(pi, &seq), "seed {seed}");
        let procs = pi
            .iter()
            .map(|i| ProcessAutomaton::new(i, CtStrong::new(pi)))
            .collect();
        let sys = SystemBuilder::new(pi, procs)
            .with_env(Env::consensus(pi))
            .with_crashes(seq.crash_script())
            .build();
        let tree = TaggedTree::new(&sys, seq);
        let hook = match find_hook(&tree, HookSearchOptions::default()) {
            Ok(h) => h,
            Err(e) => panic!("seed {seed}: {e}"),
        };
        kinds.insert(hook.kind());
        assert!(hook.satisfies_theorem_59(), "seed {seed}: {hook:?}");
    }
    assert!(!kinds.is_empty());
}

#[test]
fn lemma_52_valence_is_hereditary_along_edges() {
    // Once a node is univalent, its children stay univalent with the
    // same value (sampled check along a deciding playout).
    let pi = Pi::new(3);
    let seq = random_t_omega(pi, 0, 5);
    let sys = tree_system(pi, &seq);
    let tree = TaggedTree::new(&sys, seq);
    // Drive all env tasks to propose 1: the node is 1-valent.
    let mut node = tree.root();
    for label in tree.labels() {
        if let afd_tree::TreeLabel::Task(afd_system::Label::Env(_, 1), _) = label {
            let (tag, next) = tree.child(&node, label);
            assert!(tag.is_some());
            node = next;
        }
    }
    let opts = ValenceOptions::default();
    assert_eq!(estimate_valence(&tree, &node, opts), Valence::OneValent);
    for (task, _) in tree.enabled_actions(&node).into_iter().take(6) {
        let label = tree.label(task);
        let (_, child) = tree.child(&node, label);
        let v = estimate_valence(&tree, &child, opts);
        assert_eq!(v, Valence::OneValent, "label {label}");
    }
}
