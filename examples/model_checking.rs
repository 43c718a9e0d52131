//! Exhaustive analysis demos: (1) model-check Paxos agreement over the
//! complete reachable state space at n = 2; (2) enumerate a prefix of
//! the tagged tree `R^{t_D}` and verify Proposition 29's reconstruction
//! invariant; (3) confirm Theorem 41 — trees over sequences sharing a
//! prefix agree on the corresponding region.
//!
//! Run with: `cargo run --release --example model_checking` (exits 1
//! if any check fails).

use afd_algorithms::consensus::paxos_omega::{paxos_system, PaxosOmega};
use afd_core::{Action, FdOutput, Loc, Pi};
use afd_system::{ComponentState, Env, ProcState, ProcessAutomaton, SystemBuilder};
use afd_tree::{check_proposition_29, check_theorem_41, explore, FdSeq, TaggedTree};
use ioa::check_invariant;

fn main() {
    let mut failed = 0;
    // (1) Full-space agreement check.
    let pi = Pi::new(2);
    let sys = paxos_system(pi, &[0, 1], vec![]);
    let out = check_invariant(
        &sys.composition,
        &[],
        600_000,
        usize::MAX,
        |s: &Vec<ComponentState<ProcState<afd_algorithms::consensus::paxos_omega::PaxosState>>>| {
            let decided: Vec<u64> = s
                .iter()
                .filter_map(|c| match c {
                    ComponentState::Process(p) => p.inner.decided,
                    _ => None,
                })
                .collect();
            decided.windows(2).all(|w| w[0] == w[1])
        },
    );
    match out.violation {
        None => println!(
            "paxos n=2: agreement holds on all {} reachable states (complete: {})",
            out.len(),
            out.complete
        ),
        Some(k) => {
            failed += 1;
            println!("VIOLATED after {:?}", out.path(k));
        }
    }

    // (2) Tagged-tree prefix + Proposition 29.
    let seq = FdSeq::new(
        vec![],
        pi.iter()
            .map(|i| Action::Fd {
                at: i,
                out: FdOutput::Leader(Loc(0)),
            })
            .collect(),
    );
    let procs = pi
        .iter()
        .map(|i| ProcessAutomaton::new(i, PaxosOmega::new(pi)))
        .collect();
    let tsys = SystemBuilder::new(pi, procs)
        .with_env(Env::consensus(pi))
        .with_crashes(seq.crash_script())
        .build();
    let tree = TaggedTree::new(&tsys, seq);
    let exploration = explore(&tree, 5_000, 6);
    println!(
        "tagged tree: {} distinct nodes to depth 6 ({} ⊥ edges, {} live edges)",
        exploration.len(),
        exploration.bottom_edges,
        exploration.live_edges
    );
    match check_proposition_29(&tree, &exploration) {
        Ok(()) => println!("Proposition 29 reconstruction invariant: holds on every node ✓"),
        Err(e) => {
            failed += 1;
            println!("Proposition 29 VIOLATED: {e}");
        }
    }

    // (3) Theorem 41 on a shared-prefix pair.
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
    let procs1 = pi
        .iter()
        .map(|i| ProcessAutomaton::new(i, PaxosOmega::new(pi)))
        .collect();
    let procs2 = pi
        .iter()
        .map(|i| ProcessAutomaton::new(i, PaxosOmega::new(pi)))
        .collect();
    let sys1 = SystemBuilder::new(pi, procs1)
        .with_env(Env::consensus(pi))
        .build();
    let sys2 = SystemBuilder::new(pi, procs2)
        .with_env(Env::consensus(pi))
        .build();
    let t1 = TaggedTree::new(&sys1, s1);
    let t2 = TaggedTree::new(&sys2, s2);
    let theorem_41 = check_theorem_41(&t1, &t2, 2, 4_000);
    println!(
        "Theorem 41 (shared 2-event prefix ⇒ equal explored regions): {}",
        if theorem_41 { "holds ✓" } else { "VIOLATED" }
    );
    if !theorem_41 {
        failed += 1;
    }
    if failed > 0 {
        std::process::exit(1);
    }
}
