//! The §9 tree analysis (Figures 2 & 3, Theorem 59): for seeded
//! sequences `t_D ∈ T_Ω`, build the tagged tree of the Paxos-over-Ω
//! consensus system, find a hook by the Lemma 53–55 walk, and verify
//! the Theorem 59 properties — non-⊥ action tags, a single critical
//! location, and the critical location's liveness in `t_D`.
//!
//! Run with: `cargo run --release --example hook_analysis` (exits 1
//! if a search fails or a hook breaks Theorem 59).

use afd_algorithms::consensus::paxos_omega::PaxosOmega;
use afd_core::Pi;
use afd_system::{Env, ProcessAutomaton, SystemBuilder};
use afd_tree::{find_hook, random_t_omega, HookSearchOptions, TaggedTree};

fn main() {
    let pi = Pi::new(3);
    println!("hooks in R^tD for paxos-Ω, n = 3, f = 1 (Theorem 59)");
    println!(
        "{:<6} {:<9} {:<12} {:<28} {:<10} {:<6} {:<5}",
        "seed", "crashes", "l-label", "action tags (l / r)", "critical", "live", "T59"
    );
    const SEEDS: u64 = 12;
    let (mut found, mut live, mut clean) = (0, 0, 0);
    for seed in 0..SEEDS {
        let seq = random_t_omega(pi, 1, seed);
        let crashes = seq.faulty();
        let procs = pi
            .iter()
            .map(|i| ProcessAutomaton::new(i, PaxosOmega::new(pi)))
            .collect();
        let sys = SystemBuilder::new(pi, procs)
            .with_env(Env::consensus(pi))
            .with_crashes(seq.crash_script())
            .build();
        let tree = TaggedTree::new(&sys, seq);
        match find_hook(&tree, HookSearchOptions::default()) {
            Ok(hook) => {
                found += 1;
                live += usize::from(hook.critical_live);
                clean += usize::from(hook.satisfies_theorem_59());
                println!(
                    "{:<6} {:<9} {:<12} {:<28} {:<10} {:<6} {:<5}",
                    seed,
                    crashes.to_string(),
                    hook.l.to_string(),
                    format!("{} / {}", hook.action_l, hook.action_r),
                    hook.critical.to_string(),
                    hook.critical_live,
                    hook.satisfies_theorem_59()
                );
            }
            Err(e) => println!("{seed:<6} {crashes:<9} search failed: {e}"),
        }
    }
    let liveness = if live == found {
        "every hook's critical location is live".to_string()
    } else {
        format!("{live}/{found} hooks have a live critical location")
    };
    println!("\nhooks found: {found}/{SEEDS} — {liveness} (Lemma 58)");
    if found < SEEDS as usize || clean < found {
        std::process::exit(1);
    }
}
