//! Same-seed pins of the tagged tree `R^{t_D}`: fair playouts (with and
//! without steering, with and without the recorded path), the hook
//! search of Theorem 59, and bounded exploration. Every constant here
//! was read from the tree before it ran on `ioa`'s runner and sweep; a
//! change to the scheduler's draws, the task order or the sweep's
//! discovery order moves them.

use afd_algorithms::consensus::paxos_omega::PaxosOmega;
use afd_core::{Pi, Val};
use afd_system::{Env, ProcessAutomaton, System, SystemBuilder};
use afd_tree::{
    check_proposition_29, explore, fd_events_consumed, find_hook, random_t_omega, FdSeq,
    HookSearchOptions, PlayoutOptions, TaggedTree,
};

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

/// FNV-1a over `bytes`, continuing from `h`.
fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

const STEERING: [Option<Val>; 3] = [None, Some(0), Some(1)];

#[test]
fn playout_outcomes_are_pinned() {
    let pi = Pi::new(3);
    let seq = random_t_omega(pi, 1, 3);
    let sys = tree_system(pi, &seq);
    let tree = TaggedTree::new(&sys, seq);
    let root = tree.root();
    let (mut hash, mut steps, mut decided) = (FNV_OFFSET, 0usize, [0usize; 3]);
    for steer_env in STEERING {
        for seed in 0..200u64 {
            let opts = PlayoutOptions {
                steer_env,
                ..PlayoutOptions::default()
            };
            let out = tree.playout(&root, seed, opts);
            let code = out.decision.map_or(2, |v| v as usize);
            decided[code] += 1;
            steps += out.steps;
            hash = fnv(hash, &[code as u8]);
            hash = fnv(hash, &(out.steps as u64).to_le_bytes());
        }
    }
    println!("playouts: steps {steps}, decided {decided:?}, hash {hash:#018x}");
    assert_eq!(steps, PLAYOUT_STEPS);
    assert_eq!(decided, PLAYOUT_DECIDED);
    assert_eq!(hash, PLAYOUT_HASH);
}

const PLAYOUT_STEPS: usize = 22_461;
const PLAYOUT_DECIDED: [usize; 3] = [314, 286, 0];
const PLAYOUT_HASH: u64 = 0x5e21_9576_98ce_80f4;

#[test]
fn playout_paths_are_pinned() {
    let pi = Pi::new(3);
    let seq = random_t_omega(pi, 1, 3);
    let sys = tree_system(pi, &seq);
    let tree = TaggedTree::new(&sys, seq);
    let root = tree.root();
    let (mut hash, mut len) = (FNV_OFFSET, 0usize);
    for steer_env in STEERING {
        for seed in 0..20u64 {
            let opts = PlayoutOptions {
                steer_env,
                ..PlayoutOptions::default()
            };
            let (out, path) = tree.playout_with_path(&root, seed, opts);
            assert_eq!(out, tree.playout(&root, seed, opts), "seed {seed}");
            assert_eq!(path.len(), out.steps);
            len += path.len();
            for (label, node) in &path {
                hash = fnv(hash, label.to_string().as_bytes());
                hash = fnv(hash, &(node.pos.0 as u64).to_le_bytes());
            }
        }
    }
    println!("paths: len {len}, hash {hash:#018x}");
    assert_eq!(len, PATH_LEN);
    assert_eq!(hash, PATH_HASH);
}

const PATH_LEN: usize = 2_199;
const PATH_HASH: u64 = 0xaf42_1fd3_59c9_5f78;

#[test]
fn hooks_are_pinned() {
    let pi = Pi::new(3);
    let mut got = Vec::new();
    for s in 0..10u64 {
        let seq = random_t_omega(pi, 1, s);
        let sys = tree_system(pi, &seq);
        let tree = TaggedTree::new(&sys, seq);
        let hook = find_hook(&tree, HookSearchOptions::default()).expect("hook exists");
        got.push((
            hook.iterations,
            hook.l.to_string(),
            hook.r.to_string(),
            hook.critical.to_string(),
        ));
    }
    println!("hooks: {got:?}");
    let want: Vec<(usize, String, String, String)> = HOOKS
        .iter()
        .map(|&(i, l, r, c)| (i, l.to_string(), r.to_string(), c.to_string()))
        .collect();
    assert_eq!(got, want);
}

const HOOKS: [(usize, &str, &str, &str); 10] = [
    (10, "Env_p0,0", "Env_p0,1", "p0"),
    (12, "Env_p1,0", "Env_p1,1", "p1"),
    (12, "Env_p1,0", "Env_p1,1", "p1"),
    (14, "Env_p2,0", "Env_p2,1", "p2"),
    (14, "Env_p2,0", "Env_p2,1", "p2"),
    (14, "Env_p2,0", "Env_p2,1", "p2"),
    (14, "Env_p2,0", "Env_p2,1", "p2"),
    (10, "Env_p0,0", "Env_p0,1", "p0"),
    (10, "Env_p0,0", "Env_p0,1", "p0"),
    (10, "Env_p0,0", "Env_p0,1", "p0"),
];

#[test]
fn explorations_are_pinned() {
    let pi = Pi::new(2);
    for (seed, max_nodes, max_depth, want) in EXPLORATIONS {
        let seq = random_t_omega(pi, 0, seed);
        let sys = tree_system(pi, &seq);
        let tree = TaggedTree::new(&sys, seq);
        let e = explore(&tree, max_nodes, max_depth);
        check_proposition_29(&tree, &e).unwrap();
        let (mut fd_hash, mut fd_total) = (FNV_OFFSET, 0usize);
        for k in 0..e.len() {
            let c = fd_events_consumed(&e, k);
            fd_total += c;
            fd_hash = fnv(fd_hash, &(c as u64).to_le_bytes());
        }
        let got = (
            e.len(),
            e.live_edges,
            e.bottom_edges,
            e.complete,
            fd_total,
            fd_hash,
        );
        println!("explore seed {seed}: {got:?}");
        assert_eq!(got, want, "seed {seed}");
    }
}

#[allow(clippy::type_complexity)]
const EXPLORATIONS: [(u64, usize, usize, (usize, usize, usize, bool, usize, u64)); 2] = [
    (
        0,
        5_000,
        6,
        (78, 174, 366, false, 126, 0x1c25_c9e1_300f_02e5),
    ),
    (9, 2_000, 5, (46, 96, 210, false, 76, 0xcbfe_f095_fc4c_d505)),
];
