//! Same-seed pin of the simulator's schedules. The three systems of the
//! benchmark's `sim-suite` workload run as its warm-up repetition does
//! at seed 3 (a tenth of the steps and seeds), and each schedule is
//! hashed with FNV-1a over the wire encoding of its actions
//! (`afd_net::codec::encode_action`), which no toolchain change moves.
//! A change to how the simulator steps, schedules or routes that alters
//! any schedule fails here; a change that means to alter schedules
//! updates the constants and says why.

use afd_algorithms::consensus::{all_live_decided, paxos_system};
use afd_algorithms::{bounded_evp_system, self_impl_system};
use afd_core::automata::FdGen;
use afd_core::{Action, Loc, Pi};
use afd_net::codec::encode_action;
use afd_system::{run_random, FaultPattern, SimConfig, SplitMix64};

/// The workload's seed.
const SEED: u64 = 3;
/// `sim-suite`'s step count of its long parts, at warm-up size.
const STEPS: usize = 200_000 / 10;
/// `sim-suite`'s Paxos seeds, at warm-up size.
const PAXOS_SEEDS: u64 = 200 / 10;

/// `sim-suite`'s per-part seed derivation.
fn derive(k: u64) -> u64 {
    SplitMix64::new(SEED ^ k.wrapping_mul(0x9E37_79B9_7F4A_7C15)).next_u64()
}

/// 64-bit FNV-1a, continued from `h`, over the encoded schedule.
fn fnv1a(mut h: u64, schedule: &[Action]) -> u64 {
    for a in schedule {
        for b in encode_action(a) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

#[test]
fn self_impl_omega_n8_schedule_is_pinned() {
    let pi = Pi::new(8);
    let victim = Loc((derive(0) % 8) as u8);
    let sys = self_impl_system(pi, FdGen::omega(pi), vec![victim]);
    let cfg = SimConfig::default()
        .with_faults(FaultPattern::at(vec![(STEPS / 2, victim)]))
        .with_max_steps(STEPS);
    let out = run_random(&sys, derive(1), cfg);
    assert_eq!(out.schedule().len(), STEPS);
    assert_eq!(
        format!("{:016x}", fnv1a(FNV_OFFSET, out.schedule())),
        "e0be0636d1f1314f"
    );
}

#[test]
fn bounded_evp_n3_schedule_is_pinned() {
    let pi = Pi::new(3);
    let sys = bounded_evp_system(pi, vec![]);
    let out = run_random(&sys, derive(2), SimConfig::default().with_max_steps(STEPS));
    assert_eq!(out.schedule().len(), STEPS);
    assert_eq!(
        format!("{:016x}", fnv1a(FNV_OFFSET, out.schedule())),
        "e3b5090e19663aa2"
    );
}

#[test]
fn paxos_n5_schedules_are_pinned() {
    let pi = Pi::new(5);
    let base = derive(3);
    let values: Vec<u64> = (0..5).map(|i| (base >> i) & 1).collect();
    let sys = paxos_system(pi, &values, vec![]);
    let mut h = FNV_OFFSET;
    let mut events = 0;
    for s in 0..PAXOS_SEEDS {
        let cfg = SimConfig::default()
            .with_max_steps(20_000)
            .stop_when(move |sched| all_live_decided(pi, sched));
        let out = run_random(&sys, base.wrapping_add(s), cfg);
        assert!(all_live_decided(pi, out.schedule()), "seed {s}");
        events += out.schedule().len();
        h = fnv1a(h, out.schedule());
    }
    assert_eq!(
        (events, format!("{h:016x}")),
        (3751, "6af3ef8067c988cd".to_string())
    );
}
