//! Exhaustive model checking of small full systems: every reachable
//! state of the Figure 1 composition is enumerated (all interleavings,
//! including crash timings injected as explicit inputs), and safety
//! invariants are checked on each state — stronger evidence than any
//! number of randomized runs.

use afd_algorithms::broadcast::{urb_system, Urb};
use afd_algorithms::consensus::paxos_omega::{paxos_system, PaxosOmega};
use afd_core::{Action, Loc, Pi};
use afd_system::{ComponentState, ProcState, ProcessAutomaton};
use ioa::{check_invariant, reachable_states, Automaton};

type PaxosCompState =
    Vec<ComponentState<ProcState<afd_algorithms::consensus::paxos_omega::PaxosState>>>;

/// Extract the per-process Paxos states from a composite state.
fn paxos_procs(
    s: &PaxosCompState,
) -> Vec<&ProcState<afd_algorithms::consensus::paxos_omega::PaxosState>> {
    s.iter()
        .filter_map(|c| match c {
            ComponentState::Process(p) => Some(p),
            _ => None,
        })
        .collect()
}

#[test]
fn paxos_agreement_exhaustive_n2() {
    // n = 2, inputs {0, 1}, no crashes: enumerate EVERY reachable state
    // of the full composition and check agreement + validity as state
    // invariants. The sweep must complete (finite reachable space: the
    // Ω generator's outputs are state-idempotent, ballots cannot grow
    // without dueling leaders, and every message queue is bounded).
    let pi = Pi::new(2);
    let sys = paxos_system(pi, &[0, 1], vec![]);
    let m = &sys.composition;
    let out = check_invariant(m, &[], 600_000, usize::MAX, |s: &PaxosCompState| {
        let procs = paxos_procs(s);
        // Agreement: all decided values equal.
        let decided: Vec<u64> = procs.iter().filter_map(|p| p.inner.decided).collect();
        if decided.windows(2).any(|w| w[0] != w[1]) {
            return false;
        }
        // Validity: decided values were proposed ({0, 1} here).
        decided.iter().all(|v| *v == 0 || *v == 1)
    });
    if let Some(k) = out.violation {
        panic!("agreement violated after {:?}", out.path(k));
    }
    let states = out.len();
    assert!(
        out.complete,
        "state space unexpectedly exceeded the budget ({states} states)"
    );
    assert!(
        states > 50,
        "the sweep actually explored the protocol: {states}"
    );
    // Pins the sweep's deduplication: the count is the model's own.
    assert_eq!(states, 96, "paxos n=2 reachable states");
    println!("paxos n=2 exhaustive: {states} states, agreement holds everywhere");
}

#[test]
fn paxos_decided_states_are_reachable_in_the_sweep() {
    // Sanity for the previous test: the exhaustive space includes
    // states where both processes decided (i.e. the invariant was
    // checked on post-decision states, not vacuously).
    let pi = Pi::new(2);
    let sys = paxos_system(pi, &[1, 1], vec![]);
    let m = &sys.composition;
    // Invariant "not everyone decided" must be violated somewhere.
    let out = check_invariant(m, &[], 600_000, usize::MAX, |s: &PaxosCompState| {
        !paxos_procs(s).iter().all(|p| p.inner.announced)
    });
    let Some(k) = out.violation else {
        panic!(
            "no fully-decided state found ({} states, complete={})",
            out.len(),
            out.complete
        )
    };
    let path: Vec<Action> = out.path(k).into_iter().map(|e| e.action).collect();
    // The shortest path to full decision announces both decides.
    let decides = path
        .iter()
        .filter(|a| matches!(a, Action::Decide { .. }))
        .count();
    assert_eq!(decides, 2);
    // And by validity the decided value is the unanimous input.
    assert!(path
        .iter()
        .all(|a| !matches!(a, Action::Decide { v, .. } if *v != 1)));
}

type UrbCompState = Vec<ComponentState<ProcState<afd_algorithms::broadcast::UrbState>>>;

fn urb_procs(s: &UrbCompState) -> Vec<&ProcState<afd_algorithms::broadcast::UrbState>> {
    s.iter()
        .filter_map(|c| match c {
            ComponentState::Process(p) => Some(p),
            _ => None,
        })
        .collect()
}

#[test]
fn urb_safety_exhaustive_n2_with_crash_interleavings() {
    // n = 2, one broadcast by p0, and crash_p0 injected as an explicit
    // input at EVERY reachable point: no state may show a delivery of a
    // never-broadcast payload, and terminal states must satisfy uniform
    // agreement (someone delivered ⇒ every non-crashed process did).
    let pi = Pi::new(2);
    let sys = urb_system(pi, vec![(Loc(0), 7)], vec![Loc(0)]);
    let m = &sys.composition;
    let inputs = vec![Action::Crash(Loc(0))];
    let out = check_invariant(m, &inputs, 400_000, usize::MAX, |s: &UrbCompState| {
        let procs = urb_procs(s);
        // No creation: only payload 7 from p0 may ever be delivered.
        for p in &procs {
            for &(origin, payload) in &p.inner.to_deliver {
                if origin != Loc(0) || payload != 7 {
                    return false;
                }
            }
        }
        // Terminal-state uniform agreement: if nothing is enabled and
        // some process delivered, every non-crashed process delivered.
        // A process has *performed* a Deliver event iff its bookkeeping
        // says delivered and nothing is still pending emission
        // (`delivered` is set at relay time; the event fires later).
        let emitted = |p: &ProcState<afd_algorithms::broadcast::UrbState>| {
            !p.inner.delivered.is_empty() && p.inner.to_deliver.is_empty()
        };
        if !m_is_active(m, s) {
            let anyone = procs.iter().any(|p| emitted(p));
            if anyone {
                for p in &procs {
                    if !p.crashed && !emitted(p) {
                        return false;
                    }
                }
            }
        }
        true
    });
    if let Some(k) = out.violation {
        panic!("URB safety violated after {:?}", out.path(k));
    }
    let states = out.len();
    assert!(
        out.complete,
        "URB space must be finite here ({states} states)"
    );
    assert!(states > 20);
    assert_eq!(states, 28, "urb n=2 reachable states with crash inputs");
    println!("urb n=2 exhaustive (with crash interleavings): {states} states");
}

/// Is any task of the composition enabled in `s`? (Free function so the
/// closure can borrow `m` immutably alongside.)
fn m_is_active<M: Automaton>(m: &M, s: &M::State) -> bool {
    m.any_task_enabled(s)
}

#[test]
fn state_space_grows_with_universe_size() {
    // A coarse scalability probe of the exhaustive explorer itself.
    let pi2 = Pi::new(2);
    let sys2 = urb_system(pi2, vec![(Loc(0), 7)], vec![]);
    let (n2, c2) = reachable_states(&sys2.composition, &[], 400_000);
    assert!(c2);
    let pi3 = Pi::new(3);
    let sys3 = urb_system(pi3, vec![(Loc(0), 7)], vec![]);
    let (n3, c3) = reachable_states(&sys3.composition, &[], 400_000);
    assert!(c3, "3-process URB with one payload still fits: {n3}");
    assert!(n3 > n2, "more locations, more interleavings ({n2} vs {n3})");
    assert_eq!(
        (n2, n3),
        (14, 502),
        "urb reachable states at n = 2 and n = 3"
    );
}

#[test]
fn urb_process_type_is_exported() {
    // Compile-time check that the public types used above stay public.
    fn assert_process<B: afd_system::LocalBehavior>(_: &ProcessAutomaton<B>) {}
    let p = ProcessAutomaton::new(Loc(0), Urb::new(Pi::new(2)));
    assert_process(&p);
    let q = ProcessAutomaton::new(Loc(0), PaxosOmega::new(Pi::new(2)));
    assert_process(&q);
}
